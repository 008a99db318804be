//! Deterministic fault schedule driving the [`cube_xml::faults`] seam.
//!
//! A [`FaultPlan`] is parsed from the `CUBE_FAULTS` spec grammar (see
//! `docs/FAULTS.md`):
//!
//! ```text
//! seed=42,read_error=0.05,torn_read=0.05,checksum_flip=0.02,latency=25@0.1
//! ```
//!
//! Every field except `seed` is optional and defaults to off. The plan
//! is *activated* process-wide with [`activate`]; the first activation
//! installs the hook into [`cube_xml::faults`], and [`deactivate`]
//! makes it inert again (the hook itself can never be uninstalled, so
//! tests sharing a binary can take turns). With no plan active the
//! read path costs one relaxed atomic load per file read.
//!
//! Decisions are drawn from a splitmix64 stream over
//! `(seed, draw counter)`, so a fixed seed yields a reproducible fault
//! schedule regardless of wall clock — the property the chaos CI gate
//! relies on. Injected faults are counted per kind; [`counters`]
//! snapshots them for `/stats`.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::cache::lock_recover;

/// A parsed fault schedule: per-read probabilities for each fault kind
/// plus the seed that makes the schedule reproducible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the splitmix64 decision stream.
    pub seed: u64,
    /// Probability in `[0,1]` that a read fails with an injected
    /// `std::io::Error` (a *transient* fault: retried by the server).
    pub read_error: f64,
    /// Probability that the tail half of the read buffer is zeroed,
    /// tripping the reader's own CRC machinery downstream.
    pub torn_read: f64,
    /// Probability that one byte of the buffer is flipped, likewise
    /// caught by the real checksum verification.
    pub checksum_flip: f64,
    /// Artificial latency added to a read when the `latency` draw hits.
    pub latency_ms: u64,
    /// Probability of the latency fault.
    pub latency_p: f64,
}

impl FaultPlan {
    /// An all-off plan with the given seed.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            read_error: 0.0,
            torn_read: 0.0,
            checksum_flip: 0.0,
            latency_ms: 0,
            latency_p: 0.0,
        }
    }

    /// Parses the `CUBE_FAULTS` spec grammar
    /// (`key=value` pairs separated by commas; `latency=MS@P`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::quiet(0);
        let mut saw_seed = false;
        for field in spec.split(',') {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("fault spec field `{field}` is not key=value"))?;
            match key.trim() {
                "seed" => {
                    plan.seed = parse_u64(value, "seed")?;
                    saw_seed = true;
                }
                "read_error" => plan.read_error = parse_prob(value, "read_error")?,
                "torn_read" => plan.torn_read = parse_prob(value, "torn_read")?,
                "checksum_flip" => plan.checksum_flip = parse_prob(value, "checksum_flip")?,
                "latency" => {
                    let (ms, p) = value.split_once('@').ok_or_else(|| {
                        format!("latency must be MS@P (milliseconds at probability), got `{value}`")
                    })?;
                    plan.latency_ms = parse_u64(ms, "latency milliseconds")?;
                    plan.latency_p = parse_prob(p, "latency probability")?;
                }
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        if !saw_seed {
            return Err("fault spec must set seed=N (the schedule must be reproducible)".into());
        }
        Ok(plan)
    }
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.trim()
        .parse::<u64>()
        .map_err(|_| format!("{what} must be a non-negative integer, got `{s}`"))
}

fn parse_prob(s: &str, what: &str) -> Result<f64, String> {
    let p: f64 = s
        .trim()
        .parse()
        .map_err(|_| format!("{what} must be a number in [0,1], got `{s}`"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{what} must be in [0,1], got `{s}`"));
    }
    Ok(p)
}

// ---------------------------------------------------------------------------
// process-wide schedule state
// ---------------------------------------------------------------------------

/// Fast-path gate: checked before the plan mutex is ever touched.
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// The active plan. Leaf lock: nothing else is acquired while held.
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
/// Monotone draw counter feeding the splitmix64 decision stream.
static DRAWS: AtomicU64 = AtomicU64::new(0);

static INJECTED_IO_ERRORS: AtomicU64 = AtomicU64::new(0);
static INJECTED_TORN_READS: AtomicU64 = AtomicU64::new(0);
static INJECTED_CHECKSUM_FLIPS: AtomicU64 = AtomicU64::new(0);
static INJECTED_LATENCIES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of how many faults of each kind have been injected since
/// the process started (across all activations).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Injected `std::io::Error` read failures.
    pub io_errors: u64,
    /// Buffers whose tail was zeroed.
    pub torn_reads: u64,
    /// Buffers with one byte flipped.
    pub checksum_flips: u64,
    /// Reads delayed by artificial latency.
    pub latencies: u64,
}

/// Snapshots the fault-injection counters.
pub fn counters() -> FaultCounters {
    FaultCounters {
        io_errors: INJECTED_IO_ERRORS.load(Ordering::Relaxed),
        torn_reads: INJECTED_TORN_READS.load(Ordering::Relaxed),
        checksum_flips: INJECTED_CHECKSUM_FLIPS.load(Ordering::Relaxed),
        latencies: INJECTED_LATENCIES.load(Ordering::Relaxed),
    }
}

/// Whether a fault plan is currently active.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Activates `plan` process-wide. The first call installs the hook
/// into [`cube_xml::faults`]; later calls just swap the plan. Returns
/// `false` if another component beat this module to the global hook,
/// in which case no faults will fire.
pub fn activate(plan: FaultPlan) -> bool {
    *lock_recover(&PLAN) = Some(plan);
    if !cube_xml::faults::installed() && !cube_xml::faults::install(Box::new(hook)) {
        // Lost an install race with a foreign hook: stay inert.
        *lock_recover(&PLAN) = None;
        return false;
    }
    ACTIVE.store(true, Ordering::SeqCst);
    true
}

/// Deactivates the fault schedule; reads go back to the one-branch
/// fast path. The draw counter and fault counters are left alone so a
/// later activation continues the same decision stream.
pub fn deactivate() {
    ACTIVE.store(false, Ordering::SeqCst);
    *lock_recover(&PLAN) = None;
}

/// The hook body handed to [`cube_xml::faults::install`]: decides,
/// per read, which faults (if any) fire at this `site`. The commit
/// steps of a write (`commit.*` sites) pass untouched and draw nothing,
/// so uploads leave a schedule's reads as they were.
fn hook(site: &str, buf: &mut [u8]) -> Option<io::Error> {
    if !ACTIVE.load(Ordering::Relaxed) || site.starts_with("commit.") {
        return None;
    }
    let plan = (*lock_recover(&PLAN))?;
    // Latency first, so a delayed read can still fail afterwards —
    // the order a slow-then-dead disk produces.
    if plan.latency_p > 0.0 && unit_draw(plan.seed) < plan.latency_p {
        INJECTED_LATENCIES.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(plan.latency_ms));
    }
    if plan.read_error > 0.0 && unit_draw(plan.seed) < plan.read_error {
        INJECTED_IO_ERRORS.fetch_add(1, Ordering::Relaxed);
        return Some(io::Error::other(format!("injected read fault at {site}")));
    }
    if plan.torn_read > 0.0 && unit_draw(plan.seed) < plan.torn_read && !buf.is_empty() {
        INJECTED_TORN_READS.fetch_add(1, Ordering::Relaxed);
        let mid = buf.len() / 2;
        for b in &mut buf[mid..] {
            *b = 0;
        }
    }
    if plan.checksum_flip > 0.0 && unit_draw(plan.seed) < plan.checksum_flip && !buf.is_empty() {
        INJECTED_CHECKSUM_FLIPS.fetch_add(1, Ordering::Relaxed);
        let at = (next_draw(plan.seed) as usize) % buf.len();
        buf[at] ^= 0xFF;
    }
    None
}

// ---------------------------------------------------------------------------
// deterministic decision stream
// ---------------------------------------------------------------------------

/// splitmix64 finalizer: a high-quality 64-bit mix of its input.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Next raw 64-bit value of the process-wide decision stream for
/// `seed`. The stream position is a shared atomic, so concurrent
/// readers interleave — the *set* of decisions for a seed is fixed
/// even though their assignment to reads depends on scheduling.
fn next_draw(seed: u64) -> u64 {
    let n = DRAWS.fetch_add(1, Ordering::Relaxed);
    splitmix64(seed ^ n.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Next decision draw mapped to `[0,1)`.
fn unit_draw(seed: u64) -> f64 {
    (next_draw(seed) >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic backoff jitter in `[0,cap_ms]` milliseconds, derived
/// from the active plan's seed (or a fixed constant when no plan is
/// active, keeping retry timing reproducible in tests either way).
pub fn jitter_ms(salt: u64, cap_ms: u64) -> u64 {
    if cap_ms == 0 {
        return 0;
    }
    let seed = match *lock_recover(&PLAN) {
        Some(p) => p.seed,
        None => 0x5EED_0F0F_F00D,
    };
    splitmix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % (cap_ms + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse(
            "seed=42,read_error=0.05,torn_read=0.1,checksum_flip=0.02,latency=25@0.5",
        )
        .unwrap();
        assert_eq!(p.seed, 42);
        assert!((p.read_error - 0.05).abs() < 1e-12);
        assert!((p.torn_read - 0.1).abs() < 1e-12);
        assert!((p.checksum_flip - 0.02).abs() < 1e-12);
        assert_eq!(p.latency_ms, 25);
        assert!((p.latency_p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parse_requires_seed() {
        assert!(FaultPlan::parse("read_error=0.5").is_err());
    }

    #[test]
    fn parse_rejects_bad_fields() {
        assert!(FaultPlan::parse("seed=1,read_error=1.5").is_err());
        assert!(FaultPlan::parse("seed=1,latency=10").is_err());
        assert!(FaultPlan::parse("seed=1,bogus=1").is_err());
        assert!(FaultPlan::parse("seed=1,torn_read").is_err());
        assert!(FaultPlan::parse("seed=-3").is_err());
    }

    #[test]
    fn parse_seed_only_is_quiet() {
        assert_eq!(FaultPlan::parse("seed=7").unwrap(), FaultPlan::quiet(7));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for salt in 0..64 {
            let a = jitter_ms(salt, 10);
            assert!(a <= 10);
            assert_eq!(a, jitter_ms(salt, 10));
        }
        assert_eq!(jitter_ms(99, 0), 0);
    }

    #[test]
    fn splitmix_stream_is_reproducible() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
    }
}
