//! What one benchmark run is: its options, its workloads, its metrics,
//! and the closed loop every workload drives.

use crate::gen::{self, Scale};
use crate::stats;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 2026;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Environment variables that would change how `cube` runs; the
/// benchmark measures the defaults.
pub const CUBE_ENV: [&str; 4] = [
    "CUBE_THREADS",
    "RAYON_NUM_THREADS",
    "CUBE_FUSION",
    "CUBE_FAULTS",
];

/// The three workloads, each against `cube serve`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `/eval` requests that all miss the result cache.
    EvalMiss,
    /// `/eval` requests that all hit the result cache.
    EvalHit,
    /// An upload of a new experiment, then an `/eval` over it.
    IngestEval,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 3] = [Workload::EvalMiss, Workload::EvalHit, Workload::IngestEval];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EvalMiss => "eval-miss",
            Workload::EvalHit => "eval-hit",
            Workload::IngestEval => "ingest-eval",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client threads, and so connections open at once. One where a
    /// request keeps the server's pool busy on its own: on a shared
    /// machine a second client would mostly measure how the scheduler
    /// interleaves two requests. Two for `ingest-eval`, whose iterations
    /// all cost about the same: one client would send each connection a
    /// nearly constant time after the server took up the last one, lock
    /// onto one phase of the server's 2 ms accept poll for a whole run,
    /// and report whichever phase it happened to lock onto. A second
    /// client's requests land at independent times and break the lock.
    pub fn clients(self) -> usize {
        match self {
            Workload::EvalMiss | Workload::EvalHit => 1,
            Workload::IngestEval => 2,
        }
    }

    /// Operations after which the request stream has sent every kind of
    /// request once, in the same proportions as over the whole run.
    pub fn cycle(self) -> usize {
        match self {
            Workload::EvalMiss => gen::MISS_CYCLE,
            Workload::EvalHit => gen::HIT_EXPRS,
            Workload::IngestEval => 1,
        }
    }
}

/// Settings of one run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Seed of every input.
    pub seed: u64,
    /// Time measured: the timed phase, or in a traced run the untraced
    /// and the traced phase together.
    pub seconds: f64,
    /// Also run the traced replay and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Set-ups per untraced phase.
    pub setups: usize,
    /// The `cube` binary under test.
    pub cube: PathBuf,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples it summarizes.
    pub samples: usize,
    /// Context for the human-readable line, e.g. the percentile.
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
            note: String::new(),
        }
    }

    /// Adds a note.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// The percentile reported as `tail_ms`. Higher ones leave ten or more
/// samples beyond them in a run too, but repeat worse from run to run:
/// on `eval-miss` they fall among the few dearest of its 96 kinds of
/// request.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The end-to-end metrics of one untraced run: from the
/// set-up times in s, the latencies of the operations that succeeded in
/// ms, the timed phases' windows, and each server's peak RSS in KiB.
pub fn end_to_end(
    setup_s: &[f64],
    latencies_ms: &[f64],
    windows: &[Window],
    peak_rss_kib: &[f64],
) -> Vec<Metric> {
    let lat = stats::sorted(latencies_ms);
    let n = lat.len();
    let p = TAIL_PERCENTILE;
    let short = if stats::supports_tail(n, p) {
        ""
    } else {
        ", too few samples for a tail"
    };
    let w = windows.len();
    let per_window =
        |f: fn(&Window) -> f64| stats::median(&windows.iter().map(f).collect::<Vec<_>>());
    vec![
        Metric::new("setup_s", "s", stats::median(setup_s), setup_s.len()),
        Metric::new("p50_ms", "ms", stats::median(&lat), n),
        Metric::new("tail_ms", "ms", stats::percentile(&lat, p), n)
            .note(format!("p{p}, {} beyond{short}", stats::beyond(n, p))),
        Metric::new(
            "throughput_ops_s",
            "ops/s",
            per_window(|w| w.ops as f64 / w.secs),
            w,
        )
        .note(format!("median of {w} windows")),
        Metric::new(
            "cpu_ms_per_op",
            "ms",
            per_window(|w| w.cpu_ms / w.ops as f64),
            w,
        )
        .note(format!("server and client, median of {w} windows")),
        Metric::new(
            "peak_rss_mb",
            "MiB",
            stats::median(peak_rss_kib) / 1024.0,
            peak_rss_kib.len(),
        )
        .note("median of the servers"),
    ]
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Primary operations attempted in timed phases.
    pub attempted: u64,
    /// Of those, the ones that failed: transport error, wrong status or
    /// `X-Cache`, a length mismatch, or bytes unlike the reference.
    pub failed: u64,
    /// Checks that failed outside any one operation.
    pub problems: Vec<String>,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Further numbers printed and recorded in the result file but left
    /// out of the result line, such as `ingest-eval`'s upload latencies.
    pub extra: Vec<Metric>,
    /// The spans of a traced run.
    pub spans: Vec<crate::trace::Span>,
    /// The untraced timed phase's windows, recorded in the result file.
    pub windows: Vec<Window>,
}

impl Outcome {
    /// Operations ran, every one succeeded, and every check held.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.problems.is_empty()
    }
}

/// The untimed warm-up before each timed phase, as a share of its
/// length. On the shared machines this runs on, a CPU that has been idle
/// runs the first second or so of load markedly slower.
pub const WARMUP_SHARE: f64 = 0.1;

/// The shortest window of a timed phase, in seconds: long enough for
/// `/proc`'s 10 ms CPU ticks to resolve a window's CPU time to about 1 %.
pub const WINDOW_S: f64 = 1.0;

/// A stretch of a timed phase between two readings of CPU time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Window {
    /// Operations completed in it.
    pub ops: usize,
    /// Its wall time.
    pub secs: f64,
    /// CPU time spent in it, ms.
    pub cpu_ms: f64,
}

/// A timed phase: every operation's result, and the phase cut into
/// windows.
pub struct Phase<T> {
    /// Results, client by client.
    pub results: Vec<T>,
    /// Consecutive windows from the phase's start.
    pub windows: Vec<Window>,
}

/// Runs a closed loop for `seconds`, one thread per element of
/// `clients`: each calls `op` with its own state, and again only once
/// that call has returned. Whenever the completed operations reach a
/// multiple of `cycle` and at least [`WINDOW_S`] has passed since the
/// last reading, `cpu_ms` is read and a window closed, so each window
/// holds whole cycles of the request stream and the same mix of
/// requests. Rates taken per window and then their median shrug off the
/// stalls a shared machine inflicts on a few windows. A phase too short
/// for one window is one window.
pub fn closed_loop<S: Send, T: Send>(
    clients: &mut [S],
    seconds: f64,
    cycle: usize,
    mut cpu_ms: impl FnMut() -> f64 + Send,
    op: impl Fn(&mut S) -> T + Sync,
) -> Phase<T> {
    struct Meter<F> {
        cpu_ms: F,
        done: usize,
        last: Instant,
        /// Operations done, time and CPU time at the last reading.
        mark: (usize, Instant, f64),
        windows: Vec<Window>,
    }
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let cpu = cpu_ms();
    let meter = Mutex::new(Meter {
        cpu_ms,
        done: 0,
        last: start,
        mark: (0, start, cpu),
        windows: Vec::new(),
    });
    let (op, meter_ref) = (&op, &meter);
    let per_client: Vec<Vec<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|state| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        out.push(op(state));
                        let now = Instant::now();
                        let mut m = meter_ref.lock().expect("no client panics holding it");
                        m.done += 1;
                        m.last = m.last.max(now);
                        let (done_at, at, cpu_at) = m.mark;
                        let secs = (now - at).as_secs_f64();
                        if m.done % cycle == 0 && secs >= WINDOW_S {
                            let cpu = (m.cpu_ms)();
                            let ops = m.done - done_at;
                            m.windows.push(Window {
                                ops,
                                secs,
                                cpu_ms: cpu - cpu_at,
                            });
                            m.mark = (m.done, now, cpu);
                        }
                        if now >= deadline {
                            return out;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut m = meter.into_inner().expect("no client panicked");
    if m.windows.is_empty() {
        let (_, _, cpu_at) = m.mark;
        let cpu = (m.cpu_ms)();
        m.windows.push(Window {
            ops: m.done,
            secs: (m.last - start).as_secs_f64(),
            cpu_ms: cpu - cpu_at,
        });
    }
    Phase {
        results: per_client.into_iter().flatten().collect(),
        windows: m.windows,
    }
}
