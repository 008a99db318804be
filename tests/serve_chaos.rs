//! Chaos harness for `cube serve`: the server runs under a seeded
//! fault schedule (I/O errors, torn reads, checksum flips, latency)
//! while 12 concurrent clients hammer `/eval`. The contract under
//! fire:
//!
//! - every connection is answered — no hangs, no dropped sockets;
//! - every status is one the fault model specifies: `200` (recovered
//!   via retry), `206` (degraded `keep_going`), `503` (persistent
//!   failure or quarantine), `504` (deadline) — never a bare `500`
//!   and never a `404` caused by an availability failure;
//! - every `200` body is byte-identical to the fault-free run;
//! - every `206` carries an accurate `omitted_operands` report.
//!
//! A deterministic coda corrupts one object on disk and asserts the
//! degraded path precisely: `503` without opt-in, `206` with it, an
//! error for structurally required operands, and a `degraded` health
//! signal once the breaker trips. It then damages a second object's
//! metadata under a short deadline: `/eval`, with or without
//! `keep_going`, and `/check` all answer `504` within the budget.

#[path = "serve_util/mod.rs"]
mod serve_util;

use serve_util::{json_field, json_number, request};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cube_model::builder::single_threaded_system;
use cube_model::{Experiment, ExperimentBuilder, RegionKind, Unit};

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cube_serve_chaos_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small synthetic experiment; `seed` varies the severity values so
/// distinct uploads get distinct content ids.
fn sample(seed: u64) -> Experiment {
    let mut b = ExperimentBuilder::new(format!("chaos run {seed}"));
    let time = b.def_metric("time", Unit::Seconds, "total time", None);
    let m = b.def_module("a.c", "/a.c");
    let main_r = b.def_region("main", m, RegionKind::Function, 1, 9);
    let solve_r = b.def_region("solve", m, RegionKind::Function, 2, 8);
    let cs0 = b.def_call_site("a.c", 1, main_r);
    let cs1 = b.def_call_site("a.c", 3, solve_r);
    let root = b.def_call_node(cs0, None);
    let solve = b.def_call_node(cs1, Some(root));
    let ts = single_threaded_system(&mut b, 4);
    for (i, &t) in ts.iter().enumerate() {
        b.set_severity(time, root, t, (seed * 7 + i as u64) as f64 * 0.5);
        b.set_severity(time, solve, t, (seed * 3 + i as u64) as f64 * 0.25);
    }
    b.build().unwrap()
}

/// All caches off so every request drives real disk reads — the fault
/// injection sites sit on the read path, and a warm cache would stop
/// exercising them after the first round.
fn uncached(faults: Option<String>) -> cube_serve::ServeConfig {
    cube_serve::ServeConfig {
        workers: 4,
        result_cache: 0,
        plan_cache: 0,
        handle_cache: 0,
        read_retries: 3,
        backoff_base_ms: 1,
        breaker_threshold: 4,
        faults,
        ..cube_serve::ServeConfig::default()
    }
}

/// The deterministic LCG the other harnesses use.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Collects the 16-hex-digit `"id"` values from a degraded response's
/// `omitted_operands` array.
fn omitted_ids(body: &str) -> Vec<String> {
    let Some(at) = body.find("\"omitted_operands\":[") else {
        return Vec::new();
    };
    let Some(end) = body[at..].find(']') else {
        return Vec::new();
    };
    let mut ids = Vec::new();
    let mut rest = &body[at..at + end];
    while let Some(i) = rest.find("\"id\":\"") {
        let tail = &rest[i + 6..];
        if let Some(q) = tail.find('"') {
            ids.push(tail[..q].to_string());
            rest = &tail[q..];
        } else {
            break;
        }
    }
    ids
}

#[test]
fn chaos_schedule_never_hangs_or_corrupts_responses() {
    let repo = workdir("run").join("repo");

    // --- Phase 1: fault-free reference -----------------------------
    // Ingest the corpus and record the canonical bytes every
    // expression must still produce whenever a faulted run says 200.
    let server = cube_serve::start(uncached(None), &repo).expect("reference server starts");
    let addr = server.local_addr();
    let ids: Vec<String> = (1..=3)
        .map(|seed| {
            let reply = request(
                addr,
                "PUT",
                "/experiments",
                &cube_store::write_store(&sample(seed)),
            );
            assert_eq!(reply.status, 201, "{}", reply.text());
            json_field(&reply.text(), "id").expect("ingest returns an id")
        })
        .collect();
    // (expression, all operand ids, operand count)
    let exprs: Arc<Vec<(String, Vec<String>, usize)>> = Arc::new(vec![
        (
            format!("mean({},{},{})", ids[0], ids[1], ids[2]),
            ids.clone(),
            3,
        ),
        (
            format!("diff(mean({},{}),{})", ids[0], ids[1], ids[2]),
            ids.clone(),
            3,
        ),
        (
            format!("scale(sum({},{}),0.5)", ids[1], ids[2]),
            vec![ids[1].clone(), ids[2].clone()],
            2,
        ),
    ]);
    let reference: Arc<Vec<Vec<u8>>> = Arc::new(
        exprs
            .iter()
            .map(|(expr, _, _)| {
                let reply = request(addr, "POST", "/eval", expr.as_bytes());
                assert_eq!(reply.status, 200, "{}", reply.text());
                reply.body
            })
            .collect(),
    );
    server.shutdown();
    server.join();

    // --- Phase 2: the same repository under a fault schedule -------
    let spec = "seed=2026,read_error=0.15,torn_read=0.08,checksum_flip=0.08,latency=2@0.3";
    let server =
        cube_serve::start(uncached(Some(spec.into())), &repo).expect("chaos server starts");
    let addr = server.local_addr();

    const CLIENTS: usize = 12;
    const ROUNDS: usize = 8;
    let started = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let exprs = Arc::clone(&exprs);
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                let mut rng = Lcg(0xC4A05 + client as u64);
                let mut statuses = Vec::new();
                for _ in 0..ROUNDS {
                    let which = (rng.next() % exprs.len() as u64) as usize;
                    let keep_going = rng.next() % 2 == 1;
                    let path = if keep_going {
                        "/eval?keep_going=1"
                    } else {
                        "/eval"
                    };
                    let (expr, operand_ids, operand_count) = &exprs[which];
                    let reply = request(addr, "POST", path, expr.as_bytes());
                    match reply.status {
                        // Fault-free or recovered by retry: the bytes
                        // must match the fault-free run exactly.
                        200 => assert_eq!(
                            reply.body, reference[which],
                            "200 body diverged from the fault-free run for {expr}"
                        ),
                        // Degraded: only with opt-in, and the omission
                        // report must add up.
                        206 => {
                            assert!(keep_going, "206 without keep_going for {expr}");
                            assert_eq!(
                                reply.header("x-cache"),
                                Some("degraded"),
                                "degraded responses are never cache-served"
                            );
                            let text = reply.text();
                            assert_eq!(
                                json_field(&text, "status").as_deref(),
                                Some("degraded"),
                                "{text}"
                            );
                            assert!(
                                !text.contains("\"code\":\"deadline_exceeded\""),
                                "an expired deadline is never an omitted operand: {text}"
                            );
                            let omitted = omitted_ids(&text);
                            assert!(!omitted.is_empty(), "206 with nothing omitted: {text}");
                            for id in &omitted {
                                assert!(
                                    operand_ids.contains(id),
                                    "omitted id {id} is not an operand of {expr}"
                                );
                            }
                            let used = json_number(&text, "used").expect("degraded used count");
                            assert_eq!(
                                used as usize + omitted.len(),
                                *operand_count,
                                "used + omitted must cover every operand: {text}"
                            );
                        }
                        // Persistent failure or quarantine: structured,
                        // with a machine-readable code.
                        503 | 504 => {
                            assert!(
                                json_field(&reply.text(), "code").is_some(),
                                "5xx without a code: {}",
                                reply.text()
                            );
                        }
                        other => panic!("status {other} outside the fault model: {}", reply.text()),
                    }
                    statuses.push(reply.status);
                }
                statuses
            })
        })
        .collect();

    let mut tally = [0usize; 4]; // 200, 206, 503, 504
    for handle in handles {
        for status in handle.join().expect("client thread must not panic") {
            let slot = match status {
                200 => 0,
                206 => 1,
                503 => 2,
                _ => 3,
            };
            tally[slot] += 1;
        }
    }
    assert_eq!(tally.iter().sum::<usize>(), CLIENTS * ROUNDS);
    assert!(tally[0] > 0, "no request ever succeeded under faults");
    // "Never hangs": the whole barrage finished promptly even with
    // retries, injected latency, and backoff sleeps in play.
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "chaos run stalled: {:?}",
        started.elapsed()
    );

    // The schedule actually fired, and the server kept count.
    let stats = request(addr, "GET", "/stats", b"").text();
    let injected = json_number(&stats, "io_errors").unwrap_or(0)
        + json_number(&stats, "torn_reads").unwrap_or(0)
        + json_number(&stats, "checksum_flips").unwrap_or(0);
    assert!(injected > 0, "fault schedule never fired: {stats}");
    let health = request(addr, "GET", "/healthz", b"").text();
    assert!(
        matches!(
            json_field(&health, "status").as_deref(),
            Some("ok" | "degraded")
        ),
        "{health}"
    );
    server.shutdown();
    server.join();

    // --- Phase 3: deterministic degraded coda ----------------------
    // Corrupt one object on disk (no fault schedule now) and pin down
    // the exact degraded-mode semantics the chaos phase asserts
    // statistically.
    let victim = repo
        .join("objects")
        .join(&ids[2][..2])
        .join(format!("{}.cubec", ids[2]));
    let mut bytes = std::fs::read(&victim).expect("victim object exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&victim, &bytes).unwrap();

    let mut config = uncached(None);
    config.read_retries = 2;
    config.backoff_base_ms = 0;
    config.breaker_threshold = 2;
    let server = cube_serve::start(config, &repo).expect("coda server starts");
    let addr = server.local_addr();
    let mean = &exprs[0].0;

    // Without opt-in: persistent failure surfaces as 503, not 500/404.
    let reply = request(addr, "POST", "/eval", mean.as_bytes());
    assert_eq!(reply.status, 503, "{}", reply.text());
    assert_eq!(
        json_field(&reply.text(), "code").as_deref(),
        Some("object_unreadable"),
        "{}",
        reply.text()
    );

    // With opt-in: 206, the broken operand omitted, the other two used.
    let reply = request(addr, "POST", "/eval?keep_going=1", mean.as_bytes());
    assert_eq!(reply.status, 206, "{}", reply.text());
    let text = reply.text();
    assert_eq!(omitted_ids(&text), vec![ids[2].clone()], "{text}");
    assert_eq!(json_number(&text, "used"), Some(2), "{text}");
    // The envelope names the expression actually evaluated: the mean
    // restricted to its survivors, written with their ids.
    assert_eq!(
        json_field(&text, "expr"),
        Some(format!("mean({},{})", ids[0], ids[1])),
        "{text}"
    );

    // A structurally required operand cannot be omitted: diff's
    // subtrahend failing is an error even under keep_going.
    let diff = &exprs[1].0;
    let reply = request(addr, "POST", "/eval?keep_going=1", diff.as_bytes());
    assert_eq!(reply.status, 503, "{}", reply.text());
    assert!(
        reply.text().contains("structurally required"),
        "{}",
        reply.text()
    );

    // Two persistent failures tripped the breaker (threshold 2): the
    // health endpoint degrades while the id is quarantined.
    let health = request(addr, "GET", "/healthz", b"").text();
    assert_eq!(
        json_field(&health, "status").as_deref(),
        Some("degraded"),
        "{health}"
    );
    assert!(
        json_number(&health, "quarantined").unwrap_or(0) >= 1,
        "{health}"
    );
    assert!(
        json_number(&health, "read_failures").unwrap_or(0) >= 2,
        "{health}"
    );

    server.shutdown();
    server.join();

    // --- Phase 4: an expired deadline is the answer ----------------
    // Flip one byte inside the metadata section of a second object, so
    // every open of it fails the section CRC: a transient error, which
    // is retried until the 300 ms budget runs out. Degraded mode must
    // not omit the operand for it, and /check must not outlive it.
    let victim = repo
        .join("objects")
        .join(&ids[1][..2])
        .join(format!("{}.cubec", ids[1]));
    let mut bytes = std::fs::read(&victim).expect("second object exists");
    let le = |at: usize, n: usize| {
        (0..n).fold(0usize, |v, k| v | (usize::from(bytes[at + k]) << (8 * k)))
    };
    // Header: section count (u32) at 12, section table offset (u64) at
    // 16. Table rows are 32 bytes: kind (u32; 1 = METADATA), flags,
    // payload offset (u64) at 8, payload length (u64) at 16.
    let (count, table) = (le(12, 4), le(16, 8));
    let row = (0..count)
        .map(|k| table + 32 * k)
        .find(|&row| le(row, 4) == 1)
        .expect("a metadata section");
    let at = le(row + 8, 8) + le(row + 16, 8) / 2;
    bytes[at] ^= 0xFF;
    std::fs::write(&victim, &bytes).unwrap();

    let config = cube_serve::ServeConfig {
        request_deadline_ms: 300,
        read_retries: 60,
        backoff_base_ms: 1,
        breaker_threshold: 0,
        ..uncached(None)
    };
    let server = cube_serve::start(config, &repo).expect("deadline server starts");
    let addr = server.local_addr();
    let pair = format!("mean({},{})", ids[0], ids[1]);
    for path in ["/eval", "/eval?keep_going=1", "/check"] {
        let started = Instant::now();
        let reply = request(addr, "POST", path, pair.as_bytes());
        let took = started.elapsed();
        assert_eq!(reply.status, 504, "{path}: {}", reply.text());
        assert_eq!(
            json_field(&reply.text(), "code").as_deref(),
            Some("deadline_exceeded"),
            "{path}: {}",
            reply.text()
        );
        assert!(took < Duration::from_secs(1), "{path} took {took:?}");
    }
    server.shutdown();
    server.join();
}
