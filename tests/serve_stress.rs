//! Concurrency harness for `cube serve`: many clients hammering
//! overlapping `/eval` requests must always see the same bytes for the
//! same expression (hit or miss), the bounded admission queue must
//! answer 429 immediately instead of hanging when full, and a
//! graceful shutdown must drain every admitted request.

#[path = "serve_util/mod.rs"]
mod serve_util;

use serve_util::{json_field, json_number, request, request_within, Reply};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cube_model::builder::single_threaded_system;
use cube_model::{Experiment, ExperimentBuilder, RegionKind, Unit};

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cube_serve_stress_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small synthetic experiment; `seed` varies the severity values so
/// distinct uploads get distinct content ids.
fn sample(seed: u64) -> Experiment {
    let mut b = ExperimentBuilder::new(format!("stress run {seed}"));
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

fn boot(tag: &str, config: cube_serve::ServeConfig) -> (cube_serve::RunningServer, Vec<String>) {
    let dir = workdir(tag);
    let server = cube_serve::start(config, &dir.join("repo")).expect("server starts");
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
    (server, ids)
}

/// The deterministic LCG the fuzz harnesses use (`fuzz_lint.rs`).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn overlapping_clients_see_identical_bytes() {
    let (server, ids) = boot(
        "overlap",
        cube_serve::ServeConfig {
            workers: 4,
            ..cube_serve::ServeConfig::default()
        },
    );
    let addr = server.local_addr();
    let exprs: Arc<Vec<String>> = Arc::new(vec![
        format!("mean({},{},{})", ids[0], ids[1], ids[2]),
        format!("diff(mean({},{}),{})", ids[0], ids[1], ids[2]),
        format!("scale(sum({},{}),0.5)", ids[1], ids[2]),
    ]);

    const CLIENTS: usize = 12;
    const ROUNDS: usize = 6;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let exprs = Arc::clone(&exprs);
            std::thread::spawn(move || {
                let mut rng = Lcg(0x5eed + client as u64);
                let mut seen: Vec<(usize, Vec<u8>)> = Vec::new();
                for _ in 0..ROUNDS {
                    let which = rng.below(exprs.len());
                    let reply = request(addr, "POST", "/eval", exprs[which].as_bytes());
                    assert_eq!(reply.status, 200, "{}", reply.text());
                    assert!(
                        matches!(reply.header("x-cache"), Some("hit" | "miss")),
                        "x-cache must always be present"
                    );
                    seen.push((which, reply.body));
                }
                seen
            })
        })
        .collect();

    // Collect every response; the reference bytes for each expression
    // are whatever the server said — all 72 responses must agree
    // per-expression, across cache hits, misses, and worker threads.
    let mut reference: Vec<Option<Vec<u8>>> = vec![None; exprs.len()];
    for handle in handles {
        for (which, body) in handle.join().expect("client thread must not panic") {
            match &reference[which] {
                None => reference[which] = Some(body),
                Some(expected) => assert_eq!(
                    &body, expected,
                    "response bytes diverged for expression {which}"
                ),
            }
        }
    }
    for (which, bytes) in reference.iter().enumerate() {
        assert!(bytes.is_some(), "expression {which} was never exercised");
    }

    // The cache did real work: some hits, and at most one miss per
    // expression per... rebuild race; misses stay tiny next to hits.
    let stats = request(addr, "GET", "/stats", b"").text();
    let hits = json_number(&stats, "hits").expect("result cache hits");
    assert!(hits > 0, "no cache hits under overlap: {stats}");

    server.shutdown();
    server.join();
}

#[test]
fn full_queue_answers_429_immediately_never_hangs() {
    let (server, ids) = boot(
        "queue",
        cube_serve::ServeConfig {
            workers: 1,
            queue_depth: 1,
            delay_ms: 400,
            ..cube_serve::ServeConfig::default()
        },
    );
    let addr = server.local_addr();
    let expr = format!("mean({},{})", ids[0], ids[1]);

    const CLIENTS: usize = 8;
    let started = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let expr = expr.clone();
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let reply = request(addr, "POST", "/eval", expr.as_bytes());
                (reply, t0.elapsed())
            })
        })
        .collect();

    let mut ok = 0usize;
    let mut rejected = 0usize;
    for handle in handles {
        let (reply, elapsed): (Reply, Duration) =
            handle.join().expect("client thread must not panic");
        match reply.status {
            200 => ok += 1,
            429 => {
                rejected += 1;
                assert_eq!(
                    json_field(&reply.text(), "code").as_deref(),
                    Some("queue_full")
                );
                // A rejection is immediate — it must not wait out the
                // worker's 400 ms stall even once.
                assert!(
                    elapsed < Duration::from_millis(350),
                    "429 took {elapsed:?}; overload must shed instantly"
                );
            }
            other => panic!("unexpected status {other}: {}", reply.text()),
        }
    }
    // One in service + one queued are guaranteed to succeed; with all
    // eight fired into a 400 ms stall, at least one must bounce.
    assert!(ok >= 2, "expected at least two successes, got {ok}");
    assert!(rejected >= 1, "expected at least one 429, got {rejected}");
    assert_eq!(ok + rejected, CLIENTS);
    // "Never hangs": every client got *some* answer well inside the
    // worst case of eight serial stalls.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "queue test stalled: {:?}",
        started.elapsed()
    );

    let stats = request(addr, "GET", "/stats", b"").text();
    assert_eq!(json_number(&stats, "rejected"), Some(rejected as u64));

    server.shutdown();
    server.join();
}

#[test]
fn a_trickling_rejected_client_does_not_hold_the_acceptor() {
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;

    let (server, ids) = boot(
        "trickle",
        cube_serve::ServeConfig {
            workers: 1,
            queue_depth: 1,
            header_deadline_ms: 30_000,
            ..cube_serve::ServeConfig::default()
        },
    );
    let addr = server.local_addr();
    let expr = format!("mean({},{})", ids[0], ids[1]);

    // A's half-sent head holds the only worker; B's waits in the
    // queue, which is then full.
    let half_head = || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /eval HTTP/1.1\r\nhost: t").unwrap();
        s
    };
    let a = half_head();
    std::thread::sleep(Duration::from_millis(200));
    let b = half_head();

    // C is refused, reads its 429, and then sends one byte every
    // 100 ms for 3 s into the drain.
    let (started, trickling) = std::sync::mpsc::channel();
    let c = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).unwrap();
        started.send(()).unwrap();
        for _ in 0..30 {
            let _ = s.write_all(b"x");
            std::thread::sleep(Duration::from_millis(100));
        }
        String::from_utf8_lossy(&raw).into_owned()
    });

    // D's complete request, 300 ms into the trickle, is refused at once
    // rather than when C stops.
    trickling
        .recv_timeout(Duration::from_secs(10))
        .expect("C got its 429");
    std::thread::sleep(Duration::from_millis(300));
    let t0 = Instant::now();
    let reply = request_within(
        addr,
        "POST",
        "/eval",
        expr.as_bytes(),
        Duration::from_secs(10),
    )
    .expect("D gets a response");
    let elapsed = t0.elapsed();
    assert_eq!(reply.status, 429, "{}", reply.text());
    assert_eq!(
        json_field(&reply.text(), "code").as_deref(),
        Some("queue_full")
    );
    assert!(
        elapsed < Duration::from_millis(1500),
        "D's 429 took {elapsed:?} behind a trickling rejected client"
    );

    let c_reply = c.join().expect("client C must not panic");
    assert!(c_reply.contains(" 429 "), "C was not refused: {c_reply}");
    drop((a, b));
    server.shutdown();
    server.join();
}

#[test]
fn slow_loris_is_reaped_within_the_header_deadline() {
    use std::io::{Read as _, Write as _};

    let (server, _ids) = boot(
        "loris",
        cube_serve::ServeConfig {
            workers: 2,
            header_deadline_ms: 400,
            ..cube_serve::ServeConfig::default()
        },
    );
    let addr = server.local_addr();

    // A client that sends part of a request head and then stalls
    // forever. Without the header deadline this would park a worker
    // until the coarse socket timeout (30 s by default).
    let started = Instant::now();
    let loris = std::thread::spawn(move || {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        s.write_all(b"GET /stats HTTP/1.1\r\nhost: t").unwrap();
        s.flush().unwrap();
        let mut raw = Vec::new();
        let _ = s.read_to_end(&mut raw);
        raw
    });

    // While the loris stalls one worker, the server keeps answering.
    let reply = request(addr, "GET", "/healthz", b"");
    assert_eq!(reply.status, 200, "{}", reply.text());

    let raw = loris.join().expect("loris thread must not panic");
    let elapsed = started.elapsed();
    // Reaped at the 400 ms header deadline, not the 30 s socket
    // timeout — generous slack for a loaded CI machine.
    assert!(
        elapsed < Duration::from_secs(5),
        "slow-loris connection held a worker for {elapsed:?}"
    );
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.contains("504") && text.contains("deadline_exceeded"),
        "stalled head should answer 504 deadline_exceeded, got: {text}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn half_closed_body_is_answered_not_hung() {
    use std::io::{Read as _, Write as _};

    let (server, ids) = boot(
        "halfclose",
        cube_serve::ServeConfig {
            workers: 2,
            ..cube_serve::ServeConfig::default()
        },
    );
    let addr = server.local_addr();
    let expr = format!("mean({},{})", ids[0], ids[1]);

    // Declare a body, send a fragment of it, then half-close the write
    // side: the server sees EOF mid-body and must answer right away
    // instead of waiting out any timeout.
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let head = format!(
        "POST /eval HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
        expr.len() + 10
    );
    s.write_all(head.as_bytes()).unwrap();
    s.write_all(&expr.as_bytes()[..4]).unwrap();
    s.flush().unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();

    let started = Instant::now();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)
        .expect("server answers the half-closed peer");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "half-closed request took {:?}",
        started.elapsed()
    );
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.contains("400") && text.contains("mid-body"),
        "EOF mid-body should answer 400, got: {text}"
    );

    // The worker is free again: a well-formed request still succeeds.
    let reply = request(addr, "POST", "/eval", expr.as_bytes());
    assert_eq!(reply.status, 200, "{}", reply.text());

    server.shutdown();
    server.join();
}

#[test]
fn a_refused_request_gets_its_answer_and_then_eof() {
    let (server, _ids) = boot(
        "refused",
        cube_serve::ServeConfig {
            workers: 2,
            max_body: 65_536,
            ..cube_serve::ServeConfig::default()
        },
    );
    let addr = server.local_addr();
    let within = Duration::from_secs(10);

    // A head past the 16,384-byte limit, sent in one write: about 500
    // of its bytes are never read by the framing.
    let path = format!("/healthz?{}", "x".repeat(16_800));
    let reply =
        request_within(addr, "GET", &path, b"", within).expect("the 400 arrives whole, then EOF");
    assert_eq!(reply.status, 400, "{}", reply.text());
    assert_eq!(
        json_field(&reply.text(), "code").as_deref(),
        Some("bad_http")
    );

    // A body over --max-body, refused after its head.
    let body = vec![b'x'; 200_000];
    let reply = request_within(addr, "PUT", "/experiments", &body, within)
        .expect("the 413 arrives whole, then EOF");
    assert_eq!(reply.status, 413, "{}", reply.text());
    assert_eq!(
        json_field(&reply.text(), "code").as_deref(),
        Some("body_too_large")
    );

    server.shutdown();
    server.join();
}

#[test]
fn without_a_request_deadline_the_body_reads_under_the_socket_timeout() {
    use std::io::{Read as _, Write as _};

    let (server, ids) = boot(
        "nodeadline",
        cube_serve::ServeConfig {
            workers: 2,
            request_deadline_ms: 0,
            header_deadline_ms: 300,
            ..cube_serve::ServeConfig::default()
        },
    );
    let expr = format!("diff({},{})", ids[0], ids[1]);

    // The head and 5 body bytes at once, the rest 800 ms later: past
    // the head's 300 ms, well within the 30 s socket timeout.
    let mut s = std::net::TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let head = format!(
        "POST /eval HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
        expr.len()
    );
    s.write_all(&[head.as_bytes(), &expr.as_bytes()[..5]].concat())
        .unwrap();
    std::thread::sleep(Duration::from_millis(800));
    s.write_all(&expr.as_bytes()[5..]).unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("the server answers");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200 "), "{text}");

    server.shutdown();
    server.join();
}

#[test]
fn shutdown_drains_admitted_requests() {
    let (server, ids) = boot(
        "drain",
        cube_serve::ServeConfig {
            workers: 1,
            queue_depth: 16,
            delay_ms: 200,
            ..cube_serve::ServeConfig::default()
        },
    );
    let addr = server.local_addr();
    let expr = format!("sum({},{},{})", ids[0], ids[1], ids[2]);

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let expr = expr.clone();
            std::thread::spawn(move || request(addr, "POST", "/eval", expr.as_bytes()))
        })
        .collect();
    // Give the acceptor time to admit all four, then stop the server
    // while three are still queued behind the 200 ms stalls.
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown();
    server.join();

    // Every admitted request was still answered — drained, not dropped.
    let mut bodies = Vec::new();
    for handle in handles {
        let reply = handle.join().expect("client thread must not panic");
        assert_eq!(reply.status, 200, "{}", reply.text());
        bodies.push(reply.body);
    }
    for body in &bodies[1..] {
        assert_eq!(body, &bodies[0], "drained responses must match");
    }

    // The listener is gone: new connections are refused, not queued.
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "socket should be closed after shutdown"
    );
}
