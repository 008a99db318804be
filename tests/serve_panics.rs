//! A handler panic is answered, not fatal to its worker.
//!
//! `cube serve` catches a panic in a request's read or handler,
//! answers `500` with code `internal`, counts it under `panics` in
//! `/stats`, and keeps the worker serving. This binary installs a
//! `cube_xml::faults` hook that panics at the `store.open` seam while a
//! flag is set, and sends one more panicking `/eval` than the server
//! has workers: a panic that ended its worker would leave the last
//! request queued with nobody to serve it. Clients read with a timeout,
//! so that failure is reported instead of hanging the test.

#[path = "serve_util/mod.rs"]
mod serve_util;

use serve_util::{json_field, json_number, request, request_within};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use cube_model::builder::single_threaded_system;
use cube_model::{Experiment, ExperimentBuilder, RegionKind, Unit};

/// While set, every metadata read at the `store.open` seam panics.
static PANIC_AT_OPEN: AtomicBool = AtomicBool::new(false);

const WORKERS: usize = 2;

fn sample(seed: u64) -> Experiment {
    let mut b = ExperimentBuilder::new(format!("panic run {seed}"));
    let time = b.def_metric("time", Unit::Seconds, "total time", None);
    let m = b.def_module("a.c", "/a.c");
    let r = b.def_region("main", m, RegionKind::Function, 1, 9);
    let cs = b.def_call_site("a.c", 1, r);
    let root = b.def_call_node(cs, None);
    for (i, &t) in single_threaded_system(&mut b, 3).iter().enumerate() {
        b.set_severity(time, root, t, (seed * 5 + i as u64) as f64 * 0.5);
    }
    b.build().unwrap()
}

#[test]
fn a_panicking_handler_answers_500_and_its_worker_serves_on() {
    assert!(cube_xml::faults::install(Box::new(|site, _| {
        if site == "store.open" && PANIC_AT_OPEN.load(Ordering::SeqCst) {
            panic!("injected panic at {site}");
        }
        None
    })));
    let dir = std::env::temp_dir().join(format!("cube_serve_panics_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // No handle or result cache: every /eval reopens its operands, so
    // every flagged request reaches the panicking seam.
    let config = cube_serve::ServeConfig {
        workers: WORKERS,
        handle_cache: 0,
        result_cache: 0,
        ..cube_serve::ServeConfig::default()
    };
    let server = cube_serve::start(config, &dir.join("repo")).expect("server starts");
    let addr = server.local_addr();
    let ids: Vec<String> = (1..=2)
        .map(|seed| {
            let body = cube_store::write_store(&sample(seed));
            let reply = request(addr, "PUT", "/experiments", &body);
            assert_eq!(reply.status, 201, "{}", reply.text());
            json_field(&reply.text(), "id").expect("ingest returns an id")
        })
        .collect();
    let expr = format!("sum({},{})", ids[0], ids[1]);
    let eval = || {
        request_within(
            addr,
            "POST",
            "/eval",
            expr.as_bytes(),
            Duration::from_secs(10),
        )
        .unwrap_or_else(|e| panic!("/eval was not answered within 10 s: {e}"))
    };

    let fault_free = eval();
    assert_eq!(fault_free.status, 200, "{}", fault_free.text());

    PANIC_AT_OPEN.store(true, Ordering::SeqCst);
    for k in 0..=WORKERS {
        let reply = eval();
        assert_eq!(reply.status, 500, "request {k}: {}", reply.text());
        assert_eq!(
            json_field(&reply.text(), "code").as_deref(),
            Some("internal")
        );
    }
    PANIC_AT_OPEN.store(false, Ordering::SeqCst);

    let after = eval();
    assert_eq!(after.status, 200, "{}", after.text());
    assert_eq!(after.header("x-cache"), Some("miss"), "evaluated afresh");
    assert_eq!(
        after.body, fault_free.body,
        "bytes differ from the fault-free run"
    );
    let stats = request(addr, "GET", "/stats", b"").text();
    assert_eq!(
        json_number(&stats, "panics"),
        Some(WORKERS as u64 + 1),
        "{stats}"
    );

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}
