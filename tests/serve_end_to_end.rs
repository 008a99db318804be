//! End-to-end proof that `cube serve` is a faithful remote face of the
//! CLI: a server is booted on an ephemeral port, a measured corpus is
//! ingested in both wire formats, and every `/eval` response is
//! required to be *byte-identical* to the file the CLI writes for the
//! same computation — across thread counts, and on cache hits as well
//! as misses. Byte equality is the whole contract: a client must not
//! be able to tell whether its answer came from the cache, a different
//! pool size, or a CLI run.

#[path = "serve_util/mod.rs"]
mod serve_util;

use cube_serve::http::Deadline;
use serve_util::{json_field, json_number, request};
use std::collections::HashSet;
use std::path::PathBuf;

use cube_algebra::{BatchOperand, BatchPlan, MergeOptions};
use cube_model::builder::single_threaded_system;
use cube_model::{Experiment, ExperimentBuilder, RegionKind, Unit};
use cube_suite::simmpi::apps::{pescan, PescanConfig};
use cube_suite::simmpi::{simulate, EpilogTracer, MachineModel};
use cube_xml::write_experiment_file;

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cube_serve_e2e_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn produce(ranks: usize, iterations: usize, barriers: bool) -> cube_model::Experiment {
    let program = pescan(&PescanConfig {
        ranks,
        iterations,
        barriers,
        ..PescanConfig::default()
    });
    let mut tracer = EpilogTracer::new("cluster", 2);
    simulate(&program, &MachineModel::default(), &mut tracer).unwrap();
    cube_suite::expert::analyze(
        &tracer.into_trace(),
        &cube_suite::expert::AnalyzeOptions::default(),
    )
    .unwrap()
}

fn cube(parts: &[&str]) -> cube_cli::Outcome {
    let args: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
    cube_cli::run(&args).expect("cube invocation succeeds")
}

#[test]
fn eval_matches_cli_bytes_across_threads_and_cache_states() {
    let dir = workdir("main");
    let server = cube_serve::start(
        cube_serve::ServeConfig {
            workers: 2,
            ..cube_serve::ServeConfig::default()
        },
        &dir.join("repo"),
    )
    .expect("server starts");
    let addr = server.local_addr();

    // Ingest four runs: two uploaded as .cube XML, two as .cubec, so
    // both wire formats land in the same content-addressed namespace.
    let runs = [
        produce(4, 6, true),
        produce(4, 6, false),
        produce(4, 9, true),
        produce(4, 9, false),
    ];
    let mut ids = Vec::new();
    for (i, exp) in runs.iter().enumerate() {
        let bytes = if i % 2 == 0 {
            let path = dir.join(format!("up{i}.cube"));
            write_experiment_file(exp, &path).unwrap();
            std::fs::read(&path).unwrap()
        } else {
            cube_store::write_store(exp)
        };
        let reply = request(addr, "PUT", "/experiments", &bytes);
        assert_eq!(reply.status, 201, "{}", reply.text());
        let body = reply.text();
        assert!(body.contains("\"created\":true"), "{body}");
        ids.push(json_field(&body, "id").expect("ingest returns an id"));
    }
    // Re-uploading is idempotent: same id, 200 instead of 201.
    let again = request(
        addr,
        "PUT",
        "/experiments",
        &cube_store::write_store(&runs[1]),
    );
    assert_eq!(again.status, 200, "{}", again.text());
    assert_eq!(json_field(&again.text(), "id").as_deref(), Some(&*ids[1]));

    // The stats endpoint sees the ingested shape.
    let stats = request(addr, "GET", &format!("/experiments/{}/stats", ids[0]), b"");
    assert_eq!(stats.status, 200, "{}", stats.text());
    let body = stats.text();
    assert_eq!(json_field(&body, "kind").as_deref(), Some("original"));
    assert!(json_number(&body, "values").unwrap() > 0);
    assert!(json_number(&body, "nonzero").unwrap() > 0);
    // ... and the lint endpoint calls the stored object clean.
    let lint = request(addr, "GET", &format!("/experiments/{}/lint", ids[0]), b"");
    assert_eq!(lint.status, 200, "{}", lint.text());
    assert!(lint.text().contains("\"ok\":true"), "{}", lint.text());

    // CLI references: the exact object files the server serves from,
    // so operands are bit-for-bit the same on both sides.
    let objects: Vec<String> = ids
        .iter()
        .map(|id| {
            dir.join("repo")
                .join(cube_serve::Repository::relative_object_path(id))
                .to_string_lossy()
                .into_owned()
        })
        .collect();

    let mean_expr = format!("mean({},{},{},{})", ids[0], ids[1], ids[2], ids[3]);
    let composite_expr = format!(
        "diff(mean({},{}),mean({},{}))",
        ids[0], ids[1], ids[2], ids[3]
    );
    let merge_expr = format!("merge({},{})", ids[2], ids[1]);

    for (round, threads) in ["1", "2", "8"].iter().enumerate() {
        let mean_out = dir
            .join(format!("mean.t{threads}.cube"))
            .to_string_lossy()
            .into_owned();
        let comp_out = dir
            .join(format!("comp.t{threads}.cube"))
            .to_string_lossy()
            .into_owned();
        cube(&[
            "stats",
            &mean_out,
            &objects[0],
            &objects[1],
            &objects[2],
            &objects[3],
            "--threads",
            threads,
        ]);
        cube(&[
            "stats",
            &comp_out,
            &objects[0],
            &objects[1],
            &objects[2],
            &objects[3],
            "--minus",
            "2",
            "--threads",
            threads,
        ]);
        let merge_out = dir
            .join(format!("merge.t{threads}.cube"))
            .to_string_lossy()
            .into_owned();
        cube(&[
            "merge",
            &objects[2],
            &objects[1],
            "-o",
            &merge_out,
            "--threads",
            threads,
        ]);
        // The CLI set the global pool; the in-process server workers
        // evaluate on that same pool now.
        for (expr, cli_file) in [
            (&mean_expr, &mean_out),
            (&composite_expr, &comp_out),
            (&merge_expr, &merge_out),
        ] {
            let reply = request(addr, "POST", "/eval", expr.as_bytes());
            assert_eq!(reply.status, 200, "{}", reply.text());
            let cache = reply.header("x-cache").expect("x-cache header").to_string();
            if round == 0 {
                assert_eq!(cache, "miss", "first evaluation populates the cache");
            } else {
                assert_eq!(cache, "hit", "repeat evaluation is served from cache");
            }
            let cli_bytes = std::fs::read(cli_file).unwrap();
            assert_eq!(
                reply.body, cli_bytes,
                "/eval ({cache}) differs from CLI bytes at --threads {threads} for {expr}"
            );
        }
    }

    // JSON-framed eval bodies are accepted too, and hit the same cache.
    let json_body = format!("{{\"expr\": \"{mean_expr}\"}}");
    let reply = request(addr, "POST", "/eval", json_body.as_bytes());
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("x-cache"), Some("hit"));

    // Error surface: an unknown operand is now caught by the static
    // pre-flight, which answers with the checker's stable A001 code
    // and a structured diagnostics array instead of a bare message.
    let reply = request(addr, "POST", "/eval", b"mean(0123456789abcdef)");
    assert_eq!(reply.status, 404, "{}", reply.text());
    let body = reply.text();
    assert_eq!(json_field(&body, "code").as_deref(), Some("A001"));
    assert!(body.contains("\"diagnostics\":["), "{body}");
    let reply = request(addr, "POST", "/eval", b"mean(");
    assert_eq!(reply.status, 400, "{}", reply.text());
    assert_eq!(json_field(&reply.text(), "code").as_deref(), Some("P001"));
    let reply = request(addr, "GET", "/no/such/route", b"");
    assert_eq!(reply.status, 404);

    // The /check endpoint runs the same analysis without evaluating:
    // a clean expression reports ok with a cost estimate...
    let reply = request(addr, "POST", "/check", mean_expr.as_bytes());
    assert_eq!(reply.status, 200, "{}", reply.text());
    let body = reply.text();
    assert!(body.contains("\"ok\":true"), "{body}");
    assert!(body.contains("\"cost\":{"), "{body}");
    // ... and a statically-zero diff earns its A008 warning plus the
    // zero() rewrite, still with status 200 (the report is the answer).
    let zero_expr = format!("diff({},{})", ids[0], ids[0]);
    let reply = request(addr, "POST", "/check", zero_expr.as_bytes());
    assert_eq!(reply.status, 200, "{}", reply.text());
    let body = reply.text();
    assert!(body.contains("\"A008\""), "{body}");
    assert_eq!(json_field(&body, "rewritten").as_deref(), Some("zero()"));

    // Server counters saw all of it.
    let stats = request(addr, "GET", "/stats", b"");
    let body = stats.text();
    assert_eq!(json_number(&body, "experiments"), Some(4));
    assert!(json_number(&body, "evals").unwrap() >= 9);

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: `/eval` with a missing experiment id must fail early
/// with a structured 404-class JSON error — before any evaluation
/// work, without inserting into the result cache, and without reading
/// severity pages of the operands that *do* resolve.
#[test]
fn eval_rejects_missing_experiment_before_any_work() {
    let dir = workdir("preflight");
    let server = cube_serve::start(
        cube_serve::ServeConfig {
            workers: 1,
            ..cube_serve::ServeConfig::default()
        },
        &dir.join("repo"),
    )
    .expect("server starts");
    let addr = server.local_addr();

    let bytes = cube_store::write_store(&produce(2, 3, true));
    let reply = request(addr, "PUT", "/experiments", &bytes);
    assert_eq!(reply.status, 201, "{}", reply.text());
    let good = json_field(&reply.text(), "id").expect("ingest returns an id");

    // One resolvable operand, one missing: the pre-flight reports the
    // missing one with its A001 diagnostic and a 404 status.
    let expr = format!("mean({good},ffffffffffffffff)");
    let reply = request(addr, "POST", "/eval", expr.as_bytes());
    assert_eq!(reply.status, 404, "{}", reply.text());
    let body = reply.text();
    assert_eq!(json_field(&body, "code").as_deref(), Some("A001"));
    assert!(
        body.contains("ffffffffffffffff"),
        "diagnostics name the missing operand: {body}"
    );

    // Nothing was evaluated: the result cache holds no entry, so the
    // rejected expression can never be served from cache later.
    let stats = request(addr, "GET", "/stats", b"");
    let stats_body = stats.text();
    assert!(
        stats_body.contains("\"result_cache\":{\"hits\":0,\"misses\":1,\"entries\":0}"),
        "{stats_body}"
    );

    // The resolvable operand was opened metadata-only: its cached
    // handle never pulled severity pages into memory.
    let handle = server
        .shared()
        .repo
        .open_within(&good, &Deadline::none())
        .expect("handle cached");
    assert!(
        !handle.is_loaded(),
        "pre-flight must not touch severity pages"
    );

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The paper's Fig. 3 through the served expression language: one
/// `/eval` merging the EXPERT run with both CONE event sets equals the
/// nested library merges the figure is built from, in metadata and
/// severity bits.
#[test]
fn eval_merges_figure3_like_the_library() {
    use cube_suite::cone::{ConeProfiler, EventSet};
    use cube_suite::simmpi::apps::{sweep3d, Sweep3dConfig};

    let dir = workdir("fig3");
    let server = cube_serve::start(
        cube_serve::ServeConfig {
            workers: 1,
            ..cube_serve::ServeConfig::default()
        },
        &dir.join("repo"),
    )
    .expect("server starts");
    let addr = server.local_addr();

    let program = sweep3d(&Sweep3dConfig::default());
    let mut tracer = EpilogTracer::new("power4", 4);
    simulate(&program, &MachineModel::default(), &mut tracer).unwrap();
    let ex = cube_suite::expert::analyze(
        &tracer.into_trace(),
        &cube_suite::expert::AnalyzeOptions::default(),
    )
    .unwrap();
    let cone = |set: EventSet| {
        let mut profiler = ConeProfiler::new(set).unwrap().with_layout("power4", 4);
        simulate(&program, &MachineModel::default(), &mut profiler).unwrap();
        profiler.into_experiment().unwrap()
    };
    let (fp, l1) = (cone(EventSet::flops()), cone(EventSet::l1_cache()));

    let ids: Vec<String> = [&ex, &fp, &l1]
        .iter()
        .map(|e| {
            let reply = request(addr, "PUT", "/experiments", &cube_store::write_store(e));
            assert_eq!(reply.status, 201, "{}", reply.text());
            json_field(&reply.text(), "id").expect("ingest returns an id")
        })
        .collect();
    let expr = format!("merge({},{},{})", ids[0], ids[1], ids[2]);
    let reply = request(addr, "POST", "/eval", expr.as_bytes());
    assert_eq!(reply.status, 200, "{}", reply.text());
    let served = cube_xml::read_experiment(&reply.text()).unwrap();
    let nested = cube_algebra::ops::merge(&cube_algebra::ops::merge(&ex, &fp), &l1);
    assert_eq!(served.metadata(), nested.metadata());
    let bits = |e: &cube_model::Experiment| -> Vec<u64> {
        e.severity().values().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&served), bits(&nested));

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
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

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The metrics the random experiments draw from, each taking two or
/// three neighbours, so metric sets overlap in part.
const METRICS: [(&str, Unit); 4] = [
    ("time", Unit::Seconds),
    ("visits", Unit::Occurrences),
    ("bytes", Unit::Bytes),
    ("mpi", Unit::Seconds),
];

/// Experiment `k` of six: its own metric set, one of three leaf
/// regions under `main`, and 2–4 ranks, so most plans gather.
fn random_experiment(rng: &mut Lcg, k: usize) -> Experiment {
    let mut b = ExperimentBuilder::new(format!("random run {k}"));
    let metrics: Vec<_> = (0..2 + k % 2)
        .map(|j| METRICS[(k + j) % METRICS.len()])
        .map(|(name, unit)| b.def_metric(name, unit, "", None))
        .collect();
    let m = b.def_module("main.c", "/src/main.c");
    let main_r = b.def_region("main", m, RegionKind::Function, 1, 99);
    let leaf_r = b.def_region(format!("solve{}", k % 3), m, RegionKind::Function, 10, 20);
    let cs_main = b.def_call_site("main.c", 1, main_r);
    let root = b.def_call_node(cs_main, None);
    let cs_leaf = b.def_call_site("main.c", 40, leaf_r);
    let leaf = b.def_call_node(cs_leaf, Some(root));
    let threads = single_threaded_system(&mut b, 2 + k % 3);
    for &metric in &metrics {
        for cnode in [root, leaf] {
            for &t in &threads {
                let value = (rng.below(4000) as f64 - 1000.0) / 16.0;
                b.set_severity(metric, cnode, t, value);
            }
        }
    }
    b.build().expect("random experiment builds")
}

const REDUCERS: [&str; 7] = ["mean", "sum", "min", "max", "variance", "stddev", "merge"];
const FACTORS: [&str; 5] = ["0.5", "-1.5", "2", "1.000000003", "0"];

/// A random expression over `ids`, nesting `diff` and `scale` at most
/// `depth` deep above its operands and reductions.
fn random_expr(rng: &mut Lcg, ids: &[String], depth: usize) -> String {
    let operand = |rng: &mut Lcg| ids[rng.below(ids.len())].clone();
    match rng.below(if depth == 0 { 2 } else { 4 }) {
        0 => operand(rng),
        1 => {
            let list: Vec<String> = (0..1 + rng.below(4)).map(|_| operand(rng)).collect();
            format!("{}({})", REDUCERS[rng.below(7)], list.join(","))
        }
        2 => format!(
            "diff({},{})",
            random_expr(rng, ids, depth - 1),
            random_expr(rng, ids, depth - 1)
        ),
        _ => format!(
            "scale({},{})",
            random_expr(rng, ids, depth - 1),
            FACTORS[rng.below(FACTORS.len())]
        ),
    }
}

/// For random expressions over experiments that gather, every `/eval`
/// body, miss and hit, at 1, 2 and 8 threads, equals the library's own
/// pipeline over the stored objects: one plan over the expression's
/// operands, evaluated, then `write_experiment_to`.
#[test]
fn eval_matches_the_library_on_random_expressions() {
    let dir = workdir("random");
    let server = cube_serve::start(
        cube_serve::ServeConfig {
            workers: 2,
            ..cube_serve::ServeConfig::default()
        },
        &dir.join("repo"),
    )
    .expect("server starts");
    let addr = server.local_addr();

    let mut rng = Lcg(0x5EED_2026);
    let ids: Vec<String> = (0..6)
        .map(|k| {
            let bytes = cube_store::write_store(&random_experiment(&mut rng, k));
            let reply = request(addr, "PUT", "/experiments", &bytes);
            assert_eq!(reply.status, 201, "{}", reply.text());
            json_field(&reply.text(), "id").expect("ingest returns an id")
        })
        .collect();
    let stored: Vec<Experiment> = ids
        .iter()
        .map(|id| {
            let path = dir
                .join("repo")
                .join(cube_serve::Repository::relative_object_path(id));
            cube_store::read_store_file(&path).expect("stored object reads back")
        })
        .collect();

    let mut seen = HashSet::new();
    let mut exprs = Vec::new();
    while exprs.len() < 120 {
        let text = random_expr(&mut rng, &ids, 3);
        let parsed = cube_algebra::parse_expr(&text).expect("generated text parses");
        if seen.insert(parsed.canonical()) {
            exprs.push((text, parsed));
        }
    }
    let all: String = exprs.iter().map(|(text, _)| text.as_str()).collect();
    for op in REDUCERS.iter().chain(&["diff", "scale"]) {
        assert!(all.contains(&format!("{op}(")), "no {op} was generated");
    }
    for factor in FACTORS {
        assert!(all.contains(&format!(",{factor})")), "no scale by {factor}");
    }
    for (k, (text, parsed)) in exprs.iter().enumerate() {
        rayon::set_threads([1, 2, 8][k % 3]);
        let ops: Vec<&dyn BatchOperand> = parsed
            .operands
            .iter()
            .map(|id| &stored[ids.iter().position(|i| i == id).unwrap()] as &dyn BatchOperand)
            .collect();
        let exp = BatchPlan::from_operands(&ops, MergeOptions::default())
            .eval(&parsed.expr)
            .unwrap_or_else(|e| panic!("{text}: {e}"));
        let want = cube_xml::write_experiment_to(&exp, Vec::new()).unwrap();
        for cache in ["miss", "hit"] {
            let reply = request(addr, "POST", "/eval", text.as_bytes());
            assert_eq!(reply.status, 200, "{text}: {}", reply.text());
            assert_eq!(reply.header("x-cache"), Some(cache), "{text}");
            assert!(
                reply.body == want,
                "/eval ({cache}) of {text} differs from the library's bytes"
            );
        }
    }

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Objects that bypass upload validation — placed in the repository
/// under their content ids — meet the data-model check when the lazy
/// handle opens them and when it loads their pages. An object whose
/// metadata dangles would otherwise panic the worker that evaluates it,
/// and an object holding a NaN would be evaluated and cached.
#[test]
fn eval_refuses_stored_objects_that_violate_the_model() {
    let dir = workdir("model");
    let server = cube_serve::start(
        cube_serve::ServeConfig {
            workers: 2,
            ..cube_serve::ServeConfig::default()
        },
        &dir.join("repo"),
    )
    .expect("server starts");
    let addr = server.local_addr();
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut ok = Vec::new();
    for name in ["minimal", "full"] {
        let bytes = std::fs::read(fixtures.join(format!("valid/{name}.cube"))).unwrap();
        let reply = request(addr, "PUT", "/experiments", &bytes);
        assert_eq!(reply.status, 201, "{}", reply.text());
        ok.push(json_field(&reply.text(), "id").expect("ingest returns an id"));
    }
    let place = |bytes: &[u8]| {
        let id = cube_serve::content_id(bytes);
        let path = dir
            .join("repo")
            .join(cube_serve::Repository::relative_object_path(&id));
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, bytes).unwrap();
        id
    };
    // Region reg1 of this store names module 99; its CRCs are valid.
    let dangling = place(&std::fs::read(fixtures.join("corrupt/dangling_module.cubec")).unwrap());
    let mut nan = cube_xml::read_experiment_file(fixtures.join("valid/minimal.cube")).unwrap();
    nan.severity_mut().values_mut()[0] = f64::NAN;
    let nan = place(&cube_store::write_store(&nan));

    // More requests than workers: a request that killed its worker
    // would leave the next ones unanswered.
    for _ in 0..3 {
        let expr = format!("mean({dangling},{})", ok[0]);
        let reply = request(addr, "POST", "/eval", expr.as_bytes());
        assert_ne!(reply.status, 200, "{}", reply.text());
        assert!(
            json_field(&reply.text(), "code").is_some(),
            "{}",
            reply.text()
        );
    }
    let expr = format!("mean({},{})", ok[0], ok[1]);
    let reply = request(addr, "POST", "/eval", expr.as_bytes());
    assert_eq!(reply.status, 200, "{}", reply.text());

    for _ in 0..2 {
        let expr = format!("mean({nan},{})", ok[0]);
        let reply = request(addr, "POST", "/eval", expr.as_bytes());
        assert_ne!(reply.status, 200, "{}", reply.text());
        assert!(
            json_field(&reply.text(), "code").is_some(),
            "{}",
            reply.text()
        );
    }

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}
