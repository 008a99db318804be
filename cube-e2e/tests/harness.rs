//! The benchmark's own logic: statistics, span accounting, the input
//! generator, result files and the comparison against bounds.

use cube_algebra::{check, parse_expr, OperandFacts};
use cube_e2e::gen::{self, Corpus, Uploads, SMOKE};
use cube_e2e::json::{self, Value};
use cube_e2e::layers::PER_LAYER;
use cube_e2e::run::{closed_loop, end_to_end, Metric, Outcome, Window, Workload, END_TO_END};
use cube_e2e::stats;
use cube_e2e::trace::{self, Recorder, Span};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(stats::beyond(1000, 99.0), 10);
    assert!(stats::supports_tail(1000, 99.0));
    assert_eq!(stats::beyond(999, 99.0), 9);
    assert!(!stats::supports_tail(999, 99.0));
    assert!(stats::supports_tail(200, 95.0));
    assert!(!stats::supports_tail(199, 95.0));
    // Decimal percentiles must not lose a rank to binary rounding.
    assert_eq!(stats::beyond(10_000, 99.9), 10);
    assert!(stats::supports_tail(10_000, 99.9));
    assert!(stats::supports_tail(100, 90.0));
    assert!(!stats::supports_tail(15, 50.0));
}

#[test]
fn nearest_rank_percentiles_and_python_quartiles() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::percentile(&v, 50.0), 5.0);
    assert_eq!(stats::percentile(&v, 90.0), 9.0);
    assert_eq!(stats::percentile(&v, 99.0), 10.0);
    assert_eq!(stats::percentile(&[], 50.0), 0.0);
    assert_eq!(stats::median(&v), 5.5);
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(stats::quartiles(&v), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
    assert_eq!(stats::quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
    assert_eq!(stats::spread(&v), Some((8.25 - 2.75) / 5.5));
}

fn span(id: u64, parent: Option<u64>, thread: u32, start_ns: u64, end_ns: u64) -> Span {
    Span {
        req: 7,
        id,
        parent,
        name: if parent.is_none() { "request" } else { "stage" },
        thread,
        start_ns,
        end_ns,
        attrs: Vec::new(),
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span(1, None, 0, 0, 100),
        span(2, Some(1), 0, 10, 40),
        span(3, Some(1), 1, 30, 60), // overlaps 2, on another thread
        span(4, Some(1), 2, 70, 80),
        span(5, Some(2), 0, 15, 20),
        span(6, Some(4), 2, 75, 95), // overruns its parent: clipped
    ];
    let s = trace::self_times(&spans);
    assert_eq!(s[&1], 100 - 50 - 10);
    assert_eq!(s[&2], 30 - 5);
    assert_eq!(s[&3], 30);
    assert_eq!(s[&4], 5);
    assert_eq!(s[&5], 5);
    assert_eq!(s[&6], 20);
    assert_eq!(trace::unattributed_frac(&spans, "request"), 0.4);
}

#[test]
fn recorder_nests_spans_under_the_open_one() {
    let mut rec = Recorder::new(Instant::now());
    let root = rec.open("request", 3);
    rec.time("child", 3, || ());
    rec.open("inner", 3);
    rec.add("leaf", 3, 1, 2, false);
    rec.close();
    rec.close();
    rec.add("split", 3, 5, 6, true);
    let spans = rec.into_spans();
    let by = |name: &str| spans.iter().find(|s| s.name == name).expect("recorded");
    assert_eq!(by("request").parent, None);
    assert_eq!(by("child").parent, Some(root));
    assert_eq!(by("leaf").parent, Some(by("inner").id));
    assert_eq!(by("split").parent, None);
    assert!(spans.iter().all(|s| s.req == 3 && s.end_ns >= s.start_ns));
}

#[test]
fn same_seed_same_inputs_and_request_streams() {
    let (a, b, c) = (
        Corpus::generate(2026, SMOKE),
        Corpus::generate(2026, SMOKE),
        Corpus::generate(7, SMOKE),
    );
    let xml = |c: &Corpus| c.objects.iter().map(|o| o.xml.clone()).collect::<Vec<_>>();
    assert_eq!(xml(&a), xml(&b));
    assert_ne!(xml(&a), xml(&c));
    assert_eq!(a.lists, b.lists);
    assert_eq!(a.hit_exprs, b.hit_exprs);
    for n in 0..300 {
        assert_eq!(a.miss_expr(n), b.miss_expr(n));
        assert_eq!(a.hit_index(n), b.hit_index(n));
        assert_eq!(gen::sampled(2026, 1, n, 100), gen::sampled(2026, 1, n, 100));
    }
    assert_ne!(
        (0..50).map(|n| a.miss_expr(n)).collect::<Vec<_>>(),
        (0..50).map(|n| c.miss_expr(n)).collect::<Vec<_>>()
    );
    let sampled = (0..10_000)
        .filter(|&n| gen::sampled(2026, 1, n, 100))
        .count();
    assert!((800..1200).contains(&sampled), "about 10 %: {sampled}");

    let (u, v) = (Uploads::new(2026, SMOKE), Uploads::new(2026, SMOKE));
    let bodies: HashSet<Vec<u8>> = (0..20).map(|k| u.body(k)).collect();
    assert_eq!(bodies.len(), 20, "every upload is new");
    for k in [0, 1, 19] {
        assert_eq!(u.body(k), v.body(k));
        let written = cube_xml::write_experiment(&u.experiment(k)).into_bytes();
        assert_eq!(
            u.body(k),
            written,
            "the patched document is the patched experiment"
        );
    }
}

fn facts(corpus: &Corpus) -> Vec<OperandFacts<'_>> {
    corpus
        .objects
        .iter()
        .map(|o| OperandFacts::known(o.id.clone(), o.exp.metadata()))
        .collect()
}

fn assert_checks_clean(expr: &str, facts: &[OperandFacts<'_>]) {
    let parsed = parse_expr(expr).expect("generated expressions parse");
    let used: Vec<OperandFacts<'_>> = parsed
        .operands
        .iter()
        .map(|name| {
            facts
                .iter()
                .find(|f| &f.name == name)
                .cloned()
                .expect("every operand is in the corpus")
        })
        .collect();
    let report = check(&parsed, &used);
    assert_eq!(report.num_errors(), 0, "{expr}: {:?}", report.diagnostics);
}

#[test]
fn every_generated_expression_passes_the_checker() {
    let corpus = Corpus::generate(2026, SMOKE);
    let all = facts(&corpus);
    assert_eq!(corpus.lists.len(), gen::LISTS_A + gen::LISTS_MIXED);
    for expr in &corpus.hit_exprs {
        assert_checks_clean(expr, &all);
    }
    for n in 0..500 {
        assert_checks_clean(&corpus.miss_expr(n), &all);
    }
    let uploads = Uploads::new(2026, SMOKE);
    let exps: Vec<_> = (0..4).map(|k| uploads.experiment(k)).collect();
    let names = ["u0", "u1", "u2", "u3"];
    let upload_facts: Vec<OperandFacts<'_>> = names
        .iter()
        .zip(&exps)
        .map(|(n, e)| OperandFacts::known(*n, e.metadata()))
        .collect();
    assert_checks_clean(&gen::upload_expr(names), &upload_facts);
}

#[test]
fn eval_miss_canonical_forms_are_pairwise_distinct() {
    let corpus = Corpus::generate(2026, SMOKE);
    let n = 20_000;
    let keys: HashSet<String> = (0..n)
        .map(|i| {
            parse_expr(&corpus.miss_expr(i))
                .expect("parses")
                .canonical()
        })
        .collect();
    assert_eq!(keys.len(), n as usize);
    let lists: HashSet<String> = (0..n)
        .map(|i| {
            parse_expr(&corpus.miss_expr(i))
                .expect("parses")
                .operands
                .join(",")
        })
        .collect();
    assert_eq!(
        lists.len(),
        corpus.lists.len(),
        "every list of the family is used"
    );
}

#[test]
fn eval_miss_hits_the_plan_cache_equally_for_every_seed() {
    let capacity = cube_serve::ServeConfig::default().plan_cache;
    for seed in [2026, 7, 100, 101] {
        let corpus = Corpus::generate(seed, SMOKE);
        let mut lru: Vec<String> = Vec::new();
        let mut hits = 0;
        let cycle = gen::MISS_CYCLE as u64;
        for n in 0..3 * cycle {
            let key = parse_expr(&corpus.miss_expr(n))
                .expect("parses")
                .operands
                .join(",");
            let hit = lru.iter().position(|k| *k == key).map(|i| lru.remove(i));
            if hit.is_some() && n >= cycle {
                hits += 1;
            }
            lru.push(key);
            if lru.len() > capacity {
                lru.remove(0);
            }
        }
        assert_eq!(hits * 4, 3 * 2 * cycle, "seed {seed}: 3 in 4 requests hit");
    }
}

#[test]
fn the_reference_matches_a_batch_evaluation_of_the_same_operands() {
    let corpus = Corpus::generate(2026, SMOKE);
    let expr = &corpus.hit_exprs[0];
    let bytes = gen::reference(expr, |id| corpus.by_id(id)).expect("evaluates");
    let text = String::from_utf8(bytes).expect("UTF-8");
    assert_eq!(
        cube_xml::footer::check_footer(&text),
        cube_xml::FooterStatus::Valid
    );
    assert!(gen::reference("mean(nosuch)", |id| corpus.by_id(id)).is_err());
}

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists")).expect("valid JSON")
}

fn names_units(list: &Value) -> Vec<(String, String)> {
    list.arr()
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_benchmark_reports() {
    let doc = manifest();
    let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        names_units(doc.get("end_to_end").expect("end_to_end")),
        owned(&END_TO_END)
    );
    assert_eq!(
        names_units(doc.get("per_layer").expect("per_layer")),
        owned(&PER_LAYER)
    );
    let workloads: Vec<&str> = doc
        .get("workloads")
        .expect("workloads")
        .arr()
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let bounds: Vec<f64> = doc
        .get("end_to_end")
        .expect("end_to_end")
        .arr()
        .iter()
        .filter_map(|m| m.get("bound").and_then(Value::num))
        .collect();
    let setup = bounds[0];
    assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25 && b <= setup));
}

#[test]
fn rates_are_medians_over_windows_so_one_stall_does_not_move_them() {
    let window = |ops, secs, cpu_ms| Window { ops, secs, cpu_ms };
    let windows = [
        window(96, 4.0, 3840.0),
        window(96, 12.0, 4800.0), // a stall: slow, and busier per operation
        window(96, 3.9, 3744.0),
    ];
    let metrics = end_to_end(&[1.0], &[30.0; 288], &windows, &[1024.0]);
    let value = |name: &str| {
        let m = metrics.iter().find(|m| m.name == name).expect("reported");
        (m.value, m.samples)
    };
    assert_eq!(value("throughput_ops_s"), (24.0, 3));
    assert_eq!(value("cpu_ms_per_op"), (40.0, 3));
    assert_eq!(value("p50_ms"), (30.0, 288));
    assert_eq!(value("peak_rss_mb"), (1.0, 1));

    // A phase too short to close a window is one window, over every
    // client's operations.
    let mut calls = [0usize; 2];
    let phase = closed_loop(&mut calls, 0.01, 3, || 5.0, |c| *c += 1);
    let total = calls[0] + calls[1];
    assert!(calls.iter().all(|&c| c > 0));
    assert_eq!(phase.results.len(), total);
    assert_eq!(phase.windows.len(), 1);
    assert_eq!(phase.windows[0].ops, total);
    assert_eq!(phase.windows[0].cpu_ms, 0.0);
}

#[test]
fn result_line_is_one_json_object_with_four_keys() {
    let out = Outcome {
        attempted: 12,
        metrics: vec![Metric::new("p50_ms", "ms", 1.25, 12)],
        ..Outcome::default()
    };
    let line = cube_e2e::report::result_line(&out);
    let v = json::parse(&line).expect("valid JSON");
    let keys: Vec<&String> = v.obj().expect("an object").keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
    let p50 = v
        .get("metrics")
        .and_then(|m| m.get("p50_ms"))
        .expect("p50_ms");
    assert_eq!(p50.get("value").and_then(Value::num), Some(1.25));
    assert_eq!(p50.get("unit").and_then(Value::str), Some("ms"));
}

fn write_results(dir: &Path, tag: &str, p50s: &[f64]) -> Vec<PathBuf> {
    std::fs::create_dir_all(dir).expect("temp dir");
    p50s.iter()
        .enumerate()
        .map(|(i, v)| {
            let path = dir.join(format!("{tag}-{i}.json"));
            let body = format!(
                "{{\"workload\":\"eval-hit\",\"trace\":false,\"metrics\":{{\
                 \"p50_ms\":{{\"value\":{v},\"unit\":\"ms\"}},\
                 \"throughput_ops_s\":{{\"value\":{},\"unit\":\"ops/s\"}}}}}}",
                1000.0 / v
            );
            std::fs::write(&path, body).expect("write");
            path
        })
        .collect()
}

#[test]
fn compare_flags_only_medians_worse_beyond_their_bound() {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("compare-{}", std::process::id()));
    let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let a = write_results(&dir, "a", &[10.0, 10.2, 9.9]);
    let same = write_results(&dir, "same", &[11.1, 10.8, 11.3]);
    let slow = write_results(&dir, "slow", &[13.5, 13.8, 13.2]);
    let fast = write_results(&dir, "fast", &[6.0, 6.1, 5.9]);
    let (_, within) = cube_e2e::compare::compare(&a, &same, &bench).expect("compares");
    assert!(within);
    let (report, within) = cube_e2e::compare::compare(&a, &slow, &bench).expect("compares");
    assert!(!within, "{report}");
    assert!(report.contains("p50_ms") && report.contains("WORSE"));
    let (_, within) = cube_e2e::compare::compare(&a, &fast, &bench).expect("compares");
    assert!(within, "better is never flagged");
    let _ = std::fs::remove_dir_all(dir);
}
