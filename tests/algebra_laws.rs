//! Property-based tests pinning the algebraic laws of the CUBE
//! operators over *randomly generated* experiments.
//!
//! The generator produces structurally diverse experiments: random
//! metric forests (with shared name pools so that operands partially
//! overlap), random call trees, random system sizes, and random
//! severity values including negatives — the hard cases for metadata
//! integration.

use proptest::prelude::*;

use cube_algebra::{integrate, ops, stats, BatchPlan, MergeOptions, Reduction};
use cube_bench::pairwise;
use cube_model::builder::single_threaded_system;
use cube_model::{Experiment, ExperimentBuilder, MetricId, RegionKind, Unit};

// ---------------------------------------------------------------------------
// generator
// ---------------------------------------------------------------------------

/// Compact description of an experiment, drawn by proptest.
#[derive(Clone, Debug)]
struct Spec {
    /// Metric names drawn from a shared pool; parent index into the
    /// prefix of already-created metrics (None = root).
    metrics: Vec<(u8, Option<u8>)>,
    /// Call nodes: region name index + parent index into prefix.
    calls: Vec<(u8, Option<u8>)>,
    ranks: u8,
    /// Severity values in insertion order (cycled over tuples).
    values: Vec<i32>,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    let metric = (0u8..6, proptest::option::of(0u8..4));
    let call = (0u8..6, proptest::option::of(0u8..4));
    (
        proptest::collection::vec(metric, 1..5),
        proptest::collection::vec(call, 1..6),
        1u8..5,
        proptest::collection::vec(-50i32..50, 1..20),
    )
        .prop_map(|(metrics, calls, ranks, values)| Spec {
            metrics,
            calls,
            ranks,
            values,
        })
}

fn build(spec: &Spec, name: &str) -> Experiment {
    build_with_metric_prefix(spec, name, "metric")
}

/// Like [`build`], but metric names start with `prefix` — two specs
/// built with different prefixes have guaranteed-disjoint metric sets,
/// which some laws (merge commutativity) need.
fn build_with_metric_prefix(spec: &Spec, name: &str, prefix: &str) -> Experiment {
    let mut b = ExperimentBuilder::new(name);
    let mut metric_ids: Vec<MetricId> = Vec::new();
    for (name_idx, parent) in &spec.metrics {
        // Parent must already exist and (for unit homogeneity) every
        // generated metric uses seconds.
        let parent_id = parent.and_then(|p| metric_ids.get(p as usize).copied());
        let id = b.def_metric(format!("{prefix}{name_idx}"), Unit::Seconds, "", parent_id);
        metric_ids.push(id);
    }
    let module = b.def_module("gen.rs", "/gen.rs");
    let mut region_of_name = std::collections::HashMap::new();
    let mut call_ids = Vec::new();
    for (name_idx, parent) in &spec.calls {
        let region = *region_of_name.entry(*name_idx).or_insert_with(|| {
            b.def_region(
                format!("region{name_idx}"),
                module,
                RegionKind::Function,
                u32::from(*name_idx) + 1,
                u32::from(*name_idx) + 1,
            )
        });
        let cs = b.def_call_site("gen.rs", u32::from(*name_idx) + 1, region);
        let parent_id = parent.and_then(|p| call_ids.get(p as usize).copied());
        call_ids.push(b.def_call_node(cs, parent_id));
    }
    let threads = single_threaded_system(&mut b, spec.ranks as usize);
    let mut vi = 0usize;
    for &m in &metric_ids {
        for &c in &call_ids {
            for &t in &threads {
                let v = spec.values[vi % spec.values.len()];
                vi += 1;
                if v != 0 {
                    b.set_severity(m, c, t, f64::from(v) * 0.25);
                }
            }
        }
    }
    b.build().expect("generated experiment is valid")
}

/// Builds a *lint-clean* experiment from the spec: severity values are
/// made non-negative (negative values in an `original` experiment draw
/// W005) and duplicate sibling metrics fold into one definition (W001).
/// The structural diversity of [`build`] is otherwise preserved.
fn build_clean(spec: &Spec, name: &str) -> Experiment {
    let mut sanitized = spec.clone();
    for v in &mut sanitized.values {
        *v = v.abs();
    }
    let mut b = ExperimentBuilder::new(name);
    let mut metric_ids: Vec<MetricId> = Vec::new();
    let mut seen: std::collections::HashMap<(u8, Option<MetricId>), MetricId> =
        std::collections::HashMap::new();
    for (name_idx, parent) in &sanitized.metrics {
        let parent_id = parent.and_then(|p| metric_ids.get(p as usize).copied());
        let id = *seen.entry((*name_idx, parent_id)).or_insert_with(|| {
            b.def_metric(format!("metric{name_idx}"), Unit::Seconds, "", parent_id)
        });
        metric_ids.push(id);
    }
    let module = b.def_module("gen.rs", "/gen.rs");
    let mut region_of_name = std::collections::HashMap::new();
    let mut call_ids = Vec::new();
    for (name_idx, parent) in &sanitized.calls {
        let region = *region_of_name.entry(*name_idx).or_insert_with(|| {
            b.def_region(
                format!("region{name_idx}"),
                module,
                RegionKind::Function,
                u32::from(*name_idx) + 1,
                u32::from(*name_idx) + 1,
            )
        });
        let cs = b.def_call_site("gen.rs", u32::from(*name_idx) + 1, region);
        let parent_id = parent.and_then(|p| call_ids.get(p as usize).copied());
        call_ids.push(b.def_call_node(cs, parent_id));
    }
    let threads = single_threaded_system(&mut b, sanitized.ranks as usize);
    let mut vi = 0usize;
    for &m in &metric_ids {
        for &c in &call_ids {
            for &t in &threads {
                let v = sanitized.values[vi % sanitized.values.len()];
                vi += 1;
                if v != 0 {
                    b.set_severity(m, c, t, f64::from(v) * 0.25);
                }
            }
        }
    }
    b.build().expect("generated experiment is valid")
}

/// Serializes tests that retarget the global worker pool
/// ([`rayon::set_threads`]); the limit is process-wide, so sweeps over
/// thread counts must not interleave.
fn threads_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The severity array as raw bits — the unit of "byte-identical".
fn severity_bits(e: &Experiment) -> Vec<u64> {
    e.severity().values().iter().map(|v| v.to_bits()).collect()
}

fn total(e: &Experiment) -> f64 {
    e.severity().values().iter().sum()
}

/// Totals per *metric path* (names from the root down), which
/// integration keeps unique. Entity ids may be remapped between two
/// equivalent integrations, so laws that mix operand orders compare
/// these maps instead of raw arrays.
fn metric_path_totals(e: &Experiment) -> std::collections::HashMap<String, f64> {
    let md = e.metadata();
    let mut out = std::collections::HashMap::new();
    for m in md.metric_ids() {
        let mut parts = vec![md.metric(m).name.clone()];
        let mut cur = m;
        while let Some(p) = md.metric(cur).parent {
            parts.push(md.metric(p).name.clone());
            cur = p;
        }
        parts.reverse();
        *out.entry(parts.join("/")).or_insert(0.0) += e.severity().metric_sum(m);
    }
    out
}

/// Severity accumulated per `(metric path, call path, rank, thread)`.
/// Duplicate-named siblings fold into one key, so this is a
/// remapping-invariant view of the full severity tensor.
fn canonical_totals(e: &Experiment) -> std::collections::BTreeMap<(String, String, i32, u32), f64> {
    let md = e.metadata();
    let mut metric_path = Vec::new();
    for m in md.metric_ids() {
        let mut parts = vec![md.metric(m).name.clone()];
        let mut cur = m;
        while let Some(p) = md.metric(cur).parent {
            parts.push(md.metric(p).name.clone());
            cur = p;
        }
        parts.reverse();
        metric_path.push(parts.join("/"));
    }
    let mut out = std::collections::BTreeMap::new();
    for m in md.metric_ids() {
        for c in md.call_node_ids() {
            let call_path = md.call_path(c).join("/");
            for t in md.thread_ids() {
                let thread = md.thread(t);
                let rank = md.process(thread.process).rank;
                *out.entry((
                    metric_path[m.index()].clone(),
                    call_path.clone(),
                    rank,
                    thread.number,
                ))
                .or_insert(0.0) += e.severity().get(m, c, t);
            }
        }
    }
    out
}

fn assert_same_totals<K: Ord + std::fmt::Debug>(
    x: &std::collections::BTreeMap<K, f64>,
    y: &std::collections::BTreeMap<K, f64>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        x.keys().collect::<Vec<_>>(),
        y.keys().collect::<Vec<_>>(),
        "canonical domains diverged"
    );
    for (k, vx) in x {
        let vy = y[k];
        prop_assert!(
            (vx - vy).abs() <= 1e-9 * vx.abs().max(1.0),
            "{k:?}: {vx} vs {vy}"
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// laws
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Closure: every operator output is a valid experiment.
    #[test]
    fn operators_are_closed(sa in spec_strategy(), sb in spec_strategy()) {
        let a = build(&sa, "a");
        let b = build(&sb, "b");
        ops::diff(&a, &b).validate().unwrap();
        ops::merge(&a, &b).validate().unwrap();
        ops::mean(&[&a, &b]).unwrap().validate().unwrap();
        ops::min(&[&a, &b]).unwrap().validate().unwrap();
        ops::max(&[&a, &b]).unwrap().validate().unwrap();
        ops::sum(&[&a, &b]).unwrap().validate().unwrap();
    }

    /// diff(a, a) has a's structure and zero severity everywhere.
    #[test]
    fn self_difference_is_zero(s in spec_strategy()) {
        let a = build(&s, "a");
        let d = ops::diff(&a, &a);
        prop_assert!(d.severity().values().iter().all(|&v| v == 0.0));
        prop_assert_eq!(d.metadata(), a.metadata());
    }

    /// mean of k copies of a is a (values-wise).
    #[test]
    fn mean_of_copies_is_identity(s in spec_strategy(), k in 1usize..5) {
        let a = build(&s, "a");
        let copies: Vec<&Experiment> = std::iter::repeat_n(&a, k).collect();
        let m = ops::mean(&copies).unwrap();
        prop_assert!(m.severity().approx_eq(a.severity(), 1e-9));
    }

    /// mean is permutation-invariant.
    #[test]
    fn mean_is_permutation_invariant(
        sa in spec_strategy(),
        sb in spec_strategy(),
        sc in spec_strategy(),
    ) {
        let (a, b, c) = (build(&sa, "a"), build(&sb, "b"), build(&sc, "c"));
        let abc = ops::mean(&[&a, &b, &c]).unwrap();
        let cba = ops::mean(&[&c, &b, &a]).unwrap();
        // Metadata ordering may differ (entities are appended in operand
        // order), so compare totals per metric path.
        let x = metric_path_totals(&abc);
        let y = metric_path_totals(&cba);
        prop_assert_eq!(
            x.keys().collect::<std::collections::BTreeSet<_>>(),
            y.keys().collect::<std::collections::BTreeSet<_>>()
        );
        for (k, vx) in &x {
            let vy = y[k];
            prop_assert!((vx - vy).abs() <= 1e-9 * vx.abs().max(1.0), "{}: {} vs {}", k, vx, vy);
        }
    }

    /// merge(a, a) is a (values-wise).
    #[test]
    fn merge_is_idempotent(s in spec_strategy()) {
        let a = build(&s, "a");
        let m = ops::merge(&a, &a);
        prop_assert!(m.approx_eq(&a, 1e-12));
    }

    /// Closure round-trip: merging b in and subtracting it back out is
    /// a no-op. With equal metadata, merge takes every metric from a,
    /// so diff(merge(a, b), b) = diff(a, b) exactly.
    #[test]
    fn merge_then_diff_round_trips(s in spec_strategy(), delta in -10i32..10) {
        let a = build(&s, "a");
        let mut b = build(&s, "b");
        for v in b.severity_mut().values_mut() {
            *v += f64::from(delta);
        }
        let round = ops::diff(&ops::merge(&a, &b), &b);
        let direct = ops::diff(&a, &b);
        prop_assert_eq!(round.metadata(), direct.metadata());
        prop_assert!(round.severity().approx_eq(direct.severity(), 1e-12));
        round.validate().unwrap();
    }

    /// merge is commutative up to id remapping when the operands
    /// provide disjoint metric sets: each metric's values come from its
    /// sole provider regardless of operand order.
    #[test]
    fn merge_commutes_up_to_remapping(sa in spec_strategy(), sb in spec_strategy()) {
        let a = build_with_metric_prefix(&sa, "a", "left");
        let b = build_with_metric_prefix(&sb, "b", "right");
        let ab = ops::merge(&a, &b);
        let ba = ops::merge(&b, &a);
        assert_same_totals(&canonical_totals(&ab), &canonical_totals(&ba))?;
    }

    /// diff is anticommutative on the integrated domain.
    #[test]
    fn diff_is_anticommutative(sa in spec_strategy(), sb in spec_strategy()) {
        let a = build(&sa, "a");
        let b = build(&sb, "b");
        let ab = ops::diff(&a, &b);
        let ba = ops::diff(&b, &a);
        // Compare via totals (metadata entity order may differ).
        prop_assert!((total(&ab) + total(&ba)).abs() < 1e-9);
    }

    /// Zero extension conserves mass: sum(diff) = sum(a) − sum(b), and
    /// sum(sum-op) = sum(a) + sum(b).
    #[test]
    fn totals_are_conserved(sa in spec_strategy(), sb in spec_strategy()) {
        let a = build(&sa, "a");
        let b = build(&sb, "b");
        let d = ops::diff(&a, &b);
        prop_assert!((total(&d) - (total(&a) - total(&b))).abs() < 1e-9);
        let s = ops::sum(&[&a, &b]).unwrap();
        prop_assert!((total(&s) - (total(&a) + total(&b))).abs() < 1e-9);
    }

    /// min ≤ mean ≤ max element-wise over the integrated domain.
    #[test]
    fn min_mean_max_ordering(sa in spec_strategy(), sb in spec_strategy()) {
        let a = build(&sa, "a");
        let b = build(&sb, "b");
        let lo = ops::min(&[&a, &b]).unwrap();
        let mid = ops::mean(&[&a, &b]).unwrap();
        let hi = ops::max(&[&a, &b]).unwrap();
        for ((&l, &m), &h) in lo
            .severity()
            .values()
            .iter()
            .zip(mid.severity().values())
            .zip(hi.severity().values())
        {
            prop_assert!(l <= m + 1e-12 && m <= h + 1e-12);
        }
    }

    /// The batch engine behind the public n-ary entry points agrees
    /// with the legacy pairwise fold on every reduction, for arbitrary
    /// partially-overlapping operands — compared on the canonical
    /// (remapping-invariant) severity view, since the two evaluation
    /// orders may lay out the integrated metadata differently.
    #[test]
    fn batch_matches_pairwise_fold(
        sa in spec_strategy(),
        sb in spec_strategy(),
        sc in spec_strategy(),
    ) {
        let (a, b, c) = (build(&sa, "a"), build(&sb, "b"), build(&sc, "c"));
        let refs: [&Experiment; 3] = [&a, &b, &c];
        let o = MergeOptions::default;
        let cases = [
            (ops::sum(&refs).unwrap(), pairwise::sum(&refs, o()).unwrap()),
            (ops::mean(&refs).unwrap(), pairwise::mean(&refs, o()).unwrap()),
            (ops::min(&refs).unwrap(), pairwise::min(&refs, o()).unwrap()),
            (ops::max(&refs).unwrap(), pairwise::max(&refs, o()).unwrap()),
            (stats::variance(&refs).unwrap(), pairwise::variance(&refs, o()).unwrap()),
            (stats::stddev(&refs).unwrap(), pairwise::stddev(&refs, o()).unwrap()),
            (
                BatchPlan::new(&refs).reduce(Reduction::Merge).unwrap(),
                pairwise::merge(&refs, o()).unwrap(),
            ),
        ];
        for (fast, slow) in &cases {
            assert_same_totals(&canonical_totals(fast), &canonical_totals(slow))?;
        }
    }

    /// Thread-count invariance of the batch engine: over random shapes
    /// and a sweep of pool sizes, every reduction is *bit-identical*
    /// to its 1-thread evaluation, and on an equal-metadata series the
    /// order-insensitive reductions (`sum`, `min`, `max`) reproduce
    /// the sequential pairwise oracle bit-for-bit as well.
    #[test]
    fn batch_is_bit_identical_across_thread_counts(
        s in spec_strategy(),
        factors in proptest::collection::vec(-4i32..=4, 1..4),
    ) {
        let base = build(&s, "base");
        // Scaling preserves metadata exactly, so the series shares one
        // layout and severity arrays are directly comparable.
        let scaled: Vec<Experiment> = factors
            .iter()
            .map(|&f| ops::scale(&base, f64::from(f) / 2.0))
            .collect();
        let mut refs: Vec<&Experiment> = vec![&base];
        refs.extend(scaled.iter());

        let _lock = threads_lock();
        let prev = rayon::current_num_threads();
        let mut reference: Option<Vec<Vec<u64>>> = None;
        for t in [1usize, 2, 4] {
            rayon::set_threads(t);
            let results = vec![
                severity_bits(&ops::sum(&refs).unwrap()),
                severity_bits(&ops::min(&refs).unwrap()),
                severity_bits(&ops::max(&refs).unwrap()),
                severity_bits(&ops::mean(&refs).unwrap()),
                severity_bits(&stats::stddev(&refs).unwrap()),
                severity_bits(&ops::diff(&base, refs[refs.len() - 1])),
            ];
            match &reference {
                None => reference = Some(results),
                Some(r) => prop_assert_eq!(r, &results, "thread count {} diverged", t),
            }
        }
        rayon::set_threads(prev);

        let o = MergeOptions::default;
        let oracles = [
            (ops::sum(&refs).unwrap(), pairwise::sum(&refs, o()).unwrap()),
            (ops::min(&refs).unwrap(), pairwise::min(&refs, o()).unwrap()),
            (ops::max(&refs).unwrap(), pairwise::max(&refs, o()).unwrap()),
            (
                BatchPlan::new(&refs).reduce(Reduction::Merge).unwrap(),
                pairwise::merge(&refs, o()).unwrap(),
            ),
        ];
        for (fast, slow) in &oracles {
            prop_assert_eq!(severity_bits(fast), severity_bits(slow));
        }
    }

    /// Integration maps are total and consistent: every operand tuple
    /// lands inside the integrated shape.
    #[test]
    fn integration_maps_are_total(sa in spec_strategy(), sb in spec_strategy()) {
        let a = build(&sa, "a");
        let b = build(&sb, "b");
        let integrated = integrate(&[&a, &b], MergeOptions::default());
        let (nm, nc, nt) = integrated.metadata.shape();
        for (op, map) in [(&a, &integrated.maps[0]), (&b, &integrated.maps[1])] {
            let (om, oc, ot) = op.metadata().shape();
            prop_assert_eq!(map.metrics.len(), om);
            prop_assert_eq!(map.call_nodes.len(), oc);
            prop_assert_eq!(map.threads.len(), ot);
            prop_assert!(map.metrics.iter().all(|m| m.index() < nm));
            prop_assert!(map.call_nodes.iter().all(|c| c.index() < nc));
            prop_assert!(map.threads.iter().all(|t| t.index() < nt));
        }
        integrated.metadata.validate().unwrap();
    }

    /// The composite "difference of means" (the paper's example of
    /// operator composition) equals the mean of pairwise differences
    /// when operands share metadata.
    #[test]
    fn linear_composites_commute(s in spec_strategy(), deltas in proptest::collection::vec(-10i32..10, 4)) {
        let base = build(&s, "base");
        let variant = |d: i32, name: &str| {
            let mut e = build(&s, name);
            for v in e.severity_mut().values_mut() {
                *v += f64::from(d);
            }
            e
        };
        let a1 = variant(deltas[0], "a1");
        let a2 = variant(deltas[1], "a2");
        let b1 = variant(deltas[2], "b1");
        let b2 = variant(deltas[3], "b2");
        let diff_of_means = ops::diff(
            &ops::mean(&[&a1, &a2]).unwrap(),
            &ops::mean(&[&b1, &b2]).unwrap(),
        );
        let mean_of_diffs = ops::mean(&[&ops::diff(&a1, &b1), &ops::diff(&a2, &b2)]).unwrap();
        prop_assert!(diff_of_means
            .severity()
            .approx_eq(mean_of_diffs.severity(), 1e-9));
        let _ = base;
    }

    /// XML round-trip preserves arbitrary experiments exactly.
    #[test]
    fn xml_roundtrip_is_exact(s in spec_strategy()) {
        let a = build(&s, "xml roundtrip");
        let text = cube_xml::write_experiment(&a);
        let back = cube_xml::read_experiment(&text).unwrap();
        prop_assert!(back.approx_eq(&a, 0.0));
    }

    /// Derived experiments survive the XML round-trip too (closure at
    /// the file level).
    #[test]
    fn derived_experiments_roundtrip(sa in spec_strategy(), sb in spec_strategy()) {
        let d = ops::diff(&build(&sa, "a"), &build(&sb, "b"));
        let back = cube_xml::read_experiment(&cube_xml::write_experiment(&d)).unwrap();
        prop_assert!(back.approx_eq(&d, 0.0));
        prop_assert_eq!(back.provenance(), d.provenance());
    }

    /// The closure theorem as a lint property: operators applied to
    /// lint-clean operands produce lint-clean results — no errors *and*
    /// no warnings — for the binary ops, the n-ary reductions, and the
    /// statistical composites.
    #[test]
    fn operators_preserve_lint_cleanliness(
        sa in spec_strategy(),
        sb in spec_strategy(),
        sc in spec_strategy(),
    ) {
        let (a, b, c) = (
            build_clean(&sa, "a"),
            build_clean(&sb, "b"),
            build_clean(&sc, "c"),
        );
        for (name, e) in [("a", &a), ("b", &b), ("c", &c)] {
            prop_assert!(e.lint().is_clean(), "operand {name} not clean:\n{}", e.lint());
        }
        let refs: [&Experiment; 3] = [&a, &b, &c];
        let results = [
            ("diff", ops::diff(&a, &b)),
            ("merge", ops::merge(&a, &b)),
            ("mean", ops::mean(&refs).unwrap()),
            ("sum", ops::sum(&refs).unwrap()),
            ("min", ops::min(&refs).unwrap()),
            ("max", ops::max(&refs).unwrap()),
            ("scale", ops::scale(&a, -1.5)),
            ("variance", stats::variance(&refs).unwrap()),
            ("stddev", stats::stddev(&refs).unwrap()),
        ];
        for (op, e) in &results {
            let report = e.lint();
            prop_assert!(report.is_clean(), "{op} result not clean:\n{report}");
        }
    }

    /// Columnar-store round-trip is exact *and* canonical: decoding a
    /// store and re-encoding it reproduces the original bytes —
    /// `pack(unpack(x)) == x` — for arbitrary experiments, original or
    /// derived.
    #[test]
    fn store_roundtrip_is_canonical(sa in spec_strategy(), sb in spec_strategy()) {
        let a = build(&sa, "store roundtrip");
        let d = ops::diff(&a, &build(&sb, "b"));
        for e in [&a, &d] {
            let bytes = cube_store::write_store(e);
            let back = cube_store::read_store(&bytes, &cube_xml::ReadLimits::default()).unwrap();
            prop_assert!(back.approx_eq(e, 0.0));
            prop_assert_eq!(back.provenance(), e.provenance());
            prop_assert_eq!(cube_store::write_store(&back), bytes);
        }
    }

    /// Backend equivalence: a batch reduction gathered from lazily
    /// opened `.cubec` stores is *bit-identical* to the same reduction
    /// over the in-memory experiments.
    #[test]
    fn batch_agrees_across_backends(sa in spec_strategy(), sb in spec_strategy()) {
        use cube_algebra::{BatchOperand, Expr};
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("cube_laws_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let exps = [build(&sa, "a"), build(&sb, "b")];
        let handles: Vec<cube_store::ColumnarExperiment> = exps
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let path = dir.join(format!("case{case}_{i}.cubec"));
                cube_store::write_store_file(e, &path).unwrap();
                let h = cube_store::ColumnarExperiment::open(&path).unwrap();
                h.severity().unwrap();
                h
            })
            .collect();

        let expr = Expr::reduce(Reduction::Mean, 0..exps.len());
        let from_memory = {
            let refs: Vec<&Experiment> = exps.iter().collect();
            BatchPlan::new(&refs).eval(&expr).unwrap()
        };
        let from_store = {
            let ops: Vec<&dyn BatchOperand> = handles.iter().map(|h| h as _).collect();
            BatchPlan::from_operands(&ops, MergeOptions::default()).eval(&expr).unwrap()
        };
        prop_assert_eq!(from_memory.metadata(), from_store.metadata());
        prop_assert_eq!(severity_bits(&from_memory), severity_bits(&from_store));
        prop_assert_eq!(from_memory.provenance(), from_store.provenance());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Lint-cleanliness survives the file format: writing a clean
    /// experiment (original or derived, including negative derived
    /// severities) and strict-reading it back reports no diagnostics.
    #[test]
    fn roundtrip_preserves_lint_cleanliness(sa in spec_strategy(), sb in spec_strategy()) {
        let a = build_clean(&sa, "a");
        let d = ops::diff(&a, &build_clean(&sb, "b"));
        for (name, e) in [("original", &a), ("derived", &d)] {
            let (back, report) = cube_xml::lint_read(&cube_xml::write_experiment(e));
            prop_assert!(report.is_clean(), "{name} round-trip not clean:\n{report}");
            prop_assert!(back.is_some_and(|x| x.approx_eq(e, 0.0)));
        }
    }
}

/// A dense experiment big enough to cross the operators' parallel
/// threshold: 4 metrics × 64 call nodes × 300 ranks = 76,800 severity
/// values, pseudo-random including negatives.
fn big_experiment(seed: u64) -> Experiment {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut b = ExperimentBuilder::new(format!("big {seed}"));
    let root = b.def_metric("time", Unit::Seconds, "", None);
    let mut metrics = vec![root];
    for i in 1..4 {
        metrics.push(b.def_metric(format!("m{i}"), Unit::Seconds, "", Some(root)));
    }
    let module = b.def_module("big.rs", "/big.rs");
    let mut calls = Vec::new();
    let mut parent = None;
    for i in 0..64u32 {
        let region = b.def_region(format!("r{i}"), module, RegionKind::Function, i + 1, i + 1);
        let site = b.def_call_site("big.rs", i + 1, region);
        let node = b.def_call_node(site, parent);
        // Alternate chain and sibling so the tree has depth and fanout.
        if i % 2 == 0 {
            parent = Some(node);
        }
        calls.push(node);
    }
    let threads = single_threaded_system(&mut b, 300);
    let mut rng = StdRng::seed_from_u64(seed);
    for &m in &metrics {
        for &c in &calls {
            for &t in &threads {
                b.set_severity(m, c, t, rng.random::<f64>() * 200.0 - 100.0);
            }
        }
    }
    b.build().unwrap()
}

/// The non-property companion to the shape-randomized invariance law:
/// arrays large enough that the worker pool genuinely splits them
/// (above the 2^16-element parallel threshold), checked bit-for-bit
/// across pool sizes for the whole operator set the CLI exposes.
#[test]
fn large_batch_reduction_is_bit_identical_across_thread_counts() {
    let runs: Vec<Experiment> = (0..5).map(big_experiment).collect();
    let refs: Vec<&Experiment> = runs.iter().collect();

    let _lock = threads_lock();
    let prev = rayon::current_num_threads();
    let mut reference: Option<Vec<Vec<u64>>> = None;
    for t in [1usize, 2, 4, 8] {
        rayon::set_threads(t);
        let results = vec![
            severity_bits(&ops::mean(&refs).unwrap()),
            severity_bits(&ops::sum(&refs).unwrap()),
            severity_bits(&stats::stddev(&refs).unwrap()),
            severity_bits(&ops::diff(&runs[0], &runs[1])),
            severity_bits(&ops::merge(&runs[0], &runs[1])),
        ];
        match &reference {
            None => reference = Some(results),
            Some(r) => assert_eq!(r, &results, "thread count {t} diverged"),
        }
    }
    rayon::set_threads(prev);
}
