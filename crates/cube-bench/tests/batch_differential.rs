//! Differential oracle: the batch engine must produce results
//! *identical* to the legacy pairwise/extend-everything evaluation for
//! every reduction, over randomized synthetic experiment sets.
//!
//! "Identical" is deliberately strict — equal integrated metadata,
//! bit-equal severity values (`==` on the f64 slices, not a tolerance),
//! and equal provenance — because the batch rewiring of
//! `ops::mean`/`sum`/`min`/`max`/`merge` and `stats::variance`/`stddev`
//! is only sound if nothing observable changed. For `merge` the oracle
//! is the nested pairwise merge, so these series also pin one k-ary
//! integration against nested library calls.

use cube_algebra::batch::{BatchPlan, Expr, Reduction};
use cube_algebra::{ops, stats, MergeOptions};
use cube_bench::pairwise;
use cube_bench::{synthetic_disjoint, synthetic_experiment, synthetic_overlapping, SyntheticShape};
use cube_model::builder::single_threaded_system;
use cube_model::{Experiment, ExperimentBuilder, RegionKind, Unit};

const SHAPE: SyntheticShape = SyntheticShape {
    metrics: 4,
    call_nodes: 24,
    threads: 6,
};

const ALL: [Reduction; 7] = [
    Reduction::Sum,
    Reduction::Mean,
    Reduction::Min,
    Reduction::Max,
    Reduction::Variance,
    Reduction::Stddev,
    Reduction::Merge,
];

fn oracle(r: Reduction, operands: &[&Experiment]) -> Experiment {
    let o = MergeOptions::default();
    match r {
        Reduction::Sum => pairwise::sum(operands, o),
        Reduction::Mean => pairwise::mean(operands, o),
        Reduction::Min => pairwise::min(operands, o),
        Reduction::Max => pairwise::max(operands, o),
        Reduction::Variance => pairwise::variance(operands, o),
        Reduction::Stddev => pairwise::stddev(operands, o),
        Reduction::Merge => pairwise::merge(operands, o),
    }
    .expect("oracle evaluation succeeds")
}

/// Asserts batch == oracle with no tolerance at all.
fn assert_identical(r: Reduction, operands: &[&Experiment], context: &str) {
    let fast = BatchPlan::new(operands).reduce(r).expect("batch succeeds");
    let slow = oracle(r, operands);
    assert_eq!(
        fast.metadata(),
        slow.metadata(),
        "{context}: {r:?} metadata diverged"
    );
    assert_eq!(
        fast.severity().values(),
        slow.severity().values(),
        "{context}: {r:?} values diverged"
    );
    assert_eq!(
        fast.provenance(),
        slow.provenance(),
        "{context}: {r:?} provenance diverged"
    );
    fast.validate().expect("batch result is a valid experiment");
}

/// Canonical view of an experiment: `(metric path, call path, rank,
/// thread number) -> value`. Two experiments with the same canonical
/// map are equal up to entity-id remapping.
fn canonical(e: &Experiment) -> std::collections::BTreeMap<(String, String, i32, u32), f64> {
    let md = e.metadata();
    let mut out = std::collections::BTreeMap::new();
    for m in md.metric_ids() {
        let mut parts = vec![md.metric(m).name.as_str()];
        let mut cur = m;
        while let Some(p) = md.metric(cur).parent {
            parts.push(md.metric(p).name.as_str());
            cur = p;
        }
        parts.reverse();
        let metric_path = parts.join("/");
        for c in md.call_node_ids() {
            let call_path = md.call_path(c).join("/");
            for t in md.thread_ids() {
                let thread = md.thread(t);
                let rank = md.process(thread.process).rank;
                let prev = out.insert(
                    (metric_path.clone(), call_path.clone(), rank, thread.number),
                    e.severity().get(m, c, t),
                );
                assert!(prev.is_none(), "canonical key collision at {call_path}");
            }
        }
    }
    out
}

/// Asserts batch == oracle up to entity-id remapping: identical
/// canonical severity maps (still bit-equal values per tuple) and
/// identical provenance, but entity *order* inside the metadata is
/// allowed to differ.
fn assert_equivalent(r: Reduction, operands: &[&Experiment], context: &str) {
    let fast = BatchPlan::new(operands).reduce(r).expect("batch succeeds");
    let slow = oracle(r, operands);
    assert_eq!(
        canonical(&fast),
        canonical(&slow),
        "{context}: {r:?} canonical values diverged"
    );
    assert_eq!(
        fast.provenance(),
        slow.provenance(),
        "{context}: {r:?} provenance diverged"
    );
    fast.validate().expect("batch result is a valid experiment");
}

#[test]
fn equal_metadata_series_all_reductions_k1_to_8() {
    for k in 1..=8usize {
        let runs: Vec<Experiment> = (0..k as u64)
            .map(|i| synthetic_experiment(SHAPE, i))
            .collect();
        let refs: Vec<&Experiment> = runs.iter().collect();
        for r in ALL {
            assert_identical(r, &refs, &format!("equal metadata, k={k}"));
        }
    }
}

#[test]
fn disjoint_metadata_series_all_reductions() {
    let a = synthetic_experiment(SHAPE, 1);
    let b = synthetic_disjoint(SHAPE, 2);
    let c = synthetic_disjoint(
        SyntheticShape {
            metrics: 2,
            call_nodes: 9,
            threads: 3,
        },
        3,
    );
    let refs: [&Experiment; 3] = [&a, &b, &c];
    for r in ALL {
        assert_identical(r, &refs, "disjoint metadata");
    }
}

#[test]
fn overlapping_metadata_series_all_reductions() {
    // Partially shared call trees are the one case where the two
    // evaluation orders legitimately disagree on metadata *layout*: the
    // batch engine integrates all operands in one n-ary pass (exactly
    // what the pre-batch `ops::reduce` did, so the public entry points
    // are unchanged bit-for-bit — see `rewired_entry_points_match_the_
    // oracle`), while the binary fold re-discovers entities step by
    // step, appending them in a different order. Both are valid
    // integrations of the same set, so compare up to id remapping; the
    // values themselves must still match exactly, tuple for tuple.
    let runs: Vec<Experiment> = (0..5u64)
        .map(|i| {
            if i % 2 == 0 {
                synthetic_experiment(SHAPE, i)
            } else {
                synthetic_overlapping(SHAPE, i)
            }
        })
        .collect();
    let refs: Vec<&Experiment> = runs.iter().collect();
    for r in ALL {
        assert_equivalent(r, &refs, "overlapping metadata");
    }
}

#[test]
fn mixed_thread_counts_all_reductions() {
    // Same metric/call structure, different system sizes: the batch
    // gather path must zero-extend exactly like the oracle's
    // extend_severity.
    let shapes = [2usize, 6, 4, 1].map(|threads| SyntheticShape {
        metrics: 4,
        call_nodes: 24,
        threads,
    });
    let runs: Vec<Experiment> = shapes
        .iter()
        .enumerate()
        .map(|(i, &s)| synthetic_experiment(s, i as u64))
        .collect();
    let refs: Vec<&Experiment> = runs.iter().collect();
    for r in ALL {
        assert_identical(r, &refs, "mixed thread counts");
    }
}

#[test]
fn rewired_entry_points_match_the_oracle() {
    // The public ops/stats functions now route through the plan; they
    // must still equal the legacy fold bit-for-bit.
    let runs: Vec<Experiment> = (0..4u64).map(|i| synthetic_experiment(SHAPE, i)).collect();
    let refs: Vec<&Experiment> = runs.iter().collect();
    let o = MergeOptions::default();
    let cases: [(Experiment, Experiment); 7] = [
        (ops::sum(&refs).unwrap(), pairwise::sum(&refs, o).unwrap()),
        (ops::mean(&refs).unwrap(), pairwise::mean(&refs, o).unwrap()),
        (ops::min(&refs).unwrap(), pairwise::min(&refs, o).unwrap()),
        (ops::max(&refs).unwrap(), pairwise::max(&refs, o).unwrap()),
        (
            stats::variance(&refs).unwrap(),
            pairwise::variance(&refs, o).unwrap(),
        ),
        (
            stats::stddev(&refs).unwrap(),
            pairwise::stddev(&refs, o).unwrap(),
        ),
        (
            ops::merge(refs[0], refs[1]),
            pairwise::merge(&refs[..2], o).unwrap(),
        ),
    ];
    for (fast, slow) in &cases {
        assert_eq!(fast.metadata(), slow.metadata());
        assert_eq!(fast.severity().values(), slow.severity().values());
        assert_eq!(fast.provenance(), slow.provenance());
    }
}

#[test]
fn composite_expression_matches_operator_composition() {
    let runs: Vec<Experiment> = (0..6u64).map(|i| synthetic_experiment(SHAPE, i)).collect();
    let refs: Vec<&Experiment> = runs.iter().collect();
    let plan = BatchPlan::new(&refs);
    let composite = plan
        .eval(&Expr::diff(
            Expr::reduce(Reduction::Mean, 0..3),
            Expr::reduce(Reduction::Mean, 3..6),
        ))
        .unwrap();
    let by_operators = ops::diff(
        &ops::mean(&refs[..3]).unwrap(),
        &ops::mean(&refs[3..]).unwrap(),
    );
    // Equal metadata everywhere → both evaluate over the same schema.
    assert_eq!(composite.metadata(), by_operators.metadata());
    assert_eq!(
        composite.severity().values(),
        by_operators.severity().values()
    );
    assert_eq!(composite.provenance(), by_operators.provenance());
}

// ---------------------------------------------------------------------------
// §3 zero-extension regressions: differing thread counts must extend,
// never truncate.
// ---------------------------------------------------------------------------

/// One metric, one call node, `ranks` single-threaded ranks, value `v`.
fn ranks_experiment(name: &str, ranks: usize, v: f64) -> Experiment {
    let mut b = ExperimentBuilder::new(name);
    let t = b.def_metric("time", Unit::Seconds, "", None);
    let m = b.def_module("a", "a");
    let r = b.def_region("main", m, RegionKind::Function, 1, 1);
    let cs = b.def_call_site("a", 1, r);
    let root = b.def_call_node(cs, None);
    let ts = single_threaded_system(&mut b, ranks);
    for &tid in &ts {
        b.set_severity(t, root, tid, v);
    }
    b.build().unwrap()
}

/// One `cycles` metric under a different region: shares nothing with
/// [`ranks_experiment`] but the ranks.
fn disjoint_experiment(name: &str, ranks: usize, v: f64) -> Experiment {
    let mut b = ExperimentBuilder::new(name);
    let t = b.def_metric("cycles", Unit::Occurrences, "", None);
    let m = b.def_module("z", "z");
    let r = b.def_region("other", m, RegionKind::Function, 1, 1);
    let cs = b.def_call_site("z", 1, r);
    let root = b.def_call_node(cs, None);
    let ts = single_threaded_system(&mut b, ranks);
    for &tid in &ts {
        b.set_severity(t, root, tid, v);
    }
    b.build().unwrap()
}

#[test]
fn pairwise_oracle_agrees_on_a_small_series() {
    let a = ranks_experiment("a", 2, 2.0);
    let b = ranks_experiment("b", 3, 4.0);
    let c = disjoint_experiment("c", 2, 6.0);
    let ops: [&Experiment; 3] = [&a, &b, &c];
    for r in ALL {
        assert_identical(r, &ops, "small series");
    }
}

#[test]
fn mean_zero_extends_differing_thread_counts() {
    // Paper §3: the severity of tuples an operand does not define is
    // zero. A 2-rank run averaged with a 4-rank run therefore yields a
    // 4-rank result where the extra ranks average v with 0 — the values
    // are NOT truncated to the smaller system and NOT left at v.
    let small = ranks_experiment("small", 2, 4.0);
    let large = ranks_experiment("large", 4, 2.0);
    for operands in [[&small, &large], [&large, &small]] {
        let m = ops::mean(&operands).unwrap();
        assert_eq!(m.metadata().num_threads(), 4, "result must not truncate");
        let mut values = m.severity().values().to_vec();
        // Rank order may differ with operand order; compare sorted.
        values.sort_by(f64::total_cmp);
        assert_eq!(values, vec![1.0, 1.0, 3.0, 3.0]);
    }
}

#[test]
fn variance_zero_extends_differing_thread_counts() {
    // Ranks 0–1 see the series (4, 2): mean 3, variance 1. Ranks 2–3
    // exist only in `large`, so their series is (0, 2): mean 1,
    // variance 1. Truncation or extension-by-v would both break this.
    let small = ranks_experiment("small", 2, 4.0);
    let large = ranks_experiment("large", 4, 2.0);
    let v = stats::variance(&[&small, &large]).unwrap();
    assert_eq!(v.metadata().num_threads(), 4);
    assert_eq!(v.severity().values(), &[1.0, 1.0, 1.0, 1.0]);

    let s = stats::stddev(&[&small, &large]).unwrap();
    assert_eq!(s.severity().values(), &[1.0, 1.0, 1.0, 1.0]);
}

#[test]
fn sum_min_max_zero_extend_differing_thread_counts() {
    let small = ranks_experiment("small", 2, 4.0);
    let large = ranks_experiment("large", 4, 2.0);
    let sum = ops::sum(&[&small, &large]).unwrap();
    assert_eq!(sum.severity().values(), &[6.0, 6.0, 2.0, 2.0]);
    // min competes absent measurements as zero (§3), so extended ranks
    // report 0, not 2.
    let lo = ops::min(&[&small, &large]).unwrap();
    assert_eq!(lo.severity().values(), &[2.0, 2.0, 0.0, 0.0]);
    let hi = ops::max(&[&small, &large]).unwrap();
    assert_eq!(hi.severity().values(), &[4.0, 4.0, 2.0, 2.0]);
}
