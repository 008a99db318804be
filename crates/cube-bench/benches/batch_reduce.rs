//! Batch engine vs pairwise fold, scaling in the series length k.
//!
//! The batch engine (`cube_algebra::batch::BatchPlan`) integrates
//! metadata once and reduces all k operands in a single pass; the
//! pairwise oracle (`cube_bench::pairwise`) folds the same
//! series through k−1 binary merges, re-running integration and
//! re-allocating zero-extended arrays at every step. The gap between
//! the two, at the `metadata_merge` bench shapes, is the acceptance
//! number recorded in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cube_algebra::batch::{BatchPlan, Expr, Reduction};
use cube_algebra::{ops, MergeOptions};
use cube_bench::{pairwise, synthetic_experiment, synthetic_overlapping, SyntheticShape};
use cube_model::Experiment;

const SHAPE: SyntheticShape = SyntheticShape {
    metrics: 12,
    call_nodes: 200,
    threads: 16,
};

fn series(shape: SyntheticShape, k: usize) -> Vec<Experiment> {
    (0..k as u64)
        .map(|i| synthetic_experiment(shape, i))
        .collect()
}

/// Batch vs pairwise `mean` over k equal-metadata runs — the noisy-run
/// series from the paper's §5.1, and the acceptance measurement.
fn bench_mean_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_mean");
    for k in [4usize, 8, 16, 32] {
        let runs = series(SHAPE, k);
        let refs: Vec<&Experiment> = runs.iter().collect();
        group.bench_with_input(BenchmarkId::new("batch", k), &k, |bench, _| {
            bench.iter(|| ops::mean(black_box(&refs)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("pairwise", k), &k, |bench, _| {
            bench.iter(|| pairwise::mean(black_box(&refs), MergeOptions::default()).unwrap())
        });
    }
    group.finish();
}

/// k=32 across all three `metadata_merge` call-tree sizes — how the
/// batch-vs-pairwise gap widens as the arrays (and the metadata the
/// pairwise fold re-clones every step) grow.
fn bench_shape_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_mean_shapes");
    for call_nodes in [50usize, 200, 800] {
        let shape = SyntheticShape {
            metrics: 12,
            call_nodes,
            threads: 16,
        };
        let runs = series(shape, 32);
        let refs: Vec<&Experiment> = runs.iter().collect();
        group.bench_with_input(
            BenchmarkId::new("batch", call_nodes),
            &call_nodes,
            |bench, _| bench.iter(|| ops::mean(black_box(&refs)).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("pairwise", call_nodes),
            &call_nodes,
            |bench, _| {
                bench.iter(|| pairwise::mean(black_box(&refs), MergeOptions::default()).unwrap())
            },
        );
    }
    group.finish();
}

/// Same comparison over structurally overlapping metadata (~half the
/// call tree shared), where every integration step does real merge
/// work and each operand reads through a gather table.
fn bench_overlapping_metadata(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_mean_overlapping");
    for k in [8usize, 32] {
        let runs: Vec<Experiment> = (0..k as u64)
            .map(|i| {
                if i % 2 == 0 {
                    synthetic_experiment(SHAPE, i)
                } else {
                    synthetic_overlapping(SHAPE, i)
                }
            })
            .collect();
        let refs: Vec<&Experiment> = runs.iter().collect();
        group.bench_with_input(BenchmarkId::new("batch", k), &k, |bench, _| {
            bench.iter(|| ops::mean(black_box(&refs)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("pairwise", k), &k, |bench, _| {
            bench.iter(|| pairwise::mean(black_box(&refs), MergeOptions::default()).unwrap())
        });
    }
    group.finish();
}

/// The composite `diff(mean(A…), mean(B…))` evaluated on one plan
/// versus three separate operator calls.
fn bench_composite(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_composite");
    let k = 16usize;
    let runs = series(SHAPE, 2 * k);
    let refs: Vec<&Experiment> = runs.iter().collect();
    group.bench_function("one_plan", |bench| {
        bench.iter(|| {
            let plan = BatchPlan::new(black_box(&refs));
            plan.eval(&Expr::diff(
                Expr::reduce(Reduction::Mean, 0..k),
                Expr::reduce(Reduction::Mean, k..2 * k),
            ))
            .unwrap()
        })
    });
    group.bench_function("three_operator_calls", |bench| {
        bench.iter(|| {
            let a = ops::mean(black_box(&refs[..k])).unwrap();
            let b = ops::mean(black_box(&refs[k..])).unwrap();
            ops::diff(&a, &b)
        })
    });
    group.finish();
}

/// Reusing one plan for several reductions amortizes integration and
/// the gather tables across statistics — the "report generation" case.
fn bench_plan_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_plan_reuse");
    let runs = series(SHAPE, 16);
    let refs: Vec<&Experiment> = runs.iter().collect();
    group.bench_function("mean_min_max_stddev_one_plan", |bench| {
        bench.iter(|| {
            let plan = BatchPlan::new(black_box(&refs));
            (
                plan.reduce(Reduction::Mean).unwrap(),
                plan.reduce(Reduction::Min).unwrap(),
                plan.reduce(Reduction::Max).unwrap(),
                plan.reduce(Reduction::Stddev).unwrap(),
            )
        })
    });
    group.bench_function("mean_min_max_stddev_separate", |bench| {
        bench.iter(|| {
            (
                ops::mean(black_box(&refs)).unwrap(),
                ops::min(black_box(&refs)).unwrap(),
                ops::max(black_box(&refs)).unwrap(),
                cube_algebra::stats::stddev(black_box(&refs)).unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mean_scaling,
    bench_shape_sweep,
    bench_overlapping_metadata,
    bench_composite,
    bench_plan_reuse
);
criterion_main!(benches);
