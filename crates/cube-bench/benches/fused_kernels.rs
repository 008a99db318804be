//! Fused single-pass kernels vs the per-operator CLI composition, at
//! 64K and 1M elements.
//!
//! The composite under test is the ISSUE-10 acceptance expression —
//! `diff(mean(A,B), mean(C,D))` — plus a stats-style `stddev` bundle:
//!
//! * `composite_fused`      — one `BatchPlan::eval`: one traversal,
//!   four operand streams, no intermediates;
//! * `composite_per_operator` — `ops::mean` + `ops::mean` + `ops::diff`,
//!   the way a shell pipeline composes the CLI: every step re-integrates
//!   metadata and materializes a full experiment;
//! * `stddev_fused`         — one `BatchPlan::eval` of a 4-run stddev.
//!
//! The acceptance bar (EXPERIMENTS.md) is fused ≥ 1.5× faster than the
//! per-operator path at 1M elements; the CI kernel gate separately pins
//! the evaluator's output bytes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cube_algebra::batch::{BatchOperand, BatchPlan, Expr, Reduction};
use cube_algebra::{ops, MergeOptions};
use cube_bench::{synthetic_experiment, SyntheticShape};
use cube_model::Experiment;

/// 64Ki and 1Mi severity values per operand.
const SIZES: [(usize, SyntheticShape); 2] = [
    (
        65_536,
        SyntheticShape {
            metrics: 4,
            call_nodes: 256,
            threads: 64,
        },
    ),
    (
        1_048_576,
        SyntheticShape {
            metrics: 16,
            call_nodes: 256,
            threads: 256,
        },
    ),
];

fn series(shape: SyntheticShape, k: usize) -> Vec<Experiment> {
    (0..k as u64)
        .map(|i| synthetic_experiment(shape, i))
        .collect()
}

fn composite_expr() -> Expr {
    Expr::diff(
        Expr::reduce(Reduction::Mean, 0..2),
        Expr::reduce(Reduction::Mean, 2..4),
    )
}

fn bench_composite(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_kernels");
    for (n, shape) in SIZES {
        let runs = series(shape, 4);
        let operands: Vec<&dyn BatchOperand> =
            runs.iter().map(|e| e as &dyn BatchOperand).collect();
        let plan = BatchPlan::from_operands(&operands, MergeOptions::default());
        let expr = composite_expr();
        group.bench_with_input(BenchmarkId::new("composite_fused", n), &n, |bench, _| {
            bench.iter(|| plan.eval(black_box(&expr)).unwrap())
        });
        let refs: Vec<&Experiment> = runs.iter().collect();
        group.bench_with_input(
            BenchmarkId::new("composite_per_operator", n),
            &n,
            |bench, _| {
                bench.iter(|| {
                    let a = ops::mean(black_box(&refs[..2])).unwrap();
                    let b = ops::mean(black_box(&refs[2..])).unwrap();
                    ops::diff(&a, &b)
                })
            },
        );
    }
    group.finish();
}

fn bench_stats_bundle(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_kernels");
    for (n, shape) in SIZES {
        let runs = series(shape, 4);
        let operands: Vec<&dyn BatchOperand> =
            runs.iter().map(|e| e as &dyn BatchOperand).collect();
        let plan = BatchPlan::from_operands(&operands, MergeOptions::default());
        let expr = Expr::reduce(Reduction::Stddev, 0..4);
        group.bench_with_input(BenchmarkId::new("stddev_fused", n), &n, |bench, _| {
            bench.iter(|| plan.eval(black_box(&expr)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_composite, bench_stats_bundle);
criterion_main!(benches);
