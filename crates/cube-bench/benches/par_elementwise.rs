//! Ablation: Rayon data-parallel element-wise arithmetic vs serial.
//!
//! The operators switch to `par_iter` above a threshold; this bench
//! justifies both the parallel path (large arrays) and the threshold
//! (small arrays would lose to fork/join overhead). Serial baselines
//! are hand-rolled here; the library path is exercised through
//! `ops::diff` on equal metadata, where the element-wise kernel
//! dominates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rayon::prelude::*;
use std::hint::black_box;

use cube_algebra::ops;
use cube_bench::{synthetic_experiment, SyntheticShape};

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("elementwise_kernel");
    for len in [1usize << 12, 1 << 16, 1 << 20] {
        let a: Vec<f64> = (0..len).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..len).map(|i| (i * 7 % 13) as f64).collect();
        group.throughput(Throughput::Elements(len as u64));
        group.bench_with_input(BenchmarkId::new("serial", len), &len, |bench, _| {
            bench.iter(|| {
                let mut dst = a.clone();
                for (d, s) in dst.iter_mut().zip(&b) {
                    *d -= *s;
                }
                black_box(dst)
            })
        });
        group.bench_with_input(BenchmarkId::new("rayon", len), &len, |bench, _| {
            bench.iter(|| {
                let mut dst = a.clone();
                dst.par_iter_mut()
                    .zip(b.par_iter())
                    .for_each(|(d, s)| *d -= *s);
                black_box(dst)
            })
        });
    }
    group.finish();
}

fn bench_operator_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("diff_kernel_path");
    // Below threshold (serial) and above threshold (parallel).
    for (label, n) in [("below_threshold", 2usize), ("above_threshold", 10)] {
        let s = SyntheticShape {
            metrics: 2 * n,
            call_nodes: 20 * n,
            threads: 4 * n,
        };
        let a = synthetic_experiment(s, 1);
        let b = synthetic_experiment(s, 2);
        group.throughput(Throughput::Elements(
            (s.metrics * s.call_nodes * s.threads) as u64,
        ));
        group.bench_function(label, |bench| {
            bench.iter(|| ops::diff(black_box(&a), black_box(&b)))
        });
    }
    group.finish();
}

/// Thread-count scaling of the parallel kernels and the encoder: the
/// same `mean`, element-wise subtraction and derived-result write
/// workloads timed with the worker pool pinned to 1, 2, 4, and 8
/// threads (`rayon::set_threads`, the facade behind `cube --threads
/// N`). Results are byte-identical across the sweep — only the wall
/// clock moves — so this group is the EXPERIMENTS.md scaling table and
/// the data behind the CI speedup check.
fn bench_pool_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_scaling");
    // The largest metadata_merge shape: 12 × 800 × 16 = 153,600
    // elements per operand, comfortably above the parallel threshold.
    let shape = SyntheticShape {
        metrics: 12,
        call_nodes: 800,
        threads: 16,
    };
    let runs: Vec<cube_model::Experiment> =
        (0..8u64).map(|i| synthetic_experiment(shape, i)).collect();
    let refs: Vec<&cube_model::Experiment> = runs.iter().collect();
    let elems = (shape.metrics * shape.call_nodes * shape.threads) as u64;
    // A derived `/eval` result of this shape, built like `derived()` in
    // xml_roundtrip.rs: `scale(mean of four seeds, 1 + 3e-9)`, whose
    // full-precision values miss the formatter's fixed-micro tier.
    let derived = ops::scale(&ops::mean(&refs[1..5]).unwrap(), 1.0 + 3e-9);
    let derived_bytes = cube_xml::write_experiment(&derived).len() as u64;
    for t in [1usize, 2, 4, 8] {
        rayon::set_threads(t);
        group.throughput(Throughput::Elements(elems));
        group.bench_with_input(BenchmarkId::new("mean", t), &t, |bench, _| {
            bench.iter(|| ops::mean(black_box(&refs)).unwrap())
        });
        let a: Vec<f64> = (0..1usize << 20).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..1usize << 20).map(|i| (i * 7 % 13) as f64).collect();
        group.throughput(Throughput::Elements(1 << 20));
        group.bench_with_input(BenchmarkId::new("sub_1m", t), &t, |bench, _| {
            bench.iter(|| {
                let mut dst = a.clone();
                dst.par_iter_mut()
                    .zip(b.par_iter())
                    .for_each(|(d, s)| *d -= *s);
                black_box(dst)
            })
        });
        // The `/eval` miss encoder: document and footer into a buffer
        // sized by the hint, as the server writes a body.
        group.throughput(Throughput::Bytes(derived_bytes));
        group.bench_with_input(BenchmarkId::new("write_derived", t), &t, |bench, _| {
            bench.iter(|| {
                let buf = Vec::with_capacity(cube_xml::encoded_len_hint(&derived));
                cube_xml::write_experiment_to(black_box(&derived), buf).unwrap()
            })
        });
    }
    rayon::set_threads(1);
    group.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_operator_path,
    bench_pool_scaling
);
criterion_main!(benches);
