//! EXPERT analysis throughput and the trace-size trade-off.
//!
//! * `analyze/pescan_iters` — pattern search cost vs trace length;
//! * `codec/...` — encode/decode throughput of the EPILOG codec;
//! * `trace_size` (reported via stdout once) — the §5.2 motivation:
//!   attaching hardware counters to every event inflates the trace,
//!   which is why counters are better collected as CONE profiles and
//!   *merged*.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use epilog::{CounterDef, Trace};
use expert::{analyze, AnalyzeOptions};
use simmpi::apps::{pescan, PescanConfig};
use simmpi::{simulate, EpilogTracer, MachineModel};

fn traced(iterations: usize) -> Trace {
    let program = pescan(&PescanConfig {
        iterations,
        ..PescanConfig::default()
    });
    let mut tracer = EpilogTracer::new("cluster", 4);
    simulate(&program, &MachineModel::default(), &mut tracer).unwrap();
    tracer.into_trace()
}

fn bench_analyze(c: &mut Criterion) {
    let mut group = c.benchmark_group("analyze");
    for iters in [10usize, 30, 90] {
        let trace = traced(iters);
        group.throughput(Throughput::Elements(trace.events.len() as u64));
        group.bench_with_input(BenchmarkId::new("pescan_iters", iters), &iters, |b, _| {
            b.iter(|| analyze(black_box(&trace), &AnalyzeOptions::default()).unwrap())
        });
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    let trace = traced(30);
    let bytes = epilog::encode_trace(&trace);
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode", |b| {
        b.iter(|| epilog::encode_trace(black_box(&trace)))
    });
    group.bench_function("decode", |b| {
        b.iter(|| epilog::decode_trace(black_box(&bytes)).unwrap())
    });

    // Report the per-event counter blowup once (size, not time).
    let mut with_counters = trace.clone();
    for name in ["PAPI_TOT_CYC", "PAPI_FP_INS"] {
        with_counters
            .defs
            .counters
            .push(CounterDef { name: name.into() });
    }
    for e in &mut with_counters.events {
        e.counters = vec![0, 0];
    }
    let plain = epilog::encode_trace(&trace).len();
    let fat = epilog::encode_trace(&with_counters).len();
    println!(
        "trace_size: {} events; plain = {plain} bytes, with 2 counters/event = {fat} bytes \
         ({:.2}x) — the paper's motivation for profiling counters separately and merging",
        trace.events.len(),
        fat as f64 / plain as f64
    );
    group.finish();
}

criterion_group!(benches, bench_analyze, bench_codec);
criterion_main!(benches);
