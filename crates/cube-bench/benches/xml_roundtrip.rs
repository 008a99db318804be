//! Throughput of the `.cube` XML pipeline: streaming write and read
//! (`write_experiment` / `read_experiment`) over the same document at
//! three shapes, plus the path derived results take: the write of
//! `scale(mean of four, 1 + 3e-9)` of each shape, whose full-precision
//! values miss the formatter's fixed-micro tier, and the CRC-32 of the
//! large derived document.
//!
//! A counting global allocator additionally reports, outside the timed
//! loops, the *peak transient heap* of one write and one read:
//! allocations live during the call beyond its inputs and retained
//! result. Beyond the result, a write holds one wave of severity text
//! (16 blocks of up to 4,096 values); a read stays O(row).

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cube_bench::{synthetic_experiment, SyntheticShape};
use cube_model::Experiment;

// ---------------------------------------------------------------------------
// counting allocator (measurement only; never used inside timed loops)
// ---------------------------------------------------------------------------

struct CountingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let now = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                let now = CURRENT.fetch_add(grow, Ordering::Relaxed) + grow;
                PEAK.fetch_max(now, Ordering::Relaxed);
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak heap growth over the baseline while `f` runs, minus whatever
/// `f`'s retained result still holds (reported separately by the
/// caller dropping it afterwards).
fn peak_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let baseline = CURRENT.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let r = f();
    let peak = PEAK.load(Ordering::Relaxed);
    (peak.saturating_sub(baseline), r)
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

// ---------------------------------------------------------------------------
// the bench
// ---------------------------------------------------------------------------

const SIZES: [(&str, usize); 3] = [("small", 1), ("medium", 4), ("large", 8)];

fn shape(n: usize) -> SyntheticShape {
    SyntheticShape {
        metrics: 2 * n,
        call_nodes: 20 * n,
        threads: 4 * n,
    }
}

/// `scale(mean of four seeds, 1 + 3e-9)` at `shape(n)`: the shape of
/// a derived `/eval` result.
fn derived(n: usize) -> Experiment {
    let runs: Vec<Experiment> = (1..=4)
        .map(|seed| synthetic_experiment(shape(n), seed))
        .collect();
    let refs: Vec<&Experiment> = runs.iter().collect();
    let mean = cube_algebra::ops::mean(&refs).expect("the runs share one shape");
    cube_algebra::ops::scale(&mean, 1.0 + 3e-9)
}

fn report_peak_memory() {
    eprintln!("xml peak transient heap (beyond inputs; result included for writes/reads):");
    for (label, n) in SIZES {
        let e = synthetic_experiment(shape(n), 1);
        let text = cube_xml::write_experiment(&e);

        let (w_stream, out) = peak_during(|| cube_xml::write_experiment(&e));
        drop(out);
        let (r_stream, out) = peak_during(|| cube_xml::read_experiment(&text).unwrap());
        drop(out);
        let d = derived(n);
        let (w_derived, out) = peak_during(|| cube_xml::write_experiment(&d));

        eprintln!(
            "  {label:<6} ({:>9} bytes xml): write stream {:>7.3} MiB | read stream {:>7.3} MiB \
             | derived write ({:>9} bytes) {:>7.3} MiB",
            text.len(),
            mib(w_stream),
            mib(r_stream),
            out.len(),
            mib(w_derived),
        );
    }
}

fn bench_xml(c: &mut Criterion) {
    report_peak_memory();

    let mut group = c.benchmark_group("xml");
    for (label, n) in SIZES {
        let e = synthetic_experiment(shape(n), 1);
        let text = cube_xml::write_experiment(&e);
        group.throughput(Throughput::Bytes(text.len() as u64));
        group.bench_with_input(BenchmarkId::new("write-stream", label), &n, |bench, _| {
            bench.iter(|| cube_xml::write_experiment(black_box(&e)))
        });
        group.bench_with_input(BenchmarkId::new("read-stream", label), &n, |bench, _| {
            bench.iter(|| cube_xml::read_experiment(black_box(&text)).unwrap())
        });
        let d = derived(n);
        let derived_text = cube_xml::write_experiment(&d);
        group.throughput(Throughput::Bytes(derived_text.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("write-stream-derived", label),
            &n,
            |bench, _| bench.iter(|| cube_xml::write_experiment(black_box(&d))),
        );
        if label == "large" {
            group.bench_with_input(BenchmarkId::new("crc32", label), &n, |bench, _| {
                bench.iter(|| cube_xml::footer::crc32(black_box(derived_text.as_bytes())))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_xml);
criterion_main!(benches);
