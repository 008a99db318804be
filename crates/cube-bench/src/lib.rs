//! # cube-bench — benchmark harness and figure regeneration
//!
//! Shared workload generators for the Criterion benches and the
//! figure-regeneration binaries:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig1_pescan_baseline` | Figure 1 — unoptimized PESCAN, Wait-at-Barrier ≈ 13.2 % |
//! | `fig2_pescan_diff` | Figure 2 — the difference experiment, normalized |
//! | `fig3_merge_integration` | Figure 3 — merge of EXPERT + two CONE event sets |
//! | `tab_speedup_series` | §5.1 — two series of ten runs, min; ≈ 16 % speedup |
//!
//! Plus two CI support binaries: `gen_corpus` (deterministic `.cube`
//! corpus for the thread-count determinism gate in `ci/check.sh`) and
//! `bench_gate` (assembles/compares the `BENCH_5.json` metrics
//! document for the perf-regression gate in `ci/bench_gate.sh`).
//!
//! Benches: `operators` (element-wise phase + fast/slow metadata paths),
//! `metadata_merge` (structural merge scaling), `xml_roundtrip`,
//! `trace_analysis` (EXPERT throughput + the per-event counter
//! trace-size blowup), `par_elementwise` (Rayon ablation + the
//! `pool_scaling` thread-count sweep behind EXPERIMENTS.md).
//!
//! [`pairwise`] is the pre-batch pairwise fold, the differential oracle
//! the batch engine's tests and the `batch_reduce` bench compare
//! against.

pub mod pairwise;

use cube_model::builder::single_threaded_system;
use cube_model::{Experiment, ExperimentBuilder, MetricId, RegionKind, Unit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rounds a synthetic severity to microsecond resolution, mimicking
/// real measurement data: profilers record timer ticks at finite
/// resolution, so `.cube` files carry short decimals ("0.271828"), not
/// 17-significant-digit doubles. Serialization benchmarks over
/// full-precision uniform randoms would overstate the shared
/// float-formatting cost relative to any real workload.
fn quantize(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

/// Shape parameters of a synthetic experiment.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticShape {
    /// Number of metrics (first is the root; the rest form a shallow
    /// tree under it).
    pub metrics: usize,
    /// Number of call-tree nodes (a mix of chains and fanout).
    pub call_nodes: usize,
    /// Number of single-threaded ranks.
    pub threads: usize,
}

/// Builds a dense synthetic experiment with pseudo-random severities.
///
/// Structure is deterministic in the shape; values depend on `seed`, so
/// two calls with different seeds share metadata exactly (the
/// operators' fast path), while [`synthetic_disjoint`] produces
/// structurally different metadata (the slow path).
pub fn synthetic_experiment(shape: SyntheticShape, seed: u64) -> Experiment {
    synthetic_named(shape, seed, "m", "r")
}

/// Like [`synthetic_experiment`] but with a distinct name space for
/// metrics and regions, so that integrating it with a default synthetic
/// experiment shares nothing.
pub fn synthetic_disjoint(shape: SyntheticShape, seed: u64) -> Experiment {
    synthetic_named(shape, seed, "dm", "dr")
}

fn synthetic_named(
    shape: SyntheticShape,
    seed: u64,
    metric_prefix: &str,
    region_prefix: &str,
) -> Experiment {
    assert!(shape.metrics >= 1 && shape.call_nodes >= 1 && shape.threads >= 1);
    let mut b = ExperimentBuilder::new(format!(
        "synthetic {}x{}x{} (seed {seed})",
        shape.metrics, shape.call_nodes, shape.threads
    ));
    let root = b.def_metric(format!("{metric_prefix}0"), Unit::Seconds, "", None);
    let mut metrics = vec![root];
    for i in 1..shape.metrics {
        // Shallow tree: every fourth metric hangs off the previous one.
        let parent = if i % 4 == 0 {
            Some(metrics[i - 1])
        } else {
            Some(root)
        };
        metrics.push(b.def_metric(format!("{metric_prefix}{i}"), Unit::Seconds, "", parent));
    }
    let module = b.def_module("synth.rs", "/synth.rs");
    let mut cnodes = Vec::with_capacity(shape.call_nodes);
    for i in 0..shape.call_nodes {
        let region = b.def_region(
            format!("{region_prefix}{i}"),
            module,
            RegionKind::Function,
            i as u32 + 1,
            i as u32 + 1,
        );
        let cs = b.def_call_site("synth.rs", i as u32 + 1, region);
        let parent = if i == 0 {
            None
        } else if i % 3 == 0 {
            Some(cnodes[i - 1])
        } else {
            Some(cnodes[i / 3])
        };
        cnodes.push(b.def_call_node(cs, parent));
    }
    let threads = single_threaded_system(&mut b, shape.threads);
    let mut rng = StdRng::seed_from_u64(seed);
    for &m in &metrics {
        for &c in &cnodes {
            for &t in &threads {
                b.set_severity(m, c, t, quantize(rng.random::<f64>() * 10.0 - 2.0));
            }
        }
    }
    b.build().expect("synthetic experiment is valid")
}

/// A structurally *overlapping* variant: shares roughly half of the
/// metrics and call paths with [`synthetic_experiment`] of the same
/// shape, and extends the rest — the realistic integration case.
pub fn synthetic_overlapping(shape: SyntheticShape, seed: u64) -> Experiment {
    let mut b = ExperimentBuilder::new(format!("overlapping (seed {seed})"));
    let root = b.def_metric("m0", Unit::Seconds, "", None);
    let mut metrics = vec![root];
    for i in 1..shape.metrics {
        let name = if i % 2 == 0 {
            format!("m{i}")
        } else {
            format!("x{i}")
        };
        let parent = if i % 4 == 0 {
            Some(metrics[i - 1])
        } else {
            Some(root)
        };
        metrics.push(b.def_metric(name, Unit::Seconds, "", parent));
    }
    let module = b.def_module("synth.rs", "/synth.rs");
    let mut cnodes = Vec::with_capacity(shape.call_nodes);
    for i in 0..shape.call_nodes {
        let name = if i % 2 == 0 {
            format!("r{i}")
        } else {
            format!("y{i}")
        };
        let region = b.def_region(
            name,
            module,
            RegionKind::Function,
            i as u32 + 1,
            i as u32 + 1,
        );
        let cs = b.def_call_site("synth.rs", i as u32 + 1, region);
        let parent = if i == 0 {
            None
        } else if i % 3 == 0 {
            Some(cnodes[i - 1])
        } else {
            Some(cnodes[i / 3])
        };
        cnodes.push(b.def_call_node(cs, parent));
    }
    let threads = single_threaded_system(&mut b, shape.threads);
    let mut rng = StdRng::seed_from_u64(seed);
    for &m in &metrics {
        for &c in &cnodes {
            for &t in &threads {
                b.set_severity(m, c, t, quantize(rng.random::<f64>()));
            }
        }
    }
    b.build().expect("synthetic experiment is valid")
}

/// Total of a named metric (inclusive), for harness reporting.
pub fn metric_total_by_name(e: &Experiment, name: &str) -> f64 {
    let m: MetricId = e
        .metadata()
        .find_metric(name)
        .unwrap_or_else(|| panic!("metric '{name}' missing"));
    cube_model::aggregate::metric_total(e, cube_model::aggregate::MetricSelection::inclusive(m))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: SyntheticShape = SyntheticShape {
        metrics: 6,
        call_nodes: 10,
        threads: 4,
    };

    #[test]
    fn synthetic_is_valid_and_deterministic() {
        let a = synthetic_experiment(SHAPE, 1);
        let b = synthetic_experiment(SHAPE, 1);
        a.validate().unwrap();
        assert!(a.approx_eq(&b, 0.0));
        let c = synthetic_experiment(SHAPE, 2);
        assert_eq!(a.metadata(), c.metadata());
        assert!(!a.severity().approx_eq(c.severity(), 1e-12));
    }

    #[test]
    fn overlapping_shares_part_of_the_structure() {
        let a = synthetic_experiment(SHAPE, 1);
        let o = synthetic_overlapping(SHAPE, 2);
        let i = cube_algebra::integrate(&[&a, &o], cube_algebra::MergeOptions::default());
        let n = i.metadata.num_metrics();
        assert!(n > SHAPE.metrics && n < 2 * SHAPE.metrics, "{n}");
        i.metadata.validate().unwrap();
    }

    #[test]
    fn disjoint_shares_nothing_but_the_system() {
        let a = synthetic_experiment(SHAPE, 1);
        let d = synthetic_disjoint(SHAPE, 2);
        let i = cube_algebra::integrate(&[&a, &d], cube_algebra::MergeOptions::default());
        assert_eq!(i.metadata.num_metrics(), 2 * SHAPE.metrics);
        assert_eq!(i.metadata.num_call_nodes(), 2 * SHAPE.call_nodes);
        assert_eq!(i.metadata.num_threads(), SHAPE.threads);
    }
}
