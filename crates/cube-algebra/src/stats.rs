//! Statistical extensions over experiments and experiment series.
//!
//! The paper's conclusion anticipates "new operators which perform data
//! reduction, for example, based on multivariate statistical
//! techniques". This module provides the natural first steps, keeping
//! the closure discipline where the result is severity-shaped:
//!
//! * [`variance`] / [`stddev`] — element-wise moments of a series,
//!   returned as full derived experiments (browse the *variability* of
//!   your runs in the same viewer);
//! * [`hotspots`] — top-k severity tuples of one metric; works on
//!   original and difference experiments alike ("mechanisms aimed at
//!   finding hotspots can be applied to the original and the difference
//!   data likewise");
//! * [`imbalance`] — per-thread distribution summary of a metric, the
//!   load-imbalance view the paper's §5.1 closes with.

use cube_model::aggregate::MetricSelection;
use cube_model::{CallNodeId, Experiment, MetricId, ThreadId};

use crate::batch::{BatchPlan, Reduction};
use crate::error::AlgebraError;

/// Element-wise population variance of a series, as a derived
/// experiment over the integrated metadata.
///
/// Delegates to the batch engine — one metadata integration, one fused
/// pass (mean, then averaged squared deviations, per element).
pub fn variance(operands: &[&Experiment]) -> Result<Experiment, AlgebraError> {
    BatchPlan::new(operands).reduce(Reduction::Variance)
}

/// Element-wise population standard deviation of a series, as a derived
/// experiment.
pub fn stddev(operands: &[&Experiment]) -> Result<Experiment, AlgebraError> {
    BatchPlan::new(operands).reduce(Reduction::Stddev)
}

/// One severity tuple in a hotspot listing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hotspot {
    /// Call path of the hotspot.
    pub call_node: CallNodeId,
    /// Thread of the hotspot.
    pub thread: ThreadId,
    /// The (possibly negative) severity value.
    pub value: f64,
}

/// The `k` tuples of `metric` with the largest absolute severity, in
/// decreasing order of magnitude. Negative values (difference
/// experiments) rank by magnitude, so regressions surface next to
/// improvements.
pub fn hotspots(e: &Experiment, metric: MetricId, k: usize) -> Vec<Hotspot> {
    let md = e.metadata();
    let mut all: Vec<Hotspot> = Vec::new();
    for c in md.call_node_ids() {
        for (ti, &v) in e.severity().row(metric, c).iter().enumerate() {
            if v != 0.0 {
                all.push(Hotspot {
                    call_node: c,
                    thread: ThreadId::from_index(ti),
                    value: v,
                });
            }
        }
    }
    all.sort_by(|a, b| {
        b.value
            .abs()
            .partial_cmp(&a.value.abs())
            .expect("severities are never NaN")
    });
    all.truncate(k);
    all
}

/// Summary of how a metric distributes over threads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ImbalanceReport {
    /// Smallest per-thread total.
    pub min: f64,
    /// Largest per-thread total.
    pub max: f64,
    /// Mean per-thread total.
    pub mean: f64,
    /// `max / mean` (1.0 = perfectly balanced); 0.0 when mean is 0.
    pub imbalance_factor: f64,
}

/// Per-thread totals of a metric selection (over all call paths) and
/// their imbalance summary.
///
/// Passing an *exclusive* selection reproduces the paper's closing
/// §5.1 view — "how execution time without MPI calls is distributed
/// across the different processes" is
/// `imbalance(e, MetricSelection::exclusive(execution))` when MPI is
/// the only child of Execution.
pub fn imbalance(e: &Experiment, selection: MetricSelection) -> ImbalanceReport {
    let md = e.metadata();
    let nt = md.num_threads();
    let mut per_thread = vec![0.0f64; nt];
    for c in md.call_node_ids() {
        for (ti, acc) in per_thread.iter_mut().enumerate() {
            *acc +=
                cube_model::aggregate::metric_value_at(e, selection, c, ThreadId::from_index(ti));
        }
    }
    let min = per_thread.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = per_thread.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mean = per_thread.iter().sum::<f64>() / nt.max(1) as f64;
    ImbalanceReport {
        min,
        max,
        mean,
        imbalance_factor: if mean != 0.0 { max / mean } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use cube_model::builder::single_threaded_system;
    use cube_model::{ExperimentBuilder, RegionKind, Unit};

    fn mk(values: &[f64]) -> Experiment {
        let mut b = ExperimentBuilder::new("s");
        let t = b.def_metric("time", Unit::Seconds, "", None);
        let m = b.def_module("a", "a");
        let r = b.def_region("main", m, RegionKind::Function, 1, 1);
        let cs = b.def_call_site("a", 1, r);
        let root = b.def_call_node(cs, None);
        let ts = single_threaded_system(&mut b, values.len());
        for (&v, &tid) in values.iter().zip(&ts) {
            b.set_severity(t, root, tid, v);
        }
        b.build().unwrap()
    }

    #[test]
    fn variance_and_stddev_of_constant_series_is_zero() {
        let a = mk(&[2.0, 2.0]);
        let v = variance(&[&a, &a, &a]).unwrap();
        v.validate().unwrap();
        assert!(v.severity().values().iter().all(|&x| x == 0.0));
        let s = stddev(&[&a, &a]).unwrap();
        assert!(s.severity().values().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn variance_matches_hand_computation() {
        // Values 1, 3 → mean 2, population variance 1, stddev 1.
        let a = mk(&[1.0]);
        let b = mk(&[3.0]);
        let v = variance(&[&a, &b]).unwrap();
        assert!((v.severity().values()[0] - 1.0).abs() < 1e-12);
        let s = stddev(&[&a, &b]).unwrap();
        assert!((s.severity().values()[0] - 1.0).abs() < 1e-12);
        assert!(s.provenance().is_derived());
    }

    #[test]
    fn stddev_is_a_browsable_experiment() {
        let a = mk(&[1.0, 5.0]);
        let b = mk(&[3.0, 1.0]);
        let s = stddev(&[&a, &b]).unwrap();
        s.validate().unwrap();
        // Closure: feed it back into the algebra.
        let doubled = ops::sum(&[&s, &s]).unwrap();
        doubled.validate().unwrap();
    }

    #[test]
    fn empty_series_rejected() {
        assert!(variance(&[]).is_err());
        assert!(stddev(&[]).is_err());
    }

    #[test]
    fn hotspots_rank_by_magnitude() {
        let a = mk(&[1.0, -8.0, 3.0]);
        let t = a.metadata().find_metric("time").unwrap();
        let hs = hotspots(&a, t, 2);
        assert_eq!(hs.len(), 2);
        assert_eq!(hs[0].value, -8.0); // magnitude ranking
        assert_eq!(hs[1].value, 3.0);
        // k larger than the population returns everything nonzero.
        assert_eq!(hotspots(&a, t, 99).len(), 3);
    }

    #[test]
    fn hotspots_work_on_difference_experiments() {
        let a = mk(&[5.0, 1.0]);
        let b = mk(&[1.0, 2.0]);
        let d = ops::diff(&a, &b);
        let t = d.metadata().find_metric("time").unwrap();
        let hs = hotspots(&d, t, 10);
        assert_eq!(hs[0].value, 4.0);
        assert_eq!(hs[1].value, -1.0);
    }

    #[test]
    fn imbalance_report() {
        let a = mk(&[1.0, 3.0]);
        let t = a.metadata().find_metric("time").unwrap();
        let r = imbalance(&a, MetricSelection::inclusive(t));
        assert_eq!(r.min, 1.0);
        assert_eq!(r.max, 3.0);
        assert_eq!(r.mean, 2.0);
        assert!((r.imbalance_factor - 1.5).abs() < 1e-12);
    }

    #[test]
    fn imbalance_of_balanced_run_is_one() {
        let a = mk(&[2.0, 2.0, 2.0]);
        let t = a.metadata().find_metric("time").unwrap();
        let r = imbalance(&a, MetricSelection::inclusive(t));
        assert!((r.imbalance_factor - 1.0).abs() < 1e-12);
    }
}
