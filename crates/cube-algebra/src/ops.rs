//! The operators: difference, merge, mean, and natural extensions.
//!
//! Every operator here follows the same two-phase contract:
//!
//! 1. **Metadata integration** ([`crate::integrate()`]) folds the
//!    operands' metric forests, call forests, and system hierarchies
//!    into one integrated [`cube_model::Metadata`] by top-down
//!    structural matching, recording where each operand entity landed.
//! 2. **Element-wise arithmetic** zero-extends each operand's severity
//!    array onto the integrated shape and combines the aligned arrays
//!    pointwise — subtraction for [`diff`], first-provider selection
//!    for [`merge`], accumulation and scaling for [`mean`], and so on.
//!
//! The payoff is *closure*: operands are experiments and results are
//! complete experiments — integrated metadata, a severity function
//! defined over it, and a derived [`cube_model::Provenance`] naming the
//! operator and its operands. A derived experiment is stored by the
//! same file format, rendered by the same display, and accepted as an
//! operand of any further operator, so composite analyses (the
//! difference of means, the merge of a minimum series, ...) are plain
//! function composition.
//!
//! Every operator here is one [`Expr`] evaluated by a [`BatchPlan`],
//! whose fused kernel ([`crate::kernel`]) zero-extends operands block
//! by block instead of materializing them. For explicit integration
//! switches, build the plan with [`BatchPlan::with_options`] and
//! evaluate the same expression.

use cube_model::Experiment;

use crate::batch::{BatchPlan, Expr, Reduction};
use crate::error::AlgebraError;

/// Evaluates `expr` over one plan of `operands`, whose expression
/// always compiles.
fn eval(operands: &[&Experiment], expr: &Expr) -> Experiment {
    BatchPlan::new(operands)
        .into_eval(expr)
        .expect("the operator's expression compiles over its operands")
}

// ---------------------------------------------------------------------------
// difference
// ---------------------------------------------------------------------------

/// The difference operator: `minuend − subtrahend`, element-wise over
/// the integrated metadata. Severity values of the result may be
/// negative; the display renders their sign as a relief.
///
/// ```
/// use cube_algebra::ops;
/// use cube_model::builder::single_threaded_system;
/// use cube_model::{ExperimentBuilder, RegionKind, Unit};
///
/// fn run(seconds: f64) -> cube_model::Experiment {
///     let mut b = ExperimentBuilder::new("run");
///     let t = b.def_metric("time", Unit::Seconds, "", None);
///     let m = b.def_module("a.c", "/a.c");
///     let r = b.def_region("main", m, RegionKind::Function, 1, 9);
///     let cs = b.def_call_site("a.c", 1, r);
///     let root = b.def_call_node(cs, None);
///     let ts = single_threaded_system(&mut b, 1);
///     b.set_severity(t, root, ts[0], seconds);
///     b.build().unwrap()
/// }
///
/// let before = run(10.0);
/// let after = run(8.0);
/// let saved = ops::diff(&before, &after);
/// assert_eq!(saved.severity().values(), &[2.0]);
/// // Closure: the result is a complete experiment, so operators compose.
/// assert!(saved.provenance().is_derived());
/// let zero = ops::diff(&saved, &saved);
/// assert_eq!(zero.severity().values(), &[0.0]);
/// ```
pub fn diff(minuend: &Experiment, subtrahend: &Experiment) -> Experiment {
    eval(
        &[minuend, subtrahend],
        &Expr::diff(Expr::Operand(0), Expr::Operand(1)),
    )
}

// ---------------------------------------------------------------------------
// merge
// ---------------------------------------------------------------------------

/// The merge operator: integrates experiments with different (or
/// overlapping) metric sets into one experiment with the joint set.
///
/// For each metric of the result, the severity comes from the *first*
/// operand if that operand provides the metric, and from the second
/// otherwise — the paper's "if it is provided by both experiments we
/// take it from the first one". To merge more than two experiments in
/// one integration, evaluate [`Reduction::Merge`] on a [`BatchPlan`];
/// that can lay out the system dimension differently from nested
/// calls (see [`crate::batch`]).
///
/// ```
/// use cube_algebra::ops;
/// use cube_model::builder::single_threaded_system;
/// use cube_model::{ExperimentBuilder, RegionKind, Unit};
///
/// fn run(metric: &str, unit: Unit, v: f64) -> cube_model::Experiment {
///     let mut b = ExperimentBuilder::new(metric);
///     let t = b.def_metric(metric, unit, "", None);
///     let m = b.def_module("a.c", "/a.c");
///     let r = b.def_region("main", m, RegionKind::Function, 1, 9);
///     let cs = b.def_call_site("a.c", 1, r);
///     let root = b.def_call_node(cs, None);
///     let ts = single_threaded_system(&mut b, 1);
///     b.set_severity(t, root, ts[0], v);
///     b.build().unwrap()
/// }
///
/// // Measurements that cannot share a run (conflicting counters)
/// // integrate into one experiment with the joint metric set.
/// let times = run("time", Unit::Seconds, 4.0);
/// let flops = run("flops", Unit::Occurrences, 1e6);
/// let joint = ops::merge(&times, &flops);
/// assert_eq!(joint.metadata().shape().0, 2);
/// assert_eq!(joint.severity().values(), &[4.0, 1e6]);
/// ```
pub fn merge(first: &Experiment, second: &Experiment) -> Experiment {
    eval(&[first, second], &Expr::reduce(Reduction::Merge, 0..2))
}

// ---------------------------------------------------------------------------
// n-ary reductions: mean, sum, min, max
//
// One metadata integration across all k operands, one pass over the
// integrated rows.
// ---------------------------------------------------------------------------

/// The mean operator: element-wise arithmetic mean of any number of
/// experiments. Smooths the random perturbation of separate runs, or
/// summarizes a range of execution parameters in one statement.
///
/// Errors when `operands` is empty — there is no neutral experiment to
/// return.
///
/// ```
/// use cube_algebra::ops;
/// use cube_model::builder::single_threaded_system;
/// use cube_model::{ExperimentBuilder, RegionKind, Unit};
///
/// fn run(seconds: f64) -> cube_model::Experiment {
///     let mut b = ExperimentBuilder::new("noisy run");
///     let t = b.def_metric("time", Unit::Seconds, "", None);
///     let m = b.def_module("a.c", "/a.c");
///     let r = b.def_region("main", m, RegionKind::Function, 1, 9);
///     let cs = b.def_call_site("a.c", 1, r);
///     let root = b.def_call_node(cs, None);
///     let ts = single_threaded_system(&mut b, 1);
///     b.set_severity(t, root, ts[0], seconds);
///     b.build().unwrap()
/// }
///
/// let (r1, r2, r3) = (run(9.0), run(10.0), run(11.0));
/// let avg = ops::mean(&[&r1, &r2, &r3]).unwrap();
/// assert_eq!(avg.severity().values(), &[10.0]);
/// assert!(ops::mean(&[]).is_err());
/// ```
pub fn mean(operands: &[&Experiment]) -> Result<Experiment, AlgebraError> {
    BatchPlan::new(operands).reduce(Reduction::Mean)
}

/// Element-wise sum of any number of experiments.
pub fn sum(operands: &[&Experiment]) -> Result<Experiment, AlgebraError> {
    BatchPlan::new(operands).reduce(Reduction::Sum)
}

/// Element-wise minimum — the selection the paper's §5.1 applies to a
/// series of ten runs to suppress system noise.
pub fn min(operands: &[&Experiment]) -> Result<Experiment, AlgebraError> {
    BatchPlan::new(operands).reduce(Reduction::Min)
}

/// Element-wise maximum.
pub fn max(operands: &[&Experiment]) -> Result<Experiment, AlgebraError> {
    BatchPlan::new(operands).reduce(Reduction::Max)
}

// ---------------------------------------------------------------------------
// scalar operations
// ---------------------------------------------------------------------------

/// Multiplies every severity value by `factor`, yielding a derived
/// experiment with the operand's metadata. `scale(e, -1.0)` negates,
/// `scale(sum, 1.0/k)` averages — useful for building composite
/// operators by hand.
pub fn scale(e: &Experiment, factor: f64) -> Experiment {
    eval(&[e], &Expr::scale(Expr::Operand(0), factor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cube_model::builder::single_threaded_system;
    use cube_model::{ExperimentBuilder, Provenance, RegionKind, Unit};

    /// One metric, one call node, `ranks` ranks, value `v` everywhere.
    fn uniform(name: &str, ranks: usize, v: f64) -> Experiment {
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

    /// Experiment with a second metric tree (`flops`), for merge tests.
    fn with_flops(name: &str, time: f64, flops: f64) -> Experiment {
        let mut b = ExperimentBuilder::new(name);
        let t = b.def_metric("time", Unit::Seconds, "", None);
        let f = b.def_metric("flops", Unit::Occurrences, "", None);
        let m = b.def_module("a", "a");
        let r = b.def_region("main", m, RegionKind::Function, 1, 1);
        let cs = b.def_call_site("a", 1, r);
        let root = b.def_call_node(cs, None);
        let ts = single_threaded_system(&mut b, 2);
        for &tid in &ts {
            b.set_severity(t, root, tid, time);
            b.set_severity(f, root, tid, flops);
        }
        b.build().unwrap()
    }

    #[test]
    fn diff_of_identical_is_zero() {
        let a = uniform("a", 4, 3.0);
        let d = diff(&a, &a);
        d.validate().unwrap();
        assert!(d.severity().values().iter().all(|&v| v == 0.0));
        assert!(d.provenance().is_derived());
    }

    #[test]
    fn diff_subtracts_elementwise() {
        let a = uniform("a", 2, 5.0);
        let b = uniform("b", 2, 3.5);
        let d = diff(&a, &b);
        assert!(d
            .severity()
            .values()
            .iter()
            .all(|&v| (v - 1.5).abs() < 1e-12));
    }

    #[test]
    fn diff_zero_extends_missing_entities() {
        // b has an extra rank; diff(a, b) at that rank = 0 - b's value.
        let a = uniform("a", 2, 5.0);
        let b = uniform("b", 3, 3.0);
        let d = diff(&a, &b);
        d.validate().unwrap();
        assert_eq!(d.metadata().num_threads(), 3);
        let vals = d.severity().values();
        assert_eq!(vals, &[2.0, 2.0, -3.0]);
    }

    #[test]
    fn diff_keeps_a_gathered_negative_zero() {
        // a (2 ranks) is gathered onto b's 3 ranks. Its stored -0.0 is
        // read bit for bit, so -0.0 - 0.0 = -0.0 at the shared ranks,
        // exactly as `BatchPlan` (and so `cube stats` and `/eval`)
        // computes it; only the absent rank is 0.0 - 0.0 = +0.0.
        let mut a = uniform("a", 2, 1.0);
        a.severity_mut().values_mut().fill(-0.0);
        let b = uniform("b", 3, 0.0);
        let bits = |e: &Experiment| -> Vec<u64> {
            e.severity().values().iter().map(|v| v.to_bits()).collect()
        };
        let d = diff(&a, &b);
        let neg = (-0.0f64).to_bits();
        assert_eq!(bits(&d), [neg, neg, 0]);
        let plan = BatchPlan::new(&[&a, &b])
            .eval(&Expr::diff(Expr::Operand(0), Expr::Operand(1)))
            .unwrap();
        assert_eq!(bits(&d), bits(&plan));
    }

    #[test]
    fn merge_keeps_a_gathered_negative_zero() {
        // a (2 ranks) provides `time` and wins it everywhere; gathered
        // onto b's 3 ranks, its stored -0.0 is copied bit for bit and
        // only the absent rank reads the zero-extension's +0.0.
        let mut a = uniform("a", 2, 1.0);
        a.severity_mut().values_mut().fill(-0.0);
        let b = uniform("b", 3, 0.0);
        let bits: Vec<u64> = merge(&a, &b)
            .severity()
            .values()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let neg = (-0.0f64).to_bits();
        assert_eq!(bits, [neg, neg, 0]);
    }

    #[test]
    fn diff_is_anticommutative() {
        let a = uniform("a", 2, 5.0);
        let b = uniform("b", 2, 3.0);
        let ab = diff(&a, &b);
        let ba = diff(&b, &a);
        let n: Vec<f64> = ba.severity().values().iter().map(|v| -v).collect();
        assert_eq!(ab.severity().values(), &n[..]);
    }

    #[test]
    fn mean_of_single_operand_is_identity_on_values() {
        let a = uniform("a", 3, 2.0);
        let m = mean(&[&a]).unwrap();
        m.validate().unwrap();
        assert!(m.approx_eq(&a, 1e-12));
    }

    #[test]
    fn mean_averages() {
        let a = uniform("a", 2, 2.0);
        let b = uniform("b", 2, 4.0);
        let c = uniform("c", 2, 6.0);
        let m = mean(&[&a, &b, &c]).unwrap();
        assert!(m
            .severity()
            .values()
            .iter()
            .all(|&v| (v - 4.0).abs() < 1e-12));
        match m.provenance() {
            Provenance::Derived { operator, operands } => {
                assert_eq!(operator, "mean");
                assert_eq!(operands.len(), 3);
            }
            other => panic!("unexpected provenance {other:?}"),
        }
    }

    #[test]
    fn mean_of_empty_errors() {
        assert!(matches!(
            mean(&[]),
            Err(AlgebraError::EmptyOperandList { operator: "mean" })
        ));
        assert!(sum(&[]).is_err());
        assert!(min(&[]).is_err());
        assert!(max(&[]).is_err());
    }

    #[test]
    fn merge_unions_metrics_first_wins() {
        let a = with_flops("a", 1.0, 100.0);
        let b = uniform("b", 2, 9.0); // provides `time` only
        let m = merge(&a, &b);
        m.validate().unwrap();
        assert_eq!(m.metadata().num_metrics(), 2);
        // `time` provided by both → taken from a (1.0, not 9.0).
        let time = m.metadata().find_metric("time").unwrap();
        assert_eq!(m.severity().metric_sum(time), 2.0);
        // `flops` only in a.
        let flops = m.metadata().find_metric("flops").unwrap();
        assert_eq!(m.severity().metric_sum(flops), 200.0);
    }

    #[test]
    fn merge_takes_second_for_metrics_only_in_second() {
        let a = uniform("a", 2, 9.0);
        let b = with_flops("b", 1.0, 100.0);
        let m = merge(&a, &b);
        let time = m.metadata().find_metric("time").unwrap();
        let flops = m.metadata().find_metric("flops").unwrap();
        assert_eq!(m.severity().metric_sum(time), 18.0); // from a
        assert_eq!(m.severity().metric_sum(flops), 200.0); // from b
    }

    #[test]
    fn merge_is_idempotent() {
        let a = with_flops("a", 1.0, 100.0);
        let m = merge(&a, &a);
        assert!(m.approx_eq(&a, 1e-12));
    }

    #[test]
    fn min_and_max_select_elementwise() {
        let a = uniform("a", 2, 2.0);
        let b = uniform("b", 2, 4.0);
        let lo = min(&[&a, &b]).unwrap();
        let hi = max(&[&a, &b]).unwrap();
        assert!(lo.severity().values().iter().all(|&v| v == 2.0));
        assert!(hi.severity().values().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn sum_plus_scale_compose_into_mean() {
        let a = uniform("a", 2, 2.0);
        let b = uniform("b", 2, 4.0);
        let composite = scale(&sum(&[&a, &b]).unwrap(), 0.5);
        let direct = mean(&[&a, &b]).unwrap();
        assert!(composite.severity().approx_eq(direct.severity(), 1e-12));
    }

    #[test]
    fn closure_composite_diff_of_means() {
        // The paper's motivating composite: difference of averaged data.
        let a1 = uniform("a1", 2, 2.0);
        let a2 = uniform("a2", 2, 4.0);
        let b1 = uniform("b1", 2, 1.0);
        let b2 = uniform("b2", 2, 2.0);
        let d = diff(&mean(&[&a1, &a2]).unwrap(), &mean(&[&b1, &b2]).unwrap());
        d.validate().unwrap();
        assert!(d
            .severity()
            .values()
            .iter()
            .all(|&v| (v - 1.5).abs() < 1e-12));
        assert_eq!(
            d.provenance().label(),
            "difference(mean(a1, a2), mean(b1, b2))"
        );
    }

    #[test]
    fn operators_preserve_validity() {
        let a = with_flops("a", 1.0, 10.0);
        let b = uniform("b", 3, 2.0);
        for e in [
            diff(&a, &b),
            merge(&a, &b),
            mean(&[&a, &b]).unwrap(),
            sum(&[&a, &b]).unwrap(),
            min(&[&a, &b]).unwrap(),
            max(&[&a, &b]).unwrap(),
            scale(&a, -2.0),
        ] {
            e.validate()
                .expect("operator result must be a valid experiment");
        }
    }

    #[test]
    fn scale_negates() {
        let a = uniform("a", 1, 3.0);
        let n = scale(&a, -1.0);
        assert_eq!(n.severity().values()[0], -3.0);
    }

    #[test]
    fn large_arrays_use_parallel_path() {
        // Shape exceeding PAR_THRESHOLD exercises the rayon branch.
        let mut b = ExperimentBuilder::new("big");
        let t = b.def_metric("time", Unit::Seconds, "", None);
        let m = b.def_module("a", "a");
        let r = b.def_region("main", m, RegionKind::Function, 1, 1);
        let cs = b.def_call_site("a", 1, r);
        let mut parent = b.def_call_node(cs, None);
        let mut nodes = vec![parent];
        for _ in 0..255 {
            parent = b.def_call_node(cs, Some(parent));
            nodes.push(parent);
        }
        let ts = single_threaded_system(&mut b, 300);
        for &c in &nodes {
            b.set_severity(t, c, ts[0], 1.0);
        }
        let big = b.build().unwrap();
        assert!(big.severity().len() >= crate::kernel::PAR_THRESHOLD);
        let d = diff(&big, &big);
        assert!(d.severity().values().iter().all(|&v| v == 0.0));
    }
}
