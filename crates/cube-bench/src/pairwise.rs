//! The pre-batch evaluation path, kept as a **differential oracle**:
//! every n-ary reduction here is the literal pairwise fold (or, for the
//! moments, the extend-everything reference), re-running metadata
//! integration at each step. `BatchPlan` results are tested
//! value-identical against these functions; the `batch_reduce` bench
//! measures the gap.
//!
//! Zero-extension here goes through `cube_algebra::extend`, which
//! writes a stored `-0.0` as `+0.0`; the fused kernel keeps the sign,
//! so compare values with `==`, not bit patterns, where an operand is
//! extended.

use cube_algebra::extend::extend_severity;
use cube_algebra::{integrate, AlgebraError, MergeOptions};
use cube_model::{Experiment, Provenance, Severity};

fn labels(operands: &[&Experiment]) -> Vec<String> {
    operands.iter().map(|e| e.provenance().label()).collect()
}

/// Left fold of a binary step over the operands, integrating the
/// accumulator with the next operand at every step — the O(k)
/// integrations the batch engine exists to avoid. `step` gets both
/// zero-extended arrays, the accumulator's map of the integrated
/// metrics, and the values per metric, and writes the result into the
/// first array.
fn fold_with(
    name: &'static str,
    operands: &[&Experiment],
    options: MergeOptions,
    step: impl Fn(&mut Severity, &Severity, &[bool], usize),
) -> Result<Experiment, AlgebraError> {
    let Some((&head, rest)) = operands.split_first() else {
        return Err(AlgebraError::EmptyOperandList { operator: name });
    };
    let mut acc = head.clone();
    for op in rest {
        let integrated = integrate(&[&acc, op], options);
        let shape = integrated.metadata.shape();
        let mut a = extend_severity(&acc, &integrated.maps[0], shape);
        let b = extend_severity(op, &integrated.maps[1], shape);
        let mut acc_provides = vec![false; shape.0];
        for m in &integrated.maps[0].metrics {
            acc_provides[m.index()] = true;
        }
        step(&mut a, &b, &acc_provides, shape.1 * shape.2);
        acc = Experiment::new_unchecked(integrated.metadata, a, Provenance::default());
    }
    acc.set_provenance(Provenance::derived(name, labels(operands)));
    Ok(acc)
}

/// [`fold_with`] for an element-wise operation.
fn fold(
    name: &'static str,
    operands: &[&Experiment],
    options: MergeOptions,
    f: impl Fn(f64, f64) -> f64,
) -> Result<Experiment, AlgebraError> {
    fold_with(name, operands, options, |a, b, _, _| {
        for (d, s) in a.values_mut().iter_mut().zip(b.values()) {
            *d = f(*d, *s);
        }
    })
}

/// Pairwise-fold sum.
pub fn sum(operands: &[&Experiment], options: MergeOptions) -> Result<Experiment, AlgebraError> {
    fold("sum", operands, options, |x, y| x + y)
}

/// Pairwise-fold mean: fold the sum, then scale by `1/k`.
pub fn mean(operands: &[&Experiment], options: MergeOptions) -> Result<Experiment, AlgebraError> {
    let mut e = fold("mean", operands, options, |x, y| x + y)?;
    let factor = 1.0 / operands.len() as f64;
    for v in e.severity_mut().values_mut() {
        *v *= factor;
    }
    Ok(e)
}

/// Pairwise-fold minimum.
pub fn min(operands: &[&Experiment], options: MergeOptions) -> Result<Experiment, AlgebraError> {
    fold("min", operands, options, f64::min)
}

/// Pairwise-fold maximum.
pub fn max(operands: &[&Experiment], options: MergeOptions) -> Result<Experiment, AlgebraError> {
    fold("max", operands, options, f64::max)
}

/// Pairwise-fold merge, the nested `merge(merge(A, B), C)`: at each
/// step a metric comes from the accumulator if it provides it and from
/// the next operand otherwise (the extend-and-copy body `ops::merge`
/// had before it became a plan reduction).
pub fn merge(operands: &[&Experiment], options: MergeOptions) -> Result<Experiment, AlgebraError> {
    fold_with("merge", operands, options, |a, b, acc_provides, block| {
        for (m, provided) in acc_provides.iter().enumerate() {
            if !provided {
                let rows = m * block..(m + 1) * block;
                a.values_mut()[rows.clone()].copy_from_slice(&b.values()[rows]);
            }
        }
    })
}

/// Reference population variance: integrates once but materializes
/// every operand's zero-extended array (the pre-batch
/// `stats::variance` implementation).
pub fn variance(
    operands: &[&Experiment],
    options: MergeOptions,
) -> Result<Experiment, AlgebraError> {
    if operands.is_empty() {
        return Err(AlgebraError::EmptyOperandList {
            operator: "variance",
        });
    }
    let integrated = integrate(operands, options);
    let shape = integrated.metadata.shape();
    let extended: Vec<_> = operands
        .iter()
        .zip(&integrated.maps)
        .map(|(op, map)| extend_severity(op, map, shape))
        .collect();
    let k = operands.len() as f64;
    let mut mean = extended[0].values().to_vec();
    for e in &extended[1..] {
        for (m, v) in mean.iter_mut().zip(e.values()) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= k;
    }
    let mut var = Severity::zeros(shape.0, shape.1, shape.2);
    for e in &extended {
        for ((out, &v), &m) in var.values_mut().iter_mut().zip(e.values()).zip(&mean) {
            *out += (v - m) * (v - m);
        }
    }
    for v in var.values_mut() {
        *v /= k;
    }
    Ok(Experiment::new_unchecked(
        integrated.metadata,
        var,
        Provenance::derived("variance", labels(operands)),
    ))
}

/// Reference population standard deviation (square root of
/// [`variance`]).
pub fn stddev(operands: &[&Experiment], options: MergeOptions) -> Result<Experiment, AlgebraError> {
    let mut e = variance(operands, options)?;
    for v in e.severity_mut().values_mut() {
        *v = v.sqrt();
    }
    e.set_provenance(Provenance::derived("stddev", labels(operands)));
    Ok(e)
}
