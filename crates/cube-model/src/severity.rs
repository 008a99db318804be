//! The severity store: a dense three-dimensional array of metric values.
//!
//! Severity values are indexed by `(metric, call node, thread)`. The
//! layout is row-major with the thread index varying fastest, matching
//! the XML format's "matrix per metric, row per call node" structure and
//! giving the element-wise algebra a single contiguous `&[f64]` to
//! operate on.
//!
//! ## NaN policy
//!
//! A severity value of a *valid* experiment is never NaN:
//! [`Experiment::validate`](crate::Experiment::validate) rejects stores
//! containing one, and [`Severity::find_nan`] is the diagnostic that
//! locates the offender. Code operating on unvalidated stores (anything
//! assembled through `new_unchecked` or raw `values_mut` writes) must
//! assume IEEE semantics instead: addition-based reductions (`sum`,
//! `mean`, `variance`) *poison* the affected element with NaN, while
//! `min`/`max` follow Rust's [`f64::min`]/[`f64::max`] and return the
//! other operand, so a single NaN operand is dropped from the
//! selection. The batch engine in `cube-algebra` pins exactly these
//! semantics in its tests rather than paying for per-element checks on
//! the hot path.

use crate::error::ModelError;
use crate::ids::{CallNodeId, MetricId, ThreadId};

/// Dense three-dimensional severity array.
///
/// A value may be negative — difference experiments are first-class
/// citizens of the algebra — but never NaN.
#[derive(Clone, Debug, PartialEq)]
pub struct Severity {
    num_metrics: usize,
    num_call_nodes: usize,
    num_threads: usize,
    values: Vec<f64>,
}

impl Severity {
    /// Creates an all-zero severity store with the given shape.
    pub fn zeros(num_metrics: usize, num_call_nodes: usize, num_threads: usize) -> Self {
        Self {
            num_metrics,
            num_call_nodes,
            num_threads,
            values: vec![0.0; num_metrics * num_call_nodes * num_threads],
        }
    }

    /// Creates a severity store from a raw value vector, checking that
    /// the vector length matches the product of the dimensions.
    ///
    /// This is the fallible counterpart of [`Severity::from_values`];
    /// use it when the shape or the values come from an external source
    /// (a file, a wire format) rather than from code that controls
    /// both.
    ///
    /// ```
    /// use cube_model::{ModelError, Severity};
    ///
    /// let s = Severity::try_from_values(1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
    /// assert_eq!(s.shape(), (1, 2, 2));
    ///
    /// let err = Severity::try_from_values(1, 2, 2, vec![1.0]).unwrap_err();
    /// assert!(matches!(err, ModelError::SeverityLengthMismatch { .. }));
    /// ```
    pub fn try_from_values(
        num_metrics: usize,
        num_call_nodes: usize,
        num_threads: usize,
        values: Vec<f64>,
    ) -> Result<Self, ModelError> {
        let expected_len = num_metrics * num_call_nodes * num_threads;
        if values.len() != expected_len {
            return Err(ModelError::SeverityLengthMismatch {
                shape: (num_metrics, num_call_nodes, num_threads),
                expected_len,
                actual_len: values.len(),
            });
        }
        Ok(Self {
            num_metrics,
            num_call_nodes,
            num_threads,
            values,
        })
    }

    /// Creates a severity store from a raw value vector.
    ///
    /// # Panics
    /// Panics if `values.len() != num_metrics * num_call_nodes * num_threads`.
    /// For a fallible version see [`Severity::try_from_values`].
    pub fn from_values(
        num_metrics: usize,
        num_call_nodes: usize,
        num_threads: usize,
        values: Vec<f64>,
    ) -> Self {
        match Self::try_from_values(num_metrics, num_call_nodes, num_threads, values) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// The shape `(metrics, call nodes, threads)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.num_metrics, self.num_call_nodes, self.num_threads)
    }

    /// Total number of stored values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store holds no values at all.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    #[inline]
    fn offset(&self, m: MetricId, c: CallNodeId, t: ThreadId) -> usize {
        debug_assert!(m.index() < self.num_metrics, "metric out of range");
        debug_assert!(c.index() < self.num_call_nodes, "call node out of range");
        debug_assert!(t.index() < self.num_threads, "thread out of range");
        (m.index() * self.num_call_nodes + c.index()) * self.num_threads + t.index()
    }

    /// Reads the severity of one tuple.
    #[inline]
    pub fn get(&self, m: MetricId, c: CallNodeId, t: ThreadId) -> f64 {
        self.values[self.offset(m, c, t)]
    }

    /// Overwrites the severity of one tuple.
    #[inline]
    pub fn set(&mut self, m: MetricId, c: CallNodeId, t: ThreadId, value: f64) {
        let o = self.offset(m, c, t);
        self.values[o] = value;
    }

    /// Adds to the severity of one tuple (the natural accumulation
    /// operation for measurement tools).
    #[inline]
    pub fn add(&mut self, m: MetricId, c: CallNodeId, t: ThreadId, value: f64) {
        let o = self.offset(m, c, t);
        self.values[o] += value;
    }

    /// The contiguous row of thread values for `(metric, call node)`.
    pub fn row(&self, m: MetricId, c: CallNodeId) -> &[f64] {
        let start = (m.index() * self.num_call_nodes + c.index()) * self.num_threads;
        &self.values[start..start + self.num_threads]
    }

    /// Flat row index of `(metric, call node)`:
    /// `row_at(row_index(m, c)) == row(m, c)`.
    #[inline]
    pub fn row_index(&self, m: MetricId, c: CallNodeId) -> usize {
        debug_assert!(m.index() < self.num_metrics, "metric out of range");
        debug_assert!(c.index() < self.num_call_nodes, "call node out of range");
        m.index() * self.num_call_nodes + c.index()
    }

    /// The thread row at a flat row index (see [`Severity::row_index`]).
    ///
    /// This is the mapping-reuse hook for the `cube-algebra` batch
    /// engine: a cached `(metric, call node)` translation yields a flat
    /// row index, and the row is then read as one contiguous slice.
    #[inline]
    pub fn row_at(&self, row: usize) -> &[f64] {
        let start = row * self.num_threads;
        &self.values[start..start + self.num_threads]
    }

    /// Mutable access to the row of thread values for `(metric, call node)`.
    pub fn row_mut(&mut self, m: MetricId, c: CallNodeId) -> &mut [f64] {
        let start = (m.index() * self.num_call_nodes + c.index()) * self.num_threads;
        &mut self.values[start..start + self.num_threads]
    }

    /// Sum of a row (all threads) for `(metric, call node)`.
    pub fn row_sum(&self, m: MetricId, c: CallNodeId) -> f64 {
        self.row(m, c).iter().sum()
    }

    /// Sum over all call nodes and threads for one metric.
    pub fn metric_sum(&self, m: MetricId) -> f64 {
        let start = m.index() * self.num_call_nodes * self.num_threads;
        let end = start + self.num_call_nodes * self.num_threads;
        self.values[start..end].iter().sum()
    }

    /// The full backing slice (metric-major, thread-fastest).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the full backing slice.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Iterates over all `(metric, call node, thread, value)` tuples with a
    /// nonzero value.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (MetricId, CallNodeId, ThreadId, f64)> + '_ {
        let nc = self.num_call_nodes;
        let nt = self.num_threads;
        self.values.iter().enumerate().filter_map(move |(i, &v)| {
            if v == 0.0 {
                None
            } else {
                let t = i % nt;
                let c = (i / nt) % nc;
                let m = i / (nt * nc);
                Some((
                    MetricId::from_index(m),
                    CallNodeId::from_index(c),
                    ThreadId::from_index(t),
                    v,
                ))
            }
        })
    }

    /// Returns the first NaN position, if any.
    pub fn find_nan(&self) -> Option<(MetricId, CallNodeId, ThreadId)> {
        let nc = self.num_call_nodes;
        let nt = self.num_threads;
        self.values.iter().position(|v| v.is_nan()).map(|i| {
            (
                MetricId::from_index(i / (nt * nc)),
                CallNodeId::from_index((i / nt) % nc),
                ThreadId::from_index(i % nt),
            )
        })
    }

    /// Largest absolute value in the store (0.0 when empty).
    pub fn max_abs(&self) -> f64 {
        self.values.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// True if every value compares equal to the corresponding value of
    /// `other` within `tol`.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(i: u32) -> MetricId {
        MetricId::new(i)
    }
    fn c(i: u32) -> CallNodeId {
        CallNodeId::new(i)
    }
    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn zeros_has_right_shape() {
        let s = Severity::zeros(2, 3, 4);
        assert_eq!(s.shape(), (2, 3, 4));
        assert_eq!(s.len(), 24);
        assert!(!s.is_empty());
        assert!(s.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn set_get_add() {
        let mut s = Severity::zeros(2, 2, 2);
        s.set(m(1), c(0), t(1), 3.5);
        assert_eq!(s.get(m(1), c(0), t(1)), 3.5);
        s.add(m(1), c(0), t(1), 1.5);
        assert_eq!(s.get(m(1), c(0), t(1)), 5.0);
        assert_eq!(s.get(m(0), c(0), t(1)), 0.0);
    }

    #[test]
    fn layout_is_thread_fastest() {
        let mut s = Severity::zeros(2, 2, 3);
        s.set(m(0), c(0), t(0), 1.0);
        s.set(m(0), c(0), t(2), 2.0);
        s.set(m(0), c(1), t(0), 3.0);
        s.set(m(1), c(0), t(0), 4.0);
        assert_eq!(&s.values()[0..3], &[1.0, 0.0, 2.0]);
        assert_eq!(s.values()[3], 3.0);
        assert_eq!(s.values()[6], 4.0);
    }

    #[test]
    fn rows_and_sums() {
        let mut s = Severity::zeros(1, 2, 3);
        s.set(m(0), c(1), t(0), 1.0);
        s.set(m(0), c(1), t(2), 2.0);
        assert_eq!(s.row(m(0), c(1)), &[1.0, 0.0, 2.0]);
        assert_eq!(s.row_sum(m(0), c(1)), 3.0);
        assert_eq!(s.metric_sum(m(0)), 3.0);
        s.row_mut(m(0), c(0))[1] = 5.0;
        assert_eq!(s.metric_sum(m(0)), 8.0);
    }

    #[test]
    fn iter_nonzero_yields_coordinates() {
        let mut s = Severity::zeros(2, 2, 2);
        s.set(m(1), c(1), t(0), -2.0);
        let all: Vec<_> = s.iter_nonzero().collect();
        assert_eq!(all, vec![(m(1), c(1), t(0), -2.0)]);
    }

    #[test]
    fn find_nan_locates_position() {
        let mut s = Severity::zeros(2, 3, 4);
        assert_eq!(s.find_nan(), None);
        s.set(m(1), c(2), t(3), f64::NAN);
        assert_eq!(s.find_nan(), Some((m(1), c(2), t(3))));
    }

    #[test]
    fn max_abs_sees_negative_values() {
        let mut s = Severity::zeros(1, 1, 2);
        s.set(m(0), c(0), t(0), -7.0);
        s.set(m(0), c(0), t(1), 3.0);
        assert_eq!(s.max_abs(), 7.0);
    }

    #[test]
    fn approx_eq_tolerates_small_differences() {
        let mut a = Severity::zeros(1, 1, 1);
        let mut b = Severity::zeros(1, 1, 1);
        a.set(m(0), c(0), t(0), 1.0);
        b.set(m(0), c(0), t(0), 1.0 + 1e-12);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&b, 1e-15));
        let c3 = Severity::zeros(1, 1, 2);
        assert!(!a.approx_eq(&c3, 1.0));
    }

    #[test]
    #[should_panic(expected = "length must equal")]
    fn from_values_checks_length() {
        let _ = Severity::from_values(2, 2, 2, vec![0.0; 7]);
    }

    #[test]
    fn try_from_values_reports_mismatch() {
        let err = Severity::try_from_values(2, 2, 2, vec![0.0; 7]).unwrap_err();
        assert_eq!(
            err,
            ModelError::SeverityLengthMismatch {
                shape: (2, 2, 2),
                expected_len: 8,
                actual_len: 7,
            }
        );
        assert!(err.to_string().contains("length must equal"));

        let ok = Severity::try_from_values(2, 2, 2, vec![1.0; 8]).unwrap();
        assert_eq!(ok.shape(), (2, 2, 2));
        assert_eq!(ok.len(), 8);
    }

    #[test]
    fn empty_store() {
        let s = Severity::zeros(0, 0, 0);
        assert!(s.is_empty());
        assert_eq!(s.max_abs(), 0.0);
        assert_eq!(s.iter_nonzero().count(), 0);
    }

    #[test]
    fn row_hooks_agree_with_coordinate_access() {
        let mut s = Severity::zeros(2, 3, 4);
        s.set(m(1), c(2), t(3), 9.0);
        for mi in 0..2u32 {
            for ci in 0..3u32 {
                let r = s.row_index(m(mi), c(ci));
                assert_eq!(s.row_at(r), s.row(m(mi), c(ci)));
            }
        }
        assert_eq!(s.row_at(s.row_index(m(1), c(2)))[3], 9.0);
    }

    #[test]
    fn row_hooks_on_empty_store() {
        // Degenerate shapes with zero threads still address rows.
        let z = Severity::zeros(2, 2, 0);
        assert_eq!(z.row_at(3), &[] as &[f64]);
    }

    #[test]
    fn iter_nonzero_on_empty_and_all_zero_stores() {
        assert_eq!(Severity::zeros(0, 0, 0).iter_nonzero().count(), 0);
        assert_eq!(Severity::zeros(3, 1, 2).iter_nonzero().count(), 0);
        // Negative zero compares equal to zero and is skipped too — the
        // scatter path of the algebra's zero-extension relies on this.
        let mut s = Severity::zeros(1, 1, 2);
        s.set(m(0), c(0), t(0), -0.0);
        assert_eq!(s.iter_nonzero().count(), 0);
    }

    #[test]
    fn iter_nonzero_yields_nan_tuples() {
        // NaN != 0.0, so the iterator must surface it — this is what
        // lets scatter-based extension carry a NaN forward instead of
        // silently dropping it.
        let mut s = Severity::zeros(1, 2, 1);
        s.set(m(0), c(1), t(0), f64::NAN);
        let all: Vec<_> = s.iter_nonzero().collect();
        assert_eq!(all.len(), 1);
        assert_eq!((all[0].0, all[0].1, all[0].2), (m(0), c(1), t(0)));
        assert!(all[0].3.is_nan());
    }

    #[test]
    fn find_nan_on_empty_store_and_first_position() {
        assert_eq!(Severity::zeros(0, 0, 0).find_nan(), None);
        let mut s = Severity::zeros(2, 2, 2);
        s.set(m(0), c(0), t(0), f64::NAN);
        s.set(m(1), c(1), t(1), f64::NAN);
        // Reports the first offender in layout order.
        assert_eq!(s.find_nan(), Some((m(0), c(0), t(0))));
    }

    #[test]
    fn row_sum_edge_cases() {
        // Zero-thread row: empty sum is 0.0.
        let z = Severity::zeros(1, 1, 0);
        assert_eq!(z.row_sum(m(0), c(0)), 0.0);
        // NaN poisons the row sum (IEEE addition semantics).
        let mut s = Severity::zeros(1, 1, 3);
        s.set(m(0), c(0), t(0), 1.0);
        s.set(m(0), c(0), t(1), f64::NAN);
        assert!(s.row_sum(m(0), c(0)).is_nan());
        // Opposite values cancel exactly.
        let mut p = Severity::zeros(1, 1, 2);
        p.set(m(0), c(0), t(0), 7.5);
        p.set(m(0), c(0), t(1), -7.5);
        assert_eq!(p.row_sum(m(0), c(0)), 0.0);
    }
}
