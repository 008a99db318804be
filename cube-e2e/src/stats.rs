//! Order statistics over latency samples.

/// Samples needed beyond a percentile before it is reported as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of ascending
/// `sorted`: the smallest sample with at least `p` % of the samples at
/// or below it. `0.0` for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match rank(sorted.len(), p) {
        0 => 0.0,
        r => sorted[r - 1],
    }
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples. The
/// small slack keeps decimal percentiles such as 99.9, which binary
/// floating point stores slightly high, from rounding up a whole rank.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(n.min(1), n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Whether `n` samples support reporting the `p`-th percentile as a
/// tail: at least [`TAIL_MIN_BEYOND`] samples lie beyond it.
pub fn supports_tail(n: usize, p: f64) -> bool {
    beyond(n, p) >= TAIL_MIN_BEYOND
}

/// The median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// A sorted copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default `exclusive`
/// method), so a spread read here matches one read with Python.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median, the repeatability
/// measure of a metric across runs.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Arithmetic mean; `0.0` for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
