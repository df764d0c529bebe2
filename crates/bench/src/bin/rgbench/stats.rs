//! Percentile and spread arithmetic.

/// Nearest-rank percentile of an ascending slice (`pct` in 0..=100).
///
/// # Panics
/// Panics on an empty slice: every caller reports a sample count of at
/// least one or nothing at all.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of the `pct` percentile among `n >= 1` samples. The
/// epsilon keeps `99.9% of 10 000` at rank 9 990 despite binary rounding.
fn rank(n: usize, pct: f64) -> usize {
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median with the two middle samples averaged.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a percentile needs beyond it before it is worth reporting.
pub const MIN_BEYOND: usize = 10;

/// Samples strictly above the nearest-rank `pct` percentile of `n` samples.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, pct)
}

/// The highest percentile of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().find(|&pct| samples_beyond(n, pct) >= MIN_BEYOND)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (method `exclusive`) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need two samples");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(first: f64, second: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (second - first) / first
    } else {
        (first - second) / first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(supported_tail(9), None);
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[20.0, 10.0]);
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) - 0.10).abs() < 1e-12);
    }
}
