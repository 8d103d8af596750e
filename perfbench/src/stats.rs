//! Order statistics used by every reported metric.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads this benchmark prints are
//! the spreads a reader recomputes from the raw samples. Tail percentiles
//! use the nearest-rank definition and are only reported when at least
//! [`MIN_TAIL`] samples lie beyond them.

/// Samples that must lie strictly beyond a percentile before it is
/// reported.
pub const MIN_TAIL: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Cut points dividing `values` into `n` groups, as Python's
/// `statistics.quantiles(values, n=n)` computes them (method
/// "exclusive", with its clamping of the interpolation index).
///
/// # Panics
///
/// Panics if `n < 1` or `values` is empty.
pub fn quantiles(values: &[f64], n: usize) -> Vec<f64> {
    assert!(n >= 1, "quantiles need n >= 1");
    assert!(!values.is_empty(), "quantiles of no samples");
    let data = sorted(values);
    let ld = data.len();
    if ld == 1 {
        return vec![data[0]; n - 1];
    }
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
        })
        .collect()
}

/// First and third quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let q = quantiles(values, 4);
    (q[0], q[2])
}

/// Interquartile range as a share of the median — the spread the
/// acceptance check compares against each metric's bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        ((q3 - q1) / m).abs()
    }
}

/// Number of samples strictly beyond the nearest-rank `p`-quantile
/// (`0 < p < 1`) of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = (p * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// Whether the `p`-quantile of `n` samples has at least [`MIN_TAIL`]
/// samples beyond it.
pub fn tail_is_reportable(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_TAIL
}

/// Nearest-rank `p`-quantile (`0 < p <= 1`): the smallest sample with at
/// least a `p` share of samples at or below it. Infinite samples (failed
/// requests) sort last.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median plus quartiles and the sample count, as printed for every
/// metric that has more than one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            n: values.len(),
            median: median(values),
            q1,
            q3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&v, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quantiles(&[2.0, 1.0], 4), vec![0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(
            quantiles(&[5.0, 1.0, 4.0, 2.0, 3.0], 4),
            vec![1.5, 3.0, 4.5]
        );
        // statistics.quantiles([7], n=4) == [7, 7, 7]
        assert_eq!(quantiles(&[7.0], 4), vec![7.0, 7.0, 7.0]);
        // statistics.quantiles(range(1, 101), n=10)[0] == 10.1
        let h: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantiles(&h, 10)[0] - 10.1).abs() < 1e-12);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn failed_samples_count_as_infinite_latency() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v[0] = f64::INFINITY;
        v[1] = f64::INFINITY;
        // 98 finite samples (3..=100) then two failures.
        assert_eq!(percentile(&v, 0.99), f64::INFINITY);
        assert_eq!(percentile(&v, 0.98), 100.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(tail_is_reportable(1000, 0.99));
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert!(!tail_is_reportable(999, 0.99));
        assert!(tail_is_reportable(20, 0.5));
        assert!(!tail_is_reportable(19, 0.5));
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn summary_reports_count_median_and_quartiles() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
    }
}
