//! Small statistics helpers shared by the experiment harnesses: means,
//! medians, percentiles and CDF construction.

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median (by sorting a copy). Returns 0.0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Percentile `p` in [0, 100] using linear interpolation between order
/// statistics (of a sorted copy; see [`percentile_sorted`]). Returns 0.0
/// for an empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or any value is NaN.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in percentile input"));
    percentile_sorted(&sorted, p)
}

/// [`percentile`] of a slice already sorted ascending: callers that read
/// several percentiles of one sample sort it once. Returns 0.0 for an
/// empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Build an empirical CDF: sorted `(value, cumulative_fraction)` points.
pub fn cdf(xs: &[f64]) -> Vec<(f64, f64)> {
    if xs.is_empty() {
        return Vec::new();
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in cdf input"));
    let n = sorted.len() as f64;
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n))
        .collect()
}

/// Relative improvement of `new` over `old` as a percentage:
/// positive = improvement (reduction).
pub fn improvement_pct(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        (old - new) / old * 100.0
    }
}

/// Speedup factor `old / new` (∞-safe: returns 1.0 when `new` is 0).
pub fn speedup(old: f64, new: f64) -> f64 {
    if new <= 0.0 {
        1.0
    } else {
        old / new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_median_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(median(&[1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
        assert!((percentile(&xs, 50.0) - 25.0).abs() < 1e-12);
        let unsorted = [30.0, 10.0, 40.0, 20.0];
        for p in [0.0, 10.0, 50.0, 95.0, 100.0] {
            assert_eq!(percentile(&unsorted, p), percentile_sorted(&xs, p));
        }
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn percentile_rejects_out_of_range() {
        percentile(&[1.0], 150.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let points = cdf(&[3.0, 1.0, 2.0]);
        assert_eq!(points.len(), 3);
        assert_eq!(points.last().unwrap().1, 1.0);
        for w in points.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!(cdf(&[]).is_empty());
    }

    #[test]
    fn improvement_and_speedup() {
        assert_eq!(improvement_pct(10.0, 5.0), 50.0);
        assert_eq!(improvement_pct(0.0, 5.0), 0.0);
        assert_eq!(speedup(10.0, 5.0), 2.0);
        assert_eq!(speedup(10.0, 0.0), 1.0);
    }
}
