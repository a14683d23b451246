//! Order statistics behind every aggregate the benchmark reports.

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(ascending: &[f64], p: f64) -> f64 {
    assert!(!ascending.is_empty(), "percentile of no samples");
    ascending[rank(ascending.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `samples` samples.
/// Multiplying before dividing keeps whole percentiles of round counts
/// exact (90 % of 100 is rank 90, not 91).
fn rank(samples: usize, p: f64) -> usize {
    ((p * samples as f64 / 100.0).ceil() as usize).clamp(1, samples.max(1))
}

/// The ten-samples-beyond rule: a percentile is reported only when at
/// least ten samples lie beyond it, so the tail is not one outlier.
pub fn supports_percentile(samples: usize, p: f64) -> bool {
    samples >= rank(samples, p) + 10
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the exclusive method), so the spread `compare`
/// judges by is the one the acceptance driver computes. `None` below two
/// samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median — the
/// run-to-run spread a bound is compared with. `None` when undefined.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(supports_percentile(100, 90.0));
        assert!(!supports_percentile(99, 90.0));
        assert!(supports_percentile(200, 95.0));
        assert!(!supports_percentile(199, 95.0));
        assert!(!supports_percentile(300, 99.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = quartile_spread(&v).expect("ten samples");
        assert!((spread - 1.0).abs() < 1e-12);
    }
}
