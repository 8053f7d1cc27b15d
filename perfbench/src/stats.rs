//! Order statistics over a run's samples.

/// The median (mean of the middle pair for even counts); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The arithmetic mean; NaN when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The rate over all samples of per-item rates with equal work per item:
/// total work over total time, i.e. their harmonic mean; NaN when empty.
pub fn pooled_rate(rates: &[f64]) -> f64 {
    rates.len() as f64 / rates.iter().map(|r| 1.0 / r).sum::<f64>()
}

/// The tail: the highest order statistic with at least ten samples above
/// it, as `(value, percentile, samples)`. With twenty samples or fewer
/// that statistic would not lie above the median, so the maximum is
/// reported at percentile 100 instead.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return (f64::NAN, 100.0, 0);
    }
    let index = if n > 20 { n - 11 } else { n - 1 };
    let percentile = 100.0 * (index + 1) as f64 / n as f64;
    (sorted[index], percentile, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn pooled_rate_is_total_work_over_total_time() {
        // Two items of 10 units: 1 s and 4 s, so 20 units in 5 s.
        assert_eq!(pooled_rate(&[10.0, 2.5]), 4.0);
        assert!(pooled_rate(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, percentile, n) = tail(&values);
        assert_eq!((value, percentile, n), (90.0, 90.0, 100));
        assert_eq!(values.iter().filter(|&&v| v > value).count(), 10);
        assert_eq!(tail(&[5.0, 7.0]), (7.0, 100.0, 2));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), (20.0, 100.0, 20));
    }
}
