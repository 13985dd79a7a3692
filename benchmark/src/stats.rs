//! Order statistics for the benchmark's reports: nearest-rank percentiles,
//! the rule for the highest percentile a sample supports, and run-to-run
//! spread.

/// Percentiles the reports may quote, ascending, in tenths of a percent.
const CANDIDATES: [usize; 5] = [500, 900, 950, 990, 999];

/// A sample must leave at least this many observations beyond a percentile
/// for the percentile to be quoted.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample; NaN when it is
/// empty (a window in which the server answered nothing).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample ascending (timings are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of a sample (NaN when it is empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// The highest quotable percentile of a sample of `n`: the largest
/// candidate with at least ten observations beyond it, or `None` when even
/// the median is unsupported.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    CANDIDATES
        .iter()
        .rfind(|&&p| n * (1_000 - p) >= MIN_BEYOND * 1_000)
        .map(|&p| p as f64 / 10.0)
}

/// Spread of the values a median was taken over: the distance between
/// their quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let mid = percentile(&s, 50.0);
    if mid == 0.0 {
        return 0.0;
    }
    (percentile(&s, 75.0) - percentile(&s, 25.0)) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), 50.0);
        assert_eq!(percentile(&sample, 95.0), 95.0);
        assert_eq!(percentile(&sample, 99.0), 99.0);
        assert_eq!(percentile(&sample, 100.0), 100.0);
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan() && median(&[]).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn spread_is_interquartile_range_over_median() {
        assert_eq!(spread(&[10.0, 11.0, 9.0, 8.0, 30.0]), 0.2);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(spread(&[7.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
