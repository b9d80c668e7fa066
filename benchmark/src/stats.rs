//! Order statistics for the replicate tables: median, quartiles and the
//! percentile a sample count can support.

/// The three quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so the
/// spreads printed here can be compared with the ones the driver computes.
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    Some([1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed: at the ends the clamp moves `j` past `i·m/4`, and the
        // formula then extrapolates from the two outermost values.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    }))
}

/// The median; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    match values {
        [] => f64::NAN,
        [only] => *only,
        _ => quartiles(values).map_or(f64::NAN, |q| q[1]),
    }
}

/// Distance between the first and the third quartile; `None` below two values.
pub fn iqr(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|q| q[2] - q[0])
}

/// The percentiles a timing may be reported at, highest first, in per mille
/// (whole numbers, so that the count beyond a percentile is exact).
const PER_MILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile of [`PER_MILLE`] that still has at least ten of
/// `count` samples beyond it; `None` when even the median has fewer.
pub fn supported_percentile(count: usize) -> Option<f64> {
    PER_MILLE
        .into_iter()
        .find(|per_mille| count * (1000 - per_mille) >= 10 * 1000)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// The nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_iqr_on_odd_counts() {
        let values = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&values), 3.0);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&values), Some([1.5, 3.0, 4.5]));
        assert_eq!(iqr(&values), Some(3.0));
    }

    #[test]
    fn median_and_iqr_on_even_counts() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&values), Some([1.25, 2.5, 3.75]));
        assert_eq!(iqr(&values), Some(2.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
    }

    #[test]
    fn degenerate_counts() {
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(iqr(&[7.0]), None);
    }

    #[test]
    fn percentile_pick_needs_ten_samples_beyond() {
        // 2000 gaps leave 20 beyond p99 but only 2 beyond p99.9.
        assert_eq!(supported_percentile(2000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(199), Some(90.0));
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(19), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }
}
