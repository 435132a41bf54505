//! Summaries of timed samples.

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample such that at least `p` percent of the samples are at or below
/// it. `p` is in `(0, 100]`; an empty slice has no percentile.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The rate over slices that each did `work` units in `secs[i]` seconds:
/// all their work over all their time. NaN when no time was measured.
pub fn rate(work: f64, secs: &[f64]) -> f64 {
    let total: f64 = secs.iter().sum();
    if total > 0.0 {
        work * secs.len() as f64 / total
    } else {
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 51.0), Some(6.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(1.0));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&thousand, 99.0), Some(990.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&v, 0.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn rate_is_total_work_over_total_time() {
        // Three slices of 100 units in 2 + 0.5 + 1.5 s: 300 units in 4 s.
        assert_eq!(rate(100.0, &[2.0, 0.5, 1.5]), 75.0);
        assert!(rate(1.0, &[]).is_nan());
    }
}
