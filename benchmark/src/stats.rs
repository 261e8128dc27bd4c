//! Order statistics for the reported timings.

/// A percentile is reported only when at least this many samples lie
/// beyond it; a tail estimate resting on fewer is mostly noise.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `percent`-th percentile of `samples`: the smallest sample
/// such that at least `percent`% of all samples are at or below it.
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], percent: u32) -> Option<f64> {
    assert!((1..=100).contains(&percent), "percent must be in 1..=100");
    let n = samples.len();
    // ceil(percent * n / 100) in integers, so 0.99 * 2000 is exactly 1980.
    let rank = (percent as usize * n).div_ceil(100).max(1);
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a small set of repeated measurements (set-up times), without
/// the tail-support rule: the middle value, or the mean of the two middle
/// values for an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `part / whole`, or 0 when nothing was attempted.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n, so the percentile has to sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s = ramp(100);
        // With 100 samples p50 is the 50th value and 50 lie beyond it.
        assert_eq!(percentile(&s, 50), Some(50.0));
        assert_eq!(percentile(&s, 90), Some(90.0));
        // p95 of 200 samples is the 190th value.
        assert_eq!(percentile(&ramp(200), 95), Some(190.0));
        // Integer rank arithmetic: 0.99 * 2000 is exactly rank 1980.
        assert_eq!(percentile(&ramp(2000), 99), Some(1980.0));
        assert_eq!(percentile(&ramp(101), 50), Some(51.0));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        // 1000 samples: p99 is rank 990 with exactly 10 beyond.
        assert_eq!(percentile(&ramp(1000), 99), Some(990.0));
        // 999 samples: rank 990 leaves only 9 beyond.
        assert_eq!(percentile(&ramp(999), 99), None);
        assert_eq!(percentile(&ramp(19), 50), None);
        assert_eq!(percentile(&ramp(20), 50), Some(10.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
