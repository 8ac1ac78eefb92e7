//! Summary statistics shared by every workload: nearest-rank
//! percentiles, the tail rule, and self time.

/// Tail percentile reported next to the median.
pub const TAIL_PCT: usize = 90;

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`pct` in 1..=100) of unsorted samples;
/// `None` when there are none. Integer rank arithmetic, so p90 of 100
/// samples is exactly the 90th value.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    Some(sorted[rank - 1])
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50)
}

/// The tail percentile, reported only when at least
/// [`TAIL_MIN_BEYOND`] samples lie beyond it; otherwise only the
/// median is meaningful and this is `None`.
pub fn tail(samples: &[f64]) -> Option<f64> {
    let rank = (TAIL_PCT * samples.len()).div_ceil(100);
    if samples.len() - rank >= TAIL_MIN_BEYOND {
        percentile(samples, TAIL_PCT)
    } else {
        None
    }
}

/// Fewest samples for which [`tail`] reports a value.
pub const fn min_samples_for_tail() -> usize {
    TAIL_MIN_BEYOND * 100 / (100 - TAIL_PCT)
}

/// Per-occurrence self time: each parent duration minus the duration
/// of the child recorded for the same operation. The two lists are in
/// operation order, one entry per operation.
pub fn self_times(parents: &[f64], children: &[f64]) -> Vec<f64> {
    parents
        .iter()
        .zip(children)
        .map(|(parent, child)| parent - child)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(5.0));
        assert_eq!(percentile(&v, 90), Some(9.0));
        assert_eq!(percentile(&v, 100), Some(10.0));
        assert_eq!(percentile(&v, 1), Some(1.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let n = min_samples_for_tail();
        assert_eq!(n, 100);
        let short: Vec<f64> = (0..n - 1).map(|i| i as f64).collect();
        assert_eq!(tail(&short), None, "99 samples leave only 9 beyond p90");
        let long: Vec<f64> = (0..n).map(|i| i as f64).collect();
        // Rank 90 of 100: exactly ten samples (90..=99) lie beyond it.
        assert_eq!(tail(&long), Some(89.0));
        assert!(median(&short).is_some(), "the median is always reported");
    }

    #[test]
    fn self_time_subtracts_the_matching_child() {
        let parents = [10.0, 20.0, 5.0];
        let children = [3.0, 8.0, 5.0];
        assert_eq!(self_times(&parents, &children), vec![7.0, 12.0, 0.0]);
    }
}
