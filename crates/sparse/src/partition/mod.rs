//! Panel partitioning (paper Section III-D).
//!
//! The out-of-core framework partitions `A` into *row panels* and `B`
//! into *column panels*; the product of row panel `i` and column panel
//! `j` is the output chunk `C[i][j]` (Algorithm 3).
//!
//! * Row panels are trivial for CSR: "partitioning the matrix A to row
//!   panels is straight-forward", a panel is a contiguous row range
//!   viewed in place ([`crate::CsrView::rows`]). The out-of-core
//!   planner picks the ranges by flops with
//!   [`weighted_ranges_from_prefix`].
//! * [`col`] — column panels require a gather; this module implements
//!   the paper's naive rescan algorithm, its `col_offset` cursor
//!   optimization, and the prefix-sum parallel variant.

pub mod col;

pub use col::{ColPanel, ColPartitioner};

use std::ops::Range;

/// Splits `n` items into `k` contiguous ranges whose sizes differ by at
/// most one. Panics if `k == 0` (unless `n == 0`, which yields no
/// ranges).
pub fn even_ranges(n: usize, k: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    assert!(k > 0, "cannot split {n} items into 0 panels");
    let k = k.min(n);
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// Splits `0..n` into at most `k` contiguous ranges with approximately
/// equal total weight, given an exclusive prefix sum of the weights
/// (`prefix[i]` = sum of the first `i` weights, so `prefix.len() == n +
/// 1`). Each range takes items while its weight is below the ideal
/// cumulative target, at least one item, and never so many that a
/// later range would be left empty; all-zero weights split evenly.
/// Binary search makes a call `O(k log n)`, which matters when the same
/// weights are re-partitioned many times (the planner's incremental
/// grid search). The out-of-core planner balances row panels by flops
/// and column panels by `B` nnz with it.
pub fn weighted_ranges_from_prefix(prefix: &[u64], k: usize) -> Vec<Range<usize>> {
    assert!(!prefix.is_empty(), "prefix sum must have n + 1 entries");
    let n = prefix.len() - 1;
    if n == 0 {
        return Vec::new();
    }
    assert!(k > 0, "cannot split {n} items into 0 panels");
    let k = k.min(n);
    let total = prefix[n] - prefix[0];
    if total == 0 {
        return even_ranges(n, k);
    }
    let mut out = Vec::with_capacity(k);
    let mut start = 0usize;
    for panel in 0..k {
        let remaining_panels = (k - panel) as u64;
        let target = (prefix[n] - prefix[start]).div_ceil(remaining_panels);
        // The greedy sweep consumes items while the panel weight is
        // below target, always takes at least one, and never takes an
        // item that would leave fewer than one per remaining panel.
        let want = prefix[start] + target;
        let searched = start + 1 + prefix[start + 1..=n].partition_point(|&p| p < want);
        let cap = n - (k - panel) + 1;
        let end = searched.min(cap);
        out.push(start..end);
        start = end;
        if start == n {
            break;
        }
    }
    if start < n {
        out.last_mut().unwrap().end = n;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splits `0..weights.len()` into at most `k` contiguous ranges with
    /// approximately equal total weight (greedy sweep against the ideal
    /// cumulative target). The test oracle of
    /// [`weighted_ranges_from_prefix`], the split the planner runs.
    fn weighted_ranges(weights: &[u64], k: usize) -> Vec<Range<usize>> {
        let n = weights.len();
        if n == 0 {
            return Vec::new();
        }
        assert!(k > 0, "cannot split {n} items into 0 panels");
        let k = k.min(n);
        let total: u64 = weights.iter().sum();
        if total == 0 {
            return even_ranges(n, k);
        }
        let mut out = Vec::with_capacity(k);
        let mut start = 0usize;
        let mut acc = 0u64;
        let mut consumed = 0u64;
        for panel in 0..k {
            let remaining_panels = (k - panel) as u64;
            let target = (total - consumed).div_ceil(remaining_panels);
            let mut end = start;
            while end < n && (acc < target || end == start) {
                // Leave at least one item per remaining panel.
                if n - end < k - panel {
                    break;
                }
                acc += weights[end];
                end += 1;
            }
            out.push(start..end);
            consumed += acc;
            acc = 0;
            start = end;
            if start == n {
                break;
            }
        }
        if start < n {
            out.last_mut().unwrap().end = n;
        }
        out
    }

    /// The exclusive prefix sum of `weights`.
    fn prefix_of(weights: &[u64]) -> Vec<u64> {
        std::iter::once(0)
            .chain(weights.iter().scan(0, |acc, &w| {
                *acc += w;
                Some(*acc)
            }))
            .collect()
    }

    #[test]
    fn even_ranges_cover_exactly() {
        for n in [0usize, 1, 5, 16, 17] {
            for k in [1usize, 2, 3, 7] {
                let r = even_ranges(n, k);
                if n == 0 {
                    assert!(r.is_empty());
                    continue;
                }
                assert_eq!(r.len(), k.min(n));
                assert_eq!(r[0].start, 0);
                assert_eq!(r.last().unwrap().end, n);
                for w in r.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                let sizes: Vec<_> = r.iter().map(|x| x.len()).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn weighted_ranges_balance_weight() {
        let w = [10u64, 1, 1, 1, 1, 10, 1, 1, 1, 1];
        let r = weighted_ranges_from_prefix(&prefix_of(&w), 2);
        assert_eq!(r.len(), 2);
        let sum0: u64 = w[r[0].clone()].iter().sum();
        let sum1: u64 = w[r[1].clone()].iter().sum();
        // Ideal is 14/14; greedy should land near that.
        assert!(sum0.abs_diff(sum1) <= 6, "got {sum0} vs {sum1}");
        assert_eq!(r[0].start, 0);
        assert_eq!(r[1].end, w.len());
    }

    #[test]
    fn weighted_ranges_handles_zero_weights() {
        let w = [0u64; 8];
        let r = weighted_ranges_from_prefix(&prefix_of(&w), 4);
        assert_eq!(r.len(), 4);
        assert_eq!(r.last().unwrap().end, 8);
    }

    #[test]
    fn weighted_ranges_more_panels_than_items() {
        let w = [5u64, 5];
        let r = weighted_ranges_from_prefix(&prefix_of(&w), 10);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0], 0..1);
        assert_eq!(r[1], 1..2);
    }

    #[test]
    fn weighted_ranges_single_heavy_item() {
        let w = [100u64, 1, 1, 1];
        let r = weighted_ranges_from_prefix(&prefix_of(&w), 3);
        assert_eq!(r.iter().map(|x| x.len()).sum::<usize>(), 4);
        assert_eq!(r[0], 0..1, "heavy head takes its own panel");
    }

    #[test]
    fn prefix_variant_matches_greedy_sweep() {
        // Deterministic pseudo-random weights with heavy items, zero
        // runs, and skew — the shapes that exercise the greedy guards.
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1usize, 2, 3, 7, 16, 100, 257] {
            let mut weights = vec![0u64; n];
            for w in weights.iter_mut() {
                let r = next();
                *w = match r % 5 {
                    0 => 0,
                    1 => r % 7,
                    2 => r % 1000,
                    _ => r % 50,
                };
            }
            let prefix = prefix_of(&weights);
            for k in [1usize, 2, 3, 5, 8, n, 2 * n] {
                assert_eq!(
                    weighted_ranges(&weights, k),
                    weighted_ranges_from_prefix(&prefix, k),
                    "n={n} k={k} weights={weights:?}"
                );
            }
        }
        // All-zero weights fall back to even splitting in both.
        let prefix = vec![0u64; 9];
        assert_eq!(
            weighted_ranges(&[0; 8], 3),
            weighted_ranges_from_prefix(&prefix, 3)
        );
    }
}
