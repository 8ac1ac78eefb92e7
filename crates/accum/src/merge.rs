//! Merge-based row accumulation over sorted CSR rows (BRMerge style).
//!
//! Gustavson's formulation computes output row `C(i,·)` as a sum of
//! scaled `B` rows. When those rows are sorted by column — which CSR
//! guarantees here — the sum can be computed by *merging* instead of
//! hashing: each contributing row is already sorted, so a two-way merge
//! produces the sorted output directly, with no hash probes and no
//! flush-time sort. `cpu_spgemm::multiply_semiring` accumulates this way
//! for every semiring; the `(+,×)` executors use the dense and hash
//! accumulators (EXPERIMENTS.md records why a merge kernel did not pay
//! off for them).
//!
//! **Bit-identicality constraint.** The workspace's ground truth
//! (`reference::multiply` and both existing accumulators) folds the
//! products hitting one column *left-associatively in increasing-`k`
//! order*: the first product is stored directly, each later one is
//! added on the right (`acc = acc + a_ik·b_kj`). A balanced merge tree
//! — BRMerge proper — would compute `(p1+p2)+(p3+p4)`, which is not
//! bit-identical to `((p1+p2)+p3)+p4` in IEEE arithmetic. We therefore
//! merge as a **left-leaning chain**: the accumulator starts as a
//! scaled copy of the first row and each subsequent row merges into it,
//! reproducing the reference fold order exactly. The chain keeps the
//! merge method's real advantages (sequential access, no hashing, no
//! sort) and gives up only the tree's asymptotic depth.

use sparse::ColId;

/// Reusable buffer pair for chained two-way merges of scaled sorted
/// rows. One buffer serves every row of a product; after warm-up no
/// merge allocates.
#[derive(Debug, Default)]
pub struct MergeBuffer {
    acc_c: Vec<ColId>,
    acc_v: Vec<f64>,
    tmp_c: Vec<ColId>,
    tmp_v: Vec<f64>,
}

#[inline]
fn debug_assert_sorted(cols: &[ColId]) {
    debug_assert!(
        cols.windows(2).all(|w| w[0] < w[1]),
        "merge accumulation requires strictly sorted rows"
    );
}

impl MergeBuffer {
    /// Creates an empty buffer (grows to its high-water mark on use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges the scaled rows `(scale, cols, vals)` — each sorted by
    /// column — into one sorted row, leaving the result readable via
    /// the returned `(cols, vals)` slices. Fold semantics are
    /// `plus(acc, times(scale, val))` with the accumulator on the
    /// left and the first product at each column stored directly, so
    /// for `(+,×)` over f64 the result is bit-identical to the dense /
    /// hash / sort accumulators fed products in the same row order.
    pub fn merge_rows_with<'a, P, T>(
        &mut self,
        plus: P,
        times: T,
        rows: impl IntoIterator<Item = (f64, &'a [ColId], &'a [f64])>,
        out: impl FnOnce(&[ColId], &[f64]),
    ) where
        P: Fn(f64, f64) -> f64,
        T: Fn(f64, f64) -> f64,
    {
        self.acc_c.clear();
        self.acc_v.clear();
        for (scale, row_c, row_v) in rows {
            debug_assert_eq!(row_c.len(), row_v.len());
            debug_assert_sorted(row_c);
            if row_c.is_empty() {
                continue;
            }
            if self.acc_c.is_empty() {
                // First contributing row: a scaled copy, matching the
                // other accumulators' direct first-touch store.
                self.acc_c.extend_from_slice(row_c);
                self.acc_v.extend(row_v.iter().map(|&v| times(scale, v)));
                continue;
            }
            self.tmp_c.clear();
            self.tmp_v.clear();
            let (mut i, mut j) = (0, 0);
            let (n, m) = (self.acc_c.len(), row_c.len());
            while i < n && j < m {
                let (ac, rc) = (self.acc_c[i], row_c[j]);
                if ac < rc {
                    self.tmp_c.push(ac);
                    self.tmp_v.push(self.acc_v[i]);
                    i += 1;
                } else if ac > rc {
                    self.tmp_c.push(rc);
                    self.tmp_v.push(times(scale, row_v[j]));
                    j += 1;
                } else {
                    self.tmp_c.push(ac);
                    self.tmp_v.push(plus(self.acc_v[i], times(scale, row_v[j])));
                    i += 1;
                    j += 1;
                }
            }
            self.tmp_c.extend_from_slice(&self.acc_c[i..]);
            self.tmp_v.extend_from_slice(&self.acc_v[i..]);
            self.tmp_c.extend_from_slice(&row_c[j..]);
            self.tmp_v
                .extend(row_v[j..].iter().map(|&v| times(scale, v)));
            std::mem::swap(&mut self.acc_c, &mut self.tmp_c);
            std::mem::swap(&mut self.acc_v, &mut self.tmp_v);
        }
        out(&self.acc_c, &self.acc_v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Accumulator, SortAccumulator};

    fn merge_f64(rows: &[(f64, Vec<ColId>, Vec<f64>)]) -> (Vec<ColId>, Vec<f64>) {
        let mut buf = MergeBuffer::new();
        let mut out = (Vec::new(), Vec::new());
        buf.merge_rows_with(
            |a, b| a + b,
            |a, b| a * b,
            rows.iter()
                .map(|(s, c, v)| (*s, c.as_slice(), v.as_slice())),
            |c, v| out = (c.to_vec(), v.to_vec()),
        );
        out
    }

    #[test]
    fn merges_two_sorted_rows() {
        let rows = vec![
            (2.0, vec![1u32, 4, 7], vec![1.0, 2.0, 3.0]),
            (0.5, vec![0u32, 4, 9], vec![4.0, 6.0, 8.0]),
        ];
        let (c, v) = merge_f64(&rows);
        assert_eq!(c, vec![0, 1, 4, 7, 9]);
        assert_eq!(v, vec![2.0, 2.0, 7.0, 6.0, 4.0]);
    }

    #[test]
    fn empty_rows_and_single_row() {
        let rows = vec![
            (3.0, vec![], vec![]),
            (2.0, vec![5u32, 6], vec![1.0, 2.0]),
            (1.0, vec![], vec![]),
        ];
        let (c, v) = merge_f64(&rows);
        assert_eq!(c, vec![5, 6]);
        assert_eq!(v, vec![2.0, 4.0]);
        assert_eq!(merge_f64(&[]), (vec![], vec![]));
    }

    #[test]
    fn chain_is_bit_identical_to_sort_accumulator() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        for case in 0..200 {
            let fan_in = rng.gen_range(0..12usize);
            let rows: Vec<(f64, Vec<ColId>, Vec<f64>)> = (0..fan_in)
                .map(|_| {
                    let len = rng.gen_range(0..20usize);
                    let mut cols: Vec<ColId> = (0..len)
                        .map(|_| rng.gen_range(0..40u32))
                        .collect::<std::collections::BTreeSet<_>>()
                        .into_iter()
                        .collect();
                    cols.sort_unstable();
                    let vals = cols.iter().map(|_| rng.gen_range(-4.0..4.0)).collect();
                    (rng.gen_range(-2.0..2.0), cols, vals)
                })
                .collect();
            let (mc, mv) = merge_f64(&rows);
            // Oracle: the ESC accumulator fed products in the same
            // row-major order (what reference::multiply does).
            let mut acc = SortAccumulator::new();
            for (s, c, v) in &rows {
                for (&col, &val) in c.iter().zip(v) {
                    acc.add(col, s * val);
                }
            }
            let (mut sc, mut sv) = (Vec::new(), Vec::new());
            acc.flush_into(&mut sc, &mut sv);
            assert_eq!(mc, sc, "case {case}: columns");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&mv), bits(&sv), "case {case}: values");
        }
    }

    #[test]
    fn buffer_reuse_is_clean() {
        let mut buf = MergeBuffer::new();
        let mut merge = |c: &[ColId], v: &[f64], scale: f64| {
            let mut out = (Vec::new(), Vec::new());
            buf.merge_rows_with(
                |a, b| a + b,
                |a, b| a * b,
                [(scale, c, v)],
                |c, v| out = (c.to_vec(), v.to_vec()),
            );
            out
        };
        assert_eq!(merge(&[2, 9], &[1.0, 2.0], 1.0).0, vec![2, 9]);
        // Second, unrelated row must not see the first.
        assert_eq!(merge(&[4], &[5.0], 2.0), (vec![4], vec![10.0]));
    }

    #[test]
    fn semiring_fold_uses_plus_times() {
        // Tropical min-plus: plus = min, times = +.
        let rows = [
            (1.0, vec![3u32, 5], vec![2.0, 9.0]),
            (4.0, vec![3u32], vec![1.0]),
        ];
        let mut buf = MergeBuffer::new();
        let mut out = (Vec::new(), Vec::new());
        buf.merge_rows_with(
            f64::min,
            |a, b| a + b,
            rows.iter()
                .map(|(s, c, v)| (*s, c.as_slice(), v.as_slice())),
            |c, v| out = (c.to_vec(), v.to_vec()),
        );
        assert_eq!(out.0, vec![3, 5]);
        // col 3: min(1+2, 4+1) = 3; col 5: 1+9 = 10.
        assert_eq!(out.1, vec![3.0, 10.0]);
    }
}
