//! Dense-array accumulation (Patwary et al., spECK dense rows).

use crate::Accumulator;
use sparse::ColId;

/// Accumulates one row in a dense `f64` array indexed by column id.
///
/// Occupancy is one bit per column. `add` assigns a column's first
/// product and adds later ones in insertion order, so each value is
/// the same float sum the other accumulators compute. The flush emits
/// the row in ascending column order and zeroes every bitmap word the
/// row set, so the bitmap is all zero between rows and clearing never
/// costs `O(width)`. A row of `n` columns whose span covers fewer than
/// `n·log2(n)` bitmap words — as the long rows of a low-compression
/// graph product do — is emitted by walking those words with
/// `trailing_zeros`, with no sort; a sparser-spread row sorts its
/// touched list. Both orders are ascending column order over the same
/// values, so the choice never changes the row.
#[derive(Clone, Debug)]
pub struct DenseAccumulator {
    values: Vec<f64>,
    occupied: Vec<u64>,
    touched: Vec<ColId>,
}

impl DenseAccumulator {
    /// Creates an accumulator for rows of a matrix (panel) with `width`
    /// columns.
    pub fn new(width: usize) -> Self {
        DenseAccumulator {
            values: vec![0.0; width],
            occupied: vec![0; width.div_ceil(64)],
            touched: Vec::new(),
        }
    }

    /// Column width this accumulator serves.
    pub fn width(&self) -> usize {
        self.values.len()
    }

    /// Grows the accumulator to cover columns `0..width` (no-op when it
    /// already does). New columns start unoccupied, so one
    /// worker-scoped accumulator can serve panels of different widths
    /// without a fresh width-sized allocation per panel.
    pub fn ensure_width(&mut self, width: usize) {
        if width > self.values.len() {
            self.values.resize(width, 0.0);
            self.occupied.resize(width.div_ceil(64), 0);
        }
    }

    /// Writes the row, sorted by column, into `cols`/`vals` — which
    /// must hold exactly [`Accumulator::len`] slots — then clears the
    /// accumulator for the next row.
    pub fn flush_into_slices(&mut self, cols: &mut [ColId], vals: &mut [f64]) {
        let n = self.touched.len();
        assert!(
            cols.len() == n && vals.len() == n,
            "output slices hold {} / {} slots for a row of {n}",
            cols.len(),
            vals.len()
        );
        let (lo, hi) = self
            .touched
            .iter()
            .fold((ColId::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        let (first, last) = (lo as usize / 64, hi as usize / 64);
        // Walking the bitmap costs one word per 64 columns of the row's
        // span; sorting the touched list costs about n·log2(n).
        if n > 1 && last - first < n * n.ilog2() as usize {
            let mut next = 0;
            for w in first..=last {
                let mut bits = std::mem::take(&mut self.occupied[w]);
                while bits != 0 {
                    let c = w * 64 + bits.trailing_zeros() as usize;
                    cols[next] = c as ColId;
                    vals[next] = self.values[c];
                    next += 1;
                    bits &= bits - 1;
                }
            }
        } else {
            self.touched.sort_unstable();
            for ((oc, ov), &c) in cols.iter_mut().zip(vals.iter_mut()).zip(&self.touched) {
                *oc = c;
                *ov = self.values[c as usize];
                self.occupied[c as usize / 64] = 0;
            }
        }
        self.touched.clear();
    }
}

impl Accumulator for DenseAccumulator {
    #[inline]
    fn add(&mut self, col: ColId, val: f64) {
        let i = col as usize;
        debug_assert!(
            i < self.values.len(),
            "column {col} out of accumulator width"
        );
        let bit = 1u64 << (i % 64);
        let word = &mut self.occupied[i / 64];
        if *word & bit != 0 {
            self.values[i] += val;
        } else {
            *word |= bit;
            self.values[i] = val;
            self.touched.push(col);
        }
    }

    fn len(&self) -> usize {
        self.touched.len()
    }

    fn flush_into(&mut self, cols: &mut Vec<ColId>, vals: &mut Vec<f64>) {
        let (cs, vs, n) = (cols.len(), vals.len(), self.touched.len());
        cols.resize(cs + n, 0);
        vals.resize(vs + n, 0.0);
        self.flush_into_slices(&mut cols[cs..], &mut vals[vs..]);
    }

    fn clear(&mut self) {
        for &c in &self.touched {
            self.occupied[c as usize / 64] = 0;
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_sorts() {
        let mut a = DenseAccumulator::new(10);
        a.add(7, 1.0);
        a.add(2, 2.0);
        a.add(7, 3.0);
        assert_eq!(a.len(), 2);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        a.flush_into(&mut c, &mut v);
        assert_eq!(c, vec![2, 7]);
        assert_eq!(v, vec![2.0, 4.0]);
        assert!(a.is_empty());
    }

    #[test]
    fn flush_resets_for_next_row() {
        let mut a = DenseAccumulator::new(4);
        a.add(1, 5.0);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        a.flush_into(&mut c, &mut v);
        // Same column again: must start from zero, not 5.0.
        a.add(1, 2.0);
        c.clear();
        v.clear();
        a.flush_into(&mut c, &mut v);
        assert_eq!(v, vec![2.0]);
    }

    #[test]
    fn clear_discards_without_output() {
        let mut a = DenseAccumulator::new(4);
        a.add(0, 1.0);
        a.clear();
        assert!(a.is_empty());
        a.add(0, 3.0);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        a.flush_into(&mut c, &mut v);
        assert_eq!(v, vec![3.0]);
    }

    #[test]
    fn flush_appends_to_existing_buffers() {
        let mut a = DenseAccumulator::new(4);
        let mut c = vec![9 as ColId];
        let mut v = vec![9.0];
        a.add(3, 1.5);
        a.flush_into(&mut c, &mut v);
        assert_eq!(c, vec![9, 3]);
        assert_eq!(v, vec![9.0, 1.5]);
    }

    #[test]
    fn zero_sum_entries_stay_structural() {
        let mut a = DenseAccumulator::new(4);
        a.add(2, 1.0);
        a.add(2, -1.0);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        a.flush_into(&mut c, &mut v);
        assert_eq!(c, vec![2]);
        assert_eq!(v, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "output slices hold")]
    fn short_output_slices_panic() {
        let mut a = DenseAccumulator::new(4);
        a.add(1, 1.0);
        a.add(2, 1.0);
        a.flush_into_slices(&mut [0], &mut [0.0]);
    }
}
