//! Hash-map accumulation (Nagasaka et al., spECK sparse rows).
//!
//! "The hashmap method first allocates memory space based on an upper
//! bound estimation of the size of the hash table. It then inserts
//! values using the column ids of the intermediate results as the key.
//! Then, it sorts the values of each row" (paper Section II-B).

use crate::Accumulator;
use sparse::ColId;

const EMPTY: ColId = ColId::MAX;

/// Open-addressing (linear probing) hash accumulator.
///
/// Capacity is always a power of two; the table grows when the load
/// factor would exceed 1/2. The hash is a Fibonacci multiplicative mix,
/// cheap and adequate for integer keys.
#[derive(Clone, Debug)]
pub struct HashAccumulator {
    keys: Vec<ColId>,
    vals: Vec<f64>,
    mask: usize,
    len: usize,
}

#[inline]
fn hash(col: ColId, mask: usize) -> usize {
    // Fibonacci hashing: multiply by 2^32 / phi, take high bits via mask.
    (col.wrapping_mul(2654435769) as usize) & mask
}

impl HashAccumulator {
    /// Creates a table sized for about `expected` distinct columns
    /// (the upper-bound estimate from the symbolic analysis).
    pub fn with_expected(expected: usize) -> Self {
        let cap = (expected.max(4) * 2).next_power_of_two();
        HashAccumulator {
            keys: vec![EMPTY; cap],
            vals: vec![0.0; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    /// Current table capacity (slots).
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Writes the row, sorted by column, into `cols`/`vals` — which
    /// must hold exactly [`Accumulator::len`] slots — then clears the
    /// table for the next row.
    pub fn flush_into_slices(&mut self, cols: &mut [ColId], vals: &mut [f64]) {
        let n = self.len;
        assert!(
            cols.len() == n && vals.len() == n,
            "output slices hold {} / {} slots for a row of {n}",
            cols.len(),
            vals.len()
        );
        let live = self
            .keys
            .iter()
            .zip(&self.vals)
            .filter(|(&k, _)| k != EMPTY);
        for ((oc, ov), (&k, &v)) in cols.iter_mut().zip(vals.iter_mut()).zip(live) {
            *oc = k;
            *ov = v;
        }
        // Keys are distinct, so an in-place co-sort gives the one
        // ascending order without a per-row allocation.
        crate::sort::co_sort_pairs(cols, vals);
        self.clear();
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0.0; new_cap]);
        self.mask = new_cap - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                self.add(k, v);
            }
        }
    }
}

impl Accumulator for HashAccumulator {
    fn add(&mut self, col: ColId, val: f64) {
        debug_assert_ne!(col, EMPTY, "column id u32::MAX is reserved");
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mut i = hash(col, self.mask);
        loop {
            if self.keys[i] == col {
                self.vals[i] += val;
                return;
            }
            if self.keys[i] == EMPTY {
                self.keys[i] = col;
                self.vals[i] = val;
                self.len += 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn flush_into(&mut self, cols: &mut Vec<ColId>, vals: &mut Vec<f64>) {
        let (cs, vs, n) = (cols.len(), vals.len(), self.len);
        cols.resize(cs + n, 0);
        vals.resize(vs + n, 0.0);
        self.flush_into_slices(&mut cols[cs..], &mut vals[vs..]);
    }

    fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_sorts() {
        let mut a = HashAccumulator::with_expected(4);
        a.add(90, 1.0);
        a.add(5, 2.0);
        a.add(90, 0.5);
        a.add(42, 3.0);
        assert_eq!(a.len(), 3);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        a.flush_into(&mut c, &mut v);
        assert_eq!(c, vec![5, 42, 90]);
        assert_eq!(v, vec![2.0, 3.0, 1.5]);
        assert!(a.is_empty());
    }

    #[test]
    fn grows_past_initial_estimate() {
        let mut a = HashAccumulator::with_expected(2);
        let initial_cap = a.capacity();
        for col in 0..100u32 {
            a.add(col, col as f64);
        }
        assert_eq!(a.len(), 100);
        assert!(a.capacity() > initial_cap);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        a.flush_into(&mut c, &mut v);
        assert_eq!(c.len(), 100);
        assert_eq!(c, (0..100u32).collect::<Vec<_>>());
        assert_eq!(v[7], 7.0);
    }

    #[test]
    fn colliding_keys_probe_linearly() {
        // Keys that collide under the Fibonacci hash with a tiny table.
        let mut a = HashAccumulator::with_expected(4);
        let mask = a.capacity() - 1;
        let base = 3u32;
        let h = hash(base, mask);
        // Find another key with the same initial slot.
        let other = (base + 1..10_000).find(|&k| hash(k, mask) == h).unwrap();
        a.add(base, 1.0);
        a.add(other, 2.0);
        a.add(base, 1.0);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        a.flush_into(&mut c, &mut v);
        assert_eq!(c.len(), 2);
        let i = c.iter().position(|&x| x == base).unwrap();
        assert_eq!(v[i], 2.0);
    }

    #[test]
    fn flush_appends_after_existing() {
        let mut a = HashAccumulator::with_expected(4);
        a.add(1, 1.0);
        let mut c = vec![99u32];
        let mut v = vec![99.0];
        a.flush_into(&mut c, &mut v);
        assert_eq!(c, vec![99, 1]);
        assert_eq!(v, vec![99.0, 1.0]);
    }

    /// The old flush path, preserved verbatim as the equivalence oracle
    /// for the in-place co-sort.
    fn flush_into_reference(a: &mut HashAccumulator, cols: &mut Vec<ColId>, vals: &mut Vec<f64>) {
        let start = cols.len();
        for (i, &k) in a.keys.iter().enumerate() {
            if k != EMPTY {
                cols.push(k);
                vals.push(a.vals[i]);
            }
        }
        let slice = &mut cols[start..];
        let mut perm: Vec<u32> = (0..slice.len() as u32).collect();
        perm.sort_unstable_by_key(|&i| slice[i as usize]);
        let sorted_cols: Vec<ColId> = perm.iter().map(|&i| slice[i as usize]).collect();
        let vslice = &mut vals[start..];
        let sorted_vals: Vec<f64> = perm.iter().map(|&i| vslice[i as usize]).collect();
        cols[start..].copy_from_slice(&sorted_cols);
        vals[start..].copy_from_slice(&sorted_vals);
        a.clear();
    }

    #[test]
    fn in_place_flush_matches_old_path_on_duplicate_heavy_rows() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(71);
        for row in 0..200 {
            let mut a = HashAccumulator::with_expected(4);
            let mut b = HashAccumulator::with_expected(4);
            // Duplicate-heavy: few distinct columns, many hits each, so
            // merged sums and the sort both do real work.
            let distinct = rng.gen_range(1..40u32);
            for _ in 0..rng.gen_range(1..400) {
                let col = rng.gen_range(0..distinct) * 7;
                let val = rng.gen_range(-4.0..4.0);
                a.add(col, val);
                b.add(col, val);
            }
            let (mut c_new, mut v_new) = (vec![123u32], vec![123.0]);
            let (mut c_old, mut v_old) = (vec![123u32], vec![123.0]);
            a.flush_into(&mut c_new, &mut v_new);
            flush_into_reference(&mut b, &mut c_old, &mut v_old);
            assert_eq!(c_new, c_old, "row {row}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&v_new),
                bits(&v_old),
                "row {row}: values must be bit-identical"
            );
        }
    }

    #[test]
    fn reuse_after_flush_is_clean() {
        let mut a = HashAccumulator::with_expected(8);
        a.add(3, 4.0);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        a.flush_into(&mut c, &mut v);
        a.add(3, 1.0);
        c.clear();
        v.clear();
        a.flush_into(&mut c, &mut v);
        assert_eq!(v, vec![1.0]);
    }
}
