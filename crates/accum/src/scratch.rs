//! Worker-scoped reusable scratch for the SpGEMM phases.
//!
//! Symbolic counters and numeric accumulators are width-sized or grow
//! with the row; allocating them per chunk would dominate small-chunk
//! compute. This module keeps them in a [`RowScratch`] bundle that a
//! [`ScratchPool`] lends to workers: the first few rows warm a worker's
//! scratch up to its high-water capacity, after which row compute
//! performs **zero heap allocation** (asserted by the counting-allocator
//! test in `cpu-spgemm/tests/alloc_free.rs`). A numeric row is flushed
//! straight into the caller's exact output slices, with no staging
//! copy in between.
//!
//! Reuse is safe for bit-identical results: dense counters are
//! generation-stamped (stale slots read as untouched), the dense
//! accumulator's flush zeroes every occupancy bit it set, and hash
//! flushes sort by distinct column id, so neither a carried capacity
//! nor a previous panel's width can change any output.

use crate::counter::SymbolicCounter;
use crate::{
    Accumulator, AccumulatorKind, DenseAccumulator, DenseCounter, HashAccumulator, HashCounter,
};
use sparse::ColId;
use std::sync::Mutex;

/// Panel width above which symbolic counting and numeric accumulation
/// switch from dense stamp arrays to hashing (dense arrays up to this
/// size still fit comfortably in L2 — the Patwary argument).
pub const DENSE_WIDTH_LIMIT: usize = 1 << 17;

/// One worker's reusable scratch: symbolic counters, numeric
/// accumulators, and per-chunk row arrays.
#[derive(Debug)]
pub struct RowScratch {
    dense_counter: DenseCounter,
    hash_counter: HashCounter,
    dense: DenseAccumulator,
    hash: HashAccumulator,
    /// Reusable per-row `u64` buffer (chunk preparation keeps row flop
    /// counts here).
    pub flops_buf: Vec<u64>,
    /// Reusable per-row `usize` buffer (chunk preparation keeps the
    /// product's row sizes here).
    pub nnz_buf: Vec<usize>,
}

impl Default for RowScratch {
    fn default() -> Self {
        RowScratch {
            dense_counter: DenseCounter::new(0),
            hash_counter: HashCounter::with_expected(64),
            dense: DenseAccumulator::new(0),
            hash: HashAccumulator::with_expected(64),
            flops_buf: Vec::new(),
            nnz_buf: Vec::new(),
        }
    }
}

impl RowScratch {
    /// Creates empty scratch (everything grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts the distinct columns in `cols` — one symbolic row — using
    /// the dense stamp counter for narrow panels and the hash set
    /// otherwise. The counter is reset before returning, so consecutive
    /// rows are independent.
    pub fn count_row(&mut self, cols: impl IntoIterator<Item = ColId>, width: usize) -> usize {
        // `for_each`, not a `for` loop: the callers pass flat-mapped
        // row-product iterators, and only internal iteration lets those
        // run as the nested loops they describe.
        if width <= DENSE_WIDTH_LIMIT {
            self.dense_counter.ensure_width(width);
            let counter = &mut self.dense_counter;
            cols.into_iter().for_each(|c| counter.insert(c));
            let n = self.dense_counter.count();
            self.dense_counter.reset();
            n
        } else {
            let counter = &mut self.hash_counter;
            cols.into_iter().for_each(|c| counter.insert(c));
            let n = self.hash_counter.count();
            self.hash_counter.reset();
            n
        }
    }

    /// Accumulates one numeric row from a stream of `(col, val)`
    /// products and writes the sorted result into the caller's exact
    /// output slices (`out_c.len() == out_v.len() ==` the row's
    /// symbolic size), accumulating with `kind`, which the caller picks
    /// (`cpu_spgemm::parallel_hash` picks by `width` alone).
    ///
    /// Allocation-free at steady state: the accumulators retain their
    /// high-water capacity across rows and chunks.
    pub fn accumulate_row_into(
        &mut self,
        products: impl IntoIterator<Item = (ColId, f64)>,
        kind: AccumulatorKind,
        width: usize,
        out_c: &mut [ColId],
        out_v: &mut [f64],
    ) {
        match kind {
            AccumulatorKind::Dense => {
                self.dense.ensure_width(width);
                let acc = &mut self.dense;
                // Internal iteration: see `count_row`.
                products.into_iter().for_each(|(c, v)| acc.add(c, v));
                acc.flush_into_slices(out_c, out_v);
            }
            AccumulatorKind::Hash => {
                let acc = &mut self.hash;
                products.into_iter().for_each(|(c, v)| acc.add(c, v));
                acc.flush_into_slices(out_c, out_v);
            }
        }
    }

    /// Leases the bundle's dense accumulator grown to `width` — for
    /// callers like `dense_blocked` that drive a whole panel through
    /// dense accumulation directly instead of per-row dispatch.
    pub fn dense_acc(&mut self, width: usize) -> &mut DenseAccumulator {
        self.dense.ensure_width(width);
        &mut self.dense
    }
}

/// A lock-guarded stack of [`RowScratch`] bundles shared by the workers
/// of one computation. Leasing pops (or creates) a bundle; dropping the
/// lease returns it, so the pool's population converges to the number
/// of concurrently active workers and all allocations amortize away.
///
/// The lock is held only for the pop/push itself, never during compute.
#[derive(Debug, Default)]
pub struct ScratchPool {
    stack: Mutex<Vec<RowScratch>>,
}

impl ScratchPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with a leased scratch bundle, returning the bundle to
    /// the pool afterwards (also on panic-free early return).
    pub fn with<R>(&self, f: impl FnOnce(&mut RowScratch) -> R) -> R {
        let mut scratch = self
            .stack
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default();
        let out = f(&mut scratch);
        self.stack
            .lock()
            .expect("scratch pool poisoned")
            .push(scratch);
        out
    }

    /// Number of idle bundles currently in the pool.
    pub fn idle(&self) -> usize {
        self.stack.lock().expect("scratch pool poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_row_matches_fresh_counters_across_widths() {
        let mut s = RowScratch::new();
        // Narrow panel, then a wider one: the grown dense counter must
        // not remember the previous panel's stamps.
        let n1 = s.count_row([1u32, 3, 1, 3, 2], 8);
        assert_eq!(n1, 3);
        let n2 = s.count_row([1u32, 9, 9, 15], 16);
        assert_eq!(n2, 3);
        // Wide panel: hash set path.
        let n3 = s.count_row([0u32, 1 << 20, 0], DENSE_WIDTH_LIMIT + 1);
        assert_eq!(n3, 2);
    }

    #[test]
    fn accumulate_row_into_sorted_exact() {
        let mut s = RowScratch::new();
        let mut c = [0u32; 2];
        let mut v = [0.0f64; 2];
        // Dense path.
        s.accumulate_row_into(
            [(7u32, 1.0), (3, 2.0), (7, 0.5)],
            AccumulatorKind::Dense,
            10,
            &mut c,
            &mut v,
        );
        assert_eq!(c, [3, 7]);
        assert_eq!(v, [2.0, 1.5]);
        // Hash path (wide panel), reusing the bundle.
        let mut c = [0u32; 2];
        let mut v = [0.0f64; 2];
        s.accumulate_row_into(
            [(90u32, 1.0), (5, 2.0), (90, 0.5)],
            AccumulatorKind::Hash,
            1 << 20,
            &mut c,
            &mut v,
        );
        assert_eq!(c, [5, 90]);
        assert_eq!(v, [2.0, 1.5]);
    }

    #[test]
    fn pool_recycles_bundles() {
        let pool = ScratchPool::new();
        assert_eq!(pool.idle(), 0);
        pool.with(|s| s.count_row([1u32, 2], 4));
        assert_eq!(pool.idle(), 1);
        pool.with(|s| {
            assert!(s.dense_counter.width() >= 4, "bundle must be reused");
        });
        assert_eq!(pool.idle(), 1);
    }
}
