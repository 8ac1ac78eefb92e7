#![warn(missing_docs)]

//! Row accumulators for SpGEMM.
//!
//! Gustavson's row-row formulation (paper Algorithm 1) computes one
//! output row as a sum of scaled rows of `B`; the hard part is merging
//! intermediate products that hit the same column. The paper (Section
//! II-B) uses two methods, following spECK and Nagasaka et al.:
//!
//! * [`DenseAccumulator`] — a dense value array indexed directly by
//!   column id, with one occupancy bit per column. Fast for rows whose
//!   output is relatively dense; memory proportional to the (panel)
//!   column width. It emits a row by walking the occupancy bitmap in
//!   column order, so a low-compression row needs no sort.
//! * [`HashAccumulator`] — open-addressing hash map keyed by column id,
//!   sized from an upper-bound estimate, sorted at flush. Better for
//!   sparse output rows.
//!
//! Both also flush straight into a caller's exact output slices
//! (`flush_into_slices`), which is how the CPU kernel writes each row
//! of `C` in place.
//!
//! [`SortAccumulator`] (expand-sort-compress, the ESC method of
//! Bell/Dalton/Olson) is included as the classical baseline, and
//! [`MergeBuffer`] adds BRMerge-style chained merging of sorted rows,
//! which the semiring executor uses ([`merge`] module docs explain the
//! bit-identicality constraint).
//!
//! All accumulators implement [`Accumulator`] and produce identical
//! sorted output; property tests assert the equivalence. The symbolic
//! phase needs only distinct-column *counts*, provided by
//! [`DenseCounter`] and [`HashCounter`].
//!
//! ```
//! use accum::{Accumulator, DenseAccumulator, HashAccumulator};
//!
//! let mut dense = DenseAccumulator::new(100);
//! let mut hash = HashAccumulator::with_expected(4);
//! for (c, v) in [(7u32, 1.0), (3, 2.0), (7, 0.5)] {
//!     dense.add(c, v);
//!     hash.add(c, v);
//! }
//! let (mut dc, mut dv) = (Vec::new(), Vec::new());
//! let (mut hc, mut hv) = (Vec::new(), Vec::new());
//! dense.flush_into(&mut dc, &mut dv);
//! hash.flush_into(&mut hc, &mut hv);
//! assert_eq!(dc, vec![3, 7]);
//! assert_eq!((dc, dv), (hc, hv));
//! ```

pub mod counter;
pub mod dense;
pub mod estimate;
pub mod hash;
pub mod merge;
pub mod scratch;
pub mod sort;

pub use counter::{DenseCounter, HashCounter, SymbolicCounter};
pub use dense::DenseAccumulator;
pub use estimate::{build_model, build_model_from_flops, EstModel, EstimateConfig, EstimatorKind};
pub use hash::HashAccumulator;
pub use merge::MergeBuffer;
pub use scratch::{RowScratch, ScratchPool, DENSE_WIDTH_LIMIT};
pub use sort::{co_sort_pairs, SortAccumulator};

use sparse::ColId;

/// A numeric-phase accumulator for one output row at a time.
///
/// Usage protocol: any number of [`Accumulator::add`] calls, then one
/// [`Accumulator::flush_into`] which drains the row (sorted by column)
/// and resets the accumulator for the next row.
pub trait Accumulator {
    /// Adds `val` at column `col`, merging with any existing value.
    fn add(&mut self, col: ColId, val: f64);

    /// Number of distinct columns currently held.
    fn len(&self) -> usize;

    /// True if no columns are held.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the accumulated `(col, val)` pairs — sorted by column —
    /// to `cols`/`vals`, then clears the accumulator.
    fn flush_into(&mut self, cols: &mut Vec<ColId>, vals: &mut Vec<f64>);

    /// Clears without draining.
    fn clear(&mut self);
}

/// Which accumulator a numeric row is accumulated with. Both produce
/// the same sorted row; `cpu_spgemm::parallel_hash` picks one for a
/// whole product by the width of `B` ([`DENSE_WIDTH_LIMIT`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccumulatorKind {
    /// Dense array accumulation.
    Dense,
    /// Hash-map accumulation.
    Hash,
}
