//! Panel planning: choose `num_row_panels × num_col_panels` so every
//! chunk — and the double-buffered pipeline's working set — fits in
//! device memory.
//!
//! The paper selects chunk sizes empirically per matrix; this planner
//! automates the choice. The exact path ([`Planner::new`] /
//! [`Planner::plan_exact`]) runs one global symbolic pass over
//! `C = A·B` (the same analysis the in-core symbolic phase performs,
//! hoisted to planning time) and grows the panel grid until the
//! estimated working set — the resident A panel plus one in-flight
//! chunk per pipeline epoch — fits the budget.
//! The estimated path ([`Planner::estimated`]) replaces the symbolic
//! pass with a sampled nnz(C) model from [`accum::estimate`], cutting
//! planning cost from O(flops) to O(nnz(A) + sampled flops); the
//! speculative executor recovers at run time if the model
//! under-provisioned a chunk.

use crate::{OocError, Result};
use accum::estimate::{EstModel, EstimateConfig, EstimatorKind};
use sparse::partition::weighted_ranges_from_prefix;
use sparse::stats;
use sparse::{CsrMatrix, CsrView};
use std::ops::Range;

/// Bytes per stored entry in device CSR (u32 col id + f64 value).
const ENTRY_BYTES: u64 = 12;
/// Bytes per row offset.
const OFFSET_BYTES: u64 = 8;
/// Safety slack on the exact chunk byte count (covers pool alignment
/// and per-structure rounding).
const OUT_SLACK: f64 = 1.05;
/// Fraction of device memory the working set may occupy.
const BUDGET_FRACTION: f64 = 0.95;
/// Give up beyond this many chunks.
const MAX_CHUNKS: usize = 4096;
/// Cap (in entries) on the cached 2D chunk-nnz prefix table the
/// incremental search keeps per column-boundary set. Beyond this the
/// search re-bins from the symbolic structure per candidate instead —
/// still `O(nnz(C))`, just without the `O(1)`-per-chunk lookups.
const BIN_PREFIX_LIMIT: usize = 1 << 23;

/// A chosen partitioning of `A`'s rows and `B`'s columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PanelPlan {
    /// Row ranges of `A`'s panels.
    pub row_ranges: Vec<Range<usize>>,
    /// Column ranges of `B`'s panels.
    pub col_ranges: Vec<Range<usize>>,
}

impl PanelPlan {
    /// Number of row panels.
    pub fn row_panels(&self) -> usize {
        self.row_ranges.len()
    }

    /// Number of column panels.
    pub fn col_panels(&self) -> usize {
        self.col_ranges.len()
    }

    /// Total chunks in the grid.
    pub fn num_chunks(&self) -> usize {
        self.row_panels() * self.col_panels()
    }
}

/// Splits `range` into `parts` flop-balanced sub-ranges using a global
/// per-row flop prefix sum (as cached by [`Planner::row_flops_prefix`]).
/// This is how recovery re-splits one OOM'd chunk without re-planning
/// the whole grid: the weighted sweep runs on the prefix slice of the
/// offending rows only.
pub fn split_range_by_flops(
    prefix: &[u64],
    range: &Range<usize>,
    parts: usize,
) -> Vec<Range<usize>> {
    debug_assert!(range.end < prefix.len(), "prefix must cover the range");
    weighted_ranges_from_prefix(&prefix[range.start..=range.end], parts)
        .into_iter()
        .map(|r| r.start + range.start..r.end + range.start)
        .collect()
}

/// Where the planner's per-chunk output-nnz numbers come from: the
/// exact symbolic structure of C, or a sampled estimation model.
enum NnzSource {
    /// Symbolic structure of C: row offsets and sorted column ids.
    Exact {
        c_offsets: Vec<usize>,
        c_cols: Vec<sparse::ColId>,
    },
    /// Sampled estimation model plus the exclusive prefix sum of the
    /// model's per-row nnz estimates (`n_rows + 1` entries). Chunk
    /// nnz follows by scaling a row-prefix difference with the column
    /// panel's share of `B`'s nonzeros.
    Estimated {
        model: EstModel,
        row_est_prefix: Vec<u64>,
    },
}

/// Plans panel grids.
pub struct Planner<'a> {
    /// Pipeline epochs the working set must hold
    /// ([`Planner::pipeline_depth`]).
    depth: u64,
    a: &'a CsrMatrix,
    b: &'a CsrMatrix,
    /// Exclusive prefix sum of per-row flops (`n_rows + 1` entries):
    /// the row-partitioning weights, queryable per panel in O(1).
    row_flops_prefix: Vec<u64>,
    /// Exact symbolic structure or the estimation model.
    nnz: NnzSource,
    /// Exclusive prefix sum of per-column nnz of `B` (`n_cols + 1`
    /// entries): the column-partitioning weights.
    col_nnz_prefix: Vec<u64>,
    total_flops: u64,
    total_nnz_c: u64,
}

impl<'a> Planner<'a> {
    fn check_dims(a: &CsrMatrix, b: &CsrMatrix) -> Result<()> {
        if a.n_cols() != b.n_rows() {
            return Err(OocError::Sparse(sparse::SparseError::DimensionMismatch {
                op: "out-of-core spgemm",
                lhs: (a.n_rows(), a.n_cols()),
                rhs: (b.n_rows(), b.n_cols()),
            }));
        }
        Ok(())
    }

    fn prefix_sums(a: &CsrMatrix, b: &CsrMatrix, row_flops: &[u64]) -> (Vec<u64>, Vec<u64>) {
        let mut col_nnz = vec![0u64; b.n_cols()];
        for &c in b.col_ids() {
            col_nnz[c as usize] += 1;
        }
        let mut row_flops_prefix = Vec::with_capacity(a.n_rows() + 1);
        row_flops_prefix.push(0);
        for &f in row_flops {
            row_flops_prefix.push(row_flops_prefix.last().unwrap() + f);
        }
        let mut col_nnz_prefix = Vec::with_capacity(b.n_cols() + 1);
        col_nnz_prefix.push(0);
        for &n in &col_nnz {
            col_nnz_prefix.push(col_nnz_prefix.last().unwrap() + n);
        }
        (row_flops_prefix, col_nnz_prefix)
    }

    /// Creates a planner for `C = a · b`, running the global row
    /// analysis and symbolic pass.
    pub fn new(a: &'a CsrMatrix, b: &'a CsrMatrix) -> Result<Self> {
        Self::check_dims(a, b)?;
        let row_flops = stats::row_flops(a, b);
        let (c_offsets, c_cols) = stats::symbolic_structure(a, b);
        let (row_flops_prefix, col_nnz_prefix) = Self::prefix_sums(a, b, &row_flops);
        let total_flops = *row_flops_prefix.last().unwrap();
        let total_nnz_c = c_cols.len() as u64;
        Ok(Planner {
            depth: 2,
            a,
            b,
            row_flops_prefix,
            nnz: NnzSource::Exact { c_offsets, c_cols },
            col_nnz_prefix,
            total_flops,
            total_nnz_c,
        })
    }

    /// The exact-symbolic oracle. Alias of [`Planner::new`], named for
    /// contrast with [`Planner::estimated`]: this is the path every
    /// estimate-driven plan is validated against.
    pub fn plan_exact(a: &'a CsrMatrix, b: &'a CsrMatrix) -> Result<Self> {
        Self::new(a, b)
    }

    /// Creates a planner for `C = a · b` from a sampled estimation
    /// model, skipping the global symbolic pass entirely.
    ///
    /// Only the O(nnz(A)) row analysis runs for real; per-row output
    /// sizes come from [`accum::estimate::build_model_from_flops`] on
    /// those flops, which probes a `cfg.sample_rate` fraction of the
    /// rows. This global model sizes the grid only: the executor sizes
    /// each speculative chunk's allocation from a model sampled on the
    /// chunk's own panels. Planning cost drops from O(flops) to
    /// O(nnz(A) + sampled flops). Plans sized this way may
    /// under-provision chunks; the speculative executor
    /// recovers from that at run time (grow-and-retry, re-split,
    /// demote), so the product stays bit-identical to the
    /// [`Planner::plan_exact`] path.
    ///
    /// `cfg.kind == Exact` is rejected — callers wanting the exact
    /// path should construct it explicitly.
    pub fn estimated(a: &'a CsrMatrix, b: &'a CsrMatrix, cfg: &EstimateConfig) -> Result<Self> {
        if cfg.kind == EstimatorKind::Exact {
            return Err(OocError::Planning(
                "Planner::estimated requires a non-exact estimator kind".into(),
            ));
        }
        Self::check_dims(a, b)?;
        let row_flops = stats::row_flops(a, b);
        let model = accum::estimate::build_model_from_flops(
            &CsrView::of(a),
            b,
            &row_flops,
            cfg,
            &accum::ScratchPool::new(),
        );
        let est_rows = model.estimate_rows(&row_flops, b.n_cols());
        let mut row_est_prefix = Vec::with_capacity(a.n_rows() + 1);
        row_est_prefix.push(0u64);
        for &e in &est_rows {
            row_est_prefix.push(row_est_prefix.last().unwrap() + e as u64);
        }
        let (row_flops_prefix, col_nnz_prefix) = Self::prefix_sums(a, b, &row_flops);
        let total_flops = *row_flops_prefix.last().unwrap();
        let total_nnz_c = *row_est_prefix.last().unwrap();
        Ok(Planner {
            depth: 2,
            a,
            b,
            row_flops_prefix,
            nnz: NnzSource::Estimated {
                model,
                row_est_prefix,
            },
            col_nnz_prefix,
            total_flops,
            total_nnz_c,
        })
    }

    /// Sizes working sets for a pipeline of `depth` buffer epochs: the
    /// resident A panel plus `depth` in-flight chunks. The default is
    /// 2, the paper's double buffering.
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.depth = depth as u64;
        self
    }

    /// The estimation model backing this planner, when it was built by
    /// [`Planner::estimated`]; `None` on the exact path.
    pub fn est_model(&self) -> Option<&EstModel> {
        match &self.nnz {
            NnzSource::Estimated { model, .. } => Some(model),
            NnzSource::Exact { .. } => None,
        }
    }

    /// Total flops of the product (cached at construction).
    pub fn total_flops(&self) -> u64 {
        self.total_flops
    }

    /// Total output nonzeros (cached at construction). Exact on the
    /// [`Planner::new`] path; the model's estimate on the
    /// [`Planner::estimated`] path.
    pub fn total_nnz_c(&self) -> u64 {
        self.total_nnz_c
    }

    /// The cached per-row flop prefix sums (`n_rows + 1` entries).
    /// Recovery re-splitting slices this to split a single chunk's row
    /// range without re-planning the grid.
    pub fn row_flops_prefix(&self) -> &[u64] {
        &self.row_flops_prefix
    }

    /// Output nonzeros of the chunk `row_range x col_range`: exact
    /// (from the symbolic structure of C) on the [`Planner::new`]
    /// path, model-derived on the [`Planner::estimated`] path.
    pub fn chunk_nnz(&self, row_range: &Range<usize>, col_range: &Range<usize>) -> u64 {
        match &self.nnz {
            NnzSource::Exact { c_offsets, c_cols } => {
                let (start, end) = (
                    col_range.start as sparse::ColId,
                    col_range.end as sparse::ColId,
                );
                row_range
                    .clone()
                    .map(|r| {
                        let row = &c_cols[c_offsets[r]..c_offsets[r + 1]];
                        (row.partition_point(|&c| c < end) - row.partition_point(|&c| c < start))
                            as u64
                    })
                    .sum()
            }
            NnzSource::Estimated { row_est_prefix, .. } => {
                self.scaled_est(row_est_prefix, row_range.end, col_range)
                    - self.scaled_est(row_est_prefix, row_range.start, col_range)
            }
        }
    }

    /// Estimated C nonzeros in rows `0..row` falling in `col_range`:
    /// the row-estimate prefix scaled by the column range's share of
    /// `B`'s nonzeros. Floored per prefix point so the value telescopes
    /// — chunk estimates are additive across any row split, which keeps
    /// `chunk_grid`, `bin_prefix`, and `chunk_nnz` mutually consistent.
    fn scaled_est(&self, row_est_prefix: &[u64], row: usize, col_range: &Range<usize>) -> u64 {
        let total_b = *self.col_nnz_prefix.last().unwrap();
        if total_b == 0 {
            return 0;
        }
        let share = self.col_nnz_prefix[col_range.end] - self.col_nnz_prefix[col_range.start];
        (row_est_prefix[row] as u128 * share as u128 / total_b as u128) as u64
    }

    /// Row ranges for `k_r` panels, balanced by flops.
    fn row_ranges_for(&self, k_r: usize) -> Vec<Range<usize>> {
        if self.a.n_rows() == 0 {
            vec![0..0; 1]
        } else {
            weighted_ranges_from_prefix(&self.row_flops_prefix, k_r)
        }
    }

    /// Column ranges for `k_c` panels, balanced by `B` nnz.
    fn col_ranges_for(&self, k_c: usize) -> Vec<Range<usize>> {
        if self.b.n_cols() == 0 {
            vec![0..0; 1]
        } else {
            weighted_ranges_from_prefix(&self.col_nnz_prefix, k_c)
        }
    }

    /// A fixed `k_r × k_c` grid: rows balanced by flops, columns
    /// balanced by `B` nnz.
    pub fn fixed(&self, k_r: usize, k_c: usize) -> Result<PanelPlan> {
        if k_r == 0 || k_c == 0 {
            return Err(OocError::Planning("panel counts must be positive".into()));
        }
        Ok(PanelPlan {
            row_ranges: self.row_ranges_for(k_r),
            col_ranges: self.col_ranges_for(k_c),
        })
    }

    /// Device bytes of one `A` row panel.
    fn a_panel_bytes(&self, r: &Range<usize>) -> u64 {
        let nnz = (self.a.row_offsets()[r.end] - self.a.row_offsets()[r.start]) as u64;
        nnz * ENTRY_BYTES + (r.len() as u64 + 1) * OFFSET_BYTES
    }

    /// Device bytes of one `B` column panel (full-height row offsets).
    fn b_panel_bytes(&self, c: &Range<usize>) -> u64 {
        let nnz = self.col_nnz_prefix[c.end] - self.col_nnz_prefix[c.start];
        nnz * ENTRY_BYTES + (self.b.n_rows() as u64 + 1) * OFFSET_BYTES
    }

    /// Working set given the precomputed chunk-nnz `grid` (row-major
    /// `k_r × k_c`). `O(k_r × k_c)`.
    fn working_set_from_grid(
        &self,
        row_ranges: &[Range<usize>],
        col_ranges: &[Range<usize>],
        grid: &[u64],
    ) -> u64 {
        let k_c = col_ranges.len();
        let b_bytes: Vec<u64> = col_ranges.iter().map(|c| self.b_panel_bytes(c)).collect();
        // The pipeline keeps the A panel in a dedicated resident slot
        // and rotates everything else (B panel, per-row scratch,
        // output) across `depth` epochs.
        let mut max_a = 0u64;
        let mut max_rest = 0u64;
        for (i, r) in row_ranges.iter().enumerate() {
            max_a = max_a.max(self.a_panel_bytes(r));
            let scratch = 2 * (r.len() as u64 + 1) * OFFSET_BYTES;
            let out_offsets = (r.len() as u64 + 1) * OFFSET_BYTES;
            for (j, &bb) in b_bytes.iter().enumerate() {
                let out = grid[i * k_c + j] * ENTRY_BYTES + out_offsets;
                max_rest = max_rest.max(bb + scratch + out);
            }
        }
        ((max_a + self.depth * max_rest) as f64 * OUT_SLACK) as u64
    }

    /// Chunk-nnz grid for a panel layout. Exact path: bins the
    /// symbolic columns of C once (`O(nnz(C) + chunks)`). Estimated
    /// path: O(1) per chunk from the scaled row-estimate prefix.
    fn chunk_grid(&self, row_ranges: &[Range<usize>], col_ranges: &[Range<usize>]) -> Vec<u64> {
        match &self.nnz {
            NnzSource::Exact { c_offsets, c_cols } => {
                let col_bounds: Vec<usize> = col_ranges.iter().map(|c| c.end).collect();
                stats::chunk_nnz_grid(c_offsets, c_cols, row_ranges, &col_bounds)
            }
            NnzSource::Estimated { .. } => row_ranges
                .iter()
                .flat_map(|r| col_ranges.iter().map(|c| self.chunk_nnz(r, c)))
                .collect(),
        }
    }

    /// Estimated device bytes of the pipeline working set for a plan:
    /// the resident A panel plus one in-flight chunk per pipeline
    /// epoch, each with its B panel, per-row scratch and output buffer.
    ///
    /// The plan's column ranges must be contiguous from column 0 (every
    /// plan this planner produces is). `O(nnz(C) + chunks)`.
    pub fn working_set_bytes(&self, plan: &PanelPlan) -> u64 {
        debug_assert!(plan.col_ranges.first().is_none_or(|c| c.start == 0));
        debug_assert!(plan.col_ranges.windows(2).all(|w| w[0].end == w[1].start));
        let grid = self.chunk_grid(&plan.row_ranges, &plan.col_ranges);
        self.working_set_from_grid(&plan.row_ranges, &plan.col_ranges, &grid)
    }

    /// Reference implementation of [`working_set_bytes`]: per-chunk
    /// binary searches over every row's symbolic columns,
    /// `O(rows × chunks × log)`. Kept for equivalence tests and as the
    /// baseline the planner benchmarks compare against; handles
    /// arbitrary (even non-contiguous) column ranges.
    pub fn working_set_bytes_reference(&self, plan: &PanelPlan) -> u64 {
        let mut max_a = 0u64;
        let mut max_rest = 0u64;
        let b_bytes: Vec<u64> = plan
            .col_ranges
            .iter()
            .map(|c| self.b_panel_bytes(c))
            .collect();
        for r in plan.row_ranges.iter() {
            max_a = max_a.max(self.a_panel_bytes(r));
            let scratch = 2 * (r.len() as u64 + 1) * OFFSET_BYTES;
            for (c, &bb) in plan.col_ranges.iter().zip(&b_bytes) {
                let out = self.chunk_nnz(r, c) * ENTRY_BYTES + (r.len() as u64 + 1) * OFFSET_BYTES;
                max_rest = max_rest.max(bb + scratch + out);
            }
        }
        ((max_a + self.depth * max_rest) as f64 * OUT_SLACK) as u64
    }

    /// 2D chunk-nnz prefix table for a fixed column layout:
    /// `prefix[(r + 1) * k_c + j]` is the number of C nonzeros in rows
    /// `0..=r` falling in column panel `j`. With it, the grid of any
    /// row partition follows by `O(1)` subtractions per chunk. Returns
    /// `None` when the table would exceed [`BIN_PREFIX_LIMIT`].
    fn bin_prefix(&self, col_ranges: &[Range<usize>]) -> Option<Vec<u64>> {
        let n_rows = self.a.n_rows();
        let k_c = col_ranges.len();
        if (n_rows + 1).checked_mul(k_c)? > BIN_PREFIX_LIMIT {
            return None;
        }
        match &self.nnz {
            NnzSource::Exact { c_offsets, c_cols } => {
                let unit_rows: Vec<Range<usize>> = (0..n_rows).map(|r| r..r + 1).collect();
                let col_bounds: Vec<usize> = col_ranges.iter().map(|c| c.end).collect();
                let mut table = stats::chunk_nnz_grid(c_offsets, c_cols, &unit_rows, &col_bounds);
                // In-place inclusive prefix over rows, shifted one row
                // down so row 0 of the table is all zeros.
                table.splice(0..0, std::iter::repeat_n(0, k_c));
                for i in k_c..table.len() {
                    table[i] += table[i - k_c];
                }
                Some(table)
            }
            NnzSource::Estimated { row_est_prefix, .. } => {
                // Same scaled-prefix values `chunk_nnz` differences,
                // so grids computed either way agree entry for entry.
                let mut table = Vec::with_capacity((n_rows + 1) * k_c);
                for i in 0..=n_rows {
                    for c in col_ranges {
                        table.push(self.scaled_est(row_est_prefix, i, c));
                    }
                }
                Some(table)
            }
        }
    }

    /// Grid of a row partition from a 2D prefix table.
    fn grid_from_prefix(prefix: &[u64], k_c: usize, row_ranges: &[Range<usize>]) -> Vec<u64> {
        let mut grid = Vec::with_capacity(row_ranges.len() * k_c);
        for r in row_ranges {
            for j in 0..k_c {
                grid.push(prefix[r.end * k_c + j] - prefix[r.start * k_c + j]);
            }
        }
        grid
    }

    /// Chooses the smallest panel grid whose working set fits the
    /// device budget.
    ///
    /// Incremental search: per step only the split dimension's panels
    /// are recomputed — the row candidate reuses the current column
    /// binning through the 2D chunk-nnz prefix table. Returns the same
    /// plan as [`Planner::auto_reference`].
    pub fn auto(&self, device_bytes: u64) -> Result<PanelPlan> {
        let budget = (device_bytes as f64 * BUDGET_FRACTION) as u64;
        let n_rows = self.a.n_rows();
        let n_cols = self.b.n_cols();
        let (mut k_r, mut k_c) = (1usize, 1usize);
        let mut row_ranges = self.row_ranges_for(1);
        let mut col_ranges = self.col_ranges_for(1);
        let mut col_prefix = self.bin_prefix(&col_ranges);
        let mut grid = match &col_prefix {
            Some(p) => Self::grid_from_prefix(p, col_ranges.len(), &row_ranges),
            None => self.chunk_grid(&row_ranges, &col_ranges),
        };
        loop {
            if self.working_set_from_grid(&row_ranges, &col_ranges, &grid) <= budget {
                return Ok(PanelPlan {
                    row_ranges,
                    col_ranges,
                });
            }
            if k_r * k_c >= MAX_CHUNKS || (k_r >= n_rows.max(1) && k_c >= n_cols.max(1)) {
                return Err(OocError::Planning(format!(
                    "no grid up to {k_r}x{k_c} panels fits {device_bytes} bytes of device \
                     memory"
                )));
            }
            // Split whichever dimension relieves more of the working
            // set: rows shrink the A panel and the output chunk;
            // columns shrink the B panel and the output chunk.
            let rr = self.row_ranges_for((k_r + 1).min(n_rows.max(1)));
            let g_r = match &col_prefix {
                Some(p) => Self::grid_from_prefix(p, col_ranges.len(), &rr),
                None => self.chunk_grid(&rr, &col_ranges),
            };
            let ws_r = self.working_set_from_grid(&rr, &col_ranges, &g_r);
            let cc = self.col_ranges_for((k_c + 1).min(n_cols.max(1)));
            let p_c = self.bin_prefix(&cc);
            let g_c = match &p_c {
                Some(p) => Self::grid_from_prefix(p, cc.len(), &row_ranges),
                None => self.chunk_grid(&row_ranges, &cc),
            };
            let ws_c = self.working_set_from_grid(&row_ranges, &cc, &g_c);
            if ws_r <= ws_c && k_r < n_rows.max(1) {
                row_ranges = rr;
                grid = g_r;
                k_r += 1;
            } else {
                col_ranges = cc;
                col_prefix = p_c;
                grid = g_c;
                k_c += 1;
            }
        }
    }

    /// Reference implementation of [`Planner::auto`]: recomputes both
    /// dimensions' panel statistics from scratch at every step through
    /// [`Planner::working_set_bytes_reference`]. Kept for equivalence
    /// tests and as the planner benchmark baseline.
    pub fn auto_reference(&self, device_bytes: u64) -> Result<PanelPlan> {
        let budget = (device_bytes as f64 * BUDGET_FRACTION) as u64;
        let (mut k_r, mut k_c) = (1usize, 1usize);
        loop {
            let plan = self.fixed(k_r, k_c)?;
            if self.working_set_bytes_reference(&plan) <= budget {
                return Ok(plan);
            }
            if k_r * k_c >= MAX_CHUNKS
                || (k_r >= self.a.n_rows().max(1) && k_c >= self.b.n_cols().max(1))
            {
                return Err(OocError::Planning(format!(
                    "no grid up to {k_r}x{k_c} panels fits {device_bytes} bytes of device \
                     memory"
                )));
            }
            let try_r = self.fixed((k_r + 1).min(self.a.n_rows().max(1)), k_c)?;
            let try_c = self.fixed(k_r, (k_c + 1).min(self.b.n_cols().max(1)))?;
            let ws_r = self.working_set_bytes_reference(&try_r);
            let ws_c = self.working_set_bytes_reference(&try_c);
            if ws_r <= ws_c && k_r < self.a.n_rows().max(1) {
                k_r += 1;
            } else {
                k_c += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen::{erdos_renyi, grid2d_stencil};

    #[test]
    fn fixed_plan_covers_matrix() {
        let a = erdos_renyi(200, 200, 0.05, 1);
        let p = Planner::new(&a, &a).unwrap();
        let plan = p.fixed(3, 4).unwrap();
        assert_eq!(plan.row_panels(), 3);
        assert_eq!(plan.col_panels(), 4);
        assert_eq!(plan.num_chunks(), 12);
        assert_eq!(plan.row_ranges[0].start, 0);
        assert_eq!(plan.row_ranges.last().unwrap().end, 200);
        assert_eq!(plan.col_ranges.last().unwrap().end, 200);
    }

    #[test]
    fn auto_plan_fits_budget() {
        let a = grid2d_stencil(40, 40, 2, 2);
        let p = Planner::new(&a, &a).unwrap();
        let budget = 400_000u64;
        let plan = p.auto(budget).unwrap();
        assert!(
            plan.num_chunks() > 1,
            "small budget must force partitioning"
        );
        assert!(p.working_set_bytes(&plan) <= budget);
    }

    #[test]
    fn bigger_budget_fewer_chunks() {
        let a = erdos_renyi(300, 300, 0.05, 3);
        let p = Planner::new(&a, &a).unwrap();
        let small = p.auto(200_000).unwrap();
        let large = p.auto(4_000_000).unwrap();
        assert!(large.num_chunks() <= small.num_chunks());
    }

    #[test]
    fn impossible_budget_errors() {
        let a = erdos_renyi(100, 100, 0.1, 4);
        let p = Planner::new(&a, &a).unwrap();
        assert!(matches!(p.auto(64), Err(OocError::Planning(_))));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = CsrMatrix::zeros(4, 5);
        let b = CsrMatrix::zeros(6, 4);
        assert!(Planner::new(&a, &b).is_err());
    }

    #[test]
    fn totals_match_stats() {
        let a = erdos_renyi(150, 150, 0.06, 5);
        let p = Planner::new(&a, &a).unwrap();
        assert_eq!(p.total_flops(), sparse::stats::total_flops(&a, &a));
        assert_eq!(p.total_nnz_c(), sparse::stats::symbolic_nnz(&a, &a));
    }

    #[test]
    fn estimated_planner_plans_without_symbolic_pass() {
        let a = erdos_renyi(300, 300, 0.04, 11);
        let cfg = EstimateConfig::default();
        let p = Planner::estimated(&a, &a, &cfg).unwrap();
        assert!(p.est_model().is_some());
        let plan = p.auto(300_000).unwrap();
        assert!(plan.num_chunks() > 1);
        assert!(p.working_set_bytes(&plan) <= 300_000);
        assert_eq!(plan.row_ranges.last().unwrap().end, 300);
        assert_eq!(plan.col_ranges.last().unwrap().end, 300);
    }

    #[test]
    fn estimated_total_tracks_exact_total() {
        let a = erdos_renyi(400, 400, 0.03, 12);
        let exact = Planner::plan_exact(&a, &a).unwrap();
        let est = Planner::estimated(&a, &a, &EstimateConfig::default()).unwrap();
        assert!(est.est_model().is_some());
        assert!(exact.est_model().is_none());
        // Default headroom is 1.5x, so the estimate should land within
        // a broad band around the truth rather than degenerate to the
        // worst-case bound.
        let truth = exact.total_nnz_c() as f64;
        let guess = est.total_nnz_c() as f64;
        assert!(guess >= truth * 0.5, "guess {guess} truth {truth}");
        assert!(guess <= truth * 6.0, "guess {guess} truth {truth}");
    }

    #[test]
    fn estimated_chunk_grid_is_self_consistent() {
        // bin_prefix, chunk_grid, and chunk_nnz must agree on the
        // estimated path, otherwise auto() and working_set_bytes()
        // would disagree about whether a plan fits.
        let a = erdos_renyi(200, 200, 0.05, 13);
        let p = Planner::estimated(&a, &a, &EstimateConfig::default()).unwrap();
        let plan = p.fixed(3, 4).unwrap();
        let grid = p.chunk_grid(&plan.row_ranges, &plan.col_ranges);
        let prefix = p.bin_prefix(&plan.col_ranges).unwrap();
        let from_prefix = Planner::grid_from_prefix(&prefix, 4, &plan.row_ranges);
        assert_eq!(grid, from_prefix);
        for (i, r) in plan.row_ranges.iter().enumerate() {
            for (j, c) in plan.col_ranges.iter().enumerate() {
                assert_eq!(grid[i * 4 + j], p.chunk_nnz(r, c));
            }
        }
    }

    #[test]
    fn estimated_rejects_exact_kind() {
        let a = erdos_renyi(50, 50, 0.05, 14);
        assert!(matches!(
            Planner::estimated(&a, &a, &EstimateConfig::exact()),
            Err(OocError::Planning(_))
        ));
    }

    #[test]
    fn working_set_shrinks_with_more_panels() {
        let a = erdos_renyi(300, 300, 0.05, 6);
        let p = Planner::new(&a, &a).unwrap();
        let w1 = p.working_set_bytes(&p.fixed(1, 1).unwrap());
        let w4 = p.working_set_bytes(&p.fixed(4, 4).unwrap());
        assert!(w4 < w1);
    }
}
