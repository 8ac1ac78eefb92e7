//! Column panels of `B` (paper Section III-D).
//!
//! CSR cannot address a column range directly, so building column panels
//! is a gather problem. The paper describes:
//!
//! 1. a **naive** algorithm — for every panel, rescan every row from
//!    `row_offset[r]` and pick out the entries whose column falls in
//!    `[start_col, end_col)`; cost grows with `panels × nnz`;
//! 2. an optimized algorithm keeping a **`col_offset` cursor** per row:
//!    because columns are sorted within a row, processing panels in
//!    order lets each row resume scanning where the previous panel
//!    stopped — total cost `O(nnz + rows × panels)`;
//! 3. a **prefix-sum parallel** variant ("we also parallelize the
//!    partitioning in a prefix sum fashion"): per panel, rows are
//!    binary-searched in parallel for the panel boundaries, a prefix
//!    sum turns per-row counts into write offsets, and rows are filled
//!    into disjoint output slices in parallel;
//! 4. a **parallel cursor** variant combining 2 and 3 — rows are swept
//!    in parallel, each with its own forward cursor across all panels
//!    (every entry compared once, no binary searches), then panels are
//!    materialized with the same prefix-sum + disjoint-slice fill.
//!
//! All variants produce identical [`ColPanel`]s; tests assert it and
//! the bench crate ablates their cost.

use crate::csr::{ColId, CsrMatrix};
use crate::partition::even_ranges;
use rayon::prelude::*;
use std::ops::Range;

/// One column panel of `B`: all rows, columns `col_range`, with column
/// ids re-based to the panel (`local = global - col_range.start`).
#[derive(Clone, Debug, PartialEq)]
pub struct ColPanel {
    /// Global column range this panel covers.
    pub col_range: Range<usize>,
    /// Panel contents; `n_cols == col_range.len()`.
    pub matrix: CsrMatrix,
}

impl ColPanel {
    /// Panel width in columns.
    pub fn width(&self) -> usize {
        self.col_range.len()
    }
}

/// Strategy for building column panels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColPartitioner {
    /// Full rescan of every row for every panel (paper's baseline).
    Naive,
    /// Sequential single pass with per-row `col_offset` cursors.
    Cursor,
    /// Parallel two-stage (binary search + prefix sum + parallel fill).
    ParallelPrefixSum,
    /// Parallel per-row cursor sweep (every entry compared once, like
    /// `Cursor`) feeding the same prefix-sum + parallel fill.
    ParallelCursor,
    /// Convert to CSC once (`O(nnz)`), then slice each panel out of
    /// the column-major layout — the format-conversion alternative to
    /// the paper's in-place algorithms.
    ViaCsc,
}

impl ColPartitioner {
    /// Partitions `b` into the given column ranges.
    ///
    /// `ranges` must be contiguous, start at column 0, and end at
    /// `b.n_cols()`.
    pub fn partition(&self, b: &CsrMatrix, ranges: &[Range<usize>]) -> Vec<ColPanel> {
        validate_ranges(b, ranges);
        match self {
            ColPartitioner::Naive => naive(b, ranges),
            ColPartitioner::Cursor => cursor(b, ranges),
            ColPartitioner::ParallelPrefixSum => parallel_prefix_sum(b, ranges),
            ColPartitioner::ParallelCursor => parallel_cursor(b, ranges),
            ColPartitioner::ViaCsc => via_csc(b, ranges),
        }
    }
}

fn validate_ranges(b: &CsrMatrix, ranges: &[Range<usize>]) {
    if b.n_cols() == 0 && ranges.is_empty() {
        return;
    }
    assert!(!ranges.is_empty(), "at least one column range required");
    assert_eq!(ranges[0].start, 0, "column ranges must start at 0");
    assert_eq!(
        ranges.last().unwrap().end,
        b.n_cols(),
        "column ranges must cover all columns"
    );
    for w in ranges.windows(2) {
        assert_eq!(w[0].end, w[1].start, "column ranges must be contiguous");
    }
}

/// Equal-width column ranges for `k` panels.
pub fn even_col_ranges(b: &CsrMatrix, k: usize) -> Vec<Range<usize>> {
    even_ranges(b.n_cols(), k)
}

/// Paper's "simplistic implementation": per panel, rescan all rows.
fn naive(b: &CsrMatrix, ranges: &[Range<usize>]) -> Vec<ColPanel> {
    ranges
        .iter()
        .map(|range| {
            let (start, end) = (range.start as ColId, range.end as ColId);
            let mut offsets = Vec::with_capacity(b.n_rows() + 1);
            let mut cols: Vec<ColId> = Vec::new();
            let mut vals: Vec<f64> = Vec::new();
            offsets.push(0);
            for r in 0..b.n_rows() {
                for (c, v) in b.row_iter(r) {
                    if c >= start && c < end {
                        cols.push(c - start);
                        vals.push(v);
                    }
                }
                offsets.push(cols.len());
            }
            ColPanel {
                col_range: range.clone(),
                matrix: CsrMatrix::from_parts_unchecked(
                    b.n_rows(),
                    range.len(),
                    offsets,
                    cols,
                    vals,
                ),
            }
        })
        .collect()
}

/// Paper's optimized algorithm: per-row `col_offset` cursors advanced
/// across panels, so every entry of `B` is touched once per stage.
fn cursor(b: &CsrMatrix, ranges: &[Range<usize>]) -> Vec<ColPanel> {
    let n_rows = b.n_rows();
    let row_offsets = b.row_offsets();
    let col_ids = b.col_ids();
    let values = b.values();

    // Stage 1: count entries per (panel, row) with one cursor sweep.
    let mut col_offset: Vec<usize> = row_offsets[..n_rows].to_vec();
    let mut panel_row_counts: Vec<Vec<usize>> = Vec::with_capacity(ranges.len());
    for range in ranges {
        let end = range.end as ColId;
        let mut counts = Vec::with_capacity(n_rows);
        for r in 0..n_rows {
            let row_end = row_offsets[r + 1];
            let from = col_offset[r];
            let mut i = from;
            while i < row_end && col_ids[i] < end {
                i += 1;
            }
            counts.push(i - from);
            col_offset[r] = i;
        }
        panel_row_counts.push(counts);
    }

    // Stage 2: allocate each panel exactly and fill with a second sweep.
    let mut col_offset: Vec<usize> = row_offsets[..n_rows].to_vec();
    ranges
        .iter()
        .zip(panel_row_counts)
        .map(|(range, counts)| {
            let start = range.start as ColId;
            let nnz: usize = counts.iter().sum();
            let mut offsets = Vec::with_capacity(n_rows + 1);
            offsets.push(0);
            let mut cols = Vec::with_capacity(nnz);
            let mut vals = Vec::with_capacity(nnz);
            for (r, &count) in counts.iter().enumerate() {
                let from = col_offset[r];
                for i in from..from + count {
                    cols.push(col_ids[i] - start);
                    vals.push(values[i]);
                }
                col_offset[r] = from + count;
                offsets.push(cols.len());
            }
            ColPanel {
                col_range: range.clone(),
                matrix: CsrMatrix::from_parts_unchecked(n_rows, range.len(), offsets, cols, vals),
            }
        })
        .collect()
}

/// Parallel two-stage partitioner.
///
/// Per panel: (1) rows are binary-searched in parallel for the positions
/// of `start_col` and `end_col`, giving per-row counts; (2) an exclusive
/// prefix sum converts counts to write offsets; (3) the output arrays
/// are split into disjoint per-row slices and filled in parallel.
fn parallel_prefix_sum(b: &CsrMatrix, ranges: &[Range<usize>]) -> Vec<ColPanel> {
    let n_rows = b.n_rows();
    let row_offsets = b.row_offsets();
    let col_ids = b.col_ids();

    ranges
        .iter()
        .map(|range| {
            let (start, end) = (range.start as ColId, range.end as ColId);
            // Stage 1: per-row boundary positions via binary search.
            let bounds: Vec<(usize, usize)> = (0..n_rows)
                .into_par_iter()
                .map(|r| {
                    let row = &col_ids[row_offsets[r]..row_offsets[r + 1]];
                    let lo = row.partition_point(|&c| c < start);
                    let hi = row.partition_point(|&c| c < end);
                    (row_offsets[r] + lo, row_offsets[r] + hi)
                })
                .collect();
            fill_panel(b, range, &bounds)
        })
        .collect()
}

/// Parallel cursor partitioner: one forward cursor per row, advanced
/// across all panels in a single sweep (rows in parallel), so every
/// entry of `B` is compared exactly once — the work profile of
/// [`ColPartitioner::Cursor`] with the parallelism of
/// [`ColPartitioner::ParallelPrefixSum`]. The sweep yields the same
/// per-row source spans the binary searches would; panels are then
/// materialized with the shared prefix-sum fill.
fn parallel_cursor(b: &CsrMatrix, ranges: &[Range<usize>]) -> Vec<ColPanel> {
    let n_rows = b.n_rows();
    let row_offsets = b.row_offsets();
    let col_ids = b.col_ids();
    let k = ranges.len();
    let panel_ends: Vec<ColId> = ranges.iter().map(|range| range.end as ColId).collect();

    // Stage 1: row-major (row, panel) source spans from parallel
    // cursor sweeps, in blocks to amortize the per-task output vector.
    const BLOCK: usize = 256;
    let spans: Vec<(usize, usize)> = (0..n_rows.div_ceil(BLOCK))
        .into_par_iter()
        .flat_map_iter(|block| {
            let lo = block * BLOCK;
            let hi = (lo + BLOCK).min(n_rows);
            let mut out = Vec::with_capacity((hi - lo) * k);
            for r in lo..hi {
                let row_end = row_offsets[r + 1];
                let mut i = row_offsets[r];
                for &end in &panel_ends {
                    let from = i;
                    while i < row_end && col_ids[i] < end {
                        i += 1;
                    }
                    out.push((from, i));
                }
            }
            out
        })
        .collect();

    // Stage 2: materialize each panel from its span column.
    ranges
        .iter()
        .enumerate()
        .map(|(p, range)| {
            let bounds: Vec<(usize, usize)> = (0..n_rows).map(|r| spans[r * k + p]).collect();
            fill_panel(b, range, &bounds)
        })
        .collect()
}

/// Materializes one column panel given per-row source spans
/// `[lo, hi)` into `b`'s entry arrays: an exclusive prefix sum turns
/// span lengths into write offsets, and rows are filled into disjoint
/// output slices in parallel.
fn fill_panel(b: &CsrMatrix, range: &Range<usize>, bounds: &[(usize, usize)]) -> ColPanel {
    let n_rows = b.n_rows();
    let col_ids = b.col_ids();
    let values = b.values();
    let start = range.start as ColId;
    let mut offsets = Vec::with_capacity(n_rows + 1);
    offsets.push(0usize);
    for &(lo, hi) in bounds {
        offsets.push(offsets.last().unwrap() + (hi - lo));
    }
    let nnz = *offsets.last().unwrap();
    let mut cols = vec![0 as ColId; nnz];
    let mut vals = vec![0.0f64; nnz];
    let mut col_slices: Vec<&mut [ColId]> = Vec::with_capacity(n_rows);
    let mut val_slices: Vec<&mut [f64]> = Vec::with_capacity(n_rows);
    {
        let mut rest_c: &mut [ColId] = &mut cols;
        let mut rest_v: &mut [f64] = &mut vals;
        for r in 0..n_rows {
            let len = offsets[r + 1] - offsets[r];
            let (head_c, tail_c) = rest_c.split_at_mut(len);
            let (head_v, tail_v) = rest_v.split_at_mut(len);
            col_slices.push(head_c);
            val_slices.push(head_v);
            rest_c = tail_c;
            rest_v = tail_v;
        }
    }
    col_slices
        .par_iter_mut()
        .zip(val_slices.par_iter_mut())
        .zip(bounds.par_iter())
        .for_each(|((cdst, vdst), &(lo, hi))| {
            for (k, i) in (lo..hi).enumerate() {
                cdst[k] = col_ids[i] - start;
                vdst[k] = values[i];
            }
        });
    ColPanel {
        col_range: range.clone(),
        matrix: CsrMatrix::from_parts_unchecked(n_rows, range.len(), offsets, cols, vals),
    }
}

/// CSC-based partitioner: one conversion, then contiguous slices.
fn via_csc(b: &CsrMatrix, ranges: &[Range<usize>]) -> Vec<ColPanel> {
    let csc = crate::csc::CscMatrix::from_csr(b);
    ranges
        .iter()
        .map(|range| ColPanel {
            col_range: range.clone(),
            matrix: csc.slice_cols_to_csr(range.start, range.end),
        })
        .collect()
}

/// Re-assembles column panels back into the original matrix (test and
/// verification helper; inverse of any [`ColPartitioner`]).
pub fn reassemble(panels: &[ColPanel]) -> CsrMatrix {
    if panels.is_empty() {
        return CsrMatrix::zeros(0, 0);
    }
    let n_rows = panels[0].matrix.n_rows();
    let n_cols = panels.last().unwrap().col_range.end;
    let nnz: usize = panels.iter().map(|p| p.matrix.nnz()).sum();
    let mut offsets = Vec::with_capacity(n_rows + 1);
    let mut cols = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    offsets.push(0);
    for r in 0..n_rows {
        for p in panels {
            let base = p.col_range.start as ColId;
            for (c, v) in p.matrix.row_iter(r) {
                cols.push(base + c);
                vals.push(v);
            }
        }
        offsets.push(cols.len());
    }
    CsrMatrix::from_parts_unchecked(n_rows, n_cols, offsets, cols, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::erdos::erdos_renyi;

    fn example() -> CsrMatrix {
        CsrMatrix::from_parts(
            4,
            8,
            vec![0, 3, 4, 7, 8],
            vec![0, 3, 6, 2, 1, 4, 7, 5],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        )
        .unwrap()
    }

    fn all_strategies() -> [ColPartitioner; 5] {
        [
            ColPartitioner::Naive,
            ColPartitioner::Cursor,
            ColPartitioner::ParallelPrefixSum,
            ColPartitioner::ParallelCursor,
            ColPartitioner::ViaCsc,
        ]
    }

    #[test]
    fn panels_localize_columns() {
        let b = example();
        let ranges = even_col_ranges(&b, 2);
        for strat in all_strategies() {
            let panels = strat.partition(&b, &ranges);
            assert_eq!(panels.len(), 2);
            assert_eq!(panels[0].col_range, 0..4);
            assert_eq!(panels[1].col_range, 4..8);
            // Row 0 global cols {0,3,6}: panel0 gets {0,3}, panel1 gets {2}.
            assert_eq!(panels[0].matrix.row_cols(0), &[0, 3]);
            assert_eq!(panels[1].matrix.row_cols(0), &[2]);
            assert_eq!(panels[1].matrix.row_values(0), &[3.0]);
            for p in &panels {
                p.matrix.validate().unwrap();
            }
        }
    }

    #[test]
    fn strategies_agree_and_roundtrip() {
        let b = erdos_renyi(60, 80, 0.07, 42);
        for k in [1usize, 2, 3, 7, 80] {
            let ranges = even_col_ranges(&b, k);
            let reference = ColPartitioner::Naive.partition(&b, &ranges);
            for strat in [
                ColPartitioner::Cursor,
                ColPartitioner::ParallelPrefixSum,
                ColPartitioner::ParallelCursor,
                ColPartitioner::ViaCsc,
            ] {
                let panels = strat.partition(&b, &ranges);
                assert_eq!(panels, reference, "strategy {strat:?} diverged at k={k}");
            }
            assert_eq!(reassemble(&reference), b, "roundtrip failed at k={k}");
        }
    }

    #[test]
    fn nnz_balanced_ranges_distribute_load() {
        // The out-of-core planner's column split: B's per-column nnz
        // prefix through `weighted_ranges_from_prefix`.
        let b = erdos_renyi(100, 100, 0.1, 7);
        let mut col_nnz = vec![0u64; b.n_cols()];
        for &c in b.col_ids() {
            col_nnz[c as usize] += 1;
        }
        let prefix: Vec<u64> = std::iter::once(0)
            .chain(col_nnz.iter().scan(0, |acc, &n| {
                *acc += n;
                Some(*acc)
            }))
            .collect();
        let ranges = crate::partition::weighted_ranges_from_prefix(&prefix, 4);
        assert_eq!(ranges.last().unwrap().end, 100);
        let panels = ColPartitioner::Cursor.partition(&b, &ranges);
        let sizes: Vec<usize> = panels.iter().map(|p| p.matrix.nnz()).collect();
        let total: usize = sizes.iter().sum();
        assert_eq!(total, b.nnz());
        let max = *sizes.iter().max().unwrap();
        assert!(
            max <= total / 2,
            "one panel holds most of the nnz: {sizes:?}"
        );
    }

    #[test]
    fn single_panel_is_whole_matrix() {
        let b = example();
        let panels = ColPartitioner::Cursor.partition(&b, std::slice::from_ref(&(0..8)));
        assert_eq!(panels.len(), 1);
        assert_eq!(panels[0].matrix, b);
    }

    #[test]
    fn empty_matrix_partitions() {
        let b = CsrMatrix::zeros(3, 6);
        for strat in all_strategies() {
            let panels = strat.partition(&b, &even_col_ranges(&b, 2));
            assert_eq!(panels.len(), 2);
            assert_eq!(panels[0].matrix.nnz(), 0);
            assert_eq!(reassemble(&panels), b);
        }
    }

    #[test]
    #[should_panic(expected = "cover all columns")]
    fn rejects_incomplete_ranges() {
        let b = example();
        ColPartitioner::Cursor.partition(&b, std::slice::from_ref(&(0..4)));
    }
}
