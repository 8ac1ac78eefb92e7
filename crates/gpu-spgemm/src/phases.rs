//! Real per-phase computation plus the workload descriptors charged to
//! the simulator.
//!
//! "Simulated time, real results": every chunk's row flop counts and
//! its product are computed exactly on the host — the product by the
//! CPU baseline's kernel ([`cpu_spgemm::parallel_hash`]), whose offsets
//! give the symbolic row sizes — together with the sizes (`flops`,
//! per-group flops, bytes, compression ratio) that the
//! [`gpu_sim::CostModel`] needs to charge simulated durations.

use accum::estimate::{build_model_from_flops, EstModel, EstimateConfig, NUM_GROUPS, ROW_BLOCK};
use accum::ScratchPool;
use cpu_spgemm::parallel_hash;
use rayon::prelude::*;
use sparse::{CsrMatrix, CsrView};
use std::mem::take;

/// One chunk multiplication job: a row panel of `A` times a column
/// panel of `B` (already column-localized).
#[derive(Clone, Copy)]
pub struct ChunkJob<'a> {
    /// Row panel of `A`.
    pub a_panel: CsrView<'a>,
    /// Column panel of `B` with local column ids.
    pub b_panel: &'a CsrMatrix,
    /// Chunk identifier, for labels.
    pub chunk_id: usize,
}

/// Host-side row grouping (the step between row analysis and symbolic
/// execution in Figure 3).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowGroups {
    /// Row indices per group, ordered small → large.
    pub groups: Vec<Vec<u32>>,
    /// Total flops per group.
    pub group_flops: Vec<u64>,
}

impl RowGroups {
    /// Bins rows by their flop counts into the estimator's magnitude
    /// classes ([`accum::estimate::GROUP_BOUNDS`], via
    /// [`EstModel::group_of`]); empty groups are dropped.
    pub fn from_row_flops(row_flops: &[u64]) -> Self {
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); NUM_GROUPS];
        let mut group_flops = vec![0u64; NUM_GROUPS];
        for (r, &f) in row_flops.iter().enumerate() {
            if f == 0 {
                continue;
            }
            let g = EstModel::group_of(f);
            groups[g].push(r as u32);
            group_flops[g] += f;
        }
        let kept: Vec<(Vec<u32>, u64)> = groups
            .into_iter()
            .zip(group_flops)
            .filter(|(g, _)| !g.is_empty())
            .collect();
        let (groups, group_flops) = kept.into_iter().unzip();
        RowGroups {
            groups,
            group_flops,
        }
    }

    /// Number of non-empty groups (== kernel launches per phase).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True if no row has any work.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

/// Output-size boundaries for the numeric row groups (rows with
/// `nnz(C_i*) <= bound`), mirroring the magnitude classes the flop
/// grouping uses for the symbolic phase.
pub const NNZ_GROUP_BOUNDS: [usize; 4] = [32, 512, 8192, usize::MAX];

/// Numeric-phase row groups: rows binned by *output* size (the
/// "re-assign rows of matrix A based on the number of non-zero
/// elements" step of Figure 3).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NumericGroups {
    /// Row indices per group, small outputs first.
    pub groups: Vec<Vec<u32>>,
    /// Total flops per group (what each kernel launch is charged).
    pub group_flops: Vec<u64>,
}

impl NumericGroups {
    /// Bins rows by their output sizes; rows with empty output are
    /// dropped. `row_flops` supplies the per-group kernel charges.
    pub fn from_row_nnz(row_nnz: &[usize], row_flops: &[u64]) -> Self {
        assert_eq!(row_nnz.len(), row_flops.len(), "per-row arrays must align");
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); NNZ_GROUP_BOUNDS.len()];
        let mut group_flops = vec![0u64; NNZ_GROUP_BOUNDS.len()];
        for (r, (&nnz, &flops)) in row_nnz.iter().zip(row_flops).enumerate() {
            if nnz == 0 {
                continue;
            }
            let g = NNZ_GROUP_BOUNDS.iter().position(|&b| nnz <= b).unwrap();
            groups[g].push(r as u32);
            group_flops[g] += flops;
        }
        let kept: Vec<(Vec<u32>, u64)> = groups
            .into_iter()
            .zip(group_flops)
            .filter(|(g, _)| !g.is_empty())
            .collect();
        let (groups, group_flops) = kept.into_iter().unzip();
        NumericGroups {
            groups,
            group_flops,
        }
    }

    /// Number of non-empty groups (== numeric kernel launches).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True if no row produces output.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

/// Everything the simulator charges a chunk (or a re-split piece of
/// one) from. It owns no product, so recovery derives, grows and strips
/// descriptors without touching a result.
#[derive(Clone, Debug, PartialEq)]
pub struct PreparedChunk {
    /// Chunk identifier.
    pub chunk_id: usize,
    /// Symbolic-phase row groups (binned by flops).
    pub groups: RowGroups,
    /// Numeric-phase row groups (re-binned by output size).
    pub numeric_groups: NumericGroups,
    /// Total flops of the chunk (multiply-add = 2).
    pub flops: u64,
    /// Output nonzeros.
    pub nnz: u64,
    /// `flops / nnz` (1.0 for empty chunks).
    pub compression_ratio: f64,
    /// Rows in the A panel.
    pub rows: usize,
    /// Nonzeros in the A panel (row-analysis workload).
    pub a_nnz: u64,
    /// Bytes of the A panel in CSR form.
    pub a_bytes: u64,
    /// Bytes of the B panel in CSR form.
    pub b_bytes: u64,
    /// Bytes of the row-analysis result (one u64 per row).
    pub row_info_bytes: u64,
    /// Bytes of the symbolic result (one u64 per row).
    pub row_nnz_bytes: u64,
    /// Bytes of the output chunk (col ids + values + offsets).
    pub out_bytes: u64,
    /// Speculative-execution descriptors, present when the chunk was
    /// prepared under an estimator (see [`prepare_chunk_with`]).
    /// `None` chunks follow the exact symbolic schedule.
    pub spec: Option<SpeculativeInfo>,
}

/// A prepared chunk: its descriptor and its real product.
#[derive(Clone, Debug)]
pub struct ChunkProduct {
    /// What the simulator charges for the chunk.
    pub desc: PreparedChunk,
    /// The real product of the panels (local column ids).
    pub result: CsrMatrix,
}

/// What a speculative GPU run of this chunk would do: allocate
/// `est_out_bytes` straight from the estimation model and launch
/// numeric kernels without a symbolic pass. The real result is still
/// computed exactly host-side ("simulated time, real results"); these
/// numbers only drive the simulated schedule, the pool reservation,
/// and overflow detection.
#[derive(Clone, Debug, PartialEq)]
pub struct SpeculativeInfo {
    /// Model-estimated output nonzeros of the chunk (headroom
    /// included).
    pub est_nnz: u64,
    /// Estimated output allocation: `est_nnz` entries plus row
    /// offsets. This is what the speculative pipeline reserves instead
    /// of the exact `out_bytes`.
    pub est_out_bytes: u64,
    /// Rows whose actual output exceeded their individual estimate
    /// (diagnostic; the chunk only fails when the *total* allocation
    /// is short).
    pub row_overflows: u64,
    /// Flops per numeric kernel launch when rows are grouped by their
    /// *estimated* sizes — the launches a speculative run performs.
    pub est_group_flops: Vec<u64>,
    /// Rows the chunk's estimation model sampled.
    pub sampled_rows: u64,
}

impl SpeculativeInfo {
    /// True when the actual output no longer fits the speculative
    /// allocation — the condition a real GPU kernel's bounds check
    /// would trip on.
    pub fn overflowed(&self, actual_out_bytes: u64) -> bool {
        self.est_out_bytes < actual_out_bytes
    }
}

/// Bytes per output nonzero in transfers (u32 column id + f64 value).
pub const BYTES_PER_NNZ: u64 = 12;

#[inline]
fn row_flops_one(a_panel: &CsrView<'_>, b_panel: &CsrMatrix, r: usize) -> u64 {
    2 * a_panel
        .row_cols(r)
        .iter()
        .map(|&k| b_panel.row_nnz(k as usize) as u64)
        .sum::<u64>()
}

/// Row analysis: flops of each A-panel row against the B panel.
pub fn row_analysis(a_panel: &CsrView<'_>, b_panel: &CsrMatrix) -> Vec<u64> {
    let mut out = vec![0u64; a_panel.n_rows()];
    row_analysis_into(a_panel, b_panel, &mut out);
    out
}

/// [`row_analysis`] into a caller-provided slice (one slot per panel
/// row), parallel over [`ROW_BLOCK`]-row blocks. Each row's count is an
/// independent integer sum, so the split cannot change any value.
pub fn row_analysis_into(a_panel: &CsrView<'_>, b_panel: &CsrMatrix, out: &mut [u64]) {
    let rows = a_panel.n_rows();
    assert_eq!(out.len(), rows, "one flop slot per panel row");
    if rows <= ROW_BLOCK {
        for (r, slot) in out.iter_mut().enumerate() {
            *slot = row_flops_one(a_panel, b_panel, r);
        }
        return;
    }
    out.par_chunks_mut(ROW_BLOCK)
        .enumerate()
        .for_each(|(block, slots)| {
            let base = block * ROW_BLOCK;
            for (i, slot) in slots.iter_mut().enumerate() {
                *slot = row_flops_one(a_panel, b_panel, base + i);
            }
        });
}

/// The one descriptor builder: what [`prepare_chunk_with`] records for
/// `job`, from the job's output row offsets (`rows + 1` entries, of
/// which only differences are read). The preparation passes its
/// product's offsets. Recovery passes a re-split piece's slice of its
/// parent's offsets and so describes the piece without a kernel call:
/// rows of a product are independent, so a row range of a chunk's
/// product is the product of that row range. Row flops come from
/// `row_flops_prefix` under the rule of [`prepare_chunk_with`], else
/// from row analysis; `estimate` attaches the speculative descriptor
/// from the same row flops.
pub fn describe_rows(
    job: ChunkJob<'_>,
    offsets: &[usize],
    pool: &ScratchPool,
    row_flops_prefix: Option<&[u64]>,
    estimate: Option<&EstimateConfig>,
) -> PreparedChunk {
    let (a, b) = (&job.a_panel, job.b_panel);
    assert_eq!(a.n_cols(), b.n_rows(), "panel dimensions must agree");
    let rows = a.n_rows();
    assert_eq!(
        offsets.len(),
        rows + 1,
        "one output offset per row, plus one"
    );
    // Borrow the reusable per-row arrays out of a pooled bundle (the
    // bundle itself goes straight back so the sampler can lease it).
    let (mut row_flops, mut row_nnz) =
        pool.with(|s| (take(&mut s.flops_buf), take(&mut s.nnz_buf)));
    row_flops.clear();
    row_flops.resize(rows, 0);
    match row_flops_prefix {
        Some(prefix) => {
            assert_eq!(prefix.len(), rows + 1, "prefix must cover the panel rows");
            for (slot, w) in row_flops.iter_mut().zip(prefix.windows(2)) {
                *slot = w[1] - w[0];
            }
            debug_assert_eq!(
                row_flops,
                row_analysis(a, b),
                "cached flop prefix diverged from row analysis"
            );
        }
        None => row_analysis_into(a, b, &mut row_flops),
    }
    row_nnz.clear();
    row_nnz.extend(offsets.windows(2).map(|w| w[1] - w[0]));
    let flops: u64 = row_flops.iter().sum();
    let nnz = (offsets[rows] - offsets[0]) as u64;
    let desc = PreparedChunk {
        chunk_id: job.chunk_id,
        groups: RowGroups::from_row_flops(&row_flops),
        numeric_groups: NumericGroups::from_row_nnz(&row_nnz, &row_flops),
        compression_ratio: if nnz == 0 {
            1.0
        } else {
            flops as f64 / nnz as f64
        },
        flops,
        nnz,
        rows,
        a_nnz: a.nnz() as u64,
        a_bytes: a.storage_bytes() as u64,
        b_bytes: b.storage_bytes() as u64,
        row_info_bytes: rows as u64 * 8,
        row_nnz_bytes: rows as u64 * 8,
        out_bytes: nnz * BYTES_PER_NNZ + (rows as u64 + 1) * 8,
        spec: estimate.map(|cfg| speculate(&job, &row_flops, &row_nnz, cfg, pool)),
    };
    pool.with(|s| {
        s.flops_buf = row_flops;
        s.nnz_buf = row_nnz;
    });
    desc
}

/// The speculative descriptor of a job, sized by an estimation model
/// sampled from the job's own panels ([`build_model_from_flops`]): a
/// per-chunk model sees compression that depends on the column panel,
/// as on a web crawl's diagonal panel. The estimate reads only the
/// panels, so a device could compute it before the product exists; the
/// actual row sizes only count rows whose estimate fell short.
fn speculate(
    job: &ChunkJob<'_>,
    row_flops: &[u64],
    row_nnz: &[usize],
    cfg: &EstimateConfig,
    pool: &ScratchPool,
) -> SpeculativeInfo {
    let (a, b) = (&job.a_panel, job.b_panel);
    let model = build_model_from_flops(a, b, row_flops, cfg, pool);
    let est_rows = model.estimate_rows(row_flops, b.n_cols());
    let est_nnz: u64 = est_rows.iter().map(|&n| n as u64).sum();
    let row_overflows = row_nnz.iter().zip(&est_rows).filter(|(n, e)| n > e).count();
    SpeculativeInfo {
        est_nnz,
        est_out_bytes: est_nnz * BYTES_PER_NNZ + (a.n_rows() as u64 + 1) * 8,
        row_overflows: row_overflows as u64,
        est_group_flops: NumericGroups::from_row_nnz(&est_rows, row_flops).group_flops,
        sampled_rows: model.sampled_rows as u64,
    }
}

/// Prepares a chunk: computes its row flops and its real product, and
/// records the descriptors the simulated phases are charged from (flop
/// grouping, output-size regrouping, bytes).
///
/// Convenience wrapper over [`prepare_chunk_with`] with a private
/// scratch pool, no cached flop prefix and no estimator; callers
/// preparing many chunks should share one [`ScratchPool`] instead.
pub fn prepare_chunk(job: ChunkJob<'_>) -> ChunkProduct {
    prepare_chunk_with(job, &ScratchPool::new(), None, None)
}

/// [`prepare_chunk`] with worker scratch leased from `pool`, an
/// optional cached flop prefix, and an optional estimator.
///
/// The product comes from [`parallel_hash::multiply_view_with`], the
/// CPU baseline's kernel, and each row's output size is read off its
/// offsets. The kernel's accumulator choice is invisible to the
/// descriptors: dense and hash accumulation add each column's products
/// in the same order, and the simulator charges flops, not the host's
/// accumulator.
///
/// `row_flops_prefix`, when given, must be the exclusive prefix sum of
/// the panel rows' flop counts against **this** `b_panel`
/// (`a.n_rows() + 1` entries); row analysis is then derived from the
/// prefix differences instead of recomputed. The planner's global
/// prefix qualifies whenever the B panel spans all of B's columns
/// (both were built by the same `2·Σ nnz(B_k*)` formula); a
/// debug assertion cross-checks the derived counts against a fresh
/// [`row_analysis`].
///
/// `estimate`, when given, attaches the speculative descriptor
/// ([`SpeculativeInfo`]). It changes how the simulation sizes and
/// schedules the chunk, never the product.
pub fn prepare_chunk_with(
    job: ChunkJob<'_>,
    pool: &ScratchPool,
    row_flops_prefix: Option<&[u64]>,
    estimate: Option<&EstimateConfig>,
) -> ChunkProduct {
    let result = parallel_hash::multiply_view_with(&job.a_panel, job.b_panel, pool)
        .expect("panel dimensions must agree");
    let desc = describe_rows(job, result.row_offsets(), pool, row_flops_prefix, estimate);
    ChunkProduct { desc, result }
}

impl PreparedChunk {
    /// Device bytes this chunk needs resident at once: both panels,
    /// per-row scratch, and the output arrays.
    pub fn device_bytes(&self) -> u64 {
        self.a_bytes + self.b_bytes + self.row_info_bytes + self.row_nnz_bytes + self.out_bytes
    }

    /// Output bytes the executor plans to allocate for this chunk: the
    /// speculative estimate when present, otherwise the exact size.
    pub fn planned_out_bytes(&self) -> u64 {
        self.spec
            .as_ref()
            .map(|s| s.est_out_bytes)
            .unwrap_or(self.out_bytes)
    }

    /// The grow-and-retry form of an overflowed speculative chunk: the
    /// same chunk with its speculative allocation widened to the now
    /// known actual size, so a retry keeps the symbolic-free schedule
    /// but can no longer overflow.
    pub fn grown(&self) -> PreparedChunk {
        let mut g = self.clone();
        if let Some(s) = &mut g.spec {
            s.est_nnz = g.nnz;
            s.est_out_bytes = g.out_bytes;
        }
        g
    }

    /// Splits the output transfer at `fraction` of the rows (the
    /// Figure 6 two-portion schedule), returning the byte sizes of the
    /// two portions. Both portions carry their share of col ids and
    /// values; the first also carries the row offsets.
    ///
    /// `offsets` are the chunk's output row offsets as [`describe_rows`]
    /// takes them, so a re-split piece passes its parent's slice.
    ///
    /// Out-of-range fractions (including NaN) are clamped to `[0, 1]`;
    /// the sum of the two portions always equals `out_bytes`.
    pub fn split_output_bytes(&self, offsets: &[usize], fraction: f64) -> (u64, u64) {
        debug_assert_eq!(offsets.len(), self.rows + 1, "one offset per row, plus one");
        // clamp() propagates NaN; map it to 0 explicitly.
        let fraction = if fraction.is_nan() {
            0.0
        } else {
            fraction.clamp(0.0, 1.0)
        };
        let rows_first = ((self.rows as f64 * fraction).round() as usize).min(self.rows);
        let entries_first = (offsets[rows_first] - offsets[0]) as u64;
        let first = entries_first * BYTES_PER_NNZ + (self.rows as u64 + 1) * 8;
        let second = self.out_bytes.saturating_sub(first);
        (first, second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_spgemm::reference;
    use sparse::gen::erdos_renyi;
    use sparse::partition::col::{even_col_ranges, ColPartitioner};

    fn job_fixture() -> (CsrMatrix, CsrMatrix) {
        let a = erdos_renyi(60, 50, 0.1, 1);
        let b = erdos_renyi(50, 80, 0.1, 2);
        (a, b)
    }

    fn whole_job<'a>(a: &'a CsrMatrix, b: &'a CsrMatrix) -> ChunkJob<'a> {
        ChunkJob {
            a_panel: CsrView::of(a),
            b_panel: b,
            chunk_id: 0,
        }
    }

    #[test]
    fn row_analysis_matches_stats() {
        let (a, b) = job_fixture();
        let got = row_analysis(&CsrView::of(&a), &b);
        let expect = sparse::stats::row_flops(&a, &b);
        assert_eq!(got, expect);
    }

    #[test]
    fn symbolic_matches_stats() {
        let (a, b) = job_fixture();
        let p = prepare_chunk(whole_job(&a, &b));
        let row_nnz = sparse::stats::symbolic_row_nnz(&a, &b);
        let row_flops = sparse::stats::row_flops(&a, &b);
        assert_eq!(
            p.desc.numeric_groups,
            NumericGroups::from_row_nnz(&row_nnz, &row_flops)
        );
    }

    #[test]
    fn groups_partition_nonempty_rows() {
        let row_flops = vec![0, 10, 100, 2000, 64, 1_000_000];
        let g = RowGroups::from_row_flops(&row_flops);
        let total_rows: usize = g.groups.iter().map(|v| v.len()).sum();
        assert_eq!(total_rows, 5, "zero-flop rows are dropped");
        let total_flops: u64 = g.group_flops.iter().sum();
        assert_eq!(total_flops, row_flops.iter().sum::<u64>());
        // 10 and 64 share the first group; 100 and 2000 sit separately.
        assert_eq!(g.groups[0], vec![1, 4]);
        assert!(g.len() >= 3);
    }

    #[test]
    fn groups_partition_productive_rows() {
        let row_nnz = vec![0usize, 5, 40, 1000, 10000, 1];
        let row_flops = vec![0u64, 10, 80, 2000, 20000, 2];
        let g = NumericGroups::from_row_nnz(&row_nnz, &row_flops);
        let total_rows: usize = g.groups.iter().map(|v| v.len()).sum();
        assert_eq!(total_rows, 5, "zero-output rows dropped");
        let total_flops: u64 = g.group_flops.iter().sum();
        assert_eq!(total_flops, 22092);
        // Rows 1 (5) and 5 (1) fall in the <=32 group.
        assert_eq!(g.groups[0], vec![1, 5]);
    }

    #[test]
    fn all_four_numeric_groups_occur_and_match_reference() {
        // Output rows engineered to land in all four numeric groups.
        // Rows 100.. are an identity tail, so a row with k distinct
        // entries into that tail produces exactly k outputs.
        let n = 16384usize;
        let mut coo = sparse::CooMatrix::new(n, n);
        let sizes = [20usize, 200, 2000, 10000]; // one per group bound
        for (r, &k) in sizes.iter().enumerate() {
            for i in 0..k {
                coo.push(r, 100 + i, 1.0).unwrap();
            }
        }
        for r in 100..n {
            coo.push(r, r, 2.0).unwrap();
        }
        let a = coo.to_csr();
        let p = prepare_chunk(whole_job(&a, &a));
        assert_eq!(p.result, reference::multiply(&a, &a).unwrap());
        let offsets = p.result.row_offsets();
        let row_sizes: Vec<usize> = (0..4).map(|r| offsets[r + 1] - offsets[r]).collect();
        assert_eq!(row_sizes, sizes);
        assert_eq!(
            p.desc.numeric_groups.len(),
            4,
            "expected all four numeric groups"
        );
    }

    #[test]
    fn prepared_chunk_is_real_product() {
        let (a, b) = job_fixture();
        let prepared = prepare_chunk(whole_job(&a, &b));
        let expect = reference::multiply(&a, &b).unwrap();
        assert!(prepared.result.approx_eq(&expect, 1e-9));
        let d = &prepared.desc;
        assert_eq!(d.nnz, expect.nnz() as u64);
        assert_eq!(d.flops, sparse::stats::total_flops(&a, &b));
        assert!(d.compression_ratio >= 1.0);
        assert_eq!(d.out_bytes, d.nnz * 12 + 61 * 8);
    }

    #[test]
    fn prepared_chunk_on_column_panels_reassembles() {
        let (a, b) = job_fixture();
        let panels = ColPartitioner::Cursor.partition(&b, &even_col_ranges(&b, 3));
        let full = reference::multiply(&a, &b).unwrap();
        let chunks: Vec<CsrMatrix> = panels
            .iter()
            .enumerate()
            .map(|(i, p)| {
                prepare_chunk(ChunkJob {
                    a_panel: CsrView::of(&a),
                    b_panel: &p.matrix,
                    chunk_id: i,
                })
                .result
            })
            .collect();
        let refs: Vec<&CsrMatrix> = chunks.iter().collect();
        let joined = sparse::ops::hstack(&refs).unwrap();
        assert!(joined.approx_eq(&full, 1e-9));
    }

    fn assert_chunks_identical(got: &ChunkProduct, expect: &ChunkProduct) {
        assert_eq!(got.result.row_offsets(), expect.result.row_offsets());
        assert_eq!(got.result.col_ids(), expect.result.col_ids());
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got.result),
            bits(&expect.result),
            "values must be bit-identical"
        );
        assert_eq!(got.desc, expect.desc);
        assert_eq!(
            got.desc.compression_ratio.to_bits(),
            expect.desc.compression_ratio.to_bits()
        );
    }

    #[test]
    fn cached_flop_prefix_matches_recomputed_analysis() {
        let (a, b) = job_fixture();
        let av = CsrView::of(&a);
        let row_flops = row_analysis(&av, &b);
        let mut prefix = Vec::with_capacity(row_flops.len() + 1);
        prefix.push(0u64);
        for &f in &row_flops {
            prefix.push(prefix.last().unwrap() + f);
        }
        let job = ChunkJob {
            a_panel: av,
            b_panel: &b,
            chunk_id: 3,
        };
        let pool = accum::ScratchPool::new();
        let with_prefix = prepare_chunk_with(job, &pool, Some(&prefix), None);
        let without = prepare_chunk_with(job, &pool, None, None);
        assert_chunks_identical(&with_prefix, &without);
    }

    #[test]
    fn row_slice_descriptor_equals_sub_job_preparation() {
        let (a, b) = job_fixture();
        let whole = prepare_chunk(whole_job(&a, &b));
        let offsets = whole.result.row_offsets();
        for (lo, hi) in [(0, 60), (0, 0), (17, 18), (5, 41), (59, 60), (60, 60)] {
            let job = ChunkJob {
                a_panel: CsrView::rows(&a, lo, hi),
                b_panel: &b,
                chunk_id: 9,
            };
            let piece = describe_rows(job, &offsets[lo..=hi], &ScratchPool::new(), None, None);
            let expect = prepare_chunk(job);
            assert_eq!(piece, expect.desc, "rows {lo}..{hi}");
            let (first, second) = piece.split_output_bytes(&offsets[lo..=hi], 0.33);
            let sub = expect.result.row_offsets();
            assert_eq!((first, second), expect.desc.split_output_bytes(sub, 0.33));
        }
    }

    #[test]
    fn speculation_is_deterministic_and_never_mutates_result() {
        let (a, b) = job_fixture();
        let job = whole_job(&a, &b);
        let exact = prepare_chunk(job);
        let cfg = EstimateConfig::default();
        // A warm pool and a cold one give the same descriptor.
        let pool = ScratchPool::new();
        prepare_chunk_with(job, &pool, None, Some(&cfg));
        let spec1 = prepare_chunk_with(job, &pool, None, Some(&cfg));
        let spec2 = prepare_chunk_with(job, &ScratchPool::new(), None, Some(&cfg));
        assert_eq!(spec1.desc.spec, spec2.desc.spec);
        let s = spec1.desc.spec.as_ref().unwrap();
        assert!(s.est_nnz > 0);
        assert!(s.sampled_rows > 0, "the chunk's own model samples its rows");
        assert_eq!(s.est_out_bytes, s.est_nnz * 12 + 61 * 8);
        // The real product and the exact descriptor are untouched.
        let mut stripped = spec1;
        stripped.desc.spec = None;
        assert_chunks_identical(&stripped, &exact);
    }

    #[test]
    fn upper_bound_speculation_never_overflows() {
        let (a, b) = job_fixture();
        let cfg = EstimateConfig {
            kind: accum::EstimatorKind::UpperBound,
            ..EstimateConfig::default()
        };
        let p = prepare_chunk_with(whole_job(&a, &b), &ScratchPool::new(), None, Some(&cfg)).desc;
        let s = p.spec.as_ref().unwrap();
        assert_eq!(s.sampled_rows, 0, "the bound samples nothing");
        assert!(!s.overflowed(p.out_bytes));
        assert_eq!(s.row_overflows, 0);
        assert!(s.est_nnz >= p.nnz);
    }

    #[test]
    fn grown_chunk_cannot_overflow() {
        let (a, b) = job_fixture();
        // Force gross under-allocation, then grow.
        let cfg = EstimateConfig {
            headroom: 0.01,
            ..EstimateConfig::default()
        };
        let p = prepare_chunk_with(whole_job(&a, &b), &ScratchPool::new(), None, Some(&cfg)).desc;
        assert!(p.spec.as_ref().unwrap().overflowed(p.out_bytes));
        let g = p.grown();
        let s = g.spec.as_ref().unwrap();
        assert!(!s.overflowed(g.out_bytes));
        assert_eq!(g.planned_out_bytes(), g.out_bytes);
        assert_eq!(s.est_nnz, g.nnz);
    }

    #[test]
    fn split_output_respects_fraction() {
        let (a, b) = job_fixture();
        let ChunkProduct { desc: p, result } = prepare_chunk(whole_job(&a, &b));
        let offsets = result.row_offsets();
        let (first, second) = p.split_output_bytes(offsets, 0.33);
        assert_eq!(first + second, p.out_bytes);
        assert!(first > 0);
        let (all, none) = p.split_output_bytes(offsets, 1.0);
        assert_eq!(all, p.out_bytes);
        assert_eq!(none, 0);
        let (offsets_only, rest) = p.split_output_bytes(offsets, 0.0);
        assert_eq!(offsets_only, (p.rows as u64 + 1) * 8);
        assert_eq!(rest, p.nnz * 12);
    }

    #[test]
    fn split_output_clamps_wild_fractions() {
        let (a, b) = job_fixture();
        let ChunkProduct { desc: p, result } = prepare_chunk(whole_job(&a, &b));
        let split = |f: f64| p.split_output_bytes(result.row_offsets(), f);
        assert_eq!(split(-3.0), split(0.0));
        assert_eq!(split(42.0), split(1.0));
        assert_eq!(split(f64::NAN), split(0.0));
        for f in [-1.0, 0.5, 2.0, f64::INFINITY, f64::NEG_INFINITY] {
            let (first, second) = split(f);
            assert_eq!(first + second, p.out_bytes, "fraction {f}");
        }
    }

    #[test]
    fn empty_chunk_is_well_formed() {
        let a = CsrMatrix::zeros(5, 4);
        let b = CsrMatrix::zeros(4, 6);
        let p = prepare_chunk(ChunkJob {
            a_panel: CsrView::of(&a),
            b_panel: &b,
            chunk_id: 7,
        });
        assert_eq!(p.desc.flops, 0);
        assert_eq!(p.desc.nnz, 0);
        assert!(p.desc.groups.is_empty());
        assert!(p.desc.numeric_groups.is_empty());
        assert_eq!(p.desc.compression_ratio, 1.0);
        assert_eq!(p.result.n_rows(), 5);
    }
}
