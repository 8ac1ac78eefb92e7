//! Output-size estimation: the worst-case upper bound plus a seeded,
//! sample-based `nnz(C)` estimator.
//!
//! "In the worst case, every single multiplication of elements of
//! matrices A and B could lead to a distinct element in C" (paper
//! Section IV-B). The upper bound for row `i` of `C = A·B` is therefore
//! `min(flops_i / 2, width(B))`: [`EstModel::upper_bound`] predicts it
//! for every row. The paper measures that this bound is far from tight
//! — which is exactly why it rejects worst-case pre-allocation in
//! favour of pooled memory; the bench crate reproduces that gap.
//!
//! On top of the bound this module implements the OCEAN-style
//! sample-based estimator that makes symbolic-phase elision possible:
//! rows are binned by flop magnitude ([`GROUP_BOUNDS`], the bounds the
//! GPU phase engine groups kernels by), a deterministic stratified
//! sample of each bin is measured exactly with the symbolic row count
//! ([`EstimatorKind::RowSample`]), and the measured compression ratios
//! distill into a tiny [`EstModel`] that predicts any row's output size
//! from its flop count in O(1).
//! Every step is seeded and order-independent (integer sums, fixed
//! reduction order), so a model built twice from the same inputs is
//! identical and downstream plans are reproducible.

use crate::scratch::{RowScratch, ScratchPool};
use rayon::prelude::*;
use sparse::{CsrMatrix, CsrView};

/// Rows per parallel work item in the flat-blocked host passes: this
/// module's, the phase engine's row analysis and the CPU kernel's row
/// chunks. Row ranges at or below one block run serially — forking
/// tasks for a few hundred rows costs more than it saves.
pub const ROW_BLOCK: usize = 256;

/// Flop-magnitude group bounds, matching the magnitude binning spECK
/// performs host-side: a row with flop count `f` goes to the first
/// group with `f <= bound` ([`EstModel::group_of`]). The phase engine
/// groups its kernels by the same bins, so a model group maps onto a
/// kernel group.
pub const GROUP_BOUNDS: [u64; 4] = [64, 1024, 16384, u64::MAX];

/// Number of flop-magnitude groups.
pub const NUM_GROUPS: usize = GROUP_BOUNDS.len();

/// Default fraction of each row group the sampling estimators measure.
pub const DEFAULT_SAMPLE_RATE: f64 = 0.05;

/// Default multiplicative safety margin on speculative allocations.
pub const DEFAULT_HEADROOM: f64 = 1.5;

/// Default PRNG seed for the stratified sample.
pub const DEFAULT_SEED: u64 = 0x5EED_CAFE;

/// Minimum rows sampled per non-empty group (below this the whole group
/// is measured).
const MIN_SAMPLES: usize = 8;

/// Which `nnz(C)` estimator sizes plans and speculative allocations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EstimatorKind {
    /// No estimation: exact symbolic counting everywhere (the paper's
    /// baseline and the bit-identical oracle).
    Exact,
    /// The worst-case bound `min(flops/2, width)` — never overflows,
    /// but over-allocates by the compression ratio.
    UpperBound,
    /// Stratified row sample with *exact* symbolic counting on the
    /// sampled rows (the default).
    #[default]
    RowSample,
}

impl EstimatorKind {
    /// Stable lower-case name (CLI flag values, metrics, reports).
    pub fn name(self) -> &'static str {
        match self {
            EstimatorKind::Exact => "exact",
            EstimatorKind::UpperBound => "upper-bound",
            EstimatorKind::RowSample => "row-sample",
        }
    }
}

impl std::str::FromStr for EstimatorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(EstimatorKind::Exact),
            "upper-bound" => Ok(EstimatorKind::UpperBound),
            "row-sample" => Ok(EstimatorKind::RowSample),
            other => Err(format!(
                "unknown estimator '{other}' (exact|upper-bound|row-sample)"
            )),
        }
    }
}

/// Configuration of the estimation engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EstimateConfig {
    /// Which estimator to run.
    pub kind: EstimatorKind,
    /// Fraction of each row group to sample, in `(0, 1]`.
    pub sample_rate: f64,
    /// Multiplicative safety margin applied to every row estimate.
    /// Values below 1 deliberately under-allocate (recovery tests).
    pub headroom: f64,
    /// Seed for the stratified-sample PRNG.
    pub seed: u64,
}

impl Default for EstimateConfig {
    fn default() -> Self {
        EstimateConfig {
            kind: EstimatorKind::default(),
            sample_rate: DEFAULT_SAMPLE_RATE,
            headroom: DEFAULT_HEADROOM,
            seed: DEFAULT_SEED,
        }
    }
}

impl EstimateConfig {
    /// Exact-symbolic configuration (estimation disabled).
    pub fn exact() -> Self {
        EstimateConfig {
            kind: EstimatorKind::Exact,
            ..Self::default()
        }
    }
}

/// The distilled estimator: per-group compression ratios plus a safety
/// margin. Small and `Copy`. The planner builds one over the whole
/// product to size the grid; each speculative chunk builds its own
/// over its panels, because compression depends on the column panel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EstModel {
    /// Which estimator built this model.
    pub kind: EstimatorKind,
    /// Predicted `nnz / flops` per flop-magnitude group.
    pub ratios: [f64; NUM_GROUPS],
    /// Safety margin multiplied into every row estimate.
    pub headroom: f64,
    /// Rows actually measured while building the model.
    pub sampled_rows: usize,
    /// Total flops of the measured rows.
    pub sampled_flops: u64,
    /// Total output nonzeros measured.
    pub sampled_nnz: u64,
}

/// The worst-case ratio: `nnz = flops / 2` (every product distinct).
const BOUND_RATIO: f64 = 0.5;

impl EstModel {
    /// The fallback model: worst-case upper bound in every group. Never
    /// under-predicts, so speculative runs with this model cannot
    /// overflow.
    pub fn upper_bound() -> Self {
        EstModel {
            kind: EstimatorKind::UpperBound,
            ratios: [BOUND_RATIO; NUM_GROUPS],
            headroom: 1.0,
            sampled_rows: 0,
            sampled_flops: 0,
            sampled_nnz: 0,
        }
    }

    /// Flop-magnitude group of a row costing `flops`.
    #[inline]
    pub fn group_of(flops: u64) -> usize {
        GROUP_BOUNDS
            .iter()
            .position(|&b| flops <= b)
            .expect("last bound is u64::MAX")
    }

    /// Predicted output size of a row costing `flops` in a panel
    /// `width` columns wide.
    ///
    /// Clamped to `[1, min(flops/2, width)]` for productive rows: the
    /// ceiling is the worst-case bound (estimates never exceed what
    /// exact symbolic counting could report), and the floor of 1
    /// matters for correctness — a productive row always has at least
    /// one output entry, and downstream grouping drops zero-size rows
    /// entirely.
    #[inline]
    pub fn row_estimate(&self, flops: u64, width: usize) -> usize {
        if flops == 0 {
            return 0;
        }
        let cap = ((flops / 2) as usize).min(width).max(1);
        let g = Self::group_of(flops);
        let raw = (flops as f64 * self.ratios[g] * self.headroom).ceil();
        if !raw.is_finite() || raw >= cap as f64 {
            cap
        } else {
            (raw as usize).max(1)
        }
    }

    /// Per-row estimates for every row of `a * b` — the estimated
    /// analogue of `sparse::stats::symbolic_row_nnz`, computed in O(1)
    /// per row from precomputed flop counts. Parallel over flat
    /// [`ROW_BLOCK`] blocks above the threshold.
    pub fn estimate_rows(&self, row_flops: &[u64], width: usize) -> Vec<usize> {
        let n = row_flops.len();
        let mut out = vec![0usize; n];
        if n <= ROW_BLOCK {
            for (slot, &f) in out.iter_mut().zip(row_flops) {
                *slot = self.row_estimate(f, width);
            }
        } else {
            out.par_chunks_mut(ROW_BLOCK)
                .zip(row_flops.par_chunks(ROW_BLOCK))
                .for_each(|(chunk, flops)| {
                    for (slot, &f) in chunk.iter_mut().zip(flops) {
                        *slot = self.row_estimate(f, width);
                    }
                });
        }
        out
    }

    /// Predicted total `nnz(C)` from per-row flop counts.
    pub fn total_estimate(&self, row_flops: &[u64], width: usize) -> u64 {
        self.estimate_rows(row_flops, width)
            .iter()
            .map(|&n| n as u64)
            .sum()
    }
}

/// Builds the estimation model for `C = a * b` per `cfg`.
///
/// [`EstimatorKind::Exact`] and [`EstimatorKind::UpperBound`] return
/// the worst-case model (no sampling pass); [`EstimatorKind::RowSample`]
/// runs a deterministic stratified sample over flop-magnitude groups.
/// Computes every row's flops and delegates to
/// [`build_model_from_flops`] with a private scratch pool.
pub fn build_model(a: &CsrView<'_>, b: &CsrMatrix, cfg: &EstimateConfig) -> EstModel {
    assert_eq!(a.n_cols(), b.n_rows(), "inner dimensions must agree");
    let row_flops: Vec<u64> = (0..a.n_rows())
        .map(|r| {
            2 * a
                .row_cols(r)
                .iter()
                .map(|&k| b.row_nnz(k as usize) as u64)
                .sum::<u64>()
        })
        .collect();
    build_model_from_flops(a, b, &row_flops, cfg, &ScratchPool::new())
}

/// [`build_model`] from precomputed per-row flops (`2 · Σ nnz(B_k*)`
/// for each row of `a`, as row analysis computes them), measuring the
/// sampled rows with scratch leased from `pool`.
///
/// This is the one sampler: the planner calls it on all of `A` and `B`
/// to size the grid, and every speculative chunk calls it on its own A
/// row panel and B column panel, so a chunk's allocation follows the
/// compression of the panels it actually multiplies. Pooling only
/// changes allocation reuse; the model is a pure function of the
/// operands, the flops and `cfg`.
pub fn build_model_from_flops(
    a: &CsrView<'_>,
    b: &CsrMatrix,
    row_flops: &[u64],
    cfg: &EstimateConfig,
    pool: &ScratchPool,
) -> EstModel {
    assert_eq!(a.n_cols(), b.n_rows(), "inner dimensions must agree");
    assert_eq!(row_flops.len(), a.n_rows(), "one flop count per row");
    match cfg.kind {
        EstimatorKind::Exact | EstimatorKind::UpperBound => EstModel {
            headroom: 1.0,
            ..EstModel::upper_bound()
        },
        EstimatorKind::RowSample => sample_model(a, b, row_flops, cfg, pool),
    }
}

/// SplitMix64 — the standard 64-bit finalizer; tiny, seedable, and good
/// enough for sample-slot jitter. Inlined here so the library needs no
/// PRNG dependency.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic stratified sample of `len` items: `k` slots of
/// near-equal size, one seeded pick per slot. Returns ascending,
/// distinct indices into `0..len`.
fn stratified_indices(len: usize, rate: f64, seed: u64, salt: u64) -> Vec<usize> {
    if len == 0 {
        return Vec::new();
    }
    let want = (rate * len as f64).ceil() as usize;
    let k = want.clamp(MIN_SAMPLES.min(len), len);
    (0..k)
        .map(|i| {
            let lo = i * len / k;
            let hi = ((i + 1) * len / k).max(lo + 1);
            lo + (splitmix64(seed ^ salt.wrapping_mul(0x9E37).wrapping_add(i as u64))
                % (hi - lo) as u64) as usize
        })
        .collect()
}

fn sample_model(
    a: &CsrView<'_>,
    b: &CsrMatrix,
    row_flops: &[u64],
    cfg: &EstimateConfig,
    pool: &ScratchPool,
) -> EstModel {
    let width = b.n_cols();
    // Bin rows by flop magnitude (zero-flop rows contribute nothing).
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); NUM_GROUPS];
    for (r, &flops) in row_flops.iter().enumerate() {
        if flops > 0 {
            groups[EstModel::group_of(flops)].push(r as u32);
        }
    }

    let mut ratios = [BOUND_RATIO; NUM_GROUPS];
    let mut sampled_rows = 0usize;
    let mut sampled_flops = 0u64;
    let mut sampled_nnz = 0u64;

    for (g, rows) in groups.iter().enumerate() {
        let picks = stratified_indices(rows.len(), cfg.sample_rate, cfg.seed, g as u64);
        // Measure sampled rows in parallel; the sums below are integer
        // sums, so the result is deterministic.
        let nnz: Vec<u64> = picks
            .par_iter()
            .map(|&i| pool.with(|s| exact_row_nnz(s, a, b, rows[i] as usize, width)) as u64)
            .collect();
        let group_flops: u64 = picks.iter().map(|&i| row_flops[rows[i] as usize]).sum();
        let group_nnz: u64 = nnz.iter().sum();
        sampled_rows += picks.len();
        sampled_flops += group_flops;
        sampled_nnz += group_nnz;
        if group_flops == 0 {
            continue;
        }
        // Flop-weighted ratio from integer sums: deterministic and
        // robust to a few tiny rows.
        ratios[g] = (group_nnz as f64 / group_flops as f64).min(BOUND_RATIO);
    }

    EstModel {
        kind: cfg.kind,
        ratios,
        headroom: cfg.headroom,
        sampled_rows,
        sampled_flops,
        sampled_nnz,
    }
}

/// Exact distinct-column count of one output row (the symbolic kernel,
/// applied to a single sampled row).
fn exact_row_nnz(
    scratch: &mut RowScratch,
    a: &CsrView<'_>,
    b: &CsrMatrix,
    r: usize,
    width: usize,
) -> usize {
    scratch.count_row(
        a.row_cols(r)
            .iter()
            .flat_map(|&k| b.row_cols(k as usize).iter().copied()),
        width,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen::{erdos_renyi, grid2d_stencil, rmat, RmatConfig};
    use sparse::partition::col::{even_col_ranges, ColPartitioner};
    use sparse::stats::{row_flops, symbolic_row_nnz};

    /// The worst-case bound on every row of `a · b`.
    fn upper_bounds(a: &CsrMatrix, b: &CsrMatrix) -> Vec<usize> {
        EstModel::upper_bound().estimate_rows(&row_flops(a, b), b.n_cols())
    }

    #[test]
    fn bound_dominates_actual_nnz() {
        let a = erdos_renyi(60, 60, 0.08, 3);
        let bounds = upper_bounds(&a, &a);
        let actual = symbolic_row_nnz(&a, &a);
        for (r, (&bound, &act)) in bounds.iter().zip(&actual).enumerate() {
            assert!(bound >= act, "row {r}: bound {bound} < actual {act}");
        }
    }

    #[test]
    fn bound_is_loose_for_overlapping_rows() {
        // Stencil matrix: heavy neighborhood overlap, bound far above
        // actual — the paper's argument for pooled allocation.
        let a = grid2d_stencil(20, 20, 2, 5);
        let total_bound: usize = upper_bounds(&a, &a).iter().sum();
        let actual: usize = symbolic_row_nnz(&a, &a).iter().sum();
        assert!(
            total_bound as f64 > 2.0 * actual as f64,
            "expected a loose bound: {total_bound} vs {actual}"
        );
    }

    #[test]
    fn bound_clamps_at_matrix_width() {
        let a = erdos_renyi(20, 20, 0.9, 5);
        for &b in &upper_bounds(&a, &a) {
            assert!(b <= 20);
        }
    }

    #[test]
    fn identity_bound_is_exact() {
        let i = CsrMatrix::identity(10);
        assert_eq!(upper_bounds(&i, &i), vec![1; 10]);
    }

    #[test]
    fn model_is_deterministic() {
        let a = rmat(RmatConfig::skewed(9, 6_000), 7);
        let v = CsrView::of(&a);
        let cfg = EstimateConfig::default();
        let m1 = build_model(&v, &a, &cfg);
        let m2 = build_model(&v, &a, &cfg);
        assert_eq!(m1, m2, "the model must be reproducible");
    }

    #[test]
    fn flops_based_sampler_equals_build_model() {
        // The planner and every speculative chunk hand the sampler
        // their own row flops and scratch pool; the model must be the
        // one `build_model` computes from the operands alone, on the
        // whole matrix and on a row panel against a column panel.
        let a = rmat(RmatConfig::skewed(9, 6_000), 5);
        let panel = CsrView::rows(&a, 100, 400);
        let cols = even_col_ranges(&a, 3);
        let panels = ColPartitioner::Cursor.partition(&a, &cols);
        let b_panel = &panels[1].matrix;
        let pool = ScratchPool::new();
        let cfg = EstimateConfig::default();
        for (v, b) in [(CsrView::of(&a), &a), (panel, b_panel)] {
            let flops: Vec<u64> = (0..v.n_rows())
                .map(|r| {
                    2 * v
                        .row_cols(r)
                        .iter()
                        .map(|&k| b.row_nnz(k as usize) as u64)
                        .sum::<u64>()
                })
                .collect();
            let from_flops = build_model_from_flops(&v, b, &flops, &cfg, &pool);
            assert_eq!(from_flops, build_model(&v, b, &cfg));
            assert!(from_flops.sampled_rows > 0);
        }
    }

    #[test]
    fn different_seeds_give_different_samples() {
        let a = rmat(RmatConfig::skewed(9, 6_000), 7);
        let v = CsrView::of(&a);
        let m1 = build_model(&v, &a, &EstimateConfig::default());
        let m2 = build_model(
            &v,
            &a,
            &EstimateConfig {
                seed: DEFAULT_SEED ^ 1,
                ..EstimateConfig::default()
            },
        );
        // Same sample sizes, (almost surely) different sampled rows.
        assert_eq!(m1.sampled_rows, m2.sampled_rows);
        assert_ne!(
            (m1.sampled_flops, m1.sampled_nnz),
            (m2.sampled_flops, m2.sampled_nnz)
        );
    }

    #[test]
    fn estimates_never_exceed_bound_and_cover_productive_rows() {
        let a = grid2d_stencil(24, 24, 2, 3);
        let v = CsrView::of(&a);
        let model = build_model(&v, &a, &EstimateConfig::default());
        let flops = row_flops(&a, &a);
        let bounds = upper_bounds(&a, &a);
        for (r, (&f, &bound)) in flops.iter().zip(&bounds).enumerate() {
            let est = model.row_estimate(f, a.n_cols());
            assert!(est <= bound, "row {r}: est {est} above bound {bound}");
            if f > 0 {
                assert!(est >= 1, "row {r}: productive row estimated empty");
            } else {
                assert_eq!(est, 0);
            }
        }
    }

    #[test]
    fn upper_bound_model_never_under_predicts() {
        let a = erdos_renyi(300, 300, 0.05, 5);
        let model = EstModel::upper_bound();
        let flops = row_flops(&a, &a);
        let actual = symbolic_row_nnz(&a, &a);
        for ((&f, &act), r) in flops.iter().zip(&actual).zip(0..) {
            let est = model.row_estimate(f, a.n_cols());
            assert!(est >= act, "row {r}: bound model {est} < actual {act}");
        }
    }

    #[test]
    fn sampled_models_track_actual_total() {
        // The estimate should land within a factor of ~2 of the truth on
        // a structured matrix — far tighter than the worst-case bound.
        let a = grid2d_stencil(40, 40, 2, 3);
        let v = CsrView::of(&a);
        let flops = row_flops(&a, &a);
        let actual: u64 = symbolic_row_nnz(&a, &a).iter().map(|&n| n as u64).sum();
        let bound: u64 = upper_bounds(&a, &a).iter().map(|&n| n as u64).sum();
        let model = build_model(
            &v,
            &a,
            &EstimateConfig {
                headroom: 1.0,
                ..EstimateConfig::default()
            },
        );
        let est = model.total_estimate(&flops, a.n_cols());
        assert!(
            est as f64 >= actual as f64 * 0.5 && est as f64 <= actual as f64 * 2.0,
            "est {est} vs actual {actual}"
        );
        assert!(est < bound, "estimate no better than the bound");
    }

    #[test]
    fn headroom_scales_estimates() {
        let a = erdos_renyi(400, 400, 0.03, 9);
        let v = CsrView::of(&a);
        let flops = row_flops(&a, &a);
        let lo = build_model(
            &v,
            &a,
            &EstimateConfig {
                headroom: 0.5,
                ..EstimateConfig::default()
            },
        );
        let hi = build_model(
            &v,
            &a,
            &EstimateConfig {
                headroom: 2.0,
                ..EstimateConfig::default()
            },
        );
        assert!(lo.total_estimate(&flops, a.n_cols()) < hi.total_estimate(&flops, a.n_cols()));
    }

    #[test]
    fn estimate_rows_parallel_matches_serial() {
        let a = rmat(RmatConfig::skewed(10, 9_000), 3);
        let v = CsrView::of(&a);
        let model = build_model(&v, &a, &EstimateConfig::default());
        let flops = row_flops(&a, &a);
        assert!(flops.len() > ROW_BLOCK);
        let serial: Vec<usize> = flops
            .iter()
            .map(|&f| model.row_estimate(f, a.n_cols()))
            .collect();
        assert_eq!(model.estimate_rows(&flops, a.n_cols()), serial);
    }

    #[test]
    fn estimator_kind_round_trips_names() {
        for kind in [
            EstimatorKind::Exact,
            EstimatorKind::UpperBound,
            EstimatorKind::RowSample,
        ] {
            assert_eq!(kind.name().parse::<EstimatorKind>().unwrap(), kind);
        }
        assert!("speck".parse::<EstimatorKind>().is_err());
        // A stale name of the removed bitmap-sketch sampler must fail,
        // not fall back to another estimator.
        assert!("hash-sketch".parse::<EstimatorKind>().is_err());
    }
}
