//! The chunk grid: every chunk's flops (`GetFlops`, Algorithm 4 lines
//! 6–13) and the flop-descending ordering that drives both the GPU
//! transfer schedule (Section IV-C) and the hybrid assignment.

use crate::plan::PanelPlan;

/// Identifies one output chunk `C[row][col]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChunkId {
    /// Row-panel index.
    pub row: usize,
    /// Column-panel index.
    pub col: usize,
}

/// A chunk plus its analyzed flop count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Which chunk.
    pub id: ChunkId,
    /// `GetFlops(A[row], B[col])` — multiply-add counts as 2.
    pub flops: u64,
}

/// Flop counts for every chunk of a panel plan.
#[derive(Clone, Debug)]
pub struct ChunkGrid {
    row_panels: usize,
    col_panels: usize,
    /// Row-major `[row][col]` flop counts.
    flops: Vec<u64>,
}

impl ChunkGrid {
    /// The grid of `plan`'s chunks from their flops in row-major order
    /// (`flops[r * col_panels + c]`). Chunk preparation computes them:
    /// a chunk's flops are the sum of the row analysis it runs against
    /// its own B panel, `2 · Σ_{i ∈ panel r} Σ_{k ∈ A_i*} nnz(B_c row
    /// k)`. "The overhead of computing the flops of each chunk is really
    /// small compared with SpGEMM computations" (Section III-C).
    pub(crate) fn new(plan: &PanelPlan, flops: Vec<u64>) -> Self {
        assert_eq!(flops.len(), plan.num_chunks(), "one flop count per chunk");
        ChunkGrid {
            row_panels: plan.row_panels(),
            col_panels: plan.col_panels(),
            flops,
        }
    }

    /// Number of row panels.
    pub fn row_panels(&self) -> usize {
        self.row_panels
    }

    /// Number of column panels.
    pub fn col_panels(&self) -> usize {
        self.col_panels
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.flops.len()
    }

    /// True if the grid has no chunks.
    pub fn is_empty(&self) -> bool {
        self.flops.is_empty()
    }

    /// Flops of one chunk.
    pub fn flops_of(&self, id: ChunkId) -> u64 {
        self.flops[id.row * self.col_panels + id.col]
    }

    /// Total flops across all chunks.
    pub fn total_flops(&self) -> u64 {
        self.flops.iter().sum()
    }

    /// All chunks in natural (row-major) grid order — the "default
    /// implementation" order of Fig 9.
    pub fn natural_order(&self) -> Vec<ChunkInfo> {
        (0..self.row_panels)
            .flat_map(|r| (0..self.col_panels).map(move |c| ChunkId { row: r, col: c }))
            .map(|id| ChunkInfo {
                id,
                flops: self.flops_of(id),
            })
            .collect()
    }

    /// All chunks sorted by decreasing flops (ties broken by grid
    /// order, so the ordering is deterministic) — the paper's
    /// reordering (Sections III-C and IV-C).
    pub fn sorted_desc(&self) -> Vec<ChunkInfo> {
        let mut v = self.natural_order();
        v.sort_by_key(|info| (std::cmp::Reverse(info.flops), info.id.row, info.id.col));
        v
    }

    /// Reorders a chunk list so chunks sharing a row panel execute
    /// consecutively, keeping the A panel resident: row panels are
    /// ordered by their densest chunk (descending), and chunks within
    /// a row panel by decreasing flops.
    ///
    /// This is the execution order the async executors use when
    /// reordering is enabled. The paper orders purely by decreasing
    /// flops; at our (smaller) scale a strict global order would
    /// re-transfer the A panel on almost every chunk, so transfers are
    /// kept *mostly* decreasing while panel residency is preserved —
    /// the same trade Algorithm 3's row-major loop makes.
    pub fn grouped_desc(chunks: &[ChunkInfo]) -> Vec<ChunkInfo> {
        let mut row_max: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
        for c in chunks {
            let e = row_max.entry(c.id.row).or_insert(0);
            *e = (*e).max(c.flops);
        }
        let mut rows: Vec<(usize, u64)> = row_max.into_iter().collect();
        rows.sort_by_key(|&(row, max)| (std::cmp::Reverse(max), row));
        let mut out = Vec::with_capacity(chunks.len());
        for (row, _) in rows {
            let mut in_row: Vec<ChunkInfo> =
                chunks.iter().copied().filter(|c| c.id.row == row).collect();
            in_row.sort_by_key(|c| (std::cmp::Reverse(c.flops), c.id.col));
            out.extend(in_row);
        }
        out
    }

    /// Splits an ordered chunk list at the paper's flop ratio: the
    /// smallest prefix holding at least `ratio` of the total flops
    /// (Algorithm 4 lines 16–24). Returns `(gpu_chunks, cpu_chunks)`.
    ///
    /// Out-of-range ratios are clamped to `[0, 1]` and NaN maps to 0
    /// (everything on the CPU) — a NaN must not silently assign the
    /// whole grid to the GPU through a never-true comparison.
    pub fn split_by_ratio(order: &[ChunkInfo], ratio: f64) -> (Vec<ChunkInfo>, Vec<ChunkInfo>) {
        let ratio = if ratio.is_nan() {
            0.0
        } else {
            ratio.clamp(0.0, 1.0)
        };
        let total: u64 = order.iter().map(|c| c.flops).sum();
        if total == 0 || ratio <= 0.0 {
            return (Vec::new(), order.to_vec());
        }
        let mut acc = 0u64;
        let mut num_gpu = order.len();
        for (i, c) in order.iter().enumerate() {
            acc += c.flops;
            if acc as f64 / total as f64 >= ratio {
                num_gpu = i + 1;
                break;
            }
        }
        (order[..num_gpu].to_vec(), order[num_gpu..].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{prepare_grid, PreparedGrid};
    use crate::OocConfig;
    use sparse::gen::erdos_renyi;
    use sparse::stats;
    use sparse::CsrMatrix;

    fn grid_fixture(k_r: usize, k_c: usize) -> (CsrMatrix, PreparedGrid) {
        let a = erdos_renyi(120, 120, 0.06, 9);
        let pg = prepare_grid(&a, &a, &OocConfig::default().panels(k_r, k_c)).unwrap();
        (a, pg)
    }

    #[test]
    fn chunk_flops_sum_to_total() {
        let (a, pg) = grid_fixture(3, 4);
        assert_eq!(pg.grid.total_flops(), stats::total_flops(&a, &a));
        assert_eq!(pg.grid.len(), 12);
    }

    #[test]
    fn chunk_flops_match_direct_computation() {
        let (a, pg) = grid_fixture(2, 3);
        for (r, range) in pg.plan.row_ranges.iter().enumerate() {
            let panel_a = a.slice_rows(range.start, range.end);
            for (c, col_panel) in pg.col_panels.iter().enumerate() {
                let direct = stats::total_flops(&panel_a, &col_panel.matrix);
                let id = ChunkId { row: r, col: c };
                assert_eq!(pg.chunk(id).desc.flops, direct);
                assert_eq!(pg.grid.flops_of(id), direct);
            }
        }
    }

    #[test]
    fn sorted_desc_is_monotone_and_complete() {
        let (_, pg) = grid_fixture(3, 3);
        let grid = pg.grid;
        let sorted = grid.sorted_desc();
        assert_eq!(sorted.len(), 9);
        for w in sorted.windows(2) {
            assert!(w[0].flops >= w[1].flops);
        }
        let natural = grid.natural_order();
        let mut ids: Vec<_> = sorted.iter().map(|c| c.id).collect();
        ids.sort_by_key(|id| (id.row, id.col));
        let nat_ids: Vec<_> = natural.iter().map(|c| c.id).collect();
        assert_eq!(ids, nat_ids);
    }

    #[test]
    fn grouped_desc_keeps_rows_contiguous() {
        let chunks = vec![
            ChunkInfo {
                id: ChunkId { row: 0, col: 0 },
                flops: 10,
            },
            ChunkInfo {
                id: ChunkId { row: 1, col: 0 },
                flops: 100,
            },
            ChunkInfo {
                id: ChunkId { row: 0, col: 1 },
                flops: 50,
            },
            ChunkInfo {
                id: ChunkId { row: 1, col: 1 },
                flops: 5,
            },
            ChunkInfo {
                id: ChunkId { row: 2, col: 0 },
                flops: 60,
            },
        ];
        let g = ChunkGrid::grouped_desc(&chunks);
        assert_eq!(g.len(), 5, "no chunk lost");
        // Rows ordered by their max chunk: row 1 (100), row 2 (60), row 0 (50).
        let rows: Vec<usize> = g.iter().map(|c| c.id.row).collect();
        assert_eq!(rows, vec![1, 1, 2, 0, 0]);
        // Within a row, descending flops.
        assert_eq!(g[0].flops, 100);
        assert_eq!(g[1].flops, 5);
        assert_eq!(g[3].flops, 50);
        assert_eq!(g[4].flops, 10);
        // Empty input.
        assert!(ChunkGrid::grouped_desc(&[]).is_empty());
    }

    #[test]
    fn ratio_split_matches_algorithm4() {
        let chunks = vec![
            ChunkInfo {
                id: ChunkId { row: 0, col: 0 },
                flops: 50,
            },
            ChunkInfo {
                id: ChunkId { row: 0, col: 1 },
                flops: 30,
            },
            ChunkInfo {
                id: ChunkId { row: 1, col: 0 },
                flops: 15,
            },
            ChunkInfo {
                id: ChunkId { row: 1, col: 1 },
                flops: 5,
            },
        ];
        let (gpu, cpu) = ChunkGrid::split_by_ratio(&chunks, 0.65);
        // 50 -> 50%, +30 -> 80% >= 65% -> 2 GPU chunks.
        assert_eq!(gpu.len(), 2);
        assert_eq!(cpu.len(), 2);
        let (gpu, cpu) = ChunkGrid::split_by_ratio(&chunks, 1.0);
        assert_eq!(gpu.len(), 4);
        assert!(cpu.is_empty());
        let (gpu, cpu) = ChunkGrid::split_by_ratio(&chunks, 0.0);
        assert!(gpu.is_empty());
        assert_eq!(cpu.len(), 4);
    }

    #[test]
    fn ratio_split_of_empty_grid() {
        let (gpu, cpu) = ChunkGrid::split_by_ratio(&[], 0.65);
        assert!(gpu.is_empty());
        assert!(cpu.is_empty());
    }

    #[test]
    fn ratio_split_rejects_nan_and_clamps_wild_ratios() {
        let chunks = vec![
            ChunkInfo {
                id: ChunkId { row: 0, col: 0 },
                flops: 50,
            },
            ChunkInfo {
                id: ChunkId { row: 0, col: 1 },
                flops: 30,
            },
        ];
        // NaN used to assign *everything* to the GPU (the prefix
        // comparison never fires); it must mean "no GPU work".
        let (gpu, cpu) = ChunkGrid::split_by_ratio(&chunks, f64::NAN);
        assert!(gpu.is_empty());
        assert_eq!(cpu.len(), 2);
        // Out-of-range ratios clamp to the endpoints.
        let (gpu, cpu) = ChunkGrid::split_by_ratio(&chunks, 7.5);
        assert_eq!(gpu.len(), 2);
        assert!(cpu.is_empty());
        let (gpu, cpu) = ChunkGrid::split_by_ratio(&chunks, -3.0);
        assert!(gpu.is_empty());
        assert_eq!(cpu.len(), 2);
        let (gpu, cpu) = ChunkGrid::split_by_ratio(&chunks, f64::NEG_INFINITY);
        assert!(gpu.is_empty());
        assert_eq!(cpu.len(), 2);
        let (gpu, cpu) = ChunkGrid::split_by_ratio(&chunks, f64::INFINITY);
        assert_eq!(gpu.len(), 2);
        assert!(cpu.is_empty());
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Satellite: the two halves always partition the input exactly
        /// — same chunks, same order, nothing lost or duplicated — for
        /// any ratio including NaN and out-of-range values.
        #[test]
        fn ratio_split_partitions_exactly(
            ratio in -2.0f64..3.0,
            n in 0usize..20,
            seed in any::<u64>(),
        ) {
            // Deterministic pseudo-random flops from the seed.
            let mut s = seed;
            let mut next = move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                s >> 33
            };
            let chunks: Vec<ChunkInfo> = (0..n)
                .map(|i| ChunkInfo {
                    id: ChunkId { row: i / 4, col: i % 4 },
                    flops: next() % 1000,
                })
                .collect();
            for r in [ratio, f64::NAN] {
                let (gpu, cpu) = ChunkGrid::split_by_ratio(&chunks, r);
                let mut joined = gpu.clone();
                joined.extend(cpu.iter().copied());
                prop_assert_eq!(&joined, &chunks);
            }
        }
    }
}
