//! Pins grid preparation to an independent, serial oracle: for any
//! input and panel grid, chunk `i` of `prepare_grid` (row-major) must
//! hold the sequential reference product of its panels
//! (`reference::multiply` on the A row panel times the B column panel)
//! **bit for bit**, and descriptors rebuilt from the `sparse::stats`
//! row counts: both row groupings, flops, nnz, the compression ratio,
//! and every byte size.
//!
//! Why the product can match exactly (DESIGN.md §11): chunk content is
//! a pure function of its panels; every accumulator adds a column's
//! products in the same order as Gustavson's loop (`k` ascending over
//! A's row); hash flushes sort distinct columns, so pooled table
//! capacity is invisible; and dense scratch is generation-stamped, so
//! reuse across panels of different widths is invisible — which the
//! warm-pool test below checks on `spec` too.

use cpu_spgemm::reference;
use gpu_spgemm::{ChunkProduct, NumericGroups, RowGroups};
use oocgemm::{prepare_grid, prepare_grid_pooled, OocConfig, PreparedGrid};
use proptest::prelude::*;
use sparse::gen::{erdos_renyi, grid2d_stencil, rmat, RmatConfig};
use sparse::{stats, CooMatrix, CsrMatrix};

fn bits(m: &CsrMatrix) -> Vec<u64> {
    m.values().iter().map(|v| v.to_bits()).collect()
}

/// Chunk `got` against the oracle for the product of `a_panel` and
/// `b_panel`.
fn assert_chunk_matches_oracle(
    chunk: &ChunkProduct,
    a_panel: &CsrMatrix,
    b_panel: &CsrMatrix,
    ctx: &str,
) {
    let (got, result) = (&chunk.desc, &chunk.result);
    let expect = reference::multiply(a_panel, b_panel).expect("panels agree");
    assert_eq!(result.row_offsets(), expect.row_offsets(), "{ctx}: offsets");
    assert_eq!(result.col_ids(), expect.col_ids(), "{ctx}: cols");
    assert_eq!(
        bits(result),
        bits(&expect),
        "{ctx}: values must be bit-identical"
    );

    let row_flops = stats::row_flops(a_panel, b_panel);
    let row_nnz = stats::symbolic_row_nnz(a_panel, b_panel);
    let flops: u64 = row_flops.iter().sum();
    let nnz = row_nnz.iter().sum::<usize>() as u64;
    let rows = a_panel.n_rows() as u64;
    assert_eq!(
        got.groups,
        RowGroups::from_row_flops(&row_flops),
        "{ctx}: row groups"
    );
    assert_eq!(
        got.numeric_groups,
        NumericGroups::from_row_nnz(&row_nnz, &row_flops),
        "{ctx}: numeric groups"
    );
    assert_eq!(got.flops, flops, "{ctx}: flops");
    assert_eq!(got.nnz, nnz, "{ctx}: nnz");
    let ratio = if nnz == 0 {
        1.0
    } else {
        flops as f64 / nnz as f64
    };
    assert_eq!(
        got.compression_ratio.to_bits(),
        ratio.to_bits(),
        "{ctx}: compression ratio"
    );
    assert_eq!(got.rows as u64, rows, "{ctx}: rows");
    assert_eq!(got.a_nnz, a_panel.nnz() as u64, "{ctx}: a_nnz");
    assert_eq!(
        got.a_bytes,
        a_panel.storage_bytes() as u64,
        "{ctx}: a_bytes"
    );
    assert_eq!(
        got.b_bytes,
        b_panel.storage_bytes() as u64,
        "{ctx}: b_bytes"
    );
    assert_eq!(got.row_info_bytes, rows * 8, "{ctx}: row_info");
    assert_eq!(got.row_nnz_bytes, rows * 8, "{ctx}: row_nnz");
    assert_eq!(got.out_bytes, nnz * 12 + (rows + 1) * 8, "{ctx}: out_bytes");
}

fn assert_grid_matches_oracle(pg: &PreparedGrid, a: &CsrMatrix) {
    let k_c = pg.plan.col_panels();
    assert_eq!(pg.prepared.len(), pg.plan.row_ranges.len() * k_c);
    for (i, chunk) in pg.prepared.iter().enumerate() {
        let range = &pg.plan.row_ranges[i / k_c];
        let a_panel = a.slice_rows(range.start, range.end);
        let b_panel = &pg.col_panels[i % k_c].matrix;
        assert_eq!(chunk.desc.chunk_id, i, "chunk {i}: chunk_id");
        assert_chunk_matches_oracle(chunk, &a_panel, b_panel, &format!("chunk {i}"));
    }
}

fn config(row_panels: usize, col_panels: usize) -> OocConfig {
    OocConfig::with_device_memory(64 << 20).panels(row_panels, col_panels)
}

fn check(a: &CsrMatrix, b: &CsrMatrix, row_panels: usize, col_panels: usize) {
    let pg = prepare_grid(a, b, &config(row_panels, col_panels)).expect("grid");
    assert_grid_matches_oracle(&pg, a);
}

#[test]
fn generators_match_serial_across_panel_grids() {
    let rm = rmat(RmatConfig::skewed(9, 6000), 11);
    let er = erdos_renyi(500, 400, 0.02, 3);
    let er_b = erdos_renyi(400, 350, 0.02, 4);
    let st = grid2d_stencil(24, 24, 2, 5);
    // Includes single-column-panel grids, which exercise the cached
    // flop-prefix fast path.
    check(&rm, &rm, 2, 3);
    check(&rm, &rm, 3, 1);
    check(&er, &er_b, 1, 2);
    check(&er, &er_b, 2, 1);
    check(&st, &st, 1, 1);
}

#[test]
fn degenerate_shapes_match_serial() {
    // All-zero matrices: every chunk is empty with ratio 1.0.
    let z = CsrMatrix::zeros(40, 30);
    let zb = CsrMatrix::zeros(30, 20);
    check(&z, &zb, 2, 2);
    // Empty rows interleaved with a few dense ones.
    let mut coo = CooMatrix::new(60, 60);
    for j in 0..40 {
        coo.push(7, j, 1.5).unwrap();
        coo.push(31, j, -0.25).unwrap();
    }
    coo.push(59, 0, 2.0).unwrap();
    let sparse_rows = coo.to_csr();
    check(&sparse_rows, &sparse_rows, 3, 2);
    check(&sparse_rows, &sparse_rows, 2, 1);
}

#[test]
fn warm_pool_across_widths_changes_no_field() {
    // The service's use: one long-lived pool prepares products of
    // different widths in turn. Each grid must equal a cold-pool
    // preparation in every field, the speculative descriptor included.
    let rm = rmat(RmatConfig::skewed(10, 12000), 5);
    let er = erdos_renyi(1024, 700, 0.01, 6);
    let st = grid2d_stencil(20, 20, 2, 7);
    let jobs = [(&rm, &rm, 2, 2), (&rm, &er, 1, 3), (&st, &st, 2, 1)];
    let pool = accum::ScratchPool::new();
    for _ in 0..2 {
        for &(a, b, r, c) in &jobs {
            let cfg = config(r, c);
            let warm = prepare_grid_pooled(a, b, &cfg, &pool).expect("warm grid");
            let cold = prepare_grid(a, b, &cfg).expect("cold grid");
            assert!(warm.estimator.is_some(), "the default config speculates");
            assert_eq!(warm.plan.row_ranges, cold.plan.row_ranges);
            assert_eq!(warm.plan.col_ranges, cold.plan.col_ranges);
            assert_eq!(warm.prepared.len(), cold.prepared.len());
            for (wp, cp) in warm.prepared.iter().zip(&cold.prepared) {
                let (w, c) = (&wp.desc, &cp.desc);
                let ctx = format!("chunk {}", w.chunk_id);
                assert_eq!(w.chunk_id, c.chunk_id, "{ctx}");
                assert_eq!(wp.result.row_offsets(), cp.result.row_offsets(), "{ctx}");
                assert_eq!(wp.result.col_ids(), cp.result.col_ids(), "{ctx}");
                assert_eq!(bits(&wp.result), bits(&cp.result), "{ctx}");
                assert_eq!(w.groups, c.groups, "{ctx}");
                assert_eq!(w.numeric_groups, c.numeric_groups, "{ctx}");
                assert_eq!(w.flops, c.flops, "{ctx}");
                assert_eq!(w.nnz, c.nnz, "{ctx}");
                assert_eq!(
                    w.compression_ratio.to_bits(),
                    c.compression_ratio.to_bits(),
                    "{ctx}"
                );
                assert_eq!(w.device_bytes(), c.device_bytes(), "{ctx}");
                assert_eq!(w.spec, c.spec, "{ctx}: spec");
                assert!(w.spec.is_some(), "{ctx}: spec attached");
            }
            assert_grid_matches_oracle(&warm, a);
        }
    }
}

fn arb_matrix(max_n: usize, max_entries: usize) -> impl Strategy<Value = CsrMatrix> {
    (4..=max_n, 4..=max_n).prop_flat_map(move |(n, m)| {
        prop::collection::vec((0..n, 0..m, -4.0f64..4.0), 1..=max_entries).prop_map(
            move |entries| {
                let mut coo = CooMatrix::new(n, m);
                for (i, j, v) in entries {
                    coo.push(i, j, v).unwrap();
                }
                coo.to_csr()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_products_are_bit_identical(
        a in arb_matrix(60, 400),
        k in prop::collection::vec((0usize..60, 0usize..50, -4.0f64..4.0), 1..300),
        row_panels in 1usize..4,
        col_panels in 1usize..4,
    ) {
        let mut coo = CooMatrix::new(a.n_cols(), 50);
        for (i, j, v) in k {
            if i < a.n_cols() {
                coo.push(i, j, v).unwrap();
            }
        }
        let b = coo.to_csr();
        check(&a, &b, row_panels, col_panels);
    }
}
