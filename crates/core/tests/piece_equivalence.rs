//! Pins the re-split piece derivation to chunk preparation: for any
//! input, panel grid and row range of a chunk, the descriptor that
//! recovery derives from the parent's product
//! (`PreparedGrid::describe_piece`, no kernel call) must equal
//! `phases::prepare_chunk` of the piece's own job field by field —
//! both row groupings, flops, nnz, the compression ratio's bits, every
//! byte size and `spec == None` — and the parent's offsets slice
//! (`PreparedGrid::piece_offsets`), rebased, must equal the piece
//! product's offsets. The piece product itself is the parent's rows,
//! bit for bit, which is why recovery never changes C.
//!
//! Grids with one column panel take the row flops from the planner's
//! prefix; the others run row analysis on the piece's panel.

use gpu_spgemm::{phases, ChunkJob};
use oocgemm::{prepare_grid, ChunkId, EstimateConfig, OocConfig, PreparedGrid};
use proptest::prelude::*;
use sparse::{CooMatrix, CsrMatrix, CsrView};
use std::ops::Range;

fn bits(m: &CsrMatrix) -> Vec<u64> {
    m.values().iter().map(|v| v.to_bits()).collect()
}

/// Piece `rows` (global) of chunk `id` against the sub-job oracle.
fn check_piece(
    pg: &PreparedGrid,
    a: &CsrMatrix,
    id: ChunkId,
    rows: Range<usize>,
    pool: &accum::ScratchPool,
    fraction: f64,
) {
    let ctx = format!("chunk ({},{}) rows {rows:?}", id.row, id.col);
    let got = pg.describe_piece(a, id, rows.clone(), 77, pool);
    let expect = phases::prepare_chunk(ChunkJob {
        a_panel: CsrView::rows(a, rows.start, rows.end),
        b_panel: &pg.col_panels[id.col].matrix,
        chunk_id: 77,
    });
    assert_eq!(got, expect.desc, "{ctx}: descriptor");
    assert_eq!(
        got.compression_ratio.to_bits(),
        expect.desc.compression_ratio.to_bits(),
        "{ctx}: compression ratio bits"
    );
    assert!(got.spec.is_none(), "{ctx}: pieces run the exact schedule");

    let offsets = pg.piece_offsets(id, &rows);
    let rebased: Vec<usize> = offsets.iter().map(|&o| o - offsets[0]).collect();
    assert_eq!(rebased, expect.result.row_offsets(), "{ctx}: offsets");
    assert_eq!(
        got.split_output_bytes(offsets, fraction),
        (expect.desc).split_output_bytes(expect.result.row_offsets(), fraction),
        "{ctx}: output transfer split"
    );

    let base = pg.plan.row_ranges[id.row].start;
    let parent = &pg.chunk(id).result;
    let rows_of_parent = parent.slice_rows(rows.start - base, rows.end - base);
    rows_of_parent.validate().expect("a row slice is valid CSR");
    assert_eq!(rows_of_parent.col_ids(), expect.result.col_ids(), "{ctx}");
    assert_eq!(bits(&rows_of_parent), bits(&expect.result), "{ctx}: values");
}

/// Walks every chunk of the grid through nested random splits: each
/// cut splits the current range at `point % (len + 1)` (empty pieces
/// included), checks both sides, and descends into one of them, so
/// later cuts describe pieces of pieces down to single rows.
fn check_grid(a: &CsrMatrix, b: &CsrMatrix, cfg: &OocConfig, cuts: &[(usize, bool, f64)]) {
    let pg = prepare_grid(a, b, cfg).expect("grid");
    // One warm pool across every piece, as recovery keeps one per run.
    let pool = accum::ScratchPool::new();
    for info in pg.grid.natural_order() {
        let id = info.id;
        let mut range = pg.plan.row_ranges[id.row].clone();
        check_piece(&pg, a, id, range.clone(), &pool, 0.33);
        for &(point, left, fraction) in cuts {
            let mid = range.start + point % (range.len() + 1);
            let (lo, hi) = (range.start..mid, mid..range.end);
            check_piece(&pg, a, id, lo.clone(), &pool, fraction);
            check_piece(&pg, a, id, hi.clone(), &pool, fraction);
            range = if left { lo } else { hi };
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

#[test]
fn empty_and_all_zero_rows_derive_like_prepared_pieces() {
    let cuts = [
        (0, false, 0.5),
        (1, true, 0.0),
        (7, false, 1.0),
        (3, true, 0.33),
    ];
    let z = CsrMatrix::zeros(40, 30);
    let zb = CsrMatrix::zeros(30, 20);
    check_grid(
        &z,
        &zb,
        &OocConfig::with_device_memory(64 << 20).panels(2, 2),
        &cuts,
    );
    // Empty rows interleaved with a few dense ones, on both prefix
    // (one column panel) and row-analysis grids.
    let mut coo = CooMatrix::new(60, 60);
    for j in 0..40 {
        coo.push(7, j, 1.5).unwrap();
        coo.push(31, j, -0.25).unwrap();
    }
    coo.push(59, 0, 2.0).unwrap();
    let m = coo.to_csr();
    for (r, c) in [(3, 1), (2, 3)] {
        check_grid(
            &m,
            &m,
            &OocConfig::with_device_memory(64 << 20).panels(r, c),
            &cuts,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn derived_pieces_equal_prepared_sub_jobs(
        a in arb_matrix(60, 300),
        k in prop::collection::vec((0usize..60, 0usize..50, -4.0f64..4.0), 1..300),
        row_panels in 1usize..4,
        col_panels in 1usize..4,
        speculative in any::<bool>(),
        cuts in prop::collection::vec((0usize..64, any::<bool>(), -0.5f64..1.5), 1..6),
    ) {
        let mut coo = CooMatrix::new(a.n_cols(), 50);
        for (i, j, v) in k {
            if i < a.n_cols() {
                coo.push(i, j, v).unwrap();
            }
        }
        let b = coo.to_csr();
        let cfg = OocConfig::with_device_memory(64 << 20).panels(row_panels, col_panels);
        let cfg = if speculative { cfg } else { cfg.estimator(EstimateConfig::exact()) };
        check_grid(&a, &b, &cfg, &cuts);
    }
}
