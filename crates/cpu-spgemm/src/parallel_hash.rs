//! Multicore two-phase hash SpGEMM — the paper's CPU baseline
//! (Nagasaka et al., "the hashmap implementation available from them",
//! Section III-C), and the one host kernel every executor uses to
//! compute a product or a chunk's product.
//!
//! Structure:
//!
//! 1. **Symbolic phase** — parallel over fixed 256-row blocks
//!    ([`accum::estimate::ROW_BLOCK`]): small enough to balance skewed
//!    matrices, large enough to amortize accumulator setup;
//!    each worker keeps a reusable counter (dense stamps for narrow
//!    outputs, hash set otherwise) and produces exact `nnz(C_i*)`.
//! 2. **Exact allocation** — prefix sum of row sizes.
//! 3. **Numeric phase** — parallel fill into disjoint output slices;
//!    each worker reuses one accumulator, chosen for the whole product
//!    by the width of `B`: a dense array while `b.n_cols() ≤`
//!    [`DENSE_WIDTH_LIMIT`] (it stays cache-resident), a hash map
//!    beyond. Both fold products in the same order, so the choice never
//!    changes `C`. Each row is flushed in column order straight into
//!    its exact slice of `C` — the dense accumulator by walking its
//!    occupancy bitmap — with no staging copy.
//!
//! Row blocks are independent tasks, so one pathological row holds up
//! only its own block — the load-balancing role Nagasaka et al. give
//! OpenMP dynamic scheduling. The vendored `rayon` shim plays it here:
//! host threads claim contiguous runs of blocks from one cursor, and
//! each block writes only its own rows, so `C` is the same on any
//! thread count. Called from inside a parallel caller (chunk
//! preparation runs one chunk per task), both phases run on that
//! caller's thread.

use crate::check_dims;
use accum::estimate::ROW_BLOCK;
use accum::{AccumulatorKind, ScratchPool, DENSE_WIDTH_LIMIT};
use rayon::prelude::*;
use sparse::{ColId, CsrMatrix, CsrView, Result};

/// Computes `C = a · b` with the multicore hash algorithm.
pub fn multiply(a: &CsrMatrix, b: &CsrMatrix) -> Result<CsrMatrix> {
    multiply_view(&CsrView::of(a), b)
}

/// [`multiply`] over a borrowed row panel of `A`.
pub fn multiply_view(a: &CsrView<'_>, b: &CsrMatrix) -> Result<CsrMatrix> {
    multiply_view_with(a, b, &ScratchPool::new())
}

/// [`multiply_view`] with worker scratch leased from the caller's
/// `pool` — the entry point chunk preparation uses, so counters and
/// accumulators stay warm across a grid's chunks and a service's
/// requests. Both phases lease from the same pool: counters warmed by
/// the symbolic pass come back as accumulator bundles for the numeric
/// pass, so steady-state row compute allocates nothing. Scratch reuse
/// never changes `C` (see [`accum::scratch`]).
pub fn multiply_view_with(a: &CsrView<'_>, b: &CsrMatrix, pool: &ScratchPool) -> Result<CsrMatrix> {
    check_dims(a.n_rows(), a.n_cols(), b.n_rows(), b.n_cols())?;
    let n_rows = a.n_rows();
    let width = b.n_cols();

    // Phase 1: symbolic row sizes (exact).
    let row_nnz: Vec<usize> = symbolic(a, b, pool);

    // Phase 2: exact allocation via prefix sum.
    let mut offsets = Vec::with_capacity(n_rows + 1);
    offsets.push(0usize);
    for &n in &row_nnz {
        offsets.push(offsets.last().unwrap() + n);
    }
    let nnz = *offsets.last().unwrap();
    let mut cols = vec![0 as ColId; nnz];
    let mut vals = vec![0.0f64; nnz];

    // Phase 3: numeric fill into disjoint row-chunk slices.
    {
        let mut col_chunks: Vec<(usize, &mut [ColId], &mut [f64])> = Vec::new();
        let mut rest_c: &mut [ColId] = &mut cols;
        let mut rest_v: &mut [f64] = &mut vals;
        let mut chunk_start = 0usize;
        while chunk_start < n_rows {
            let chunk_end = (chunk_start + ROW_BLOCK).min(n_rows);
            let len = offsets[chunk_end] - offsets[chunk_start];
            let (head_c, tail_c) = rest_c.split_at_mut(len);
            let (head_v, tail_v) = rest_v.split_at_mut(len);
            col_chunks.push((chunk_start, head_c, head_v));
            rest_c = tail_c;
            rest_v = tail_v;
            chunk_start = chunk_end;
        }
        col_chunks
            .into_par_iter()
            .for_each(|(chunk_start, out_c, out_v)| {
                numeric_chunk(a, b, &row_nnz, chunk_start, out_c, out_v, pool);
            });
    }

    Ok(CsrMatrix::from_parts_unchecked(
        n_rows, width, offsets, cols, vals,
    ))
}

/// Symbolic phase: exact output row sizes, parallel over row chunks
/// (chunk index ranges iterated directly — no materialized row list).
/// Each in-flight chunk leases one counter bundle from `pool` — reused
/// across chunks, so no width-sized allocation per chunk.
fn symbolic(a: &CsrView<'_>, b: &CsrMatrix, pool: &ScratchPool) -> Vec<usize> {
    let n_rows = a.n_rows();
    let width = b.n_cols();
    (0..n_rows.div_ceil(ROW_BLOCK).max(1))
        .into_par_iter()
        .flat_map_iter(|chunk| {
            let lo = chunk * ROW_BLOCK;
            let hi = (lo + ROW_BLOCK).min(n_rows);
            let mut out = Vec::with_capacity(hi - lo);
            pool.with(|s| {
                for r in lo..hi {
                    let cols = a
                        .row_cols(r)
                        .iter()
                        .flat_map(|&k| b.row_cols(k as usize).iter().copied());
                    out.push(s.count_row(cols, width));
                }
            });
            out
        })
        .collect()
}

/// Numeric phase for one row chunk, writing into its disjoint slices
/// with accumulators leased from `pool`.
fn numeric_chunk(
    a: &CsrView<'_>,
    b: &CsrMatrix,
    row_nnz: &[usize],
    chunk_start: usize,
    out_c: &mut [ColId],
    out_v: &mut [f64],
    pool: &ScratchPool,
) {
    let width = b.n_cols();
    let kind = if width <= DENSE_WIDTH_LIMIT {
        AccumulatorKind::Dense
    } else {
        AccumulatorKind::Hash
    };
    let chunk_len = out_c.len();
    let rows = chunk_start..(chunk_start + ROW_BLOCK).min(row_nnz.len());
    pool.with(|scratch| {
        let mut cursor = 0usize;
        for r in rows {
            let expect = row_nnz[r];
            if expect == 0 {
                continue;
            }
            scratch.accumulate_row_into(
                a.row_iter(r).flat_map(|(k, a_rk)| {
                    b.row_iter(k as usize)
                        .map(move |(c, b_kc)| (c, a_rk * b_kc))
                }),
                kind,
                width,
                &mut out_c[cursor..cursor + expect],
                &mut out_v[cursor..cursor + expect],
            );
            cursor += expect;
        }
        debug_assert_eq!(cursor, chunk_len, "chunk fill incomplete");
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sparse::gen::{erdos_renyi, grid2d_stencil, rmat, RmatConfig};

    fn check_against_reference(a: &CsrMatrix, b: &CsrMatrix) {
        let expect = reference::multiply(a, b).unwrap();
        let got = multiply(a, b).unwrap();
        got.validate().unwrap();
        assert!(
            got.approx_eq(&expect, 1e-9),
            "parallel hash result diverged from reference"
        );
    }

    #[test]
    fn matches_reference_on_random() {
        let a = erdos_renyi(120, 100, 0.08, 1);
        let b = erdos_renyi(100, 140, 0.08, 2);
        check_against_reference(&a, &b);
    }

    #[test]
    fn matches_reference_on_skewed() {
        let a = rmat(RmatConfig::skewed(9, 4000), 3);
        check_against_reference(&a, &a);
    }

    #[test]
    fn matches_reference_on_stencil() {
        let a = grid2d_stencil(16, 16, 2, 4);
        check_against_reference(&a, &a);
    }

    #[test]
    fn view_panel_multiplication() {
        let a = erdos_renyi(90, 80, 0.1, 5);
        let b = erdos_renyi(80, 70, 0.1, 6);
        let full = multiply(&a, &b).unwrap();
        let panel = CsrView::rows(&a, 30, 60);
        let part = multiply_view(&panel, &b).unwrap();
        assert_eq!(part, full.slice_rows(30, 60));
    }

    #[test]
    fn empty_and_degenerate() {
        let z = CsrMatrix::zeros(10, 10);
        assert_eq!(multiply(&z, &z).unwrap().nnz(), 0);
        let a = erdos_renyi(10, 0, 0.0, 1);
        let b = CsrMatrix::zeros(0, 5);
        let c = multiply(&a, &b).unwrap();
        assert_eq!(c.n_rows(), 10);
        assert_eq!(c.n_cols(), 5);
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn rejects_mismatch() {
        let a = CsrMatrix::zeros(3, 4);
        let b = CsrMatrix::zeros(5, 3);
        assert!(multiply(&a, &b).is_err());
    }

    #[test]
    fn wide_matrix_uses_hash_path() {
        // Width above DENSE_WIDTH_LIMIT forces hash counters/accumulators.
        let width = accum::DENSE_WIDTH_LIMIT + 10;
        let mut coo = sparse::CooMatrix::new(4, width);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, width - 1, 2.0).unwrap();
        coo.push(1, 5, 3.0).unwrap();
        let b = coo.to_csr();
        let mut coo = sparse::CooMatrix::new(3, 4);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        let a = coo.to_csr();
        let c = multiply(&a, &b).unwrap();
        let expect = reference::multiply(&a, &b).unwrap();
        assert!(c.approx_eq(&expect, 1e-12));
    }
}
