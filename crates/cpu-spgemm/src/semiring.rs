//! SpGEMM over arbitrary semirings — the GraphBLAS view of the paper's
//! graph-algorithm motivation (Section I cites the GraphBLAS
//! foundations and all-pairs shortest paths, both of which are matrix
//! products over non-arithmetic semirings).
//!
//! A [`Semiring`] supplies `plus`, `times`, and the `plus`-identity;
//! [`multiply_semiring`] is Gustavson's algorithm with the arithmetic
//! swapped out. The structural behaviour matches the numeric executors
//! (an output entry exists iff some `A_ik`/`B_kj` pair collides), so
//! panels, planning and partitioning apply unchanged.

use crate::check_dims;
use accum::MergeBuffer;
use sparse::{ColId, CsrBuilder, CsrMatrix, Result};

/// A semiring over `f64` values.
#[derive(Clone, Copy)]
pub struct Semiring {
    /// The additive (accumulation) operation.
    pub plus: fn(f64, f64) -> f64,
    /// The multiplicative (combination) operation.
    pub times: fn(f64, f64) -> f64,
    /// Identity of `plus` (the value an empty accumulation yields).
    pub zero: f64,
}

impl Semiring {
    /// The ordinary arithmetic semiring `(+, ×, 0)`.
    pub fn plus_times() -> Self {
        Semiring {
            plus: |a, b| a + b,
            times: |a, b| a * b,
            zero: 0.0,
        }
    }

    /// The tropical semiring `(min, +, ∞)` — shortest paths.
    pub fn min_plus() -> Self {
        Semiring {
            plus: f64::min,
            times: |a, b| a + b,
            zero: f64::INFINITY,
        }
    }

    /// The boolean semiring `(∨, ∧, false)` on 0.0/1.0 — reachability.
    pub fn bool_or_and() -> Self {
        Semiring {
            plus: |a, b| if a != 0.0 || b != 0.0 { 1.0 } else { 0.0 },
            times: |a, b| if a != 0.0 && b != 0.0 { 1.0 } else { 0.0 },
            zero: 0.0,
        }
    }

    /// The `(max, ×)` semiring on non-negative values — most-reliable
    /// path products.
    pub fn max_times() -> Self {
        Semiring {
            plus: f64::max,
            times: |a, b| a * b,
            zero: 0.0,
        }
    }
}

/// Gustavson's algorithm over an arbitrary semiring.
///
/// Structure follows the sorted-merge accumulation (entries collide on
/// equal column ids and are folded with `plus`); entries equal to the
/// semiring zero are kept structurally, like the numeric executors do.
///
/// When `B`'s rows are sorted (the CSR norm here), accumulation runs
/// through the [`accum::MergeBuffer`] chain instead of materializing
/// and sorting every intermediate product. The fold order is identical
/// (stable sort keeps equal columns in increasing-`k` order, folded
/// left-associatively; so does the chain), so both paths produce
/// bit-identical output — pinned by the `merge_path_matches_sorting_*`
/// tests below.
pub fn multiply_semiring(a: &CsrMatrix, b: &CsrMatrix, s: &Semiring) -> Result<CsrMatrix> {
    check_dims(a.n_rows(), a.n_cols(), b.n_rows(), b.n_cols())?;
    if rows_sorted(b) {
        multiply_semiring_merge(a, b, s)
    } else {
        multiply_semiring_sorting(a, b, s)
    }
}

/// The expand-sort-fold formulation — kept as the oracle for the merge
/// path and the fallback for matrices with unsorted rows.
pub fn multiply_semiring_sorting(a: &CsrMatrix, b: &CsrMatrix, s: &Semiring) -> Result<CsrMatrix> {
    check_dims(a.n_rows(), a.n_cols(), b.n_rows(), b.n_cols())?;
    let mut builder = CsrBuilder::new(b.n_cols());
    let mut pairs: Vec<(ColId, f64)> = Vec::new();
    for i in 0..a.n_rows() {
        pairs.clear();
        for (k, a_ik) in a.row_iter(i) {
            for (j, b_kj) in b.row_iter(k as usize) {
                pairs.push((j, (s.times)(a_ik, b_kj)));
            }
        }
        // Stable by column: ties keep push order, i.e. increasing `k` —
        // the fold order every executor in the workspace shares.
        pairs.sort_by_key(|&(c, _)| c);
        let mut cols: Vec<ColId> = Vec::with_capacity(pairs.len());
        let mut vals: Vec<f64> = Vec::with_capacity(pairs.len());
        for &(c, v) in &pairs {
            if cols.last() == Some(&c) {
                let last = vals.last_mut().expect("cols and vals stay aligned");
                *last = (s.plus)(*last, v);
            } else {
                cols.push(c);
                vals.push(v);
            }
        }
        builder.push_row(&cols, &vals)?;
    }
    Ok(builder.finish())
}

/// Merge-path semiring multiply: each output row is the chained merge
/// of the semiring-scaled `B` rows.
fn multiply_semiring_merge(a: &CsrMatrix, b: &CsrMatrix, s: &Semiring) -> Result<CsrMatrix> {
    let mut builder = CsrBuilder::new(b.n_cols());
    let mut buf = MergeBuffer::new();
    for i in 0..a.n_rows() {
        let rows = a
            .row_cols(i)
            .iter()
            .zip(a.row_values(i))
            .map(|(&k, &a_ik)| (a_ik, b.row_cols(k as usize), b.row_values(k as usize)));
        let mut pushed = Ok(());
        buf.merge_rows_with(s.plus, s.times, rows, |cols, vals| {
            pushed = builder.push_row(cols, vals);
        });
        pushed?;
    }
    Ok(builder.finish())
}

/// True if every row of `m` has strictly increasing column ids — the
/// precondition for merge accumulation.
fn rows_sorted(m: &CsrMatrix) -> bool {
    (0..m.n_rows()).all(|r| m.row_cols(r).windows(2).all(|w| w[0] < w[1]))
}

/// One step of min-plus APSP relaxation: `D' = min(D, D ⊗ W)` where
/// `⊗` is the min-plus product. Entries missing from either side are
/// treated as ∞. Iterating to a fixed point yields all-pairs shortest
/// paths (paper reference [8], Chan).
pub fn min_plus_step(dist: &CsrMatrix, weights: &CsrMatrix) -> Result<CsrMatrix> {
    let product = multiply_semiring(dist, weights, &Semiring::min_plus())?;
    // Elementwise min of two sparse matrices (missing = ∞).
    let mut builder = CsrBuilder::new(dist.n_cols());
    for r in 0..dist.n_rows() {
        let (dc, dv) = (dist.row_cols(r), dist.row_values(r));
        let (pc, pv) = (product.row_cols(r), product.row_values(r));
        let mut cols: Vec<ColId> = Vec::with_capacity(dc.len() + pc.len());
        let mut vals: Vec<f64> = Vec::with_capacity(dc.len() + pc.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < dc.len() || j < pc.len() {
            let take_d = j >= pc.len() || (i < dc.len() && dc[i] <= pc[j]);
            let take_p = i >= dc.len() || (j < pc.len() && pc[j] <= dc[i]);
            match (take_d, take_p) {
                (true, true) => {
                    cols.push(dc[i]);
                    vals.push(dv[i].min(pv[j]));
                    i += 1;
                    j += 1;
                }
                (true, false) => {
                    cols.push(dc[i]);
                    vals.push(dv[i]);
                    i += 1;
                }
                (false, true) => {
                    cols.push(pc[j]);
                    vals.push(pv[j]);
                    j += 1;
                }
                (false, false) => unreachable!("one side must advance"),
            }
        }
        builder.push_row(&cols, &vals)?;
    }
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sparse::gen::erdos_renyi;

    #[test]
    fn plus_times_matches_numeric_reference() {
        let a = erdos_renyi(60, 50, 0.1, 1);
        let b = erdos_renyi(50, 70, 0.1, 2);
        let got = multiply_semiring(&a, &b, &Semiring::plus_times()).unwrap();
        let expect = reference::multiply(&a, &b).unwrap();
        assert!(got.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn bool_semiring_gives_reachability() {
        // Path graph 0 -> 1 -> 2: A^2 over bool reaches two hops.
        let mut coo = sparse::CooMatrix::new(3, 3);
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 2, 1.0).unwrap();
        let a = coo.to_csr();
        let two_hop = multiply_semiring(&a, &a, &Semiring::bool_or_and()).unwrap();
        assert_eq!(two_hop.get(0, 2), 1.0);
        assert_eq!(two_hop.nnz(), 1);
    }

    #[test]
    fn min_plus_product_takes_shortest_combination() {
        // 0 -> 1 (cost 1), 0 -> 2 (cost 5), 1 -> 3 (cost 1), 2 -> 3 (cost 1).
        let mut coo = sparse::CooMatrix::new(4, 4);
        coo.push(0, 1, 1.0).unwrap();
        coo.push(0, 2, 5.0).unwrap();
        coo.push(1, 3, 1.0).unwrap();
        coo.push(2, 3, 1.0).unwrap();
        let w = coo.to_csr();
        let d2 = multiply_semiring(&w, &w, &Semiring::min_plus()).unwrap();
        assert_eq!(d2.get(0, 3), 2.0, "min(1+1, 5+1)");
    }

    #[test]
    fn min_plus_step_reaches_fixed_point() {
        // Cycle 0 -> 1 -> 2 -> 3 -> 0, unit weights, plus zero diagonal.
        let mut coo = sparse::CooMatrix::new(4, 4);
        for i in 0..4usize {
            coo.push(i, (i + 1) % 4, 1.0).unwrap();
            coo.push(i, i, 0.0).unwrap();
        }
        let w = coo.to_csr();
        let mut d = w.clone();
        for _ in 0..4 {
            d = min_plus_step(&d, &w).unwrap();
        }
        // Distances around the cycle.
        for i in 0..4usize {
            for j in 0..4usize {
                let expect = ((j + 4 - i) % 4) as f64;
                assert_eq!(d.get(i, j), expect, "dist({i},{j})");
            }
        }
        // Fixed point: one more step changes nothing.
        let d2 = min_plus_step(&d, &w).unwrap();
        assert!(d2.approx_eq(&d, 0.0));
    }

    #[test]
    fn merge_path_matches_sorting_path_on_all_semirings() {
        let a = erdos_renyi(50, 45, 0.12, 21);
        let b = erdos_renyi(45, 55, 0.12, 22);
        for (name, s) in [
            ("plus_times", Semiring::plus_times()),
            ("min_plus", Semiring::min_plus()),
            ("bool_or_and", Semiring::bool_or_and()),
            ("max_times", Semiring::max_times()),
        ] {
            let merged = multiply_semiring(&a, &b, &s).unwrap();
            let sorted = multiply_semiring_sorting(&a, &b, &s).unwrap();
            assert_eq!(merged.row_offsets(), sorted.row_offsets(), "{name}");
            assert_eq!(merged.col_ids(), sorted.col_ids(), "{name}");
            let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&merged), bits(&sorted), "{name}: bit-identical");
        }
    }

    #[test]
    fn max_times_picks_most_reliable_path() {
        // Two paths 0 -> 2: via 1 (0.9 * 0.9) and direct-ish via 3 (0.5 * 0.99).
        let mut coo = sparse::CooMatrix::new(4, 4);
        coo.push(0, 1, 0.9).unwrap();
        coo.push(1, 2, 0.9).unwrap();
        coo.push(0, 3, 0.5).unwrap();
        coo.push(3, 2, 0.99).unwrap();
        let p = coo.to_csr();
        let two = multiply_semiring(&p, &p, &Semiring::max_times()).unwrap();
        assert!((two.get(0, 2) - 0.81).abs() < 1e-12);
    }
}
