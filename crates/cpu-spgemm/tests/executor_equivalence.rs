//! Property tests: every CPU kernel returns the sequential reference's
//! product **bit for bit** — same offsets, same columns, same value
//! bits — on random, banded, empty-row-heavy, skewed and wide inputs.
//! The wide inputs put `B` past `DENSE_WIDTH_LIMIT`, so `parallel_hash`
//! runs its hash accumulator there and its dense one on every other
//! input; the skewed inputs give the dense accumulator rows for both of
//! its flush paths.

use accum::DENSE_WIDTH_LIMIT;
use cpu_spgemm::{dense_blocked, multiply_with_kernel, reference, CpuKernel};
use proptest::prelude::*;
use sparse::gen::{rmat, RmatConfig};
use sparse::{CooMatrix, CsrMatrix};

/// Asserts structural and bit-level equality of two CSR matrices.
fn assert_bit_identical(got: &CsrMatrix, expect: &CsrMatrix, label: &str) {
    assert_eq!(got.row_offsets(), expect.row_offsets(), "{label}: offsets");
    assert_eq!(got.col_ids(), expect.col_ids(), "{label}: columns");
    let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(expect), "{label}: value bits");
}

/// Every [`CpuKernel`] against `reference::multiply`.
fn check_kernels(a: &CsrMatrix, b: &CsrMatrix, label: &str) {
    let expect = reference::multiply(a, b).unwrap();
    for kernel in [CpuKernel::Hash, CpuKernel::Dense] {
        let got = multiply_with_kernel(a, b, kernel).unwrap();
        got.validate().unwrap();
        assert_bit_identical(&got, &expect, &format!("{label}/{kernel}"));
    }
}

fn coo_from(m: usize, n: usize, entries: Vec<(usize, usize, f64)>) -> CsrMatrix {
    let mut coo = CooMatrix::new(m, n);
    for (i, j, v) in entries {
        coo.push(i, j, v).unwrap();
    }
    coo.to_csr()
}

/// Strategy: a random square sparse matrix of order up to `max_n`.
fn arb_square(max_n: usize) -> impl Strategy<Value = CsrMatrix> {
    (1..=max_n).prop_flat_map(|n| {
        let max_entries = (n * n).min(300);
        prop::collection::vec((0..n, 0..n, -10.0f64..10.0), 0..=max_entries)
            .prop_map(move |e| coo_from(n, n, e))
    })
}

/// Pair of multiplication-compatible random matrices.
fn arb_pair() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (1..40usize, 1..40usize, 1..40usize).prop_flat_map(|(m, k, n)| {
        (
            prop::collection::vec((0..m, 0..k, -10.0f64..10.0), 0..200)
                .prop_map(move |e| coo_from(m, k, e)),
            prop::collection::vec((0..k, 0..n, -10.0f64..10.0), 0..200)
                .prop_map(move |e| coo_from(k, n, e)),
        )
    })
}

/// Banded square pair: entries confined to a diagonal band.
fn arb_banded_pair() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (8..48usize, 1..5usize).prop_flat_map(|(n, band)| {
        let gen = move || {
            prop::collection::vec((0..n, 0..=2 * band, -8.0f64..8.0), 0..6 * n).prop_map(
                move |entries| {
                    let mut coo = CooMatrix::new(n, n);
                    for (i, off, v) in entries {
                        let j = (i + off).saturating_sub(band);
                        if j < n {
                            coo.push(i, j, v).unwrap();
                        }
                    }
                    coo.to_csr()
                },
            )
        };
        (gen(), gen())
    })
}

/// Pair where most rows of `A` are empty: only the first fifth of its
/// rows carry entries.
fn arb_sparse_rows_pair() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (10..50usize, 10..40usize).prop_flat_map(|(m, k)| {
        (
            prop::collection::vec((0..m.div_ceil(5), 0..k, -10.0f64..10.0), 0..30)
                .prop_map(move |e| coo_from(m, k, e)),
            prop::collection::vec((0..k, 0..m, -10.0f64..10.0), 0..100)
                .prop_map(move |e| coo_from(k, m, e)),
        )
    })
}

/// Skewed, low-compression pair at widths of a few hundred columns
/// that are not multiples of 64: R-MAT graphs on 512 vertices with
/// `B` cut to its first `n` columns. Hub rows give output rows of more
/// than 64 distinct columns across several bitmap words, at about 1.4
/// products per output entry, which the dense accumulator emits by
/// walking its bitmap; tail rows give rows of a few spread columns,
/// which it sorts.
fn arb_skewed_pair() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (any::<u64>(), 1000..2500usize, 4..8usize, 1..64usize).prop_map(|(seed, edges, words, rem)| {
        let n = words * 64 + rem;
        let a = rmat(RmatConfig::skewed(9, edges), seed);
        let g = rmat(RmatConfig::skewed(9, edges), seed ^ 1);
        let cut = g.iter().filter(|&(_, c, _)| (c as usize) < n);
        let b = coo_from(
            g.n_rows(),
            n,
            cut.map(|(r, c, v)| (r, c as usize, v)).collect(),
        );
        (a, b)
    })
}

/// Pair whose `B` is just wider than `DENSE_WIDTH_LIMIT`. Its entries
/// sit on 48 columns spread over the whole width, so products still
/// collide in the accumulator.
fn arb_wide_pair() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (1..30usize, 1..30usize, 1..64usize).prop_flat_map(|(m, k, extra)| {
        let n = DENSE_WIDTH_LIMIT + extra;
        let stride = n / 48;
        (
            prop::collection::vec((0..m, 0..k, -10.0f64..10.0), 0..150)
                .prop_map(move |e| coo_from(m, k, e)),
            prop::collection::vec((0..k, 0..48usize, -10.0f64..10.0), 0..150).prop_map(move |e| {
                let spread = e.into_iter().map(|(i, slot, v)| (i, slot * stride, v));
                coo_from(k, n, spread.collect())
            }),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernels_match_reference_on_random((a, b) in arb_pair()) {
        check_kernels(&a, &b, "random");
    }

    #[test]
    fn kernels_match_reference_on_banded((a, b) in arb_banded_pair()) {
        check_kernels(&a, &b, "banded");
    }

    #[test]
    fn kernels_match_reference_on_empty_rows((a, b) in arb_sparse_rows_pair()) {
        check_kernels(&a, &b, "empty-rows");
    }

    #[test]
    fn kernels_match_reference_on_skewed_low_compression((a, b) in arb_skewed_pair()) {
        check_kernels(&a, &b, "skewed");
    }

    #[test]
    fn kernels_match_reference_past_the_dense_width((a, b) in arb_wide_pair()) {
        prop_assert!(b.n_cols() > DENSE_WIDTH_LIMIT);
        check_kernels(&a, &b, "wide");
    }

    #[test]
    fn dense_blocked_narrow_panels_match_reference((a, b) in arb_pair()) {
        // Narrow panels stress the stitch path.
        let got = dense_blocked::multiply_with_width(&a, &b, 7).unwrap();
        got.validate().unwrap();
        assert_bit_identical(&got, &reference::multiply(&a, &b).unwrap(), "dense/7");
    }

    #[test]
    fn square_product_spmv_identity(a in arb_square(30)) {
        let c = cpu_spgemm::parallel_hash::multiply(&a, &a).unwrap();
        let x: Vec<f64> = (0..a.n_cols()).map(|i| ((i * 37 + 11) % 97) as f64 / 13.0).collect();
        let via_c = sparse::ops::spmv(&c, &x).unwrap();
        let via_aa = sparse::ops::spmv(&a, &sparse::ops::spmv(&a, &x).unwrap()).unwrap();
        for (l, r) in via_c.iter().zip(&via_aa) {
            let scale = l.abs().max(r.abs()).max(1.0);
            prop_assert!((l - r).abs() <= 1e-8 * scale, "{l} vs {r}");
        }
    }
}
