//! Property tests: all three accumulators produce identical sorted
//! output for arbitrary insertion sequences, and the dense accumulator
//! matches the hash accumulator bit for bit through a long reuse.

use accum::{Accumulator, DenseAccumulator, HashAccumulator, SortAccumulator};
use proptest::prelude::*;

const WIDTH: u32 = 256;

fn reference(pairs: &[(u32, f64)]) -> (Vec<u32>, Vec<f64>) {
    use std::collections::BTreeMap;
    let mut map: BTreeMap<u32, f64> = BTreeMap::new();
    for &(c, v) in pairs {
        *map.entry(c).or_insert(0.0) += v;
    }
    map.into_iter().unzip()
}

fn values_close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(&x, &y)| {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-9 * scale
        })
}

/// One row fed to an accumulator: `discarded` products are added and
/// then dropped with a `clear()` partway through the row (when there
/// are any), `kept` products are added and flushed.
type Row = (Vec<(u32, f64)>, Vec<(u32, f64)>);

/// A column of `0..width`, often pinned to the first or last column or
/// to either side of the first bitmap word boundary.
fn arb_col(width: usize) -> impl Strategy<Value = u32> {
    let w = width as u32;
    prop_oneof![Just(0), Just(63), Just(64), Just(w - 1), 0..w, 0..w, 0..w]
}

/// A product value; some are `-0.0` or NaN, whose bits survive only if
/// a column's first product is assigned, not added to a zero.
fn arb_val() -> impl Strategy<Value = f64> {
    prop_oneof![
        -100.0f64..100.0,
        -100.0f64..100.0,
        -100.0f64..100.0,
        -100.0f64..100.0,
        -100.0f64..100.0,
        -100.0f64..100.0,
        Just(-0.0),
        Just(f64::NAN),
    ]
}

fn arb_row(width: usize, kept: std::ops::Range<usize>) -> impl Strategy<Value = Row> {
    let products = move |len| prop::collection::vec((arb_col(width), arb_val()), len);
    (
        prop_oneof![Just(Vec::new()), products(1..20)],
        products(kept),
    )
}

/// `n` short rows (fewer than 8 distinct columns; the dense
/// accumulator sorts those of 2 or 3 columns spread over several
/// bitmap words) alternating with `n` long ones (at least 300 products
/// over at most a few hundred columns: more than 64 distinct columns,
/// emitted by walking the bitmap), so both flush paths run back to
/// back through one accumulator.
fn arb_rows(width: usize, n: usize) -> impl Strategy<Value = Vec<Row>> {
    (
        prop::collection::vec(arb_row(width, 0..8), n),
        prop::collection::vec(arb_row(width, 300..600), n),
    )
        .prop_map(|(short, long)| {
            short
                .into_iter()
                .zip(long)
                .flat_map(<[Row; 2]>::from)
                .collect()
        })
}

/// Two widths that are not multiples of 64 (`128 < w0 < w1`), with
/// rows at `w0` before the dense accumulator grows to `w1` and rows at
/// `w1` after.
fn arb_reuse() -> impl Strategy<Value = (usize, usize, Vec<Row>, Vec<Row>)> {
    (2..6usize, 1..64usize, 1..200usize, 1..4usize, 1..4usize).prop_flat_map(
        |(words, rem, extra, n0, n1)| {
            let w0 = words * 64 + rem;
            let w1 = if (w0 + extra) % 64 == 0 {
                w0 + extra + 1
            } else {
                w0 + extra
            };
            (Just(w0), Just(w1), arb_rows(w0, n0), arb_rows(w1, n1))
        },
    )
}

fn feed<A: Accumulator>(acc: &mut A, (discarded, kept): &Row) -> (Vec<u32>, Vec<u64>) {
    for &(c, v) in discarded {
        acc.add(c, v);
    }
    if !discarded.is_empty() {
        acc.clear();
    }
    let (cols, vals) = run(acc, kept);
    (cols, vals.iter().map(|v| v.to_bits()).collect())
}

fn run<A: Accumulator>(acc: &mut A, pairs: &[(u32, f64)]) -> (Vec<u32>, Vec<f64>) {
    for &(c, v) in pairs {
        acc.add(c, v);
    }
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
    acc.flush_into(&mut cols, &mut vals);
    (cols, vals)
}

proptest! {
    #[test]
    fn dense_matches_hash_bit_for_bit_through_reuse(
        (w0, w1, before, after) in arb_reuse()
    ) {
        let mut dense = DenseAccumulator::new(w0);
        let mut hash = HashAccumulator::with_expected(4);
        for (i, row) in before.iter().chain(&after).enumerate() {
            if i == before.len() {
                dense.ensure_width(w1);
            }
            let (dc, dv) = feed(&mut dense, row);
            let (hc, hv) = feed(&mut hash, row);
            prop_assert_eq!(&dc, &hc, "row {}: columns", i);
            prop_assert_eq!(&dv, &hv, "row {}: value bits", i);
        }
    }

    #[test]
    fn accumulators_match_reference(
        pairs in prop::collection::vec((0..WIDTH, -100.0f64..100.0), 0..300)
    ) {
        let (ref_cols, ref_vals) = reference(&pairs);

        let (c, v) = run(&mut DenseAccumulator::new(WIDTH as usize), &pairs);
        prop_assert_eq!(&c, &ref_cols);
        prop_assert!(values_close(&v, &ref_vals), "dense values diverged");

        let (c, v) = run(&mut HashAccumulator::with_expected(4), &pairs);
        prop_assert_eq!(&c, &ref_cols);
        prop_assert!(values_close(&v, &ref_vals), "hash values diverged");

        let (c, v) = run(&mut SortAccumulator::new(), &pairs);
        prop_assert_eq!(&c, &ref_cols);
        prop_assert!(values_close(&v, &ref_vals), "sort values diverged");
    }

    #[test]
    fn accumulators_are_reusable_across_rows(
        rows in prop::collection::vec(
            prop::collection::vec((0..WIDTH, -10.0f64..10.0), 0..50), 1..10)
    ) {
        let mut dense = DenseAccumulator::new(WIDTH as usize);
        let mut hash = HashAccumulator::with_expected(4);
        let mut sort = SortAccumulator::new();
        for pairs in &rows {
            let (ref_cols, ref_vals) = reference(pairs);
            let (c, v) = run(&mut dense, pairs);
            prop_assert_eq!(&c, &ref_cols);
            prop_assert!(values_close(&v, &ref_vals));
            let (c, v) = run(&mut hash, pairs);
            prop_assert_eq!(&c, &ref_cols);
            prop_assert!(values_close(&v, &ref_vals));
            let (c, v) = run(&mut sort, pairs);
            prop_assert_eq!(&c, &ref_cols);
            prop_assert!(values_close(&v, &ref_vals));
        }
    }

    #[test]
    fn len_matches_distinct_count(
        cols in prop::collection::vec(0..WIDTH, 0..200)
    ) {
        let distinct = {
            let mut c = cols.clone();
            c.sort_unstable();
            c.dedup();
            c.len()
        };
        let mut dense = DenseAccumulator::new(WIDTH as usize);
        let mut hash = HashAccumulator::with_expected(4);
        let mut sort = SortAccumulator::new();
        for &c in &cols {
            dense.add(c, 1.0);
            hash.add(c, 1.0);
            sort.add(c, 1.0);
        }
        prop_assert_eq!(dense.len(), distinct);
        prop_assert_eq!(hash.len(), distinct);
        prop_assert_eq!(sort.len(), distinct);
    }
}
