//! Criterion microbenchmarks of the row accumulators (the dense-vs-hash
//! design choice of Section III-B / Figure 3): wall-clock cost per
//! accumulated row at different output densities.

use accum::{Accumulator, DenseAccumulator, HashAccumulator, SortAccumulator};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::hint::black_box;

/// Row shapes `(products, distinct, width)`. In a 64 Ki width, sparse
/// rows favour the hash map and dense rows the dense array — spECK's
/// per-row density rule (the library's one kernel picks by panel width
/// instead, DESIGN.md §15) — at 4–8 products per distinct column. The
/// 8 Ki shapes are low-compression graph rows: the R-MAT social
/// products of `e2e`'s `hybrid-social` have 8192 columns and 1.07–1.26
/// products per output entry, so emitting a row in column order costs
/// more there than accumulating it.
const SHAPES: [(usize, usize, usize); 5] = [
    (256, 64, 1 << 16),
    (4096, 512, 1 << 16),
    (32768, 8192, 1 << 16),
    (600, 512, 8192),
    (2400, 2048, 8192),
];

/// Pre-generated insertion sequence: `products` inserts that hit
/// exactly `distinct` distinct columns of `0..width`, in random order.
fn sequence(products: usize, distinct: usize, width: usize, seed: u64) -> Vec<(u32, f64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut set = BTreeSet::new();
    while set.len() < distinct {
        set.insert(rng.gen_range(0..width as u32));
    }
    let cols: Vec<u32> = set.into_iter().collect();
    let mut seq = cols.clone();
    seq.extend((distinct..products).map(|_| cols[rng.gen_range(0..distinct)]));
    seq.shuffle(&mut rng);
    seq.into_iter()
        .map(|c| (c, rng.gen_range(-1.0..1.0)))
        .collect()
}

fn run<A: Accumulator>(
    acc: &mut A,
    seq: &[(u32, f64)],
    out_c: &mut Vec<u32>,
    out_v: &mut Vec<f64>,
) {
    for &(c, v) in seq {
        acc.add(c, v);
    }
    out_c.clear();
    out_v.clear();
    acc.flush_into(out_c, out_v);
}

fn bench_accumulators(c: &mut Criterion) {
    let mut group = c.benchmark_group("accumulators");
    for &(products, distinct, width) in &SHAPES {
        let seq = sequence(products, distinct, width, 42);
        group.throughput(Throughput::Elements(products as u64));
        let label = format!("{products}x{distinct}/w{width}");
        group.bench_with_input(BenchmarkId::new("dense", &label), &seq, |b, seq| {
            let mut acc = DenseAccumulator::new(width);
            let (mut oc, mut ov) = (Vec::new(), Vec::new());
            b.iter(|| run(black_box(&mut acc), seq, &mut oc, &mut ov));
        });
        group.bench_with_input(BenchmarkId::new("hash", &label), &seq, |b, seq| {
            let mut acc = HashAccumulator::with_expected(distinct);
            let (mut oc, mut ov) = (Vec::new(), Vec::new());
            b.iter(|| run(black_box(&mut acc), seq, &mut oc, &mut ov));
        });
        group.bench_with_input(BenchmarkId::new("sort_esc", &label), &seq, |b, seq| {
            let mut acc = SortAccumulator::with_capacity(products);
            let (mut oc, mut ov) = (Vec::new(), Vec::new());
            b.iter(|| run(black_box(&mut acc), seq, &mut oc, &mut ov));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_accumulators);
criterion_main!(benches);
