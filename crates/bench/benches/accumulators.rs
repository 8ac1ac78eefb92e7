//! Criterion microbenchmarks of the row accumulators (the dense-vs-hash
//! design choice of Section III-B / Figure 3): wall-clock cost per
//! accumulated row at different output densities.

use accum::{Accumulator, DenseAccumulator, HashAccumulator, SortAccumulator};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

const WIDTH: usize = 1 << 16;

/// Pre-generated insertion sequences: `products` inserts drawn from
/// `distinct` distinct columns.
fn sequence(products: usize, distinct: usize, seed: u64) -> Vec<(u32, f64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let cols: Vec<u32> = (0..distinct)
        .map(|_| rng.gen_range(0..WIDTH as u32))
        .collect();
    (0..products)
        .map(|_| (cols[rng.gen_range(0..distinct)], rng.gen_range(-1.0..1.0)))
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
    // (products, distinct): sparse rows favour the hash map, dense rows
    // the dense array — spECK's per-row density rule. The library's one
    // kernel picks by panel width instead (DESIGN.md §15).
    for &(products, distinct) in &[(256usize, 64usize), (4096, 512), (32768, 8192)] {
        let seq = sequence(products, distinct, 42);
        group.throughput(Throughput::Elements(products as u64));
        let label = format!("{products}x{distinct}");
        group.bench_with_input(BenchmarkId::new("dense", &label), &seq, |b, seq| {
            let mut acc = DenseAccumulator::new(WIDTH);
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
