//! Criterion benchmarks of the column-panel partitioners — the
//! Section III-D ablation: naive rescan vs `col_offset` cursor vs
//! prefix-sum parallel. "It is easy to see that this algorithm can be
//! quite inefficient, particularly as ... the number of column panels
//! increases" — the naive curve should grow with the panel count while
//! the cursor curve stays flat.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sparse::gen::locality_graph;
use sparse::partition::col::{even_col_ranges, ColPartitioner};
use std::hint::black_box;

fn bench_partitioners(c: &mut Criterion) {
    // Heavy rows (~100 nnz each): the regime Section III-D reasons
    // about, where the naive per-panel rescan touches every entry
    // `panels` times while the cursor touches each entry once.
    let b = locality_graph(8192, 100.0, 30, 0.05, 7);
    let mut group = c.benchmark_group("col_partition");
    group.sample_size(20);
    for &panels in &[2usize, 8, 32] {
        let ranges = even_col_ranges(&b, panels);
        group.throughput(Throughput::Elements(b.nnz() as u64));
        for (name, strat) in [
            ("naive", ColPartitioner::Naive),
            ("cursor", ColPartitioner::Cursor),
            ("parallel", ColPartitioner::ParallelPrefixSum),
            ("parallel_cursor", ColPartitioner::ParallelCursor),
            ("via_csc", ColPartitioner::ViaCsc),
        ] {
            group.bench_with_input(BenchmarkId::new(name, panels), &ranges, |bench, ranges| {
                bench.iter(|| black_box(strat.partition(&b, ranges)));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_partitioners);
criterion_main!(benches);
