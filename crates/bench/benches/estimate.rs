//! Criterion benchmarks of the nnz(C) estimation engine: building the
//! sampled model, planning a panel grid from estimates vs the exact
//! symbolic pass, and the end-to-end speculative vs exact executor
//! run on a fixed out-of-core case.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oocgemm::{EstimateConfig, EstimatorKind, OocConfig, OutOfCoreGpu, Planner};
use sparse::gen::{grid2d_stencil, rmat, RmatConfig};
use sparse::{CsrMatrix, CsrView};
use std::hint::black_box;

fn suite() -> Vec<(&'static str, CsrMatrix, u64)> {
    vec![
        ("rmat_s11", rmat(RmatConfig::skewed(11, 30_000), 9), 1 << 20),
        ("stencil_64x64", grid2d_stencil(64, 64, 2, 2), 1 << 17),
    ]
}

fn kinds() -> Vec<EstimatorKind> {
    vec![EstimatorKind::UpperBound, EstimatorKind::RowSample]
}

fn bench_build_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimate_build_model");
    group.sample_size(10);
    for (name, a, _) in suite() {
        for kind in kinds() {
            let cfg = EstimateConfig {
                kind,
                ..EstimateConfig::default()
            };
            group.bench_function(BenchmarkId::new(kind.name(), name), |b| {
                b.iter(|| black_box(accum::estimate::build_model(&CsrView::of(&a), &a, &cfg)));
            });
        }
    }
    group.finish();
}

fn bench_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimate_planning");
    group.sample_size(10);
    for (name, a, budget) in suite() {
        group.bench_function(BenchmarkId::new("exact", name), |b| {
            b.iter(|| black_box(Planner::plan_exact(&a, &a).unwrap().auto(budget).unwrap()));
        });
        let cfg = EstimateConfig::default();
        group.bench_function(BenchmarkId::new("estimated", name), |b| {
            b.iter(|| {
                black_box(
                    Planner::estimated(&a, &a, &cfg)
                        .unwrap()
                        .auto(budget)
                        .unwrap(),
                )
            });
        });
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimate_end_to_end");
    group.sample_size(10);
    for (name, a, budget) in suite() {
        group.bench_function(BenchmarkId::new("exact", name), |b| {
            let cfg = OocConfig::with_device_memory(budget).estimator(EstimateConfig::exact());
            b.iter(|| black_box(OutOfCoreGpu::new(cfg.clone()).multiply(&a, &a).unwrap()));
        });
        group.bench_function(BenchmarkId::new("speculative", name), |b| {
            let cfg = OocConfig::with_device_memory(budget);
            b.iter(|| black_box(OutOfCoreGpu::new(cfg.clone()).multiply(&a, &a).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build_model, bench_planning, bench_end_to_end);
criterion_main!(benches);
