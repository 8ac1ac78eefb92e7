//! Criterion benchmark of the simulator itself: the wall-clock cost of
//! one asynchronous device run, and of the sync driver, per chunk. The
//! async half is `OutOfCoreGpu::multiply_prepared` on an exact 1×8
//! grid, so it also includes assembling C from the prepared chunks.
//! The simulator must be cheap relative to the real numeric work for
//! "simulated time, real results" to be a usable methodology.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gpu_sim::{CostModel, DeviceProps, GpuSim};
use oocgemm::{prepare_grid, EstimateConfig, OocConfig, OutOfCoreGpu};
use sparse::gen::erdos_renyi;
use std::hint::black_box;

const DEVICE_BYTES: u64 = 256 << 20;

fn bench_sim(c: &mut Criterion) {
    let a = erdos_renyi(1500, 1500, 0.015, 1);
    let config = OocConfig::with_device_memory(DEVICE_BYTES)
        .panels(1, 8)
        .estimator(EstimateConfig::exact());
    let pg = prepare_grid(&a, &a, &config).unwrap();
    let exec = OutOfCoreGpu::new(config);

    let mut group = c.benchmark_group("simulator");
    group.throughput(Throughput::Elements(pg.prepared.len() as u64));
    group.bench_function("async_pipeline_8_chunks", |b| {
        b.iter(|| black_box(exec.multiply_prepared(&a, &pg).unwrap().sim_ns));
    });
    group.bench_function("sync_driver_8_chunks", |b| {
        b.iter(|| {
            let mut sim = GpuSim::new(
                DeviceProps::v100_scaled(DEVICE_BYTES),
                CostModel::calibrated(),
            );
            let stream = sim.create_stream();
            for (i, p) in pg.prepared.iter().enumerate() {
                black_box(
                    gpu_spgemm::simulate_sync_chunk(&mut sim, stream, &p.desc, i == 0).unwrap(),
                );
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
