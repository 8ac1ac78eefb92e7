//! Criterion benchmark of the simulator itself: the wall-clock cost of
//! charging one full asynchronous pipeline, and of the sync driver,
//! per chunk. The simulator must be cheap relative to the real numeric
//! work for "simulated time, real results" to be a usable methodology.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gpu_sim::{CostModel, DeviceProps, GpuSim};
use gpu_spgemm::phases::prepare_chunk;
use gpu_spgemm::ChunkJob;
use sparse::gen::erdos_renyi;
use sparse::partition::col::{even_col_ranges, ColPartitioner};
use sparse::CsrView;
use std::hint::black_box;

fn bench_sim(c: &mut Criterion) {
    let a = erdos_renyi(1500, 1500, 0.015, 1);
    let panels = ColPartitioner::Cursor.partition(&a, &even_col_ranges(&a, 8));
    let prepared: Vec<_> = panels
        .iter()
        .enumerate()
        .map(|(i, p)| {
            prepare_chunk(ChunkJob {
                a_panel: CsrView::of(&a),
                b_panel: &p.matrix,
                chunk_id: i,
            })
        })
        .collect();
    let refs: Vec<&_> = prepared.iter().collect();
    let flags: Vec<bool> = (0..refs.len()).map(|i| i == 0).collect();

    let mut group = c.benchmark_group("simulator");
    group.throughput(Throughput::Elements(refs.len() as u64));
    group.bench_function("async_pipeline_8_chunks", |b| {
        b.iter(|| {
            let mut sim = GpuSim::new(DeviceProps::v100_scaled(256 << 20), CostModel::calibrated());
            black_box(
                oocgemm::pipeline::simulate_pipeline_depth(&mut sim, &refs, &flags, 0.33, true, 2)
                    .unwrap(),
            )
        });
    });
    group.bench_function("sync_driver_8_chunks", |b| {
        b.iter(|| {
            let mut sim = GpuSim::new(DeviceProps::v100_scaled(256 << 20), CostModel::calibrated());
            let stream = sim.create_stream();
            for (i, p) in prepared.iter().enumerate() {
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
