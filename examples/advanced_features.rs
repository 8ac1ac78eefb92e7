//! Tour of the features beyond the paper's headline experiments:
//! cost-model-derived GPU ratio, work-stealing hybrid execution,
//! multi-GPU scheduling, the unified-memory comparison, independent
//! result verification, and Chrome-trace timeline export.
//!
//! ```text
//! cargo run --release --example advanced_features
//! ```

use oocgemm::{
    auto_gpu_ratio, multiply_multi_gpu, multiply_unified, verify_product, Hybrid, HybridConfig,
    MultiGpuConfig, OocConfig, OutOfCoreGpu,
};
use sparse::gen::{locality_graph, rmat, RmatConfig};
use sparse::ops::add;
use sparse::stats::ProductStats;

fn main() {
    // A mixed workload: a skewed social graph plus a local web-like
    // component, so chunk densities vary.
    let social = rmat(RmatConfig::mild(13, 90_000), 3);
    let local = locality_graph(8192, 12.0, 10, 0.01, 4);
    let a = add(&social, &local).expect("same shape");
    let stats = ProductStats::square(&a);
    println!(
        "A: {} x {}, nnz = {}; A^2: {} flops, {} nnz, ratio {:.2}\n",
        a.n_rows(),
        a.n_cols(),
        a.nnz(),
        stats.flops,
        stats.nnz_c,
        stats.compression_ratio
    );

    let device = ((stats.nnz_c * 12) as f64 / 3.0) as u64;
    let base = OocConfig::with_device_memory(device);

    // 1. Cost-model-derived GPU ratio instead of the fixed 65%.
    let auto = auto_gpu_ratio(&base.cost, stats.flops, stats.nnz_c, true);
    println!(
        "auto-derived GPU ratio: {:.1}% (paper's fixed setting: 65%)",
        auto * 100.0
    );

    // 2. Hybrid at that ratio (Algorithm 4's GPU and CPU workers,
    //    scheduled by the work-stealing auction).
    let hybrid_cfg = HybridConfig {
        gpu: base.clone(),
        ..HybridConfig::paper_default()
    }
    .ratio(auto);
    let wall = std::time::Instant::now();
    let hybrid = Hybrid::new(hybrid_cfg)
        .multiply(&a, &a)
        .expect("hybrid run");
    println!(
        "hybrid          : {:>8.3} ms simulated ({} GPU / {} CPU chunks), {:.2} s wall",
        hybrid.sim_ms(),
        hybrid.num_gpu_chunks,
        hybrid.num_cpu_chunks,
        wall.elapsed().as_secs_f64()
    );
    println!(
        "scheduler       : {} ({} claims / {} steals, realized GPU share {:.1}%)",
        hybrid.scheduler.kind.name(),
        hybrid.scheduler.gpu_claims,
        hybrid.scheduler.cpu_steals,
        hybrid.scheduler.realized_gpu_ratio * 100.0
    );

    // 3. Multi-GPU scaling (the paper's future-work direction).
    for gpus in [1usize, 2, 4] {
        let cfg = MultiGpuConfig {
            gpu: base.clone(),
            ..MultiGpuConfig::new(gpus)
        };
        let run = multiply_multi_gpu(&a, &a, &cfg).expect("multi-GPU run");
        println!(
            "{gpus} GPU(s) + CPU : {:>8.3} ms simulated (chunks per GPU {:?}, CPU {})",
            run.sim_ns as f64 / 1e6,
            run.gpu_chunks,
            run.cpu_chunks
        );
    }

    // 4. Unified memory — what the paper's introduction argues against.
    let um = multiply_unified(&a, &a, &base.device, &base.cost).expect("unified run");
    println!(
        "unified memory  : {:>8.3} ms simulated ({} page faults{})",
        um.sim_ms(),
        um.faults,
        if um.thrashed { ", thrashing" } else { "" }
    );

    // 5. Independent verification (symbolic structure + Freivalds).
    let gpu = OutOfCoreGpu::new(base).multiply(&a, &a).expect("gpu run");
    let verdict = verify_product(&a, &a, &gpu.c);
    println!("\nverification    : {verdict:?}");
    assert!(verdict.is_ok());

    // 6. Chrome-trace export of the device timeline.
    let trace_path = std::env::temp_dir().join("oocgemm_timeline.json");
    std::fs::write(&trace_path, gpu.timeline.to_chrome_trace()).expect("write trace");
    println!(
        "timeline        : {} events -> {} (open in chrome://tracing)",
        gpu.timeline.records.len(),
        trace_path.display()
    );
}
