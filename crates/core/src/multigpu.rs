//! Multi-GPU extension — the paper's stated future direction ("our
//! ultimate goal of continuing to scale SpGEMM computations to
//! arbitrarily large matrices", Section III-A).
//!
//! The chunk decomposition of Algorithm 3 makes chunks independent, so
//! they schedule naturally across several devices. Each simulated GPU
//! keeps its own streams, copy engines and memory — the model assumes
//! one PCIe root per device (no shared-bus contention), the
//! best-case assumption a single-node multi-GPU box approximates.
//!
//! Assignment generalizes the hybrid executor's schedulers to many
//! claimants. Under the default [`SchedulerKind::WorkStealing`] the
//! flop-descending chunk list becomes a shared two-ended queue:
//! whenever a worker's estimated clock is the global minimum it takes
//! the next chunk — GPUs claim from the dense head, the (optional) CPU
//! worker steals from the sparse tail — and the run ends when the
//! queue drains. [`SchedulerKind::Static`] keeps the earlier one-shot
//! longest-processing-time (LPT) list assignment: each chunk in flop
//! order goes to the worker with the smallest committed load.

use crate::chunks::{ChunkGrid, ChunkId, ChunkInfo};
use crate::config::{OocConfig, SchedulerKind};
use crate::executor::{
    assemble_product, estimator_stats, prepare_grid, run_on_device, PreparedGrid,
};
use crate::faults;
use crate::hybrid::cpu_worker_ns;
use crate::metrics::{Metrics, SchedulerStats};
use crate::plan::PanelPlan;
use crate::recovery::RecoveryReport;
use crate::Result;
use gpu_sim::{CostModel, KernelKind, SimTime, Timeline};
use gpu_spgemm::PreparedChunk;
use sparse::CsrMatrix;
use std::collections::HashMap;

/// Configuration of the multi-device executor.
#[derive(Clone, Debug)]
pub struct MultiGpuConfig {
    /// Per-device GPU configuration (device memory, cost model, async
    /// pipeline settings).
    pub gpu: OocConfig,
    /// Number of simulated GPUs (≥ 1).
    pub num_gpus: usize,
    /// Also keep a CPU worker in the pool.
    pub use_cpu: bool,
    /// Chunk distribution strategy (see module docs).
    pub scheduler: SchedulerKind,
}

impl MultiGpuConfig {
    /// `num_gpus` devices with the paper-default per-device config.
    pub fn new(num_gpus: usize) -> Self {
        MultiGpuConfig {
            gpu: OocConfig::paper_default(),
            num_gpus,
            use_cpu: true,
            scheduler: SchedulerKind::default(),
        }
    }

    /// Selects the chunk distribution strategy.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        self.gpu.validate()?;
        if self.num_gpus == 0 {
            return Err(crate::OocError::Config("need at least one GPU".into()));
        }
        Ok(())
    }
}

/// Outcome of a multi-device run.
#[derive(Debug)]
pub struct MultiGpuRun {
    /// The full product.
    pub c: CsrMatrix,
    /// Completion time: the slowest worker.
    pub sim_ns: SimTime,
    /// Per-GPU completion times.
    pub gpu_ns: Vec<SimTime>,
    /// CPU worker completion time (0 when unused).
    pub cpu_ns: SimTime,
    /// Chunks per GPU.
    pub gpu_chunks: Vec<usize>,
    /// Chunks on the CPU worker.
    pub cpu_chunks: usize,
    /// Total flops.
    pub flops: u64,
    /// Per-GPU timelines.
    pub timelines: Vec<Timeline>,
    /// Per-GPU structured metrics, aligned with [`Self::timelines`].
    pub metrics: Vec<Metrics>,
    /// The panel plan used.
    pub plan: PanelPlan,
    /// Recovery activity merged across all devices (all-zero for a
    /// fault-free run).
    pub recovery: RecoveryReport,
    /// How the scheduler distributed the chunks. `gpu_idle_ns` sums
    /// the idle time of *all* GPU workers against the makespan.
    pub scheduler: SchedulerStats,
}

impl MultiGpuRun {
    /// GFLOPS over the makespan.
    pub fn gflops(&self) -> f64 {
        if self.sim_ns == 0 {
            return 0.0;
        }
        self.flops as f64 / self.sim_ns as f64
    }
}

/// Estimated steady-state pipeline occupancy of one chunk on a GPU:
/// the async pipeline overlaps the copy engines and the compute
/// engine, so a chunk's marginal cost is its *slowest* engine — the
/// H2D input transfer, the D2H result transfer, or the three kernels.
/// (The earlier LPT estimate costed the D2H output copy alone, which
/// starves compute-bound devices of attention.) Speculatively planned
/// chunks are priced the way the pipeline runs them: the estimated
/// output reservation replaces the exact output and the per-row nnz
/// round-trip disappears.
fn gpu_chunk_estimate(cost: &CostModel, p: &PreparedChunk, pinned: bool) -> SimTime {
    let h2d = cost.copy_duration(p.b_bytes, false, pinned);
    let row_nnz = if p.spec.is_some() { 0 } else { p.row_nnz_bytes };
    let d2h = cost.copy_duration(
        p.planned_out_bytes() + p.row_info_bytes + row_nnz,
        true,
        pinned,
    );
    let kernels = cost.kernel_duration(KernelKind::RowAnalysis { ops: p.a_nnz })
        + cost.kernel_duration(KernelKind::Symbolic {
            flops: p.flops,
            compression_ratio: p.compression_ratio,
        })
        + cost.kernel_duration(KernelKind::Numeric {
            flops: p.flops,
            compression_ratio: p.compression_ratio,
        });
    h2d.max(d2h).max(kernels)
}

/// Distributes the flop-descending `order` over `workers` slots
/// (GPUs first, CPU worker last when present). Returns the per-worker
/// chunk lists plus (gpu claims, cpu steals).
fn distribute(
    config: &MultiGpuConfig,
    pg: &PreparedGrid,
    order: &[ChunkInfo],
) -> Result<(Vec<Vec<ChunkInfo>>, u64, u64)> {
    let cost = &config.gpu.cost;
    let workers = config.num_gpus + usize::from(config.use_cpu);
    if workers == 0 {
        return Err(crate::OocError::Config(
            "cannot distribute chunks over an empty worker set".into(),
        ));
    }
    let mut assignment: Vec<Vec<ChunkInfo>> = vec![Vec::new(); workers];
    let mut gpu_claims = 0u64;
    let mut cpu_steals = 0u64;
    match config.scheduler {
        SchedulerKind::Static => {
            // One-shot LPT list scheduling over estimated chunk costs.
            let mut loads = vec![0u64; workers];
            for info in order {
                let p = pg.chunk(info.id);
                let est = |w: usize| {
                    if w < config.num_gpus {
                        gpu_chunk_estimate(cost, p, config.gpu.pinned)
                    } else {
                        cost.cpu_chunk_duration(p.flops, p.nnz)
                    }
                };
                let Some(best_w) = (0..workers).min_by_key(|&w| (loads[w] + est(w), w)) else {
                    return Err(crate::OocError::Config(
                        "cannot distribute chunks over an empty worker set".into(),
                    ));
                };
                loads[best_w] += est(best_w);
                assignment[best_w].push(*info);
                if best_w < config.num_gpus {
                    gpu_claims += 1;
                } else {
                    cpu_steals += 1;
                }
            }
        }
        SchedulerKind::WorkStealing => {
            // Two-ended claim queue: the globally least-loaded worker
            // acts next (ties to the lowest index, so GPUs lead); GPUs
            // claim the dense head, the CPU steals the sparse tail.
            let mut clocks = vec![0u64; workers];
            let mut head = 0usize;
            let mut tail = order.len();
            while head < tail {
                let Some(w) = (0..workers).min_by_key(|&w| (clocks[w], w)) else {
                    return Err(crate::OocError::Config(
                        "cannot distribute chunks over an empty worker set".into(),
                    ));
                };
                let info = if w < config.num_gpus {
                    let info = order[head];
                    head += 1;
                    gpu_claims += 1;
                    clocks[w] += gpu_chunk_estimate(cost, pg.chunk(info.id), config.gpu.pinned);
                    info
                } else {
                    tail -= 1;
                    let info = order[tail];
                    cpu_steals += 1;
                    let p = pg.chunk(info.id);
                    clocks[w] += cost.cpu_chunk_duration(p.flops, p.nnz);
                    info
                };
                assignment[w].push(info);
            }
        }
    }
    Ok((assignment, gpu_claims, cpu_steals))
}

/// Computes `C = a · b` across `num_gpus` simulated devices (plus an
/// optional CPU worker).
pub fn multiply_multi_gpu(
    a: &CsrMatrix,
    b: &CsrMatrix,
    config: &MultiGpuConfig,
) -> Result<MultiGpuRun> {
    config.validate()?;
    // The per-device estimator is honored: a non-exact `--estimator`
    // used to be silently forced back to exact here, which dropped the
    // flag without a word. Distribution prices speculative chunks the
    // same way the pipeline runs them (see `gpu_chunk_estimate`), while
    // the realized flop split still comes from actual per-chunk flops.
    let pg = prepare_grid(a, b, &config.gpu)?;
    let order = pg.grid.sorted_desc();
    let (assignment, gpu_claims, cpu_steals) = distribute(config, &pg, &order)?;

    // Simulate each GPU on its own device; cost the CPU worker.
    let mut gpu_ns = Vec::with_capacity(config.num_gpus);
    let mut timelines = Vec::with_capacity(config.num_gpus);
    let mut metrics = Vec::with_capacity(config.num_gpus);
    let mut gpu_chunks = Vec::with_capacity(config.num_gpus);
    let mut recovery = RecoveryReport::default();
    let mut overrides: HashMap<ChunkId, CsrMatrix> = HashMap::new();
    for (device, chunks) in assignment.iter().take(config.num_gpus).enumerate() {
        // Each device draws from its own derived fault streams (device
        // and host) so one GPU's faults never shift another's.
        let mut dev_cfg = config.gpu.clone();
        dev_cfg.fault_plan = config
            .gpu
            .fault_plan
            .as_ref()
            .map(|p| p.derive(device as u64));
        dev_cfg.host_faults = (config.gpu.host_faults.as_ref())
            .map(|p| p.derive(faults::streams::MULTI_GPU + device as u64));
        let run = run_on_device(a, &pg, &ChunkGrid::grouped_desc(chunks), &dev_cfg)?;
        recovery.merge(&run.recovery);
        overrides.extend(run.overrides);
        gpu_ns.push(run.sim_ns);
        timelines.push(run.timeline);
        metrics.push(run.metrics);
        gpu_chunks.push(chunks.len());
    }
    // Estimator accuracy is a property of the shared grid, not of one
    // device; report it once, on device 0, so `--json` consumers see it.
    if let Some(m0) = metrics.first_mut() {
        m0.estimator = estimator_stats(&config.gpu, &pg, &recovery);
    }
    // The CPU worker, when present, is the last slot.
    let cpu_chunks = assignment
        .get(config.num_gpus)
        .map_or(&[][..], Vec::as_slice);
    let cpu_ns = cpu_worker_ns(&pg, cpu_chunks, &config.gpu, &mut recovery);

    let c = assemble_product(&pg, &order, &overrides);
    let sim_ns = gpu_ns.iter().copied().max().unwrap_or(0).max(cpu_ns);
    let total_flops = pg.total_flops();
    let gpu_flops: u64 = assignment
        .iter()
        .take(config.num_gpus)
        .flatten()
        .map(|info| info.flops)
        .sum();
    let scheduler = SchedulerStats {
        kind: config.scheduler,
        gpu_claims,
        cpu_steals,
        gpu_idle_ns: gpu_ns.iter().map(|&t| sim_ns - t).sum(),
        cpu_idle_ns: sim_ns - cpu_ns,
        realized_gpu_ratio: if total_flops == 0 {
            0.0
        } else {
            gpu_flops as f64 / total_flops as f64
        },
    };
    Ok(MultiGpuRun {
        c,
        sim_ns,
        gpu_ns,
        cpu_ns,
        gpu_chunks,
        cpu_chunks: cpu_chunks.len(),
        flops: total_flops,
        timelines,
        metrics,
        plan: pg.plan,
        recovery,
        scheduler,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_spgemm::reference;
    use sparse::gen::erdos_renyi;

    fn fixture() -> CsrMatrix {
        erdos_renyi(700, 700, 0.03, 11)
    }

    fn config(num_gpus: usize) -> MultiGpuConfig {
        MultiGpuConfig {
            gpu: OocConfig::with_device_memory(3 << 19).panels(4, 4),
            num_gpus,
            use_cpu: true,
            scheduler: SchedulerKind::WorkStealing,
        }
    }

    #[test]
    fn result_matches_reference() {
        let a = fixture();
        let run = multiply_multi_gpu(&a, &a, &config(2)).unwrap();
        let expect = reference::multiply(&a, &a).unwrap();
        assert!(run.c.approx_eq(&expect, 1e-9));
        assert_eq!(
            run.gpu_chunks.iter().sum::<usize>() + run.cpu_chunks,
            run.plan.num_chunks()
        );
        for t in &run.timelines {
            t.validate().unwrap();
        }
    }

    #[test]
    fn more_gpus_never_slower() {
        let a = fixture();
        let one = multiply_multi_gpu(&a, &a, &config(1)).unwrap();
        let two = multiply_multi_gpu(&a, &a, &config(2)).unwrap();
        let four = multiply_multi_gpu(&a, &a, &config(4)).unwrap();
        assert!(two.sim_ns <= one.sim_ns, "2 GPUs slower than 1");
        assert!(four.sim_ns <= two.sim_ns, "4 GPUs slower than 2");
        // And scaling actually buys something on a chunky workload.
        assert!(
            (four.sim_ns as f64) < 0.8 * one.sim_ns as f64,
            "no speedup from 4x devices: {} vs {}",
            four.sim_ns,
            one.sim_ns
        );
    }

    #[test]
    fn single_gpu_no_cpu_degenerates_to_plain_executor_shape() {
        let a = fixture();
        let mut cfg = config(1);
        cfg.use_cpu = false;
        let run = multiply_multi_gpu(&a, &a, &cfg).unwrap();
        assert_eq!(run.cpu_chunks, 0);
        assert_eq!(run.cpu_ns, 0);
        assert_eq!(run.gpu_chunks[0], run.plan.num_chunks());
        let expect = reference::multiply(&a, &a).unwrap();
        assert!(run.c.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn zero_gpus_rejected() {
        let a = fixture();
        assert!(multiply_multi_gpu(&a, &a, &config(0)).is_err());
    }

    #[test]
    fn empty_worker_set_is_a_config_error_not_a_panic() {
        let a = fixture();
        let mut cfg = config(0);
        cfg.use_cpu = false;
        // Bypass validate(): exercise distribute()'s own guard.
        let pg = prepare_grid(&a, &a, &cfg.gpu).unwrap();
        let order = pg.grid.sorted_desc();
        match distribute(&cfg, &pg, &order) {
            Err(crate::OocError::Config(msg)) => {
                assert!(msg.contains("empty worker set"), "{msg}")
            }
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn host_faults_keep_c_bit_identical_and_cost_time() {
        let a = fixture();
        let mut cfg = config(2);
        cfg.gpu.host_faults = Some(crate::faults::HostFaultPlan::seeded(11).cpu_kernel_rate(0.5));
        let faulted = multiply_multi_gpu(&a, &a, &cfg).unwrap();
        let clean = multiply_multi_gpu(&a, &a, &config(2)).unwrap();
        assert_eq!(faulted.c, clean.c, "host faults must not perturb C");
        assert!(
            faulted.recovery.cpu_kernel_faults > 0,
            "rate 0.5 on the CPU worker should inject"
        );
        assert!(
            faulted.cpu_ns > clean.cpu_ns,
            "faults must cost simulated time"
        );
        // Same plan, same run: byte-reproducible.
        let again = multiply_multi_gpu(&a, &a, &cfg).unwrap();
        assert_eq!(again.cpu_ns, faulted.cpu_ns);
        assert_eq!(again.recovery, faulted.recovery);
    }

    #[test]
    fn deterministic() {
        let a = fixture();
        let r1 = multiply_multi_gpu(&a, &a, &config(3)).unwrap();
        let r2 = multiply_multi_gpu(&a, &a, &config(3)).unwrap();
        assert_eq!(r1.sim_ns, r2.sim_ns);
        assert_eq!(r1.gpu_chunks, r2.gpu_chunks);
        assert_eq!(r1.scheduler, r2.scheduler);
    }

    #[test]
    fn static_lpt_matches_reference_too() {
        let a = fixture();
        let cfg = config(2).scheduler(SchedulerKind::Static);
        let run = multiply_multi_gpu(&a, &a, &cfg).unwrap();
        let expect = reference::multiply(&a, &a).unwrap();
        assert!(run.c.approx_eq(&expect, 1e-9));
        assert_eq!(run.scheduler.kind, SchedulerKind::Static);
        assert_eq!(
            run.scheduler.gpu_claims + run.scheduler.cpu_steals,
            run.plan.num_chunks() as u64
        );
    }

    #[test]
    fn scheduler_stats_account_every_chunk_and_worker() {
        let a = fixture();
        let run = multiply_multi_gpu(&a, &a, &config(3)).unwrap();
        assert_eq!(
            run.scheduler.gpu_claims as usize,
            run.gpu_chunks.iter().sum::<usize>()
        );
        assert_eq!(run.scheduler.cpu_steals as usize, run.cpu_chunks);
        let idle: SimTime = run.gpu_ns.iter().map(|&t| run.sim_ns - t).sum();
        assert_eq!(run.scheduler.gpu_idle_ns, idle);
        assert_eq!(run.scheduler.cpu_idle_ns, run.sim_ns - run.cpu_ns);
        assert!((0.0..=1.0).contains(&run.scheduler.realized_gpu_ratio));
    }
}
