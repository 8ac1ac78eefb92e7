//! The hybrid CPU+GPU executor — Algorithm 4 and Section III-C.
//!
//! Chunk flops are analyzed up front (`GetFlops`) and chunks are
//! ordered by decreasing flops. Under the default work-stealing
//! scheduler (the `scheduler` module) the GPU worker claims chunks from
//! the dense head of a shared two-ended queue while the CPU worker
//! steals from the sparse tail; under [`SchedulerKind::Static`] the
//! smallest prefix holding at least `Ratio = S/(S+1)` of the total
//! flops (65 % by default) goes to the GPU one-shot, exactly as the
//! paper prescribes. Either way the GPU worker is the simulated
//! asynchronous pipeline and the CPU worker is costed by the
//! calibrated CPU model, with all numeric results computed for real by
//! the same multicore code the CPU baseline uses.

use crate::chunks::{ChunkGrid, ChunkInfo};
use crate::config::{HybridConfig, OocConfig, SchedulerKind};
use crate::error::OocError;
use crate::executor::{
    assemble_product, estimator_stats, prepare_grid, run_on_device, DeviceRun, PreparedGrid,
};
use crate::faults::{self, HostFaultState};
use crate::metrics::{Metrics, SchedulerStats};
use crate::plan::PanelPlan;
use crate::recovery::RecoveryReport;
use crate::scheduler::assign;
use crate::Result;
use gpu_sim::{SimTime, Timeline};
use sparse::CsrMatrix;

/// A completed hybrid run.
#[derive(Debug)]
pub struct HybridRun {
    /// The full product matrix.
    pub c: CsrMatrix,
    /// Hybrid completion time: `max(gpu, cpu)` (both devices start
    /// together and the run ends when the slower side finishes).
    pub sim_ns: SimTime,
    /// GPU-side completion time.
    pub gpu_ns: SimTime,
    /// CPU-side completion time.
    pub cpu_ns: SimTime,
    /// Chunks assigned to the GPU.
    pub num_gpu_chunks: usize,
    /// Chunks assigned to the CPU.
    pub num_cpu_chunks: usize,
    /// Total flops.
    pub flops: u64,
    /// Output nonzeros.
    pub nnz_c: u64,
    /// GPU device timeline.
    pub timeline: Timeline,
    /// The panel plan used.
    pub plan: PanelPlan,
    /// What recovery did (all-zero for a fault-free run).
    pub recovery: RecoveryReport,
    /// Structured GPU-side run metrics (DESIGN.md §9); the CPU worker
    /// has no timeline, its time is in [`HybridRun::cpu_ns`].
    pub metrics: Metrics,
    /// How the scheduler distributed the chunks: claim/steal counts,
    /// per-worker idle time, and the realized GPU flop fraction.
    pub scheduler: SchedulerStats,
}

impl HybridRun {
    /// GFLOPS over hybrid completion time.
    pub fn gflops(&self) -> f64 {
        if self.sim_ns == 0 {
            return 0.0;
        }
        self.flops as f64 / self.sim_ns as f64
    }

    /// Hybrid completion time in milliseconds.
    pub fn sim_ms(&self) -> f64 {
        self.sim_ns as f64 / 1e6
    }
}

/// Result of the exhaustive GPU-chunk-count search (Table III).
#[derive(Debug, Clone)]
pub struct RatioSearch {
    /// Hybrid completion time for every possible number of GPU chunks
    /// `g = 0..=num_chunks`, as `(g, ns)`.
    pub per_g: Vec<(usize, SimTime)>,
    /// The `g` with the lowest completion time.
    pub best_g: usize,
    /// Completion time at `best_g`.
    pub best_ns: SimTime,
    /// The `g` the fixed flop ratio picks (Algorithm 4).
    pub ratio_g: usize,
    /// Completion time at `ratio_g`.
    pub ratio_ns: SimTime,
}

impl RatioSearch {
    /// Relative slowdown of the fixed-ratio choice vs the best
    /// (0.0 = the ratio found the optimum).
    pub fn ratio_penalty(&self) -> f64 {
        if self.best_ns == 0 {
            return 0.0;
        }
        self.ratio_ns as f64 / self.best_ns as f64 - 1.0
    }
}

/// Derives the GPU flop ratio from the cost model instead of the
/// fixed 65 % — the paper's own prescription for porting: "it might
/// change if we use another GPU or CPU, but we should still be able to
/// use a ratio" (Section III-C). `S` is the expected GPU-over-CPU
/// speedup for this product and the returned ratio is `S / (S + 1)`.
///
/// The GPU side is estimated as the *slower* of its two saturating
/// resources under the async pipeline: the D2H output transfer and the
/// symbolic+numeric kernel time at the product's mean compression
/// ratio. (An earlier version estimated from the copy alone, which
/// over-committed the GPU on compute-bound products — high compression
/// ratios shrink the transfer but not the flops.)
pub fn auto_gpu_ratio(cost: &gpu_sim::CostModel, flops: u64, nnz_c: u64, pinned: bool) -> f64 {
    use gpu_sim::KernelKind;
    let copy_est = cost.copy_duration(nnz_c * 12, true, pinned);
    let compression_ratio = if nnz_c == 0 {
        1.0
    } else {
        flops as f64 / nnz_c as f64
    };
    let kernel_est = cost.kernel_duration(KernelKind::Symbolic {
        flops,
        compression_ratio,
    }) + cost.kernel_duration(KernelKind::Numeric {
        flops,
        compression_ratio,
    });
    let gpu_est = copy_est.max(kernel_est).max(1);
    let cpu_est = cost.cpu_chunk_duration(flops, nnz_c).max(1);
    let s = cpu_est as f64 / gpu_est as f64;
    (s / (s + 1.0)).clamp(0.0, 1.0)
}

/// The CPU worker's clock over `chunks`: it runs them one after
/// another, each with all cores (Algorithm 4 line 26), at the
/// calibrated CPU cost. The worker is a host fault domain of its own:
/// a transient CPU-kernel fault costs a recompute plus backoff on this
/// clock. Scheduling stays fault-blind, so claim decisions (and hence
/// C's assembly order) never move.
pub(crate) fn cpu_worker_ns(
    pg: &PreparedGrid,
    chunks: &[ChunkInfo],
    config: &OocConfig,
    recovery: &mut RecoveryReport,
) -> SimTime {
    let mut host = (config.host_faults.as_ref())
        .map(|p| HostFaultState::new(p.derive(faults::streams::CPU_WORKER)));
    let mut clock: SimTime = 0;
    for info in chunks {
        let p = &pg.chunk(info.id).desc;
        let chunk_ns = config.cost.cpu_chunk_duration(p.flops, p.nnz);
        if let Some(h) = host.as_mut() {
            h.cpu_kernel_retries(&config.cost, chunk_ns, recovery, |ns| clock += ns);
        }
        clock += chunk_ns;
    }
    clock
}

/// The hybrid executor.
pub struct Hybrid {
    config: HybridConfig,
}

impl Hybrid {
    /// Creates a hybrid executor.
    pub fn new(config: HybridConfig) -> Self {
        Hybrid { config }
    }

    /// Access to the configuration.
    pub fn config(&self) -> &HybridConfig {
        &self.config
    }

    fn ordered_chunks(&self, pg: &PreparedGrid) -> Vec<ChunkInfo> {
        if self.config.reorder_assignment {
            pg.grid.sorted_desc()
        } else {
            pg.grid.natural_order()
        }
    }

    /// The shared back half of every hybrid entry point: schedule the
    /// prepared chunks, run both simulated workers, assemble, and
    /// account.
    ///
    /// The fault plan's worker-panic trigger loses the GPU worker when
    /// the scheduler gave it at least `worker_panic_after` chunks. With
    /// `drain_worker_panics` the GPU pipeline never runs and every
    /// chunk of its share is demoted and recomputed on the CPU clock;
    /// otherwise the run fails with [`OocError::Worker`].
    fn run_prepared(&self, a: &CsrMatrix, pg: &PreparedGrid) -> Result<HybridRun> {
        let order = self.ordered_chunks(pg);
        let assignment = assign(&self.config, pg, &order);
        // Assignment follows the configured policy; execution on the
        // GPU groups its chunks by row panel to keep A resident.
        let gpu_order = ChunkGrid::grouped_desc(&assignment.gpu);
        let mut recovery = RecoveryReport::default();
        let share = assignment.gpu.len() as u64;
        let trigger = (self.config.gpu.fault_plan.as_ref()).and_then(|p| p.worker_panic_after);
        let gpu_dead = trigger.is_some_and(|n| share >= n);
        if gpu_dead {
            if !self.config.gpu.recovery.drain_worker_panics {
                return Err(OocError::Worker {
                    worker: "gpu".to_string(),
                    message: format!("injected gpu worker fault with {share} chunks assigned"),
                });
            }
            recovery.worker_panics += 1;
        }

        // Assignment above already happened on exact per-chunk
        // flops/nnz — the estimator only sizes device allocations.
        let gpu = if gpu_dead {
            DeviceRun::default()
        } else {
            run_on_device(a, pg, &gpu_order, &self.config.gpu)?
        };
        recovery.merge(&gpu.recovery);
        let mut metrics = gpu.metrics;
        metrics.estimator = estimator_stats(pg, &recovery);
        let gpu_ns = gpu.sim_ns;
        let mut cpu_ns = cpu_worker_ns(pg, &assignment.cpu, &self.config.gpu, &mut recovery);
        if gpu_dead {
            // Already-prepared host results are kept; the CPU clock
            // pays for recomputing every orphaned GPU chunk.
            for info in &assignment.gpu {
                let p = &pg.chunk(info.id).desc;
                cpu_ns += self.config.gpu.cost.cpu_chunk_duration(p.flops, p.nnz);
                recovery.demotions += 1;
            }
        }
        let c = assemble_product(pg);

        let sim_ns = gpu_ns.max(cpu_ns);
        let total_flops = pg.total_flops();
        let gpu_flops: u64 = if gpu_dead {
            0
        } else {
            assignment.gpu.iter().map(|i| i.flops).sum()
        };
        let stats = SchedulerStats {
            kind: self.config.scheduler,
            gpu_claims: assignment.gpu_claims,
            cpu_steals: assignment.cpu_steals,
            gpu_idle_ns: sim_ns - gpu_ns,
            cpu_idle_ns: sim_ns - cpu_ns,
            realized_gpu_ratio: if total_flops == 0 {
                0.0
            } else {
                gpu_flops as f64 / total_flops as f64
            },
        };
        Ok(HybridRun {
            sim_ns,
            gpu_ns,
            cpu_ns,
            num_gpu_chunks: assignment.gpu.len(),
            num_cpu_chunks: assignment.cpu.len(),
            flops: total_flops,
            nnz_c: pg.total_nnz(),
            timeline: gpu.timeline,
            plan: pg.plan.clone(),
            recovery,
            metrics: metrics.with_scheduler(stats),
            scheduler: stats,
            c,
        })
    }

    /// Computes `C = a · b` on both devices.
    ///
    /// The configured estimator is honored the same way the standalone
    /// GPU executor honors it: a non-exact estimator sizes the GPU
    /// side's device allocations speculatively (with overflow
    /// recovery), while the hybrid *distribution* still reasons from
    /// exact per-chunk flops and sizes. (Earlier versions silently
    /// forced the exact planner here, dropping `--estimator` on the
    /// floor for `--executor hybrid`.)
    pub fn multiply(&self, a: &CsrMatrix, b: &CsrMatrix) -> Result<HybridRun> {
        self.config.validate()?;
        let pg = prepare_grid(a, b, &self.config.gpu)?;
        self.run_prepared(a, &pg)
    }

    /// [`Hybrid::multiply`] against a caller-prepared (possibly cached
    /// and shared) grid — the resident-state entry point the service
    /// frontend uses. Bit-identical to a one-shot [`Hybrid::multiply`]
    /// under the same configuration: preparation is deterministic and
    /// the run never mutates the grid.
    pub fn multiply_prepared(&self, a: &CsrMatrix, pg: &PreparedGrid) -> Result<HybridRun> {
        self.config.validate()?;
        self.run_prepared(a, pg)
    }

    /// [`Hybrid::multiply`] forced through the paper's one-shot static
    /// split, regardless of the configured scheduler — the bit-exact
    /// Algorithm 4 baseline the work-stealing scheduler is compared
    /// against (Table III, static vs dynamic).
    pub fn multiply_static(&self, a: &CsrMatrix, b: &CsrMatrix) -> Result<HybridRun> {
        let config = self.config.clone().scheduler(SchedulerKind::Static);
        Hybrid::new(config).multiply(a, b)
    }

    /// Exhaustively evaluates every GPU chunk count (Table III:
    /// "determined through exhaustive search") and compares the fixed
    /// flop ratio against the optimum. The search enumerates static
    /// prefix splits — the same family both schedulers draw from — and
    /// prices each GPU prefix on the executor's own device run, so a
    /// chunk that outgrows its pool epoch is re-split there, not an
    /// error.
    pub fn ratio_search(&self, a: &CsrMatrix, b: &CsrMatrix) -> Result<RatioSearch> {
        self.config.validate()?;
        // Static prefix splits are compared on the *exact* schedule, so
        // the per-`g` times stay comparable across estimator settings.
        // The search ignores fault plans, device and host alike, and
        // run budgets.
        let mut gpu = (self.config.gpu.clone()).estimator(accum::estimate::EstimateConfig::exact());
        gpu.fault_plan = None;
        gpu.host_faults = None;
        gpu.budget = None;
        let pg = prepare_grid(a, b, &gpu)?;
        let order = self.ordered_chunks(&pg);
        let (ratio_gpu, _) = ChunkGrid::split_by_ratio(&order, self.config.gpu_ratio);
        let ratio_g = ratio_gpu.len();

        let mut per_g = Vec::with_capacity(order.len() + 1);
        for g in 0..=order.len() {
            let gpu_order = ChunkGrid::grouped_desc(&order[..g]);
            let gpu_ns = run_on_device(a, &pg, &gpu_order, &gpu)?.sim_ns;
            let cpu_ns = cpu_worker_ns(&pg, &order[g..], &gpu, &mut RecoveryReport::default());
            per_g.push((g, gpu_ns.max(cpu_ns)));
        }
        let &(best_g, best_ns) = per_g
            .iter()
            .min_by_key(|&&(g, t)| (t, g))
            .expect("at least g=0 exists");
        let ratio_ns = per_g[ratio_g].1;
        Ok(RatioSearch {
            per_g,
            best_g,
            best_ns,
            ratio_g,
            ratio_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OocConfig;
    use crate::executor::OutOfCoreGpu;
    use cpu_spgemm::reference;
    use sparse::gen::erdos_renyi;

    fn fixture() -> CsrMatrix {
        erdos_renyi(600, 600, 0.03, 7)
    }

    fn config() -> HybridConfig {
        HybridConfig {
            gpu: OocConfig::with_device_memory(3 << 19).panels(3, 4),
            gpu_ratio: 0.65,
            reorder_assignment: true,
            scheduler: SchedulerKind::WorkStealing,
        }
    }

    #[test]
    fn hybrid_result_matches_reference() {
        let a = fixture();
        let run = Hybrid::new(config()).multiply(&a, &a).unwrap();
        let expect = reference::multiply(&a, &a).unwrap();
        assert!(run.c.approx_eq(&expect, 1e-9));
        assert_eq!(run.num_gpu_chunks + run.num_cpu_chunks, 12);
        assert!(run.num_gpu_chunks > 0, "the GPU must claim work");
        assert_eq!(run.sim_ns, run.gpu_ns.max(run.cpu_ns));
    }

    #[test]
    fn hybrid_beats_gpu_only() {
        let a = fixture();
        let hybrid = Hybrid::new(config()).multiply(&a, &a).unwrap();
        let gpu_only = OutOfCoreGpu::new(config().gpu).multiply(&a, &a).unwrap();
        assert!(
            hybrid.sim_ns < gpu_only.sim_ns,
            "hybrid {} !< gpu-only {}",
            hybrid.sim_ns,
            gpu_only.sim_ns
        );
    }

    #[test]
    fn work_stealing_matches_static_bitwise_and_is_no_slower() {
        let a = fixture();
        let h = Hybrid::new(config());
        let dynamic = h.multiply(&a, &a).unwrap();
        let static_ = h.multiply_static(&a, &a).unwrap();
        assert!(
            dynamic.c.approx_eq(&static_.c, 0.0),
            "schedulers must agree bit-for-bit"
        );
        assert_eq!(static_.scheduler.kind, SchedulerKind::Static);
        assert_eq!(dynamic.scheduler.kind, SchedulerKind::WorkStealing);
        assert!(
            dynamic.sim_ns <= static_.sim_ns,
            "work stealing {} slower than static {}",
            dynamic.sim_ns,
            static_.sim_ns
        );
    }

    #[test]
    fn scheduler_stats_are_consistent() {
        let a = fixture();
        let run = Hybrid::new(config()).multiply(&a, &a).unwrap();
        let s = run.scheduler;
        assert_eq!(s.gpu_claims as usize, run.num_gpu_chunks);
        assert_eq!(s.cpu_steals as usize, run.num_cpu_chunks);
        assert_eq!(s.gpu_idle_ns, run.sim_ns - run.gpu_ns);
        assert_eq!(s.cpu_idle_ns, run.sim_ns - run.cpu_ns);
        assert!((0.0..=1.0).contains(&s.realized_gpu_ratio));
        assert_eq!(
            run.metrics.scheduler,
            Some(s),
            "metrics must carry the same stats"
        );
    }

    #[test]
    fn gpu_gets_the_dense_chunks() {
        let a = fixture();
        let h = Hybrid::new(config());
        let pg = prepare_grid(&a, &a, &h.config().gpu).unwrap();
        let order = pg.grid.sorted_desc();
        let (gpu, cpu) = ChunkGrid::split_by_ratio(&order, 0.65);
        let min_gpu = gpu.iter().map(|c| c.flops).min().unwrap();
        let max_cpu = cpu.iter().map(|c| c.flops).max().unwrap_or(0);
        assert!(
            min_gpu >= max_cpu,
            "every GPU chunk must be at least as dense"
        );
    }

    #[test]
    fn ratio_search_brackets_fixed_ratio() {
        let a = fixture();
        let search = Hybrid::new(config()).ratio_search(&a, &a).unwrap();
        assert_eq!(search.per_g.len(), 13);
        assert!(search.best_ns <= search.ratio_ns);
        assert!(search.ratio_penalty() >= 0.0);
        // The best assignment beats both extremes (all-CPU, all-GPU) or
        // at least matches them.
        assert!(search.best_ns <= search.per_g[0].1);
        assert!(search.best_ns <= search.per_g.last().unwrap().1);
    }

    #[test]
    fn auto_ratio_tracks_relative_speedup() {
        let cost = gpu_sim::CostModel::calibrated();
        // Low compression ratio: nnz = flops/2 -> CPU insert-bound,
        // GPU transfer-bound; S ~ 2 -> ratio ~ 2/3 (the paper's 65%).
        let r_low = auto_gpu_ratio(&cost, 10_000_000, 5_000_000, true);
        assert!((0.6..0.75).contains(&r_low), "got {r_low}");
        // High compression ratio: transfers shrink faster than CPU
        // work -> GPU advantage grows -> larger ratio.
        let r_high = auto_gpu_ratio(&cost, 10_000_000, 1_000_000, true);
        assert!(r_high > r_low, "{r_high} !> {r_low}");
        assert!(r_high < 1.0);
    }

    #[test]
    fn auto_ratio_accounts_for_kernel_bound_products() {
        use gpu_sim::KernelKind;
        let cost = gpu_sim::CostModel::calibrated();
        // Extreme compression ratio: the D2H output transfer becomes
        // negligible while the kernels still have to chew every flop.
        // The copy-only estimate (the old bug) would call the GPU
        // nearly free and hand it almost everything.
        let (flops, nnz_c) = (100_000_000u64, 1_000u64);
        let compression_ratio = flops as f64 / nnz_c as f64;
        let kernel_est = cost.kernel_duration(KernelKind::Symbolic {
            flops,
            compression_ratio,
        }) + cost.kernel_duration(KernelKind::Numeric {
            flops,
            compression_ratio,
        });
        let copy_est = cost.copy_duration(nnz_c * 12, true, true);
        assert!(
            kernel_est > copy_est,
            "fixture must be kernel-bound: {kernel_est} !> {copy_est}"
        );
        let fixed = auto_gpu_ratio(&cost, flops, nnz_c, true);
        let s_copy = cost.cpu_chunk_duration(flops, nnz_c).max(1) as f64 / copy_est.max(1) as f64;
        let buggy = s_copy / (s_copy + 1.0);
        assert!(
            fixed < buggy,
            "kernel-aware ratio {fixed} must undercut the copy-only estimate {buggy}"
        );
        let s_kernel =
            cost.cpu_chunk_duration(flops, nnz_c).max(1) as f64 / kernel_est.max(1) as f64;
        let expect = s_kernel / (s_kernel + 1.0);
        assert!((fixed - expect).abs() < 1e-12, "{fixed} != {expect}");
    }

    #[test]
    fn auto_ratio_hybrid_is_competitive_with_search() {
        let a = fixture();
        let h = Hybrid::new(config());
        let pstats = sparse::stats::ProductStats::square(&a);
        let auto = auto_gpu_ratio(&h.config().gpu.cost, pstats.flops, pstats.nnz_c, true);
        let run = Hybrid::new(config().ratio(auto)).multiply(&a, &a).unwrap();
        let search = h.ratio_search(&a, &a).unwrap();
        // The estimate is asymptotic (it ignores launch overheads and
        // the small-chunk saturation that dominate this tiny fixture),
        // so allow a generous band; the harness validates it at
        // realistic scale.
        assert!(
            (run.sim_ns as f64) <= 2.0 * search.best_ns as f64,
            "auto ratio {auto:.2} far from optimal: {} vs best {}",
            run.sim_ns,
            search.best_ns
        );
    }

    #[test]
    fn threaded_hybrid_extreme_ratios() {
        // Both devices' claim loops share one scheduler; at either extreme
        // one side claims nothing and the other must still cover the grid.
        let a = fixture();
        let expect = reference::multiply(&a, &a).unwrap();
        for ratio in [0.0, 1.0] {
            let run = Hybrid::new(config().ratio(ratio)).multiply(&a, &a).unwrap();
            assert!(run.c.approx_eq(&expect, 1e-9), "ratio {ratio}");
            assert_eq!(run.num_gpu_chunks + run.num_cpu_chunks, 12, "ratio {ratio}");
            assert_eq!(run.sim_ns, run.gpu_ns.max(run.cpu_ns), "ratio {ratio}");
        }
    }

    #[test]
    fn zero_ratio_runs_everything_on_cpu() {
        let a = fixture();
        let run = Hybrid::new(config().ratio(0.0)).multiply(&a, &a).unwrap();
        assert_eq!(run.num_gpu_chunks, 0);
        assert_eq!(run.gpu_ns, 0);
        assert!(run.cpu_ns > 0);
        let expect = reference::multiply(&a, &a).unwrap();
        assert!(run.c.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn full_ratio_runs_everything_on_gpu() {
        let a = fixture();
        let run = Hybrid::new(config().ratio(1.0)).multiply(&a, &a).unwrap();
        assert_eq!(run.num_cpu_chunks, 0);
        assert_eq!(run.cpu_ns, 0);
        let expect = reference::multiply(&a, &a).unwrap();
        assert!(run.c.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn reorder_off_assigns_in_grid_order() {
        let a = fixture();
        let run = Hybrid::new(config().reorder(false))
            .multiply(&a, &a)
            .unwrap();
        let expect = reference::multiply(&a, &a).unwrap();
        assert!(run.c.approx_eq(&expect, 1e-9));
    }
}
