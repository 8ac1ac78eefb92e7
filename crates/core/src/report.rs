//! Serializable run summaries for the experiment harness.

use crate::metrics::{EstimatorStats, Metrics, SchedulerStats};
use crate::recovery::RecoveryReport;
use gpu_sim::{CostModel, SimTime};
use serde::{Deserialize, Serialize};

/// Modeled CPU-baseline time for a whole multiplication (the Fig 7
/// comparator): the Nagasaka-style multicore executor processing the
/// full product as one job.
pub fn cpu_baseline_ns(cost: &CostModel, flops: u64, nnz_c: u64) -> SimTime {
    cost.cpu_chunk_duration(flops, nnz_c)
}

/// GFLOPS for a flop count over a simulated duration.
pub fn gflops(flops: u64, ns: SimTime) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    flops as f64 / ns as f64
}

/// One executor's result on one matrix — a row in the harness output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Matrix abbreviation (paper Figure labels).
    pub matrix: String,
    /// Executor name (`cpu`, `gpu-sync`, `gpu-async`, `hybrid`, ...).
    pub executor: String,
    /// Total flops.
    pub flops: u64,
    /// Output nonzeros.
    pub nnz_c: u64,
    /// Completion time, simulated ns.
    pub sim_ns: SimTime,
    /// GFLOPS (flops / sim time).
    pub gflops: f64,
    /// Transfer fraction of the makespan, if a GPU was involved.
    pub transfer_fraction: Option<f64>,
    /// Chunks in the plan, if partitioned.
    pub num_chunks: Option<usize>,
    /// Chunks assigned to the GPU, for hybrid runs.
    pub gpu_chunks: Option<usize>,
    /// Total injected faults, for runs with a fault plan.
    pub faults: Option<u64>,
    /// Total host-side faults (spill I/O, corruption, CPU kernel,
    /// host allocation), for runs with a host fault plan.
    pub host_faults: Option<u64>,
    /// Retries spent recovering, for runs with a fault plan.
    pub retries: Option<u64>,
    /// Chunks demoted to the CPU, for runs with a fault plan.
    pub demotions: Option<u64>,
    /// Whole-grid re-plans of the remaining work under pressure.
    pub replans: Option<u64>,
    /// Simulated time lost to faults + backoff, for runs with a fault
    /// plan.
    pub time_lost_ns: Option<SimTime>,
    /// Supervised degradation events recorded by the run.
    pub degradations: Option<u64>,
    /// Simulated time attributed to degraded operation, ns.
    pub degradation_ns: Option<SimTime>,
    /// Kernel-engine busy time, simulated ns (metrics layer).
    pub kernel_busy_ns: Option<SimTime>,
    /// H2D copy-engine busy time, simulated ns (metrics layer).
    pub h2d_busy_ns: Option<SimTime>,
    /// D2H copy-engine busy time, simulated ns (metrics layer).
    pub d2h_busy_ns: Option<SimTime>,
    /// Bytes moved host → device (metrics layer).
    pub h2d_bytes: Option<u64>,
    /// Bytes moved device → host (metrics layer).
    pub d2h_bytes: Option<u64>,
    /// Hidden-transfer / total-transfer time ratio (metrics layer).
    pub overlap_efficiency: Option<f64>,
    /// Bump-pool usage high-water mark, bytes (metrics layer).
    pub pool_high_water_bytes: Option<u64>,
    /// Scheduler name (`static` / `work-stealing`), for hybrid runs.
    pub scheduler: Option<String>,
    /// Chunks the GPU claimed from the dense head of the queue.
    pub gpu_claims: Option<u64>,
    /// Chunks the CPU stole from the sparse tail of the queue.
    pub cpu_steals: Option<u64>,
    /// GPU-side idle time against the makespan, simulated ns.
    pub gpu_idle_ns: Option<SimTime>,
    /// CPU-side idle time against the makespan, simulated ns.
    pub cpu_idle_ns: Option<SimTime>,
    /// Fraction of total flops that actually ran on the GPU.
    pub realized_gpu_ratio: Option<f64>,
    /// Estimator kind name, for speculative runs.
    pub estimator: Option<String>,
    /// Estimated output nonzeros, for speculative runs.
    pub est_nnz: Option<u64>,
    /// Chunks whose output outgrew the estimated allocation and were
    /// grown-and-retried, for speculative runs.
    pub estimate_overflows: Option<u64>,
}

impl RunReport {
    /// Creates a report with the derived GFLOPS filled in.
    pub fn new(
        matrix: impl Into<String>,
        executor: impl Into<String>,
        flops: u64,
        nnz_c: u64,
        sim_ns: SimTime,
    ) -> Self {
        RunReport {
            matrix: matrix.into(),
            executor: executor.into(),
            flops,
            nnz_c,
            sim_ns,
            gflops: gflops(flops, sim_ns),
            transfer_fraction: None,
            num_chunks: None,
            gpu_chunks: None,
            faults: None,
            host_faults: None,
            retries: None,
            demotions: None,
            replans: None,
            time_lost_ns: None,
            degradations: None,
            degradation_ns: None,
            kernel_busy_ns: None,
            h2d_busy_ns: None,
            d2h_busy_ns: None,
            h2d_bytes: None,
            d2h_bytes: None,
            overlap_efficiency: None,
            pool_high_water_bytes: None,
            scheduler: None,
            gpu_claims: None,
            cpu_steals: None,
            gpu_idle_ns: None,
            cpu_idle_ns: None,
            realized_gpu_ratio: None,
            estimator: None,
            est_nnz: None,
            estimate_overflows: None,
        }
    }

    /// Fills in the recovery columns from a [`RecoveryReport`].
    pub fn with_recovery(mut self, recovery: &RecoveryReport) -> Self {
        self.faults = Some(recovery.faults());
        self.host_faults = Some(recovery.host_faults());
        self.retries = Some(recovery.retries);
        self.demotions = Some(recovery.demotions);
        self.replans = Some(recovery.replans);
        self.time_lost_ns = Some(recovery.time_lost_ns);
        self
    }

    /// Fills in the degradation columns from the run's recorded events.
    pub fn with_degradations(mut self, events: &[crate::metrics::DegradationEvent]) -> Self {
        self.degradations = Some(events.len() as u64);
        self.degradation_ns = Some(events.iter().map(|e| e.cost_ns).sum());
        self
    }

    /// Fills in the observability columns from a [`Metrics`] value.
    pub fn with_metrics(mut self, metrics: &Metrics) -> Self {
        let t = &metrics.timeline;
        self.kernel_busy_ns = Some(t.kernel.busy_ns);
        self.h2d_busy_ns = Some(t.h2d.busy_ns);
        self.d2h_busy_ns = Some(t.d2h.busy_ns);
        self.h2d_bytes = Some(t.h2d_bytes);
        self.d2h_bytes = Some(t.d2h_bytes);
        self.overlap_efficiency = Some(t.overlap_efficiency);
        self.pool_high_water_bytes = Some(metrics.pool_high_water_bytes);
        self
    }

    /// Fills in the estimator columns from an [`EstimatorStats`] value.
    pub fn with_estimator(mut self, stats: &EstimatorStats) -> Self {
        self.estimator = Some(stats.kind.clone());
        self.est_nnz = Some(stats.est_nnz);
        self.estimate_overflows = Some(stats.retries);
        self
    }

    /// Fills in the scheduler columns from a [`SchedulerStats`] value.
    pub fn with_scheduler(mut self, stats: &SchedulerStats) -> Self {
        self.scheduler = Some(stats.kind.name().to_string());
        self.gpu_claims = Some(stats.gpu_claims);
        self.cpu_steals = Some(stats.cpu_steals);
        self.gpu_idle_ns = Some(stats.gpu_idle_ns);
        self.cpu_idle_ns = Some(stats.cpu_idle_ns);
        self.realized_gpu_ratio = Some(stats.realized_gpu_ratio);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gflops_math() {
        assert_eq!(gflops(1_000_000_000, 1_000_000_000), 1.0);
        assert_eq!(gflops(500, 0), 0.0);
        assert!((gflops(2_000_000, 1_000_000) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut r = RunReport::new("nlp", "gpu-async", 1000, 100, 500);
        r.transfer_fraction = Some(0.8);
        r.num_chunks = Some(6);
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.matrix, "nlp");
        assert_eq!(back.sim_ns, 500);
        assert_eq!(back.transfer_fraction, Some(0.8));
    }

    #[test]
    fn with_recovery_fills_fault_columns() {
        let rec = RecoveryReport {
            kernel_faults: 3,
            copy_faults: 1,
            retries: 4,
            demotions: 2,
            time_lost_ns: 12_345,
            ..RecoveryReport::default()
        };
        let r = RunReport::new("nlp", "gpu-async", 1000, 100, 500).with_recovery(&rec);
        assert_eq!(r.faults, Some(4));
        assert_eq!(r.retries, Some(4));
        assert_eq!(r.demotions, Some(2));
        assert_eq!(r.time_lost_ns, Some(12_345));
        assert_eq!(r.host_faults, Some(0));
        assert_eq!(r.replans, Some(0));
    }

    #[test]
    fn with_recovery_fills_host_fault_columns() {
        let rec = RecoveryReport {
            spill_read_faults: 1,
            corruption_faults: 2,
            replans: 1,
            ..RecoveryReport::default()
        };
        let r = RunReport::new("nlp", "spill", 1000, 100, 500).with_recovery(&rec);
        assert_eq!(r.host_faults, Some(3));
        assert_eq!(r.replans, Some(1));
        assert_eq!(r.faults, Some(0));
    }

    #[test]
    fn with_degradations_fills_degradation_columns() {
        use crate::metrics::{DegradationCause, DegradationEvent};
        let events = [
            DegradationEvent {
                cause: DegradationCause::UnifiedThrash,
                at_ns: 0,
                cost_ns: 100,
            },
            DegradationEvent {
                cause: DegradationCause::DeadlineDemotion,
                at_ns: 50,
                cost_ns: 25,
            },
        ];
        let r = RunReport::new("nlp", "unified", 1000, 100, 500).with_degradations(&events);
        assert_eq!(r.degradations, Some(2));
        assert_eq!(r.degradation_ns, Some(125));
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.degradations, Some(2));
        assert_eq!(back.degradation_ns, Some(125));
    }

    #[test]
    fn with_metrics_fills_observability_columns() {
        let mut m = Metrics::default();
        m.timeline.kernel.busy_ns = 70;
        m.timeline.h2d.busy_ns = 20;
        m.timeline.d2h.busy_ns = 10;
        m.timeline.h2d_bytes = 4096;
        m.timeline.d2h_bytes = 8192;
        m.timeline.overlap_efficiency = 0.5;
        m.pool_high_water_bytes = 1 << 20;
        let r = RunReport::new("nlp", "gpu-async", 1000, 100, 500).with_metrics(&m);
        assert_eq!(r.kernel_busy_ns, Some(70));
        assert_eq!(r.h2d_busy_ns, Some(20));
        assert_eq!(r.d2h_busy_ns, Some(10));
        assert_eq!(r.h2d_bytes, Some(4096));
        assert_eq!(r.d2h_bytes, Some(8192));
        assert_eq!(r.overlap_efficiency, Some(0.5));
        assert_eq!(r.pool_high_water_bytes, Some(1 << 20));
    }

    #[test]
    fn with_scheduler_fills_scheduler_columns() {
        use crate::config::SchedulerKind;
        let stats = SchedulerStats {
            kind: SchedulerKind::WorkStealing,
            gpu_claims: 9,
            cpu_steals: 3,
            gpu_idle_ns: 0,
            cpu_idle_ns: 4_200,
            realized_gpu_ratio: 0.71,
        };
        let r = RunReport::new("nlp", "hybrid", 1000, 100, 500).with_scheduler(&stats);
        assert_eq!(r.scheduler.as_deref(), Some("work-stealing"));
        assert_eq!(r.gpu_claims, Some(9));
        assert_eq!(r.cpu_steals, Some(3));
        assert_eq!(r.gpu_idle_ns, Some(0));
        assert_eq!(r.cpu_idle_ns, Some(4_200));
        assert_eq!(r.realized_gpu_ratio, Some(0.71));
    }

    #[test]
    fn with_estimator_fills_estimator_columns() {
        let stats = EstimatorStats {
            kind: "row-sample".into(),
            sampled_rows: 25,
            est_nnz: 950,
            actual_nnz: 1000,
            chunk_hits: 5,
            chunk_misses: 1,
            overflow_rows: 7,
            retries: 1,
            headroom: 1.5,
        };
        let r = RunReport::new("nlp", "gpu-async", 1000, 100, 500).with_estimator(&stats);
        assert_eq!(r.estimator.as_deref(), Some("row-sample"));
        assert_eq!(r.est_nnz, Some(950));
        assert_eq!(r.estimate_overflows, Some(1));
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.estimator.as_deref(), Some("row-sample"));
        assert_eq!(back.est_nnz, Some(950));
        assert_eq!(back.estimate_overflows, Some(1));
    }

    #[test]
    fn cpu_baseline_uses_cost_model() {
        let cost = CostModel::calibrated();
        let t = cpu_baseline_ns(&cost, 1_000_000, 500_000);
        assert_eq!(t, cost.cpu_chunk_duration(1_000_000, 500_000));
        assert!(t > 0);
    }
}
