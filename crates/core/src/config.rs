//! Configuration of the out-of-core and hybrid executors.

use crate::faults::HostFaultPlan;
use crate::recovery::{RecoveryPolicy, RunBudget};
use accum::estimate::{EstimateConfig, EstimatorKind};
use gpu_sim::{CostModel, DeviceProps, FaultPlan};
use sparse::partition::ColPartitioner;

/// Synchronous vs asynchronous out-of-core execution (Section IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// "Synchronous, partitioned spECK": one stream, dynamic device
    /// allocations, no overlap — the paper's baseline.
    Sync,
    /// The paper's asynchronous design: two streams, pre-allocated
    /// pool, Figure 6 transfer schedule.
    #[default]
    Async,
}

/// Default simulated device memory: the paper's 16 GB V100 scaled by
/// the same ~500× factor as the matrix suite (DESIGN.md), so every
/// suite matrix stays genuinely out-of-core.
pub const DEFAULT_DEVICE_MEMORY: u64 = 32 << 20;

/// Fraction of output rows in the first transfer portion of the
/// Figure 6 schedule ("the first portion contains 33 % of the total
/// number of rows").
pub const DEFAULT_SPLIT_FRACTION: f64 = 0.33;

/// Default fraction of total flops assigned to the GPU in the hybrid
/// executor ("a fixed value of 65 % can achieve good performance for
/// all of our input matrices", Section III-C).
pub const DEFAULT_GPU_RATIO: f64 = 0.65;

/// Configuration of the out-of-core GPU executor.
#[derive(Clone, Debug)]
pub struct OocConfig {
    /// Simulated device.
    pub device: DeviceProps,
    /// Cost model.
    pub cost: CostModel,
    /// Execution mode.
    pub mode: ExecMode,
    /// Explicit panel counts `(row_panels, col_panels)`; `None` lets
    /// the planner choose from the memory budget.
    pub panels: Option<(usize, usize)>,
    /// Reorder chunks by decreasing flops (Section IV-C). Only
    /// meaningful in async mode.
    pub reorder_chunks: bool,
    /// First-portion row fraction of the Figure 6 output split.
    pub split_fraction: f64,
    /// Column partitioner implementation.
    pub col_partitioner: ColPartitioner,
    /// Use pinned host buffers for transfers.
    pub pinned: bool,
    /// Number of streams/buffer epochs in the async pipeline. The
    /// paper uses 2 (double buffering); deeper pipelines trade device
    /// memory for slack in hiding host-side gaps.
    pub pipeline_depth: usize,
    /// Cap on how many chunks the parallel grid preparation
    /// materializes concurrently (`None` = the whole grid at once).
    /// Each in-flight chunk holds its full output in host memory while
    /// it is prepared, so huge grids on small hosts may want a bound;
    /// the cap never changes results, only peak memory and overlap.
    /// Must be positive when set.
    pub prepare_parallelism: Option<usize>,
    /// Deterministic fault schedule. `Some` routes the run through the
    /// self-healing pipeline (retries, re-splits, CPU demotion); the
    /// assembled output stays bit-identical to the fault-free run.
    pub fault_plan: Option<FaultPlan>,
    /// Bounds on the recovery actions taken under a fault plan.
    pub recovery: RecoveryPolicy,
    /// Output-size estimator driving planning and speculative
    /// execution. Non-exact kinds (the default) let async runs plan
    /// panels and allocate chunk buffers from a sampled nnz(C) model
    /// instead of the exact symbolic pass; an under-predicted chunk
    /// surfaces as a recoverable `EstimateOverflow` and is grown,
    /// re-split, or demoted, so C stays bit-identical to the exact
    /// path. `EstimatorKind::Exact` restores the full symbolic
    /// pre-pass everywhere. Hybrid and multi-GPU runs honor it too
    /// (their work distribution still reasons from exact per-chunk
    /// sizes); sync runs, spill runs and `Hybrid::ratio_search` always
    /// use the exact path regardless of this setting.
    pub estimator: EstimateConfig,
    /// Deterministic host-side fault schedule (spill I/O, shard
    /// corruption, CPU kernels, host allocation pressure). Like the
    /// device plan, it only perturbs simulated time and which
    /// recovery path runs — never the numeric result.
    pub host_faults: Option<HostFaultPlan>,
    /// Per-run simulated-time budget. `Some` arms the deadline
    /// watchdog: the executor degrades rung by rung as the deadline
    /// approaches and fails with [`crate::OocError::DeadlineExceeded`]
    /// instead of spiralling when the budget is unmeetable. The
    /// service frontend forwards each request's budget here verbatim
    /// (so a budgeted service run is bit-identical to the same
    /// one-shot call) and additionally treats `sim_deadline_ns` as the
    /// request's service-level deadline from arrival, driving
    /// earliest-deadline dispatch (DESIGN.md §14).
    pub budget: Option<RunBudget>,
}

impl OocConfig {
    /// Paper-default configuration at the scaled device size.
    pub fn paper_default() -> Self {
        Self::with_device_memory(DEFAULT_DEVICE_MEMORY)
    }

    /// Paper-default configuration with an explicit device memory.
    pub fn with_device_memory(bytes: u64) -> Self {
        OocConfig {
            device: DeviceProps::v100_scaled(bytes),
            cost: CostModel::calibrated(),
            mode: ExecMode::Async,
            panels: None,
            reorder_chunks: true,
            split_fraction: DEFAULT_SPLIT_FRACTION,
            col_partitioner: ColPartitioner::ParallelPrefixSum,
            pinned: true,
            pipeline_depth: 2,
            prepare_parallelism: None,
            fault_plan: None,
            recovery: RecoveryPolicy::default(),
            estimator: EstimateConfig::default(),
            host_faults: None,
            budget: None,
        }
    }

    /// Switches the execution mode.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Fixes the panel grid explicitly.
    pub fn panels(mut self, rows: usize, cols: usize) -> Self {
        self.panels = Some((rows, cols));
        self
    }

    /// Enables/disables flop-descending chunk reordering.
    pub fn reorder(mut self, on: bool) -> Self {
        self.reorder_chunks = on;
        self
    }

    /// Caps how many chunks grid preparation materializes at once.
    pub fn prepare_parallelism(mut self, cap: usize) -> Self {
        self.prepare_parallelism = Some(cap);
        self
    }

    /// Installs a deterministic fault plan (see [`FaultPlan`]).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Installs a deterministic host-side fault plan (see
    /// [`HostFaultPlan`]).
    pub fn host_faults(mut self, plan: HostFaultPlan) -> Self {
        self.host_faults = Some(plan);
        self
    }

    /// Installs a per-run simulated-time budget (see [`RunBudget`]).
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the recovery policy used under a fault plan.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Replaces the whole estimator configuration.
    pub fn estimator(mut self, cfg: EstimateConfig) -> Self {
        self.estimator = cfg;
        self
    }

    /// Selects the estimator kind, keeping the other estimator knobs.
    pub fn estimator_kind(mut self, kind: EstimatorKind) -> Self {
        self.estimator.kind = kind;
        self
    }

    /// Sets the estimator's row sampling rate.
    pub fn sample_rate(mut self, rate: f64) -> Self {
        self.estimator.sample_rate = rate;
        self
    }

    /// Sets the multiplicative safety margin on estimated buffer
    /// sizes. Values below 1 deliberately under-allocate — useful for
    /// exercising overflow recovery.
    pub fn headroom(mut self, headroom: f64) -> Self {
        self.estimator.headroom = headroom;
        self
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> crate::Result<()> {
        if !(0.0..=1.0).contains(&self.split_fraction) {
            return Err(crate::OocError::Config(format!(
                "split fraction {} outside [0, 1]",
                self.split_fraction
            )));
        }
        if let Some((r, c)) = self.panels {
            if r == 0 || c == 0 {
                return Err(crate::OocError::Config(
                    "panel counts must be positive".into(),
                ));
            }
        }
        if self.pipeline_depth < 2 {
            return Err(crate::OocError::Config(
                "the async pipeline needs at least 2 buffer epochs".into(),
            ));
        }
        if self.prepare_parallelism == Some(0) {
            return Err(crate::OocError::Config(
                "prepare_parallelism must be positive".into(),
            ));
        }
        if !(self.estimator.sample_rate > 0.0 && self.estimator.sample_rate <= 1.0) {
            return Err(crate::OocError::Config(format!(
                "estimator sample rate {} outside (0, 1]",
                self.estimator.sample_rate
            )));
        }
        // Headroom below 1 is allowed here (it forces overflow
        // recovery, which tests rely on); the CLI is stricter.
        if !(self.estimator.headroom.is_finite() && self.estimator.headroom > 0.0) {
            return Err(crate::OocError::Config(format!(
                "estimator headroom {} must be finite and positive",
                self.estimator.headroom
            )));
        }
        if let Some(p) = &self.fault_plan {
            let rates = [
                ("kernel", p.kernel_rate),
                ("copy", p.copy_rate),
                ("alloc", p.alloc_rate),
                ("pool", p.pool_rate),
            ];
            for (name, rate) in rates {
                if !(0.0..=1.0).contains(&rate) {
                    return Err(crate::OocError::Config(format!(
                        "{name} fault rate {rate} outside [0, 1]"
                    )));
                }
            }
            if let Some(s) = p.capacity_shrink {
                if !(0.0..=1.0).contains(&s.factor) || s.factor == 0.0 {
                    return Err(crate::OocError::Config(format!(
                        "capacity shrink factor {} outside (0, 1]",
                        s.factor
                    )));
                }
            }
        }
        if let Some(p) = &self.host_faults {
            for (name, rate) in p.rates() {
                if !(0.0..=1.0).contains(&rate) {
                    return Err(crate::OocError::Config(format!(
                        "host {name} fault rate {rate} outside [0, 1]"
                    )));
                }
            }
        }
        if let Some(b) = &self.budget {
            if b.sim_deadline_ns == 0 {
                return Err(crate::OocError::Config(
                    "deadline must be a positive simulated time".into(),
                ));
            }
            if !(0.0..=1.0).contains(&b.max_recovery_fraction) {
                return Err(crate::OocError::Config(format!(
                    "max recovery fraction {} outside [0, 1]",
                    b.max_recovery_fraction
                )));
            }
        }
        Ok(())
    }
}

impl Default for OocConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// How the hybrid executor distributes chunks between GPU and CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum SchedulerKind {
    /// The paper's Algorithm 4: one up-front flop-ratio split, each
    /// side runs its fixed half to completion.
    Static,
    /// Dynamic work stealing on a shared two-ended queue: the GPU
    /// claims from the dense head, the CPU steals from the sparse
    /// tail, and the run ends when the queue drains. The configured
    /// flop ratio only seeds the GPU's initial prefetch.
    #[default]
    WorkStealing,
}

impl SchedulerKind {
    /// Stable lower-case name used in reports and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Static => "static",
            SchedulerKind::WorkStealing => "work-stealing",
        }
    }
}

/// Configuration of the hybrid CPU+GPU executor (Algorithm 4).
#[derive(Clone, Debug)]
pub struct HybridConfig {
    /// The GPU-side configuration.
    pub gpu: OocConfig,
    /// Fraction of total flops assigned to the GPU
    /// (`Ratio = S/(S+1)` in the paper). Under the work-stealing
    /// scheduler this only seeds the GPU's initial prefetch, with the
    /// endpoints as hard pins: `0.0` disables GPU claiming entirely
    /// and `1.0` disables CPU stealing.
    pub gpu_ratio: f64,
    /// Assign the *densest* chunks to the GPU (the paper's reordering,
    /// Fig 9). When false, chunks are assigned in natural grid order
    /// until the flop ratio is met — the "default implementation".
    pub reorder_assignment: bool,
    /// Chunk distribution strategy.
    pub scheduler: SchedulerKind,
}

impl HybridConfig {
    /// Paper defaults: 65 % of flops to the GPU, reordered assignment.
    pub fn paper_default() -> Self {
        HybridConfig {
            gpu: OocConfig::paper_default(),
            gpu_ratio: DEFAULT_GPU_RATIO,
            reorder_assignment: true,
            scheduler: SchedulerKind::default(),
        }
    }

    /// Sets the GPU flop ratio.
    pub fn ratio(mut self, ratio: f64) -> Self {
        self.gpu_ratio = ratio;
        self
    }

    /// Enables/disables density-ordered assignment.
    pub fn reorder(mut self, on: bool) -> Self {
        self.reorder_assignment = on;
        self
    }

    /// Selects the chunk distribution strategy.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> crate::Result<()> {
        self.gpu.validate()?;
        if !(0.0..=1.0).contains(&self.gpu_ratio) {
            return Err(crate::OocError::Config(format!(
                "GPU ratio {} outside [0, 1]",
                self.gpu_ratio
            )));
        }
        Ok(())
    }
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_paper_shaped() {
        let c = OocConfig::paper_default();
        c.validate().unwrap();
        assert_eq!(c.mode, ExecMode::Async);
        assert!(c.reorder_chunks);
        assert!((c.split_fraction - 0.33).abs() < 1e-12);
        assert_eq!(c.estimator.kind, EstimatorKind::RowSample);
        assert!(c.estimator.headroom >= 1.0);
        let h = HybridConfig::paper_default();
        h.validate().unwrap();
        assert!((h.gpu_ratio - 0.65).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut c = OocConfig::paper_default();
        c.split_fraction = 1.5;
        assert!(c.validate().is_err());
        let mut c = OocConfig::paper_default();
        c.pipeline_depth = 1;
        assert!(c.validate().is_err());
        let c = OocConfig::paper_default().panels(0, 3);
        assert!(c.validate().is_err());
        let c = OocConfig::paper_default().prepare_parallelism(0);
        assert!(c.validate().is_err());
        let c = OocConfig::paper_default().sample_rate(0.0);
        assert!(c.validate().is_err());
        let c = OocConfig::paper_default().sample_rate(1.5);
        assert!(c.validate().is_err());
        let c = OocConfig::paper_default().headroom(0.0);
        assert!(c.validate().is_err());
        let c = OocConfig::paper_default().headroom(f64::INFINITY);
        assert!(c.validate().is_err());
        // Sub-1 headroom is legal at the library level: it forces the
        // overflow-recovery path.
        assert!(OocConfig::paper_default().headroom(0.5).validate().is_ok());
        assert!(OocConfig::paper_default()
            .prepare_parallelism(1)
            .validate()
            .is_ok());
        let h = HybridConfig::paper_default().ratio(-0.1);
        assert!(h.validate().is_err());
    }

    #[test]
    fn builder_methods_chain() {
        let c = OocConfig::with_device_memory(1 << 20)
            .mode(ExecMode::Sync)
            .panels(2, 3)
            .reorder(false);
        assert_eq!(c.mode, ExecMode::Sync);
        assert_eq!(c.panels, Some((2, 3)));
        assert!(!c.reorder_chunks);
        assert_eq!(c.device.device_memory_bytes, 1 << 20);
    }
}
