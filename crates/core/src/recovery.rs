//! Recovery policy and accounting for fault-injected runs.
//!
//! The executors degrade gracefully instead of aborting: transient
//! kernel/copy faults are retried with a deterministic simulated
//! backoff charged to the cost model; a chunk that no longer fits
//! device memory is re-split along the planner's row-flop prefix sums;
//! a chunk that keeps faulting is demoted to the CPU executor (whose
//! per-chunk results are bit-identical by construction — the hybrid
//! executor relies on the same fact); a lost hybrid GPU worker has its
//! whole share drained to the CPU clock. Because recovery only ever
//! re-runs or re-splits *row-independent* work on identical inputs,
//! the assembled `C` under any fault plan is bit-identical to the
//! fault-free run.

use gpu_sim::{CostModel, SimTime};

/// Retries per device operation before the chunk is abandoned to CPU
/// demotion.
pub(crate) const MAX_RETRIES: u32 = 3;

/// Times a chunk may be re-split in two before an oversized piece is
/// demoted to the CPU.
pub(crate) const MAX_RESPLIT_DEPTH: u32 = 4;

/// The `time_lost_ns / elapsed` fraction above which a budgeted run's
/// supervisor escalates one extra degradation rung (see [`RunBudget`]).
pub(crate) const MAX_RECOVERY_FRACTION: f64 = 0.25;

/// How the hybrid executor answers the loss of its GPU worker.
/// Everything else recovery does is fixed: 3 retries per operation, 4
/// re-splits per chunk, and CPU demotion of whatever still fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// When the fault plan's worker-panic trigger loses the hybrid's
    /// GPU worker, demote its whole share to the CPU clock instead of
    /// surfacing [`crate::OocError::Worker`].
    pub drain_worker_panics: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            drain_worker_panics: true,
        }
    }
}

impl RecoveryPolicy {
    /// Enables/disables draining a lost GPU worker's share.
    pub fn drain_worker_panics(mut self, on: bool) -> Self {
        self.drain_worker_panics = on;
        self
    }
}

/// Deterministic simulated backoff before retry `attempt` (1-based):
/// exponential in the cost model's copy latency, so it scales with the
/// device the run is calibrated against.
pub fn backoff_ns(cost: &CostModel, attempt: u32) -> SimTime {
    cost.copy_latency_ns << attempt.min(6)
}

/// What recovery did during a run: exact counts plus the simulated
/// time the faults cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Kernel faults observed by the executor.
    pub kernel_faults: u64,
    /// Copy faults observed by the executor.
    pub copy_faults: u64,
    /// Malloc faults observed by the executor.
    pub alloc_faults: u64,
    /// Pool-reservation faults observed by the executor.
    pub pool_faults: u64,
    /// Operations retried.
    pub retries: u64,
    /// Chunks re-split after OOM.
    pub resplits: u64,
    /// Speculative chunks whose real output outgrew the estimated
    /// allocation and were grown-and-retried.
    pub estimate_overflows: u64,
    /// Chunks demoted to the CPU executor.
    pub demotions: u64,
    /// Hybrid GPU workers lost to the worker-panic trigger and
    /// drained.
    pub worker_panics: u64,
    /// Transient spill-shard read faults retried.
    pub spill_read_faults: u64,
    /// Transient spill-shard write faults retried.
    pub spill_write_faults: u64,
    /// On-disk shard corruptions detected by checksum and repaired by
    /// recomputation.
    pub corruption_faults: u64,
    /// Transient CPU-kernel faults retried on demoted/CPU chunks.
    pub cpu_kernel_faults: u64,
    /// Host-allocation pressure stalls absorbed during recovery.
    pub host_alloc_faults: u64,
    /// Whole-grid re-plans of the remaining work under sustained
    /// capacity pressure (device capacity shrunk below 75 % of what the
    /// plan assumed). Estimate overflows grow and retry instead.
    pub replans: u64,
    /// Simulated time spent in backoff waits, ns.
    pub backoff_ns: SimTime,
    /// Total simulated time lost to faults (failed attempts + backoff), ns.
    pub time_lost_ns: SimTime,
}

impl RecoveryReport {
    /// Total device-side faults observed.
    pub fn faults(&self) -> u64 {
        self.kernel_faults + self.copy_faults + self.alloc_faults + self.pool_faults
    }

    /// Total host-side faults observed.
    pub fn host_faults(&self) -> u64 {
        self.spill_read_faults
            + self.spill_write_faults
            + self.corruption_faults
            + self.cpu_kernel_faults
            + self.host_alloc_faults
    }

    /// True when no fault was observed and no recovery action taken.
    pub fn is_clean(&self) -> bool {
        *self == RecoveryReport::default()
    }

    /// Accumulates another report (used to merge per-worker and
    /// per-device reports).
    pub fn merge(&mut self, other: &RecoveryReport) {
        self.kernel_faults += other.kernel_faults;
        self.copy_faults += other.copy_faults;
        self.alloc_faults += other.alloc_faults;
        self.pool_faults += other.pool_faults;
        self.retries += other.retries;
        self.resplits += other.resplits;
        self.estimate_overflows += other.estimate_overflows;
        self.demotions += other.demotions;
        self.worker_panics += other.worker_panics;
        self.spill_read_faults += other.spill_read_faults;
        self.spill_write_faults += other.spill_write_faults;
        self.corruption_faults += other.corruption_faults;
        self.cpu_kernel_faults += other.cpu_kernel_faults;
        self.host_alloc_faults += other.host_alloc_faults;
        self.replans += other.replans;
        self.backoff_ns += other.backoff_ns;
        self.time_lost_ns += other.time_lost_ns;
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} device faults, {} host faults, {} retries, {} re-splits, \
             {} estimate overflows, {} re-plans, {} demotions, \
             {} worker panics, {:.3} ms lost",
            self.faults(),
            self.host_faults(),
            self.retries,
            self.resplits,
            self.estimate_overflows,
            self.replans,
            self.demotions,
            self.worker_panics,
            self.time_lost_ns as f64 / 1e6,
        )
    }
}

/// Per-run simulated-time budget: the supervisor that keeps a faulted
/// run from spiralling (DESIGN.md §13).
///
/// As `sim.now()` approaches `sim_deadline_ns` the executor degrades
/// deterministically, one rung at a time:
///
/// 1. **≥ 50 % of the deadline** — shrink speculation headroom:
///    pending speculative chunks are re-sized to their exact output, so
///    estimate overflows can no longer occur;
/// 2. **≥ 65 %** — force exact planning: speculation is stripped from
///    the remaining chunks entirely (full symbolic schedule);
/// 3. **≥ 80 %** — demote every remaining chunk to the CPU at its
///    calibrated cost — the one executor whose time is exactly
///    predictable.
///
/// Independently, if more than 25 % of the elapsed time was lost to
/// recovery at a pass boundary, the run escalates one extra rung — a
/// recovery spiral burns its way down the same ladder instead of
/// looping. If even CPU demotion cannot meet the deadline, the run
/// fails with a clean [`crate::OocError::DeadlineExceeded`] carrying
/// partial accounting — never a hang.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunBudget {
    /// Simulated-time deadline for the whole run, ns.
    pub sim_deadline_ns: SimTime,
}

impl RunBudget {
    /// A budget with the given deadline.
    pub fn deadline(sim_deadline_ns: SimTime) -> Self {
        RunBudget { sim_deadline_ns }
    }

    /// The degradation rung (0–3) dictated by elapsed simulated time
    /// alone: 0 below half the deadline, then 1 (shrink headroom),
    /// 2 (force exact) at 65 %, 3 (demote to CPU) at 80 %.
    pub fn rung_at(&self, elapsed_ns: SimTime) -> u8 {
        let d = self.sim_deadline_ns as u128;
        let e = elapsed_ns as u128;
        if d == 0 || e * 10 >= d * 8 {
            3
        } else if e * 100 >= d * 65 {
            2
        } else if e * 2 >= d {
            1
        } else {
            0
        }
    }

    /// The simulated time at which rung 3 (demote everything) starts —
    /// chunks admitted to the device pipeline past this point fail
    /// fast instead of being attempted.
    pub fn demote_after_ns(&self) -> SimTime {
        (self.sim_deadline_ns as u128 * 8 / 10) as SimTime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_permissive() {
        // Recovery always retries, re-splits and demotes; the one
        // setting left drains a lost GPU worker by default.
        const { assert!(MAX_RETRIES >= 1 && MAX_RESPLIT_DEPTH >= 1) };
        assert!((0.0..=1.0).contains(&MAX_RECOVERY_FRACTION));
        assert!(RecoveryPolicy::default().drain_worker_panics);
    }

    #[test]
    fn backoff_grows_and_saturates() {
        let cost = CostModel::calibrated();
        assert!(backoff_ns(&cost, 2) > backoff_ns(&cost, 1));
        assert_eq!(
            backoff_ns(&cost, 6),
            backoff_ns(&cost, 60),
            "exponent saturates"
        );
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RecoveryReport {
            retries: 2,
            kernel_faults: 1,
            ..Default::default()
        };
        let b = RecoveryReport {
            retries: 3,
            demotions: 1,
            time_lost_ns: 10,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.retries, 5);
        assert_eq!(a.demotions, 1);
        assert_eq!(a.faults(), 1);
        assert!(!a.is_clean());
        assert!(RecoveryReport::default().is_clean());
        assert!(a.summary().contains("5 retries"));
    }

    #[test]
    fn merge_accumulates_host_fault_counters() {
        let mut a = RecoveryReport {
            spill_write_faults: 1,
            corruption_faults: 2,
            ..Default::default()
        };
        let b = RecoveryReport {
            spill_read_faults: 3,
            cpu_kernel_faults: 4,
            host_alloc_faults: 5,
            replans: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.host_faults(), 15);
        assert_eq!(a.replans, 1);
        assert_eq!(a.faults(), 0, "host faults are not device faults");
        assert!(a.summary().contains("15 host faults"), "{}", a.summary());
        assert!(a.summary().contains("1 re-plans"));
    }

    #[test]
    fn budget_rungs_follow_the_ladder() {
        let b = RunBudget::deadline(1_000);
        assert_eq!(b.rung_at(0), 0);
        assert_eq!(b.rung_at(499), 0);
        assert_eq!(b.rung_at(500), 1, "half the deadline shrinks headroom");
        assert_eq!(b.rung_at(649), 1);
        assert_eq!(b.rung_at(650), 2, "65% forces exact planning");
        assert_eq!(b.rung_at(799), 2);
        assert_eq!(b.rung_at(800), 3, "80% demotes everything");
        assert_eq!(b.rung_at(5_000), 3);
        assert_eq!(b.demote_after_ns(), 800);
        // Degenerate zero deadline: already past every rung.
        assert_eq!(RunBudget::deadline(0).rung_at(0), 3);
    }

    #[test]
    fn budget_rungs_survive_large_deadlines() {
        // u128 arithmetic: no overflow near u64::MAX.
        let b = RunBudget::deadline(u64::MAX);
        assert_eq!(b.rung_at(0), 0);
        assert_eq!(b.rung_at(u64::MAX), 3);
        assert!(b.demote_after_ns() < u64::MAX);
    }
}
