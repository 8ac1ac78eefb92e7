//! Chaos soak harness: sweep fault plans × executors × budgets and
//! assert the product never changes.
//!
//! The repository's core invariant is that recovery is *semantically
//! invisible*: whatever the fault plan injects and however far the
//! supervisor degrades a run, `C` is bit-identical to the fault-free
//! product. This module soaks that invariant — for each iteration it
//! generates a matrix, computes a clean baseline, then drives every
//! executor (async GPU, spill-to-disk, hybrid, multi-GPU) through
//! every fault domain (none, device, host, both) with and without a
//! deadline budget, comparing each surviving product bit-for-bit
//! against the baseline. A run that returns
//! [`oocgemm::OocError::DeadlineExceeded`] under a tight budget is an
//! accepted outcome (the budget was unmeetable); any other error, or
//! any differing product, is a mismatch.
//!
//! The `repro chaos --seed N --iters K` subcommand runs this sweep and
//! exits non-zero on mismatches, which makes a fixed-seed invocation a
//! CI stage.

use cpu_spgemm::reference;
use oocgemm::{
    multiply_multi_gpu, EstimateConfig, EstimatorKind, FaultPlan, HostFaultPlan, Hybrid,
    HybridConfig, MultiGpuConfig, OocConfig, OocError, RunBudget, SchedulerKind,
};
use sparse::gen::erdos_renyi;
use sparse::CsrMatrix;

/// Device-fault rate for the chaotic cells.
const GPU_RATE: f64 = 0.05;
/// Host-fault rate for the chaotic cells. Host rolls happen at far
/// fewer sites than device rolls (per spill write / CPU chunk, not per
/// kernel launch), so the rate is higher to keep the soak honest.
const HOST_RATE: f64 = 0.25;

/// One executor × fault-domain × budget cell of the sweep.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ChaosCell {
    /// Iteration index the cell ran in.
    pub iter: u64,
    /// Executor under test: `async`, `spill`, `hybrid`, `multi`.
    pub executor: String,
    /// Fault domain: `none`, `gpu`, `host`, `both`.
    pub faults: String,
    /// Budget: `none` or `tight`.
    pub budget: String,
    /// Scheduler driving CPU/GPU distribution (hybrid and multi-GPU).
    pub scheduler: String,
    /// Estimator the planner used.
    pub estimator: String,
    /// `ok`, `deadline` (clean [`OocError::DeadlineExceeded`]), or
    /// `mismatch`.
    pub outcome: String,
    /// Simulated completion, ns (0 when the run errored).
    pub sim_ns: u64,
    /// Injected device faults the run recovered from.
    pub device_faults: u64,
    /// Injected host faults the run recovered from.
    pub host_faults: u64,
    /// Chunks demoted to the CPU.
    pub demotions: u64,
    /// Grid-level re-plans under capacity pressure.
    pub replans: u64,
}

/// The full sweep result.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ChaosReport {
    /// Root seed the sweep derived everything from.
    pub seed: u64,
    /// Iterations run.
    pub iters: u64,
    /// Every cell, in execution order.
    pub cells: Vec<ChaosCell>,
}

impl ChaosReport {
    /// Cells whose product differed from the baseline (or that failed
    /// with anything other than a clean deadline error).
    pub fn mismatches(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.outcome == "mismatch")
            .count()
    }

    /// Cells that degraded to a clean deadline error.
    pub fn deadline_exceeded(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.outcome == "deadline")
            .count()
    }

    /// Machine-readable JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("chaos report serializes")
    }

    /// Text table for stdout.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "iter  executor  faults  budget  scheduler  estimator  outcome   \
             dev-faults  host-faults  demotions  replans\n",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{:<4}  {:<8}  {:<6}  {:<6}  {:<9}  {:<9}  {:<8}  {:<10}  {:<11}  {:<9}  {}\n",
                c.iter,
                c.executor,
                c.faults,
                c.budget,
                c.scheduler,
                c.estimator,
                c.outcome,
                c.device_faults,
                c.host_faults,
                c.demotions,
                c.replans,
            ));
        }
        out.push_str(&format!(
            "\n{} cells, {} deadline-exceeded, {} mismatches\n",
            self.cells.len(),
            self.deadline_exceeded(),
            self.mismatches()
        ));
        out
    }
}

/// What a fault domain injects into the config.
fn fault_domains(seed: u64) -> [(&'static str, Option<FaultPlan>, Option<HostFaultPlan>); 4] {
    let gpu = FaultPlan::seeded(seed).all_rates(GPU_RATE);
    let host = HostFaultPlan::seeded(seed).all_rates(HOST_RATE);
    [
        ("none", None, None),
        ("gpu", Some(gpu.clone()), None),
        ("host", None, Some(host.clone())),
        ("both", Some(gpu), Some(host)),
    ]
}

fn estimator_for(iter: usize) -> (EstimatorKind, &'static str) {
    match iter % 3 {
        0 => (EstimatorKind::Exact, "exact"),
        1 => (EstimatorKind::RowSample, "sample"),
        _ => (EstimatorKind::UpperBound, "upper"),
    }
}

fn scheduler_for(iter: usize) -> (SchedulerKind, &'static str) {
    if iter % 2 == 0 {
        (SchedulerKind::WorkStealing, "stealing")
    } else {
        (SchedulerKind::Static, "static")
    }
}

/// The per-cell run outcome before it is folded into a [`ChaosCell`].
struct CellRun {
    c: Option<CsrMatrix>,
    sim_ns: u64,
    device_faults: u64,
    host_faults: u64,
    demotions: u64,
    replans: u64,
    deadline: bool,
    error: Option<String>,
}

impl CellRun {
    fn failed(e: OocError) -> Self {
        let deadline = matches!(e, OocError::DeadlineExceeded { .. });
        CellRun {
            c: None,
            sim_ns: 0,
            device_faults: 0,
            host_faults: 0,
            demotions: 0,
            replans: 0,
            deadline,
            error: Some(e.to_string()),
        }
    }
}

fn run_async(cfg: &OocConfig, a: &CsrMatrix) -> CellRun {
    match oocgemm::OutOfCoreGpu::new(cfg.clone()).multiply(a, a) {
        Ok(run) => {
            // The timeline must stay well-formed under any fault plan.
            if let Err(e) = run.timeline.validate() {
                return CellRun::failed(OocError::Config(format!("timeline invalid: {e}")));
            }
            CellRun {
                c: Some(run.c),
                sim_ns: run.sim_ns,
                device_faults: run.recovery.faults(),
                host_faults: run.recovery.host_faults(),
                demotions: run.recovery.demotions,
                replans: run.recovery.replans,
                deadline: false,
                error: None,
            }
        }
        Err(e) => CellRun::failed(e),
    }
}

fn run_spill(cfg: &OocConfig, a: &CsrMatrix, tag: &str) -> CellRun {
    let dir = sparse::io::unique_temp_dir(&format!("oocgemm_chaos_{tag}"));
    let result = oocgemm::multiply_to_disk(a, a, cfg, &dir);
    let out = match result {
        Ok(run) => match run.c.load_all() {
            Ok(c) => CellRun {
                c: Some(c),
                sim_ns: run.sim_ns,
                device_faults: run.recovery.faults(),
                host_faults: run.recovery.host_faults(),
                demotions: run.recovery.demotions,
                replans: run.recovery.replans,
                deadline: false,
                error: None,
            },
            Err(e) => CellRun::failed(e),
        },
        Err(e) => CellRun::failed(e),
    };
    if let Ok(m) = oocgemm::SpilledMatrix::open(&dir) {
        m.remove().ok();
    }
    std::fs::remove_dir(&dir).ok();
    out
}

fn run_hybrid(cfg: &OocConfig, scheduler: SchedulerKind, a: &CsrMatrix) -> CellRun {
    let hcfg = HybridConfig {
        gpu: cfg.clone(),
        ..HybridConfig::paper_default()
    };
    match Hybrid::new(hcfg.scheduler(scheduler)).multiply(a, a) {
        Ok(run) => CellRun {
            c: Some(run.c),
            sim_ns: run.sim_ns,
            device_faults: run.recovery.faults(),
            host_faults: run.recovery.host_faults(),
            demotions: run.recovery.demotions,
            replans: run.recovery.replans,
            deadline: false,
            error: None,
        },
        Err(e) => CellRun::failed(e),
    }
}

fn run_multi(cfg: &OocConfig, scheduler: SchedulerKind, a: &CsrMatrix) -> CellRun {
    let mcfg = MultiGpuConfig {
        gpu: cfg.clone(),
        num_gpus: 2,
        use_cpu: true,
        scheduler,
    };
    match multiply_multi_gpu(a, a, &mcfg) {
        Ok(run) => CellRun {
            c: Some(run.c),
            sim_ns: run.sim_ns,
            device_faults: run.recovery.faults(),
            host_faults: run.recovery.host_faults(),
            demotions: run.recovery.demotions,
            replans: run.recovery.replans,
            deadline: false,
            error: None,
        },
        Err(e) => CellRun::failed(e),
    }
}

/// Runs the sweep: `iters` iterations, each deriving its matrix and
/// fault plans from `seed + iter`.
pub fn run(seed: u64, iters: usize) -> ChaosReport {
    let mut cells = Vec::new();
    for iter in 0..iters {
        let iseed = seed.wrapping_add(iter as u64);
        let a = erdos_renyi(350, 350, 0.03, iseed);
        let (est, est_name) = estimator_for(iter);
        let (sched, sched_name) = scheduler_for(iter);

        // Fault-free exact baseline: the product every cell must match
        // bit-for-bit, itself checked against the CPU reference.
        let base_cfg = OocConfig::with_device_memory(1 << 18).estimator(EstimateConfig::exact());
        let baseline = oocgemm::OutOfCoreGpu::new(base_cfg.clone())
            .multiply(&a, &a)
            .expect("fault-free baseline must run");
        let expect = reference::multiply(&a, &a).expect("reference multiply");
        assert!(
            baseline.c.approx_eq(&expect, 1e-9),
            "baseline diverged from the CPU reference at iter {iter}"
        );
        // A tight budget: half the clean completion time. Degradation
        // rungs fire; genuinely unmeetable cells degrade to a clean
        // DeadlineExceeded instead of spiraling.
        let tight = RunBudget::deadline((baseline.sim_ns / 2).max(1));

        for (fname, gpu_plan, host_plan) in fault_domains(iseed) {
            for (bname, budget) in [("none", None), ("tight", Some(tight))] {
                let mut cfg = base_cfg.clone().estimator_kind(est);
                if let Some(p) = &gpu_plan {
                    cfg = cfg.fault_plan(p.clone());
                }
                if let Some(p) = &host_plan {
                    cfg = cfg.host_faults(p.clone());
                }
                if let Some(b) = budget {
                    cfg = cfg.budget(b);
                }
                let runs: Vec<(&str, CellRun)> = vec![
                    ("async", run_async(&cfg, &a)),
                    // The spill path plans exactly and runs the
                    // ordinary device schedule under the cell's faults
                    // and budget; on top it has the host side's shard
                    // writes, corruption and re-reads.
                    (
                        "spill",
                        run_spill(&cfg, &a, &format!("{iter}_{fname}_{bname}")),
                    ),
                    ("hybrid", run_hybrid(&cfg, sched, &a)),
                    ("multi", run_multi(&cfg, sched, &a)),
                ];
                for (ename, r) in runs {
                    let outcome = if let Some(c) = &r.c {
                        if *c == baseline.c {
                            "ok"
                        } else {
                            "mismatch"
                        }
                    } else if r.deadline && bname == "tight" {
                        "deadline"
                    } else {
                        "mismatch"
                    };
                    if outcome == "mismatch" {
                        if let Some(e) = &r.error {
                            eprintln!("chaos mismatch [{ename}/{fname}/{bname}]: {e}");
                        } else {
                            eprintln!("chaos mismatch [{ename}/{fname}/{bname}]: product differs");
                        }
                    }
                    cells.push(ChaosCell {
                        iter: iter as u64,
                        executor: ename.to_string(),
                        faults: fname.to_string(),
                        budget: bname.to_string(),
                        scheduler: sched_name.to_string(),
                        estimator: est_name.to_string(),
                        outcome: outcome.to_string(),
                        sim_ns: r.sim_ns,
                        device_faults: r.device_faults,
                        host_faults: r.host_faults,
                        demotions: r.demotions,
                        replans: r.replans,
                    });
                }
            }
        }
    }
    ChaosReport {
        seed,
        iters: iters as u64,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_seed_sweep_has_zero_mismatches() {
        let report = run(7, 1);
        assert_eq!(
            report.mismatches(),
            0,
            "chaos sweep found mismatches:\n{}",
            report.table()
        );
        // The sweep actually injected faults somewhere — a soak that
        // never faults proves nothing.
        assert!(
            report.cells.iter().any(|c| c.device_faults > 0),
            "no device faults fired"
        );
        assert!(
            report.cells.iter().any(|c| c.host_faults > 0),
            "no host faults fired"
        );
    }

    #[test]
    fn report_serializes() {
        let report = run(3, 1);
        let json = report.to_json();
        assert!(json.contains("\"cells\""));
        assert!(json.contains("\"outcome\""));
    }
}
