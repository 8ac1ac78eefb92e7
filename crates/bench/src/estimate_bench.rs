//! Accuracy-vs-speedup evaluation of the nnz(C) estimation engine,
//! backing the `BENCH_estimate.json` baseline the `repro` binary
//! emits (`repro estimate`).
//!
//! Per suite matrix and estimator kind, four numbers:
//!
//! * `plan_ns` vs `exact_plan_ns` — host wall-clock of sizing the
//!   panel grid from estimates ([`Planner::estimated`] + `auto`) vs
//!   the exact symbolic planning pass it replaces;
//! * `sim_ns` vs `exact_sim_ns` — the full speculative executor run
//!   (symbolic kernels and row-nnz readback dropped from the device
//!   schedule; overflows recovered) vs the exact async run;
//! * `est_nnz` vs `actual_nnz` — estimator accuracy;
//! * `overflow_retries` — chunks that outgrew their estimated
//!   allocation and were grown-and-retried.
//!
//! The product is bit-identical across every row by construction (the
//! `estimation` suite asserts it); this benchmark pins down what the
//! speculation *buys* and what the estimator error *costs*.

use crate::SuiteEntry;
use oocgemm::{EstimateConfig, EstimatorKind, OocConfig, OutOfCoreGpu, Planner};
use sparse::gen::SuiteScale;
use std::time::Instant;

/// The non-exact estimator kinds the benchmark sweeps.
pub const KINDS: [EstimatorKind; 2] = [EstimatorKind::UpperBound, EstimatorKind::RowSample];

/// One (matrix, estimator kind) measurement.
#[derive(serde::Serialize)]
pub struct EstimateBenchRow {
    /// Suite matrix abbreviation.
    pub matrix: String,
    /// Estimator kind name.
    pub kind: &'static str,
    /// Matrix dimension.
    pub n: usize,
    /// Matrix nnz.
    pub nnz: usize,
    /// Estimated planning wall-clock (model + panel sizing), ns.
    pub plan_ns: u64,
    /// Exact planning wall-clock (symbolic pass + panel sizing), ns.
    pub exact_plan_ns: u64,
    /// Speculative run completion, simulated ns.
    pub sim_ns: u64,
    /// Exact async run completion, simulated ns.
    pub exact_sim_ns: u64,
    /// Estimated output nonzeros (summed chunk estimates).
    pub est_nnz: u64,
    /// Actual output nonzeros.
    pub actual_nnz: u64,
    /// Grow-and-retry passes forced by estimate overflows.
    pub overflow_retries: u64,
}

impl EstimateBenchRow {
    /// Exact / estimated planning speedup (host wall-clock).
    pub fn plan_speedup(&self) -> f64 {
        self.exact_plan_ns as f64 / self.plan_ns.max(1) as f64
    }

    /// Exact / speculative completion speedup (simulated time).
    pub fn sim_speedup(&self) -> f64 {
        self.exact_sim_ns as f64 / self.sim_ns.max(1) as f64
    }

    /// Signed relative estimation error: `(est - actual) / actual`.
    pub fn rel_error(&self) -> f64 {
        if self.actual_nnz == 0 {
            return 0.0;
        }
        (self.est_nnz as f64 - self.actual_nnz as f64) / self.actual_nnz as f64
    }
}

/// Best-of-`iters` wall-clock time of `f`, in ns.
fn best_of<R>(iters: usize, mut f: impl FnMut() -> R) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best
}

/// Runs one suite entry against every estimator kind.
pub fn run_entry(entry: &SuiteEntry) -> Vec<EstimateBenchRow> {
    let a = &entry.matrix;
    let device = entry.device_bytes();
    let base = OocConfig::with_device_memory(device);

    let exact_plan_ns = best_of(3, || {
        Planner::plan_exact(a, a).unwrap().auto(device).unwrap()
    });
    let exact_run = OutOfCoreGpu::new(base.clone().estimator(EstimateConfig::exact()))
        .multiply(a, a)
        .expect("exact run");

    KINDS
        .iter()
        .map(|&kind| {
            let est_cfg = EstimateConfig {
                kind,
                ..EstimateConfig::default()
            };
            let plan_ns = best_of(3, || {
                Planner::estimated(a, a, &est_cfg)
                    .unwrap()
                    .auto(device)
                    .unwrap()
            });
            let run = OutOfCoreGpu::new(base.clone().estimator(est_cfg))
                .multiply(a, a)
                .expect("speculative run");
            let stats = run
                .metrics
                .estimator
                .as_ref()
                .expect("speculative run must report estimator stats");
            debug_assert_eq!(run.c, exact_run.c, "speculation must not change C");
            EstimateBenchRow {
                matrix: entry.id.abbr().to_string(),
                kind: kind.name(),
                n: a.n_rows(),
                nnz: a.nnz(),
                plan_ns,
                exact_plan_ns,
                sim_ns: run.sim_ns,
                exact_sim_ns: exact_run.sim_ns,
                est_nnz: stats.est_nnz,
                actual_nnz: stats.actual_nnz,
                overflow_retries: run.recovery.estimate_overflows,
            }
        })
        .collect()
}

/// Runs the whole suite at `scale`.
pub fn run_all(scale: SuiteScale) -> Vec<EstimateBenchRow> {
    crate::load_suite(scale)
        .iter()
        .flat_map(run_entry)
        .collect()
}

/// Renders rows as the stdout table.
pub fn table(rows: &[EstimateBenchRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "matrix  estimator    plan(ms)  exact-plan(ms)  plan-spdup  sim(ms)  exact-sim(ms)  \
         sim-spdup  rel-err  retries\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<7} {:<12} {:>8.2}  {:>14.2}  {:>9.2}x  {:>7.2}  {:>13.2}  {:>8.3}x  {:>+6.1}%  {:>7}\n",
            r.matrix,
            r.kind,
            r.plan_ns as f64 / 1e6,
            r.exact_plan_ns as f64 / 1e6,
            r.plan_speedup(),
            r.sim_ns as f64 / 1e6,
            r.exact_sim_ns as f64 / 1e6,
            r.sim_speedup(),
            r.rel_error() * 100.0,
            r.overflow_retries,
        ));
    }
    out
}

/// Renders rows as the `BENCH_estimate.json` document.
pub fn to_json(rows: &[EstimateBenchRow]) -> String {
    crate::bench_cases_json("estimate", rows, |r| {
        vec![
            ("plan_speedup", r.plan_speedup()),
            ("sim_speedup", r.sim_speedup()),
            ("rel_error", r.rel_error()),
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::stats::ProductStats;

    #[test]
    fn json_is_well_formed_for_synthetic_rows() {
        let rows = vec![EstimateBenchRow {
            matrix: "nlp".into(),
            kind: "row-sample",
            n: 100,
            nnz: 500,
            plan_ns: 1000,
            exact_plan_ns: 4000,
            sim_ns: 900,
            exact_sim_ns: 990,
            est_nnz: 950,
            actual_nnz: 1000,
            overflow_retries: 1,
        }];
        let doc: serde_json::Value = serde_json::from_str(&to_json(&rows)).unwrap();
        assert_eq!(doc["benchmark"], "estimate");
        let case = &doc["cases"][0];
        assert_eq!(case["kind"], "row-sample");
        assert_eq!(case["overflow_retries"], 1);
        assert_eq!(case["plan_speedup"], 4.0);
        assert_eq!(case["sim_speedup"], 1.1);
        assert_eq!(case["rel_error"], -0.05);
    }

    #[test]
    fn tiny_entry_runs_end_to_end_and_speculation_wins() {
        let matrix = sparse::gen::erdos_renyi(300, 300, 0.04, 3);
        let stats = ProductStats::square(&matrix);
        let entry = SuiteEntry {
            id: sparse::gen::SuiteMatrix::all()[0],
            matrix,
            stats,
        };
        let rows = run_entry(&entry);
        assert_eq!(rows.len(), KINDS.len());
        for r in &rows {
            assert!(r.sim_ns > 0 && r.exact_sim_ns > 0);
            assert!(
                r.sim_ns < r.exact_sim_ns,
                "{}: speculative {} !< exact {}",
                r.kind,
                r.sim_ns,
                r.exact_sim_ns
            );
            if r.kind == "upper-bound" {
                assert_eq!(r.overflow_retries, 0);
                assert!(r.est_nnz >= r.actual_nnz);
            }
        }
    }
}
