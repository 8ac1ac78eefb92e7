//! Wall-clock comparison of the rebuilt planning/assembly hot path
//! against the reference implementations it replaced, backing the
//! `BENCH_planner.json` baseline the `repro` binary emits.
//!
//! Three measurements per case:
//!
//! * `planner_new` — the global analysis (row flops + flat symbolic
//!   structure);
//! * `auto` — the grid search, incremental (2D chunk-nnz prefix sums,
//!   parallel candidates) vs from-scratch greedy with per-chunk binary
//!   searches;
//! * `assemble` — parallel disjoint-slice fill vs the serial sweep.
//!
//! The budgets are chosen to force deep searches (the reference cost
//! grows with `steps × chunks × rows·log`, so this is where the paper's
//! planning overhead actually hurts).

use oocgemm::assemble::{assemble, assemble_serial};
use oocgemm::{ChunkId, Planner};
use sparse::gen::{grid2d_stencil, rmat, RmatConfig};
use sparse::partition::col::ColPartitioner;
use sparse::{CsrMatrix, CsrView};
use std::time::Instant;

/// One benchmark input: a suite-analogue matrix and the device budget
/// the grid search must plan for.
pub struct PlannerCase {
    /// Case label used in tables and JSON.
    pub name: &'static str,
    /// The input matrix (`C = A·A` is planned).
    pub matrix: CsrMatrix,
    /// Simulated device budget handed to `auto`.
    pub device_bytes: u64,
}

/// The two planner-stress analogues from the evaluation suite: a
/// skewed R-MAT graph (heavy, uneven rows — worst case for weighted
/// partitioning) and a 2D stencil (uniform rows — deep, column-heavy
/// searches).
pub fn cases() -> Vec<PlannerCase> {
    vec![
        PlannerCase {
            name: "rmat_s13",
            matrix: rmat(RmatConfig::skewed(13, 120_000), 9),
            device_bytes: 1 << 22,
        },
        PlannerCase {
            name: "stencil_96x96",
            matrix: grid2d_stencil(96, 96, 2, 2),
            device_bytes: 1 << 19,
        },
    ]
}

/// Timing results of one case.
#[derive(serde::Serialize)]
pub struct PlannerBenchRow {
    /// Case label.
    pub name: &'static str,
    /// Matrix dimension.
    pub n: usize,
    /// Matrix nnz.
    pub nnz: usize,
    /// Device budget planned for.
    pub device_bytes: u64,
    /// Chunks in the plan `auto` settled on (0 when the budget is
    /// genuinely infeasible and both searches error).
    pub auto_chunks: usize,
    /// `Planner::new` (analysis + symbolic pass), ns.
    pub planner_new_ns: u64,
    /// Incremental `auto`, ns.
    pub auto_ns: u64,
    /// From-scratch `auto_reference`, ns.
    pub auto_reference_ns: u64,
    /// Parallel `assemble`, ns.
    pub assemble_ns: u64,
    /// Serial `assemble_serial`, ns.
    pub assemble_serial_ns: u64,
}

impl PlannerBenchRow {
    /// Reference / incremental planning speedup.
    pub fn auto_speedup(&self) -> f64 {
        self.auto_reference_ns as f64 / self.auto_ns.max(1) as f64
    }

    /// Serial / parallel assembly speedup.
    pub fn assemble_speedup(&self) -> f64 {
        self.assemble_serial_ns as f64 / self.assemble_ns.max(1) as f64
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

/// Runs one case end to end.
pub fn run_case(case: &PlannerCase) -> PlannerBenchRow {
    let a = &case.matrix;
    let planner_new_ns = best_of(3, || Planner::new(a, a).unwrap());
    let planner = Planner::new(a, a).unwrap();
    let auto_ns = best_of(3, || planner.auto(case.device_bytes).ok());
    let auto_reference_ns = best_of(2, || planner.auto_reference(case.device_bytes).ok());
    let plan = planner
        .auto(case.device_bytes)
        .unwrap_or_else(|_| planner.fixed(8, 8).expect("fallback plan"));

    // Materialize the chunk results once, then time re-assembly.
    let panels = ColPartitioner::ParallelCursor.partition(a, &plan.col_ranges);
    let mut results = Vec::new();
    for (r, range) in plan.row_ranges.iter().enumerate() {
        let view = CsrView::rows(a, range.start, range.end);
        for (c, panel) in panels.iter().enumerate() {
            let m = cpu_spgemm::parallel_hash::multiply_view(&view, &panel.matrix)
                .expect("chunk multiply");
            results.push((ChunkId { row: r, col: c }, m));
        }
    }
    let refs: Vec<(ChunkId, &CsrMatrix)> = results.iter().map(|(id, m)| (*id, m)).collect();
    let assemble_ns = best_of(3, || assemble(&plan, &refs));
    let assemble_serial_ns = best_of(3, || assemble_serial(&plan, &refs));

    PlannerBenchRow {
        name: case.name,
        n: a.n_rows(),
        nnz: a.nnz(),
        device_bytes: case.device_bytes,
        auto_chunks: planner
            .auto(case.device_bytes)
            .map(|p| p.num_chunks())
            .unwrap_or(0),
        planner_new_ns,
        auto_ns,
        auto_reference_ns,
        assemble_ns,
        assemble_serial_ns,
    }
}

/// Runs all [`cases`].
pub fn run_all() -> Vec<PlannerBenchRow> {
    cases().iter().map(run_case).collect()
}

/// Renders rows as the stdout table.
pub fn table(rows: &[PlannerBenchRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "matrix          chunks  new(ms)   auto(ms)  auto_ref(ms)  speedup  \
         asm(ms)  asm_ser(ms)  speedup\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:>6}  {:>8.2}  {:>8.2}  {:>12.2}  {:>6.2}x  {:>7.2}  {:>11.2}  {:>6.2}x\n",
            r.name,
            r.auto_chunks,
            r.planner_new_ns as f64 / 1e6,
            r.auto_ns as f64 / 1e6,
            r.auto_reference_ns as f64 / 1e6,
            r.auto_speedup(),
            r.assemble_ns as f64 / 1e6,
            r.assemble_serial_ns as f64 / 1e6,
            r.assemble_speedup(),
        ));
    }
    out
}

/// Renders rows as the `BENCH_planner.json` document.
pub fn to_json(rows: &[PlannerBenchRow]) -> String {
    crate::bench_cases_json("planner", rows, |r| {
        vec![
            ("auto_speedup", r.auto_speedup()),
            ("assemble_speedup", r.assemble_speedup()),
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_for_synthetic_rows() {
        let rows = vec![PlannerBenchRow {
            name: "case",
            n: 10,
            nnz: 20,
            device_bytes: 1024,
            auto_chunks: 4,
            planner_new_ns: 1000,
            auto_ns: 10,
            auto_reference_ns: 100,
            assemble_ns: 5,
            assemble_serial_ns: 10,
        }];
        let doc: serde_json::Value = serde_json::from_str(&to_json(&rows)).unwrap();
        assert_eq!(doc["benchmark"], "planner");
        let case = &doc["cases"][0];
        assert_eq!(case["name"], "case");
        assert_eq!(case["auto_reference_ns"], 100);
        assert_eq!(case["auto_speedup"], 10.0);
        assert_eq!(case["assemble_speedup"], 2.0);
    }
}
