//! Measured CPU-side calibration of the [`gpu_sim::CostModel`].
//!
//! The canonical `CostModel::calibrated()` constants model the paper's
//! 28-thread Xeon testbed and are frozen — every paper-reproduction
//! experiment depends on them being deterministic. This module instead
//! *measures* the host the benchmark runs on: it times the default CPU
//! SpGEMM kernel ([`CpuKernel::default`]) on two workloads with very different
//! compression ratios and solves the 2×2 system
//!
//! ```text
//! t_i = flops_i / rate + nnz_i · insert_ns      (i = 1, 2)
//! ```
//!
//! for the per-flop rate and per-insert cost, then reads the fixed
//! per-chunk overhead off a near-empty multiply. The resulting numbers
//! feed [`gpu_sim::CostModel::with_measured_cpu`] and are written as
//! `BENCH_cpu_calibration.json` by `repro prep`, next to the paper
//! constants they would replace — so drift between the modeled and the
//! actual host is a recorded artifact, not a silent assumption.

use cpu_spgemm::CpuKernel;
use sparse::gen::{grid2d_stencil, rmat, RmatConfig};
use sparse::CsrMatrix;
use std::time::Instant;

/// One timed kernel run.
#[derive(Clone, Debug, serde::Serialize)]
pub struct CalibrationPoint {
    /// Workload label.
    pub name: &'static str,
    /// Multiply flops (`total_flops(a, a)`).
    pub flops: u64,
    /// Output nonzeros.
    pub nnz_out: u64,
    /// Best-of-iters wall-clock, ns.
    pub wall_ns: u64,
}

/// The CPU constants of a [`gpu_sim::CostModel`].
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct CpuConstants {
    /// Flop rate, flops/s.
    pub cpu_flop_rate: f64,
    /// Per-output-insert cost, ns.
    pub cpu_insert_ns: f64,
    /// Fixed per-chunk overhead, ns.
    pub cpu_chunk_overhead_ns: u64,
}

impl CpuConstants {
    fn of(m: &gpu_sim::CostModel) -> Self {
        CpuConstants {
            cpu_flop_rate: m.cpu_flop_rate,
            cpu_insert_ns: m.cpu_insert_ns,
            cpu_chunk_overhead_ns: m.cpu_chunk_overhead_ns,
        }
    }
}

/// The fitted model plus the points it was fitted from, next to the
/// frozen paper constants — the `BENCH_cpu_calibration.json` document.
#[derive(Clone, Debug, serde::Serialize)]
pub struct CpuCalibration {
    /// Threads the kernel ran with (`rayon::current_num_threads`).
    pub host_threads: usize,
    /// The timed workloads.
    pub points: Vec<CalibrationPoint>,
    /// The constants measured on this host.
    pub measured: CpuConstants,
    /// The frozen paper constants they would replace.
    pub paper: CpuConstants,
}

fn best_of(iters: usize, mut f: impl FnMut() -> CsrMatrix) -> (u64, CsrMatrix) {
    let mut best = u64::MAX;
    let mut out = None;
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        let c = std::hint::black_box(f());
        best = best.min(t.elapsed().as_nanos() as u64);
        out = Some(c);
    }
    (best, out.expect("at least one iteration"))
}

fn time_square(name: &'static str, a: &CsrMatrix, iters: usize) -> CalibrationPoint {
    let flops = sparse::stats::total_flops(a, a);
    let (wall_ns, c) = best_of(iters, || {
        cpu_spgemm::multiply_with_kernel(a, a, CpuKernel::default()).expect("cpu multiply")
    });
    CalibrationPoint {
        name,
        flops,
        nnz_out: c.nnz() as u64,
        wall_ns,
    }
}

/// Measures the host and fits the CPU cost parameters.
///
/// The two fit workloads bracket the compression-ratio axis: the
/// skewed R-MAT square is insert-heavy (low ratio), the 2D stencil is
/// flop-heavy (high ratio, long regular rows), which keeps the 2×2
/// solve well-conditioned. A 16×16 stencil provides the near-zero-work
/// chunk for the overhead read-off.
pub fn run() -> CpuCalibration {
    let host_threads = rayon::current_num_threads();
    let skew = time_square(
        "rmat_s11_skewed",
        &rmat(RmatConfig::skewed(11, 40_000), 9),
        3,
    );
    let reg = time_square("stencil_96x96", &grid2d_stencil(96, 96, 2, 2), 3);
    let tiny = time_square("stencil_16x16", &grid2d_stencil(16, 16, 1, 1), 5);

    // Solve t = f/rate + n*insert for the two fit points. Determinant
    // is nonzero because the ratios differ; clamp to sane positives in
    // case measurement noise produces a degenerate fit.
    let (f1, n1, t1) = (skew.flops as f64, skew.nnz_out as f64, skew.wall_ns as f64);
    let (f2, n2, t2) = (reg.flops as f64, reg.nnz_out as f64, reg.wall_ns as f64);
    let det = f1 * n2 - f2 * n1;
    let (sec_per_flop, insert_ns) = if det.abs() > f64::EPSILON {
        let a = (t1 * n2 - t2 * n1) / det; // ns per flop
        let b = (f1 * t2 - f2 * t1) / det; // ns per insert
        (a.max(1e-3), b.max(0.0))
    } else {
        // Degenerate: charge everything to flops.
        ((t1 / f1).max(1e-3), 0.0)
    };
    let flop_rate = 1e9 / sec_per_flop;
    let modeled_tiny = tiny.flops as f64 * sec_per_flop + tiny.nnz_out as f64 * insert_ns;
    let chunk_overhead_ns = (tiny.wall_ns as f64 - modeled_tiny).max(0.0) as u64;

    CpuCalibration {
        host_threads,
        points: vec![skew, reg, tiny],
        measured: CpuConstants {
            cpu_flop_rate: flop_rate,
            cpu_insert_ns: insert_ns,
            cpu_chunk_overhead_ns: chunk_overhead_ns,
        },
        paper: CpuConstants::of(&gpu_sim::CostModel::calibrated()),
    }
}

impl CpuCalibration {
    /// The paper model with this host's measured CPU constants.
    pub fn cost_model(&self) -> gpu_sim::CostModel {
        let m = &self.measured;
        gpu_sim::CostModel::calibrated().with_measured_cpu(
            m.cpu_flop_rate,
            m.cpu_insert_ns,
            m.cpu_chunk_overhead_ns,
        )
    }

    /// Stdout table: measured constants next to the frozen paper ones.
    pub fn table(&self) -> String {
        let (m, paper) = (&self.measured, &self.paper);
        let mut out = String::new();
        out.push_str("workload          flops       nnz_out     wall(ms)\n");
        for p in &self.points {
            out.push_str(&format!(
                "{:<16} {:>11} {:>11} {:>11.3}\n",
                p.name,
                p.flops,
                p.nnz_out,
                p.wall_ns as f64 / 1e6
            ));
        }
        out.push_str(&format!(
            "\nparameter            measured       paper (frozen)\n\
             flop_rate (GF/s)   {:>10.3}       {:>10.3}\n\
             insert_ns          {:>10.3}       {:>10.3}\n\
             chunk_overhead_ns  {:>10}       {:>10}\n\
             host_threads       {:>10}       {:>10}\n",
            m.cpu_flop_rate / 1e9,
            paper.cpu_flop_rate / 1e9,
            m.cpu_insert_ns,
            paper.cpu_insert_ns,
            m.cpu_chunk_overhead_ns,
            paper.cpu_chunk_overhead_ns,
            self.host_threads,
            28,
        ));
        out
    }

    /// The `BENCH_cpu_calibration.json` document.
    pub fn to_json(&self) -> String {
        crate::bench_json("cpu_calibration", self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_produces_positive_rates_and_valid_json() {
        let cal = run();
        assert!(cal.measured.cpu_flop_rate > 0.0);
        assert!(cal.measured.cpu_insert_ns >= 0.0);
        let json = cal.to_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid json");
        assert_eq!(parsed["benchmark"], "cpu_calibration");
        assert_eq!(parsed["points"].as_array().unwrap().len(), 3);
        assert_eq!(parsed["points"][1]["name"], "stencil_96x96");
        assert_eq!(
            parsed["paper"]["cpu_flop_rate"],
            gpu_sim::CostModel::calibrated().cpu_flop_rate
        );
        assert_eq!(
            parsed["measured"]["cpu_chunk_overhead_ns"],
            cal.measured.cpu_chunk_overhead_ns
        );
        // The measured model plugs into the paper calibration without
        // touching the frozen constants.
        let m = cal.cost_model();
        assert_eq!(
            m.d2h_bandwidth,
            gpu_sim::CostModel::calibrated().d2h_bandwidth
        );
        assert!((m.cpu_flop_rate - cal.measured.cpu_flop_rate).abs() < 1.0);
    }
}
