#![warn(missing_docs)]

//! Experiment harness: everything needed to regenerate the paper's
//! tables and figures (see the `repro` binary).
//!
//! Experiment scaling policy (documented in EXPERIMENTS.md): the paper
//! runs 9 matrices whose `A²` outputs are 24–58 GB against a fixed
//! 16 GB device — an out-of-core factor of ~1.5–3.6×. Our suite
//! analogues span a wider output range (their absolute sizes scaled
//! ~100–700×), so the harness scales the simulated device **per
//! matrix** to keep that factor constant (see [`SuiteEntry::paper_ooc_factor`]); the
//! scheduling problem each run solves is therefore the same one the
//! paper's runs solve.

pub mod chaos;
pub mod chunk_prep_bench;
pub mod cpu_calibration;
pub mod estimate_bench;
pub mod experiments;
pub mod planner_bench;
pub mod serve;
pub mod table;

use sparse::gen::{suite, SuiteMatrix, SuiteScale};
use sparse::stats::ProductStats;
use sparse::CsrMatrix;

/// Fallback output-bytes / device-bytes factor for matrices without a
/// paper counterpart.
pub const DEFAULT_OOC_FACTOR: f64 = 3.5;

/// Bytes per output nonzero in device transfers.
pub const BYTES_PER_NNZ: u64 = 12;

/// Floor on the simulated device size.
pub const MIN_DEVICE_BYTES: u64 = 4 << 20;

/// One loaded evaluation matrix with its Table II statistics.
pub struct SuiteEntry {
    /// Which paper matrix this is the analogue of.
    pub id: SuiteMatrix,
    /// The matrix itself.
    pub matrix: CsrMatrix,
    /// Measured `A²` statistics.
    pub stats: ProductStats,
}

impl SuiteEntry {
    /// The paper's out-of-core pressure for this matrix:
    /// `nnz(A²) · 12 bytes / 16 GB` from Table II (ranges ~1.5–3.6).
    pub fn paper_ooc_factor(&self) -> f64 {
        let paper = self.id.paper_row();
        let out_gb = paper.nnz_c_millions * BYTES_PER_NNZ as f64 / 1024.0;
        (out_gb / 16.0).max(1.2)
    }

    /// Per-matrix simulated device size: the analogue's output divided
    /// by the *same* out-of-core factor the paper's run had, so each
    /// run solves the same scheduling problem.
    pub fn device_bytes(&self) -> u64 {
        let out_bytes = self.stats.nnz_c * BYTES_PER_NNZ;
        ((out_bytes as f64 / self.paper_ooc_factor()) as u64).max(MIN_DEVICE_BYTES)
    }
}

/// Generates the full evaluation suite with statistics.
pub fn load_suite(scale: SuiteScale) -> Vec<SuiteEntry> {
    suite(scale)
        .into_iter()
        .map(|(id, matrix)| {
            let stats = ProductStats::square(&matrix);
            SuiteEntry { id, matrix, stats }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_suite_loads_with_stats() {
        let entries = load_suite(SuiteScale::Tiny);
        assert_eq!(entries.len(), 9);
        for e in &entries {
            assert!(e.stats.flops > 0, "{} has no work", e.id.abbr());
            assert!(e.device_bytes() >= MIN_DEVICE_BYTES);
        }
    }

    #[test]
    fn device_scaling_keeps_matrices_out_of_core() {
        for e in load_suite(SuiteScale::Tiny) {
            let out = e.stats.nnz_c * BYTES_PER_NNZ;
            // Either the output exceeds the device, or the floor kicked in.
            assert!(
                out > e.device_bytes() || e.device_bytes() == MIN_DEVICE_BYTES,
                "{} unexpectedly in-core",
                e.id.abbr()
            );
        }
    }
}
