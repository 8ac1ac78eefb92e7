//! Analytic cost model calibrated to the paper's testbed.
//!
//! Durations are derived from workload descriptors, never measured, so
//! simulated timelines are deterministic and platform-independent.
//!
//! ## Calibration (see EXPERIMENTS.md for the resulting fits)
//!
//! * **Transfers** — `latency + bytes / bandwidth`. The effective
//!   device-to-host bandwidth is chosen so that the per-matrix GFLOPS
//!   of the out-of-core GPU executor reproduces Figure 7:
//!   `GFLOPS ≈ compression_ratio × BW / bytes_per_nnz`, and with
//!   12 bytes per output nonzero and 3 GB/s the paper's 0.34–2.42
//!   GFLOPS range falls out of the Table II ratios.
//! * **Kernels** — `launch + work/rate`, where the rate grows with the
//!   chunk's compression ratio (`1 + slope·log2(ratio)`): regular
//!   matrices run faster per flop on both devices (Section V-C), and
//!   dense chunks are "more suited" to the GPU (Section V-E). A
//!   saturating efficiency factor `flops/(flops+K)` penalizes chunks
//!   too small to fill the device — the nonlinearity that makes chunk
//!   reordering matter (Fig 9).
//! * **CPU side** — flop-rate plus per-output-insertion cost, sized so
//!   the out-of-core GPU executor lands at the paper's 1.98–3.03×
//!   speedup over the 28-thread CPU baseline.

use crate::SimTime;
use serde::{Deserialize, Serialize};

/// What a kernel launch does, for costing purposes.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum KernelKind {
    /// Row analysis: per-row flop counting over the A panel
    /// (`ops` = nnz of the A panel).
    RowAnalysis {
        /// Number of A-panel entries scanned.
        ops: u64,
    },
    /// Symbolic phase: distinct-column counting (`flops` of the chunk).
    Symbolic {
        /// Chunk flops (multiply-add = 2).
        flops: u64,
        /// Chunk compression ratio (`flops / nnz_out`).
        compression_ratio: f64,
    },
    /// Numeric phase: actual multiply-accumulate (`flops` of the chunk).
    Numeric {
        /// Chunk flops (multiply-add = 2).
        flops: u64,
        /// Chunk compression ratio (`flops / nnz_out`).
        compression_ratio: f64,
    },
    /// Anything else, charged at a caller-given rate.
    Generic {
        /// Abstract operation count.
        ops: u64,
        /// Operations per second.
        rate: f64,
    },
}

/// The phase family of a kernel, for metrics aggregation: the same
/// chunk launches one kernel per phase, and the metrics layer reports
/// compute time per family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum KernelClass {
    /// Per-row flop counting over the A panel.
    RowAnalysis,
    /// Distinct-column counting.
    Symbolic,
    /// Multiply-accumulate.
    Numeric,
    /// Caller-rated kernels with no phase identity.
    Generic,
}

impl KernelClass {
    /// Every class, in reporting order.
    pub const ALL: [KernelClass; 4] = [
        KernelClass::RowAnalysis,
        KernelClass::Symbolic,
        KernelClass::Numeric,
        KernelClass::Generic,
    ];

    /// Stable lowercase name, used in reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            KernelClass::RowAnalysis => "row_analysis",
            KernelClass::Symbolic => "symbolic",
            KernelClass::Numeric => "numeric",
            KernelClass::Generic => "generic",
        }
    }
}

impl KernelKind {
    /// The phase family this kernel belongs to.
    pub fn class(&self) -> KernelClass {
        match self {
            KernelKind::RowAnalysis { .. } => KernelClass::RowAnalysis,
            KernelKind::Symbolic { .. } => KernelClass::Symbolic,
            KernelKind::Numeric { .. } => KernelClass::Numeric,
            KernelKind::Generic { .. } => KernelClass::Generic,
        }
    }

    /// The workload descriptor recorded as the timeline payload:
    /// entries scanned for row analysis, abstract ops for generic
    /// kernels, flops for the symbolic/numeric phases.
    pub fn payload(&self) -> u64 {
        match *self {
            KernelKind::RowAnalysis { ops } | KernelKind::Generic { ops, .. } => ops,
            KernelKind::Symbolic { flops, .. } | KernelKind::Numeric { flops, .. } => flops,
        }
    }
}

/// The calibrated cost parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CostModel {
    /// Host→device bandwidth for pinned memory, bytes/s.
    pub h2d_bandwidth: f64,
    /// Device→host bandwidth for pinned memory, bytes/s.
    pub d2h_bandwidth: f64,
    /// Bandwidth multiplier for pageable host memory (< 1).
    pub pageable_factor: f64,
    /// Fixed per-copy latency, ns.
    pub copy_latency_ns: SimTime,
    /// Fixed per-kernel launch overhead, ns.
    pub kernel_launch_ns: SimTime,
    /// Row-analysis scan rate, entries/s.
    pub row_analysis_rate: f64,
    /// Symbolic-phase base rate, flops/s (before the ratio term).
    pub symbolic_base_rate: f64,
    /// Numeric-phase base rate, flops/s (before the ratio term).
    pub numeric_base_rate: f64,
    /// Slope of the `1 + slope·log2(ratio)` regularity speedup.
    pub ratio_log_slope: f64,
    /// Small-chunk saturation constant `K` in `eff = f/(f+K)`, flops.
    pub saturation_flops: f64,
    /// `cudaMalloc`/`cudaFree` host-blocking overhead, ns.
    pub alloc_overhead_ns: SimTime,
    /// CPU baseline flop rate (28 threads), flops/s.
    pub cpu_flop_rate: f64,
    /// CPU cost per output nonzero insertion, ns.
    pub cpu_insert_ns: f64,
    /// CPU fixed overhead per chunk, ns.
    pub cpu_chunk_overhead_ns: SimTime,
}

impl CostModel {
    /// The calibration used for all paper-reproduction experiments.
    pub fn calibrated() -> Self {
        CostModel {
            h2d_bandwidth: 6.0e9,
            d2h_bandwidth: 3.0e9,
            pageable_factor: 0.55,
            copy_latency_ns: 10_000,
            kernel_launch_ns: 5_000,
            row_analysis_rate: 50.0e9,
            symbolic_base_rate: 4.8e9,
            numeric_base_rate: 2.4e9,
            ratio_log_slope: 1.375,
            saturation_flops: 5.0e5,
            alloc_overhead_ns: 30_000,
            cpu_flop_rate: 2.0e9,
            cpu_insert_ns: 8.0,
            cpu_chunk_overhead_ns: 50_000,
        }
    }

    /// The paper calibration with the CPU-side constants replaced by
    /// host measurements the caller supplies (nothing in this workspace
    /// measures them yet). The canonical [`calibrated`] constants never
    /// change — paper-reproduction runs must stay deterministic and
    /// platform-independent — but a measured model lets a deployment
    /// reason about its *actual* host instead of the paper's 28-thread
    /// Xeon.
    ///
    /// [`calibrated`]: CostModel::calibrated
    pub fn with_measured_cpu(
        mut self,
        flop_rate: f64,
        insert_ns: f64,
        chunk_overhead_ns: SimTime,
    ) -> Self {
        debug_assert!(flop_rate > 0.0 && insert_ns >= 0.0);
        self.cpu_flop_rate = flop_rate;
        self.cpu_insert_ns = insert_ns;
        self.cpu_chunk_overhead_ns = chunk_overhead_ns;
        self
    }

    /// Regularity multiplier `1 + slope·log2(max(ratio, 1))`.
    #[inline]
    pub fn ratio_speedup(&self, compression_ratio: f64) -> f64 {
        1.0 + self.ratio_log_slope * compression_ratio.max(1.0).log2()
    }

    /// Small-chunk efficiency `f / (f + K)` in `(0, 1)`.
    #[inline]
    pub fn saturation(&self, flops: u64) -> f64 {
        let f = flops as f64;
        if f <= 0.0 {
            return 1.0;
        }
        f / (f + self.saturation_flops)
    }

    /// Duration of a kernel, in ns (includes launch overhead).
    pub fn kernel_duration(&self, kind: KernelKind) -> SimTime {
        let work_secs = match kind {
            KernelKind::RowAnalysis { ops } => ops as f64 / self.row_analysis_rate,
            KernelKind::Symbolic {
                flops,
                compression_ratio,
            } => {
                let rate = self.symbolic_base_rate
                    * self.ratio_speedup(compression_ratio)
                    * self.saturation(flops);
                flops as f64 / rate.max(1.0)
            }
            KernelKind::Numeric {
                flops,
                compression_ratio,
            } => {
                let rate = self.numeric_base_rate
                    * self.ratio_speedup(compression_ratio)
                    * self.saturation(flops);
                flops as f64 / rate.max(1.0)
            }
            KernelKind::Generic { ops, rate } => ops as f64 / rate.max(1.0),
        };
        self.kernel_launch_ns + (work_secs * 1e9).round() as SimTime
    }

    /// Duration of a copy of `bytes` in the given direction, in ns.
    pub fn copy_duration(&self, bytes: u64, d2h: bool, pinned: bool) -> SimTime {
        let mut bw = if d2h {
            self.d2h_bandwidth
        } else {
            self.h2d_bandwidth
        };
        if !pinned {
            bw *= self.pageable_factor;
        }
        self.copy_latency_ns + (bytes as f64 / bw * 1e9).round() as SimTime
    }

    /// Modeled CPU time for one chunk with the given flops and output
    /// size (the Nagasaka-baseline side of the hybrid executor).
    pub fn cpu_chunk_duration(&self, flops: u64, nnz_out: u64) -> SimTime {
        self.cpu_chunk_overhead_ns
            + (flops as f64 / self.cpu_flop_rate * 1e9).round() as SimTime
            + (nnz_out as f64 * self.cpu_insert_ns).round() as SimTime
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_speedup_monotone() {
        let m = CostModel::calibrated();
        assert_eq!(m.ratio_speedup(1.0), 1.0);
        assert_eq!(m.ratio_speedup(0.5), 1.0, "ratios below 1 clamp");
        assert!(m.ratio_speedup(4.0) > m.ratio_speedup(2.0));
    }

    #[test]
    fn saturation_penalizes_small_chunks() {
        let m = CostModel::calibrated();
        assert!(m.saturation(1_000) < 0.01);
        assert!(m.saturation(50_000_000) > 0.98);
        assert_eq!(m.saturation(0), 1.0);
        // Duration per flop is higher for small chunks.
        let small = m.kernel_duration(KernelKind::Numeric {
            flops: 100_000,
            compression_ratio: 2.0,
        });
        let large = m.kernel_duration(KernelKind::Numeric {
            flops: 10_000_000,
            compression_ratio: 2.0,
        });
        let per_flop_small = (small - m.kernel_launch_ns) as f64 / 100_000.0;
        let per_flop_large = (large - m.kernel_launch_ns) as f64 / 10_000_000.0;
        assert!(per_flop_small > 2.0 * per_flop_large);
    }

    #[test]
    fn regular_chunks_run_faster() {
        let m = CostModel::calibrated();
        let flops = 20_000_000;
        let skewed = m.kernel_duration(KernelKind::Numeric {
            flops,
            compression_ratio: 1.8,
        });
        let regular = m.kernel_duration(KernelKind::Numeric {
            flops,
            compression_ratio: 10.0,
        });
        assert!(regular < skewed / 2, "{regular} !< {skewed}/2");
    }

    #[test]
    fn copy_duration_scales_with_bytes_and_pinning() {
        let m = CostModel::calibrated();
        let one_mb = m.copy_duration(1 << 20, true, true);
        let two_mb = m.copy_duration(2 << 20, true, true);
        assert!(two_mb > one_mb);
        assert!((two_mb - m.copy_latency_ns) as f64 / (one_mb - m.copy_latency_ns) as f64 > 1.9);
        let pageable = m.copy_duration(1 << 20, true, false);
        assert!(pageable > one_mb, "pageable copies must be slower");
        // D2H at 3 GB/s: 3 MB takes ~1 ms.
        let d2h_3mb = m.copy_duration(3_000_000, true, true);
        assert!((d2h_3mb as f64 - 1e6 - m.copy_latency_ns as f64).abs() < 1e4);
        // H2D is faster than D2H in this calibration.
        assert!(m.copy_duration(1 << 20, false, true) < one_mb);
    }

    #[test]
    fn cpu_model_dominated_by_inserts_for_low_ratio() {
        let m = CostModel::calibrated();
        // ratio 2: nnz = flops/2 -> insert cost (8 ns) >> flop cost (0.5 ns/flop).
        let flops = 10_000_000u64;
        let t = m.cpu_chunk_duration(flops, flops / 2);
        let insert_part = (flops / 2) as f64 * m.cpu_insert_ns;
        assert!(insert_part / t as f64 > 0.7);
    }

    #[test]
    fn cost_model_serde_roundtrip() {
        let m = CostModel::calibrated();
        let json = serde_json::to_string(&m).unwrap();
        let back: CostModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back.d2h_bandwidth, m.d2h_bandwidth);
        assert_eq!(back.alloc_overhead_ns, m.alloc_overhead_ns);
        assert_eq!(
            back.kernel_duration(KernelKind::Numeric {
                flops: 1_000_000,
                compression_ratio: 3.0
            }),
            m.kernel_duration(KernelKind::Numeric {
                flops: 1_000_000,
                compression_ratio: 3.0
            }),
        );
    }

    #[test]
    fn symbolic_cheaper_than_numeric() {
        let m = CostModel::calibrated();
        let flops = 5_000_000;
        let s = m.kernel_duration(KernelKind::Symbolic {
            flops,
            compression_ratio: 2.0,
        });
        let n = m.kernel_duration(KernelKind::Numeric {
            flops,
            compression_ratio: 2.0,
        });
        assert!(s < n);
    }

    #[test]
    fn gpu_beats_cpu_by_paper_factor() {
        // End-to-end sanity of the calibration: for a compression-
        // ratio-2 workload, transfer-bound GPU time should be ~2x
        // faster than the CPU model (Fig 7's typical speedup).
        let m = CostModel::calibrated();
        let flops = 50_000_000u64;
        let nnz_out = flops / 2;
        let gpu_transfer = m.copy_duration(nnz_out * 12, true, true);
        let gpu_compute = m.kernel_duration(KernelKind::Symbolic {
            flops,
            compression_ratio: 2.0,
        }) + m.kernel_duration(KernelKind::Numeric {
            flops,
            compression_ratio: 2.0,
        });
        let gpu_sync = gpu_transfer + gpu_compute;
        let cpu = m.cpu_chunk_duration(flops, nnz_out);
        let speedup = cpu as f64 / gpu_sync as f64;
        assert!(
            (1.5..3.5).contains(&speedup),
            "calibration drifted: GPU/CPU speedup {speedup}"
        );
        // Transfers must dominate the synchronous GPU time (Fig 4).
        let frac = gpu_transfer as f64 / gpu_sync as f64;
        assert!((0.70..0.95).contains(&frac), "transfer fraction {frac}");
    }
}
