#![warn(missing_docs)]

//! Out-of-core CPU-GPU SpGEMM — the reproduction of *"Scaling Sparse
//! Matrix Multiplication on CPU-GPU Nodes"* (Xia, Jiang, Agrawal,
//! Ramnath; IPDPS 2021).
//!
//! The library multiplies sparse matrices whose output does not fit in
//! GPU device memory by partitioning `A` into row panels and `B` into
//! column panels (Algorithm 3), computing each output chunk
//! `C[r][c] = A[r] · B[c]` with a spECK-style in-core kernel, and
//! streaming chunks back to host memory. On top of that framework it
//! implements the paper's three contributions:
//!
//! * **asynchronous execution** ([`pipeline`]) — double-buffered
//!   streams, a pre-allocated memory pool instead of `cudaMalloc`, and
//!   the Figure 6 transfer schedule (row-analysis results first, output
//!   split 33 % / 67 % across the next chunk's symbolic and numeric
//!   phases);
//! * **chunk reordering** ([`chunks`]) — chunks execute in decreasing
//!   flop order so each chunk's computation hides under the previous
//!   chunk's (larger) transfer;
//! * **hybrid CPU+GPU execution** ([`hybrid`], Algorithm 4) — the
//!   densest chunks go to the GPU until a fixed fraction (65 %) of the
//!   total flops is assigned; a Nagasaka-style multicore executor
//!   processes the rest concurrently.
//!
//! The "GPU" is the deterministic device simulator from the `gpu-sim`
//! crate (see DESIGN.md for the substitution argument); all numeric
//! results are real and verified against a sequential reference.
//!
//! # Quickstart
//!
//! ```
//! use oocgemm::{OocConfig, OutOfCoreGpu};
//! use sparse::gen::erdos_renyi;
//!
//! let a = erdos_renyi(500, 500, 0.03, 1);
//! // A small simulated device forces out-of-core execution.
//! let config = OocConfig::with_device_memory(1 << 20);
//! let run = OutOfCoreGpu::new(config).multiply(&a, &a).unwrap();
//! assert_eq!(run.c.n_rows(), 500);
//! println!("simulated {:.3} ms, {:.2} GFLOPS", run.sim_ms(), run.gflops());
//! ```

pub mod assemble;
pub mod chunks;
pub mod config;
pub mod error;
pub mod executor;
pub mod faults;
pub mod hybrid;
pub mod metrics;
pub mod multigpu;
pub mod pipeline;
pub mod plan;
pub mod recovery;
pub mod report;
mod scheduler;
pub mod service;
pub mod spill;
pub mod unified;
pub mod verify;

pub use accum::estimate::{EstModel, EstimateConfig, EstimatorKind};
pub use chunks::{ChunkGrid, ChunkId, ChunkInfo};
pub use config::{ExecMode, HybridConfig, OocConfig, SchedulerKind, DEFAULT_GPU_RATIO};
pub use cpu_spgemm::CpuKernel;
pub use error::OocError;
pub use executor::{
    prepare_grid, prepare_grid_pooled, prepare_grid_serial, ChainedRun, OocRun, OutOfCoreGpu,
    PreparedGrid,
};
pub use faults::{HostFaultKind, HostFaultPlan, HostFaultState, HostFaultStats};
pub use gpu_sim::FaultPlan;
pub use hybrid::{auto_gpu_ratio, Hybrid, HybridRun, RatioSearch};
pub use metrics::{
    ChunkMetrics, DegradationCause, DegradationEvent, DemotionCause, EstimatorStats, Metrics,
    SchedulerStats, ServiceStats, TenantStats,
};
pub use multigpu::{multiply_multi_gpu, MultiGpuConfig, MultiGpuRun};
pub use plan::{PanelPlan, Planner};
pub use recovery::{RecoveryPolicy, RecoveryReport, RunBudget};
pub use report::RunReport;
pub use service::{
    Completion, Outcome, Request, RequestOp, Service, ServiceConfig, ShedReason, TenantQuota,
    DEFAULT_AGING_NS,
};
pub use spill::{multiply_to_disk, SpilledMatrix, SpilledRun};
pub use unified::{multiply_unified, UnifiedRun};
pub use verify::{verify_product, Verdict};

/// Result alias for out-of-core operations.
pub type Result<T> = std::result::Result<T, OocError>;
