#![warn(missing_docs)]

//! A discrete-event GPU device simulator.
//!
//! This crate is the substitution substrate for the paper's NVIDIA
//! Tesla V100 (see DESIGN.md): it models exactly the resources and
//! constraints the paper's scheduling contribution reasons about —
//! nothing more, nothing less:
//!
//! * **FIFO streams** with CUDA issue-order semantics and
//!   [`Event`]-based cross-stream dependencies;
//! * **one compute engine** (kernels execute in issue order) and
//!   **one copy engine per direction** — "there is only one engine for
//!   each direction of data transfer because we used PCI-e" (Section
//!   IV-B);
//! * **device memory accounting** with a hard capacity, where dynamic
//!   (de)allocation is a device-wide synchronization barrier — "two
//!   commands from different streams can not run concurrently if the
//!   host issues any device memory allocation and deallocations";
//! * the hooks a pre-allocated pool needs — the paper's "large chunk
//!   of memory ... shared by all dynamic data structures, for each data
//!   structure we maintain an offset": the pool is one
//!   [`GpuSim::malloc`] that the caller carves up itself (the
//!   `oocgemm` crate's `PipelineSession` cuts it into an A slot and one
//!   slot per pipeline epoch), [`GpuSim::check_pool_reserve`] is each
//!   chunk's reservation, and [`GpuSim::note_pool_high_water`] records
//!   the pool's use;
//! * **pinned vs pageable** host buffers (pageable copies get degraded
//!   bandwidth);
//! * an analytic [`CostModel`] calibrated against the paper's V100 +
//!   PCIe numbers, so compute/transfer ratios land in the measured
//!   regime (transfers are 77–90 % of synchronous execution, Fig 4).
//!
//! The simulator carries **no data** — numeric results are computed by
//! the host-side executors; the simulator accounts time and space and
//! produces a validated [`Timeline`].
//!
//! Scheduling is *eager*: because streams are FIFO and engines grant in
//! issue order (as on real hardware), an operation's start/end time can
//! be computed at enqueue. The result is a deterministic, platform-
//! independent timeline.
//!
//! ```
//! use gpu_sim::{CopyDir, CostModel, DeviceProps, GpuSim, HostMem, KernelKind};
//!
//! let mut sim = GpuSim::new(DeviceProps::v100_scaled(32 << 20), CostModel::calibrated());
//! let s1 = sim.create_stream();
//! let s2 = sim.create_stream();
//! // A kernel and an opposite-direction copy overlap freely...
//! sim.enqueue_kernel(s1, KernelKind::Numeric { flops: 1_000_000, compression_ratio: 2.0 }, "k");
//! sim.enqueue_copy(s2, CopyDir::D2H, 4 << 20, HostMem::Pinned, "out");
//! let makespan = sim.finish();
//! let t = sim.timeline();
//! assert!(makespan < t.busy_time(gpu_sim::OpKind::Kernel)
//!     + t.busy_time(gpu_sim::OpKind::CopyD2H), "overlap happened");
//! t.validate().unwrap();
//! ```

pub mod cost;
pub mod fault;
pub mod memory;
pub mod metrics;
pub mod props;
pub mod sim;
pub mod trace;

pub use cost::{CostModel, KernelClass, KernelKind};
pub use fault::{CapacityShrink, FaultKind, FaultPlan, FaultState, FaultStats, SimFault};
pub use memory::{DeviceAlloc, DeviceMemory, OutOfDeviceMemory};
pub use metrics::{EngineMetrics, KernelClassMetrics, StreamMetrics, TimelineMetrics};
pub use props::DeviceProps;
pub use sim::{CopyDir, Event, GpuSim, HostMem, Stream};
pub use trace::{OpKind, Timeline, TraceRecord};

/// Simulated time in nanoseconds.
pub type SimTime = u64;
