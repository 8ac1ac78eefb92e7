#![warn(missing_docs)]

//! spECK-style in-core GPU SpGEMM on the simulated device.
//!
//! The paper's in-core building block (Section III-B, Figure 3) is a
//! three-stage pipeline derived from spECK:
//!
//! 1. **row analysis** — a kernel counts the flops of every row of the
//!    A panel; the counts go to the host, which bins rows into groups
//!    for load balance;
//! 2. **symbolic execution** — per-group kernels count `nnz(C_i*)`,
//!    which sizes the output allocation;
//! 3. **numeric execution** — rows are re-grouped by output size and
//!    per-group kernels compute the values, using *dense* accumulation
//!    for dense groups and *hash-map* accumulation for sparse ones.
//!
//! [`phases`] computes each chunk's real product host-side with the
//! CPU baseline's kernel (`cpu_spgemm::parallel_hash`) and derives the
//! workload descriptors ([`PreparedChunk`]) the simulator charges: row
//! flops, the two row groupings, bytes, and the compression ratio. The
//! simulated kernels are charged from those descriptors alone, so which
//! accumulator the host ran never moves simulated time. [`sync`] drives
//! one chunk through a single stream with dynamic device allocations —
//! the "synchronous, partitioned spECK" baseline of Section IV-A. The
//! asynchronous, pool-based pipeline that is the paper's contribution
//! lives in the `oocgemm` crate and reuses [`phases`].

pub mod alternatives;
pub mod phases;
pub mod sync;

pub use alternatives::{esc_chunk, rmerge_chunk, AltChunkReport};
pub use phases::{
    describe_rows, prepare_chunk, prepare_chunk_with, ChunkJob, ChunkProduct, NumericGroups,
    PreparedChunk, RowGroups, GROUP_BOUNDS, NNZ_GROUP_BOUNDS, ROW_BLOCK,
};
pub use sync::{simulate_sync_chunk, sync_chunk, SyncChunkReport};
