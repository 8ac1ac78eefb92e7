//! The asynchronous double-buffered pipeline — Section IV and Figure 6.
//!
//! Two streams and two pool epochs alternate across chunks. Per chunk:
//!
//! 1. panels are copied host→device on the chunk's stream;
//! 2. the row-analysis kernel runs and its (small) result goes
//!    device→host *first* — "we first finish the row analysis stage of
//!    the chunk i and transfer the collected data back to the host";
//! 3. only then is the *previous* chunk's output transfer issued, in
//!    two portions: the first (33 % of rows) overlaps this chunk's
//!    symbolic execution, the second overlaps its numeric execution;
//! 4. all device structures come from one pre-allocated pool, so no
//!    `cudaMalloc` barrier ever splits the streams.
//!
//! Buffer-reuse safety falls out of stream FIFO order: chunk `i`
//! recycles the pool epoch of chunk `i−2`, whose output portions were
//! issued on the same stream, so new writes are ordered after the old
//! transfer by construction.
//!
//! The schedule is written once, in `PipelineSession`. Every stage
//! goes through the simulator's fallible `try_enqueue_*` calls with
//! bounded retries, so a fault-free simulator runs it unchanged and a
//! faulted one heals it. Three callers push chunks into a session:
//!
//! * [`simulate_pipeline_depth`], the exact one-shot pass: any chunk
//!   failure is an error;
//! * `recovering_pass`, one pass of the self-healing executor: failed
//!   chunks are handed back for re-splitting, growing or demotion;
//! * the work-stealing scheduler's claim auction, which pushes onto a
//!   clean scratch simulator, admits speculative chunks by their exact
//!   footprint, and reads the session's projected finish time.

use crate::recovery::{backoff_ns, RecoveryPolicy, RecoveryReport};
use gpu_sim::{
    CopyDir, DeviceAlloc, GpuSim, HostMem, KernelKind, OutOfDeviceMemory, SimTime, Stream,
};
use gpu_spgemm::PreparedChunk;

/// Host-side per-row cost of the grouping pass, ns.
const GROUPING_NS_PER_ROW: u64 = 2;
/// Host-side per-row cost of the allocation prefix sum, ns.
const PREFIX_NS_PER_ROW: u64 = 1;

/// Checks the caller-reachable pipeline arguments, returning
/// [`crate::OocError::Config`] instead of panicking: `depth` and
/// `split_fraction` arrive straight from the CLI/config layer.
fn validate_pipeline_args(split_fraction: f64, depth: usize) -> crate::Result<()> {
    if depth < 2 {
        return Err(crate::OocError::Config(format!(
            "pipeline depth must be at least 2, got {depth}"
        )));
    }
    if !(0.0..=1.0).contains(&split_fraction) {
        return Err(crate::OocError::Config(format!(
            "split fraction must be in [0, 1], got {split_fraction}"
        )));
    }
    Ok(())
}

/// Splits the pool bytes left after the A slot across `depth` epochs.
/// Integer division drops up to `depth - 1` remainder bytes; epoch 0
/// absorbs them so no pool capacity is silently lost.
fn epoch_sizes(pool_bytes: u64, a_slot_bytes: u64, depth: usize) -> Vec<u64> {
    let usable = pool_bytes - a_slot_bytes;
    let per_epoch = usable / depth as u64;
    let mut sizes = vec![per_epoch; depth];
    sizes[0] += usable % depth as u64;
    sizes
}

fn align256(bytes: u64) -> u64 {
    bytes.div_ceil(256) * 256
}

/// The resident-A slot that holds every chunk's A panel: the largest
/// 256-aligned A panel among `chunks`.
pub(crate) fn a_slot_bytes<'c>(chunks: impl IntoIterator<Item = &'c PreparedChunk>) -> u64 {
    chunks
        .into_iter()
        .map(|c| align256(c.a_bytes))
        .max()
        .unwrap_or(0)
}

/// Runs the exact one-shot pass over prepared chunks, in the given
/// order, and returns the simulated completion time. `transfer_a[i]`
/// says whether chunk `i` (re)copies its A panel; the first chunk
/// always does, since nothing is resident yet. `depth` is the number
/// of stream/buffer epochs: 2 is the paper's double buffering, deeper
/// pipelines split the pool further (less room per chunk) in exchange
/// for more in-flight chunks.
///
/// A chunk that does not fit the pool geometry, or whose retries run
/// out on a faulted simulator, is an error. The pool stays allocated,
/// so the timeline ends with the last output transfer.
pub fn simulate_pipeline_depth(
    sim: &mut GpuSim,
    chunks: &[&PreparedChunk],
    transfer_a: &[bool],
    split_fraction: f64,
    pinned: bool,
    depth: usize,
) -> crate::Result<SimTime> {
    if chunks.len() != transfer_a.len() {
        return Err(crate::OocError::Config(format!(
            "pipeline needs one transfer flag per chunk: {} chunks, {} flags",
            chunks.len(),
            transfer_a.len()
        )));
    }
    validate_pipeline_args(split_fraction, depth)?;
    if chunks.is_empty() {
        return Ok(sim.now());
    }
    // A chunk that copies its A panel starts a new resident row panel.
    let mut row = 0;
    let attempts: Vec<ChunkAttempt<'_>> = chunks
        .iter()
        .zip(transfer_a)
        .map(|(&chunk, &xfer_a)| {
            row += usize::from(xfer_a);
            ChunkAttempt { chunk, row }
        })
        .collect();
    let a_slot = a_slot_bytes(chunks.iter().copied());
    let policy = RecoveryPolicy::default();
    let mut session =
        PipelineSession::new(sim, split_fraction, pinned, depth, a_slot, policy, false)?;
    for att in &attempts {
        session
            .push(att)
            .map_err(|f| f.into_error(&att.chunk.chunk_id.to_string()))?;
    }
    session.finish();
    if let Some(&(i, f)) = session.failed.first() {
        return Err(f.into_error(&attempts[i].chunk.chunk_id.to_string()));
    }
    Ok(sim.finish())
}

/// One unit of work for the pipeline: a prepared chunk plus the row
/// panel its A view belongs to. The A panel stays resident while
/// consecutive chunks share a row panel.
pub(crate) struct ChunkAttempt<'a> {
    /// The prepared chunk (descriptors + host-side result).
    pub chunk: &'a PreparedChunk,
    /// Row panel the chunk's A view belongs to.
    pub row: usize,
}

/// Why a chunk could not complete on the device.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ChunkFailure {
    /// The chunk's working set does not fit the pool (re-splittable).
    Oom(OutOfDeviceMemory),
    /// Transient faults exhausted the retry budget (demotable).
    Faults,
    /// A speculative chunk's actual output outgrew its estimated
    /// allocation (recoverable: grow the buffer to `needed` and
    /// retry).
    EstimateOverflow {
        /// Exact output bytes the retry must allocate.
        needed: u64,
    },
    /// The run budget's demotion point passed before the chunk was
    /// admitted: fail fast so the supervisor can demote it to the CPU
    /// instead of sinking more device time.
    Deadline,
}

impl ChunkFailure {
    /// The error a run reports when it cannot recover `chunk` from
    /// this failure.
    pub(crate) fn into_error(self, chunk: &str) -> crate::OocError {
        match self {
            ChunkFailure::Oom(e) => crate::OocError::DeviceMemory(e),
            ChunkFailure::Faults => crate::OocError::Worker {
                worker: "gpu".into(),
                message: format!("chunk {chunk} exhausted its retry budget"),
            },
            ChunkFailure::EstimateOverflow { needed } => crate::OocError::Planning(format!(
                "chunk {chunk} outgrew its estimated output allocation ({needed} bytes needed)"
            )),
            ChunkFailure::Deadline => {
                unreachable!("deadline failures are re-queued for supervision")
            }
        }
    }
}

/// Runs one pass of the self-healing executor over `attempts` and
/// returns the chunks (by index) that did not complete, with the
/// reason. Time accumulates on `sim`, which persists across passes.
///
/// * A chunk whose working set does not fit (e.g. after a capacity
///   shrink) is skipped as [`ChunkFailure::Oom`], so the caller can
///   re-split it instead of aborting the run.
/// * A chunk whose retry budget runs out fails as
///   [`ChunkFailure::Faults`], so the caller can demote it to the CPU.
/// * A speculative chunk whose real output outgrew its estimate fails
///   as [`ChunkFailure::EstimateOverflow`], so the caller can grow the
///   allocation and retry.
/// * Past `deadline_demote_ns` every remaining chunk fails as
///   [`ChunkFailure::Deadline`].
///
/// The pool is released at the end, so a follow-up pass (after
/// re-splitting) sizes its own pool against the then-current device
/// capacity. That `free` barrier is the only difference from the exact
/// one-shot pass over the same chunks.
pub(crate) fn recovering_pass(
    sim: &mut GpuSim,
    attempts: &[ChunkAttempt<'_>],
    config: &crate::OocConfig,
    report: &mut RecoveryReport,
    deadline_demote_ns: Option<SimTime>,
) -> crate::Result<Vec<(usize, ChunkFailure)>> {
    validate_pipeline_args(config.split_fraction, config.pipeline_depth)?;
    if attempts.is_empty() {
        return Ok(Vec::new());
    }
    let mut session = PipelineSession::new(
        sim,
        config.split_fraction,
        config.pinned,
        config.pipeline_depth,
        a_slot_bytes(attempts.iter().map(|a| a.chunk)),
        config.recovery,
        false,
    )?;
    let mut failed = Vec::new();
    for (i, att) in attempts.iter().enumerate() {
        // Deadline admission: past the budget's demotion point a chunk
        // fails fast (the supervisor demotes it to the CPU, whose time
        // is exactly predictable) instead of sinking device time. The
        // host clock never moves backwards, so once this fires no later
        // chunk is pushed, and push order keeps matching `i`.
        if deadline_demote_ns.is_some_and(|d| session.sim.now() >= d) {
            session.sim.note_recovery(format!(
                "skip chunk {}: past deadline demotion point",
                att.chunk.chunk_id
            ));
            failed.push((i, ChunkFailure::Deadline));
            continue;
        }
        if let Err(f) = session.push(att) {
            failed.push((i, f));
        }
    }
    session.finish();
    failed.append(&mut session.failed);
    report.merge(&session.report);
    let pool = session.pool;
    sim.free(pool, "pre-allocated pool");
    // Synchronize so the pass's completion is visible on `sim.now()`.
    sim.finish();
    Ok(failed)
}

/// A chunk's output, still on the device until its two portions have
/// been copied back.
struct PendingOutput {
    stream: Stream,
    chunk_id: usize,
    /// Push index of the chunk.
    index: usize,
    first_bytes: u64,
    second_bytes: u64,
    first_issued: bool,
}

/// One device operation issued with retries.
#[derive(Clone, Copy)]
enum DeviceOp {
    Kernel(KernelKind),
    Copy(CopyDir, u64),
}

/// The Figure 6 schedule over a pre-allocated pool, fed one chunk at a
/// time. Pushing the same chunks in the same order reproduces the same
/// enqueue sequence whichever caller pushes them (see module docs).
pub(crate) struct PipelineSession<'s> {
    sim: &'s mut GpuSim,
    policy: RecoveryPolicy,
    report: RecoveryReport,
    mem: HostMem,
    split_fraction: f64,
    streams: Vec<Stream>,
    /// The pre-allocated pool (the recovering pass releases it).
    pool: DeviceAlloc,
    a_slot_bytes: u64,
    /// Chunks rotate over the epochs, so admission is checked against
    /// the smallest one (epoch 0 also holds the split remainder).
    epoch_bytes: u64,
    /// Admit and run speculative chunks by their exact footprint and
    /// ignore estimate overflow. The claim auction prices this way:
    /// the executor grows or re-splits such a chunk and runs it, so an
    /// inflated or short estimate must not close the GPU to it.
    exact_sizes: bool,
    /// The A slot plus the largest chunk reservation admitted so far.
    high_water: u64,
    a_resident: Option<usize>,
    prev: Option<PendingOutput>,
    pushed: usize,
    /// Chunks (by push index) whose output transfer failed after their
    /// push had returned.
    failed: Vec<(usize, ChunkFailure)>,
    /// Running max of every enqueued operation's completion time.
    last_done: SimTime,
}

impl<'s> PipelineSession<'s> {
    /// Allocates the device pool (retrying injected `malloc` faults)
    /// and the stream set. `a_slot_bytes` bounds the resident-A slot
    /// (see [`a_slot_bytes`]); it is clamped to the pool, so an
    /// oversized A panel fails its own chunks, not the session.
    /// `exact_sizes` is the auction's pricing rule (see the field).
    pub(crate) fn new(
        sim: &'s mut GpuSim,
        split_fraction: f64,
        pinned: bool,
        depth: usize,
        a_slot_bytes: u64,
        policy: RecoveryPolicy,
        exact_sizes: bool,
    ) -> crate::Result<Self> {
        let mut report = RecoveryReport::default();
        // One up-front allocation covering the whole working set: "a
        // large chunk of memory is pre-allocated on device memory and
        // shared by all dynamic data structures". The request is
        // recomputed each attempt so a capacity shrink landing on this
        // very malloc is absorbed rather than fatal.
        let mut attempt = 0u32;
        let (pool, pool_bytes) = loop {
            let want = sim.memory().free_bytes();
            match sim.malloc(want, "pre-allocated pool") {
                Ok(h) => break (h, want),
                Err(e) => {
                    report.alloc_faults += 1;
                    if attempt >= policy.max_retries {
                        return Err(crate::OocError::DeviceMemory(e));
                    }
                    attempt += 1;
                    backoff(sim, &mut report, attempt, "pre-allocated pool");
                }
            }
        };
        let a_slot_bytes = a_slot_bytes.min(pool_bytes);
        let epoch_bytes = *epoch_sizes(pool_bytes, a_slot_bytes, depth)
            .last()
            .expect("depth >= 1");
        let streams: Vec<Stream> = (0..depth).map(|_| sim.create_stream()).collect();
        Ok(PipelineSession {
            sim,
            policy,
            report,
            mem: if pinned {
                HostMem::Pinned
            } else {
                HostMem::Pageable
            },
            split_fraction,
            streams,
            pool,
            a_slot_bytes,
            epoch_bytes,
            exact_sizes,
            high_water: 0,
            a_resident: None,
            prev: None,
            pushed: 0,
            failed: Vec::new(),
            last_done: 0,
        })
    }

    /// Simulated time at which the pipeline would finish if no more
    /// chunks were pushed: the last enqueued operation's completion
    /// plus the drain of the still-pending previous output. This is
    /// the GPU worker's "clock" in the work-stealing claim loop.
    pub(crate) fn projected_finish(&self) -> SimTime {
        let pinned = self.mem == HostMem::Pinned;
        let copy = |bytes| self.sim.cost().copy_duration(bytes, true, pinned);
        let pending = self.prev.as_ref().map_or(0, |p| {
            let first = if p.first_issued {
                0
            } else {
                copy(p.first_bytes)
            };
            first + copy(p.second_bytes)
        });
        self.last_done + pending
    }

    /// Feeds one chunk through the Figure 6 schedule. An `Err` means
    /// the chunk did not complete: it did not fit the pool geometry
    /// (nothing was enqueued), a stage ran out of retries, or a
    /// speculative chunk overflowed its estimate. The session stays
    /// usable either way.
    pub(crate) fn push(&mut self, att: &ChunkAttempt<'_>) -> Result<(), ChunkFailure> {
        let chunk = att.chunk;
        let index = self.pushed;
        self.pushed += 1;
        let stream = self.streams[index % self.streams.len()];
        let id = chunk.chunk_id;

        // Hard capacity check against the pool geometry. Speculative
        // chunks reserve their *estimated* output and no symbolic
        // row-nnz array (that phase is skipped entirely) — unless the
        // session prices for the auction (see `exact_sizes`).
        let a_need = align256(chunk.a_bytes);
        let (row_nnz, out) = match &chunk.spec {
            Some(spec) if !self.exact_sizes => (0, spec.est_out_bytes),
            _ => (chunk.row_nnz_bytes, chunk.out_bytes),
        };
        let need = align256(chunk.b_bytes)
            + align256(chunk.row_info_bytes)
            + align256(row_nnz)
            + align256(out);
        if a_need > self.a_slot_bytes || need > self.epoch_bytes {
            let free = self.epoch_bytes;
            self.sim.note_recovery(format!(
                "skip chunk {id}: needs {need} + {a_need} A bytes, epoch holds {free}"
            ));
            return Err(ChunkFailure::Oom(OutOfDeviceMemory {
                requested: need.max(a_need),
                free,
                capacity: self.sim.memory().capacity(),
            }));
        }
        // Transient pool-reservation faults: retry, then give the
        // chunk up to demotion.
        let what = || format!("pool reserve (chunk {id})");
        let mut attempt = 0u32;
        while self.sim.check_pool_reserve(need, what()).is_err() {
            self.report.pool_faults += 1;
            if attempt >= self.policy.max_retries {
                return Err(ChunkFailure::Faults);
            }
            attempt += 1;
            backoff(self.sim, &mut self.report, attempt, &what());
        }
        self.high_water = self.high_water.max(self.a_slot_bytes + need);

        self.schedule(att, stream)?;
        let (first_bytes, second_bytes) = chunk.split_output_bytes(self.split_fraction);
        self.prev = Some(PendingOutput {
            stream,
            chunk_id: id,
            index,
            first_bytes,
            second_bytes,
            first_issued: false,
        });
        Ok(())
    }

    /// Issues one admitted chunk's stages on `s`.
    fn schedule(&mut self, att: &ChunkAttempt<'_>, s: Stream) -> Result<(), ChunkFailure> {
        let chunk = att.chunk;
        let id = chunk.chunk_id;
        let cr = chunk.compression_ratio;

        // Input panels. A faulted A copy leaves nothing resident.
        if self.a_resident != Some(att.row) {
            self.a_resident = None;
            let op = DeviceOp::Copy(CopyDir::H2D, chunk.a_bytes);
            self.issue(s, op, format!("H2D A (chunk {id})"))?;
            self.a_resident = Some(att.row);
        }
        let op = DeviceOp::Copy(CopyDir::H2D, chunk.b_bytes);
        self.issue(s, op, format!("H2D B (chunk {id})"))?;

        // Stage 1: row analysis; its D2H result goes ahead of the
        // previous chunk's bulk output (Figure 6 transfer order).
        let op = DeviceOp::Kernel(KernelKind::RowAnalysis { ops: chunk.a_nnz });
        self.issue(s, op, format!("row analysis (chunk {id})"))?;
        let op = DeviceOp::Copy(CopyDir::D2H, chunk.row_info_bytes);
        self.issue(s, op, format!("D2H row info (chunk {id})"))?;
        let row_info_done = self.sim.record_event(s);

        // Previous chunk, first portion: overlaps this chunk's
        // symbolic phase.
        self.flush_first();

        // Host grouping needs the row-analysis results — "we give up
        // concurrency opportunities during the row analysis stage".
        self.sim.event_synchronize(row_info_done);
        self.host(
            chunk.rows as u64 * GROUPING_NS_PER_ROW,
            format!("host grouping (chunk {id})"),
        );

        let (numeric_flops, suffix) = match &chunk.spec {
            // Speculative schedule: the output buffer was sized from
            // the estimation model at planning time, so the symbolic
            // kernels, the row-nnz D2H, and the host prefix sum all
            // disappear — numeric kernels launch straight after
            // grouping, into the estimated allocation.
            Some(spec) => {
                self.flush_rest();
                (&spec.est_group_flops, ", speculative")
            }
            None => {
                // Stage 2: symbolic kernels per row group.
                for (g, &flops) in chunk.groups.group_flops.iter().enumerate() {
                    let kind = KernelKind::Symbolic {
                        flops,
                        compression_ratio: cr,
                    };
                    self.issue(
                        s,
                        DeviceOp::Kernel(kind),
                        format!("symbolic g{g} (chunk {id})"),
                    )?;
                }
                let op = DeviceOp::Copy(CopyDir::D2H, chunk.row_nnz_bytes);
                self.issue(s, op, format!("D2H row nnz (chunk {id})"))?;
                let row_nnz_done = self.sim.record_event(s);

                // Previous chunk, second portion: overlaps this chunk's
                // numeric phase.
                self.flush_rest();

                // Host sizes the output from the symbolic results; the
                // space is already reserved in the pool — no device
                // barrier.
                self.sim.event_synchronize(row_nnz_done);
                self.host(
                    chunk.rows as u64 * PREFIX_NS_PER_ROW,
                    format!("host prefix sum (chunk {id})"),
                );
                (&chunk.numeric_groups.group_flops, "")
            }
        };

        // Stage 3: numeric kernels per output-size row group.
        for (g, &flops) in numeric_flops.iter().enumerate() {
            let kind = KernelKind::Numeric {
                flops,
                compression_ratio: cr,
            };
            self.issue(
                s,
                DeviceOp::Kernel(kind),
                format!("numeric g{g} (chunk {id}{suffix})"),
            )?;
        }
        // The kernels' bounds check fires only now — the work above is
        // charged (and lost) exactly as on real hardware, where
        // overflow is detected in flight.
        let overflowed = chunk
            .spec
            .as_ref()
            .filter(|s| s.overflowed(chunk.out_bytes));
        if let Some(spec) = overflowed.filter(|_| !self.exact_sizes) {
            self.report.estimate_overflows += 1;
            self.sim.note_recovery(format!(
                "estimate overflow chunk {id}: allocated {} bytes, needs {}",
                spec.est_out_bytes, chunk.out_bytes
            ));
            return Err(ChunkFailure::EstimateOverflow {
                needed: chunk.out_bytes,
            });
        }
        Ok(())
    }

    /// Issues the previous chunk's first output portion if it is still
    /// pending. If the transfer fails for good, that chunk fails.
    fn flush_first(&mut self) {
        let Some(mut p) = self.prev.take() else {
            return;
        };
        if !p.first_issued {
            let op = DeviceOp::Copy(CopyDir::D2H, p.first_bytes);
            let label = format!("D2H output 1/2 (chunk {})", p.chunk_id);
            if let Err(f) = self.issue(p.stream, op, label) {
                self.failed.push((p.index, f));
                return;
            }
            p.first_issued = true;
        }
        self.prev = Some(p);
    }

    /// Issues whatever is left of the previous chunk's output (both
    /// portions, if the first never made it out). If a transfer fails
    /// for good, that chunk fails.
    fn flush_rest(&mut self) {
        self.flush_first();
        if let Some(p) = self.prev.take() {
            let op = DeviceOp::Copy(CopyDir::D2H, p.second_bytes);
            let label = format!("D2H output 2/2 (chunk {})", p.chunk_id);
            if let Err(f) = self.issue(p.stream, op, label) {
                self.failed.push((p.index, f));
            }
        }
    }

    /// Charges host-side work to the host clock.
    fn host(&mut self, ns: SimTime, label: String) {
        self.sim.host_compute(ns, label);
        self.last_done = self.last_done.max(self.sim.now());
    }

    /// Issues `op` on `stream`, retrying injected faults up to
    /// `policy.max_retries` times with deterministic simulated
    /// backoff. `Err` means the retry budget is exhausted.
    fn issue(
        &mut self,
        stream: Stream,
        op: DeviceOp,
        mut label: String,
    ) -> Result<(), ChunkFailure> {
        let mut attempt = 0u32;
        loop {
            // A fault hands the label back, so a clean run formats each
            // label once.
            let tried = match op {
                DeviceOp::Kernel(kind) => self.sim.try_enqueue_kernel(stream, kind, label),
                DeviceOp::Copy(dir, bytes) => self
                    .sim
                    .try_enqueue_copy(stream, dir, bytes, self.mem, label),
            };
            let fault = match tried {
                Ok(done) => {
                    self.last_done = self.last_done.max(done);
                    return Ok(());
                }
                Err(fault) => fault,
            };
            label = fault.label;
            let what = match op {
                DeviceOp::Kernel(_) => {
                    self.report.kernel_faults += 1;
                    "kernel"
                }
                DeviceOp::Copy(..) => {
                    self.report.copy_faults += 1;
                    "copy"
                }
            };
            self.report.time_lost_ns += fault.lost_ns;
            if attempt >= self.policy.max_retries {
                self.sim.note_recovery(format!(
                    "abandon after {} {what} faults: {label}",
                    attempt + 1
                ));
                return Err(ChunkFailure::Faults);
            }
            attempt += 1;
            backoff(self.sim, &mut self.report, attempt, &label);
        }
    }

    /// Drains the last chunk's output and records the pool high-water
    /// mark.
    fn finish(&mut self) {
        self.flush_rest();
        self.sim.note_pool_high_water(self.high_water);
    }
}

/// Charges the simulated backoff before retry `attempt` of `what`.
fn backoff(sim: &mut GpuSim, report: &mut RecoveryReport, attempt: u32, what: &str) {
    let wait = backoff_ns(sim.cost(), attempt);
    report.retries += 1;
    report.backoff_ns += wait;
    report.time_lost_ns += wait;
    sim.note_recovery(format!("retry {attempt}: {what}"));
    sim.host_compute(wait, format!("backoff {attempt}: {what}"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{CostModel, DeviceProps, OpKind};
    use gpu_spgemm::phases::prepare_chunk;
    use gpu_spgemm::ChunkJob;
    use sparse::gen::erdos_renyi;
    use sparse::CsrView;

    /// `n_chunks` prepared chunks: all of A against column panels of B.
    fn prepared_fixture(n_chunks: usize) -> Vec<PreparedChunk> {
        let a = erdos_renyi(1200, 1200, 0.02, 1);
        let b = erdos_renyi(1200, 1200, 0.02, 2);
        let ranges = sparse::partition::col::even_col_ranges(&b, n_chunks);
        let panels = sparse::partition::col::ColPartitioner::Cursor.partition(&b, &ranges);
        panels
            .iter()
            .enumerate()
            .map(|(i, p)| {
                prepare_chunk(ChunkJob {
                    a_panel: CsrView::of(&a),
                    b_panel: &p.matrix,
                    chunk_id: i,
                })
            })
            .collect()
    }

    fn new_sim() -> GpuSim {
        GpuSim::new(DeviceProps::v100_scaled(96 << 20), CostModel::calibrated())
    }

    #[test]
    fn pipeline_overlaps_transfers_with_compute() {
        let prepared = prepared_fixture(4);
        let refs: Vec<&_> = prepared.iter().collect();
        let flags: Vec<bool> = (0..refs.len()).map(|i| i == 0).collect();

        let mut sim = new_sim();
        let async_time = simulate_pipeline_depth(&mut sim, &refs, &flags, 0.33, true, 2).unwrap();
        sim.timeline().validate().unwrap();

        // Serial lower bound: sum of all busy times must exceed the
        // makespan if any overlap happened.
        let t = sim.timeline();
        let busy: u64 = t.busy_time(OpKind::Kernel)
            + t.busy_time(OpKind::CopyD2H)
            + t.busy_time(OpKind::CopyH2D);
        assert!(
            async_time < busy,
            "no overlap: makespan {async_time} >= total busy {busy}"
        );
        // The D2H engine must carry the full output volume (split in 2).
        let out_total: u64 = prepared.iter().map(|p| p.out_bytes).sum();
        let d2h_bytes: u64 = t.of_kind(OpKind::CopyD2H).map(|r| r.payload).sum();
        let row_info: u64 = prepared
            .iter()
            .map(|p| p.row_info_bytes + p.row_nnz_bytes)
            .sum();
        assert_eq!(d2h_bytes, out_total + row_info);
    }

    #[test]
    fn pipeline_has_no_alloc_barriers_after_setup() {
        let prepared = prepared_fixture(3);
        let refs: Vec<&_> = prepared.iter().collect();
        let flags = vec![true, false, false];
        let mut sim = new_sim();
        simulate_pipeline_depth(&mut sim, &refs, &flags, 0.33, true, 2).unwrap();
        let barriers = sim.timeline().of_kind(OpKind::AllocBarrier).count();
        assert_eq!(barriers, 1, "only the up-front pool allocation may exist");
    }

    #[test]
    fn deeper_pipelines_are_valid_and_complete() {
        let prepared = prepared_fixture(6);
        let refs: Vec<&_> = prepared.iter().collect();
        let flags: Vec<bool> = (0..refs.len()).map(|i| i == 0).collect();
        let mut times = Vec::new();
        for depth in [2usize, 3, 4] {
            let mut sim = new_sim();
            let t = simulate_pipeline_depth(&mut sim, &refs, &flags, 0.33, true, depth).unwrap();
            sim.timeline().validate().unwrap();
            // All output bytes still cross the D2H engine exactly once.
            let d2h: u64 = sim
                .timeline()
                .of_kind(OpKind::CopyD2H)
                .map(|r| r.payload)
                .sum();
            let expect: u64 = prepared
                .iter()
                .map(|p| p.out_bytes + p.row_info_bytes + p.row_nnz_bytes)
                .sum();
            assert_eq!(d2h, expect, "depth {depth} lost transfers");
            times.push(t);
        }
        // Depth changes scheduling but not the total transferred work;
        // times must stay within a tight band of each other.
        let min = *times.iter().min().unwrap() as f64;
        let max = *times.iter().max().unwrap() as f64;
        assert!(max / min < 1.25, "depth instability: {times:?}");
    }

    #[test]
    fn empty_chunk_list_is_noop() {
        let mut sim = new_sim();
        let t = simulate_pipeline_depth(&mut sim, &[], &[], 0.33, true, 2).unwrap();
        assert_eq!(t, 0);
    }

    #[test]
    fn shallow_depth_is_a_config_error_not_a_panic() {
        let mut sim = new_sim();
        let err = simulate_pipeline_depth(&mut sim, &[], &[], 0.33, true, 1).unwrap_err();
        match err {
            crate::OocError::Config(msg) => assert!(msg.contains("depth"), "{msg}"),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_transfer_flags_are_a_config_error() {
        let prepared = prepared_fixture(2);
        let refs: Vec<&_> = prepared.iter().collect();
        let mut sim = new_sim();
        let err = simulate_pipeline_depth(&mut sim, &refs, &[true], 0.33, true, 2).unwrap_err();
        match err {
            crate::OocError::Config(msg) => assert!(msg.contains("transfer flag"), "{msg}"),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_split_fraction_is_a_config_error() {
        let mut sim = new_sim();
        for bad in [-0.1, 1.5, f64::NAN] {
            let err = simulate_pipeline_depth(&mut sim, &[], &[], bad, true, 2).unwrap_err();
            assert!(matches!(err, crate::OocError::Config(_)), "{bad}: {err:?}");
        }
    }

    #[test]
    fn epoch_split_loses_no_pool_capacity() {
        // The division remainder (up to depth-1 bytes) goes to epoch 0.
        for (pool, a_slot, depth) in [
            (1_000_003u64, 256u64, 2usize),
            (96 << 20, 0, 3),
            (7_777_777, 4_096, 4),
            (512, 512, 2),
        ] {
            let sizes = epoch_sizes(pool, a_slot, depth);
            assert_eq!(sizes.len(), depth);
            assert_eq!(
                sizes.iter().sum::<u64>() + a_slot,
                pool,
                "capacity lost for pool {pool} a_slot {a_slot} depth {depth}"
            );
            assert!(sizes[0] >= sizes[depth - 1]);
            assert!(sizes[1..].iter().all(|&s| s == sizes[1]));
        }
    }

    #[test]
    fn pipeline_reports_pool_high_water() {
        let prepared = prepared_fixture(3);
        let refs: Vec<&_> = prepared.iter().collect();
        let flags: Vec<bool> = (0..refs.len()).map(|i| i == 0).collect();
        let mut sim = new_sim();
        simulate_pipeline_depth(&mut sim, &refs, &flags, 0.33, true, 2).unwrap();
        let hw = sim.pool_high_water();
        assert!(hw > 0, "pipeline must report pool usage");
        assert!(
            hw <= sim.memory().capacity(),
            "pool high-water {hw} exceeds device capacity"
        );
    }

    #[test]
    fn pool_exhaustion_is_reported() {
        let prepared = prepared_fixture(2);
        let refs: Vec<&_> = prepared.iter().collect();
        let mut sim = GpuSim::new(DeviceProps::v100_scaled(1 << 16), CostModel::calibrated());
        let err = simulate_pipeline_depth(&mut sim, &refs, &[true, false], 0.33, true, 2);
        assert!(err.is_err());
    }
}
