//! The out-of-core GPU executor (Algorithm 3 + Section IV).

use crate::assemble::assemble;
use crate::chunks::{ChunkGrid, ChunkId, ChunkInfo};
use crate::config::{ExecMode, OocConfig};
use crate::faults::{self, HostFaultKind, HostFaultState};
use crate::metrics::{
    ChunkMetrics, DegradationCause, DegradationEvent, DemotionCause, EstimatorStats, Metrics,
};
use crate::pipeline::{recovering_pass, ChunkAttempt, ChunkFailure};
use crate::plan::{split_range_by_flops, PanelPlan, Planner};
use crate::recovery::{backoff_ns, RecoveryReport, MAX_RECOVERY_FRACTION, MAX_RESPLIT_DEPTH};
use crate::Result;
use accum::estimate::{EstimateConfig, EstimatorKind};
use gpu_sim::{GpuSim, SimTime, Timeline};
use gpu_spgemm::{phases, ChunkJob, ChunkProduct, PreparedChunk};
use rayon::prelude::*;
use sparse::partition::{ColPanel, ColPartitioner};
use sparse::{CsrMatrix, CsrView};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;

/// All chunks of a plan, prepared (descriptors + real results), in
/// row-major grid order. Shared by the GPU-only and hybrid executors.
pub struct PreparedGrid {
    /// The panel plan the grid was prepared under.
    pub plan: PanelPlan,
    /// Every chunk's flops (`GetFlops`), read off its descriptor, for
    /// ordering decisions.
    pub grid: ChunkGrid,
    /// Row-major; `prepared[r * col_panels + c]`.
    pub prepared: Vec<ChunkProduct>,
    /// The partitioned B panels, retained so recovery can describe
    /// re-split pieces against the same panels.
    pub col_panels: Vec<ColPanel>,
    /// Global per-row flop prefix sums from the planner, retained for
    /// recovery re-splitting.
    pub row_flops_prefix: Vec<u64>,
    /// The run's estimator configuration when the grid was planned
    /// from nnz(C) estimates instead of the exact symbolic pass; `None`
    /// for exact plans. A `Some` here means every prepared chunk
    /// carries a speculative descriptor, sized by a model sampled from
    /// that chunk's own panels, and the executor runs the speculative
    /// schedule. The planner's global model sized the grid only.
    pub estimator: Option<EstimateConfig>,
}

impl PreparedGrid {
    /// The prepared chunk (descriptor and product) at grid position
    /// `id`.
    pub fn chunk(&self, id: ChunkId) -> &ChunkProduct {
        &self.prepared[id.row * self.plan.col_panels() + id.col]
    }

    /// Total flops of the multiplication.
    pub fn total_flops(&self) -> u64 {
        self.grid.total_flops()
    }

    /// Total output nonzeros across all chunks.
    pub fn total_nnz(&self) -> u64 {
        self.prepared.iter().map(|p| p.desc.nnz).sum()
    }

    /// The planner's flop prefix of global rows `rows`, which replaces
    /// row analysis on a single column panel (it holds B's every column).
    fn flops_prefix(&self, rows: &Range<usize>) -> Option<&[u64]> {
        (self.plan.col_panels() == 1).then(|| &self.row_flops_prefix[rows.start..=rows.end])
    }

    /// Prepares chunk `idx` (row-major) of the plan against a shared
    /// scratch pool, with the speculative descriptor attached when the
    /// grid was planned from estimates. [`prepare_grid_pooled`] calls it
    /// for every chunk of the grid in parallel.
    fn prepare_chunk(&self, a: &CsrMatrix, idx: usize, pool: &accum::ScratchPool) -> ChunkProduct {
        let k_c = self.plan.col_panels();
        let range = &self.plan.row_ranges[idx / k_c];
        let job = ChunkJob {
            a_panel: CsrView::rows(a, range.start, range.end),
            b_panel: &self.col_panels[idx % k_c].matrix,
            chunk_id: idx,
        };
        let prefix = self.flops_prefix(range);
        phases::prepare_chunk_with(job, pool, prefix, self.estimator.as_ref())
    }

    /// The output row offsets of global rows `rows` of chunk `parent`:
    /// the matching slice of the parent's product offsets, `rows.len()
    /// + 1` entries, not rebased.
    pub fn piece_offsets(&self, parent: ChunkId, rows: &Range<usize>) -> &[usize] {
        let base = self.plan.row_ranges[parent.row].start;
        &self.chunk(parent).result.row_offsets()[rows.start - base..=rows.end - base]
    }

    /// The descriptor of global rows `rows` of chunk `parent` — a
    /// re-split piece — derived from the parent's product with no
    /// kernel call ([`phases::describe_rows`]). It equals
    /// [`phases::prepare_chunk`] of the piece's own job field by field,
    /// and the piece's product is the matching rows of the parent's, so
    /// splitting never changes C.
    pub fn describe_piece(
        &self,
        a: &CsrMatrix,
        parent: ChunkId,
        rows: Range<usize>,
        chunk_id: usize,
        pool: &accum::ScratchPool,
    ) -> PreparedChunk {
        let job = ChunkJob {
            a_panel: CsrView::rows(a, rows.start, rows.end),
            b_panel: &self.col_panels[parent.col].matrix,
            chunk_id,
        };
        let offsets = self.piece_offsets(parent, &rows);
        phases::describe_rows(job, offsets, pool, self.flops_prefix(&rows), None)
    }

    /// Approximate resident host-heap footprint of the grid, in bytes:
    /// the per-chunk output CSR arrays, the retained B column panels,
    /// the row-group index vectors, and the planner prefix sums. The
    /// service frontend's grid cache charges this number against
    /// `ServiceConfig::grid_cache_bytes`, so it deliberately counts the
    /// arrays that dominate residency (everything `Vec`-shaped) and
    /// ignores fixed-size struct overhead.
    pub fn resident_bytes(&self) -> u64 {
        fn csr_bytes(m: &CsrMatrix) -> u64 {
            // row_offsets: usize per row + 1; col ids: u32; values: f64.
            ((m.n_rows() + 1) * 8 + m.nnz() * 12) as u64
        }
        let chunks: u64 = self
            .prepared
            .iter()
            .map(|p| {
                // Symbolic and numeric row groups each hold one u32 per
                // panel row (plus per-group flop totals, negligible).
                csr_bytes(&p.result) + p.desc.rows as u64 * 8
            })
            .sum();
        let panels: u64 = self.col_panels.iter().map(|cp| csr_bytes(&cp.matrix)).sum();
        let prefix = (self.row_flops_prefix.len() * 8) as u64;
        chunks + panels + prefix
    }
}

/// The planner a run uses and the panel grid it picks: `config.panels`
/// when fixed, otherwise the smallest grid whose working set (the
/// resident A panel plus `config.pipeline_depth` in-flight chunks)
/// fits the device.
///
/// With a non-exact estimator and async mode, the panel plan is sized
/// from the sampled nnz(C) model ([`Planner::estimated`]) — the exact
/// symbolic planning pass is skipped entirely and the model drives
/// speculative execution. Sync mode always plans exactly: its
/// schedule has no overlap to win back, so speculation would only risk
/// overflows.
pub(crate) fn plan_panels<'m>(
    a: &'m CsrMatrix,
    b: &'m CsrMatrix,
    config: &OocConfig,
) -> Result<(Planner<'m>, PanelPlan)> {
    let speculative =
        config.mode == ExecMode::Async && config.estimator.kind != EstimatorKind::Exact;
    let planner = if speculative {
        Planner::estimated(a, b, &config.estimator)?
    } else {
        Planner::new(a, b)?
    }
    .pipeline_depth(config.pipeline_depth);
    let plan = match config.panels {
        Some((r, c)) => planner.fixed(r, c)?,
        None => planner.auto(config.device.device_memory_bytes)?,
    };
    Ok((planner, plan))
}

/// Plans, partitions and prepares every chunk of `C = a · b`.
///
/// Chunk preparation — the host-side hot path — runs in parallel over
/// the whole grid: every chunk is a pure function of its A row panel
/// and B column panel, and the order-preserving collect places chunk
/// `i` at `prepared[i]` (row-major) whatever order the workers finish
/// in. Workers share one [`accum::ScratchPool`], and chunks whose B
/// panel spans all of B reuse the planner's cached flop prefix instead
/// of re-running row analysis. The `prepare_equivalence` suite checks
/// every chunk, field by field, against an oracle built from the
/// sequential reference product.
pub fn prepare_grid(a: &CsrMatrix, b: &CsrMatrix, config: &OocConfig) -> Result<PreparedGrid> {
    prepare_grid_pooled(a, b, config, &accum::ScratchPool::new())
}

/// [`prepare_grid`] against a caller-owned [`accum::ScratchPool`], so a
/// long-lived frontend (the service layer) keeps its workers' scratch
/// warm across requests instead of re-growing it per multiplication.
/// Pooling only changes allocation reuse, never results — the prepared
/// grid is bit-identical to a cold-pool preparation.
pub fn prepare_grid_pooled(
    a: &CsrMatrix,
    b: &CsrMatrix,
    config: &OocConfig,
    pool: &accum::ScratchPool,
) -> Result<PreparedGrid> {
    config.validate()?;
    let (planner, plan) = plan_panels(a, b, config)?;
    let col_panels = ColPartitioner::ParallelPrefixSum.partition(b, &plan.col_ranges);
    // `grid` and `prepared` are filled in below.
    let mut pg = PreparedGrid {
        grid: ChunkGrid::new(&plan, vec![0; plan.num_chunks()]),
        prepared: Vec::new(),
        row_flops_prefix: planner.row_flops_prefix().to_vec(),
        estimator: planner.est_model().map(|_| config.estimator),
        plan,
        col_panels,
    };
    pg.prepared = (0..pg.plan.num_chunks())
        .into_par_iter()
        .map(|i| pg.prepare_chunk(a, i, pool))
        .collect();
    // GetFlops: each chunk's flops are the row analysis its preparation
    // already ran against its own B panel.
    let flops = pg.prepared.iter().map(|p| p.desc.flops).collect();
    pg.grid = ChunkGrid::new(&pg.plan, flops);
    Ok(pg)
}

/// What one simulated device produced for its share of a run.
#[derive(Default)]
pub(crate) struct DeviceRun {
    /// Simulated completion time, ns.
    pub sim_ns: SimTime,
    /// The device timeline.
    pub timeline: Timeline,
    /// What recovery did on this device.
    pub recovery: RecoveryReport,
    /// Device metrics with per-chunk counters and degradations; the
    /// caller attaches estimator and scheduler accounting.
    pub metrics: Metrics,
}

/// Runs `order` on one simulated device, which carries
/// `config.fault_plan` when one is set. A clean, exact sync run is the
/// paper's synchronous baseline: one stream, each chunk's allocations
/// and transfers in turn, A copied once per row panel. Every other run
/// — async, clean or faulted, exact or speculative, and sync under a
/// fault plan, host faults or a budget — takes the self-healing
/// pipeline ([`simulate_order_recovering`]). Either way the run only
/// schedules the grid's chunks, so C is [`assemble_product`] of the
/// grid whatever recovery did.
pub(crate) fn run_on_device(
    a: &CsrMatrix,
    pg: &PreparedGrid,
    order: &[ChunkInfo],
    config: &OocConfig,
) -> Result<DeviceRun> {
    let mut sim = match &config.fault_plan {
        Some(plan) => GpuSim::with_faults(config.device.clone(), config.cost.clone(), plan.clone()),
        None => GpuSim::new(config.device.clone(), config.cost.clone()),
    };
    let sync_baseline = config.mode == ExecMode::Sync
        && config.fault_plan.is_none()
        && config.host_faults.is_none()
        && config.budget.is_none()
        && pg.estimator.is_none();
    if !sync_baseline {
        return simulate_order_recovering(sim, a, pg, order, config);
    }
    let stream = sim.create_stream();
    let mut sim_ns = sim.now();
    for (i, info) in order.iter().enumerate() {
        // The A panel stays resident while consecutive chunks share it.
        let transfer_a = i == 0 || order[i - 1].id.row != info.id.row;
        let chunk = &pg.chunk(info.id).desc;
        sim_ns = gpu_spgemm::simulate_sync_chunk(&mut sim, stream, chunk, transfer_a)?;
    }
    Ok(DeviceRun {
        sim_ns,
        metrics: Metrics::collect(&sim, sim_ns),
        timeline: sim.into_timeline(),
        ..DeviceRun::default()
    })
}

/// The order a single device runs a whole grid in. Sync mode follows
/// Algorithm 3's natural loop; async mode reorders by decreasing flops
/// when configured (Section IV-C), grouped by row panel to keep the A
/// panel resident.
pub(crate) fn execution_order(pg: &PreparedGrid, config: &OocConfig) -> Vec<ChunkInfo> {
    match (config.mode, config.reorder_chunks) {
        (ExecMode::Async, true) => ChunkGrid::grouped_desc(&pg.grid.sorted_desc()),
        _ => pg.grid.natural_order(),
    }
}

/// Assembles C from every chunk's product. Recovery never changes a
/// product — a re-split piece is a row range of its parent's, and
/// growing, stripping speculation or demoting only re-prices a chunk —
/// so this is C for every run on the grid, faulted or not.
pub(crate) fn assemble_product(pg: &PreparedGrid) -> CsrMatrix {
    let chunk_refs: Vec<(ChunkId, &CsrMatrix)> = pg
        .grid
        .natural_order()
        .iter()
        .map(|info| (info.id, &pg.chunk(info.id).result))
        .collect();
    assemble(&pg.plan, &chunk_refs)
}

/// Global rows `rows` of grid chunk `parent`, charged as `chunk`: the
/// grid chunk's own descriptor, or one that recovery derived, grew or
/// stripped. The product of these rows is the matching rows of the
/// parent's.
struct WorkItem<'g> {
    parent: ChunkId,
    rows: Range<usize>,
    depth: u32,
    chunk: Cow<'g, PreparedChunk>,
}

impl WorkItem<'_> {
    /// Re-sizes the item with `remake` if it runs speculatively.
    fn respec(&mut self, remake: impl Fn(&PreparedChunk) -> PreparedChunk) {
        if self.chunk.spec.is_some() {
            self.chunk = Cow::Owned(remake(&self.chunk));
        }
    }
}

/// The state the recovering orchestration threads through its passes,
/// with the per-item actions that change it. Every action re-prices
/// work — it derives, grows or strips descriptors, or moves work to the
/// CPU clock — and none touches a product, so the run's C is the
/// prepared grid's ([`assemble_product`]).
struct Recovery<'r> {
    sim: &'r mut GpuSim,
    a: &'r CsrMatrix,
    pg: &'r PreparedGrid,
    config: &'r OocConfig,
    host: Option<HostFaultState>,
    report: RecoveryReport,
    /// Chunk id of the next re-split piece.
    next_sub_id: usize,
    /// Scratch for describing re-split pieces.
    pool: accum::ScratchPool,
    stats: HashMap<ChunkId, ChunkMetrics>,
}

impl<'r> Recovery<'r> {
    /// The per-chunk counters so far, in `(row, col)` order.
    fn chunk_metrics(&self) -> Vec<ChunkMetrics> {
        let mut chunks: Vec<ChunkMetrics> = self.stats.values().copied().collect();
        chunks.sort_unstable_by_key(|s| (s.row, s.col));
        chunks
    }

    /// Runs `w` on the CPU at its calibrated cost. Demoted chunks run
    /// in the CPU fault domain: transient CPU-kernel faults cost a
    /// recompute plus backoff before the clean pass lands.
    fn demote(&mut self, w: &WorkItem, cause: DemotionCause) {
        self.report.demotions += 1;
        let s = self
            .stats
            .entry(w.parent)
            .or_insert_with(|| ChunkMetrics::new(w.parent));
        s.demotions += 1;
        s.demotion_cause.get_or_insert(cause);
        let p = &w.chunk;
        let cpu_ns = self.config.cost.cpu_chunk_duration(p.flops, p.nnz);
        let chunk = format!("chunk ({},{})", w.parent.row, w.parent.col);
        if let Some(h) = self.host.as_mut() {
            let sim = &mut *self.sim;
            h.cpu_kernel_retries(&self.config.cost, cpu_ns, &mut self.report, |ns| {
                sim.host_compute(ns, format!("CPU retry {chunk}"))
            });
        }
        self.sim
            .host_compute(cpu_ns, format!("CPU fallback {chunk}"));
    }

    /// Splits `w` in two along the planner's row-flop prefix sums and
    /// queues both halves on `next`, each described from the parent's
    /// product ([`PreparedGrid::describe_piece`]): no kernel runs and no
    /// product is copied. Describing a piece allocates host buffers,
    /// which can stall under host-allocation pressure (charged under
    /// `why`).
    fn split(&mut self, w: &WorkItem, why: &str, next: &mut Vec<WorkItem<'r>>) {
        for rows in split_range_by_flops(&self.pg.row_flops_prefix, &w.rows, 2) {
            if rows.is_empty() {
                continue;
            }
            if let Some(h) = self.host.as_mut() {
                while h.roll(HostFaultKind::HostAlloc) {
                    let wait = backoff_ns(self.sim.cost(), 1);
                    self.report.host_alloc_faults += 1;
                    self.report.time_lost_ns += wait;
                    self.sim
                        .host_compute(wait, format!("host-allocation stall ({why})"));
                }
            }
            let (a, id) = (self.a, self.next_sub_id);
            let piece = self
                .pg
                .describe_piece(a, w.parent, rows.clone(), id, &self.pool);
            self.next_sub_id += 1;
            next.push(WorkItem {
                parent: w.parent,
                rows,
                depth: w.depth + 1,
                chunk: Cow::Owned(piece),
            });
        }
    }
}

/// Self-healing pass-based orchestration: the one async device pass,
/// and the sync mode's path under a fault plan, host faults or a budget
/// (it runs the pooled async-style schedule — recovery needs the pool
/// geometry to reason about what fits). Each pass runs the surviving
/// work list through [`recovering_pass`] on one persistent simulator
/// (time accumulates across passes); failed chunks are re-split along
/// the planner's row-flop prefix sums (OOM), grown (estimate overflow)
/// or demoted to the CPU executor (fault budget exhausted, or an
/// oversized chunk at the re-split depth bound), until the list is
/// empty. A clean run is one pass that ends with the pool's `free`.
///
/// When a [`crate::recovery::RunBudget`] is installed the pass loop is
/// supervised: at every pass boundary the budget's degradation rung is
/// recomputed from elapsed simulated time (plus a recovery-spiral
/// guard on `time_lost_ns`), and the remaining work is degraded
/// monotonically — shrink speculation headroom, then force exact
/// planning, then demote everything to the CPU; if even CPU demotion
/// cannot meet the deadline the run fails with
/// [`crate::OocError::DeadlineExceeded`] carrying partial accounting.
/// Sustained capacity pressure (cumulative shrink below 75 % of what
/// the plan assumed) re-plans the remaining grid in one batch instead
/// of walking every chunk down the per-chunk re-split ladder. Estimate
/// overflows never re-plan: a grown chunk knows its exact size, so
/// growing it and retrying is the whole recovery.
fn simulate_order_recovering(
    mut sim: GpuSim,
    a: &CsrMatrix,
    pg: &PreparedGrid,
    order: &[ChunkInfo],
    config: &OocConfig,
) -> Result<DeviceRun> {
    let budget = config.budget;
    let planning_capacity = sim.memory().capacity();
    let mut r = Recovery {
        sim: &mut sim,
        a,
        pg,
        config,
        host: config
            .host_faults
            .as_ref()
            .map(|p| HostFaultState::new(p.derive(faults::streams::EXECUTOR))),
        report: RecoveryReport::default(),
        next_sub_id: pg.plan.num_chunks(),
        pool: accum::ScratchPool::new(),
        stats: HashMap::new(),
    };
    let mut degradations: Vec<DegradationEvent> = Vec::new();
    let mut rung: u8 = 0;
    let mut deadline_hit = false;
    let mut replanned = false;
    let splittable = |w: &WorkItem| w.rows.len() > 1 && w.depth < MAX_RESPLIT_DEPTH;
    let total_chunks = order.len();
    let mut pending: Vec<WorkItem> = order
        .iter()
        .map(|info| WorkItem {
            parent: info.id,
            rows: pg.plan.row_ranges[info.id.row].clone(),
            depth: 0,
            chunk: Cow::Borrowed(&pg.chunk(info.id).desc),
        })
        .collect();

    while !pending.is_empty() {
        // --- Supervision: walk the budget's degradation ladder. The
        // rung is monotonic; a recovery spiral (time lost above the
        // tolerated fraction) escalates one extra rung.
        if let Some(b) = budget {
            let elapsed = r.sim.now();
            let mut target = b.rung_at(elapsed);
            if deadline_hit {
                target = 3;
            }
            if elapsed > 0 && r.report.time_lost_ns as f64 > MAX_RECOVERY_FRACTION * elapsed as f64
            {
                target = target.max(rung.saturating_add(1)).min(3);
            }
            while rung < target {
                rung += 1;
                let (cause, note) = match rung {
                    // Shrink speculation headroom: re-size pending
                    // speculative chunks to their exact output, so
                    // estimate overflows can no longer occur.
                    1 => {
                        pending
                            .iter_mut()
                            .for_each(|w| w.respec(PreparedChunk::grown));
                        (
                            DegradationCause::HeadroomShrink,
                            "budget rung 1: shrink speculation headroom",
                        )
                    }
                    // Force exact planning: strip speculation from the
                    // remaining chunks (full symbolic schedule).
                    2 => {
                        for w in &mut pending {
                            w.respec(|p| PreparedChunk {
                                spec: None,
                                ..p.clone()
                            });
                        }
                        (
                            DegradationCause::ForcedExact,
                            "budget rung 2: force exact planning",
                        )
                    }
                    _ => continue,
                };
                r.sim.note_recovery(note);
                degradations.push(DegradationEvent {
                    cause,
                    at_ns: elapsed,
                    cost_ns: 0,
                });
            }
            if rung >= 3 {
                // Final rung: demote everything that remains to the CPU
                // at its calibrated (exactly predictable) cost. If even
                // that misses the deadline, fail cleanly with partial
                // accounting instead of burning more simulated time.
                let cpu_total = pending
                    .iter()
                    .map(|w| config.cost.cpu_chunk_duration(w.chunk.flops, w.chunk.nnz))
                    .fold(0, SimTime::saturating_add);
                if elapsed.saturating_add(cpu_total) > b.sim_deadline_ns {
                    let pending_parents: std::collections::HashSet<ChunkId> =
                        pending.iter().map(|w| w.parent).collect();
                    let partial = Metrics {
                        completion_ns: elapsed,
                        chunks: r.chunk_metrics(),
                        degradations,
                        ..Metrics::default()
                    };
                    return Err(crate::OocError::DeadlineExceeded {
                        deadline_ns: b.sim_deadline_ns,
                        elapsed_ns: elapsed,
                        completed_chunks: total_chunks - pending_parents.len(),
                        total_chunks,
                        partial: Box::new(partial),
                    });
                }
                r.sim.note_recovery(format!(
                    "budget rung 3: demote {} remaining work items to CPU",
                    pending.len()
                ));
                degradations.push(DegradationEvent {
                    cause: DegradationCause::DeadlineDemotion,
                    at_ns: elapsed,
                    cost_ns: cpu_total,
                });
                for w in std::mem::take(&mut pending) {
                    r.demote(&w, DemotionCause::Deadline);
                }
                continue;
            }
        }

        for w in &pending {
            r.stats
                .entry(w.parent)
                .or_insert_with(|| ChunkMetrics::new(w.parent))
                .attempts += 1;
        }
        let attempts: Vec<ChunkAttempt<'_>> = pending
            .iter()
            .map(|w| ChunkAttempt {
                chunk: &w.chunk,
                offsets: pg.piece_offsets(w.parent, &w.rows),
                row: w.parent.row,
            })
            .collect();
        let demote_after = budget.map(|b| b.demote_after_ns());
        let failed = recovering_pass(r.sim, &attempts, config, &mut r.report, demote_after)?;
        drop(attempts);
        let failed: HashMap<usize, ChunkFailure> = failed.into_iter().collect();

        let mut next: Vec<WorkItem> = Vec::new();
        for (i, mut w) in std::mem::take(&mut pending).into_iter().enumerate() {
            let (row, col) = (w.parent.row, w.parent.col);
            match failed.get(&i).copied() {
                None => {}
                Some(ChunkFailure::Oom) if splittable(&w) => {
                    r.report.resplits += 1;
                    if let Some(s) = r.stats.get_mut(&w.parent) {
                        s.resplits += 1;
                    }
                    r.sim.note_recovery(format!(
                        "re-split chunk ({row},{col}) rows {}..{}",
                        w.rows.start, w.rows.end
                    ));
                    r.split(&w, "re-split", &mut next);
                }
                Some(ChunkFailure::Deadline) => {
                    // The budget's demotion point passed mid-pass: keep
                    // the item queued; the supervisor demotes everything
                    // at the next pass boundary (or fails with
                    // `DeadlineExceeded` if even CPU demotion is late).
                    deadline_hit = true;
                    next.push(w);
                }
                Some(ChunkFailure::EstimateOverflow { needed }) => {
                    // Grow-and-retry: re-run the same rows with the
                    // speculative allocation grown to the actual output
                    // size. The grown chunk's estimate equals its real
                    // output, so it cannot overflow again; if it no
                    // longer fits the epoch it fails as OOM and takes
                    // the ordinary re-split/demote ladder.
                    r.sim.note_recovery(format!(
                        "grow chunk ({row},{col}) rows {}..{} to {needed} output bytes and retry",
                        w.rows.start, w.rows.end
                    ));
                    w.respec(PreparedChunk::grown);
                    next.push(w);
                }
                Some(f) => {
                    r.sim.note_recovery(format!(
                        "demote chunk ({row},{col}) rows {}..{} to CPU",
                        w.rows.start, w.rows.end
                    ));
                    let cause = match f {
                        ChunkFailure::Oom => DemotionCause::DeviceMemory,
                        _ => DemotionCause::Faults,
                    };
                    r.demote(&w, cause);
                }
            }
        }

        // --- Pressure-driven re-planning: cumulative capacity shrink
        // signals *sustained* pressure; re-split every remaining
        // multi-row item in one batch via the cached planner prefix
        // sums instead of letting each chunk walk the per-chunk
        // re-split ladder alone. It fires at most once.
        let capacity_pressure = r.sim.memory().capacity() * 4 < planning_capacity * 3;
        if capacity_pressure && !replanned && next.iter().any(splittable) {
            replanned = true;
            r.report.replans += 1;
            degradations.push(DegradationEvent {
                cause: DegradationCause::Replan,
                at_ns: r.sim.now(),
                cost_ns: 0,
            });
            r.sim.note_recovery(format!(
                "re-plan {} remaining work items under sustained pressure",
                next.len()
            ));
            for w in std::mem::take(&mut next) {
                if splittable(&w) {
                    r.split(&w, "re-plan", &mut next);
                } else {
                    next.push(w);
                }
            }
        }
        pending = next;
    }

    let sim_ns = r.sim.finish();
    let chunk_stats = r.chunk_metrics();
    let recovery = r.report;
    Ok(DeviceRun {
        sim_ns,
        metrics: Metrics::collect(&sim, sim_ns)
            .with_chunks(chunk_stats)
            .with_degradations(degradations),
        timeline: sim.into_timeline(),
        recovery,
    })
}

/// Estimator accuracy accounting for a run on a speculative grid
/// (`None` for exact grids): the rows the chunk models sampled,
/// per-chunk hit/miss against the estimated allocations, summed
/// estimated vs actual output nonzeros, the applied headroom, and the
/// grow-and-retry count from the recovery report. Shared by every
/// executor that honors the estimator (async, hybrid, multi-GPU).
pub(crate) fn estimator_stats(
    pg: &PreparedGrid,
    recovery: &RecoveryReport,
) -> Option<EstimatorStats> {
    let cfg = pg.estimator.as_ref()?;
    let mut sampled_rows = 0u64;
    let mut est_nnz = 0u64;
    let mut chunk_hits = 0u64;
    let mut chunk_misses = 0u64;
    let mut overflow_rows = 0u64;
    for p in pg.prepared.iter().map(|p| &p.desc) {
        if let Some(spec) = &p.spec {
            sampled_rows += spec.sampled_rows;
            est_nnz += spec.est_nnz;
            overflow_rows += spec.row_overflows;
            if spec.overflowed(p.out_bytes) {
                chunk_misses += 1;
            } else {
                chunk_hits += 1;
            }
        }
    }
    Some(EstimatorStats {
        kind: cfg.kind.name().to_string(),
        sampled_rows,
        est_nnz,
        actual_nnz: pg.total_nnz(),
        chunk_hits,
        chunk_misses,
        overflow_rows,
        retries: recovery.estimate_overflows,
        headroom: cfg.headroom,
    })
}

/// Target over-allocation for an adapted headroom: aim to allocate
/// ~10% above the actual output.
const ADAPT_TARGET_OVER: f64 = 1.10;
/// Never adapt below this headroom — a hair of margin keeps ordinary
/// model jitter from turning every chunk into a grow-and-retry.
const ADAPT_MIN_HEADROOM: f64 = 1.05;

/// Adapts the speculative headroom for the next link of a chained run
/// (`power`, `triple_product`) from the previous link's estimator
/// accuracy. The previous iteration's actual nnz(C) is in hand, so
/// re-estimating with the same fixed headroom wastes allocation:
///
/// * all chunks hit → shrink toward `est/actual ≈ ADAPT_TARGET_OVER`,
///   floored at `ADAPT_MIN_HEADROOM` and capped at the configured base;
/// * any chunk missed → fall back to the configured base headroom.
///
/// Only allocation-sizing inputs (chunk hits/misses, estimated vs
/// actual nnz) feed the adaptation — they are pure grid properties, so
/// faulted and clean chains adapt identically and chained results stay
/// bit-identical under fault injection. The applied value is recorded
/// in [`EstimatorStats::headroom`] per iteration.
pub(crate) fn adapt_headroom(
    base: accum::estimate::EstimateConfig,
    prev: Option<&EstimatorStats>,
) -> accum::estimate::EstimateConfig {
    if base.kind == EstimatorKind::Exact {
        return base;
    }
    let Some(prev) = prev else { return base };
    if prev.chunk_misses > 0 || prev.actual_nnz == 0 {
        return base;
    }
    // est/actual is (model error) x (applied headroom); divide the
    // target through it to land the next allocation near the target.
    let over = prev.est_nnz as f64 / prev.actual_nnz as f64;
    if !(over.is_finite() && over > 0.0) {
        return base;
    }
    let next = (prev.headroom * ADAPT_TARGET_OVER / over)
        .max(ADAPT_MIN_HEADROOM)
        .min(base.headroom);
    accum::estimate::EstimateConfig {
        headroom: next,
        ..base
    }
}

/// The out-of-core GPU SpGEMM executor.
pub struct OutOfCoreGpu {
    config: OocConfig,
}

/// A completed out-of-core run.
#[derive(Debug)]
pub struct OocRun {
    /// The full product matrix.
    pub c: CsrMatrix,
    /// Simulated end-to-end time, ns (includes all output transfers).
    pub sim_ns: SimTime,
    /// Total flops of the multiplication.
    pub flops: u64,
    /// Output nonzeros.
    pub nnz_c: u64,
    /// The device timeline.
    pub timeline: Timeline,
    /// The panel plan used.
    pub plan: PanelPlan,
    /// Chunk execution order.
    pub order: Vec<ChunkId>,
    /// What recovery did (all-zero for a fault-free run).
    pub recovery: RecoveryReport,
    /// Structured run metrics (DESIGN.md §9).
    pub metrics: Metrics,
}

impl OocRun {
    /// GFLOPS over simulated time — the paper's Figure 7 metric ("the
    /// execution times measured for GFLOPS calculation include the time
    /// for transferring all chunks of the output matrix").
    pub fn gflops(&self) -> f64 {
        if self.sim_ns == 0 {
            return 0.0;
        }
        self.flops as f64 / self.sim_ns as f64
    }

    /// Simulated milliseconds.
    pub fn sim_ms(&self) -> f64 {
        self.sim_ns as f64 / 1e6
    }

    /// Fraction of the makespan spent on transfers (Figure 4 metric).
    pub fn transfer_fraction(&self) -> f64 {
        self.timeline.transfer_fraction()
    }
}

impl OutOfCoreGpu {
    /// Creates an executor with the given configuration.
    pub fn new(config: OocConfig) -> Self {
        OutOfCoreGpu { config }
    }

    /// Access to the configuration.
    pub fn config(&self) -> &OocConfig {
        &self.config
    }

    /// Computes `C = a · b` out-of-core.
    pub fn multiply(&self, a: &CsrMatrix, b: &CsrMatrix) -> Result<OocRun> {
        let pg = prepare_grid(a, b, &self.config)?;
        self.multiply_prepared(a, &pg)
    }

    /// Runs the simulation/recovery/assembly epilogue of [`multiply`]
    /// against an already-prepared grid. The grid is borrowed, so a
    /// long-lived frontend can cache one [`PreparedGrid`] per operand
    /// pair and serve many requests from it — the run is bit-identical
    /// to a one-shot [`multiply`] with the same configuration because
    /// preparation is deterministic and the epilogue never mutates the
    /// grid. The caller must have prepared the grid under a
    /// configuration whose planning-relevant fields (panels, estimator,
    /// column partitioner, device geometry) match `self.config()`.
    pub fn multiply_prepared(&self, a: &CsrMatrix, pg: &PreparedGrid) -> Result<OocRun> {
        self.config.validate()?;
        let order = execution_order(pg, &self.config);
        let mut run = run_on_device(a, pg, &order, &self.config)?;
        run.metrics.estimator = estimator_stats(pg, &run.recovery);
        debug_assert!(
            run.timeline.validate().is_ok(),
            "timeline invariants violated"
        );
        let c = assemble_product(pg);
        Ok(OocRun {
            flops: pg.total_flops(),
            nnz_c: pg.total_nnz(),
            sim_ns: run.sim_ns,
            timeline: run.timeline,
            order: order.iter().map(|i| i.id).collect(),
            plan: pg.plan.clone(),
            recovery: run.recovery,
            metrics: run.metrics,
            c,
        })
    }
}

/// A completed chained computation (triple product, matrix power):
/// the final matrix plus the *aggregated* accounting of every
/// constituent multiplication. Earlier versions returned only
/// `(matrix, time)` and silently dropped the per-iteration metrics and
/// recovery reports, so a faulted k-hop run looked clean.
#[derive(Debug)]
pub struct ChainedRun {
    /// The final product matrix.
    pub c: CsrMatrix,
    /// Sum of the simulated times of all constituent multiplications
    /// (the products are data-dependent and cannot overlap).
    pub sim_ns: SimTime,
    /// All constituent recovery reports merged; non-zero counters mean
    /// faults were injected *somewhere* in the chain.
    pub recovery: RecoveryReport,
    /// Per-multiplication metrics, in execution order.
    pub metrics: Vec<Metrics>,
}

impl OutOfCoreGpu {
    /// Galerkin triple product `R · A · P` — the algebraic-multigrid
    /// kernel the paper's introduction motivates ("preconditioners such
    /// as algebraic multigrid"). Two chained out-of-core
    /// multiplications; the returned time is their sum.
    pub fn triple_product(
        &self,
        r: &CsrMatrix,
        a: &CsrMatrix,
        p: &CsrMatrix,
    ) -> Result<ChainedRun> {
        let ra = self.multiply(r, a)?;
        // The first product's estimator accuracy is in hand — adapt
        // the second product's headroom instead of re-applying the
        // fixed configured margin (see `adapt_headroom`).
        let est = adapt_headroom(self.config.estimator, ra.metrics.estimator.as_ref());
        let rap = self.with_estimator(est).multiply(&ra.c, p)?;
        let mut recovery = ra.recovery;
        recovery.merge(&rap.recovery);
        Ok(ChainedRun {
            c: rap.c,
            sim_ns: ra.sim_ns + rap.sim_ns,
            recovery,
            metrics: vec![ra.metrics, rap.metrics],
        })
    }

    /// A clone of this executor with a different estimate
    /// configuration — the chained runs use it to apply per-iteration
    /// adapted headrooms.
    fn with_estimator(&self, est: accum::estimate::EstimateConfig) -> OutOfCoreGpu {
        if est == self.config.estimator {
            return OutOfCoreGpu {
                config: self.config.clone(),
            };
        }
        OutOfCoreGpu {
            config: self.config.clone().estimator(est),
        }
    }

    /// Matrix power `A^k` (`k >= 1`) by repeated out-of-core
    /// multiplication — the expansion step of Markov clustering run
    /// `k - 1` times.
    pub fn power(&self, a: &CsrMatrix, k: u32) -> Result<ChainedRun> {
        if k == 0 {
            return Err(crate::OocError::Config("power requires k >= 1".into()));
        }
        let mut acc = a.clone();
        let mut total: SimTime = 0;
        let mut recovery = RecoveryReport::default();
        let mut metrics = Vec::new();
        let mut est = self.config.estimator;
        for _ in 1..k {
            // Each hop re-estimates with a headroom adapted from the
            // previous hop's observed hit-rate instead of the fixed
            // configured margin (see `adapt_headroom`).
            let run = self.with_estimator(est).multiply(&acc, a)?;
            est = adapt_headroom(self.config.estimator, run.metrics.estimator.as_ref());
            acc = run.c;
            total += run.sim_ns;
            recovery.merge(&run.recovery);
            metrics.push(run.metrics);
        }
        Ok(ChainedRun {
            c: acc,
            sim_ns: total,
            recovery,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_spgemm::reference;
    use sparse::gen::{erdos_renyi, grid2d_stencil};

    #[test]
    fn triple_product_matches_chained_reference() {
        let r = erdos_renyi(40, 80, 0.05, 1);
        let a = erdos_renyi(80, 80, 0.05, 2);
        let p = erdos_renyi(80, 40, 0.05, 3);
        let exec = OutOfCoreGpu::new(OocConfig::with_device_memory(1 << 19));
        let run = exec.triple_product(&r, &a, &p).unwrap();
        assert!(run.sim_ns > 0);
        let expect = reference::multiply(&reference::multiply(&r, &a).unwrap(), &p).unwrap();
        assert!(run.c.approx_eq(&expect, 1e-9));
        assert_eq!(run.metrics.len(), 2, "one metrics record per product");
        assert_eq!(run.recovery, RecoveryReport::default());
    }

    #[test]
    fn power_matches_repeated_reference() {
        let a = erdos_renyi(60, 60, 0.05, 4);
        let exec = OutOfCoreGpu::new(OocConfig::with_device_memory(1 << 19));
        let p1 = exec.power(&a, 1).unwrap();
        assert_eq!(p1.c, a);
        assert_eq!(p1.sim_ns, 0);
        assert!(p1.metrics.is_empty());
        let p3 = exec.power(&a, 3).unwrap();
        assert!(p3.sim_ns > 0);
        assert_eq!(p3.metrics.len(), 2);
        let expect = reference::multiply(&reference::multiply(&a, &a).unwrap(), &a).unwrap();
        assert!(p3.c.approx_eq(&expect, 1e-9));
        assert!(exec.power(&a, 0).is_err());
    }

    #[test]
    fn faulted_power_is_not_reported_clean() {
        // Regression: chained runs used to drop per-iteration recovery
        // reports and metrics, so a faulted k-hop run looked clean.
        let a = erdos_renyi(120, 120, 0.05, 5);
        let plan = gpu_sim::FaultPlan::seeded(42).all_rates(0.25);
        let exec = OutOfCoreGpu::new(OocConfig::with_device_memory(1 << 19).fault_plan(plan));
        let run = exec.power(&a, 3).unwrap();
        let clean = OutOfCoreGpu::new(OocConfig::with_device_memory(1 << 19))
            .power(&a, 3)
            .unwrap();
        assert!(
            run.recovery.kernel_faults
                + run.recovery.copy_faults
                + run.recovery.alloc_faults
                + run.recovery.pool_faults
                > 0,
            "the fault plan must actually fire"
        );
        assert!(run.recovery.retries > 0 || run.recovery.demotions > 0);
        assert_eq!(run.metrics.len(), 2);
        assert!(run.c.approx_eq(&clean.c, 0.0), "faults must not change C");
    }

    fn fixture() -> CsrMatrix {
        erdos_renyi(600, 600, 0.03, 7)
    }

    fn small_config() -> OocConfig {
        // ~1.5 MiB device; the fixture's product is a few MiB, so the
        // run is genuinely out-of-core.
        OocConfig::with_device_memory(3 << 19)
    }

    #[test]
    fn async_result_matches_reference() {
        let a = fixture();
        let run = OutOfCoreGpu::new(small_config()).multiply(&a, &a).unwrap();
        let expect = reference::multiply(&a, &a).unwrap();
        assert!(run.c.approx_eq(&expect, 1e-9));
        assert!(run.plan.num_chunks() > 1, "must be partitioned");
        assert!(run.sim_ns > 0);
        run.timeline.validate().unwrap();
    }

    #[test]
    fn sync_result_matches_reference() {
        let a = fixture();
        let run = OutOfCoreGpu::new(small_config().mode(ExecMode::Sync))
            .multiply(&a, &a)
            .unwrap();
        let expect = reference::multiply(&a, &a).unwrap();
        assert!(run.c.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn async_beats_sync() {
        // The headline claim of Section IV: overlap + pre-allocation
        // beat the synchronous baseline.
        let a = grid2d_stencil(36, 36, 2, 3);
        let cfg = OocConfig::with_device_memory(2 << 20).panels(3, 3);
        let sync = OutOfCoreGpu::new(cfg.clone().mode(ExecMode::Sync))
            .multiply(&a, &a)
            .unwrap();
        let asyn = OutOfCoreGpu::new(cfg.mode(ExecMode::Async))
            .multiply(&a, &a)
            .unwrap();
        assert!(
            asyn.sim_ns < sync.sim_ns,
            "async {} !< sync {}",
            asyn.sim_ns,
            sync.sim_ns
        );
        assert!(
            asyn.c.approx_eq(&sync.c, 1e-9),
            "both modes must agree numerically"
        );
    }

    #[test]
    fn reordering_executes_descending_flops() {
        let a = fixture();
        let run = OutOfCoreGpu::new(small_config().panels(2, 3))
            .multiply(&a, &a)
            .unwrap();
        assert_eq!(run.order.len(), 6);
        // Order must be a permutation of the grid.
        let mut seen = run.order.clone();
        seen.sort_by_key(|id| (id.row, id.col));
        seen.dedup();
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn explicit_panels_are_respected() {
        let a = fixture();
        let run = OutOfCoreGpu::new(OocConfig::with_device_memory(64 << 20).panels(2, 2))
            .multiply(&a, &a)
            .unwrap();
        assert_eq!(run.plan.row_panels(), 2);
        assert_eq!(run.plan.col_panels(), 2);
    }

    #[test]
    fn gflops_is_flops_over_time() {
        let a = fixture();
        let run = OutOfCoreGpu::new(small_config()).multiply(&a, &a).unwrap();
        let expect = run.flops as f64 / run.sim_ns as f64;
        assert!((run.gflops() - expect).abs() < 1e-12);
        assert!(run.transfer_fraction() > 0.0);
    }

    #[test]
    fn rectangular_product_works() {
        let a = erdos_renyi(300, 200, 0.05, 1);
        let b = erdos_renyi(200, 400, 0.05, 2);
        let run = OutOfCoreGpu::new(OocConfig::with_device_memory(1 << 19))
            .multiply(&a, &b)
            .unwrap();
        let expect = reference::multiply(&a, &b).unwrap();
        assert!(run.c.approx_eq(&expect, 1e-9));
        assert_eq!(run.c.n_rows(), 300);
        assert_eq!(run.c.n_cols(), 400);
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let a = CsrMatrix::zeros(10, 20);
        let b = CsrMatrix::zeros(30, 10);
        assert!(OutOfCoreGpu::new(small_config()).multiply(&a, &b).is_err());
    }
}
