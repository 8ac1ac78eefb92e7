//! Dynamic work-stealing chunk scheduler for the hybrid executor.
//!
//! The paper's Algorithm 4 splits the flop-descending chunk list once
//! (the 65 % prefix to the GPU) and never revisits the decision; when
//! the ratio mispredicts, one side finishes early and idles while the
//! other grinds on. This module replaces the one-shot split with a
//! shared two-ended queue over the same ordered list: the GPU worker
//! claims chunks from the dense head while the CPU worker steals from
//! the sparse tail, and the run ends when the queue drains.
//!
//! The claim loop is a *deterministic simulation-time auction*, not a
//! wall-clock race. Each side keeps a clock: the GPU's is the
//! projected completion of its claimed prefix, pushed through the
//! executor's own `PipelineSession` (pricing speculative chunks by
//! their exact footprint) on a clean scratch simulator, in the same
//! row-grouped order the executor will actually run; the
//! CPU's is the calibrated cost-model sum of its stolen chunks. Each
//! step compares the two candidate moves — GPU claims the head, CPU
//! steals the tail — and takes whichever keeps the projected makespan
//! smaller (ties to the GPU, which claims denser work). Two properties
//! fall out of this construction:
//!
//! * **Determinism under faults.** The scratch model never sees the
//!   fault plan, so the same inputs produce the same claims — and the
//!   same steal counts — whether or not faults are injected into the
//!   real execution. Output `C` is bit-identical regardless, because
//!   every numeric result is computed host-side during preparation.
//! * **Prefix/suffix structure.** The GPU always ends up with a prefix
//!   of the ordered list and the CPU with the complementary suffix —
//!   the same shape the static split and the Table III exhaustive
//!   search produce — so static vs dynamic is an apples-to-apples
//!   comparison and the GPU half still row-groups cleanly for A-panel
//!   residency.
//!
//! The configured flop ratio only seeds the GPU's initial prefetch
//! (`min(static prefix, pipeline depth)` chunks claimed before the
//! auction starts), with the endpoints as hard pins: `0.0` disables
//! GPU claiming entirely, `1.0` disables CPU stealing.

use crate::chunks::{ChunkGrid, ChunkInfo};
use crate::config::{HybridConfig, SchedulerKind};
use crate::executor::PreparedGrid;
use crate::pipeline::{a_slot_bytes, ChunkAttempt, PipelineSession};
use gpu_sim::{GpuSim, SimTime};

/// The outcome of distributing an ordered chunk list: the GPU's prefix
/// and the CPU's suffix (both in the original order), plus the claim
/// accounting for [`crate::metrics::SchedulerStats`].
pub(crate) struct Assignment {
    /// Chunks the GPU claimed — a prefix of the input order.
    pub gpu: Vec<ChunkInfo>,
    /// Chunks the CPU took — the complementary suffix.
    pub cpu: Vec<ChunkInfo>,
    /// Chunks the GPU claimed from the head.
    pub gpu_claims: u64,
    /// Chunks the CPU stole from the tail.
    pub cpu_steals: u64,
}

/// Distributes `order` between GPU and CPU according to the configured
/// scheduler. The static path is the one-shot Algorithm 4 split; the
/// work-stealing path runs the claim auction described in the module
/// docs.
pub(crate) fn assign(config: &HybridConfig, pg: &PreparedGrid, order: &[ChunkInfo]) -> Assignment {
    match config.scheduler {
        SchedulerKind::Static => {
            let (gpu, cpu) = ChunkGrid::split_by_ratio(order, config.gpu_ratio);
            Assignment {
                gpu_claims: gpu.len() as u64,
                cpu_steals: cpu.len() as u64,
                gpu,
                cpu,
            }
        }
        SchedulerKind::WorkStealing => work_stealing(config, pg, order),
    }
}

/// Builds an all-CPU assignment (the GPU claimed nothing).
fn all_cpu(order: &[ChunkInfo]) -> Assignment {
    Assignment {
        gpu: Vec::new(),
        cpu: order.to_vec(),
        gpu_claims: 0,
        cpu_steals: order.len() as u64,
    }
}

fn work_stealing(config: &HybridConfig, pg: &PreparedGrid, order: &[ChunkInfo]) -> Assignment {
    let n = order.len();
    if n == 0 {
        return all_cpu(order);
    }
    // Endpoint pins: the ratio hint degenerates to a hard assignment.
    if config.gpu_ratio <= 0.0 {
        return all_cpu(order);
    }
    if config.gpu_ratio >= 1.0 {
        return Assignment {
            gpu: order.to_vec(),
            cpu: Vec::new(),
            gpu_claims: n as u64,
            cpu_steals: 0,
        };
    }

    let cfg = &config.gpu;
    // Conservative A-slot covering any claimable prefix.
    let a_slot = a_slot_bytes(order.iter().map(|info| &pg.chunk(info.id).desc));

    // Projected completion of a claimed prefix, simulated in the same
    // row-grouped order the executor will actually run it in — claim
    // order interleaves rows, and pricing an A-panel transfer per push
    // would systematically overestimate the GPU and starve it. The
    // scratch simulator is clean — never the faulted one — so claim
    // decisions (and steal counts) are identical under any fault plan.
    let projected = |prefix: &[ChunkInfo]| -> Option<SimTime> {
        let mut scratch = GpuSim::new(cfg.device.clone(), cfg.cost.clone());
        let mut session = PipelineSession::new(&mut scratch, cfg, a_slot, true).ok()?;
        for info in ChunkGrid::grouped_desc(prefix) {
            session
                .push(&ChunkAttempt::whole(pg.chunk(info.id), info.id.row))
                .ok()?;
        }
        Some(session.projected_finish())
    };

    // Initial prefetch: the static ratio seeds the pipeline with up to
    // `pipeline_depth` head chunks so the GPU is not starved while the
    // first claim decisions resolve.
    let static_g = ChunkGrid::split_by_ratio(order, config.gpu_ratio).0.len();
    let prefetch = static_g.min(cfg.pipeline_depth).min(n);

    let mut head = 0usize;
    let mut tail = n;
    let mut gpu_clock: SimTime = 0;
    let mut cpu_clock: SimTime = 0;
    let mut gpu_claims = 0u64;
    let mut cpu_steals = 0u64;
    let mut gpu_open = true;

    while head < tail {
        // Candidate moves: the GPU claims the dense head, or the CPU
        // steals the sparse tail. Each step takes whichever move keeps
        // the projected makespan smaller — comparing raw clocks instead
        // would let the momentarily-free side grab a chunk the other
        // side finishes sooner, which on coarse grids costs real time.
        let gpu_if_claim = if gpu_open {
            projected(&order[..head + 1])
        } else {
            None
        };
        let cpu_steal_clock = {
            let chunk = &pg.chunk(order[tail - 1].id).desc;
            cpu_clock + cfg.cost.cpu_chunk_duration(chunk.flops, chunk.nnz)
        };
        let gpu_turn = match gpu_if_claim {
            Some(t) => head < prefetch || t.max(cpu_clock) <= gpu_clock.max(cpu_steal_clock),
            // The model's pool cannot hold this prefix (or cannot even
            // host one A panel): stop claiming and let the CPU drain
            // the rest. (The real execution re-splits oversized chunks
            // under a fault plan; the planning model stays
            // conservative.)
            None => {
                gpu_open = false;
                false
            }
        };
        if gpu_turn {
            head += 1;
            gpu_claims += 1;
            gpu_clock = gpu_if_claim.expect("claim move was evaluated");
        } else {
            tail -= 1;
            cpu_steals += 1;
            cpu_clock = cpu_steal_clock;
        }
    }

    Assignment {
        gpu: order[..head].to_vec(),
        cpu: order[head..].to_vec(),
        gpu_claims,
        cpu_steals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OocConfig;
    use crate::executor::prepare_grid;
    use sparse::gen::erdos_renyi;

    fn fixture() -> sparse::CsrMatrix {
        erdos_renyi(600, 600, 0.03, 7)
    }

    fn config() -> HybridConfig {
        HybridConfig {
            gpu: OocConfig::with_device_memory(3 << 19).panels(3, 4),
            gpu_ratio: 0.65,
            reorder_assignment: true,
            scheduler: SchedulerKind::WorkStealing,
        }
    }

    #[test]
    fn work_stealing_partitions_into_prefix_and_suffix() {
        let a = fixture();
        let cfg = config();
        let pg = prepare_grid(&a, &a, &cfg.gpu).unwrap();
        let order = pg.grid.sorted_desc();
        let asg = assign(&cfg, &pg, &order);
        assert_eq!(asg.gpu.len() + asg.cpu.len(), order.len());
        assert_eq!(asg.gpu_claims as usize, asg.gpu.len());
        assert_eq!(asg.cpu_steals as usize, asg.cpu.len());
        let mut joined = asg.gpu.clone();
        joined.extend(asg.cpu.iter().copied());
        assert_eq!(joined, order, "GPU prefix + CPU suffix must be the order");
        // The auction must engage both sides on this fixture.
        assert!(asg.gpu_claims > 0, "GPU claimed nothing");
        assert!(asg.cpu_steals > 0, "CPU stole nothing");
    }

    #[test]
    fn endpoint_ratios_pin_the_assignment() {
        let a = fixture();
        let cfg = config().ratio(0.0);
        let pg = prepare_grid(&a, &a, &cfg.gpu).unwrap();
        let order = pg.grid.sorted_desc();
        let asg = assign(&cfg, &pg, &order);
        assert!(asg.gpu.is_empty());
        assert_eq!(asg.cpu.len(), order.len());

        let cfg = config().ratio(1.0);
        let asg = assign(&cfg, &pg, &order);
        assert!(asg.cpu.is_empty());
        assert_eq!(asg.gpu.len(), order.len());
        assert_eq!(asg.cpu_steals, 0);
    }

    #[test]
    fn claims_are_deterministic() {
        let a = fixture();
        let cfg = config();
        let pg = prepare_grid(&a, &a, &cfg.gpu).unwrap();
        let order = pg.grid.sorted_desc();
        let a1 = assign(&cfg, &pg, &order);
        let a2 = assign(&cfg, &pg, &order);
        assert_eq!(a1.gpu, a2.gpu);
        assert_eq!(a1.gpu_claims, a2.gpu_claims);
        assert_eq!(a1.cpu_steals, a2.cpu_steals);
    }

    #[test]
    fn static_assignment_matches_split_by_ratio() {
        let a = fixture();
        let cfg = config().scheduler(SchedulerKind::Static);
        let pg = prepare_grid(&a, &a, &cfg.gpu).unwrap();
        let order = pg.grid.sorted_desc();
        let asg = assign(&cfg, &pg, &order);
        let (gpu, cpu) = ChunkGrid::split_by_ratio(&order, cfg.gpu_ratio);
        assert_eq!(asg.gpu, gpu);
        assert_eq!(asg.cpu, cpu);
    }
}
