//! Synchronous, dynamically-allocating chunk driver — "synchronous
//! (spECK) GPU implementation" (paper Section IV-A).
//!
//! One stream; every data structure is `cudaMalloc`'d when its size
//! becomes known and freed afterwards, exactly as the unmodified spECK
//! would. Each allocation is a device-wide barrier in the simulator, so
//! this driver exhibits the two costs the paper's asynchronous design
//! removes: no transfer/compute overlap, and allocation stalls.

use crate::phases::{prepare_chunk, ChunkJob, ChunkProduct, PreparedChunk};
use gpu_sim::{CopyDir, GpuSim, HostMem, KernelKind, OutOfDeviceMemory, SimTime, Stream};

/// Host-side per-row cost of the grouping pass, ns.
const GROUPING_NS_PER_ROW: u64 = 2;
/// Host-side per-row cost of the allocation prefix sum, ns.
const PREFIX_NS_PER_ROW: u64 = 1;

/// Outcome of one synchronous chunk execution.
#[derive(Debug)]
pub struct SyncChunkReport {
    /// The prepared chunk (descriptor + real result).
    pub prepared: ChunkProduct,
    /// Simulated time at which the chunk (including its output
    /// transfer) completed.
    pub done_at: SimTime,
}

/// Runs one chunk synchronously on `stream`.
///
/// `transfer_a` controls whether the A panel is (re)copied to the
/// device — in the out-of-core loop (Algorithm 3) the row panel stays
/// resident across the inner column loop.
pub fn sync_chunk(
    sim: &mut GpuSim,
    stream: Stream,
    job: ChunkJob<'_>,
    transfer_a: bool,
) -> Result<SyncChunkReport, OutOfDeviceMemory> {
    let prepared = prepare_chunk(job);
    let done_at = simulate_sync_chunk(sim, stream, &prepared.desc, transfer_a)?;
    Ok(SyncChunkReport { prepared, done_at })
}

/// Charges the synchronous-spECK operation sequence for an already
/// prepared chunk. Separated from [`sync_chunk`] so schedulers can
/// re-simulate cached chunks (e.g. the exhaustive GPU-ratio search of
/// Table III) without redoing the real computation.
pub fn simulate_sync_chunk(
    sim: &mut GpuSim,
    stream: Stream,
    prepared: &PreparedChunk,
    transfer_a: bool,
) -> Result<SimTime, OutOfDeviceMemory> {
    let id = prepared.chunk_id;

    // Input panels.
    let a_alloc = if transfer_a {
        let h = sim.malloc(prepared.a_bytes, format!("A panel (chunk {id})"))?;
        sim.enqueue_copy(
            stream,
            CopyDir::H2D,
            prepared.a_bytes,
            HostMem::Pinned,
            format!("H2D A panel (chunk {id})"),
        );
        Some(h)
    } else {
        None
    };
    let b_alloc = sim.malloc(prepared.b_bytes, format!("B panel (chunk {id})"))?;
    sim.enqueue_copy(
        stream,
        CopyDir::H2D,
        prepared.b_bytes,
        HostMem::Pinned,
        format!("H2D B panel (chunk {id})"),
    );

    // Stage 1: row analysis + host grouping.
    let row_info = sim.malloc(prepared.row_info_bytes, format!("row info (chunk {id})"))?;
    sim.enqueue_kernel(
        stream,
        KernelKind::RowAnalysis {
            ops: prepared.a_nnz,
        },
        format!("row analysis (chunk {id})"),
    );
    sim.enqueue_copy(
        stream,
        CopyDir::D2H,
        prepared.row_info_bytes,
        HostMem::Pinned,
        format!("D2H row info (chunk {id})"),
    );
    sim.stream_synchronize(stream);
    sim.host_compute(
        prepared.rows as u64 * GROUPING_NS_PER_ROW,
        format!("host grouping (chunk {id})"),
    );
    // "we need to allocate device memory to store the group information"
    let group_info = sim.malloc(prepared.rows as u64 * 4, format!("group info (chunk {id})"))?;

    // Stage 2: symbolic execution, one kernel per row group.
    for (g, &flops) in prepared.groups.group_flops.iter().enumerate() {
        sim.enqueue_kernel(
            stream,
            KernelKind::Symbolic {
                flops,
                compression_ratio: prepared.compression_ratio,
            },
            format!("symbolic g{g} (chunk {id})"),
        );
    }
    sim.enqueue_copy(
        stream,
        CopyDir::D2H,
        prepared.row_nnz_bytes,
        HostMem::Pinned,
        format!("D2H row nnz (chunk {id})"),
    );
    sim.stream_synchronize(stream);
    sim.host_compute(
        prepared.rows as u64 * PREFIX_NS_PER_ROW,
        format!("host prefix sum (chunk {id})"),
    );
    // Output allocation — only possible after symbolic sizing.
    let out_alloc = sim.malloc(prepared.out_bytes, format!("output (chunk {id})"))?;

    // Stage 3: numeric execution per output-size group, then the full
    // output copy.
    for (g, &flops) in prepared.numeric_groups.group_flops.iter().enumerate() {
        sim.enqueue_kernel(
            stream,
            KernelKind::Numeric {
                flops,
                compression_ratio: prepared.compression_ratio,
            },
            format!("numeric g{g} (chunk {id})"),
        );
    }
    sim.enqueue_copy(
        stream,
        CopyDir::D2H,
        prepared.out_bytes,
        HostMem::Pinned,
        format!("D2H output (chunk {id})"),
    );
    sim.stream_synchronize(stream);

    // spECK frees its per-chunk structures before the next chunk.
    sim.free(out_alloc, format!("output (chunk {id})"));
    sim.free(group_info, format!("group info (chunk {id})"));
    sim.free(row_info, format!("row info (chunk {id})"));
    sim.free(b_alloc, format!("B panel (chunk {id})"));
    if let Some(a) = a_alloc {
        sim.free(a, format!("A panel (chunk {id})"));
    }

    Ok(sim.now())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{CostModel, DeviceProps, OpKind};
    use sparse::gen::erdos_renyi;
    use sparse::CsrView;

    fn fixture() -> (sparse::CsrMatrix, sparse::CsrMatrix) {
        (
            erdos_renyi(2000, 2000, 0.02, 1),
            erdos_renyi(2000, 2000, 0.02, 2),
        )
    }

    fn new_sim() -> GpuSim {
        GpuSim::new(DeviceProps::v100_scaled(64 << 20), CostModel::calibrated())
    }

    #[test]
    fn sync_chunk_produces_real_result_and_valid_timeline() {
        let (a, b) = fixture();
        let mut sim = new_sim();
        let stream = sim.create_stream();
        let report = sync_chunk(
            &mut sim,
            stream,
            ChunkJob {
                a_panel: CsrView::of(&a),
                b_panel: &b,
                chunk_id: 0,
            },
            true,
        )
        .unwrap();
        let expect = cpu_spgemm::reference::multiply(&a, &b).unwrap();
        assert!(report.prepared.result.approx_eq(&expect, 1e-9));
        assert!(report.done_at > 0);
        sim.timeline().validate().unwrap();
        // All phases present.
        let t = sim.timeline();
        assert!(t.of_kind(OpKind::Kernel).count() >= 3);
        assert!(t.of_kind(OpKind::CopyD2H).count() == 3);
        assert!(
            t.of_kind(OpKind::AllocBarrier).count() >= 8,
            "mallocs + frees"
        );
        // Memory fully released.
        assert_eq!(sim.memory().in_use(), 0);
    }

    #[test]
    fn transfers_dominate_sync_time() {
        // Fig 4 regime: for a realistic chunk, D2H output transfer time
        // is the bulk of the makespan.
        let (a, b) = fixture();
        let mut sim = new_sim();
        let stream = sim.create_stream();
        sync_chunk(
            &mut sim,
            stream,
            ChunkJob {
                a_panel: CsrView::of(&a),
                b_panel: &b,
                chunk_id: 0,
            },
            true,
        )
        .unwrap();
        let frac = sim.timeline().transfer_fraction();
        assert!(frac > 0.5, "transfer fraction only {frac}");
    }

    #[test]
    fn chunk_too_big_for_device_is_oom() {
        let (a, b) = fixture();
        let mut sim = GpuSim::new(DeviceProps::v100_scaled(1 << 10), CostModel::calibrated());
        let stream = sim.create_stream();
        let err = sync_chunk(
            &mut sim,
            stream,
            ChunkJob {
                a_panel: CsrView::of(&a),
                b_panel: &b,
                chunk_id: 0,
            },
            true,
        );
        assert!(err.is_err());
    }

    #[test]
    fn skipping_a_transfer_reduces_time_and_memory() {
        let (a, b) = fixture();
        let run = |transfer_a: bool| {
            let mut sim = new_sim();
            let stream = sim.create_stream();
            let r = sync_chunk(
                &mut sim,
                stream,
                ChunkJob {
                    a_panel: CsrView::of(&a),
                    b_panel: &b,
                    chunk_id: 0,
                },
                transfer_a,
            )
            .unwrap();
            (r.done_at, sim.memory().high_water())
        };
        let (t_with, m_with) = run(true);
        let (t_without, m_without) = run(false);
        assert!(t_without < t_with);
        assert!(m_without < m_with);
    }
}
