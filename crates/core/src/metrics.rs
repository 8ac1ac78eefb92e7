//! Structured per-run metrics: the machine-readable observability
//! layer (DESIGN.md §9).
//!
//! A [`Metrics`] value combines three sources:
//!
//! * the simulator timeline aggregation ([`TimelineMetrics`]) — engine
//!   busy/idle, transfer bytes and bandwidth, per-kernel-phase compute
//!   time, overlap efficiency;
//! * device-memory accounting captured from the simulator before it is
//!   consumed (the allocator's high-water mark and the high-water mark
//!   of the pipeline's pre-allocated pool);
//! * host-side counters from the recovering executors — per-chunk
//!   attempt counts, re-splits, and demotion causes ([`ChunkMetrics`]).
//!
//! The figure-facing numbers are **bit-identical** to the ad-hoc
//! derivations they replace: `timeline.transfer_fraction` is computed
//! by [`gpu_sim::Timeline::transfer_fraction`] itself (Fig 4), and
//! `completion_ns` is the exact `sim_ns` the run returns (Fig 8).

use crate::chunks::ChunkId;
use crate::config::SchedulerKind;
use gpu_sim::{GpuSim, SimTime, TimelineMetrics};
use serde::{Deserialize, Serialize};

/// Work-distribution accounting of the hybrid (and multi-GPU)
/// scheduler: how many chunks each side ended up with, how long each
/// worker idled waiting for the slower side, and the flop split the
/// run actually realized (vs the configured ratio hint).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Which scheduler produced the assignment.
    pub kind: SchedulerKind,
    /// Chunks the GPU side claimed from the dense head of the queue
    /// (under the static scheduler: the size of the up-front GPU half).
    pub gpu_claims: u64,
    /// Chunks the CPU stole from the sparse tail of the queue (always
    /// the full CPU half; 0 when everything ran on the GPU).
    pub cpu_steals: u64,
    /// GPU worker idle time at the end of the run, ns: `sim_ns -
    /// gpu_ns` (summed over devices in a multi-GPU run).
    pub gpu_idle_ns: SimTime,
    /// CPU worker idle time at the end of the run, ns: `sim_ns -
    /// cpu_ns`.
    pub cpu_idle_ns: SimTime,
    /// Fraction of total flops the GPU side actually executed.
    pub realized_gpu_ratio: f64,
}

/// Why a chunk left the GPU for the CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum DemotionCause {
    /// The chunk's working set did not fit the device pool and could
    /// not be split further.
    DeviceMemory,
    /// Transient faults exhausted the retry budget.
    Faults,
    /// The run budget's final degradation rung moved the chunk to the
    /// CPU — the only executor whose time is exactly predictable.
    Deadline,
}

/// Why a run degraded below its configured quality of service.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum DegradationCause {
    /// The unified-memory working set exceeded device capacity and the
    /// run paged against the migration engine instead of running
    /// resident.
    UnifiedThrash,
    /// Budget rung 1: pending speculative chunks were re-sized to
    /// their exact output (no headroom, no overflow risk).
    HeadroomShrink,
    /// Budget rung 2: speculation stripped from the remaining chunks —
    /// full exact symbolic schedule.
    ForcedExact,
    /// Budget rung 3: remaining chunks demoted to the CPU at calibrated
    /// cost.
    DeadlineDemotion,
    /// Sustained capacity pressure (device capacity shrunk below 75 %
    /// of what the plan assumed) re-planned the remaining grid in one
    /// batch.
    Replan,
}

/// One supervised degradation: what happened, when (simulated time),
/// and what it cost (extra simulated time attributable to the degraded
/// mode; 0 when the cost cannot be isolated).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationEvent {
    /// Why the run degraded.
    pub cause: DegradationCause,
    /// Simulated time at which the degradation took effect, ns.
    pub at_ns: SimTime,
    /// Extra simulated time attributed to the degradation, ns.
    pub cost_ns: SimTime,
}

/// Host-side recovery counters for one planned chunk (and all the
/// sub-chunks it was re-split into).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkMetrics {
    /// Row-panel index of the planned chunk.
    pub row: usize,
    /// Column-panel index of the planned chunk.
    pub col: usize,
    /// Device attempts made on this chunk or its sub-chunks.
    pub attempts: u64,
    /// Times a piece of this chunk was re-split after an OOM failure.
    pub resplits: u64,
    /// Pieces of this chunk demoted to the CPU.
    pub demotions: u64,
    /// Cause of the first demotion, if any piece was demoted.
    pub demotion_cause: Option<DemotionCause>,
}

impl ChunkMetrics {
    /// A zeroed counter row for the chunk.
    pub fn new(id: ChunkId) -> Self {
        ChunkMetrics {
            row: id.row,
            col: id.col,
            attempts: 0,
            resplits: 0,
            demotions: 0,
            demotion_cause: None,
        }
    }
}

/// Accuracy and recovery accounting of the nnz(C) estimator behind a
/// speculative run: how close the estimate landed, how many chunks
/// fit their estimated allocation on the first try, how many had to be
/// grown and retried, and the headroom the run actually applied
/// (chained runs adapt it per iteration, so it can differ from the
/// configured `--headroom`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EstimatorStats {
    /// Estimator kind name (`row-sample` or `upper-bound`).
    pub kind: String,
    /// Rows sampled by the per-chunk models that sized the speculative
    /// allocations, summed over the grid's chunks.
    pub sampled_rows: u64,
    /// Estimated total output nonzeros, summed over chunk estimates.
    pub est_nnz: u64,
    /// Actual total output nonzeros.
    pub actual_nnz: u64,
    /// Chunks whose actual output fit the estimated allocation.
    pub chunk_hits: u64,
    /// Chunks whose actual output outgrew the estimated allocation.
    pub chunk_misses: u64,
    /// Rows whose individual estimate undershot their actual nnz (the
    /// per-row view of estimator error; a chunk absorbs row misses as
    /// long as its total estimate holds).
    pub overflow_rows: u64,
    /// Grow-and-retry passes the executor ran to recover overflows.
    pub retries: u64,
    /// Safety margin actually multiplied into every row estimate for
    /// this run. Equals the configured headroom for one-shot runs;
    /// chained runs (`power`, `triple_product`) shrink it per
    /// iteration from the previous iteration's observed hit-rate.
    pub headroom: f64,
}

/// Per-tenant aggregates of a service-frontend trace: how much work a
/// tenant submitted, what the admission controller and quota did with
/// it, and what the completed requests cost.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Tenant identifier.
    pub tenant: String,
    /// Requests the tenant submitted.
    pub submitted: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests shed by the admission controller (queue full or
    /// device-pool pressure).
    pub shed: u64,
    /// Requests that had to wait for the tenant's flop token bucket to
    /// refill before dispatch. Batch members admitted by the operand
    /// batcher count here too, when the bucket state at their arrival
    /// instant could not have covered their share and only the refill
    /// accrued while they queued let them join.
    pub quota_queued: u64,
    /// Requests that terminated as deadline misses: either dispatch
    /// could no longer begin before `arrival + sim_deadline_ns`, or the
    /// executor's own run budget aborted with a clean
    /// `DeadlineExceeded`.
    pub deadline_missed: u64,
    /// Requests that reused another request's resident prepared grid
    /// (operand-sharing batcher hits).
    pub batch_hits: u64,
    /// Total flops of the tenant's completed requests.
    pub flops: u64,
    /// Summed simulated execution time of the tenant's completed
    /// requests, ns.
    pub busy_ns: u64,
    /// Summed simulated time the tenant's requests waited between
    /// admission and dispatch, ns.
    pub queued_ns: u64,
}

/// Residency accounting of the service frontend's bounded caches: how
/// much the resident grid cache and the interned-matrix store hold
/// right now, the high-water marks, and how often the eviction policy
/// and the deadline supervisor fired. Only the service frontend
/// populates this (`None` for one-shot executor runs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Configured grid-cache byte cap; `None` means unbounded.
    pub grid_cache_bytes: Option<u64>,
    /// Bytes currently held by resident prepared grids.
    pub resident_grid_bytes: u64,
    /// High-water mark of `resident_grid_bytes` over the service's
    /// lifetime. Never exceeds the configured cap.
    pub resident_grid_high_water_bytes: u64,
    /// Prepared grids currently resident.
    pub resident_grids: u64,
    /// Grids inserted into the cache (first preparations and rebuilds).
    pub grid_inserts: u64,
    /// Grids evicted — by LRU pressure on insert, or because an operand
    /// they reference was released.
    pub grid_evictions: u64,
    /// Cache misses for a key that had been resident before: the cost
    /// of the eviction policy, paid as a re-preparation.
    pub grid_rebuilds: u64,
    /// Interned matrices currently resident (live slots).
    pub matrices_resident: u64,
    /// Bytes held by resident interned matrices.
    pub matrix_bytes: u64,
    /// Interned matrices fully released and freed.
    pub matrices_released: u64,
    /// Requests that terminated as deadline misses, summed over
    /// tenants.
    pub deadline_missed: u64,
}

/// Structured metrics for one executor run — the one per-run record
/// every JSON report carries. Fields serialize in declaration order.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// The run's completion time — the exact `sim_ns` the executor
    /// returns (Fig 8 reads speedups from this field).
    pub completion_ns: SimTime,
    /// Timeline aggregation (engines, bytes, overlap, phases).
    pub timeline: TimelineMetrics,
    /// Device-memory allocation high-water mark, bytes.
    pub device_high_water_bytes: u64,
    /// Pool high-water mark, bytes: the pipeline's resident-A slot plus
    /// the largest single chunk reservation it admitted (0 when the
    /// executor never carved a pool, e.g. pure-CPU demotion runs).
    pub pool_high_water_bytes: u64,
    /// Scheduler accounting; `None` for single-device runs that have
    /// no CPU/GPU work distribution to report.
    pub scheduler: Option<SchedulerStats>,
    /// Estimator accuracy accounting; `None` for exact (non-speculative)
    /// runs.
    pub estimator: Option<EstimatorStats>,
    /// Per-tenant aggregates; only populated by the service frontend
    /// (empty for one-shot executor runs).
    pub tenants: Vec<TenantStats>,
    /// Service residency accounting; only populated by the service
    /// frontend (`None` for one-shot executor runs).
    pub service: Option<ServiceStats>,
    /// Supervised degradations, in the order they took effect; empty
    /// for runs that never degraded.
    pub degradations: Vec<DegradationEvent>,
    /// Per-chunk recovery counters; empty for exact fault-free runs.
    /// Speculative runs always route through the recovering pass and
    /// report at least one attempt per chunk.
    pub chunks: Vec<ChunkMetrics>,
}

impl Metrics {
    /// Captures every simulator-side metric. Must be called before the
    /// simulator is consumed into its timeline.
    pub fn collect(sim: &GpuSim, completion_ns: SimTime) -> Self {
        Metrics {
            completion_ns,
            timeline: sim.timeline().metrics(),
            device_high_water_bytes: sim.memory().high_water(),
            pool_high_water_bytes: sim.pool_high_water(),
            ..Metrics::default()
        }
    }

    /// Attaches host-side per-chunk recovery counters.
    pub fn with_chunks(mut self, chunks: Vec<ChunkMetrics>) -> Self {
        self.chunks = chunks;
        self
    }

    /// Attaches scheduler work-distribution accounting.
    pub fn with_scheduler(mut self, stats: SchedulerStats) -> Self {
        self.scheduler = Some(stats);
        self
    }

    /// Attaches estimator accuracy accounting.
    pub fn with_estimator(mut self, stats: EstimatorStats) -> Self {
        self.estimator = Some(stats);
        self
    }

    /// Attaches supervised degradation events.
    pub fn with_degradations(mut self, events: Vec<DegradationEvent>) -> Self {
        self.degradations = events;
        self
    }

    /// Attaches per-tenant service aggregates.
    pub fn with_tenants(mut self, tenants: Vec<TenantStats>) -> Self {
        self.tenants = tenants;
        self
    }

    /// Attaches service residency accounting.
    pub fn with_service(mut self, stats: ServiceStats) -> Self {
        self.service = Some(stats);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// The `--metrics-out` document of `m`, parsed back.
    fn json(m: &Metrics) -> Value {
        serde_json::from_str(&serde_json::to_string_pretty(m).unwrap()).unwrap()
    }

    /// Metrics holding one demoted chunk, (1, 2), with three attempts.
    fn demoted(cause: DemotionCause) -> Metrics {
        Metrics::default().with_chunks(vec![ChunkMetrics {
            attempts: 3,
            demotions: 1,
            demotion_cause: Some(cause),
            ..ChunkMetrics::new(ChunkId { row: 1, col: 2 })
        }])
    }

    fn scheduler(kind: SchedulerKind) -> SchedulerStats {
        SchedulerStats {
            kind,
            gpu_claims: 8,
            cpu_steals: 4,
            gpu_idle_ns: 0,
            cpu_idle_ns: 1234,
            realized_gpu_ratio: 0.71,
        }
    }

    #[test]
    fn empty_metrics_serialize_to_balanced_json() {
        let v = json(&Metrics::default());
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "completion_ns",
                "timeline",
                "device_high_water_bytes",
                "pool_high_water_bytes",
                "scheduler",
                "estimator",
                "tenants",
                "service",
                "degradations",
                "chunks",
            ]
        );
        for block in ["scheduler", "estimator", "service"] {
            assert_eq!(v[block], Value::Null, "{block}");
        }
        for list in ["tenants", "degradations", "chunks"] {
            assert_eq!(v[list], Value::Array(vec![]), "{list}");
        }
        assert_eq!(v["timeline"]["kernel_classes"], Value::Array(vec![]));
    }

    #[test]
    fn chunk_counters_serialize_with_causes() {
        let c = &json(&demoted(DemotionCause::DeviceMemory))["chunks"][0];
        assert_eq!((c["row"].as_u64(), c["col"].as_u64()), (Some(1), Some(2)));
        assert_eq!(c["attempts"], 3);
        assert_eq!(c["demotion_cause"], "device_memory");
    }

    #[test]
    fn deadline_demotion_cause_serializes() {
        let v = json(&demoted(DemotionCause::Deadline));
        assert_eq!(v["chunks"][0]["demotion_cause"], "deadline");
    }

    #[test]
    fn degradation_events_serialize_with_cause_names() {
        let event = |cause, cost_ns| DegradationEvent {
            cause,
            at_ns: 10,
            cost_ns,
        };
        let v = json(&Metrics::default().with_degradations(vec![
            event(DegradationCause::HeadroomShrink, 0),
            event(DegradationCause::DeadlineDemotion, 5),
        ]));
        assert_eq!(v["degradations"][0]["cause"], "headroom_shrink");
        assert_eq!(v["degradations"][1]["cause"], "deadline_demotion");
        assert_eq!(v["degradations"][1]["cost_ns"], 5);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut m = Metrics::default();
        m.timeline.overlap_efficiency = f64::NAN;
        let text = serde_json::to_string_pretty(&m).unwrap();
        assert!(text.contains("\"overlap_efficiency\": null"), "{text}");
    }

    #[test]
    fn estimator_stats_serialize_and_default_to_null() {
        let m = Metrics::default().with_estimator(EstimatorStats {
            kind: "row-sample".into(),
            sampled_rows: 30,
            est_nnz: 900,
            actual_nnz: 1000,
            chunk_hits: 5,
            chunk_misses: 1,
            overflow_rows: 12,
            retries: 1,
            headroom: 1.5,
        });
        let e = &json(&m)["estimator"];
        assert_eq!(e["kind"], "row-sample");
        assert_eq!(e["est_nnz"], 900);
        assert_eq!(e["overflow_rows"], 12);
        assert_eq!(e["headroom"], 1.5);
    }

    #[test]
    fn tenant_stats_serialize_and_default_to_empty() {
        // Tenant names are free text from trace files.
        let m = Metrics::default().with_tenants(vec![TenantStats {
            tenant: "a\"b\\c".into(),
            quota_queued: 2,
            queued_ns: 7_000,
            ..TenantStats::default()
        }]);
        let t = &json(&m)["tenants"][0];
        assert_eq!(t["tenant"], "a\"b\\c");
        assert_eq!(t["quota_queued"], 2);
        assert_eq!(t["queued_ns"], 7000);
    }

    #[test]
    fn service_stats_serialize_and_default_to_null() {
        let m = Metrics::default().with_service(ServiceStats {
            grid_cache_bytes: Some(1 << 20),
            grid_evictions: 7,
            ..ServiceStats::default()
        });
        assert_eq!(json(&m)["service"]["grid_cache_bytes"], 1_048_576);
        assert_eq!(json(&m)["service"]["grid_evictions"], 7);
        // An unbounded cache serializes its cap as null.
        let m = Metrics::default().with_service(ServiceStats::default());
        assert_eq!(json(&m)["service"]["grid_cache_bytes"], Value::Null);
    }

    #[test]
    fn scheduler_stats_serialize_and_default_to_null() {
        let v = json(&Metrics::default().with_scheduler(scheduler(SchedulerKind::WorkStealing)));
        assert_eq!(v["scheduler"]["kind"], "work-stealing");
        assert_eq!(v["scheduler"]["gpu_claims"], 8);
        assert_eq!(v["scheduler"]["realized_gpu_ratio"], 0.71);
    }

    #[test]
    fn populated_metrics_round_trip_through_json() {
        let mut m = demoted(DemotionCause::Faults)
            .with_scheduler(scheduler(SchedulerKind::Static))
            .with_degradations(vec![DegradationEvent {
                cause: DegradationCause::UnifiedThrash,
                at_ns: 1,
                cost_ns: 2,
            }])
            .with_tenants(vec![TenantStats::default()])
            .with_service(ServiceStats::default());
        m.timeline.kernel_classes.push(gpu_sim::KernelClassMetrics {
            class: gpu_sim::KernelClass::RowAnalysis,
            busy_ns: 5,
            launches: 1,
            payload: 9,
        });
        let text = serde_json::to_string_pretty(&m).unwrap();
        for name in [
            "\"static\"",
            "\"faults\"",
            "\"unified_thrash\"",
            "\"row_analysis\"",
        ] {
            assert!(text.contains(name), "no {name} in {text}");
        }
        let back: Metrics = serde_json::from_str(&text).unwrap();
        assert_eq!(back, m);
    }
}
