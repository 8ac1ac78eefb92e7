//! Long-lived service frontend over the one-shot executors.
//!
//! The paper's executors answer a single `C = A·B`; a node that hosts
//! them in production answers a *stream* of requests from competing
//! tenants. This module adds that missing layer as a deterministic,
//! single-threaded discrete-event frontend:
//!
//! * a **submission queue** with an admission controller that sheds
//!   load when the queue is full or the device pool ran hot on the
//!   previous request (`pool_high_water_bytes` against device memory);
//! * per-tenant **token-bucket quotas** denominated in flops, bounding
//!   how much work a tenant can have in flight — requests past their
//!   budget wait for the bucket to refill instead of being dropped;
//! * an **operand-sharing batcher**: requests multiplying the same
//!   interned operands with the same estimator coalesce onto one
//!   resident [`PreparedGrid`] (interned CSR panels + cached planner
//!   prefix sums) and one warm [`accum::ScratchPool`], so only the
//!   first request in a batch pays preparation;
//! * **device time-sharing**: `num_devices` simulated device slots are
//!   claimed by the request-level outer rung of the work-stealing
//!   auction — whichever slot's clock is the global minimum takes the
//!   next admitted request, exactly how [`crate::multigpu`]'s chunk
//!   queue picks workers, one level up;
//! * **bounded residency**: every per-process structure is capped or
//!   reclaimable. The grid cache is byte-accounted against
//!   [`ServiceConfig::grid_cache_bytes`] with LRU evict-on-insert and
//!   rebuild-on-miss; interned operands are ref-counted and freed by
//!   [`Service::release`] (storage lingers only while pending requests
//!   still pin it); and completions stream out through
//!   [`Service::poll_completions`] instead of accumulating behind a
//!   single terminal drain;
//! * **deadline-aware dispatch**: the pending queue is ordered by
//!   earliest effective deadline — `arrival + sim_deadline_ns` for
//!   budgeted requests, `arrival + aging_ns` for the rest, so waiting
//!   unbudgeted work ages into priority and can never starve. A
//!   request whose absolute deadline already passed at dispatch time
//!   completes as [`Outcome::DeadlineExceeded`] without burning device
//!   time; one whose executor run aborts on its own
//!   [`RunBudget`] surfaces the same outcome with partial metrics.
//!
//! Determinism is the design bar, not an afterthought: every request's
//! `C` is bit-identical to the equivalent one-shot call
//! ([`crate::Hybrid::multiply`] / [`crate::OutOfCoreGpu::power`] /
//! `triple_product`) regardless of how requests interleave — and
//! regardless of whether its grid was resident, evicted, or rebuilt —
//! because chunk numerics are computed host-side during preparation
//! and scheduling only decides *when* simulated work happens, never
//! *what* the result is. Grid caching and scratch pooling reuse
//! allocations, not results.
//!
//! Submitted timestamps are simulated nanoseconds; the service never
//! reads wall clocks, so a seeded trace replays to the same
//! completion set, byte for byte.

use crate::config::{HybridConfig, OocConfig, SchedulerKind, DEFAULT_GPU_RATIO};
use crate::executor::{prepare_grid_pooled, OutOfCoreGpu, PreparedGrid};
use crate::faults::HostFaultPlan;
use crate::hybrid::Hybrid;
use crate::metrics::{Metrics, ServiceStats, TenantStats};
use crate::recovery::RunBudget;
use crate::Result;
use accum::estimate::EstimateConfig;
use sparse::CsrMatrix;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::rc::Rc;

/// Effective-deadline slack assigned to requests without a
/// [`RunBudget`], ns. See [`ServiceConfig::aging_ns`].
pub const DEFAULT_AGING_NS: u64 = 5_000_000;

/// Per-tenant flop budget: a token bucket holding up to
/// `capacity_flops` tokens, refilled at `refill_flops_per_ms`.
/// Dispatching a request spends its a-priori flop estimate (capped at
/// the capacity so one huge request cannot starve forever); an empty
/// bucket queues the tenant's next request until the refill covers it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantQuota {
    /// Maximum tokens (flops) a tenant can bank.
    pub capacity_flops: u64,
    /// Refill rate, flops per simulated millisecond. A bounded quota
    /// with a zero refill rate is rejected by
    /// [`ServiceConfig::validate`]: it could never admit a request
    /// once drained, and the refill wait computation divides by it.
    pub refill_flops_per_ms: u64,
}

impl TenantQuota {
    /// A bounded quota.
    pub fn new(capacity_flops: u64, refill_flops_per_ms: u64) -> Self {
        TenantQuota {
            capacity_flops,
            refill_flops_per_ms,
        }
    }

    /// No quota: every request is dispatchable immediately.
    pub fn unlimited() -> Self {
        TenantQuota {
            capacity_flops: u64::MAX,
            refill_flops_per_ms: u64::MAX,
        }
    }

    fn is_unlimited(&self) -> bool {
        self.capacity_flops == u64::MAX
    }
}

/// Configuration of the service frontend.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Baseline GPU-side configuration shared by every request;
    /// per-request knobs (scheduler, estimator, budget, host faults)
    /// override their respective fields.
    pub gpu: OocConfig,
    /// Hybrid CPU/GPU flop split applied to `multiply` requests.
    pub gpu_ratio: f64,
    /// Simulated device slots requests time-share (≥ 1).
    pub num_devices: usize,
    /// Admission bound: a request arriving while this many are already
    /// queued is shed with [`ShedReason::QueueFull`].
    pub queue_capacity: usize,
    /// Pressure bound: when the previous run's pool high-water mark
    /// exceeded this fraction of device memory *and* the queue is at
    /// least half full, new requests are shed with
    /// [`ShedReason::Pressure`] instead of piling onto a hot device.
    pub pool_pressure_shed: f64,
    /// Flop quota applied uniformly to every tenant.
    pub quota: TenantQuota,
    /// Maximum requests coalesced into one operand-sharing batch.
    pub batch_max: usize,
    /// Byte cap on the resident grid cache (`None` = unbounded, the
    /// pre-cap behavior). Inserting past the cap evicts
    /// least-recently-used grids until the new one fits; a grid larger
    /// than the whole cap is used transiently by the batch that
    /// prepared it and never cached. Eviction only discards
    /// *allocations*: a re-prepared grid is bit-identical, so
    /// completions never depend on cache pressure.
    pub grid_cache_bytes: Option<u64>,
    /// Effective-deadline slack granted to requests without a
    /// [`RunBudget`], ns. Dispatch orders the pending queue by
    /// earliest `arrival + slack` (budgeted requests use their
    /// `sim_deadline_ns` as the slack), so a smaller value makes
    /// unbudgeted work more urgent relative to budgeted work. Because
    /// effective deadlines grow with arrival time, a waiting request
    /// is eventually earlier than every newcomer: no starvation.
    pub aging_ns: u64,
}

impl ServiceConfig {
    /// Paper-default GPU config, one device, an 8-deep queue, no
    /// tenant quota, and an unbounded grid cache.
    pub fn new() -> Self {
        ServiceConfig {
            gpu: OocConfig::paper_default(),
            gpu_ratio: DEFAULT_GPU_RATIO,
            num_devices: 1,
            queue_capacity: 8,
            pool_pressure_shed: 0.95,
            quota: TenantQuota::unlimited(),
            batch_max: 4,
            grid_cache_bytes: None,
            aging_ns: DEFAULT_AGING_NS,
        }
    }

    /// Replaces the baseline GPU configuration.
    pub fn gpu(mut self, gpu: OocConfig) -> Self {
        self.gpu = gpu;
        self
    }

    /// Sets the number of simulated device slots.
    pub fn devices(mut self, n: usize) -> Self {
        self.num_devices = n;
        self
    }

    /// Sets the admission queue capacity.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Sets the per-tenant quota.
    pub fn quota(mut self, quota: TenantQuota) -> Self {
        self.quota = quota;
        self
    }

    /// Sets the batcher's coalescing width.
    pub fn batch_max(mut self, n: usize) -> Self {
        self.batch_max = n;
        self
    }

    /// Caps the resident grid cache at `bytes`.
    pub fn grid_cache_bytes(mut self, bytes: u64) -> Self {
        self.grid_cache_bytes = Some(bytes);
        self
    }

    /// Sets the effective-deadline slack for unbudgeted requests.
    pub fn aging_ns(mut self, ns: u64) -> Self {
        self.aging_ns = ns;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        self.gpu.validate()?;
        if !(0.0..=1.0).contains(&self.gpu_ratio) {
            return Err(crate::OocError::Config(format!(
                "GPU ratio {} outside [0, 1]",
                self.gpu_ratio
            )));
        }
        if self.num_devices == 0 {
            return Err(crate::OocError::Config("need at least one device".into()));
        }
        if self.queue_capacity == 0 {
            return Err(crate::OocError::Config("queue capacity must be ≥ 1".into()));
        }
        if !(0.0..=1.0).contains(&self.pool_pressure_shed) {
            return Err(crate::OocError::Config(format!(
                "pressure threshold {} outside [0, 1]",
                self.pool_pressure_shed
            )));
        }
        if self.batch_max == 0 {
            return Err(crate::OocError::Config("batch_max must be ≥ 1".into()));
        }
        if !self.quota.is_unlimited() && self.quota.refill_flops_per_ms == 0 {
            // Guards the refill-wait division in `Bucket::ready_at`: a
            // drained zero-refill bucket would otherwise divide by
            // zero computing when it could next admit (never).
            return Err(crate::OocError::Config(
                "a bounded quota needs a non-zero refill rate".into(),
            ));
        }
        Ok(())
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The operation a request asks for. Operands are keys returned by
/// [`Service::intern`], so concurrent requests share one resident copy
/// of each matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestOp {
    /// `C = A · B`.
    Multiply {
        /// Interned key of `A`.
        a: usize,
        /// Interned key of `B`.
        b: usize,
    },
    /// `C = A^k` (chained squaring-free left-to-right product).
    Power {
        /// Interned key of `A`.
        a: usize,
        /// Exponent, ≥ 1.
        k: u32,
    },
    /// Galerkin triple product `C = R · A · P`.
    TripleProduct {
        /// Interned key of `R`.
        r: usize,
        /// Interned key of `A`.
        a: usize,
        /// Interned key of `P`.
        p: usize,
    },
}

/// One unit of tenant work submitted to the service.
#[derive(Clone, Debug)]
pub struct Request {
    /// Caller-chosen identifier echoed in the [`Completion`].
    pub id: u64,
    /// Tenant the request is accounted to.
    pub tenant: String,
    /// Simulated arrival time, ns. Submissions must arrive in
    /// non-decreasing order; an earlier stamp is clamped forward.
    pub arrival_ns: u64,
    /// What to compute.
    pub op: RequestOp,
    /// Chunk scheduler for this request's hybrid execution.
    pub scheduler: SchedulerKind,
    /// Output-size estimator for this request's planning.
    pub estimator: EstimateConfig,
    /// Optional per-request deadline budget. `sim_deadline_ns` doubles
    /// as the request's service-level deadline: measured from arrival,
    /// a request that cannot start before `arrival + sim_deadline_ns`
    /// completes as [`Outcome::DeadlineExceeded`] without executing.
    pub budget: Option<RunBudget>,
    /// Optional per-request host fault plan (overrides the service
    /// baseline), letting traces mix faulty and clean requests.
    pub host_faults: Option<HostFaultPlan>,
}

impl Request {
    /// A multiply request with service-default knobs.
    pub fn multiply(id: u64, tenant: impl Into<String>, a: usize, b: usize) -> Self {
        Request::new(id, tenant, RequestOp::Multiply { a, b })
    }

    /// A matrix-power request with service-default knobs.
    pub fn power(id: u64, tenant: impl Into<String>, a: usize, k: u32) -> Self {
        Request::new(id, tenant, RequestOp::Power { a, k })
    }

    /// A triple-product request with service-default knobs.
    pub fn triple_product(
        id: u64,
        tenant: impl Into<String>,
        r: usize,
        a: usize,
        p: usize,
    ) -> Self {
        Request::new(id, tenant, RequestOp::TripleProduct { r, a, p })
    }

    fn new(id: u64, tenant: impl Into<String>, op: RequestOp) -> Self {
        Request {
            id,
            tenant: tenant.into(),
            arrival_ns: 0,
            op,
            scheduler: SchedulerKind::default(),
            estimator: EstimateConfig::default(),
            budget: None,
            host_faults: None,
        }
    }

    /// Sets the simulated arrival time.
    pub fn at(mut self, arrival_ns: u64) -> Self {
        self.arrival_ns = arrival_ns;
        self
    }

    /// Selects the chunk scheduler.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Selects the output-size estimator.
    pub fn estimator(mut self, cfg: EstimateConfig) -> Self {
        self.estimator = cfg;
        self
    }

    /// Arms a per-request deadline budget.
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Injects a per-request host fault plan.
    pub fn host_faults(mut self, plan: HostFaultPlan) -> Self {
        self.host_faults = Some(plan);
        self
    }
}

/// Why the admission controller dropped a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The submission queue was at capacity.
    QueueFull,
    /// The device pool ran above the pressure threshold and the queue
    /// was already half full.
    Pressure,
}

impl ShedReason {
    /// Stable JSON/CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::Pressure => "pressure",
        }
    }
}

/// How a request left the service.
#[derive(Debug)]
pub enum Outcome {
    /// The request ran to completion.
    Completed {
        /// The product, bit-identical to the one-shot executor's.
        c: CsrMatrix,
        /// Structured metrics of the run (last hop for chained ops).
        /// Boxed so a completion list dominated by sheds doesn't pay
        /// the full per-request accounting footprint per entry.
        metrics: Box<Metrics>,
        /// Simulated time spent between admission and dispatch, ns.
        queued_ns: u64,
        /// Simulated dispatch time, ns.
        start_ns: u64,
        /// Simulated completion time, ns.
        finish_ns: u64,
        /// The request reused a resident prepared grid instead of
        /// preparing its own.
        batch_hit: bool,
    },
    /// The admission controller dropped the request.
    Shed {
        /// Why it was dropped.
        reason: ShedReason,
    },
    /// The request could not meet its deadline. Either dispatch came
    /// too late (the absolute deadline passed while it queued —
    /// `partial` is `None`, no device time was burned), or its
    /// executor run aborted on the [`RunBudget`] after walking every
    /// degradation rung (`partial` carries the aborted run's partial
    /// metrics).
    DeadlineExceeded {
        /// The absolute deadline that was missed, simulated ns
        /// (`arrival_ns + budget.sim_deadline_ns`).
        deadline_ns: u64,
        /// Simulated time spent queued before the miss, ns.
        queued_ns: u64,
        /// Simulated time at which the service declared the miss, ns.
        missed_at_ns: u64,
        /// Partial metrics when the executor started and aborted;
        /// `None` when the miss was decided at dispatch.
        partial: Option<Box<Metrics>>,
    },
}

/// Terminal record for one submitted request.
#[derive(Debug)]
pub struct Completion {
    /// The submitting request's id.
    pub id: u64,
    /// The submitting tenant.
    pub tenant: String,
    /// How the request ended.
    pub outcome: Outcome,
}

impl Completion {
    /// True when the request completed (was not shed or deadline-missed).
    pub fn is_completed(&self) -> bool {
        matches!(self.outcome, Outcome::Completed { .. })
    }

    /// True when the request terminated as a deadline miss.
    pub fn is_deadline_missed(&self) -> bool {
        matches!(self.outcome, Outcome::DeadlineExceeded { .. })
    }
}

/// Resident-grid cache key: interned operands plus the estimator
/// fingerprint (planning depends on the estimator, so requests only
/// share a grid when they'd plan identically).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct GridKey {
    a: usize,
    b: usize,
    kind: &'static str,
    sample_rate: u64,
    headroom: u64,
    seed: u64,
}

impl GridKey {
    fn new(a: usize, b: usize, est: &EstimateConfig) -> Self {
        GridKey {
            a,
            b,
            kind: est.kind.name(),
            sample_rate: est.sample_rate.to_bits(),
            headroom: est.headroom.to_bits(),
            seed: est.seed,
        }
    }

    fn references(&self, matrix_key: usize) -> bool {
        self.a == matrix_key || self.b == matrix_key
    }
}

/// Deterministic flop token bucket.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    tokens: u64,
    last_ns: u64,
}

impl Bucket {
    fn full(quota: &TenantQuota) -> Self {
        Bucket {
            tokens: quota.capacity_flops,
            last_ns: 0,
        }
    }

    fn tokens_at(&self, quota: &TenantQuota, now_ns: u64) -> u64 {
        if quota.is_unlimited() {
            return u64::MAX;
        }
        let dt = now_ns.saturating_sub(self.last_ns) as u128;
        let refill = (dt * quota.refill_flops_per_ms as u128) / 1_000_000;
        (self.tokens as u128 + refill).min(quota.capacity_flops as u128) as u64
    }

    /// Earliest time ≥ `now_ns` at which `cost` tokens are available.
    fn ready_at(&self, quota: &TenantQuota, cost: u64, now_ns: u64) -> u64 {
        let have = self.tokens_at(quota, now_ns);
        if have >= cost {
            return now_ns;
        }
        let missing = (cost - have) as u128;
        let rate = quota.refill_flops_per_ms as u128;
        if rate == 0 {
            // Unreachable through `ServiceConfig::validate` (a bounded
            // quota with zero refill is rejected at construction), but
            // "never ready" is the honest answer, not a divide-by-zero.
            return u64::MAX;
        }
        let wait_ns = (missing * 1_000_000).div_ceil(rate);
        now_ns.saturating_add(wait_ns as u64)
    }

    fn spend(&mut self, quota: &TenantQuota, cost: u64, now_ns: u64) {
        if quota.is_unlimited() {
            return;
        }
        self.tokens = self.tokens_at(quota, now_ns).saturating_sub(cost);
        self.last_ns = now_ns;
    }
}

/// An admitted request waiting in the dispatch queue.
#[derive(Clone, Debug)]
struct Admitted {
    req: Request,
    /// A-priori flop estimate, capped at the quota capacity.
    cost: u64,
    /// Admission sequence number: the deadline-ordering tie-breaker,
    /// so equal effective deadlines dispatch in admission order.
    seq: u64,
}

/// One interned operand: the matrix plus the ref counts that govern
/// its lifetime. `intern_refs` tracks caller handles
/// ([`Service::intern`] / [`Service::release`]); `pending_uses` pins
/// the storage while admitted requests still reference it. The
/// storage frees when both reach zero; the slot index is never reused
/// (keys stay unambiguous for the process lifetime).
#[derive(Debug)]
struct MatrixSlot {
    m: Option<CsrMatrix>,
    bytes: u64,
    fingerprint: u64,
    intern_refs: u64,
    pending_uses: u64,
}

/// A cache-resident prepared grid with its byte cost and LRU stamp.
struct CachedGrid {
    grid: Rc<PreparedGrid>,
    bytes: u64,
    last_used: u64,
}

/// What one executed request produced, before completion bookkeeping.
struct Executed {
    c: CsrMatrix,
    sim_ns: u64,
    flops: u64,
    metrics: Metrics,
    batch_hit: bool,
}

/// Approximate resident host-heap footprint of a CSR matrix:
/// `usize` row offsets plus `u32` column ids plus `f64` values.
fn csr_resident_bytes(m: &CsrMatrix) -> u64 {
    ((m.n_rows() + 1) * 8 + m.nnz() * 12) as u64
}

/// FNV-1a over the full CSR content (shape, structure, value bits):
/// the intern-dedup fingerprint. Collisions are resolved by an exact
/// equality check before keys are shared, so a collision costs a
/// comparison, never a wrong dedup.
fn content_fingerprint(m: &CsrMatrix) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn eat(h: u64, v: u64) -> u64 {
        v.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(PRIME))
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = eat(h, m.n_rows() as u64);
    h = eat(h, m.n_cols() as u64);
    for &o in m.row_offsets() {
        h = eat(h, o as u64);
    }
    for &c in m.col_ids() {
        h = eat(h, u64::from(c));
    }
    for &v in m.values() {
        h = eat(h, v.to_bits());
    }
    h
}

/// The long-lived frontend. See the module docs for the model.
pub struct Service {
    config: ServiceConfig,
    matrices: Vec<MatrixSlot>,
    /// Content fingerprint → live slot keys with that fingerprint
    /// (almost always one): the intern-dedup index.
    interned: HashMap<u64, Vec<usize>>,
    pending: VecDeque<Admitted>,
    completions: Vec<Completion>,
    buckets: HashMap<String, Bucket>,
    tenants: BTreeMap<String, TenantStats>,
    grids: HashMap<GridKey, CachedGrid>,
    /// Keys the cache has held (or refused, for over-cap grids) and
    /// dropped under pressure: a re-preparation of one of these counts
    /// as a rebuild. Entries referencing released matrices are purged,
    /// so the set is bounded by live grid keys.
    evicted: HashSet<GridKey>,
    pool: accum::ScratchPool,
    /// Per-device-slot availability clocks (the request-level auction).
    free_at: Vec<u64>,
    /// Pool high-water fraction observed on the most recent run; the
    /// pressure signal the admission controller reads.
    last_pool_frac: f64,
    /// High-water mark of the submission timeline (arrivals clamp
    /// forward to this).
    last_arrival_ns: u64,
    /// Monotone admission counter (deadline-ordering tie-breaker).
    next_seq: u64,
    /// Monotone cache-touch counter (LRU recency stamp).
    lru_tick: u64,
    /// Residency accounting surfaced through [`Service::metrics`].
    stats: ServiceStats,
}

impl Service {
    /// Builds a service; fails on an invalid configuration.
    pub fn new(config: ServiceConfig) -> Result<Self> {
        config.validate()?;
        let free_at = vec![0; config.num_devices];
        let stats = ServiceStats {
            grid_cache_bytes: config.grid_cache_bytes,
            ..ServiceStats::default()
        };
        Ok(Service {
            config,
            matrices: Vec::new(),
            interned: HashMap::new(),
            pending: VecDeque::new(),
            completions: Vec::new(),
            buckets: HashMap::new(),
            tenants: BTreeMap::new(),
            grids: HashMap::new(),
            evicted: HashSet::new(),
            pool: accum::ScratchPool::new(),
            free_at,
            last_pool_frac: 0.0,
            last_arrival_ns: 0,
            next_seq: 0,
            lru_tick: 0,
            stats,
        })
    }

    /// Interns a matrix, returning the key requests use to reference
    /// it. All requests naming the key share this single copy, and
    /// interning a byte-identical matrix again returns the *same* key
    /// (content dedup), so operand-sharing requests batch and share a
    /// resident grid no matter who interned first. Each `intern` call
    /// takes one reference; storage frees when [`Service::release`]
    /// has dropped them all and no pending request still uses the key.
    pub fn intern(&mut self, m: CsrMatrix) -> usize {
        let fp = content_fingerprint(&m);
        let hit = self.interned.get(&fp).and_then(|keys| {
            keys.iter().copied().find(|&k| {
                let slot = &self.matrices[k];
                slot.intern_refs > 0 && slot.m.as_ref() == Some(&m)
            })
        });
        if let Some(k) = hit {
            self.matrices[k].intern_refs += 1;
            return k;
        }
        let bytes = csr_resident_bytes(&m);
        self.matrices.push(MatrixSlot {
            m: Some(m),
            bytes,
            fingerprint: fp,
            intern_refs: 1,
            pending_uses: 0,
        });
        let key = self.matrices.len() - 1;
        self.interned.entry(fp).or_default().push(key);
        self.stats.matrices_resident += 1;
        self.stats.matrix_bytes += bytes;
        key
    }

    /// Drops one intern reference to `key`. When the last reference
    /// goes, the key is dead to new submissions immediately; the
    /// storage (and any cached grids built on it) frees as soon as no
    /// admitted request still pins it. Errors on an unknown or
    /// already fully released key.
    pub fn release(&mut self, key: usize) -> Result<()> {
        let Some(slot) = self.matrices.get_mut(key) else {
            return Err(crate::OocError::Config(format!(
                "release of unknown matrix key {key}"
            )));
        };
        if slot.intern_refs == 0 {
            return Err(crate::OocError::Config(format!(
                "matrix key {key} already fully released"
            )));
        }
        slot.intern_refs -= 1;
        let (refs, pending, fp) = (slot.intern_refs, slot.pending_uses, slot.fingerprint);
        if refs == 0 {
            // The key can no longer be deduped onto: unregister it so
            // a future intern of the same content gets a fresh slot.
            if let Some(keys) = self.interned.get_mut(&fp) {
                keys.retain(|&k| k != key);
                if keys.is_empty() {
                    self.interned.remove(&fp);
                }
            }
            if pending == 0 {
                self.free_slot(key);
            }
        }
        Ok(())
    }

    /// Access to an interned matrix. `None` once the key is fully
    /// released, even while pending requests keep the storage pinned.
    pub fn matrix(&self, key: usize) -> Option<&CsrMatrix> {
        self.matrices
            .get(key)
            .filter(|s| s.intern_refs > 0)
            .and_then(|s| s.m.as_ref())
    }

    /// Submits a request. The admission decision is made immediately
    /// (at the request's simulated arrival time); a shed request
    /// surfaces as a [`Completion`] with [`Outcome::Shed`] from the
    /// next [`Service::poll_completions`] / [`Service::drain`].
    /// Errors are reserved for malformed requests (unknown or
    /// released operand key, zero exponent, shape mismatch).
    pub fn submit(&mut self, req: Request) -> Result<()> {
        self.validate_request(&req)?;
        let mut req = req;
        // The submission timeline is monotone: a stamp earlier than a
        // previously seen arrival clamps forward.
        req.arrival_ns = req.arrival_ns.max(self.last_arrival_ns);
        self.last_arrival_ns = req.arrival_ns;
        // Let simulated time catch up: everything that would have
        // dispatched before this arrival leaves the queue first, so
        // admission sees the queue state as of the arrival instant.
        self.dispatch_until(req.arrival_ns)?;

        let stats = self
            .tenants
            .entry(req.tenant.clone())
            .or_insert_with(|| TenantStats {
                tenant: req.tenant.clone(),
                ..TenantStats::default()
            });
        stats.submitted += 1;

        if self.pending.len() >= self.config.queue_capacity {
            stats.shed += 1;
            self.completions.push(Completion {
                id: req.id,
                tenant: req.tenant,
                outcome: Outcome::Shed {
                    reason: ShedReason::QueueFull,
                },
            });
            return Ok(());
        }
        if self.last_pool_frac >= self.config.pool_pressure_shed
            && self.pending.len() >= self.config.queue_capacity.div_ceil(2)
        {
            stats.shed += 1;
            self.completions.push(Completion {
                id: req.id,
                tenant: req.tenant,
                outcome: Outcome::Shed {
                    reason: ShedReason::Pressure,
                },
            });
            return Ok(());
        }

        let cost = self
            .op_cost_flops(&req.op)
            .min(self.config.quota.capacity_flops);
        self.pin_operands(&req.op);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back(Admitted { req, cost, seq });
        Ok(())
    }

    /// Dispatches the next admitted request (or operand-sharing
    /// batch), advancing simulated time. Returns `false` once the
    /// queue is empty. The streaming driver: alternate `step` with
    /// [`Service::poll_completions`] to consume results incrementally
    /// instead of accumulating them behind a terminal drain.
    pub fn step(&mut self) -> Result<bool> {
        self.dispatch_one(u64::MAX)
    }

    /// Hands out every completion accumulated since the last poll
    /// (sheds and deadline misses included), in termination order.
    /// The service keeps no copy: resident completion state is
    /// whatever the caller has not yet polled.
    pub fn poll_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Completions buffered and not yet polled.
    pub fn completions_buffered(&self) -> usize {
        self.completions.len()
    }

    /// Runs every admitted request to completion and returns all
    /// completions accumulated since the last poll (sheds included),
    /// in termination order. Equivalent to stepping until idle and
    /// polling once.
    pub fn drain(&mut self) -> Result<Vec<Completion>> {
        self.dispatch_until(u64::MAX)?;
        Ok(self.poll_completions())
    }

    /// Service-level metrics: per-tenant aggregates (ordered by
    /// tenant name) plus residency accounting.
    pub fn metrics(&self) -> Metrics {
        Metrics::default()
            .with_tenants(self.tenants.values().cloned().collect())
            .with_service(self.stats)
    }

    /// Residency accounting snapshot (grid cache, interned matrices,
    /// deadline misses).
    pub fn service_stats(&self) -> ServiceStats {
        self.stats
    }

    /// Number of admitted requests still waiting for dispatch.
    pub fn queued(&self) -> usize {
        self.pending.len()
    }

    fn validate_request(&self, req: &Request) -> Result<()> {
        if let Some(b) = &req.budget {
            if b.sim_deadline_ns == 0 {
                return Err(crate::OocError::Config(format!(
                    "request {}: budget deadline must be ≥ 1 ns",
                    req.id
                )));
            }
        }
        let check = |key: usize| -> Result<&CsrMatrix> {
            self.matrix(key).ok_or_else(|| {
                crate::OocError::Config(format!(
                    "request {} references unknown or released matrix key {key}",
                    req.id
                ))
            })
        };
        let compat = |x: usize, y: usize| -> Result<()> {
            let (mx, my) = (check(x)?, check(y)?);
            if mx.n_cols() != my.n_rows() {
                return Err(crate::OocError::Config(format!(
                    "request {}: inner dimensions disagree ({}x{} . {}x{})",
                    req.id,
                    mx.n_rows(),
                    mx.n_cols(),
                    my.n_rows(),
                    my.n_cols()
                )));
            }
            Ok(())
        };
        match req.op {
            RequestOp::Multiply { a, b } => {
                check(a)?;
                check(b)?;
                compat(a, b)
            }
            RequestOp::Power { a, k } => {
                if k == 0 {
                    return Err(crate::OocError::Config("power requires k >= 1".into()));
                }
                check(a)?;
                compat(a, a)
            }
            RequestOp::TripleProduct { r, a, p } => {
                check(r)?;
                check(a)?;
                check(p)?;
                compat(r, a)?;
                compat(a, p)
            }
        }
    }

    /// The interned keys an operation references, with multiplicity
    /// (`[keys; n]` avoids an allocation per call).
    fn op_keys(op: &RequestOp) -> ([usize; 3], usize) {
        match *op {
            RequestOp::Multiply { a, b } => ([a, b, 0], 2),
            RequestOp::Power { a, .. } => ([a, 0, 0], 1),
            RequestOp::TripleProduct { r, a, p } => ([r, a, p], 3),
        }
    }

    /// Pins a request's operands for the admitted lifetime: released
    /// keys keep their storage until the last pinned request leaves.
    fn pin_operands(&mut self, op: &RequestOp) {
        let (keys, n) = Self::op_keys(op);
        for &k in &keys[..n] {
            self.matrices[k].pending_uses += 1;
        }
    }

    /// Unpins a terminal request's operands, freeing any slot whose
    /// caller references are gone and whose last pin this was.
    fn unpin_operands(&mut self, op: &RequestOp) {
        let (keys, n) = Self::op_keys(op);
        for &k in &keys[..n] {
            let slot = &mut self.matrices[k];
            slot.pending_uses -= 1;
            if slot.intern_refs == 0 && slot.pending_uses == 0 && slot.m.is_some() {
                self.free_slot(k);
            }
        }
    }

    /// Frees a fully released, unpinned slot: drops the matrix
    /// storage and every cached grid built on it.
    fn free_slot(&mut self, key: usize) {
        let slot = &mut self.matrices[key];
        debug_assert!(slot.intern_refs == 0 && slot.pending_uses == 0);
        if slot.m.take().is_none() {
            return;
        }
        let bytes = slot.bytes;
        self.stats.matrices_resident -= 1;
        self.stats.matrix_bytes -= bytes;
        self.stats.matrices_released += 1;
        let dead: Vec<GridKey> = self
            .grids
            .keys()
            .filter(|g| g.references(key))
            .copied()
            .collect();
        for g in dead {
            let e = self.grids.remove(&g).expect("key collected above");
            self.stats.resident_grid_bytes -= e.bytes;
            self.stats.resident_grids -= 1;
        }
        self.evicted.retain(|g| !g.references(key));
    }

    /// Operand access during execution: the pending pin taken at
    /// admission guarantees the storage is still resident.
    fn mat(&self, key: usize) -> &CsrMatrix {
        self.matrices[key]
            .m
            .as_ref()
            .expect("operand pinned by its pending request")
    }

    /// A-priori flop cost of an operation, used for quota accounting
    /// and admission — *not* for execution, which always reports the
    /// executor's actual flops. Chained ops approximate later hops by
    /// the first hop's flops (their true cost needs the intermediate
    /// product, which does not exist at admission time).
    fn op_cost_flops(&self, op: &RequestOp) -> u64 {
        match *op {
            RequestOp::Multiply { a, b } => sparse::stats::total_flops(self.mat(a), self.mat(b)),
            RequestOp::Power { a, k } => {
                let hop = sparse::stats::total_flops(self.mat(a), self.mat(a));
                hop.saturating_mul(u64::from(k.saturating_sub(1)).max(1))
            }
            RequestOp::TripleProduct { r, a, p } => {
                sparse::stats::total_flops(self.mat(r), self.mat(a))
                    .saturating_add(sparse::stats::total_flops(self.mat(a), self.mat(p)))
            }
        }
    }

    /// Absolute service-level deadline: arrival plus the budget's
    /// simulated-duration allowance. `None` for unbudgeted requests.
    fn abs_deadline(req: &Request) -> Option<u64> {
        req.budget
            .map(|b| req.arrival_ns.saturating_add(b.sim_deadline_ns))
    }

    /// Effective deadline driving dispatch order: budgeted requests
    /// use their real deadline, the rest age in on `aging_ns` slack.
    fn eff_deadline(&self, adm: &Admitted) -> u64 {
        match adm.req.budget {
            Some(b) => adm.req.arrival_ns.saturating_add(b.sim_deadline_ns),
            None => adm.req.arrival_ns.saturating_add(self.config.aging_ns),
        }
    }

    fn dispatch_until(&mut self, t_limit: u64) -> Result<()> {
        while self.dispatch_one(t_limit)? {}
        Ok(())
    }

    /// Dispatches the single queued request (or operand-sharing batch)
    /// with the earliest effective deadline, provided its start time
    /// lands strictly before `t_limit`. Returns whether it dispatched.
    ///
    /// Selection is strict: when the most urgent request is blocked on
    /// its quota refill, later-deadline requests wait behind it (the
    /// same head-of-line discipline the FIFO queue had), which keeps
    /// dispatch order independent of how far `t_limit` reaches ahead.
    fn dispatch_one(&mut self, t_limit: u64) -> Result<bool> {
        if self.pending.is_empty() {
            return Ok(false);
        }
        // Request-level work-stealing auction: the slot whose clock is
        // the global minimum claims the next request (ties to the
        // lowest index, like the chunk queue).
        let slot = (0..self.free_at.len())
            .min_by_key(|&s| (self.free_at[s], s))
            .expect("num_devices >= 1");
        // Deadline-aware selection: earliest effective deadline wins,
        // ties to admission order.
        let idx = (0..self.pending.len())
            .min_by_key(|&i| (self.eff_deadline(&self.pending[i]), self.pending[i].seq))
            .expect("pending non-empty");
        let (tenant, cost, arrival) = {
            let adm = &self.pending[idx];
            (adm.req.tenant.clone(), adm.cost, adm.req.arrival_ns)
        };
        let bucket = self
            .buckets
            .get(&tenant)
            .copied()
            .unwrap_or_else(|| Bucket::full(&self.config.quota));
        let earliest = self.free_at[slot].max(arrival);
        let start = bucket.ready_at(&self.config.quota, cost, earliest);
        if start >= t_limit {
            return Ok(false);
        }
        let head = self.pending.remove(idx).expect("index in bounds");
        // A request whose absolute deadline passed while it queued can
        // no longer meet it: complete as a miss, spending no device
        // time and no quota tokens.
        if let Some(d) = Self::abs_deadline(&head.req) {
            if start >= d {
                let queued = start.saturating_sub(head.req.arrival_ns);
                self.complete_deadline_miss(head.req, d, queued, start, None);
                return Ok(true);
            }
        }
        if start > earliest {
            // The tenant's bucket — not device availability — was the
            // binding constraint: the request waited on refill.
            self.tenants
                .get_mut(&tenant)
                .expect("tenant registered at submit")
                .quota_queued += 1;
        }
        // Operand-sharing batcher: pull up to batch_max-1 more pending
        // multiplies onto the same resident grid, provided their quota
        // is covered at this instant — counting tokens already
        // committed to earlier members of this batch, which the
        // buckets have not spent yet.
        let mut batch = vec![head];
        let mut committed: HashMap<String, u64> = HashMap::new();
        committed.insert(batch[0].req.tenant.clone(), batch[0].cost);
        if let RequestOp::Multiply { .. } = batch[0].req.op {
            let key = Self::multiply_key(&batch[0].req);
            let mut i = 0;
            while i < self.pending.len() && batch.len() < self.config.batch_max {
                let cand = &self.pending[i];
                let already = committed.get(&cand.req.tenant).copied().unwrap_or(0);
                let cand_bucket = self
                    .buckets
                    .get(&cand.req.tenant)
                    .copied()
                    .unwrap_or_else(|| Bucket::full(&self.config.quota));
                let available = cand_bucket.tokens_at(&self.config.quota, start);
                let joins = matches!(cand.req.op, RequestOp::Multiply { .. })
                    && Self::multiply_key(&cand.req) == key
                    && cand.req.arrival_ns <= start
                    && available >= already.saturating_add(cand.cost);
                if joins {
                    let cand = self.pending.remove(i).expect("index in bounds");
                    // A member the bucket could not have covered at its
                    // own arrival instant was bound by refill timing —
                    // it joins now only because tokens accrued while
                    // the batch head waited. Count it as quota-delayed
                    // so per-tenant aggregates stay honest.
                    if !self.config.quota.is_unlimited() {
                        let at_arrival =
                            cand_bucket.tokens_at(&self.config.quota, cand.req.arrival_ns);
                        if at_arrival < already.saturating_add(cand.cost) {
                            self.tenants
                                .get_mut(&cand.req.tenant)
                                .expect("tenant registered at submit")
                                .quota_queued += 1;
                        }
                    }
                    *committed.entry(cand.req.tenant.clone()).or_insert(0) += cand.cost;
                    batch.push(cand);
                } else {
                    i += 1;
                }
            }
        }
        let mut t = start;
        // The batch shares one grid by construction: resolve it once
        // at the head and pass the Rc through members, so a capped
        // cache (which may refuse or immediately evict the insert)
        // still prepares at most once per batch.
        let mut shared_grid: Option<Rc<PreparedGrid>> = None;
        for admitted in batch {
            let Admitted { req, cost, .. } = admitted;
            // Time advanced past this member's absolute deadline while
            // earlier members ran: miss without executing.
            if let Some(d) = Self::abs_deadline(&req) {
                if t >= d {
                    let queued = t.saturating_sub(req.arrival_ns);
                    self.complete_deadline_miss(req, d, queued, t, None);
                    continue;
                }
            }
            self.buckets
                .entry(req.tenant.clone())
                .or_insert_with(|| Bucket::full(&self.config.quota))
                .spend(&self.config.quota, cost, t);
            let exec = match req.op {
                RequestOp::Multiply { a, b } => match &shared_grid {
                    Some(g) => self.execute_multiply(&req, a, &Rc::clone(g), true),
                    None => {
                        let resolved = self.grid_for(&req, a, b);
                        match resolved {
                            Ok((g, resident_hit)) => {
                                shared_grid = Some(Rc::clone(&g));
                                self.execute_multiply(&req, a, &g, resident_hit)
                            }
                            Err(e) => Err(e),
                        }
                    }
                },
                _ => self.execute_chained_op(&req),
            };
            match exec {
                Ok(exec) => {
                    let start_ns = t;
                    let finish_ns = t + exec.sim_ns;
                    t = finish_ns;
                    self.last_pool_frac = exec.metrics.pool_high_water_bytes as f64
                        / self.config.gpu.device.device_memory_bytes.max(1) as f64;
                    let stats = self
                        .tenants
                        .get_mut(&req.tenant)
                        .expect("tenant registered at submit");
                    stats.completed += 1;
                    stats.flops += exec.flops;
                    stats.busy_ns += exec.sim_ns;
                    stats.queued_ns += start_ns - req.arrival_ns;
                    if exec.batch_hit {
                        stats.batch_hits += 1;
                    }
                    self.unpin_operands(&req.op);
                    self.completions.push(Completion {
                        id: req.id,
                        tenant: req.tenant,
                        outcome: Outcome::Completed {
                            c: exec.c,
                            metrics: Box::new(exec.metrics),
                            queued_ns: start_ns - req.arrival_ns,
                            start_ns,
                            finish_ns,
                            batch_hit: exec.batch_hit,
                        },
                    });
                }
                Err(crate::OocError::DeadlineExceeded {
                    deadline_ns,
                    elapsed_ns,
                    partial,
                    ..
                }) => {
                    // The executor's own budget supervisor gave up:
                    // the aborted run still burned device time.
                    let missed_at = t.saturating_add(elapsed_ns);
                    let abs =
                        Self::abs_deadline(&req).unwrap_or_else(|| t.saturating_add(deadline_ns));
                    let queued = t.saturating_sub(req.arrival_ns);
                    self.complete_deadline_miss(req, abs, queued, missed_at, Some(partial));
                    t = missed_at;
                }
                Err(e) => return Err(e),
            }
        }
        self.free_at[slot] = t;
        Ok(true)
    }

    /// Terminal bookkeeping for a deadline miss: tenant and service
    /// counters, operand unpin, and the completion record.
    fn complete_deadline_miss(
        &mut self,
        req: Request,
        deadline_ns: u64,
        queued_ns: u64,
        missed_at_ns: u64,
        partial: Option<Box<Metrics>>,
    ) {
        let stats = self
            .tenants
            .get_mut(&req.tenant)
            .expect("tenant registered at submit");
        stats.deadline_missed += 1;
        stats.queued_ns += queued_ns;
        self.stats.deadline_missed += 1;
        self.unpin_operands(&req.op);
        self.completions.push(Completion {
            id: req.id,
            tenant: req.tenant,
            outcome: Outcome::DeadlineExceeded {
                deadline_ns,
                queued_ns,
                missed_at_ns,
                partial,
            },
        });
    }

    fn multiply_key(req: &Request) -> GridKey {
        match req.op {
            RequestOp::Multiply { a, b } => GridKey::new(a, b, &req.estimator),
            _ => unreachable!("multiply_key called on a non-multiply request"),
        }
    }

    /// Resolves the prepared grid for a multiply: resident-cache hit,
    /// or prepare-and-insert (which may evict under the byte cap).
    /// The bool is true on a cache hit.
    fn grid_for(&mut self, req: &Request, a: usize, b: usize) -> Result<(Rc<PreparedGrid>, bool)> {
        let key = GridKey::new(a, b, &req.estimator);
        self.lru_tick += 1;
        let tick = self.lru_tick;
        if let Some(e) = self.grids.get_mut(&key) {
            e.last_used = tick;
            return Ok((Rc::clone(&e.grid), true));
        }
        let gpu = self.request_gpu(req);
        let pg = prepare_grid_pooled(self.mat(a), self.mat(b), &gpu, &self.pool)?;
        let g = Rc::new(pg);
        self.grid_insert(key, &g);
        Ok((g, false))
    }

    /// Inserts a freshly prepared grid, evicting least-recently-used
    /// residents until it fits under the byte cap. A grid larger than
    /// the whole cap is never cached (the preparing batch uses it
    /// transiently); either way a later re-preparation of the same key
    /// counts as a rebuild.
    fn grid_insert(&mut self, key: GridKey, grid: &Rc<PreparedGrid>) {
        let bytes = grid.resident_bytes();
        if self.evicted.remove(&key) {
            self.stats.grid_rebuilds += 1;
        }
        if let Some(cap) = self.config.grid_cache_bytes {
            if bytes > cap {
                self.evicted.insert(key);
                return;
            }
            while self.stats.resident_grid_bytes.saturating_add(bytes) > cap {
                // LRU stamps are unique (one monotone tick per touch),
                // so the victim is deterministic regardless of hash
                // iteration order.
                let victim = self
                    .grids
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k);
                let Some(victim) = victim else { break };
                let e = self.grids.remove(&victim).expect("victim present");
                self.stats.resident_grid_bytes -= e.bytes;
                self.stats.resident_grids -= 1;
                self.stats.grid_evictions += 1;
                self.evicted.insert(victim);
            }
        }
        self.lru_tick += 1;
        self.grids.insert(
            key,
            CachedGrid {
                grid: Rc::clone(grid),
                bytes,
                last_used: self.lru_tick,
            },
        );
        self.stats.grid_inserts += 1;
        self.stats.resident_grid_bytes += bytes;
        self.stats.resident_grids += 1;
        self.stats.resident_grid_high_water_bytes = self
            .stats
            .resident_grid_high_water_bytes
            .max(self.stats.resident_grid_bytes);
    }

    /// Per-request GPU config: service baseline with the request's
    /// scheduler-independent knobs applied.
    fn request_gpu(&self, req: &Request) -> OocConfig {
        let mut gpu = self.config.gpu.clone().estimator(req.estimator);
        gpu.budget = req.budget;
        if req.host_faults.is_some() {
            gpu.host_faults = req.host_faults.clone();
        }
        gpu
    }

    fn execute_multiply(
        &mut self,
        req: &Request,
        a: usize,
        grid: &Rc<PreparedGrid>,
        batch_hit: bool,
    ) -> Result<Executed> {
        let gpu = self.request_gpu(req);
        let hybrid = Hybrid::new(HybridConfig {
            gpu,
            gpu_ratio: self.config.gpu_ratio,
            reorder_assignment: true,
            scheduler: req.scheduler,
        });
        let run = hybrid.multiply_prepared(self.mat(a), grid)?;
        Ok(Executed {
            c: run.c,
            sim_ns: run.sim_ns,
            flops: run.flops,
            metrics: run.metrics,
            batch_hit,
        })
    }

    fn execute_chained_op(&mut self, req: &Request) -> Result<Executed> {
        let gpu = self.request_gpu(req);
        match req.op {
            RequestOp::Power { a, k } => {
                let run = OutOfCoreGpu::new(gpu).power(self.mat(a), k)?;
                self.chained_executed(req, run)
            }
            RequestOp::TripleProduct { r, a, p } => {
                let run =
                    OutOfCoreGpu::new(gpu).triple_product(self.mat(r), self.mat(a), self.mat(p))?;
                self.chained_executed(req, run)
            }
            RequestOp::Multiply { .. } => {
                unreachable!("multiplies execute through execute_multiply")
            }
        }
    }

    fn chained_executed(
        &self,
        req: &Request,
        run: crate::executor::ChainedRun,
    ) -> Result<Executed> {
        // Chained runs report the final hop's metrics (the shape of the
        // last product dominates residency) and the a-priori flop
        // estimate (true chained flops need every intermediate).
        let metrics = run.metrics.last().cloned().unwrap_or_default();
        let flops = self
            .op_cost_flops(&req.op)
            .min(self.config.quota.capacity_flops);
        Ok(Executed {
            c: run.c,
            sim_ns: run.sim_ns,
            flops,
            metrics,
            batch_hit: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen::erdos_renyi;

    fn small_config() -> ServiceConfig {
        ServiceConfig::new().gpu(OocConfig::with_device_memory(1 << 20).panels(2, 2))
    }

    fn fixture() -> CsrMatrix {
        erdos_renyi(300, 300, 0.02, 5)
    }

    fn tiny_fixture() -> CsrMatrix {
        erdos_renyi(160, 160, 0.03, 9)
    }

    fn completed_product(c: &Completion) -> &CsrMatrix {
        match &c.outcome {
            Outcome::Completed { c, .. } => c,
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn single_multiply_matches_one_shot_hybrid_bitwise() {
        let a = fixture();
        let cfg = small_config();
        let one_shot = Hybrid::new(HybridConfig {
            gpu: cfg.gpu.clone(),
            gpu_ratio: cfg.gpu_ratio,
            reorder_assignment: true,
            scheduler: SchedulerKind::default(),
        })
        .multiply(&a, &a)
        .unwrap();

        let mut svc = Service::new(cfg).unwrap();
        let ka = svc.intern(a);
        svc.submit(Request::multiply(1, "t0", ka, ka)).unwrap();
        let done = svc.drain().unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(completed_product(&done[0]), &one_shot.c);
    }

    #[test]
    fn queue_full_sheds_and_counts_per_tenant() {
        let a = fixture();
        let mut svc = Service::new(small_config().queue_capacity(1)).unwrap();
        let ka = svc.intern(a);
        // Same arrival instant: the first fills the queue, the second
        // is shed before any dispatch can happen.
        svc.submit(Request::multiply(1, "t0", ka, ka)).unwrap();
        svc.submit(Request::multiply(2, "t1", ka, ka)).unwrap();
        let done = svc.drain().unwrap();
        let shed: Vec<_> = done.iter().filter(|c| !c.is_completed()).collect();
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].id, 2);
        let m = svc.metrics();
        let t1 = m.tenants.iter().find(|t| t.tenant == "t1").unwrap();
        assert_eq!(t1.shed, 1);
        assert_eq!(t1.completed, 0);
    }

    #[test]
    fn quota_exhaustion_queues_and_charges_wait_time() {
        let a = fixture();
        // A bucket that covers exactly one request, refilled slowly.
        let flops = sparse::stats::total_flops(&a, &a);
        let quota = TenantQuota::new(flops, 1.max(flops / 1000));
        let mut svc = Service::new(small_config().quota(quota)).unwrap();
        let ka = svc.intern(a);
        svc.submit(Request::multiply(1, "t0", ka, ka)).unwrap();
        svc.submit(Request::multiply(2, "t0", ka, ka)).unwrap();
        let done = svc.drain().unwrap();
        assert!(done.iter().all(|c| c.is_completed()));
        let m = svc.metrics();
        let t0 = &m.tenants[0];
        assert_eq!(t0.quota_queued, 1, "second request must wait on refill");
        assert!(t0.queued_ns > 0, "the wait must cost simulated time");
    }

    #[test]
    fn batcher_reuses_resident_grid() {
        let a = fixture();
        let mut svc = Service::new(small_config()).unwrap();
        let ka = svc.intern(a);
        svc.submit(Request::multiply(1, "t0", ka, ka)).unwrap();
        svc.submit(Request::multiply(2, "t1", ka, ka)).unwrap();
        let done = svc.drain().unwrap();
        let hits = done
            .iter()
            .filter(|c| {
                matches!(
                    c.outcome,
                    Outcome::Completed {
                        batch_hit: true,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(hits, 1, "second multiply must reuse the resident grid");
        // And bit-identical results regardless of who prepared.
        let cs: Vec<_> = done
            .iter()
            .filter_map(|c| match &c.outcome {
                Outcome::Completed { c, .. } => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(cs[0], cs[1]);
    }

    #[test]
    fn chained_ops_complete_and_match_one_shot() {
        let a = fixture();
        let cfg = small_config();
        let one_shot = OutOfCoreGpu::new(cfg.gpu.clone()).power(&a, 3).unwrap();
        let mut svc = Service::new(cfg).unwrap();
        let ka = svc.intern(a);
        svc.submit(Request::power(1, "t0", ka, 3)).unwrap();
        let done = svc.drain().unwrap();
        assert_eq!(completed_product(&done[0]), &one_shot.c);
    }

    #[test]
    fn unknown_matrix_key_is_an_error_not_a_panic() {
        let mut svc = Service::new(small_config()).unwrap();
        assert!(svc.submit(Request::multiply(1, "t0", 0, 0)).is_err());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Service::new(small_config().devices(0)).is_err());
        assert!(Service::new(small_config().queue_capacity(0)).is_err());
        assert!(Service::new(small_config().batch_max(0)).is_err());
        assert!(Service::new(small_config().quota(TenantQuota::new(10, 0))).is_err());
    }

    #[test]
    fn zero_refill_finite_quota_is_a_config_error_not_a_panic() {
        // Regression: a bounded quota with refill 0 used to reach the
        // refill-wait division in `Bucket::ready_at` and panic on the
        // first quota-blocked dispatch. It must be rejected cleanly at
        // construction instead.
        let err = Service::new(small_config().quota(TenantQuota::new(1_000, 0)))
            .err()
            .expect("bounded zero-refill quota must be rejected");
        match err {
            crate::OocError::Config(msg) => {
                assert!(msg.contains("refill"), "unhelpful message: {msg}")
            }
            other => panic!("expected Config error, got {other:?}"),
        }
        // Unlimited quotas never consult the refill rate and stay valid.
        assert!(Service::new(small_config().quota(TenantQuota::unlimited())).is_ok());
        // Defense in depth: even if validation were bypassed, ready_at
        // reports "never" instead of dividing by zero.
        let quota = TenantQuota::new(1_000, 0);
        let bucket = Bucket {
            tokens: 0,
            last_ns: 0,
        };
        assert_eq!(bucket.ready_at(&quota, 500, 10), u64::MAX);
    }

    #[test]
    fn intern_dedups_identical_matrices_onto_one_key() {
        let a = tiny_fixture();
        let mut svc = Service::new(small_config()).unwrap();
        let k1 = svc.intern(a.clone());
        let k2 = svc.intern(a.clone());
        assert_eq!(k1, k2, "byte-identical operands must share a key");
        // Distinct content gets a distinct key.
        let b = erdos_renyi(160, 160, 0.03, 10);
        let kb = svc.intern(b);
        assert_ne!(k1, kb);
        // Two requests built from separately interned (deduped) copies
        // batch onto one resident grid.
        svc.submit(Request::multiply(1, "t0", k1, k1)).unwrap();
        svc.submit(Request::multiply(2, "t1", k2, k2)).unwrap();
        let done = svc.drain().unwrap();
        let hits = done
            .iter()
            .filter(|c| {
                matches!(
                    c.outcome,
                    Outcome::Completed {
                        batch_hit: true,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(hits, 1, "deduped operands must batch");
        assert_eq!(svc.service_stats().grid_inserts, 1);
        // The dedup took a second reference: one release keeps the key
        // alive, the second frees it.
        svc.release(k1).unwrap();
        assert!(svc.matrix(k1).is_some());
        svc.release(k1).unwrap();
        assert!(svc.matrix(k1).is_none());
        assert!(svc.release(k1).is_err(), "over-release must error");
    }

    #[test]
    fn release_frees_storage_and_cached_grids() {
        let a = tiny_fixture();
        let bytes = csr_resident_bytes(&a);
        let mut svc = Service::new(small_config()).unwrap();
        let ka = svc.intern(a);
        assert_eq!(svc.service_stats().matrix_bytes, bytes);
        svc.submit(Request::multiply(1, "t0", ka, ka)).unwrap();
        svc.drain().unwrap();
        assert_eq!(svc.service_stats().resident_grids, 1);
        svc.release(ka).unwrap();
        let stats = svc.service_stats();
        assert_eq!(stats.matrices_resident, 0);
        assert_eq!(stats.matrix_bytes, 0);
        assert_eq!(stats.matrices_released, 1);
        assert_eq!(
            stats.resident_grids, 0,
            "grids built on a freed operand must drop with it"
        );
        assert!(svc.matrix(ka).is_none());
        // A released key is dead to new submissions.
        assert!(svc.submit(Request::multiply(2, "t0", ka, ka)).is_err());
        assert!(svc.release(99).is_err(), "unknown key must error");
    }

    #[test]
    fn release_defers_freeing_while_requests_are_pending() {
        let a = tiny_fixture();
        let mut svc = Service::new(small_config()).unwrap();
        let ka = svc.intern(a);
        svc.submit(Request::multiply(1, "t0", ka, ka).at(100))
            .unwrap();
        // Release while the request still waits in the queue: the
        // handle dies immediately, the storage survives the pin.
        svc.release(ka).unwrap();
        assert!(svc.matrix(ka).is_none(), "handle must die at release");
        assert_eq!(svc.service_stats().matrices_resident, 1);
        let done = svc.drain().unwrap();
        assert_eq!(done.len(), 1);
        assert!(done[0].is_completed(), "pinned storage must serve the run");
        let stats = svc.service_stats();
        assert_eq!(stats.matrices_resident, 0, "last unpin must free");
        assert_eq!(stats.matrices_released, 1);
    }

    #[test]
    fn grid_cache_eviction_is_invisible_in_the_results() {
        let a = tiny_fixture();
        let b = erdos_renyi(160, 160, 0.04, 11);
        // Unbounded reference run.
        let mut unbounded = Service::new(small_config()).unwrap();
        let (ka, kb) = (unbounded.intern(a.clone()), unbounded.intern(b.clone()));
        // Alternate keys with gaps too wide to batch, so the second
        // visit to each key exercises the cache (hit when unbounded,
        // rebuild when capped).
        let submit_all = |svc: &mut Service| {
            let pairs = [(ka, ka), (ka, kb), (ka, ka), (ka, kb)];
            for (i, (x, y)) in pairs.iter().enumerate() {
                let req = Request::multiply(i as u64 + 1, "t0", *x, *y).at(i as u64 * 40_000_000);
                svc.submit(req).unwrap();
            }
        };
        submit_all(&mut unbounded);
        let reference = unbounded.drain().unwrap();
        assert!(unbounded.service_stats().grid_evictions == 0);

        // A cache one byte too small for both grids (but big enough
        // for either alone): the alternation forces eviction and
        // rebuild.
        let cap = unbounded.service_stats().resident_grid_high_water_bytes - 1;
        let mut capped = Service::new(small_config().grid_cache_bytes(cap)).unwrap();
        let (ka2, kb2) = (capped.intern(a), capped.intern(b));
        assert_eq!((ka2, kb2), (ka, kb), "fresh service interns the same keys");
        submit_all(&mut capped);
        let capped_done = capped.drain().unwrap();
        let stats = capped.service_stats();
        assert!(
            stats.grid_evictions >= 1,
            "the cap must have evicted: {stats:?}"
        );
        assert!(
            stats.grid_rebuilds >= 1,
            "a re-visited evicted key must count as a rebuild: {stats:?}"
        );
        assert!(
            stats.resident_grid_bytes <= cap,
            "resident bytes {} exceed cap {}",
            stats.resident_grid_bytes,
            cap
        );
        // Bit-identical completions, cap or no cap.
        assert_eq!(reference.len(), capped_done.len());
        for (r, c) in reference.iter().zip(&capped_done) {
            assert_eq!(r.id, c.id);
            assert_eq!(completed_product(r), completed_product(c));
        }
    }

    #[test]
    fn disabled_cache_still_shares_the_grid_within_a_batch() {
        let a = tiny_fixture();
        // cap 0: nothing is ever resident.
        let mut svc = Service::new(small_config().grid_cache_bytes(0)).unwrap();
        let ka = svc.intern(a);
        svc.submit(Request::multiply(1, "t0", ka, ka)).unwrap();
        svc.submit(Request::multiply(2, "t1", ka, ka)).unwrap();
        let done = svc.drain().unwrap();
        assert!(done.iter().all(|c| c.is_completed()));
        let hits = done
            .iter()
            .filter(|c| {
                matches!(
                    c.outcome,
                    Outcome::Completed {
                        batch_hit: true,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(hits, 1, "batch members share the head's grid Rc");
        let stats = svc.service_stats();
        assert_eq!(stats.resident_grids, 0);
        assert_eq!(stats.resident_grid_bytes, 0);
    }

    #[test]
    fn deadline_ordering_dispatches_urgent_requests_first() {
        let a = tiny_fixture();
        let b = erdos_renyi(160, 160, 0.04, 12);
        // batch_max 1 so the three requests dispatch individually.
        let mut svc = Service::new(small_config().batch_max(1)).unwrap();
        let ka = svc.intern(a);
        let kb = svc.intern(b);
        // Request 1 occupies the device; 2 (unbudgeted, effective
        // deadline = aging slack) and 3 (budgeted tighter than the
        // aging slack, but generous enough to meet) queue behind it.
        // Deadline order must run 3 before 2 even though 2 was
        // admitted first.
        svc.submit(Request::multiply(1, "t0", ka, ka)).unwrap();
        // Arriving at t=1 puts both behind request 1, which dispatched
        // at t=0 when their submission advanced simulated time.
        svc.submit(Request::multiply(2, "t0", ka, kb).at(1))
            .unwrap();
        svc.submit(
            Request::multiply(3, "t0", kb, kb)
                .at(1)
                .budget(RunBudget::deadline(DEFAULT_AGING_NS - 1)),
        )
        .unwrap();
        let done = svc.drain().unwrap();
        let order: Vec<u64> = done.iter().map(|c| c.id).collect();
        assert_eq!(order, vec![1, 3, 2], "earliest effective deadline wins");
        assert!(
            done.iter().all(|c| c.is_completed()),
            "generous budget completes"
        );
    }

    #[test]
    fn hopeless_deadline_misses_at_dispatch_without_executing() {
        let a = fixture();
        let mut svc = Service::new(small_config()).unwrap();
        let ka = svc.intern(a);
        svc.submit(Request::multiply(1, "t0", ka, ka)).unwrap();
        // Arrives after request 1 started; by the time the device
        // frees, its 1 ns deadline is long gone.
        svc.submit(
            Request::multiply(2, "t0", ka, ka)
                .at(1)
                .budget(RunBudget::deadline(1)),
        )
        .unwrap();
        let done = svc.drain().unwrap();
        assert_eq!(done.len(), 2);
        assert!(done[0].is_completed());
        match &done[1].outcome {
            Outcome::DeadlineExceeded {
                deadline_ns,
                partial,
                missed_at_ns,
                ..
            } => {
                assert_eq!(*deadline_ns, 2, "absolute deadline is arrival + budget");
                assert!(partial.is_none(), "dispatch-time miss never executes");
                assert!(*missed_at_ns >= 2);
            }
            other => panic!("expected deadline miss, got {other:?}"),
        }
        let m = svc.metrics();
        let t0 = m.tenants.iter().find(|t| t.tenant == "t0").unwrap();
        assert_eq!(t0.deadline_missed, 1);
        assert_eq!(svc.service_stats().deadline_missed, 1);
    }

    #[test]
    fn executor_budget_abort_surfaces_as_a_deadline_completion() {
        let a = fixture();
        let mut svc = Service::new(small_config()).unwrap();
        let ka = svc.intern(a);
        // Starts immediately (deadline not yet passed at dispatch) but
        // 1 ns of simulated budget cannot cover any real run: the
        // executor's supervisor aborts and the service converts the
        // error into a completion instead of poisoning the drain.
        svc.submit(Request::multiply(1, "t0", ka, ka).budget(RunBudget::deadline(1)))
            .unwrap();
        let done = svc.drain().unwrap();
        assert_eq!(done.len(), 1);
        match &done[0].outcome {
            Outcome::DeadlineExceeded { partial, .. } => {
                assert!(
                    partial.is_some(),
                    "an executor abort carries partial accounting"
                );
            }
            other => panic!("expected deadline miss, got {other:?}"),
        }
        assert_eq!(svc.service_stats().deadline_missed, 1);
    }

    #[test]
    fn batch_members_bound_by_refill_count_as_quota_queued() {
        let a = tiny_fixture();
        let b = erdos_renyi(160, 160, 0.04, 13);
        let mut svc_probe = Service::new(small_config()).unwrap();
        let (pa, pb) = (svc_probe.intern(a.clone()), svc_probe.intern(b.clone()));
        let head_cost = sparse::stats::total_flops(
            svc_probe.matrix(pa).unwrap(),
            svc_probe.matrix(pa).unwrap(),
        );
        let member_cost = sparse::stats::total_flops(
            svc_probe.matrix(pa).unwrap(),
            svc_probe.matrix(pb).unwrap(),
        );
        // Tenant B's bucket covers exactly its first request; the
        // refill is fast enough to cover the batch member by the time
        // the batch head dispatches (request 1 runs a few hundred µs),
        // but could not cover it at its own arrival instant.
        let quota = TenantQuota::new(
            head_cost.max(member_cost),
            member_cost.saturating_mul(3).max(1_000),
        );
        let mut svc = Service::new(small_config().quota(quota)).unwrap();
        let (ka, kb) = (svc.intern(a), svc.intern(b));
        // B's opener drains B's bucket at t=0.
        svc.submit(Request::multiply(1, "tenant-b", ka, ka))
            .unwrap();
        // A's request and B's operand-sharing request queue behind it.
        svc.submit(Request::multiply(2, "tenant-a", ka, kb))
            .unwrap();
        svc.submit(Request::multiply(3, "tenant-b", ka, kb))
            .unwrap();
        let done = svc.drain().unwrap();
        assert!(done.iter().all(|c| c.is_completed()));
        let m = svc.metrics();
        let tb = m.tenants.iter().find(|t| t.tenant == "tenant-b").unwrap();
        assert_eq!(
            tb.batch_hits, 1,
            "request 3 must join request 2's batch: {tb:?}"
        );
        assert_eq!(
            tb.quota_queued, 1,
            "a batch member admitted only by refill timing is quota-delayed: {tb:?}"
        );
    }

    #[test]
    fn streaming_poll_hands_out_completions_incrementally() {
        let a = tiny_fixture();
        let mut svc = Service::new(small_config().batch_max(1)).unwrap();
        let ka = svc.intern(a);
        svc.submit(Request::multiply(1, "t0", ka, ka)).unwrap();
        svc.submit(Request::multiply(2, "t0", ka, ka)).unwrap();
        assert!(svc.step().unwrap());
        let first = svc.poll_completions();
        assert_eq!(first.len(), 1, "one step, one completion");
        assert_eq!(svc.completions_buffered(), 0);
        assert!(svc.step().unwrap());
        assert!(!svc.step().unwrap(), "queue exhausted");
        let second = svc.poll_completions();
        assert_eq!(second.len(), 1);
        assert_ne!(first[0].id, second[0].id);
        assert!(svc.drain().unwrap().is_empty(), "nothing left to drain");
    }
}
