//! Service-frontend trace harness: seeded deterministic request
//! traces through [`oocgemm::Service`], verified bit-for-bit.
//!
//! A trace is a list of timed, per-tenant requests over a small pool
//! of generated matrices, with per-request scheduler/estimator knobs
//! drawn from a seeded stream. The runner plays the trace through the
//! service and re-computes every completed request with the equivalent
//! one-shot executor call ([`Hybrid::multiply`] for multiplies,
//! [`oocgemm::OutOfCoreGpu`] for chained ops) — any byte of difference
//! is a mismatch. The `repro serve` scenario runs the default
//! 64-request / 4-tenant trace and exits non-zero on mismatches, which
//! makes a fixed-seed invocation a CI stage; `spgemm serve --trace
//! FILE` replays (or writes) a trace file.

use oocgemm::{
    EstimateConfig, HostFaultPlan, Hybrid, HybridConfig, Metrics, OocConfig, Outcome, Request,
    RequestOp, RunBudget, SchedulerKind, Service, ServiceConfig, TenantQuota,
};
use sparse::gen::erdos_renyi;
use sparse::CsrMatrix;

/// Splitmix64 — the trace generator's only randomness source; seeded,
/// allocation-free, and dependency-free (`rand` is a dev-dependency
/// only).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generator spec of one pooled matrix, kept in the trace file so a
/// replay regenerates the identical operand set.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct MatrixSpec {
    /// Square dimension.
    pub n: usize,
    /// Erdős–Rényi density.
    pub density: f64,
    /// Generator seed.
    pub seed: u64,
}

impl MatrixSpec {
    /// Materializes the matrix.
    pub fn generate(&self) -> CsrMatrix {
        erdos_renyi(self.n, self.n, self.density, self.seed)
    }
}

/// One trace entry. Operands are indices into the trace's matrix pool.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct TraceRequest {
    /// Request id (unique within the trace).
    pub id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// Simulated arrival, ns.
    pub arrival_ns: u64,
    /// `multiply` | `power` | `triple`.
    pub op: String,
    /// Operand pool indices (2 for multiply, 1 for power, 3 for triple).
    pub operands: Vec<usize>,
    /// Power exponent (ignored for the other ops).
    pub k: u32,
    /// `stealing` | `work-stealing` | `static`, as `spgemm --scheduler`
    /// spells it.
    pub scheduler: String,
    /// Estimator kind name, as `spgemm --estimator` spells it.
    pub estimator: String,
    /// Estimator headroom.
    pub headroom: f64,
    /// Host-fault seed; 0 means no injected host faults.
    pub host_fault_seed: u64,
    /// Deadline budget measured from arrival, ns; absent or 0 means
    /// unbudgeted (so pre-deadline trace files replay unchanged).
    /// Budgeted requests dispatch in earliest-deadline order and
    /// complete as deadline misses when the budget cannot be met.
    pub deadline_ns: Option<u64>,
}

/// A full serialized trace.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ServeTrace {
    /// Root seed the trace was derived from.
    pub seed: u64,
    /// Tenant count (tenants are named `t0..t{n-1}`).
    pub tenants: usize,
    /// The operand pool.
    pub matrices: Vec<MatrixSpec>,
    /// The timed request list, in arrival order.
    pub requests: Vec<TraceRequest>,
}

/// Opening-storm size: this many requests arrive at t=0 together, so
/// the admission queue overflows and at least one request is shed.
const STORM: usize = 10;
/// Arrival spacing after the storm, ns — slightly slower than the
/// simulated per-request service time, so the backlog drains.
const SPACING_NS: u64 = 900_000;
/// Quiet gap between the storm and the steady arrivals, ns.
const SETTLE_NS: u64 = 2_000_000;

/// Generates the seeded deterministic trace: `requests` requests from
/// `tenants` tenants over a 3-matrix pool. The first [`STORM`]
/// requests arrive together at t=0 (overflowing the harness queue);
/// the rest arrive at a steady [`SPACING_NS`] cadence. Per-request
/// scheduler/estimator knobs are drawn from a seeded stream.
pub fn gen_trace(requests: usize, tenants: usize, seed: u64) -> ServeTrace {
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    // One shared dimension so every random operand pairing multiplies;
    // densities differ so the pool still spans distinct flop profiles.
    let matrices = vec![
        MatrixSpec {
            n: 300,
            density: 0.025,
            seed: seed.wrapping_add(1),
        },
        MatrixSpec {
            n: 300,
            density: 0.02,
            seed: seed.wrapping_add(2),
        },
        MatrixSpec {
            n: 300,
            density: 0.012,
            seed: seed.wrapping_add(3),
        },
    ];
    let pool = matrices.len();
    let mut out = Vec::with_capacity(requests);
    // A small set of operand pairs (rather than all pool^2 combos)
    // keeps grid-cache keys recurring, so the batcher and resident
    // matrix cache actually get hits.
    let pairs = [(0usize, 1usize), (1, 2), (0, 2)];
    for i in 0..requests {
        let r = splitmix64(&mut rng);
        let tenant = format!("t{}", r as usize % tenants.max(1));
        let arrival_ns = if i < STORM {
            0
        } else {
            SETTLE_NS + (i - STORM) as u64 * SPACING_NS
        };
        let (a, b) = pairs[(r >> 8) as usize % pairs.len()];
        // Mostly multiplies (they exercise the batcher); a sprinkle of
        // chained ops exercises adaptive headroom end to end.
        let (op, operands, k) = match r % 8 {
            6 => ("power".to_string(), vec![a], 2 + (r >> 24) as u32 % 2),
            7 => ("triple".to_string(), vec![a, b, (a + 1) % pool], 0),
            _ => ("multiply".to_string(), vec![a, b], 0),
        };
        let scheduler = if (r >> 32) % 2 == 0 {
            "stealing"
        } else {
            "static"
        };
        let estimator = match (r >> 34) % 4 {
            0 => "exact",
            1 => "upper-bound",
            _ => "row-sample",
        };
        let headroom = 1.3;
        // A quarter of the requests run under injected host faults —
        // recovery must stay invisible in the completed products.
        let host_fault_seed = if (r >> 44) % 4 == 0 {
            seed.wrapping_add(i as u64) | 1
        } else {
            0
        };
        out.push(TraceRequest {
            id: i as u64 + 1,
            tenant,
            arrival_ns,
            op,
            operands,
            k,
            scheduler: scheduler.to_string(),
            estimator: estimator.to_string(),
            headroom,
            host_fault_seed,
            deadline_ns: None,
        });
    }
    ServeTrace {
        seed,
        tenants,
        matrices,
        requests: out,
    }
}

/// Generous per-request deadline used by the soak trace, ns: long
/// enough that a request dispatched promptly completes.
pub const SOAK_DEADLINE_NS: u64 = 80_000_000;

/// The soak variant of [`gen_trace`]: the same seeded request stream,
/// with deadline budgets sprinkled in. Every 9th request gets a 1 ns
/// budget it can never meet (pinning the deadline-miss path); every
/// 5th gets a generous [`SOAK_DEADLINE_NS`] budget it meets (pinning
/// that budgeted requests still complete bit-identically under
/// earliest-deadline dispatch).
pub fn gen_soak_trace(requests: usize, tenants: usize, seed: u64) -> ServeTrace {
    let mut trace = gen_trace(requests, tenants, seed);
    for (i, t) in trace.requests.iter_mut().enumerate() {
        if i % 9 == 4 {
            t.deadline_ns = Some(1);
        } else if i % 5 == 3 {
            t.deadline_ns = Some(SOAK_DEADLINE_NS);
        }
    }
    trace
}

/// Grid-cache byte cap used by the soak harness: 1.5x one prepared
/// grid of the trace's first operand pair, so the pool of recurring
/// grid keys cannot all stay resident and eviction must fire.
pub fn soak_cap(trace: &ServeTrace, config: &ServiceConfig) -> u64 {
    let a = trace.matrices[0].generate();
    let b = trace.matrices[1].generate();
    let grid = oocgemm::prepare_grid(&a, &b, &config.gpu).expect("soak sizing grid");
    grid.resident_bytes() * 3 / 2
}

/// Service sizing used by the harness: a deliberately small frontend
/// (shallow queue, bounded per-tenant flops) so the default trace
/// exercises the shed and quota paths, not just the happy path.
pub fn harness_config() -> ServiceConfig {
    ServiceConfig::new()
        .gpu(OocConfig::with_device_memory(1 << 20).panels(2, 2))
        .queue_capacity(6)
        .quota(TenantQuota::new(60_000, 20_000))
        .batch_max(4)
}

/// Outcome of one replayed trace.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ServeReport {
    /// Root seed of the trace.
    pub seed: u64,
    /// Requests submitted.
    pub submitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed by admission.
    pub shed: u64,
    /// Requests that waited on a quota refill.
    pub quota_queued: u64,
    /// Completed requests that reused a resident prepared grid.
    pub batch_hits: u64,
    /// Completed requests whose product differed from the equivalent
    /// one-shot call (must be 0).
    pub mismatches: u64,
    /// Requests that completed as deadline misses.
    pub deadline_missed: u64,
    /// Grid-cache byte cap the trace ran under (`None` = unbounded).
    pub grid_cache_bytes: Option<u64>,
    /// Grids evicted from the resident cache under byte pressure.
    pub grid_evictions: u64,
    /// Grids rebuilt after an earlier eviction.
    pub grid_rebuilds: u64,
    /// High-water mark of resident grid bytes over the whole trace.
    pub resident_high_water_bytes: u64,
    /// Steps at which resident grid bytes exceeded the configured cap
    /// (must be 0 whenever a cap is set).
    pub cap_violations: u64,
    /// Simulated makespan of the trace, ns.
    pub makespan_ns: u64,
    /// The service's metrics: per-tenant aggregates and residency.
    pub metrics: Metrics,
}

impl ServeReport {
    /// Machine-readable JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serve report serializes")
    }

    /// Text table for stdout.
    pub fn table(&self) -> String {
        let cap = match self.grid_cache_bytes {
            Some(b) => format!("{b}"),
            None => "unbounded".to_string(),
        };
        format!(
            "requests   completed  shed  quota-queued  batch-hits  mismatches  deadline-missed  makespan\n\
             {:<9}  {:<9}  {:<4}  {:<12}  {:<10}  {:<10}  {:<15}  {:.3} ms\n\
             grid-cache {} B: high-water {} B, {} evictions, {} rebuilds, {} cap violations\n",
            self.submitted,
            self.completed,
            self.shed,
            self.quota_queued,
            self.batch_hits,
            self.mismatches,
            self.deadline_missed,
            self.makespan_ns as f64 / 1e6,
            cap,
            self.resident_high_water_bytes,
            self.grid_evictions,
            self.grid_rebuilds,
            self.cap_violations,
        )
    }
}

fn scheduler_of(t: &TraceRequest) -> Result<SchedulerKind, String> {
    t.scheduler.parse().map_err(|e| format!("scheduler: {e}"))
}

fn estimator_of(t: &TraceRequest) -> Result<EstimateConfig, String> {
    let kind = t.estimator.parse().map_err(|e| format!("estimator: {e}"))?;
    Ok(EstimateConfig {
        kind,
        headroom: t.headroom,
        ..EstimateConfig::default()
    })
}

/// The service request a trace entry describes, or what is malformed
/// about it.
fn build_request(t: &TraceRequest, keys: &[usize]) -> Result<Request, String> {
    let key = |i: usize| {
        let m = t.operands.get(i).and_then(|&m| keys.get(m));
        m.copied()
            .ok_or(format!("operands: no pool matrix for operand {i}"))
    };
    let op = match t.op.as_str() {
        "multiply" => RequestOp::Multiply {
            a: key(0)?,
            b: key(1)?,
        },
        "power" => RequestOp::Power { a: key(0)?, k: t.k },
        "triple" => RequestOp::TripleProduct {
            r: key(0)?,
            a: key(1)?,
            p: key(2)?,
        },
        other => return Err(format!("op: unknown op '{other}' (multiply|power|triple)")),
    };
    let mut req = Request {
        id: t.id,
        tenant: t.tenant.clone(),
        arrival_ns: t.arrival_ns,
        op,
        scheduler: scheduler_of(t)?,
        estimator: estimator_of(t)?,
        budget: None,
        host_faults: None,
    };
    if t.host_fault_seed != 0 {
        req = req.host_faults(HostFaultPlan::seeded(t.host_fault_seed).all_rates(0.25));
    }
    if let Some(d) = t.deadline_ns.filter(|&d| d != 0) {
        req = req.budget(RunBudget::deadline(d));
    }
    Ok(req)
}

/// One-shot recomputation of a trace request: the product the service
/// must reproduce bit for bit.
fn one_shot(t: &TraceRequest, pool: &[CsrMatrix], cfg: &ServiceConfig) -> Option<CsrMatrix> {
    let mut gpu = cfg.gpu.clone().estimator(estimator_of(t).ok()?);
    if t.host_fault_seed != 0 {
        gpu = gpu.host_faults(HostFaultPlan::seeded(t.host_fault_seed).all_rates(0.25));
    }
    if let Some(d) = t.deadline_ns.filter(|&d| d != 0) {
        gpu.budget = Some(RunBudget::deadline(d));
    }
    match t.op.as_str() {
        "multiply" => {
            let hcfg = HybridConfig {
                gpu,
                gpu_ratio: cfg.gpu_ratio,
                reorder_assignment: true,
                scheduler: scheduler_of(t).ok()?,
            };
            Some(
                Hybrid::new(hcfg)
                    .multiply(pool.get(t.operands[0])?, pool.get(t.operands[1])?)
                    .ok()?
                    .c,
            )
        }
        "power" => Some(
            oocgemm::OutOfCoreGpu::new(gpu)
                .power(pool.get(t.operands[0])?, t.k)
                .ok()?
                .c,
        ),
        "triple" => Some(
            oocgemm::OutOfCoreGpu::new(gpu)
                .triple_product(
                    pool.get(t.operands[0])?,
                    pool.get(t.operands[1])?,
                    pool.get(t.operands[2])?,
                )
                .ok()?
                .c,
        ),
        _ => None,
    }
}

/// Plays `trace` through a fresh [`Service`] under `config` and
/// verifies every completed product against the equivalent one-shot
/// executor call.
///
/// The runner streams: it submits the whole trace, then single-steps
/// the service with [`Service::step`], polling completions after every
/// step so the resident completion buffer stays bounded — and checks
/// the resident-grid byte count against the configured cache cap at
/// every step boundary (any excursion is a `cap_violations` count, not
/// a panic, so the report stays inspectable).
pub fn run_trace(trace: &ServeTrace, config: &ServiceConfig) -> ServeReport {
    let pool: Vec<CsrMatrix> = trace.matrices.iter().map(|m| m.generate()).collect();
    let mut svc = Service::new(config.clone()).expect("harness service config is valid");
    let keys: Vec<usize> = pool.iter().map(|m| svc.intern(m.clone())).collect();

    let mut cap_violations = 0u64;
    let mut check_cap = |svc: &Service| {
        if let Some(cap) = config.grid_cache_bytes {
            if svc.service_stats().resident_grid_bytes > cap {
                cap_violations += 1;
            }
        }
    };

    let mut submitted = 0u64;
    let mut completions = Vec::new();
    for t in &trace.requests {
        if let Err(e) =
            build_request(t, &keys).and_then(|req| svc.submit(req).map_err(|e| e.to_string()))
        {
            eprintln!("serve: skipping malformed trace request {}: {e}", t.id);
            continue;
        }
        submitted += 1;
        check_cap(&svc);
        completions.extend(svc.poll_completions());
    }
    while svc.step().expect("service step") {
        check_cap(&svc);
        completions.extend(svc.poll_completions());
    }
    completions.extend(svc.poll_completions());

    let mut completed = 0u64;
    let mut shed = 0u64;
    let mut deadline_missed = 0u64;
    let mut batch_hits = 0u64;
    let mut mismatches = 0u64;
    let mut makespan_ns = 0u64;
    for c in &completions {
        match &c.outcome {
            Outcome::Completed {
                c: product,
                finish_ns,
                batch_hit,
                ..
            } => {
                completed += 1;
                makespan_ns = makespan_ns.max(*finish_ns);
                if *batch_hit {
                    batch_hits += 1;
                }
                let t = trace
                    .requests
                    .iter()
                    .find(|t| t.id == c.id)
                    .expect("completion maps to a trace entry");
                match one_shot(t, &pool, config) {
                    Some(expect) if expect == *product => {}
                    _ => {
                        mismatches += 1;
                        eprintln!(
                            "serve mismatch: request {} ({}) differs from one-shot",
                            c.id, t.op
                        );
                    }
                }
            }
            Outcome::Shed { .. } => shed += 1,
            Outcome::DeadlineExceeded { missed_at_ns, .. } => {
                deadline_missed += 1;
                makespan_ns = makespan_ns.max(*missed_at_ns);
            }
        }
    }
    let metrics = svc.metrics();
    let quota_queued = metrics.tenants.iter().map(|t| t.quota_queued).sum();
    let stats = svc.service_stats();
    ServeReport {
        seed: trace.seed,
        submitted,
        completed,
        shed,
        quota_queued,
        batch_hits,
        mismatches,
        deadline_missed,
        grid_cache_bytes: config.grid_cache_bytes,
        grid_evictions: stats.grid_evictions,
        grid_rebuilds: stats.grid_rebuilds,
        resident_high_water_bytes: stats.resident_grid_high_water_bytes,
        cap_violations,
        makespan_ns,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_trace_is_deterministic() {
        let a = gen_trace(16, 4, 7);
        let b = gen_trace(16, 4, 7);
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb);
        // And round-trips through its file format.
        let back: ServeTrace = serde_json::from_str(&ja).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), ja);
    }

    #[test]
    fn default_trace_exercises_shed_and_quota_paths() {
        let trace = gen_trace(64, 4, 7);
        let report = run_trace(&trace, &harness_config());
        assert_eq!(report.mismatches, 0, "{}", report.table());
        assert!(report.shed >= 1, "expected >=1 shed\n{}", report.table());
        assert!(
            report.quota_queued >= 1,
            "expected >=1 quota-queued\n{}",
            report.table()
        );
        assert!(report.batch_hits >= 1, "{}", report.table());
        assert_eq!(report.deadline_missed, 0, "default trace is unbudgeted");
        assert_eq!(report.completed + report.shed, report.submitted);
    }

    #[test]
    fn small_trace_completes_without_mismatches() {
        let trace = gen_trace(12, 3, 11);
        let report = run_trace(&trace, &harness_config());
        assert_eq!(report.mismatches, 0, "{}", report.table());
        assert!(report.completed > 0);
        assert_eq!(report.completed + report.shed, report.submitted);
    }

    #[test]
    fn soak_trace_stays_under_the_grid_cache_cap() {
        let trace = gen_soak_trace(32, 4, 7);
        let cfg = harness_config();
        let cap = soak_cap(&trace, &cfg);
        let report = run_trace(&trace, &cfg.grid_cache_bytes(cap));
        assert_eq!(report.mismatches, 0, "{}", report.table());
        assert_eq!(
            report.cap_violations,
            0,
            "resident grids exceeded the cap\n{}",
            report.table()
        );
        assert!(
            report.resident_high_water_bytes <= cap,
            "high water {} exceeds cap {}",
            report.resident_high_water_bytes,
            cap
        );
        assert!(
            report.grid_evictions >= 1,
            "a 1.5x-one-grid cap must evict\n{}",
            report.table()
        );
        assert!(
            report.deadline_missed >= 1,
            "the 1 ns budgets must miss\n{}",
            report.table()
        );
        assert_eq!(
            report.completed + report.shed + report.deadline_missed,
            report.submitted,
            "{}",
            report.table()
        );
    }
}
