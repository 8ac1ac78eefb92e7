//! Service-frontend determinism (DESIGN.md §14).
//!
//! The service time-shares one simulated device among concurrent
//! multi-tenant requests — batching operand-sharing multiplies onto
//! resident prepared grids, shedding on queue pressure, delaying on
//! quota exhaustion, and evicting grids under cache pressure. None of
//! that scheduling or residency management may leak into the numbers:
//! every completed request's product must be bit-identical to the
//! same operation issued as a one-shot executor call, under *any*
//! interleaving of tenants, schedulers, estimators, and injected host
//! faults — and under any grid-cache byte cap, including one so tiny
//! every request rebuilds its grid from scratch.

use oocgemm::{
    EstimateConfig, EstimatorKind, HostFaultPlan, Hybrid, HybridConfig, OocConfig, OutOfCoreGpu,
    Outcome, Request, RequestOp, SchedulerKind, Service, ServiceConfig, TenantQuota,
};
use proptest::prelude::*;
use sparse::gen::erdos_renyi;
use sparse::CsrMatrix;

fn pool() -> Vec<CsrMatrix> {
    vec![
        erdos_renyi(140, 140, 0.04, 21),
        erdos_renyi(140, 140, 0.03, 22),
        erdos_renyi(140, 140, 0.05, 23),
    ]
}

fn service_gpu() -> OocConfig {
    OocConfig::with_device_memory(1 << 19).panels(2, 2)
}

/// Re-runs one request as the equivalent one-shot executor call.
fn one_shot(cfg: &ServiceConfig, pool: &[CsrMatrix], req: &Request) -> CsrMatrix {
    let mut gpu = cfg.gpu.clone().estimator(req.estimator);
    if let Some(plan) = &req.host_faults {
        gpu = gpu.host_faults(plan.clone());
    }
    match req.op {
        RequestOp::Multiply { a, b } => {
            let hcfg = HybridConfig {
                gpu,
                gpu_ratio: cfg.gpu_ratio,
                reorder_assignment: true,
                scheduler: req.scheduler,
            };
            Hybrid::new(hcfg).multiply(&pool[a], &pool[b]).unwrap().c
        }
        RequestOp::Power { a, k } => OutOfCoreGpu::new(gpu).power(&pool[a], k).unwrap().c,
        RequestOp::TripleProduct { r, a, p } => {
            OutOfCoreGpu::new(gpu)
                .triple_product(&pool[r], &pool[a], &pool[p])
                .unwrap()
                .c
        }
    }
}

/// One randomized request: ((tenant, arrival gap), (op selector,
/// operand pair), (scheduler, estimator kind, fault seed)). Nested so
/// the tuple stays within proptest's Strategy arity.
type ReqSpec = ((u8, u64), (u8, (u8, u8)), (bool, u8, u64));

fn build_request(id: u64, arrival: u64, spec: &ReqSpec) -> Request {
    let ((tenant, _), (op_sel, (a, b)), (stealing, est_sel, fault_seed)) = *spec;
    let (a, b) = (a as usize % 3, b as usize % 3);
    let op = match op_sel % 5 {
        3 => RequestOp::Power {
            a,
            k: 2 + (op_sel as u32 % 2),
        },
        4 => RequestOp::TripleProduct {
            r: a,
            a: b,
            p: (a + 1) % 3,
        },
        _ => RequestOp::Multiply { a, b },
    };
    let kind = [
        EstimatorKind::Exact,
        EstimatorKind::RowSample,
        EstimatorKind::UpperBound,
    ][est_sel as usize % 3];
    let mut req = Request {
        id,
        tenant: format!("t{}", tenant % 3),
        arrival_ns: arrival,
        op,
        scheduler: if stealing {
            SchedulerKind::WorkStealing
        } else {
            SchedulerKind::Static
        },
        estimator: EstimateConfig {
            kind,
            ..EstimateConfig::default()
        },
        budget: None,
        host_faults: None,
    };
    if fault_seed % 3 == 0 && fault_seed != 0 {
        req = req.host_faults(HostFaultPlan::seeded(fault_seed).all_rates(0.3));
    }
    req
}

/// Runs the spec set through a service built from `cfg`, returning
/// `(request id, product)` per completion in termination order.
fn run_specs(cfg: &ServiceConfig, pool: &[CsrMatrix], specs: &[ReqSpec]) -> Vec<(u64, CsrMatrix)> {
    let mut svc = Service::new(cfg.clone()).unwrap();
    for m in pool {
        svc.intern(m.clone());
    }
    let mut arrival = 0u64;
    for (i, spec) in specs.iter().enumerate() {
        arrival += spec.0 .1;
        svc.submit(build_request(i as u64 + 1, arrival, spec))
            .unwrap();
    }
    let completions = svc.drain().unwrap();
    completions
        .into_iter()
        .map(|c| match c.outcome {
            Outcome::Completed { c: product, .. } => (c.id, product),
            other => panic!("unexpected non-completion for request {}: {other:?}", c.id),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any interleaving of concurrent mixed-tenant requests yields,
    /// per request, exactly the bits the one-shot executor produces —
    /// whether the grid cache is unbounded, barely fits one grid, or
    /// is disabled outright (every request rebuilds). Eviction may
    /// only discard allocations, never change results or completion
    /// order.
    #[test]
    fn every_interleaving_is_bit_identical_to_one_shot(
        specs in proptest::collection::vec(
            (
                (0u8..3, 0u64..2_000_000),
                (0u8..10, (0u8..3, 0u8..3)),
                (any::<bool>(), 0u8..4, 0u64..100),
            ),
            2..7,
        ),
    ) {
        let pool = pool();
        // Queue deep enough that nothing sheds: this test is about
        // bit-identity under interleaving and cache pressure, not
        // admission control.
        let cfg = ServiceConfig::new().gpu(service_gpu()).queue_capacity(64);
        let mut reqs = Vec::new();
        let mut arrival = 0u64;
        for (i, spec) in specs.iter().enumerate() {
            arrival += spec.0 .1;
            reqs.push(build_request(i as u64 + 1, arrival, spec));
        }

        let unbounded = run_specs(&cfg, &pool, &specs);
        prop_assert_eq!(unbounded.len(), reqs.len());
        for (id, product) in &unbounded {
            let req = &reqs[*id as usize - 1];
            let expect = one_shot(&cfg, &pool, req);
            prop_assert_eq!(product, &expect,
                "request {} diverged from one-shot", id);
        }

        // Eviction pressure: a cache of ~one grid, and no cache at
        // all. Same completions, same order, same bits.
        for cap in [1u64 << 16, 0] {
            let capped_cfg = cfg.clone().grid_cache_bytes(cap);
            let capped = run_specs(&capped_cfg, &pool, &specs);
            prop_assert_eq!(capped.len(), unbounded.len());
            for ((id_u, c_u), (id_c, c_c)) in unbounded.iter().zip(&capped) {
                prop_assert_eq!(id_u, id_c,
                    "cap {} reordered completions", cap);
                prop_assert_eq!(c_u, c_c,
                    "request {} diverged under grid_cache_bytes {}", id_u, cap);
            }
        }
    }
}

#[test]
fn quota_exhaustion_delays_but_never_changes_results() {
    let pool = pool();
    let flops = sparse::stats::total_flops(&pool[0], &pool[1]);
    // Capacity covers one request; refill is slow enough that the
    // second same-tenant request must wait on the bucket.
    let cfg = ServiceConfig::new()
        .gpu(service_gpu())
        .queue_capacity(16)
        .quota(TenantQuota::new(flops + flops / 2, (flops / 1000).max(1)));
    let mut svc = Service::new(cfg.clone()).unwrap();
    for m in &pool {
        svc.intern(m.clone());
    }
    for id in 1..=3u64 {
        svc.submit(Request::multiply(id, "tenant-a", 0, 1)).unwrap();
    }
    let completions = svc.drain().unwrap();
    assert_eq!(completions.len(), 3);
    let expect = one_shot(&cfg, &pool, &Request::multiply(1, "tenant-a", 0, 1));
    for c in &completions {
        match &c.outcome {
            Outcome::Completed { c: product, .. } => assert_eq!(product, &expect),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    let metrics = svc.metrics();
    let t = metrics
        .tenants
        .iter()
        .find(|t| t.tenant == "tenant-a")
        .unwrap();
    assert!(
        t.quota_queued >= 1,
        "token bucket must have delayed at least one request: {t:?}"
    );
    assert!(t.queued_ns > 0);
}

#[test]
fn queue_overflow_sheds_and_the_rest_complete_bit_identically() {
    let pool = pool();
    let cfg = ServiceConfig::new().gpu(service_gpu()).queue_capacity(2);
    let mut svc = Service::new(cfg.clone()).unwrap();
    for m in &pool {
        svc.intern(m.clone());
    }
    // Five requests at t=0 against a 2-deep queue: the overflow must
    // shed, everything admitted must still be exact.
    for id in 1..=5u64 {
        svc.submit(Request::multiply(id, format!("t{}", id % 2), 0, 2))
            .unwrap();
    }
    let completions = svc.drain().unwrap();
    assert_eq!(completions.len(), 5);
    let shed = completions.iter().filter(|c| !c.is_completed()).count();
    assert!(
        shed >= 1,
        "a 2-deep queue cannot admit 5 simultaneous requests"
    );
    let expect = one_shot(&cfg, &pool, &Request::multiply(1, "t1", 0, 2));
    for c in completions.iter().filter(|c| c.is_completed()) {
        match &c.outcome {
            Outcome::Completed { c: product, .. } => assert_eq!(product, &expect),
            _ => unreachable!(),
        }
    }
    // Shed counts must land in the per-tenant aggregates.
    let total_shed: u64 = svc.metrics().tenants.iter().map(|t| t.shed).sum();
    assert_eq!(total_shed, shed as u64);
}
