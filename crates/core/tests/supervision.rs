//! Run supervision tests: host fault domains, deadline budgets,
//! capacity-driven re-planning, and overflow recovery by growth.
//!
//! The contract under test: whatever combination of device faults,
//! host faults, and deadline budgets a run is given, it either
//! produces a product bit-identical to the fault-free run, or it
//! returns a clean [`OocError::DeadlineExceeded`] carrying a partial
//! report — never a wrong answer, a panic, or an unbounded recovery
//! spiral.

use cpu_spgemm::reference;
use oocgemm::{
    DegradationCause, FaultPlan, HostFaultPlan, OocConfig, OocError, OutOfCoreGpu, RunBudget,
};
use proptest::prelude::*;
use sparse::gen::erdos_renyi;

fn base_config() -> OocConfig {
    OocConfig::with_device_memory(1 << 18)
}

#[test]
fn host_faults_alone_are_bit_identical_and_cost_time() {
    let a = erdos_renyi(450, 450, 0.03, 21);
    let clean = OutOfCoreGpu::new(base_config()).multiply(&a, &a).unwrap();

    // Host faults only fire on recovery paths (demotions, re-splits,
    // CPU work), so pair them with a capacity shrink that opens those
    // paths.
    let cfg = || {
        base_config()
            .fault_plan(FaultPlan::seeded(5).all_rates(0.25).capacity_shrink(0, 0.4))
            .host_faults(HostFaultPlan::seeded(9).all_rates(0.5))
    };
    let run = OutOfCoreGpu::new(cfg()).multiply(&a, &a).unwrap();

    assert_eq!(run.c, clean.c, "host faults must never change C");
    assert!(
        run.recovery.host_faults() > 0,
        "host plan at rate 0.5 should fire on recovery paths: {}",
        run.recovery.summary()
    );

    // Same seeds, same counters: host fault injection is deterministic.
    let run2 = OutOfCoreGpu::new(cfg()).multiply(&a, &a).unwrap();
    assert_eq!(run.sim_ns, run2.sim_ns);
    assert_eq!(run.recovery, run2.recovery);
}

#[test]
fn unmeetable_deadline_returns_clean_error_with_partial_report() {
    let a = erdos_renyi(400, 400, 0.03, 23);
    let err = OutOfCoreGpu::new(base_config().budget(RunBudget::deadline(1)))
        .multiply(&a, &a)
        .unwrap_err();
    assert!(
        matches!(err, OocError::DeadlineExceeded { .. }),
        "got {err:?}"
    );
    match err {
        OocError::DeadlineExceeded {
            deadline_ns,
            completed_chunks,
            total_chunks,
            partial,
            ..
        } => {
            assert_eq!(deadline_ns, 1);
            assert!(total_chunks > 0);
            assert!(completed_chunks <= total_chunks);
            assert!(
                !partial.degradations.is_empty(),
                "the abort path must record its degradations"
            );
        }
        _ => unreachable!(),
    }
}

#[test]
fn generous_deadline_changes_nothing() {
    let a = erdos_renyi(400, 400, 0.03, 25);
    let clean = OutOfCoreGpu::new(base_config()).multiply(&a, &a).unwrap();
    let run = OutOfCoreGpu::new(base_config().budget(RunBudget::deadline(clean.sim_ns * 100)))
        .multiply(&a, &a)
        .unwrap();
    assert_eq!(run.c, clean.c);
    assert_eq!(run.sim_ns, clean.sim_ns, "an idle budget must be free");
    assert!(run.metrics.degradations.is_empty());
}

#[test]
fn tightening_deadlines_walk_every_degradation_rung() {
    let a = erdos_renyi(450, 450, 0.03, 27);
    let clean = OutOfCoreGpu::new(base_config()).multiply(&a, &a).unwrap();
    let expect = reference::multiply(&a, &a).unwrap();

    // Sweep deadlines from generous to impossible under a heavy fault
    // load (rates plus a capacity shrink, so the run spans many passes
    // and the supervisor sees elapsed time climb through the rung
    // thresholds). Each run either matches the clean product
    // bit-for-bit or fails with the clean deadline error; across the
    // sweep, every degradation rung must have fired at least once.
    let mut seen_causes = Vec::new();
    let mut saw_deadline_error = false;
    for percent in [1600u64, 800, 100, 0] {
        let budget = RunBudget::deadline((clean.sim_ns * percent / 100).max(1));
        let cfg = base_config()
            .fault_plan(FaultPlan::seeded(31).all_rates(0.3).capacity_shrink(0, 0.5))
            .host_faults(HostFaultPlan::seeded(33).all_rates(0.3))
            .budget(budget);
        match OutOfCoreGpu::new(cfg).multiply(&a, &a) {
            Ok(run) => {
                assert_eq!(run.c, clean.c, "budget {percent}%: C changed");
                assert!(run.c.approx_eq(&expect, 1e-9));
                for d in &run.metrics.degradations {
                    if !seen_causes.contains(&d.cause) {
                        seen_causes.push(d.cause);
                    }
                }
            }
            Err(OocError::DeadlineExceeded { partial, .. }) => {
                saw_deadline_error = true;
                assert!(partial.completion_ns <= clean.sim_ns * 100);
            }
            Err(other) => panic!("budget {percent}%: unexpected error {other}"),
        }
    }
    for cause in [
        DegradationCause::HeadroomShrink,
        DegradationCause::ForcedExact,
        DegradationCause::DeadlineDemotion,
    ] {
        assert!(
            seen_causes.contains(&cause),
            "sweep never hit {cause:?}; saw {seen_causes:?}"
        );
    }
    assert!(
        saw_deadline_error,
        "the impossible deadline must error cleanly"
    );
}

#[test]
fn capacity_collapse_triggers_replan_not_resplit_spiral() {
    let a = erdos_renyi(500, 500, 0.03, 35);
    let clean = OutOfCoreGpu::new(base_config()).multiply(&a, &a).unwrap();

    // The device drops to half of its planned capacity on the first
    // allocation: the supervisor re-plans the remaining grid in one
    // batch instead of re-splitting chunk by chunk.
    let plan = FaultPlan::seeded(37).capacity_shrink(0, 0.5);
    let run = OutOfCoreGpu::new(base_config().fault_plan(plan))
        .multiply(&a, &a)
        .unwrap();

    assert_eq!(run.c, clean.c, "re-planned output must be bit-identical");
    assert!(
        run.recovery.replans > 0,
        "capacity collapse should re-plan: {}",
        run.recovery.summary()
    );
    assert!(run
        .metrics
        .degradations
        .iter()
        .any(|d| d.cause == DegradationCause::Replan));
}

#[test]
fn repeated_estimate_overflows_grow_without_replanning() {
    let a = erdos_renyi(500, 500, 0.03, 39);
    let clean = OutOfCoreGpu::new(base_config()).multiply(&a, &a).unwrap();

    // An aggressively under-allocating estimator overflows on chunk
    // after chunk. Each overflowed chunk learns its exact size, so it
    // is grown and retried; however many overflow, the supervisor never
    // re-plans the grid for them.
    let mut est = base_config().estimator;
    est.kind = oocgemm::EstimatorKind::RowSample;
    est.headroom = 0.3;
    let run = OutOfCoreGpu::new(base_config().estimator(est))
        .multiply(&a, &a)
        .unwrap();

    assert_eq!(run.c, clean.c);
    assert!(
        run.recovery.estimate_overflows > 0,
        "headroom 0.3 must overflow: {}",
        run.recovery.summary()
    );
    assert_eq!(
        run.recovery.replans,
        0,
        "overflows must grow, not re-plan: {}",
        run.recovery.summary()
    );
    assert!(!run
        .metrics
        .degradations
        .iter()
        .any(|d| d.cause == DegradationCause::Replan));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole invariant: {no faults, GPU faults, host faults,
    /// both} × {no budget, tight budget} — every surviving product is
    /// bit-identical to the clean one; tight budgets may instead fail
    /// with a clean DeadlineExceeded.
    #[test]
    fn products_survive_every_fault_domain_and_budget(
        seed in 0u64..500,
        n in 250usize..450,
        density in 0.02f64..0.05,
        fault_seed in 1u64..1000,
    ) {
        let a = erdos_renyi(n, n, density, seed);
        let clean = OutOfCoreGpu::new(base_config()).multiply(&a, &a).unwrap();
        let tight = RunBudget::deadline((clean.sim_ns / 3).max(1));

        let domains: [(Option<FaultPlan>, Option<HostFaultPlan>); 4] = [
            (None, None),
            (Some(FaultPlan::seeded(fault_seed).all_rates(0.2)), None),
            (None, Some(HostFaultPlan::seeded(fault_seed).all_rates(0.4))),
            (
                Some(FaultPlan::seeded(fault_seed).all_rates(0.2)),
                Some(HostFaultPlan::seeded(fault_seed).all_rates(0.4)),
            ),
        ];
        for (gpu, host) in domains {
            for budget in [None, Some(tight)] {
                let mut cfg = base_config();
                if let Some(p) = gpu.clone() { cfg = cfg.fault_plan(p); }
                if let Some(p) = host.clone() { cfg = cfg.host_faults(p); }
                let tightened = budget.is_some();
                if let Some(b) = budget { cfg = cfg.budget(b); }
                match OutOfCoreGpu::new(cfg).multiply(&a, &a) {
                    Ok(run) => prop_assert_eq!(&run.c, &clean.c),
                    Err(OocError::DeadlineExceeded { .. }) if tightened => {}
                    Err(other) => return Err(TestCaseError::fail(
                        format!("unexpected error: {other}"))),
                }
            }
        }
    }
}
