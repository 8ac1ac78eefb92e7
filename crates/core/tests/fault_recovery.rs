//! End-to-end fault-injection tests: under *any* deterministic fault
//! plan the executors must finish and produce output bit-identical to
//! a fault-free run (and therefore to the sequential reference).
//!
//! This is the acceptance bar of the recovery layer: faults may cost
//! simulated time (retries, backoff, re-splits, demotions) but never
//! correctness, because every recovery path reuses or recomputes the
//! same deterministic host-side chunk results.

use cpu_spgemm::reference;
use gpu_sim::OpKind;
use oocgemm::{
    multiply_multi_gpu, FaultPlan, Hybrid, HybridConfig, MultiGpuConfig, OocConfig, OocError,
    OutOfCoreGpu, RecoveryPolicy,
};
use proptest::prelude::*;
use sparse::gen::erdos_renyi;

fn base_config() -> OocConfig {
    OocConfig::with_device_memory(1 << 18)
}

#[test]
fn capacity_shrink_mid_grid_recovers_bit_identical() {
    let a = erdos_renyi(500, 500, 0.03, 7);
    let clean = OutOfCoreGpu::new(base_config()).multiply(&a, &a).unwrap();
    assert!(clean.recovery.is_clean());

    // The device loses 90 % of its capacity on the very first
    // allocation: chunks planned for the full device no longer fit and
    // must be re-split (and, at single-row granularity, demoted).
    let plan = FaultPlan::seeded(3).capacity_shrink(0, 0.1);
    let run = OutOfCoreGpu::new(base_config().fault_plan(plan))
        .multiply(&a, &a)
        .unwrap();

    assert_eq!(run.c, clean.c, "recovered output must be bit-identical");
    let expect = reference::multiply(&a, &a).unwrap();
    assert!(run.c.approx_eq(&expect, 1e-9));
    assert!(
        run.recovery.resplits + run.recovery.demotions > 0,
        "shrink should have forced recovery: {:?}",
        run.recovery
    );
    run.timeline.validate().unwrap();
    assert!(
        run.timeline.of_kind(OpKind::Fault).count() > 0,
        "capacity shrink must appear in the timeline"
    );
}

#[test]
fn high_fault_rates_still_bit_identical() {
    let a = erdos_renyi(400, 400, 0.03, 11);
    let clean = OutOfCoreGpu::new(base_config()).multiply(&a, &a).unwrap();

    let plan = FaultPlan::seeded(99).all_rates(0.3);
    let run = OutOfCoreGpu::new(base_config().fault_plan(plan))
        .multiply(&a, &a)
        .unwrap();

    assert_eq!(run.c, clean.c);
    assert!(
        run.recovery.faults() > 0,
        "rate 0.3 should inject: {:?}",
        run.recovery
    );
    assert!(run.recovery.retries > 0);
    assert!(run.recovery.time_lost_ns > 0);
    assert!(run.sim_ns > clean.sim_ns, "faults must cost simulated time");
    run.timeline.validate().unwrap();
    assert!(run.timeline.of_kind(OpKind::Fault).count() > 0);
    assert!(run.timeline.of_kind(OpKind::Recovery).count() > 0);
}

#[test]
fn fault_runs_are_deterministic() {
    let a = erdos_renyi(300, 300, 0.04, 13);
    let cfg = || base_config().fault_plan(FaultPlan::seeded(5).all_rates(0.25));
    let r1 = OutOfCoreGpu::new(cfg()).multiply(&a, &a).unwrap();
    let r2 = OutOfCoreGpu::new(cfg()).multiply(&a, &a).unwrap();
    assert_eq!(r1.sim_ns, r2.sim_ns);
    assert_eq!(r1.recovery, r2.recovery);
    assert_eq!(r1.c, r2.c);
}

#[test]
fn hybrid_survives_gpu_worker_panic() {
    let a = erdos_renyi(400, 400, 0.03, 17);
    let cfg = HybridConfig {
        gpu: base_config(),
        ..HybridConfig::paper_default()
    };
    let clean = Hybrid::new(cfg.clone()).multiply_threaded(&a, &a).unwrap();
    assert!(clean.num_gpu_chunks > 0);

    // The GPU worker dies before preparing its first chunk; the CPU
    // side drains the whole GPU assignment.
    let cfg_panic = HybridConfig {
        gpu: base_config().fault_plan(FaultPlan::seeded(0).worker_panic_after(0)),
        ..HybridConfig::paper_default()
    };
    let run = Hybrid::new(cfg_panic).multiply_threaded(&a, &a).unwrap();
    assert_eq!(run.c, clean.c, "drained run must be bit-identical");
    assert_eq!(run.recovery.worker_panics, 1);
    assert_eq!(run.recovery.demotions as usize, clean.num_gpu_chunks);
    assert_eq!(run.gpu_ns, 0, "dead worker contributes no GPU time");
    assert!(run.cpu_ns > clean.cpu_ns, "the drain must cost CPU time");
}

#[test]
fn hybrid_worker_panic_is_an_error_when_drain_disabled() {
    let a = erdos_renyi(300, 300, 0.04, 19);
    let cfg = HybridConfig {
        gpu: base_config()
            .fault_plan(FaultPlan::seeded(0).worker_panic_after(0))
            .recovery(RecoveryPolicy::default().drain_worker_panics(false)),
        ..HybridConfig::paper_default()
    };
    match Hybrid::new(cfg).multiply_threaded(&a, &a) {
        Err(OocError::Worker { worker, message }) => {
            assert_eq!(worker, "gpu");
            assert!(
                message.contains("injected"),
                "unexpected payload: {message}"
            );
        }
        other => panic!("expected OocError::Worker, got {other:?}"),
    }
}

#[test]
fn hybrid_with_faults_matches_fault_free() {
    let a = erdos_renyi(400, 400, 0.03, 23);
    let cfg = HybridConfig {
        gpu: base_config(),
        ..HybridConfig::paper_default()
    };
    let clean = Hybrid::new(cfg).multiply(&a, &a).unwrap();

    let cfg_faulty = HybridConfig {
        gpu: base_config().fault_plan(FaultPlan::seeded(31).all_rates(0.25)),
        ..HybridConfig::paper_default()
    };
    let seq = Hybrid::new(cfg_faulty.clone()).multiply(&a, &a).unwrap();
    assert_eq!(seq.c, clean.c);
    assert!(seq.recovery.faults() > 0);

    let threaded = Hybrid::new(cfg_faulty).multiply_threaded(&a, &a).unwrap();
    assert_eq!(threaded.c, clean.c);
    assert!(threaded.recovery.faults() > 0);
    assert_eq!(
        threaded.scheduler, seq.scheduler,
        "claim decisions must not see faults or threads"
    );
    assert_eq!(threaded.sim_ns, seq.sim_ns);
    assert_eq!(threaded.recovery, seq.recovery);
}

#[test]
fn multi_gpu_with_faults_matches_fault_free() {
    let a = erdos_renyi(500, 500, 0.03, 29);
    let clean_cfg = MultiGpuConfig {
        gpu: base_config().panels(4, 4),
        ..MultiGpuConfig::new(3)
    };
    let clean = multiply_multi_gpu(&a, &a, &clean_cfg).unwrap();
    assert!(clean.recovery.is_clean());

    let cfg = MultiGpuConfig {
        gpu: base_config()
            .panels(4, 4)
            .fault_plan(FaultPlan::seeded(37).all_rates(0.3)),
        ..MultiGpuConfig::new(3)
    };
    let run = multiply_multi_gpu(&a, &a, &cfg).unwrap();
    assert_eq!(run.c, clean.c);
    assert!(
        run.recovery.faults() > 0,
        "expected injected faults: {:?}",
        run.recovery
    );
    for t in &run.timelines {
        t.validate().unwrap();
    }
}

#[test]
fn invalid_fault_rates_rejected_by_validate() {
    let cfg = base_config().fault_plan(FaultPlan::seeded(1).kernel_rate(1.5));
    assert!(cfg.validate().is_err());
    let cfg = base_config().fault_plan(FaultPlan::seeded(1).capacity_shrink(0, 0.0));
    assert!(cfg.validate().is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole acceptance property: an arbitrary fault plan never
    /// changes `C` — only the simulated clock and the recovery report.
    #[test]
    fn arbitrary_fault_plans_never_change_c(
        seed in any::<u64>(),
        rate in 0.0f64..0.6,
        shrink_factor in 0.25f64..1.0,
        shrink_at in 0u64..3,
    ) {
        let a = erdos_renyi(250, 250, 0.04, 41);
        let clean = OutOfCoreGpu::new(base_config()).multiply(&a, &a).unwrap();
        let plan = FaultPlan::seeded(seed)
            .all_rates(rate)
            .capacity_shrink(shrink_at, shrink_factor);
        let run = OutOfCoreGpu::new(base_config().fault_plan(plan)).multiply(&a, &a).unwrap();
        prop_assert_eq!(&run.c, &clean.c);
        run.timeline.validate().map_err(|e| {
            proptest::test_runner::TestCaseError::fail(format!("invalid timeline: {e}"))
        })?;
    }
}
