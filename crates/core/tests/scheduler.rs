//! End-to-end scheduler acceptance tests: the work-stealing scheduler
//! must produce bit-identical output to the static Algorithm 4 split
//! (with and without fault injection), make deterministic claim
//! decisions that never depend on faults, and complete no slower than
//! the paper's fixed 65 % split.

use cpu_spgemm::reference;
use oocgemm::{FaultPlan, Hybrid, HybridConfig, OocConfig, SchedulerKind};
use sparse::gen::erdos_renyi;

fn fixture() -> sparse::CsrMatrix {
    erdos_renyi(500, 500, 0.03, 7)
}

fn base() -> HybridConfig {
    HybridConfig {
        gpu: OocConfig::with_device_memory(3 << 19).panels(3, 4),
        ..HybridConfig::paper_default()
    }
}

#[test]
fn dynamic_is_bit_identical_to_static_and_reference() {
    let a = fixture();
    let h = Hybrid::new(base());
    let dynamic = h.multiply(&a, &a).unwrap();
    let static_ = h.multiply_static(&a, &a).unwrap();
    assert_eq!(dynamic.c, static_.c, "schedulers must agree bit-for-bit");
    let expect = reference::multiply(&a, &a).unwrap();
    assert!(dynamic.c.approx_eq(&expect, 1e-9));
    assert_eq!(dynamic.scheduler.kind, SchedulerKind::WorkStealing);
    assert_eq!(static_.scheduler.kind, SchedulerKind::Static);
}

#[test]
fn dynamic_is_hint_insensitive_and_bounds_static_worst_case() {
    // The Table III sweep in miniature. The static split's completion
    // time tracks the quality of the ratio hint; work stealing only
    // uses the hint to size the prefetch, so its completion time must
    // stay (a) no worse than the paper-default static split, (b) near
    // the best static split on the grid, and (c) flat across hints.
    let a = fixture();
    let mut dynamic_ns = Vec::new();
    let mut static_ns = Vec::new();
    for ratio in [0.25, 0.5, 0.65, 0.8] {
        let h = Hybrid::new(base().ratio(ratio));
        let dynamic = h.multiply(&a, &a).unwrap();
        let static_ = h.multiply_static(&a, &a).unwrap();
        assert_eq!(dynamic.c, static_.c);
        dynamic_ns.push(dynamic.sim_ns);
        static_ns.push(static_.sim_ns);
        if ratio == oocgemm::DEFAULT_GPU_RATIO {
            assert!(
                dynamic.sim_ns <= static_.sim_ns,
                "dynamic {} behind the paper-default static {}",
                dynamic.sim_ns,
                static_.sim_ns
            );
        }
    }
    let worst_dynamic = *dynamic_ns.iter().max().unwrap();
    let best_dynamic = *dynamic_ns.iter().min().unwrap();
    let best_static = *static_ns.iter().min().unwrap();
    let worst_static = *static_ns.iter().max().unwrap();
    assert!(
        worst_dynamic < worst_static,
        "stealing must bound the bad-hint worst case: {worst_dynamic} vs {worst_static}"
    );
    // Near the oracle: within 25 % of the best static split even
    // though dynamic never saw the oracle hint.
    assert!(
        worst_dynamic as f64 <= best_static as f64 * 1.25,
        "dynamic {worst_dynamic} too far behind oracle static {best_static}"
    );
    // Hint-insensitive: spread across the grid stays under 10 %.
    assert!(
        worst_dynamic as f64 <= best_dynamic as f64 * 1.10,
        "dynamic should barely depend on the hint: {dynamic_ns:?}"
    );
}

#[test]
fn claim_decisions_are_deterministic_and_blind_to_faults() {
    let a = fixture();
    let faulty = || {
        let mut cfg = base();
        cfg.gpu = cfg.gpu.fault_plan(FaultPlan::seeded(7).all_rates(0.25));
        cfg
    };
    // Same seed + same fault plan: bit-identical C, identical claim
    // accounting, identical clock.
    let r1 = Hybrid::new(faulty()).multiply(&a, &a).unwrap();
    let r2 = Hybrid::new(faulty()).multiply(&a, &a).unwrap();
    assert_eq!(r1.c, r2.c);
    assert_eq!(r1.scheduler, r2.scheduler);
    assert_eq!(r1.sim_ns, r2.sim_ns);
    assert!(r1.recovery.faults() > 0, "the plan must actually fire");

    // The claim loop runs on a clean scratch model, so the faulted
    // run's steal counts match the fault-free run's exactly.
    let clean = Hybrid::new(base()).multiply(&a, &a).unwrap();
    assert_eq!(r1.scheduler.gpu_claims, clean.scheduler.gpu_claims);
    assert_eq!(r1.scheduler.cpu_steals, clean.scheduler.cpu_steals);
    assert_eq!(r1.c, clean.c, "faults must never change C");
}

#[test]
fn nan_ratio_is_rejected_by_validate() {
    let cfg = base().ratio(f64::NAN);
    assert!(cfg.validate().is_err(), "NaN ratio must not validate");
    assert!(Hybrid::new(cfg).multiply(&fixture(), &fixture()).is_err());
}

#[test]
fn measured_cpu_model_shifts_realized_ratio() {
    // The auction prices CPU chunks with the configured cost model, so
    // swapping the frozen paper constants for a measured host must move
    // the realized flop split — without ever changing C.
    let a = fixture();
    let paper = gpu_sim::CostModel::calibrated();
    let with_cpu = |scale: f64| {
        let mut cfg = base();
        cfg.gpu.cost = paper.clone().with_measured_cpu(
            paper.cpu_flop_rate * scale,
            paper.cpu_insert_ns / scale,
            0,
        );
        Hybrid::new(cfg).multiply(&a, &a).unwrap()
    };
    let frozen = Hybrid::new(base()).multiply(&a, &a).unwrap();
    let fast_cpu = with_cpu(50.0);
    let slow_cpu = with_cpu(1.0 / 50.0);
    assert_eq!(fast_cpu.c, frozen.c, "pricing must never change C");
    assert_eq!(slow_cpu.c, frozen.c);
    assert!(
        fast_cpu.scheduler.realized_gpu_ratio < frozen.scheduler.realized_gpu_ratio,
        "a 50x faster CPU must steal more: {} vs {}",
        fast_cpu.scheduler.realized_gpu_ratio,
        frozen.scheduler.realized_gpu_ratio
    );
    assert!(
        slow_cpu.scheduler.realized_gpu_ratio >= frozen.scheduler.realized_gpu_ratio,
        "a 50x slower CPU must not steal more: {} vs {}",
        slow_cpu.scheduler.realized_gpu_ratio,
        frozen.scheduler.realized_gpu_ratio
    );
    assert!(fast_cpu.scheduler.realized_gpu_ratio < slow_cpu.scheduler.realized_gpu_ratio);
}

#[test]
fn scheduler_stats_flow_into_metrics_json() {
    let a = fixture();
    let run = Hybrid::new(base()).multiply(&a, &a).unwrap();
    let json = serde_json::to_string_pretty(&run.metrics).unwrap();
    assert!(
        json.contains("\"scheduler\""),
        "missing scheduler in:\n{json}"
    );
    assert!(json.contains("\"work-stealing\""));
    assert!(json.contains("\"gpu_claims\""));
    assert!(json.contains("\"cpu_steals\""));
}
