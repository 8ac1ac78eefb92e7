//! The asynchronous pipeline has one Figure 6 schedule, whichever pass
//! drives it. An exact run with no fault plan takes the one-shot pass;
//! the same run under a fault plan whose rates are all zero takes the
//! recovering pass without a single injection. The two must agree on
//! everything but the recovering pass's pool release:
//!
//! * the same C, bit for bit;
//! * the same timeline records, apart from one trailing `free` barrier;
//! * `sim_ns` larger by exactly that barrier's `alloc_overhead_ns`;
//! * the same hybrid claims and steals (and the same hybrid C).
//!
//! The second half pins the planner's pipeline depth: an auto-planned
//! grid must fit every epoch of the configured depth, so exact runs at
//! depth 3 and 4 succeed without a single re-split.
//!
//! Fixtures mirror the three matrix classes of the `e2e` benchmark
//! (R-MAT social, KKT saddle, web locality graphs) at small size, with
//! device memory sized from the output the same way: nnz(C) × 12 bytes
//! over the class's out-of-core factor.

use cpu_spgemm::reference;
use gpu_sim::{OpKind, Timeline};
use oocgemm::{EstimateConfig, FaultPlan, Hybrid, HybridConfig, OocConfig, OutOfCoreGpu};
use sparse::gen::{erdos_renyi, grid3d_stencil, locality_graph, rmat, saddle_stencil, RmatConfig};
use sparse::ops::{add, random_symmetric_permutation};
use sparse::CsrMatrix;

/// One fixture: a name, the matrix, and the class's out-of-core factor
/// (Table II output bytes over the 16 GB device).
fn fixtures(seed: u64) -> Vec<(&'static str, CsrMatrix, f64)> {
    let factor = |nnz_c_millions: f64| nnz_c_millions * 12.0 / 1024.0 / 16.0;
    let kkt = {
        let h = grid3d_stencil(4, 4, 4, 1, seed);
        let saddle = saddle_stencil(&h, 8, 1.0, seed ^ 1);
        let n = saddle.n_rows();
        let noise = erdos_renyi(n, n, 0.1 / n as f64, seed ^ 3);
        random_symmetric_permutation(&add(&saddle, &noise).unwrap(), seed ^ 2)
    };
    vec![
        (
            "social",
            rmat(RmatConfig::mild(9, 1_500), seed),
            factor(4859.09),
        ),
        ("kkt", kkt, factor(2425.94)),
        (
            "web",
            locality_graph(200, 28.0, 8, 0.002, seed),
            factor(3194.99),
        ),
    ]
}

/// Exact-planned configuration with the benchmark's device sizing.
fn exact_config(a: &CsrMatrix, factor: f64, pinned: bool) -> OocConfig {
    let nnz_c = sparse::stats::symbolic_nnz(a, a);
    let bytes = ((nnz_c * 12) as f64 / factor).max(64.0 * 1024.0) as u64;
    let mut cfg = OocConfig::with_device_memory(bytes).estimator(EstimateConfig::exact());
    cfg.pinned = pinned;
    cfg
}

/// Asserts `recovering` is `one_shot` plus one trailing pool `free`.
fn assert_same_schedule(one_shot: &Timeline, recovering: &Timeline, what: &str) {
    let (last, head) = recovering
        .records
        .split_last()
        .unwrap_or_else(|| panic!("{what}: empty recovering timeline"));
    assert_eq!(last.kind, OpKind::AllocBarrier, "{what}: {}", last.label);
    assert!(last.label.starts_with("free"), "{what}: {}", last.label);
    // Every field of a record, in comparable form.
    let a: Vec<String> = one_shot.records.iter().map(|r| format!("{r:?}")).collect();
    let b: Vec<String> = head.iter().map(|r| format!("{r:?}")).collect();
    assert_eq!(a, b, "{what}: timelines diverge");
}

#[test]
fn one_shot_and_recovering_passes_run_one_schedule() {
    for seed in 1..=3u64 {
        for (name, a, factor) in fixtures(seed) {
            for pinned in [true, false] {
                let what = format!("{name} seed {seed} pinned {pinned}");
                let cfg = exact_config(&a, factor, pinned);
                let zero_cfg = cfg.clone().fault_plan(FaultPlan::seeded(seed));
                let plain = OutOfCoreGpu::new(cfg.clone()).multiply(&a, &a).unwrap();
                let zero = OutOfCoreGpu::new(zero_cfg.clone())
                    .multiply(&a, &a)
                    .unwrap();
                assert!(plain.recovery.is_clean(), "{what}: {:?}", plain.recovery);
                assert!(zero.recovery.is_clean(), "{what}: {:?}", zero.recovery);
                assert_eq!(zero.c, plain.c, "{what}: C differs");
                assert_same_schedule(&plain.timeline, &zero.timeline, &what);
                let overhead = cfg.cost.alloc_overhead_ns;
                assert_eq!(zero.sim_ns, plain.sim_ns + overhead, "{what}: sim_ns");

                let hybrid = |gpu: OocConfig| {
                    let config = HybridConfig {
                        gpu,
                        ..HybridConfig::paper_default()
                    };
                    Hybrid::new(config).multiply(&a, &a).unwrap()
                };
                let (plain, zero) = (hybrid(cfg), hybrid(zero_cfg));
                assert_eq!(zero.c, plain.c, "{what}: hybrid C differs");
                let claims = |s: oocgemm::SchedulerStats| (s.gpu_claims, s.cpu_steals);
                assert_eq!(claims(zero.scheduler), claims(plain.scheduler), "{what}");
            }
        }
    }
}

#[test]
fn auto_planned_exact_runs_fit_deeper_pipelines() {
    for seed in 1..=3u64 {
        for (name, a, factor) in fixtures(seed) {
            let expect = reference::multiply(&a, &a).unwrap();
            for depth in [3usize, 4] {
                let what = format!("{name} seed {seed} depth {depth}");
                let mut cfg = exact_config(&a, factor, true);
                cfg.pipeline_depth = depth;
                let plain = OutOfCoreGpu::new(cfg.clone())
                    .multiply(&a, &a)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(plain.c, expect, "{what}: C differs from the reference");
                let zero = OutOfCoreGpu::new(cfg.fault_plan(FaultPlan::seeded(seed)))
                    .multiply(&a, &a)
                    .unwrap_or_else(|e| panic!("{what}, recovering pass: {e}"));
                assert_eq!(zero.recovery.resplits, 0, "{what}: {:?}", zero.recovery);
                assert_eq!(zero.c, expect, "{what}: recovering C differs");
            }
        }
    }
}
