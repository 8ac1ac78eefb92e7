//! End-to-end estimation/speculation equivalence (DESIGN.md §12).
//!
//! The speculative fast path plans from sampled nnz(C) estimates and
//! skips the symbolic pass, but the product it returns must be
//! bit-identical to the exact path under *any* estimator error —
//! including adversarial under-allocation, where every chunk overflows
//! its estimated buffer and the executor grows-and-retries.

use oocgemm::{EstimateConfig, EstimatorKind, ExecMode, OocConfig, OutOfCoreGpu};
use proptest::prelude::*;
use sparse::gen::{erdos_renyi, locality_graph};
use sparse::CsrMatrix;

fn fixture() -> CsrMatrix {
    erdos_renyi(600, 600, 0.03, 7)
}

fn config() -> OocConfig {
    // ~1.5 MiB device; the fixture's product is a few MiB, so the run
    // is genuinely out-of-core.
    OocConfig::with_device_memory(3 << 19)
}

fn exact_config() -> OocConfig {
    config().estimator(EstimateConfig::exact())
}

#[test]
fn speculative_default_is_on_and_matches_exact_bit_for_bit() {
    let a = fixture();
    let spec = OutOfCoreGpu::new(config()).multiply(&a, &a).unwrap();
    let exact = OutOfCoreGpu::new(exact_config()).multiply(&a, &a).unwrap();
    // The default configuration takes the speculative path.
    let stats = spec
        .metrics
        .estimator
        .as_ref()
        .expect("default async run must report estimator stats");
    assert_eq!(stats.kind, "row-sample");
    assert!(stats.sampled_rows > 0);
    assert!(stats.est_nnz > 0);
    assert_eq!(stats.actual_nnz, exact.nnz_c);
    assert!(exact.metrics.estimator.is_none());
    // Bit-identical product: same structure, same f64 bits.
    assert_eq!(spec.c, exact.c);
    assert_eq!(spec.nnz_c, exact.nnz_c);
    assert_eq!(spec.flops, exact.flops);
}

#[test]
fn speculation_skips_symbolic_and_beats_exact_planning() {
    // The point of the estimator: with a sane headroom the speculative
    // schedule drops the symbolic kernels and the row-nnz readback, so
    // it finishes strictly earlier than the exact async schedule.
    let a = fixture();
    let spec = OutOfCoreGpu::new(config()).multiply(&a, &a).unwrap();
    let exact = OutOfCoreGpu::new(exact_config()).multiply(&a, &a).unwrap();
    assert!(
        spec.sim_ns < exact.sim_ns,
        "speculative {} !< exact {}",
        spec.sim_ns,
        exact.sim_ns
    );
    let names: Vec<&str> = spec
        .metrics
        .timeline
        .kernel_classes
        .iter()
        .map(|k| k.class.name())
        .collect();
    assert!(!names.contains(&"symbolic"), "{names:?}");
}

#[test]
fn every_estimator_kind_is_exact_on_results() {
    let a = fixture();
    let exact = OutOfCoreGpu::new(exact_config()).multiply(&a, &a).unwrap();
    for kind in [EstimatorKind::RowSample, EstimatorKind::UpperBound] {
        let run = OutOfCoreGpu::new(config().estimator_kind(kind))
            .multiply(&a, &a)
            .unwrap();
        assert_eq!(run.c, exact.c, "{kind:?} must not change C");
        let stats = run.metrics.estimator.as_ref().unwrap();
        assert_eq!(stats.kind, kind.name());
        if kind == EstimatorKind::UpperBound {
            // The upper bound never under-predicts, so no chunk can
            // overflow its allocation.
            assert_eq!(stats.chunk_misses, 0);
            assert_eq!(run.recovery.estimate_overflows, 0);
        }
    }
}

#[test]
fn sync_mode_ignores_the_estimator() {
    // Sync mode has no overlap to win back; it always plans exactly.
    let a = fixture();
    let sync_spec = OutOfCoreGpu::new(config().mode(ExecMode::Sync))
        .multiply(&a, &a)
        .unwrap();
    let sync_exact = OutOfCoreGpu::new(exact_config().mode(ExecMode::Sync))
        .multiply(&a, &a)
        .unwrap();
    assert!(sync_spec.metrics.estimator.is_none());
    assert_eq!(sync_spec.sim_ns, sync_exact.sim_ns);
    assert_eq!(sync_spec.c, sync_exact.c);
}

#[test]
fn forced_under_prediction_recovers_bit_identically() {
    // headroom < 1 scales every row estimate down, so chunks overflow
    // their speculative allocations; the grow-and-retry ladder must
    // absorb every overflow and C must not change by a single bit.
    let a = fixture();
    let exact = OutOfCoreGpu::new(exact_config()).multiply(&a, &a).unwrap();
    let run = OutOfCoreGpu::new(config().headroom(0.2))
        .multiply(&a, &a)
        .unwrap();
    assert!(
        run.recovery.estimate_overflows > 0,
        "headroom 0.2 must force overflows: {}",
        run.recovery.summary()
    );
    assert_eq!(run.c, exact.c, "recovery must preserve bit-identity");
    let stats = run.metrics.estimator.as_ref().unwrap();
    assert_eq!(stats.retries, run.recovery.estimate_overflows);
    assert!(stats.chunk_misses > 0);
    assert!(run.metrics.chunks.iter().any(|c| c.attempts > 1));
}

#[test]
fn grown_chunks_survive_the_oom_ladder() {
    // Tight memory + under-prediction: a grown chunk that no longer
    // fits the epoch fails as OOM and takes the ordinary re-split /
    // demote ladder. The run must still complete bit-identically.
    let a = erdos_renyi(400, 400, 0.04, 11);
    let exact = OutOfCoreGpu::new(
        OocConfig::with_device_memory(1 << 18).estimator(EstimateConfig::exact()),
    )
    .multiply(&a, &a)
    .unwrap();
    let run = OutOfCoreGpu::new(OocConfig::with_device_memory(1 << 18).headroom(0.1))
        .multiply(&a, &a)
        .unwrap();
    assert!(
        run.recovery.estimate_overflows > 0,
        "{}",
        run.recovery.summary()
    );
    assert_eq!(run.c, exact.c);
}

#[test]
fn locality_graphs_fit_their_per_chunk_estimates_and_beat_exact() {
    // Web crawls compress strongly in the diagonal column panel and
    // hardly at all off it. One model sampled over full-width rows
    // over-sizes the diagonal chunks and under-sizes the rest, which
    // then overflow; a model sampled per chunk from its own panels
    // sizes each one. The device holds the product at the paper's web
    // out-of-core factor (Table II output over a 16 GB V100: 2.34).
    for seed in 1..=3 {
        let a = locality_graph(600, 28.0, 8, 0.002, seed);
        let nnz_c = cpu_spgemm::multiply_reference(&a, &a).unwrap().nnz() as f64;
        let device = (nnz_c * 12.0 / 2.34) as u64;
        let spec = OutOfCoreGpu::new(OocConfig::with_device_memory(device))
            .multiply(&a, &a)
            .unwrap();
        let exact = OutOfCoreGpu::new(
            OocConfig::with_device_memory(device).estimator(EstimateConfig::exact()),
        )
        .multiply(&a, &a)
        .unwrap();
        assert_eq!(spec.c, exact.c, "seed {seed}: speculation changed C");
        let stats = spec.metrics.estimator.as_ref().unwrap();
        assert_eq!(
            (
                spec.recovery.estimate_overflows,
                stats.chunk_misses,
                spec.recovery.replans
            ),
            (0, 0, 0),
            "seed {seed}: {}",
            spec.recovery.summary()
        );
        assert!(
            spec.sim_ns < exact.sim_ns,
            "seed {seed}: speculative {} !< exact {}",
            spec.sim_ns,
            exact.sim_ns
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Adversarial estimator error: random seeds and head-rooms below
    /// 1.0 (guaranteed under-prediction) must never change the product
    /// and must record their recovery work.
    #[test]
    fn under_predicting_estimators_never_change_c(
        seed in 0u64..1000,
        headroom in 0.05f64..0.9,
    ) {
        let a = erdos_renyi(150, 150, 0.05, seed);
        let b = erdos_renyi(150, 150, 0.05, seed.wrapping_add(1));
        let cfg = OocConfig::with_device_memory(1 << 18)
            .estimator(EstimateConfig {
                kind: EstimatorKind::RowSample,
                sample_rate: 0.1,
                headroom,
                seed,
            });
        let spec = OutOfCoreGpu::new(cfg).multiply(&a, &b).unwrap();
        let exact = OutOfCoreGpu::new(
            OocConfig::with_device_memory(1 << 18).estimator(EstimateConfig::exact()),
        )
        .multiply(&a, &b)
        .unwrap();
        prop_assert_eq!(&spec.c, &exact.c);
        let stats = spec.metrics.estimator.as_ref().unwrap();
        prop_assert_eq!(stats.retries, spec.recovery.estimate_overflows);
        prop_assert_eq!(stats.actual_nnz, exact.nnz_c);
        // Overflows (if any) must be visible both in the recovery
        // report and in per-chunk attempt counters.
        if spec.recovery.estimate_overflows > 0 {
            prop_assert!(spec.metrics.chunks.iter().any(|c| c.attempts > 1));
        }
    }
}

// ---------------------------------------------------------------------
// PR 8 satellites: executors that accept an estimator must consume it
// (no silent flag drops), and chained runs must adapt their headroom
// from observed hit-rates instead of re-applying the fixed margin.

#[test]
fn hybrid_consumes_the_estimator_and_stays_bit_identical() {
    use oocgemm::{Hybrid, HybridConfig};
    let a = fixture();
    let mk = |gpu: OocConfig| HybridConfig {
        gpu,
        ..HybridConfig::paper_default()
    };
    let spec = Hybrid::new(mk(config())).multiply(&a, &a).unwrap();
    let exact = Hybrid::new(mk(exact_config())).multiply(&a, &a).unwrap();
    // The default (row-sample) estimator must surface in the metrics —
    // this used to be silently dropped by the hybrid executor.
    let stats = spec
        .metrics
        .estimator
        .as_ref()
        .expect("hybrid must report estimator stats when speculating");
    assert_eq!(stats.kind, "row-sample");
    assert!(stats.est_nnz > 0);
    assert!(exact.metrics.estimator.is_none());
    assert_eq!(spec.c, exact.c, "estimation must not change C");
}

#[test]
fn multi_gpu_consumes_the_estimator_and_stays_bit_identical() {
    use oocgemm::{multiply_multi_gpu, MultiGpuConfig};
    let a = fixture();
    let mk = |gpu: OocConfig| MultiGpuConfig {
        gpu,
        ..MultiGpuConfig::new(2)
    };
    let spec = multiply_multi_gpu(&a, &a, &mk(config())).unwrap();
    let exact = multiply_multi_gpu(&a, &a, &mk(exact_config())).unwrap();
    let stats = spec
        .metrics
        .first()
        .and_then(|m| m.estimator.as_ref())
        .expect("multi-GPU must report estimator stats when speculating");
    assert_eq!(stats.kind, "row-sample");
    assert!(stats.est_nnz > 0);
    assert!(exact.metrics.iter().all(|m| m.estimator.is_none()));
    assert_eq!(spec.c, exact.c, "estimation must not change C");
}

#[test]
fn chained_runs_adapt_headroom_from_observed_hit_rates() {
    // A generous configured headroom over-allocates; once the first
    // hop shows every chunk hit, the next hop should shrink toward the
    // observed accuracy instead of re-applying the 2.0x margin. The
    // applied value is recorded per hop in EstimatorStats::headroom.
    let a = erdos_renyi(300, 300, 0.03, 3);
    let cfg = OocConfig::with_device_memory(1 << 19).estimator(EstimateConfig {
        kind: EstimatorKind::RowSample,
        headroom: 2.0,
        ..EstimateConfig::default()
    });
    let run = OutOfCoreGpu::new(cfg).power(&a, 3).unwrap();
    assert_eq!(run.metrics.len(), 2);
    let h0 = run.metrics[0].estimator.as_ref().unwrap().headroom;
    let h1 = run.metrics[1].estimator.as_ref().unwrap().headroom;
    assert_eq!(h0, 2.0, "first hop applies the configured margin");
    assert!(
        h1 < h0,
        "second hop must shrink the margin after a clean first hop ({h1} !< {h0})"
    );
    assert!(h1 >= 1.05, "adaptation floors at the minimum headroom");
    // Adaptation must not change the numbers.
    let exact = OutOfCoreGpu::new(
        OocConfig::with_device_memory(1 << 19).estimator(EstimateConfig::exact()),
    )
    .power(&a, 3)
    .unwrap();
    assert_eq!(run.c, exact.c);
}
