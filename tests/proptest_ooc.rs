//! Property-based end-to-end tests of the out-of-core framework:
//! arbitrary matrices, arbitrary device budgets, arbitrary panel
//! grids — results always match the reference, timelines always obey
//! the hardware invariants.

use gpu_sim::OpKind;
use oocgemm::{ExecMode, Hybrid, HybridConfig, OocConfig, OutOfCoreGpu, SchedulerKind};
use proptest::prelude::*;
use sparse::{CooMatrix, CsrMatrix};

fn arb_square(max_n: usize, max_entries: usize) -> impl Strategy<Value = CsrMatrix> {
    (8..=max_n).prop_flat_map(move |n| {
        prop::collection::vec((0..n, 0..n, 0.1f64..10.0), 1..=max_entries).prop_map(
            move |entries| {
                let mut coo = CooMatrix::new(n, n);
                for (i, j, v) in entries {
                    coo.push(i, j, v).unwrap();
                }
                coo.to_csr()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ooc_matches_reference_for_any_grid(
        a in arb_square(60, 400),
        k_r in 1usize..5,
        k_c in 1usize..5,
        reorder in any::<bool>(),
        sync in any::<bool>(),
    ) {
        let mode = if sync { ExecMode::Sync } else { ExecMode::Async };
        let cfg = OocConfig::with_device_memory(64 << 20)
            .panels(k_r, k_c)
            .mode(mode)
            .reorder(reorder);
        let run = OutOfCoreGpu::new(cfg).multiply(&a, &a).unwrap();
        let expect = cpu_spgemm::reference::multiply(&a, &a).unwrap();
        prop_assert!(run.c.approx_eq(&expect, 1e-9));
        prop_assert!(run.timeline.validate().is_ok());
        // Every chunk's output crosses the D2H engine exactly once
        // (possibly split in two portions).
        let d2h: u64 = run.timeline.of_kind(OpKind::CopyD2H).map(|r| r.payload).sum();
        prop_assert!(d2h >= run.nnz_c * 12);
    }

    #[test]
    fn hybrid_matches_reference_for_any_ratio(
        a in arb_square(50, 300),
        ratio in 0.0f64..=1.0,
        reorder in any::<bool>(),
    ) {
        let cfg = HybridConfig {
            gpu: OocConfig::with_device_memory(64 << 20).panels(2, 3),
            gpu_ratio: ratio,
            reorder_assignment: reorder,
            scheduler: SchedulerKind::WorkStealing,
        };
        let run = Hybrid::new(cfg.clone()).multiply(&a, &a).unwrap();
        let expect = cpu_spgemm::reference::multiply(&a, &a).unwrap();
        prop_assert!(run.c.approx_eq(&expect, 1e-9));
        prop_assert_eq!(run.num_gpu_chunks + run.num_cpu_chunks, 6);
        prop_assert_eq!(run.sim_ns, run.gpu_ns.max(run.cpu_ns));
        // Both schedulers produce bit-identical C for any ratio hint,
        // and the claim/steal accounting covers every chunk once.
        let st = Hybrid::new(cfg.scheduler(SchedulerKind::Static)).multiply(&a, &a).unwrap();
        prop_assert_eq!(&run.c, &st.c);
        prop_assert_eq!(
            (run.scheduler.gpu_claims + run.scheduler.cpu_steals) as usize,
            6
        );
    }

    #[test]
    fn planner_budget_is_respected(
        a in arb_square(80, 600),
        budget_shift in 17u32..22,
    ) {
        let budget = 1u64 << budget_shift;
        let planner = match oocgemm::Planner::new(&a, &a) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        match planner.auto(budget) {
            Ok(plan) => {
                prop_assert!(planner.working_set_bytes(&plan) <= budget);
                // The plan must actually run within that device size.
                let cfg = OocConfig::with_device_memory(budget)
                    .panels(plan.row_panels(), plan.col_panels());
                let run = OutOfCoreGpu::new(cfg).multiply(&a, &a).unwrap();
                prop_assert!(run.timeline.validate().is_ok());
            }
            Err(oocgemm::OocError::Planning(_)) => {} // budget genuinely too small
            Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
        }
    }

    #[test]
    fn chunk_flops_partition_total(
        a in arb_square(60, 400),
        k_r in 1usize..4,
        k_c in 1usize..4,
    ) {
        let grid = oocgemm::prepare_grid(&a, &a, &OocConfig::default().panels(k_r, k_c))
            .unwrap()
            .grid;
        prop_assert_eq!(grid.total_flops(), sparse::stats::total_flops(&a, &a));
        // The ratio split covers all chunks exactly once.
        let order = grid.sorted_desc();
        let (gpu, cpu) = oocgemm::ChunkGrid::split_by_ratio(&order, 0.65);
        prop_assert_eq!(gpu.len() + cpu.len(), grid.len());
        let gpu_flops: u64 = gpu.iter().map(|c| c.flops).sum();
        let total = grid.total_flops();
        if total > 0 {
            // The prefix reaches the ratio, and removing its last chunk
            // would fall below it (minimality).
            prop_assert!(gpu_flops as f64 / total as f64 >= 0.65);
            if let Some(last) = gpu.last() {
                prop_assert!(((gpu_flops - last.flops) as f64) / total as f64 * 100.0 < 65.0);
            }
        }
    }
}
