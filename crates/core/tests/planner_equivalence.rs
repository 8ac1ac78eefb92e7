//! Property tests pinning the rebuilt planning/assembly hot path to
//! the reference implementations it replaced: the incremental `auto`
//! search must pick the same grid as the from-scratch greedy at every
//! pipeline depth, the grid-based working-set estimate must equal the
//! per-chunk binary-search one, and parallel assembly must be
//! byte-identical to the serial sweep for any chunk arrival order.

use oocgemm::assemble::{assemble, assemble_serial};
use oocgemm::{ChunkId, Planner};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sparse::partition::col::ColPartitioner;
use sparse::{CooMatrix, CsrMatrix, CsrView};

fn arb_square(max_n: usize, max_entries: usize) -> impl Strategy<Value = CsrMatrix> {
    (4..=max_n).prop_flat_map(move |n| {
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_auto_matches_reference(
        a in arb_square(70, 500),
        budget_shift in 14u32..23,
        depth in 2usize..=3,
    ) {
        let planner = Planner::new(&a, &a).unwrap().pipeline_depth(depth);
        let budget = 1u64 << budget_shift;
        match (planner.auto(budget), planner.auto_reference(budget)) {
            (Ok(fast), Ok(slow)) => {
                prop_assert_eq!(fast.num_chunks(), slow.num_chunks());
                prop_assert_eq!(
                    planner.working_set_bytes(&fast),
                    planner.working_set_bytes_reference(&slow)
                );
                // The searches are bit-identical, not just equivalent.
                prop_assert_eq!(fast.row_ranges, slow.row_ranges);
                prop_assert_eq!(fast.col_ranges, slow.col_ranges);
            }
            (Err(_), Err(_)) => {} // both reject the budget
            (fast, slow) => {
                return Err(TestCaseError::fail(format!(
                    "searches disagree: fast={fast:?} slow={slow:?}"
                )));
            }
        }
    }

    #[test]
    fn grid_working_set_matches_binary_search(
        a in arb_square(60, 400),
        k_r in 1usize..6,
        k_c in 1usize..6,
        depth in 2usize..=3,
    ) {
        let planner = Planner::new(&a, &a).unwrap().pipeline_depth(depth);
        let plan = planner.fixed(k_r, k_c).unwrap();
        prop_assert_eq!(
            planner.working_set_bytes(&plan),
            planner.working_set_bytes_reference(&plan)
        );
    }

    #[test]
    fn parallel_assemble_matches_serial_for_any_order(
        a in arb_square(60, 400),
        k_r in 1usize..5,
        k_c in 1usize..5,
        shuffle_seed in any::<u64>(),
    ) {
        let planner = Planner::new(&a, &a).unwrap();
        let plan = planner.fixed(k_r, k_c).unwrap();
        let panels = ColPartitioner::Cursor.partition(&a, &plan.col_ranges);
        let mut results = Vec::new();
        for (r, range) in plan.row_ranges.iter().enumerate() {
            let view = CsrView::rows(&a, range.start, range.end);
            for (c, panel) in panels.iter().enumerate() {
                let m = cpu_spgemm::parallel_hash::multiply_view(&view, &panel.matrix).unwrap();
                results.push((ChunkId { row: r, col: c }, m));
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle_seed);
        results.shuffle(&mut rng);
        let refs: Vec<(ChunkId, &CsrMatrix)> = results.iter().map(|(id, m)| (*id, m)).collect();
        let par = assemble(&plan, &refs);
        let ser = assemble_serial(&plan, &refs);
        prop_assert_eq!(par.n_rows(), ser.n_rows());
        prop_assert_eq!(par.n_cols(), ser.n_cols());
        prop_assert_eq!(par.row_offsets(), ser.row_offsets());
        prop_assert_eq!(par.col_ids(), ser.col_ids());
        // Values bitwise, not approximately: assembly only moves data.
        let pv: Vec<u64> = par.values().iter().map(|v| v.to_bits()).collect();
        let sv: Vec<u64> = ser.values().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(pv, sv);
    }
}
