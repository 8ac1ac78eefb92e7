//! Derived run figures for the experiment harness: GFLOPS and the
//! modeled CPU baseline.

use gpu_sim::{CostModel, SimTime};

/// Modeled CPU-baseline time for a whole multiplication (the Fig 7
/// comparator): the Nagasaka-style multicore executor processing the
/// full product as one job.
pub fn cpu_baseline_ns(cost: &CostModel, flops: u64, nnz_c: u64) -> SimTime {
    cost.cpu_chunk_duration(flops, nnz_c)
}

/// GFLOPS for a flop count over a simulated duration.
pub fn gflops(flops: u64, ns: SimTime) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    flops as f64 / ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gflops_math() {
        assert_eq!(gflops(1_000_000_000, 1_000_000_000), 1.0);
        assert_eq!(gflops(500, 0), 0.0);
        assert!((gflops(2_000_000, 1_000_000) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cpu_baseline_uses_cost_model() {
        let cost = CostModel::calibrated();
        let t = cpu_baseline_ns(&cost, 1_000_000, 500_000);
        assert_eq!(t, cost.cpu_chunk_duration(1_000_000, 500_000));
        assert!(t > 0);
    }
}
