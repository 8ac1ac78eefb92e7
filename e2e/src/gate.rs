//! Host-interference gate.
//!
//! The host this benchmark runs on shares its cores: the same product
//! can take 40 % longer for seconds at a time while other work runs,
//! and a stretch like that can cover a whole run. Each timed round
//! therefore starts with a probe, a fixed product small enough to stay
//! in cache, whose time tracks only how fast the host runs at that
//! moment. The host-time metrics come from the quieter half of the
//! rounds, those with the fastest probes. The gate only selects rounds;
//! every value is still a measured time, and every round still counts
//! for correctness and for the simulated metrics.

use sparse::gen::{rmat, RmatConfig};
use sparse::CsrMatrix;
use std::time::Instant;

pub struct Probe {
    m: CsrMatrix,
}

impl Probe {
    pub fn new() -> Self {
        // About a millisecond per product; the same matrix for every
        // seed and workload.
        Probe {
            m: rmat(RmatConfig::mild(10, 4_000), 0x9E0B),
        }
    }

    /// How fast the host runs now: the fastest of three runs of the
    /// probe product, ms.
    pub fn measure(&self) -> f64 {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                let c = cpu_spgemm::multiply_reference(&self.m, &self.m);
                std::hint::black_box(c).expect("the probe is square");
                t.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// Indices of the quieter half of the rounds (rounded up): the rounds
/// whose probes were fastest.
pub fn quiet_half(probe_ms: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..probe_ms.len()).collect();
    order.sort_by(|&a, &b| probe_ms[a].total_cmp(&probe_ms[b]));
    order.truncate(probe_ms.len().div_ceil(2));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_faster_half() {
        assert_eq!(quiet_half(&[3.0, 1.0, 2.0, 5.0]), vec![1, 2]);
        assert_eq!(quiet_half(&[2.0, 1.0, 3.0]), vec![1, 0]);
        assert_eq!(quiet_half(&[7.0]), vec![0]);
        assert!(quiet_half(&[]).is_empty());
    }

    #[test]
    fn probe_measures_a_positive_time() {
        assert!(Probe::new().measure() > 0.0);
    }
}
