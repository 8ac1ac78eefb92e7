//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seed plus per-category injection rates; a
//! simulator built with [`crate::GpuSim::with_faults`] consults it at
//! the natural failure points of the device model — kernel launch,
//! async copy, `cudaMalloc`, and pool reservation — and returns
//! structured errors instead of panicking. Each fault category draws
//! from its *own* ChaCha stream (derived from the plan seed), so a
//! retry in one category never perturbs the draws of another: the same
//! plan replayed over the same op sequence injects the same faults,
//! byte-reproducibly, like the matrix generators.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Category of an injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Transient kernel-launch failure.
    Kernel,
    /// Transient transfer (copy) failure.
    Copy,
    /// `cudaMalloc` failure.
    Alloc,
    /// Pool-reservation failure (a chunk's reservation in a
    /// pre-allocated pool).
    PoolReserve,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Kernel => write!(f, "kernel"),
            FaultKind::Copy => write!(f, "copy"),
            FaultKind::Alloc => write!(f, "alloc"),
            FaultKind::PoolReserve => write!(f, "pool-reserve"),
        }
    }
}

/// An injected transient fault, returned by the `try_*` submission
/// methods of the simulator.
#[derive(Clone, Debug, PartialEq)]
pub struct SimFault {
    /// Category of the fault.
    pub kind: FaultKind,
    /// Label of the faulted operation.
    pub label: String,
    /// Simulated engine time consumed by the failed attempt, ns (the
    /// attempt still occupies its engine before failing).
    pub lost_ns: crate::SimTime,
}

impl std::fmt::Display for SimFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected {} fault: {} ({} ns lost)",
            self.kind, self.label, self.lost_ns
        )
    }
}

impl std::error::Error for SimFault {}

/// A one-shot device-capacity shrink: at the `at_alloc`-th `malloc`
/// call (0-based), device capacity is multiplied by `factor` (clamped
/// so live allocations survive). Models a device losing memory to a
/// co-tenant mid-run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CapacityShrink {
    /// Which `malloc` call triggers the shrink (0-based).
    pub at_alloc: u64,
    /// Multiplier applied to the device capacity, in `(0, 1]`.
    pub factor: f64,
}

/// A seeded, deterministic fault schedule.
///
/// All rates are probabilities in `[0, 1]` evaluated independently per
/// operation. `max_consecutive` bounds how many times in a row a
/// single category may inject, which guarantees forward progress under
/// bounded retries even at rate 1.0.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-category ChaCha streams.
    pub seed: u64,
    /// Injection probability per kernel launch.
    pub kernel_rate: f64,
    /// Injection probability per copy.
    pub copy_rate: f64,
    /// Injection probability per `malloc`.
    pub alloc_rate: f64,
    /// Injection probability per pool reservation.
    pub pool_rate: f64,
    /// Maximum consecutive injections per category.
    pub max_consecutive: u32,
    /// Optional one-shot capacity shrink.
    pub capacity_shrink: Option<CapacityShrink>,
    /// Optional worker-panic trigger: the hybrid executor loses its GPU
    /// worker when the scheduler gives it at least this many chunks.
    pub worker_panic_after: Option<u64>,
}

impl FaultPlan {
    /// A plan with the given seed and all rates zero.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            kernel_rate: 0.0,
            copy_rate: 0.0,
            alloc_rate: 0.0,
            pool_rate: 0.0,
            max_consecutive: 2,
            capacity_shrink: None,
            worker_panic_after: None,
        }
    }

    /// Sets the kernel-fault rate.
    pub fn kernel_rate(mut self, rate: f64) -> Self {
        self.kernel_rate = rate;
        self
    }

    /// Sets the copy-fault rate.
    pub fn copy_rate(mut self, rate: f64) -> Self {
        self.copy_rate = rate;
        self
    }

    /// Sets the malloc-fault rate.
    pub fn alloc_rate(mut self, rate: f64) -> Self {
        self.alloc_rate = rate;
        self
    }

    /// Sets the pool-reservation fault rate.
    pub fn pool_rate(mut self, rate: f64) -> Self {
        self.pool_rate = rate;
        self
    }

    /// Sets all four rates at once.
    pub fn all_rates(self, rate: f64) -> Self {
        self.kernel_rate(rate)
            .copy_rate(rate)
            .alloc_rate(rate)
            .pool_rate(rate)
    }

    /// Sets the maximum consecutive injections per category.
    pub fn max_consecutive(mut self, n: u32) -> Self {
        self.max_consecutive = n;
        self
    }

    /// Shrinks device capacity by `factor` at the `at_alloc`-th malloc.
    pub fn capacity_shrink(mut self, at_alloc: u64, factor: f64) -> Self {
        self.capacity_shrink = Some(CapacityShrink { at_alloc, factor });
        self
    }

    /// Loses the hybrid's GPU worker when its share holds at least `n`
    /// chunks, so `n = 0` always fires (see `oocgemm::Hybrid`).
    pub fn worker_panic_after(mut self, n: u64) -> Self {
        self.worker_panic_after = Some(n);
        self
    }

    /// Derives an independent per-stream plan (same rates, decorrelated
    /// seed) — used to give each device of a multi-GPU run its own
    /// fault stream.
    pub fn derive(&self, stream: u64) -> Self {
        let mut p = self.clone();
        p.seed = self
            .seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .rotate_left(17)
            ^ 0xD1B5_4A32_D192_ED03;
        p
    }
}

const CATEGORY_SALTS: [u64; 4] = [
    0x6b65_726e_656c_0001, // "kernel"
    0x636f_7079_0000_0002, // "copy"
    0x616c_6c6f_6300_0003, // "alloc"
    0x706f_6f6c_0000_0004, // "pool"
];

fn category_index(kind: FaultKind) -> usize {
    match kind {
        FaultKind::Kernel => 0,
        FaultKind::Copy => 1,
        FaultKind::Alloc => 2,
        FaultKind::PoolReserve => 3,
    }
}

/// Counters of injected faults, per category.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Kernel faults injected.
    pub kernel: u64,
    /// Copy faults injected.
    pub copy: u64,
    /// Malloc faults injected.
    pub alloc: u64,
    /// Pool-reservation faults injected.
    pub pool: u64,
}

impl FaultStats {
    /// Total faults injected across all categories.
    pub fn total(&self) -> u64 {
        self.kernel + self.copy + self.alloc + self.pool
    }
}

/// Live injection state: one ChaCha stream per category plus
/// consecutive-injection bookkeeping.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    streams: [ChaCha8Rng; 4],
    consecutive: [u32; 4],
    injected: [u64; 4],
    mallocs_seen: u64,
    shrink_applied: bool,
}

impl FaultState {
    /// Builds the injection state for a plan.
    pub fn new(plan: FaultPlan) -> Self {
        let streams = [
            ChaCha8Rng::seed_from_u64(plan.seed ^ CATEGORY_SALTS[0]),
            ChaCha8Rng::seed_from_u64(plan.seed ^ CATEGORY_SALTS[1]),
            ChaCha8Rng::seed_from_u64(plan.seed ^ CATEGORY_SALTS[2]),
            ChaCha8Rng::seed_from_u64(plan.seed ^ CATEGORY_SALTS[3]),
        ];
        FaultState {
            plan,
            streams,
            consecutive: [0; 4],
            injected: [0; 4],
            mallocs_seen: 0,
            shrink_applied: false,
        }
    }

    /// The plan driving this state.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draws the category's stream once and decides whether to inject.
    /// Always consumes exactly one draw, so the decision sequence is a
    /// pure function of the plan and the op sequence.
    pub fn roll(&mut self, kind: FaultKind) -> bool {
        let i = category_index(kind);
        let rate = match kind {
            FaultKind::Kernel => self.plan.kernel_rate,
            FaultKind::Copy => self.plan.copy_rate,
            FaultKind::Alloc => self.plan.alloc_rate,
            FaultKind::PoolReserve => self.plan.pool_rate,
        };
        let threshold = (rate.clamp(0.0, 1.0) * u32::MAX as f64) as u64;
        let draw = self.streams[i].next_u32() as u64;
        let inject = draw < threshold && self.consecutive[i] < self.plan.max_consecutive;
        if inject {
            self.consecutive[i] += 1;
            self.injected[i] += 1;
        } else {
            self.consecutive[i] = 0;
        }
        inject
    }

    /// Notes a `malloc` call; returns the shrink to apply now, if this
    /// is the configured call.
    pub fn on_malloc(&mut self) -> Option<CapacityShrink> {
        let n = self.mallocs_seen;
        self.mallocs_seen += 1;
        match self.plan.capacity_shrink {
            Some(s) if !self.shrink_applied && n >= s.at_alloc => {
                self.shrink_applied = true;
                Some(s)
            }
            _ => None,
        }
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            kernel: self.injected[0],
            copy: self.injected[1],
            alloc: self.injected[2],
            pool: self.injected[3],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic() {
        let run = |seed| {
            let mut st = FaultState::new(FaultPlan::seeded(seed).all_rates(0.3));
            (0..200)
                .map(|_| st.roll(FaultKind::Kernel))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ");
    }

    #[test]
    fn categories_draw_independent_streams() {
        // Consuming extra draws in one category must not change
        // another category's sequence.
        let mut a = FaultState::new(FaultPlan::seeded(42).all_rates(0.5));
        let mut b = FaultState::new(FaultPlan::seeded(42).all_rates(0.5));
        for _ in 0..50 {
            a.roll(FaultKind::Copy);
        }
        let seq_a: Vec<bool> = (0..50).map(|_| a.roll(FaultKind::Kernel)).collect();
        let seq_b: Vec<bool> = (0..50).map(|_| b.roll(FaultKind::Kernel)).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn max_consecutive_guarantees_progress() {
        let mut st = FaultState::new(FaultPlan::seeded(1).all_rates(1.0).max_consecutive(2));
        assert!(st.roll(FaultKind::Kernel));
        assert!(st.roll(FaultKind::Kernel));
        assert!(
            !st.roll(FaultKind::Kernel),
            "third consecutive roll must pass"
        );
        assert!(
            st.roll(FaultKind::Kernel),
            "counter resets after a clean roll"
        );
    }

    #[test]
    fn zero_rate_never_injects() {
        let mut st = FaultState::new(FaultPlan::seeded(99));
        assert!((0..1000).all(|_| !st.roll(FaultKind::Alloc)));
        assert_eq!(st.stats().total(), 0);
    }

    #[test]
    fn shrink_fires_once_at_configured_malloc() {
        let mut st = FaultState::new(FaultPlan::seeded(0).capacity_shrink(2, 0.5));
        assert!(st.on_malloc().is_none());
        assert!(st.on_malloc().is_none());
        let s = st.on_malloc().expect("third malloc shrinks");
        assert_eq!(s.factor, 0.5);
        assert!(st.on_malloc().is_none(), "shrink is one-shot");
    }

    #[test]
    fn derive_changes_seed_only() {
        let base = FaultPlan::seeded(5).all_rates(0.2).capacity_shrink(1, 0.5);
        let d = base.derive(3);
        assert_ne!(d.seed, base.seed);
        assert_eq!(d.kernel_rate, base.kernel_rate);
        assert_eq!(d.capacity_shrink, base.capacity_shrink);
        assert_ne!(base.derive(1).seed, base.derive(2).seed);
    }
}
