//! Deterministic **host-side** fault injection — the other half of the
//! CPU-GPU node.
//!
//! `gpu_sim::fault` covers the simulated device (kernel launches,
//! copies, `cudaMalloc`, pool reservations). A [`HostFaultPlan`]
//! covers everything that can go wrong on the host around it: spill
//! I/O to disk (transient read/write errors and silent shard
//! corruption — real bit-flips that the FNV-1a checksums must catch),
//! transient CPU-kernel failures on demoted or CPU-assigned chunks,
//! and host-allocation pressure stalls while recovery describes
//! re-split pieces.
//!
//! The mechanics mirror the device plan exactly: each category draws
//! from its *own* ChaCha stream derived from the plan seed, every
//! decision consumes exactly one draw, and `max_consecutive` bounds
//! runs of injections so bounded retries always make progress. The
//! same plan replayed over the same op sequence injects the same
//! faults, byte-reproducibly.
//!
//! Injection only ever perturbs *simulated time* and *which recovery
//! path runs* — never the numeric result. The bit-identical-`C`
//! invariant of the device fault layer extends to the whole node.

use crate::recovery::{backoff_ns, RecoveryReport};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Category of an injected host-side fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HostFaultKind {
    /// Transient spill-shard read error (retryable).
    SpillRead,
    /// Transient spill-shard write error (retryable).
    SpillWrite,
    /// Silent on-disk shard corruption (a real bit-flip; detected by
    /// the FNV-1a checksum and repaired by recomputation).
    Corruption,
    /// Transient CPU-kernel failure on a demoted or CPU-assigned chunk
    /// (the chunk is recomputed, costing another CPU pass).
    CpuKernel,
    /// Host-allocation pressure: a recovery-time host allocation
    /// stalls before succeeding.
    HostAlloc,
}

impl std::fmt::Display for HostFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostFaultKind::SpillRead => write!(f, "spill-read"),
            HostFaultKind::SpillWrite => write!(f, "spill-write"),
            HostFaultKind::Corruption => write!(f, "corruption"),
            HostFaultKind::CpuKernel => write!(f, "cpu-kernel"),
            HostFaultKind::HostAlloc => write!(f, "host-alloc"),
        }
    }
}

/// A seeded, deterministic host-fault schedule.
///
/// All rates are probabilities in `[0, 1]` evaluated independently per
/// operation; `max_consecutive` bounds how many times in a row a
/// single category may inject.
#[derive(Clone, Debug, PartialEq)]
pub struct HostFaultPlan {
    /// Seed for the per-category ChaCha streams.
    pub seed: u64,
    /// Injection probability per spill-shard read.
    pub spill_read_rate: f64,
    /// Injection probability per spill-shard write.
    pub spill_write_rate: f64,
    /// Probability a committed shard is silently corrupted on disk.
    pub corruption_rate: f64,
    /// Injection probability per CPU chunk kernel.
    pub cpu_kernel_rate: f64,
    /// Injection probability per recovery-time host allocation.
    pub host_alloc_rate: f64,
    /// Maximum consecutive injections per category.
    pub max_consecutive: u32,
}

impl HostFaultPlan {
    /// A plan with the given seed and all rates zero.
    pub fn seeded(seed: u64) -> Self {
        HostFaultPlan {
            seed,
            spill_read_rate: 0.0,
            spill_write_rate: 0.0,
            corruption_rate: 0.0,
            cpu_kernel_rate: 0.0,
            host_alloc_rate: 0.0,
            max_consecutive: 2,
        }
    }

    /// Sets the spill-read fault rate.
    pub fn spill_read_rate(mut self, rate: f64) -> Self {
        self.spill_read_rate = rate;
        self
    }

    /// Sets the spill-write fault rate.
    pub fn spill_write_rate(mut self, rate: f64) -> Self {
        self.spill_write_rate = rate;
        self
    }

    /// Sets the shard-corruption rate.
    pub fn corruption_rate(mut self, rate: f64) -> Self {
        self.corruption_rate = rate;
        self
    }

    /// Sets the CPU-kernel fault rate.
    pub fn cpu_kernel_rate(mut self, rate: f64) -> Self {
        self.cpu_kernel_rate = rate;
        self
    }

    /// Sets the host-allocation pressure rate.
    pub fn host_alloc_rate(mut self, rate: f64) -> Self {
        self.host_alloc_rate = rate;
        self
    }

    /// Sets all five rates at once.
    pub fn all_rates(self, rate: f64) -> Self {
        self.spill_read_rate(rate)
            .spill_write_rate(rate)
            .corruption_rate(rate)
            .cpu_kernel_rate(rate)
            .host_alloc_rate(rate)
    }

    /// Sets the maximum consecutive injections per category.
    pub fn max_consecutive(mut self, n: u32) -> Self {
        self.max_consecutive = n;
        self
    }

    /// Every rate in the plan, for validation sweeps.
    pub fn rates(&self) -> [(&'static str, f64); 5] {
        [
            ("spill-read", self.spill_read_rate),
            ("spill-write", self.spill_write_rate),
            ("corruption", self.corruption_rate),
            ("cpu-kernel", self.cpu_kernel_rate),
            ("host-alloc", self.host_alloc_rate),
        ]
    }

    /// Derives an independent per-stream plan (same rates, decorrelated
    /// seed) — used to give each consumer site (spill writer, executor
    /// pass loop, hybrid CPU worker, each multi-GPU device) its own
    /// fault stream so one site's draws never shift another's.
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

/// Well-known [`HostFaultPlan::derive`] stream ids, one per consumer
/// site, so independent sites never share a ChaCha stream.
pub mod streams {
    /// The out-of-core executor's pass loop (demotions, re-splits).
    pub const EXECUTOR: u64 = 0x01;
    /// The hybrid executor's CPU worker.
    pub const CPU_WORKER: u64 = 0x02;
    /// The spill-to-disk writer ([`crate::spill::multiply_to_disk`]).
    pub const SPILL_WRITE: u64 = 0x03;
    /// The spill resume/verification reader.
    pub const SPILL_READ: u64 = 0x04;
    /// Base id for per-device multi-GPU streams (`MULTI_GPU + device`).
    pub const MULTI_GPU: u64 = 0x10;
}

const CATEGORY_SALTS: [u64; 5] = [
    0x7370_696c_6c72_0005, // "spillr"
    0x7370_696c_6c77_0006, // "spillw"
    0x636f_7272_7570_0007, // "corrup"
    0x6370_756b_6572_0008, // "cpuker"
    0x686f_7374_616c_0009, // "hostal"
];

fn category_index(kind: HostFaultKind) -> usize {
    match kind {
        HostFaultKind::SpillRead => 0,
        HostFaultKind::SpillWrite => 1,
        HostFaultKind::Corruption => 2,
        HostFaultKind::CpuKernel => 3,
        HostFaultKind::HostAlloc => 4,
    }
}

/// Counters of injected host faults, per category.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostFaultStats {
    /// Spill-read faults injected.
    pub spill_read: u64,
    /// Spill-write faults injected.
    pub spill_write: u64,
    /// Shards corrupted on disk.
    pub corruption: u64,
    /// CPU-kernel faults injected.
    pub cpu_kernel: u64,
    /// Host-allocation stalls injected.
    pub host_alloc: u64,
}

impl HostFaultStats {
    /// Total host faults injected across all categories.
    pub fn total(&self) -> u64 {
        self.spill_read + self.spill_write + self.corruption + self.cpu_kernel + self.host_alloc
    }
}

/// Live injection state: one ChaCha stream per category plus
/// consecutive-injection bookkeeping.
#[derive(Debug)]
pub struct HostFaultState {
    plan: HostFaultPlan,
    streams: [ChaCha8Rng; 5],
    consecutive: [u32; 5],
    injected: [u64; 5],
}

impl HostFaultState {
    /// Builds the injection state for a plan.
    pub fn new(plan: HostFaultPlan) -> Self {
        let streams =
            std::array::from_fn(|i| ChaCha8Rng::seed_from_u64(plan.seed ^ CATEGORY_SALTS[i]));
        HostFaultState {
            plan,
            streams,
            consecutive: [0; 5],
            injected: [0; 5],
        }
    }

    /// The plan driving this state.
    pub fn plan(&self) -> &HostFaultPlan {
        &self.plan
    }

    /// Draws the category's stream once and decides whether to inject.
    /// Always consumes exactly one draw, so the decision sequence is a
    /// pure function of the plan and the op sequence.
    pub fn roll(&mut self, kind: HostFaultKind) -> bool {
        let i = category_index(kind);
        let rate = match kind {
            HostFaultKind::SpillRead => self.plan.spill_read_rate,
            HostFaultKind::SpillWrite => self.plan.spill_write_rate,
            HostFaultKind::Corruption => self.plan.corruption_rate,
            HostFaultKind::CpuKernel => self.plan.cpu_kernel_rate,
            HostFaultKind::HostAlloc => self.plan.host_alloc_rate,
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

    /// Runs one CPU chunk of `chunk_ns` through the CPU-kernel fault
    /// domain: every injected fault costs a recompute plus backoff
    /// before the clean pass. Counts go to `report`; each retry's cost
    /// (`chunk_ns` plus its backoff) is handed to `charge`, in order.
    pub(crate) fn cpu_kernel_retries(
        &mut self,
        cost: &gpu_sim::CostModel,
        chunk_ns: gpu_sim::SimTime,
        report: &mut RecoveryReport,
        mut charge: impl FnMut(gpu_sim::SimTime),
    ) {
        let mut attempt = 0u32;
        while self.roll(HostFaultKind::CpuKernel) {
            attempt += 1;
            let wait = backoff_ns(cost, attempt);
            report.cpu_kernel_faults += 1;
            report.retries += 1;
            report.backoff_ns += wait;
            report.time_lost_ns += chunk_ns + wait;
            charge(chunk_ns + wait);
        }
    }

    /// A deterministic corruption site for a shard of `len` bytes:
    /// `(byte offset, XOR mask)`. Draws the corruption stream once; the
    /// mask is never zero so the flip always lands.
    pub fn corruption_site(&mut self, len: u64) -> (u64, u8) {
        let i = category_index(HostFaultKind::Corruption);
        let draw = self.streams[i].next_u32();
        let offset = if len == 0 { 0 } else { draw as u64 % len };
        let mask = ((draw >> 8) as u8) | 1;
        (offset, mask)
    }

    /// Injection counters so far.
    pub fn stats(&self) -> HostFaultStats {
        HostFaultStats {
            spill_read: self.injected[0],
            spill_write: self.injected[1],
            corruption: self.injected[2],
            cpu_kernel: self.injected[3],
            host_alloc: self.injected[4],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic() {
        let run = |seed| {
            let mut st = HostFaultState::new(HostFaultPlan::seeded(seed).all_rates(0.3));
            (0..200)
                .map(|_| st.roll(HostFaultKind::CpuKernel))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ");
    }

    #[test]
    fn categories_draw_independent_streams() {
        let mut a = HostFaultState::new(HostFaultPlan::seeded(42).all_rates(0.5));
        let mut b = HostFaultState::new(HostFaultPlan::seeded(42).all_rates(0.5));
        for _ in 0..50 {
            a.roll(HostFaultKind::SpillWrite);
        }
        let seq_a: Vec<bool> = (0..50).map(|_| a.roll(HostFaultKind::CpuKernel)).collect();
        let seq_b: Vec<bool> = (0..50).map(|_| b.roll(HostFaultKind::CpuKernel)).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn max_consecutive_guarantees_progress() {
        let mut st =
            HostFaultState::new(HostFaultPlan::seeded(1).all_rates(1.0).max_consecutive(2));
        assert!(st.roll(HostFaultKind::SpillWrite));
        assert!(st.roll(HostFaultKind::SpillWrite));
        assert!(
            !st.roll(HostFaultKind::SpillWrite),
            "third consecutive roll must pass"
        );
        assert!(
            st.roll(HostFaultKind::SpillWrite),
            "counter resets after a clean roll"
        );
    }

    #[test]
    fn zero_rate_never_injects() {
        let mut st = HostFaultState::new(HostFaultPlan::seeded(99));
        assert!((0..1000).all(|_| !st.roll(HostFaultKind::HostAlloc)));
        assert_eq!(st.stats().total(), 0);
    }

    #[test]
    fn corruption_site_is_deterministic_and_in_bounds() {
        let mut a = HostFaultState::new(HostFaultPlan::seeded(5).all_rates(1.0));
        let mut b = HostFaultState::new(HostFaultPlan::seeded(5).all_rates(1.0));
        for len in [1u64, 7, 4096, 1 << 20] {
            let (off_a, mask_a) = a.corruption_site(len);
            let (off_b, mask_b) = b.corruption_site(len);
            assert_eq!((off_a, mask_a), (off_b, mask_b));
            assert!(off_a < len);
            assert_ne!(mask_a, 0, "mask must actually flip a bit");
        }
        let (off, _) = a.corruption_site(0);
        assert_eq!(off, 0, "zero-length shards degrade gracefully");
    }

    #[test]
    fn derive_changes_seed_only_and_decorrelates() {
        let base = HostFaultPlan::seeded(5).all_rates(0.2);
        let d = base.derive(streams::SPILL_WRITE);
        assert_ne!(d.seed, base.seed);
        assert_eq!(d.cpu_kernel_rate, base.cpu_kernel_rate);
        assert_ne!(
            base.derive(streams::EXECUTOR).seed,
            base.derive(streams::CPU_WORKER).seed
        );
    }

    #[test]
    fn stats_count_per_category() {
        let mut st = HostFaultState::new(
            HostFaultPlan::seeded(3)
                .cpu_kernel_rate(1.0)
                .max_consecutive(1),
        );
        st.roll(HostFaultKind::CpuKernel); // inject
        st.roll(HostFaultKind::CpuKernel); // blocked by max_consecutive
        st.roll(HostFaultKind::SpillRead); // rate 0 -> clean
        let s = st.stats();
        assert_eq!(s.cpu_kernel, 1);
        assert_eq!(s.spill_read, 0);
        assert_eq!(s.total(), 1);
    }
}
