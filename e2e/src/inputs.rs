//! Seeded input generation and device sizing. The program under test
//! only ever sees the generated matrices; everything here is a pure
//! function of `--seed`, so the same seed always gives the same inputs.

use sparse::gen::{erdos_renyi, grid3d_stencil, locality_graph, rmat, saddle_stencil, RmatConfig};
use sparse::ops::{add, random_symmetric_permutation};
use sparse::CsrMatrix;

/// Input sizes: `Full` for measurement, `Tiny` for the unit tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// The paper's three matrix classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Social graphs (com-LiveJournal): skewed, low compression.
    Social,
    /// PDE / KKT saddle systems (nlpkkt200): regular, high compression.
    Kkt,
    /// Web crawls (uk-2002): skewed with locality, high compression.
    Web,
}

impl Class {
    /// The paper's out-of-core factor for this class: the Table II
    /// output size of the class's matrix (`nnz(A²)` in millions × 12
    /// bytes) over the 16 GB device. Kept here rather than read from
    /// the library so a library edit cannot change the workload.
    pub fn ooc_factor(self) -> f64 {
        let nnz_c_millions = match self {
            Class::Social => 4859.09,
            Class::Kkt => 2425.94,
            Class::Web => 3194.99,
        };
        nnz_c_millions * 12.0 / 1024.0 / 16.0
    }

    /// One matrix of this class for a batch workload. Small sizes take
    /// about the same host time for every class through its workload's
    /// entry point; large ones take about 2.5 times as long.
    pub fn generate(self, scale: Scale, tier: Tier, seed: u64) -> CsrMatrix {
        let large = tier == Tier::Large;
        match (self, scale) {
            (Class::Social, Scale::Full) => rmat(
                RmatConfig::mild(13, if large { 90_000 } else { 40_000 }),
                seed,
            ),
            (Class::Social, Scale::Tiny) => {
                rmat(RmatConfig::mild(9, if large { 3_000 } else { 1_500 }), seed)
            }
            (Class::Kkt, Scale::Full) => kkt(if large { 16 } else { 12 }, seed),
            (Class::Kkt, Scale::Tiny) => kkt(if large { 5 } else { 4 }, seed),
            (Class::Web, Scale::Full) => web(if large { 5_000 } else { 2_500 }, seed),
            (Class::Web, Scale::Tiny) => web(if large { 300 } else { 200 }, seed),
        }
    }
}

/// Size tier of a batch input. An eighth to a quarter of each
/// workload's inputs are large, so the median falls among the small
/// products and p90 among the large ones, away from the boundary
/// between the two groups (and, in `hybrid-social`, between two large
/// inputs), where host noise or the seed would flip a percentile from
/// one to the other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    Small,
    Large,
}

/// The `uk-2002` analogue of the evaluation suite.
fn web(n: usize, seed: u64) -> CsrMatrix {
    locality_graph(n, 28.0, 8, 0.002, seed)
}

/// The `nlpkkt200` analogue of the evaluation suite: a KKT saddle
/// system over a 3-D 27-point stencil, symmetrically permuted. A few
/// random couplings (one per ten rows) make the structure, and so the
/// work, depend on the seed; without them every seed would give the
/// same flop and nonzero counts. More would erode the class's high
/// compression ratio.
fn kkt(side: usize, seed: u64) -> CsrMatrix {
    let h = grid3d_stencil(side, side, side, 1, seed);
    let saddle = saddle_stencil(&h, 8, 1.0, seed ^ 1);
    let n = saddle.n_rows();
    let noise = erdos_renyi(n, n, 0.1 / n as f64, seed ^ 3);
    let sum = add(&saddle, &noise).expect("same shape");
    random_symmetric_permutation(&sum, seed ^ 2)
}

/// Bytes per output nonzero moved to the host (8-byte value, 4-byte
/// column id).
pub const BYTES_PER_NNZ: u64 = 12;

/// Floor on the simulated device, so tiny test inputs stay plannable.
const MIN_DEVICE_BYTES: u64 = 64 << 10;

/// Simulated device memory for a product with `nnz_c` output
/// nonzeros: its output bytes over the class's out-of-core factor, so
/// each product solves the scheduling problem the paper's runs solve.
pub fn device_bytes(class: Class, nnz_c: u64) -> u64 {
    ((nnz_c * BYTES_PER_NNZ) as f64 / class.ooc_factor()).max(MIN_DEVICE_BYTES as f64) as u64
}

/// Splitmix64 step: the only source of randomness outside the
/// library's own generators.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent generator seed number `index` of `stream`, derived from
/// the run seed.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ index.rotate_left(32);
    splitmix64(&mut s)
}

/// Seed streams, one per generated set.
pub mod stream {
    pub const SOCIAL: u64 = 1;
    pub const KKT: u64 = 2;
    pub const WEB: u64 = 3;
    pub const SERVE_OPERANDS: u64 = 4;
    pub const SERVE_TRACE: u64 = 5;
}

/// `count` inputs of one class, the last `large` of them large.
fn tiered(
    seed: u64,
    scale: Scale,
    class: Class,
    st: u64,
    count: u64,
    large: u64,
) -> Vec<(Class, CsrMatrix)> {
    (0..count)
        .map(|i| {
            let tier = if i < count - large {
                Tier::Small
            } else {
                Tier::Large
            };
            (class, class.generate(scale, tier, derive(seed, st, i)))
        })
        .collect()
}

/// `hybrid-social`'s inputs: eight R-MAT social graphs, one large.
pub fn social(seed: u64, scale: Scale) -> Vec<(Class, CsrMatrix)> {
    tiered(seed, scale, Class::Social, stream::SOCIAL, 8, 1)
}

/// `gpu-regular`'s inputs: eight KKT systems and eight web graphs, two
/// of each large.
pub fn regular(seed: u64, scale: Scale) -> Vec<(Class, CsrMatrix)> {
    let mut inputs = tiered(seed, scale, Class::Kkt, stream::KKT, 8, 2);
    inputs.extend(tiered(seed, scale, Class::Web, stream::WEB, 8, 2));
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_follow_the_seed() {
        let scale = Scale::Tiny;
        assert_eq!(social(7, scale), social(7, scale));
        assert_eq!(regular(7, scale), regular(7, scale));
        assert_ne!(social(7, scale), social(8, scale));
        let (a, b) = (regular(7, scale), regular(8, scale));
        for ((ca, ma), (cb, mb)) in a.iter().zip(&b) {
            assert_eq!(ca, cb, "the class layout does not depend on the seed");
            assert_ne!(ma, mb, "{ca:?} input ignores the seed");
        }
    }

    #[test]
    fn derived_seeds_differ_across_streams_and_indices() {
        let seeds = [
            derive(1, stream::SOCIAL, 0),
            derive(1, stream::SOCIAL, 1),
            derive(1, stream::KKT, 0),
            derive(2, stream::SOCIAL, 0),
        ];
        for i in 0..seeds.len() {
            for j in i + 1..seeds.len() {
                assert_ne!(seeds[i], seeds[j]);
            }
        }
    }

    #[test]
    fn device_is_a_fraction_of_the_output() {
        let nnz_c = 10_000_000;
        for class in [Class::Social, Class::Kkt, Class::Web] {
            let dev = device_bytes(class, nnz_c);
            assert!(
                dev < nnz_c * BYTES_PER_NNZ,
                "{class:?} product fits in core"
            );
        }
    }
}
