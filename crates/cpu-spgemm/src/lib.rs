#![warn(missing_docs)]

//! CPU SpGEMM executors.
//!
//! Four implementations with one signature, `C = A · B` on CSR inputs:
//!
//! * [`reference::multiply`] — sequential Gustavson (paper Algorithm 1);
//!   the ground truth every other executor in the workspace is verified
//!   against.
//! * [`parallel_hash`] — a Nagasaka-et-al.-style multicore two-phase
//!   SpGEMM: symbolic count, exact allocation, numeric fill with
//!   per-worker accumulators. One rule picks the accumulator: dense
//!   while `b.n_cols() ≤ accum::DENSE_WIDTH_LIMIT`, hash beyond. This
//!   is the paper's CPU baseline, the CPU side of its hybrid executor
//!   (Section III-C), and the default ([`CpuKernel::Hash`]). It is also
//!   the host kernel that computes every out-of-core chunk's real
//!   product (`gpu_spgemm::phases`).
//! * [`dense_blocked`] — a Patwary-et-al.-style variant that partitions
//!   `B` into column panels so a dense accumulator stays cache-resident
//!   ([`CpuKernel::Dense`]).
//! * [`mkl_like`] — a baseline constrained to 32-bit `row_offsets` /
//!   `col_ids`, reproducing the MKL limitation that made the paper
//!   reject it ("it can not handle large matrices", Section III-C).
//!
//! All of them produce bit-identical `C`; [`multiply_with_kernel`]
//! dispatches on a [`CpuKernel`] selection. [`multiply_semiring`]
//! generalizes Gustavson's loop to other semirings.
//!
//! ```
//! use sparse::gen::erdos_renyi;
//!
//! let a = erdos_renyi(100, 100, 0.05, 1);
//! let fast = cpu_spgemm::multiply_parallel(&a, &a).unwrap();
//! let reference = cpu_spgemm::multiply_reference(&a, &a).unwrap();
//! assert!(fast.approx_eq(&reference, 1e-9));
//! ```

pub mod dense_blocked;
pub mod mkl_like;
pub mod parallel_hash;
pub mod reference;
pub mod semiring;

pub use parallel_hash::{multiply as multiply_parallel, multiply_view as multiply_parallel_view};
pub use reference::multiply as multiply_reference;
pub use semiring::{multiply_semiring, Semiring};

use sparse::{CsrMatrix, Result, SparseError};
use std::str::FromStr;

/// Which CPU SpGEMM kernel to run — the `--cpu-kernel` selection. Both
/// variants produce bit-identical `C`; they are the paper's two CPU
/// baselines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CpuKernel {
    /// Two-phase SpGEMM ([`parallel_hash`], Nagasaka et al.) — the
    /// default.
    #[default]
    Hash,
    /// Column-panelled dense accumulation ([`dense_blocked`], Patwary
    /// et al.).
    Dense,
}

impl CpuKernel {
    /// Stable lowercase name (CLI value / JSON column).
    pub fn name(&self) -> &'static str {
        match self {
            CpuKernel::Hash => "hash",
            CpuKernel::Dense => "dense",
        }
    }
}

impl FromStr for CpuKernel {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "hash" => Ok(CpuKernel::Hash),
            "dense" => Ok(CpuKernel::Dense),
            other => Err(format!(
                "unknown cpu kernel '{other}' (expected hash or dense)"
            )),
        }
    }
}

impl std::fmt::Display for CpuKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Computes `C = a · b` with the selected [`CpuKernel`].
pub fn multiply_with_kernel(a: &CsrMatrix, b: &CsrMatrix, kernel: CpuKernel) -> Result<CsrMatrix> {
    match kernel {
        CpuKernel::Hash => parallel_hash::multiply(a, b),
        CpuKernel::Dense => dense_blocked::multiply(a, b),
    }
}

/// How many non-empty output rows the default kernel accumulated with
/// each method.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelPicks {
    /// Rows accumulated with the hash method.
    pub hash: u64,
    /// Rows accumulated with the dense array.
    pub dense: u64,
    /// Always 0: no CPU kernel merges rows. Kept only because the
    /// `e2e` benchmark reads it.
    pub merge: u64,
}

/// [`multiply_with_kernel`] with the default kernel, also reporting how
/// many non-empty rows each accumulator handled. The counts are read off
/// `C`: [`parallel_hash`] picks by width alone, so every non-empty row
/// is dense when `b.n_cols() ≤ accum::DENSE_WIDTH_LIMIT` and hash
/// otherwise.
pub fn multiply_with_picks(a: &CsrMatrix, b: &CsrMatrix) -> Result<(CsrMatrix, KernelPicks)> {
    let c = multiply_with_kernel(a, b, CpuKernel::default())?;
    let rows = c.row_offsets().windows(2).filter(|w| w[1] > w[0]).count() as u64;
    let picks = if b.n_cols() <= accum::DENSE_WIDTH_LIMIT {
        KernelPicks {
            dense: rows,
            ..KernelPicks::default()
        }
    } else {
        KernelPicks {
            hash: rows,
            ..KernelPicks::default()
        }
    };
    Ok((c, picks))
}

pub(crate) fn check_dims(a_rows: usize, a_cols: usize, b_rows: usize, b_cols: usize) -> Result<()> {
    if a_cols != b_rows {
        return Err(SparseError::DimensionMismatch {
            op: "spgemm",
            lhs: (a_rows, a_cols),
            rhs: (b_rows, b_cols),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_follow_the_width_rule() {
        let a = sparse::gen::erdos_renyi(40, 40, 0.1, 1);
        let (c, picks) = multiply_with_picks(&a, &a).unwrap();
        let rows = (0..c.n_rows())
            .filter(|&r| !c.row_cols(r).is_empty())
            .count();
        assert_eq!(
            picks,
            KernelPicks {
                dense: rows as u64,
                ..KernelPicks::default()
            }
        );
        assert_eq!(c, multiply_reference(&a, &a).unwrap());
    }

    #[test]
    fn kernel_names_round_trip() {
        for k in [CpuKernel::Hash, CpuKernel::Dense] {
            assert_eq!(k.name().parse::<CpuKernel>(), Ok(k));
        }
        assert!("merge".parse::<CpuKernel>().is_err());
        assert_eq!(CpuKernel::default(), CpuKernel::Hash);
    }

    #[test]
    fn dim_check() {
        assert!(super::check_dims(2, 3, 3, 4).is_ok());
        assert!(super::check_dims(2, 3, 4, 4).is_err());
    }
}
