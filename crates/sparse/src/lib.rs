#![warn(missing_docs)]

//! Sparse matrix substrate for the out-of-core CPU-GPU SpGEMM reproduction.
//!
//! This crate provides everything the SpGEMM executors need from the
//! "matrix side" of the system:
//!
//! * [`CsrMatrix`] — the compressed sparse row format used throughout the
//!   paper (Section II-A), with sorted column ids per row.
//! * [`CooMatrix`] and [`CsrBuilder`] — construction paths.
//! * [`ops`] — transpose, SpMV, element-wise addition, comparisons.
//! * [`io`] — Matrix Market and a compact binary format.
//! * [`gen`] — deterministic synthetic generators (R-MAT, Erdős–Rényi,
//!   banded/FEM-style, Kronecker) plus [`gen::suite()`], the 9-matrix
//!   analogue of the paper's Table II evaluation suite.
//! * [`stats`] — nnz / flop / compression-ratio analysis (Table II).
//! * [`partition`] — balanced range splits for row panels and the
//!   two-stage column-panel partitioners (Section III-D), including the
//!   `col_offset` cursor optimization.
//!
//! Column indices are stored as `u32` ([`ColId`]); values are `f64`, the
//! data type the paper evaluates with (Section V-B).
//!
//! ```
//! use sparse::{CooMatrix, CsrMatrix};
//! use sparse::partition::col::{even_col_ranges, ColPartitioner};
//!
//! // Build a matrix from triplets, partition it into column panels.
//! let mut coo = CooMatrix::new(3, 6);
//! coo.push(0, 0, 1.0).unwrap();
//! coo.push(1, 3, 2.0).unwrap();
//! coo.push(2, 5, 3.0).unwrap();
//! let m: CsrMatrix = coo.to_csr();
//! let panels = ColPartitioner::Cursor.partition(&m, &even_col_ranges(&m, 2));
//! assert_eq!(panels.len(), 2);
//! assert_eq!(panels[0].matrix.nnz() + panels[1].matrix.nnz(), m.nnz());
//! ```

pub mod coo;
pub mod csc;
pub mod csr;
pub mod error;
pub mod gen;
pub mod io;
pub mod ops;
pub mod partition;
pub mod stats;
pub mod view;

mod builder;

pub use builder::CsrBuilder;
pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::{ColId, CsrMatrix};
pub use error::SparseError;
pub use view::CsrView;

/// Result alias for fallible sparse-matrix operations.
pub type Result<T> = std::result::Result<T, SparseError>;
