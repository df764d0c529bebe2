//! # graphblas
//!
//! A pure-Rust reimplementation of the subset of the [GraphBLAS C API] /
//! SuiteSparse:GraphBLAS that RedisGraph relies on.
//!
//! The central idea — exploited by RedisGraph and described in the paper this
//! repository reproduces — is the duality between graphs and sparse matrices:
//! a graph traversal step is a (masked) sparse matrix–vector or matrix–matrix
//! multiplication over a suitable semiring.
//!
//! A stored matrix is a [`DeltaMatrix`], read in place a row at a time
//! ([`DeltaMatrix::any_run`]) or in one row-major walk
//! ([`DeltaMatrix::runs`]), pending changes merged. The BFS-step kernels
//! ([`bfs_scan`] and [`bfs_push`], [`bfs_pull`]), the `algo` crate's
//! algorithms and every whole-matrix copy ([`DeltaMatrix::export`]) read it
//! so. The whole-matrix kernels
//! ([`vxm`], [`mxm`], [`transpose`](transpose::transpose),
//! [`ewise_add_vector`](ewise::ewise_add_vector)) and the [`SparseMatrix`] /
//! [`SparseVector`] / [`Semiring`] machinery they take serve rgbench's
//! ladder only; T9a deletes them.
//!
//! ## Quick tour
//!
//! ```
//! use graphblas::prelude::*;
//!
//! // A 4x4 adjacency matrix of a directed path 0→1→2→3. Writes go through a
//! // DeltaMatrix (RedisGraph's Δ⁺/Δ⁻ buffers over immutable CSR leaves).
//! let mut a = DeltaMatrix::<bool>::new(4, 4)?;
//! for i in 0..3 {
//!     a.set_element(i, i + 1, true);
//! }
//! a.flush(); // each leaf's buffered writes fold into a fresh CSR slice
//! a.set_element(0, 2, true); // pending, and read through the merged view
//!
//! // One BFS step from vertex 0, reading the rows in place:
//! // next⟨¬visited⟩ = frontier any.pair A.
//! let (mut visited, mut reached, mut next) = (Bitmap::new(4), Reached::new(4), Vec::new());
//! visited.insert(0);
//! bfs_scan(&a, &[0], &mut reached);
//! bfs_push(&mut reached, &mut visited, &mut next);
//! assert_eq!(next, [1, 2]);
//!
//! // The whole-matrix walk: every stored entry, row-major.
//! let mut entries = Vec::new();
//! a.runs(|row, cols, _| entries.extend(cols.iter().map(|&col| (row, col))));
//! assert_eq!(entries, [(0, 1), (0, 2), (1, 2), (2, 3)]);
//! # Ok::<(), GrbError>(())
//! ```
//!
//! [GraphBLAS C API]: https://graphblas.org

pub mod binary_op;
pub mod bitmap;
pub mod chunk_table;
pub mod delta;
pub mod descriptor;
pub mod error;
pub mod ewise;
pub mod frontier;
pub mod mask;
pub mod matrix;
pub mod monoid;
pub mod mxm;
pub mod mxv;
pub mod semiring;
pub mod transpose;
pub mod types;
pub mod vector;

pub use binary_op::BinaryOp;
pub use bitmap::{bfs_pull, bfs_push, bfs_scan, union_row, Bitmap, Reached};
pub use chunk_table::ChunkTable;
pub use delta::{DeltaMatrix, DEFAULT_FLUSH_THRESHOLD, MAX_DIM};
pub use descriptor::Descriptor;
pub use error::{GrbError, GrbResult};
pub use frontier::frontier_matrix;
pub use mask::{MatrixMask, VectorMask};
pub use matrix::SparseMatrix;
pub use monoid::Monoid;
pub use mxm::mxm;
pub use mxv::vxm;
pub use semiring::Semiring;
pub use types::Scalar;
pub use vector::SparseVector;

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::binary_op::BinaryOp;
    pub use crate::bitmap::{bfs_pull, bfs_push, bfs_scan, union_row, Bitmap, Reached};
    pub use crate::chunk_table::ChunkTable;
    pub use crate::delta::{DeltaMatrix, DEFAULT_FLUSH_THRESHOLD, MAX_DIM};
    pub use crate::descriptor::Descriptor;
    pub use crate::error::{GrbError, GrbResult};
    pub use crate::ewise::ewise_add_vector;
    pub use crate::frontier::frontier_matrix;
    pub use crate::mask::{MatrixMask, VectorMask};
    pub use crate::matrix::SparseMatrix;
    pub use crate::monoid::Monoid;
    pub use crate::mxm::mxm;
    pub use crate::mxv::vxm;
    pub use crate::semiring::Semiring;
    pub use crate::transpose::transpose;
    pub use crate::types::Scalar;
    pub use crate::vector::SparseVector;
}

/// Index type used throughout the library (matches `GrB_Index`).
pub type Index = u64;
