//! # graphblas
//!
//! A pure-Rust reimplementation of the subset of the [GraphBLAS C API] /
//! SuiteSparse:GraphBLAS that RedisGraph relies on, plus the general typed
//! machinery (operators, monoids, semirings, masks, descriptors) needed to make
//! it a usable standalone sparse linear-algebra library.
//!
//! The central idea — exploited by RedisGraph and described in the paper this
//! repository reproduces — is the duality between graphs and sparse matrices:
//! a graph traversal step is a (masked) sparse matrix–vector or matrix–matrix
//! multiplication over a suitable semiring.
//!
//! ## Quick tour
//!
//! ```
//! use graphblas::prelude::*;
//!
//! // A 4x4 boolean adjacency matrix of a directed path 0→1→2→3. Writes go
//! // through a DeltaMatrix (RedisGraph's Δ⁺/Δ⁻ buffers over an immutable CSR).
//! let mut a = DeltaMatrix::<bool>::new(4, 4);
//! for i in 0..3 {
//!     a.set_element(i, i + 1, true);
//! }
//! a.flush(); // each leaf's buffered writes fold into a fresh CSR slice
//!
//! // One BFS step from vertex 0: frontier × adjacency over the LOR-LAND semiring.
//! let mut frontier = SparseVector::<bool>::new(4);
//! frontier.set_element(0, true);
//! let next = vxm(&frontier, &a.export(), &Semiring::lor_land(), None, &Descriptor::default());
//! assert_eq!(next.extract_element(1), Some(true));
//! assert_eq!(next.nvals(), 1);
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
pub mod reduce;
pub mod select;
pub mod semiring;
pub mod transpose;
pub mod types;
pub mod vector;

pub use binary_op::BinaryOp;
pub use bitmap::{bfs_pull, bfs_push, Bitmap, RowSource};
pub use chunk_table::ChunkTable;
pub use delta::{DeltaMatrix, DEFAULT_FLUSH_THRESHOLD};
pub use descriptor::Descriptor;
pub use error::{GrbError, GrbResult};
pub use frontier::frontier_matrix;
pub use mask::{MatrixMask, VectorMask};
pub use matrix::SparseMatrix;
pub use monoid::Monoid;
pub use mxm::mxm;
pub use mxv::{mxv, vxm};
pub use semiring::Semiring;
pub use types::Scalar;
pub use vector::SparseVector;

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::binary_op::BinaryOp;
    pub use crate::bitmap::{bfs_pull, bfs_push, Bitmap, RowSource};
    pub use crate::chunk_table::ChunkTable;
    pub use crate::delta::{DeltaMatrix, DEFAULT_FLUSH_THRESHOLD};
    pub use crate::descriptor::Descriptor;
    pub use crate::error::{GrbError, GrbResult};
    pub use crate::ewise::{ewise_add_matrix, ewise_add_vector};
    pub use crate::frontier::frontier_matrix;
    pub use crate::mask::{MatrixMask, VectorMask};
    pub use crate::matrix::SparseMatrix;
    pub use crate::monoid::Monoid;
    pub use crate::mxm::mxm;
    pub use crate::mxv::{mxv, vxm};
    pub use crate::reduce::reduce_matrix_to_scalar;
    pub use crate::select::{select_matrix, SelectOp};
    pub use crate::semiring::Semiring;
    pub use crate::transpose::transpose;
    pub use crate::types::Scalar;
    pub use crate::vector::SparseVector;
}

/// Index type used throughout the library (matches `GrB_Index`).
pub type Index = u64;
