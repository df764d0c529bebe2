//! # algo
//!
//! LAGraph-style whole-graph algorithms expressed purely in terms of the
//! [`graphblas`] crate's primitives — the "analytics on the same matrix
//! substrate" half of the paper's story. Each algorithm is one semiring choice
//! away from the traversal machinery the query engine already uses:
//!
//! | Algorithm | Kernel | Semiring |
//! |---|---|---|
//! | [`bfs_levels`] | bitmap-masked `vxm` (`bfs_push`: edges ORed into a reached bitmap, masked a word at a time), level-synchronous | `ANY_PAIR` over the pattern |
//! | [`sssp`] | Bellman–Ford rounds of `vxm` | `MIN_PLUS` over `f64` |
//! | [`pagerank`] | damped power iteration via `vxm` + `ewise` | `PLUS_TIMES` over `f64` |
//! | [`wcc`] | min-label propagation | `MIN_FIRST` over `u64` |
//! | [`triangle_count`] | masked `mxm` + `reduce` | `PLUS_PAIR` over `u64` |
//!
//! Inputs are plain adjacency matrices (`SparseMatrix<bool>` for structure,
//! `SparseMatrix<f64>` for weights), so the crate depends only on
//! `graphblas`; `redisgraph-core` exposes these functions to Cypher as
//! `CALL algo.*` procedures.
//!
//! ```
//! use graphblas::prelude::*;
//!
//! // Directed path 0→1→2 plus a chord 0→2.
//! let adj = SparseMatrix::from_triples(
//!     4,
//!     4,
//!     &[(0, 1, true), (1, 2, true), (0, 2, true)],
//! )
//! .unwrap();
//! let levels = algo::bfs_levels(&adj, 0);
//! assert_eq!(levels.extract_element(2), Some(1)); // the chord wins
//! assert_eq!(levels.extract_element(3), None); // unreachable
//! ```

pub mod bfs;
pub mod pagerank;
pub mod sssp;
pub mod triangles;
pub mod wcc;

pub use bfs::bfs_levels;
pub use pagerank::{pagerank, PageRankConfig, PageRankResult};
pub use sssp::sssp;
pub use triangles::triangle_count;
pub use wcc::wcc;
