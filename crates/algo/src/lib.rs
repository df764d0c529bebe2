//! # algo
//!
//! LAGraph-style whole-graph algorithms over the stored matrices themselves —
//! the "analytics on the same matrix substrate" half of the paper's story.
//! Each reads its relations' [`graphblas::DeltaMatrix`] rows in place, as
//! the query engine's traversals do, with plain row loops over dense
//! per-vertex arrays:
//!
//! | Algorithm | Reads | LAGraph shape |
//! |---|---|---|
//! | [`sssp`] | forward rows of the vertices that moved, cells weighted by the caller | Bellman–Ford rounds |
//! | [`pagerank`] | in-rows (the stored transposes), merged across relations | damped power iteration, pulled |
//! | [`wcc`] | each relation's whole-matrix walk, once | union-find |
//! | [`triangle_count`] | each relation's whole-matrix walk, counted into sorted, loop-free lower rows | `L ⊙ L·Lᵀ` as sorted-row intersections |
//!
//! Each takes its relations as `&[&DeltaMatrix<T>]`: a pair stored in
//! several is one edge of their union. `algo.bfs` is the query engine's own
//! bitmap BFS recording levels, so this crate depends only on `graphblas`;
//! `redisgraph-core` exposes these functions to Cypher as `CALL algo.*`
//! procedures.
//!
//! ```
//! use graphblas::DeltaMatrix;
//!
//! // A triangle 0→1→2→0 and an edge 2→3 under two relation types, which
//! // both store 0→1; vertex 4 has no edge.
//! let relation = |pairs: &[(u64, u64)]| {
//!     let walk = |f: &mut dyn FnMut(u64, u64)| pairs.iter().for_each(|&(u, v)| f(u, v));
//!     DeltaMatrix::from_pairs(5, 5, walk, |_, _| ()).unwrap()
//! };
//! let (r, s) = (relation(&[(0, 1), (1, 2), (2, 0)]), relation(&[(0, 1), (2, 3)]));
//! assert_eq!(algo::triangle_count(&[&r, &s]), 1);
//! let labels = algo::wcc(&[&r, &s], &[0, 1, 2, 3, 4]);
//! assert_eq!(labels, [(0, 0), (1, 0), (2, 0), (3, 0), (4, 4)]);
//! ```

pub mod pagerank;
pub mod sssp;
pub mod triangles;
pub mod wcc;

pub use pagerank::{pagerank, PageRankConfig, PageRankResult};
pub use sssp::sssp;
pub use triangles::triangle_count;
pub use wcc::wcc;

use graphblas::{DeltaMatrix, Index, Scalar};

/// Length of the dense per-vertex arrays: every row of the sources and
/// every vertex in `vertices`.
fn dim<T: Scalar>(sources: &[&DeltaMatrix<T>], vertices: &[Index]) -> usize {
    let rows = sources.iter().map(|s| s.nrows());
    rows.chain(vertices.iter().map(|&v| v + 1)).max().unwrap_or(0) as usize
}
