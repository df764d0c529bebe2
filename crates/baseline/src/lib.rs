//! # baseline
//!
//! The comparison side of the paper's evaluation.
//!
//! * [`engine`] — a conventional **adjacency-list, pointer-chasing** graph
//!   database engine with per-node property storage and a BFS k-hop
//!   implementation. This is the architectural stand-in for the traversal-style
//!   databases the TigerGraph benchmark measured (Neo4j, JanusGraph, ArangoDB,
//!   Neptune): every hop dereferences per-node neighbour lists instead of
//!   operating on sparse matrices.
//! * [`algorithms`] — naive reference implementations (queue BFS, edge-list
//!   Bellman–Ford, dense power iteration, union–find, adjacency-intersection
//!   triangle counting) used as oracles by `crates/algo`'s property tests.

pub mod algorithms;
pub mod engine;

pub use engine::AdjacencyListGraph;
