//! # redisgraph (umbrella crate)
//!
//! Facade over the workspace reproducing *"RedisGraph: GraphBLAS Enabled
//! Graph Database"* (Cailliau et al., IPDPSW 2019). It re-exports the
//! user-facing pieces of each layer so quick experiments can depend on one
//! crate, and it hosts the cross-crate integration tests
//! (`tests/integration.rs`) and the runnable examples (`examples/`).
//!
//! Layer map (bottom to top):
//!
//! * [`graphblas`] — delta matrices read a row at a time in place, the
//!   bitmap BFS steps, and (for rgbench's ladder) whole-matrix kernels;
//! * [`algo`] — LAGraph-style whole-graph algorithms (SSSP, PageRank, WCC,
//!   triangle counting) over the same stored rows, surfaced in Cypher as
//!   `CALL algo.*` procedures with the BFS levels of the query engine's own
//!   BFS;
//! * [`cypher`] — openCypher lexer/parser producing the AST;
//! * [`core`](redisgraph_core) — the graph store (DataBlocks + label and
//!   relation matrices) and the AST→plan→GraphBLAS executor;
//! * [`server`](redisgraph_server) — RESP framing, command dispatch, and
//!   the module worker pool;
//! * [`datagen`] / [`baseline`] — benchmark datasets and the
//!   adjacency-list comparison engine.

pub use algo;
pub use baseline;
pub use cypher;
pub use datagen;
pub use graphblas;
pub use redisgraph_core as core;
pub use redisgraph_server as server;

pub use redisgraph_core::{Graph, Value};
pub use redisgraph_server::{RedisGraphServer, RespValue, ServerConfig};
