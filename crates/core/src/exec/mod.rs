//! The query execution engine.
//!
//! A parsed [`cypher::Query`] is compiled by [`plan::ExecutionPlan::build`]
//! into a linear sequence of operations (scans, traversals, filters,
//! projections, writes) that is then interpreted against a
//! [`crate::store::graph::Graph`]. Traversal operations read the graph's
//! sparse matrices in place — single hops walk matrix rows, variable-length
//! hops run the direction-optimising bitmap BFS
//! ([`crate::store::graph::Graph::khop_reached`]: push steps that OR each
//! frontier row into a reached bitmap and mask it with the visited one a
//! word at a time, pull steps over the stored transposes) — which is exactly
//! the "Cypher → linear algebra" translation the paper describes. The `CALL
//! algo.*` procedures read the same rows the same way.
//!
//! Every operation has one signature: `PlanOp::run` maps the
//! [`record::RecordBatch`] (one flat slot-major buffer of fixed-width
//! records) its predecessor returned to the next batch, and
//! [`plan::ExecutionPlan::run`] is one loop that drives the operations in
//! order; the `RETURN`'s batch is the result set's rows. That is Volcano's
//! open/next/close a whole batch at a time: RedisGraph proper streams
//! records through the same chain, and materialising each batch keeps the
//! reproduction simple without changing the asymptotics of the benchmark
//! queries. Each query executes on a single thread, as the paper's
//! architecture dictates.

pub mod aggregate;
pub mod algebraic;
pub mod expr;
pub mod ops;
pub mod plan;
pub mod procedures;
pub mod record;
pub mod resultset;
