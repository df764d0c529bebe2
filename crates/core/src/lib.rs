//! # redisgraph-core
//!
//! The core of the RedisGraph reproduction: a property-graph database whose
//! storage is a set of GraphBLAS sparse matrices and whose openCypher queries
//! are executed as sparse linear algebra, as described in *"RedisGraph:
//! GraphBLAS Enabled Graph Database"* (Cailliau et al., 2019).
//!
//! * [`store`] — the graph object: id allocators and attribute slots,
//!   label matrices, one relation matrix per relationship type plus its
//!   transpose (the combined adjacency is derived from them on demand), and
//!   the schema registries.
//! * [`exec`] — the query engine: an AST→execution-plan compiler and the
//!   operations (scans, algebraic traversals, filters, projections,
//!   aggregations, writes) that evaluate it.
//! * [`value`] — the runtime value type (`SIValue` in RedisGraph).
//!
//! ## Quickstart
//!
//! ```
//! use redisgraph_core::{Graph, Value};
//!
//! let mut g = Graph::new("social");
//! g.query("CREATE (:Person {name: 'Ann', age: 34})-[:KNOWS]->(:Person {name: 'Bob', age: 28})").unwrap();
//! let result = g.query("MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name, b.name").unwrap();
//! assert_eq!(result.rows.len(), 1);
//! // Rows are slices of one flat buffer, one value per column.
//! for row in &result.rows {
//!     assert_eq!(row, [Value::Str("Ann".into()), Value::Str("Bob".into())]);
//! }
//! assert_eq!(result.rows[0][1].to_string(), "Bob");
//! ```

pub mod error;
pub mod exec;
pub mod store;
pub mod value;

pub use error::QueryError;
pub use exec::plan::{format_profile, ExecutionPlan, GraphAccess, OpProfile, ParamValues, Params};
pub use exec::resultset::{QueryStats, ResultSet};
pub use store::graph::{Graph, GraphSnapshot, StorageBytes, TraverseDir};
pub use value::{EquivKey, Value};

/// Node identifier: the row/column index of the node in every matrix.
pub type NodeId = u64;
/// Edge identifier: the value of the relation cells that hold the edge, and
/// the index of its attribute slot, which it has only if it has properties.
pub type EdgeId = u64;
