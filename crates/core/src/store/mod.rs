//! The graph storage layer: id allocators and attribute slots, schemas
//! (label / relationship type / attribute registries) and the
//! matrix-backed [`graph::Graph`] object.

pub mod datablock;
pub mod entity;
pub mod graph;
pub mod schema;

pub use entity::AttributeSet;
pub use graph::{Graph, GraphSnapshot};
pub use schema::{AttributeId, LabelId, RelTypeId, Schema};
