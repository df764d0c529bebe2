//! Execution-plan operations.
//!
//! Every operation runs through one protocol, `PlanOp::run`: it takes the
//! [`RecordBatch`] its predecessor produced and returns the batch it
//! produces (a filter compacts the batch it is given). The operation set
//! mirrors RedisGraph's execution plan: scans, algebraic traversals,
//! filters, projections/aggregations and the write operations.
//!
//! The plan builder ([`crate::exec::plan`]) creates each op already compiled
//! against its segment, and an op holds nothing of the query's AST: record
//! slots, [`SlotExpr`]s and [`SlotProjection`]s, name-table indexes for
//! property keys, labels and relationship types, a procedure's registry
//! entry, and the variable names `EXPLAIN` prints. No op sees a name: the
//! plan's [`NameTable`] is resolved once per execution.

use crate::error::QueryError;
use crate::exec::aggregate::{Accumulator, AggFunc};
use crate::exec::algebraic::{fused, AlgebraicExpression};
use crate::exec::expr::{property, NameIds, NameTable, Scope, SlotExpr};
use crate::exec::plan::GraphAccess;
use crate::exec::procedures::Procedure;
use crate::exec::record::RecordBatch;
use crate::exec::resultset::QueryStats;
use crate::store::entity::AttributeSet;
use crate::store::graph::{Graph, TraverseDir};
use crate::value::{EquivKey, EquivRow, Value};
use crate::{EdgeId, NodeId};
use cypher::{Direction, SortOrder};
use graphblas::Bitmap;
use std::collections::{HashMap, HashSet};

/// One step of an execution plan. Labels, relationship types and property
/// keys are indexes into the plan's [`NameTable`].
#[derive(Debug)]
pub enum PlanOp {
    /// Bind every node of the graph to `slot` (cartesian with existing records).
    AllNodeScan {
        /// Output slot.
        slot: usize,
        /// Variable name (for `EXPLAIN`).
        var: String,
    },
    /// Bind every node carrying `label` to `slot`.
    NodeByLabelScan {
        /// Output slot.
        slot: usize,
        /// Variable name.
        var: String,
        /// Label to scan.
        label: usize,
    },
    /// Bind the node whose id equals `id` (`WHERE id(n) = …`, a conjunct the
    /// seek answers alone).
    NodeByIdSeek {
        /// Output slot.
        slot: usize,
        /// Variable name.
        var: String,
        /// The id value: a literal or a parameter.
        id: SlotExpr,
    },
    /// Keep only records for which every predicate evaluates to `true` (the
    /// `AND` conjuncts of a `WHERE`).
    Filter {
        /// The predicates.
        predicates: Vec<SlotExpr>,
    },
    /// Keep only records whose `slot` node carries `label`.
    LabelFilter {
        /// Slot holding the node.
        slot: usize,
        /// Required label.
        label: usize,
    },
    /// Keep only records whose `slot` entity has property `key` equal to `value`.
    PropFilter {
        /// Slot holding the node or edge.
        slot: usize,
        /// Property key.
        key: usize,
        /// Required value.
        value: Value,
    },
    /// Traverse relationships from the bound source node (see [`Traverse`]).
    Traverse(Traverse),
    /// A fused fixed-length chain traversal: the whole chain evaluates as
    /// one algebraic product under the counting semiring instead of one
    /// `Traverse` op (and record materialisation) per hop. Built by the
    /// optimizer pass in [`crate::exec::algebraic`].
    FusedTraverse {
        /// Slot of the already-bound source node (the frontier).
        src_slot: usize,
        /// Slot receiving the chain's final destination node.
        dst_slot: usize,
        /// The algebraic expression (`F·A_R·A_S`) the op evaluates.
        expr: AlgebraicExpression,
        /// Hidden slot receiving the per-row path count when the downstream
        /// consumer is a weight-aware aggregation; `None` = expand each
        /// product cell into `count` records.
        weight_slot: Option<usize>,
    },
    /// A variable-length traversal whose only consumer was a group-free
    /// `count` aggregation: the counts are reduced straight from the reached
    /// sets (`Σ |reached|`, `|∪ reached|`) and no record is built per
    /// reached node. Built by the optimizer pass in
    /// [`crate::exec::algebraic`] from a `Traverse` + `Aggregate` pair.
    TraverseCount {
        /// The variable-length traversal.
        traverse: Traverse,
        /// What each projection item reduces to, in projection order.
        counts: Vec<ReachCount>,
        /// The aggregating projection it replaces (`SKIP`, `LIMIT`).
        projection: SlotProjection,
    },
    /// Final projection (`RETURN`).
    Project {
        /// The projection.
        projection: SlotProjection,
    },
    /// Final aggregation (`RETURN` containing aggregate functions).
    Aggregate {
        /// The aggregating projection.
        projection: SlotProjection,
        /// Slot holding a per-record path-count weight written by an
        /// upstream [`PlanOp::FusedTraverse`] (`Null`/absent = weight 1).
        weight_slot: Option<usize>,
    },
    /// Intermediate projection (`WITH`); re-binds records for the next segment.
    With {
        /// The projection (aggregating or not).
        projection: SlotProjection,
        /// The next segment's slot for each output column.
        next_slots: Vec<usize>,
        /// The next segment's record width, set once the plan is optimized.
        next_width: usize,
    },
    /// Create the given patterns once per incoming record.
    Create {
        /// Patterns to instantiate.
        patterns: Vec<CreatePattern>,
    },
    /// Delete the entities in the given slots (node deletion always cascades
    /// to incident edges, as RedisGraph does).
    Delete {
        /// Slots of the entities to delete.
        slots: Vec<usize>,
    },
    /// Set properties on bound entities.
    SetProps {
        /// Assignments.
        items: Vec<SetStep>,
    },
    /// Expand a list expression into one record per element.
    Unwind {
        /// List-valued expression.
        list: SlotExpr,
        /// Output slot.
        slot: usize,
        /// Variable name.
        var: String,
    },
    /// Invoke a registered procedure (`CALL algo.*`) and stream its rows into
    /// the record pipeline, once per incoming record.
    ProcedureCall {
        /// The procedure (resolved and validated at plan-build time).
        procedure: &'static Procedure,
        /// Argument expressions, evaluated per record.
        args: Vec<SlotExpr>,
        /// True when no argument reads a variable: the procedure runs once
        /// and its rows serve every record.
        constant_args: bool,
        /// `(procedure output column index, record slot)` pairs for the
        /// yielded columns.
        outputs: Vec<(usize, usize)>,
    },
}

/// A relationship-pattern step: traverse relationships from the node in
/// `src_slot`, binding reached nodes to `dst_slot` (and the traversed edge
/// to `edge_slot` for single hops). Variable-length traversals run the
/// bitmap BFS of [`Graph::khop_reached`] once per distinct source.
#[derive(Debug, Clone)]
pub struct Traverse {
    /// Slot of the already-bound source node.
    pub(crate) src_slot: usize,
    /// Slot receiving the destination node.
    pub(crate) dst_slot: usize,
    /// Destination variable name (for `EXPLAIN`).
    pub(crate) dst_var: String,
    /// Slot receiving the traversed edge (single hop, named edge only).
    pub(crate) edge_slot: Option<usize>,
    /// Relationship types (empty = any type).
    pub(crate) rel_types: Vec<usize>,
    /// Pattern direction.
    pub(crate) direction: Direction,
    /// Minimum hop count.
    pub(crate) min_hops: u32,
    /// Maximum hop count; `None` = unbounded.
    pub(crate) max_hops: Option<u32>,
    /// True if the destination is already bound (expand-into / semi-join).
    pub(crate) expand_into: bool,
}

impl Traverse {
    /// True for a single hop (`-[]->`, no `*`).
    pub(crate) fn single_hop(&self) -> bool {
        self.min_hops == 1 && self.max_hops == Some(1)
    }

    /// The `[:types *min..max] -> (dst)` part of the step's description.
    fn pattern(&self, names: &NameTable) -> String {
        let types = names.rel_types_text(&self.rel_types);
        let hops = match (self.min_hops, self.max_hops) {
            (1, Some(1)) => String::new(),
            (min, Some(max)) => format!(" *{min}..{max}"),
            (min, None) => format!(" *{min}.."),
        };
        format!("[:{types}{hops}] -> ({})", self.dst_var)
    }
}

/// A `RETURN`/`WITH` projection compiled against its segment.
#[derive(Debug, Clone)]
pub struct SlotProjection {
    pub(crate) items: Vec<SlotItem>,
    pub(crate) order: Vec<(SortKey, SortOrder)>,
    pub(crate) distinct: bool,
    pub(crate) skip: usize,
    pub(crate) limit: usize,
}

/// One compiled projection item.
#[derive(Debug, Clone)]
pub(crate) enum SlotItem {
    /// A scalar item: a group key, when the projection aggregates.
    Scalar(SlotExpr),
    /// An aggregate fed `arg` per record (`None` = `count(*)`, a non-null
    /// marker per record). An item that nests its aggregate inside another
    /// expression is fed `Null`, so it folds nothing.
    Aggregate { func: AggFunc, distinct: bool, arg: Option<SlotExpr> },
}

/// An `ORDER BY` key: an output column it names (by alias or identical
/// expression, so aggregated columns can be sorted on), or else an
/// expression evaluated per record.
#[derive(Debug, Clone)]
pub(crate) enum SortKey {
    Column(usize),
    Expr(SlotExpr),
}

impl SlotProjection {
    pub(crate) fn aggregates(&self) -> bool {
        self.items.iter().any(|item| matches!(item, SlotItem::Aggregate { .. }))
    }

    /// Append every record slot an item or a sort key reads to `out`.
    fn slots(&self, out: &mut Vec<usize>) {
        for item in &self.items {
            if let SlotItem::Scalar(expr) | SlotItem::Aggregate { arg: Some(expr), .. } = item {
                expr.slots(out);
            }
        }
        for (key, _) in &self.order {
            if let SortKey::Expr(expr) = key {
                expr.slots(out);
            }
        }
    }

    /// Append the sort keys of output `row`, projected from `record`, to
    /// `out`.
    fn push_keys(&self, row: &[Value], record: &[Value], scope: &Scope<'_>, out: &mut Vec<Value>) {
        out.extend(self.order.iter().map(|(key, _)| match key {
            SortKey::Column(column) => row[*column].clone(),
            SortKey::Expr(expr) => expr.eval(record, scope),
        }));
    }
}

/// One node of a compiled `CREATE` pattern.
#[derive(Debug, Clone)]
pub struct CreateNode {
    /// The node's slot, when it is named: a bound node is reused.
    pub(crate) slot: Option<usize>,
    /// Name-table indexes of its labels.
    pub(crate) labels: Vec<usize>,
    /// Its properties, by name-table index.
    pub(crate) props: Vec<(usize, Value)>,
}

/// One relationship of a compiled `CREATE` pattern.
#[derive(Debug, Clone)]
pub struct CreateRel {
    pub(crate) slot: Option<usize>,
    /// Name-table index of its type.
    pub(crate) rel_type: usize,
    pub(crate) props: Vec<(usize, Value)>,
    /// Stored from the step's node to the previous one.
    pub(crate) incoming: bool,
}

/// A compiled `CREATE` path pattern.
#[derive(Debug, Clone)]
pub struct CreatePattern {
    pub(crate) start: CreateNode,
    pub(crate) steps: Vec<(CreateRel, CreateNode)>,
}

impl CreatePattern {
    /// The slots of the pattern's named nodes and relationships.
    pub(crate) fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        let steps = self.steps.iter().flat_map(|(rel, node)| [rel.slot, node.slot]);
        std::iter::once(self.start.slot).chain(steps).flatten()
    }
}

/// A compiled `SET` item.
#[derive(Debug, Clone)]
pub struct SetStep {
    /// Slot of the node or edge to update.
    pub(crate) slot: usize,
    /// Name-table index of the property key.
    pub(crate) key: usize,
    pub(crate) value: SlotExpr,
}

/// The count a [`PlanOp::TraverseCount`] item reduces the reached sets to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReachCount {
    /// `count(dst)` / `count(*)`: one per (record, reached node) pair,
    /// `Σ |reached|` over the incoming records.
    Total,
    /// `count(DISTINCT dst)`: `|∪ reached|`.
    Distinct,
}

/// Whether an operator reads a record slot or binds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotUse {
    Read,
    Bound,
}

impl PlanOp {
    /// One-line description used by `GRAPH.EXPLAIN`; `names` is the plan's
    /// name table.
    pub fn describe(&self, names: &NameTable) -> String {
        match self {
            PlanOp::AllNodeScan { var, .. } => format!("All Node Scan | ({var})"),
            PlanOp::NodeByLabelScan { var, label, .. } => {
                format!("Node By Label Scan | ({var}:{})", names.labels[*label])
            }
            PlanOp::NodeByIdSeek { var, .. } => format!("Node By Id Seek | ({var})"),
            PlanOp::Filter { .. } => "Filter".to_string(),
            PlanOp::LabelFilter { label, .. } => {
                format!("Label Filter | :{}", names.labels[*label])
            }
            PlanOp::PropFilter { key, .. } => format!("Property Filter | .{}", names.keys[*key]),
            PlanOp::Traverse(traverse) => {
                let pattern = traverse.pattern(names);
                if traverse.expand_into {
                    format!("Expand Into | {pattern}")
                } else {
                    format!("Conditional Traverse | {pattern}")
                }
            }
            PlanOp::TraverseCount { traverse, counts, projection } => {
                let reduces: Vec<String> = counts
                    .iter()
                    .zip(&projection.items)
                    .map(|(count, item)| {
                        let arg = match item {
                            SlotItem::Aggregate { arg: None, .. } => "*",
                            _ => traverse.dst_var.as_str(),
                        };
                        match count {
                            ReachCount::Total => format!("count({arg}) = Σ nvals(reached)"),
                            ReachCount::Distinct => {
                                format!("count(DISTINCT {arg}) = nvals(∪ reached)")
                            }
                        }
                    })
                    .collect();
                format!(
                    "Conditional Traverse | {} | Aggregate pushdown: {}",
                    traverse.pattern(names),
                    reduces.join(", ")
                )
            }
            PlanOp::FusedTraverse { expr, .. } => {
                format!("Conditional Traverse | {}", expr.describe(names))
            }
            PlanOp::Project { .. } => "Project".to_string(),
            PlanOp::Aggregate { .. } => "Aggregate".to_string(),
            PlanOp::With { .. } => "With".to_string(),
            PlanOp::Create { .. } => "Create".to_string(),
            PlanOp::Delete { .. } => "Delete".to_string(),
            PlanOp::SetProps { .. } => "Update".to_string(),
            PlanOp::Unwind { var, .. } => format!("Unwind | ({var})"),
            PlanOp::ProcedureCall { procedure, .. } => {
                format!("ProcedureCall | {}", procedure.name)
            }
        }
    }

    /// Every record slot of its segment the operator touches, with whether
    /// it reads or binds it. A `CREATE` binds all its named slots (a node
    /// already bound is reused), a `WITH`'s outputs are the next segment's.
    pub(crate) fn slots(&self) -> Vec<(usize, SlotUse)> {
        let (mut read, mut bound) = (Vec::new(), Vec::new());
        match self {
            PlanOp::AllNodeScan { slot, .. } | PlanOp::NodeByLabelScan { slot, .. } => {
                bound.push(*slot)
            }
            PlanOp::NodeByIdSeek { slot, id: expr, .. }
            | PlanOp::Unwind { slot, list: expr, .. } => {
                bound.push(*slot);
                expr.slots(&mut read);
            }
            PlanOp::Filter { predicates } => predicates.iter().for_each(|p| p.slots(&mut read)),
            PlanOp::LabelFilter { slot, .. } | PlanOp::PropFilter { slot, .. } => read.push(*slot),
            PlanOp::Traverse(t) => {
                read.push(t.src_slot);
                if t.expand_into { &mut read } else { &mut bound }.push(t.dst_slot);
                bound.extend(t.edge_slot);
            }
            PlanOp::FusedTraverse { src_slot, dst_slot, weight_slot, .. } => {
                read.push(*src_slot);
                bound.extend([*dst_slot].into_iter().chain(*weight_slot));
            }
            PlanOp::TraverseCount { traverse, projection, .. } => {
                read.push(traverse.src_slot);
                projection.slots(&mut read);
            }
            PlanOp::Project { projection } | PlanOp::With { projection, .. } => {
                projection.slots(&mut read)
            }
            PlanOp::Aggregate { projection, weight_slot } => {
                projection.slots(&mut read);
                read.extend(*weight_slot);
            }
            PlanOp::Create { patterns } => {
                bound.extend(patterns.iter().flat_map(CreatePattern::slots))
            }
            PlanOp::Delete { slots } => read.extend(slots),
            PlanOp::SetProps { items } => items.iter().for_each(|item| {
                read.push(item.slot);
                item.value.slots(&mut read);
            }),
            PlanOp::ProcedureCall { args, outputs, .. } => {
                args.iter().for_each(|arg| arg.slots(&mut read));
                bound.extend(outputs.iter().map(|&(_, slot)| slot));
            }
        }
        let read = read.into_iter().map(|slot| (slot, SlotUse::Read));
        read.chain(bound.into_iter().map(|slot| (slot, SlotUse::Bound))).collect()
    }

    /// Run the operator over `records`, the batch its predecessor produced,
    /// and return the batch it produces: the one operator protocol. Scans,
    /// seeks, traversals, `UNWIND` and `CALL` extend each record; filters
    /// compact the batch they are given; `RETURN` and `WITH` map records to
    /// rows; the writes apply themselves once per record and pass the batch
    /// on.
    pub(crate) fn run(
        &self,
        mut records: RecordBatch,
        cx: &mut Exec<'_>,
    ) -> Result<RecordBatch, QueryError> {
        let scope = &cx.scope();
        let graph = scope.graph;
        Ok(match self {
            PlanOp::AllNodeScan { slot, .. } | PlanOp::NodeByLabelScan { slot, .. } => {
                // A label the graph does not have labels no node.
                let nodes = match self {
                    PlanOp::NodeByLabelScan { label, .. } => scope.names.labels[*label]
                        .map_or_else(Vec::new, |l| graph.nodes_with_label(l)),
                    _ => graph.all_node_ids(),
                };
                let mut out = RecordBatch::new(records.width());
                for record in &records {
                    for &n in &nodes {
                        out.push_copy(record)[*slot] = Value::Node(n);
                    }
                }
                out
            }
            // Bind the node whose id equals `id` by the equality of `id(n) =
            // value` (`3.0` finds node 3; `3.5`, `'3'`, `null`, a negative id
            // or one with no node find nothing): no filter checks it again.
            PlanOp::NodeByIdSeek { slot, id, .. } => {
                let mut out = RecordBatch::new(records.width());
                for record in &records {
                    let value = id.eval(record, scope);
                    let Some(n) =
                        value.as_i64().filter(|&n| Value::Int(n).cypher_eq(&value) == Some(true))
                    else {
                        continue;
                    };
                    if n >= 0 && graph.node_attributes(n as NodeId).is_some() {
                        out.push_copy(record)[*slot] = Value::Node(n as NodeId);
                    }
                }
                out
            }
            PlanOp::Filter { predicates } => {
                records
                    .retain(|record| predicates.iter().all(|p| p.eval(record, scope).is_truthy()));
                records
            }
            // A label the graph does not have matches no node.
            PlanOp::LabelFilter { slot, label } => {
                let label = scope.names.labels[*label];
                records.retain(|record| match (record.get(*slot), label) {
                    (Some(Value::Node(id)), Some(label)) => graph.has_label(*id, label),
                    _ => false,
                });
                records
            }
            PlanOp::PropFilter { slot, key, value } => {
                let key = scope.names.keys[*key];
                records.retain(|record| match record.get(*slot) {
                    Some(entity) => property(graph, entity, key).cypher_eq(value) == Some(true),
                    None => false,
                });
                records
            }
            PlanOp::Traverse(t) => traverse(t, &records, scope),
            PlanOp::TraverseCount { traverse, counts, projection } => {
                traverse_count(traverse, counts, projection, &records, scope)
            }
            PlanOp::FusedTraverse { src_slot, dst_slot, expr, weight_slot } => {
                fused(expr, *src_slot, *dst_slot, *weight_slot, &records, scope)
            }
            PlanOp::Project { projection } => project(projection, &records, scope),
            PlanOp::Aggregate { projection, weight_slot } => {
                aggregate(projection, *weight_slot, &records, scope)
            }
            PlanOp::With { projection, next_slots, next_width } => {
                with(projection, next_slots, *next_width, &records, scope)
            }
            PlanOp::Unwind { list, slot, .. } => {
                let mut out = RecordBatch::new(records.width());
                for record in &records {
                    let items = match list.eval(record, scope) {
                        Value::List(items) => items,
                        Value::Null => continue,
                        single => vec![single],
                    };
                    for item in items {
                        out.push_copy(record)[*slot] = item;
                    }
                }
                out
            }
            PlanOp::ProcedureCall { procedure, args, constant_args, outputs } => {
                procedure_call(procedure, args, *constant_args, outputs, &records, scope)?
            }
            PlanOp::Create { patterns } => create(patterns, records, cx)?,
            PlanOp::Delete { slots } => delete(slots, records, cx)?,
            PlanOp::SetProps { items } => set(items, records, cx)?,
        })
    }
}

/// What the operators of one execution run against besides their records:
/// the graph, the bound parameter values, the plan's names resolved against
/// the graph, and the statistics the writes count.
pub(crate) struct Exec<'a> {
    pub(crate) access: GraphAccess<'a>,
    pub(crate) params: &'a [Value],
    pub(crate) names: NameIds<'a>,
    pub(crate) stats: QueryStats,
}

impl Exec<'_> {
    /// What an expression reads besides its record.
    fn scope(&self) -> Scope<'_> {
        Scope { graph: self.access.graph(), params: self.params, names: &self.names }
    }
}

fn to_traverse_dir(d: Direction) -> TraverseDir {
    match d {
        Direction::Outgoing => TraverseDir::Outgoing,
        Direction::Incoming => TraverseDir::Incoming,
        Direction::Both => TraverseDir::Both,
    }
}

/// Run a traverse op.
///
/// A single hop reads each record's source row ([`Graph::neighbors`]); an
/// Expand Into, whose destination is already bound, looks up only the
/// `(source, destination)` cell of each selected relation instead. A
/// variable-length hop runs one [`Graph::khop_reached`] per *distinct* source
/// node and shares its reached set among the records bound to that source.
///
/// Rows come out record-major; within a record, per relation type forward
/// then backward, destinations ascending, parallel edges by ascending id.
/// The `traverse_differential` suite checks the rows against an edge-list
/// oracle.
fn traverse(traverse: &Traverse, records: &RecordBatch, scope: &Scope<'_>) -> RecordBatch {
    let Traverse {
        src_slot,
        dst_slot,
        edge_slot,
        ref rel_types,
        direction,
        min_hops,
        max_hops,
        expand_into,
        ..
    } = *traverse;
    let graph = scope.graph;
    let mut out = RecordBatch::new(records.width());
    let Some(rel_ids) = scope.names.rel_types(rel_types) else {
        return out;
    };
    let rel_ids = rel_ids.as_deref();
    let dir = to_traverse_dir(direction);
    // Append a copy of `record` with the destination and edge slots set.
    let bind =
        |out: &mut RecordBatch, record: &[Value], dst: Option<NodeId>, edge: Option<Value>| {
            let r = out.push_copy(record);
            if let Some(dst) = dst {
                r[dst_slot] = Value::Node(dst);
            }
            if let (Some(es), Some(edge)) = (edge_slot, edge) {
                r[es] = edge;
            }
        };

    if traverse.single_hop() {
        let forward = matches!(dir, TraverseDir::Outgoing | TraverseDir::Both);
        let backward = matches!(dir, TraverseDir::Incoming | TraverseDir::Both);
        let rels: Vec<usize> =
            rel_ids.map_or_else(|| (0..graph.relation_type_count()).collect(), <[_]>::to_vec);
        for record in records {
            let Some(&Value::Node(src)) = record.get(src_slot) else { continue };
            if !expand_into {
                graph.for_each_edge(src, rel_ids, dir, |nbr, edge| {
                    bind(&mut out, record, Some(nbr), Some(edge))
                });
                continue;
            }
            let Some(&Value::Node(dst)) = record.get(dst_slot) else { continue };
            let mut bind_cell = |rel: usize, src, dst| {
                for id in graph.edges_between(rel, src, dst) {
                    let edge = Value::Edge { id, src, dst, rel: rel as u32 };
                    bind(&mut out, record, None, Some(edge));
                }
            };
            for &rel in &rels {
                if forward {
                    bind_cell(rel, src, dst);
                }
                // A backward step follows a stored `dst → src` edge.
                if backward {
                    bind_cell(rel, dst, src);
                }
            }
        }
        return out;
    }

    let max = hop_limit(graph, max_hops);
    let batch = BatchFrontier::new(records, src_slot);
    let reached: Vec<Bitmap> = batch
        .sources
        .iter()
        .map(|&src| graph.khop_reached(src, min_hops, max, dir, rel_ids))
        .collect();
    for (record, row) in records.iter().zip(&batch.record_rows) {
        let Some(row) = *row else { continue };
        let reached = &reached[row];
        if !expand_into {
            reached.iter().for_each(|n| bind(&mut out, record, Some(n), None));
        } else if let Some(&Value::Node(t)) = record.get(dst_slot) {
            if reached.contains(t) {
                out.push_copy(record);
            }
        }
    }
    out
}

/// The hop bound a traversal runs to: unbounded patterns stop after as many
/// hops as the graph has nodes, past which no BFS level can be new.
fn hop_limit(graph: &Graph, max_hops: Option<u32>) -> u32 {
    max_hops.unwrap_or_else(|| graph.node_count().max(1) as u32)
}

/// Run a [`PlanOp::TraverseCount`]: the variable-length traversal's
/// reached sets are reduced to the aggregate's counts directly — `Σ
/// |reached|` over the records for `count(dst)`/`count(*)`, `|∪ reached|`
/// for `count(DISTINCT dst)` — and the one aggregate row goes through the
/// projection's `SKIP`/`LIMIT`. Row-identical to `Traverse` + `Aggregate`
/// (the `optimizer_differential` suite proves it against
/// [`crate::exec::plan::ExecutionPlan::build_unoptimized`]).
fn traverse_count(
    traverse: &Traverse,
    counts: &[ReachCount],
    projection: &SlotProjection,
    records: &RecordBatch,
    scope: &Scope<'_>,
) -> RecordBatch {
    let Traverse { src_slot, ref rel_types, direction, min_hops, max_hops, .. } = *traverse;
    let graph = scope.graph;
    let (mut total, mut distinct) = (0u64, 0u64);
    // A named type that does not exist matches nothing: both counts stay 0.
    if let Some(rel_ids) = scope.names.rel_types(rel_types) {
        let (dir, max) = (to_traverse_dir(direction), hop_limit(graph, max_hops));
        let batch = BatchFrontier::new(records, src_slot);
        // How many records share each distinct source's reached set.
        let mut copies = vec![0u64; batch.sources.len()];
        for &row in batch.record_rows.iter().flatten() {
            copies[row] += 1;
        }
        // Several reached sets union into one bitmap; a lone set — the
        // paper's k-hop query, one seek — counts as its `nvals`.
        let mut union = (batch.sources.len() > 1).then(|| Bitmap::new(graph.dim()));
        for (&src, &n) in batch.sources.iter().zip(&copies) {
            let reached = graph.khop_reached(src, min_hops, max, dir, rel_ids.as_deref());
            total += n * reached.nvals() as u64;
            match &mut union {
                None => distinct = reached.nvals() as u64,
                Some(union) => reached.iter().for_each(|v| distinct += u64::from(union.insert(v))),
            }
        }
    }
    // One aggregate row: ORDER BY and DISTINCT keep it, SKIP or LIMIT 0 drop it.
    let mut rows = RecordBatch::new(counts.len());
    if projection.skip == 0 && projection.limit > 0 {
        rows.push(counts.iter().map(|count| match count {
            ReachCount::Total => Value::Int(total as i64),
            ReachCount::Distinct => Value::Int(distinct as i64),
        }));
    }
    rows
}

/// The distinct sources of a record batch plus the record → source-row
/// mapping: the frontier operand of a fused chain, and the reached-set index
/// of a variable-length traversal.
pub(crate) struct BatchFrontier {
    /// One node per distinct source, in first-seen order (the frontier rows).
    pub(crate) sources: Vec<NodeId>,
    /// Frontier row of each record (`None` = source not bound).
    pub(crate) record_rows: Vec<Option<usize>>,
}

impl BatchFrontier {
    /// One frontier row per *distinct* source node: records sharing a source
    /// (the common case deep in a multi-hop pipeline, where thousands of
    /// records fan out of a few hub nodes) share one product row instead of
    /// recomputing it. Records without a bound source get no row.
    pub(crate) fn new(records: &RecordBatch, src_slot: usize) -> Self {
        let mut src_row: HashMap<NodeId, usize> = HashMap::new();
        let mut sources: Vec<NodeId> = Vec::new();
        let record_rows = records
            .iter()
            .map(|r| match r.get(src_slot) {
                Some(&Value::Node(s)) => Some(*src_row.entry(s).or_insert_with(|| {
                    sources.push(s);
                    sources.len() - 1
                })),
                _ => None,
            })
            .collect();
        BatchFrontier { sources, record_rows }
    }
}

/// Apply `ORDER BY`, `DISTINCT` (first occurrence in order), `SKIP` and
/// `LIMIT` to projected `rows`, in that order; `keys` holds each row's sort
/// keys ([`SlotProjection::push_keys`]). The order is stable: ties keep
/// input order. Under a `LIMIT` without `DISTINCT` only the first `skip +
/// limit` rows in order can survive, so those are selected first and only
/// they are sorted. `SKIP` and `LIMIT` cut the rows in place.
fn order_skip_limit(
    projection: &SlotProjection,
    mut rows: RecordBatch,
    keys: &[Value],
) -> RecordBatch {
    let SlotProjection { order, distinct, skip, limit, .. } = projection;
    if !order.is_empty() || *distinct {
        let mut picked: Vec<usize> = (0..rows.len()).collect();
        if !order.is_empty() {
            let stride = order.len();
            let cmp = |&a: &usize, &b: &usize| {
                for (k, (_, dir)) in order.iter().enumerate() {
                    let cmp = keys[a * stride + k].sort_cmp(&keys[b * stride + k]);
                    let cmp = match dir {
                        SortOrder::Ascending => cmp,
                        SortOrder::Descending => cmp.reverse(),
                    };
                    if cmp.is_ne() {
                        return cmp;
                    }
                }
                a.cmp(&b)
            };
            let top = skip.saturating_add(*limit);
            if !distinct && top < picked.len() {
                picked.select_nth_unstable_by(top, cmp);
                picked.truncate(top);
            }
            picked.sort_unstable_by(cmp);
        }
        if *distinct {
            let mut seen = HashSet::with_capacity(picked.len());
            picked.retain(|&i| seen.insert(EquivRow(&rows[i])));
        }
        rows = rows.take_rows(picked);
    }
    rows.skip_take(*skip, *limit);
    rows
}

/// Run a plain projection (no aggregates): evaluate every item per record.
fn project(projection: &SlotProjection, records: &RecordBatch, scope: &Scope<'_>) -> RecordBatch {
    let mut rows = RecordBatch::new(projection.items.len());
    rows.reserve(records.len());
    for record in records {
        rows.push(projection.items.iter().map(|item| match item {
            SlotItem::Scalar(expr) => expr.eval(record, scope),
            SlotItem::Aggregate { .. } => unreachable!("a projection without aggregates"),
        }));
    }
    let mut keys = Vec::new();
    if !projection.order.is_empty() {
        for (row, record) in rows.iter().zip(records) {
            projection.push_keys(row, record, scope, &mut keys);
        }
    }
    order_skip_limit(projection, rows, &keys)
}

/// Run an aggregating projection: group records by the non-aggregate items
/// and fold the aggregate items with [`Accumulator`]s. `weight_slot` carries
/// the path-count weight of compact records emitted by a fused traversal
/// (`Null` or absent = weight 1, i.e. an ordinary record).
fn aggregate(
    projection: &SlotProjection,
    weight_slot: Option<usize>,
    records: &RecordBatch,
    scope: &Scope<'_>,
) -> RecordBatch {
    // Split items into group keys and aggregates, remembering their positions.
    let mut group_keys = Vec::new();
    let mut aggregates = Vec::new();
    for (i, item) in projection.items.iter().enumerate() {
        match item {
            SlotItem::Scalar(expr) => group_keys.push((i, expr)),
            SlotItem::Aggregate { func, distinct, arg } => {
                aggregates.push((i, func, distinct, arg))
            }
        }
    }
    let new_accumulators = || -> Vec<Accumulator> {
        aggregates
            .iter()
            .map(|&(_, &func, &distinct, _)| Accumulator::new(func, distinct))
            .collect()
    };

    // Groups in first-seen order, indexed by their equivalence key. Without
    // group keys there is exactly one group, which exists even with no
    // input records (e.g. count = 0).
    let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = Vec::new();
    let mut index: HashMap<Vec<EquivKey>, usize> = HashMap::new();
    if group_keys.is_empty() {
        groups.push((Vec::new(), new_accumulators()));
    }

    for record in records {
        let g = if group_keys.is_empty() {
            0
        } else {
            let key: Vec<EquivKey> =
                group_keys.iter().map(|(_, expr)| EquivKey(expr.eval(record, scope))).collect();
            match index.get(&key) {
                Some(&g) => g,
                None => {
                    groups.push((key.iter().map(|k| k.0.clone()).collect(), new_accumulators()));
                    index.insert(key, groups.len() - 1);
                    groups.len() - 1
                }
            }
        };
        let weight = weight_slot
            .and_then(|ws| record.get(ws))
            .and_then(Value::as_i64)
            .map_or(1, |w| w.max(0) as u64);
        for (acc, (_, _, _, arg)) in groups[g].1.iter_mut().zip(&aggregates) {
            let value = match arg {
                Some(arg) => arg.eval(record, scope),
                None => Value::Bool(true), // count(*): every record counts
            };
            acc.update_weighted(value, weight);
        }
    }

    // Sort keys that are no output column see no record (no variable is
    // bound past the grouping).
    let mut rows = RecordBatch::new(projection.items.len());
    let mut keys = Vec::new();
    for (key_values, accs) in groups {
        let row = rows.push_nulls();
        for (value, &(pos, _)) in key_values.into_iter().zip(&group_keys) {
            row[pos] = value;
        }
        for (acc, &(pos, ..)) in accs.into_iter().zip(&aggregates) {
            row[pos] = acc.finish();
        }
        projection.push_keys(&rows[rows.len() - 1], &[], scope, &mut keys);
    }
    order_skip_limit(projection, rows, &keys)
}

/// Run a `WITH`: project (or aggregate) the records, then move each
/// output column into its slot of the next segment's record layout, a
/// `next_width`-slot record.
fn with(
    projection: &SlotProjection,
    next_slots: &[usize],
    next_width: usize,
    records: &RecordBatch,
    scope: &Scope<'_>,
) -> RecordBatch {
    let mut produced = if projection.aggregates() {
        aggregate(projection, None, records, scope)
    } else {
        project(projection, records, scope)
    };
    let mut out = RecordBatch::new(next_width);
    for i in 0..produced.len() {
        let record = out.push_nulls();
        for (&slot, value) in next_slots.iter().zip(&mut produced[i]) {
            record[slot] = std::mem::replace(value, Value::Null);
        }
    }
    out
}

/// Run a `CREATE` once per incoming record, none for no record, binding
/// what it creates into the record's named slots. Labels, types and keys
/// the graph does not have yet are created on first use and recorded in the
/// execution's names. A node id past the matrices' dimension cap is an
/// error.
fn create(
    patterns: &[CreatePattern],
    mut records: RecordBatch,
    cx: &mut Exec<'_>,
) -> Result<RecordBatch, QueryError> {
    let Exec { access, names, stats, .. } = cx;
    let graph = access.graph_mut()?;
    for i in 0..records.len() {
        let record = &mut records[i];
        for pattern in patterns {
            // Create / resolve the start node, then walk the steps.
            let mut prev = resolve_or_create_node(&pattern.start, record, graph, names, stats)?;
            for (rel, node) in &pattern.steps {
                let current = resolve_or_create_node(node, record, graph, names, stats)?;
                let rel_type = names.rel_type_or_create(rel.rel_type, graph);
                let attrs = attribute_set(&rel.props, graph, names);
                stats.properties_set += rel.props.len();
                let (src, dst) = if rel.incoming { (current, prev) } else { (prev, current) };
                let edge = graph.create_edge(src, dst, rel_type, attrs);
                stats.relationships_created += 1;
                if let Some(slot) = rel.slot {
                    record[slot] = Value::Edge { id: edge, src, dst, rel: rel_type as u32 };
                }
                prev = current;
            }
        }
    }
    Ok(records)
}

/// A compiled property map as an attribute set.
fn attribute_set(
    props: &[(usize, Value)],
    graph: &mut Graph,
    names: &mut NameIds<'_>,
) -> AttributeSet {
    let mut attrs = AttributeSet::new();
    for (key, value) in props {
        attrs.set(names.key_or_create(*key, graph), value.clone());
    }
    attrs
}

fn resolve_or_create_node(
    node: &CreateNode,
    record: &mut [Value],
    graph: &mut Graph,
    names: &mut NameIds<'_>,
    stats: &mut QueryStats,
) -> Result<NodeId, QueryError> {
    if let Some(&Value::Node(id)) = node.slot.and_then(|slot| record.get(slot)) {
        return Ok(id);
    }
    // A label named twice is one diagonal entry, so it is added once.
    let mut labels: Vec<_> = node.labels.iter().map(|&l| names.label_or_create(l, graph)).collect();
    labels.sort_unstable();
    labels.dedup();
    let attrs = attribute_set(&node.props, graph, names);
    stats.properties_set += node.props.len();
    stats.labels_added += labels.len();
    let id = graph.create_node(labels, attrs)?;
    stats.nodes_created += 1;
    if let Some(slot) = node.slot {
        record[slot] = Value::Node(id);
    }
    Ok(id)
}

/// Run a `DELETE` of the entities in `slots`.
fn delete(
    slots: &[usize],
    records: RecordBatch,
    cx: &mut Exec<'_>,
) -> Result<RecordBatch, QueryError> {
    let graph = cx.access.graph_mut()?;
    let stats = &mut cx.stats;
    let mut nodes: HashSet<NodeId> = HashSet::new();
    let mut edges: HashMap<EdgeId, &Value> = HashMap::new();
    for record in &records {
        for &slot in slots {
            match record.get(slot) {
                Some(Value::Node(id)) => {
                    nodes.insert(*id);
                }
                Some(edge @ &Value::Edge { id, .. }) => {
                    edges.insert(id, edge);
                }
                _ => {}
            }
        }
    }
    for edge in edges.into_values() {
        if graph.delete_edge(edge) {
            stats.relationships_deleted += 1;
        }
    }
    for n in nodes {
        let before = graph.edge_count();
        if graph.delete_node(n) {
            stats.nodes_deleted += 1;
            stats.relationships_deleted += before - graph.edge_count();
        }
    }
    Ok(records)
}

/// Run a `SET`. A key the graph does not have yet is created on its first
/// assignment and recorded in the execution's names, so later items and
/// records read it.
fn set(
    items: &[SetStep],
    records: RecordBatch,
    cx: &mut Exec<'_>,
) -> Result<RecordBatch, QueryError> {
    let Exec { access, params, names, stats } = cx;
    let graph = access.graph_mut()?;
    for record in &records {
        for item in items {
            let value = item.value.eval(record, &Scope { graph, params, names });
            let updated = match record.get(item.slot) {
                Some(&Value::Node(id)) => {
                    let attr = names.key_or_create(item.key, graph);
                    graph.set_node_attribute(id, attr, value)
                }
                Some(edge @ Value::Edge { .. }) => {
                    let attr = names.key_or_create(item.key, graph);
                    graph.set_edge_attribute(edge, attr, value)
                }
                _ => false,
            };
            if updated {
                stats.properties_set += 1;
            }
        }
    }
    Ok(records)
}

/// Run a `CALL`: run the registered procedure once per incoming record
/// (arguments are evaluated against that record) and emit one output record
/// per produced row, with the yielded columns written into their slots.
/// When every argument is record-independent (`constant_args`: the common
/// `CALL algo.x(…)` with literal arguments) the algorithm runs once and its
/// rows are reused for every incoming record.
fn procedure_call(
    procedure: &Procedure,
    args: &[SlotExpr],
    constant_args: bool,
    outputs: &[(usize, usize)],
    records: &RecordBatch,
    scope: &Scope<'_>,
) -> Result<RecordBatch, QueryError> {
    let mut cached_rows: Option<RecordBatch> = None;
    let mut out = RecordBatch::new(records.width());
    for record in records {
        if cached_rows.is_none() {
            let argv: Vec<Value> = args.iter().map(|a| a.eval(record, scope)).collect();
            cached_rows = Some((procedure.run)(scope.graph, &argv)?);
        }
        let rows = cached_rows.as_ref().expect("computed above");
        for row in rows {
            let r = out.push_copy(record);
            for &(col, slot) in outputs {
                r[slot] = row[col].clone();
            }
        }
        if !constant_args {
            cached_rows = None;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_reexport_compiles() {
        // A smoke test that the cypher AST types used above stay in sync.
        let lit = cypher::Literal::Integer(1);
        assert_eq!(Value::from(&lit), Value::Int(1));
    }

    #[test]
    fn op_descriptions_for_explain() {
        let mut names = NameTable::default();
        let scan = PlanOp::AllNodeScan { slot: 0, var: "n".into() };
        assert!(scan.describe(&names).contains("All Node Scan"));
        let traverse = PlanOp::Traverse(Traverse {
            src_slot: 0,
            dst_slot: 1,
            dst_var: "m".into(),
            edge_slot: None,
            rel_types: vec![names.rel_type("KNOWS")],
            direction: Direction::Outgoing,
            min_hops: 1,
            max_hops: Some(3),
            expand_into: false,
        });
        let text = traverse.describe(&names);
        assert!(text.contains("Conditional Traverse"));
        assert!(text.contains("KNOWS"));
        assert!(text.contains("*1..3"));
    }
}
