//! Execution-plan operations.
//!
//! Each operation maps a [`RecordBatch`] to a new batch (a filter compacts
//! its batch in place). The operation set mirrors RedisGraph's execution
//! plan: scans, algebraic traversals, filters, projections/aggregations and
//! the write operations.

use crate::exec::aggregate::{Accumulator, AggFunc};
use crate::exec::algebraic::AlgebraicExpression;
use crate::exec::expr::{contains_aggregate, eval};
use crate::exec::plan::expr_vars;
use crate::exec::record::{Bindings, RecordBatch};
use crate::exec::resultset::QueryStats;
use crate::store::graph::{Graph, TraverseDir};
use crate::value::{EquivKey, EquivRow, Value};
use crate::{EdgeId, NodeId};
use cypher::{Direction, Expr, PathPattern, Projection, SetItem, SortOrder};
use graphblas::SparseVector;
use std::collections::{HashMap, HashSet};

/// One step of an execution plan.
#[derive(Debug, Clone)]
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
        label: String,
    },
    /// Bind a single node looked up by internal id (`WHERE id(n) = …`).
    NodeByIdSeek {
        /// Output slot.
        slot: usize,
        /// Variable name.
        var: String,
        /// Expression producing the node id.
        id_expr: Expr,
    },
    /// Keep only records whose predicate evaluates to `true`.
    Filter {
        /// The predicate.
        expr: Expr,
    },
    /// Keep only records whose `slot` node carries `label`.
    LabelFilter {
        /// Slot holding the node.
        slot: usize,
        /// Required label.
        label: String,
    },
    /// Keep only records whose `slot` entity has property `key` equal to `value`.
    PropFilter {
        /// Slot holding the node or edge.
        slot: usize,
        /// Property name.
        key: String,
        /// Required value.
        value: Value,
    },
    /// Traverse relationships from the node in `src_slot`, binding reached
    /// nodes to `dst_slot` (and the traversed edge to `edge_slot` for single
    /// hops). Variable-length traversals run the bitmap BFS of
    /// [`Graph::khop_reach`] once per distinct source.
    Traverse {
        /// Slot of the already-bound source node.
        src_slot: usize,
        /// Slot receiving the destination node.
        dst_slot: usize,
        /// Destination variable name.
        dst_var: String,
        /// Slot receiving the traversed edge (single hop, named edge only).
        edge_slot: Option<usize>,
        /// Relationship type names (empty = any type).
        rel_types: Vec<String>,
        /// Pattern direction.
        direction: Direction,
        /// Minimum hop count.
        min_hops: u32,
        /// Maximum hop count; `None` = unbounded.
        max_hops: Option<u32>,
        /// True if the destination is already bound (expand-into / semi-join).
        expand_into: bool,
    },
    /// A fused fixed-length chain traversal: the whole chain evaluates as
    /// one algebraic product under the counting semiring instead of one
    /// `Traverse` op (and record materialisation) per hop. Built by the
    /// optimizer pass in [`crate::exec::algebraic`].
    FusedTraverse {
        /// Slot of the already-bound source node (the frontier).
        src_slot: usize,
        /// Slot receiving the chain's final destination node.
        dst_slot: usize,
        /// Final destination variable name.
        dst_var: String,
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
        /// Slot of the already-bound source node.
        src_slot: usize,
        /// Destination variable name (for `EXPLAIN`).
        dst_var: String,
        /// Relationship type names (empty = any type).
        rel_types: Vec<String>,
        /// Pattern direction.
        direction: Direction,
        /// Minimum hop count.
        min_hops: u32,
        /// Maximum hop count; `None` = unbounded.
        max_hops: Option<u32>,
        /// What each projection item reduces to, in projection order.
        counts: Vec<ReachCount>,
        /// The aggregating projection it replaces (column names, `SKIP`,
        /// `LIMIT`).
        projection: Projection,
    },
    /// Final projection (`RETURN`).
    Project(Projection),
    /// Final aggregation (`RETURN` containing aggregate functions).
    Aggregate {
        /// The aggregating projection.
        projection: Projection,
        /// Slot holding a per-record path-count weight written by an
        /// upstream [`PlanOp::FusedTraverse`] (`Null`/absent = weight 1).
        weight_slot: Option<usize>,
    },
    /// Intermediate projection (`WITH`); re-binds records for the next segment.
    With(Projection),
    /// Create the given patterns once per incoming record.
    Create {
        /// Patterns to instantiate.
        patterns: Vec<PathPattern>,
    },
    /// Delete the entities bound to the named variables.
    Delete {
        /// `DETACH DELETE` flag (node deletion always cascades to incident
        /// edges, as RedisGraph does).
        detach: bool,
        /// Variables to delete.
        vars: Vec<String>,
    },
    /// Set properties on bound entities.
    SetProps {
        /// Assignments.
        items: Vec<SetItem>,
    },
    /// Expand a list expression into one record per element.
    Unwind {
        /// List-valued expression.
        list: Expr,
        /// Output slot.
        slot: usize,
        /// Variable name.
        var: String,
    },
    /// Invoke a registered procedure (`CALL algo.*`) and stream its rows into
    /// the record pipeline, once per incoming record.
    ProcedureCall {
        /// Canonical procedure name (validated at plan-build time).
        name: String,
        /// Argument expressions, evaluated per record.
        args: Vec<Expr>,
        /// `(procedure output column index, record slot)` pairs for the
        /// yielded columns.
        outputs: Vec<(usize, usize)>,
    },
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

/// The `[:types *min..max] -> (dst)` part of a traversal's description.
fn traverse_pattern(
    rel_types: &[String],
    min_hops: u32,
    max_hops: Option<u32>,
    dst_var: &str,
) -> String {
    let types = if rel_types.is_empty() { "*".to_string() } else { rel_types.join("|") };
    let hops = match (min_hops, max_hops) {
        (1, Some(1)) => String::new(),
        (min, Some(max)) => format!(" *{min}..{max}"),
        (min, None) => format!(" *{min}.."),
    };
    format!("[:{types}{hops}] -> ({dst_var})")
}

impl PlanOp {
    /// One-line description used by `GRAPH.EXPLAIN`.
    pub fn describe(&self) -> String {
        match self {
            PlanOp::AllNodeScan { var, .. } => format!("All Node Scan | ({var})"),
            PlanOp::NodeByLabelScan { var, label, .. } => {
                format!("Node By Label Scan | ({var}:{label})")
            }
            PlanOp::NodeByIdSeek { var, .. } => format!("Node By Id Seek | ({var})"),
            PlanOp::Filter { .. } => "Filter".to_string(),
            PlanOp::LabelFilter { label, .. } => format!("Label Filter | :{label}"),
            PlanOp::PropFilter { key, .. } => format!("Property Filter | .{key}"),
            PlanOp::Traverse { dst_var, rel_types, min_hops, max_hops, expand_into, .. } => {
                let pattern = traverse_pattern(rel_types, *min_hops, *max_hops, dst_var);
                if *expand_into {
                    format!("Expand Into | {pattern}")
                } else {
                    format!("Conditional Traverse | {pattern}")
                }
            }
            PlanOp::TraverseCount {
                dst_var,
                rel_types,
                min_hops,
                max_hops,
                counts,
                projection,
                ..
            } => {
                let reduces: Vec<String> = counts
                    .iter()
                    .zip(&projection.items)
                    .map(|(count, item)| {
                        let arg = match &item.expr {
                            Expr::FunctionCall { args, .. } if args.is_empty() => "*",
                            _ => dst_var.as_str(),
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
                    traverse_pattern(rel_types, *min_hops, *max_hops, dst_var),
                    reduces.join(", ")
                )
            }
            PlanOp::FusedTraverse { expr, .. } => format!("Conditional Traverse | {expr}"),
            PlanOp::Project(_) => "Project".to_string(),
            PlanOp::Aggregate { .. } => "Aggregate".to_string(),
            PlanOp::With(_) => "With".to_string(),
            PlanOp::Create { .. } => "Create".to_string(),
            PlanOp::Delete { .. } => "Delete".to_string(),
            PlanOp::SetProps { .. } => "Update".to_string(),
            PlanOp::Unwind { var, .. } => format!("Unwind | ({var})"),
            PlanOp::ProcedureCall { name, .. } => format!("ProcedureCall | {name}"),
        }
    }
}

fn to_traverse_dir(d: Direction) -> TraverseDir {
    match d {
        Direction::Outgoing => TraverseDir::Outgoing,
        Direction::Incoming => TraverseDir::Incoming,
        Direction::Both => TraverseDir::Both,
    }
}

/// Execute the scan-type ops: every input record times every scanned node.
pub fn run_scan(
    op: &PlanOp,
    records: &RecordBatch,
    bindings: &Bindings,
    graph: &Graph,
) -> RecordBatch {
    let mut out = RecordBatch::new(records.width());
    let (slot, nodes) = match op {
        PlanOp::AllNodeScan { slot, .. } => (*slot, graph.all_node_ids()),
        PlanOp::NodeByLabelScan { slot, label, .. } => (*slot, graph.nodes_with_label(label)),
        PlanOp::NodeByIdSeek { slot, id_expr, .. } => {
            for record in records {
                let id = eval(id_expr, record, bindings, graph).as_i64();
                if let Some(id) = id.filter(|&id| id >= 0 && graph.node(id as NodeId).is_some()) {
                    out.push_copy(record)[*slot] = Value::Node(id as NodeId);
                }
            }
            return out;
        }
        _ => unreachable!("run_scan called with a non-scan op"),
    };
    for record in records {
        for &n in &nodes {
            out.push_copy(record)[slot] = Value::Node(n);
        }
    }
    out
}

/// Execute the filter-type ops, dropping rejected records in place.
pub fn run_filter(op: &PlanOp, records: &mut RecordBatch, bindings: &Bindings, graph: &Graph) {
    records.retain(|record| match op {
        PlanOp::Filter { expr } => eval(expr, record, bindings, graph).is_truthy(),
        PlanOp::LabelFilter { slot, label } => match record.get(*slot) {
            Some(Value::Node(id)) => graph.node_has_label(*id, label),
            _ => false,
        },
        PlanOp::PropFilter { slot, key, value } => {
            let actual = match record.get(*slot) {
                Some(Value::Node(id)) => graph.node_property(*id, key),
                Some(Value::Edge(id)) => graph.edge_property(*id, key),
                _ => Value::Null,
            };
            actual.cypher_eq(value) == Some(true)
        }
        _ => unreachable!("run_filter called with a non-filter op"),
    })
}

/// Execute a traverse op.
///
/// A single hop reads each record's source row ([`Graph::neighbors`]); an
/// Expand Into, whose destination is already bound, looks up only the
/// `(source, destination)` cell of each selected relation instead. A
/// variable-length hop runs one [`Graph::khop_reach`] per *distinct* source
/// node and shares its reached set among the records bound to that source.
///
/// Rows come out record-major; within a record, per relation type forward
/// then backward, destinations ascending, parallel edges by ascending id.
/// The `traverse_differential` suite checks the rows against an edge-list
/// oracle.
pub fn run_traverse(op: &PlanOp, records: &RecordBatch, graph: &Graph) -> RecordBatch {
    let PlanOp::Traverse {
        src_slot,
        dst_slot,
        edge_slot,
        ref rel_types,
        direction,
        min_hops,
        max_hops,
        expand_into,
        ..
    } = *op
    else {
        unreachable!("run_traverse called with a non-traverse op")
    };
    let mut out = RecordBatch::new(records.width());
    let Some(rel_ids) = resolve_rel_types(graph, rel_types) else {
        return out;
    };
    let rel_ids = rel_ids.as_deref();
    let dir = to_traverse_dir(direction);
    // Append a copy of `record` with the destination and edge slots set.
    let bind =
        |out: &mut RecordBatch, record: &[Value], dst: Option<NodeId>, edge: Option<EdgeId>| {
            let r = out.push_copy(record);
            if let Some(dst) = dst {
                r[dst_slot] = Value::Node(dst);
            }
            if let (Some(es), Some(edge)) = (edge_slot, edge) {
                r[es] = Value::Edge(edge);
            }
        };

    if min_hops == 1 && max_hops == Some(1) {
        let forward = matches!(dir, TraverseDir::Outgoing | TraverseDir::Both);
        let backward = matches!(dir, TraverseDir::Incoming | TraverseDir::Both);
        let rels: Vec<usize> =
            rel_ids.map_or_else(|| (0..graph.relation_type_count()).collect(), <[_]>::to_vec);
        for record in records {
            let Some(&Value::Node(src)) = record.get(src_slot) else { continue };
            if !expand_into {
                for (nbr, edge) in graph.neighbors(src, rel_ids, dir) {
                    bind(&mut out, record, Some(nbr), Some(edge));
                }
                continue;
            }
            let Some(&Value::Node(dst)) = record.get(dst_slot) else { continue };
            let mut bind_edge = |e| bind(&mut out, record, None, Some(e));
            for &rel in &rels {
                if forward {
                    graph.edges_between(rel, src, dst).for_each(&mut bind_edge);
                }
                // A backward step follows a stored `dst → src` edge.
                if backward {
                    graph.edges_between(rel, dst, src).for_each(&mut bind_edge);
                }
            }
        }
        return out;
    }

    let max = hop_limit(graph, max_hops);
    let batch = BatchFrontier::new(records, src_slot);
    let reached: Vec<SparseVector<bool>> = batch
        .sources
        .iter()
        .map(|&src| graph.khop_reach(src, min_hops, max, dir, rel_ids))
        .collect();
    for (record, row) in records.iter().zip(&batch.record_rows) {
        let Some(row) = *row else { continue };
        let reached = &reached[row];
        if !expand_into {
            reached.indices().iter().for_each(|&n| bind(&mut out, record, Some(n), None));
        } else if let Some(&Value::Node(t)) = record.get(dst_slot) {
            if reached.contains(t) {
                out.push_copy(record);
            }
        }
    }
    out
}

/// Resolve a pattern's relationship type names to relation ids: `Some(None)`
/// for the untyped pattern, `None` when a named type does not exist (so
/// nothing can match).
pub(crate) fn resolve_rel_types(graph: &Graph, rel_types: &[String]) -> Option<Option<Vec<usize>>> {
    if rel_types.is_empty() {
        return Some(None);
    }
    rel_types.iter().map(|t| graph.schema.rel_type_id(t)).collect::<Option<Vec<_>>>().map(Some)
}

/// The hop bound a traversal runs to: unbounded patterns stop after as many
/// hops as the graph has nodes, past which no BFS level can be new.
fn hop_limit(graph: &Graph, max_hops: Option<u32>) -> u32 {
    max_hops.unwrap_or_else(|| graph.node_count().max(1) as u32)
}

/// Execute a [`PlanOp::TraverseCount`]: the variable-length traversal's
/// reached sets are reduced to the aggregate's counts directly — `Σ
/// |reached|` over the records for `count(dst)`/`count(*)`, `|∪ reached|`
/// for `count(DISTINCT dst)` — and the one aggregate row goes through the
/// projection's `SKIP`/`LIMIT`. Row-identical to `Traverse` + `Aggregate`
/// (the `optimizer_differential` suite proves it against
/// [`crate::exec::plan::ExecutionPlan::build_unoptimized`]).
pub fn run_traverse_count(op: &PlanOp, records: &RecordBatch, graph: &Graph) -> RecordBatch {
    let PlanOp::TraverseCount {
        src_slot,
        rel_types,
        direction,
        min_hops,
        max_hops,
        counts,
        projection,
        ..
    } = op
    else {
        unreachable!("run_traverse_count called with a non-count op")
    };
    let (mut total, mut distinct) = (0u64, 0u64);
    // A named type that does not exist matches nothing: both counts stay 0.
    if let Some(rel_ids) = resolve_rel_types(graph, rel_types) {
        let (dir, max) = (to_traverse_dir(*direction), hop_limit(graph, *max_hops));
        let batch = BatchFrontier::new(records, *src_slot);
        // How many records share each distinct source's reached set.
        let mut copies = vec![0u64; batch.sources.len()];
        for &row in batch.record_rows.iter().flatten() {
            copies[row] += 1;
        }
        // Several reached sets union through one flag per node; a lone set
        // — the paper's k-hop query, one seek — counts as its `nvals`.
        let mut union = vec![false; if batch.sources.len() > 1 { graph.dim() as usize } else { 0 }];
        for (&src, &n) in batch.sources.iter().zip(&copies) {
            let reached = graph.khop_reach(src, *min_hops, max, dir, rel_ids.as_deref());
            let set = reached.indices();
            total += n * set.len() as u64;
            if union.is_empty() {
                distinct = set.len() as u64;
            } else {
                for &v in set {
                    distinct += u64::from(!std::mem::replace(&mut union[v as usize], true));
                }
            }
        }
    }
    // One aggregate row: ORDER BY and DISTINCT keep it, SKIP or LIMIT 0 drop it.
    let (skip, limit) = skip_limit(projection);
    let mut rows = RecordBatch::new(counts.len());
    if skip == 0 && limit > 0 {
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

/// A projection's `ORDER BY` keys, each resolved once per operator to the
/// output column it names (by alias or identical expression, so aggregated
/// columns can be sorted on) or else to its expression, evaluated per
/// record.
struct OrderBy<'p> {
    keys: Vec<(Result<usize, &'p Expr>, SortOrder)>,
}

impl<'p> OrderBy<'p> {
    fn new(projection: &'p Projection) -> Self {
        let column = |expr: &Expr| {
            projection.items.iter().position(|item| {
                &item.expr == expr
                    || matches!((expr, &item.alias), (Expr::Variable(v), Some(alias)) if v == alias)
            })
        };
        let keys = projection
            .order_by
            .iter()
            .map(|(expr, order)| (column(expr).ok_or(expr), *order))
            .collect();
        OrderBy { keys }
    }

    /// Append the sort keys of output `row`, projected from `record`, to
    /// `out`.
    fn push_keys(
        &self,
        row: &[Value],
        record: &[Value],
        bindings: &Bindings,
        graph: &Graph,
        out: &mut Vec<Value>,
    ) {
        out.extend(self.keys.iter().map(|(key, _)| match key {
            Ok(column) => row[*column].clone(),
            Err(expr) => eval(expr, record, bindings, graph),
        }));
    }
}

/// A projection's `SKIP` and `LIMIT` (none = every row).
fn skip_limit(projection: &Projection) -> (usize, usize) {
    let skip = projection.skip.map_or(0, |skip| skip as usize);
    (skip, projection.limit.map_or(usize::MAX, |limit| limit as usize))
}

/// Apply `ORDER BY`, `DISTINCT` (first occurrence in order), `SKIP` and
/// `LIMIT` to projected `rows`, in that order; `keys` holds each row's sort
/// keys ([`OrderBy::push_keys`]). The order is stable: ties keep input
/// order. Under a `LIMIT` without `DISTINCT` only the first `skip + limit`
/// rows in order can survive, so those are selected first and only they
/// are sorted. `SKIP` and `LIMIT` cut the rows in place.
fn order_skip_limit(
    projection: &Projection,
    order: &OrderBy<'_>,
    mut rows: RecordBatch,
    keys: &[Value],
) -> RecordBatch {
    let (skip, limit) = skip_limit(projection);
    if !order.keys.is_empty() || projection.distinct {
        let mut picked: Vec<usize> = (0..rows.len()).collect();
        if !order.keys.is_empty() {
            let stride = order.keys.len();
            let cmp = |&a: &usize, &b: &usize| {
                for (k, (_, dir)) in order.keys.iter().enumerate() {
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
            let top = skip.saturating_add(limit);
            if !projection.distinct && top < picked.len() {
                picked.select_nth_unstable_by(top, cmp);
                picked.truncate(top);
            }
            picked.sort_unstable_by(cmp);
        }
        if projection.distinct {
            let mut seen = HashSet::with_capacity(picked.len());
            picked.retain(|&i| seen.insert(EquivRow(&rows[i])));
        }
        rows = rows.take_rows(picked);
    }
    rows.skip_take(skip, limit);
    rows
}

/// Execute a plain projection (no aggregates): evaluate every item per record.
pub fn run_project(
    projection: &Projection,
    records: &RecordBatch,
    bindings: &Bindings,
    graph: &Graph,
) -> RecordBatch {
    let order = OrderBy::new(projection);
    let mut rows = RecordBatch::new(projection.items.len());
    let mut keys = Vec::new();
    for record in records {
        rows.push(projection.items.iter().map(|item| eval(&item.expr, record, bindings, graph)));
        order.push_keys(&rows[rows.len() - 1], record, bindings, graph, &mut keys);
    }
    order_skip_limit(projection, &order, rows, &keys)
}

/// Execute an aggregating projection: group records by the non-aggregate items
/// and fold the aggregate items with [`Accumulator`]s. `weight_slot` carries
/// the path-count weight of compact records emitted by a fused traversal
/// (`Null` or absent = weight 1, i.e. an ordinary record).
pub fn run_aggregate(
    projection: &Projection,
    weight_slot: Option<usize>,
    records: &RecordBatch,
    bindings: &Bindings,
    graph: &Graph,
) -> RecordBatch {
    // Split items into group keys and aggregates, remembering their positions.
    let mut group_positions = Vec::new();
    let mut agg_positions = Vec::new();
    for (i, item) in projection.items.iter().enumerate() {
        if contains_aggregate(&item.expr) {
            agg_positions.push(i);
        } else {
            group_positions.push(i);
        }
    }

    let new_accumulators = || -> Vec<Accumulator> {
        agg_positions
            .iter()
            .map(|&i| match &projection.items[i].expr {
                Expr::FunctionCall { name, distinct, .. } => {
                    Accumulator::new(AggFunc::from_name(name).unwrap_or(AggFunc::Count), *distinct)
                }
                _ => Accumulator::new(AggFunc::Count, false),
            })
            .collect()
    };

    // Groups in first-seen order, indexed by their equivalence key. Without
    // group keys there is exactly one group, which exists even with no
    // input records (e.g. count = 0).
    let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = Vec::new();
    let mut index: HashMap<Vec<EquivKey>, usize> = HashMap::new();
    if group_positions.is_empty() {
        groups.push((Vec::new(), new_accumulators()));
    }

    for record in records {
        let g = if group_positions.is_empty() {
            0
        } else {
            let key: Vec<EquivKey> = group_positions
                .iter()
                .map(|&i| EquivKey(eval(&projection.items[i].expr, record, bindings, graph)))
                .collect();
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
        for (acc, &item_pos) in groups[g].1.iter_mut().zip(agg_positions.iter()) {
            if let Expr::FunctionCall { args, .. } = &projection.items[item_pos].expr {
                let value = match args.first() {
                    Some(arg) => eval(arg, record, bindings, graph),
                    None => Value::Bool(true), // count(*): every record counts
                };
                acc.update_weighted(value, weight);
            }
        }
    }

    // Sort keys that are no output column see no record (no variable is
    // bound past the grouping).
    let order = OrderBy::new(projection);
    let mut rows = RecordBatch::new(projection.items.len());
    let mut keys = Vec::new();
    for (key_values, accs) in groups {
        let row = rows.push_nulls();
        for (value, &pos) in key_values.into_iter().zip(group_positions.iter()) {
            row[pos] = value;
        }
        for (acc, &pos) in accs.into_iter().zip(agg_positions.iter()) {
            row[pos] = acc.finish();
        }
        order.push_keys(&rows[rows.len() - 1], &[], bindings, graph, &mut keys);
    }
    order_skip_limit(projection, &order, rows, &keys)
}

/// Execute a `WITH`: project (or aggregate) the records, then move each
/// output column into its slot of the next segment's record layout
/// (`next`), resolved once per operator.
pub fn run_with(
    projection: &Projection,
    records: &RecordBatch,
    bindings: &Bindings,
    next: &Bindings,
    graph: &Graph,
) -> RecordBatch {
    let mut produced = if projection.items.iter().any(|i| contains_aggregate(&i.expr)) {
        run_aggregate(projection, None, records, bindings, graph)
    } else {
        run_project(projection, records, bindings, graph)
    };
    let slots: Vec<Option<usize>> =
        projection.items.iter().map(|item| next.slot(&item.column_name())).collect();
    let mut out = RecordBatch::new(next.len());
    for i in 0..produced.len() {
        let record = out.push_nulls();
        for (&slot, value) in slots.iter().zip(&mut produced[i]) {
            if let Some(slot) = slot {
                record[slot] = std::mem::replace(value, Value::Null);
            }
        }
    }
    out
}

/// Execute a `CREATE` op for every incoming record.
pub fn run_create(
    patterns: &[PathPattern],
    records: &mut RecordBatch,
    bindings: &Bindings,
    graph: &mut Graph,
    stats: &mut QueryStats,
) {
    if records.is_empty() {
        records.push_nulls();
    }
    for i in 0..records.len() {
        let record = &mut records[i];
        for pattern in patterns {
            // Create / resolve the start node, then walk the steps.
            let mut prev = resolve_or_create_node(&pattern.start, record, bindings, graph, stats);
            for (rel, node) in &pattern.steps {
                let current = resolve_or_create_node(node, record, bindings, graph, stats);
                let rel_type = rel.types.first().map(|s| s.as_str()).unwrap_or("RELATED_TO");
                let props: Vec<(&str, Value)> =
                    rel.properties.iter().map(|(k, lit)| (k.as_str(), Value::from(lit))).collect();
                stats.properties_set += props.len();
                let (src, dst) = match rel.direction {
                    Direction::Incoming => (current, prev),
                    _ => (prev, current),
                };
                let edge = graph.add_edge(src, dst, rel_type, props).expect("endpoints exist");
                stats.relationships_created += 1;
                if let Some(var) = &rel.variable {
                    if let Some(slot) = bindings.slot(var) {
                        record[slot] = Value::Edge(edge);
                    }
                }
                prev = current;
            }
        }
    }
}

fn resolve_or_create_node(
    pattern: &cypher::NodePattern,
    record: &mut [Value],
    bindings: &Bindings,
    graph: &mut Graph,
    stats: &mut QueryStats,
) -> NodeId {
    if let Some(var) = &pattern.variable {
        if let Some(slot) = bindings.slot(var) {
            if let Some(Value::Node(id)) = record.get(slot) {
                return *id;
            }
        }
    }
    let labels: Vec<&str> = pattern.labels.iter().map(|s| s.as_str()).collect();
    let props: Vec<(&str, Value)> =
        pattern.properties.iter().map(|(k, lit)| (k.as_str(), Value::from(lit))).collect();
    stats.properties_set += props.len();
    stats.labels_added += labels.len();
    let id = graph.add_node(&labels, props);
    stats.nodes_created += 1;
    if let Some(var) = &pattern.variable {
        if let Some(slot) = bindings.slot(var) {
            record[slot] = Value::Node(id);
        }
    }
    id
}

/// Execute a `DELETE` op.
pub fn run_delete(
    vars: &[String],
    records: &RecordBatch,
    bindings: &Bindings,
    graph: &mut Graph,
    stats: &mut QueryStats,
) {
    let mut nodes: HashSet<NodeId> = HashSet::new();
    let mut edges: HashSet<EdgeId> = HashSet::new();
    for record in records {
        for var in vars {
            if let Some(slot) = bindings.slot(var) {
                match record.get(slot) {
                    Some(Value::Node(id)) => {
                        nodes.insert(*id);
                    }
                    Some(Value::Edge(id)) => {
                        edges.insert(*id);
                    }
                    _ => {}
                }
            }
        }
    }
    for e in edges {
        if graph.delete_edge(e) {
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
}

/// Execute a `SET` op.
pub fn run_set(
    items: &[SetItem],
    records: &RecordBatch,
    bindings: &Bindings,
    graph: &mut Graph,
    stats: &mut QueryStats,
) {
    for record in records {
        for item in items {
            let Some(slot) = bindings.slot(&item.variable) else { continue };
            let value = eval(&item.value, record, bindings, graph);
            let updated = match record.get(slot) {
                Some(Value::Node(id)) => graph.set_node_property(*id, &item.property, value),
                Some(Value::Edge(id)) => graph.set_edge_property(*id, &item.property, value),
                _ => false,
            };
            if updated {
                stats.properties_set += 1;
            }
        }
    }
}

/// Execute a `CALL` op: run the registered procedure once per incoming record
/// (arguments are evaluated against that record) and emit one output record
/// per produced row, with the yielded columns written into their slots.
/// When every argument is record-independent (the common `CALL algo.x(…)`
/// with literal arguments) the algorithm runs once and its rows are reused
/// for every incoming record.
pub fn run_procedure(
    name: &str,
    args: &[Expr],
    outputs: &[(usize, usize)],
    records: &RecordBatch,
    bindings: &Bindings,
    graph: &Graph,
) -> Result<RecordBatch, crate::error::QueryError> {
    let proc = crate::exec::procedures::find(name).ok_or_else(|| {
        crate::error::QueryError::Internal(format!("procedure `{name}` vanished after planning"))
    })?;
    let mut vars = Vec::new();
    args.iter().for_each(|arg| expr_vars(arg, &mut vars));
    let constant_args = vars.is_empty();
    let mut cached_rows: Option<RecordBatch> = None;
    let mut out = RecordBatch::new(records.width());
    for record in records {
        if cached_rows.is_none() {
            let argv: Vec<Value> = args.iter().map(|a| eval(a, record, bindings, graph)).collect();
            cached_rows = Some((proc.run)(graph, &argv)?);
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

/// Execute an `UNWIND` op.
pub fn run_unwind(
    list: &Expr,
    slot: usize,
    records: &RecordBatch,
    bindings: &Bindings,
    graph: &Graph,
) -> RecordBatch {
    let mut out = RecordBatch::new(records.width());
    for record in records {
        let items = match eval(list, record, bindings, graph) {
            Value::List(items) => items,
            Value::Null => continue,
            single => vec![single],
        };
        for item in items {
            out.push_copy(record)[slot] = item;
        }
    }
    out
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
        let scan = PlanOp::AllNodeScan { slot: 0, var: "n".into() };
        assert!(scan.describe().contains("All Node Scan"));
        let traverse = PlanOp::Traverse {
            src_slot: 0,
            dst_slot: 1,
            dst_var: "m".into(),
            edge_slot: None,
            rel_types: vec!["KNOWS".into()],
            direction: Direction::Outgoing,
            min_hops: 1,
            max_hops: Some(3),
            expand_into: false,
        };
        let text = traverse.describe();
        assert!(text.contains("Conditional Traverse"));
        assert!(text.contains("KNOWS"));
        assert!(text.contains("*1..3"));
    }
}
