//! Execution-plan operations.
//!
//! Each operation maps a batch of [`Record`]s to a new batch. The operation
//! set mirrors RedisGraph's execution plan: scans, algebraic traversals,
//! filters, projections/aggregations and the write operations.

use crate::exec::aggregate::{Accumulator, AggFunc};
use crate::exec::algebraic::AlgebraicExpression;
use crate::exec::expr::{contains_aggregate, eval};
use crate::exec::record::{Bindings, Record};
use crate::exec::resultset::QueryStats;
use crate::store::graph::{Graph, TraverseDir};
use crate::value::{EquivKey, Value};
use crate::{EdgeId, NodeId};
use cypher::{Direction, Expr, PathPattern, Projection, SetItem, SortOrder};
use graphblas::SparseVector;
use std::collections::{HashMap, HashSet};

/// The parameters of one `Traverse` plan op, as [`run_traverse`] takes them.
#[derive(Debug, Clone)]
pub struct TraverseSpec<'a> {
    /// Slot of the already-bound source node.
    pub src_slot: usize,
    /// Slot receiving the destination node (already bound for expand-into).
    pub dst_slot: usize,
    /// Slot receiving the traversed edge (single hop, named edge only).
    pub edge_slot: Option<usize>,
    /// Relationship type names (empty = any type).
    pub rel_types: &'a [String],
    /// Pattern direction.
    pub direction: Direction,
    /// Minimum hop count (0 = the source itself matches).
    pub min_hops: u32,
    /// Maximum hop count; `None` = unbounded.
    pub max_hops: Option<u32>,
    /// True if the destination is already bound (expand-into / semi-join).
    pub expand_into: bool,
}

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

/// Execute the scan-type ops.
pub fn run_scan(
    op: &PlanOp,
    records: Vec<Record>,
    bindings: &Bindings,
    graph: &Graph,
) -> Vec<Record> {
    let mut out = Vec::new();
    match op {
        PlanOp::AllNodeScan { slot, .. } => {
            let nodes = graph.all_node_ids();
            for record in &records {
                for &n in &nodes {
                    let mut r = record.clone();
                    ensure_len(&mut r, bindings);
                    r[*slot] = Value::Node(n);
                    out.push(r);
                }
            }
        }
        PlanOp::NodeByLabelScan { slot, label, .. } => {
            let nodes = graph.nodes_with_label(label);
            for record in &records {
                for &n in &nodes {
                    let mut r = record.clone();
                    ensure_len(&mut r, bindings);
                    r[*slot] = Value::Node(n);
                    out.push(r);
                }
            }
        }
        PlanOp::NodeByIdSeek { slot, id_expr, .. } => {
            for record in &records {
                let id_val = eval(id_expr, record, bindings, graph);
                if let Some(id) = id_val.as_i64() {
                    if id >= 0 && graph.node(id as NodeId).is_some() {
                        let mut r = record.clone();
                        ensure_len(&mut r, bindings);
                        r[*slot] = Value::Node(id as NodeId);
                        out.push(r);
                    }
                }
            }
        }
        _ => unreachable!("run_scan called with a non-scan op"),
    }
    out
}

fn ensure_len(record: &mut Record, bindings: &Bindings) {
    if record.len() < bindings.len() {
        record.resize(bindings.len(), Value::Null);
    }
}

/// Execute the filter-type ops.
pub fn run_filter(
    op: &PlanOp,
    records: Vec<Record>,
    bindings: &Bindings,
    graph: &Graph,
) -> Vec<Record> {
    records
        .into_iter()
        .filter(|record| match op {
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
        .collect()
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
pub fn run_traverse(
    records: Vec<Record>,
    bindings: &Bindings,
    graph: &Graph,
    spec: &TraverseSpec<'_>,
) -> Vec<Record> {
    let Some(rel_ids) = resolve_rel_types(graph, spec.rel_types) else {
        return Vec::new();
    };
    let rel_ids = rel_ids.as_deref();
    let dir = to_traverse_dir(spec.direction);
    let bind = |record: &Record, dst: Option<NodeId>, edge: Option<EdgeId>| {
        let mut r = record.clone();
        ensure_len(&mut r, bindings);
        if let Some(dst) = dst {
            r[spec.dst_slot] = Value::Node(dst);
        }
        if let (Some(es), Some(edge)) = (spec.edge_slot, edge) {
            r[es] = Value::Edge(edge);
        }
        r
    };
    let mut out = Vec::new();

    if spec.min_hops == 1 && spec.max_hops == Some(1) {
        let forward = matches!(dir, TraverseDir::Outgoing | TraverseDir::Both);
        let backward = matches!(dir, TraverseDir::Incoming | TraverseDir::Both);
        let rels: Vec<usize> =
            rel_ids.map_or_else(|| (0..graph.relation_type_count()).collect(), <[_]>::to_vec);
        for record in &records {
            let Some(&Value::Node(src)) = record.get(spec.src_slot) else { continue };
            if !spec.expand_into {
                for (nbr, edge) in graph.neighbors(src, rel_ids, dir) {
                    out.push(bind(record, Some(nbr), Some(edge)));
                }
                continue;
            }
            let Some(&Value::Node(dst)) = record.get(spec.dst_slot) else { continue };
            let bind_edge = |edge| bind(record, None, Some(edge));
            for &rel in &rels {
                if forward {
                    out.extend(graph.edges_between(rel, src, dst).map(bind_edge));
                }
                // A backward step follows a stored `dst → src` edge.
                if backward {
                    out.extend(graph.edges_between(rel, dst, src).map(bind_edge));
                }
            }
        }
        return out;
    }

    let max = hop_limit(graph, spec.max_hops);
    let batch = BatchFrontier::new(&records, spec.src_slot, graph.dim());
    let reached: Vec<SparseVector<bool>> = batch
        .entries
        .iter()
        .map(|&(_, src)| graph.khop_reach(src, spec.min_hops, max, dir, rel_ids))
        .collect();
    for (record, row) in records.iter().zip(&batch.record_rows) {
        let Some(row) = *row else { continue };
        let reached = &reached[row as usize];
        if !spec.expand_into {
            out.extend(reached.indices().iter().map(|&n| bind(record, Some(n), None)));
        } else if let Some(&Value::Node(t)) = record.get(spec.dst_slot) {
            if reached.contains(t) {
                out.push(record.clone());
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
pub fn run_traverse_count(op: &PlanOp, records: &[Record], graph: &Graph) -> Vec<Vec<Value>> {
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
        let batch = BatchFrontier::new(records, *src_slot, graph.dim());
        // How many records share each distinct source's reached set.
        let mut copies = vec![0u64; batch.entries.len()];
        for row in batch.record_rows.iter().flatten() {
            copies[*row as usize] += 1;
        }
        // Several reached sets union through one flag per node; a lone set
        // — the paper's k-hop query, one seek — counts as its `nvals`.
        let mut union = vec![false; if batch.entries.len() > 1 { batch.dim as usize } else { 0 }];
        for (&(_, src), &n) in batch.entries.iter().zip(&copies) {
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
    let row = counts
        .iter()
        .map(|count| match count {
            ReachCount::Total => Value::Int(total as i64),
            ReachCount::Distinct => Value::Int(distinct as i64),
        })
        .collect();
    apply_order_skip_limit(projection, vec![(row, Vec::new())])
}

/// The distinct sources of a record batch plus the record → source-row
/// mapping: the frontier operand of a fused chain, and the reached-set index
/// of a variable-length traversal.
pub(crate) struct BatchFrontier {
    /// `(row, source node)` coordinates, one per distinct source.
    pub(crate) entries: Vec<(u64, u64)>,
    /// Frontier row of each record (`None` = source not bound).
    pub(crate) record_rows: Vec<Option<u64>>,
    /// Node-space dimension (frontier column count).
    pub(crate) dim: u64,
}

impl BatchFrontier {
    /// One frontier row per *distinct* source node: records sharing a source
    /// (the common case deep in a multi-hop pipeline, where thousands of
    /// records fan out of a few hub nodes) share one product row instead of
    /// recomputing it. Records without a bound source get no row.
    pub(crate) fn new(records: &[Record], src_slot: usize, dim: u64) -> Self {
        let mut src_row: HashMap<NodeId, u64> = HashMap::new();
        let mut entries: Vec<(u64, u64)> = Vec::new();
        let record_rows = records
            .iter()
            .map(|r| match r.get(src_slot) {
                Some(Value::Node(s)) => Some(*src_row.entry(*s).or_insert_with(|| {
                    entries.push((entries.len() as u64, *s));
                    entries.len() as u64 - 1
                })),
                _ => None,
            })
            .collect();
        BatchFrontier { entries, record_rows, dim }
    }
}

/// An output row paired with its evaluated `ORDER BY` keys.
type SortableRow = (Vec<Value>, Vec<(Value, SortOrder)>);

/// Evaluate the sort keys of `ORDER BY` for one output row.
fn sort_keys(
    order_by: &[(Expr, SortOrder)],
    projection: &Projection,
    row: &[Value],
    record: &Record,
    bindings: &Bindings,
    graph: &Graph,
) -> Vec<(Value, SortOrder)> {
    order_by
        .iter()
        .map(|(expr, order)| {
            // Prefer matching an output column (by alias or identical expression)
            // so aggregated columns can be sorted on.
            let col = projection.items.iter().position(|item| {
                &item.expr == expr
                    || matches!((expr, &item.alias), (Expr::Variable(v), Some(alias)) if v == alias)
            });
            let value = match col {
                Some(i) => row.get(i).cloned().unwrap_or(Value::Null),
                None => eval(expr, record, bindings, graph),
            };
            (value, *order)
        })
        .collect()
}

fn apply_order_skip_limit(projection: &Projection, mut rows: Vec<SortableRow>) -> Vec<Vec<Value>> {
    if !projection.order_by.is_empty() {
        rows.sort_by(|a, b| {
            for ((va, order), (vb, _)) in a.1.iter().zip(b.1.iter()) {
                let cmp = va.sort_cmp(vb);
                let cmp = match order {
                    SortOrder::Ascending => cmp,
                    SortOrder::Descending => cmp.reverse(),
                };
                if cmp != std::cmp::Ordering::Equal {
                    return cmp;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    let mut out: Vec<Vec<Value>> = rows.into_iter().map(|(row, _)| row).collect();
    if projection.distinct {
        // First occurrence of each equivalence class, in order.
        let keyed: Vec<Vec<EquivKey>> =
            out.into_iter().map(|row| row.into_iter().map(EquivKey).collect()).collect();
        let mut seen = HashSet::with_capacity(keyed.len());
        let first: Vec<bool> = keyed.iter().map(|key| seen.insert(key.as_slice())).collect();
        out = keyed
            .into_iter()
            .zip(first)
            .filter(|(_, first)| *first)
            .map(|(key, _)| key.into_iter().map(|k| k.0).collect())
            .collect();
    }
    let skip = projection.skip.unwrap_or(0) as usize;
    if skip > 0 {
        out.drain(..skip.min(out.len()));
    }
    if let Some(limit) = projection.limit {
        out.truncate(limit as usize);
    }
    out
}

/// Execute a plain projection (no aggregates): evaluate every item per record.
pub fn run_project(
    projection: &Projection,
    records: &[Record],
    bindings: &Bindings,
    graph: &Graph,
) -> Vec<Vec<Value>> {
    let rows: Vec<SortableRow> = records
        .iter()
        .map(|record| {
            let row: Vec<Value> = projection
                .items
                .iter()
                .map(|item| eval(&item.expr, record, bindings, graph))
                .collect();
            let keys = sort_keys(&projection.order_by, projection, &row, record, bindings, graph);
            (row, keys)
        })
        .collect();
    apply_order_skip_limit(projection, rows)
}

/// Execute an aggregating projection: group records by the non-aggregate items
/// and fold the aggregate items with [`Accumulator`]s. `weight_slot` carries
/// the path-count weight of compact records emitted by a fused traversal
/// (`Null` or absent = weight 1, i.e. an ordinary record).
pub fn run_aggregate(
    projection: &Projection,
    weight_slot: Option<usize>,
    records: &[Record],
    bindings: &Bindings,
    graph: &Graph,
) -> Vec<Vec<Value>> {
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

    let rows: Vec<SortableRow> = groups
        .into_iter()
        .map(|(key_values, accs)| {
            let mut row = vec![Value::Null; projection.items.len()];
            for (value, &pos) in key_values.into_iter().zip(group_positions.iter()) {
                row[pos] = value;
            }
            for (acc, &pos) in accs.into_iter().zip(agg_positions.iter()) {
                row[pos] = acc.finish();
            }
            let keys =
                sort_keys(&projection.order_by, projection, &row, &Vec::new(), bindings, graph);
            (row, keys)
        })
        .collect();
    apply_order_skip_limit(projection, rows)
}

/// Execute a `CREATE` op for every incoming record.
pub fn run_create(
    patterns: &[PathPattern],
    records: &mut Vec<Record>,
    bindings: &Bindings,
    graph: &mut Graph,
    stats: &mut QueryStats,
) {
    if records.is_empty() {
        records.push(vec![Value::Null; bindings.len()]);
    }
    for record in records.iter_mut() {
        ensure_len(record, bindings);
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
    record: &mut Record,
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
    records: &[Record],
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
    records: &[Record],
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

/// True if evaluating the expression can depend on the current record
/// (i.e. it reads a bound variable or property somewhere).
fn reads_record(expr: &Expr) -> bool {
    match expr {
        Expr::Variable(_) | Expr::Property(_, _) => true,
        Expr::Literal(_) | Expr::Parameter(_) => false,
        Expr::Unary(_, inner) => reads_record(inner),
        Expr::Binary(_, lhs, rhs) => reads_record(lhs) || reads_record(rhs),
        Expr::List(items) => items.iter().any(reads_record),
        Expr::FunctionCall { args, .. } => args.iter().any(reads_record),
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
    records: Vec<Record>,
    bindings: &Bindings,
    graph: &Graph,
) -> Result<Vec<Record>, crate::error::QueryError> {
    let proc = crate::exec::procedures::find(name).ok_or_else(|| {
        crate::error::QueryError::Internal(format!("procedure `{name}` vanished after planning"))
    })?;
    let constant_args = !args.iter().any(reads_record);
    let mut cached_rows: Option<Vec<Vec<Value>>> = None;
    let mut out = Vec::new();
    for record in &records {
        if cached_rows.is_none() {
            let argv: Vec<Value> = args.iter().map(|a| eval(a, record, bindings, graph)).collect();
            cached_rows = Some((proc.run)(graph, &argv)?);
        }
        let rows = cached_rows.as_ref().expect("computed above");
        for row in rows {
            let mut r = record.clone();
            ensure_len(&mut r, bindings);
            for &(col, slot) in outputs {
                r[slot] = row[col].clone();
            }
            out.push(r);
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
    records: Vec<Record>,
    bindings: &Bindings,
    graph: &Graph,
) -> Vec<Record> {
    let mut out = Vec::new();
    for record in records {
        let value = eval(list, &record, bindings, graph);
        let items = match value {
            Value::List(items) => items,
            Value::Null => continue,
            single => vec![single],
        };
        for item in items {
            let mut r = record.clone();
            ensure_len(&mut r, bindings);
            r[slot] = item;
            out.push(r);
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
