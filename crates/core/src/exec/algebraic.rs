//! The algebraic expression optimizer.
//!
//! The paper's thesis is that a Cypher pattern *is* a product of sparse
//! matrices. The naive planner nevertheless emits one `Traverse` op per hop
//! and materialises a full record batch between hops — on a 3-hop chain with
//! millions of result rows, nearly all the wall time goes into cloning
//! intermediate records that the query never returns. This module closes
//! that gap: [`fuse_plan`] rewrites eligible runs of single-hop `Traverse`
//! ops (plus adjacent `LabelFilter`s) into one [`PlanOp::FusedTraverse`]
//! holding an [`AlgebraicExpression`], and [`fused`] evaluates the whole
//! chain as one product `F·A_R·A_S` under the **counting semiring** (⊕ = +,
//! ⊗ = ×) so every output cell holds the exact number of distinct paths —
//! parallel edges included, each cell weighted by its edge multiplicity.
//! The product runs left to right one frontier row at a time (Gustavson's
//! row-wise product): no operand is copied, every hop reads the relation
//! matrices' merged rows in place, pending deltas and all.
//!
//! Two optimisations compose here:
//!
//! * **Chain fusion** — a fixed-length chain `(a)-[:R]->(b)-[:S]->(c)` whose
//!   intermediates are unbound (not referenced by any later op) becomes the
//!   single product `F·A_R·A_S`; no intermediate records exist at all.
//! * **Mask pushdown** — a label predicate adjacent to a fused hop becomes
//!   the label diagonal in the product (`(a)-[:R]->(b:B)` is `F·A_R·L_B`): a
//!   check on each column the hop reaches, before the next hop reads it,
//!   instead of a post-hoc record filter.
//!
//! When the op directly downstream of a fused chain is an `Aggregate` whose
//! aggregates are all *weightable* (`count`/`sum`/`avg`/`min`/`max`, no
//! `DISTINCT`, no `collect`), the fused op emits **one** compact record per
//! `(record, dst)` cell carrying the path count in a hidden weight slot and
//! the aggregation folds the weight (`count += k`, `sum += v·k`) — the
//! product's counts never get expanded into rows at all, which is where the
//! order-of-magnitude win on aggregate-only chains comes from. Any other
//! consumer gets full expansion: `k` identical records per cell, exactly the
//! multiset the unfused plan produces.
//!
//! **Count pushdown** is the same idea for the variable-length operator —
//! the paper's own k-hop query, `MATCH (s)-[*1..k]->(n) WHERE id(s)=…
//! RETURN count(DISTINCT n)`. When a var-length `Traverse` feeds a
//! group-free `Aggregate` of nothing but `count(dst)`, `count(*)` and
//! `count(DISTINCT dst)`, the pair becomes one [`PlanOp::TraverseCount`]
//! that reduces the BFS's reached sets (`Σ |reached|`, `|∪ reached|` —
//! `reached.nvals()` for a single seek) without a record per reached node.

use crate::exec::aggregate::AggFunc;
use crate::exec::expr::{NameTable, Scope, SlotExpr};
use crate::exec::ops::{BatchFrontier, PlanOp, ReachCount, SlotItem, SlotProjection, Traverse};
use crate::exec::plan::Segment;
use crate::exec::record::RecordBatch;
use crate::store::graph::Graph;
use crate::store::schema::{LabelId, RelTypeId};
use crate::value::Value;
use crate::NodeId;
use cypher::Direction;

/// One multiplicative operand of an [`AlgebraicExpression`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgebraicOperand {
    /// A relation-matrix hop `A_R` (or `Aᵀ_R` against the incrementally
    /// maintained transpose for incoming hops). An empty type list is the
    /// untyped hop: the ⊕ of every relation matrix.
    Rel {
        /// Relationship types, by name-table index (empty = any type).
        rel_types: Vec<usize>,
        /// Traverse against the transpose (incoming pattern direction).
        transposed: bool,
        /// Label mask pushed down onto this operand's columns, by name-table
        /// index (`(…)-[:R]->(b:B)` stores `B` here, not a `LabelFilter` op).
        dst_labels: Vec<usize>,
    },
}

/// A fused fixed-length chain as one algebraic product, e.g. `(a:F)·A_R·A_S`.
///
/// The frontier `F` (one row per distinct bound source) is always the
/// leftmost operand; the rendering carries the source variable (and its
/// scanned label, when the access path pinned one) so `GRAPH.EXPLAIN` reads
/// like the paper's notation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlgebraicExpression {
    /// Source variable name (the frontier operand).
    pub src_var: String,
    /// Label of the source access path, when it was a label scan.
    pub src_label: Option<usize>,
    /// The hop operands, left to right.
    pub operands: Vec<AlgebraicOperand>,
}

impl AlgebraicExpression {
    /// The product in the paper's notation; `names` is the plan's name table.
    pub(crate) fn describe(&self, names: &NameTable) -> String {
        let mut out = match self.src_label {
            Some(label) => format!("({}:{})", self.src_var, names.labels[label]),
            None => format!("({})", self.src_var),
        };
        for AlgebraicOperand::Rel { rel_types, transposed, dst_labels } in &self.operands {
            let t = if *transposed { "ᵀ" } else { "" };
            out += &format!("·A{t}_{}", names.rel_types_text(rel_types));
            for &label in dst_labels {
                out += &format!("·L_{}", names.labels[label]);
            }
        }
        out
    }
}

// --------------------------------------------------------------- execution

/// Run a fused chain `F·A_R·L_B·A_S` and emit its records: each distinct
/// source's count row is carried through the hops left to right under
/// ⊕=+/⊗=×, reading every selected relation's merged row in place.
pub(crate) fn fused(
    expr: &AlgebraicExpression,
    src_slot: usize,
    dst_slot: usize,
    weight_slot: Option<usize>,
    records: &RecordBatch,
    scope: &Scope<'_>,
) -> RecordBatch {
    let graph = scope.graph;
    let mut out = RecordBatch::new(records.width());
    let Some(hops) = resolve_hops(expr, scope) else {
        return out; // an unknown type or label matches nothing
    };

    // One count row per distinct source node (records fanning out of the
    // same hub share one product row).
    let batch = BatchFrontier::new(records, src_slot);
    let mut acc = RowAccumulator { counts: vec![0; graph.dim() as usize], touched: Vec::new() };
    let rows: Vec<Vec<(NodeId, u64)>> = batch
        .sources
        .iter()
        .map(|&src| hops.iter().fold(vec![(src, 1)], |row, hop| acc.hop(graph, hop, &row)))
        .collect();

    // Emission: record-major, destinations ascending. With a weight slot the
    // count stays algebraic — one compact record per cell; otherwise each
    // cell expands to `count` identical records (the unfused multiset).
    let emitted: u64 = batch
        .record_rows
        .iter()
        .flatten()
        .map(|&row| match weight_slot {
            Some(_) => rows[row].len() as u64,
            None => rows[row].iter().map(|&(_, count)| count).sum(),
        })
        .sum();
    out.reserve(emitted as usize);
    for (record, row) in records.iter().zip(&batch.record_rows) {
        let Some(row) = *row else { continue };
        for &(dst, count) in &rows[row] {
            let copies = if weight_slot.is_some() { 1 } else { count };
            for _ in 0..copies {
                let r = out.push_copy(record);
                r[dst_slot] = Value::Node(dst);
                if let Some(ws) = weight_slot {
                    r[ws] = Value::Int(count as i64);
                }
            }
        }
    }
    out
}

/// One hop operand resolved against the graph: `A_R` (or `Aᵀ_R`) summed
/// over `rels`, then the label diagonals `L_B` of `labels`.
struct ResolvedHop {
    rels: Vec<RelTypeId>,
    transposed: bool,
    labels: Vec<LabelId>,
}

/// Every hop's names as the execution's ids. `None` when a named
/// relationship type or label does not exist (nothing can match); an untyped
/// hop reads every relation type.
fn resolve_hops(expr: &AlgebraicExpression, scope: &Scope<'_>) -> Option<Vec<ResolvedHop>> {
    expr.operands
        .iter()
        .map(|AlgebraicOperand::Rel { rel_types, transposed, dst_labels }| {
            let rels = scope
                .names
                .rel_types(rel_types)?
                .unwrap_or_else(|| (0..scope.graph.relation_type_count()).collect());
            let labels =
                dst_labels.iter().map(|&l| scope.names.labels[l]).collect::<Option<_>>()?;
            Some(ResolvedHop { rels, transposed: *transposed, labels })
        })
        .collect()
}

/// Gustavson's sparse accumulator: a dense count per column plus the
/// columns a row has touched, zeroed again as each row drains.
struct RowAccumulator {
    counts: Vec<u64>,
    touched: Vec<NodeId>,
}

impl RowAccumulator {
    /// `row · A_R · L_B` for one hop: every `(node, paths)` cell of `row`
    /// adds `paths × k` to each neighbour its relation rows hold `k`
    /// parallel edges to; the reached columns come back ascending, those
    /// missing one of the hop's labels dropped.
    fn hop(
        &mut self,
        graph: &Graph,
        hop: &ResolvedHop,
        row: &[(NodeId, u64)],
    ) -> Vec<(NodeId, u64)> {
        let RowAccumulator { counts, touched } = self;
        for &(node, paths) in row {
            for &rel in &hop.rels {
                graph.relation_row_counts(rel, hop.transposed, node, |nbr, k| {
                    let count = &mut counts[nbr as usize];
                    if *count == 0 {
                        touched.push(nbr);
                    }
                    *count += paths * k;
                });
            }
        }
        touched.sort_unstable();
        let has_labels = |n: NodeId| hop.labels.iter().all(|&l| graph.has_label(n, l));
        touched
            .drain(..)
            .map(|n| (n, std::mem::take(&mut counts[n as usize])))
            .filter(|&(n, _)| hop.labels.is_empty() || has_labels(n))
            .collect()
    }
}

// ---------------------------------------------------------------- fusion

/// Rewrite every segment of a freshly built plan: eligible traverse chains
/// become [`PlanOp::FusedTraverse`] ops and counted variable-length
/// traversals become [`PlanOp::TraverseCount`] ops (see the module docs for
/// the rules).
pub(crate) fn fuse_plan(segments: &mut [Segment]) {
    for seg in segments {
        fuse_segment(seg);
        push_down_counts(seg);
    }
}

// ---------------------------------------------------------- count pushdown

/// Replace every variable-length `Traverse` (not expand-into) that feeds an
/// `Aggregate` directly — no group keys, every item `count(dst)`,
/// `count(*)` or `count(DISTINCT dst)` — by one [`PlanOp::TraverseCount`]
/// that reduces the reached sets instead of building a record per reached
/// node.
fn push_down_counts(seg: &mut Segment) {
    let mut i = 0;
    while i + 1 < seg.ops.len() {
        if let Some(op) = count_pushdown(&seg.ops[i], &seg.ops[i + 1]) {
            seg.ops.splice(i..i + 2, [op]);
        }
        i += 1;
    }
}

/// The [`PlanOp::TraverseCount`] a `traverse` + `aggregate` pair reduces
/// to, if it does.
fn count_pushdown(traverse: &PlanOp, aggregate: &PlanOp) -> Option<PlanOp> {
    let PlanOp::Traverse(traverse) = traverse else { return None };
    // A single hop counts parallel edges: not a reached set.
    if traverse.edge_slot.is_some() || traverse.expand_into || traverse.single_hop() {
        return None;
    }
    let PlanOp::Aggregate { projection, weight_slot: None } = aggregate else { return None };
    let counts = projection
        .items
        .iter()
        .map(|item| match item {
            SlotItem::Aggregate { func: AggFunc::Count, distinct: false, arg: None } => {
                Some(ReachCount::Total)
            }
            SlotItem::Aggregate {
                func: AggFunc::Count,
                distinct,
                arg: Some(SlotExpr::Slot(s)),
            } if *s == traverse.dst_slot => {
                Some(if *distinct { ReachCount::Distinct } else { ReachCount::Total })
            }
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    Some(PlanOp::TraverseCount {
        traverse: traverse.clone(),
        counts,
        projection: projection.clone(),
    })
}

/// A traverse op, when it is fusable on its own terms: exactly one hop, a
/// fresh (not expand-into) destination, no bound edge, and a fixed direction
/// (`Both` would double-count self-loops in a summed operand).
fn fusable_hop(op: &PlanOp) -> Option<&Traverse> {
    match op {
        PlanOp::Traverse(t)
            if t.single_hop()
                && t.edge_slot.is_none()
                && !t.expand_into
                && t.direction != Direction::Both =>
        {
            Some(t)
        }
        _ => None,
    }
}

fn fuse_segment(seg: &mut Segment) {
    let mut i = 0;
    while i < seg.ops.len() {
        match try_fuse_at(seg, i) {
            Some(next) => i = next,
            None => i += 1,
        }
    }
}

/// One chain element: the traverse op's index plus the indices of the
/// `LabelFilter` ops immediately following it that constrain its destination.
struct ChainElem {
    traverse: usize,
    labels: Vec<usize>,
    /// Index of the first op after this element (traverse + labels).
    end: usize,
}

/// Attempt to fuse a chain starting at op `i`. Returns the index to resume
/// scanning from when a rewrite happened.
fn try_fuse_at(seg: &mut Segment, i: usize) -> Option<usize> {
    let ops = &seg.ops;
    fusable_hop(&ops[i])?;

    // Collect the maximal structural chain: traverse, its dst label filters,
    // then a traverse continuing from that dst, and so on.
    let mut chain: Vec<ChainElem> = Vec::new();
    let mut j = i;
    loop {
        let hop = fusable_hop(&ops[j]).expect("checked before entering");
        let mut k = j + 1;
        let mut labels = Vec::new();
        while k < ops.len() {
            match &ops[k] {
                PlanOp::LabelFilter { slot, .. } if *slot == hop.dst_slot => {
                    labels.push(k);
                    k += 1;
                }
                _ => break,
            }
        }
        let dst_slot = hop.dst_slot;
        chain.push(ChainElem { traverse: j, labels, end: k });
        match ops.get(k).and_then(fusable_hop) {
            Some(next) if next.src_slot == dst_slot => j = k,
            _ => break,
        }
    }
    let chain_end = chain.last().expect("non-empty").end;

    // The run extends while each intermediate destination is dead weight:
    // not referenced by any op outside the chain. The first live destination
    // ends the run (it becomes the fused op's output).
    let mut last = chain.len() - 1;
    for (m, elem) in chain.iter().enumerate() {
        if m == chain.len() - 1 {
            break;
        }
        let hop = fusable_hop(&seg.ops[elem.traverse]).expect("chain element");
        let used = seg.ops[chain_end..]
            .iter()
            .any(|op| op.slots().iter().any(|&(slot, _)| slot == hop.dst_slot));
        if used {
            last = m;
            break;
        }
    }
    let run = &chain[..=last];
    let n_labels: usize = run.iter().map(|e| e.labels.len()).sum();
    // A lone unlabelled hop gains nothing from fusion (and would trade its
    // row walk for a whole-matrix product); require a real chain or a
    // pushdown.
    if run.len() < 2 && n_labels == 0 {
        return None;
    }

    // Assemble the expression.
    let first = fusable_hop(&seg.ops[run[0].traverse]).expect("chain element");
    let src_slot = first.src_slot;
    let src_var = seg.bindings.name(src_slot).to_string();
    let src_label = seg.ops[..i].iter().find_map(|op| match op {
        PlanOp::NodeByLabelScan { slot, label, .. } if *slot == src_slot => Some(*label),
        _ => None,
    });
    let mut operands = Vec::with_capacity(run.len());
    for elem in run {
        let hop = fusable_hop(&seg.ops[elem.traverse]).expect("chain element");
        let dst_labels = elem
            .labels
            .iter()
            .filter_map(|&k| match seg.ops[k] {
                PlanOp::LabelFilter { label, .. } => Some(label),
                _ => None,
            })
            .collect();
        operands.push(AlgebraicOperand::Rel {
            rel_types: hop.rel_types.clone(),
            transposed: hop.direction == Direction::Incoming,
            dst_labels,
        });
    }
    let dst_slot = fusable_hop(&seg.ops[run[last].traverse]).expect("chain element").dst_slot;
    let run_end = run[last].end;

    // Weighted emission: the op right after the run must be an aggregation
    // that folds weights exactly (no DISTINCT, no collect). The hidden slot
    // is appended to the segment's bindings; records not produced by the
    // fused op leave it Null, which the aggregation reads as weight 1.
    let weight_slot = match seg.ops.get(run_end) {
        Some(PlanOp::Aggregate { projection, .. }) if weightable(projection) => {
            Some(seg.bindings.slot_or_create(&format!("@weight_{i}")))
        }
        _ => None,
    };

    let fused = PlanOp::FusedTraverse {
        src_slot,
        dst_slot,
        expr: AlgebraicExpression { src_var, src_label, operands },
        weight_slot,
    };
    seg.ops.splice(i..run_end, [fused]);
    if let Some(ws) = weight_slot {
        if let Some(PlanOp::Aggregate { weight_slot, .. }) = seg.ops.get_mut(i + 1) {
            *weight_slot = Some(ws);
        }
    }
    Some(i + 1)
}

/// True when every aggregate of the projection folds a per-record weight
/// exactly: `count`/`sum`/`avg` scale linearly, `min`/`max` ignore
/// duplicates. `DISTINCT` and `collect` need the expanded multiset.
fn weightable(projection: &SlotProjection) -> bool {
    projection.items.iter().all(|item| match item {
        SlotItem::Scalar(_) => true,
        SlotItem::Aggregate { func, distinct, .. } => !distinct && *func != AggFunc::Collect,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expression_renders_paper_notation() {
        let mut names = NameTable::default();
        let expr = AlgebraicExpression {
            src_var: "a".into(),
            src_label: Some(names.label("F")),
            operands: vec![
                AlgebraicOperand::Rel {
                    rel_types: vec![names.rel_type("R")],
                    transposed: false,
                    dst_labels: vec![],
                },
                AlgebraicOperand::Rel {
                    rel_types: vec![names.rel_type("S")],
                    transposed: true,
                    dst_labels: vec![names.label("B")],
                },
            ],
        };
        assert_eq!(expr.describe(&names), "(a:F)·A_R·Aᵀ_S·L_B");
    }

    #[test]
    fn untyped_hop_renders_star() {
        let expr = AlgebraicExpression {
            src_var: "n".into(),
            src_label: None,
            operands: vec![AlgebraicOperand::Rel {
                rel_types: vec![],
                transposed: false,
                dst_labels: vec![],
            }],
        };
        assert_eq!(expr.describe(&NameTable::default()), "(n)·A_*");
    }

    /// A graph of `n` nodes with the given `(src, dst, type)` edges and the
    /// rows of `query`, which must plan as the fused product `expr`.
    fn fused_rows(n: u64, edges: &[(u64, u64, &str)], query: &str, expr: &str) -> Vec<Vec<Value>> {
        let mut g = Graph::new("fused");
        for _ in 0..n {
            g.add_node(&["N"], vec![]);
        }
        for &(src, dst, rel) in edges {
            g.add_edge(src, dst, rel, vec![]).unwrap();
        }
        let plan = g.explain(query).unwrap();
        assert!(plan.iter().any(|line| line.ends_with(expr)), "{plan:?}");
        g.query_readonly(query).unwrap().rows.to_vec()
    }

    #[test]
    fn fused_chain_counts_paths() {
        // R = 0→1 and 0→2, S = 1→3 and 2→3: two paths 0→3, one row each.
        let edges = [(0, 1, "R"), (0, 2, "R"), (1, 3, "S"), (2, 3, "S")];
        let query = "MATCH (s)-[:R]->()-[:S]->(t) RETURN id(s), id(t)";
        let rows = fused_rows(4, &edges, query, "(s)·A_R·A_S");
        assert_eq!(rows, vec![vec![Value::Int(0), Value::Int(3)]; 2]);
    }

    #[test]
    fn fused_chain_respects_edge_multiplicity() {
        // A parallel pair times three parallel edges = 6 paths.
        let edges = [(0, 1, "R"), (0, 1, "R"), (1, 2, "S"), (1, 2, "S"), (1, 2, "S")];
        let query = "MATCH (s)-[:R]->()-[:S]->(t) RETURN id(t), count(t)";
        let rows = fused_rows(3, &edges, query, "(s)·A_R·A_S");
        assert_eq!(rows, vec![vec![Value::Int(2), Value::Int(6)]]);
    }
}
