//! Execution-plan construction and evaluation.
//!
//! [`ExecutionPlan::build`] compiles a parsed [`cypher::Query`] into segments
//! of [`PlanOp`]s (segments are separated by `WITH`, which re-binds the record
//! layout). [`ExecutionPlan::run`] interprets the plan against a graph.
//!
//! Plan construction mirrors RedisGraph's planner for the supported subset:
//!
//! * the first node of a `MATCH` pattern chooses its access path — `Node By Id
//!   Seek` when the `WHERE` clause pins `id(n)`, `Node By Label Scan` when the
//!   pattern has a label, otherwise `All Node Scan`;
//! * every relationship step becomes a `Conditional Traverse` (or `Expand
//!   Into` when both endpoints are already bound), executed against the
//!   graph's sparse matrices;
//! * inline property maps and label constraints on non-scan nodes become
//!   filters directly after the traverse that binds them;
//! * [`ExecutionPlan::build`] then splits each `WHERE` into its `AND`
//!   conjuncts and places each right after the op binding its last variable.

use crate::error::QueryError;
use crate::exec::expr::contains_aggregate;
use crate::exec::ops::*;
use crate::exec::record::{Bindings, RecordBatch};
use crate::exec::resultset::{QueryStats, ResultSet};
use crate::store::graph::Graph;
use crate::value::Value;
use cypher::{Clause, Expr, NodePattern, PathPattern, Query};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Query parameters (`CYPHER name=value …`): name → constant expression.
/// Values are the literal / list-of-literal expressions the server parses
/// from the `CYPHER` header; [`ExecutionPlan::bind`] substitutes them for
/// `$name` references at plan-bind time — never by splicing query text.
pub type Params = HashMap<String, Expr>;

/// What one operator did during a profiled execution (`GRAPH.PROFILE`): the
/// operator's `describe()` line plus how many records it left in the
/// interpreter's working set and how long its invocation took. The executor
/// is a batch interpreter — each operator consumes the whole record batch
/// and produces the next one — so an operator's wall time is exactly the
/// span of its invocation; there is no child time to subtract.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// The operator's `GRAPH.EXPLAIN` line.
    pub description: String,
    /// Records in the working set after the operator ran.
    pub records_produced: usize,
    /// Wall time of the operator's invocation.
    pub elapsed: Duration,
    /// Index of the plan segment the operator belongs to (segments are
    /// separated by `WITH`; the formatter reinserts `--- segment ---`).
    pub segment: usize,
}

/// Render profiled operators as the annotated `GRAPH.EXPLAIN` tree
/// `GRAPH.PROFILE` returns: one line per operator, segment separators
/// preserved.
pub fn format_profile(profiles: &[OpProfile]) -> Vec<String> {
    let mut out = Vec::new();
    let mut segment = 0;
    for p in profiles {
        if p.segment != segment {
            out.push("--- segment ---".to_string());
            segment = p.segment;
        }
        out.push(format!(
            "{} | Records produced: {}, Execution time: {:.6} ms",
            p.description,
            p.records_produced,
            p.elapsed.as_secs_f64() * 1e3
        ));
    }
    out
}

/// One plan segment: a record layout plus the operations that run under it.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Variable → slot table for this segment.
    pub bindings: Bindings,
    /// Operations, in execution order.
    pub ops: Vec<PlanOp>,
}

/// A compiled query plan.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    segments: Vec<Segment>,
}

impl ExecutionPlan {
    /// Compile a parsed query into an execution plan, place each `WHERE`
    /// conjunct right after the operator that binds its last variable, and
    /// run the algebraic optimizer over it (chain fusion, mask pushdown,
    /// count pushdown — see [`crate::exec::algebraic`]).
    pub fn build(query: &Query) -> Result<Self, QueryError> {
        let mut plan = Self::build_unoptimized(query)?;
        plan.segments.iter_mut().for_each(place_filters);
        crate::exec::algebraic::fuse_plan(&mut plan.segments);
        Ok(plan)
    }

    /// Compile without the optimizer pass: one `Traverse` op per hop, label
    /// predicates as record filters, each `WHERE` as one `Filter` where it
    /// was written, aggregates over materialised records. The differential
    /// suites compare this plan's output against the optimized plan's row
    /// for row.
    pub fn build_unoptimized(query: &Query) -> Result<Self, QueryError> {
        Builder::new().build(query)
    }

    /// Human-readable plan description (`GRAPH.EXPLAIN`).
    pub fn describe(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, segment) in self.segments.iter().enumerate() {
            if i > 0 {
                out.push("--- segment ---".to_string());
            }
            for op in &segment.ops {
                out.push(op.describe());
            }
        }
        out
    }

    /// The segments of the plan (exposed for tests and the server module).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// True if any expression in the plan references a `$parameter`. Plans
    /// without parameter references execute a cached skeleton directly;
    /// plans with them go through [`ExecutionPlan::bind`] first.
    pub fn has_params(&self) -> bool {
        let mut found = false;
        self.visit_exprs(&mut |expr| found |= expr_has_param(expr));
        found
    }

    /// Clone the plan with every `$name` reference replaced by its value
    /// from `params` — substitution happens on the plan's expressions, so a
    /// cached skeleton is never re-parsed or re-planned per execution, and
    /// parameter values can never be misread as query text. Errors if the
    /// plan references a parameter `params` does not supply.
    pub fn bind(&self, params: &Params) -> Result<ExecutionPlan, QueryError> {
        let mut plan = self.clone();
        let mut missing: Option<String> = None;
        plan.visit_exprs_mut(&mut |expr| substitute_params(expr, params, &mut missing));
        match missing {
            Some(name) => Err(QueryError::Type(format!("missing query parameter `${name}`"))),
            None => Ok(plan),
        }
    }

    /// Visit every expression embedded in the plan's operators.
    fn visit_exprs(&self, f: &mut impl FnMut(&Expr)) {
        for segment in &self.segments {
            for op in &segment.ops {
                match op {
                    PlanOp::NodeByIdSeek { id_expr, .. } => f(id_expr),
                    PlanOp::Filter { expr } => f(expr),
                    PlanOp::Unwind { list, .. } => f(list),
                    PlanOp::ProcedureCall { args, .. } => args.iter().for_each(&mut *f),
                    PlanOp::Project(p)
                    | PlanOp::With(p)
                    | PlanOp::Aggregate { projection: p, .. }
                    | PlanOp::TraverseCount { projection: p, .. } => {
                        p.items.iter().for_each(|i| f(&i.expr));
                        p.order_by.iter().for_each(|(e, _)| f(e));
                    }
                    PlanOp::SetProps { items } => items.iter().for_each(|i| f(&i.value)),
                    _ => {}
                }
            }
        }
    }

    /// Mutable counterpart of [`ExecutionPlan::visit_exprs`].
    fn visit_exprs_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        for segment in &mut self.segments {
            for op in &mut segment.ops {
                match op {
                    PlanOp::NodeByIdSeek { id_expr, .. } => f(id_expr),
                    PlanOp::Filter { expr } => f(expr),
                    PlanOp::Unwind { list, .. } => f(list),
                    PlanOp::ProcedureCall { args, .. } => args.iter_mut().for_each(&mut *f),
                    PlanOp::Project(p)
                    | PlanOp::With(p)
                    | PlanOp::Aggregate { projection: p, .. }
                    | PlanOp::TraverseCount { projection: p, .. } => {
                        p.items.iter_mut().for_each(|i| f(&mut i.expr));
                        p.order_by.iter_mut().for_each(|(e, _)| f(e));
                    }
                    PlanOp::SetProps { items } => items.iter_mut().for_each(|i| f(&mut i.value)),
                    _ => {}
                }
            }
        }
    }

    /// Execute the plan: the one way every caller runs one. `access` says
    /// whether the plan may write; a write operator reached through
    /// [`GraphAccess::Read`] is an error. The statistics footer is timed from
    /// `started`, the one `Instant` the caller captured (the server's
    /// dispatch anchor, so the reported time spans parse, queue and execute).
    /// With `profiles`, every operator's records-produced count and wall time
    /// are appended to it (`GRAPH.PROFILE`); write operators mutate exactly
    /// as they do unprofiled.
    ///
    /// Records travel as one [`RecordBatch`] per operator boundary, created
    /// at the segment's `bindings.len()` width: the first operator extends a
    /// single record of null slots (zero of them for `RETURN 1`), each
    /// operator maps its input batch to the next (a filter compacts in
    /// place), `WITH` moves the projected values into the next segment's
    /// layout, and the last `Project`/`Aggregate` batch, one slot per
    /// column, becomes [`ResultSet::rows`].
    pub fn run(
        &self,
        mut access: GraphAccess<'_>,
        started: Instant,
        mut profiles: Option<&mut Vec<OpProfile>>,
    ) -> Result<ResultSet, QueryError> {
        let mut stats = QueryStats::default();
        // The first operator extends one record with nothing bound yet.
        let mut records = RecordBatch::new(self.segments[0].bindings.len());
        records.push_nulls();
        let mut columns: Vec<String> = Vec::new();
        let mut rows = RecordBatch::default();

        for (si, segment) in self.segments.iter().enumerate() {
            let bindings = &segment.bindings;
            for op in &segment.ops {
                // Per-op timing only when profiling: the 40k+-qps point-read
                // path pays nothing for the instrumentation's existence.
                let op_started = profiles.as_ref().map(|_| Instant::now());
                match op {
                    PlanOp::AllNodeScan { .. }
                    | PlanOp::NodeByLabelScan { .. }
                    | PlanOp::NodeByIdSeek { .. } => {
                        records = run_scan(op, &records, bindings, access.graph());
                    }
                    PlanOp::Filter { .. }
                    | PlanOp::LabelFilter { .. }
                    | PlanOp::PropFilter { .. } => {
                        run_filter(op, &mut records, bindings, access.graph());
                    }
                    PlanOp::Traverse { .. } => {
                        records = run_traverse(op, &records, access.graph());
                    }
                    PlanOp::TraverseCount { projection, .. } => {
                        columns = projection.items.iter().map(|i| i.column_name()).collect();
                        rows = run_traverse_count(op, &records, access.graph());
                    }
                    PlanOp::FusedTraverse { .. } => {
                        records = crate::exec::algebraic::run_fused(op, &records, access.graph());
                    }
                    PlanOp::Project(projection) => {
                        columns = projection.items.iter().map(|i| i.column_name()).collect();
                        rows = run_project(projection, &records, bindings, access.graph());
                    }
                    PlanOp::Aggregate { projection, weight_slot } => {
                        columns = projection.items.iter().map(|i| i.column_name()).collect();
                        rows = run_aggregate(
                            projection,
                            *weight_slot,
                            &records,
                            bindings,
                            access.graph(),
                        );
                    }
                    PlanOp::With(projection) => {
                        let next = &self.segments[si + 1].bindings;
                        records = run_with(projection, &records, bindings, next, access.graph());
                    }
                    PlanOp::Create { patterns } => {
                        run_create(
                            patterns,
                            &mut records,
                            bindings,
                            access.graph_mut()?,
                            &mut stats,
                        );
                    }
                    PlanOp::Delete { vars, .. } => {
                        run_delete(vars, &records, bindings, access.graph_mut()?, &mut stats);
                    }
                    PlanOp::SetProps { items } => {
                        run_set(items, &records, bindings, access.graph_mut()?, &mut stats);
                    }
                    PlanOp::Unwind { list, slot, .. } => {
                        records = run_unwind(list, *slot, &records, bindings, access.graph());
                    }
                    PlanOp::ProcedureCall { name, args, outputs } => {
                        records =
                            run_procedure(name, args, outputs, &records, bindings, access.graph())?;
                    }
                }
                if let Some(profiles) = profiles.as_deref_mut() {
                    // Projections emit rows, every other operator leaves its
                    // output in the record working set.
                    let produced = match op {
                        PlanOp::Project(_)
                        | PlanOp::Aggregate { .. }
                        | PlanOp::TraverseCount { .. } => rows.len(),
                        _ => records.len(),
                    };
                    profiles.push(OpProfile {
                        description: op.describe(),
                        records_produced: produced,
                        elapsed: op_started.expect("set when profiling").elapsed(),
                        segment: si,
                    });
                }
            }
        }
        // No plan folds matrices: mutations append to each DeltaMatrix's
        // pending buffers, and every reader (this plan's later operators
        // included) sees the merged view. Buffers fold into the main CSRs
        // only when a matrix crosses its flush threshold.
        stats.execution_time = started.elapsed();
        Ok(ResultSet { columns, rows, stats })
    }
}

/// How the executor is allowed to touch the graph: read-only plans can run
/// against a shared reference (many at once on different threadpool workers),
/// write plans need exclusive access.
pub enum GraphAccess<'a> {
    /// Shared, read-only access.
    Read(&'a Graph),
    /// Exclusive access, required by write operations.
    Write(&'a mut Graph),
}

impl<'a> GraphAccess<'a> {
    fn graph(&self) -> &Graph {
        match self {
            GraphAccess::Read(g) => g,
            GraphAccess::Write(g) => g,
        }
    }

    fn graph_mut(&mut self) -> Result<&mut Graph, QueryError> {
        match self {
            GraphAccess::Read(_) => Err(QueryError::Internal(
                "write operation reached the read-only execution path".into(),
            )),
            GraphAccess::Write(g) => Ok(g),
        }
    }
}

/// Internal plan builder state.
struct Builder {
    segments: Vec<Segment>,
    bindings: Bindings,
    ops: Vec<PlanOp>,
    anon_counter: usize,
}

impl Builder {
    fn new() -> Self {
        Builder {
            segments: Vec::new(),
            bindings: Bindings::new(),
            ops: Vec::new(),
            anon_counter: 0,
        }
    }

    fn anon_var(&mut self) -> String {
        self.anon_counter += 1;
        format!("@anon_{}", self.anon_counter)
    }

    fn finish_segment(&mut self) {
        let bindings = std::mem::take(&mut self.bindings);
        let ops = std::mem::take(&mut self.ops);
        self.segments.push(Segment { bindings, ops });
    }

    fn build(mut self, query: &Query) -> Result<ExecutionPlan, QueryError> {
        let id_seeks = collect_id_seeks(query);
        for clause in &query.clauses {
            match clause {
                Clause::Match { optional, patterns } => {
                    if *optional {
                        return Err(QueryError::Unsupported(
                            "OPTIONAL MATCH is not supported by this RedisGraph version".into(),
                        ));
                    }
                    for pattern in patterns {
                        self.plan_pattern(pattern, &id_seeks)?;
                    }
                }
                Clause::Where(expr) => {
                    self.ops.push(PlanOp::Filter { expr: expr.clone() });
                }
                Clause::Return(projection) => {
                    let agg = projection.items.iter().any(|i| contains_aggregate(&i.expr));
                    self.ops.push(if agg {
                        PlanOp::Aggregate { projection: projection.clone(), weight_slot: None }
                    } else {
                        PlanOp::Project(projection.clone())
                    });
                }
                Clause::With(projection) => {
                    self.ops.push(PlanOp::With(projection.clone()));
                    self.finish_segment();
                    // The next segment's variables are the projected column names.
                    for item in &projection.items {
                        self.bindings.slot_or_create(&item.column_name());
                    }
                }
                Clause::Create(patterns) => {
                    // Named entities introduced by CREATE get slots so later
                    // clauses (RETURN, SET) can reference them.
                    for pattern in patterns {
                        for node in pattern.nodes() {
                            if let Some(var) = &node.variable {
                                self.bindings.slot_or_create(var);
                            }
                        }
                        for (rel, _) in &pattern.steps {
                            if let Some(var) = &rel.variable {
                                self.bindings.slot_or_create(var);
                            }
                        }
                    }
                    self.ops.push(PlanOp::Create { patterns: patterns.clone() });
                }
                Clause::Delete { detach, variables } => {
                    for var in variables {
                        if !self.bindings.is_bound(var) {
                            return Err(QueryError::UnknownVariable(var.clone()));
                        }
                    }
                    self.ops.push(PlanOp::Delete { detach: *detach, vars: variables.clone() });
                }
                Clause::Set(items) => {
                    for item in items {
                        if !self.bindings.is_bound(&item.variable) {
                            return Err(QueryError::UnknownVariable(item.variable.clone()));
                        }
                    }
                    self.ops.push(PlanOp::SetProps { items: items.clone() });
                }
                Clause::Unwind { list, variable } => {
                    let slot = self.bindings.slot_or_create(variable);
                    self.ops.push(PlanOp::Unwind {
                        list: list.clone(),
                        slot,
                        var: variable.clone(),
                    });
                }
                Clause::Call { procedure, args, yields } => {
                    self.plan_call(procedure, args, yields)?;
                }
            }
        }
        self.finish_segment();
        Ok(ExecutionPlan { segments: self.segments })
    }

    /// Plan a `CALL … YIELD` clause: resolve the procedure, validate arity and
    /// the yield list, and bind the yielded columns as ordinary variables.
    fn plan_call(
        &mut self,
        procedure: &str,
        args: &[Expr],
        yields: &[cypher::YieldItem],
    ) -> Result<(), QueryError> {
        let proc = crate::exec::procedures::find(procedure)
            .ok_or_else(|| QueryError::UnknownProcedure(procedure.to_string()))?;
        if args.len() < proc.min_args || args.len() > proc.max_args {
            return Err(QueryError::Type(format!(
                "procedure `{}` takes {} to {} arguments, got {}",
                proc.name,
                proc.min_args,
                proc.max_args,
                args.len()
            )));
        }
        // Yielded names must be fresh bindings (openCypher forbids YIELD from
        // shadowing an existing variable — rebinding would silently clobber
        // the earlier values).
        let bind_fresh = |bindings: &mut Bindings, name: &str| -> Result<usize, QueryError> {
            if bindings.is_bound(name) {
                return Err(QueryError::Type(format!(
                    "variable `{name}` already declared; YIELD names must be new (use `AS` to \
                     rename)"
                )));
            }
            Ok(bindings.slot_or_create(name))
        };
        // An empty YIELD list yields every output column under its own name.
        let outputs: Vec<(usize, usize)> = if yields.is_empty() {
            proc.yields
                .iter()
                .enumerate()
                .map(|(col, name)| Ok((col, bind_fresh(&mut self.bindings, name)?)))
                .collect::<Result<_, QueryError>>()?
        } else {
            yields
                .iter()
                .map(|item| {
                    let col =
                        proc.yields.iter().position(|c| *c == item.column).ok_or_else(|| {
                            QueryError::Type(format!(
                                "procedure `{}` does not yield `{}` (yields: {})",
                                proc.name,
                                item.column,
                                proc.yields.join(", ")
                            ))
                        })?;
                    Ok((col, bind_fresh(&mut self.bindings, item.binding_name())?))
                })
                .collect::<Result<_, QueryError>>()?
        };
        self.ops.push(PlanOp::ProcedureCall {
            name: proc.name.to_string(),
            args: args.to_vec(),
            outputs,
        });
        Ok(())
    }

    /// Plan one linear path pattern of a MATCH clause.
    fn plan_pattern(
        &mut self,
        pattern: &PathPattern,
        id_seeks: &HashMap<String, Expr>,
    ) -> Result<(), QueryError> {
        // Start node.
        let start_var = pattern.start.variable.clone().unwrap_or_else(|| self.anon_var());
        let start_bound = self.bindings.is_bound(&start_var);
        let start_slot = self.bindings.slot_or_create(&start_var);
        if !start_bound {
            self.plan_node_access(&pattern.start, &start_var, start_slot, id_seeks);
        } else {
            self.plan_node_constraints(&pattern.start, start_slot);
        }

        // Relationship steps.
        let mut src_slot = start_slot;
        for (rel, node) in &pattern.steps {
            let dst_var = node.variable.clone().unwrap_or_else(|| self.anon_var());
            let expand_into = self.bindings.is_bound(&dst_var);
            let dst_slot = self.bindings.slot_or_create(&dst_var);
            // An edge slot is needed when the edge is named or when inline
            // property constraints must be checked against it (single hop only).
            let edge_slot = if rel.var_length.is_none()
                && (rel.variable.is_some() || !rel.properties.is_empty())
            {
                let name = rel.variable.clone().unwrap_or_else(|| self.anon_var());
                Some(self.bindings.slot_or_create(&name))
            } else {
                None
            };
            let (min_hops, max_hops) = match rel.var_length {
                None => (1, Some(1)),
                Some((min, max)) => (min, max),
            };
            self.ops.push(PlanOp::Traverse {
                src_slot,
                dst_slot,
                dst_var: dst_var.clone(),
                edge_slot,
                rel_types: rel.types.clone(),
                direction: rel.direction,
                min_hops,
                max_hops,
                expand_into,
            });
            // Edge property constraints (single hop only).
            if let Some(es) = edge_slot {
                for (key, lit) in &rel.properties {
                    self.ops.push(PlanOp::PropFilter {
                        slot: es,
                        key: key.clone(),
                        value: Value::from(lit),
                    });
                }
            }
            // Destination constraints apply whether the traversal expands into
            // a fresh slot or re-checks an already-bound one.
            self.plan_node_constraints(node, dst_slot);
            src_slot = dst_slot;
        }
        Ok(())
    }

    /// Choose the access path for an unbound start node.
    fn plan_node_access(
        &mut self,
        node: &NodePattern,
        var: &str,
        slot: usize,
        id_seeks: &HashMap<String, Expr>,
    ) {
        if let Some(id_expr) = id_seeks.get(var) {
            self.ops.push(PlanOp::NodeByIdSeek {
                slot,
                var: var.to_string(),
                id_expr: id_expr.clone(),
            });
            // Remaining label/property constraints still apply.
            self.plan_node_constraints(node, slot);
            return;
        }
        if let Some(first_label) = node.labels.first() {
            self.ops.push(PlanOp::NodeByLabelScan {
                slot,
                var: var.to_string(),
                label: first_label.clone(),
            });
            for label in node.labels.iter().skip(1) {
                self.ops.push(PlanOp::LabelFilter { slot, label: label.clone() });
            }
        } else {
            self.ops.push(PlanOp::AllNodeScan { slot, var: var.to_string() });
        }
        for (key, lit) in &node.properties {
            self.ops.push(PlanOp::PropFilter { slot, key: key.clone(), value: Value::from(lit) });
        }
    }

    /// Emit label / property filters for a node that is bound by a traverse or
    /// by an earlier pattern.
    fn plan_node_constraints(&mut self, node: &NodePattern, slot: usize) {
        for label in &node.labels {
            self.ops.push(PlanOp::LabelFilter { slot, label: label.clone() });
        }
        for (key, lit) in &node.properties {
            self.ops.push(PlanOp::PropFilter { slot, key: key.clone(), value: Value::from(lit) });
        }
    }
}

/// Split each `WHERE` filter of a segment into its top-level `AND`
/// conjuncts and place each right after the operator that binds its last
/// variable — after that operator's own label/property filters — as
/// RedisGraph places filter ops. A predicate on a scanned node then runs
/// once per scanned node rather than once per traversed record, and no
/// filter sits between a traversal and the aggregate it feeds. A conjunct
/// that mentions no variable, or one bound only further down, stays where
/// the `WHERE` was; none moves above a write, and segments (`WITH`
/// boundaries) are placed independently. Conjuncts landing at one position
/// re-join into one `Filter`.
fn place_filters(segment: &mut Segment) {
    let ops = std::mem::take(&mut segment.ops);
    // The first op binding each slot; slots no op binds come bound from the
    // previous segment.
    let mut binder: HashMap<usize, usize> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        for slot in bound_slots(op, &segment.bindings) {
            binder.entry(slot).or_insert(i);
        }
    }
    // The position right after op `i` and the constraint filters trailing it.
    let after = |i: usize| {
        let trailing = ops[i + 1..]
            .iter()
            .take_while(|op| matches!(op, PlanOp::LabelFilter { .. } | PlanOp::PropFilter { .. }))
            .count();
        i + 1 + trailing
    };

    // placed[p]: the conjuncts to evaluate right before original op `p` (a
    // conjunct never moves below its own `WHERE`, so `p` stays in range).
    let mut placed: Vec<Vec<Expr>> = vec![Vec::new(); ops.len()];
    let mut floor = 0; // just below the last write seen
    for (i, op) in ops.iter().enumerate() {
        match op {
            PlanOp::Filter { expr } => {
                for conjunct in conjuncts(expr) {
                    let mut vars = Vec::new();
                    expr_vars(conjunct, &mut vars);
                    let positions: Option<Vec<usize>> = vars
                        .iter()
                        .map(|var| match segment.bindings.slot(var).map(|s| binder.get(&s)) {
                            Some(None) => Some(0),
                            Some(Some(&b)) if b < i => Some(after(b)),
                            _ => None, // unknown, or bound further down
                        })
                        .collect();
                    let pos = positions.and_then(|p| p.into_iter().max());
                    placed[pos.map_or(i, |p| p.max(floor))].push(conjunct.clone());
                }
            }
            PlanOp::Create { .. } | PlanOp::Delete { .. } | PlanOp::SetProps { .. } => {
                floor = i + 1;
            }
            _ => {}
        }
    }

    for (op, here) in ops.into_iter().zip(placed) {
        if let Some(expr) = here.into_iter().reduce(|lhs, rhs| {
            Expr::Binary(cypher::BinaryOperator::And, Box::new(lhs), Box::new(rhs))
        }) {
            segment.ops.push(PlanOp::Filter { expr });
        }
        if !matches!(op, PlanOp::Filter { .. }) {
            segment.ops.push(op);
        }
    }
}

/// The slots an operator binds.
fn bound_slots(op: &PlanOp, bindings: &Bindings) -> Vec<usize> {
    match op {
        PlanOp::AllNodeScan { slot, .. }
        | PlanOp::NodeByLabelScan { slot, .. }
        | PlanOp::NodeByIdSeek { slot, .. }
        | PlanOp::Unwind { slot, .. } => vec![*slot],
        PlanOp::Traverse { dst_slot, edge_slot, expand_into, .. } => {
            let dst = (!expand_into).then_some(*dst_slot);
            dst.into_iter().chain(*edge_slot).collect()
        }
        PlanOp::ProcedureCall { outputs, .. } => outputs.iter().map(|&(_, slot)| slot).collect(),
        PlanOp::Create { patterns } => patterns
            .iter()
            .flat_map(|p| {
                let nodes = p.nodes().into_iter().filter_map(|n| n.variable.as_deref());
                let rels = p.steps.iter().filter_map(|(r, _)| r.variable.as_deref());
                nodes.chain(rels).collect::<Vec<_>>()
            })
            .filter_map(|var| bindings.slot(var))
            .collect(),
        _ => Vec::new(),
    }
}

/// The top-level `AND` conjuncts of a predicate.
fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Binary(cypher::BinaryOperator::And, lhs, rhs) => {
            let mut out = conjuncts(lhs);
            out.extend(conjuncts(rhs));
            out
        }
        _ => vec![expr],
    }
}

/// Every variable an expression reads (`v` and `v.prop`).
pub(crate) fn expr_vars<'e>(expr: &'e Expr, out: &mut Vec<&'e str>) {
    match expr {
        Expr::Variable(v) | Expr::Property(v, _) => out.push(v),
        Expr::Literal(_) | Expr::Parameter(_) => {}
        Expr::Unary(_, inner) => expr_vars(inner, out),
        Expr::Binary(_, lhs, rhs) => {
            expr_vars(lhs, out);
            expr_vars(rhs, out);
        }
        Expr::List(items) | Expr::FunctionCall { args: items, .. } => {
            items.iter().for_each(|e| expr_vars(e, out))
        }
    }
}

/// Scan the WHERE clauses for `id(var) = <expr>` conjuncts usable as
/// `Node By Id Seek` access paths.
fn collect_id_seeks(query: &Query) -> HashMap<String, Expr> {
    let mut seeks = HashMap::new();
    for clause in &query.clauses {
        if let Clause::Where(expr) = clause {
            collect_id_seeks_expr(expr, &mut seeks);
        }
    }
    seeks
}

fn collect_id_seeks_expr(expr: &Expr, seeks: &mut HashMap<String, Expr>) {
    match expr {
        Expr::Binary(cypher::BinaryOperator::And, lhs, rhs) => {
            collect_id_seeks_expr(lhs, seeks);
            collect_id_seeks_expr(rhs, seeks);
        }
        Expr::Binary(cypher::BinaryOperator::Eq, lhs, rhs) => {
            if let Some((var, value)) = match_id_eq(lhs, rhs).or_else(|| match_id_eq(rhs, lhs)) {
                seeks.insert(var, value);
            }
        }
        _ => {}
    }
}

/// True if `expr` contains a `$parameter` reference anywhere.
fn expr_has_param(expr: &Expr) -> bool {
    match expr {
        Expr::Parameter(_) => true,
        Expr::Unary(_, inner) => expr_has_param(inner),
        Expr::Binary(_, lhs, rhs) => expr_has_param(lhs) || expr_has_param(rhs),
        Expr::FunctionCall { args, .. } => args.iter().any(expr_has_param),
        Expr::List(items) => items.iter().any(expr_has_param),
        Expr::Literal(_) | Expr::Variable(_) | Expr::Property(_, _) => false,
    }
}

/// Replace every `$name` in `expr` with its value from `params`, recording
/// the first missing name in `missing`.
fn substitute_params(expr: &mut Expr, params: &Params, missing: &mut Option<String>) {
    match expr {
        Expr::Parameter(name) => match params.get(name.as_str()) {
            Some(value) => *expr = value.clone(),
            None => {
                if missing.is_none() {
                    *missing = Some(name.clone());
                }
            }
        },
        Expr::Unary(_, inner) => substitute_params(inner, params, missing),
        Expr::Binary(_, lhs, rhs) => {
            substitute_params(lhs, params, missing);
            substitute_params(rhs, params, missing);
        }
        Expr::FunctionCall { args, .. } => {
            args.iter_mut().for_each(|a| substitute_params(a, params, missing))
        }
        Expr::List(items) => items.iter_mut().for_each(|i| substitute_params(i, params, missing)),
        Expr::Literal(_) | Expr::Variable(_) | Expr::Property(_, _) => {}
    }
}

fn match_id_eq(call: &Expr, value: &Expr) -> Option<(String, Expr)> {
    if let Expr::FunctionCall { name, args, .. } = call {
        if name == "id" && args.len() == 1 {
            if let Expr::Variable(var) = &args[0] {
                if matches!(value, Expr::Literal(_) | Expr::Parameter(_)) {
                    return Some((var.clone(), value.clone()));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(q: &str) -> ExecutionPlan {
        ExecutionPlan::build(&cypher::parse(q).unwrap()).unwrap()
    }

    #[test]
    fn label_scan_chosen_when_label_present() {
        let p = plan("MATCH (a:Person) RETURN a");
        let text = p.describe().join("\n");
        assert!(text.contains("Node By Label Scan"));
        assert!(!text.contains("All Node Scan"));
    }

    #[test]
    fn all_node_scan_when_no_label() {
        let p = plan("MATCH (a) RETURN a");
        assert!(p.describe().join("\n").contains("All Node Scan"));
    }

    #[test]
    fn id_seek_chosen_when_where_pins_id() {
        let p = plan("MATCH (s:Node)-[*1..2]->(t) WHERE id(s) = 5 RETURN count(t)");
        let text = p.describe().join("\n");
        assert!(text.contains("Node By Id Seek"), "plan was:\n{text}");
        assert!(text.contains("Conditional Traverse"));
        assert!(text.contains("Aggregate"));
    }

    #[test]
    fn expand_into_when_destination_already_bound() {
        let p = plan("MATCH (a:Person)-[:KNOWS]->(b:Person), (a)-[:LIKES]->(b) RETURN a");
        let text = p.describe().join("\n");
        assert!(text.contains("Expand Into"), "plan was:\n{text}");
    }

    #[test]
    fn with_splits_segments() {
        let p = plan("MATCH (a:Person) WITH a.name AS n RETURN n");
        assert_eq!(p.segments().len(), 2);
        assert!(p.describe().join("\n").contains("--- segment ---"));
    }

    #[test]
    fn unknown_variable_in_delete_is_an_error() {
        let err = ExecutionPlan::build(&cypher::parse("MATCH (a) DELETE b").unwrap()).unwrap_err();
        assert!(matches!(err, QueryError::UnknownVariable(v) if v == "b"));
    }

    #[test]
    fn bind_substitutes_parameters_at_plan_level() {
        let p = plan("MATCH (s)-[:L]->(t) WHERE id(s) = $src AND t.name = $name RETURN t");
        assert!(p.has_params());
        let params: Params = [
            ("src".to_string(), Expr::Literal(cypher::Literal::Integer(3))),
            ("name".to_string(), Expr::Literal(cypher::Literal::Str("x".into()))),
        ]
        .into_iter()
        .collect();
        let bound = p.bind(&params).unwrap();
        assert!(!bound.has_params(), "all $refs must be substituted");
        // The skeleton itself is untouched: it can be re-bound with other values.
        assert!(p.has_params());
    }

    #[test]
    fn bind_errors_on_missing_parameter() {
        let p = plan("MATCH (s) WHERE id(s) = $src RETURN s");
        let err = p.bind(&Params::new()).unwrap_err();
        assert!(matches!(&err, QueryError::Type(m) if m.contains("$src")), "{err}");
    }

    #[test]
    fn params_reach_every_expression_position() {
        // UNWIND list, projection item, ORDER BY key, and SET value.
        let p = plan("UNWIND $xs AS x RETURN x + $inc AS y ORDER BY $inc");
        assert!(p.has_params());
        let params: Params = [
            (
                "xs".to_string(),
                Expr::List(vec![
                    Expr::Literal(cypher::Literal::Integer(1)),
                    Expr::Literal(cypher::Literal::Integer(2)),
                ]),
            ),
            ("inc".to_string(), Expr::Literal(cypher::Literal::Integer(10))),
        ]
        .into_iter()
        .collect();
        assert!(!p.bind(&params).unwrap().has_params());

        let p = plan("MATCH (a) SET a.v = $v");
        assert!(p.has_params());
        let params: Params =
            [("v".to_string(), Expr::Literal(cypher::Literal::Integer(1)))].into_iter().collect();
        assert!(!p.bind(&params).unwrap().has_params());
    }

    #[test]
    fn optional_match_is_rejected() {
        let err = ExecutionPlan::build(&cypher::parse("OPTIONAL MATCH (a) RETURN a").unwrap())
            .unwrap_err();
        assert!(matches!(err, QueryError::Unsupported(_)));
    }
}
