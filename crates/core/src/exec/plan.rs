//! Execution-plan construction and evaluation.
//!
//! [`ExecutionPlan::build`] compiles a parsed [`cypher::Query`] into segments
//! of [`PlanOp`]s (segments are separated by `WITH`, which re-binds the record
//! layout). [`ExecutionPlan::bind`] turns query parameters into the plan's
//! [`ParamValues`], and [`ExecutionPlan::run`] interprets the plan against a
//! graph with them.
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
//!   conjuncts and places each right after the op binding its last variable;
//! * the last build step compiles every op's expressions once (see
//!   [`crate::exec::expr`]): variables become record slots, `$name`s indexes
//!   into the plan's parameter table, property keys and labels indexes into
//!   its name table. The executor reads no variable name and substitutes
//!   nothing into the plan, so one plan serves every execution in place.

use crate::error::QueryError;
use crate::exec::expr::{contains_aggregate, Compiler, NameTable, Scope};
use crate::exec::ops::*;
use crate::exec::record::{Bindings, RecordBatch};
use crate::exec::resultset::{QueryStats, ResultSet};
use crate::store::graph::Graph;
use crate::value::Value;
use cypher::{Clause, Expr, NodePattern, PathPattern, Query};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Query parameters (`CYPHER name=value …`): name → value. The server parses
/// them from the `CYPHER` header (and lifts a body's literals into them);
/// [`ExecutionPlan::bind`] turns them into the values a plan's `$name`
/// references read — values are never spliced into query text.
pub type Params = HashMap<String, Value>;

/// One execution's parameter values, in the order of the plan's parameter
/// table: what [`ExecutionPlan::bind`] returns and [`ExecutionPlan::run`]
/// reads.
#[derive(Debug, Clone)]
pub struct ParamValues(Vec<Value>);

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
#[derive(Debug)]
pub struct Segment {
    /// Variable → slot table for this segment.
    pub bindings: Bindings,
    /// Operations, in execution order.
    pub ops: Vec<PlanOp>,
}

/// A compiled query plan.
#[derive(Debug)]
pub struct ExecutionPlan {
    segments: Vec<Segment>,
    /// The `$name`s the plan reads, in first-reference order.
    params: Vec<String>,
    /// The property keys, labels and relationship types its ops name.
    names: NameTable,
    /// The result set's column names.
    columns: Vec<String>,
}

impl ExecutionPlan {
    /// Compile a parsed query into an execution plan, place each `WHERE`
    /// conjunct right after the operator that binds its last variable, and
    /// run the algebraic optimizer over it (chain fusion, mask pushdown,
    /// count pushdown — see [`crate::exec::algebraic`]).
    pub fn build(query: &Query) -> Result<Self, QueryError> {
        let mut segments = Builder::new().build(query)?;
        segments.iter_mut().for_each(place_filters);
        crate::exec::algebraic::fuse_plan(&mut segments);
        Ok(Self::compile(segments))
    }

    /// Compile without the optimizer pass: one `Traverse` op per hop, label
    /// predicates as record filters, each `WHERE` as one `Filter` where it
    /// was written, aggregates over materialised records. The differential
    /// suites compare this plan's output against the optimized plan's row
    /// for row.
    pub fn build_unoptimized(query: &Query) -> Result<Self, QueryError> {
        Ok(Self::compile(Builder::new().build(query)?))
    }

    /// The last build step: compile every op against its segment's record
    /// layout, collecting the parameter and name tables, and fix the result
    /// columns (those of the last projection that emits rows).
    fn compile(mut segments: Vec<Segment>) -> Self {
        let mut compiler = Compiler::default();
        let mut columns = Vec::new();
        for i in 0..segments.len() {
            let (head, tail) = segments.split_at_mut(i + 1);
            let Segment { bindings, ops } = &mut head[i];
            for op in ops {
                op.compile(bindings, tail.first().map(|next| &next.bindings), &mut compiler);
                if let PlanOp::Project { projection, .. }
                | PlanOp::Aggregate { projection, .. }
                | PlanOp::TraverseCount { projection, .. } = op
                {
                    columns = projection.items.iter().map(|item| item.column_name()).collect();
                }
            }
        }
        let Compiler { params, names } = compiler;
        ExecutionPlan { segments, params, names, columns }
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

    /// The plan's parameter values, read from `params` by name: the only
    /// per-execution step besides running it (the plan itself is shared and
    /// never copied). Errors if the plan references a parameter `params`
    /// does not supply; names `params` has and the plan never reads are
    /// ignored.
    pub fn bind(&self, params: &Params) -> Result<ParamValues, QueryError> {
        let values = self.params.iter().map(|name| {
            params
                .get(name)
                .cloned()
                .ok_or_else(|| QueryError::Type(format!("missing query parameter `${name}`")))
        });
        Ok(ParamValues(values.collect::<Result<_, _>>()?))
    }

    /// Execute the plan: the one way every caller runs one. `access` says
    /// whether the plan may write; a write operator reached through
    /// [`GraphAccess::Read`] is an error. `params` are this plan's
    /// [`ExecutionPlan::bind`] values. The plan's name table is resolved
    /// against the graph once, here, so names created since the plan was
    /// built are found. The statistics footer is timed from
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
        params: &ParamValues,
        started: Instant,
        mut profiles: Option<&mut Vec<OpProfile>>,
    ) -> Result<ResultSet, QueryError> {
        let params = params.0.as_slice();
        if params.len() != self.params.len() {
            return Err(QueryError::Internal("parameter values bound for another plan".into()));
        }
        let mut names = self.names.resolve(access.graph());
        let mut stats = QueryStats::default();
        // The first operator extends one record with nothing bound yet.
        let mut records = RecordBatch::new(self.segments[0].bindings.len());
        records.push_nulls();
        let mut rows = RecordBatch::default();

        for (si, segment) in self.segments.iter().enumerate() {
            for op in &segment.ops {
                // Per-op timing only when profiling: the 40k+-qps point-read
                // path pays nothing for the instrumentation's existence.
                let op_started = profiles.as_ref().map(|_| Instant::now());
                let scope = Scope { graph: access.graph(), params, names: &names };
                match op {
                    PlanOp::AllNodeScan { .. }
                    | PlanOp::NodeByLabelScan { .. }
                    | PlanOp::NodeByIdSeek { .. } => {
                        records = run_scan(op, &records, &scope);
                    }
                    PlanOp::Filter { .. }
                    | PlanOp::LabelFilter { .. }
                    | PlanOp::PropFilter { .. } => {
                        run_filter(op, &mut records, &scope);
                    }
                    PlanOp::Traverse { .. } => {
                        records = run_traverse(op, &records, scope.graph);
                    }
                    PlanOp::TraverseCount { .. } => {
                        rows = run_traverse_count(op, &records, scope.graph);
                    }
                    PlanOp::FusedTraverse { .. } => {
                        records = crate::exec::algebraic::run_fused(op, &records, scope.graph);
                    }
                    PlanOp::Project { compiled, .. } => {
                        rows = run_project(compiled, &records, &scope);
                    }
                    PlanOp::Aggregate { compiled, weight_slot, .. } => {
                        rows = run_aggregate(compiled, *weight_slot, &records, &scope);
                    }
                    PlanOp::With { compiled, next_slots, .. } => {
                        let next_width = self.segments[si + 1].bindings.len();
                        records = run_with(compiled, next_slots, next_width, &records, &scope);
                    }
                    PlanOp::Unwind { compiled, slot, .. } => {
                        records = run_unwind(compiled, *slot, &records, &scope);
                    }
                    PlanOp::ProcedureCall { name, compiled, constant_args, outputs, .. } => {
                        records = run_procedure(
                            name,
                            compiled,
                            *constant_args,
                            outputs,
                            &records,
                            &scope,
                        )?;
                    }
                    PlanOp::Create { compiled, .. } => {
                        let graph = access.graph_mut()?;
                        run_create(compiled, &mut records, graph, &mut names, &mut stats);
                    }
                    PlanOp::Delete { slots, .. } => {
                        run_delete(slots, &records, access.graph_mut()?, &mut stats);
                    }
                    PlanOp::SetProps { compiled, .. } => {
                        let graph = access.graph_mut()?;
                        run_set(compiled, &records, graph, params, &mut names, &mut stats);
                    }
                }
                if let Some(profiles) = profiles.as_deref_mut() {
                    // Projections emit rows, every other operator leaves its
                    // output in the record working set.
                    let produced = match op {
                        PlanOp::Project { .. }
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
        Ok(ResultSet { columns: self.columns.clone(), rows, stats })
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

    fn build(mut self, query: &Query) -> Result<Vec<Segment>, QueryError> {
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
                    self.ops
                        .push(PlanOp::Filter { expr: expr.clone(), compiled: Default::default() });
                }
                Clause::Return(projection) => {
                    let agg = projection.items.iter().any(|i| contains_aggregate(&i.expr));
                    let (projection, compiled) = (projection.clone(), Default::default());
                    self.ops.push(if agg {
                        PlanOp::Aggregate { projection, weight_slot: None, compiled }
                    } else {
                        PlanOp::Project { projection, compiled }
                    });
                }
                Clause::With(projection) => {
                    self.ops.push(PlanOp::With {
                        projection: projection.clone(),
                        compiled: Default::default(),
                        next_slots: Vec::new(),
                    });
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
                    self.ops
                        .push(PlanOp::Create { patterns: patterns.clone(), compiled: Vec::new() });
                }
                Clause::Delete { detach, variables } => {
                    for var in variables {
                        if !self.bindings.is_bound(var) {
                            return Err(QueryError::UnknownVariable(var.clone()));
                        }
                    }
                    self.ops.push(PlanOp::Delete {
                        detach: *detach,
                        vars: variables.clone(),
                        slots: Vec::new(),
                    });
                }
                Clause::Set(items) => {
                    for item in items {
                        if !self.bindings.is_bound(&item.variable) {
                            return Err(QueryError::UnknownVariable(item.variable.clone()));
                        }
                    }
                    self.ops.push(PlanOp::SetProps { items: items.clone(), compiled: Vec::new() });
                }
                Clause::Unwind { list, variable } => {
                    let slot = self.bindings.slot_or_create(variable);
                    self.ops.push(PlanOp::Unwind {
                        list: list.clone(),
                        compiled: Default::default(),
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
        Ok(self.segments)
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
            compiled: Vec::new(),
            constant_args: false,
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
                    self.ops.push(prop_filter(es, key, lit));
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
                compiled: Default::default(),
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
                self.ops.push(label_filter(slot, label));
            }
        } else {
            self.ops.push(PlanOp::AllNodeScan { slot, var: var.to_string() });
        }
        for (key, lit) in &node.properties {
            self.ops.push(prop_filter(slot, key, lit));
        }
    }

    /// Emit label / property filters for a node that is bound by a traverse or
    /// by an earlier pattern.
    fn plan_node_constraints(&mut self, node: &NodePattern, slot: usize) {
        for label in &node.labels {
            self.ops.push(label_filter(slot, label));
        }
        for (key, lit) in &node.properties {
            self.ops.push(prop_filter(slot, key, lit));
        }
    }
}

/// A `LabelFilter` op, compiled with the rest of the plan.
fn label_filter(slot: usize, label: &str) -> PlanOp {
    PlanOp::LabelFilter { slot, label: label.to_string(), label_index: 0 }
}

/// A `PropFilter` op, compiled with the rest of the plan.
fn prop_filter(slot: usize, key: &str, value: &cypher::Literal) -> PlanOp {
    PlanOp::PropFilter { slot, key: key.to_string(), key_index: 0, value: Value::from(value) }
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
            PlanOp::Filter { expr, .. } => {
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
            segment.ops.push(PlanOp::Filter { expr, compiled: Default::default() });
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
        PlanOp::Create { patterns, .. } => patterns
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

    fn params(pairs: &[(&str, Value)]) -> Params {
        pairs.iter().map(|(name, value)| (name.to_string(), value.clone())).collect()
    }

    /// Run `plan` read-only against `g` with `pairs` bound.
    fn run(plan: &ExecutionPlan, g: &Graph, pairs: &[(&str, Value)]) -> Vec<Vec<Value>> {
        let values = plan.bind(&params(pairs)).unwrap();
        plan.run(GraphAccess::Read(g), &values, Instant::now(), None).unwrap().rows.to_vec()
    }

    #[test]
    fn bind_substitutes_parameters_at_plan_level() {
        let mut g = Graph::new("t");
        let a = g.add_node(&[], vec![("name", Value::Str("a".into()))]);
        let b = g.add_node(&[], vec![("name", Value::Str("b".into()))]);
        g.add_edge(a, b, "L", vec![]).unwrap();
        let p = plan("MATCH (s)-[:L]->(t) WHERE id(s) = $src AND t.name = $name RETURN id(t)");
        assert_eq!(p.params, ["src", "name"]);
        let hit = [("src", Value::Int(0)), ("name", Value::Str("b".into()))];
        assert_eq!(run(&p, &g, &hit), vec![vec![Value::Int(1)]]);
        // One plan serves every binding: nothing is substituted into it.
        let miss = [("src", Value::Int(0)), ("name", Value::Str("x".into()))];
        assert!(run(&p, &g, &miss).is_empty());
        assert_eq!(run(&p, &g, &hit), vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn bind_errors_on_missing_parameter() {
        let p = plan("MATCH (s) WHERE id(s) = $src RETURN s");
        let err = p.bind(&Params::new()).unwrap_err();
        assert!(matches!(&err, QueryError::Type(m) if m.contains("$src")), "{err}");
        // Values bound for another plan are refused, not misread.
        let other = plan("RETURN 1").bind(&Params::new()).unwrap();
        let g = Graph::new("t");
        assert!(p.run(GraphAccess::Read(&g), &other, Instant::now(), None).is_err());
    }

    #[test]
    fn params_reach_every_expression_position() {
        // UNWIND list, projection item, ORDER BY key, and SET value.
        let p = plan("UNWIND $xs AS x RETURN x + $inc AS y ORDER BY $inc - x");
        let xs = Value::List(vec![Value::Int(1), Value::Int(2)]);
        let rows = run(&p, &Graph::new("t"), &[("xs", xs), ("inc", Value::Int(10))]);
        assert_eq!(rows, vec![vec![Value::Int(12)], vec![Value::Int(11)]]);

        let mut g = Graph::new("t");
        g.add_node(&[], vec![]);
        let p = plan("MATCH (a) SET a.v = $v");
        let values = p.bind(&params(&[("v", Value::Int(1))])).unwrap();
        p.run(GraphAccess::Write(&mut g), &values, Instant::now(), None).unwrap();
        assert_eq!(g.node_property(0, "v"), Value::Int(1));
    }

    #[test]
    fn unbound_parameters_are_an_error_in_process() {
        let mut g = Graph::new("t");
        g.add_node(&[], vec![]);
        let missing = "type error: missing query parameter `$x`";
        for query in [
            "RETURN $x",
            "MATCH (n) WHERE id(n) = $x RETURN n",
            "MATCH (n)-[*1..2]->(m) WHERE id(n) = 0 RETURN count(m) ORDER BY $x",
        ] {
            assert_eq!(g.query(query).unwrap_err().to_string(), missing, "{query}");
            assert_eq!(g.query_readonly(query).unwrap_err().to_string(), missing, "{query}");
            assert_eq!(g.profile(query).unwrap_err().to_string(), missing, "{query}");
        }
    }

    #[test]
    fn names_created_after_planning_are_read() {
        let mut g = Graph::new("t");
        g.add_node(&["A"], vec![]);
        let p = plan("MATCH (n:A:B) WHERE n.fresh = 7 RETURN n.fresh");
        assert!(run(&p, &g, &[]).is_empty());
        g.query("MATCH (n:A) SET n.fresh = 7").unwrap();
        g.query("CREATE (:A:B {fresh: 7})").unwrap();
        assert_eq!(run(&p, &g, &[]), vec![vec![Value::Int(7)]]);
        // A key created by a write is read by the same execution's later ops.
        let rows = g.query("MATCH (n:B) SET n.late = 1, n.later = n.late + 1 RETURN n.later");
        assert_eq!(rows.unwrap().rows.to_vec(), vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn optional_match_is_rejected() {
        let err = ExecutionPlan::build(&cypher::parse("OPTIONAL MATCH (a) RETURN a").unwrap())
            .unwrap_err();
        assert!(matches!(err, QueryError::Unsupported(_)));
    }
}
