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
//! * the first node of a `MATCH` pattern chooses its access path — `Node By
//!   Label Scan` when the pattern has a label, otherwise `All Node Scan`;
//! * every relationship step becomes a `Conditional Traverse` (or `Expand
//!   Into` when both endpoints are already bound), executed against the
//!   graph's sparse matrices;
//! * inline property maps and label constraints on non-scan nodes become
//!   filters directly after the traverse that binds them;
//! * each `WHERE` splits into its `AND` conjuncts. A conjunct `id(v) =
//!   <literal or $param>` turns the scan that binds `v` in the `WHERE`'s own
//!   segment into a `Node By Id Seek`, which answers it alone; the other
//!   conjuncts form the `WHERE`'s `Filter`, and [`ExecutionPlan::build`]
//!   places each right after the op binding its last variable.
//!
//! The builder compiles each op as it creates it (see [`crate::exec::expr`]):
//! variables become record slots, `$name`s indexes into the plan's parameter
//! table, property keys, labels and relationship types indexes into its name
//! table. The optimizer passes read those compiled ops; the executor reads no
//! name and substitutes nothing into the plan, so one plan serves every
//! execution in place.

use crate::error::QueryError;
use crate::exec::aggregate::AggFunc;
use crate::exec::expr::{contains_aggregate, Compiler, NameTable, SlotExpr};
use crate::exec::ops::*;
use crate::exec::record::{Bindings, RecordBatch};
use crate::exec::resultset::{QueryStats, ResultSet};
use crate::store::graph::Graph;
use crate::value::Value;
use cypher::{
    BinaryOperator, Clause, Direction, Expr, NodePattern, PathPattern, Projection, Query,
};
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
/// operator's `describe()` line plus how many records its batch held and
/// how long its invocation took. Each operator consumes its predecessor's
/// whole batch and returns the next, so an operator's wall time is exactly
/// the span of its invocation; there is no child time to subtract.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// The operator's `GRAPH.EXPLAIN` line.
    pub description: String,
    /// Records (for `RETURN`, rows) in the batch the operator returned.
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
    /// Build a parsed query's plan, each op compiled as it is created; then
    /// place each `WHERE` conjunct right after the operator that binds its
    /// last variable, and run the algebraic optimizer over the plan (chain
    /// fusion, mask pushdown, count pushdown — see
    /// [`crate::exec::algebraic`]).
    pub fn build(query: &Query) -> Result<Self, QueryError> {
        let mut plan = Builder::default().build(query)?;
        plan.segments.iter_mut().for_each(place_filters);
        crate::exec::algebraic::fuse_plan(&mut plan.segments);
        Ok(plan.with_widths())
    }

    /// Build without the optimizer passes: one `Traverse` op per hop, label
    /// predicates as record filters, each `WHERE`'s `Filter` where it was
    /// written, aggregates over materialised records. An id seek answers its
    /// own conjunct here too. The differential suites compare this plan's
    /// output against the optimized plan's row for row.
    pub fn build_unoptimized(query: &Query) -> Result<Self, QueryError> {
        Ok(Builder::default().build(query)?.with_widths())
    }

    /// Give each segment-ending `WITH` the record width of the segment it
    /// starts, once the optimizer passes are done: fusion may bind a hidden
    /// weight slot in any segment.
    fn with_widths(mut self) -> Self {
        for i in 1..self.segments.len() {
            let width = self.segments[i].bindings.len();
            if let Some(PlanOp::With { next_width, .. }) = self.segments[i - 1].ops.last_mut() {
                *next_width = width;
            }
        }
        self
    }

    /// Human-readable plan description (`GRAPH.EXPLAIN`).
    pub fn describe(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, segment) in self.segments.iter().enumerate() {
            if i > 0 {
                out.push("--- segment ---".to_string());
            }
            for op in &segment.ops {
                out.push(op.describe(&self.names));
            }
        }
        out
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
    /// One loop drives every operator: each takes the [`RecordBatch`] its
    /// predecessor returned and returns the next. The first operator
    /// extends a single record of null slots (zero of them for `RETURN 1`)
    /// at the first segment's `bindings.len()` width, and a `WITH` returns
    /// records of the next segment's layout. A plan with columns ends in
    /// its `RETURN`, whose batch, one slot per column, becomes
    /// [`ResultSet::rows`]; a plan without columns returns no row.
    pub fn run(
        &self,
        access: GraphAccess<'_>,
        params: &ParamValues,
        started: Instant,
        mut profiles: Option<&mut Vec<OpProfile>>,
    ) -> Result<ResultSet, QueryError> {
        let params = params.0.as_slice();
        if params.len() != self.params.len() {
            return Err(QueryError::Internal("parameter values bound for another plan".into()));
        }
        let names = self.names.resolve(access.graph());
        let mut cx = Exec { access, params, names, stats: QueryStats::default() };
        // The first operator extends one record with nothing bound yet.
        let mut records = RecordBatch::new(self.segments[0].bindings.len());
        records.push_nulls();
        for (si, segment) in self.segments.iter().enumerate() {
            for op in &segment.ops {
                // Per-op timing only when profiling: the 40k+-qps point-read
                // path pays nothing for the instrumentation's existence.
                let op_started = profiles.as_ref().map(|_| Instant::now());
                records = op.run(records, &mut cx)?;
                if let Some(profiles) = profiles.as_deref_mut() {
                    profiles.push(OpProfile {
                        description: op.describe(&self.names),
                        records_produced: records.len(),
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
        let rows = if self.columns.is_empty() { RecordBatch::default() } else { records };
        let mut stats = cx.stats;
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
    pub(crate) fn graph(&self) -> &Graph {
        match self {
            GraphAccess::Read(g) => g,
            GraphAccess::Write(g) => g,
        }
    }

    pub(crate) fn graph_mut(&mut self) -> Result<&mut Graph, QueryError> {
        match self {
            GraphAccess::Read(_) => Err(QueryError::Internal(
                "write operation reached the read-only execution path".into(),
            )),
            GraphAccess::Write(g) => Ok(g),
        }
    }
}

/// Plan builder state: the finished segments, the current segment's record
/// layout and ops, and the compiler each op goes through as it is created.
#[derive(Default)]
struct Builder {
    segments: Vec<Segment>,
    bindings: Bindings,
    ops: Vec<PlanOp>,
    anon_counter: usize,
    compiler: Compiler,
    /// The `RETURN`'s column names.
    columns: Vec<String>,
}

impl Builder {
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
        // openCypher ends a query at its `RETURN`: a plan with columns ends
        // in its projection.
        if query.clauses.iter().rev().skip(1).any(|c| matches!(c, Clause::Return(_))) {
            return Err(QueryError::Syntax(
                "RETURN can only be used at the end of the query".into(),
            ));
        }
        for clause in &query.clauses {
            match clause {
                Clause::Match { optional, patterns } => {
                    if *optional {
                        return Err(QueryError::Unsupported(
                            "OPTIONAL MATCH is not supported by this RedisGraph version".into(),
                        ));
                    }
                    for pattern in patterns {
                        self.plan_pattern(pattern);
                    }
                }
                Clause::Where(expr) => self.plan_where(expr),
                Clause::Return(projection) => {
                    self.columns = projection.items.iter().map(|item| item.column_name()).collect();
                    let projection = self.projection(projection)?;
                    self.ops.push(if projection.aggregates() {
                        PlanOp::Aggregate { projection, weight_slot: None }
                    } else {
                        PlanOp::Project { projection }
                    });
                }
                Clause::With(projection) => {
                    let compiled = self.projection(projection)?;
                    // The next segment's variables are the projected column names.
                    let mut next = Bindings::new();
                    let next_slots = projection
                        .items
                        .iter()
                        .map(|item| next.slot_or_create(&item.column_name()))
                        .collect();
                    self.ops.push(PlanOp::With { projection: compiled, next_slots, next_width: 0 });
                    self.finish_segment();
                    self.bindings = next;
                }
                Clause::Create(patterns) => {
                    // Named entities introduced by CREATE get slots so later
                    // clauses (RETURN, SET) can reference them.
                    for pattern in patterns {
                        let rels = pattern.steps.iter().map(|(rel, _)| &rel.variable);
                        let nodes = pattern.nodes().into_iter().map(|node| &node.variable);
                        for var in nodes.chain(rels).flatten() {
                            self.bindings.slot_or_create(var);
                        }
                    }
                    let patterns = patterns.iter().map(|p| self.create_pattern(p)).collect();
                    self.ops.push(PlanOp::Create { patterns });
                }
                Clause::Delete { variables, .. } => {
                    let slots =
                        variables.iter().map(|var| self.bound(var)).collect::<Result<_, _>>()?;
                    self.ops.push(PlanOp::Delete { slots });
                }
                Clause::Set(items) => {
                    let items = items
                        .iter()
                        .map(|item| {
                            let slot = self.bound(&item.variable)?;
                            let key = self.compiler.names.key(&item.property);
                            Ok(SetStep { slot, key, value: self.expr(&item.value) })
                        })
                        .collect::<Result<_, QueryError>>()?;
                    self.ops.push(PlanOp::SetProps { items });
                }
                Clause::Unwind { list, variable } => {
                    let list = self.expr(list);
                    let slot = self.bindings.slot_or_create(variable);
                    self.ops.push(PlanOp::Unwind { list, slot, var: variable.clone() });
                }
                Clause::Call { procedure, args, yields } => {
                    self.plan_call(procedure, args, yields)?;
                }
            }
        }
        self.finish_segment();
        let Compiler { params, names } = self.compiler;
        Ok(ExecutionPlan { segments: self.segments, params, names, columns: self.columns })
    }

    /// The slot of a variable an earlier clause bound.
    fn bound(&self, var: &str) -> Result<usize, QueryError> {
        self.bindings.slot(var).ok_or_else(|| QueryError::UnknownVariable(var.to_string()))
    }

    /// Compile an expression against the segment's bindings so far.
    fn expr(&mut self, expr: &Expr) -> SlotExpr {
        self.compiler.expr(expr, &self.bindings)
    }

    /// Plan a `WHERE`: each `id(v) = …` conjunct a seek answers turns the
    /// scan binding `v` into that seek, and the other conjuncts become one
    /// `Filter` (none when the seeks answered them all).
    fn plan_where(&mut self, expr: &Expr) {
        let mut predicates = Vec::new();
        for conjunct in conjuncts(expr) {
            if !self.seek(conjunct) {
                predicates.push(self.expr(conjunct));
            }
        }
        if !predicates.is_empty() {
            self.ops.push(PlanOp::Filter { predicates });
        }
    }

    /// Turn the scan that binds `v` in this segment into a `Node By Id Seek`
    /// when `conjunct` is `id(v) = <literal or $param>` (either way round).
    /// The seek then answers the conjunct, and no filter checks it again.
    /// False when the conjunct is no such equality, or when no scan of this
    /// segment binds `v` (a traverse, a seek or an earlier segment does).
    fn seek(&mut self, conjunct: &Expr) -> bool {
        let Expr::Binary(BinaryOperator::Eq, lhs, rhs) = conjunct else { return false };
        let Some((var, id)) = id_eq(lhs, rhs).or_else(|| id_eq(rhs, lhs)) else { return false };
        let Some(slot) = self.bindings.slot(var) else { return false };
        let Some(i) = self.ops.iter().position(|op| {
            matches!(op, PlanOp::AllNodeScan { slot: s, .. }
                | PlanOp::NodeByLabelScan { slot: s, .. } if *s == slot)
        }) else {
            return false;
        };
        let seek = PlanOp::NodeByIdSeek { slot, var: var.to_string(), id: self.expr(id) };
        // The scanned label still constrains the node.
        if let PlanOp::NodeByLabelScan { label, .. } = std::mem::replace(&mut self.ops[i], seek) {
            self.ops.insert(i + 1, PlanOp::LabelFilter { slot, label });
        }
        true
    }

    /// Compile a `RETURN`/`WITH` projection against the segment. An item
    /// is a scalar expression or one aggregate call over a scalar argument;
    /// an aggregate nested in an expression (`count(n) + 1`, or
    /// `sum(count(n))`) fails the build.
    fn projection(&mut self, projection: &Projection) -> Result<SlotProjection, QueryError> {
        let (c, bindings) = (&mut self.compiler, &self.bindings);
        let items = projection
            .items
            .iter()
            .map(|item| {
                let expr = &item.expr;
                if !contains_aggregate(expr) {
                    return Ok(SlotItem::Scalar(c.expr(expr, bindings)));
                }
                let nested = || {
                    QueryError::Unsupported(
                        "aggregate inside an expression is not supported".into(),
                    )
                };
                let Expr::FunctionCall { name, args, distinct } = expr else {
                    return Err(nested());
                };
                let func = AggFunc::from_name(name).ok_or_else(nested)?;
                if args.iter().any(contains_aggregate) {
                    return Err(nested());
                }
                Ok(SlotItem::Aggregate {
                    func,
                    distinct: *distinct,
                    arg: c.first_arg(args, bindings),
                })
            })
            .collect::<Result<_, _>>()?;
        let column = |expr: &Expr| {
            projection.items.iter().position(|item| {
                &item.expr == expr
                    || matches!((expr, &item.alias), (Expr::Variable(v), Some(alias)) if v == alias)
            })
        };
        let order = projection
            .order_by
            .iter()
            .map(|(expr, order)| {
                let key = match column(expr) {
                    Some(i) => SortKey::Column(i),
                    None => SortKey::Expr(c.expr(expr, bindings)),
                };
                (key, *order)
            })
            .collect();
        Ok(SlotProjection {
            items,
            order,
            distinct: projection.distinct,
            skip: projection.skip.map_or(0, |skip| skip as usize),
            limit: projection.limit.map_or(usize::MAX, |limit| limit as usize),
        })
    }

    /// Compile a `CREATE` path pattern against the segment.
    fn create_pattern(&mut self, pattern: &PathPattern) -> CreatePattern {
        let start = self.create_node(&pattern.start);
        let steps = pattern
            .steps
            .iter()
            .map(|(rel, node)| {
                let node = self.create_node(node);
                let rel_type = rel.types.first().map_or("RELATED_TO", String::as_str);
                let rel = CreateRel {
                    slot: rel.variable.as_deref().and_then(|v| self.bindings.slot(v)),
                    rel_type: self.compiler.names.rel_type(rel_type),
                    props: self.props(&rel.properties),
                    incoming: rel.direction == Direction::Incoming,
                };
                (rel, node)
            })
            .collect();
        CreatePattern { start, steps }
    }

    fn create_node(&mut self, node: &NodePattern) -> CreateNode {
        CreateNode {
            slot: node.variable.as_deref().and_then(|v| self.bindings.slot(v)),
            labels: node.labels.iter().map(|l| self.compiler.names.label(l)).collect(),
            props: self.props(&node.properties),
        }
    }

    /// A pattern's property map as `(name-table index, value)` pairs.
    fn props(&mut self, props: &[(String, cypher::Literal)]) -> Vec<(usize, Value)> {
        props.iter().map(|(key, lit)| (self.compiler.names.key(key), Value::from(lit))).collect()
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
        let args: Vec<SlotExpr> = args.iter().map(|arg| self.expr(arg)).collect();
        let mut read = Vec::new();
        args.iter().for_each(|arg| arg.slots(&mut read));
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
            procedure: proc,
            args,
            constant_args: read.is_empty(),
            outputs,
        });
        Ok(())
    }

    /// Plan one linear path pattern of a MATCH clause.
    fn plan_pattern(&mut self, pattern: &PathPattern) {
        // Start node.
        let start_var = pattern.start.variable.clone().unwrap_or_else(|| self.anon_var());
        let start_bound = self.bindings.is_bound(&start_var);
        let start_slot = self.bindings.slot_or_create(&start_var);
        if !start_bound {
            self.plan_node_access(&pattern.start, &start_var, start_slot);
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
            let rel_types = rel.types.iter().map(|t| self.compiler.names.rel_type(t)).collect();
            self.ops.push(PlanOp::Traverse(Traverse {
                src_slot,
                dst_slot,
                dst_var,
                edge_slot,
                rel_types,
                direction: rel.direction,
                min_hops,
                max_hops,
                expand_into,
            }));
            // Edge property constraints (single hop only).
            if let Some(es) = edge_slot {
                for (key, lit) in &rel.properties {
                    self.prop_filter(es, key, lit);
                }
            }
            // Destination constraints apply whether the traversal expands into
            // a fresh slot or re-checks an already-bound one.
            self.plan_node_constraints(node, dst_slot);
            src_slot = dst_slot;
        }
    }

    /// Choose the access path for an unbound start node: a scan, which a
    /// later `WHERE` of the segment may turn into a seek.
    fn plan_node_access(&mut self, node: &NodePattern, var: &str, slot: usize) {
        if let Some(first_label) = node.labels.first() {
            let label = self.compiler.names.label(first_label);
            self.ops.push(PlanOp::NodeByLabelScan { slot, var: var.to_string(), label });
            for label in node.labels.iter().skip(1) {
                self.label_filter(slot, label);
            }
        } else {
            self.ops.push(PlanOp::AllNodeScan { slot, var: var.to_string() });
        }
        for (key, lit) in &node.properties {
            self.prop_filter(slot, key, lit);
        }
    }

    /// Emit label / property filters for a node that is bound by a traverse or
    /// by an earlier pattern.
    fn plan_node_constraints(&mut self, node: &NodePattern, slot: usize) {
        for label in &node.labels {
            self.label_filter(slot, label);
        }
        for (key, lit) in &node.properties {
            self.prop_filter(slot, key, lit);
        }
    }

    fn label_filter(&mut self, slot: usize, label: &str) {
        let label = self.compiler.names.label(label);
        self.ops.push(PlanOp::LabelFilter { slot, label });
    }

    fn prop_filter(&mut self, slot: usize, key: &str, value: &cypher::Literal) {
        let key = self.compiler.names.key(key);
        self.ops.push(PlanOp::PropFilter { slot, key, value: Value::from(value) });
    }
}

/// Move each predicate of a segment's `Filter`s right after the operator
/// that binds the last slot it reads — after that operator's own
/// label/property filters — as RedisGraph places filter ops. A predicate on
/// a scanned node then runs once per scanned node rather than once per
/// traversed record, and no filter sits between a traversal and the
/// aggregate it feeds. A predicate that reads no slot, or one bound only
/// further down, stays where its `WHERE` was; none moves above a write, and
/// segments (`WITH` boundaries) are placed independently. Predicates landing
/// at one position join into one `Filter`.
fn place_filters(segment: &mut Segment) {
    let mut ops = std::mem::take(&mut segment.ops);
    // The first op binding each slot; slots no op binds come bound from the
    // previous segment.
    let mut binder: HashMap<usize, usize> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        for (slot, slot_use) in op.slots() {
            if slot_use == SlotUse::Bound {
                binder.entry(slot).or_insert(i);
            }
        }
    }

    // placed[p]: the predicates to evaluate right before original op `p` (a
    // predicate never moves below its own `WHERE`, so `p` stays in range).
    let mut placed: Vec<Vec<SlotExpr>> = ops.iter().map(|_| Vec::new()).collect();
    for i in 0..ops.len() {
        let PlanOp::Filter { predicates } = &mut ops[i] else { continue };
        let predicates = std::mem::take(predicates);
        let floor = ops[..i]
            .iter()
            .rposition(|op| {
                matches!(
                    op,
                    PlanOp::Create { .. } | PlanOp::Delete { .. } | PlanOp::SetProps { .. }
                )
            })
            .map_or(0, |write| write + 1);
        // The position right after op `b` and the constraint filters trailing it.
        let after = |b: usize| {
            let trailing = ops[b + 1..]
                .iter()
                .take_while(|op| {
                    matches!(op, PlanOp::LabelFilter { .. } | PlanOp::PropFilter { .. })
                })
                .count();
            b + 1 + trailing
        };
        for predicate in predicates {
            let mut slots = Vec::new();
            predicate.slots(&mut slots);
            let positions: Option<Vec<usize>> = slots
                .iter()
                .map(|slot| match binder.get(slot) {
                    None => Some(0),
                    Some(&b) if b < i => Some(after(b)),
                    Some(_) => None, // bound further down
                })
                .collect();
            let pos = positions.and_then(|p| p.into_iter().max());
            placed[pos.map_or(i, |p| p.max(floor))].push(predicate);
        }
    }

    for (op, predicates) in ops.into_iter().zip(placed) {
        if !predicates.is_empty() {
            segment.ops.push(PlanOp::Filter { predicates });
        }
        if !matches!(op, PlanOp::Filter { .. }) {
            segment.ops.push(op);
        }
    }
}

/// The top-level `AND` conjuncts of a predicate.
fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Binary(BinaryOperator::And, lhs, rhs) => {
            let mut out = conjuncts(lhs);
            out.extend(conjuncts(rhs));
            out
        }
        _ => vec![expr],
    }
}

/// `(v, value)` when `call` is `id(v)` and `value` a literal or a parameter.
fn id_eq<'e>(call: &'e Expr, value: &'e Expr) -> Option<(&'e str, &'e Expr)> {
    match (call, value) {
        (Expr::FunctionCall { name, args, .. }, Expr::Literal(_) | Expr::Parameter(_))
            if name == "id" =>
        {
            match args.as_slice() {
                [Expr::Variable(var)] => Some((var, value)),
                _ => None,
            }
        }
        _ => None,
    }
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
        assert_eq!(p.describe().iter().filter(|line| *line == "--- segment ---").count(), 1);
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
