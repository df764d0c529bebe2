//! Expression compilation and evaluation.
//!
//! Implements the scalar part of the supported openCypher expression language:
//! literals, variables, property access, arithmetic, comparisons, boolean
//! connectives, `IN`, and the scalar functions `id`, `labels`, `type`, `size`,
//! `abs`, `tointeger`, `tofloat`.
//!
//! Only the plan builder reads [`cypher::Expr`]: it runs each expression
//! through its [`Compiler`] as it creates the op holding it, against that
//! op's segment. The result is a [`SlotExpr`]: variables become record
//! slots, function names a [`Function`], literals [`Value`]s, each `$name`
//! an index into the plan's parameter table and each property key an index
//! into its [`NameTable`] (which holds the plan's labels and relationship
//! types too). So no name is looked up while records flow: the parameter
//! table is bound once per execution
//! ([`crate::exec::plan::ExecutionPlan::bind`]), and the name table is
//! resolved once per execution against the graph being read ([`NameIds`]),
//! so a name created after the plan was built is still found.

use crate::exec::record::Bindings;
use crate::store::graph::Graph;
use crate::store::schema::{AttributeId, LabelId, RelTypeId};
use crate::value::Value;
use cypher::{BinaryOperator, Expr, UnaryOperator};

/// Names of the aggregation functions handled by the aggregate operation (and
/// therefore *not* evaluated here).
pub const AGGREGATE_FUNCTIONS: &[&str] = &["count", "sum", "avg", "min", "max", "collect"];

/// True if the expression contains an aggregation function call anywhere.
pub fn contains_aggregate(expr: &Expr) -> bool {
    match expr {
        Expr::FunctionCall { name, args, .. } => {
            AGGREGATE_FUNCTIONS.contains(&name.as_str()) || args.iter().any(contains_aggregate)
        }
        Expr::Unary(_, inner) => contains_aggregate(inner),
        Expr::Binary(_, lhs, rhs) => contains_aggregate(lhs) || contains_aggregate(rhs),
        Expr::List(items) => items.iter().any(contains_aggregate),
        _ => false,
    }
}

/// A scalar function, resolved from its (lower-cased) name at plan time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Function {
    /// `id(entity)`.
    Id,
    /// `labels(node)`: the label diagonals holding the node, in ascending
    /// label id (the order the graph first saw each label), each once.
    Labels,
    /// `type(edge)`.
    Type,
    /// `size(list or string)`.
    Size,
    /// `abs(number)`.
    Abs,
    /// `tointeger(value)`.
    ToInteger,
    /// `tofloat(value)`.
    ToFloat,
}

impl Function {
    fn from_name(name: &str) -> Option<Function> {
        Some(match name {
            "id" => Function::Id,
            "labels" => Function::Labels,
            "type" => Function::Type,
            "size" => Function::Size,
            "abs" => Function::Abs,
            "tointeger" => Function::ToInteger,
            "tofloat" => Function::ToFloat,
            _ => return None,
        })
    }

    /// Apply the function to its first argument: every supported function
    /// takes one (a call without arguments reads `Null`), and evaluation has
    /// no side effects, so any further arguments are never evaluated.
    fn apply(self, arg: &Value, graph: &Graph) -> Value {
        match (self, arg) {
            (Function::Id, &(Value::Node(id) | Value::Edge { id, .. })) => Value::Int(id as i64),
            (Function::Labels, &Value::Node(id)) => {
                if graph.node_attributes(id).is_none() {
                    return Value::Null;
                }
                let names = graph.node_labels(id).filter_map(|l| graph.schema.label_name(l));
                Value::List(names.map(|s| Value::Str(s.to_string())).collect())
            }
            // A stale edge value, whose cell no longer holds its id, has no
            // type, as it has no properties.
            (Function::Type, edge @ &Value::Edge { rel, .. }) => {
                if graph.live_edge(edge).is_none() {
                    return Value::Null;
                }
                let name = graph.schema.rel_type_name(rel as RelTypeId);
                name.map(|s| Value::Str(s.to_string())).unwrap_or(Value::Null)
            }
            (Function::Size, Value::List(items)) => Value::Int(items.len() as i64),
            (Function::Size, Value::Str(s)) => Value::Int(s.len() as i64),
            (Function::Abs, &Value::Int(i)) => Value::Int(i.abs()),
            (Function::Abs, &Value::Float(f)) => Value::Float(f.abs()),
            (Function::ToInteger, v) => v.as_i64().map(Value::Int).unwrap_or(Value::Null),
            (Function::ToFloat, v) => v.as_f64().map(Value::Float).unwrap_or(Value::Null),
            _ => Value::Null,
        }
    }
}

/// An expression compiled against one plan segment's record layout.
///
/// Unknown variables and unknown functions compile to a `Null` constant, and
/// type mismatches evaluate to `Null` (openCypher's three-valued logic
/// treats them as unknown rather than failing the query).
#[derive(Debug, Clone)]
pub enum SlotExpr {
    /// A constant: a literal, or a name that resolves to nothing.
    Const(Value),
    /// Entry `i` of the plan's parameter table.
    Param(usize),
    /// A record slot.
    Slot(usize),
    /// A property of the node or edge in `slot`; `key` indexes the plan's
    /// [`NameTable`].
    Property {
        /// Slot holding the entity.
        slot: usize,
        /// The property key's index in the name table.
        key: usize,
    },
    /// A unary operator.
    Unary(UnaryOperator, Box<SlotExpr>),
    /// A binary operator.
    Binary(BinaryOperator, Box<SlotExpr>, Box<SlotExpr>),
    /// A list literal.
    List(Vec<SlotExpr>),
    /// A scalar function applied to its first argument.
    Call(Function, Box<SlotExpr>),
}

impl Default for SlotExpr {
    /// `Null`: what an unknown variable or function compiles to.
    fn default() -> Self {
        SlotExpr::Const(Value::Null)
    }
}

/// What an expression reads besides its record: the graph, the plan's bound
/// parameter values, and its names resolved against that graph.
pub struct Scope<'a> {
    /// The graph (or snapshot) being read.
    pub graph: &'a Graph,
    /// The parameter values, in parameter-table order.
    pub params: &'a [Value],
    /// The plan's name table resolved against `graph`.
    pub names: &'a NameIds<'a>,
}

impl SlotExpr {
    /// Append every record slot the expression reads to `out`.
    pub(crate) fn slots(&self, out: &mut Vec<usize>) {
        match self {
            SlotExpr::Slot(slot) | SlotExpr::Property { slot, .. } => out.push(*slot),
            SlotExpr::Const(_) | SlotExpr::Param(_) => {}
            SlotExpr::Unary(_, inner) | SlotExpr::Call(_, inner) => inner.slots(out),
            SlotExpr::Binary(_, lhs, rhs) => {
                lhs.slots(out);
                rhs.slots(out);
            }
            SlotExpr::List(items) => items.iter().for_each(|e| e.slots(out)),
        }
    }

    /// Evaluate against one record. A slot past the record's end reads
    /// `Null` (an aggregate's sort keys see no record).
    pub fn eval(&self, record: &[Value], scope: &Scope<'_>) -> Value {
        match self {
            SlotExpr::Const(value) => value.clone(),
            SlotExpr::Param(i) => scope.params[*i].clone(),
            SlotExpr::Slot(slot) => record.get(*slot).cloned().unwrap_or(Value::Null),
            SlotExpr::Property { slot, key } => match record.get(*slot) {
                Some(entity) => property(scope.graph, entity, scope.names.keys[*key]),
                None => Value::Null,
            },
            SlotExpr::Unary(op, inner) => {
                let v = inner.eval(record, scope);
                match (op, v) {
                    (UnaryOperator::Not, Value::Bool(b)) => Value::Bool(!b),
                    (UnaryOperator::Minus, Value::Int(i)) => Value::Int(-i),
                    (UnaryOperator::Minus, Value::Float(f)) => Value::Float(-f),
                    _ => Value::Null,
                }
            }
            SlotExpr::Binary(op, lhs, rhs) => {
                eval_binary(*op, &lhs.eval(record, scope), &rhs.eval(record, scope))
            }
            SlotExpr::List(items) => {
                Value::List(items.iter().map(|e| e.eval(record, scope)).collect())
            }
            // A slot argument is read in place, not copied.
            SlotExpr::Call(function, arg) => match **arg {
                SlotExpr::Slot(slot) => {
                    function.apply(record.get(slot).unwrap_or(&Value::Null), scope.graph)
                }
                _ => function.apply(&arg.eval(record, scope), scope.graph),
            },
        }
    }
}

/// Property `attr` of a node or edge value: `Null` for any other value, for
/// a missing entity, or when the graph has no such key (`attr` is `None`).
pub(crate) fn property(graph: &Graph, entity: &Value, attr: Option<AttributeId>) -> Value {
    let Some(attr) = attr else { return Value::Null };
    let attributes = match entity {
        Value::Node(id) => graph.node_attributes(*id),
        Value::Edge { .. } => graph.live_edge(entity).and_then(|(id, _)| graph.edge_attributes(id)),
        _ => None,
    };
    attributes.map_or(Value::Null, |a| a.get(attr))
}

fn eval_binary(op: BinaryOperator, l: &Value, r: &Value) -> Value {
    use BinaryOperator::*;
    match op {
        And => match (l, r) {
            (Value::Bool(false), _) | (_, Value::Bool(false)) => Value::Bool(false),
            (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
            _ => Value::Null,
        },
        Or => match (l, r) {
            (Value::Bool(true), _) | (_, Value::Bool(true)) => Value::Bool(true),
            (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
            _ => Value::Null,
        },
        Xor => match (l, r) {
            (Value::Bool(a), Value::Bool(b)) => Value::Bool(a ^ b),
            _ => Value::Null,
        },
        Eq => l.cypher_eq(r).map(Value::Bool).unwrap_or(Value::Null),
        Ne => l.cypher_eq(r).map(|e| Value::Bool(!e)).unwrap_or(Value::Null),
        Lt => l.cypher_cmp(r).map(|o| Value::Bool(o.is_lt())).unwrap_or(Value::Null),
        Le => l.cypher_cmp(r).map(|o| Value::Bool(o.is_le())).unwrap_or(Value::Null),
        Gt => l.cypher_cmp(r).map(|o| Value::Bool(o.is_gt())).unwrap_or(Value::Null),
        Ge => l.cypher_cmp(r).map(|o| Value::Bool(o.is_ge())).unwrap_or(Value::Null),
        Add => l.add(r),
        Sub => l.sub(r),
        Mul => l.mul(r),
        Div => l.div(r),
        Mod => l.rem(r),
        In => match r {
            Value::List(items) => {
                if l.is_null() {
                    return Value::Null;
                }
                Value::Bool(items.iter().any(|item| l.cypher_eq(item) == Some(true)))
            }
            Value::Null => Value::Null,
            _ => Value::Null,
        },
    }
}

/// The property keys, labels and relationship types a plan's ops name, each
/// once: ops and expressions hold indexes into it.
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    pub(crate) keys: Vec<String>,
    pub(crate) labels: Vec<String>,
    pub(crate) types: Vec<String>,
}

/// The index of `name` in `names`, appended if new.
fn intern(names: &mut Vec<String>, name: &str) -> usize {
    names.iter().position(|n| n == name).unwrap_or_else(|| {
        names.push(name.to_string());
        names.len() - 1
    })
}

impl NameTable {
    /// The index of a property key.
    pub(crate) fn key(&mut self, name: &str) -> usize {
        intern(&mut self.keys, name)
    }

    /// The index of a label.
    pub(crate) fn label(&mut self, name: &str) -> usize {
        intern(&mut self.labels, name)
    }

    /// The index of a relationship type.
    pub(crate) fn rel_type(&mut self, name: &str) -> usize {
        intern(&mut self.types, name)
    }

    /// Relationship types `types` as a pattern spells them: `R|S`, or `*`
    /// for the untyped pattern.
    pub(crate) fn rel_types_text(&self, types: &[usize]) -> String {
        if types.is_empty() {
            return "*".to_string();
        }
        types.iter().map(|&t| self.types[t].as_str()).collect::<Vec<_>>().join("|")
    }

    /// Look every name up in `graph`'s schema: once per execution.
    pub(crate) fn resolve(&self, graph: &Graph) -> NameIds<'_> {
        let schema = &graph.schema;
        NameIds {
            table: self,
            keys: self.keys.iter().map(|k| schema.attribute_id(k)).collect(),
            labels: self.labels.iter().map(|l| schema.label_id(l)).collect(),
            types: self.types.iter().map(|t| schema.rel_type_id(t)).collect(),
        }
    }
}

/// A plan's [`NameTable`] resolved against the graph one execution reads:
/// the schema id of each name, `None` while the graph has no such name. A
/// write that creates a name records its id here, so the execution's later
/// records and ops read it.
pub struct NameIds<'p> {
    table: &'p NameTable,
    /// Property-key ids, by name-table index.
    pub(crate) keys: Vec<Option<AttributeId>>,
    /// Label ids, by name-table index.
    pub(crate) labels: Vec<Option<LabelId>>,
    types: Vec<Option<RelTypeId>>,
}

impl NameIds<'_> {
    /// The id of property key `i`, created in `graph` if it has none yet.
    pub(crate) fn key_or_create(&mut self, i: usize, graph: &mut Graph) -> AttributeId {
        *self.keys[i].get_or_insert_with(|| graph.attribute_id_or_create(&self.table.keys[i]))
    }

    /// The id of label `i`, created in `graph` if it has none yet.
    pub(crate) fn label_or_create(&mut self, i: usize, graph: &mut Graph) -> LabelId {
        *self.labels[i].get_or_insert_with(|| graph.label_id_or_create(&self.table.labels[i]))
    }

    /// The id of relationship type `i`, created in `graph` if it has none
    /// yet.
    pub(crate) fn rel_type_or_create(&mut self, i: usize, graph: &mut Graph) -> RelTypeId {
        *self.types[i].get_or_insert_with(|| graph.rel_type_id_or_create(&self.table.types[i]))
    }

    /// The relation ids of a pattern's types (name-table indexes):
    /// `Some(None)` for the untyped pattern, else the ids of the named types
    /// that exist, since `[:R|S]` matches `R` edges while the graph has no
    /// `S`; `None` when none of them exists (so nothing can match).
    pub(crate) fn rel_types(&self, types: &[usize]) -> Option<Option<Vec<RelTypeId>>> {
        if types.is_empty() {
            return Some(None);
        }
        let ids: Vec<_> = types.iter().filter_map(|&t| self.types[t]).collect();
        (!ids.is_empty()).then_some(Some(ids))
    }
}

/// Compiles a plan's expressions as the builder creates its ops, collecting
/// the parameter and name tables as it goes.
#[derive(Debug, Default)]
pub(crate) struct Compiler {
    /// Parameter names, in first-reference order.
    pub(crate) params: Vec<String>,
    /// Every name the plan's ops read or write.
    pub(crate) names: NameTable,
}

impl Compiler {
    /// Compile `expr` against a segment's record layout. Every `$name` in
    /// it enters the parameter table, evaluated or not, so binding fails on
    /// a missing name before anything runs.
    pub(crate) fn expr(&mut self, expr: &Expr, bindings: &Bindings) -> SlotExpr {
        match expr {
            Expr::Literal(lit) => SlotExpr::Const(Value::from(lit)),
            Expr::Parameter(name) => SlotExpr::Param(intern(&mut self.params, name)),
            Expr::Variable(var) => {
                bindings.slot(var).map_or_else(SlotExpr::default, SlotExpr::Slot)
            }
            Expr::Property(var, key) => match bindings.slot(var) {
                Some(slot) => SlotExpr::Property { slot, key: self.names.key(key) },
                None => SlotExpr::default(),
            },
            Expr::Unary(op, inner) => SlotExpr::Unary(*op, Box::new(self.expr(inner, bindings))),
            Expr::Binary(op, lhs, rhs) => SlotExpr::Binary(
                *op,
                Box::new(self.expr(lhs, bindings)),
                Box::new(self.expr(rhs, bindings)),
            ),
            Expr::List(items) => {
                SlotExpr::List(items.iter().map(|e| self.expr(e, bindings)).collect())
            }
            Expr::FunctionCall { name, args, .. } => {
                let arg = self.first_arg(args, bindings).unwrap_or_default();
                match Function::from_name(name) {
                    Some(function) => SlotExpr::Call(function, Box::new(arg)),
                    None => SlotExpr::default(),
                }
            }
        }
    }

    /// Compile a call's arguments and keep the first, the only one any
    /// function reads.
    pub(crate) fn first_arg(&mut self, args: &[Expr], bindings: &Bindings) -> Option<SlotExpr> {
        let compiled: Vec<SlotExpr> = args.iter().map(|a| self.expr(a, bindings)).collect();
        compiled.into_iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher::Literal;

    fn setup() -> (Graph, Bindings, Vec<Value>) {
        let mut g = Graph::new("t");
        let a = g.add_node(
            &["Person"],
            vec![("name", Value::Str("ann".into())), ("age", Value::Int(34))],
        );
        let b = g.add_node(&["Person"], vec![("age", Value::Int(28))]);
        let e = g.add_edge(a, b, "KNOWS", vec![("since", Value::Int(2019))]).unwrap();
        g.sync_matrices();
        let mut bindings = Bindings::new();
        bindings.slot_or_create("a");
        bindings.slot_or_create("b");
        bindings.slot_or_create("e");
        let rel = g.schema.rel_type_id("KNOWS").unwrap() as u32;
        let record =
            vec![Value::Node(a), Value::Node(b), Value::Edge { id: e, src: a, dst: b, rel }];
        (g, bindings, record)
    }

    /// Compile `expr` and evaluate it against one record.
    fn compile_and_eval(
        expr: &Expr,
        record: &[Value],
        bindings: &Bindings,
        graph: &Graph,
    ) -> Value {
        let mut compiler = Compiler::default();
        let compiled = compiler.expr(expr, bindings);
        let names = compiler.names.resolve(graph);
        compiled.eval(record, &Scope { graph, params: &[], names: &names })
    }

    fn lit(i: i64) -> Expr {
        Expr::Literal(Literal::Integer(i))
    }

    #[test]
    fn property_access_and_comparison() {
        let (g, b, r) = setup();
        let expr = Expr::Binary(
            BinaryOperator::Gt,
            Box::new(Expr::Property("a".into(), "age".into())),
            Box::new(lit(30)),
        );
        assert_eq!(compile_and_eval(&expr, &r, &b, &g), Value::Bool(true));
        let missing = Expr::Property("a".into(), "salary".into());
        assert_eq!(compile_and_eval(&missing, &r, &b, &g), Value::Null);
        let edge = Expr::Property("e".into(), "since".into());
        assert_eq!(compile_and_eval(&edge, &r, &b, &g), Value::Int(2019));
    }

    #[test]
    fn boolean_three_valued_logic() {
        let (g, b, r) = setup();
        let null = Expr::Literal(Literal::Null);
        let t = Expr::Literal(Literal::Bool(true));
        let f = Expr::Literal(Literal::Bool(false));
        let and_nf = Expr::Binary(BinaryOperator::And, Box::new(null.clone()), Box::new(f.clone()));
        assert_eq!(compile_and_eval(&and_nf, &r, &b, &g), Value::Bool(false));
        let and_nt = Expr::Binary(BinaryOperator::And, Box::new(null.clone()), Box::new(t.clone()));
        assert_eq!(compile_and_eval(&and_nt, &r, &b, &g), Value::Null);
        let or_nt = Expr::Binary(BinaryOperator::Or, Box::new(null), Box::new(t));
        assert_eq!(compile_and_eval(&or_nt, &r, &b, &g), Value::Bool(true));
    }

    #[test]
    fn scalar_functions() {
        let (g, b, r) = setup();
        let call = |name: &str, args: Vec<Expr>| Expr::FunctionCall {
            name: name.into(),
            args,
            distinct: false,
        };
        let var = |v: &str| Expr::Variable(v.into());
        assert_eq!(compile_and_eval(&call("id", vec![var("a")]), &r, &b, &g), Value::Int(0));
        assert_eq!(
            compile_and_eval(&call("labels", vec![var("a")]), &r, &b, &g),
            Value::List(vec![Value::Str("Person".into())])
        );
        assert_eq!(
            compile_and_eval(&call("type", vec![var("e")]), &r, &b, &g),
            Value::Str("KNOWS".into())
        );
        let minus_five = Expr::Unary(UnaryOperator::Minus, Box::new(lit(5)));
        assert_eq!(compile_and_eval(&call("abs", vec![minus_five]), &r, &b, &g), Value::Int(5));
        // No argument reads as null; an unknown function is null.
        assert_eq!(compile_and_eval(&call("id", vec![]), &r, &b, &g), Value::Null);
        assert_eq!(compile_and_eval(&call("nope", vec![var("a")]), &r, &b, &g), Value::Null);
    }

    #[test]
    fn in_operator() {
        let (g, b, r) = setup();
        let expr = Expr::Binary(
            BinaryOperator::In,
            Box::new(lit(2)),
            Box::new(Expr::List(vec![lit(1), lit(2), lit(3)])),
        );
        assert_eq!(compile_and_eval(&expr, &r, &b, &g), Value::Bool(true));
        let expr =
            Expr::Binary(BinaryOperator::In, Box::new(lit(9)), Box::new(Expr::List(vec![lit(1)])));
        assert_eq!(compile_and_eval(&expr, &r, &b, &g), Value::Bool(false));
    }

    #[test]
    fn unknown_variables_are_null() {
        let (g, b, r) = setup();
        assert_eq!(compile_and_eval(&Expr::Variable("zz".into()), &r, &b, &g), Value::Null);
        assert_eq!(
            compile_and_eval(&Expr::Property("zz".into(), "age".into()), &r, &b, &g),
            Value::Null
        );
    }

    #[test]
    fn names_compile_to_indexes_once() {
        let (g, b, r) = setup();
        let age = |v: &str| Box::new(Expr::Property(v.into(), "age".into()));
        let sum = Expr::Binary(
            BinaryOperator::Add,
            Box::new(Expr::Binary(BinaryOperator::Add, age("a"), age("b"))),
            Box::new(Expr::Parameter("k".into())),
        );
        let mut compiler = Compiler::default();
        let compiled = compiler.expr(&sum, &b);
        assert_eq!(compiler.names.keys, ["age"]);
        assert_eq!(compiler.params, ["k"]);
        let names = compiler.names.resolve(&g);
        let scope = Scope { graph: &g, params: &[Value::Int(100)], names: &names };
        assert_eq!(compiled.eval(&r, &scope), Value::Int(162));
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::FunctionCall { name: "count".into(), args: vec![], distinct: false };
        assert!(contains_aggregate(&agg));
        let nested = Expr::Binary(BinaryOperator::Add, Box::new(agg), Box::new(lit(1)));
        assert!(contains_aggregate(&nested));
        assert!(!contains_aggregate(&Expr::Variable("a".into())));
        let scalar_fn = Expr::FunctionCall { name: "id".into(), args: vec![], distinct: false };
        assert!(!contains_aggregate(&scalar_fn));
    }
}
