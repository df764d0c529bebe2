//! Expression evaluation over records.
//!
//! Implements the scalar part of the supported openCypher expression language:
//! literals, variables, property access, arithmetic, comparisons, boolean
//! connectives, `IN`, and the scalar functions `id`, `labels`, `type`, `size`,
//! `abs`, `tointeger`, `tofloat`.

use crate::exec::record::Bindings;
use crate::store::graph::Graph;
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

/// Evaluate an expression against one record.
///
/// Unknown variables and type mismatches evaluate to `Null` (openCypher's
/// three-valued logic treats them as unknown rather than failing the query).
pub fn eval(expr: &Expr, record: &[Value], bindings: &Bindings, graph: &Graph) -> Value {
    match expr {
        Expr::Literal(lit) => Value::from(lit),
        Expr::Parameter(_) => Value::Null,
        Expr::Variable(name) => match bindings.slot(name) {
            Some(slot) => record.get(slot).cloned().unwrap_or(Value::Null),
            None => Value::Null,
        },
        Expr::Property(var, key) => {
            let entity = match bindings.slot(var) {
                Some(slot) => record.get(slot).cloned().unwrap_or(Value::Null),
                None => Value::Null,
            };
            match entity {
                Value::Node(id) => graph.node_property(id, key),
                Value::Edge(id) => graph.edge_property(id, key),
                _ => Value::Null,
            }
        }
        Expr::Unary(op, inner) => {
            let v = eval(inner, record, bindings, graph);
            match op {
                UnaryOperator::Not => match v {
                    Value::Bool(b) => Value::Bool(!b),
                    Value::Null => Value::Null,
                    _ => Value::Null,
                },
                UnaryOperator::Minus => match v {
                    Value::Int(i) => Value::Int(-i),
                    Value::Float(f) => Value::Float(-f),
                    _ => Value::Null,
                },
            }
        }
        Expr::Binary(op, lhs, rhs) => {
            let l = eval(lhs, record, bindings, graph);
            let r = eval(rhs, record, bindings, graph);
            eval_binary(*op, &l, &r)
        }
        Expr::List(items) => {
            Value::List(items.iter().map(|e| eval(e, record, bindings, graph)).collect())
        }
        Expr::FunctionCall { name, args, .. } => {
            eval_function(name, args.first().map(|a| eval(a, record, bindings, graph)), graph)
        }
    }
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

/// Apply scalar function `name` to its first argument: every supported
/// function takes one, and evaluation has no side effects, so any further
/// arguments are never evaluated.
fn eval_function(name: &str, arg: Option<Value>, graph: &Graph) -> Value {
    match name {
        "id" => match arg {
            Some(Value::Node(id)) => Value::Int(id as i64),
            Some(Value::Edge(id)) => Value::Int(id as i64),
            _ => Value::Null,
        },
        "labels" => match arg {
            Some(Value::Node(id)) => {
                let Some(node) = graph.node(id) else { return Value::Null };
                Value::List(
                    node.labels
                        .iter()
                        .filter_map(|&l| graph.schema.label_name(l))
                        .map(|s| Value::Str(s.to_string()))
                        .collect(),
                )
            }
            _ => Value::Null,
        },
        "type" => match arg {
            Some(Value::Edge(id)) => {
                let Some(edge) = graph.edge(id) else { return Value::Null };
                graph
                    .schema
                    .rel_type_name(edge.rel_type)
                    .map(|s| Value::Str(s.to_string()))
                    .unwrap_or(Value::Null)
            }
            _ => Value::Null,
        },
        "size" => match arg {
            Some(Value::List(items)) => Value::Int(items.len() as i64),
            Some(Value::Str(s)) => Value::Int(s.len() as i64),
            _ => Value::Null,
        },
        "abs" => match arg {
            Some(Value::Int(i)) => Value::Int(i.abs()),
            Some(Value::Float(f)) => Value::Float(f.abs()),
            _ => Value::Null,
        },
        "tointeger" => arg.and_then(|v| v.as_i64()).map(Value::Int).unwrap_or(Value::Null),
        "tofloat" => arg.and_then(|v| v.as_f64()).map(Value::Float).unwrap_or(Value::Null),
        _ => Value::Null,
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
        let record = vec![Value::Node(a), Value::Node(b), Value::Edge(e)];
        (g, bindings, record)
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
        assert_eq!(eval(&expr, &r, &b, &g), Value::Bool(true));
        let missing = Expr::Property("a".into(), "salary".into());
        assert_eq!(eval(&missing, &r, &b, &g), Value::Null);
    }

    #[test]
    fn boolean_three_valued_logic() {
        let (g, b, r) = setup();
        let null = Expr::Literal(Literal::Null);
        let t = Expr::Literal(Literal::Bool(true));
        let f = Expr::Literal(Literal::Bool(false));
        let and_nf = Expr::Binary(BinaryOperator::And, Box::new(null.clone()), Box::new(f.clone()));
        assert_eq!(eval(&and_nf, &r, &b, &g), Value::Bool(false));
        let and_nt = Expr::Binary(BinaryOperator::And, Box::new(null.clone()), Box::new(t.clone()));
        assert_eq!(eval(&and_nt, &r, &b, &g), Value::Null);
        let or_nt = Expr::Binary(BinaryOperator::Or, Box::new(null), Box::new(t));
        assert_eq!(eval(&or_nt, &r, &b, &g), Value::Bool(true));
    }

    #[test]
    fn scalar_functions() {
        let (g, b, r) = setup();
        let id = Expr::FunctionCall {
            name: "id".into(),
            args: vec![Expr::Variable("a".into())],
            distinct: false,
        };
        assert_eq!(eval(&id, &r, &b, &g), Value::Int(0));
        let labels = Expr::FunctionCall {
            name: "labels".into(),
            args: vec![Expr::Variable("a".into())],
            distinct: false,
        };
        assert_eq!(eval(&labels, &r, &b, &g), Value::List(vec![Value::Str("Person".into())]));
        let ty = Expr::FunctionCall {
            name: "type".into(),
            args: vec![Expr::Variable("e".into())],
            distinct: false,
        };
        assert_eq!(eval(&ty, &r, &b, &g), Value::Str("KNOWS".into()));
        let abs = Expr::FunctionCall {
            name: "abs".into(),
            args: vec![Expr::Unary(UnaryOperator::Minus, Box::new(lit(5)))],
            distinct: false,
        };
        assert_eq!(eval(&abs, &r, &b, &g), Value::Int(5));
    }

    #[test]
    fn in_operator() {
        let (g, b, r) = setup();
        let expr = Expr::Binary(
            BinaryOperator::In,
            Box::new(lit(2)),
            Box::new(Expr::List(vec![lit(1), lit(2), lit(3)])),
        );
        assert_eq!(eval(&expr, &r, &b, &g), Value::Bool(true));
        let expr =
            Expr::Binary(BinaryOperator::In, Box::new(lit(9)), Box::new(Expr::List(vec![lit(1)])));
        assert_eq!(eval(&expr, &r, &b, &g), Value::Bool(false));
    }

    #[test]
    fn unknown_variables_are_null() {
        let (g, b, r) = setup();
        assert_eq!(eval(&Expr::Variable("zz".into()), &r, &b, &g), Value::Null);
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
