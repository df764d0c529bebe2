//! Runtime values (`SIValue` in the RedisGraph C code base).
//!
//! Values flow through execution-plan records, property stores, and the result
//! set. Comparison follows openCypher semantics closely enough for the
//! supported subset: numbers compare numerically across Int/Float, strings
//! lexicographically, `Null` compares equal to nothing (including itself) for
//! filters but sorts last in `ORDER BY`. `DISTINCT` and grouping partition
//! by *equivalence* instead ([`Value::equivalent`], hashed as [`EquivKey`]).

use crate::{EdgeId, NodeId};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// Missing / unknown.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// A graph node, by id.
    Node(NodeId),
    /// A graph relationship: its id, plus the endpoints and relationship
    /// type of the relation cell it was found in, which the edge's store
    /// slot does not repeat. Equality, ordering, hashing and display go by
    /// `id` alone.
    Edge {
        /// The edge id: its slot in the graph's edge attribute store.
        id: EdgeId,
        /// Source node id.
        src: NodeId,
        /// Destination node id.
        dst: NodeId,
        /// Relationship type id.
        rel: u32,
    },
    /// An ordered list of values.
    List(Vec<Value>),
}

// Every variant fits beside the tag in 32 bytes: the edge's `rel` shares
// the tag's word. Records and result rows are flat arrays of values.
const _: () = assert!(std::mem::size_of::<Value>() == 32);

impl PartialEq for Value {
    /// Structural equality, except that edges compare by id.
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Node(a), Value::Node(b)) => a == b,
            (Value::Edge { id: a, .. }, Value::Edge { id: b, .. }) => a == b,
            (Value::List(a), Value::List(b)) => a == b,
            _ => false,
        }
    }
}

impl Value {
    /// True if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Coerce to a boolean for filter evaluation: `Bool` is itself, `Null` is
    /// false, anything else is a type error represented as `false`.
    pub fn is_truthy(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Numeric view (Int and Float only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    /// openCypher equality: numbers compare across Int/Float; `Null` is never
    /// equal to anything (returns `None`, i.e. unknown).
    pub fn cypher_eq(&self, other: &Value) -> Option<bool> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Some(x == y),
                _ => Some(a == b),
            },
        }
    }

    /// openCypher *equivalence*, the relation `DISTINCT`, grouping keys and
    /// `count(DISTINCT …)` partition values by. Unlike [`Value::cypher_eq`]
    /// it is a true equivalence relation: `null ≡ null` and `NaN ≡ NaN`;
    /// numbers compare by exact value across Int and Float (`2 ≡ 2.0`,
    /// `-0.0 ≡ 0.0`) but never through an `f64` rounding, so
    /// `2^53 ≢ 2^53 + 1`; lists compare element-wise under the same rules;
    /// strings, booleans, nodes and edges by value.
    pub fn equivalent(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Value::Int(i), Value::Float(f)) | (Value::Float(f), Value::Int(i)) => {
                exact_int(*f) == Some(*i)
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Node(a), Value::Node(b)) => a == b,
            (Value::Edge { id: a, .. }, Value::Edge { id: b, .. }) => a == b,
            (Value::List(a), Value::List(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.equivalent(y))
            }
            _ => false,
        }
    }

    /// Feed the equivalence class of the value to a hasher: equivalent
    /// values hash alike (a Float equal to an Int hashes as that Int).
    fn hash_equivalence<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            Value::Int(i) => {
                state.write_u8(2);
                i.hash(state);
            }
            Value::Float(f) => match exact_int(*f) {
                Some(i) => Value::Int(i).hash_equivalence(state),
                None => {
                    state.write_u8(3);
                    let canonical = if f.is_nan() { f64::NAN } else { *f };
                    canonical.to_bits().hash(state);
                }
            },
            Value::Str(s) => {
                state.write_u8(4);
                s.hash(state);
            }
            Value::Node(id) => {
                state.write_u8(5);
                id.hash(state);
            }
            Value::Edge { id, .. } => {
                state.write_u8(6);
                id.hash(state);
            }
            Value::List(items) => {
                state.write_u8(7);
                items.len().hash(state);
                for item in items {
                    item.hash_equivalence(state);
                }
            }
        }
    }

    /// openCypher ordering for comparisons; `None` when incomparable or null.
    pub fn cypher_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.partial_cmp(&y),
                _ => None,
            },
        }
    }

    /// Total ordering used by `ORDER BY` and `DISTINCT`: nulls sort last, then
    /// bools, numbers, strings, nodes, edges, lists.
    pub fn sort_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Bool(_) => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Str(_) => 2,
                Value::Node(_) => 3,
                Value::Edge { .. } => 4,
                Value::List(_) => 5,
                Value::Null => 6,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            _ if rank(self) != rank(other) => rank(self).cmp(&rank(other)),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Node(a), Value::Node(b)) => a.cmp(b),
            (Value::Edge { id: a, .. }, Value::Edge { id: b, .. }) => a.cmp(b),
            (Value::List(a), Value::List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let c = x.sort_cmp(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => a
                .as_f64()
                .unwrap_or(f64::NAN)
                .partial_cmp(&b.as_f64().unwrap_or(f64::NAN))
                .unwrap_or(Ordering::Equal),
        }
    }

    /// Arithmetic addition (numeric or string concatenation).
    pub fn add(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(*b)),
            (Value::Str(a), Value::Str(b)) => Value::Str(format!("{a}{b}")),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Value::Float(x + y),
                _ => Value::Null,
            },
        }
    }

    /// Arithmetic subtraction.
    pub fn sub(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_sub(*b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Value::Float(x - y),
                _ => Value::Null,
            },
        }
    }

    /// Arithmetic multiplication.
    pub fn mul(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_mul(*b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Value::Float(x * y),
                _ => Value::Null,
            },
        }
    }

    /// Arithmetic division (always float, like openCypher's `/` on mixed input;
    /// integer division when both are integers). Division by zero gives Null.
    pub fn div(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a / b)
                }
            }
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(_), Some(0.0)) => Value::Null,
                (Some(x), Some(y)) => Value::Float(x / y),
                _ => Value::Null,
            },
        }
    }

    /// Modulo.
    pub fn rem(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) if *b != 0 => Value::Int(a % b),
            _ => Value::Null,
        }
    }
}

/// The Int a Float is exactly equal to, if any: integral and inside
/// `[-2^63, 2^63)`, where the conversion is exact (`-0.0` gives `0`).
fn exact_int(f: f64) -> Option<i64> {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    (f.fract() == 0.0 && (-TWO_63..TWO_63).contains(&f)).then_some(f as i64)
}

/// A value as a hash key under openCypher equivalence
/// ([`Value::equivalent`]): the key of `RETURN DISTINCT`, of aggregation
/// groups and of `count(DISTINCT …)`'s seen set. Wrapping is free, and the
/// wrapped value stays available as `.0`.
#[derive(Debug, Clone)]
pub struct EquivKey(pub Value);

impl PartialEq for EquivKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.equivalent(&other.0)
    }
}

impl Eq for EquivKey {}

impl Hash for EquivKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash_equivalence(state);
    }
}

/// A borrowed row as a hash key under the same equivalence, cell by cell:
/// the key `RETURN DISTINCT` deduplicates a batch's rows with in place.
pub(crate) struct EquivRow<'a>(pub(crate) &'a [Value]);

impl PartialEq for EquivRow<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(other.0).all(|(a, b)| a.equivalent(b))
    }
}

impl Eq for EquivRow<'_> {}

impl Hash for EquivRow<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.iter().for_each(|v| v.hash_equivalence(state));
    }
}

impl From<&cypher::Literal> for Value {
    fn from(lit: &cypher::Literal) -> Self {
        match lit {
            cypher::Literal::Integer(i) => Value::Int(*i),
            cypher::Literal::Float(f) => Value::Float(*f),
            cypher::Literal::Str(s) => Value::Str(s.clone()),
            cypher::Literal::Bool(b) => Value::Bool(*b),
            cypher::Literal::Null => Value::Null,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Node(id) => write!(f, "(node:{id})"),
            Value::Edge { id, .. } => write!(f, "[edge:{id}]"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_type_numeric_equality() {
        assert_eq!(Value::Int(3).cypher_eq(&Value::Float(3.0)), Some(true));
        assert_eq!(Value::Int(3).cypher_eq(&Value::Int(4)), Some(false));
        assert_eq!(Value::Null.cypher_eq(&Value::Int(1)), None);
        assert_eq!(Value::Str("a".into()).cypher_eq(&Value::Str("a".into())), Some(true));
    }

    fn key_hash(v: &Value) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        let mut h = DefaultHasher::new();
        EquivKey(v.clone()).hash(&mut h);
        h.finish()
    }

    /// `a ≡ b` as a key: equal, and hashed alike.
    fn same_key(a: Value, b: Value) -> bool {
        let same = EquivKey(a.clone()) == EquivKey(b.clone());
        if same {
            assert_eq!(key_hash(&a), key_hash(&b), "{a:?} ≡ {b:?} must hash alike");
        }
        same
    }

    #[test]
    fn equivalence_merges_int_and_float_by_exact_value() {
        assert!(same_key(Value::Int(2), Value::Float(2.0)));
        assert!(same_key(Value::Float(-0.0), Value::Float(0.0)));
        assert!(same_key(Value::Float(-0.0), Value::Int(0)));
        assert!(!same_key(Value::Int(2), Value::Float(2.5)));
        // Int vs Int is exact: 2^53 + 1 is not rounded onto 2^53.
        let p = 1i64 << 53;
        assert!(!same_key(Value::Int(p), Value::Int(p + 1)));
        // Int vs Float is exact too (2^53 + 1 has no f64 of its own).
        assert!(same_key(Value::Int(p), Value::Float(p as f64)));
        assert!(!same_key(Value::Int(p + 1), Value::Float(p as f64)));
        // The extremes: i64::MIN is exactly -2^63; 2^63 is out of range.
        assert!(same_key(Value::Int(i64::MIN), Value::Float(-9_223_372_036_854_775_808.0)));
        assert!(!same_key(Value::Int(i64::MAX), Value::Float(9_223_372_036_854_775_808.0)));
    }

    #[test]
    fn equivalence_merges_nan_with_nan_and_null_with_null() {
        assert!(same_key(Value::Float(f64::NAN), Value::Float(-f64::NAN)));
        assert!(same_key(Value::Null, Value::Null));
        assert!(!same_key(Value::Null, Value::Int(0)));
        assert!(same_key(Value::Float(f64::INFINITY), Value::Float(f64::INFINITY)));
        assert!(!same_key(Value::Float(f64::INFINITY), Value::Float(f64::NEG_INFINITY)));
        // Filter equality is unchanged: null is unknown, NaN is unequal.
        assert_eq!(Value::Null.cypher_eq(&Value::Null), None);
        assert_eq!(Value::Float(f64::NAN).cypher_eq(&Value::Float(f64::NAN)), Some(false));
    }

    #[test]
    fn equivalence_is_element_wise_on_lists_and_by_value_otherwise() {
        let list = |items: Vec<Value>| Value::List(items);
        assert!(same_key(list(vec![Value::Int(2)]), list(vec![Value::Float(2.0)])));
        assert!(same_key(
            list(vec![Value::Null, list(vec![Value::Float(f64::NAN)])]),
            list(vec![Value::Null, list(vec![Value::Float(f64::NAN)])])
        ));
        assert!(!same_key(list(vec![Value::Int(1)]), list(vec![Value::Int(1), Value::Int(1)])));
        assert!(same_key(Value::Str("a".into()), Value::Str("a".into())));
        assert!(!same_key(Value::Str("2".into()), Value::Int(2)));
        assert!(!same_key(Value::Bool(true), Value::Int(1)));
        let edge = |id, src| Value::Edge { id, src, dst: 0, rel: 0 };
        assert!(!same_key(Value::Node(3), edge(3, 0)));
        assert!(same_key(edge(3, 0), edge(3, 0)));
        // An edge is its id: the cell it was read from does not split it.
        assert!(same_key(edge(3, 0), edge(3, 1)));
        assert_eq!(edge(3, 0), edge(3, 1));
        assert_eq!(edge(3, 0).sort_cmp(&edge(3, 1)), Ordering::Equal);
        assert_eq!(edge(3, 1).sort_cmp(&edge(4, 0)), Ordering::Less);
    }

    #[test]
    fn comparisons_and_sorting() {
        assert_eq!(Value::Int(2).cypher_cmp(&Value::Float(2.5)), Some(Ordering::Less));
        assert_eq!(
            Value::Str("a".into()).cypher_cmp(&Value::Str("b".into())),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Str("a".into()).cypher_cmp(&Value::Int(1)), None);
        // nulls sort last
        assert_eq!(Value::Null.sort_cmp(&Value::Int(5)), Ordering::Greater);
        assert_eq!(Value::Int(5).sort_cmp(&Value::Null), Ordering::Less);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)), Value::Int(5));
        assert_eq!(Value::Int(2).add(&Value::Float(0.5)), Value::Float(2.5));
        assert_eq!(Value::Str("a".into()).add(&Value::Str("b".into())), Value::Str("ab".into()));
        assert_eq!(Value::Int(7).div(&Value::Int(2)), Value::Int(3));
        assert_eq!(Value::Int(7).div(&Value::Int(0)), Value::Null);
        assert_eq!(Value::Int(7).rem(&Value::Int(4)), Value::Int(3));
        assert_eq!(Value::Int(7).mul(&Value::Int(6)), Value::Int(42));
        assert_eq!(Value::Int(7).sub(&Value::Int(6)), Value::Int(1));
    }

    #[test]
    fn truthiness_is_strict() {
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Int(1).is_truthy());
        assert!(!Value::Null.is_truthy());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::List(vec![Value::Int(1), Value::Int(2)]).to_string(), "[1, 2]");
        assert_eq!(Value::Node(3).to_string(), "(node:3)");
        assert_eq!(Value::Edge { id: 7, src: 1, dst: 2, rel: 3 }.to_string(), "[edge:7]");
    }

    #[test]
    fn literal_conversion() {
        assert_eq!(Value::from(&cypher::Literal::Integer(5)), Value::Int(5));
        assert_eq!(Value::from(&cypher::Literal::Bool(true)), Value::Bool(true));
        assert_eq!(Value::from(&cypher::Literal::Null), Value::Null);
    }
}
