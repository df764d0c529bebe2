//! Differential test for the hashed openCypher equivalence key
//! ([`EquivKey`]): over generated mixed values — Int and Float around 0
//! (`±0.0`), near 2^53 and at the i64 extremes, NaN and infinities,
//! strings, booleans, nodes, edges, nested lists and nulls — the key must
//! partition *exactly* as a brute-force pairwise oracle written here,
//! independently of `Value::equivalent`. The partition is then checked
//! where the engine uses it: `count/sum/avg/collect(DISTINCT …)`,
//! `RETURN DISTINCT` and grouping keys.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::Rng;
use redisgraph_core::exec::aggregate::{Accumulator, AggFunc};
use redisgraph_core::{EquivKey, Graph, Value};
use std::collections::HashMap;

/// Generates one mixed value; lists nest up to `depth` levels.
struct MixedValue {
    depth: u32,
}

impl Strategy for MixedValue {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        const P53: i64 = 1 << 53;
        const TWO_63: f64 = 9_223_372_036_854_775_808.0; // i64::MIN is -2^63; i64::MAX < 2^63
        let kinds = if self.depth == 0 { 12 } else { 13 };
        match rng.gen_range(0..kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_bool(0.5)),
            2 => Value::Int(rng.gen_range(-2i64..=2)),
            3 => Value::Int(P53 + rng.gen_range(-2i64..=2)),
            4 => Value::Int([i64::MIN, i64::MAX, -P53][rng.gen_range(0..3usize)]),
            5 => Value::Float([-0.0, 0.0, 1.0, -2.0, 2.0][rng.gen_range(0..5usize)]),
            6 => Value::Float((P53 + rng.gen_range(-2i64..=2)) as f64),
            7 => Value::Float(rng.gen_range(-2i64..=2) as f64 + 0.5),
            8 => Value::Float(
                [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -TWO_63, TWO_63]
                    [rng.gen_range(0..6usize)],
            ),
            9 => Value::Str(["a", "b", "2"][rng.gen_range(0..3usize)].to_string()),
            10 => Value::Node(rng.gen_range(0u64..3)),
            // An edge is its id, whatever cell it was read from.
            11 => Value::Edge {
                id: rng.gen_range(0u64..3),
                src: rng.gen_range(0u64..2),
                dst: 0,
                rel: 0,
            },
            _ => {
                let inner = MixedValue { depth: self.depth - 1 };
                Value::List((0..rng.gen_range(0..3usize)).map(|_| inner.generate(rng)).collect())
            }
        }
    }
}

/// The oracle: openCypher equivalence, pair by pair. Int vs Float compares
/// mathematical values through i128 (exact for every integral f64 an i64
/// can equal), so `2^53 + 1 ≢ 2^53 as f64` while `2 ≡ 2.0` and `-0.0 ≡ 0`.
fn equivalent(a: &Value, b: &Value) -> bool {
    let int_float = |i: i64, f: f64| f.is_finite() && f.trunc() == f && f as i128 == i as i128;
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Int(i), Value::Float(f)) | (Value::Float(f), Value::Int(i)) => int_float(*i, *f),
        (Value::Float(x), Value::Float(y)) => x == y || (x.is_nan() && y.is_nan()),
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Node(x), Value::Node(y)) => x == y,
        (Value::Edge { id: x, .. }, Value::Edge { id: y, .. }) => x == y,
        (Value::List(x), Value::List(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| equivalent(p, q))
        }
        _ => false,
    }
}

/// Class of each value: the index of the first value the oracle finds
/// equivalent to it.
fn oracle_classes(values: &[Value]) -> Vec<usize> {
    (0..values.len())
        .map(|i| (0..=i).find(|&j| equivalent(&values[j], &values[i])).expect("j = i matches"))
        .collect()
}

/// First representative of each class, in first-occurrence order.
fn representatives(values: &[Value]) -> Vec<Value> {
    let classes = oracle_classes(values);
    values.iter().enumerate().filter(|&(i, _)| classes[i] == i).map(|(_, v)| v.clone()).collect()
}

fn fold(func: AggFunc, distinct: bool, values: &[Value]) -> String {
    let mut acc = Accumulator::new(func, distinct);
    values.iter().for_each(|v| acc.update(v.clone()));
    format!("{:?}", acc.finish())
}

/// A graph with one `:V` node per value, in order, holding it as `v`
/// (a null value is a node without the property).
fn graph_of(values: &[Value]) -> Graph {
    let mut g = Graph::new("key-diff");
    for v in values {
        let props = if v.is_null() { vec![] } else { vec![("v", v.clone())] };
        g.add_node(&["V"], props);
    }
    g
}

proptest! {
    #[test]
    fn hashed_key_partitions_like_the_pairwise_oracle(
        values in prop::collection::vec(MixedValue { depth: 2 }, 1..40)
    ) {
        let mut first: HashMap<EquivKey, usize> = HashMap::new();
        let hashed: Vec<usize> =
            values.iter().enumerate().map(|(i, v)| *first.entry(EquivKey(v.clone())).or_insert(i)).collect();
        prop_assert_eq!(hashed, oracle_classes(&values), "values {:?}", values);
    }

    #[test]
    fn distinct_aggregates_fold_one_representative_per_class(
        values in prop::collection::vec(MixedValue { depth: 1 }, 0..40)
    ) {
        let reps: Vec<Value> = representatives(&values).into_iter().filter(|v| !v.is_null()).collect();
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Collect] {
            prop_assert_eq!(fold(func, true, &values), fold(func, false, &reps), "{:?} over {:?}", func, values);
        }
    }

    #[test]
    fn return_distinct_and_grouping_follow_the_oracle(
        values in prop::collection::vec(MixedValue { depth: 1 }, 1..30)
    ) {
        let g = graph_of(&values);
        let reps = representatives(&values);
        let rows = |q: &str| format!("{:?}", g.query_readonly(q).expect("query runs").rows);

        let expect: Vec<Vec<Value>> = reps.iter().map(|r| vec![r.clone()]).collect();
        prop_assert_eq!(rows("MATCH (n:V) RETURN DISTINCT n.v"), format!("{expect:?}"));

        let classes = oracle_classes(&values);
        let expect: Vec<Vec<Value>> = (0..values.len())
            .filter(|&i| classes[i] == i)
            .map(|i| {
                let size = classes.iter().filter(|&&c| c == i).count();
                vec![values[i].clone(), Value::Int(size as i64)]
            })
            .collect();
        prop_assert_eq!(rows("MATCH (n:V) RETURN n.v, count(*)"), format!("{expect:?}"));

        let non_null: Vec<Value> = reps.into_iter().filter(|v| !v.is_null()).collect();
        let expect = vec![vec![Value::Int(non_null.len() as i64), Value::List(non_null)]];
        prop_assert_eq!(
            rows("MATCH (n:V) RETURN count(DISTINCT n.v), collect(DISTINCT n.v)"),
            format!("{expect:?}")
        );
    }
}
