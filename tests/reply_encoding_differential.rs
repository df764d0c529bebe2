//! Differential proptest for the `GRAPH.QUERY` reply encoders: the bytes a
//! pool worker writes straight from a `ResultSet` (`encode_resultset`, the
//! TCP path) must equal the bytes of the `RespValue` tree in-process callers
//! get (`resultset_to_resp(rs).encode()`), for every `Value` kind and every
//! reply shape. The tree encoder is the reference: it is the one the rest of
//! the suite inspects cell by cell.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use redisgraph_core::{QueryStats, ResultSet, Value};
use redisgraph_server::commands::{encode_resultset, resultset_to_resp};
use std::time::Duration;

/// Cell generator: the vendored proptest has no string or recursive
/// strategies, so cells are drawn from an RNG seeded by one generated value.
struct Dice(StdRng);

impl Dice {
    fn roll(&mut self) -> u64 {
        self.0.gen()
    }

    fn coin(&mut self) -> bool {
        self.0.gen()
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from.choose(&mut self.0).expect("non-empty choices").clone()
    }

    fn text(&mut self) -> String {
        const PIECES: [&str; 9] =
            ["", "a", "Ann", "\r\n", "\n+INJECTED", "naïve", "日本", "🦀", " $-1 "];
        (0..self.roll() % 4).map(|_| self.pick(&PIECES)).collect()
    }

    fn value(&mut self, depth: u32) -> Value {
        match self.roll() % if depth < 3 { 8 } else { 7 } {
            0 => Value::Null,
            1 => Value::Bool(self.coin()),
            2 => Value::Int(self.pick(&[i64::MIN, i64::MAX, 0, -1, 9, 10, -10, 1 << 40])),
            3 => Value::Int(self.roll() as i64),
            4 => Value::Float(self.pick(&[
                0.0,
                -0.0,
                0.1,
                -2.5,
                1e300,
                1e-7,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE,
            ])),
            5 => Value::Str(self.text()),
            6 => {
                let id = self.pick(&[0, 7, u64::MAX, 1 << 33]);
                if self.coin() {
                    Value::Node(id)
                } else {
                    Value::Edge(id)
                }
            }
            _ => Value::List((0..self.roll() % 4).map(|_| self.value(depth + 1)).collect()),
        }
    }

    fn stats(&mut self) -> QueryStats {
        QueryStats {
            nodes_created: (self.roll() % 3) as usize,
            relationships_created: (self.roll() % 1000) as usize,
            properties_set: self.pick(&[0, 1, usize::MAX]),
            nodes_deleted: (self.roll() % 2) as usize,
            relationships_deleted: (self.roll() % 2) as usize,
            labels_added: 0,
            execution_time: Duration::from_nanos(self.roll() % 5_000_000_000),
            cached: self.coin(),
        }
    }
}

/// The property, on one result set. The direct encoder appends, so it is run
/// onto a non-empty buffer the way a connection's batch buffer presents it.
fn assert_encoders_agree(rs: &ResultSet) {
    let mut direct = b"+PONG\r\n".to_vec();
    encode_resultset(rs, &mut direct);
    let mut reference = b"+PONG\r\n".to_vec();
    resultset_to_resp(rs).encode_into(&mut reference);
    assert_eq!(
        String::from_utf8_lossy(&direct),
        String::from_utf8_lossy(&reference),
        "encoders disagree on {rs:?}"
    );
    assert_eq!(direct, reference);
}

proptest! {
    #[test]
    fn direct_encoding_equals_the_tree_encoding(
        seed in any::<u64>(),
        rows in 0usize..24,
        columns in 0usize..5,
    ) {
        let mut dice = Dice(StdRng::seed_from_u64(seed));
        let rs = ResultSet {
            columns: (0..columns).map(|_| dice.text()).collect(),
            rows: (0..rows).map(|_| (0..columns).map(|_| dice.value(0)).collect()).collect(),
            stats: dice.stats(),
        };
        assert_encoders_agree(&rs);
    }
}

#[test]
fn every_value_kind_and_reply_shape_encodes_identically() {
    let every_kind = vec![
        Value::Null,
        Value::Bool(true),
        Value::Bool(false),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Int(0),
        Value::Float(f64::NAN),
        Value::Float(-0.0),
        Value::Float(1.5e-9),
        Value::Str("naïve 日本 🦀".into()),
        Value::Str("x\r\n+INJECTED".into()),
        Value::Str(String::new()),
        Value::Node(42),
        Value::Edge(u64::MAX),
        Value::List(vec![]),
        Value::List(vec![Value::List(vec![Value::Int(-7), Value::Null]), Value::Str("in".into())]),
    ];
    let columns: Vec<String> = (0..every_kind.len()).map(|i| format!("c{i}")).collect();
    let write_stats = QueryStats {
        nodes_created: 3,
        relationships_created: 2,
        properties_set: 9,
        execution_time: Duration::from_micros(1234),
        ..QueryStats::default()
    };
    for rs in [
        // One wide row of everything, and the same row many times over.
        ResultSet {
            columns: columns.clone(),
            rows: vec![every_kind.clone()],
            ..ResultSet::empty()
        },
        ResultSet { columns: columns.clone(), rows: vec![every_kind; 100], ..ResultSet::empty() },
        // Zero rows under a header; zero columns (rows of nothing).
        ResultSet { columns, rows: vec![], ..ResultSet::empty() },
        ResultSet { columns: vec![], rows: vec![vec![], vec![]], ..ResultSet::empty() },
        // A write-only reply: no header, no rows, only statistics.
        ResultSet { stats: write_stats, ..ResultSet::empty() },
        ResultSet::empty(),
    ] {
        assert_encoders_agree(&rs);
    }
}
