//! Traversal results against an independent edge-list oracle.
//!
//! Every random multigraph is built beside a plain list of its edges,
//! recorded as `(src, edge, dst, type)` at insert time (and struck off at
//! delete time). The oracle answers each query shape by interpreting its
//! parsed `MATCH` patterns directly over that list: nested loops per single
//! hop, and a queue BFS with first-reached-level semantics for a
//! variable-length hop (a node matches once, when its shortest distance lies
//! in `min..=max`). Neither the planner nor a matrix is involved, so the
//! executor is compared with something that shares none of its code.
//!
//! The oracle follows the engine's documented semantics where openCypher
//! leaves room: comma-separated patterns do not enforce relationship
//! uniqueness, and an undirected hop follows a self-loop once per direction.
//!
//! Results compare as sorted multisets of rows over every shape, on random
//! multigraphs with self-loops and same-type and cross-type parallel edges,
//! in three states: flushed, unflushed (deltas and deletes still buffered),
//! and a sealed snapshot of the unflushed graph. Each shape runs both the
//! per-hop plan (one `Traverse` op per hop, the subject here) and the
//! optimized plan.

use cypher::{Clause, Direction, Expr, NodePattern, Projection, RelationshipPattern};
use rand::{Rng, SeedableRng, StdRng};
use redisgraph_core::{ExecutionPlan, Graph, GraphAccess, GraphSnapshot, Params, Value};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Instant;

const RELS: [&str; 3] = ["T0", "T1", "T2"];
const LABELS: [&str; 2] = ["A", "B"];

/// The graph as plain data: each node's label and every live edge.
#[derive(Default)]
struct Oracle {
    labels: Vec<&'static str>,
    /// `(src, edge id, dst, relationship type)`.
    edges: Vec<(u64, u64, u64, &'static str)>,
}

/// Variable bindings of one oracle match: node or edge ids by name.
type Row = HashMap<String, Value>;

impl Oracle {
    fn add_edge(&mut self, g: &mut Graph, src: u64, dst: u64, rel: &'static str) {
        let e = g.add_edge(src, dst, rel, vec![]).unwrap();
        self.edges.push((src, e, dst, rel));
    }

    fn delete_edge(&mut self, g: &mut Graph, edge: u64) {
        let &(src, id, dst, rel) = self.edges.iter().find(|e| e.1 == edge).expect("live edge");
        let rel = g.schema.rel_type_id(rel).expect("made by its first edge") as u32;
        assert!(g.delete_edge(&Value::Edge { id, src, dst, rel }), "edge {edge} must exist");
        self.edges.retain(|&(_, e, _, _)| e != edge);
    }

    /// One hop from `node` along `rel`: `(neighbour, edge)` per matching edge
    /// and direction.
    fn step(&self, node: u64, rel: &RelationshipPattern) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for &(s, e, d, r) in &self.edges {
            if !rel.types.is_empty() && !rel.types.iter().any(|t| t == r) {
                continue;
            }
            if rel.direction != Direction::Incoming && s == node {
                out.push((d, e));
            }
            if rel.direction != Direction::Outgoing && d == node {
                out.push((s, e));
            }
        }
        out
    }

    /// The nodes first reached from `src` between `min` and `max` hops.
    fn reach(
        &self,
        src: u64,
        rel: &RelationshipPattern,
        (min, max): (u32, Option<u32>),
    ) -> Vec<u64> {
        let mut level = HashMap::from([(src, 0u32)]);
        let mut queue = VecDeque::from([src]);
        while let Some(v) = queue.pop_front() {
            let l = level[&v];
            if max.is_some_and(|m| l >= m) {
                continue;
            }
            for (n, _) in self.step(v, rel) {
                level.entry(n).or_insert_with(|| {
                    queue.push_back(n);
                    l + 1
                });
            }
        }
        level
            .into_iter()
            .filter(|&(_, l)| l >= min && max.is_none_or(|m| l <= m))
            .map(|(n, _)| n)
            .collect()
    }

    /// Bind (or check) `node`'s variable to `id` in `row`, honouring labels.
    fn bind_node(&self, mut row: Row, var: &str, node: &NodePattern, id: u64) -> Option<Row> {
        if !node.labels.iter().all(|l| l == self.labels[id as usize]) {
            return None;
        }
        match row.get(var) {
            Some(bound) => (*bound == Value::Node(id)).then_some(row),
            None => {
                row.insert(var.to_string(), Value::Node(id));
                Some(row)
            }
        }
    }

    /// Every binding of the query's `MATCH` patterns.
    fn matches(&self, patterns: &[cypher::PathPattern]) -> Vec<Row> {
        let mut anon = 0;
        let mut name = |node: &NodePattern| {
            node.variable.clone().unwrap_or_else(|| {
                anon += 1;
                format!("#{anon}")
            })
        };
        let mut rows = vec![Row::new()];
        for pattern in patterns {
            let mut prev = name(&pattern.start);
            rows = rows
                .into_iter()
                .flat_map(|row| {
                    let nodes = 0..self.labels.len() as u64;
                    let prev = &prev;
                    nodes.filter_map(move |n| self.bind_node(row.clone(), prev, &pattern.start, n))
                })
                .collect();
            for (rel, node) in &pattern.steps {
                let var = name(node);
                let mut next = Vec::new();
                for row in rows {
                    let Value::Node(from) = row[&prev] else { unreachable!("node variable") };
                    let candidates: Vec<(u64, Option<u64>)> = match rel.var_length {
                        None => {
                            self.step(from, rel).into_iter().map(|(n, e)| (n, Some(e))).collect()
                        }
                        Some(bounds) => {
                            self.reach(from, rel, bounds).into_iter().map(|n| (n, None)).collect()
                        }
                    };
                    for (n, edge) in candidates {
                        let Some(mut r) = self.bind_node(row.clone(), &var, node, n) else {
                            continue;
                        };
                        if let (Some(ev), Some(e)) = (&rel.variable, edge) {
                            // The oracle reads an edge by its id alone.
                            r.insert(ev.clone(), Value::Edge { id: e, src: 0, dst: 0, rel: 0 });
                        }
                        next.push(r);
                    }
                }
                rows = next;
                prev = var;
            }
        }
        rows
    }

    /// `id(x)` and `type(e)` columns, grouped under `count(x)` aggregates.
    fn project(&self, rows: &[Row], projection: &Projection) -> Vec<Vec<Value>> {
        let eval = |row: &Row, expr: &Expr| match expr {
            Expr::FunctionCall { name, args, .. } => match (name.as_str(), args.as_slice()) {
                ("id", [Expr::Variable(v)]) => match row[v] {
                    Value::Node(id) | Value::Edge { id, .. } => Value::Int(id as i64),
                    ref other => panic!("id() of {other:?}"),
                },
                ("type", [Expr::Variable(v)]) => {
                    let Value::Edge { id: e, .. } = row[v] else { panic!("type() of a non-edge") };
                    let (.., rel) = self.edges.iter().find(|edge| edge.1 == e).expect("live edge");
                    Value::Str(rel.to_string())
                }
                _ => panic!("the oracle cannot evaluate {expr:?}"),
            },
            _ => panic!("the oracle cannot evaluate {expr:?}"),
        };
        let is_count =
            |expr: &Expr| matches!(expr, Expr::FunctionCall { name, .. } if name == "count");
        let items = &projection.items;
        if !items.iter().any(|item| is_count(&item.expr)) {
            return rows
                .iter()
                .map(|row| items.iter().map(|i| eval(row, &i.expr)).collect())
                .collect();
        }
        // Group on the other columns; a count column counts its group's rows.
        // Without other columns there is exactly one group, even with no rows.
        let columns = |row: Option<&Row>| -> Vec<Value> {
            let value = |i: &cypher::ReturnItem| match row {
                Some(row) if !is_count(&i.expr) => eval(row, &i.expr),
                _ => Value::Null,
            };
            items.iter().map(value).collect()
        };
        let mut groups: BTreeMap<String, (Vec<Value>, i64)> = BTreeMap::new();
        if items.iter().all(|i| is_count(&i.expr)) {
            let empty = columns(None);
            groups.insert(format!("{empty:?}"), (empty, 0));
        }
        for row in rows {
            let cols = columns(Some(row));
            groups.entry(format!("{cols:?}")).or_insert((cols, 0)).1 += 1;
        }
        let with_counts = |(mut cols, count): (Vec<Value>, i64)| {
            for (col, item) in cols.iter_mut().zip(items) {
                if is_count(&item.expr) {
                    *col = Value::Int(count);
                }
            }
            cols
        };
        groups.into_values().map(with_counts).collect()
    }

    /// The query's rows as a sorted multiset.
    fn answer(&self, query: &str) -> Vec<String> {
        let ast = cypher::parse(query).expect("query parses");
        let mut patterns = Vec::new();
        let mut projection = None;
        for clause in &ast.clauses {
            match clause {
                Clause::Match { patterns: p, .. } => patterns.extend(p.iter().cloned()),
                Clause::Return(p) => projection = Some(p),
                other => panic!("the oracle cannot evaluate {other:?}"),
            }
        }
        let rows = self.matches(&patterns);
        sorted(self.project(&rows, projection.expect("a RETURN clause")))
    }
}

fn sorted(rows: Vec<Vec<Value>>) -> Vec<String> {
    let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort_unstable();
    rows
}

/// Build a random multigraph and its oracle: `nodes` labelled nodes, `edges`
/// random edges over three relationship types, deliberately including
/// self-loops and parallel edges (both same-type and cross-type).
fn random_graph(seed: u64, nodes: u64, edges: usize) -> (Graph, Oracle) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new("diff");
    let mut oracle = Oracle::default();
    for _ in 0..nodes {
        let label = LABELS[rng.gen_range(0..LABELS.len())];
        g.add_node(&[label], vec![]);
        oracle.labels.push(label);
    }
    for _ in 0..edges {
        let src = rng.gen_range(0..nodes);
        // One edge in ten is a self-loop.
        let dst = if rng.gen_bool(0.1) { src } else { rng.gen_range(0..nodes) };
        oracle.add_edge(&mut g, src, dst, RELS[rng.gen_range(0..RELS.len())]);
    }
    // At least one parallel same-type pair, one cross-type pair and one
    // self-loop regardless of what the RNG produced.
    oracle.add_edge(&mut g, 0, 1, "T0");
    oracle.add_edge(&mut g, 0, 1, "T0");
    oracle.add_edge(&mut g, 0, 1, "T1");
    oracle.add_edge(&mut g, 1, 1, "T2");
    (g, oracle)
}

/// Buffer a burst of writes without flushing: new edges (one more parallel
/// pair among them) and deletes, one of them of a parallel edge.
fn churn(seed: u64, g: &mut Graph, oracle: &mut Oracle) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let nodes = oracle.labels.len() as u64;
    g.sync_matrices();
    g.set_flush_threshold(1_000_000);
    for _ in 0..nodes {
        let (src, dst) = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
        oracle.add_edge(g, src, dst, RELS[rng.gen_range(0..RELS.len())]);
    }
    oracle.add_edge(g, 2, 3, "T1");
    oracle.add_edge(g, 2, 3, "T1");
    let parallel = oracle.edges.iter().find(|e| (e.0, e.2, e.3) == (0, 1, "T0")).unwrap().1;
    oracle.delete_edge(g, parallel);
    for _ in 0..nodes / 4 {
        let victim = oracle.edges[rng.gen_range(0..oracle.edges.len())].1;
        oracle.delete_edge(g, victim);
    }
    assert!(g.has_pending_deltas(), "the churn must still be buffered");
}

/// Query shapes covering every traversal variant the planner emits.
fn queries() -> Vec<&'static str> {
    vec![
        // Single hop: untyped / typed / multi-type, all three directions.
        "MATCH (a)-[]->(b) RETURN id(a), id(b)",
        "MATCH (a)-[:T0]->(b) RETURN id(a), id(b)",
        "MATCH (a)<-[:T1]-(b) RETURN id(a), id(b)",
        "MATCH (a)-[:T0|T2]-(b) RETURN id(a), id(b)",
        // Bound edge variables (the edge id must come out of the traversal).
        "MATCH (a)-[e:T0]->(b) RETURN id(a), id(e), id(b)",
        "MATCH (a)-[e]->(b) RETURN id(e), type(e)",
        "MATCH (a)<-[e]-(b) RETURN id(a), id(e), id(b)",
        // Label-filtered endpoints around the traversal.
        "MATCH (a:A)-[:T1]->(b:B) RETURN id(a), id(b)",
        // Expand Into: both endpoints bound by earlier pattern parts, in
        // every direction.
        "MATCH (a)-[:T0]->(b), (a)-[:T1]->(b) RETURN id(a), id(b)",
        "MATCH (a)-[:T0]->(b), (a)-[e]->(b) RETURN id(a), id(e), id(b)",
        "MATCH (a)-[:T0]->(b), (a)-[e]-(b) RETURN id(a), id(e), id(b)",
        "MATCH (a)-[:T1]->(b), (a)<-[e:T0|T2]-(b) RETURN id(a), id(e), id(b)",
        // Multi-hop chains (each hop is its own Traverse op).
        "MATCH (a)-[:T0]->(b)-[:T1]->(c) RETURN id(a), id(b), id(c)",
        "MATCH (a)-[]->(b)-[]->(c)-[]->(d) RETURN id(a), id(d)",
        // Variable-length: untyped, typed, zero-min, unbounded, incoming.
        "MATCH (a)-[*1..2]->(b) RETURN id(a), id(b)",
        "MATCH (a)-[:T0*1..3]->(b) RETURN id(a), id(b)",
        "MATCH (a)-[*0..2]->(b) RETURN id(a), id(b)",
        "MATCH (a)-[:T1*0..]->(b) RETURN id(a), id(b)",
        "MATCH (a)<-[*1..2]-(b) RETURN id(a), id(b)",
        "MATCH (a)-[*2..2]-(b) RETURN id(a), id(b)",
        // Variable-length from repeated sources, then Expand Into.
        "MATCH (a)-[:T0]->(b)-[*1..2]->(c) RETURN id(a), id(c)",
        "MATCH (a)-[:T0]->(b), (a)-[*1..3]->(b) RETURN id(a), id(b)",
        // Aggregation on top.
        "MATCH (a)-[:T2]->(b) RETURN id(a), count(b) ORDER BY id(a)",
        "MATCH (a)-[*1..2]->(b) RETURN count(b)",
    ]
}

/// Run `query` on `graph` (or `snap`), per-hop and optimized, and check both
/// against the oracle.
fn check(graph: &Graph, snap: Option<&GraphSnapshot>, oracle: &Oracle, query: &str, case: &str) {
    let expected = oracle.answer(query);
    let ast = cypher::parse(query).expect("query parses");
    for (name, plan) in [
        ("per-hop", ExecutionPlan::build_unoptimized(&ast)),
        ("optimized", ExecutionPlan::build(&ast)),
    ] {
        let plan = plan.expect("query plans");
        let params = plan.bind(&Params::new()).expect("no parameters");
        let rs = match snap {
            Some(snap) => snap.run(&plan, &params, Instant::now(), None),
            None => plan.run(GraphAccess::Read(graph), &params, Instant::now(), None),
        }
        .expect("query executes");
        assert_eq!(
            sorted(rs.rows.to_vec()),
            expected,
            "{name} plan diverged from the oracle ({case}): {query}"
        );
    }
}

#[test]
fn executor_matches_the_edge_list_oracle() {
    // Six small graphs, and one wide enough that a traversal sees hundreds of
    // records from many distinct sources.
    let sizes = (0..6u64).map(|seed| (seed, 8 + seed * 7)).chain([(6, 120)]);
    for (seed, nodes) in sizes {
        let (mut g, oracle) = random_graph(seed, nodes, nodes as usize * 3);
        g.sync_matrices();
        for query in queries() {
            check(&g, None, &oracle, query, &format!("flushed, seed {seed}"));
        }
    }
}

#[test]
fn oracle_agreement_holds_on_unflushed_graphs_and_sealed_snapshots() {
    for seed in [3u64, 99] {
        let (mut g, mut oracle) = random_graph(seed, 24, 80);
        churn(seed, &mut g, &mut oracle);
        let snap = g.snapshot();
        for query in queries() {
            check(&g, None, &oracle, query, &format!("unflushed, seed {seed}"));
            check(&g, Some(&snap), &oracle, query, &format!("snapshot, seed {seed}"));
        }
        assert!(g.has_pending_deltas(), "read-only queries must not flush");
    }
}

#[test]
fn single_hop_yields_one_row_per_parallel_edge() {
    // A hand-rolled oracle: the `baseline` crate sorts-and-dedups its edge
    // list, so it would under-count here.
    let mut g = Graph::new("multi");
    for _ in 0..4 {
        g.add_node(&["A"], vec![]);
    }
    let mut oracle: Vec<(u64, u64, u64, &str)> = Vec::new(); // (src, edge, dst, rel)
    for &(src, dst, rel) in &[
        (0, 1, "T0"),
        (0, 1, "T0"), // parallel same-type
        (0, 1, "T0"), // triple
        (0, 1, "T1"), // cross-type parallel
        (1, 2, "T0"),
        (2, 2, "T0"), // self-loop
        (2, 2, "T0"), // parallel self-loop
        (3, 0, "T1"),
    ] {
        let e = g.add_edge(src, dst, rel, vec![]).unwrap();
        oracle.push((src, e, dst, rel));
    }

    let expect = |oracle: &[(u64, u64, u64, &str)], rel: Option<&str>| {
        let mut rows: Vec<(u64, u64, u64)> = oracle
            .iter()
            .filter(|(_, _, _, r)| rel.is_none_or(|want| *r == want))
            .map(|&(s, e, d, _)| (s, e, d))
            .collect();
        rows.sort_unstable();
        rows
    };
    let observed = |g: &mut Graph, query: &str| {
        let rs = g.query(query).expect("query executes");
        let mut rows: Vec<(u64, u64, u64)> = rs
            .rows
            .iter()
            .map(|row| {
                let ints: Vec<u64> = row.iter().map(|v| v.as_i64().unwrap() as u64).collect();
                (ints[0], ints[1], ints[2])
            })
            .collect();
        rows.sort_unstable();
        rows
    };

    // Typed: three T0 edges between (0,1) → three rows with distinct ids.
    let got = observed(&mut g, "MATCH (a)-[e:T0]->(b) RETURN id(a), id(e), id(b)");
    assert_eq!(got, expect(&oracle, Some("T0")), "typed");
    // Untyped: every edge, exactly once.
    let got = observed(&mut g, "MATCH (a)-[e]->(b) RETURN id(a), id(e), id(b)");
    assert_eq!(got, expect(&oracle, None), "untyped");
    // No edge variable bound: multiplicity still one row per edge.
    let rs = g.query("MATCH (a)-[:T0]->(b) RETURN id(a), id(b)").unwrap();
    assert_eq!(rs.rows.len(), expect(&oracle, Some("T0")).len(), "unbound");
    // Incoming direction expands the same parallel cells.
    let rs = g.query("MATCH (b)<-[e:T0]-(a) RETURN id(e)").unwrap();
    assert_eq!(rs.rows.len(), expect(&oracle, Some("T0")).len(), "incoming");

    // Deleting one parallel edge drops exactly its row; the survivors keep
    // traversing through the re-pointed representative cell.
    let (src, victim, dst, rel) = oracle[1];
    let rel = g.schema.rel_type_id(rel).unwrap() as u32;
    assert!(g.delete_edge(&Value::Edge { id: victim, src, dst, rel }));
    oracle.retain(|&(_, e, _, _)| e != victim);
    let got = observed(&mut g, "MATCH (a)-[e:T0]->(b) RETURN id(a), id(e), id(b)");
    assert_eq!(got, expect(&oracle, Some("T0")), "after delete");
}

#[test]
fn empty_frontier_edge_cases() {
    let mut g = Graph::new("empty");
    // No nodes at all.
    let rs = g.query("MATCH (a)-[:T0]->(b) RETURN id(b)").unwrap();
    assert!(rs.rows.is_empty());
    // Nodes but no edges; unknown relationship type.
    g.add_node(&["A"], vec![]);
    g.add_node(&["A"], vec![]);
    let rs = g.query("MATCH (a)-[]->(b) RETURN id(b)").unwrap();
    assert!(rs.rows.is_empty());
    let rs = g.query("MATCH (a)-[:NOPE]->(b) RETURN id(b)").unwrap();
    assert!(rs.rows.is_empty());
    // Variable-length over an edgeless graph still honours hop 0.
    let rs = g.query("MATCH (a)-[*0..3]->(b) RETURN count(b)").unwrap();
    assert_eq!(format!("{:?}", rs.rows), "[[Int(2)]]");
}
