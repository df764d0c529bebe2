//! Differential tests for the two traversal execution strategies: the
//! batched algebraic path (frontier `mxm`) must produce **row-for-row
//! identical** results to the per-record scalar path on every query shape —
//! single hops in every direction, bound edge variables, parallel edges,
//! self-loops, `Expand Into` semi-joins, and variable-length patterns
//! (including `*0..n` and unbounded `*`).
//!
//! Every case runs the same Cypher text twice against the same graph, once
//! per pinned [`TraverseStrategy`], and compares the full result sets
//! (columns, rows, and row order). A third run exercises the batched path
//! over *unflushed* delta matrices (merged `Cow` views) through the
//! read-only executor.
//!
//! Parallel same-type edges are fully expanded: the matrix cell keeps one
//! representative edge id and the store's multi-edge side table holds the
//! rest, so `MATCH (a)-[r:R]->(b)` returns one row **per edge** on both
//! strategies. [`single_hop_yields_one_row_per_parallel_edge`] pins that
//! multiplicity against a hand-rolled edge-list oracle (the `baseline` crate
//! dedups parallel edges, so it cannot serve as the oracle here).

use rand::{Rng, SeedableRng, StdRng};
use redisgraph_core::{ExecutionPlan, Graph, TraverseStrategy};

const RELS: [&str; 3] = ["T0", "T1", "T2"];
const LABELS: [&str; 2] = ["A", "B"];

/// Build a random multigraph: `nodes` labelled nodes, `edges` random edges
/// over three relationship types, deliberately including self-loops and
/// parallel edges (both same-type and cross-type).
fn random_graph(seed: u64, nodes: u64, edges: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new("diff");
    for _ in 0..nodes {
        let label = LABELS[rng.gen_range(0..LABELS.len())];
        g.add_node(&[label], vec![]);
    }
    for _ in 0..edges {
        let src = rng.gen_range(0..nodes);
        // One edge in ten is a self-loop.
        let dst = if rng.gen_bool(0.1) { src } else { rng.gen_range(0..nodes) };
        let rel = RELS[rng.gen_range(0..RELS.len())];
        g.add_edge(src, dst, rel, vec![]).unwrap();
    }
    // Guarantee at least one parallel same-type pair and one cross-type pair
    // regardless of what the RNG produced.
    if nodes >= 2 {
        g.add_edge(0, 1, "T0", vec![]).unwrap();
        g.add_edge(0, 1, "T0", vec![]).unwrap();
        g.add_edge(0, 1, "T1", vec![]).unwrap();
        g.add_edge(1, 1, "T2", vec![]).unwrap(); // self-loop
    }
    g
}

/// Query shapes covering every traversal variant the planner emits.
fn queries() -> Vec<&'static str> {
    vec![
        // Single hop: untyped / typed / multi-type, all three directions.
        "MATCH (a)-[]->(b) RETURN id(a), id(b)",
        "MATCH (a)-[:T0]->(b) RETURN id(a), id(b)",
        "MATCH (a)<-[:T1]-(b) RETURN id(a), id(b)",
        "MATCH (a)-[:T0|T2]-(b) RETURN id(a), id(b)",
        // Bound edge variables (the edge id must come out of the product).
        "MATCH (a)-[e:T0]->(b) RETURN id(a), id(e), id(b)",
        "MATCH (a)-[e]->(b) RETURN id(e), type(e)",
        "MATCH (a)<-[e]-(b) RETURN id(a), id(e), id(b)",
        // Label-filtered endpoints around the traversal.
        "MATCH (a:A)-[:T1]->(b:B) RETURN id(a), id(b)",
        // Expand Into: both endpoints bound by earlier pattern parts.
        "MATCH (a)-[:T0]->(b), (a)-[:T1]->(b) RETURN id(a), id(b)",
        "MATCH (a)-[:T0]->(b), (a)-[e]->(b) RETURN id(a), id(e), id(b)",
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
        // Variable-length Expand Into.
        "MATCH (a)-[:T0]->(b), (a)-[*1..3]->(b) RETURN id(a), id(b)",
        // Aggregation on top (sorted output, exercises the whole pipeline).
        "MATCH (a)-[:T2]->(b) RETURN id(a), count(b) ORDER BY id(a)",
    ]
}

/// The per-hop plan of `query`. This suite compares the scalar and batched
/// traversal *strategies*; keeping the algebraic optimizer out of the picture
/// makes both sides execute the same Traverse ops (fused plans are covered by
/// optimizer_differential).
fn unoptimized(query: &str) -> ExecutionPlan {
    ExecutionPlan::build_unoptimized(&cypher::parse(query).expect("query parses"))
        .expect("query plans")
}

/// Run one query under a pinned strategy and return (columns, rows).
fn run(g: &mut Graph, strategy: TraverseStrategy, query: &str) -> (Vec<String>, String) {
    g.set_traverse_strategy(strategy);
    let rs = unoptimized(query).execute(g).expect("query executes");
    (rs.columns.clone(), format!("{:?}", rs.rows))
}

#[test]
fn batched_and_scalar_strategies_are_row_identical() {
    for seed in 0..6u64 {
        let nodes = 8 + seed * 7; // 8..43 nodes
        let edges = (nodes as usize) * 3;
        let mut g = random_graph(seed, nodes, edges);
        for query in queries() {
            let scalar = run(&mut g, TraverseStrategy::Scalar, query);
            let batched = run(&mut g, TraverseStrategy::Batched, query);
            assert_eq!(scalar, batched, "strategies diverged on seed {seed}: {query}");
        }
    }
}

#[test]
fn single_hop_yields_one_row_per_parallel_edge() {
    // Hand-rolled oracle: record every edge as it is inserted. The `baseline`
    // crate sorts-and-dedups its edge list, so it would under-count here.
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
    let observed = |g: &mut Graph, strategy: TraverseStrategy, query: &str| {
        g.set_traverse_strategy(strategy);
        let rs = g.query(query).expect("query executes");
        let mut rows: Vec<(u64, u64, u64)> = rs
            .rows
            .iter()
            .map(|row| {
                let ints: Vec<u64> = row
                    .iter()
                    .map(|v| {
                        format!("{v:?}")
                            .trim_start_matches("Int(")
                            .trim_end_matches(')')
                            .parse()
                            .unwrap()
                    })
                    .collect();
                (ints[0], ints[1], ints[2])
            })
            .collect();
        rows.sort_unstable();
        rows
    };

    for strategy in [TraverseStrategy::Scalar, TraverseStrategy::Batched] {
        // Typed: three T0 edges between (0,1) → three rows with distinct ids.
        let got = observed(&mut g, strategy, "MATCH (a)-[e:T0]->(b) RETURN id(a), id(e), id(b)");
        assert_eq!(got, expect(&oracle, Some("T0")), "{strategy:?} typed");
        // Untyped: every edge, exactly once.
        let got = observed(&mut g, strategy, "MATCH (a)-[e]->(b) RETURN id(a), id(e), id(b)");
        assert_eq!(got, expect(&oracle, None), "{strategy:?} untyped");
        // No edge variable bound: multiplicity still one row per edge.
        g.set_traverse_strategy(strategy);
        let rs = g.query("MATCH (a)-[:T0]->(b) RETURN id(a), id(b)").unwrap();
        assert_eq!(rs.rows.len(), expect(&oracle, Some("T0")).len(), "{strategy:?} unbound");
        // Incoming direction expands the same parallel cells.
        let rs = g.query("MATCH (b)<-[e:T0]-(a) RETURN id(e)").unwrap();
        assert_eq!(rs.rows.len(), expect(&oracle, Some("T0")).len(), "{strategy:?} incoming");
    }

    // Deleting one parallel edge drops exactly its row; the survivors keep
    // traversing through the re-pointed representative cell.
    let victim = oracle[1].1;
    assert!(g.delete_edge(victim));
    oracle.retain(|&(_, e, _, _)| e != victim);
    for strategy in [TraverseStrategy::Scalar, TraverseStrategy::Batched] {
        let got = observed(&mut g, strategy, "MATCH (a)-[e:T0]->(b) RETURN id(a), id(e), id(b)");
        assert_eq!(got, expect(&oracle, Some("T0")), "{strategy:?} after delete");
    }
}

#[test]
fn batched_strategy_reads_unflushed_delta_views() {
    // Mutations stay buffered (huge threshold, no sync): the batched path
    // must answer from the merged Cow views exactly like the scalar path.
    let mut g = random_graph(99, 24, 80);
    g.set_flush_threshold(1_000_000);
    g.add_edge(2, 3, "T0", vec![]).unwrap();
    g.add_edge(3, 2, "T1", vec![]).unwrap();
    assert!(g.has_pending_deltas(), "edges must still be buffered");

    for query in queries() {
        let plan = unoptimized(query);
        g.set_traverse_strategy(TraverseStrategy::Scalar);
        let scalar = plan.execute_read_only(&g).expect("scalar run");
        g.set_traverse_strategy(TraverseStrategy::Batched);
        let batched = plan.execute_read_only(&g).expect("batched run");
        assert_eq!(
            format!("{:?}", scalar.rows),
            format!("{:?}", batched.rows),
            "strategies diverged on pending-delta graph: {query}"
        );
        assert!(g.has_pending_deltas(), "read-only queries must not flush");
    }
}

#[test]
fn auto_strategy_matches_scalar_on_large_batches() {
    // A graph wide enough that the first traversal sees more records than
    // BATCH_TRAVERSE_MIN_RECORDS, so Auto actually takes the batched path.
    let mut g = random_graph(7, 200, 800);
    for query in [
        "MATCH (a)-[:T0]->(b)-[:T1]->(c) RETURN id(a), id(c)",
        "MATCH (a)-[*1..2]->(b) RETURN count(b)",
    ] {
        let scalar = run(&mut g, TraverseStrategy::Scalar, query);
        let auto = run(&mut g, TraverseStrategy::Auto, query);
        assert_eq!(scalar, auto, "auto diverged from scalar: {query}");
    }
}

#[test]
fn empty_frontier_edge_cases() {
    let mut g = Graph::new("empty");
    // No nodes at all.
    for strategy in [TraverseStrategy::Scalar, TraverseStrategy::Batched] {
        g.set_traverse_strategy(strategy);
        let rs = g.query("MATCH (a)-[:T0]->(b) RETURN id(b)").unwrap();
        assert!(rs.rows.is_empty(), "{strategy:?}");
    }
    // Nodes but no edges; unknown relationship type.
    g.add_node(&["A"], vec![]);
    g.add_node(&["A"], vec![]);
    for strategy in [TraverseStrategy::Scalar, TraverseStrategy::Batched] {
        g.set_traverse_strategy(strategy);
        let rs = g.query("MATCH (a)-[]->(b) RETURN id(b)").unwrap();
        assert!(rs.rows.is_empty(), "{strategy:?}");
        let rs = g.query("MATCH (a)-[:NOPE]->(b) RETURN id(b)").unwrap();
        assert!(rs.rows.is_empty(), "{strategy:?}");
        // Variable-length over an edgeless graph still honours hop 0.
        let rs = g.query("MATCH (a)-[*0..3]->(b) RETURN count(b)").unwrap();
        assert_eq!(format!("{:?}", rs.rows), "[[Int(2)]]", "{strategy:?}");
    }
}
