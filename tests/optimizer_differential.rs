//! Differential tests for the algebraic expression optimizer: every query
//! shape must return the *same multiset of rows* with the optimizer on
//! (chains fused into one `A_R·A_S` product, labels pushed down as masks,
//! aggregates fed weighted counts) and off (one Traverse op per hop).
//!
//! The graphs are deliberately hostile multigraphs — parallel same-type
//! edges, cross-type parallels, self-loops — because fusion runs on a
//! *counting* semiring: a cell holding `k` parallel edges must contribute
//! `k` rows (or weight `k` into an aggregate), exactly like the unfused
//! plan's per-edge expansion. Row *order* is not part of the contract (the
//! fused plan emits destination-major), so comparisons sort first.
//!
//! A companion golden test snapshots `GRAPH.EXPLAIN` for fused shapes under
//! `tests/golden/explain_optimizer.snap`; regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test optimizer_differential`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redisgraph_core::{ExecutionPlan, Graph, TraverseStrategy};
use std::path::PathBuf;

const RELS: [&str; 3] = ["T0", "T1", "T2"];
const LABELS: [&str; 2] = ["A", "B"];

/// Build a random multigraph with self-loops and guaranteed parallel edges.
fn random_graph(seed: u64, nodes: u64, edges: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new("opt-diff");
    for _ in 0..nodes {
        let label = LABELS[rng.gen_range(0..LABELS.len())];
        g.add_node(&[label], vec![]);
    }
    for _ in 0..edges {
        let src = rng.gen_range(0..nodes);
        let dst = if rng.gen_bool(0.1) { src } else { rng.gen_range(0..nodes) };
        let rel = RELS[rng.gen_range(0..RELS.len())];
        g.add_edge(src, dst, rel, vec![]).unwrap();
    }
    // Parallel edges and a self-loop regardless of what the RNG produced.
    if nodes >= 2 {
        g.add_edge(0, 1, "T0", vec![]).unwrap();
        g.add_edge(0, 1, "T0", vec![]).unwrap();
        g.add_edge(0, 1, "T1", vec![]).unwrap();
        g.add_edge(1, 1, "T2", vec![]).unwrap();
    }
    g
}

/// Query shapes the optimizer either fuses (chains with unbound
/// intermediates, label masks, weighted aggregates) or must leave alone
/// (bound intermediates, bound edges, cycles) — both kinds have to stay
/// row-identical to the unfused plan.
fn queries() -> Vec<&'static str> {
    vec![
        // Plain 2-hop chains: typed, repeated type, untyped, multi-type.
        "MATCH (a)-[:T0]->(b)-[:T1]->(c) RETURN id(a), id(c)",
        "MATCH (a)-[:T0]->(b)-[:T0]->(c) RETURN id(a), id(c)",
        "MATCH (a)-[]->(b)-[]->(c) RETURN id(a), id(c)",
        "MATCH (a)-[:T0|T1]->(b)-[:T2]->(c) RETURN id(a), id(c)",
        // 3-hop chain.
        "MATCH (a)-[:T0]->(b)-[:T1]->(c)-[:T2]->(d) RETURN id(a), id(d)",
        // Transposed chains: incoming hops, mixed directions.
        "MATCH (a)<-[:T0]-(b)<-[:T1]-(c) RETURN id(a), id(c)",
        "MATCH (a)-[:T0]->(b)<-[:T1]-(c) RETURN id(a), id(c)",
        "MATCH (a)<-[]-(b)<-[]-(c) RETURN count(c)",
        // Label masks: on the source, mid-chain, on the destination, all.
        "MATCH (a:A)-[:T0]->(b)-[:T1]->(c) RETURN id(a), id(c)",
        "MATCH (a)-[:T0]->(b:B)-[:T1]->(c) RETURN id(a), id(c)",
        "MATCH (a)-[:T0]->(b)-[:T1]->(c:B) RETURN id(a), id(c)",
        "MATCH (a:A)-[:T0]->(b:B)-[:T1]->(c:A) RETURN id(a), id(c)",
        // Single hop that fuses only because of the destination label mask.
        "MATCH (a)-[:T0]->(b:B) RETURN id(a), id(b)",
        // Weighted aggregates: the fused plan feeds path *counts* into the
        // accumulator instead of materialising one record per path.
        "MATCH (a)-[:T0]->(b)-[:T1]->(c) RETURN count(c)",
        "MATCH (a)-[]->(b)-[]->(c) RETURN count(*)",
        "MATCH (a)-[:T0]->(b)-[:T1]->(c) RETURN sum(id(c))",
        "MATCH (a)-[:T0]->(b)-[:T1]->(c) RETURN min(id(c)), max(id(c))",
        "MATCH (a:A)-[:T0]->(b)-[:T0]->(c) RETURN id(a), count(c) ORDER BY id(a)",
        "MATCH (a)-[:T0]->(b)-[:T1]->(c) RETURN count(DISTINCT id(c))",
        // Not fusable — the plans must agree here too.
        "MATCH (a)-[:T0]->(b)-[:T1]->(c) RETURN id(a), id(b), id(c)", // live intermediate
        "MATCH (a)-[e:T0]->(b)-[:T1]->(c) RETURN id(e), id(c)",       // bound edge
        "MATCH (a)-[:T0]->(b)-[:T0]->(a) RETURN id(a)",               // cycle (expand into)
        "MATCH (a)-[:T0]->(b)-[:T1]->(c) WHERE id(a) < 5 RETURN id(a), id(c)",
    ]
}

/// Plan `query` with the optimizer (fused) or without it (one Traverse op
/// per hop — the oracle).
fn plan(optimize: bool, query: &str) -> ExecutionPlan {
    let ast = cypher::parse(query).expect("query parses");
    let build = if optimize { ExecutionPlan::build } else { ExecutionPlan::build_unoptimized };
    build(&ast).expect("query plans")
}

/// Run one query and return its rows as a sorted multiset of debug strings.
fn sorted_rows(g: &mut Graph, optimize: bool, query: &str) -> Vec<String> {
    let rs = plan(optimize, query).execute(g).expect("query executes");
    let mut rows: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort_unstable();
    rows
}

#[test]
fn fused_and_unfused_plans_are_row_identical() {
    for seed in 0..4u64 {
        let nodes = 8 + seed * 9; // 8..35 nodes
        let edges = (nodes as usize) * 3;
        for strategy in [TraverseStrategy::Scalar, TraverseStrategy::Batched] {
            let mut g = random_graph(seed, nodes, edges);
            g.set_traverse_strategy(strategy);
            for query in queries() {
                let unfused = sorted_rows(&mut g, false, query);
                let fused = sorted_rows(&mut g, true, query);
                assert_eq!(
                    unfused, fused,
                    "optimizer changed rows on seed {seed} ({strategy:?}): {query}"
                );
            }
        }
    }
}

#[test]
fn fusion_is_correct_on_unflushed_delta_views() {
    // Mutations sit in the DeltaMatrix delta buffers until a flush; fused
    // products must read through the merged view exactly like per-hop
    // traversals. Mutate (including deletes of one of a parallel pair),
    // never flush, and compare again.
    let mut g = random_graph(7, 16, 40);
    g.sync_matrices();
    // Post-flush deltas: more parallel edges plus a deletion.
    g.add_edge(0, 1, "T0", vec![]).unwrap();
    let doomed = g.add_edge(2, 3, "T1", vec![]).unwrap();
    g.add_edge(2, 3, "T1", vec![]).unwrap();
    g.add_edge(3, 3, "T0", vec![]).unwrap();
    assert!(g.delete_edge(doomed));
    for strategy in [TraverseStrategy::Scalar, TraverseStrategy::Batched] {
        g.set_traverse_strategy(strategy);
        for query in queries() {
            let unfused = sorted_rows(&mut g, false, query);
            let fused = sorted_rows(&mut g, true, query);
            assert_eq!(unfused, fused, "delta-view divergence ({strategy:?}): {query}");
        }
    }
}

#[test]
fn readonly_snapshots_honour_the_optimizer_flag() {
    // Lock-free read-only snapshots run the optimized plan; they must agree
    // with the unfused plan on the live graph.
    let mut g = random_graph(11, 12, 36);
    let query = "MATCH (a)-[:T0]->(b)-[:T1]->(c) RETURN id(a), id(c)";

    let fused_snap = g.snapshot();
    let mut fused: Vec<String> = fused_snap
        .query_readonly(query)
        .expect("fused snapshot query")
        .rows
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    fused.sort_unstable();

    let unfused = sorted_rows(&mut g, false, query);
    assert_eq!(unfused, fused);
}

#[test]
fn count_matrix_cache_invalidates_on_mutation() {
    // The fused path memoises counting matrices per epoch; a mutation after
    // a fused query must be visible to the next fused query (stale cache =
    // wrong counts), including a delete that demotes a parallel pair.
    let mut g = Graph::new("cache-inv");
    for _ in 0..3 {
        g.add_node(&["A"], vec![]);
    }
    g.add_edge(0, 1, "T0", vec![]).unwrap();
    g.add_edge(1, 2, "T1", vec![]).unwrap();
    let query = "MATCH (a)-[:T0]->(b)-[:T1]->(c) RETURN count(c)";
    let count = |g: &mut Graph| g.query(query).unwrap().scalar().and_then(|v| v.as_i64()).unwrap();
    assert_eq!(count(&mut g), 1);
    let extra = g.add_edge(0, 1, "T0", vec![]).unwrap(); // parallel pair → 2 paths
    assert_eq!(count(&mut g), 2);
    assert!(g.delete_edge(extra));
    assert_eq!(count(&mut g), 1);
}

// --- EXPLAIN golden snapshots -------------------------------------------

const EXPLAIN_CASES: &[&str] = &[
    // Chain fusion: one Conditional Traverse with the full product.
    "MATCH (a)-[:T0]->(b)-[:T1]->(c) RETURN id(a), id(c)",
    "MATCH (a)-[:T0]->(b)-[:T1]->(c)-[:T2]->(d) RETURN count(d)",
    // Source label rides along from the label scan.
    "MATCH (a:A)-[:T0]->(b)-[:T1]->(c) RETURN id(a), id(c)",
    // Mask pushdown: mid-chain and destination labels become `·L_B` masks.
    "MATCH (a)-[:T0]->(b:B)-[:T1]->(c) RETURN id(a), id(c)",
    "MATCH (a)-[:T0]->(b:B) RETURN id(a), id(b)",
    // Transposed (incoming) chain.
    "MATCH (a)<-[:T0]-(b)<-[:T1]-(c) RETURN id(a), id(c)",
    // Multi-type and untyped operands.
    "MATCH (a)-[:T0|T1]->(b)-[:T2]->(c) RETURN id(a), id(c)",
    "MATCH (a)-[]->(b)-[]->(c) RETURN count(c)",
    // A live intermediate keeps the per-hop plan.
    "MATCH (a)-[:T0]->(b)-[:T1]->(c) RETURN id(a), id(b), id(c)",
];

#[test]
fn explain_matches_golden_snapshot() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let path = dir.join("explain_optimizer.snap");

    let mut out = String::new();
    for query in EXPLAIN_CASES {
        out.push_str(&format!("query: {query}\n"));
        for (tag, optimize) in [("fused", true), ("unfused", false)] {
            out.push_str(&format!("{tag}:\n"));
            for line in plan(optimize, query).describe() {
                out.push_str(&format!("  {line}\n"));
            }
        }
        out.push('\n');
    }

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it", path.display())
    });
    assert_eq!(expected, out, "EXPLAIN snapshot diverged; review and regenerate if intended");
}
