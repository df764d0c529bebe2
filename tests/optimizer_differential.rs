//! Differential tests for the algebraic expression optimizer: every query
//! shape must return the *same multiset of rows* with the optimizer on
//! (chains fused into one `A_R·A_S` product, labels pushed down as masks,
//! aggregates fed weighted counts, `WHERE` conjuncts placed next to their
//! binding op, var-length counts reduced over reached sets) and off (one
//! Traverse op per hop, one Filter per `WHERE`, materialised aggregates).
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
use redisgraph_core::{ExecutionPlan, Graph, GraphAccess, ParamValues, Params, Value};
use std::path::PathBuf;
use std::time::Instant;

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
        // Filter placement: conjuncts move next to the op binding their last
        // variable; variable-free ones stay put.
        "MATCH (a)-[:T0]->(b)-[:T1]->(c) WHERE id(c) > 2 AND id(a) < 9 RETURN id(a), id(c)",
        "MATCH (a:A), (b:B) WHERE id(b) = id(a) + 1 AND id(a) > 3 RETURN id(a), id(b)",
        "MATCH (a)-[e:T0]->(b) WHERE 1 = 1 AND id(e) > 1 RETURN count(*)",
        "MATCH (a)-[:T1]->(b) WITH b WHERE id(b) < 7 RETURN count(b)",
    ]
    .into_iter()
    .chain(COUNT_PUSHDOWN.iter().copied())
    .chain(NO_COUNT_PUSHDOWN.iter().copied())
    .collect()
}

/// Counted variable-length shapes the optimizer reduces over reached sets
/// (`Conditional Traverse | … | Aggregate pushdown`): distinct and total
/// counts, typed and untyped, every direction, `*0..k`, unbounded, one
/// seek or many source records, repeated sources, SKIP/LIMIT.
const COUNT_PUSHDOWN: &[&str] = &[
    "MATCH (s)-[*1..3]->(n) WHERE id(s) = 0 RETURN count(DISTINCT n)",
    "MATCH (a)-[*1..3]->(b) RETURN count(DISTINCT b)",
    "MATCH (a:A)-[*1..2]->(b) RETURN count(b)",
    "MATCH (a)-[:T0*1..3]->(b) RETURN count(*)",
    "MATCH (a)<-[:T1|T2*1..2]-(b) RETURN count(DISTINCT b), count(b)",
    "MATCH (a)-[*1..2]-(b) RETURN count(DISTINCT b) AS d, count(*) AS c",
    "MATCH (a:B)-[:T0*0..2]-(b) RETURN count(b), count(DISTINCT b)",
    "MATCH (a)-[:T2*0..]->(b) RETURN count(*)",
    "MATCH (a)-[:T0]->(b), (b)-[*1..2]->(c) RETURN count(c), count(DISTINCT c)",
    "MATCH (s)-[:T0*1..2]-(n) WHERE id(s) = 1 RETURN count(n) SKIP 1",
    "MATCH (s)-[*2..2]->(n) WHERE id(s) < 3 RETURN count(DISTINCT n) LIMIT 0",
    "MATCH (a)-[:NOPE*1..2]->(b) RETURN count(b), count(DISTINCT b)",
];

/// Near misses that must keep the materialising `Traverse` + `Aggregate`.
const NO_COUNT_PUSHDOWN: &[&str] = &[
    "MATCH (a)-[*1..2]->(b) RETURN id(a), count(b)", // group key
    "MATCH (a)-[*1..2]->(b) RETURN count(b.x)",      // not the node
    "MATCH (a)-[*1..2]->(b) RETURN count(id(b))",    // not the node
    "MATCH (a)-[*1..2]->(b) RETURN collect(b)",      // not a count
    "MATCH (a)-[*1..2]->(b) RETURN count(a)",        // not the dst
    "MATCH (a)-[:T0]->(b), (a)-[*1..3]->(b) RETURN count(b)", // expand into
    "MATCH (a)-[*1..2]->(b:A) RETURN count(DISTINCT b)", // label filter between
    "MATCH (a)-[:T0]->(b) RETURN count(DISTINCT b)", // single hop
];

/// Plan `query` with the optimizer (fused) or without it (one Traverse op
/// per hop — the oracle).
fn plan(optimize: bool, query: &str) -> ExecutionPlan {
    let ast = cypher::parse(query).expect("query parses");
    let build = if optimize { ExecutionPlan::build } else { ExecutionPlan::build_unoptimized };
    build(&ast).expect("query plans")
}

/// The parameter values of a plan that takes none.
fn unbound(plan: &ExecutionPlan) -> ParamValues {
    plan.bind(&Params::new()).expect("no parameters")
}

/// Run one query and return its rows as a sorted multiset of debug strings.
fn sorted_rows(g: &mut Graph, optimize: bool, query: &str) -> Vec<String> {
    let plan = plan(optimize, query);
    let rs = plan.run(GraphAccess::Write(g), &unbound(&plan), Instant::now(), None);
    let rs = rs.expect("query executes");
    sorted(&rs.rows.to_vec())
}

/// Rows as a sorted multiset of debug strings.
fn sorted(rows: &[Vec<Value>]) -> Vec<String> {
    let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort_unstable();
    rows
}

#[test]
fn fused_and_unfused_plans_are_row_identical() {
    for seed in 0..4u64 {
        let nodes = 8 + seed * 9; // 8..35 nodes
        let edges = (nodes as usize) * 3;
        let mut g = random_graph(seed, nodes, edges);
        for query in queries() {
            let unfused = sorted_rows(&mut g, false, query);
            let fused = sorted_rows(&mut g, true, query);
            assert_eq!(unfused, fused, "optimizer changed rows on seed {seed}: {query}");
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
    assert!(g.delete_edge(&edge(&g, "T1", 2, 3, doomed)));
    for query in queries() {
        let unfused = sorted_rows(&mut g, false, query);
        let fused = sorted_rows(&mut g, true, query);
        assert_eq!(unfused, fused, "delta-view divergence: {query}");
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
fn count_pushdown_applies_exactly_to_its_shapes() {
    // Keeps the differential above honest: the positive shapes really run
    // the reduce, the near misses really materialise.
    let pushed = |query: &str| plan(true, query).describe().join("\n").contains("pushdown");
    for query in COUNT_PUSHDOWN {
        assert!(pushed(query), "expected a count pushdown: {query}");
        assert!(!plan(false, query).describe().join("\n").contains("pushdown"), "{query}");
    }
    for query in NO_COUNT_PUSHDOWN {
        assert!(!pushed(query), "unexpected count pushdown: {query}");
    }
}

/// The value a traversal binds for edge `id` of type `rel` from `src` to
/// `dst`: what `delete_edge` takes.
fn edge(g: &Graph, rel: &str, src: u64, dst: u64, id: u64) -> Value {
    Value::Edge { id, src, dst, rel: g.schema.rel_type_id(rel).unwrap() as u32 }
}

/// A flushed graph with pending changes on top, which nothing folds on its
/// own: inserts, deletes of flushed edges (one of them a parallel pair's
/// matrix representative) and an insert deleted again.
fn dirty_graph() -> Graph {
    let mut g = random_graph(5, 20, 60);
    g.sync_matrices();
    g.set_flush_threshold(1_000_000);
    g.add_edge(2, 3, "T0", vec![]).unwrap();
    g.add_edge(3, 4, "T0", vec![]).unwrap();
    for (rel, src, dst) in [("T0", 0, 1), ("T2", 1, 1)] {
        let rel = g.schema.rel_type_id(rel).unwrap();
        let flushed = g.edges_between(rel, src, dst).next().expect("random_graph adds it");
        assert!(g.delete_edge(&Value::Edge { id: flushed, src, dst, rel: rel as u32 }));
    }
    let doomed = g.add_edge(4, 5, "T1", vec![]).unwrap();
    assert!(g.delete_edge(&edge(&g, "T1", 4, 5, doomed)));
    assert!(g.has_pending_deltas(), "edges must still be buffered");
    g
}

/// The materialising plan's rows on a flushed copy of `g`, sorted: its
/// traversals read the folded CSRs, not the delta rows under test.
fn flushed_oracle(g: &Graph, query: &str) -> Vec<String> {
    let mut flushed = g.clone();
    flushed.sync_matrices();
    let plan = plan(false, query);
    let rs = plan.run(GraphAccess::Read(&flushed), &unbound(&plan), Instant::now(), None).unwrap();
    sorted(&rs.rows.to_vec())
}

#[test]
fn count_pushdown_reads_unflushed_snapshots() {
    // A sealed snapshot with pending deltas runs every plan on its pinned
    // graph: the pushed-down op's BFS reads the merged rows of the dirty
    // matrices in place, and must agree with the materialising plan on a
    // flushed copy.
    let g = dirty_graph();
    let snap = g.snapshot();
    for query in COUNT_PUSHDOWN {
        let plan = plan(true, query);
        let pushed = snap.run(&plan, &unbound(&plan), Instant::now(), None).unwrap();
        assert_eq!(sorted(&pushed.rows.to_vec()), flushed_oracle(&g, query), "{query}");
    }
    assert!(g.has_pending_deltas(), "read-only queries must not flush");
}

#[test]
fn count_pushdown_through_write_access_folds_nothing() {
    // With write access a var-length plan reads the buffers in place, as
    // any reader does: no flush runs before it, so the graph stays dirty.
    let mut g = dirty_graph();
    let flushes = g.delta_flush_count();
    for query in COUNT_PUSHDOWN {
        let oracle = flushed_oracle(&g, query);
        let plan = plan(true, query);
        let pushed =
            plan.run(GraphAccess::Write(&mut g), &unbound(&plan), Instant::now(), None).unwrap();
        assert_eq!(sorted(&pushed.rows.to_vec()), oracle, "{query}");
    }
    assert!(g.has_pending_deltas(), "a read through write access must not flush");
    assert_eq!(g.delta_flush_count(), flushes);
}

#[test]
fn fusion_reads_unflushed_snapshots() {
    // A fused chain's hops read the merged rows of the dirty matrices in
    // place, on a sealed snapshot as on the live graph: every fused shape
    // must agree with the materialising plan on a flushed copy, and nothing
    // may fold the pending deltas.
    let g = dirty_graph();
    let flushes = g.delta_flush_count();
    let snap = g.snapshot();
    let mut fused_shapes = 0;
    for query in queries() {
        let fused = plan(true, query);
        if !fused.describe().iter().any(|line| line.contains("·A")) {
            continue;
        }
        fused_shapes += 1;
        let rows = snap.run(&fused, &unbound(&fused), Instant::now(), None).unwrap().rows.to_vec();
        assert_eq!(sorted(&rows), flushed_oracle(&g, query), "{query}");
    }
    assert!(fused_shapes >= 21, "queries() has 21 fused shapes, {fused_shapes} planned fused");
    assert!(g.has_pending_deltas(), "read-only queries must not flush");
    assert_eq!(g.delta_flush_count(), flushes);
}

#[test]
fn fused_counts_follow_parallel_edge_mutations() {
    // Fused chains weight each cell by its parallel-edge count, read from
    // the edge list a tagged cell names, in the graph they run on: a
    // mutation after a fused query must be visible to the next one,
    // including a delete that demotes a parallel pair, while a snapshot
    // taken before the delete keeps the pair.
    let mut g = Graph::new("multiplicity");
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
    let snap = g.snapshot();
    assert!(g.delete_edge(&edge(&g, "T0", 0, 1, extra)));
    assert_eq!(count(&mut g), 1);
    let in_snapshot = snap.query_readonly(query).unwrap().scalar().and_then(|v| v.as_i64());
    assert_eq!(in_snapshot, Some(2));
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
    // Count pushdown: the paper's k-hop query reduces the reached set, its
    // `WHERE` answered by the seek alone; a typed undirected `*0..k` shape.
    "MATCH (s)-[*1..6]->(n) WHERE id(s) = 0 RETURN count(DISTINCT n)",
    "MATCH (a:A)-[:T0|T1*0..2]-(b) RETURN count(b), count(*) AS c",
    // The shapes rgbench serves: point, chain2, the `mixed_rw` CREATE and
    // DELETE, and the k-hop query. Each seek answers its own `id(…) = $p`;
    // the DELETE keeps `id(y) = $b` as a filter, since a traverse binds `y`.
    "MATCH (s:Node)-[:LINK]->(t) WHERE id(s) = $k RETURN count(t)",
    "MATCH (s:Node)-[:LINK]->()-[:LINK]->(t) WHERE id(s) = $id RETURN id(t)",
    "MATCH (x:Node),(y:Node) WHERE id(x)=$a AND id(y)=$b CREATE (x)-[:LINK]->(y)",
    "MATCH (x:Node)-[e:LINK]->(y:Node) WHERE id(x)=$a AND id(y)=$b DELETE e",
    "MATCH (s)-[*1..6]->(n) WHERE id(s) = $id RETURN count(DISTINCT n)",
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
