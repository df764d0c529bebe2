//! Whole-store differential proptest: the delta-matrix write path must be
//! observationally identical to eager flushing at every level of the stack.
//!
//! Each case runs one random workload of `add_node` / `add_edge` /
//! `delete_edge` / `delete_node` / property writes / explicit flushes against
//! three models simultaneously:
//!
//! * **delta** — a [`Graph`] with a small flush threshold, so automatic
//!   flushes trigger at arbitrary points mid-workload;
//! * **eager** — a [`Graph`] with threshold 1 plus an explicit
//!   `sync_matrices()` after every mutation (the pre-delta behaviour);
//! * **baseline** — the adjacency-list oracle from `crates/baseline`,
//!   rebuilt from the live edge set at every checkpoint (no matrices at all).
//!
//! At random checkpoints (and always at the end) the harness asserts equal
//! derived adjacency / relation / label matrices, each stored transpose
//! holding its relation's pattern transposed, equal per-type incoming
//! neighbours (read through the transposes), equal Cypher query
//! results on both the write and the read-only paths — including through an
//! epoch [`GraphSnapshot`] — every `CALL algo.*` procedure answering as the
//! `baseline` crate's matrix-free algorithms do over the live edges (each
//! edge weighted, so `algo.sssp` takes the cheapest of parallel and
//! cross-type edges), and k-hop counts that agree with the baseline BFS.
//!
//! A third property checks every reader of node labels against a shadow of
//! the labels each Cypher `CREATE` wrote, with the label diagonals pending
//! and folded, on the graph and on a snapshot (see
//! [`every_label_reader_agrees_with_the_labels_written`]). A fourth checks
//! every live edge's properties, the edge count and the order in which
//! freed edge ids are reused against a shadow of edges with and without
//! properties, under property sets and removals, edge and node deletes (see
//! [`every_edge_property_agrees_with_the_properties_written`]).
//!
//! Two further (non-property) tests pin the MVCC semantics the server's
//! lock-free read path depends on: a snapshot pinned at epoch N answers
//! identically before, while, and after a concurrent writer publishes epoch
//! N+1; and a write-heavy flush loop reclaims superseded epochs instead of
//! accumulating them.

use baseline::AdjacencyListGraph;
use graphblas::prelude::{transpose, DEFAULT_FLUSH_THRESHOLD};
use proptest::prelude::*;
use redisgraph_core::{Graph, GraphSnapshot, TraverseDir, Value};
use std::collections::{BTreeMap, BTreeSet};

/// One scripted workload step, decoded from a generated tuple.
#[derive(Debug, Clone, Copy)]
enum Step {
    AddNode { label_sel: u64 },
    AddEdge { src_sel: u64, dst_sel: u64, rel_sel: u64 },
    DeleteEdge { edge_sel: u64 },
    DeleteNode { node_sel: u64 },
    SetProp { node_sel: u64, value: u64 },
    Flush,
    Checkpoint,
}

fn decode((kind, a, b, c): (u8, u64, u64, u64)) -> Step {
    match kind {
        // Node/edge creation is over-weighted so graphs actually grow.
        0 | 1 => Step::AddNode { label_sel: a },
        2..=5 => Step::AddEdge { src_sel: a, dst_sel: b, rel_sel: c },
        6 => Step::DeleteEdge { edge_sel: a },
        7 => Step::DeleteNode { node_sel: a },
        8 => Step::SetProp { node_sel: a, value: b },
        9 => Step::Flush,
        _ => Step::Checkpoint,
    }
}

fn steps() -> impl Strategy<Value = Vec<(u8, u64, u64, u64)>> {
    prop::collection::vec((0u8..11, 0u64..1000, 0u64..1000, 0u64..3), 0..60)
}

const LABELS: [&str; 2] = ["A", "B"];
const RELS: [&str; 3] = ["R0", "R1", "R2"];

/// Mirror of the live entity state, used to drive both graphs identically and
/// to rebuild the baseline oracle at checkpoints.
#[derive(Default)]
struct Shadow {
    nodes: Vec<u64>,
    edges: Vec<(u64, usize, u64, u64, f64)>, // (edge id, index into RELS, src, dst, weight)
}

/// Apply one step to both graphs (and the shadow). Both graphs run exactly
/// the same calls; the eager one is additionally flushed after every step.
fn apply(step: Step, delta: &mut Graph, eager: &mut Graph, shadow: &mut Shadow) -> bool {
    let did_mutate = match step {
        Step::AddNode { label_sel } => {
            let label = LABELS[(label_sel % 2) as usize];
            let props = vec![("v", Value::Int(label_sel as i64))];
            let id_d = delta.add_node(&[label], props.clone());
            let id_e = eager.add_node(&[label], props);
            assert_eq!(id_d, id_e, "node id allocation diverged");
            shadow.nodes.push(id_d);
            true
        }
        Step::AddEdge { src_sel, dst_sel, rel_sel } => {
            if shadow.nodes.is_empty() {
                return false;
            }
            let src = shadow.nodes[(src_sel as usize) % shadow.nodes.len()];
            let dst = shadow.nodes[(dst_sel as usize) % shadow.nodes.len()];
            let rel = (rel_sel % 3) as usize;
            // A fifth of the edges has no weight and weighs 1.
            let weight = ((src_sel + dst_sel) % 5) as f64 * 0.75;
            let props = || (weight > 0.0).then(|| vec![("weight", Value::Float(weight))]);
            let id_d = delta.add_edge(src, dst, RELS[rel], props().unwrap_or_default());
            let id_e = eager.add_edge(src, dst, RELS[rel], props().unwrap_or_default());
            let (id_d, id_e) = (id_d.expect("live endpoints"), id_e.expect("live endpoints"));
            assert_eq!(id_d, id_e, "edge id allocation diverged");
            shadow.edges.push((id_d, rel, src, dst, if weight > 0.0 { weight } else { 1.0 }));
            true
        }
        Step::DeleteEdge { edge_sel } => {
            if shadow.edges.is_empty() {
                return false;
            }
            let idx = (edge_sel as usize) % shadow.edges.len();
            let (id, rel, src, dst, _) = shadow.edges.swap_remove(idx);
            let rel = delta.schema.rel_type_id(RELS[rel]).expect("made by its first edge") as u32;
            let edge = Value::Edge { id, src, dst, rel };
            assert_eq!((delta.delete_edge(&edge), eager.delete_edge(&edge)), (true, true));
            true
        }
        Step::DeleteNode { node_sel } => {
            if shadow.nodes.is_empty() {
                return false;
            }
            let idx = (node_sel as usize) % shadow.nodes.len();
            let nid = shadow.nodes.swap_remove(idx);
            assert_eq!(delta.delete_node(nid), eager.delete_node(nid));
            shadow.edges.retain(|&(_, _, s, d, _)| s != nid && d != nid);
            true
        }
        Step::SetProp { node_sel, value } => {
            if shadow.nodes.is_empty() {
                return false;
            }
            let nid = shadow.nodes[(node_sel as usize) % shadow.nodes.len()];
            let v = Value::Int(value as i64);
            assert_eq!(
                delta.set_node_property(nid, "v", v.clone()),
                eager.set_node_property(nid, "v", v)
            );
            true
        }
        Step::Flush => {
            delta.sync_matrices(); // flush-at-arbitrary-point
            false
        }
        Step::Checkpoint => false,
    };
    if did_mutate {
        eager.sync_matrices(); // the eager oracle never buffers
    }
    did_mutate
}

/// Queries whose results must match between the two graphs at checkpoints.
const CHECK_QUERIES: [&str; 6] = [
    "MATCH (n) RETURN count(n)",
    "MATCH (a:A) RETURN count(a)",
    "MATCH (a)-[:R0]->(b) RETURN count(b)",
    "MATCH (a)-[r]->(b) RETURN count(r)",
    "MATCH (a:A)-[*1..3]->(b) RETURN count(DISTINCT b)",
    "MATCH (a)<-[:R1]-(b) RETURN count(b)",
];

/// A procedure's rows as `node id → its numeric column`.
fn proc_rows(g: &Graph, query: &str) -> BTreeMap<u64, f64> {
    let rs = g.query_readonly(query).unwrap_or_else(|e| panic!("`{query}`: {e}"));
    let row = |row: &[Value]| match row {
        [Value::Node(node), value] => (*node, value.as_f64().expect("a number")),
        other => panic!("`{query}` returned {other:?}"),
    };
    rs.rows.iter().map(row).collect()
}

/// Every `CALL algo.*` procedure on `g` against the `baseline` algorithms
/// over the shadow's live edges, self-loops included, with node ids as
/// vertex ids (a deleted id is an isolated vertex, which no answer below
/// reads) — but PageRank, whose vertex count is the live node count, runs
/// on the live ids numbered in order. BFS levels, WCC labels and triangle
/// counts must match exactly; SSSP distances and PageRank scores to 1e-9.
fn check_procedures(who: &str, g: &Graph, shadow: &Shadow) -> Result<(), TestCaseError> {
    use baseline::algorithms as oracle;
    let n = shadow.nodes.iter().max().map_or(0, |&max| max + 1);
    let mut pattern: Vec<(u64, u64)> = shadow.edges.iter().map(|e| (e.2, e.3)).collect();
    pattern.sort_unstable();
    pattern.dedup();
    let mut live = shadow.nodes.clone();
    live.sort_unstable();
    let close = |got: &BTreeMap<u64, f64>, want: &BTreeMap<u64, f64>| {
        got.len() == want.len()
            && got.iter().zip(want).all(|((v, x), (w, y))| v == w && (x - y).abs() < 1e-9)
    };

    let triangles = g.query_readonly("CALL algo.triangles() YIELD triangles RETURN triangles");
    let triangles = triangles.unwrap().scalar().and_then(Value::as_i64);
    prop_assert_eq!(triangles, Some(oracle::triangle_count(n, &pattern) as i64), "{}", who);

    let labels = oracle::wcc(n, &pattern);
    let want = live.iter().map(|&v| (v, labels[v as usize] as f64)).collect();
    let got = proc_rows(g, "CALL algo.wcc() YIELD node, component RETURN node, component");
    prop_assert_eq!(got, want, "wcc on {}", who);

    let number = |v: u64| live.binary_search(&v).expect("a live node") as u64;
    let numbered: Vec<(u64, u64)> = pattern.iter().map(|&(s, d)| (number(s), number(d))).collect();
    let (scores, _) = oracle::pagerank(live.len() as u64, &numbered, 0.85, 100, 1e-9);
    let want = live.iter().zip(scores).map(|(&v, score)| (v, score)).collect();
    let got = proc_rows(g, "CALL algo.pagerank() YIELD node, score RETURN node, score");
    prop_assert!(close(&got, &want), "pagerank on {}: {:?} vs {:?}", who, got, want);

    let weighted: Vec<(u64, u64, f64)> = shadow.edges.iter().map(|e| (e.2, e.3, e.4)).collect();
    for &source in shadow.nodes.iter().take(3) {
        let levels = oracle::bfs_levels(n, &pattern, source);
        let reached = (0..n).filter(|&v| levels[v as usize] >= 0);
        let want = reached.map(|v| (v, levels[v as usize] as f64)).collect();
        let query = format!("CALL algo.bfs({source}) YIELD node, level RETURN node, level");
        prop_assert_eq!(proc_rows(g, &query), want, "bfs from {} on {}", source, who);

        let dist = oracle::sssp(n, &weighted, source);
        let want = (0..n).filter(|&v| dist[v as usize].is_finite());
        let want = want.map(|v| (v, dist[v as usize])).collect();
        let query = format!("CALL algo.sssp({source}) YIELD node, distance RETURN node, distance");
        let got = proc_rows(g, &query);
        prop_assert!(
            close(&got, &want),
            "sssp from {} on {}: {:?} vs {:?}",
            source,
            who,
            got,
            want
        );
    }
    Ok(())
}

fn checkpoint(delta: &Graph, eager: &Graph, shadow: &Shadow) -> Result<(), TestCaseError> {
    prop_assert_eq!(delta.node_count(), eager.node_count());
    prop_assert_eq!(delta.edge_count(), eager.edge_count());

    // Matrix-level equality: merged views of every matrix, element for element
    // (the adjacency is the union derived from the relation matrices).
    prop_assert_eq!(
        delta.adjacency_matrix().to_triples(),
        eager.adjacency_matrix().to_triples(),
        "adjacency diverged"
    );
    for rel in RELS {
        if let Some(id) = delta.schema.rel_type_id(rel) {
            let d = delta.relation_matrix(id).expect("exists").to_triples();
            let e = eager.relation_matrix(id).expect("exists").to_triples();
            prop_assert_eq!(d, e, "relation matrix {} diverged", rel);
            // Each stored transpose holds the relation's pattern transposed:
            // read through it, every cell's multiplicity equals the forward
            // read's, pending promotions, demotions and deletes included.
            for g in [delta, eager] {
                let counts = |transposed| g.relation_count_matrix(id, transposed).expect("exists");
                prop_assert_eq!(counts(true), transpose(&counts(false)), "{} transpose", rel);
            }
            // The relation transposes, through the public read surface.
            for &v in &shadow.nodes {
                prop_assert_eq!(
                    delta.neighbors(v, Some(&[id]), TraverseDir::Incoming),
                    eager.neighbors(v, Some(&[id]), TraverseDir::Incoming),
                    "incoming {} neighbours of node {} diverged",
                    rel,
                    v
                );
            }
        }
    }
    for label in LABELS {
        let labelled = |g: &Graph| g.schema.label_id(label).map(|l| g.nodes_with_label(l));
        prop_assert_eq!(labelled(delta), labelled(eager), "label {} diverged", label);
    }

    // Query-level equality, on the read-only path (merged views) of the delta
    // graph versus the write path of the eager one.
    for q in CHECK_QUERIES {
        let d = delta.query_readonly(q).map(|rs| rs.rows);
        let e = eager.query_readonly(q).map(|rs| rs.rows);
        prop_assert_eq!(d.unwrap(), e.unwrap(), "query `{}` diverged", q);
    }

    // The epoch-snapshot read path (what the server actually serves reads
    // from): a snapshot taken now must answer exactly like the live graphs,
    // delta buffers and all.
    let snap = delta.snapshot();
    for q in CHECK_QUERIES {
        let s = snap.query_readonly(q).map(|rs| rs.rows);
        let e = eager.query_readonly(q).map(|rs| rs.rows);
        prop_assert_eq!(s.unwrap(), e.unwrap(), "snapshot query `{}` diverged", q);
    }

    for (who, g) in [("delta", delta), ("eager", eager), ("snapshot", &*snap)] {
        check_procedures(who, g, shadow)?;
    }

    // Every relation cell's edges, on both graphs and the snapshot, against
    // the shadow's ascending ids: parallel edges share one cell, so a bug in
    // how a cell names its edges shows here even when both graphs share it.
    let mut cells: BTreeMap<(usize, u64, u64), Vec<u64>> = BTreeMap::new();
    for &(id, rel, src, dst, _) in &shadow.edges {
        cells.entry((rel, src, dst)).or_default().push(id);
    }
    for (who, g) in [("delta", delta), ("eager", eager), ("snapshot", &*snap)] {
        for (rel, name) in RELS.iter().enumerate() {
            let expect: Vec<_> = cells.range((rel, 0, 0)..(rel + 1, 0, 0)).collect();
            let Some(id) = g.schema.rel_type_id(name) else {
                prop_assert!(expect.is_empty(), "{} lost relation {}", who, name);
                continue;
            };
            let stored = g.relation_matrix(id).expect("exists").nvals();
            prop_assert_eq!(stored, expect.len(), "{} cells of {} on {}", stored, name, who);
            for (&(_, src, dst), ids) in expect {
                let mut ids = ids.clone();
                ids.sort_unstable();
                let got: Vec<u64> = g.edges_between(id, src, dst).collect();
                prop_assert_eq!(got, ids, "{} cell {}→{} on {}", name, src, dst, who);
            }
        }
    }

    // k-hop counts agree with the pointer-chasing baseline rebuilt from the
    // live edge set (a matrix-free oracle).
    if !shadow.nodes.is_empty() {
        let max_id = shadow.nodes.iter().copied().max().unwrap_or(0) + 1;
        let mut oracle = AdjacencyListGraph::from_edge_list(max_id, &[]);
        let mut dedup: Vec<(u64, u64)> =
            shadow.edges.iter().map(|&(_, _, s, d, _)| (s, d)).filter(|&(s, d)| s != d).collect();
        dedup.sort_unstable();
        dedup.dedup();
        for (s, d) in dedup {
            oracle.add_edge(s, d);
        }
        for &src in shadow.nodes.iter().take(5) {
            for k in [1u32, 3] {
                prop_assert_eq!(
                    delta.khop_count(src, k),
                    oracle.khop_count(src, k),
                    "khop({}, {}) diverged from the baseline",
                    src,
                    k
                );
            }
        }
    }
    Ok(())
}

#[test]
fn pinned_snapshot_is_isolated_before_while_and_after_a_concurrent_writer() {
    use std::sync::{Arc, Barrier, RwLock};

    // The server's exact shape: the live graph behind a lock, snapshots
    // pinned outside it. Lock-step barriers make "while the writer
    // publishes" deterministic instead of a timing lottery.
    let graph = Arc::new(RwLock::new(Graph::new("mvcc")));
    {
        let mut g = graph.write().unwrap();
        for i in 0..20 {
            g.query(&format!("CREATE (:A {{id: {i}}})")).unwrap();
        }
        for i in 0..19 {
            g.query(&format!(
                "MATCH (x:A {{id: {i}}}), (y:A {{id: {}}}) CREATE (x)-[:R0]->(y)",
                i + 1
            ))
            .unwrap();
        }
        g.sync_matrices();
    }
    let snapshot = graph.read().unwrap().snapshot();
    let pinned_epoch = snapshot.epoch();
    let before: Vec<Vec<_>> =
        CHECK_QUERIES.iter().map(|q| snapshot.query_readonly(q).unwrap().rows.to_vec()).collect();

    let rounds = 8usize;
    let barrier = Arc::new(Barrier::new(2));
    let writer = {
        let graph = Arc::clone(&graph);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            for r in 0..rounds {
                {
                    let mut g = graph.write().unwrap();
                    g.query(&format!(
                        "CREATE (:A {{id: {}}})-[:R0]->(:B {{id: {}}})",
                        100 + r,
                        200 + r
                    ))
                    .unwrap();
                    g.query(&format!("MATCH (x:A {{id: {}}}) SET x.v = {r}", r % 20)).unwrap();
                    g.sync_matrices(); // publish a new epoch
                }
                barrier.wait(); // epoch published; reader's turn
                barrier.wait(); // reader verified; next round
            }
        })
    };
    for _ in 0..rounds {
        barrier.wait(); // the writer just published a newer epoch
        for (q, expect) in CHECK_QUERIES.iter().zip(&before) {
            let rows = snapshot.query_readonly(q).unwrap().rows.to_vec();
            assert_eq!(&rows, expect, "snapshot drifted mid-write for query `{q}`");
        }
        assert_eq!(snapshot.epoch(), pinned_epoch, "a snapshot's epoch is pinned forever");
        barrier.wait();
    }
    writer.join().unwrap();

    // After the writer is gone: the snapshot still answers from epoch N,
    // while the live graph has visibly moved on.
    for (q, expect) in CHECK_QUERIES.iter().zip(&before) {
        assert_eq!(
            &snapshot.query_readonly(q).unwrap().rows.to_vec(),
            expect,
            "snapshot drifted after join"
        );
    }
    let live = graph.read().unwrap();
    assert!(live.epoch() > pinned_epoch, "the writer must have published newer epochs");
    assert_eq!(live.node_count(), snapshot.node_count() + 2 * rounds);
}

#[test]
fn write_heavy_flush_loop_reclaims_epochs_instead_of_accumulating() {
    use std::sync::Arc;

    let mut g = Graph::new("reclaim");
    g.query("CREATE (:A {id: 0})-[:R0]->(:B {id: 0})").unwrap();
    g.sync_matrices();
    let r0 = g.schema.rel_type_id("R0").unwrap();
    // One long-lived reader keeps its epoch alive for the whole loop…
    let long_lived = g.snapshot();
    // `Weak` handles on a graph's current relation leaves.
    let pin = |g: &Graph| -> Vec<_> {
        g.relation_epoch_pin(r0).unwrap().iter().map(Arc::downgrade).collect()
    };
    let first_epoch = pin(&long_lived);
    assert!(!first_epoch.is_empty());

    // …while 40 write+flush cycles each fold (and then abandon) a leaf.
    let mut weaks = Vec::new();
    for i in 1..=40 {
        g.query(&format!("CREATE (:A {{id: {i}}})-[:R0]->(:B {{id: {i}}})")).unwrap();
        g.sync_matrices();
        weaks.extend(pin(&g));
        // The pin (the only reader of these leaves) drops right here.
    }
    let current = g.relation_epoch_pin(r0).unwrap();
    let stale = weaks
        .iter()
        .filter_map(|w| w.upgrade())
        .filter(|leaf| !current.iter().any(|c| Arc::ptr_eq(c, leaf)))
        .count();
    assert_eq!(stale, 0, "unreferenced leaves must be reclaimed, {stale} still alive");
    let alive = |weaks: &[std::sync::Weak<_>]| weaks.iter().all(|w| w.upgrade().is_some());
    assert!(alive(&first_epoch), "leaves with a live reader must survive");
    drop(long_lived);
    let freed = first_epoch.iter().all(|w| w.upgrade().is_none());
    assert!(freed, "the last reader dropping must release the leaves it alone held");
}

/// The labels the label-agreement property draws from.
const NODE_LABELS: [&str; 3] = ["A", "B", "C"];

/// What the Cypher writes of the label-agreement property left: each live
/// node's labels and the live `:R` edges, as `(src, dst)` pairs.
#[derive(Default)]
struct LabelShadow {
    nodes: BTreeMap<u64, BTreeSet<&'static str>>,
    edges: Vec<(u64, u64)>,
    /// The labels in the order the graph first saw them: label-id order.
    seen: Vec<&'static str>,
}

impl LabelShadow {
    /// The live node `sel` picks, if any.
    fn pick(&self, sel: u64) -> Option<u64> {
        let n = self.nodes.len() as u64;
        (n > 0).then(|| *self.nodes.keys().nth((sel % n) as usize).expect("in range"))
    }

    fn has(&self, id: u64, label: &str) -> bool {
        self.nodes[&id].contains(label)
    }
}

/// Run one write of the label-agreement property on every graph, and record
/// it in the shadow: a node create with 0–3 labels (`sel`'s base-4 digits,
/// 0 for none, so a label may repeat), a node delete, or an `:R` edge.
fn write_labels(kind: u8, sel: u64, other: u64, graphs: &mut [Graph], shadow: &mut LabelShadow) {
    let query = match kind {
        0 | 1 => {
            let picked: Vec<&'static str> = (0..3)
                .map(|digit| (sel >> (2 * digit)) % 4)
                .filter(|&d| d > 0)
                .map(|d| NODE_LABELS[d as usize - 1])
                .collect();
            let query = format!(
                "CREATE (n{}) RETURN id(n)",
                picked.iter().map(|l| format!(":{l}")).collect::<String>()
            );
            let mut ids = graphs.iter_mut().map(|g| g.query(&query).expect("a create").rows);
            let id = ids.next().expect("a graph")[0][0].clone();
            assert!(ids.all(|rows| rows[0][0] == id), "`{query}` reused different ids");
            let Value::Int(id) = id else { panic!("id(n) is {id}") };
            for &l in &picked {
                if !shadow.seen.contains(&l) {
                    shadow.seen.push(l);
                }
            }
            shadow.nodes.insert(id as u64, picked.into_iter().collect());
            return;
        }
        2 => {
            let Some(id) = shadow.pick(sel) else { return };
            shadow.nodes.remove(&id);
            shadow.edges.retain(|&(s, d)| s != id && d != id);
            format!("MATCH (n) WHERE id(n) = {id} DELETE n")
        }
        _ => {
            // No self-loop: a path may not bind one edge twice.
            let (Some(src), Some(dst)) = (shadow.pick(sel), shadow.pick(other)) else { return };
            if src == dst {
                return;
            }
            shadow.edges.push((src, dst));
            format!("MATCH (a), (b) WHERE id(a) = {src} AND id(b) = {dst} CREATE (a)-[:R]->(b)")
        }
    };
    for g in graphs {
        g.query(&query).unwrap_or_else(|e| panic!("`{query}`: {e}"));
    }
}

/// Every label reader of `g` against the shadow: `labels(n)` on every live
/// node, the label scan `MATCH (n:L)`, the label filter of `MATCH
/// (n:L1:L2)`, and the label mask of the fused product `MATCH
/// (a)-[:R]->(b:L)-[:R]->(c)`.
fn check_labels(who: &str, g: &Graph, shadow: &LabelShadow) -> Result<(), TestCaseError> {
    let rows =
        |query: &str| g.query_readonly(query).unwrap_or_else(|e| panic!("`{query}`: {e}")).rows;
    let ids = |query: &str| -> BTreeSet<u64> {
        rows(query).iter().map(|row| row[0].as_i64().expect("an id") as u64).collect()
    };
    let mut labels = BTreeMap::new();
    for row in &rows("MATCH (n) RETURN id(n), labels(n)") {
        let Value::List(names) = &row[1] else { panic!("labels(n) is {}", row[1]) };
        labels.insert(
            row[0].as_i64().expect("an id") as u64,
            names.iter().map(Value::to_string).collect::<Vec<_>>(),
        );
    }
    let expect: BTreeMap<u64, Vec<String>> = shadow
        .nodes
        .iter()
        .map(|(&id, set)| {
            let ordered = shadow.seen.iter().filter(|l| set.contains(*l)).map(|l| l.to_string());
            (id, ordered.collect())
        })
        .collect();
    prop_assert_eq!(labels, expect, "labels(n) on {}", who);

    for l1 in NODE_LABELS {
        let expect: BTreeSet<u64> =
            shadow.nodes.keys().copied().filter(|&n| shadow.has(n, l1)).collect();
        prop_assert_eq!(
            ids(&format!("MATCH (n:{l1}) RETURN id(n)")),
            expect,
            "scan :{} on {}",
            l1,
            who
        );
        for l2 in NODE_LABELS.into_iter().filter(|&l2| l2 != l1) {
            let query = format!("MATCH (n:{l1}:{l2}) RETURN id(n)");
            let expect: BTreeSet<u64> = shadow
                .nodes
                .keys()
                .copied()
                .filter(|&n| shadow.has(n, l1) && shadow.has(n, l2))
                .collect();
            prop_assert_eq!(ids(&query), expect, "`{}` on {}", query, who);
        }
        let query = format!("MATCH (a)-[:R]->(b:{l1})-[:R]->(c) RETURN count(c)");
        let paths: usize = shadow
            .edges
            .iter()
            .filter(|&&(_, b)| shadow.has(b, l1))
            .map(|&(_, b)| shadow.edges.iter().filter(|&&(s, _)| s == b).count())
            .sum();
        prop_assert_eq!(
            rows(&query)[0][0].clone(),
            Value::Int(paths as i64),
            "`{}` on {}",
            query,
            who
        );
    }
    Ok(())
}

/// The edge property keys the property-agreement property draws from.
const EDGE_KEYS: [&str; 2] = ["w", "x"];

/// What the writes of the property-agreement property left: the live
/// nodes, each live edge's endpoints and properties by id, and the edge ids
/// the allocator hands out next: a freed id before a new one, last freed
/// first.
#[derive(Default, Clone)]
struct PropShadow {
    nodes: Vec<u64>,
    edges: BTreeMap<u64, (u64, u64, BTreeMap<&'static str, i64>)>,
    freed: Vec<u64>,
    next: u64,
}

impl PropShadow {
    fn pick_node(&self, sel: u64) -> Option<u64> {
        (!self.nodes.is_empty()).then(|| self.nodes[sel as usize % self.nodes.len()])
    }

    fn pick_edge(&self, sel: u64) -> Option<u64> {
        let n = self.edges.len();
        (n > 0).then(|| *self.edges.keys().nth(sel as usize % n).expect("in range"))
    }

    /// The id the next edge gets.
    fn next_id(&mut self) -> u64 {
        self.freed.pop().unwrap_or_else(|| {
            self.next += 1;
            self.next - 1
        })
    }

    fn delete_edge(&mut self, id: u64) {
        self.edges.remove(&id).expect("a live edge");
        self.freed.push(id);
    }
}

/// The properties `sel` picks for a new edge: none for a quarter of the
/// edges, `w`, `x` or both for the rest.
fn edge_props(sel: u64, value: i64) -> BTreeMap<&'static str, i64> {
    let keys = EDGE_KEYS.iter().enumerate().filter(|&(k, _)| (sel % 4) >> k & 1 == 1);
    keys.map(|(_, &key)| (key, value)).collect()
}

/// Run one write of the property-agreement property on every graph, and
/// record it in the shadow: a node; an edge, through `Graph::add_edge` or a
/// Cypher `CREATE`, with or without properties, whose id must be the one
/// the shadow expects; a `SET` of an edge property, or of `null`, which
/// removes it; an edge delete or a node delete, through Cypher.
fn write_props(
    (kind, a, b, value): (u8, u64, u64, i64),
    graphs: &mut [Graph],
    shadow: &mut PropShadow,
) {
    let query = match kind {
        0 => {
            let ids: Vec<u64> = graphs.iter_mut().map(|g| g.add_node(&["N"], vec![])).collect();
            assert!(ids.iter().all(|&id| id == ids[0]), "node ids diverged: {ids:?}");
            shadow.nodes.push(ids[0]);
            return;
        }
        1 | 2 => {
            let (Some(src), Some(dst)) = (shadow.pick_node(a), shadow.pick_node(b)) else { return };
            let (rel, props) = (["R", "S"][(a / 7 % 2) as usize], edge_props(b / 3, value));
            let expected = shadow.next_id();
            for g in graphs.iter_mut() {
                let id = if kind == 1 {
                    let named = props.iter().map(|(&k, &v)| (k, Value::Int(v))).collect();
                    g.add_edge(src, dst, rel, named).expect("live endpoints")
                } else {
                    let map: Vec<String> = props.iter().map(|(k, v)| format!("{k}: {v}")).collect();
                    let map = if map.is_empty() {
                        String::new()
                    } else {
                        format!(" {{{}}}", map.join(", "))
                    };
                    let query = format!(
                        "MATCH (a), (b) WHERE id(a) = {src} AND id(b) = {dst} \
                         CREATE (a)-[r:{rel}{map}]->(b) RETURN id(r)"
                    );
                    let rows = g.query(&query).unwrap_or_else(|e| panic!("`{query}`: {e}")).rows;
                    rows[0][0].as_i64().expect("an id") as u64
                };
                assert_eq!(id, expected, "{}: the edge id reuse order changed", g.name());
            }
            shadow.edges.insert(expected, (src, dst, props));
            return;
        }
        3 | 4 => {
            let Some(id) = shadow.pick_edge(a) else { return };
            let key = EDGE_KEYS[(b % 2) as usize];
            let props = &mut shadow.edges.get_mut(&id).expect("picked").2;
            let set = if kind == 3 {
                props.insert(key, value);
                value.to_string()
            } else {
                props.remove(key);
                "null".to_string()
            };
            format!("MATCH ()-[r]->() WHERE id(r) = {id} SET r.{key} = {set}")
        }
        5 => {
            let Some(id) = shadow.pick_edge(a) else { return };
            shadow.delete_edge(id);
            format!("MATCH ()-[r]->() WHERE id(r) = {id} DELETE r")
        }
        _ => {
            let Some(node) = shadow.pick_node(a) else { return };
            shadow.nodes.retain(|&n| n != node);
            // The graph deletes the node's edges in ascending id order.
            let incident = shadow.edges.iter().filter(|(_, e)| e.0 == node || e.1 == node);
            let incident: Vec<u64> = incident.map(|(&id, _)| id).collect();
            incident.into_iter().for_each(|id| shadow.delete_edge(id));
            format!("MATCH (n) WHERE id(n) = {node} DELETE n")
        }
    };
    for g in graphs {
        g.query(&query).unwrap_or_else(|e| panic!("`{query}`: {e}"));
    }
}

/// Every live edge of `g`, with its endpoints and properties, read through
/// Cypher and through `Graph::edge_attributes`, and the edge count, against
/// the shadow. An edge without properties has no attribute set at all.
fn check_props(who: &str, g: &Graph, shadow: &PropShadow) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.edge_count(), shadow.edges.len(), "edge count on {}", who);
    let query = "MATCH (a)-[r]->(b) RETURN id(r), id(a), id(b), r.w, r.x";
    let mut edges = BTreeMap::new();
    for row in &g.query_readonly(query).unwrap_or_else(|e| panic!("`{query}`: {e}")).rows {
        let int = |v: &Value| v.as_i64().expect("an int") as u64;
        let props = EDGE_KEYS.iter().zip(&row[3..]).filter_map(|(&k, v)| Some((k, v.as_i64()?)));
        edges.insert(int(&row[0]), (int(&row[1]), int(&row[2]), props.collect()));
    }
    prop_assert_eq!(&edges, &shadow.edges, "edges on {}", who);
    for (&id, (_, _, props)) in &shadow.edges {
        let stored = g.edge_attributes(id).map(|attrs| attrs.len());
        let want = (!props.is_empty()).then_some(props.len());
        prop_assert_eq!(stored, want, "edge {}'s attribute set on {}", id, who);
    }
    Ok(())
}

proptest! {
    /// Random nodes, edges of two types with and without properties, sets
    /// and removals of edge properties, edge deletes and node deletes whose
    /// freed edge ids later creates reuse, on a graph that folds at every
    /// change and one that keeps its changes pending: every live edge's
    /// properties, and the edge count, agree with the shadow on both
    /// graphs, on a snapshot of each taken then, and on the snapshot taken
    /// at the checkpoint before, which later writes must not reach.
    #[test]
    fn every_edge_property_agrees_with_the_properties_written(
        ops in prop::collection::vec((0u8..8, 0u64..64, 0u64..64, 1i64..5), 0..60),
    ) {
        let mut graphs = [Graph::new("folded"), Graph::new("pending")];
        graphs[0].set_flush_threshold(1);
        graphs[1].set_flush_threshold(DEFAULT_FLUSH_THRESHOLD);
        let mut shadow = PropShadow::default();
        let mut held: Vec<(GraphSnapshot, PropShadow)> = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            write_props((op.0.min(6), op.1, op.2, op.3), &mut graphs, &mut shadow);
            if op.0 == 7 || i + 1 == ops.len() {
                for (snap, then) in &held {
                    check_props(&format!("an older snapshot of {}", snap.name()), snap, then)?;
                }
                held.clear();
                for g in &graphs {
                    check_props(g.name(), g, &shadow)?;
                    let snap = g.snapshot();
                    check_props(&format!("a snapshot of {}", g.name()), &snap, &shadow)?;
                    held.push((snap, shadow.clone()));
                }
            }
        }
    }

    /// Random node creates with 0–3 labels (repeats allowed), deletes whose
    /// ids later creates reuse, and `:R` edges, all through Cypher, on a
    /// graph that folds its label diagonals at every insert and one that
    /// keeps them pending: every label reader of both, and of a snapshot
    /// of each, agrees with the labels written.
    #[test]
    fn every_label_reader_agrees_with_the_labels_written(
        ops in prop::collection::vec((0u8..5, 0u64..64, 0u64..64), 0..40),
    ) {
        let mut graphs = [Graph::new("folded"), Graph::new("pending")];
        graphs[0].set_flush_threshold(1);
        graphs[1].set_flush_threshold(DEFAULT_FLUSH_THRESHOLD);
        let mut shadow = LabelShadow::default();
        for (i, &(kind, sel, other)) in ops.iter().enumerate() {
            write_labels(kind.min(3), sel, other, &mut graphs, &mut shadow);
            if kind == 4 || i + 1 == ops.len() {
                for g in &graphs {
                    check_labels(g.name(), g, &shadow)?;
                    check_labels(&format!("a snapshot of {}", g.name()), &g.snapshot(), &shadow)?;
                }
            }
        }
        prop_assert!(graphs[1].has_pending_deltas() || shadow.nodes.is_empty());
        let plan = graphs[0].explain("MATCH (a)-[:R]->(b:A)-[:R]->(c) RETURN count(c)").unwrap();
        prop_assert!(plan.iter().any(|line| line.contains("·L_A")), "unfused: {:?}", plan);
        let plan = graphs[0].explain("MATCH (n:A:B) RETURN id(n)").unwrap();
        prop_assert!(plan.iter().any(|line| line.contains("Label Filter")), "no filter: {:?}", plan);
    }

    #[test]
    fn delta_store_is_observationally_identical_to_eager(
        script in steps(),
        threshold in 1usize..16,
    ) {
        let mut delta = Graph::new("delta");
        delta.set_flush_threshold(threshold);
        let mut eager = Graph::new("eager");
        eager.set_flush_threshold(1);
        let mut shadow = Shadow::default();

        for &raw in &script {
            let step = decode(raw);
            apply(step, &mut delta, &mut eager, &mut shadow);
            if matches!(step, Step::Checkpoint) {
                checkpoint(&delta, &eager, &shadow)?;
            }
        }
        // Final checkpoint with whatever is still buffered…
        checkpoint(&delta, &eager, &shadow)?;
        // …and again after a full flush collapses every buffer.
        delta.sync_matrices();
        prop_assert!(!delta.has_pending_deltas());
        checkpoint(&delta, &eager, &shadow)?;
    }

    #[test]
    fn delta_store_matches_eager_through_cypher_writes(
        ops in prop::collection::vec((0u8..4, 0u64..12, 0u64..12), 0..40),
        threshold in 1usize..12,
    ) {
        // The same differential harness, but every mutation arrives through
        // the Cypher write path (CREATE / DELETE / SET) exactly as the server
        // issues it — exercising the executor's merged-view reads mid-query.
        let mut delta = Graph::new("delta");
        delta.set_flush_threshold(threshold);
        let mut eager = Graph::new("eager");
        eager.set_flush_threshold(1);

        for &(kind, a, b) in &ops {
            let query = match kind {
                0 => format!("CREATE (:N {{id: {a}}})"),
                1 => format!(
                    "MATCH (x:N {{id: {a}}}), (y:N {{id: {b}}}) CREATE (x)-[:L]->(y)"
                ),
                2 => format!("MATCH (x:N {{id: {a}}})-[r:L]->() DELETE r"),
                _ => format!("MATCH (x:N {{id: {a}}}) SET x.w = {b}"),
            };
            let d = delta.query(&query).map(|rs| rs.rows);
            let e = eager.query(&query).map(|rs| rs.rows);
            eager.sync_matrices();
            prop_assert_eq!(d.is_ok(), e.is_ok(), "query `{}` outcome diverged", &query);
            prop_assert_eq!(d.unwrap_or_default(), e.unwrap_or_default());
        }
        for q in CHECK_QUERIES {
            let d = delta.query_readonly(q).map(|rs| rs.rows);
            let e = eager.query_readonly(q).map(|rs| rs.rows);
            prop_assert_eq!(d.unwrap(), e.unwrap(), "query `{}` diverged", q);
        }
        prop_assert_eq!(delta.node_count(), eager.node_count());
        prop_assert_eq!(delta.edge_count(), eager.edge_count());
        prop_assert_eq!(
            delta.adjacency_matrix().to_triples(),
            eager.adjacency_matrix().to_triples()
        );
    }
}
