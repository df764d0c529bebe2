//! Structurally shared snapshots versus the copy-on-write writer.
//!
//! A snapshot shares the live graph's chunk tables (delta-buffer chunks,
//! attribute blocks, free-id stacks) by their roots. The first writer below
//! copies a shared chunk's path (in every matrix its write touches), pushes
//! a freed edge id onto a shared free stack and gives an edge the first
//! property of its attribute block, then folds the buffers into fresh CSRs,
//! while a reader holding a snapshot iterates the very row the writer
//! rewrites, reads the edges' cells and properties, and runs a
//! variable-length count over the row, whose BFS reads the shared chunks in
//! place. The second writer grows the node table past a full level — a new
//! leaf under a new root — while the reader holds a snapshot of the smaller
//! table. The third deletes one of a parallel pair, which stores the
//! survivor back in the relation cells and frees the pair's edge list, and
//! promotes another pair into the freed list slot, while the reader expands
//! the old pair's cell. The fourth inserts one edge at a flush threshold of
//! one, which folds the row's leaf into a fresh one at once, while the reader
//! holds a snapshot of the leaf it replaces. Whatever the interleaving, the
//! reader must see exactly the epoch it pinned: the row, the entities, the
//! reachability view and the count all from one side of the write, and the
//! same answers on every re-read.

use std::sync::Arc;

use modelcheck::{explore, thread, Config};
use redisgraph_core::{Graph, GraphSnapshot, TraverseDir, Value};

fn cfg() -> Config {
    Config { max_schedules: 1800, pct_iterations: 300, preemption_bound: None, ..Config::default() }
}

/// The server's single-flight pin (as in `epoch_reclaim`): serve the cached
/// snapshot while it is the live epoch, otherwise seal a fresh one.
fn pin(
    lock: &parking_lot::RwLock<Graph>,
    cache: &parking_lot::Mutex<Option<Arc<GraphSnapshot>>>,
) -> Arc<GraphSnapshot> {
    let mut cached = cache.lock();
    let live = lock.read();
    match cached.as_ref() {
        Some(snap) if snap.epoch() == live.epoch() => Arc::clone(snap),
        _ => {
            let fresh = Arc::new(live.snapshot());
            *cached = Some(Arc::clone(&fresh));
            fresh
        }
    }
}

/// The paper's k-hop count from node 0, through the query path.
const KHOP_COUNT: &str = "MATCH (s)-[*1..2]->(n) WHERE id(s) = 0 RETURN count(DISTINCT n)";

/// Destinations of `node`'s outgoing edges, ascending.
fn out_row(snap: &GraphSnapshot, node: u64) -> Vec<u64> {
    snap.neighbors(node, None, TraverseDir::Outgoing).into_iter().map(|(dst, _)| dst).collect()
}

#[test]
fn a_reader_sees_its_own_epoch_while_the_writer_copies_and_folds() {
    let report = explore("snapshot_share/copy_then_fold", &cfg(), || {
        let mut g = Graph::new("s");
        // Nothing folds on its own: the fold below is the writer's choice.
        g.set_flush_threshold(1_000_000);
        let [a, b, c, d] = [0, 1, 2, 3].map(|_| g.add_node(&["N"], vec![]));
        let ab = g.add_edge(a, b, "R", vec![]).unwrap();
        // Two hops from `a` reach `d` through `c` only in the new epoch.
        g.add_edge(c, d, "R", vec![]).unwrap();
        g.sync_matrices();
        // A pending insert in row `a`: its chunk exists in every edge matrix.
        let ad = g.add_edge(a, d, "R", vec![]).unwrap();
        let rel = g.schema.rel_type_id("R").unwrap() as u32;
        // The key exists in both epochs; no edge has a property yet, so the
        // attribute table holds no block. A freed id starts the free stack.
        g.set_node_property(a, "w", Value::Int(0));
        let spare = g.add_edge(b, a, "R", vec![]).unwrap();
        assert!(g.delete_edge(&Value::Edge { id: spare, src: b, dst: a, rel }));
        let lock = Arc::new(parking_lot::RwLock::new(g));
        let cache = Arc::new(parking_lot::Mutex::new(None::<Arc<GraphSnapshot>>));
        // The cached snapshot shares row `a`'s chunks and the edge id free
        // stack, so the writer's next write must copy them.
        let base_epoch = pin(&lock, &cache).epoch();

        let reader = {
            let lock = Arc::clone(&lock);
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                let snap = pin(&lock, &cache);
                let old = snap.epoch() == base_epoch;
                let row = if old { vec![b, d] } else { vec![b, c] };
                let count = if old { 2 } else { 3 };
                for _ in 0..2 {
                    assert_eq!(out_row(&snap, a), row, "row {a} mixes epochs (old = {old})");
                    // Liveness from the cells, and the property the new
                    // epoch writes, each from the snapshot's own epoch.
                    let cell = |dst| snap.edges_between(rel as usize, a, dst).collect::<Vec<_>>();
                    assert_eq!(cell(d), if old { vec![ad] } else { vec![] }, "edge {ad}'s cell");
                    assert_eq!(cell(b), vec![ab]);
                    let w = snap.schema.attribute_id("w").expect("made before the snapshot");
                    let ab_w = snap.edge_attributes(ab).map(|attrs| attrs.get(w));
                    let want = if old { None } else { Some(Value::Int(1)) };
                    assert_eq!(ab_w, want, "edge {ab}'s property from the wrong epoch");
                    assert_eq!(snap.edge_count(), 3);
                    let reached = snap.khop_reached(a, 1, 1, TraverseDir::Outgoing, None);
                    let reached: Vec<_> = reached.iter().collect();
                    assert_eq!(reached, row, "matrices disagree with the row");
                    let rs = snap.query_readonly(KHOP_COUNT).unwrap();
                    assert_eq!(rs.scalar(), Some(&Value::Int(count)), "k-hop count (old = {old})");
                    // Let the writer copy and fold between the two reads.
                    thread::yield_now();
                }
            })
        };

        // One epoch: a new edge in row `a` (reusing the spare id), the
        // pending one deleted (its id pushed onto the shared stack) and the
        // first edge property, under one write-lock hold. Then a separate
        // fold of every buffer.
        {
            let mut g = lock.write();
            assert_eq!(g.add_edge(a, c, "R", vec![]).unwrap(), spare);
            assert!(g.delete_edge(&Value::Edge { id: ad, src: a, dst: d, rel }));
            let set = format!("MATCH ()-[e:R]->() WHERE id(e) = {ab} SET e.w = 1");
            assert_eq!(g.query(&set).unwrap().stats.properties_set, 1);
        }
        lock.write().sync_matrices();

        reader.join().unwrap();
        let snap = pin(&lock, &cache);
        assert_ne!(snap.epoch(), base_epoch);
        assert_eq!(out_row(&snap, a), vec![b, c]);
        assert!(!lock.read().has_pending_deltas(), "the fold left buffers behind");
    });
    assert!(report.distinct >= 100, "only {} distinct schedules explored", report.distinct);
}

/// Nodes that fill the node table's first level: 32 blocks of 64 slots.
/// The next node needs a new leaf and a new root above the old one.
const FULL_LEVEL: u64 = 32 * 64;

#[test]
fn a_reader_keeps_its_epoch_while_the_writer_grows_the_entity_table() {
    // Built once: a clone per schedule costs a few pointer bumps.
    let mut base = Graph::new("g");
    base.bulk_load(FULL_LEVEL, &[(0, 1), (FULL_LEVEL - 1, 0)]);
    let report = explore("snapshot_share/grow_past_a_leaf", &cfg(), || {
        let lock = Arc::new(parking_lot::RwLock::new(base.clone()));
        let cache = Arc::new(parking_lot::Mutex::new(None::<Arc<GraphSnapshot>>));
        let base_epoch = pin(&lock, &cache).epoch();
        let (last, fresh) = (FULL_LEVEL - 1, FULL_LEVEL);

        let reader = {
            let lock = Arc::clone(&lock);
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                let snap = pin(&lock, &cache);
                let old = snap.epoch() == base_epoch;
                let nodes = if old { FULL_LEVEL } else { FULL_LEVEL + 1 };
                let row = if old { vec![0] } else { vec![0, fresh] };
                for _ in 0..2 {
                    assert_eq!(snap.node_count() as u64, nodes, "node count (old = {old})");
                    assert_eq!(
                        snap.node_attributes(fresh).is_some(),
                        !old,
                        "node from the wrong epoch"
                    );
                    assert_eq!(snap.node_property(last, "id"), Value::Int(last as i64));
                    assert_eq!(out_row(&snap, last), row, "row {last} mixes epochs (old = {old})");
                    assert_eq!(snap.edge_count(), if old { 2 } else { 3 });
                    thread::yield_now();
                }
            })
        };

        // One epoch: a node in a fresh leaf past the full level, and an edge
        // to it; then a fold of every buffer.
        {
            let mut g = lock.write();
            assert_eq!(g.add_node(&["Node"], vec![("id", Value::Int(fresh as i64))]), fresh);
            g.add_edge(last, fresh, "LINK", vec![]).unwrap();
        }
        lock.write().sync_matrices();

        reader.join().unwrap();
        let snap = pin(&lock, &cache);
        assert_eq!(snap.node_count() as u64, FULL_LEVEL + 1);
        assert_eq!(out_row(&snap, last), vec![0, fresh]);
        assert_eq!(base.node_count() as u64, FULL_LEVEL, "the writer reached the base graph");
    });
    assert!(report.distinct >= 20, "only {} distinct schedules explored", report.distinct);
}

/// One hop from node 0, fused by its label mask: the count reads each
/// cell's multiplicity, one path per parallel edge.
const ONE_HOP_COUNT: &str = "MATCH (s)-[:R]->(t:N) WHERE id(s) = 0 RETURN count(t)";

#[test]
fn a_reader_keeps_a_parallel_pair_whose_list_slot_the_writer_frees_and_reuses() {
    let report = explore("snapshot_share/parallel_slot_reuse", &cfg(), || {
        let mut g = Graph::new("p");
        g.set_flush_threshold(1_000_000);
        let [a, b, c] = [0, 1, 2].map(|_| g.add_node(&["N"], vec![]));
        let pair = [(); 2].map(|_| g.add_edge(a, b, "R", vec![]).unwrap());
        g.sync_matrices();
        let r = g.schema.rel_type_id("R").unwrap();
        let plan = g.explain(ONE_HOP_COUNT).unwrap();
        assert!(plan.iter().any(|op| op.ends_with("(s)·A_R·L_N")), "{plan:?}");
        let tagged = g.relation_matrix(r).unwrap().extract_element(a, b);
        let lock = Arc::new(parking_lot::RwLock::new(g));
        let cache = Arc::new(parking_lot::Mutex::new(None::<Arc<GraphSnapshot>>));
        let base_epoch = pin(&lock, &cache).epoch();

        let reader = {
            let lock = Arc::clone(&lock);
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                let snap = pin(&lock, &cache);
                let old = snap.epoch() == base_epoch;
                let row = if old { vec![(b, pair[0]), (b, pair[1])] } else { vec![(b, pair[0])] };
                for _ in 0..2 {
                    let got = snap.neighbors(a, None, TraverseDir::Outgoing);
                    assert_eq!(got, row, "row {a} mixes epochs (old = {old})");
                    let count = Value::Int(row.len() as i64);
                    let rs = snap.query_readonly(ONE_HOP_COUNT).unwrap();
                    assert_eq!(rs.scalar(), Some(&count), "one-hop count (old = {old})");
                    assert_eq!(snap.edges_between(r, b, c).count(), if old { 0 } else { 2 });
                    thread::yield_now();
                }
            })
        };

        // One epoch: the pair shrinks to one edge and a new pair takes its
        // list slot. Then a separate fold of every buffer.
        {
            let mut g = lock.write();
            assert!(g.delete_edge(&Value::Edge { id: pair[1], src: a, dst: b, rel: r as u32 }));
            g.add_edge(b, c, "R", vec![]).unwrap();
            g.add_edge(b, c, "R", vec![]).unwrap();
            assert_eq!(g.relation_matrix(r).unwrap().extract_element(b, c), tagged);
        }
        lock.write().sync_matrices();

        reader.join().unwrap();
        let snap = pin(&lock, &cache);
        assert_eq!(snap.neighbors(a, None, TraverseDir::Outgoing), vec![(b, pair[0])]);
        assert_eq!(snap.relation_matrix(r).unwrap().extract_element(a, b), Some(pair[0]));
    });
    assert!(report.distinct >= 20, "only {} distinct schedules explored", report.distinct);
}

#[test]
fn a_reader_pinned_before_a_leaf_fold_keeps_its_old_row() {
    let report = explore("snapshot_share/leaf_fold", &cfg(), || {
        let mut g = Graph::new("l");
        // Every insert and delete folds its leaf: no buffer survives a write.
        g.set_flush_threshold(1);
        let [a, b, c, d] = [0, 1, 2, 3].map(|_| g.add_node(&["N"], vec![]));
        g.add_edge(a, b, "R", vec![]).unwrap();
        g.add_edge(b, c, "R", vec![]).unwrap();
        let lock = Arc::new(parking_lot::RwLock::new(g));
        let cache = Arc::new(parking_lot::Mutex::new(None::<Arc<GraphSnapshot>>));
        let base_epoch = pin(&lock, &cache).epoch();

        let reader = {
            let lock = Arc::clone(&lock);
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                let snap = pin(&lock, &cache);
                let old = snap.epoch() == base_epoch;
                let row = if old { vec![b] } else { vec![b, d] };
                let count = if old { 2 } else { 3 };
                for _ in 0..2 {
                    assert_eq!(out_row(&snap, a), row, "row {a} mixes epochs (old = {old})");
                    let rs = snap.query_readonly(KHOP_COUNT).unwrap();
                    assert_eq!(rs.scalar(), Some(&Value::Int(count)), "k-hop count (old = {old})");
                    assert!(!snap.has_pending_deltas(), "a fold left buffers behind");
                    // Let the writer fold `a`'s leaf between the two reads.
                    thread::yield_now();
                }
            })
        };

        // One write, folded at once into a fresh leaf beside the pinned one.
        lock.write().add_edge(a, d, "R", vec![]).unwrap();

        reader.join().unwrap();
        let snap = pin(&lock, &cache);
        assert_ne!(snap.epoch(), base_epoch);
        assert_eq!(out_row(&snap, a), vec![b, d]);
        assert!(snap.delta_flush_count() > 0);
    });
    assert!(report.distinct >= 20, "only {} distinct schedules explored", report.distinct);
}
