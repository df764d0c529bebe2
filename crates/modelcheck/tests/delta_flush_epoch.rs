//! Epoch snapshots versus concurrent delta flushes.
//!
//! The server pins a [`GraphSnapshot`] under a momentary read lock, then
//! executes the query with no lock held. With the flush threshold at one,
//! every insert and delete folds its leaf's buffers into a fresh leaf mid-write —
//! a snapshot taken around that fold must still observe either *all* of the
//! write-lock holder's mutations or *none* of them, and its reachability
//! view must agree with its entity counts. A snapshot pinned before a fold
//! keeps reading the leaf the fold replaced.

use std::sync::Arc;

use modelcheck::{explore, thread, Config};
use redisgraph_core::{Graph, TraverseDir};

fn cfg() -> Config {
    Config { max_schedules: 1800, pct_iterations: 300, preemption_bound: None, ..Config::default() }
}

#[test]
fn snapshots_never_observe_a_half_applied_flush() {
    let report = explore("delta_flush_epoch/atomic_visibility", &cfg(), || {
        let mut g = Graph::new("m");
        // Fold the delta buffers on every mutation: the writer below
        // triggers two flushes while holding the write lock.
        g.set_flush_threshold(1);
        let a = g.add_node(&["N"], vec![]);
        let b = g.add_node(&["N"], vec![]);
        let c = g.add_node(&["N"], vec![]);
        g.sync_matrices();
        let lock = Arc::new(parking_lot::RwLock::new(g));

        let writer = {
            let lock = Arc::clone(&lock);
            thread::spawn(move || {
                // Both edges land under one write-lock hold, so together
                // they are one atomic unit as far as snapshots go.
                let mut g = lock.write();
                g.add_edge(a, b, "R", vec![]).unwrap();
                g.add_edge(b, c, "R", vec![]).unwrap();
            })
        };

        let readers: Vec<_> = (0..2)
            .map(|_| {
                let lock = Arc::clone(&lock);
                thread::spawn(move || {
                    // The server's read path: pin under a momentary read
                    // lock, then run entirely lock-free on the snapshot.
                    let snap = lock.read().snapshot();
                    let edges = snap.edge_count();
                    assert!(
                        edges == 0 || edges == 2,
                        "snapshot observed a half-applied write: {edges} of 2 edges"
                    );
                    // Matrix state must agree with the entity counts: with
                    // both edges, c is reachable from a in two hops; with
                    // neither, nothing is.
                    let reached = snap.khop_reached(a, 1, 2, TraverseDir::Outgoing, None);
                    let expected = if edges == 2 { 2 } else { 0 };
                    assert_eq!(
                        reached.nvals(),
                        expected,
                        "snapshot's matrices disagree with its edge count ({edges} edges)"
                    );
                })
            })
            .collect();

        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        // After the writer released the lock every new snapshot is complete.
        let snap = lock.read().snapshot();
        assert_eq!(snap.edge_count(), 2);
    });
    assert!(report.distinct >= 1400, "only {} distinct schedules explored", report.distinct);
}

#[test]
fn a_reader_pinned_before_a_leaf_fold_keeps_its_old_row() {
    let report = explore("delta_flush_epoch/leaf_fold_keeps_the_pinned_row", &cfg(), || {
        let mut g = Graph::new("f");
        // Every insert and delete folds its leaf into a fresh one.
        g.set_flush_threshold(1);
        let [a, b, c] = [(); 3].map(|_| g.add_node(&["N"], vec![]));
        let ab = g.add_edge(a, b, "R", vec![]).unwrap();
        let rel = g.schema.rel_type_id("R").unwrap() as u32;
        let lock = Arc::new(parking_lot::RwLock::new(g));
        // Pinned before the writer runs: it must keep `a`'s old row while
        // the writer folds that row's leaf twice.
        let pinned = lock.read().snapshot();

        let writer = {
            let lock = Arc::clone(&lock);
            thread::spawn(move || {
                let mut g = lock.write();
                g.add_edge(a, c, "R", vec![]).unwrap();
                assert!(g.delete_edge(&redisgraph_core::Value::Edge {
                    id: ab,
                    src: a,
                    dst: b,
                    rel
                }));
            })
        };
        let reader = thread::spawn(move || {
            for _ in 0..2 {
                let row = pinned.neighbors(a, None, TraverseDir::Outgoing);
                assert_eq!(row, vec![(b, ab)], "a pinned row changed under a leaf fold");
                let reached = pinned.khop_reached(a, 1, 1, TraverseDir::Outgoing, None);
                assert_eq!(reached.iter().collect::<Vec<_>>(), [b]);
                thread::yield_now();
            }
        });
        // A reader pinning at any point sees one side of the writer's hold.
        let snap = lock.read().snapshot();
        let row: Vec<_> =
            snap.neighbors(a, None, TraverseDir::Outgoing).into_iter().map(|(n, _)| n).collect();
        assert!(row == vec![b] || row == vec![c], "a row mixes two sides of a write: {row:?}");

        writer.join().unwrap();
        reader.join().unwrap();
        let live = lock.read().snapshot();
        assert_eq!(live.neighbors(a, None, TraverseDir::Outgoing).len(), 1);
        assert!(live.delta_flush_count() >= 2, "each write folded its leaf");
        assert!(!live.has_pending_deltas());
    });
    assert!(report.distinct >= 100, "only {} distinct schedules explored", report.distinct);
}
