//! Epoch snapshots versus concurrent delta flushes.
//!
//! The server pins a [`GraphSnapshot`] under a momentary read lock, then
//! executes the query with no lock held. With the flush threshold at one,
//! every mutation folds the delta buffers into fresh epoch CSRs mid-write —
//! a snapshot taken around that fold must still observe either *all* of the
//! write-lock holder's mutations or *none* of them, and its reachability
//! view must agree with its entity counts.

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
                    let reached = snap.khop_reach(a, 1, 2, TraverseDir::Outgoing, None);
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
