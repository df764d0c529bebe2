//! Epoch reclamation versus held snapshots.
//!
//! The server caches one sealed snapshot per epoch; a write invalidates the
//! cache and the next read rebuilds it, dropping the previous epoch's
//! `Arc`. Reclamation must be precise in both directions: a snapshot still
//! held by an in-flight query is never freed or mutated (its contents are
//! immutable for its whole lifetime), and once the last holder lets go the
//! old epoch really is freed, not accumulated — down to each relation leaf
//! the epoch held that no newer state shares.

use std::sync::{Arc, Weak};

use modelcheck::{explore, thread, Config};
use redisgraph_core::{Graph, GraphSnapshot, TraverseDir};

fn cfg() -> Config {
    Config { max_schedules: 1800, pct_iterations: 300, preemption_bound: None, ..Config::default() }
}

/// The server's single-flight pin: serve the cached snapshot if it is
/// still the live epoch, otherwise seal a fresh one and swap it in —
/// dropping (reclaiming) the previous epoch's snapshot.
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

#[test]
fn reclamation_never_frees_or_mutates_a_held_snapshot() {
    let report = explore("epoch_reclaim/held_snapshot_stays_valid", &cfg(), || {
        let mut g = Graph::new("e");
        // Every write folds its leaf: the writer below replaces the relation
        // leaf that the first epoch holds.
        g.set_flush_threshold(1);
        let first = g.add_node(&["N"], vec![]);
        g.add_edge(first, first, "R", vec![]).unwrap();
        let rel = g.schema.rel_type_id("R").unwrap();
        let base_epoch = g.epoch();
        let lock = Arc::new(parking_lot::RwLock::new(g));
        let cache = Arc::new(parking_lot::Mutex::new(None::<Arc<GraphSnapshot>>));
        // The reader's snapshot and its relation leaves, as `Weak` handles.
        let held = Arc::new(parking_lot::Mutex::new(None));

        let reader = {
            let lock = Arc::clone(&lock);
            let cache = Arc::clone(&cache);
            let held = Arc::clone(&held);
            thread::spawn(move || {
                let snap = pin(&lock, &cache);
                let leaves = snap.relation_epoch_pin(rel).unwrap();
                let weak_leaves: Vec<_> = leaves.iter().map(Arc::downgrade).collect();
                *held.lock() = Some((Arc::downgrade(&snap), weak_leaves));
                drop(leaves);
                let epoch = snap.epoch();
                let nodes = snap.node_count();
                let row = snap.neighbors(first, None, TraverseDir::Incoming);
                // Epoch pinning: the snapshot's contents are a function of
                // its epoch alone, no matter when the writer runs.
                assert_eq!(
                    nodes,
                    if epoch == base_epoch { 1 } else { 2 },
                    "snapshot contents disagree with its pinned epoch {epoch}"
                );
                // Give the writer a window to mutate and re-pin (which
                // drops the cache's reference to our epoch)...
                thread::yield_now();
                // ...then re-read: a held snapshot is immutable forever.
                assert_eq!(snap.epoch(), epoch, "held snapshot changed epoch");
                assert_eq!(snap.node_count(), nodes, "held snapshot mutated under us");
                assert_eq!(row.len(), nodes, "a row disagrees with its pinned epoch");
                let again = snap.neighbors(first, None, TraverseDir::Incoming);
                assert_eq!(again, row, "a held snapshot's row changed under a fold");
            })
        };

        // The writer publishes a new epoch and re-pins: the cache swap is
        // the reclamation point for the previous epoch's snapshot.
        {
            let mut g = lock.write();
            let second = g.add_node(&["N"], vec![]);
            g.add_edge(second, first, "R", vec![]).unwrap();
        }
        let fresh = pin(&lock, &cache);
        assert_eq!(fresh.node_count(), 2);
        drop(fresh);

        reader.join().unwrap();

        // Every holder is gone: clearing the cache must free the reader's
        // epoch — reclamation may be deferred, never skipped.
        *cache.lock() = None;
        let weak = held.lock().take();
        if let Some((weak, leaves)) = weak {
            assert!(weak.upgrade().is_none(), "snapshot epoch leaked past its last holder");
            // Each of its relation leaves is freed too, unless the live
            // graph still holds it.
            let live = lock.read().relation_epoch_pin(rel).unwrap();
            for leaf in leaves.iter().filter_map(Weak::upgrade) {
                let shared = live.iter().any(|l| Arc::ptr_eq(l, &leaf));
                assert!(shared, "a relation leaf leaked past its last holder");
            }
        }
    });
    assert!(report.distinct >= 100, "only {} distinct schedules explored", report.distinct);
}
