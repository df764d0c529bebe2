//! Plan-cache capacity versus racing plan builds.
//!
//! The server's plan cache hands a query's parsed-and-planned skeleton to
//! every later execution of the same normalized text. A plan depends on the
//! query alone, so it never goes stale; what concurrency can break is the
//! bound: the build runs *outside* the cache lock, so several workers that
//! missed may race their inserts. These schedules drive that race directly
//! against the real `PlanCache` and `ExecutionPlan` types.

use std::sync::Arc;

use modelcheck::{explore, thread, Config};
use redisgraph_core::ExecutionPlan;
use redisgraph_server::metrics::Metrics;
use redisgraph_server::{CachedPlan, PlanCache};

fn cfg() -> Config {
    Config { max_schedules: 1800, pct_iterations: 300, preemption_bound: None, ..Config::default() }
}

/// Parse and plan `query` exactly as the server's miss path does.
fn build(query: &str) -> Arc<CachedPlan> {
    let ast = cypher::parse(query).expect("suite queries parse");
    let read_only = ast.is_read_only();
    let plan = ExecutionPlan::build(&ast).expect("suite queries plan");
    Arc::new(CachedPlan { plan: Arc::new(plan), read_only })
}

/// Concurrent misses racing their inserts into a capacity-1 cache: the
/// bound holds at every step, the loser is evicted (not leaked), and the
/// hit/miss/eviction counters stay consistent with what actually happened.
#[test]
fn concurrent_inserts_respect_the_lru_bound_and_counters() {
    let report = explore("plan_cache/lru_bound_under_racing_inserts", &cfg(), || {
        let cache = Arc::new(PlanCache::new(1));
        let metrics = Arc::new(Metrics::default());

        let spawn_insert = |key: &'static str| {
            let cache = Arc::clone(&cache);
            let metrics = Arc::clone(&metrics);
            thread::spawn(move || {
                if cache.lookup(key, &metrics).is_none() {
                    cache.insert(key.to_string(), build("MATCH (n) RETURN n"), &metrics);
                }
                assert!(cache.len() <= 1, "cache overflowed its configured capacity");
            })
        };
        let t1 = spawn_insert("MATCH (a) RETURN a");
        let t2 = spawn_insert("MATCH (b) RETURN b");
        t1.join().unwrap();
        t2.join().unwrap();

        use crossbeam::atomic::Ordering;
        let hits = metrics.plan_cache_hits.load(Ordering::Relaxed);
        let misses = metrics.plan_cache_misses.load(Ordering::Relaxed);
        let evictions = metrics.plan_cache_evictions.load(Ordering::Relaxed);
        // Distinct keys, empty cache: both lookups missed, both inserts
        // landed, and capacity 1 evicted exactly the earlier of the two.
        assert_eq!((hits, misses), (0, 2));
        assert_eq!(cache.len(), 1);
        assert_eq!(evictions, 1);
    });
    assert!(report.distinct >= 100, "only {} distinct schedules explored", report.distinct);
}
