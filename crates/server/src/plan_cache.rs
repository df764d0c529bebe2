//! The per-graph execution-plan cache behind parameterized queries.
//!
//! `GRAPH.QUERY` used to parse and plan every query text from scratch. With
//! parameterized queries (`CYPHER k=7 … WHERE id(s) = $k …`) the same query
//! *shape* arrives thousands of times with different values, so the server
//! now caches the parsed-and-planned skeleton keyed on the
//! whitespace-normalized body text and re-binds parameters per execution.
//!
//! Plans are compiled from the AST alone — no graph contents, no runtime
//! configuration — so a cached plan never goes stale: writes never
//! invalidate, and only a `PLAN_CACHE_SIZE` resize or a `GRAPH.DELETE`
//! (which drops the keyspace entry and the cache with it) clears it. The
//! cache is bounded (least-recently-used eviction) and scoped per graph. A
//! plan built after a lookup miss is inserted whenever it finishes: even if
//! a resize or delete landed in between, it is still a correct plan, and the
//! capacity check under the lock still bounds the cache.

use crate::metrics::Metrics;
use crossbeam::atomic::Ordering;
use parking_lot::Mutex;
use redisgraph_core::ExecutionPlan;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A parsed-and-planned query skeleton, shared by every execution of the
/// same normalized query text.
#[derive(Debug)]
pub struct CachedPlan {
    /// The compiled plan. Parameter references (`$name`) are still symbolic;
    /// executions with parameters bind a private copy first
    /// ([`ExecutionPlan::bind`]).
    pub plan: Arc<ExecutionPlan>,
    /// Whether the query is read-only (epoch-snapshot path) or a write
    /// (exclusive-lock path) — classified once, at plan time.
    pub read_only: bool,
    /// True if the plan contains `$name` references and must be bound before
    /// executing. False lets parameter-free hits skip the bind clone.
    pub has_params: bool,
}

#[derive(Debug)]
struct CacheInner {
    map: HashMap<String, Arc<CachedPlan>>,
    /// Recency order over the keys of `map`: front = least recently used.
    lru: VecDeque<String>,
    /// Maximum entries (`PLAN_CACHE_SIZE`); 0 disables caching entirely.
    capacity: usize,
}

/// A bounded LRU plan cache. One per keyspace entry.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<CacheInner>,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans (0 = disabled).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            inner: Mutex::new(CacheInner { map: HashMap::new(), lru: VecDeque::new(), capacity }),
        }
    }

    /// Look up the plan for a normalized query key, counting the hit or miss
    /// and refreshing the entry's recency on a hit.
    pub fn lookup(&self, key: &str, metrics: &Metrics) -> Option<Arc<CachedPlan>> {
        let mut inner = self.inner.lock();
        if let Some(cached) = inner.map.get(key).cloned() {
            metrics.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
            if let Some(pos) = inner.lru.iter().position(|k| k == key) {
                let k = inner.lru.remove(pos).expect("position came from iter");
                inner.lru.push_back(k);
            }
            Some(cached)
        } else {
            metrics.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Install a freshly built plan, evicting the least-recently-used entry
    /// over capacity.
    pub fn insert(&self, key: String, plan: Arc<CachedPlan>, metrics: &Metrics) {
        let mut inner = self.inner.lock();
        if inner.capacity == 0 {
            return;
        }
        if inner.map.insert(key.clone(), plan).is_none() {
            inner.lru.push_back(key);
        } else if let Some(pos) = inner.lru.iter().position(|k| *k == key) {
            let k = inner.lru.remove(pos).expect("position came from iter");
            inner.lru.push_back(k);
        }
        while inner.map.len() > inner.capacity {
            let Some(oldest) = inner.lru.pop_front() else { break };
            inner.map.remove(&oldest);
            metrics.plan_cache_evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Change the capacity (`GRAPH.CONFIG SET PLAN_CACHE_SIZE`), dropping
    /// every cached plan.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.lru.clear();
        inner.capacity = capacity;
    }

    /// Number of cached plans (the `plan_cache_entries` gauge).
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Normalize a query body into its cache key: collapse every run of
/// whitespace outside string/backquote literals to one space and trim the
/// ends, so formatting differences (`MATCH  (n)` vs `MATCH (n)`) share one
/// cached plan while string contents stay significant. The `CYPHER …` header
/// is stripped before this is called — parameter *values* never reach the
/// key, only the shape.
pub fn normalize(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars().peekable();
    let mut pending_space = false;
    while let Some(c) = chars.next() {
        match c {
            c if c.is_whitespace() => {
                if !out.is_empty() {
                    pending_space = true;
                }
            }
            '\'' | '"' | '`' => {
                if pending_space {
                    out.push(' ');
                    pending_space = false;
                }
                out.push(c);
                // Copy the literal verbatim: whitespace inside is data. The
                // lexer supports doubled-quote escapes (`''` / `""`), which
                // read here as close-then-reopen — harmless for a cache key,
                // since the doubled quote is itself copied verbatim.
                for inner in chars.by_ref() {
                    out.push(inner);
                    if inner == c {
                        break;
                    }
                }
            }
            c => {
                if pending_space {
                    out.push(' ');
                    pending_space = false;
                }
                out.push(c);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_for(query: &str) -> Arc<CachedPlan> {
        let ast = cypher::parse(query).unwrap();
        let read_only = ast.is_read_only();
        let plan = ExecutionPlan::build(&ast).unwrap();
        Arc::new(CachedPlan { has_params: plan.has_params(), plan: Arc::new(plan), read_only })
    }

    #[test]
    fn normalization_collapses_whitespace_but_not_string_contents() {
        assert_eq!(normalize("  MATCH   (n)\n\tRETURN  n  "), "MATCH (n) RETURN n");
        assert_eq!(
            normalize("MATCH (n {name: 'two  spaces'}) RETURN n"),
            "MATCH (n {name: 'two  spaces'}) RETURN n"
        );
        assert_eq!(normalize("RETURN \"a  b\""), "RETURN \"a  b\"");
        assert_eq!(normalize(""), "");
    }

    #[test]
    fn lookup_miss_then_insert_then_hit() {
        let cache = PlanCache::new(4);
        let metrics = Metrics::default();
        assert!(cache.lookup("MATCH (n) RETURN n", &metrics).is_none(), "empty cache must miss");
        cache.insert("MATCH (n) RETURN n".into(), plan_for("MATCH (n) RETURN n"), &metrics);
        assert!(cache.lookup("MATCH (n) RETURN n", &metrics).is_some());
        assert_eq!(cache.len(), 1);
        assert_eq!(metrics.plan_cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.plan_cache_misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn insert_after_a_resize_lands_within_the_new_capacity() {
        let cache = PlanCache::new(4);
        let metrics = Metrics::default();
        assert!(cache.lookup("q1", &metrics).is_none());
        // The resize lands while the caller is off building the plan; its
        // late insert is still a correct plan and is bounded like any other.
        cache.set_capacity(1);
        cache.insert("q1".into(), plan_for("MATCH (n) RETURN n"), &metrics);
        cache.insert("q2".into(), plan_for("MATCH (n) RETURN n"), &metrics);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup("q2", &metrics).is_some());
    }

    #[test]
    fn lru_eviction_is_bounded_and_counted() {
        let cache = PlanCache::new(2);
        let metrics = Metrics::default();
        for key in ["q1", "q2", "q3"] {
            assert!(cache.lookup(key, &metrics).is_none());
            cache.insert(key.into(), plan_for("MATCH (n) RETURN n"), &metrics);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(metrics.plan_cache_evictions.load(Ordering::Relaxed), 1);
        // q1 was the least recently used entry, so it is the one gone.
        assert!(cache.lookup("q1", &metrics).is_none());
        assert!(cache.lookup("q2", &metrics).is_some());
        assert!(cache.lookup("q3", &metrics).is_some());

        // A hit refreshes recency: q2 survives the next eviction, q3 goes.
        assert!(cache.lookup("q4", &metrics).is_none());
        assert!(cache.lookup("q2", &metrics).is_some());
        cache.insert("q4".into(), plan_for("MATCH (n) RETURN n"), &metrics);
        assert!(cache.lookup("q2", &metrics).is_some());
        assert!(cache.lookup("q3", &metrics).is_none());
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let cache = PlanCache::new(0);
        let metrics = Metrics::default();
        assert!(cache.lookup("q", &metrics).is_none());
        cache.insert("q".into(), plan_for("MATCH (n) RETURN n"), &metrics);
        assert!(cache.is_empty());
        assert!(cache.lookup("q", &metrics).is_none());
    }

    #[test]
    fn resizing_invalidates() {
        let cache = PlanCache::new(4);
        let metrics = Metrics::default();
        cache.insert("q".into(), plan_for("MATCH (n) RETURN n"), &metrics);
        assert_eq!(cache.len(), 1);
        cache.set_capacity(8);
        assert!(cache.is_empty());
    }
}
