//! The server-wide metrics registry behind `GRAPH.INFO`, plus the per-graph
//! slow-query log behind `GRAPH.SLOWLOG`.
//!
//! Dependency-free by design (the build is offline): plain atomic counters
//! and gauges, and a log-bucketed histogram for latencies and pipeline
//! depths. Everything is lock-free on the record path — one `fetch_add` per
//! counter, four per histogram sample — so instrumenting the 40k+-qps
//! point-read path costs nanoseconds, not a mutex.

use std::collections::VecDeque;
use std::time::{Duration, SystemTime};

// Routed through the crossbeam shim (std atomics in normal builds) so the
// admission accounting below runs under the deterministic model checker.
use crossbeam::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: bucket `i` counts samples whose value has
/// bit width `i` (so bucket 0 holds exactly the value 0, bucket 64 holds
/// values ≥ 2⁶³). Power-of-two bucketing keeps the record path to a
/// `leading_zeros` and gives quantiles with ≤ 2× relative error — plenty for
/// "where does the time go" questions.
const BUCKETS: usize = 65;

/// A log-bucketed histogram of `u64` samples (nanoseconds for latencies,
/// plain counts for pipeline depth). Quantiles report the upper bound of the
/// bucket containing the requested rank, clamped to the exact observed max.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, value: u64) {
        let bucket = (u64::BITS - value.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.load(Ordering::Relaxed).checked_div(self.count()).unwrap_or(0)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`): the upper bound of the bucket the
    /// rank falls in, clamped to the observed max. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                let upper = match i {
                    0 => 0,
                    64 => u64::MAX,
                    width => (1u64 << width) - 1,
                };
                return upper.min(self.max());
            }
        }
        self.max()
    }
}

/// Every command the server understands, as a dense index for the
/// per-command counters (`GRAPH.INFO`'s `commands` section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// `PING`
    Ping,
    /// `SHUTDOWN`
    Shutdown,
    /// `GRAPH.QUERY`
    GraphQuery,
    /// `GRAPH.PROFILE`
    GraphProfile,
    /// `GRAPH.EXPLAIN`
    GraphExplain,
    /// `GRAPH.DELETE`
    GraphDelete,
    /// `GRAPH.LIST`
    GraphList,
    /// `GRAPH.CONFIG GET`
    GraphConfigGet,
    /// `GRAPH.CONFIG SET`
    GraphConfigSet,
    /// `GRAPH.SLOWLOG`
    GraphSlowlog,
    /// `GRAPH.INFO`
    GraphInfo,
}

impl CommandKind {
    /// Every kind, in the order `GRAPH.INFO` reports them.
    pub const ALL: [CommandKind; 11] = [
        CommandKind::Ping,
        CommandKind::Shutdown,
        CommandKind::GraphQuery,
        CommandKind::GraphProfile,
        CommandKind::GraphExplain,
        CommandKind::GraphDelete,
        CommandKind::GraphList,
        CommandKind::GraphConfigGet,
        CommandKind::GraphConfigSet,
        CommandKind::GraphSlowlog,
        CommandKind::GraphInfo,
    ];

    /// The wire name (`GRAPH.INFO` key).
    pub fn name(self) -> &'static str {
        match self {
            CommandKind::Ping => "ping",
            CommandKind::Shutdown => "shutdown",
            CommandKind::GraphQuery => "graph.query",
            CommandKind::GraphProfile => "graph.profile",
            CommandKind::GraphExplain => "graph.explain",
            CommandKind::GraphDelete => "graph.delete",
            CommandKind::GraphList => "graph.list",
            CommandKind::GraphConfigGet => "graph.config.get",
            CommandKind::GraphConfigSet => "graph.config.set",
            CommandKind::GraphSlowlog => "graph.slowlog",
            CommandKind::GraphInfo => "graph.info",
        }
    }
}

/// The server-wide registry: one instance per [`crate::RedisGraphServer`],
/// shared by the dispatch path, the connection loops, and the accept loop.
/// All fields are plain atomics — `GRAPH.INFO` reads are as racy as any
/// monitoring endpoint and exactly as cheap.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Queries that completed successfully (`GRAPH.QUERY` + `GRAPH.PROFILE`).
    pub queries_executed: AtomicU64,
    /// Queries that returned an error (parse, plan, or execution).
    pub queries_failed: AtomicU64,
    /// Read-only queries (served from an epoch snapshot, lock-free).
    pub queries_readonly: AtomicU64,
    /// Write queries (served under the graph's write lock).
    pub queries_write: AtomicU64,
    /// Reads answered by the cached epoch snapshot as-is.
    pub snapshot_hits: AtomicU64,
    /// Reads that found a stale cache and rebuilt the epoch snapshot.
    pub snapshot_rebuilds: AtomicU64,
    /// Plan-cache lookups answered with a cached skeleton (no parse, no
    /// plan; parameters bound per execution).
    pub plan_cache_hits: AtomicU64,
    /// Plan-cache lookups that parsed and planned from scratch.
    pub plan_cache_misses: AtomicU64,
    /// Plans evicted by the cache's LRU bound (`PLAN_CACHE_SIZE`).
    pub plan_cache_evictions: AtomicU64,
    /// Per-command invocation counts, indexed by [`CommandKind`].
    commands: [AtomicU64; CommandKind::ALL.len()],
    /// Connections the accept loop admitted.
    pub connections_accepted: AtomicU64,
    /// Currently served connections (gauge; also the `maxclients` counter).
    pub connections_active: AtomicU64,
    /// Connections refused over the `MAX_CONNECTIONS` cap.
    pub connections_refused: AtomicU64,
    /// Bytes read from client sockets.
    pub bytes_in: AtomicU64,
    /// Bytes written to client sockets.
    pub bytes_out: AtomicU64,
    /// End-to-end query latency (dispatch to reply), nanoseconds.
    pub query_latency: Histogram,
    /// Time one epoch-snapshot rebuild takes (the clone, the seal and the
    /// cache swap that drops the superseded snapshot), nanoseconds.
    pub snapshot_rebuild_latency: Histogram,
    /// Commands decoded per socket read (pipeline depth).
    pub pipeline_depth: Histogram,
}

impl Metrics {
    /// Count one invocation of `kind`.
    pub fn count_command(&self, kind: CommandKind) {
        self.commands[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Invocations of `kind` so far.
    pub fn command_count(&self, kind: CommandKind) -> u64 {
        self.commands[kind as usize].load(Ordering::Relaxed)
    }

    /// Claim one connection slot against the `MAX_CONNECTIONS` cap.
    ///
    /// `connections_active` is the single source of truth for maxclients, so
    /// admission must be a single atomic decision: a compare-exchange loop
    /// with `AcqRel` success ordering (the acquire pairs with the release of
    /// a slot in [`Metrics::release_connection`]; a load-then-add would let
    /// two racing acceptors both pass the check and over-admit — the
    /// modelcheck `maxclients` suite pins this). Returns `false` with the
    /// gauge untouched when the cap is reached.
    pub fn try_acquire_connection(&self, max: u64) -> bool {
        // `xmut_relaxed_admission` is a seeded mutant for the model-checker
        // CI smoke test: the check-then-act version must make the
        // `maxclients` suite fail.
        #[cfg(xmut_relaxed_admission)]
        {
            if self.connections_active.load(Ordering::Relaxed) >= max {
                return false;
            }
            self.connections_active.fetch_add(1, Ordering::Relaxed);
            true
        }
        #[cfg(not(xmut_relaxed_admission))]
        {
            let mut current = self.connections_active.load(Ordering::Acquire);
            loop {
                if current >= max {
                    return false;
                }
                match self.connections_active.compare_exchange(
                    current,
                    current + 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return true,
                    Err(actual) => current = actual,
                }
            }
        }
    }

    /// Return a connection slot claimed by [`Metrics::try_acquire_connection`].
    /// `AcqRel` so the release pairs with the next successful acquisition.
    pub fn release_connection(&self) {
        self.connections_active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Entries the slow-query ring buffer keeps; the oldest entry is evicted
/// when a new one arrives at capacity (RedisGraph keeps a bounded window,
/// not an unbounded log).
pub const SLOWLOG_CAPACITY: usize = 128;

/// One slow query.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowLogEntry {
    /// Unix timestamp (seconds) when the query finished.
    pub unix_time: u64,
    /// The command that ran it (`GRAPH.QUERY` or `GRAPH.PROFILE`).
    pub command: &'static str,
    /// The query text.
    pub query: String,
    /// Total wall time, dispatch to reply, in milliseconds.
    pub millis: f64,
    /// Number of arguments the command carried (graph name + query).
    pub args: usize,
}

impl SlowLogEntry {
    /// Build an entry stamped with the current wall-clock time.
    pub fn now(command: &'static str, query: String, elapsed: Duration) -> SlowLogEntry {
        let unix_time = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        SlowLogEntry { unix_time, command, query, millis: elapsed.as_secs_f64() * 1e3, args: 2 }
    }
}

/// A fixed-capacity ring buffer of slow queries, one per graph
/// (`GRAPH.SLOWLOG <graph> [GET|RESET]`). The mutex around it lives in the
/// keyspace entry; queries under the threshold never touch it.
#[derive(Debug, Default)]
pub struct SlowLog {
    entries: VecDeque<SlowLogEntry>,
}

impl SlowLog {
    /// Append an entry, evicting the oldest at capacity.
    pub fn record(&mut self, entry: SlowLogEntry) {
        if self.entries.len() == SLOWLOG_CAPACITY {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
    }

    /// The logged entries, most recent first.
    pub fn entries_newest_first(&self) -> Vec<SlowLogEntry> {
        self.entries.iter().rev().cloned().collect()
    }

    /// Number of logged entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been logged (or everything was reset).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every entry (`GRAPH.SLOWLOG <graph> RESET`).
    pub fn reset(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let h = Histogram::default();
        for v in [100u64, 200, 300, 400, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 100_000);
        // p50 falls in the bucket of 200–300 (width-9 values, upper 511).
        let p50 = h.quantile(0.5);
        assert!((200..=511).contains(&p50), "p50 = {p50}");
        // p99 is clamped to the exact max, never the bucket's loose bound.
        assert_eq!(h.quantile(0.99), 100_000);
        assert_eq!(h.quantile(1.0), 100_000);
        assert!(h.mean() >= 20_000);
    }

    #[test]
    fn histogram_handles_zero_and_empty() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0);
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.99), 0);
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn slowlog_is_a_ring() {
        let mut log = SlowLog::default();
        for i in 0..(SLOWLOG_CAPACITY + 10) {
            log.record(SlowLogEntry {
                unix_time: i as u64,
                command: "GRAPH.QUERY",
                query: format!("q{i}"),
                millis: 1.0,
                args: 2,
            });
        }
        assert_eq!(log.len(), SLOWLOG_CAPACITY);
        let newest = log.entries_newest_first();
        assert_eq!(newest[0].query, format!("q{}", SLOWLOG_CAPACITY + 9));
        // The 10 oldest were evicted.
        assert_eq!(newest.last().unwrap().query, "q10");
        log.reset();
        assert!(log.is_empty());
    }

    #[test]
    fn command_counters_are_per_kind() {
        let m = Metrics::default();
        m.count_command(CommandKind::GraphQuery);
        m.count_command(CommandKind::GraphQuery);
        m.count_command(CommandKind::Ping);
        assert_eq!(m.command_count(CommandKind::GraphQuery), 2);
        assert_eq!(m.command_count(CommandKind::Ping), 1);
        assert_eq!(m.command_count(CommandKind::GraphInfo), 0);
    }
}
