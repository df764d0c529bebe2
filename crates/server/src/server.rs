//! The in-process RedisGraph server: a single-threaded command dispatcher in
//! front of the module threadpool, plus the keyspace of named graphs.
//!
//! Concurrency model (paper §II):
//!
//! * all commands funnel through the single main thread ([`RedisGraphServer::handle`]
//!   or the dispatcher thread started by [`RedisGraphServer::start_dispatcher`]);
//! * each `GRAPH.QUERY` is executed by **one** worker of the threadpool;
//! * queries are parsed **once**, at dispatch: a parse error answers
//!   immediately without occupying a pool worker or touching any graph lock;
//! * read-only queries pin an epoch snapshot ([`redisgraph_core::GraphSnapshot`])
//!   under a momentary read lock and then execute entirely lock-free, so a
//!   heavy procedure call or a burst of writers can never stall point reads;
//! * write queries take the graph's write lock for exclusive access.

use crate::commands::{
    encode_resultset, profile_to_resp, resultset_to_resp, split_cypher_params, Command,
};
use crate::metrics::{CommandKind, Metrics, SlowLog, SlowLogEntry};
use crate::plan_cache::{normalize, CachedPlan, Lookup, PlanCache};
use crate::pool::ThreadPool;
use crate::resp::RespValue;
use crossbeam::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crossbeam::channel::{unbounded, Receiver, Sender};
use crossbeam::thread::JoinHandle;
use parking_lot::{Mutex, RwLock};
use redisgraph_core::{ExecutionPlan, Graph, GraphSnapshot, QueryError, ResultSet};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Server configuration (the module load-time options).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Number of worker threads in the query pool (`THREAD_COUNT` module arg).
    pub thread_count: usize,
    /// Per-matrix pending-change count at which delta buffers are folded into
    /// the main matrices (`DELTA_MAX_PENDING_CHANGES`; runtime-tunable with
    /// `GRAPH.CONFIG SET`).
    pub delta_max_pending_changes: usize,
    /// Intra-query thread count for GraphBLAS kernels (`QUERY_THREADS`
    /// module arg, the paper's `GxB_set(GxB_NTHREADS, …)`): the batched
    /// traversal `mxm` parallelises over frontier row blocks with this many
    /// threads. `None` leaves the process-wide [`graphblas::Context`]
    /// untouched (it defaults to 1 — inter-query concurrency comes from the
    /// module threadpool, as RedisGraph ships). Runtime-tunable with
    /// `GRAPH.CONFIG SET QUERY_THREADS`.
    pub query_threads: Option<usize>,
    /// Per-connection cap on the retained query buffer (`MAX_QUERY_BUFFER`,
    /// Redis' `client-query-buffer-limit`): a connection whose unparsed
    /// bytes exceed this is closed with a protocol error, so a client that
    /// declares a huge bulk and streams it slowly — or never finishes a
    /// frame at all — cannot hold server memory hostage. Runtime-tunable
    /// with `GRAPH.CONFIG SET MAX_QUERY_BUFFER`.
    pub max_query_buffer: usize,
    /// Cap on concurrently served TCP connections (Redis' `maxclients`):
    /// connection number `max_connections + 1` is greeted with an error and
    /// closed instead of accepted.
    pub max_connections: usize,
    /// Queries whose total wall time (dispatch to reply) reaches this many
    /// milliseconds are recorded in their graph's slow-query ring buffer
    /// (`GRAPH.SLOWLOG`). `0` logs every query. Runtime-tunable with
    /// `GRAPH.CONFIG SET SLOWLOG_TIME_THRESHOLD`.
    pub slowlog_time_threshold_ms: u64,
    /// Per-graph cap on cached execution-plan skeletons (`PLAN_CACHE_SIZE`).
    /// `GRAPH.QUERY` / `GRAPH.PROFILE` / `GRAPH.EXPLAIN` cache the parsed and
    /// planned form of each whitespace-normalized query body and re-bind
    /// `CYPHER` header parameters per execution. `0` disables caching.
    /// Runtime-tunable with `GRAPH.CONFIG SET PLAN_CACHE_SIZE` (resizing
    /// clears existing caches).
    pub plan_cache_size: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            thread_count: 4,
            delta_max_pending_changes: graphblas::DEFAULT_FLUSH_THRESHOLD,
            query_threads: None,
            max_query_buffer: DEFAULT_MAX_QUERY_BUFFER,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            slowlog_time_threshold_ms: DEFAULT_SLOWLOG_TIME_THRESHOLD_MS,
            plan_cache_size: DEFAULT_PLAN_CACHE_SIZE,
        }
    }
}

/// Default `PLAN_CACHE_SIZE` (cached plan skeletons per graph). RedisGraph's
/// query cache defaults to 25 entries per graph; a larger bound costs only
/// retained plans (small) and keeps benchmark workloads with many distinct
/// shapes entirely cache-resident.
pub const DEFAULT_PLAN_CACHE_SIZE: usize = 256;

/// Default `SLOWLOG_TIME_THRESHOLD` (milliseconds; Redis' slowlog default is
/// 10000 µs). Point reads finish far under it, so the hot path's only cost
/// is one integer compare.
pub const DEFAULT_SLOWLOG_TIME_THRESHOLD_MS: u64 = 10;

/// Ceiling for `QUERY_THREADS` (a sanity cap, not a hardware probe).
const MAX_QUERY_THREADS: usize = 1024;

/// Default `MAX_QUERY_BUFFER` (1GB, Redis' `client-query-buffer-limit`).
pub const DEFAULT_MAX_QUERY_BUFFER: usize = 1 << 30;

/// Floor for `MAX_QUERY_BUFFER`: below one RESP header line the server could
/// not even parse a `PING`, so smaller settings are rejected.
pub const MIN_QUERY_BUFFER: usize = 1024;

/// Default cap on concurrent TCP connections.
pub const DEFAULT_MAX_CONNECTIONS: usize = 128;

/// Canonical names of every `GRAPH.CONFIG` parameter, in the order
/// `GRAPH.CONFIG GET *` reports them. The first five are runtime-settable;
/// `THREAD_COUNT` and `MAX_CONNECTIONS` are fixed at module load.
const CONFIG_PARAMETERS: [&str; 7] = [
    "DELTA_MAX_PENDING_CHANGES",
    "QUERY_THREADS",
    "MAX_QUERY_BUFFER",
    "SLOWLOG_TIME_THRESHOLD",
    "PLAN_CACHE_SIZE",
    "THREAD_COUNT",
    "MAX_CONNECTIONS",
];

/// The metrics-registry index of a parsed command.
fn command_kind(command: &Command) -> CommandKind {
    match command {
        Command::Ping => CommandKind::Ping,
        Command::Shutdown => CommandKind::Shutdown,
        Command::GraphQuery { .. } => CommandKind::GraphQuery,
        Command::GraphProfile { .. } => CommandKind::GraphProfile,
        Command::GraphExplain { .. } => CommandKind::GraphExplain,
        Command::GraphDelete { .. } => CommandKind::GraphDelete,
        Command::GraphList => CommandKind::GraphList,
        Command::GraphConfigGet { .. } => CommandKind::GraphConfigGet,
        Command::GraphConfigSet { .. } => CommandKind::GraphConfigSet,
        Command::GraphSlowlog { .. } => CommandKind::GraphSlowlog,
        Command::GraphInfo => CommandKind::GraphInfo,
    }
}

/// A request travelling from a client to the dispatcher thread.
pub struct Request {
    /// The already-framed command.
    pub command: RespValue,
    /// Where to deliver the reply.
    pub reply_to: Sender<RespValue>,
}

/// The form a dispatch path takes a query's reply in — the one thing
/// [`RedisGraphServer::submit_query`] does differently per caller. In-process
/// callers (the façade, the dispatcher thread) take the [`RespValue`] tree; a
/// TCP connection takes the encoded bytes, which the worker writes straight
/// from the [`ResultSet`] so that no tree is built, sent, walked and dropped
/// for a reply nobody inspects.
pub trait QueryReply: Send + 'static {
    /// The reply to a query that produced `rs`.
    fn from_resultset(rs: &ResultSet) -> Self;
    /// Any other reply: an error, a profile tree.
    fn from_resp(reply: RespValue) -> Self;
}

impl QueryReply for RespValue {
    fn from_resultset(rs: &ResultSet) -> Self {
        resultset_to_resp(rs)
    }
    fn from_resp(reply: RespValue) -> Self {
        reply
    }
}

impl QueryReply for Vec<u8> {
    fn from_resultset(rs: &ResultSet) -> Self {
        let mut out = Vec::new();
        encode_resultset(rs, &mut out);
        out
    }
    fn from_resp(reply: RespValue) -> Self {
        reply.encode()
    }
}

/// One keyspace slot: the graph plus its delete tombstone.
///
/// Queries dispatched before a `GRAPH.DELETE` may still hold this entry's
/// `Arc` when the delete lands; the flag makes the delete observable to them
/// (a queued write aborts instead of mutating the orphan), while a later
/// lookup of the same name creates a *fresh* entry.
#[derive(Clone)]
struct GraphEntry {
    graph: Arc<RwLock<Graph>>,
    deleted: Arc<AtomicBool>,
    /// The sealed snapshot serving the current epoch's reads, rebuilt at the
    /// first read after a publication; every later read of the same epoch
    /// just clones the `Arc`. A `GRAPH.DELETE` drops the whole entry, and
    /// the stale cache with it.
    snapshot_cache: Arc<Mutex<Option<Arc<GraphSnapshot>>>>,
    /// The graph's slow-query ring buffer (`GRAPH.SLOWLOG`). Per graph, like
    /// RedisGraph: a `GRAPH.DELETE` drops the log with the entry.
    slowlog: Arc<Mutex<SlowLog>>,
    /// Cached plan skeletons keyed on the normalized query body; parameters
    /// bind per execution. Per graph, so a `GRAPH.DELETE` drops the cache
    /// with the entry and one graph's churn cannot evict another's plans.
    plan_cache: Arc<PlanCache>,
}

impl GraphEntry {
    /// The sealed snapshot of the graph's current epoch.
    ///
    /// The epoch check and the clone backing a rebuild happen under the
    /// *same* read-lock acquisition, so the cached snapshot can never be
    /// installed for an epoch it does not represent. The cache mutex is held
    /// across the rebuild (single-flight): concurrent first-readers of a
    /// fresh epoch briefly queue for one structural clone instead of each
    /// paying their own, and nobody holds the graph lock while they wait —
    /// a writer is never blocked.
    fn snapshot(&self, metrics: &Metrics) -> Arc<GraphSnapshot> {
        let mut cache = self.snapshot_cache.lock();
        let pending = {
            let g = self.graph.read();
            if let Some(cached) = cache.as_ref() {
                if cached.epoch() == g.epoch() {
                    metrics.snapshot_hits.fetch_add(1, Ordering::Relaxed);
                    return Arc::clone(cached);
                }
            }
            g.clone()
        };
        metrics.snapshot_rebuilds.fetch_add(1, Ordering::Relaxed);
        let sealed = Arc::new(GraphSnapshot::seal(pending));
        *cache = Some(Arc::clone(&sealed));
        sealed
    }

    /// Finish resolving a plan skeleton after a [`PlanCache::lookup`]:
    /// validate that a hit was built under the graph's current optimizer
    /// setting, or parse + plan + insert on a miss. `ast` carries the
    /// pre-parsed body when the dispatch path already paid for the parse;
    /// otherwise the body is re-derived from `query_text` here. Returns the
    /// skeleton and whether it came from the cache.
    fn resolve_plan(
        &self,
        key: &str,
        looked_up: Lookup,
        ast: Option<cypher::Query>,
        query_text: &str,
        metrics: &Metrics,
    ) -> Result<(Arc<CachedPlan>, bool), QueryError> {
        let generation = match looked_up {
            Lookup::Hit(cached) => {
                if cached.optimized == self.graph.read().optimizer_enabled() {
                    return Ok((cached, true));
                }
                // The optimizer was toggled since this plan was built: every
                // plan of the old regime is stale, so clear them all and
                // rebuild (the generation bump also rejects in-flight
                // inserts that observed the old setting).
                self.plan_cache.invalidate();
                match self.plan_cache.lookup(key, metrics) {
                    Lookup::Miss(generation) => generation,
                    Lookup::Hit(cached) => return Ok((cached, true)),
                }
            }
            Lookup::Miss(generation) => generation,
        };
        let ast = match ast {
            Some(ast) => ast,
            None => {
                let (_, body) = split_cypher_params(query_text).map_err(QueryError::Syntax)?;
                cypher::parse(body)?
            }
        };
        let (plan, optimized) = {
            let g = self.graph.read();
            (g.build_plan(&ast)?, g.optimizer_enabled())
        };
        let skeleton = Arc::new(CachedPlan {
            read_only: ast.is_read_only(),
            has_params: plan.has_params(),
            plan: Arc::new(plan),
            optimized,
        });
        self.plan_cache.insert(key.to_string(), Arc::clone(&skeleton), generation, metrics);
        Ok((skeleton, false))
    }
}

/// The in-process server.
pub struct RedisGraphServer {
    graphs: Arc<RwLock<HashMap<String, GraphEntry>>>,
    pool: Arc<ThreadPool>,
    config: ServerConfig,
    /// Live value of `DELTA_MAX_PENDING_CHANGES` (`GRAPH.CONFIG SET` updates
    /// it at runtime; new graphs pick it up on creation, existing graphs are
    /// retuned in place).
    delta_max_pending_changes: AtomicUsize,
    /// Live value of `MAX_QUERY_BUFFER`: connection loops reload it before
    /// every bound check, so `GRAPH.CONFIG SET` applies to open connections.
    max_query_buffer: AtomicUsize,
    /// Live value of `SLOWLOG_TIME_THRESHOLD` in milliseconds (0 = log every
    /// query).
    slowlog_time_threshold_ms: AtomicU64,
    /// Live value of `PLAN_CACHE_SIZE` (cached plans per graph; 0 disables):
    /// new graphs size their cache from it, `GRAPH.CONFIG SET` resizes
    /// existing caches in place.
    plan_cache_size: AtomicUsize,
    /// The server-wide metrics registry (`GRAPH.INFO`), shared with the
    /// network layer's accept and connection loops.
    metrics: Arc<Metrics>,
}

impl RedisGraphServer {
    /// Create a server with the given module configuration.
    ///
    /// # Panics
    /// Panics if `query_threads` is out of range — a bad module argument
    /// fails the load, with the same `1..=1024` validation that
    /// `GRAPH.CONFIG SET QUERY_THREADS` applies at runtime.
    pub fn new(config: ServerConfig) -> Self {
        if let Some(n) = config.query_threads {
            assert!(
                (1..=MAX_QUERY_THREADS).contains(&n),
                "QUERY_THREADS must be in 1..={MAX_QUERY_THREADS}, got {n}"
            );
            graphblas::Context::set_nthreads(n);
        }
        RedisGraphServer {
            graphs: Arc::new(RwLock::new(HashMap::new())),
            pool: Arc::new(ThreadPool::new(config.thread_count)),
            config,
            delta_max_pending_changes: AtomicUsize::new(config.delta_max_pending_changes.max(1)),
            max_query_buffer: AtomicUsize::new(config.max_query_buffer.max(MIN_QUERY_BUFFER)),
            slowlog_time_threshold_ms: AtomicU64::new(config.slowlog_time_threshold_ms),
            plan_cache_size: AtomicUsize::new(config.plan_cache_size),
            metrics: Arc::new(Metrics::default()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> ServerConfig {
        self.config
    }

    /// The live `DELTA_MAX_PENDING_CHANGES` value.
    pub fn delta_max_pending_changes(&self) -> usize {
        self.delta_max_pending_changes.load(Ordering::Relaxed)
    }

    /// The live `MAX_QUERY_BUFFER` value (per-connection retained-bytes cap).
    pub fn max_query_buffer(&self) -> usize {
        self.max_query_buffer.load(Ordering::Relaxed)
    }

    /// The live `SLOWLOG_TIME_THRESHOLD` value in milliseconds.
    pub fn slowlog_time_threshold_ms(&self) -> u64 {
        self.slowlog_time_threshold_ms.load(Ordering::Relaxed)
    }

    /// The live `PLAN_CACHE_SIZE` value (cached plans per graph; 0 disables
    /// the plan cache).
    pub fn plan_cache_size(&self) -> usize {
        self.plan_cache_size.load(Ordering::Relaxed)
    }

    /// The server-wide metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The module threadpool (the network layer dispatches queries onto it).
    pub(crate) fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// Fetch (or create) the graph stored under `name`.
    pub fn graph(&self, name: &str) -> Arc<RwLock<Graph>> {
        self.entry(name).graph
    }

    /// Fetch (or create) the keyspace entry stored under `name`.
    fn entry(&self, name: &str) -> GraphEntry {
        if let Some(e) = self.graphs.read().get(name) {
            return e.clone();
        }
        let mut graphs = self.graphs.write();
        graphs
            .entry(name.to_string())
            .or_insert_with(|| {
                let mut g = Graph::new(name);
                // Threshold is read under the map's write lock so a racing
                // `GRAPH.CONFIG SET` (which retunes the map's graphs under
                // the same lock) cannot leave this graph on a stale value.
                g.set_flush_threshold(self.delta_max_pending_changes());
                GraphEntry {
                    graph: Arc::new(RwLock::new(g)),
                    deleted: Arc::new(AtomicBool::new(false)),
                    snapshot_cache: Arc::new(Mutex::new(None)),
                    slowlog: Arc::new(Mutex::new(SlowLog::default())),
                    plan_cache: Arc::new(PlanCache::new(self.plan_cache_size())),
                }
            })
            .clone()
    }

    /// Names of the graphs currently stored.
    pub fn graph_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.graphs.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Handle one framed command synchronously: the calling thread plays the
    /// role of the main Redis thread, the query itself runs on a pool worker.
    pub fn handle(&self, command: &RespValue) -> RespValue {
        let parsed = match Command::parse(command) {
            Ok(c) => c,
            Err(e) => return RespValue::Error(format!("ERR {e}")),
        };
        self.execute(parsed)
    }

    /// Convenience wrapper: run a Cypher query against a named graph.
    pub fn query(&self, graph: &str, query: &str) -> RespValue {
        self.handle(&RespValue::command(&["GRAPH.QUERY", graph, query]))
    }

    /// Submit a `GRAPH.QUERY` to the module threadpool: one query, one worker
    /// thread (the paper's execution model). The reply is delivered on
    /// `reply_to` when the worker finishes — this is the single dispatch path
    /// shared by the synchronous façade, the dispatcher thread, and the TCP
    /// connection loops, so locking discipline lives in exactly one place.
    ///
    /// The query is parsed exactly once, here: a parse error replies
    /// immediately without creating the graph, occupying a worker, or
    /// touching any lock (an unparseable query used to be classified as a
    /// write and took the exclusive lock just to fail), and the AST rides
    /// along to the worker so execution never re-parses the text.
    pub fn submit_query<R: QueryReply>(&self, graph: String, query: String, reply_to: Sender<R>) {
        self.submit(graph, query, false, reply_to);
    }

    /// Submit a `GRAPH.PROFILE`: same dispatch, locking, and mutation
    /// semantics as [`RedisGraphServer::submit_query`], but the reply is the
    /// per-operator profile tree instead of the result set.
    pub fn submit_profile<R: QueryReply>(&self, graph: String, query: String, reply_to: Sender<R>) {
        self.submit(graph, query, true, reply_to);
    }

    fn submit<R: QueryReply>(
        &self,
        graph: String,
        query: String,
        profile: bool,
        reply_to: Sender<R>,
    ) {
        // The one wall-clock anchor for this query: the statistics footer,
        // the profile totals, the latency histogram, and the slowlog all
        // derive from it, so the layers can never disagree about a query's
        // duration.
        let started = Instant::now();
        let metrics = Arc::clone(&self.metrics);
        metrics.count_command(if profile {
            CommandKind::GraphProfile
        } else {
            CommandKind::GraphQuery
        });
        let error = |e: &dyn std::fmt::Display| R::from_resp(RespValue::Error(format!("ERR {e}")));
        // Split the `CYPHER name=value …` parameter header off the body
        // first: the cache key is the normalized *body*, so the same query
        // shape with different parameter values shares one cached plan.
        let (params, body) = match split_cypher_params(&query) {
            Ok(split) => split,
            Err(e) => {
                metrics.queries_failed.fetch_add(1, Ordering::Relaxed);
                let _ = reply_to.send(error(&e));
                return;
            }
        };
        let key = normalize(body);
        // Plan-cache lookup before parsing: a hit skips both the parser and
        // the planner. The keyspace entry is only *read* here — like parse
        // errors, a cache miss on an unknown graph must not create it.
        let existing = self.graphs.read().get(&graph).cloned();
        let looked_up = match &existing {
            Some(entry) => entry.plan_cache.lookup(&key, &metrics),
            None => {
                metrics.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
                // A fresh entry's cache starts at generation 0, so the
                // worker's insert against this observation still lands.
                Lookup::Miss(0)
            }
        };
        // On a miss, parse at dispatch: a syntax error answers immediately
        // without creating the graph, occupying a worker, or touching any
        // lock. The AST rides along so the worker never re-parses.
        let ast = match &looked_up {
            Lookup::Hit(_) => None,
            Lookup::Miss(_) => match cypher::parse(body) {
                Ok(ast) => Some(ast),
                Err(e) => {
                    metrics.queries_failed.fetch_add(1, Ordering::Relaxed);
                    let _ = reply_to.send(error(&QueryError::from(e)));
                    return;
                }
            },
        };
        let entry = existing.unwrap_or_else(|| self.entry(&graph));
        let slowlog_threshold_ms = self.slowlog_time_threshold_ms();
        self.pool.execute(move || {
            let outcome: Result<R, Box<dyn std::error::Error>> = (|| {
                // Resolve the skeleton (cache hit, or build + insert), then
                // bind parameters into a private copy when the plan
                // references any.
                let (skeleton, was_cached) =
                    entry.resolve_plan(&key, looked_up, ast, &query, &metrics)?;
                let bound;
                let plan: &ExecutionPlan = if skeleton.has_params {
                    bound = skeleton.plan.bind(&params)?;
                    &bound
                } else {
                    &skeleton.plan
                };
                let rows = |mut rs: ResultSet| {
                    rs.stats.cached = was_cached;
                    R::from_resultset(&rs)
                };
                let profiled =
                    |(_rs, profiles): (ResultSet, Vec<_>)| R::from_resp(profile_to_resp(&profiles));
                if skeleton.read_only {
                    // Pin the current epoch's sealed snapshot (cached per
                    // epoch, rebuilt outside every lock on a miss), then
                    // execute with no lock held at all: a heavy query cannot
                    // queue a flush's write-lock request in front of us, and
                    // we cannot stall a writer. The live graph's deltas stay
                    // buffered — the seal folded the snapshot's private COW
                    // copies once per epoch.
                    metrics.queries_readonly.fetch_add(1, Ordering::Relaxed);
                    let snapshot = entry.snapshot(&metrics);
                    if profile {
                        Ok(profiled(snapshot.profile_plan_at(plan, started)?))
                    } else {
                        Ok(rows(snapshot.execute_plan_at(plan, started)?))
                    }
                } else {
                    metrics.queries_write.fetch_add(1, Ordering::Relaxed);
                    let mut g = entry.graph.write();
                    // A `GRAPH.DELETE` that landed after dispatch marked the
                    // entry; abort rather than mutate the orphan.
                    if entry.deleted.load(Ordering::SeqCst) {
                        return Err(format!("graph `{}` was deleted", g.name()).into());
                    }
                    if profile {
                        Ok(profiled(plan.profile(&mut g, started)?))
                    } else {
                        Ok(rows(plan.execute_at(&mut g, started)?))
                    }
                }
            })();
            let elapsed = started.elapsed();
            metrics.query_latency.record_duration(elapsed);
            let outcome_counter =
                if outcome.is_ok() { &metrics.queries_executed } else { &metrics.queries_failed };
            outcome_counter.fetch_add(1, Ordering::Relaxed);
            if elapsed.as_millis() as u64 >= slowlog_threshold_ms {
                let command = if profile { "GRAPH.PROFILE" } else { "GRAPH.QUERY" };
                entry.slowlog.lock().record(SlowLogEntry::now(command, query, elapsed));
            }
            let _ = reply_to.send(outcome.unwrap_or_else(|e| error(&e)));
        });
    }

    /// Execute a parsed command.
    pub fn execute(&self, command: Command) -> RespValue {
        // `GRAPH.QUERY` / `GRAPH.PROFILE` are counted at their single
        // dispatch point (`submit`), which every route — including the arms
        // below — funnels through; counting them here too would double-count
        // the in-process façade.
        match &command {
            Command::GraphQuery { .. } | Command::GraphProfile { .. } => {}
            other => self.metrics.count_command(command_kind(other)),
        }
        match command {
            Command::Ping => RespValue::SimpleString("PONG".to_string()),
            // Only the network listener can wind the process down; the
            // in-process façade has nothing to shut.
            Command::Shutdown => {
                RespValue::Error("ERR SHUTDOWN is only supported by the network server".to_string())
            }
            Command::GraphList => RespValue::Array(
                self.graph_names().into_iter().map(RespValue::BulkString).collect(),
            ),
            Command::GraphDelete { graph } => {
                let removed = self.graphs.write().remove(&graph);
                match removed {
                    Some(entry) => {
                        // Queries dispatched before the delete still hold
                        // this entry's Arc. Mark it first so a not-yet-run
                        // write aborts instead of mutating the orphan, then
                        // briefly take the write lock: once it is granted,
                        // every query that was executing against the old
                        // graph has finished — so when OK goes out, the
                        // delete is fully observable and later commands on
                        // the name get a fresh, empty graph.
                        entry.deleted.store(true, Ordering::SeqCst);
                        // The cache dies with the entry; invalidating also
                        // stops an in-flight query that dispatched before
                        // the delete from installing a plan in the orphan.
                        entry.plan_cache.invalidate();
                        drop(entry.graph.write());
                        RespValue::SimpleString("OK".to_string())
                    }
                    None => RespValue::Error(format!("ERR graph `{graph}` does not exist")),
                }
            }
            Command::GraphConfigGet { parameter } => {
                if parameter == "*" {
                    // RedisGraph parity: every parameter as a name/value pair.
                    return RespValue::Array(
                        CONFIG_PARAMETERS
                            .iter()
                            .map(|name| {
                                RespValue::Array(vec![
                                    RespValue::BulkString(name.to_string()),
                                    RespValue::Integer(
                                        self.config_value(name).expect("listed parameter"),
                                    ),
                                ])
                            })
                            .collect(),
                    );
                }
                let canonical =
                    CONFIG_PARAMETERS.iter().find(|name| parameter.eq_ignore_ascii_case(name));
                match canonical {
                    Some(name) => RespValue::Array(vec![
                        RespValue::BulkString(name.to_string()),
                        RespValue::Integer(self.config_value(name).expect("listed parameter")),
                    ]),
                    None => RespValue::Error(format!(
                        "ERR unknown configuration parameter `{parameter}`"
                    )),
                }
            }
            Command::GraphConfigSet { parameter, value } => {
                if parameter.eq_ignore_ascii_case("DELTA_MAX_PENDING_CHANGES") {
                    let Some(threshold) = value.parse::<usize>().ok().filter(|&v| v >= 1) else {
                        return RespValue::Error(format!(
                            "ERR DELTA_MAX_PENDING_CHANGES must be a positive integer (1 = flush \
                             every mutation), got `{value}`"
                        ));
                    };
                    self.delta_max_pending_changes.store(threshold, Ordering::Relaxed);
                    // Retune every existing graph in place.
                    let graphs: Vec<Arc<RwLock<Graph>>> =
                        self.graphs.read().values().map(|e| e.graph.clone()).collect();
                    for graph in graphs {
                        graph.write().set_flush_threshold(threshold);
                    }
                    RespValue::SimpleString("OK".to_string())
                } else if parameter.eq_ignore_ascii_case("QUERY_THREADS") {
                    // Feeds the process-wide GraphBLAS context — the paper's
                    // `GxB_set(GxB_NTHREADS, …)` — which every traversal
                    // descriptor inherits.
                    let Some(threads) = value
                        .parse::<usize>()
                        .ok()
                        .filter(|&v| (1..=MAX_QUERY_THREADS).contains(&v))
                    else {
                        return RespValue::Error(format!(
                            "ERR QUERY_THREADS must be an integer in 1..={MAX_QUERY_THREADS} \
                             (1 = one core per query, as the paper configures), got `{value}`"
                        ));
                    };
                    graphblas::Context::set_nthreads(threads);
                    // Plans capture the thread budget at build time, so every
                    // cached skeleton is now stale. The generation bump also
                    // rejects in-flight builds that observed the old setting.
                    for entry in self.graphs.read().values() {
                        entry.plan_cache.invalidate();
                    }
                    RespValue::SimpleString("OK".to_string())
                } else if parameter.eq_ignore_ascii_case("PLAN_CACHE_SIZE") {
                    let Ok(size) = value.parse::<usize>() else {
                        return RespValue::Error(format!(
                            "ERR PLAN_CACHE_SIZE must be a non-negative integer (cached plans \
                             per graph; 0 disables the plan cache), got `{value}`"
                        ));
                    };
                    self.plan_cache_size.store(size, Ordering::Relaxed);
                    // Resize every existing cache in place (which clears it —
                    // resizing is an invalidation); new graphs pick the value
                    // up on creation.
                    for entry in self.graphs.read().values() {
                        entry.plan_cache.set_capacity(size);
                    }
                    RespValue::SimpleString("OK".to_string())
                } else if parameter.eq_ignore_ascii_case("MAX_QUERY_BUFFER") {
                    let Some(bytes) =
                        value.parse::<usize>().ok().filter(|&v| v >= MIN_QUERY_BUFFER)
                    else {
                        return RespValue::Error(format!(
                            "ERR MAX_QUERY_BUFFER must be an integer >= {MIN_QUERY_BUFFER} \
                             (bytes of unparsed input a connection may retain), got `{value}`"
                        ));
                    };
                    self.max_query_buffer.store(bytes, Ordering::Relaxed);
                    RespValue::SimpleString("OK".to_string())
                } else if parameter.eq_ignore_ascii_case("SLOWLOG_TIME_THRESHOLD") {
                    let Some(ms) = value.parse::<u64>().ok() else {
                        return RespValue::Error(format!(
                            "ERR SLOWLOG_TIME_THRESHOLD must be a non-negative integer \
                             (milliseconds; 0 logs every query), got `{value}`"
                        ));
                    };
                    self.slowlog_time_threshold_ms.store(ms, Ordering::Relaxed);
                    RespValue::SimpleString("OK".to_string())
                } else {
                    RespValue::Error(format!("ERR unknown configuration parameter `{parameter}`"))
                }
            }
            Command::GraphExplain { graph, query } => {
                // EXPLAIN resolves through the same per-graph plan cache as
                // QUERY/PROFILE: explaining a hot query is free, and an
                // EXPLAIN warms the cache for the executions that follow.
                let (_params, body) = match split_cypher_params(&query) {
                    Ok(split) => split,
                    Err(e) => return RespValue::Error(format!("ERR {e}")),
                };
                let key = normalize(body);
                let entry = self.entry(&graph);
                let looked_up = entry.plan_cache.lookup(&key, &self.metrics);
                match entry.resolve_plan(&key, looked_up, None, &query, &self.metrics) {
                    Ok((skeleton, _)) => RespValue::Array(
                        skeleton.plan.describe().into_iter().map(RespValue::BulkString).collect(),
                    ),
                    Err(e) => RespValue::Error(format!("ERR {e}")),
                }
            }
            Command::GraphQuery { graph, query } => {
                let (tx, rx) = crossbeam::channel::bounded(1);
                self.submit_query(graph, query, tx);
                rx.recv()
                    .unwrap_or_else(|_| RespValue::Error("ERR query worker exited".to_string()))
            }
            Command::GraphProfile { graph, query } => {
                let (tx, rx) = crossbeam::channel::bounded(1);
                self.submit_profile(graph, query, tx);
                rx.recv()
                    .unwrap_or_else(|_| RespValue::Error("ERR query worker exited".to_string()))
            }
            Command::GraphSlowlog { graph, reset } => {
                // Unlike queries, SLOWLOG never creates the graph: asking for
                // the log of a graph that does not exist is an error.
                let Some(entry) = self.graphs.read().get(&graph).cloned() else {
                    return RespValue::Error(format!("ERR graph `{graph}` does not exist"));
                };
                if reset {
                    entry.slowlog.lock().reset();
                    RespValue::SimpleString("OK".to_string())
                } else {
                    RespValue::Array(
                        entry
                            .slowlog
                            .lock()
                            .entries_newest_first()
                            .into_iter()
                            .map(|e| {
                                RespValue::Array(vec![
                                    RespValue::Integer(e.unix_time as i64),
                                    RespValue::BulkString(e.command.to_string()),
                                    RespValue::BulkString(e.query),
                                    RespValue::BulkString(format!("{:.3}", e.millis)),
                                    RespValue::Integer(e.args as i64),
                                ])
                            })
                            .collect(),
                    )
                }
            }
            Command::GraphInfo => self.info_resp(),
        }
    }

    /// The current value of a canonical configuration parameter name.
    fn config_value(&self, name: &str) -> Option<i64> {
        match name {
            "DELTA_MAX_PENDING_CHANGES" => Some(self.delta_max_pending_changes() as i64),
            "QUERY_THREADS" => Some(graphblas::Context::nthreads() as i64),
            "MAX_QUERY_BUFFER" => Some(self.max_query_buffer() as i64),
            "SLOWLOG_TIME_THRESHOLD" => Some(self.slowlog_time_threshold_ms() as i64),
            "PLAN_CACHE_SIZE" => Some(self.plan_cache_size() as i64),
            "THREAD_COUNT" => Some(self.config.thread_count as i64),
            "MAX_CONNECTIONS" => Some(self.config.max_connections as i64),
            _ => None,
        }
    }

    /// Build the `GRAPH.INFO` reply: sections of flat key/value arrays, the
    /// RESP-consumable shape of the metrics registry plus per-store counters.
    fn info_resp(&self) -> RespValue {
        let m = &self.metrics;
        let load = |a: &AtomicU64| RespValue::Integer(a.load(Ordering::Relaxed) as i64);
        let int = |v: u64| RespValue::Integer(v as i64);
        let section = |name: &str, pairs: Vec<(&str, RespValue)>| {
            RespValue::Array(vec![
                RespValue::BulkString(name.to_string()),
                RespValue::Array(
                    pairs
                        .into_iter()
                        .flat_map(|(k, v)| [RespValue::BulkString(k.to_string()), v])
                        .collect(),
                ),
            ])
        };

        let queries = section(
            "queries",
            vec![
                ("queries_executed", load(&m.queries_executed)),
                ("queries_failed", load(&m.queries_failed)),
                ("queries_readonly", load(&m.queries_readonly)),
                ("queries_write", load(&m.queries_write)),
                ("snapshot_hits", load(&m.snapshot_hits)),
                ("snapshot_rebuilds", load(&m.snapshot_rebuilds)),
                ("plan_cache_hits", load(&m.plan_cache_hits)),
                ("plan_cache_misses", load(&m.plan_cache_misses)),
                ("plan_cache_evictions", load(&m.plan_cache_evictions)),
                ("slowlog_time_threshold_ms", int(self.slowlog_time_threshold_ms())),
            ],
        );
        let commands = section(
            "commands",
            CommandKind::ALL.iter().map(|k| (k.name(), int(m.command_count(*k)))).collect(),
        );
        // Histogram samples are nanoseconds; report microseconds (Redis'
        // LATENCY unit) so the integers stay readable.
        let latency = section(
            "latency",
            vec![
                ("query_p50_usec", int(m.query_latency.quantile(0.50) / 1_000)),
                ("query_p99_usec", int(m.query_latency.quantile(0.99) / 1_000)),
                ("query_max_usec", int(m.query_latency.max() / 1_000)),
                ("query_mean_usec", int(m.query_latency.mean() / 1_000)),
                ("query_samples", int(m.query_latency.count())),
            ],
        );
        let clients = section(
            "clients",
            vec![
                ("connections_accepted", load(&m.connections_accepted)),
                ("connections_active", load(&m.connections_active)),
                ("connections_refused", load(&m.connections_refused)),
                ("bytes_in", load(&m.bytes_in)),
                ("bytes_out", load(&m.bytes_out)),
                ("pipeline_depth_p50", int(m.pipeline_depth.quantile(0.50))),
                ("pipeline_depth_p99", int(m.pipeline_depth.quantile(0.99))),
                ("pipeline_depth_max", int(m.pipeline_depth.max())),
            ],
        );
        // Store totals walk the keyspace under momentary read locks — the
        // same order a read query would take them, so INFO cannot deadlock
        // against queries.
        let (mut nodes, mut edges, mut pending, mut flushes) = (0u64, 0u64, 0u64, 0u64);
        let mut plan_cache_entries = 0u64;
        let entries: Vec<GraphEntry> = self.graphs.read().values().cloned().collect();
        let graph_count = entries.len();
        for entry in entries {
            plan_cache_entries += entry.plan_cache.len() as u64;
            let g = entry.graph.read();
            nodes += g.node_count() as u64;
            edges += g.edge_count() as u64;
            pending += g.pending_delta_count() as u64;
            flushes += g.delta_flush_count();
        }
        let store = section(
            "store",
            vec![
                ("graphs", int(graph_count as u64)),
                ("nodes", int(nodes)),
                ("edges", int(edges)),
                ("pending_deltas", int(pending)),
                ("delta_flushes", int(flushes)),
                ("plan_cache_entries", int(plan_cache_entries)),
            ],
        );
        RespValue::Array(vec![queries, commands, latency, clients, store])
    }

    /// Start the single-threaded dispatcher loop used by the throughput
    /// benchmark: clients push [`Request`]s onto the returned channel; the
    /// dispatcher (one thread, like Redis) forwards each to the pool and the
    /// reply is sent back on the request's own channel. Dropping the sender
    /// shuts the dispatcher down.
    pub fn start_dispatcher(self: &Arc<Self>) -> (Sender<Request>, JoinHandle<()>) {
        let (tx, rx): (Sender<Request>, Receiver<Request>) = unbounded();
        let server = self.clone();
        let handle = crossbeam::thread::Builder::new()
            .name("redis-main-thread".to_string())
            .spawn(move || {
                while let Ok(request) = rx.recv() {
                    // Parse on the main thread, execute on the pool, reply
                    // asynchronously so the main thread is never blocked by a
                    // long query.
                    let parsed = match Command::parse(&request.command) {
                        Ok(c) => c,
                        Err(e) => {
                            let _ = request.reply_to.send(RespValue::Error(format!("ERR {e}")));
                            continue;
                        }
                    };
                    match parsed {
                        Command::GraphQuery { graph, query } => {
                            server.submit_query(graph, query, request.reply_to);
                        }
                        Command::GraphProfile { graph, query } => {
                            server.submit_profile(graph, query, request.reply_to);
                        }
                        other => {
                            let _ = request.reply_to.send(server.execute(other));
                        }
                    }
                }
            })
            .expect("failed to start dispatcher thread");
        (tx, handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_and_graph_lifecycle() {
        let server =
            RedisGraphServer::new(ServerConfig { thread_count: 2, ..ServerConfig::default() });
        assert_eq!(
            server.handle(&RespValue::command(&["PING"])),
            RespValue::SimpleString("PONG".into())
        );
        server.query("g1", "CREATE (:A)");
        server.query("g2", "CREATE (:B)");
        assert_eq!(server.graph_names(), vec!["g1", "g2"]);
        let del = server.handle(&RespValue::command(&["GRAPH.DELETE", "g1"]));
        assert_eq!(del, RespValue::SimpleString("OK".into()));
        assert_eq!(server.graph_names(), vec!["g2"]);
        assert!(matches!(
            server.handle(&RespValue::command(&["GRAPH.DELETE", "nope"])),
            RespValue::Error(_)
        ));
    }

    #[test]
    fn query_roundtrip_through_resp() {
        let server = RedisGraphServer::new(ServerConfig::default());
        server.query("social", "CREATE (:Person {name: 'Ann'})-[:KNOWS]->(:Person {name: 'Bob'})");
        let reply = server.query("social", "MATCH (a)-[:KNOWS]->(b) RETURN b.name");
        let RespValue::Array(sections) = reply else { panic!("expected array reply") };
        let RespValue::Array(rows) = &sections[1] else { panic!() };
        assert_eq!(rows.len(), 1);
        let RespValue::Array(row) = &rows[0] else { panic!() };
        assert_eq!(row[0], RespValue::BulkString("Bob".into()));
    }

    #[test]
    fn algo_procedures_work_over_the_wire() {
        let server = RedisGraphServer::new(ServerConfig::default());
        // A star: Hub is pointed at by three spokes, so PageRank must rank it
        // first through the full RESP round-trip.
        server.query(
            "g",
            "CREATE (hub:Node {name: 'Hub'}), (a:Node), (b:Node), (c:Node), \
             (a)-[:LINK]->(hub), (b)-[:LINK]->(hub), (c)-[:LINK]->(hub)",
        );
        let reply = server.handle(&RespValue::command(&[
            "GRAPH.QUERY",
            "g",
            "CALL algo.pagerank() YIELD node, score \
             RETURN node, score ORDER BY score DESC LIMIT 5",
        ]));
        let RespValue::Array(sections) = reply else { panic!("expected array reply") };
        let RespValue::Array(header) = &sections[0] else { panic!() };
        assert_eq!(header[0], RespValue::BulkString("node".into()));
        assert_eq!(header[1], RespValue::BulkString("score".into()));
        let RespValue::Array(rows) = &sections[1] else { panic!() };
        assert_eq!(rows.len(), 4);
        let RespValue::Array(top) = &rows[0] else { panic!() };
        assert_eq!(top[0], RespValue::BulkString("(node:0)".into()));

        // Unknown procedures surface as RESP errors.
        assert!(matches!(
            server.query("g", "CALL algo.nope() YIELD x RETURN x"),
            RespValue::Error(_)
        ));
    }

    #[test]
    fn graph_config_knob_tunes_delta_flushing() {
        let server = RedisGraphServer::new(ServerConfig::default());
        // Existing graphs are retuned in place, new graphs inherit the value.
        server.query("g", "CREATE (:Node)");
        let reply = server.handle(&RespValue::command(&[
            "GRAPH.CONFIG",
            "SET",
            "DELTA_MAX_PENDING_CHANGES",
            "17",
        ]));
        assert_eq!(reply, RespValue::SimpleString("OK".into()));
        assert_eq!(server.graph("g").read().flush_threshold(), 17);
        assert_eq!(server.graph("fresh").read().flush_threshold(), 17);

        let reply = server.handle(&RespValue::command(&[
            "GRAPH.CONFIG",
            "GET",
            "delta_max_pending_changes",
        ]));
        assert_eq!(
            reply,
            RespValue::Array(vec![
                RespValue::BulkString("DELTA_MAX_PENDING_CHANGES".into()),
                RespValue::Integer(17),
            ])
        );

        // 0, junk, and unknown parameters are rejected (1 is the eager floor).
        assert!(matches!(
            server.handle(&RespValue::command(&[
                "GRAPH.CONFIG",
                "SET",
                "DELTA_MAX_PENDING_CHANGES",
                "0",
            ])),
            RespValue::Error(_)
        ));
        assert_eq!(server.delta_max_pending_changes(), 17, "rejected SET must not change state");
        assert!(matches!(
            server.handle(&RespValue::command(&[
                "GRAPH.CONFIG",
                "SET",
                "DELTA_MAX_PENDING_CHANGES",
                "lots"
            ])),
            RespValue::Error(_)
        ));
        assert!(matches!(
            server.handle(&RespValue::command(&["GRAPH.CONFIG", "GET", "NO_SUCH_PARAMETER"])),
            RespValue::Error(_)
        ));
    }

    #[test]
    fn config_get_star_lists_every_parameter() {
        let server = RedisGraphServer::new(ServerConfig {
            thread_count: 3,
            max_connections: 77,
            ..ServerConfig::default()
        });
        let reply = server.handle(&RespValue::command(&["GRAPH.CONFIG", "GET", "*"]));
        let RespValue::Array(pairs) = reply else { panic!("expected array, got {reply}") };
        assert_eq!(pairs.len(), 7);
        let mut seen = std::collections::HashMap::new();
        for pair in &pairs {
            let RespValue::Array(kv) = pair else { panic!("expected [name, value] pair") };
            let (RespValue::BulkString(name), RespValue::Integer(value)) = (&kv[0], &kv[1]) else {
                panic!("expected name/value, got {pair}")
            };
            seen.insert(name.clone(), *value);
        }
        assert_eq!(seen["THREAD_COUNT"], 3);
        assert_eq!(seen["MAX_CONNECTIONS"], 77);
        assert_eq!(seen["SLOWLOG_TIME_THRESHOLD"], DEFAULT_SLOWLOG_TIME_THRESHOLD_MS as i64);
        assert_eq!(seen["PLAN_CACHE_SIZE"], DEFAULT_PLAN_CACHE_SIZE as i64);
        assert!(seen.contains_key("DELTA_MAX_PENDING_CHANGES"));
        assert!(seen.contains_key("QUERY_THREADS"));
        assert!(seen.contains_key("MAX_QUERY_BUFFER"));

        // Read-only singles resolve too, case-insensitively.
        let reply = server.handle(&RespValue::command(&["GRAPH.CONFIG", "GET", "thread_count"]));
        assert_eq!(
            reply,
            RespValue::Array(vec![
                RespValue::BulkString("THREAD_COUNT".into()),
                RespValue::Integer(3),
            ])
        );
    }

    #[test]
    fn slowlog_records_over_threshold_and_resets() {
        let server = RedisGraphServer::new(ServerConfig {
            slowlog_time_threshold_ms: 0, // log everything
            ..ServerConfig::default()
        });
        // Missing graph: SLOWLOG must not create it.
        assert!(matches!(
            server.handle(&RespValue::command(&["GRAPH.SLOWLOG", "nope"])),
            RespValue::Error(_)
        ));
        assert!(server.graph_names().is_empty());

        server.query("g", "CREATE (:A)-[:R]->(:B)");
        server.query("g", "MATCH (a)-[:R]->(b) RETURN count(b)");
        let reply = server.handle(&RespValue::command(&["GRAPH.SLOWLOG", "g"]));
        let RespValue::Array(entries) = reply else { panic!("expected array, got {reply}") };
        assert_eq!(entries.len(), 2, "threshold 0 must log every query");
        // Newest first: the MATCH is entry 0; each row is
        // [timestamp, command, query, ms, args].
        let RespValue::Array(row) = &entries[0] else { panic!() };
        assert_eq!(row.len(), 5);
        assert_eq!(row[1], RespValue::BulkString("GRAPH.QUERY".into()));
        assert_eq!(row[2], RespValue::BulkString("MATCH (a)-[:R]->(b) RETURN count(b)".into()));
        assert_eq!(row[4], RespValue::Integer(2));

        // Raise the threshold: fast queries stop being logged.
        server.handle(&RespValue::command(&[
            "GRAPH.CONFIG",
            "SET",
            "SLOWLOG_TIME_THRESHOLD",
            "3600000",
        ]));
        server.query("g", "MATCH (a)-[:R]->(b) RETURN count(b)");
        let reply = server.handle(&RespValue::command(&["GRAPH.SLOWLOG", "g", "GET"]));
        let RespValue::Array(entries) = reply else { panic!() };
        assert_eq!(entries.len(), 2, "a fast query must not be logged over a huge threshold");

        // RESET clears.
        let reply = server.handle(&RespValue::command(&["GRAPH.SLOWLOG", "g", "RESET"]));
        assert_eq!(reply, RespValue::SimpleString("OK".into()));
        let reply = server.handle(&RespValue::command(&["GRAPH.SLOWLOG", "g"]));
        assert_eq!(reply, RespValue::Array(vec![]));

        // Junk threshold values are rejected.
        assert!(matches!(
            server.handle(&RespValue::command(&[
                "GRAPH.CONFIG",
                "SET",
                "SLOWLOG_TIME_THRESHOLD",
                "-3"
            ])),
            RespValue::Error(_)
        ));
    }

    #[test]
    fn profile_reports_per_operator_records_and_time() {
        let server = RedisGraphServer::new(ServerConfig::default());
        server.query(
            "g",
            "CREATE (:Person {name: 'Ann'})-[:KNOWS]->(:Person {name: 'Bob'})-[:KNOWS]->\
             (:Person {name: 'Cy'})",
        );
        let reply = server.handle(&RespValue::command(&[
            "GRAPH.PROFILE",
            "g",
            "MATCH (a:Person)-[:KNOWS]->(b) RETURN b.name",
        ]));
        let RespValue::Array(lines) = reply else { panic!("expected array, got {reply}") };
        let lines: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        assert!(
            lines[0].contains("Node By Label Scan")
                && lines[0].contains("Records produced: 3")
                && lines[0].contains("Execution time:"),
            "profile was {lines:#?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains("Conditional Traverse") && l.contains("Records produced: 2")),
            "profile was {lines:#?}"
        );
        assert!(lines.last().unwrap().contains("Project"), "profile was {lines:#?}");

        // A profiled write executes its mutations, like RedisGraph.
        let reply = server.handle(&RespValue::command(&[
            "GRAPH.PROFILE",
            "g",
            "CREATE (:Person {name: 'Dee'})",
        ]));
        let RespValue::Array(lines) = reply else { panic!("expected array, got {reply}") };
        assert!(lines.iter().any(|l| l.to_string().contains("Create")));
        let reply = server.query("g", "MATCH (p:Person) RETURN count(p)");
        let RespValue::Array(sections) = reply else { panic!() };
        let RespValue::Array(rows) = &sections[1] else { panic!() };
        let RespValue::Array(row) = &rows[0] else { panic!() };
        assert_eq!(row[0], RespValue::Integer(4), "profiled CREATE must have mutated");

        // Parse errors surface as RESP errors, same as GRAPH.QUERY.
        assert!(matches!(
            server.handle(&RespValue::command(&["GRAPH.PROFILE", "g", "MATCH (a RETURN a"])),
            RespValue::Error(_)
        ));
    }

    #[test]
    fn graph_info_sections_track_activity() {
        let server = RedisGraphServer::new(ServerConfig::default());
        let info = |server: &RedisGraphServer| -> std::collections::HashMap<String, i64> {
            let RespValue::Array(sections) = server.handle(&RespValue::command(&["GRAPH.INFO"]))
            else {
                panic!("expected array")
            };
            let mut flat = std::collections::HashMap::new();
            for s in &sections {
                let RespValue::Array(parts) = s else { panic!() };
                let RespValue::Array(kv) = &parts[1] else { panic!() };
                for pair in kv.chunks(2) {
                    let (RespValue::BulkString(k), RespValue::Integer(v)) = (&pair[0], &pair[1])
                    else {
                        panic!("expected string/int pair, got {pair:?}")
                    };
                    flat.insert(k.clone(), *v);
                }
            }
            flat
        };

        let before = info(&server);
        assert_eq!(before["queries_executed"], 0);
        assert_eq!(before["graphs"], 0);

        server.query("g", "CREATE (:A)-[:R]->(:B)");
        server.query("g", "MATCH (a)-[:R]->(b) RETURN count(b)");
        server.query("g", "MATCH (a RETURN"); // parse error
        let after = info(&server);
        assert_eq!(after["queries_executed"], 2);
        assert_eq!(after["queries_failed"], 1);
        assert_eq!(after["queries_write"], 1);
        assert_eq!(after["queries_readonly"], 1);
        assert_eq!(after["graph.query"], 3);
        assert_eq!(after["graphs"], 1);
        assert_eq!(after["nodes"], 2);
        assert_eq!(after["edges"], 1);
        assert!(after["query_samples"] == 2 && after["query_max_usec"] >= 0);
        assert_eq!(after["snapshot_rebuilds"], 1, "first read of the epoch rebuilds");
        // All three lookups missed (the parse error still looked up first);
        // only the two parseable queries left a plan behind.
        assert_eq!(after["plan_cache_misses"], 3);
        assert_eq!(after["plan_cache_hits"], 0);
        assert_eq!(after["plan_cache_entries"], 2);
        assert_eq!(after["plan_cache_evictions"], 0);

        // A second read of the same epoch hits the snapshot cache — and the
        // repeated text hits the plan cache.
        server.query("g", "MATCH (a)-[:R]->(b) RETURN count(b)");
        let third = info(&server);
        assert_eq!(third["snapshot_hits"], 1);
        assert_eq!(third["plan_cache_hits"], 1);
    }

    /// Pull the `Cached: true|false` line out of a query reply's stats footer.
    fn cached_flag(reply: &RespValue) -> bool {
        let RespValue::Array(sections) = reply else { panic!("expected array, got {reply}") };
        let RespValue::Array(stats) = &sections[2] else { panic!("no stats footer in {reply}") };
        stats
            .iter()
            .find_map(|l| match l {
                RespValue::BulkString(s) => s.strip_prefix("Cached: ").map(|v| v == "true"),
                _ => None,
            })
            .expect("stats footer must carry a Cached line")
    }

    #[test]
    fn repeated_query_text_is_served_from_the_plan_cache() {
        let server = RedisGraphServer::new(ServerConfig::default());
        server.query("g", "CREATE (:Node {name: 'Ann'})");
        let cold = server.query("g", "MATCH (n:Node) RETURN n.name");
        assert!(!cached_flag(&cold), "first execution must plan from scratch");
        // Whitespace differences normalize to the same cache key.
        let warm = server.query("g", "MATCH (n:Node)   RETURN \t n.name");
        assert!(cached_flag(&warm), "second execution must reuse the cached plan");
    }

    #[test]
    fn parameterized_queries_share_one_cached_plan_shape() {
        let server = RedisGraphServer::new(ServerConfig::default());
        server.query("g", "CREATE (:Person {name: 'Ann'}), (:Person {name: 'Bob'})");
        let first_cell = |reply: &RespValue| -> RespValue {
            let RespValue::Array(sections) = reply else { panic!("expected array, got {reply}") };
            let RespValue::Array(rows) = &sections[1] else { panic!() };
            let RespValue::Array(row) = &rows[0] else { panic!("no rows in {reply}") };
            row[0].clone()
        };
        let ann = server
            .query("g", "CYPHER who='Ann' MATCH (p:Person) WHERE p.name = $who RETURN p.name");
        assert_eq!(first_cell(&ann), RespValue::BulkString("Ann".into()));
        assert!(!cached_flag(&ann));
        // Different binding, same shape: the skeleton is reused and the new
        // value is substituted at execution time, not spliced into the text.
        let bob = server
            .query("g", "CYPHER who='Bob' MATCH (p:Person) WHERE p.name = $who RETURN p.name");
        assert_eq!(first_cell(&bob), RespValue::BulkString("Bob".into()));
        assert!(cached_flag(&bob));
        // Referencing a parameter the header never bound is an error, even
        // though the body itself hits the same cached skeleton.
        let missing = server.query("g", "MATCH (p:Person) WHERE p.name = $who RETURN p.name");
        let RespValue::Error(msg) = missing else { panic!("expected error, got {missing}") };
        assert!(msg.contains("missing query parameter `$who`"), "got {msg}");
    }

    #[test]
    fn plan_cache_size_knob_resizes_and_disables() {
        let server = RedisGraphServer::new(ServerConfig::default());
        assert_eq!(server.plan_cache_size(), DEFAULT_PLAN_CACHE_SIZE);
        server.query("g", "CREATE (:Node)");
        server.query("g", "MATCH (n) RETURN count(n)");
        assert!(cached_flag(&server.query("g", "MATCH (n) RETURN count(n)")));

        // Resizing flushes cached plans; 0 disables caching entirely.
        let reply =
            server.handle(&RespValue::command(&["GRAPH.CONFIG", "SET", "PLAN_CACHE_SIZE", "0"]));
        assert_eq!(reply, RespValue::SimpleString("OK".into()));
        assert_eq!(server.plan_cache_size(), 0);
        for _ in 0..2 {
            let reply = server.query("g", "MATCH (n) RETURN count(n)");
            assert!(!cached_flag(&reply), "capacity 0 must never serve a cached plan");
        }

        let reply =
            server.handle(&RespValue::command(&["GRAPH.CONFIG", "SET", "PLAN_CACHE_SIZE", "8"]));
        assert_eq!(reply, RespValue::SimpleString("OK".into()));
        server.query("g", "MATCH (n) RETURN count(n)");
        assert!(cached_flag(&server.query("g", "MATCH (n) RETURN count(n)")));

        for bad in ["-1", "junk"] {
            assert!(matches!(
                server.handle(&RespValue::command(&[
                    "GRAPH.CONFIG",
                    "SET",
                    "PLAN_CACHE_SIZE",
                    bad
                ])),
                RespValue::Error(_)
            ));
        }
        assert_eq!(server.plan_cache_size(), 8, "rejected SET must not change state");
    }

    #[test]
    fn graph_delete_drops_the_graphs_cached_plans() {
        let server = RedisGraphServer::new(ServerConfig::default());
        server.query("g", "CREATE (:Node)");
        server.query("g", "MATCH (n) RETURN count(n)");
        assert!(cached_flag(&server.query("g", "MATCH (n) RETURN count(n)")));
        server.handle(&RespValue::command(&["GRAPH.DELETE", "g"]));
        // The recreated graph starts cold; the old entry's plans are gone.
        server.query("g", "CREATE (:Node)");
        assert!(!cached_flag(&server.query("g", "MATCH (n) RETURN count(n)")));
        assert!(cached_flag(&server.query("g", "MATCH (n) RETURN count(n)")));
    }

    #[test]
    fn optimizer_toggle_demotes_stale_cached_plans() {
        let server = RedisGraphServer::new(ServerConfig::default());
        server.query("g", "CREATE (:A {v: 1})-[:R]->(:B {v: 2})");
        server.query("g", "MATCH (a:A)-[:R]->(b:B) RETURN b.v");
        assert!(cached_flag(&server.query("g", "MATCH (a:A)-[:R]->(b:B) RETURN b.v")));
        // A skeleton built with the optimizer on must not be served once the
        // graph's optimizer is switched off — the hit is demoted to a rebuild.
        server.graph("g").write().set_optimizer(false);
        let reply = server.query("g", "MATCH (a:A)-[:R]->(b:B) RETURN b.v");
        assert!(!cached_flag(&reply), "stale optimizer flag must force a rebuild");
        assert!(cached_flag(&server.query("g", "MATCH (a:A)-[:R]->(b:B) RETURN b.v")));
    }

    #[test]
    fn max_query_buffer_knob_is_runtime_tunable() {
        let server = RedisGraphServer::new(ServerConfig::default());
        assert_eq!(server.max_query_buffer(), DEFAULT_MAX_QUERY_BUFFER);
        let reply = server.handle(&RespValue::command(&[
            "GRAPH.CONFIG",
            "SET",
            "MAX_QUERY_BUFFER",
            "65536",
        ]));
        assert_eq!(reply, RespValue::SimpleString("OK".into()));
        assert_eq!(server.max_query_buffer(), 65536);
        let reply =
            server.handle(&RespValue::command(&["GRAPH.CONFIG", "GET", "max_query_buffer"]));
        assert_eq!(
            reply,
            RespValue::Array(vec![
                RespValue::BulkString("MAX_QUERY_BUFFER".into()),
                RespValue::Integer(65536),
            ])
        );
        // Below the floor, junk, and negative values are rejected unchanged.
        for bad in ["0", "1023", "-1", "junk"] {
            assert!(matches!(
                server.handle(&RespValue::command(&[
                    "GRAPH.CONFIG",
                    "SET",
                    "MAX_QUERY_BUFFER",
                    bad
                ])),
                RespValue::Error(_)
            ));
        }
        assert_eq!(server.max_query_buffer(), 65536);
        // The module-load floor clamps rather than panics.
        let tiny =
            RedisGraphServer::new(ServerConfig { max_query_buffer: 1, ..ServerConfig::default() });
        assert_eq!(tiny.max_query_buffer(), MIN_QUERY_BUFFER);
    }

    #[test]
    fn shutdown_is_rejected_in_process() {
        let server = RedisGraphServer::new(ServerConfig::default());
        assert!(matches!(server.handle(&RespValue::command(&["SHUTDOWN"])), RespValue::Error(_)));
    }

    #[test]
    fn query_threads_knob_feeds_the_graphblas_context() {
        // The only test in this binary that touches the process-wide
        // GraphBLAS context, so the assertions cannot race another test.
        let server = RedisGraphServer::new(ServerConfig {
            query_threads: Some(2),
            ..ServerConfig::default()
        });
        assert_eq!(graphblas::Context::nthreads(), 2, "module arg must seed the context");

        let reply =
            server.handle(&RespValue::command(&["GRAPH.CONFIG", "SET", "QUERY_THREADS", "3"]));
        assert_eq!(reply, RespValue::SimpleString("OK".into()));
        assert_eq!(graphblas::Context::nthreads(), 3);
        let reply = server.handle(&RespValue::command(&["GRAPH.CONFIG", "GET", "query_threads"]));
        assert_eq!(
            reply,
            RespValue::Array(vec![
                RespValue::BulkString("QUERY_THREADS".into()),
                RespValue::Integer(3),
            ])
        );

        // Queries still answer correctly with intra-query parallelism on.
        server.query("g", "CREATE (:A {v: 1})-[:R]->(:A {v: 2})-[:R]->(:A {v: 3})");
        let reply = server.query("g", "MATCH (a:A)-[:R]->(b:A) RETURN count(b)");
        let RespValue::Array(sections) = reply else { panic!("expected array reply") };
        let RespValue::Array(rows) = &sections[1] else { panic!() };
        let RespValue::Array(row) = &rows[0] else { panic!() };
        assert_eq!(row[0], RespValue::Integer(2));

        // 0, junk, and out-of-range values are rejected without changing state.
        for bad in ["0", "nope", "-4", "1000000"] {
            assert!(matches!(
                server.handle(&RespValue::command(&["GRAPH.CONFIG", "SET", "QUERY_THREADS", bad])),
                RespValue::Error(_)
            ));
        }
        assert_eq!(graphblas::Context::nthreads(), 3);

        // Cached skeletons capture the thread budget at build time, so
        // changing QUERY_THREADS flushes every graph's plan cache. (This also
        // restores the library default so no other state leaks out.)
        assert!(cached_flag(&server.query("g", "MATCH (a:A)-[:R]->(b:A) RETURN count(b)")));
        server.handle(&RespValue::command(&["GRAPH.CONFIG", "SET", "QUERY_THREADS", "1"]));
        assert_eq!(graphblas::Context::nthreads(), 1);
        let reply = server.query("g", "MATCH (a:A)-[:R]->(b:A) RETURN count(b)");
        assert!(!cached_flag(&reply), "QUERY_THREADS change must rebuild cached plans");
    }

    #[test]
    fn read_queries_run_on_snapshots_and_never_flush_the_live_graph() {
        let server = RedisGraphServer::new(ServerConfig {
            delta_max_pending_changes: 1_000_000, // never auto-flush
            ..ServerConfig::default()
        });
        server.query("g", "CREATE (:A)-[:R]->(:B)");
        {
            let graph = server.graph("g");
            assert!(graph.read().has_pending_deltas(), "writes should buffer, not flush");
        }
        // Reads answer from an epoch snapshot; the old read barrier would
        // have taken the write lock here and flushed the live graph.
        let reply = server.query("g", "MATCH (a)-[:R]->(b) RETURN count(b)");
        assert!(matches!(reply, RespValue::Array(_)));
        // Even a whole-matrix plan (procedure call) folds only its private
        // snapshot, never the shared state.
        let reply = server.query("g", "CALL algo.wcc() YIELD node, component RETURN count(node)");
        assert!(matches!(reply, RespValue::Array(_)), "unexpected reply {reply}");
        let graph = server.graph("g");
        assert!(graph.read().has_pending_deltas(), "snapshot reads must not flush the live graph");
    }

    #[test]
    fn read_path_acquires_no_write_lock_even_for_malformed_floods() {
        let server = RedisGraphServer::new(ServerConfig {
            thread_count: 4,
            delta_max_pending_changes: 1_000_000, // keep deltas pending
            ..ServerConfig::default()
        });
        server.query("g", "CREATE (:A {v: 1})-[:R]->(:B {v: 2})");
        let graph = server.graph("g");
        assert!(graph.read().has_pending_deltas());

        // Hold a read lock for the whole test. Any write-lock acquisition on
        // the dispatch or read path — the old behaviour both for the read
        // barrier (pending deltas!) and for parse errors, which were
        // classified as writes — would block behind this guard forever and
        // trip the recv timeout below.
        let _guard = graph.read();

        let (tx, rx) = unbounded();
        for _ in 0..100 {
            server.submit_query("g".into(), "MATCH (a RETURN a".into(), tx.clone());
        }
        for _ in 0..50 {
            server.submit_query(
                "g".into(),
                "MATCH (a)-[:R]->(b) RETURN count(b)".into(),
                tx.clone(),
            );
        }
        let (mut errors, mut results) = (0, 0);
        for _ in 0..150 {
            let reply = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("a query stalled: something on the read path wants the write lock");
            match reply {
                RespValue::Error(e) => {
                    assert!(e.contains("syntax error"), "unexpected error: {e}");
                    errors += 1;
                }
                RespValue::Array(_) => results += 1,
                other => panic!("unexpected reply {other}"),
            }
        }
        assert_eq!((errors, results), (100, 50));
        drop(_guard);
        assert!(graph.read().has_pending_deltas(), "reads must leave the buffers alone");
    }

    #[test]
    fn delete_aborts_queued_writes_instead_of_mutating_the_orphan() {
        let server = Arc::new(RedisGraphServer::new(ServerConfig {
            thread_count: 1, // one worker: the queued write cannot jump ahead
            ..ServerConfig::default()
        }));
        server.query("g", "CREATE (:Keep {id: 1})");

        // Stall the worker by holding the graph's write lock, then queue a
        // write query: its keyspace entry is captured at dispatch, before the
        // delete below, exactly the in-flight case the tombstone exists for.
        let graph = server.graph("g");
        let guard = graph.write();
        let (tx, rx) = crossbeam::channel::bounded(1);
        server.submit_query("g".into(), "CREATE (:Late)".into(), tx);

        // Delete on another thread: it removes the map entry and sets the
        // tombstone immediately, then blocks on the write lock to serialize
        // with in-flight queries.
        let del_server = server.clone();
        let deleter = std::thread::spawn(move || {
            del_server.handle(&RespValue::command(&["GRAPH.DELETE", "g"]))
        });
        // The map entry disappearing proves the tombstone is set (the delete
        // marks before it blocks on the lock).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !server.graph_names().is_empty() {
            assert!(std::time::Instant::now() < deadline, "GRAPH.DELETE never removed the entry");
            std::thread::yield_now();
        }
        drop(guard);

        assert_eq!(deleter.join().unwrap(), RespValue::SimpleString("OK".into()));
        let reply = rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        match reply {
            RespValue::Error(e) => assert!(e.contains("was deleted"), "unexpected error: {e}"),
            other => panic!("queued write must abort after the delete, got {other}"),
        }
        // The name resolves to a fresh, empty graph — no resurrection.
        let reply = server.query("g", "MATCH (n) RETURN count(n)");
        let RespValue::Array(sections) = reply else { panic!("expected array reply") };
        let RespValue::Array(rows) = &sections[1] else { panic!() };
        let RespValue::Array(row) = &rows[0] else { panic!() };
        assert_eq!(row[0], RespValue::Integer(0));
    }

    #[test]
    fn errors_are_resp_errors() {
        let server = RedisGraphServer::new(ServerConfig::default());
        assert!(matches!(server.query("g", "MATCH (a RETURN a"), RespValue::Error(_)));
        assert!(matches!(
            server.handle(&RespValue::command(&["NOT.A.COMMAND"])),
            RespValue::Error(_)
        ));
    }

    #[test]
    fn explain_returns_plan_lines() {
        let server = RedisGraphServer::new(ServerConfig::default());
        server.query("g", "CREATE (:Node)");
        let reply =
            server.handle(&RespValue::command(&["GRAPH.EXPLAIN", "g", "MATCH (a:Node) RETURN a"]));
        let RespValue::Array(lines) = reply else { panic!() };
        assert!(lines.iter().any(|l| l.to_string().contains("Node By Label Scan")));
    }

    #[test]
    fn dispatcher_serves_concurrent_clients() {
        let server = Arc::new(RedisGraphServer::new(ServerConfig {
            thread_count: 4,
            ..ServerConfig::default()
        }));
        server.query("g", "CREATE (:Node {id: 0})-[:LINK]->(:Node {id: 1})");
        let (tx, handle) = server.start_dispatcher();

        let mut clients = Vec::new();
        for _ in 0..8 {
            let tx = tx.clone();
            clients.push(std::thread::spawn(move || {
                let (reply_tx, reply_rx) = unbounded();
                for _ in 0..5 {
                    tx.send(Request {
                        command: RespValue::command(&[
                            "GRAPH.QUERY",
                            "g",
                            "MATCH (a)-[:LINK]->(b) RETURN count(b)",
                        ]),
                        reply_to: reply_tx.clone(),
                    })
                    .unwrap();
                    let reply = reply_rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
                    assert!(matches!(reply, RespValue::Array(_)), "unexpected reply {reply}");
                }
            }));
        }
        for c in clients {
            c.join().unwrap();
        }
        drop(tx);
        handle.join().unwrap();
    }
}
