//! The in-process RedisGraph server: the command dispatch in front of the
//! module threadpool, plus the keyspace of named graphs.
//!
//! Concurrency model (paper §II):
//!
//! * every command is dispatched by [`RedisGraphServer::execute`] on the
//!   caller's own thread (a TCP connection's loop, or an in-process caller
//!   of [`RedisGraphServer::handle`]), which plays the role of Redis' main
//!   thread, and its reply is appended to the caller's buffer as RESP bytes;
//! * each `GRAPH.QUERY` is executed by **one** worker of the threadpool, and
//!   every GraphBLAS kernel runs on that worker alone — as RedisGraph loads
//!   GraphBLAS single-threaded — so throughput comes from many queries at
//!   once, never from one query fanning out;
//! * queries are parsed **once**, at dispatch: a parse error answers
//!   immediately without occupying a pool worker or touching any graph lock;
//! * read-only queries pin an epoch snapshot ([`redisgraph_core::GraphSnapshot`])
//!   under a momentary read lock and then execute entirely lock-free, so a
//!   heavy procedure call or a burst of writers can never stall point reads;
//! * write queries take the graph's write lock for exclusive access;
//! * the worker encodes its reply itself, so a query's rows are walked once,
//!   straight into the bytes that go back to the client.

use crate::commands::{encode_resultset, Command};
use crate::metrics::{CommandKind, Metrics, SlowLog, SlowLogEntry};
use crate::plan_cache::{CachedPlan, KeyedQuery, PlanCache, QueryBody};
use crate::pool::ThreadPool;
use crate::resp::RespValue;
use crossbeam::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crossbeam::channel::{bounded, Sender};
use parking_lot::{Mutex, RwLock};
use redisgraph_core::{
    format_profile, ExecutionPlan, Graph, GraphAccess, GraphSnapshot, QueryError,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Server configuration (the module load-time options).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Number of worker threads in the query pool (`THREAD_COUNT` module arg).
    pub thread_count: usize,
    /// Cap on each matrix's pending changes: every leaf folds its delta
    /// buffers into a fresh CSR slice at its share of it
    /// (`DELTA_MAX_PENDING_CHANGES`; runtime-tunable with `GRAPH.CONFIG
    /// SET`).
    pub delta_max_pending_changes: usize,
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
    /// planned form of each query *shape* — the body's tokens with its
    /// expression literals lifted out ([`crate::plan_cache::normalize`]) —
    /// and bind `CYPHER` header parameters and the lifted literals per
    /// execution. `0` disables caching, and with it the lifting: each body
    /// is then planned with its literals as written. Runtime-tunable with
    /// `GRAPH.CONFIG SET PLAN_CACHE_SIZE` (resizing clears existing caches).
    pub plan_cache_size: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            thread_count: 4,
            delta_max_pending_changes: graphblas::DEFAULT_FLUSH_THRESHOLD,
            max_query_buffer: DEFAULT_MAX_QUERY_BUFFER,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            slowlog_time_threshold_ms: DEFAULT_SLOWLOG_TIME_THRESHOLD_MS,
            plan_cache_size: DEFAULT_PLAN_CACHE_SIZE,
        }
    }
}

/// Default `PLAN_CACHE_SIZE` (cached plan skeletons per graph). RedisGraph's
/// query cache defaults to 25 entries per graph; a larger bound costs only
/// retained plans (small). Literal values do not make shapes (they are
/// lifted out of the key), so the bound counts query shapes plus the
/// distinct values of the few literals that stay in the key: `SKIP`/`LIMIT`
/// operands, variable-length bounds and property-map values.
pub const DEFAULT_PLAN_CACHE_SIZE: usize = 256;

/// Default `SLOWLOG_TIME_THRESHOLD` (milliseconds; Redis' slowlog default is
/// 10000 µs). Point reads finish far under it, so the hot path's only cost
/// is one integer compare.
pub const DEFAULT_SLOWLOG_TIME_THRESHOLD_MS: u64 = 10;

/// Default `MAX_QUERY_BUFFER` (1GB, Redis' `client-query-buffer-limit`).
pub const DEFAULT_MAX_QUERY_BUFFER: usize = 1 << 30;

/// Floor for `MAX_QUERY_BUFFER`: below one RESP header line the server could
/// not even parse a `PING`, so smaller settings are rejected.
pub const MIN_QUERY_BUFFER: usize = 1024;

/// Default cap on concurrent TCP connections.
pub const DEFAULT_MAX_CONNECTIONS: usize = 128;

/// Canonical names of every `GRAPH.CONFIG` parameter, in the order
/// `GRAPH.CONFIG GET *` reports them. The first four are runtime-settable;
/// `THREAD_COUNT` and `MAX_CONNECTIONS` are fixed at module load.
const CONFIG_PARAMETERS: [&str; 6] = [
    "DELTA_MAX_PENDING_CHANGES",
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

/// The error reply for a failed command.
fn error_reply(e: &dyn std::fmt::Display) -> RespValue {
    RespValue::Error(format!("ERR {e}"))
}

/// A query's plan as dispatch leaves it: served from the plan cache, or
/// parsed and still to be planned.
enum Dispatched {
    Cached(Arc<CachedPlan>),
    Parsed(cypher::Query),
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
    /// Cached plan skeletons keyed on the query body's token shape;
    /// parameters and lifted literals bind per execution. Per graph, so a
    /// `GRAPH.DELETE` drops the cache with the entry and one graph's churn
    /// cannot evict another's plans.
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
    /// a writer is never blocked. A rebuild is timed from the clone to the
    /// cache swap (`snapshot_rebuild_*` in `GRAPH.INFO`). The superseded
    /// snapshot is dropped after the mutex is released and outside that
    /// time: it may hold the last pin on leaves that folds replaced, whose
    /// free is the drop's cost, and the other first readers of the new
    /// epoch need not wait for it.
    fn snapshot(&self, metrics: &Metrics) -> Arc<GraphSnapshot> {
        let mut cache = self.snapshot_cache.lock();
        let (started, pending) = {
            let g = self.graph.read();
            if let Some(cached) = cache.as_ref() {
                if cached.epoch() == g.epoch() {
                    metrics.snapshot_hits.fetch_add(1, Ordering::Relaxed);
                    return Arc::clone(cached);
                }
            }
            (Instant::now(), g.clone())
        };
        metrics.snapshot_rebuilds.fetch_add(1, Ordering::Relaxed);
        let sealed = Arc::new(GraphSnapshot::seal(pending));
        let superseded = cache.replace(Arc::clone(&sealed));
        metrics.snapshot_rebuild_latency.record_duration(started.elapsed());
        drop(cache);
        drop(superseded);
        sealed
    }

    /// Finish resolving a plan skeleton after [`RedisGraphServer::dispatch`]:
    /// a cache hit is served as is; a parsed miss is planned and inserted
    /// under `key`. A plan is a function of the query text alone, so neither
    /// path touches the graph lock. Returns the skeleton and whether it came
    /// from the cache.
    fn resolve_plan(
        &self,
        key: &str,
        dispatched: Dispatched,
        metrics: &Metrics,
    ) -> Result<(Arc<CachedPlan>, bool), QueryError> {
        let ast = match dispatched {
            Dispatched::Cached(cached) => return Ok((cached, true)),
            Dispatched::Parsed(ast) => ast,
        };
        let plan = ExecutionPlan::build(&ast)?;
        let skeleton = Arc::new(CachedPlan { read_only: ast.is_read_only(), plan: Arc::new(plan) });
        self.plan_cache.insert(key.to_string(), Arc::clone(&skeleton), metrics);
        Ok((skeleton, false))
    }
}

/// The in-process server.
pub struct RedisGraphServer {
    graphs: Arc<RwLock<HashMap<String, GraphEntry>>>,
    pool: Arc<ThreadPool>,
    /// `THREAD_COUNT` and `MAX_CONNECTIONS`, fixed at load time; every other
    /// parameter is one of the live values below.
    thread_count: usize,
    max_connections: usize,
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
    pub fn new(config: ServerConfig) -> Self {
        RedisGraphServer {
            graphs: Arc::new(RwLock::new(HashMap::new())),
            pool: Arc::new(ThreadPool::new(config.thread_count)),
            thread_count: config.thread_count,
            max_connections: config.max_connections,
            delta_max_pending_changes: AtomicUsize::new(config.delta_max_pending_changes.max(1)),
            max_query_buffer: AtomicUsize::new(config.max_query_buffer.max(MIN_QUERY_BUFFER)),
            slowlog_time_threshold_ms: AtomicU64::new(config.slowlog_time_threshold_ms),
            plan_cache_size: AtomicUsize::new(config.plan_cache_size),
            metrics: Arc::new(Metrics::default()),
        }
    }

    /// The active configuration: the load-time `THREAD_COUNT` and
    /// `MAX_CONNECTIONS`, and the live value of every runtime-settable
    /// parameter.
    pub fn config(&self) -> ServerConfig {
        ServerConfig {
            thread_count: self.thread_count,
            delta_max_pending_changes: self.delta_max_pending_changes(),
            max_query_buffer: self.max_query_buffer(),
            max_connections: self.max_connections,
            slowlog_time_threshold_ms: self.slowlog_time_threshold_ms(),
            plan_cache_size: self.plan_cache_size(),
        }
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

    /// The module threadpool (the listener drains it on shutdown).
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

    /// Run one framed command synchronously and decode its reply, the way a
    /// client does: the calling thread plays the role of the main Redis
    /// thread, a query itself runs on a pool worker. Concurrent clients call
    /// this from their own threads on a shared `Arc<RedisGraphServer>`.
    pub fn handle(&self, command: &RespValue) -> RespValue {
        let mut out = Vec::new();
        match Command::parse(command) {
            Ok(command) => self.execute(command, &mut out),
            Err(e) => error_reply(&e).encode_into(&mut out),
        }
        let (reply, _) = RespValue::decode(&out).expect("the server encodes one whole reply");
        reply
    }

    /// Convenience wrapper: run a Cypher query against a named graph.
    pub fn query(&self, graph: &str, query: &str) -> RespValue {
        self.handle(&RespValue::command(&["GRAPH.QUERY", graph, query]))
    }

    /// Execute a parsed command and append its encoded reply to `out`. A
    /// query (`GRAPH.QUERY`, `GRAPH.PROFILE`) runs on a pool worker, which
    /// encodes its reply; this thread blocks until the bytes arrive. Every
    /// other command runs inline.
    pub fn execute(&self, command: Command, out: &mut Vec<u8>) {
        self.metrics.count_command(command_kind(&command));
        let reply = match command {
            Command::GraphQuery { graph, query } => {
                return self.await_query(graph, query, false, out)
            }
            Command::GraphProfile { graph, query } => {
                return self.await_query(graph, query, true, out)
            }
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
                        drop(entry.graph.write());
                        RespValue::SimpleString("OK".to_string())
                    }
                    None => RespValue::Error(format!("ERR graph `{graph}` does not exist")),
                }
            }
            Command::GraphConfigGet { parameter } => self.config_get(&parameter),
            Command::GraphConfigSet { parameter, value } => self.config_set(&parameter, &value),
            Command::GraphExplain { graph, query } => self.explain(&graph, &query),
            Command::GraphSlowlog { graph, reset } => self.slowlog(&graph, reset),
            Command::GraphInfo => self.info_resp(),
        };
        reply.encode_into(out);
    }

    /// Submit a query to the pool and append the reply its worker sends back.
    fn await_query(&self, graph: String, query: String, profile: bool, out: &mut Vec<u8>) {
        let (tx, rx) = bounded(1);
        self.submit(graph, query, profile, tx);
        match rx.recv() {
            // A reply at least as large as the empty batch buffer's room
            // becomes the buffer: a large result set is not copied a second
            // time, and no room later replies of a pipelined batch would
            // append into is given up for a smaller one.
            Ok(reply) if out.is_empty() && reply.capacity() >= out.capacity() => *out = reply,
            Ok(reply) => out.extend_from_slice(&reply),
            Err(_) => error_reply(&"query worker exited").encode_into(out),
        }
    }

    /// Lex `query` once and key it for the plan cache. With the cache off
    /// (`PLAN_CACHE_SIZE 0`) no plan is shared, so no literal is lifted.
    fn keyed<'q>(&self, query: &'q str) -> Result<KeyedQuery<'q>, String> {
        KeyedQuery::new(query, self.plan_cache_size() > 0)
    }

    /// The dispatch half of a query: find its graph and its plan. A
    /// plan-cache hit skips both the parser and the planner; a miss parses
    /// `body` here. The keyspace entry is only *read* until the body is known
    /// to parse, so neither a syntax error nor a cache miss on an unknown
    /// graph creates it, and nothing here takes the graph lock.
    fn dispatch(
        &self,
        graph: &str,
        key: &str,
        body: QueryBody<'_>,
    ) -> Result<(GraphEntry, Dispatched), QueryError> {
        let existing = self.graphs.read().get(graph).cloned();
        let hit = match &existing {
            Some(entry) if body.lexed_cleanly() => entry.plan_cache.lookup(key, &self.metrics),
            _ => {
                self.metrics.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        };
        let dispatched = match hit {
            Some(cached) => Dispatched::Cached(cached),
            None => Dispatched::Parsed(body.parse()?),
        };
        Ok((existing.unwrap_or_else(|| self.entry(graph)), dispatched))
    }

    /// Submit a `GRAPH.QUERY` (or, with `profile`, a `GRAPH.PROFILE`) to the
    /// module threadpool: one query, one worker thread (the paper's execution
    /// model). The worker encodes the reply — the result set, or the
    /// per-operator profile lines — and sends the bytes on `reply_to`. Every
    /// query takes this path, so locking discipline lives in exactly one
    /// place.
    ///
    /// The query is parsed at most once, here, at dispatch: a parse error
    /// replies immediately without creating the graph, occupying a worker,
    /// or touching any lock, and the AST rides along to the worker so
    /// execution never re-parses the text.
    pub fn submit(&self, graph: String, query: String, profile: bool, reply_to: Sender<Vec<u8>>) {
        // The one wall-clock anchor for this query: the statistics footer,
        // the profile totals, the latency histogram, and the slowlog all
        // derive from it, so the layers can never disagree about a query's
        // duration.
        let started = Instant::now();
        let metrics = Arc::clone(&self.metrics);
        let fail = |e: &dyn std::fmt::Display| {
            metrics.queries_failed.fetch_add(1, Ordering::Relaxed);
            let _ = reply_to.send(error_reply(e).encode());
        };
        // One lexer pass: the `CYPHER` header becomes parameters, and the
        // body's token shape becomes the cache key, its literals lifted into
        // parameters too — so one query shape shares one cached plan however
        // its values are spelled.
        let KeyedQuery { key, params, body } = match self.keyed(&query) {
            Ok(keyed) => keyed,
            Err(e) => return fail(&e),
        };
        let (entry, dispatched) = match self.dispatch(&graph, &key, body) {
            Ok(found) => found,
            Err(e) => return fail(&e),
        };
        let slowlog_threshold_ms = self.slowlog_time_threshold_ms();
        self.pool.execute(move || {
            let mut reply = Vec::new();
            let outcome: Result<(), Box<dyn std::error::Error>> = (|| {
                // Resolve the skeleton (cache hit, or build + insert), then
                // read its parameter values; the shared plan runs in place.
                let (skeleton, was_cached) = entry.resolve_plan(&key, dispatched, &metrics)?;
                let plan: &ExecutionPlan = &skeleton.plan;
                let params = plan.bind(&params)?;
                let mut profiles = profile.then(Vec::new);
                let mut rs = if skeleton.read_only {
                    // Pin the current epoch's sealed snapshot (cached per
                    // epoch, rebuilt outside every lock on a miss), then
                    // execute with no lock held at all: a heavy query cannot
                    // queue a flush's write-lock request in front of us, and
                    // we cannot stall a writer. The live graph's deltas stay
                    // buffered, and the snapshot reads them in place through
                    // merged views.
                    metrics.queries_readonly.fetch_add(1, Ordering::Relaxed);
                    entry.snapshot(&metrics).run(plan, &params, started, profiles.as_mut())?
                } else {
                    metrics.queries_write.fetch_add(1, Ordering::Relaxed);
                    let mut g = entry.graph.write();
                    // A `GRAPH.DELETE` that landed after dispatch marked the
                    // entry; abort rather than mutate the orphan.
                    if entry.deleted.load(Ordering::SeqCst) {
                        return Err(format!("graph `{}` was deleted", g.name()).into());
                    }
                    plan.run(GraphAccess::Write(&mut g), &params, started, profiles.as_mut())?
                };
                match profiles {
                    Some(profiles) => RespValue::Array(
                        format_profile(&profiles).into_iter().map(RespValue::BulkString).collect(),
                    )
                    .encode_into(&mut reply),
                    None => {
                        rs.stats.cached = was_cached;
                        encode_resultset(&rs, &mut reply);
                    }
                }
                Ok(())
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
            if let Err(e) = outcome {
                error_reply(&e).encode_into(&mut reply);
            }
            let _ = reply_to.send(reply);
        });
    }

    /// `GRAPH.CONFIG GET`: one parameter as a name/value pair, or every
    /// parameter for `*`.
    fn config_get(&self, parameter: &str) -> RespValue {
        let pair = |name: &str| {
            RespValue::Array(vec![
                RespValue::BulkString(name.to_string()),
                RespValue::Integer(self.config_value(name).expect("listed parameter")),
            ])
        };
        if parameter == "*" {
            // RedisGraph parity: every parameter as a name/value pair.
            return RespValue::Array(CONFIG_PARAMETERS.iter().map(|name| pair(name)).collect());
        }
        match CONFIG_PARAMETERS.iter().find(|name| parameter.eq_ignore_ascii_case(name)) {
            Some(name) => pair(name),
            None => RespValue::Error(format!("ERR unknown configuration parameter `{parameter}`")),
        }
    }

    /// `GRAPH.CONFIG SET` of one runtime-settable parameter.
    fn config_set(&self, parameter: &str, value: &str) -> RespValue {
        if parameter.eq_ignore_ascii_case("DELTA_MAX_PENDING_CHANGES") {
            let Some(threshold) = value.parse::<usize>().ok().filter(|&v| v >= 1) else {
                return RespValue::Error(format!(
                    "ERR DELTA_MAX_PENDING_CHANGES must be a positive integer (1 = flush every \
                     insert or delete), got `{value}`"
                ));
            };
            self.delta_max_pending_changes.store(threshold, Ordering::Relaxed);
            // Retune every existing graph in place.
            let graphs: Vec<Arc<RwLock<Graph>>> =
                self.graphs.read().values().map(|e| e.graph.clone()).collect();
            for graph in graphs {
                graph.write().set_flush_threshold(threshold);
            }
        } else if parameter.eq_ignore_ascii_case("PLAN_CACHE_SIZE") {
            let Ok(size) = value.parse::<usize>() else {
                return RespValue::Error(format!(
                    "ERR PLAN_CACHE_SIZE must be a non-negative integer (cached plans per graph; \
                     0 disables the plan cache), got `{value}`"
                ));
            };
            self.plan_cache_size.store(size, Ordering::Relaxed);
            // Resize every existing cache in place (which clears it); new
            // graphs pick the value up on creation.
            for entry in self.graphs.read().values() {
                entry.plan_cache.set_capacity(size);
            }
        } else if parameter.eq_ignore_ascii_case("MAX_QUERY_BUFFER") {
            let Some(bytes) = value.parse::<usize>().ok().filter(|&v| v >= MIN_QUERY_BUFFER) else {
                return RespValue::Error(format!(
                    "ERR MAX_QUERY_BUFFER must be an integer >= {MIN_QUERY_BUFFER} (bytes of \
                     unparsed input a connection may retain), got `{value}`"
                ));
            };
            self.max_query_buffer.store(bytes, Ordering::Relaxed);
        } else if parameter.eq_ignore_ascii_case("SLOWLOG_TIME_THRESHOLD") {
            let Ok(ms) = value.parse::<u64>() else {
                return RespValue::Error(format!(
                    "ERR SLOWLOG_TIME_THRESHOLD must be a non-negative integer (milliseconds; 0 \
                     logs every query), got `{value}`"
                ));
            };
            self.slowlog_time_threshold_ms.store(ms, Ordering::Relaxed);
        } else {
            return RespValue::Error(format!("ERR unknown configuration parameter `{parameter}`"));
        }
        RespValue::SimpleString("OK".to_string())
    }

    /// `GRAPH.EXPLAIN`: the plan's operator lines. It resolves through the
    /// same per-graph plan cache and dispatch as QUERY/PROFILE: explaining a
    /// hot query is free, an EXPLAIN warms the cache for the executions that
    /// follow, and one that does not parse creates no graph.
    fn explain(&self, graph: &str, query: &str) -> RespValue {
        let KeyedQuery { key, body, .. } = match self.keyed(query) {
            Ok(keyed) => keyed,
            Err(e) => return error_reply(&e),
        };
        let resolved = self
            .dispatch(graph, &key, body)
            .and_then(|(entry, dispatched)| entry.resolve_plan(&key, dispatched, &self.metrics));
        match resolved {
            Ok((skeleton, _)) => RespValue::Array(
                skeleton.plan.describe().into_iter().map(RespValue::BulkString).collect(),
            ),
            Err(e) => error_reply(&e),
        }
    }

    /// `GRAPH.SLOWLOG`: the graph's slow-query log, newest first, or `OK`
    /// after a `RESET`. Unlike queries, SLOWLOG never creates the graph:
    /// asking for the log of a graph that does not exist is an error.
    fn slowlog(&self, graph: &str, reset: bool) -> RespValue {
        let Some(entry) = self.graphs.read().get(graph).cloned() else {
            return RespValue::Error(format!("ERR graph `{graph}` does not exist"));
        };
        if reset {
            entry.slowlog.lock().reset();
            return RespValue::SimpleString("OK".to_string());
        }
        let entries = entry.slowlog.lock().entries_newest_first();
        RespValue::Array(
            entries
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

    /// The current value of a canonical configuration parameter name.
    fn config_value(&self, name: &str) -> Option<i64> {
        match name {
            "DELTA_MAX_PENDING_CHANGES" => Some(self.delta_max_pending_changes() as i64),
            "MAX_QUERY_BUFFER" => Some(self.max_query_buffer() as i64),
            "SLOWLOG_TIME_THRESHOLD" => Some(self.slowlog_time_threshold_ms() as i64),
            "PLAN_CACHE_SIZE" => Some(self.plan_cache_size() as i64),
            "THREAD_COUNT" => Some(self.thread_count as i64),
            "MAX_CONNECTIONS" => Some(self.max_connections as i64),
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
                ("worker_panics", int(self.pool.panics())),
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
        let rebuild = &m.snapshot_rebuild_latency;
        let latency = section(
            "latency",
            vec![
                ("query_p50_usec", int(m.query_latency.quantile(0.50) / 1_000)),
                ("query_p99_usec", int(m.query_latency.quantile(0.99) / 1_000)),
                ("query_max_usec", int(m.query_latency.max() / 1_000)),
                ("query_mean_usec", int(m.query_latency.mean() / 1_000)),
                ("query_samples", int(m.query_latency.count())),
                ("snapshot_rebuild_p50_usec", int(rebuild.quantile(0.50) / 1_000)),
                ("snapshot_rebuild_p99_usec", int(rebuild.quantile(0.99) / 1_000)),
                ("snapshot_rebuild_max_usec", int(rebuild.max() / 1_000)),
                ("snapshot_rebuild_mean_usec", int(rebuild.mean() / 1_000)),
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
        for command in [
            &["GRAPH.CONFIG", "GET", "NO_SUCH_PARAMETER"][..],
            &["GRAPH.CONFIG", "SET", "NO_SUCH_PARAMETER", "4"][..],
        ] {
            let reply = server.handle(&RespValue::command(command));
            let RespValue::Error(msg) = reply else { panic!("expected error, got {reply}") };
            assert!(msg.starts_with("ERR unknown configuration parameter"), "got {msg}");
        }
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
        assert_eq!(pairs.len(), 6);
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
    fn config_reports_the_live_value_of_every_set_parameter() {
        let server = RedisGraphServer::new(ServerConfig {
            thread_count: 3,
            max_connections: 77,
            ..ServerConfig::default()
        });
        for (parameter, value) in [
            ("PLAN_CACHE_SIZE", "0"),
            ("DELTA_MAX_PENDING_CHANGES", "5"),
            ("MAX_QUERY_BUFFER", "65536"),
            ("SLOWLOG_TIME_THRESHOLD", "9"),
        ] {
            let reply =
                server.handle(&RespValue::command(&["GRAPH.CONFIG", "SET", parameter, value]));
            assert_eq!(reply, RespValue::SimpleString("OK".into()), "{parameter}");
        }
        let config = server.config();
        assert_eq!((config.thread_count, config.max_connections), (3, 77));
        assert_eq!(config.plan_cache_size, 0);
        assert_eq!(config.delta_max_pending_changes, 5);
        assert_eq!(config.max_query_buffer, 65_536);
        assert_eq!(config.slowlog_time_threshold_ms, 9);
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
        assert_eq!(after["worker_panics"], 0, "a parse error is not a panic");
        assert_eq!(after["queries_write"], 1);
        assert_eq!(after["queries_readonly"], 1);
        assert_eq!(after["graph.query"], 3);
        assert_eq!(after["graphs"], 1);
        assert_eq!(after["nodes"], 2);
        assert_eq!(after["edges"], 1);
        assert!(after["query_samples"] == 2 && after["query_max_usec"] >= 0);
        assert_eq!(after["snapshot_rebuilds"], 1, "first read of the epoch rebuilds");
        assert_eq!(server.metrics.snapshot_rebuild_latency.count(), 1, "each rebuild is timed");
        assert!(after["snapshot_rebuild_max_usec"] >= after["snapshot_rebuild_mean_usec"]);
        assert!(after["snapshot_rebuild_p99_usec"] >= after["snapshot_rebuild_p50_usec"]);
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
        assert_eq!(server.metrics.snapshot_rebuild_latency.count(), 1, "a hit is not a rebuild");
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
        // value is bound at execution time, not spliced into the text.
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

    /// The single integer cell of a one-row, one-column query reply.
    fn count_cell(reply: &RespValue) -> i64 {
        let RespValue::Array(sections) = reply else { panic!("expected array, got {reply}") };
        let RespValue::Array(rows) = &sections[1] else { panic!("no rows in {reply}") };
        let RespValue::Array(row) = &rows[0] else { panic!("no row in {reply}") };
        let RespValue::Integer(n) = row[0] else { panic!("not a count: {reply}") };
        n
    }

    #[test]
    fn string_escapes_and_comment_quotes_never_merge_two_cache_keys() {
        let server = RedisGraphServer::new(ServerConfig::default());
        server.query("g", r"CREATE (:P {name: 'a\' b'}), (:P {name: 'a b'})");
        // Property-map strings stay in the key. Two spaces after an escaped
        // quote, or after a quote inside a comment, are string content.
        for (two_spaces, one_space) in [
            (
                r"MATCH (n {name: 'a\'  b'}) RETURN count(n)",
                r"MATCH (n {name: 'a\' b'}) RETURN count(n)",
            ),
            (
                "MATCH // it's\n(n {name: 'a  b'}) RETURN count(n)",
                "MATCH // it's\n(n {name: 'a b'}) RETURN count(n)",
            ),
        ] {
            assert_eq!(count_cell(&server.query("g", two_spaces)), 0, "{two_spaces}");
            let reply = server.query("g", one_space);
            assert_eq!(count_cell(&reply), 1, "{one_space}");
            assert!(!cached_flag(&reply), "{one_space} shared the plan of {two_spaces}");
        }
        // A filter's strings are lifted out of the key: one plan, and each
        // execution binds its own value.
        let two = server.query("g", r"MATCH (n) WHERE n.name = 'a\'  b' RETURN count(n)");
        let one = server.query("g", r"MATCH (n) WHERE n.name = 'a\' b' RETURN count(n)");
        assert_eq!((count_cell(&two), count_cell(&one)), (0, 1));
        assert!(cached_flag(&one));
    }

    #[test]
    fn explain_and_profile_of_a_literal_query_print_its_plan_through_the_shared_key() {
        let server = RedisGraphServer::new(ServerConfig::default());
        server.query("g", "CREATE (:Node {v: 1})-[:LINK]->(:Node {v: 2})");
        let lines = |reply: RespValue| -> Vec<String> {
            let RespValue::Array(lines) = reply else { panic!("expected array, got {reply}") };
            lines
                .into_iter()
                .map(|l| match l {
                    RespValue::BulkString(s) => s,
                    other => panic!("expected a line, got {other}"),
                })
                .collect()
        };
        let spelled = |id: i64, v: f64, tag: &str| {
            format!(
                "MATCH (s:Node)-[:LINK]->(t) WHERE id(s) = {id} AND t.v > {v} \
                 RETURN t.v, '{tag}' ORDER BY t.v LIMIT 3"
            )
        };
        let first = spelled(0, 1.5, "x");
        let direct = ExecutionPlan::build(&cypher::parse(&first).unwrap()).unwrap().describe();
        let explain = server.handle(&RespValue::command(&["GRAPH.EXPLAIN", "g", &first]));
        assert_eq!(lines(explain), direct);

        // The EXPLAIN planned the shape; PROFILE of another value hits it and
        // runs the same operators.
        let hits = server.metrics().plan_cache_hits.load(Ordering::Relaxed);
        let profile = spelled(1, 0.5, "y");
        let reply = server.handle(&RespValue::command(&["GRAPH.PROFILE", "g", &profile]));
        assert_eq!(server.metrics().plan_cache_hits.load(Ordering::Relaxed), hits + 1);
        let ops: Vec<String> = lines(reply)
            .iter()
            .map(|l| l.split(" | Records produced").next().unwrap().to_string())
            .collect();
        assert_eq!(ops, direct);
    }

    #[test]
    fn plan_resolution_never_takes_the_graph_lock() {
        let server = RedisGraphServer::new(ServerConfig::default());
        server.query("g", "CREATE (:A {v: 1})-[:R]->(:B {v: 2})");
        let graph = server.graph("g");
        // Hold the graph's write lock on this thread: resolving a plan that
        // touched the graph lock, on a miss or a hit, would deadlock here.
        let _guard = graph.write();
        for _ in 0..2 {
            let reply = server.handle(&RespValue::command(&[
                "GRAPH.EXPLAIN",
                "g",
                "MATCH (a:A)-[:R]->(b:B) RETURN b.v",
            ]));
            let RespValue::Array(lines) = reply else { panic!("expected array, got {reply}") };
            assert!(lines.iter().any(|l| l.to_string().contains("Project")));
        }
        assert_eq!(server.metrics().plan_cache_hits.load(Ordering::Relaxed), 1);
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
        // Even a whole-matrix plan (procedure call) only materialises its
        // operands from the snapshot's merged views; nothing is flushed.
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

        let (tx, rx) = crossbeam::channel::unbounded();
        for _ in 0..100 {
            server.submit("g".into(), "MATCH (a RETURN a".into(), false, tx.clone());
        }
        for _ in 0..50 {
            server.submit(
                "g".into(),
                "MATCH (a)-[:R]->(b) RETURN count(b)".into(),
                false,
                tx.clone(),
            );
        }
        let (mut errors, mut results) = (0, 0);
        for _ in 0..150 {
            let reply = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("a query stalled: something on the read path wants the write lock");
            match RespValue::decode(&reply).expect("one whole reply").0 {
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
        server.submit("g".into(), "CREATE (:Late)".into(), false, tx);

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
        match RespValue::decode(&reply).expect("one whole reply").0 {
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
    fn explain_of_an_unparseable_query_creates_no_graph() {
        let server = RedisGraphServer::new(ServerConfig::default());
        let reply =
            server.handle(&RespValue::command(&["GRAPH.EXPLAIN", "nope", "MATCH (a RETURN a"]));
        assert!(matches!(reply, RespValue::Error(_)), "expected an error, got {reply}");
        assert!(server.graph_names().is_empty(), "a failed EXPLAIN must not create its graph");
    }

    #[test]
    fn dispatcher_serves_concurrent_clients() {
        let server = Arc::new(RedisGraphServer::new(ServerConfig {
            thread_count: 4,
            ..ServerConfig::default()
        }));
        server.query("g", "CREATE (:Node {id: 0})-[:LINK]->(:Node {id: 1})");

        // Each client thread dispatches through `handle` itself, the way
        // every connection loop does.
        let mut clients = Vec::new();
        for _ in 0..8 {
            let server = Arc::clone(&server);
            clients.push(std::thread::spawn(move || {
                for _ in 0..5 {
                    let reply = server.query("g", "MATCH (a)-[:LINK]->(b) RETURN count(b)");
                    assert!(matches!(reply, RespValue::Array(_)), "unexpected reply {reply}");
                }
            }));
        }
        for c in clients {
            c.join().unwrap();
        }
    }
}
