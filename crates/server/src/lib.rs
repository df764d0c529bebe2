//! # redisgraph-server
//!
//! The Redis substrate of the reproduction: an in-process, single-threaded
//! command loop speaking (a subset of) the RESP protocol, with the RedisGraph
//! module's **worker threadpool** bolted on exactly as §II of the paper
//! describes:
//!
//! * every command arrives on the single main thread (Redis is
//!   single-threaded);
//! * `GRAPH.QUERY` work is handed to one thread of a pool whose size is fixed
//!   when the module is loaded;
//! * each query runs on exactly **one** thread — reads scale with concurrent
//!   clients because many pool threads can serve different queries at once,
//!   not because one query uses many cores.
//!
//! Every command runs through one call, [`server::RedisGraphServer::execute`],
//! which appends the command's encoded RESP reply to a byte buffer. It has
//! two callers:
//!
//! * a synchronous façade ([`server::RedisGraphServer::handle`]) used by the
//!   examples, the in-process tests and rgbench's ladder: it decodes the
//!   bytes the way a client would, and concurrent clients call it from their
//!   own threads on a shared server;
//! * the **real network server** ([`listener::GraphServer`]): a TCP accept
//!   loop whose per-connection framing loops ([`conn`]) run a resumable
//!   [`resp::StreamDecoder`] under a bounded retained buffer and write the
//!   bytes back — the byte-level interface RedisGraph clients actually speak,
//!   plus a small blocking client ([`client::RespClient`], the same decoder
//!   in its reply role) to drive it.

pub mod client;
pub mod commands;
mod conn;
pub mod listener;
pub mod metrics;
pub mod plan_cache;
pub mod pool;
pub mod resp;
pub mod server;

pub use client::RespClient;
pub use commands::Command;
pub use listener::GraphServer;
pub use metrics::{CommandKind, Histogram, Metrics, SlowLog, SlowLogEntry};
pub use plan_cache::{normalize, CachedPlan, PlanCache};
// The lock type `RedisGraphServer::graph` hands out, so embedders can name
// `Arc<RwLock<Graph>>` without depending on the lock crate directly.
pub use parking_lot::RwLock;
pub use pool::ThreadPool;
pub use resp::{DecodeStop, RespValue, StreamDecoder};
pub use server::{RedisGraphServer, ServerConfig, DEFAULT_PLAN_CACHE_SIZE};
