//! Multi-threaded server smoke test: concurrent clients push a mixed
//! read/write `GRAPH.QUERY` workload at one graph, each dispatching from its
//! own thread onto the module threadpool of one shared server.
//!
//! What it asserts:
//!
//! * **no deadlock** — every reply arrives within a generous timeout (a stuck
//!   lock or a wedged pool fails the test instead of hanging it);
//! * **writes are not lost** — the final node/edge counts equal exactly what
//!   the writer clients created;
//! * **reads are consistent** — each reader observes monotonically
//!   non-decreasing counts (the workload only adds entities, so a decreasing
//!   count would mean a read saw a torn graph).

use redisgraph_server::{RedisGraphServer, RespValue, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

const WRITERS: usize = 4;
const READERS: usize = 4;
const WRITES_PER_WRITER: usize = 25;
const READS_PER_READER: usize = 40;
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Dispatch one GRAPH.QUERY — the path `RedisGraphServer::handle` takes —
/// and wait (bounded) for its reply, decoded the way a client decodes it.
fn roundtrip(server: &RedisGraphServer, graph: &str, query: &str) -> RespValue {
    let (reply_tx, reply_rx) = crossbeam::channel::bounded(1);
    server.submit(graph.to_string(), query.to_string(), false, reply_tx);
    let reply = reply_rx
        .recv_timeout(REPLY_TIMEOUT)
        .expect("no reply within timeout — a lock or the pool deadlocked");
    RespValue::decode(&reply).expect("one whole reply").0
}

/// Pull the single integer cell out of a `count(...)` reply.
fn scalar_count(reply: &RespValue) -> i64 {
    let RespValue::Array(sections) = reply else { panic!("expected an array reply, got {reply}") };
    let RespValue::Array(rows) = &sections[1] else { panic!("bad rows section") };
    let RespValue::Array(row) = &rows[0] else { panic!("bad row") };
    let RespValue::Integer(n) = row[0] else { panic!("bad count cell") };
    n
}

#[test]
fn concurrent_mixed_reads_and_writes_stay_consistent() {
    let server = Arc::new(RedisGraphServer::new(ServerConfig {
        thread_count: 4,
        ..ServerConfig::default()
    }));
    // Anchor node so writers can attach edges with a MATCH + CREATE.
    let seeded = server.query("smoke", "CREATE (:Hub {name: 'hub'})");
    assert!(!matches!(seeded, RespValue::Error(_)), "seed failed: {seeded}");

    let mut clients = Vec::new();
    for w in 0..WRITERS {
        let server = Arc::clone(&server);
        clients.push(std::thread::spawn(move || {
            for i in 0..WRITES_PER_WRITER {
                let query =
                    format!("MATCH (h:Hub) CREATE (:Item {{writer: {w}, seq: {i}}})-[:OF]->(h)");
                let reply = roundtrip(&server, "smoke", &query);
                assert!(!matches!(reply, RespValue::Error(_)), "write {w}/{i} failed: {reply}");
            }
        }));
    }
    for r in 0..READERS {
        let server = Arc::clone(&server);
        clients.push(std::thread::spawn(move || {
            let mut last = -1i64;
            for i in 0..READS_PER_READER {
                let reply =
                    roundtrip(&server, "smoke", "MATCH (i:Item)-[:OF]->(:Hub) RETURN count(i)");
                let count = scalar_count(&reply);
                assert!(
                    count >= last,
                    "reader {r} read {i}: count went backwards ({last} -> {count})"
                );
                assert!(
                    count <= (WRITERS * WRITES_PER_WRITER) as i64,
                    "reader {r} read {i}: impossible count {count}"
                );
                last = count;
            }
        }));
    }
    for client in clients {
        client.join().expect("client thread panicked");
    }

    // Every write must be visible once the clients are done.
    let expected = (WRITERS * WRITES_PER_WRITER) as i64;
    let final_count = scalar_count(&roundtrip(&server, "smoke", "MATCH (i:Item) RETURN count(i)"));
    assert_eq!(final_count, expected, "lost or duplicated writes");
    let edge_count =
        scalar_count(&roundtrip(&server, "smoke", "MATCH (:Item)-[r:OF]->(:Hub) RETURN count(r)"));
    assert_eq!(edge_count, expected, "edge count diverged from node count");

    // The store agrees with the Cypher view (+1 for the hub node).
    {
        let graph = server.graph("smoke");
        let guard = graph.read();
        assert_eq!(guard.node_count() as i64, expected + 1);
        assert_eq!(guard.edge_count() as i64, expected);
    }
}

/// Delta-matrix stress: a tiny `DELTA_MAX_PENDING_CHANGES` makes writer
/// threads trip matrix flushes constantly, and every read query crosses the
/// server's read barrier (which itself takes the write lock to flush) while
/// other readers and writers hammer the same graph. Asserts the same
/// bounded-timeout no-deadlock, lost-write, and monotonic-read guarantees as
/// the plain smoke test, plus that deletes interleaved with pending inserts
/// never corrupt the counts.
#[test]
fn delta_flushes_under_concurrent_mixed_traffic() {
    let server = Arc::new(RedisGraphServer::new(ServerConfig {
        thread_count: 4,
        delta_max_pending_changes: 4, // force mid-stream flushes
        ..ServerConfig::default()
    }));
    let seeded = server.query("delta", "CREATE (:Hub {name: 'hub'})");
    assert!(!matches!(seeded, RespValue::Error(_)), "seed failed: {seeded}");
    // The knob round-trips over the wire.
    let got =
        server.handle(&RespValue::command(&["GRAPH.CONFIG", "GET", "DELTA_MAX_PENDING_CHANGES"]));
    let RespValue::Array(kv) = got else { panic!("bad GRAPH.CONFIG GET reply") };
    assert_eq!(kv[1], RespValue::Integer(4));

    let mut clients = Vec::new();
    for w in 0..WRITERS {
        let server = Arc::clone(&server);
        clients.push(std::thread::spawn(move || {
            for i in 0..WRITES_PER_WRITER {
                // Two nodes + one edge per write: enough churn that the
                // 4-change threshold flushes inside the write query itself.
                let query = format!(
                    "MATCH (h:Hub) CREATE (:Item {{writer: {w}, seq: {i}}})-[:OF]->(h), \
                     (:Scratch {{writer: {w}, seq: {i}}})"
                );
                let reply = roundtrip(&server, "delta", &query);
                assert!(!matches!(reply, RespValue::Error(_)), "write {w}/{i} failed: {reply}");
                // Delete the scratch node again while other writers keep the
                // buffers dirty (delete-with-pending-inserts under load).
                let query = format!("MATCH (s:Scratch {{writer: {w}, seq: {i}}}) DETACH DELETE s");
                let reply = roundtrip(&server, "delta", &query);
                assert!(!matches!(reply, RespValue::Error(_)), "delete {w}/{i} failed: {reply}");
            }
        }));
    }
    for r in 0..READERS {
        let server = Arc::clone(&server);
        clients.push(std::thread::spawn(move || {
            let mut last = -1i64;
            for i in 0..READS_PER_READER {
                // Forces the read barrier (and under it, a flush) mid-stream.
                let reply =
                    roundtrip(&server, "delta", "MATCH (i:Item)-[:OF]->(:Hub) RETURN count(i)");
                let count = scalar_count(&reply);
                assert!(
                    count >= last,
                    "reader {r} read {i}: count went backwards ({last} -> {count})"
                );
                assert!(
                    count <= (WRITERS * WRITES_PER_WRITER) as i64,
                    "reader {r} read {i}: impossible count {count}"
                );
                last = count;
            }
        }));
    }
    for client in clients {
        client.join().expect("client thread panicked");
    }

    let expected = (WRITERS * WRITES_PER_WRITER) as i64;
    let final_count = scalar_count(&roundtrip(&server, "delta", "MATCH (i:Item) RETURN count(i)"));
    assert_eq!(final_count, expected, "lost or duplicated writes");
    let scratch_count =
        scalar_count(&roundtrip(&server, "delta", "MATCH (s:Scratch) RETURN count(s)"));
    assert_eq!(scratch_count, 0, "scratch nodes must all be deleted");
    let edge_count =
        scalar_count(&roundtrip(&server, "delta", "MATCH (:Item)-[r:OF]->(:Hub) RETURN count(r)"));
    assert_eq!(edge_count, expected, "edge count diverged from node count");

    // The store agrees with the Cypher view (+1 for the hub node).
    {
        let graph = server.graph("delta");
        let guard = graph.read();
        assert_eq!(guard.node_count() as i64, expected + 1);
        assert_eq!(guard.edge_count() as i64, expected);
    }
}

#[test]
fn dispatcher_survives_malformed_queries_under_load() {
    let server = Arc::new(RedisGraphServer::new(ServerConfig {
        thread_count: 2,
        ..ServerConfig::default()
    }));
    server.query("smoke", "CREATE (:Hub)");
    let mut clients = Vec::new();
    for c in 0..4 {
        let server = Arc::clone(&server);
        clients.push(std::thread::spawn(move || {
            for i in 0..20 {
                if (c + i) % 3 == 0 {
                    // Malformed on purpose: must produce an error reply, not
                    // poison the graph lock or kill the worker.
                    let reply = roundtrip(&server, "smoke", "MATCH (h:Hub RETURN h");
                    assert!(matches!(reply, RespValue::Error(_)));
                } else {
                    let reply = roundtrip(&server, "smoke", "MATCH (h:Hub) RETURN count(h)");
                    assert_eq!(scalar_count(&reply), 1);
                }
            }
        }));
    }
    for client in clients {
        client.join().expect("client thread panicked");
    }
}
