//! Experiment E5 harness: read-throughput scaling with the module threadpool
//! size — the architectural claim of §II ("this allows reads to scale and
//! handle large throughput easily") that motivates the one-query-one-thread
//! design.
//!
//! Concurrent clients issue k-hop-count queries, each dispatching through
//! `RedisGraphServer::handle` on its own thread; the pool size is swept and
//! queries/second is reported for each setting.
//!
//! ```text
//! cargo run --release -p redisgraph-bench --bin throughput -- --scale 12 --queries 200
//! ```

use datagen::{KhopWorkload, SeedSelection};
use redisgraph_bench::report::render_table;
use redisgraph_bench::{load_dataset, Dataset};
use redisgraph_server::{RedisGraphServer, RespValue, ServerConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let scale: u32 = arg(&argv, "--scale").unwrap_or(12);
    let queries: usize = arg(&argv, "--queries").unwrap_or(200);
    let clients: usize = arg(&argv, "--clients").unwrap_or(8);
    // 2-hop queries by default: heavy enough that the worker threads, not
    // dispatch, are the bottleneck — which is the regime the paper's
    // architecture argument is about.
    let k: u32 = arg(&argv, "--k").unwrap_or(2);

    println!("Threadpool read-throughput scaling (paper §II architecture claim)\n");
    let loaded = load_dataset(Dataset::Graph500, scale, 42);
    let degrees = loaded.edges.out_degrees();
    let workload = KhopWorkload::with_seed_count(
        1,
        loaded.edges.num_vertices,
        &degrees,
        SeedSelection::NonIsolated,
        7,
        queries,
    );

    let mut rows = Vec::new();
    for pool_size in [1usize, 2, 4, 8] {
        let qps = run_with_pool(
            pool_size,
            clients,
            k,
            &loaded.edges.edges,
            loaded.edges.num_vertices,
            &workload,
        );
        rows.push(vec![
            pool_size.to_string(),
            clients.to_string(),
            queries.to_string(),
            format!("{qps:.0}"),
        ]);
    }
    println!("{}", render_table(&["pool threads", "clients", "queries", "queries/sec"], &rows));
    println!("Each query runs on exactly one pool thread; throughput should grow with the pool\nuntil the host's core count is reached, while single-query latency stays flat.");
}

fn arg<T: std::str::FromStr>(argv: &[String], name: &str) -> Option<T> {
    argv.iter().position(|a| a == name).and_then(|i| argv.get(i + 1)).and_then(|s| s.parse().ok())
}

fn run_with_pool(
    pool_size: usize,
    clients: usize,
    k: u32,
    edges: &[(u64, u64)],
    num_vertices: u64,
    workload: &KhopWorkload,
) -> f64 {
    let server = Arc::new(RedisGraphServer::new(ServerConfig {
        thread_count: pool_size,
        ..ServerConfig::default()
    }));
    // Load the graph through the server's keyspace once.
    {
        let graph = server.graph("bench");
        graph.write().bulk_load(num_vertices, edges);
    }
    let queries_per_client = workload.len() / clients.max(1);
    let start = Instant::now();
    let mut client_handles = Vec::new();
    for c in 0..clients {
        let server = Arc::clone(&server);
        let seeds: Vec<u64> = workload
            .seeds
            .iter()
            .skip(c * queries_per_client)
            .take(queries_per_client)
            .copied()
            .collect();
        client_handles.push(std::thread::spawn(move || {
            for seed in seeds {
                let query =
                    format!("MATCH (s:Node)-[*1..{k}]->(t) WHERE id(s) = {seed} RETURN count(t)");
                let reply = server.query("bench", &query);
                assert!(!matches!(reply, RespValue::Error(_)), "query failed: {reply}");
            }
        }));
    }
    for h in client_handles {
        h.join().expect("client thread");
    }
    let elapsed = start.elapsed().as_secs_f64();
    (queries_per_client * clients) as f64 / elapsed
}
