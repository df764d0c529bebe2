//! `redisgraph-server` — the stand-alone network server binary: binds a TCP
//! listener, serves the RESP protocol over real sockets, and shuts down
//! gracefully on SIGINT/SIGTERM or a client's `SHUTDOWN` command (in-flight
//! queries drain before the process exits 0).
//!
//! ```text
//! cargo run --release --bin redisgraph-server -- --port 6380 --threads 8
//! redis-cli -p 6380 GRAPH.QUERY social "MATCH (n) RETURN count(n)"
//! ```
//!
//! `--port 0` picks an ephemeral port; pair it with `--addr-file` so scripts
//! and tests can discover the bound address. The file appears only once the
//! signal handlers are installed, so a SIGTERM sent after reading it always
//! takes the graceful path.

use crossbeam::atomic::{AtomicBool, Ordering};
use datagen::RmatConfig;
use redisgraph_server::{GraphServer, RedisGraphServer, ServerConfig};
use std::sync::{Arc, OnceLock};

/// The server's own shutdown flag, published before handlers are installed.
/// Process-global because POSIX hands the handler no context pointer; the
/// signal path and the `SHUTDOWN` command path flip the *same* flag, so
/// [`GraphServer::wait`] is the single place the stop is observed.
static SHUTDOWN_FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: an atomic store, nothing else.
    if let Some(flag) = SHUTDOWN_FLAG.get() {
        flag.store(true, Ordering::SeqCst);
    }
}

/// Route SIGINT (2) and SIGTERM (15) to [`on_signal`]. `std` links libc on
/// every supported platform, so the one symbol is declared directly instead
/// of pulling in the `libc` crate.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal(2)` is async-signal-safe to install from the main
    // thread before any listener exists, and `on_signal` performs only an
    // atomic store, which is legal in a signal handler.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

const USAGE: &str = "\
redisgraph-server — RESP-over-TCP server for the RedisGraph reproduction

USAGE:
    redisgraph-server [FLAGS]

FLAGS:
    --host <ADDR>                bind address            [default: 127.0.0.1]
    --port <PORT>                bind port, 0 = ephemeral [default: 6380]
    --threads <N>                query worker pool size   [default: 4]
    --delta-threshold <N>        delta flush threshold (DELTA_MAX_PENDING_CHANGES)
    --max-query-buffer <BYTES>   per-connection unparsed-input cap (MAX_QUERY_BUFFER)
    --max-connections <N>        concurrent connection cap [default: 128]
    --slowlog-threshold <MS>     log queries at/over this many milliseconds
                                 (SLOWLOG_TIME_THRESHOLD, 0 = log everything)
    --plan-cache-size <N>        cached plans per graph, 0 disables
                                 (PLAN_CACHE_SIZE)
    --preload-scale <N>          bulk-load an RMAT scale-N graph before serving
    --preload-edge-factor <N>    edges per vertex for the preload [default: 8]
    --preload-graph <NAME>       graph key for the preload [default: bench]
    --addr-file <PATH>           write the bound host:port to PATH after bind
    --help                       print this help
";

/// Every flag that takes a value. Any other argument but `--help`/`-h` is
/// an error exit — a typo such as `--prot 7000` must not silently serve on
/// the default port.
const VALUE_FLAGS: [&str; 12] = [
    "--host",
    "--port",
    "--threads",
    "--delta-threshold",
    "--max-query-buffer",
    "--max-connections",
    "--slowlog-threshold",
    "--plan-cache-size",
    "--preload-scale",
    "--preload-edge-factor",
    "--preload-graph",
    "--addr-file",
];

/// Exit 2 on the first argument that is neither a known flag nor the value
/// following one.
fn reject_unknown_args(argv: &[String]) {
    let mut args = argv.iter().skip(1);
    while let Some(a) = args.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            args.next(); // its value; a missing one is reported by `arg`
        } else if a != "--help" && a != "-h" {
            eprintln!("redisgraph-server: unknown argument `{a}` (see --help)");
            std::process::exit(2);
        }
    }
}

/// Fetch a flag's value. Absent flag → `None` (caller applies its default);
/// present-but-unparseable value → error exit, never a silent default — a
/// server listening on a port other than the one the operator typed is
/// strictly worse than refusing to start.
fn arg<T: std::str::FromStr>(argv: &[String], name: &str) -> Option<T> {
    let i = argv.iter().position(|a| a == name)?;
    let Some(raw) = argv.get(i + 1) else {
        eprintln!("redisgraph-server: flag {name} requires a value");
        std::process::exit(2);
    };
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("redisgraph-server: invalid value for {name}: `{raw}`");
            std::process::exit(2);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    reject_unknown_args(&argv);
    let host: String = arg(&argv, "--host").unwrap_or_else(|| "127.0.0.1".to_string());
    let port: u16 = arg(&argv, "--port").unwrap_or(6380);
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        thread_count: arg(&argv, "--threads").unwrap_or(defaults.thread_count),
        delta_max_pending_changes: arg(&argv, "--delta-threshold")
            .unwrap_or(defaults.delta_max_pending_changes),
        max_query_buffer: arg(&argv, "--max-query-buffer").unwrap_or(defaults.max_query_buffer),
        max_connections: arg(&argv, "--max-connections").unwrap_or(defaults.max_connections),
        slowlog_time_threshold_ms: arg(&argv, "--slowlog-threshold")
            .unwrap_or(defaults.slowlog_time_threshold_ms),
        plan_cache_size: arg(&argv, "--plan-cache-size").unwrap_or(defaults.plan_cache_size),
    };

    let server = Arc::new(RedisGraphServer::new(config));

    // Optional preload: bulk-load a generated RMAT graph through the
    // in-process API so benchmark clients find data without streaming a
    // dataset over the wire first.
    if let Some(scale) = arg::<u32>(&argv, "--preload-scale") {
        let edge_factor: u32 = arg(&argv, "--preload-edge-factor").unwrap_or(8);
        let name: String = arg(&argv, "--preload-graph").unwrap_or_else(|| "bench".to_string());
        let el = datagen::rmat::generate(&RmatConfig {
            scale,
            edge_factor,
            seed: 42,
            ..RmatConfig::default()
        });
        let graph = server.graph(&name);
        graph.write().bulk_load(el.num_vertices, &el.edges);
        println!(
            "preloaded graph `{name}`: {} vertices, {} edges (RMAT scale {scale})",
            el.num_vertices,
            el.edges.len()
        );
    }

    let net = match GraphServer::bind_with((host.as_str(), port), server) {
        Ok(net) => net,
        Err(e) => {
            eprintln!("redisgraph-server: cannot bind {host}:{port}: {e}");
            std::process::exit(1);
        }
    };
    let addr = net.local_addr();
    println!(
        "redisgraph-server listening on {addr} ({} workers, max {} connections)",
        net.server().config().thread_count,
        net.server().config().max_connections
    );
    SHUTDOWN_FLAG.set(net.shutdown_flag()).expect("flag published once");
    install_signal_handlers();

    if let Some(path) = arg::<String>(&argv, "--addr-file") {
        if let Err(e) = std::fs::write(&path, addr.to_string()) {
            eprintln!("redisgraph-server: cannot write --addr-file {path}: {e}");
            std::process::exit(1);
        }
    }

    // Serve until a signal or a client's SHUTDOWN command flips the flag;
    // wait() then performs the graceful stop (drain in-flight, close, join).
    net.wait();
    println!("redisgraph-server: bye");
}
