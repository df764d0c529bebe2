//! Traversal-strategy benchmark: the same multi-hop `MATCH` queries over an
//! RMAT graph, executed per-record (scalar pointer chasing), batched
//! (frontier `mxm`), and fused (the algebraic optimizer collapses the hop
//! chain into one counting-semiring matrix product and feeds path counts
//! straight into the aggregate). The first two modes run the unoptimized
//! plan (`ExecutionPlan::build_unoptimized`) so they keep measuring the
//! per-hop strategies in isolation.
//!
//! Row counts must agree across all modes — the bench doubles as a coarse
//! differential check — and the batched/fused timings are what the paper's
//! "traversals are algebraic expressions" claim buys in practice.
//!
//! ```text
//! cargo run --release -p redisgraph-bench --bin traverse -- \
//!     --scale 10 --edge-factor 8 --iters 3 --out BENCH_traverse.json
//! ```

use datagen::RmatConfig;
use redisgraph_bench::report::render_table;
use redisgraph_core::{ExecutionPlan, Graph, TraverseStrategy};
use std::fmt::Write as _;
use std::time::Instant;

/// One (query, mode) measurement.
struct Measurement {
    query_name: &'static str,
    mode: &'static str,
    wall_ms: f64,
    rows: i64,
}

/// The benchmark queries: a 3-hop relationship chain (three Conditional
/// Traverse ops, frontier batches growing per hop), a variable-length
/// pattern (the batched level-synchronous BFS), and a variable-length
/// `Expand Into` semi-join — the shape where the algebraic formulation wins
/// outright, because the scalar path re-runs a BFS for every record while
/// the batched path runs one frontier BFS for all distinct sources and
/// probes each record's target out of the product.
const QUERIES: [(&str, &str); 3] = [
    ("3hop_chain", "MATCH (a:Node)-[:LINK]->(b)-[:LINK]->(c)-[:LINK]->(d) RETURN count(d)"),
    ("varlen_1_3", "MATCH (a:Node)-[:LINK*1..3]->(b) RETURN count(b)"),
    ("semi_join_varlen", "MATCH (a:Node)-[:LINK]->(b:Node), (a)-[:LINK*1..3]->(b) RETURN count(*)"),
];

/// Run one query (parse, plan, execute) under a pinned strategy, with or
/// without the optimizer; returns best-of-iters wall time and the count(*)
/// scalar for cross-mode comparison.
fn run_query(
    g: &mut Graph,
    strategy: TraverseStrategy,
    optimize: bool,
    query: &str,
    iters: usize,
) -> (f64, i64) {
    g.set_traverse_strategy(strategy);
    let build = if optimize { ExecutionPlan::build } else { ExecutionPlan::build_unoptimized };
    let mut best_ms = f64::INFINITY;
    let mut rows = 0i64;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        let ast = cypher::parse(query).expect("benchmark query parses");
        let rs = build(&ast).and_then(|plan| plan.execute(g)).expect("benchmark query executes");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        best_ms = best_ms.min(ms);
        rows = rs.scalar().and_then(|v| v.as_i64()).expect("count(*) scalar");
    }
    (best_ms, rows)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let scale: u32 = arg(&argv, "--scale").unwrap_or(10);
    let edge_factor: u32 = arg(&argv, "--edge-factor").unwrap_or(8);
    let iters: usize = arg(&argv, "--iters").unwrap_or(3);
    let out_path: String = arg(&argv, "--out").unwrap_or_else(|| "BENCH_traverse.json".to_string());

    let el = datagen::rmat::generate(&RmatConfig {
        scale,
        edge_factor,
        seed: 42,
        ..RmatConfig::default()
    });
    let mut g = Graph::new("traverse-bench");
    g.bulk_load(el.num_vertices, &el.edges);
    g.sync_matrices();
    println!(
        "RMAT scale {scale} (edge factor {edge_factor}): {} vertices, {} edges (deduped)\n",
        g.node_count(),
        g.edge_count()
    );

    // The per-hop modes run the unoptimized plan; "fused" lets the optimizer
    // collapse the chain into one algebraic product (variable-length queries
    // have no fusable fixed chain and measure the optimizer's no-op overhead).
    let modes: [(&str, TraverseStrategy, bool); 3] = [
        ("scalar", TraverseStrategy::Scalar, false),
        ("batched", TraverseStrategy::Batched, false),
        ("fused", TraverseStrategy::Batched, true),
    ];

    let mut measurements: Vec<Measurement> = Vec::new();
    for (query_name, query) in QUERIES {
        let mut baseline_rows: Option<i64> = None;
        for (mode, strategy, optimize) in modes {
            let (wall_ms, rows) = run_query(&mut g, strategy, optimize, query, iters);
            match baseline_rows {
                None => baseline_rows = Some(rows),
                Some(expect) => assert_eq!(
                    rows, expect,
                    "traversal strategies disagreed on `{query_name}` row counts"
                ),
            }
            measurements.push(Measurement { query_name, mode, wall_ms, rows });
        }
    }

    let rows: Vec<Vec<String>> = measurements
        .iter()
        .map(|m| {
            vec![
                m.query_name.to_string(),
                m.mode.to_string(),
                format!("{:.2}", m.wall_ms),
                m.rows.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&["query", "mode", "wall (ms)", "rows"], &rows));

    for (query_name, _) in QUERIES {
        let of = |mode: &str| {
            measurements
                .iter()
                .find(|m| m.query_name == query_name && m.mode == mode)
                .expect("measured")
                .wall_ms
        };
        println!(
            "{query_name}: batched speedup {:.2}x, fused speedup {:.2}x",
            of("scalar") / of("batched"),
            of("scalar") / of("fused"),
        );
    }

    std::fs::write(&out_path, to_json(scale, edge_factor, &g, iters, &measurements))
        .expect("write benchmark report");
    println!("wrote {out_path}");
}

/// Hand-rolled JSON (no serde in the offline build).
fn to_json(
    scale: u32,
    edge_factor: u32,
    g: &Graph,
    iters: usize,
    measurements: &[Measurement],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"suite\": \"traverse\",");
    let _ = writeln!(out, "  \"scale\": {scale},");
    let _ = writeln!(out, "  \"edge_factor\": {edge_factor},");
    let _ = writeln!(out, "  \"vertices\": {},", g.node_count());
    let _ = writeln!(out, "  \"edges\": {},", g.edge_count());
    let _ = writeln!(out, "  \"iters\": {iters},");
    out.push_str("  \"results\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 < measurements.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"query\": \"{}\", \"mode\": \"{}\", \"wall_ms\": {:.6}, \"rows\": {}}}{comma}",
            m.query_name, m.mode, m.wall_ms, m.rows
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn arg<T: std::str::FromStr>(argv: &[String], name: &str) -> Option<T> {
    argv.iter().position(|a| a == name).and_then(|i| argv.get(i + 1)).and_then(|s| s.parse().ok())
}
