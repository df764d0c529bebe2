//! The benchmark's fixed vocabulary: workloads, metric names, units,
//! directions and regression bounds. `/BENCHMARK.json` is rendered from these
//! tables and a test in `main.rs` pins the committed file to the rendering,
//! so the contract and the code cannot drift apart.

/// Graph500 RMAT scale of every workload's graph (32 768 vertices).
pub const SCALE: u32 = 15;
/// Edge factor of the TigerGraph benchmark's Graph500 instance.
pub const EDGE_FACTOR: u32 = 28;
/// The dataset is one fixed graph; `--seed` varies the op lists only, so a
/// run-to-run difference is never a different graph.
pub const DATASET_SEED: u64 = 0x6772_6170_6835_3030;
/// The key the graph is served under.
pub const GRAPH_KEY: &str = "rgbench";
/// How long one driver run measures (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u32 = 15;
/// Set-ups per run; `setup_s` is their median. (Three, not more: a set-up
/// takes 0.55 s, and the 136 runs of a driver check share 3 420 s.)
pub const SETUPS_PER_RUN: usize = 3;

/// The traffic a workload sends, and whose side of it is reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Khop(u32),
    PointRead,
    RowStream,
    MixedRead,
    MixedWrite,
}

/// One workload: its name on the command line and why it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub kind: Workload,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "khop_k2",
        kind: Workload::Khop(2),
        why: "paper k-hop protocol, k=2: typical seeds (~13 ms) and an eighth heavy ones (~230 ms); executor var-length traversal dominates",
    },
    WorkloadSpec {
        name: "khop_k6",
        kind: Workload::Khop(6),
        why: "paper k-hop protocol, k=6: saturating traversal, the 100x store-to-executor gap; wire and dispatch are under 1%",
    },
    WorkloadSpec {
        name: "point_read",
        kind: Workload::PointRead,
        why: "2 connections, pipeline 16, half literal-spelled (plan-cache miss) half $k-spelled (hit): decode, parse, cache, pool; bypasses BFS",
    },
    WorkloadSpec {
        name: "row_stream",
        kind: Workload::RowStream,
        why: "2 connections, 2-hop RETURN id(t), replies of 10k-19k rows and an eighth of 33k-59k: row materialisation and RESP encode; bypasses BFS",
    },
    WorkloadSpec {
        name: "mixed_rw_read",
        kind: Workload::MixedRead,
        why: "1 reader beside 1 writer on one graph, default flush threshold, reader's view: snapshot rebuilds and delta folds that stall reads",
    },
    WorkloadSpec {
        name: "mixed_rw_write",
        kind: Workload::MixedWrite,
        why: "same traffic as mixed_rw_read, writer's view: CREATE/DELETE through delta buffers, so a read gain paid for by writes shows",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Bounds come from the spreads measured at the seed commit (README, last
/// section). One bound serves all six workloads; the driver refuses a
/// benchmark whose interquartile spread over ten runs exceeds it on any of
/// them, and asks for spreads under a third of it. In a quiet set of ten the
/// timings spread 1–12%, in a disturbed one up to 24% (and the reader of the
/// mixed pair past any bound), so the three timings sit at the 25% a bound may
/// be. `peak_rss_mb` spread at most 1.7% (the mixed pair; 0.0–0.5% elsewhere);
/// `setup_s` has the largest bound because the driver asks for that.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "qps", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "p90_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.08 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// A per-layer metric: reported by every workload's traced run. No bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 64] = [
    // graphblas: kernels on the workload graph's own matrices.
    pl("graphblas.vxm_hop_us", "us", Lower),
    pl("graphblas.vxm_frontier_nnz", "count", Lower),
    pl("graphblas.vxm_edges_scanned", "count", Lower),
    pl("graphblas.mxm_2hop_us", "us", Lower),
    pl("graphblas.mxm_flops", "count", Lower),
    pl("graphblas.flush_10k_us", "us", Lower),
    pl("graphblas.transpose_us", "us", Lower),
    // store: redisgraph_core::Graph / GraphSnapshot.
    pl("store.bulk_load_s", "s", Lower),
    pl("store.khop_k1_us", "us", Lower),
    pl("store.khop_k2_us", "us", Lower),
    pl("store.khop_k3_us", "us", Lower),
    pl("store.khop_k6_us", "us", Lower),
    pl("store.khop_k2_vs_baseline", "ratio", Lower),
    pl("store.khop_k3_vs_baseline", "ratio", Lower),
    pl("store.khop_k6_vs_baseline", "ratio", Lower),
    pl("store.add_edge_us", "us", Lower),
    pl("store.sync_matrices_10k_us", "us", Lower),
    pl("store.snapshot_us", "us", Lower),
    pl("store.snapshot_first_read_us", "us", Lower),
    // plan: Graph::explain = parse + plan, no execute.
    pl("plan.point_us", "us", Lower),
    pl("plan.khop_us", "us", Lower),
    pl("plan.chain2_us", "us", Lower),
    pl("plan.write_us", "us", Lower),
    // exec: parse + plan + execute, no cache, no pool.
    pl("exec.point_us", "us", Lower),
    pl("exec.khop_k1_us", "us", Lower),
    pl("exec.khop_k2_us", "us", Lower),
    pl("exec.khop_k3_us", "us", Lower),
    pl("exec.khop_k6_us", "us", Lower),
    pl("exec.khop_k6_vs_store", "ratio", Lower),
    pl("exec.chain2_us", "us", Lower),
    pl("exec.chain2_rows_per_s", "1/s", Higher),
    pl("exec.write_us", "us", Lower),
    // server: RedisGraphServer::handle and its parts, in process.
    pl("server.handle_point_us", "us", Lower),
    pl("server.handle_khop_k6_us", "us", Lower),
    pl("server.handle_chain2_us", "us", Lower),
    pl("server.handle_write_us", "us", Lower),
    pl("server.command_parse_us", "us", Lower),
    pl("server.normalize_us", "us", Lower),
    pl("server.pool_roundtrip_us", "us", Lower),
    pl("server.resp_decode_burst16_us", "us", Lower),
    pl("server.resp_encode_us_per_krow", "us", Lower),
    pl("server.resp_encode_mb_s", "MB/s", Higher),
    pl("server.plan_cache_hit_share", "ratio", Higher),
    pl("server.plan_cache_evictions", "count", Lower),
    pl("server.snapshot_rebuilds", "count", Lower),
    pl("server.delta_flushes", "count", Lower),
    pl("server.queries_failed", "count", Lower),
    pl("server.bytes_out_per_row", "B", Lower),
    // wire: loopback TCP rung minus the server.handle rung, same ops.
    pl("wire.point_us", "us", Lower),
    pl("wire.khop_k6_us", "us", Lower),
    pl("wire.chain2_us", "us", Lower),
    pl("wire.write_us", "us", Lower),
    pl("wire.tcp_point_us", "us", Lower),
    pl("wire.tcp_khop_k6_us", "us", Lower),
    pl("wire.tcp_chain2_us", "us", Lower),
    pl("wire.tcp_write_us", "us", Lower),
    // client: the selected workload itself, traced.
    pl("client.qps", "1/s", Higher),
    pl("client.p50_ms", "ms", Lower),
    pl("client.p99_ms", "ms", Lower),
    pl("client.tail_pct", "%", Higher),
    pl("client.tail_ms", "ms", Lower),
    pl("client.samples", "count", Higher),
    pl("client.rows_per_s", "1/s", Higher),
    pl("trace.overhead_pct", "%", Lower),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `/BENCHMARK.json`, rendered from the tables above.
#[cfg(test)]
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(concat!(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", ",
        "\"--manifest-path\", \"crates/bench/src/bin/rgbench/Cargo.toml\", \"--\"],\n"
    ));
    out.push_str("  \"paths\": [\"crates/bench/src/bin/rgbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n", w.name, w.why));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
