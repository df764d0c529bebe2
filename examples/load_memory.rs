//! Bulk-load memory probe: where a loaded graph's bytes sit, per stored edge.
//!
//! Generates the Graph500 RMAT edge list rgbench loads (edge factor 28, the
//! benchmark's dataset seed) at the given scale, bulk-loads it, and prints
//! the load's wall time, the process's peak resident set (`VmHWM`) before
//! and after the load, and the bytes each store of the graph holds, in
//! total and per stored edge: relation CSRs, their transposes, the label
//! matrices, the edge attribute slots (none: an edge without properties
//! has no slot, and no loaded edge has one), the node attribute slots and
//! the parallel-edge lists (see `Graph::storage_bytes` for what each
//! counts).
//!
//! ```text
//! cargo run --release --example load_memory          # scale 15
//! cargo run --release --example load_memory -- 19    # the paper-size run
//! ```

use redisgraph_core::{Graph, StorageBytes};
use std::time::Instant;

/// rgbench's dataset seed, so the probe loads the benchmark's graph.
const DATASET_SEED: u64 = 0x6772_6170_6835_3030;

/// The process's peak resident set in MB, from `/proc/self/status`; `None`
/// where that file does not exist (any OS but Linux).
fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn show(mb: Option<f64>) -> String {
    mb.map_or_else(|| "n/a".to_string(), |mb| format!("{mb:.1} MB"))
}

fn main() {
    let scale: u32 = match std::env::args().nth(1) {
        Some(arg) => arg.parse().expect("usage: load_memory [scale]"),
        None => 15,
    };
    let list = datagen::graph500(scale, DATASET_SEED);
    let list_mb = (list.edges.len() * size_of::<(u64, u64)>()) as f64 / 1e6;
    println!(
        "Graph500 scale {scale}: {} vertices, {} generated edges ({list_mb:.1} MB list)",
        list.num_vertices,
        list.edges.len()
    );

    let before = vm_hwm_mb();
    let started = Instant::now();
    let mut g = Graph::new("load");
    g.bulk_load(list.num_vertices, &list.edges);
    let load_s = started.elapsed().as_secs_f64();
    let after = vm_hwm_mb();
    let edges = g.edge_count();
    println!("bulk_load: {load_s:.3} s, {edges} stored edges");
    println!("VmHWM: {} before the load, {} after", show(before), show(after));

    let StorageBytes { relations, transposes, labels, edge_slots, node_slots, edge_lists } =
        g.storage_bytes();
    let holders = [
        ("relation CSRs", relations),
        ("transposes", transposes),
        ("label matrices", labels),
        ("edge slots", edge_slots),
        ("node slots", node_slots),
        ("edge_lists", edge_lists),
    ];
    let total: usize = holders.iter().map(|&(_, bytes)| bytes).sum();
    println!("{:<16}{:>12}{:>12}", "holder", "MB", "B/edge");
    for (name, bytes) in holders.into_iter().chain([("total", total)]) {
        let per_edge = bytes as f64 / edges.max(1) as f64;
        println!("{name:<16}{:>12.2}{per_edge:>12.1}", bytes as f64 / 1e6);
    }
}
