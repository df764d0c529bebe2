//! Fold-pause probe: what a write and a reader's snapshot cost while delta
//! buffers fill and fold.
//!
//! Bulk-loads the Graph500 RMAT graph rgbench loads (edge factor 28, the
//! benchmark's dataset seed) at the given scale, then adds random edges
//! under the default fold threshold, taking a `snapshot()` after each write
//! as a reader would and dropping the one it replaces. Prints the p50, p99
//! and max time of one `add_edge`, how many leaf folds the writes caused,
//! the max time to drop a snapshot (the drop that releases the last pin on
//! a replaced leaf frees it), and the process's peak resident set
//! (`VmHWM`) after the load and after the writes.
//!
//! ```text
//! cargo run --release --example fold_pause          # scale 15
//! cargo run --release --example fold_pause -- 18
//! ```

use redisgraph_core::Graph;
use std::time::Instant;

/// rgbench's dataset seed, so the probe loads the benchmark's graph.
const DATASET_SEED: u64 = 0x6772_6170_6835_3030;
/// Edges added: two and a half rgbench writer rounds' worth of inserts.
const WRITES: usize = 25_000;

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

/// The `q`-quantile of ascending `sorted`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn main() {
    let scale: u32 = match std::env::args().nth(1) {
        Some(arg) => arg.parse().expect("usage: fold_pause [scale]"),
        None => 15,
    };
    let list = datagen::graph500(scale, DATASET_SEED);
    let mut g = Graph::new("fold");
    g.bulk_load(list.num_vertices, &list.edges);
    drop(list);
    let n = g.node_count() as u64;
    println!("Graph500 scale {scale}: {n} vertices, {} stored edges", g.edge_count());
    println!("VmHWM after the load: {}", show(vm_hwm_mb()));

    // A fixed xorshift stream of endpoint pairs.
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut below = |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let folds = g.delta_flush_count();
    let (mut write_us, mut drop_us) = (Vec::with_capacity(WRITES), Vec::with_capacity(WRITES));
    let mut snapshot = g.snapshot();
    for _ in 0..WRITES {
        let (src, dst) = (below(n), below(n));
        let started = Instant::now();
        g.add_edge(src, dst, "LINK", vec![]).expect("both endpoints exist");
        write_us.push(started.elapsed().as_secs_f64() * 1e6);
        let next = g.snapshot();
        let started = Instant::now();
        drop(std::mem::replace(&mut snapshot, next));
        drop_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let folds = g.delta_flush_count() - folds;
    write_us.sort_by(f64::total_cmp);
    drop_us.sort_by(f64::total_cmp);
    let (p50, p99) = (quantile(&write_us, 0.5), quantile(&write_us, 0.99));
    println!(
        "{WRITES} add_edge: p50 {p50:.1} us, p99 {p99:.1} us, max {:.1} us; {folds} leaf folds",
        write_us[WRITES - 1]
    );
    println!(
        "snapshot drop: p50 {:.1} us, max {:.1} us",
        quantile(&drop_us, 0.5),
        drop_us[WRITES - 1]
    );
    println!("VmHWM after the writes: {}", show(vm_hwm_mb()));
}
