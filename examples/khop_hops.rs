//! Per-hop BFS probe: which kernel each k-hop level takes, and what push and
//! pull each cost from the same state.
//!
//! Generates the Graph500 RMAT edge list rgbench loads (edge factor 28, the
//! benchmark's dataset seed) at the given scale and builds its relation
//! matrix and transpose as `Graph::bulk_load` does: self-loops and repeated
//! pairs dropped, one edge id per cell, one matrix row per vertex. It then
//! runs six-hop BFSs, the reach of rgbench's `khop_k6` (whose first two hops
//! are `khop_k2`'s), from typical and heavy seeds: the vertices with an
//! out-edge ranked by out-degree plus two-hop paths, as rgbench ranks its
//! k-hop seeds, and taken evenly from the 45–55% and 95–97.5% bands of that
//! ranking. Each hop
//! takes the direction `Graph::khop_reached` takes (`beamer_pulls`), and
//! prints it with the frontier and next sizes, the frontier's edges and the
//! edges still unexplored (what the rule reads), the median µs of `bfs_push`
//! and of `bfs_pull` over five runs from the same visited set, and the
//! chosen kernel's time over the cheaper one's. Both kernels run as
//! `bitmap_bfs` runs them: the push scans into one `Reached` set, which it
//! empties, and the pull fills one all-zero bitmap with the frontier and
//! clears it. Both must find the same vertices, ascending.
//!
//! ```text
//! cargo run --release --example khop_hops          # scale 15
//! cargo run --release --example khop_hops -- 17
//! ```

use graphblas::{bfs_pull, bfs_push, bfs_scan, Bitmap, DeltaMatrix, Reached};
use redisgraph_core::store::graph::beamer_pulls;
use std::time::Instant;

/// rgbench's dataset seed, so the probe loads the benchmark's graph.
const DATASET_SEED: u64 = 0x6772_6170_6835_3030;
/// Hops per BFS: `khop_k6`'s.
const HOPS: u32 = 6;
/// Seeds per band, and the bands of the ranking they are taken from.
const BANDS: [(&str, f64, f64, usize); 2] = [("typical", 0.45, 0.55, 4), ("heavy", 0.95, 0.975, 2)];
/// Runs of each kernel per hop; the median is printed.
const REPS: usize = 5;

/// The median µs of `REPS` runs of `kernel` on a fresh copy of `visited`,
/// and the vertices it found.
fn time(visited: &Bitmap, mut kernel: impl FnMut(&mut Bitmap, &mut Vec<u64>)) -> (f64, Vec<u64>) {
    let mut us = Vec::with_capacity(REPS);
    let mut found = Vec::new();
    for _ in 0..REPS {
        let (mut v, mut next) = (visited.clone(), Vec::new());
        let started = Instant::now();
        kernel(&mut v, &mut next);
        us.push(started.elapsed().as_secs_f64() * 1e6);
        found = next;
    }
    us.sort_by(f64::total_cmp);
    (us[REPS / 2], found)
}

fn main() {
    let scale: u32 = match std::env::args().nth(1) {
        Some(arg) => arg.parse().expect("usage: khop_hops [scale]"),
        None => 15,
    };
    let list = datagen::graph500(scale, DATASET_SEED);
    let n = list.num_vertices;
    let mut pairs: Vec<(u64, u64)> =
        list.edges.iter().copied().filter(|&(s, d)| s != d && s < n && d < n).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let walk = |f: &mut dyn FnMut(u64, u64)| pairs.iter().for_each(|&(s, d)| f(s, d));
    let mut id = 0;
    let a = DeltaMatrix::from_pairs(n, n, walk, |_, _| (id, id += 1).0).expect("in-range pairs");
    let at = a.transposed();

    let mut deg = vec![0u64; n as usize];
    let mut in_deg = vec![0u64; n as usize];
    for &(s, d) in &pairs {
        deg[s as usize] += 1;
        in_deg[d as usize] += 1;
    }
    let mut rank = deg.clone();
    for &(s, d) in &pairs {
        rank[s as usize] += deg[d as usize];
    }
    let none = |degrees: &[u64]| degrees.iter().filter(|&&d| d == 0).count();
    println!(
        "Graph500 scale {scale}: {n} vertices, {} stored edges; {} with no out-edge, {} with no \
         in-edge",
        a.nvals(),
        none(&deg),
        none(&in_deg)
    );
    let mut ranked: Vec<u64> = (0..n).filter(|&v| deg[v as usize] > 0).collect();
    ranked.sort_by_key(|&v| (rank[v as usize], v));

    println!(
        "{:>8} {:>6} {:>3} {:>4} {:>8} {:>8} {:>8} {:>10} {:>9} {:>9} {:>6}",
        "band",
        "seed",
        "hop",
        "dir",
        "frontier",
        "next",
        "edges",
        "unexplored",
        "push_us",
        "pull_us",
        "chosen"
    );
    let (mut reached, mut bits) = (Reached::new(n), Bitmap::new(n));
    for (band, low, high, count) in BANDS {
        let len = ranked.len() as f64;
        let (low, high) = ((low * len) as usize, (high * len) as usize);
        for i in 0..count {
            let seed = ranked[low + (high - low) * i / count];
            let mut visited = Bitmap::new(n);
            visited.insert(seed);
            let (mut frontier, mut unexplored, mut pulled) = (vec![seed], a.nvals() as u64, false);
            for hop in 1..=HOPS {
                if frontier.is_empty() {
                    break;
                }
                let edges = a.degree_sum(&frontier);
                pulled = beamer_pulls(pulled, frontier.len() as u64, edges, unexplored, n);
                let (push_us, pushed) = time(&visited, |v, next| {
                    bfs_scan(&a, &frontier, &mut reached);
                    bfs_push(&mut reached, v, next);
                });
                let (pull_us, pulled_set) = time(&visited, |v, next| {
                    frontier.iter().for_each(|&u| _ = bits.insert(u));
                    bfs_pull(&at, &bits, v, next);
                    bits.clear();
                });
                assert_eq!(pushed, pulled_set, "push and pull disagree at hop {hop} from {seed}");
                let (dir, chosen_us) = if pulled { ("pull", pull_us) } else { ("push", push_us) };
                println!(
                    "{band:>8} {seed:>6} {hop:>3} {dir:>4} {:>8} {:>8} {edges:>8} {unexplored:>10} \
                     {push_us:>9.1} {pull_us:>9.1} {:>6.2}",
                    frontier.len(),
                    pushed.len(),
                    chosen_us / push_us.min(pull_us)
                );
                unexplored = unexplored.saturating_sub(edges);
                pushed.iter().for_each(|&u| _ = visited.insert(u));
                frontier = pushed;
            }
        }
    }
}
