//! Property tests comparing every `crates/algo` algorithm against its naive
//! pointer-chasing oracle in `baseline::algorithms`, on random RMAT
//! (Graph500-shaped) graphs from `datagen`.
//!
//! Each algorithm reads the graph as two overlapping relations (every edge
//! in one of them, every third edge in both), whose union the oracle sees,
//! and again as one `DeltaMatrix` with inserts and deletes pending. WCC
//! labels and triangle counts must match exactly; SSSP distances and
//! converged PageRank scores must agree to 1e-6.

use algo::PageRankConfig;
use graphblas::prelude::*;
use proptest::prelude::*;
use proptest::strategy::StrategyExt;

/// A random small RMAT graph: vertex count plus a deduplicated edge list.
/// Self-loops are kept — the raw generator emits them, and both sides must
/// agree on their semantics (a diagonal matrix entry).
fn rmat_graph() -> impl Strategy<Value = (u64, Vec<(u64, u64)>)> {
    ((4u32..7), (1u32..7), any::<u64>()).prop_map(|(scale, edge_factor, seed)| {
        let el = datagen::rmat::generate(&datagen::RmatConfig {
            scale,
            edge_factor,
            seed,
            ..datagen::RmatConfig::default()
        });
        let mut edges = el.edges.clone();
        edges.sort_unstable();
        edges.dedup();
        (el.num_vertices, edges)
    })
}

/// Two overlapping relations whose union is `edges` (every edge in one of
/// them, every third in both), each edge valued by `value(edge, relation)`,
/// with nothing pending.
fn split<T: Scalar>(
    n: u64,
    edges: &[(u64, u64)],
    value: impl Fn((u64, u64), usize) -> T,
) -> [DeltaMatrix<T>; 2] {
    [0, 1].map(|rel| {
        let mine = edges.iter().enumerate().filter(|&(k, _)| k % 2 == rel || k % 3 == 0);
        let triples: Vec<_> = mine.map(|(_, &(s, d))| (s, d, value((s, d), rel))).collect();
        DeltaMatrix::from_matrix(SparseMatrix::from_triples(n, n, &triples).expect("in bounds"))
    })
}

/// `edges` as one matrix with changes pending: every other edge folded,
/// the rest pending inserts, and a folded decoy beside each edge pending
/// delete.
fn dirty<T: Scalar>(
    n: u64,
    edges: &[(u64, u64)],
    value: impl Fn((u64, u64)) -> T,
) -> DeltaMatrix<T> {
    let decoys = edges.iter().map(|&(s, d)| (s, (d + 1) % n)).filter(|e| !edges.contains(e));
    let mut folded: Vec<_> = edges.iter().copied().step_by(2).chain(decoys).collect();
    folded.sort_unstable();
    folded.dedup();
    let walk = |f: &mut dyn FnMut(u64, u64)| folded.iter().for_each(|&(s, d)| f(s, d));
    let mut m = DeltaMatrix::from_pairs(n, n, walk, |s, d| value((s, d))).expect("in bounds");
    m.set_flush_threshold(usize::MAX);
    for &e in edges.iter().skip(1).step_by(2) {
        m.set_element(e.0, e.1, value(e));
    }
    for e in folded.into_iter().filter(|e| !edges.contains(e)) {
        m.remove_element(e.0, e.1).expect("in bounds");
    }
    m
}

fn reversed(edges: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out: Vec<_> = edges.iter().map(|&(s, d)| (d, s)).collect();
    out.sort_unstable();
    out
}

/// Deterministic pseudo-random edge weight in `[1, 10]`, derived from the
/// endpoints and the relation so both sides see identical weights without
/// sharing state, and an edge stored in both relations weighs differently
/// in each.
fn weight((s, d): (u64, u64), rel: usize) -> f64 {
    1.0 + ((s.wrapping_mul(31).wrapping_add(d.wrapping_mul(17)) + 7 * rel as u64) % 10) as f64
}

fn assert_distances(got: &[(u64, f64)], want: &[f64]) -> Result<(), TestCaseError> {
    let reached: Vec<u64> =
        (0..want.len() as u64).filter(|&v| want[v as usize].is_finite()).collect();
    prop_assert_eq!(got.iter().map(|&(v, _)| v).collect::<Vec<_>>(), reached);
    for &(v, d) in got {
        let w = want[v as usize];
        prop_assert!((d - w).abs() < 1e-6, "distance mismatch at {}: {} vs {}", v, d, w);
    }
    Ok(())
}

fn assert_scores(got: &algo::PageRankResult, want: &[f64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.scores.len(), want.len());
    for &(v, score) in &got.scores {
        let w = want[v as usize];
        prop_assert!((score - w).abs() < 1e-6, "pagerank mismatch at {}: {} vs {}", v, score, w);
    }
    let total: f64 = got.scores.iter().map(|(_, s)| s).sum();
    prop_assert!((total - 1.0).abs() < 1e-9, "scores must sum to 1, got {}", total);
    Ok(())
}

proptest! {
    #[test]
    fn sssp_matches_bellman_ford(graph in rmat_graph(), source_pick in any::<u64>()) {
        let (n, edges) = graph;
        let source = source_pick % n;
        let [r, s] = split(n, &edges, weight);
        let weighted: Vec<(u64, u64, f64)> = [r.to_triples(), s.to_triples()].concat();
        let naive = baseline::algorithms::sssp(n, &weighted, source);
        assert_distances(&algo::sssp(&[&r, &s], |w| w, source), &naive)?;

        let single: Vec<(u64, u64, f64)> = edges.iter().map(|&e| (e.0, e.1, weight(e, 0))).collect();
        let naive = baseline::algorithms::sssp(n, &single, source);
        let m = dirty(n, &edges, |e| weight(e, 0));
        assert_distances(&algo::sssp(&[&m], |w| w, source), &naive)?;
    }

    #[test]
    fn pagerank_matches_dense_power_iteration(graph in rmat_graph()) {
        let (n, edges) = graph;
        let nodes: Vec<u64> = (0..n).collect();
        let config = PageRankConfig::default();
        let (naive, _) = baseline::algorithms::pagerank(
            n,
            &edges,
            config.damping,
            config.max_iterations,
            config.tolerance,
        );
        let [r, s] = split(n, &edges, |_, _| true);
        let (rt, st) = (r.transposed(), s.transposed());
        assert_scores(&algo::pagerank(&[&rt, &st], &nodes, &config), &naive)?;
        let t = dirty(n, &reversed(&edges), |_| true);
        assert_scores(&algo::pagerank(&[&t], &nodes, &config), &naive)?;
    }

    #[test]
    fn wcc_labels_match_union_find(graph in rmat_graph()) {
        let (n, edges) = graph;
        let nodes: Vec<u64> = (0..n).collect();
        let naive: Vec<(u64, u64)> =
            baseline::algorithms::wcc(n, &edges).into_iter().enumerate().map(|(v, l)| (v as u64, l)).collect();
        let [r, s] = split(n, &edges, |_, _| true);
        prop_assert_eq!(algo::wcc(&[&r, &s], &nodes), naive.clone());
        prop_assert_eq!(algo::wcc(&[&dirty(n, &edges, |_| true)], &nodes), naive);
    }

    #[test]
    fn triangle_counts_match_adjacency_intersection(graph in rmat_graph()) {
        let (n, edges) = graph;
        let naive = baseline::algorithms::triangle_count(n, &edges);
        let [r, s] = split(n, &edges, |_, _| true);
        // One direction of each relation is the whole undirected graph;
        // either direction counts each pair once.
        prop_assert_eq!(algo::triangle_count(&[&r, &s]), naive);
        prop_assert_eq!(algo::triangle_count(&[&r.transposed(), &s.transposed()]), naive);
        let (m, t) = (dirty(n, &edges, |_| true), dirty(n, &reversed(&edges), |_| true));
        prop_assert_eq!(algo::triangle_count(&[&m]), naive);
        prop_assert_eq!(algo::triangle_count(&[&m, &t]), naive);
    }
}
