//! PageRank as a damped power iteration: one `PLUS_TIMES` `vxm` per round
//! against the column-stochastic transition matrix, plus element-wise
//! teleport/dangling correction (LAGraph `LAGr_PageRank`).

use graphblas::prelude::*;
use graphblas::Index;

/// Tuning knobs for [`pagerank`].
#[derive(Debug, Clone, Copy)]
pub struct PageRankConfig {
    /// Damping factor `d` (probability of following an edge).
    pub damping: f64,
    /// Hard cap on power-iteration rounds.
    pub max_iterations: u32,
    /// Convergence threshold on the L1 norm of the score delta.
    pub tolerance: f64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig { damping: 0.85, max_iterations: 100, tolerance: 1e-9 }
    }
}

/// The result of a [`pagerank`] run.
#[derive(Debug, Clone)]
pub struct PageRankResult {
    /// `(vertex, score)` pairs, one per input vertex, in input order. Scores
    /// sum to 1.
    pub scores: Vec<(Index, f64)>,
    /// Power-iteration rounds actually executed.
    pub iterations: u32,
}

/// Damped PageRank over the directed graph `adj`, restricted to the vertex
/// set `nodes` (the matrix dimension is usually much larger than the number
/// of live vertices; every stored edge must connect vertices in `nodes`).
///
/// Dangling vertices (no out-edges) redistribute their mass uniformly, so the
/// scores form a probability distribution at every step.
///
/// # Panics
/// Panics if a vertex id is out of bounds.
pub fn pagerank(
    adj: &SparseMatrix<bool>,
    nodes: &[Index],
    config: &PageRankConfig,
) -> PageRankResult {
    let n = nodes.len();
    if n == 0 {
        return PageRankResult { scores: Vec::new(), iterations: 0 };
    }
    let nf = n as f64;
    let d = config.damping;

    // Column-stochastic transition matrix W[u][v] = 1 / outdeg(u).
    let mut triples = Vec::with_capacity(adj.nvals());
    let mut dangling_nodes = Vec::new();
    for &u in nodes {
        let deg = adj.row_degree(u);
        if deg == 0 {
            dangling_nodes.push(u);
            continue;
        }
        let (cols, _) = adj.row(u);
        let w = 1.0 / deg as f64;
        triples.extend(cols.iter().map(|&v| (u, v, w)));
    }
    let transition = SparseMatrix::from_triples(adj.nrows(), adj.ncols(), &triples)
        .expect("triples are in bounds");

    let semiring = Semiring::<f64>::plus_times();
    let desc = Descriptor::default();

    let entries: Vec<(Index, f64)> = nodes.iter().map(|&v| (v, 1.0 / nf)).collect();
    let mut rank = SparseVector::from_entries(adj.nrows(), &entries).expect("in bounds");

    let mut iterations = 0;
    for _ in 0..config.max_iterations {
        iterations += 1;
        let contrib = vxm(&rank, &transition, &semiring, None, &desc);
        let dangling_mass: f64 =
            dangling_nodes.iter().map(|&u| rank.extract_element(u).unwrap_or(0.0)).sum();
        let teleport = (1.0 - d) / nf + d * dangling_mass / nf;

        let mut delta = 0.0;
        let next_entries: Vec<(Index, f64)> = nodes
            .iter()
            .map(|&v| {
                let score = teleport + d * contrib.extract_element(v).unwrap_or(0.0);
                delta += (score - rank.extract_element(v).unwrap_or(0.0)).abs();
                (v, score)
            })
            .collect();
        rank = SparseVector::from_entries(adj.nrows(), &next_entries).expect("in bounds");
        if delta < config.tolerance {
            break;
        }
    }

    let scores = nodes.iter().map(|&v| (v, rank.extract_element(v).unwrap_or(0.0))).collect();
    PageRankResult { scores, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(dim: u64, edges: &[(u64, u64)], n: u64) -> PageRankResult {
        let triples: Vec<(u64, u64, bool)> = edges.iter().map(|&(s, t)| (s, t, true)).collect();
        let adj = SparseMatrix::from_triples(dim, dim, &triples).unwrap();
        let nodes: Vec<u64> = (0..n).collect();
        pagerank(&adj, &nodes, &PageRankConfig::default())
    }

    #[test]
    fn scores_sum_to_one() {
        let r = run(8, &[(0, 1), (1, 2), (2, 0), (3, 0), (4, 0)], 5);
        let total: f64 = r.scores.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9, "total = {total}");
        assert!(r.iterations > 1);
    }

    #[test]
    fn hub_outranks_spokes() {
        // 1..=4 all point at 0.
        let r = run(8, &[(1, 0), (2, 0), (3, 0), (4, 0)], 5);
        let score = |v: u64| r.scores.iter().find(|(i, _)| *i == v).unwrap().1;
        assert!(score(0) > score(1));
        assert!((score(1) - score(4)).abs() < 1e-12);
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let r = run(4, &[(0, 1), (1, 2), (2, 0)], 3);
        for (_, s) in &r.scores {
            assert!((s - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_graph_yields_no_scores() {
        let r = run(4, &[], 0);
        assert!(r.scores.is_empty());
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn dangling_mass_is_redistributed() {
        // 0→1, 1 is dangling: scores must still sum to 1.
        let r = run(4, &[(0, 1)], 2);
        let total: f64 = r.scores.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
