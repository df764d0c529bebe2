//! PageRank as a damped power iteration (LAGraph `LAGr_PageRank`): each
//! round pulls every vertex's score from its in-rows, the stored
//! transposes, plus the teleport and dangling correction.

use crate::dim;
use graphblas::{union_row, DeltaMatrix, Index, Scalar};

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

/// Damped PageRank over the union of the relations whose **transposes** are
/// `in_rows`, restricted to the vertex set `nodes` (every stored edge must
/// connect vertices in `nodes`). A pair stored in several relations is one
/// edge, in its source's out-degree and among its target's in-edges.
///
/// Dangling vertices (no out-edges) redistribute their mass uniformly, so the
/// scores form a probability distribution at every step. A vertex sums its
/// in-neighbours' shares in ascending order of neighbour, the order a push
/// from ascending vertices adds them in, so the pull gives a push's bits.
///
/// # Panics
/// Panics if a stored column lies beyond the dense arrays.
pub fn pagerank<T: Scalar>(
    in_rows: &[&DeltaMatrix<T>],
    nodes: &[Index],
    config: &PageRankConfig,
) -> PageRankResult {
    let n = nodes.len();
    if n == 0 {
        return PageRankResult { scores: Vec::new(), iterations: 0 };
    }
    let nf = n as f64;
    let d = config.damping;

    // Each vertex's in-row of the union, merged once: every round re-reads
    // them, and a row with changes pending costs a merge per read. A vertex
    // passes `1 / outdeg` of its score along each out-edge.
    let (mut starts, mut in_edges, mut row) = (vec![0], Vec::new(), Vec::new());
    for &v in nodes {
        union_row(in_rows, v, &mut row);
        in_edges.extend_from_slice(&row);
        starts.push(in_edges.len());
    }
    let mut share = vec![0.0f64; dim(in_rows, nodes)];
    in_edges.iter().for_each(|&u| share[u as usize] += 1.0);
    let dangling_nodes: Vec<Index> =
        nodes.iter().copied().filter(|&u| share[u as usize] == 0.0).collect();
    nodes.iter().for_each(|&u| share[u as usize] = 1.0 / share[u as usize]);

    let mut rank = vec![0.0f64; share.len()];
    nodes.iter().for_each(|&v| rank[v as usize] = 1.0 / nf);
    let mut next = rank.clone();
    let mut iterations = 0;
    for _ in 0..config.max_iterations {
        iterations += 1;
        let dangling_mass: f64 = dangling_nodes.iter().map(|&u| rank[u as usize]).sum();
        let teleport = (1.0 - d) / nf + d * dangling_mass / nf;

        let mut delta = 0.0;
        for (k, &v) in nodes.iter().enumerate() {
            let in_row = &in_edges[starts[k]..starts[k + 1]];
            let contrib: f64 =
                in_row.iter().fold(0.0, |sum, &u| sum + rank[u as usize] * share[u as usize]);
            let score = teleport + d * contrib;
            delta += (score - rank[v as usize]).abs();
            next[v as usize] = score;
        }
        std::mem::swap(&mut rank, &mut next);
        if delta < config.tolerance {
            break;
        }
    }

    let scores = nodes.iter().map(|&v| (v, rank[v as usize])).collect();
    PageRankResult { scores, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas::{DeltaMatrix, SparseMatrix};

    fn run(dim: u64, edges: &[(u64, u64)], n: u64) -> PageRankResult {
        let triples: Vec<(u64, u64, bool)> = edges.iter().map(|&(s, t)| (t, s, true)).collect();
        let in_rows =
            DeltaMatrix::from_matrix(SparseMatrix::from_triples(dim, dim, &triples).unwrap());
        let nodes: Vec<u64> = (0..n).collect();
        pagerank(&[&in_rows], &nodes, &PageRankConfig::default())
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
