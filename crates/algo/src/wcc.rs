//! Weakly connected components by min-label propagation: every vertex starts
//! with its own id and repeatedly adopts the smallest label among its
//! neighbours (both edge directions), one `MIN_FIRST` `vxm` per round.

use graphblas::prelude::*;
use graphblas::Index;

/// Component labels for the vertex set `nodes` of the directed graph `adj`,
/// ignoring edge direction. Each vertex is labelled with the smallest vertex
/// id of its weakly connected component, so labels are canonical: two
/// vertices are connected iff their labels are equal.
///
/// # Panics
/// Panics if a vertex id is out of bounds.
pub fn wcc(adj: &SparseMatrix<bool>, nodes: &[Index]) -> Vec<(Index, Index)> {
    // Symmetrise the structure into a u64 matrix so the FIRST multiply can
    // carry the propagated label through the product.
    let mut triples = Vec::with_capacity(2 * adj.nvals());
    for (u, v, _) in adj.iter() {
        triples.push((u, v, 1u64));
        triples.push((v, u, 1u64));
    }
    let sym = SparseMatrix::from_triples_dup(adj.nrows(), adj.ncols(), &triples, |a, _| a)
        .expect("in bounds");

    let min_first =
        Semiring::new(graphblas::monoid::min_monoid(u64::MAX), BinaryOp::First, "min_first");
    let desc = Descriptor::default();

    let entries: Vec<(Index, u64)> = nodes.iter().map(|&v| (v, v)).collect();
    let mut labels = SparseVector::from_entries(adj.nrows(), &entries).expect("in bounds");

    loop {
        let propagated = vxm(&labels, &sym, &min_first, None, &desc);
        let next = ewise_add_vector(&labels, &propagated, &BinaryOp::Min);
        if next == labels {
            break;
        }
        labels = next;
    }
    nodes.iter().map(|&v| (v, labels.extract_element(v).unwrap_or(v))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(dim: u64, edges: &[(u64, u64)], n: u64) -> Vec<(u64, u64)> {
        let triples: Vec<(u64, u64, bool)> = edges.iter().map(|&(s, t)| (s, t, true)).collect();
        let adj = SparseMatrix::from_triples(dim, dim, &triples).unwrap();
        let nodes: Vec<u64> = (0..n).collect();
        wcc(&adj, &nodes)
    }

    #[test]
    fn two_components_get_two_labels() {
        // {0,1,2} chained, {3,4} chained, 5 isolated
        let l = labels(8, &[(0, 1), (1, 2), (3, 4)], 6);
        assert_eq!(l, vec![(0, 0), (1, 0), (2, 0), (3, 3), (4, 3), (5, 5)]);
    }

    #[test]
    fn direction_is_ignored() {
        // 0→1 and 2→1: all three are weakly connected.
        let l = labels(4, &[(0, 1), (2, 1)], 3);
        assert!(l.iter().all(|&(_, c)| c == 0));
    }

    #[test]
    fn long_path_converges() {
        let edges: Vec<(u64, u64)> = (0..9).map(|i| (i, i + 1)).collect();
        let l = labels(10, &edges, 10);
        assert!(l.iter().all(|&(_, c)| c == 0));
    }

    #[test]
    fn empty_node_set() {
        assert!(labels(4, &[], 0).is_empty());
    }
}
