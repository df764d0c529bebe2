//! Weakly connected components by min-label propagation: every vertex starts
//! with its own id, and each edge pulls both its endpoints to the smaller of
//! their labels until no label moves.

use crate::dim;
use graphblas::{Index, RowSource};

/// Component labels for the vertex set `nodes` of the union of `sources`,
/// ignoring edge direction. Each vertex is labelled with the smallest vertex
/// id of its weakly connected component, so labels are canonical: two
/// vertices are connected iff their labels are equal.
///
/// Each sweep reads every stored edge once, in each source's whole-matrix
/// walk, and lowers the larger of its endpoints' labels to the smaller: so
/// an edge carries a label both ways, and a sweep passes a label along a
/// whole run of edges that ascend the walk. Labels only fall, and always
/// name a vertex of the component, so the sweeps stop with every vertex at
/// its component's smallest id.
///
/// # Panics
/// Panics if a stored column lies beyond the dense arrays.
pub fn wcc<R: RowSource>(sources: &[&R], nodes: &[Index]) -> Vec<(Index, Index)> {
    let mut labels: Vec<Index> = (0..dim(sources, nodes) as Index).collect();
    let mut moved = true;
    while moved {
        moved = false;
        for s in sources {
            s.runs(|u, cols, _| {
                for &v in cols {
                    let (lu, lv) = (labels[u as usize], labels[v as usize]);
                    if lu != lv {
                        let low = lu.min(lv);
                        (labels[u as usize], labels[v as usize]) = (low, low);
                        moved = true;
                    }
                }
            });
        }
    }
    nodes.iter().map(|&v| (v, labels[v as usize])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas::SparseMatrix;

    fn labels(dim: u64, edges: &[(u64, u64)], n: u64) -> Vec<(u64, u64)> {
        let triples: Vec<(u64, u64, bool)> = edges.iter().map(|&(s, t)| (s, t, true)).collect();
        let adj = SparseMatrix::from_triples(dim, dim, &triples).unwrap();
        let nodes: Vec<u64> = (0..n).collect();
        wcc(&[&adj], &nodes)
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
        // Up the ids and down them.
        let edges: Vec<(u64, u64)> = (0..9).map(|i| (i, i + 1)).collect();
        let l = labels(10, &edges, 10);
        assert!(l.iter().all(|&(_, c)| c == 0));
        let edges: Vec<(u64, u64)> = (0..9).map(|i| (9 - i, 8 - i)).collect();
        let l = labels(10, &edges, 10);
        assert!(l.iter().all(|&(_, c)| c == 0));
    }

    #[test]
    fn empty_node_set() {
        assert!(labels(4, &[], 0).is_empty());
    }
}
