//! Single-source shortest paths as Bellman–Ford rounds over the `MIN_PLUS`
//! (tropical) semiring — LAGraph's `LAGr_SingleSourceShortestPath` shape.

use graphblas::prelude::*;
use graphblas::Index;

/// Shortest-path distances from `source` over a weighted adjacency matrix
/// (`weights[u][v]` = cost of edge `u→v`; absent entry = no edge). Vertices
/// that are unreachable have no entry in the result.
///
/// Each round relaxes every edge once: `d ← d min (d min.+ W)`. The iteration
/// stops at a fixpoint, which a graph with non-negative weights reaches after
/// at most |V| − 1 rounds; the loop is additionally capped at `nrows` rounds
/// so negative cycles cannot hang it.
///
/// # Panics
/// Panics if `source >= weights.nrows()`.
pub fn sssp(weights: &SparseMatrix<f64>, source: Index) -> SparseVector<f64> {
    let semiring = Semiring::min_plus(f64::INFINITY);
    let desc = Descriptor::default();

    let mut dist = SparseVector::<f64>::new(weights.nrows());
    dist.set_element(source, 0.0);

    for _ in 0..weights.nrows().max(1) {
        let relaxed = vxm(&dist, weights, &semiring, None, &desc);
        let next = ewise_add_vector(&dist, &relaxed, &BinaryOp::Min);
        if next == dist {
            break;
        }
        dist = next;
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weighted() -> SparseMatrix<f64> {
        // 0→1 (1), 1→2 (1), 0→2 (5): the two-hop path beats the direct edge.
        SparseMatrix::from_triples(4, 4, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)]).unwrap()
    }

    #[test]
    fn multi_hop_path_beats_heavier_direct_edge() {
        let dist = sssp(&weighted(), 0);
        assert_eq!(dist.extract_element(0), Some(0.0));
        assert_eq!(dist.extract_element(1), Some(1.0));
        assert_eq!(dist.extract_element(2), Some(2.0));
        assert_eq!(dist.extract_element(3), None);
    }

    #[test]
    fn unit_weights_reduce_to_bfs_distance() {
        let w =
            SparseMatrix::from_triples(5, 5, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
                .unwrap();
        let dist = sssp(&w, 0);
        assert_eq!(dist.extract_element(3), Some(1.0));
        assert_eq!(dist.extract_element(2), Some(2.0));
    }

    #[test]
    fn cycle_converges_to_fixpoint() {
        let w = SparseMatrix::from_triples(3, 3, &[(0, 1, 2.0), (1, 2, 2.0), (2, 0, 2.0)]).unwrap();
        let dist = sssp(&w, 0);
        assert_eq!(dist.extract_element(0), Some(0.0));
        assert_eq!(dist.extract_element(1), Some(2.0));
        assert_eq!(dist.extract_element(2), Some(4.0));
    }
}
