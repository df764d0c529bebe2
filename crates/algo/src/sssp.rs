//! Single-source shortest paths as Bellman–Ford rounds —
//! `d ← d min (d min.+ W)`, LAGraph's `LAGr_SingleSourceShortestPath` shape —
//! relaxing stored rows in place.

use crate::dim;
use graphblas::{Bitmap, DeltaMatrix, Index, Scalar};

/// Shortest-path distances from `source` over the union of `sources`, where
/// `weight` maps a stored value to the cost of its cell and the cheapest cell
/// over all sources wins: each vertex a path reaches, ascending, with its
/// distance.
///
/// Rounds are synchronous: a vertex's next distance is the minimum of its
/// distance and of `d[u] + w(u, v)` over the previous round's `d`. A vertex
/// whose distance did not move lowers nothing it did not lower already, so a
/// round relaxes only the rows of the vertices that moved in the round
/// before and still computes the full relaxation. The rounds stop at a
/// fixpoint, or after one per row, so a negative cycle cannot hang them.
///
/// # Panics
/// Panics if a stored column lies beyond the sources' rows.
pub fn sssp<T: Scalar>(
    sources: &[&DeltaMatrix<T>],
    weight: impl Fn(T) -> f64,
    source: Index,
) -> Vec<(Index, f64)> {
    let min = |x: f64, y: f64| if x < y { x } else { y };
    let n = dim(sources, &[source]);
    let (mut dist, mut reached) = (vec![f64::INFINITY; n], Bitmap::new(n as Index));
    (dist[source as usize], _) = (0.0, reached.insert(source));
    // A vertex's cheapest offer of the round, while `offered` holds it.
    let (mut best, mut offered) = (vec![f64::INFINITY; n], Bitmap::new(n as Index));
    let mut moved = vec![source];
    for _ in 0..n.max(1) {
        for &u in &moved {
            let du = dist[u as usize];
            for s in sources {
                s.any_run(u, |cols, cells| {
                    for (&v, &cell) in cols.iter().zip(cells) {
                        let (offer, b) = (du + weight(cell), &mut best[v as usize]);
                        *b = if offered.insert(Index::from(v)) { offer } else { min(*b, offer) };
                    }
                    false
                });
            }
        }
        moved.clear();
        for v in offered.iter() {
            let (d, b, fresh) = (dist[v as usize], best[v as usize], reached.insert(v));
            let next = if fresh { b } else { min(d, b) };
            if fresh || next != d {
                dist[v as usize] = next;
                moved.push(v);
            }
        }
        offered.clear();
        if moved.is_empty() {
            break;
        }
    }
    reached.iter().map(|v| (v, dist[v as usize])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas::{DeltaMatrix, SparseMatrix};

    fn run(n: u64, edges: &[(u64, u64, f64)], source: u64) -> Vec<(u64, f64)> {
        let stored = DeltaMatrix::from_matrix(SparseMatrix::from_triples(n, n, edges).unwrap());
        sssp(&[&stored], |w| w, source)
    }

    #[test]
    fn multi_hop_path_beats_heavier_direct_edge() {
        // 0→1 (1), 1→2 (1), 0→2 (5): the two-hop path beats the direct edge.
        let dist = run(4, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)], 0);
        assert_eq!(dist, [(0, 0.0), (1, 1.0), (2, 2.0)], "3 is unreachable");
    }

    #[test]
    fn unit_weights_reduce_to_bfs_distance() {
        let dist = run(5, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)], 0);
        assert_eq!(dist, [(0, 0.0), (1, 1.0), (2, 2.0), (3, 1.0)]);
    }

    #[test]
    fn cycle_converges_to_fixpoint() {
        let dist = run(3, &[(0, 1, 2.0), (1, 2, 2.0), (2, 0, 2.0)], 0);
        assert_eq!(dist, [(0, 0.0), (1, 2.0), (2, 4.0)]);
    }
}
