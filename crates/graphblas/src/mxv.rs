//! Vector–matrix multiplication (`GrB_vxm`): a frontier vector pushed
//! through a whole [`SparseMatrix`], with an optional (possibly
//! complemented) mask on the output — "…and not already visited". rgbench's
//! ladder only (its `graphblas.vxm_hop` rung); T9a deletes. A query's BFS
//! steps are [`crate::bfs_push`] and [`crate::bfs_pull`].

use crate::binary_op::OpApply;
use crate::descriptor::Descriptor;
use crate::mask::VectorMask;
use crate::matrix::SparseMatrix;
use crate::semiring::Semiring;
use crate::types::Scalar;
use crate::vector::SparseVector;
use crate::Index;

/// `w = u ⊕.⊗ A` — multiply a row vector by a matrix (push traversal).
///
/// With the `lor_land` semiring over an adjacency matrix this is exactly
/// "the set of vertices reachable in one hop from the set `u`". Products
/// landing on one output add up in ascending order of `u`'s index.
///
/// # Panics
/// Panics if `u.size() != a.nrows()`.
pub fn vxm<T: Scalar + OpApply>(
    u: &SparseVector<T>,
    a: &SparseMatrix<T>,
    semiring: &Semiring<T>,
    mask: Option<&VectorMask<'_>>,
    desc: &Descriptor,
) -> SparseVector<T> {
    assert_eq!(u.size(), a.nrows(), "vxm dimension mismatch: u.size != a.nrows");
    let mut acc: Vec<Option<T>> = vec![None; a.ncols() as usize];
    for (i, uv) in u.iter() {
        let (cols, vals) = a.row(i);
        for (&j, &av) in cols.iter().zip(vals) {
            let prod = semiring.mult(uv, av);
            let w = &mut acc[j as usize];
            *w = Some(w.map_or(prod, |sum| semiring.add(sum, prod)));
        }
    }
    let allowed = |&(j, _): &(Index, T)| mask.is_none_or(|m| m.allows(j, desc));
    let entries = acc.into_iter().enumerate().filter_map(|(j, w)| Some((j as Index, w?)));
    let (indices, values) = entries.filter(allowed).unzip();
    SparseVector::from_sorted_parts(a.ncols(), indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary_op::BinaryOp;
    use crate::monoid::plus_monoid;

    /// Path graph 0→1→2→3 plus a branch 1→3.
    fn adj() -> SparseMatrix<bool> {
        SparseMatrix::from_triples(4, 4, &[(0, 1, true), (1, 2, true), (2, 3, true), (1, 3, true)])
            .unwrap()
    }

    #[test]
    fn vxm_single_hop() {
        let a = adj();
        let mut f = SparseVector::new(4);
        f.set_element(0, true);
        let next = vxm(&f, &a, &Semiring::lor_land(), None, &Descriptor::default());
        assert_eq!(next.to_entries(), vec![(1, true)]);
    }

    #[test]
    fn vxm_two_sources_union() {
        let a = adj();
        let f = SparseVector::from_entries(4, &[(0, true), (1, true)]).unwrap();
        let next = vxm(&f, &a, &Semiring::lor_land(), None, &Descriptor::default());
        assert_eq!(next.indices(), &[1, 2, 3]);
    }

    #[test]
    fn vxm_with_complement_mask_excludes_visited() {
        let a = adj();
        let f = SparseVector::from_entries(4, &[(1, true)]).unwrap();
        let visited = SparseVector::from_entries(4, &[(2, true)]).unwrap();
        let mask = VectorMask::new(&visited);
        let next = vxm(
            &f,
            &a,
            &Semiring::lor_land(),
            Some(&mask),
            &Descriptor::new().with_mask_complement(),
        );
        // 1 reaches {2,3}; 2 is masked out as visited.
        assert_eq!(next.indices(), &[3]);
    }

    #[test]
    fn plus_pair_counts_incoming_paths() {
        // two vertices both pointing at 2
        let a = SparseMatrix::from_triples(3, 3, &[(0, 2, 1u64), (1, 2, 1u64)]).unwrap();
        let f = SparseVector::from_entries(3, &[(0, 1u64), (1, 1u64)]).unwrap();
        let plus_pair = Semiring::new(plus_monoid(), BinaryOp::Pair, "plus_pair");
        let r = vxm(&f, &a, &plus_pair, None, &Descriptor::default());
        assert_eq!(r.extract_element(2), Some(2));
    }

    #[test]
    fn plus_times_matches_dense_arithmetic() {
        let a = SparseMatrix::from_triples(2, 3, &[(0, 0, 2.0), (0, 2, 3.0), (1, 1, 4.0)]).unwrap();
        let u = SparseVector::from_entries(2, &[(0, 10.0), (1, 100.0)]).unwrap();
        let w = vxm(&u, &a, &Semiring::plus_times(), None, &Descriptor::default());
        assert_eq!(w.extract_element(0), Some(20.0));
        assert_eq!(w.extract_element(1), Some(400.0));
        assert_eq!(w.extract_element(2), Some(30.0));
    }

    #[test]
    fn empty_frontier_gives_empty_result() {
        let a = adj();
        let f = SparseVector::<bool>::new(4);
        let next = vxm(&f, &a, &Semiring::lor_land(), None, &Descriptor::default());
        assert!(next.is_empty());
    }
}
