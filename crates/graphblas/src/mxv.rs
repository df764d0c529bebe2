//! Matrix–vector (`GrB_mxv`) and vector–matrix (`GrB_vxm`) multiplication.
//!
//! `vxm` is the workhorse of level-synchronous BFS and of RedisGraph's
//! traversal operator when the current binding set is small: the frontier
//! vector is pushed through the adjacency matrix one semiring-multiply per
//! stored edge, with an optional (possibly complemented) mask filtering the
//! output — e.g. "…and not already visited".

use crate::binary_op::OpApply;
use crate::descriptor::Descriptor;
use crate::mask::VectorMask;
use crate::matrix::SparseMatrix;
use crate::semiring::Semiring;
use crate::types::Scalar;
use crate::vector::SparseVector;
use crate::Index;

/// Sparse accumulator (SPA) used by the push-style kernels: a dense flag/value
/// pair plus the list of touched positions, reused across rows.
struct Spa<T> {
    occupied: Vec<bool>,
    values: Vec<T>,
    touched: Vec<Index>,
}

impl<T: Scalar> Spa<T> {
    fn new(size: usize) -> Self {
        Spa { occupied: vec![false; size], values: vec![T::zero(); size], touched: Vec::new() }
    }

    #[inline]
    fn scatter<F: Fn(T, T) -> T>(&mut self, j: Index, v: T, combine: F) {
        let idx = j as usize;
        if self.occupied[idx] {
            self.values[idx] = combine(self.values[idx], v);
        } else {
            self.occupied[idx] = true;
            self.values[idx] = v;
            self.touched.push(j);
        }
    }

    /// Drain into a sorted sparse vector, applying an optional mask filter.
    fn gather(
        &mut self,
        size: Index,
        mask: Option<&VectorMask<'_>>,
        desc: &Descriptor,
    ) -> SparseVector<T> {
        self.touched.sort_unstable();
        let mut indices = Vec::with_capacity(self.touched.len());
        let mut values = Vec::with_capacity(self.touched.len());
        for &j in &self.touched {
            let keep = mask.map(|m| m.allows(j, desc)).unwrap_or(true);
            if keep {
                indices.push(j);
                values.push(self.values[j as usize]);
            }
            self.occupied[j as usize] = false;
        }
        self.touched.clear();
        SparseVector::from_sorted_parts(size, indices, values)
    }
}

/// `w = u ⊕.⊗ A` — multiply a row vector by a matrix (push traversal).
///
/// With the `lor_land` or `any_pair` semiring over an adjacency matrix this is
/// exactly "the set of vertices reachable in one hop from the set `u`".
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
    if desc.transpose_b || desc.transpose_a {
        // vxm with a transposed matrix is mxv against the untransposed one.
        return mxv_internal(a, u, semiring, mask, desc, true);
    }
    assert_eq!(u.size(), a.nrows(), "vxm dimension mismatch: u.size != a.nrows");
    let mut spa = Spa::new(a.ncols() as usize);
    for (i, uv) in u.iter() {
        let (cols, vals) = a.row(i);
        for (&j, &av) in cols.iter().zip(vals.iter()) {
            let prod = semiring.mult(uv, av);
            spa.scatter(j, prod, |x, y| semiring.add(x, y));
        }
    }
    spa.gather(a.ncols(), mask, desc)
}

/// `w = A ⊕.⊗ u` — multiply a matrix by a column vector (pull traversal; with
/// an adjacency matrix this follows edges *backwards*).
///
/// # Panics
/// Panics if `u.size() != a.ncols()`.
pub fn mxv<T: Scalar + OpApply>(
    a: &SparseMatrix<T>,
    u: &SparseVector<T>,
    semiring: &Semiring<T>,
    mask: Option<&VectorMask<'_>>,
    desc: &Descriptor,
) -> SparseVector<T> {
    if desc.transpose_a || desc.transpose_b {
        // mxv with Aᵀ is vxm against A.
        let plain = Descriptor { transpose_a: false, transpose_b: false, ..*desc };
        return vxm(u, a, semiring, mask, &plain);
    }
    mxv_internal(a, u, semiring, mask, desc, false)
}

/// Row-wise dot-product kernel shared by `mxv` and transposed `vxm`.
fn mxv_internal<T: Scalar + OpApply>(
    a: &SparseMatrix<T>,
    u: &SparseVector<T>,
    semiring: &Semiring<T>,
    mask: Option<&VectorMask<'_>>,
    desc: &Descriptor,
    u_on_left: bool,
) -> SparseVector<T> {
    assert_eq!(u.size(), a.ncols(), "mxv dimension mismatch: u.size != a.ncols");
    // Densify u once so each row does O(row_nnz) lookups.
    let mut dense_flag = vec![false; a.ncols() as usize];
    let mut dense_val = vec![T::zero(); a.ncols() as usize];
    for (j, v) in u.iter() {
        dense_flag[j as usize] = true;
        dense_val[j as usize] = v;
    }
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for i in 0..a.nrows() {
        if let Some(m) = mask {
            if !m.allows(i, desc) {
                continue;
            }
        }
        let (cols, vals) = a.row(i);
        let mut acc = semiring.zero();
        let mut any = false;
        for (&j, &av) in cols.iter().zip(vals.iter()) {
            if dense_flag[j as usize] {
                let prod = if u_on_left {
                    semiring.mult(dense_val[j as usize], av)
                } else {
                    semiring.mult(av, dense_val[j as usize])
                };
                acc = if any { semiring.add(acc, prod) } else { prod };
                any = true;
                if semiring.add.is_terminal(acc) {
                    break;
                }
            }
        }
        if any {
            indices.push(i);
            values.push(acc);
        }
    }
    SparseVector::from_sorted_parts(a.nrows(), indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::Semiring;

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
    fn mxv_pulls_backwards() {
        let a = adj();
        let f = SparseVector::from_entries(4, &[(3, true)]).unwrap();
        let prev = mxv(&a, &f, &Semiring::lor_land(), None, &Descriptor::default());
        // rows whose edges reach 3: vertices 1 and 2
        assert_eq!(prev.indices(), &[1, 2]);
    }

    #[test]
    fn vxm_transposed_equals_mxv() {
        let a = adj();
        let f = SparseVector::from_entries(4, &[(3, true)]).unwrap();
        let via_desc =
            vxm(&f, &a, &Semiring::lor_land(), None, &Descriptor::new().with_transpose_b());
        let via_mxv = mxv(&a, &f, &Semiring::lor_land(), None, &Descriptor::default());
        assert_eq!(via_desc, via_mxv);
    }

    #[test]
    fn plus_pair_counts_incoming_paths() {
        // two vertices both pointing at 2
        let a = SparseMatrix::from_triples(3, 3, &[(0, 2, 1u64), (1, 2, 1u64)]).unwrap();
        let f = SparseVector::from_entries(3, &[(0, 1u64), (1, 1u64)]).unwrap();
        let r = vxm(&f, &a, &Semiring::plus_pair(), None, &Descriptor::default());
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
        let next = mxv(&a, &f, &Semiring::lor_land(), None, &Descriptor::default());
        assert!(next.is_empty());
    }
}
