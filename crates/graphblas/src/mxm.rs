//! Matrix–matrix multiplication (`GrB_mxm`) — masked, row-wise Gustavson
//! SpGEMM on the calling thread.
//!
//! RedisGraph compiles a multi-hop `MATCH` pattern into a chain of `mxm`
//! calls over the per-relation adjacency matrices. Here the fused traversal
//! (`exec/algebraic.rs` in `redisgraph-core`) evaluates that product a
//! frontier row at a time over the stored rows instead, and this
//! whole-matrix kernel serves rgbench's ladder only (its
//! `graphblas.mxm_2hop` rung); T9a deletes.

use crate::binary_op::OpApply;
use crate::descriptor::Descriptor;
use crate::mask::MatrixMask;
use crate::matrix::SparseMatrix;
use crate::semiring::Semiring;
use crate::types::Scalar;
use crate::Index;

/// `C = A ⊕.⊗ B` with an optional mask on the output.
///
/// Dimensions: `A` is `m×k`, `B` is `k×n`, the result is `m×n`. The descriptor
/// may request mask complement / structural interpretation.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn mxm<T: Scalar + OpApply>(
    a: &SparseMatrix<T>,
    b: &SparseMatrix<T>,
    semiring: &Semiring<T>,
    mask: Option<&MatrixMask<'_>>,
    desc: &Descriptor,
) -> SparseMatrix<T> {
    assert_eq!(a.ncols(), b.nrows(), "mxm dimension mismatch: a.ncols != b.nrows");
    let m = a.nrows();
    let n = b.ncols();

    // Gustavson: one dense sparse accumulator (SPA) reused across rows.
    let mut occupied = vec![false; n as usize];
    let mut acc = vec![T::zero(); n as usize];
    let mut touched: Vec<Index> = Vec::new();

    let mut row_ptr = Vec::with_capacity(m as usize + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();

    for i in 0..m {
        let (a_cols, a_vals) = a.row(i);
        for (&k, &av) in a_cols.iter().zip(a_vals.iter()) {
            let (b_cols, b_vals) = b.row(k);
            for (&j, &bv) in b_cols.iter().zip(b_vals.iter()) {
                let prod = semiring.mult(av, bv);
                let idx = j as usize;
                if occupied[idx] {
                    acc[idx] = semiring.add(acc[idx], prod);
                } else {
                    occupied[idx] = true;
                    acc[idx] = prod;
                    touched.push(j);
                }
            }
        }
        touched.sort_unstable();
        for &j in &touched {
            let keep = mask.map(|mk| mk.allows(i, j, desc)).unwrap_or(true);
            if keep {
                col_idx.push(j);
                values.push(acc[j as usize]);
            }
            occupied[j as usize] = false;
        }
        touched.clear();
        row_ptr.push(col_idx.len());
    }
    SparseMatrix::from_csr(m, n, row_ptr, col_idx, values).expect("a valid CSR")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::Semiring;

    fn dense_mult(a: &[[f64; 3]; 3], b: &[[f64; 3]; 3]) -> [[f64; 3]; 3] {
        let mut c = [[0.0; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    c[i][j] += a[i][k] * b[k][j];
                }
            }
        }
        c
    }

    fn to_sparse(d: &[[f64; 3]; 3]) -> SparseMatrix<f64> {
        let mut t = Vec::new();
        for (i, row) in d.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    t.push((i as Index, j as Index, v));
                }
            }
        }
        SparseMatrix::from_triples(3, 3, &t).unwrap()
    }

    #[test]
    fn plus_times_matches_dense_reference() {
        let da = [[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0]];
        let db = [[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 3.0]];
        let dc = dense_mult(&da, &db);
        let c = mxm(
            &to_sparse(&da),
            &to_sparse(&db),
            &Semiring::plus_times(),
            None,
            &Descriptor::default(),
        );
        for i in 0..3u64 {
            for j in 0..3u64 {
                let expect = dc[i as usize][j as usize];
                let got = c.extract_element(i, j).unwrap_or(0.0);
                assert_eq!(got, expect, "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn boolean_mxm_is_two_hop_reachability() {
        // 0→1→2, 1→3
        let a = SparseMatrix::from_triples(
            4,
            4,
            &[(0, 1, true), (1, 2, true), (1, 3, true), (2, 3, true)],
        )
        .unwrap();
        let c = mxm(&a, &a, &Semiring::lor_land(), None, &Descriptor::default());
        // 2-hop: 0→{2,3}, 1→3
        assert_eq!(c.extract_element(0, 2), Some(true));
        assert_eq!(c.extract_element(0, 3), Some(true));
        assert_eq!(c.extract_element(1, 3), Some(true));
        assert_eq!(c.extract_element(0, 1), None);
        assert_eq!(c.nvals(), 3);
    }

    #[test]
    fn mask_restricts_output() {
        let a = SparseMatrix::from_triples(2, 2, &[(0, 0, 1i64), (0, 1, 1), (1, 0, 1), (1, 1, 1)])
            .unwrap();
        let mask_m = SparseMatrix::from_triples(2, 2, &[(0, 0, true), (1, 1, true)]).unwrap();
        let mask = MatrixMask::new(&mask_m);
        let c = mxm(&a, &a, &Semiring::plus_times(), Some(&mask), &Descriptor::default());
        assert_eq!(c.nvals(), 2);
        assert_eq!(c.extract_element(0, 0), Some(2));
        assert_eq!(c.extract_element(0, 1), None);
    }

    #[test]
    fn complemented_mask_excludes_existing_edges() {
        // "two-hop neighbours that are not one-hop neighbours"
        let a =
            SparseMatrix::from_triples(3, 3, &[(0, 1, true), (1, 2, true), (0, 2, true)]).unwrap();
        let mask = MatrixMask::new(&a);
        let c = mxm(
            &a,
            &a,
            &Semiring::lor_land(),
            Some(&mask),
            &Descriptor::new().with_mask_complement().with_mask_structure(),
        );
        // two-hop 0→2 exists but is masked out because 0→2 is already an edge
        assert_eq!(c.nvals(), 0);
    }

    #[test]
    fn rectangular_dimensions() {
        let a = SparseMatrix::from_triples(2, 3, &[(0, 0, 1.0), (1, 2, 2.0)]).unwrap();
        let b = SparseMatrix::from_triples(3, 4, &[(0, 3, 5.0), (2, 1, 7.0)]).unwrap();
        let c = mxm(&a, &b, &Semiring::plus_times(), None, &Descriptor::default());
        assert_eq!(c.nrows(), 2);
        assert_eq!(c.ncols(), 4);
        assert_eq!(c.extract_element(0, 3), Some(5.0));
        assert_eq!(c.extract_element(1, 1), Some(14.0));
        assert_eq!(c.nvals(), 2);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = SparseMatrix::<f64>::new(2, 3);
        let b = SparseMatrix::<f64>::new(2, 3);
        let _ = mxm(&a, &b, &Semiring::plus_times(), None, &Descriptor::default());
    }
}
