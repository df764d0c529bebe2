//! Element-wise addition (`eWiseAdd`, the set union of two patterns) for
//! matrices and vectors.
//!
//! RedisGraph uses `eWiseAdd` to form its combined adjacency matrix (the
//! union of all per-relation-type matrices' patterns).

use crate::binary_op::{BinaryOp, OpApply};
use crate::matrix::SparseMatrix;
use crate::types::Scalar;
use crate::vector::SparseVector;
use crate::Index;

/// `w = u ⊕ v` over the union of the two patterns: positions present in only
/// one operand keep that operand's value; positions present in both are
/// combined with `op`.
pub fn ewise_add_vector<T: Scalar + OpApply>(
    u: &SparseVector<T>,
    v: &SparseVector<T>,
    op: &BinaryOp<T>,
) -> SparseVector<T> {
    assert_eq!(u.size(), v.size(), "eWiseAdd dimension mismatch");
    let mut indices = Vec::with_capacity(u.nvals() + v.nvals());
    let mut values = Vec::with_capacity(u.nvals() + v.nvals());
    let (ui, uv) = (u.indices(), u.values());
    let (vi, vv) = (v.indices(), v.values());
    let (mut a, mut b) = (0usize, 0usize);
    while a < ui.len() && b < vi.len() {
        match ui[a].cmp(&vi[b]) {
            std::cmp::Ordering::Less => {
                indices.push(ui[a]);
                values.push(uv[a]);
                a += 1;
            }
            std::cmp::Ordering::Greater => {
                indices.push(vi[b]);
                values.push(vv[b]);
                b += 1;
            }
            std::cmp::Ordering::Equal => {
                indices.push(ui[a]);
                values.push(T::apply(op, uv[a], vv[b]));
                a += 1;
                b += 1;
            }
        }
    }
    indices.extend_from_slice(&ui[a..]);
    values.extend_from_slice(&uv[a..]);
    indices.extend_from_slice(&vi[b..]);
    values.extend_from_slice(&vv[b..]);
    SparseVector::from_sorted_parts(u.size(), indices, values)
}

/// `C = A ⊕ B` over the union of the two patterns (row-by-row merge).
pub fn ewise_add_matrix<T: Scalar + OpApply>(
    a: &SparseMatrix<T>,
    b: &SparseMatrix<T>,
    op: &BinaryOp<T>,
) -> SparseMatrix<T> {
    assert_eq!(a.nrows(), b.nrows(), "eWiseAdd nrows mismatch");
    assert_eq!(a.ncols(), b.ncols(), "eWiseAdd ncols mismatch");
    let mut row_ptr = Vec::with_capacity(a.nrows() as usize + 1);
    row_ptr.push(0usize);
    let mut col_idx: Vec<Index> = Vec::new();
    let mut values: Vec<T> = Vec::new();

    for r in 0..a.nrows() {
        let (ac, av) = a.row(r);
        let (bc, bv) = b.row(r);
        let (mut i, mut j) = (0usize, 0usize);
        while i < ac.len() && j < bc.len() {
            match ac[i].cmp(&bc[j]) {
                std::cmp::Ordering::Less => {
                    col_idx.push(ac[i]);
                    values.push(av[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    col_idx.push(bc[j]);
                    values.push(bv[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    col_idx.push(ac[i]);
                    values.push(T::apply(op, av[i], bv[j]));
                    i += 1;
                    j += 1;
                }
            }
        }
        col_idx.extend_from_slice(&ac[i..]);
        values.extend_from_slice(&av[i..]);
        col_idx.extend_from_slice(&bc[j..]);
        values.extend_from_slice(&bv[j..]);
        row_ptr.push(col_idx.len());
    }
    SparseMatrix::from_csr_parts(a.nrows(), a.ncols(), row_ptr, col_idx, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_add_is_union() {
        let u = SparseVector::from_entries(5, &[(0, 1i64), (2, 2)]).unwrap();
        let v = SparseVector::from_entries(5, &[(2, 10), (4, 4)]).unwrap();
        let w = ewise_add_vector(&u, &v, &BinaryOp::Plus);
        assert_eq!(w.to_entries(), vec![(0, 1), (2, 12), (4, 4)]);
    }

    #[test]
    fn matrix_add_union_of_relations() {
        // two relation matrices combined into one adjacency matrix
        let knows = SparseMatrix::from_triples(3, 3, &[(0, 1, true)]).unwrap();
        let likes = SparseMatrix::from_triples(3, 3, &[(0, 1, true), (1, 2, true)]).unwrap();
        let adj = ewise_add_matrix(&knows, &likes, &BinaryOp::LOr);
        assert_eq!(adj.nvals(), 2);
        assert_eq!(adj.extract_element(0, 1), Some(true));
        assert_eq!(adj.extract_element(1, 2), Some(true));
    }

    #[test]
    fn add_with_empty_operand_is_copy() {
        let a = SparseMatrix::from_triples(2, 2, &[(1, 0, 7i64)]).unwrap();
        let empty = SparseMatrix::<i64>::new(2, 2);
        assert_eq!(ewise_add_matrix(&a, &empty, &BinaryOp::Plus), a);
        assert_eq!(ewise_add_matrix(&empty, &a, &BinaryOp::Plus), a);
    }

    #[test]
    fn vector_empty_cases() {
        let u = SparseVector::<i64>::new(3);
        let v = SparseVector::from_entries(3, &[(1, 5)]).unwrap();
        assert_eq!(ewise_add_vector(&u, &v, &BinaryOp::Plus).to_entries(), vec![(1, 5)]);
        assert_eq!(ewise_add_vector(&v, &u, &BinaryOp::Plus).to_entries(), vec![(1, 5)]);
    }
}
