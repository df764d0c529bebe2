//! Reduction (`GrB_reduce`) of a matrix to a scalar.
//!
//! With the PLUS monoid over a product matrix this counts paths; triangle
//! counting sums its masked wedge product this way.

use crate::binary_op::OpApply;
use crate::matrix::SparseMatrix;
use crate::monoid::Monoid;
use crate::types::Scalar;

/// Reduce every stored entry of a matrix to a single scalar. Returns the
/// monoid identity for an empty matrix.
pub fn reduce_matrix_to_scalar<T: Scalar + OpApply>(a: &SparseMatrix<T>, monoid: &Monoid<T>) -> T {
    let mut acc = monoid.identity;
    for &v in a.raw_values() {
        acc = monoid.combine(acc, v);
        if monoid.is_terminal(acc) {
            break;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::{lor_monoid, max_monoid, plus_monoid};

    #[test]
    fn matrix_scalar_reduce_sums_all_entries() {
        let a = SparseMatrix::from_triples(2, 2, &[(0, 0, 1i64), (0, 1, 2), (1, 1, 3)]).unwrap();
        assert_eq!(reduce_matrix_to_scalar(&a, &plus_monoid()), 6);
        assert_eq!(reduce_matrix_to_scalar(&a, &max_monoid(i64::MIN)), 3);
    }

    #[test]
    fn empty_matrix_reduces_to_identity() {
        let a = SparseMatrix::<i64>::new(4, 4);
        assert_eq!(reduce_matrix_to_scalar(&a, &plus_monoid()), 0);
    }

    #[test]
    fn boolean_reduce_short_circuits() {
        let a = SparseMatrix::from_triples(2, 2, &[(0, 0, false), (0, 1, true), (1, 0, false)])
            .unwrap();
        assert!(reduce_matrix_to_scalar(&a, &lor_monoid()));
        let none = SparseMatrix::from_triples(2, 2, &[(1, 1, false)]).unwrap();
        assert!(!reduce_matrix_to_scalar(&none, &lor_monoid()));
    }
}
