//! `GxB_select`: keep the entries of a matrix that satisfy a predicate on
//! their position and/or value (SuiteSparse extension used for triangle
//! counting, self-loop removal, and value filters).

use crate::matrix::SparseMatrix;
use crate::types::Scalar;
use crate::Index;
use std::sync::Arc;

/// Predicates accepted by [`select_matrix`].
#[derive(Clone)]
pub enum SelectOp<T: Scalar> {
    /// Keep strictly-lower-triangle entries (`col < row`), `GxB_TRIL` with offset -1.
    StrictLower,
    /// Keep strictly-upper-triangle entries (`col > row`).
    StrictUpper,
    /// Keep diagonal entries.
    Diag,
    /// Drop diagonal entries (remove self-loops).
    OffDiag,
    /// Keep entries whose value differs from the given constant.
    ValueNe(T),
    /// Keep entries whose value equals the given constant.
    ValueEq(T),
    /// Arbitrary predicate over `(row, col, value)`.
    Custom(Arc<dyn Fn(Index, Index, T) -> bool + Send + Sync>),
}

impl<T: Scalar> SelectOp<T> {
    /// Build a custom predicate.
    pub fn custom<F>(f: F) -> Self
    where
        F: Fn(Index, Index, T) -> bool + Send + Sync + 'static,
    {
        SelectOp::Custom(Arc::new(f))
    }

    #[inline]
    fn keep(&self, r: Index, c: Index, v: T) -> bool {
        match self {
            SelectOp::StrictLower => c < r,
            SelectOp::StrictUpper => c > r,
            SelectOp::Diag => c == r,
            SelectOp::OffDiag => c != r,
            SelectOp::ValueNe(x) => v != *x,
            SelectOp::ValueEq(x) => v == *x,
            SelectOp::Custom(f) => f(r, c, v),
        }
    }
}

/// Return a matrix containing only the entries of `a` selected by `op`.
pub fn select_matrix<T: Scalar>(a: &SparseMatrix<T>, op: &SelectOp<T>) -> SparseMatrix<T> {
    let triples: Vec<_> = a.iter().filter(|&(r, c, v)| op.keep(r, c, v)).collect();
    SparseMatrix::from_triples(a.nrows(), a.ncols(), &triples).expect("pattern already valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> SparseMatrix<i64> {
        SparseMatrix::from_triples(3, 3, &[(0, 0, 1), (0, 2, 2), (1, 1, 0), (2, 0, 3), (2, 2, 4)])
            .unwrap()
    }

    #[test]
    fn triangle_selectors() {
        let lower = select_matrix(&m(), &SelectOp::StrictLower);
        assert_eq!(lower.to_triples(), vec![(2, 0, 3)]);
        let upper = select_matrix(&m(), &SelectOp::StrictUpper);
        assert_eq!(upper.to_triples(), vec![(0, 2, 2)]);
    }

    #[test]
    fn diag_and_offdiag_partition_entries() {
        let d = select_matrix(&m(), &SelectOp::Diag);
        let o = select_matrix(&m(), &SelectOp::OffDiag);
        assert_eq!(d.nvals() + o.nvals(), m().nvals());
        assert_eq!(d.nvals(), 3);
        assert_eq!(o.nvals(), 2);
    }

    #[test]
    fn value_filters() {
        let nz = select_matrix(&m(), &SelectOp::ValueNe(0));
        assert_eq!(nz.nvals(), 4);
        let zeros = select_matrix(&m(), &SelectOp::ValueEq(0));
        assert_eq!(zeros.to_triples(), vec![(1, 1, 0)]);
    }

    #[test]
    fn custom_predicate() {
        let big = select_matrix(&m(), &SelectOp::custom(|_, _, v| v >= 3));
        assert_eq!(big.nvals(), 2);
    }
}
