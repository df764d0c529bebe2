//! `GrB_extract`: pull out single rows and single columns.
//!
//! RedisGraph extracts a row of the label matrix to enumerate the nodes of a
//! label. The property tests use both as reference implementations for
//! `vxm`, `mxv` and `mxm`.

use crate::error::{check_index, GrbResult};
use crate::matrix::SparseMatrix;
use crate::types::Scalar;
use crate::vector::SparseVector;
use crate::Index;

/// Extract row `i` of `A` as a sparse vector of length `A.ncols()`.
pub fn extract_row<T: Scalar>(a: &SparseMatrix<T>, i: Index) -> GrbResult<SparseVector<T>> {
    check_index(i, a.nrows())?;
    let (cols, vals) = a.row(i);
    Ok(SparseVector::from_sorted_parts(a.ncols(), cols.to_vec(), vals.to_vec()))
}

/// Extract column `j` of `A` as a sparse vector of length `A.nrows()`.
pub fn extract_col<T: Scalar>(a: &SparseMatrix<T>, j: Index) -> GrbResult<SparseVector<T>> {
    check_index(j, a.ncols())?;
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for r in 0..a.nrows() {
        if let Some(v) = a.extract_element(r, j) {
            indices.push(r);
            values.push(v);
        }
    }
    Ok(SparseVector::from_sorted_parts(a.nrows(), indices, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> SparseMatrix<i64> {
        SparseMatrix::from_triples(
            4,
            4,
            &[(0, 0, 1), (0, 3, 2), (1, 1, 3), (2, 0, 4), (3, 2, 5), (3, 3, 6)],
        )
        .unwrap()
    }

    #[test]
    fn extract_row_and_col() {
        let r = extract_row(&m(), 0).unwrap();
        assert_eq!(r.to_entries(), vec![(0, 1), (3, 2)]);
        let c = extract_col(&m(), 0).unwrap();
        assert_eq!(c.to_entries(), vec![(0, 1), (2, 4)]);
    }

    #[test]
    fn extract_rejects_out_of_bounds() {
        assert!(extract_row(&m(), 4).is_err());
        assert!(extract_col(&m(), 9).is_err());
    }
}
