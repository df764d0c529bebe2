//! Masks: write-control objects for GraphBLAS operations. rgbench's ladder
//! only (a [`VectorMask`] for its masked `vxm`, the [`MatrixMask`] `mxm`
//! takes); T9a deletes.
//!
//! A mask restricts which output positions an operation may write. RedisGraph
//! uses masks heavily — e.g. "all nodes with label L reachable in one hop but
//! not already visited" is a complemented-mask `vxm`.

use crate::descriptor::Descriptor;
use crate::matrix::SparseMatrix;
use crate::vector::SparseVector;
use crate::Index;

/// A mask over vector outputs: positions where the mask holds `true` (or, with
/// a structural descriptor, any stored entry) are writable.
#[derive(Debug, Clone, Copy)]
pub struct VectorMask<'a> {
    mask: &'a SparseVector<bool>,
}

impl<'a> VectorMask<'a> {
    /// Wrap a boolean vector as a mask.
    pub fn new(mask: &'a SparseVector<bool>) -> Self {
        VectorMask { mask }
    }

    /// Whether writing to position `i` is allowed under descriptor `desc`.
    #[inline]
    pub fn allows(&self, i: Index, desc: &Descriptor) -> bool {
        let present = if desc.mask_structure {
            self.mask.contains(i)
        } else {
            self.mask.extract_element(i).unwrap_or(false)
        };
        present != desc.mask_complement
    }
}

/// A mask over matrix outputs.
#[derive(Debug, Clone, Copy)]
pub struct MatrixMask<'a> {
    mask: &'a SparseMatrix<bool>,
}

impl<'a> MatrixMask<'a> {
    /// Wrap a boolean matrix as a mask.
    pub fn new(mask: &'a SparseMatrix<bool>) -> Self {
        MatrixMask { mask }
    }

    /// Whether writing to position `(i, j)` is allowed under descriptor `desc`.
    #[inline]
    pub fn allows(&self, i: Index, j: Index, desc: &Descriptor) -> bool {
        let present = if desc.mask_structure {
            self.mask.contains(i, j)
        } else {
            self.mask.extract_element(i, j).unwrap_or(false)
        };
        present != desc.mask_complement
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_mask_value_semantics() {
        let m = SparseVector::from_entries(4, &[(0, true), (1, false)]).unwrap();
        let mask = VectorMask::new(&m);
        let d = Descriptor::default();
        assert!(mask.allows(0, &d));
        assert!(!mask.allows(1, &d)); // stored false does not allow
        assert!(!mask.allows(2, &d)); // absent does not allow
    }

    #[test]
    fn vector_mask_structural_semantics() {
        let m = SparseVector::from_entries(4, &[(1, false)]).unwrap();
        let mask = VectorMask::new(&m);
        let d = Descriptor::new().with_mask_structure();
        assert!(mask.allows(1, &d)); // stored entry counts, value ignored
        assert!(!mask.allows(2, &d));
    }

    #[test]
    fn vector_mask_complement() {
        let m = SparseVector::from_entries(4, &[(0, true)]).unwrap();
        let mask = VectorMask::new(&m);
        let d = Descriptor::new().with_mask_complement();
        assert!(!mask.allows(0, &d));
        assert!(mask.allows(3, &d));
    }

    #[test]
    fn matrix_mask_all_modes() {
        let m = SparseMatrix::from_triples(2, 2, &[(0, 0, true), (1, 1, false)]).unwrap();
        let mask = MatrixMask::new(&m);
        let plain = Descriptor::default();
        let comp = Descriptor::new().with_mask_complement();
        let stru = Descriptor::new().with_mask_structure();
        assert!(mask.allows(0, 0, &plain));
        assert!(!mask.allows(1, 1, &plain));
        assert!(mask.allows(1, 1, &stru));
        assert!(!mask.allows(0, 0, &comp));
        assert!(mask.allows(0, 1, &comp));
    }
}
