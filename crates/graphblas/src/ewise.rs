//! Element-wise addition of vectors (`eWiseAdd`, the set union of two
//! patterns). rgbench's ladder only, where its masked-`vxm` rung grows a
//! visited set with it; T9a deletes.

use crate::binary_op::{BinaryOp, OpApply};
use crate::types::Scalar;
use crate::vector::SparseVector;

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
    fn vector_empty_cases() {
        let u = SparseVector::<i64>::new(3);
        let v = SparseVector::from_entries(3, &[(1, 5)]).unwrap();
        assert_eq!(ewise_add_vector(&u, &v, &BinaryOp::Plus).to_entries(), vec![(1, 5)]);
        assert_eq!(ewise_add_vector(&v, &u, &BinaryOp::Plus).to_entries(), vec![(1, 5)]);
    }
}
