//! Semirings (`GrB_Semiring`): an "add" monoid plus a "multiply" binary
//! operator. Choosing the semiring is how graph algorithms select their
//! traversal semantics:
//!
//! * `LOR_LAND` over `bool` — plain reachability / BFS,
//! * `PLUS_TIMES` — conventional linear algebra (e.g. counting paths).
//!
//! Whole-matrix products serve rgbench's ladder only: `lor_land` its
//! masked-`vxm` rung, `plus_times` its `mxm` rung (T9a deletes them). The
//! queries and `algo` read stored rows in place with plain loops.

use crate::binary_op::{BinaryOp, OpApply};
use crate::monoid::{self, Monoid};
use crate::types::Scalar;

/// A GraphBLAS semiring: `add` monoid ⊕ and `multiply` operator ⊗.
#[derive(Clone, Debug)]
pub struct Semiring<T: Scalar> {
    /// Additive monoid used to combine products landing on the same output
    /// entry.
    pub add: Monoid<T>,
    /// Multiplicative operator applied to each pair of matched entries.
    pub multiply: BinaryOp<T>,
    /// Descriptive name used in plan explanations.
    pub name: &'static str,
}

impl<T: Scalar + OpApply> Semiring<T> {
    /// Build a semiring from a monoid and a multiply operator.
    pub fn new(add: Monoid<T>, multiply: BinaryOp<T>, name: &'static str) -> Self {
        Semiring { add, multiply, name }
    }

    /// Apply the multiply operator.
    #[inline]
    pub fn mult(&self, a: T, b: T) -> T {
        T::apply(&self.multiply, a, b)
    }

    /// Apply the additive monoid.
    #[inline]
    pub fn add(&self, a: T, b: T) -> T {
        self.add.combine(a, b)
    }

    /// Conventional arithmetic semiring (⊕ = +, ⊗ = ×). rgbench's ladder only;
    /// T9a deletes.
    pub fn plus_times() -> Self {
        Semiring::new(monoid::plus_monoid(), BinaryOp::Times, "plus_times")
    }
}

impl Semiring<bool> {
    /// Boolean reachability semiring (⊕ = ∨, ⊗ = ∧) — the classic BFS semiring.
    /// rgbench's ladder only; T9a deletes.
    pub fn lor_land() -> Self {
        Semiring::new(monoid::lor_monoid(), BinaryOp::LAnd, "lor_land")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_times_behaves_like_arithmetic() {
        let s = Semiring::<i64>::plus_times();
        assert_eq!(s.mult(3, 4), 12);
        assert_eq!(s.add(3, 4), 7);
        assert_eq!(s.add.identity, 0);
        assert_eq!(s.name, "plus_times");
    }

    #[test]
    fn lor_land_is_boolean_reachability() {
        let s = Semiring::lor_land();
        assert!(s.mult(true, true));
        assert!(!s.mult(true, false));
        assert!(s.add(false, true));
        assert!(!s.add.identity);
    }

    #[test]
    fn plus_pair_counts_matches() {
        let s = Semiring::new(monoid::plus_monoid::<u64>(), BinaryOp::Pair, "plus_pair");
        // every matched pair contributes exactly 1 regardless of stored values
        assert_eq!(s.mult(17, 99), 1);
        assert_eq!(s.add(1, 1), 2);
    }

    #[test]
    fn min_plus_shortest_path_algebra() {
        let s = Semiring::new(Monoid::new(BinaryOp::Min, i64::MAX / 2), BinaryOp::Plus, "min_plus");
        assert_eq!(s.mult(2, 3), 5);
        assert_eq!(s.add(7, 5), 5);
        assert_eq!(s.add.identity, i64::MAX / 2);
    }

    #[test]
    fn any_first_propagates_left_value() {
        let s = Semiring::new(Monoid::new(BinaryOp::Any, 0u64), BinaryOp::First, "any_first");
        assert_eq!(s.mult(42, 7), 42);
    }
}
