//! Semirings (`GrB_Semiring`): an "add" monoid plus a "multiply" binary
//! operator. Choosing the semiring is how graph algorithms select their
//! traversal semantics:
//!
//! * `LOR_LAND` over `bool` — plain reachability / BFS,
//! * `ANY_PAIR` — structural traversal where only the pattern matters
//!   (RedisGraph's default for `MATCH` traversals),
//! * `PLUS_TIMES` — conventional linear algebra (e.g. counting paths),
//! * `MIN_PLUS` — shortest paths,
//! * `PLUS_PAIR` — neighbourhood counting (k-hop count queries).

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

    /// The additive identity.
    #[inline]
    pub fn zero(&self) -> T {
        self.add.identity
    }

    /// Conventional arithmetic semiring (⊕ = +, ⊗ = ×).
    pub fn plus_times() -> Self {
        Semiring::new(monoid::plus_monoid(), BinaryOp::Times, "plus_times")
    }

    /// Neighbourhood-count semiring (⊕ = +, ⊗ = pair): `C = A ⊕.⊗ B` counts,
    /// for every output entry, how many intermediate vertices connect the pair.
    pub fn plus_pair() -> Self {
        Semiring::new(monoid::plus_monoid(), BinaryOp::Pair, "plus_pair")
    }

    /// Shortest-path semiring (⊕ = min, ⊗ = +) with the supplied "infinity".
    pub fn min_plus(infinity: T) -> Self {
        Semiring::new(monoid::min_monoid(infinity), BinaryOp::Plus, "min_plus")
    }

    /// Structural traversal semiring (⊕ = any, ⊗ = pair). The cheapest semiring
    /// when only the output pattern matters; used by RedisGraph traversals.
    pub fn any_pair() -> Self {
        Semiring::new(monoid::any_monoid(), BinaryOp::Pair, "any_pair")
    }

    /// Keep-the-target semiring (⊕ = any, ⊗ = second).
    pub fn any_second() -> Self {
        Semiring::new(monoid::any_monoid(), BinaryOp::Second, "any_second")
    }
}

impl Semiring<bool> {
    /// Boolean reachability semiring (⊕ = ∨, ⊗ = ∧) — the classic BFS semiring.
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
        assert_eq!(s.zero(), 0);
        assert_eq!(s.name, "plus_times");
    }

    #[test]
    fn lor_land_is_boolean_reachability() {
        let s = Semiring::lor_land();
        assert!(s.mult(true, true));
        assert!(!s.mult(true, false));
        assert!(s.add(false, true));
        assert!(!s.zero());
    }

    #[test]
    fn plus_pair_counts_matches() {
        let s = Semiring::<u64>::plus_pair();
        // every matched pair contributes exactly 1 regardless of stored values
        assert_eq!(s.mult(17, 99), 1);
        assert_eq!(s.add(1, 1), 2);
    }

    #[test]
    fn min_plus_shortest_path_algebra() {
        let s = Semiring::<i64>::min_plus(i64::MAX / 2);
        assert_eq!(s.mult(2, 3), 5);
        assert_eq!(s.add(7, 5), 5);
        assert_eq!(s.zero(), i64::MAX / 2);
    }

    #[test]
    fn any_first_propagates_left_value() {
        let s = Semiring::new(monoid::any_monoid::<u64>(), BinaryOp::First, "any_first");
        assert_eq!(s.mult(42, 7), 42);
    }
}
