//! Monoids (`GrB_Monoid`): an associative, commutative binary operator with an
//! identity element, optionally with a *terminal* (annihilator) value at which
//! a reduction may stop (SuiteSparse's `GxB_Monoid_terminal_new`).

use crate::binary_op::{BinaryOp, OpApply};
use crate::types::Scalar;

/// An associative binary operator together with its identity value.
#[derive(Clone, Debug)]
pub struct Monoid<T: Scalar> {
    /// The combining operator.
    pub op: BinaryOp<T>,
    /// The identity of `op` (e.g. `0` for plus, `false` for lor).
    pub identity: T,
    /// Optional terminal value: once a partial reduction reaches this value the
    /// kernel may stop (e.g. `true` for the LOR monoid, `0` for TIMES over
    /// unsigned integers).
    pub terminal: Option<T>,
}

impl<T: Scalar + OpApply> Monoid<T> {
    /// Create a monoid from an operator and identity, with no terminal value.
    pub fn new(op: BinaryOp<T>, identity: T) -> Self {
        Monoid { op, identity, terminal: None }
    }

    /// Create a monoid with a terminal (annihilator) value.
    pub fn with_terminal(op: BinaryOp<T>, identity: T, terminal: T) -> Self {
        Monoid { op, identity, terminal: Some(terminal) }
    }

    /// Combine two values with the monoid operator.
    #[inline]
    pub fn combine(&self, x: T, y: T) -> T {
        T::apply(&self.op, x, y)
    }
}

/// The PLUS monoid over a numeric type.
pub fn plus_monoid<T: Scalar + OpApply>() -> Monoid<T> {
    Monoid::new(BinaryOp::Plus, T::zero())
}

/// The LOR monoid over `bool` (identity `false`, terminal `true`).
pub fn lor_monoid() -> Monoid<bool> {
    Monoid::with_terminal(BinaryOp::LOr, false, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fold `values` the way the kernels do: from the identity, stopping at
    /// the terminal value.
    fn reduce<T: Scalar + OpApply>(m: &Monoid<T>, values: &[T]) -> T {
        let mut acc = m.identity;
        for &v in values {
            acc = m.combine(acc, v);
            if m.terminal == Some(acc) {
                break;
            }
        }
        acc
    }

    #[test]
    fn plus_monoid_reduces() {
        let m = plus_monoid::<i64>();
        assert_eq!(reduce(&m, &[1, 2, 3, 4]), 10);
        assert_eq!(reduce(&m, &[]), 0);
    }

    #[test]
    fn times_monoid_identity() {
        let m = Monoid::new(BinaryOp::Times, 1i64);
        assert_eq!(reduce(&m, &[]), 1);
        assert_eq!(reduce(&m, &[2, 3, 4]), 24);
    }

    #[test]
    fn min_max_monoids() {
        let min = Monoid::new(BinaryOp::Min, i64::MAX);
        let max = Monoid::new(BinaryOp::Max, i64::MIN);
        assert_eq!(reduce(&min, &[5, 2, 8]), 2);
        assert_eq!(reduce(&max, &[5, 2, 8]), 8);
        assert_eq!(reduce(&min, &[]), i64::MAX);
    }

    #[test]
    fn lor_terminal_short_circuits() {
        let m = lor_monoid();
        assert_eq!(m.terminal, Some(true));
        assert!(reduce(&m, &[false, true, false]));
        assert!(!reduce(&m, &[false, false]));
    }

    #[test]
    fn land_monoid_identity_true() {
        let m = Monoid::with_terminal(BinaryOp::LAnd, true, false);
        assert!(reduce(&m, &[]));
        assert!(!reduce(&m, &[true, false, true]));
    }

    #[test]
    fn monoid_combine_is_associative_spot_check() {
        let m = plus_monoid::<i64>();
        let (a, b, c) = (3, 7, 11);
        assert_eq!(m.combine(m.combine(a, b), c), m.combine(a, m.combine(b, c)));
    }
}
