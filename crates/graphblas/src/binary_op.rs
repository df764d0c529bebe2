//! Binary operators (`GrB_BinaryOp`).
//!
//! A binary operator combines two scalars into one. GraphBLAS uses them as the
//! "multiply" of a semiring, as the accumulator `accum` of masked assignments,
//! and inside element-wise operations. We model them as a small enum of named
//! built-ins plus an escape hatch for user-defined closures, so the hot kernels
//! can dispatch on the common cases without virtual calls.

use crate::types::Scalar;
use std::sync::Arc;

/// A binary operator `z = f(x, y)` over a single scalar type `T`.
///
/// Cloning is cheap (built-ins are unit variants; custom operators share an
/// `Arc`).
#[derive(Clone)]
pub enum BinaryOp<T: Scalar> {
    /// `z = x + y` (numeric addition / logical OR for `bool`).
    Plus,
    /// `z = x * y` (numeric multiplication / logical AND for `bool`).
    Times,
    /// `z = min(x, y)`.
    Min,
    /// `z = max(x, y)`.
    Max,
    /// `z = x` (the first operand).
    First,
    /// `z = y` (the second operand).
    Second,
    /// `z = x` or `z = y`, whichever is cheaper — GraphBLAS `GxB_ANY`, used by
    /// the ANY_PAIR traversal semiring where only structure matters.
    Any,
    /// `z = 1` whenever both operands exist — `GxB_PAIR`.
    Pair,
    /// Logical AND (meaningful for `bool`; for numeric types both operands must
    /// be non-zero).
    LAnd,
    /// Logical OR (rgbench's ladder grows its visited set with it; T9a
    /// deletes that use).
    LOr,
    /// `z = x - y`.
    Minus,
    /// A user-defined operator.
    Custom(Arc<dyn Fn(T, T) -> T + Send + Sync>),
}

impl<T: Scalar> std::fmt::Debug for BinaryOp<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl<T: Scalar> BinaryOp<T> {
    /// Human-readable operator name (used by `Debug` and plan explanations).
    pub fn name(&self) -> &'static str {
        match self {
            BinaryOp::Plus => "plus",
            BinaryOp::Times => "times",
            BinaryOp::Min => "min",
            BinaryOp::Max => "max",
            BinaryOp::First => "first",
            BinaryOp::Second => "second",
            BinaryOp::Any => "any",
            BinaryOp::Pair => "pair",
            BinaryOp::LAnd => "land",
            BinaryOp::LOr => "lor",
            BinaryOp::Minus => "minus",
            BinaryOp::Custom(_) => "custom",
        }
    }
}

/// Numeric application; implemented per concrete scalar kind through the
/// [`OpApply`] trait so that `bool` gets logical semantics and numeric types
/// get arithmetic semantics, matching the C API's typed operator families.
pub trait OpApply: Scalar {
    /// Apply a built-in or custom binary operator to two values.
    fn apply(op: &BinaryOp<Self>, x: Self, y: Self) -> Self;
}

macro_rules! impl_op_apply_num {
    ($($t:ty),*) => {$(
        impl OpApply for $t {
            #[inline]
            fn apply(op: &BinaryOp<Self>, x: Self, y: Self) -> Self {
                match op {
                    BinaryOp::Plus => x.wrapping_add(y),
                    BinaryOp::Times => x.wrapping_mul(y),
                    BinaryOp::Min => if x < y { x } else { y },
                    BinaryOp::Max => if x > y { x } else { y },
                    BinaryOp::First => x,
                    BinaryOp::Second => y,
                    BinaryOp::Any => x,
                    BinaryOp::Pair => 1 as $t,
                    BinaryOp::LAnd => ((x != 0) && (y != 0)) as $t,
                    BinaryOp::LOr => ((x != 0) || (y != 0)) as $t,
                    BinaryOp::Minus => x.wrapping_sub(y),
                    BinaryOp::Custom(f) => f(x, y),
                }
            }
        }
    )*};
}

impl_op_apply_num!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

macro_rules! impl_op_apply_float {
    ($($t:ty),*) => {$(
        impl OpApply for $t {
            #[inline]
            fn apply(op: &BinaryOp<Self>, x: Self, y: Self) -> Self {
                match op {
                    BinaryOp::Plus => x + y,
                    BinaryOp::Times => x * y,
                    BinaryOp::Min => if x < y { x } else { y },
                    BinaryOp::Max => if x > y { x } else { y },
                    BinaryOp::First => x,
                    BinaryOp::Second => y,
                    BinaryOp::Any => x,
                    BinaryOp::Pair => 1.0,
                    BinaryOp::LAnd => (((x != 0.0) && (y != 0.0)) as u8) as $t,
                    BinaryOp::LOr => (((x != 0.0) || (y != 0.0)) as u8) as $t,
                    BinaryOp::Minus => x - y,
                    BinaryOp::Custom(f) => f(x, y),
                }
            }
        }
    )*};
}

impl_op_apply_float!(f32, f64);

impl OpApply for bool {
    #[inline]
    fn apply(op: &BinaryOp<Self>, x: Self, y: Self) -> Self {
        match op {
            BinaryOp::Plus | BinaryOp::LOr | BinaryOp::Max => x || y,
            BinaryOp::Times | BinaryOp::LAnd | BinaryOp::Min => x && y,
            BinaryOp::First | BinaryOp::Any => x,
            BinaryOp::Second => y,
            BinaryOp::Pair => true,
            BinaryOp::Minus => x != y,
            BinaryOp::Custom(f) => f(x, y),
        }
    }
}

impl OpApply for () {
    #[inline]
    fn apply(op: &BinaryOp<Self>, x: Self, y: Self) -> Self {
        if let BinaryOp::Custom(f) = op {
            f(x, y)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_builtins() {
        assert_eq!(i64::apply(&BinaryOp::Plus, 2, 3), 5);
        assert_eq!(i64::apply(&BinaryOp::Times, 2, 3), 6);
        assert_eq!(i64::apply(&BinaryOp::Min, 2, 3), 2);
        assert_eq!(i64::apply(&BinaryOp::Max, 2, 3), 3);
        assert_eq!(i64::apply(&BinaryOp::First, 2, 3), 2);
        assert_eq!(i64::apply(&BinaryOp::Second, 2, 3), 3);
        assert_eq!(i64::apply(&BinaryOp::Pair, 2, 3), 1);
        assert_eq!(i64::apply(&BinaryOp::Minus, 2, 3), -1);
    }

    #[test]
    fn boolean_builtins_use_logical_semantics() {
        assert!(bool::apply(&BinaryOp::Plus, true, false));
        assert!(!bool::apply(&BinaryOp::Times, true, false));
        assert!(bool::apply(&BinaryOp::Pair, false, false));
        assert!(bool::apply(&BinaryOp::LOr, false, true));
        assert!(!bool::apply(&BinaryOp::LAnd, false, true));
    }

    #[test]
    fn float_builtins() {
        assert_eq!(f64::apply(&BinaryOp::Plus, 0.5, 0.25), 0.75);
        assert_eq!(f64::apply(&BinaryOp::Times, 0.5, 0.25), 0.125);
        assert_eq!(f64::apply(&BinaryOp::LAnd, 1.0, 0.0), 0.0);
    }

    #[test]
    fn custom_operator_is_applied() {
        let saturating = BinaryOp::Custom(Arc::new(|x: u8, y: u8| x.saturating_add(y)));
        assert_eq!(u8::apply(&saturating, 200, 100), 255);
        assert_eq!(saturating.name(), "custom");
    }

    #[test]
    fn debug_prints_name() {
        assert_eq!(format!("{:?}", BinaryOp::<i64>::Plus), "plus");
        assert_eq!(format!("{:?}", BinaryOp::<bool>::LOr), "lor");
    }
}
