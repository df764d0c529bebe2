//! Error handling mirroring the `GrB_Info` return codes of the C API.

use std::fmt;

/// Errors returned by fallible GraphBLAS operations.
///
/// The variants correspond to the `GrB_Info` error codes of the C API that are
/// reachable from safe Rust (out-of-memory and panic-level conditions surface
/// as ordinary Rust panics/aborts instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrbError {
    /// A row or column index is outside the dimensions of the object
    /// (`GrB_INDEX_OUT_OF_BOUNDS`).
    IndexOutOfBounds {
        /// The offending index.
        index: u64,
        /// The dimension it was checked against.
        bound: u64,
    },
    /// An output object was the same as an input where aliasing is not
    /// supported (`GrB_NOT_IMPLEMENTED` / aliasing restriction).
    InvalidValue(String),
    /// The requested entry does not exist (`GrB_NO_VALUE`).
    NoValue,
}

impl fmt::Display for GrbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrbError::IndexOutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds (dimension {bound})")
            }
            GrbError::InvalidValue(msg) => write!(f, "invalid value: {msg}"),
            GrbError::NoValue => write!(f, "no stored value at the requested position"),
        }
    }
}

impl std::error::Error for GrbError {}

/// Result alias used by fallible GraphBLAS entry points.
pub type GrbResult<T> = Result<T, GrbError>;

/// Check that `index < bound`, returning `GrbError::IndexOutOfBounds` otherwise.
#[inline]
pub fn check_index(index: u64, bound: u64) -> GrbResult<()> {
    if index < bound {
        Ok(())
    } else {
        Err(GrbError::IndexOutOfBounds { index, bound })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_index_accepts_in_bounds() {
        assert!(check_index(0, 1).is_ok());
        assert!(check_index(9, 10).is_ok());
    }

    #[test]
    fn check_index_rejects_out_of_bounds() {
        let err = check_index(10, 10).unwrap_err();
        assert_eq!(err, GrbError::IndexOutOfBounds { index: 10, bound: 10 });
    }

    #[test]
    fn errors_display_readably() {
        let e = GrbError::IndexOutOfBounds { index: 7, bound: 5 };
        assert!(e.to_string().contains('7'));
        assert_eq!(GrbError::NoValue.to_string(), "no stored value at the requested position");
    }
}
