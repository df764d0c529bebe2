//! Fixture: linted as if it lived under `crates/*/src`; each `pub fn` that
//! nothing outside this file's own tests names must be flagged by `dead-pub`.

/// Named only in a comment, a string and this file's tests: still dead.
pub fn only_tested() -> u32 { // BAD
    let _ = "only_tested";
    1
}

/// Called from this file's non-test code: alive.
pub fn called_below() -> u32 {
    2
}

pub(crate) fn caller() -> u32 {
    called_below()
}

#[cfg(test)]
mod tests {
    #[test]
    fn uses_only_tested() {
        assert_eq!(super::only_tested(), 1);
    }
}
