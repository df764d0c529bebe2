//! Operation descriptors (`GrB_Descriptor`).
//!
//! A descriptor modifies how an operation treats its mask, inputs and output:
//! complement the mask, use only the mask structure, and transpose either
//! input.

/// Per-call modifiers for GraphBLAS operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Descriptor {
    /// Use the complement of the mask (`GrB_COMP`): entries *not* present (or
    /// false) in the mask are computed.
    pub mask_complement: bool,
    /// Use only the structure of the mask (`GrB_STRUCTURE`): any stored entry
    /// counts, regardless of its value.
    pub mask_structure: bool,
    /// Transpose the first input (`GrB_TRAN` on `GrB_INP0`).
    pub transpose_a: bool,
    /// Transpose the second input (`GrB_TRAN` on `GrB_INP1`).
    pub transpose_b: bool,
}

impl Descriptor {
    /// The default descriptor (no modifiers).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: complement the mask.
    pub fn with_mask_complement(mut self) -> Self {
        self.mask_complement = true;
        self
    }

    /// Builder: treat the mask structurally.
    pub fn with_mask_structure(mut self) -> Self {
        self.mask_structure = true;
        self
    }

    /// Builder: transpose the first input.
    pub fn with_transpose_a(mut self) -> Self {
        self.transpose_a = true;
        self
    }

    /// Builder: transpose the second input.
    pub fn with_transpose_b(mut self) -> Self {
        self.transpose_b = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_descriptor_has_no_modifiers() {
        let d = Descriptor::default();
        assert!(!d.mask_complement && !d.mask_structure && !d.transpose_a && !d.transpose_b);
    }

    #[test]
    fn builders_compose() {
        let d = Descriptor::new().with_mask_complement().with_transpose_a();
        assert!(d.mask_complement);
        assert!(d.transpose_a);
        assert!(!d.transpose_b);
    }
}
