//! Operation descriptors (`GrB_Descriptor`).
//!
//! A descriptor modifies how an operation treats its mask: complement it,
//! or use only its structure. rgbench's ladder only (its complemented,
//! structural `vxm` mask); T9a deletes.

/// Per-call modifiers for GraphBLAS operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Descriptor {
    /// Use the complement of the mask (`GrB_COMP`): entries *not* present (or
    /// false) in the mask are computed.
    pub mask_complement: bool,
    /// Use only the structure of the mask (`GrB_STRUCTURE`): any stored entry
    /// counts, regardless of its value.
    pub mask_structure: bool,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_descriptor_has_no_modifiers() {
        let d = Descriptor::default();
        assert!(!d.mask_complement && !d.mask_structure);
    }

    #[test]
    fn builders_compose() {
        let d = Descriptor::new().with_mask_complement();
        assert!(d.mask_complement);
        assert!(!d.mask_structure);
        let d = d.with_mask_structure();
        assert!(d.mask_complement && d.mask_structure);
    }
}
