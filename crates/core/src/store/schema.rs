//! Schemas: the registries mapping label names, relationship type names and
//! attribute (property) names to dense integer ids. RedisGraph keeps one
//! matrix per label and per relationship type, so these ids index directly
//! into the graph's matrix arrays.

use std::collections::HashMap;

/// Dense id of a node label.
pub type LabelId = usize;
/// Dense id of a relationship type.
pub type RelTypeId = usize;
/// Dense id of a property key.
pub type AttributeId = usize;

/// Name ⇄ id registries for labels, relationship types and attributes.
#[derive(Debug, Default, Clone)]
pub struct Schema {
    labels: Vec<String>,
    label_ids: HashMap<String, LabelId>,
    rel_types: Vec<String>,
    rel_type_ids: HashMap<String, RelTypeId>,
    attributes: Vec<String>,
    attribute_ids: HashMap<String, AttributeId>,
}

impl Schema {
    /// Create an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the id for a label name.
    pub fn label_id_or_create(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.label_ids.get(name) {
            return id;
        }
        let id = self.labels.len();
        self.labels.push(name.to_string());
        self.label_ids.insert(name.to_string(), id);
        id
    }

    /// Look up a label id without creating it.
    pub fn label_id(&self, name: &str) -> Option<LabelId> {
        self.label_ids.get(name).copied()
    }

    /// Label name for an id.
    pub fn label_name(&self, id: LabelId) -> Option<&str> {
        self.labels.get(id).map(|s| s.as_str())
    }

    /// Get or create the id for a relationship type name.
    pub fn rel_type_id_or_create(&mut self, name: &str) -> RelTypeId {
        if let Some(&id) = self.rel_type_ids.get(name) {
            return id;
        }
        let id = self.rel_types.len();
        self.rel_types.push(name.to_string());
        self.rel_type_ids.insert(name.to_string(), id);
        id
    }

    /// Look up a relationship type id.
    pub fn rel_type_id(&self, name: &str) -> Option<RelTypeId> {
        self.rel_type_ids.get(name).copied()
    }

    /// Relationship type name for an id.
    pub fn rel_type_name(&self, id: RelTypeId) -> Option<&str> {
        self.rel_types.get(id).map(|s| s.as_str())
    }

    /// Get or create the id for an attribute (property key).
    pub fn attribute_id_or_create(&mut self, name: &str) -> AttributeId {
        if let Some(&id) = self.attribute_ids.get(name) {
            return id;
        }
        let id = self.attributes.len();
        self.attributes.push(name.to_string());
        self.attribute_ids.insert(name.to_string(), id);
        id
    }

    /// Look up an attribute id.
    pub fn attribute_id(&self, name: &str) -> Option<AttributeId> {
        self.attribute_ids.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut s = Schema::new();
        assert_eq!(s.label_id_or_create("Person"), 0);
        assert_eq!(s.label_id_or_create("Company"), 1);
        assert_eq!(s.label_id_or_create("Person"), 0);
        assert_eq!(s.label_name(1), Some("Company"));
        assert_eq!(s.label_id("Missing"), None);
    }

    #[test]
    fn rel_types_and_attributes_are_separate_namespaces() {
        let mut s = Schema::new();
        let knows = s.rel_type_id_or_create("KNOWS");
        let name = s.attribute_id_or_create("name");
        let person = s.label_id_or_create("KNOWS"); // same text, different namespace
        assert_eq!(knows, 0);
        assert_eq!(name, 0);
        assert_eq!(person, 0);
        assert_eq!(s.attribute_id("name"), Some(0));
        assert_eq!(s.rel_type_name(0), Some("KNOWS"));
    }
}
