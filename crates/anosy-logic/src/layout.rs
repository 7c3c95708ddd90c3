//! Secret layouts: the declared, bounded secret space a query ranges over.

use crate::{IntBox, Point, Range};
use std::fmt;

/// A single named field of a secret, together with its declared bounds.
///
/// ANOSY secrets are products of bounded integers (or enum/boolean fields encoded as integers,
/// §4.3); each field carries the bounds that define the global secret space, e.g. the 400×400
/// space of the location example or the bounds Mardziel et al. declare for each benchmark.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldSpec {
    name: String,
    lo: i64,
    hi: i64,
}

impl FieldSpec {
    /// Creates a field with the inclusive bounds `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(name: impl Into<String>, lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "field bounds must satisfy lo <= hi");
        FieldSpec { name: name.into(), lo, hi }
    }

    /// The field's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Inclusive lower bound.
    pub fn lo(&self) -> i64 {
        self.lo
    }

    /// Inclusive upper bound.
    pub fn hi(&self) -> i64 {
        self.hi
    }

    /// The field's bounds as a [`Range`].
    pub fn range(&self) -> Range {
        Range::new(self.lo, self.hi)
    }

    /// Number of admissible values for this field.
    pub fn cardinality(&self) -> u128 {
        self.range().count()
    }
}

impl fmt::Display for FieldSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}, {}]", self.name, self.lo, self.hi)
    }
}

/// The layout of a secret type: an ordered list of named, bounded integer fields.
///
/// The layout plays the role of the Haskell secret data type (`UserLoc`, the benchmark record
/// types, ...) plus the bounds that the paper inherits from Mardziel et al.'s benchmark suite.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SecretLayout {
    fields: Vec<FieldSpec>,
}

impl SecretLayout {
    /// Creates a layout directly from field specifications.
    pub fn new(fields: Vec<FieldSpec>) -> Self {
        SecretLayout { fields }
    }

    /// Starts building a layout field by field.
    pub fn builder() -> SecretLayoutBuilder {
        SecretLayoutBuilder::default()
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[FieldSpec] {
        &self.fields
    }

    /// The field at `index`, if it exists.
    pub fn field(&self, index: usize) -> Option<&FieldSpec> {
        self.fields.get(index)
    }

    /// Resolves a field name to its index.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// The full secret space as a box (the `⊤` knowledge of the paper).
    pub fn space(&self) -> IntBox {
        self.fields.iter().map(FieldSpec::range).collect()
    }

    /// Total number of possible secrets.
    pub fn space_size(&self) -> u128 {
        self.space().count()
    }

    /// Returns `true` if the point respects arity and every field's bounds.
    pub fn admits(&self, point: &Point) -> bool {
        point.arity() == self.arity()
            && self.fields.iter().zip(point.iter()).all(|(f, v)| f.lo <= v && v <= f.hi)
    }

    /// Clamps an arbitrary point of the right arity into the secret space.
    pub fn clamp(&self, point: &Point) -> Point {
        self.fields.iter().zip(point.iter()).map(|(f, v)| v.clamp(f.lo, f.hi)).collect()
    }
}

impl fmt::Display for SecretLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}")?;
        }
        write!(f, "}}")
    }
}

/// Builder for [`SecretLayout`].
#[derive(Debug, Default, Clone)]
pub struct SecretLayoutBuilder {
    fields: Vec<FieldSpec>,
}

impl SecretLayoutBuilder {
    /// Adds a bounded integer field.
    pub fn field(mut self, name: impl Into<String>, lo: i64, hi: i64) -> Self {
        self.fields.push(FieldSpec::new(name, lo, hi));
        self
    }

    /// Adds a boolean field encoded as `[0, 1]`.
    pub fn bool_field(self, name: impl Into<String>) -> Self {
        self.field(name, 0, 1)
    }

    /// Adds an enum field with `variants` values encoded as `[0, variants - 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `variants == 0`.
    pub fn enum_field(self, name: impl Into<String>, variants: u32) -> Self {
        assert!(variants > 0, "enum fields need at least one variant");
        self.field(name, 0, i64::from(variants) - 1)
    }

    /// Finalizes the layout.
    ///
    /// # Panics
    ///
    /// Panics if two fields share a name (names must be unique so the parser and reports are
    /// unambiguous).
    pub fn build(self) -> SecretLayout {
        for (i, f) in self.fields.iter().enumerate() {
            for g in &self.fields[i + 1..] {
                assert!(f.name != g.name, "duplicate field name: {}", f.name);
            }
        }
        SecretLayout::new(self.fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user_loc() -> SecretLayout {
        SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
    }

    #[test]
    fn arity_space_and_size() {
        let l = user_loc();
        assert_eq!(l.arity(), 2);
        assert_eq!(l.space_size(), 401 * 401);
        assert_eq!(l.space().dim(0), Range::new(0, 400));
    }

    #[test]
    fn field_lookup_by_name_and_index() {
        let l = user_loc();
        assert_eq!(l.index_of("y"), Some(1));
        assert_eq!(l.index_of("z"), None);
        assert_eq!(l.field(0).unwrap().name(), "x");
        assert!(l.field(2).is_none());
        assert_eq!(l.field(1).unwrap().cardinality(), 401);
    }

    #[test]
    fn admits_checks_bounds_and_arity() {
        let l = user_loc();
        assert!(l.admits(&Point::new(vec![300, 200])));
        assert!(!l.admits(&Point::new(vec![401, 0])));
        assert!(!l.admits(&Point::new(vec![1, 2, 3])));
    }

    #[test]
    fn clamp_projects_into_space() {
        let l = user_loc();
        assert_eq!(l.clamp(&Point::new(vec![-10, 900])), Point::new(vec![0, 400]));
        assert_eq!(l.clamp(&Point::new(vec![7, 8])), Point::new(vec![7, 8]));
    }

    #[test]
    fn bool_and_enum_fields() {
        let l = SecretLayout::builder()
            .bool_field("engaged")
            .enum_field("status", 4)
            .field("byear", 1900, 2010)
            .build();
        assert_eq!(l.space_size(), 2 * 4 * 111);
        assert_eq!(l.field(1).unwrap().hi(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate field name")]
    fn duplicate_field_names_are_rejected() {
        let _ = SecretLayout::builder().field("x", 0, 1).field("x", 0, 1).build();
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn inverted_bounds_are_rejected() {
        let _ = FieldSpec::new("x", 5, 4);
    }

    #[test]
    fn display_mentions_fields() {
        let l = user_loc();
        let s = l.to_string();
        assert!(s.contains("x: [0, 400]"));
        assert!(s.contains("y: [0, 400]"));
    }
}
