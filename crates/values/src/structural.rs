//! Structural ("grounding") types of parameters and values.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The structural data type of a parameter or value — the paper's `str(i)`.
///
/// The paper names `String` and `Integer` as examples; scientific modules in
/// the evaluated corpus additionally exchange floats, booleans and lists
/// (e.g. a list of peptide masses, a list of homologous accessions). Nested
/// lists are allowed (`List(List(Float))`) although the generated universe
/// only uses one level. The order is the declaration order of the
/// variants; it sorts parameter labels canonically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum StructuralType {
    /// UTF-8 text. All flat-file formats ground to `Text`.
    Text,
    /// 64-bit signed integer.
    Integer,
    /// 64-bit float.
    Float,
    /// Boolean flag.
    Boolean,
    /// Homogeneous list of the inner type.
    List(Box<StructuralType>),
}

impl StructuralType {
    /// Convenience constructor for a list type.
    pub fn list_of(inner: StructuralType) -> Self {
        StructuralType::List(Box::new(inner))
    }

    /// Structural compatibility, as required when selecting pool instances
    /// for a parameter (§3.2: "the data structure … of the instances selected
    /// need to be compatible with the data structure of the input parameter").
    ///
    /// Compatibility is exact equality except that an `Integer` may feed a
    /// `Float` parameter (a lossless widening every service toolkit the paper
    /// surveys performs implicitly), recursively inside lists.
    pub fn accepts(&self, actual: &StructuralType) -> bool {
        match (self, actual) {
            (StructuralType::Float, StructuralType::Integer) => true,
            (StructuralType::List(a), StructuralType::List(b)) => a.accepts(b),
            (a, b) => a == b,
        }
    }

    /// Nesting depth: 0 for scalars, 1 + inner depth for lists.
    pub fn depth(&self) -> usize {
        match self {
            StructuralType::List(inner) => 1 + inner.depth(),
            _ => 0,
        }
    }

    /// The scalar type at the bottom of any list nesting.
    pub fn scalar(&self) -> &StructuralType {
        match self {
            StructuralType::List(inner) => inner.scalar(),
            other => other,
        }
    }
}

impl fmt::Display for StructuralType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructuralType::Text => write!(f, "Text"),
            StructuralType::Integer => write!(f, "Integer"),
            StructuralType::Float => write!(f, "Float"),
            StructuralType::Boolean => write!(f, "Boolean"),
            StructuralType::List(inner) => write!(f, "List<{inner}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_nested_lists() {
        let t = StructuralType::list_of(StructuralType::list_of(StructuralType::Float));
        assert_eq!(t.to_string(), "List<List<Float>>");
    }

    #[test]
    fn accepts_is_reflexive() {
        for t in [
            StructuralType::Text,
            StructuralType::Integer,
            StructuralType::Float,
            StructuralType::Boolean,
            StructuralType::list_of(StructuralType::Text),
        ] {
            assert!(t.accepts(&t), "{t} should accept itself");
        }
    }

    #[test]
    fn integer_widens_to_float_but_not_back() {
        assert!(StructuralType::Float.accepts(&StructuralType::Integer));
        assert!(!StructuralType::Integer.accepts(&StructuralType::Float));
    }

    #[test]
    fn widening_applies_inside_lists() {
        let floats = StructuralType::list_of(StructuralType::Float);
        let ints = StructuralType::list_of(StructuralType::Integer);
        assert!(floats.accepts(&ints));
        assert!(!ints.accepts(&floats));
    }

    #[test]
    fn text_and_boolean_do_not_cross() {
        assert!(!StructuralType::Text.accepts(&StructuralType::Boolean));
        assert!(!StructuralType::Boolean.accepts(&StructuralType::Text));
    }

    #[test]
    fn depth_and_scalar() {
        let t = StructuralType::list_of(StructuralType::list_of(StructuralType::Integer));
        assert_eq!(t.depth(), 2);
        assert_eq!(*t.scalar(), StructuralType::Integer);
        assert_eq!(StructuralType::Text.depth(), 0);
    }
}
