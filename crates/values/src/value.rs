//! Concrete data values exchanged by scientific modules.

use crate::structural::StructuralType;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A concrete data value: the `ins` of the paper's `⟨i, insᵢ⟩` pairs.
///
/// Values flow through module invocations, workflow enactments, provenance
/// traces, annotated instance pools and data examples, so they need cheap
/// equality and hashing. Floats are compared and hashed by their bit pattern
/// (two NaNs with the same bits are equal), which gives us a lawful `Eq`
/// without banning floats — module output comparison in the matcher (§6)
/// relies on this.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Absent / optional value ("some of the input parameters may be
    /// associated with null (or default) values", §2).
    Null,
    /// UTF-8 text, including every flat-file format.
    Text(String),
    Integer(i64),
    Float(f64),
    Boolean(bool),
    /// Homogeneous list. Homogeneity is maintained by construction in this
    /// codebase, not enforced by the type.
    List(Vec<Value>),
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Integer(a), Value::Integer(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Boolean(a), Value::Boolean(b)) => a == b,
            (Value::List(a), Value::List(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Text(s) => s.hash(state),
            Value::Integer(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Boolean(b) => b.hash(state),
            Value::List(items) => {
                items.len().hash(state);
                for item in items {
                    item.hash(state);
                }
            }
        }
    }
}

impl Value {
    /// Builds a text value.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// The structural type of this value, or `None` for `Null` (null carries
    /// no structure) and for empty lists (element type unknowable).
    pub fn structural_type(&self) -> Option<StructuralType> {
        match self {
            Value::Null => None,
            Value::Text(_) => Some(StructuralType::Text),
            Value::Integer(_) => Some(StructuralType::Integer),
            Value::Float(_) => Some(StructuralType::Float),
            Value::Boolean(_) => Some(StructuralType::Boolean),
            Value::List(items) => {
                let inner = items.first()?.structural_type()?;
                Some(StructuralType::list_of(inner))
            }
        }
    }

    /// Whether this value can feed a parameter of the given structural type.
    ///
    /// `Null` is accepted everywhere (optional parameters); an empty list is
    /// accepted by every list type.
    pub fn conforms_to(&self, ty: &StructuralType) -> bool {
        match self {
            Value::Null => true,
            Value::List(items) => match ty {
                StructuralType::List(inner) => items.iter().all(|v| v.conforms_to(inner)),
                _ => false,
            },
            _ => match self.structural_type() {
                Some(actual) => ty.accepts(&actual),
                None => false,
            },
        }
    }

    /// True for `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Borrows the inner text of a `Text` value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view: integers widen to floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Integer(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrows the elements of a `List` value.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// A short, single-line rendering for logs and data-example displays:
    /// long text is elided in the middle, lists show their first elements.
    pub fn preview(&self, max_len: usize) -> String {
        let full = self.to_string();
        if full.chars().count() <= max_len || max_len < 8 {
            return full;
        }
        let head: String = full.chars().take(max_len - 5).collect();
        let tail: String = {
            let chars: Vec<char> = full.chars().collect();
            chars[chars.len() - 3..].iter().collect()
        };
        format!("{head}…{tail}")
    }

    /// Approximate in-memory payload size in bytes, used by pool statistics.
    pub fn payload_bytes(&self) -> usize {
        match self {
            Value::Null => 0,
            Value::Text(s) => s.len(),
            Value::Integer(_) | Value::Float(_) => 8,
            Value::Boolean(_) => 1,
            Value::List(items) => items.iter().map(Value::payload_bytes).sum(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Text(s) => {
                // Single-line rendering: newlines become ⏎ so data examples
                // stay tabular.
                if s.contains('\n') {
                    write!(f, "{}", s.replace('\n', "⏎"))
                } else {
                    write!(f, "{s}")
                }
            }
            Value::Integer(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Integer(i)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Boolean(b)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::List(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equality_distinguishes_variants() {
        assert_ne!(Value::Integer(1), Value::Float(1.0));
        assert_ne!(Value::Text("1".into()), Value::Integer(1));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn float_equality_is_bitwise() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(hash_of(&Value::Float(2.5)), hash_of(&Value::Float(2.5)));
    }

    #[test]
    fn equal_values_hash_equal() {
        let a = Value::List(vec![Value::Integer(1), Value::text("x")]);
        let b = Value::List(vec![Value::Integer(1), Value::text("x")]);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn structural_type_of_values() {
        assert_eq!(
            Value::text("hi").structural_type(),
            Some(StructuralType::Text)
        );
        assert_eq!(Value::Null.structural_type(), None);
        assert_eq!(Value::List(vec![]).structural_type(), None);
        assert_eq!(
            Value::from(vec![1i64, 2]).structural_type(),
            Some(StructuralType::list_of(StructuralType::Integer))
        );
    }

    #[test]
    fn conformance_rules() {
        assert!(Value::Null.conforms_to(&StructuralType::Text));
        assert!(Value::List(vec![]).conforms_to(&StructuralType::list_of(StructuralType::Float)));
        assert!(!Value::List(vec![]).conforms_to(&StructuralType::Text));
        // Integer elements widen into float lists.
        assert!(
            Value::from(vec![1i64, 2]).conforms_to(&StructuralType::list_of(StructuralType::Float))
        );
        assert!(!Value::from(vec![1.5f64])
            .conforms_to(&StructuralType::list_of(StructuralType::Integer)));
    }

    #[test]
    fn display_is_single_line() {
        let v = Value::text("line1\nline2");
        assert!(!v.to_string().contains('\n'));
        let list = Value::from(vec![1i64, 2, 3]);
        assert_eq!(list.to_string(), "[1, 2, 3]");
    }

    #[test]
    fn preview_elides_long_text() {
        let v = Value::text("x".repeat(100));
        let p = v.preview(20);
        assert!(p.chars().count() <= 21, "{p}");
        assert!(p.contains('…'));
        assert_eq!(Value::text("short").preview(20), "short");
    }

    #[test]
    fn numeric_views_widen() {
        assert_eq!(Value::Integer(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_i64(), None);
        assert_eq!(Value::Boolean(true).as_bool(), Some(true));
    }

    #[test]
    fn payload_bytes_sums_lists() {
        let v = Value::List(vec![Value::text("abcd"), Value::Integer(1)]);
        assert_eq!(v.payload_bytes(), 12);
    }

    #[test]
    fn serde_round_trip() {
        let v = Value::List(vec![
            Value::Null,
            Value::text("P12345"),
            Value::Float(1.5),
            Value::Boolean(false),
        ]);
        let json = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }
}
