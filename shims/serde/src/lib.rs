//! Offline shim for the `serde` crate (the subset this workspace uses).
//!
//! Instead of serde's visitor architecture, serialization goes through an
//! owned JSON-like [`Content`] tree: `Serialize` renders a value into a
//! `Content`, `Deserialize` rebuilds a value from one. `serde_json` (the
//! sibling shim) converts `Content` to and from JSON text. The derive macros
//! are re-exported from the `serde_derive` shim and target these traits.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

pub use serde_derive::{Deserialize, Serialize};

/// An owned, JSON-shaped data tree — the interchange format between the
/// `Serialize`/`Deserialize` traits and text formats.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Seq(Vec<Content>),
    /// Insertion-ordered map (JSON object).
    Map(Vec<(String, Content)>),
}

impl Content {
    /// The entries of a map, if this is one.
    pub fn as_map(&self) -> Option<&[(String, Content)]> {
        match self {
            Content::Map(m) => Some(m),
            _ => None,
        }
    }

    /// The elements of a sequence, if this is one.
    pub fn as_seq(&self) -> Option<&[Content]> {
        match self {
            Content::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Content::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Map lookup by key (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Content> {
        self.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// A short description of the content's shape, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Content::Null => "null",
            Content::Bool(_) => "bool",
            Content::Int(_) => "integer",
            Content::UInt(_) => "integer",
            Content::Float(_) => "float",
            Content::Str(_) => "string",
            Content::Seq(_) => "sequence",
            Content::Map(_) => "map",
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl DeError {
    /// Builds an error from any displayable message.
    pub fn custom(msg: impl std::fmt::Display) -> Self {
        DeError(msg.to_string())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Renders `self` into a [`Content`] tree.
pub trait Serialize {
    fn to_content(&self) -> Content;
}

/// Rebuilds `Self` from a [`Content`] tree.
pub trait Deserialize: Sized {
    fn from_content(content: &Content) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Bool(b) => Ok(*b),
            other => Err(DeError::custom(format!(
                "expected bool, got {}",
                other.kind()
            ))),
        }
    }
}

macro_rules! impl_serde_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let wide: i128 = match c {
                    Content::Int(i) => *i as i128,
                    Content::UInt(u) => *u as i128,
                    other => {
                        return Err(DeError::custom(format!(
                            "expected integer, got {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError::custom(format!("integer {wide} out of range")))
            }
        }
    )*};
}
impl_serde_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_serde_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let wide: i128 = match c {
                    Content::Int(i) => *i as i128,
                    Content::UInt(u) => *u as i128,
                    other => {
                        return Err(DeError::custom(format!(
                            "expected integer, got {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError::custom(format!("integer {wide} out of range")))
            }
        }
    )*};
}
impl_serde_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Float(f) => Ok(*f),
            Content::Int(i) => Ok(*i as f64),
            Content::UInt(u) => Ok(*u as f64),
            other => Err(DeError::custom(format!(
                "expected float, got {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for f32 {
    fn to_content(&self) -> Content {
        Content::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        f64::from_content(c).map(|f| f as f32)
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Str(s) => Ok(s.clone()),
            other => Err(DeError::custom(format!(
                "expected string, got {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Serialize for Arc<str> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl Deserialize for Arc<str> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_str()
            .map(Arc::from)
            .ok_or_else(|| DeError::custom(format!("expected string, got {}", c.kind())))
    }
}

impl Serialize for char {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let s = String::from_content(c)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(ch), None) => Ok(ch),
            _ => Err(DeError::custom("expected single-char string")),
        }
    }
}

// ---------------------------------------------------------------------------
// Composite impls
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            Some(v) => v.to_content(),
            None => Content::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        T::from_content(c).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Seq(items) => items.iter().map(T::from_content).collect(),
            other => Err(DeError::custom(format!(
                "expected sequence, got {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

macro_rules! impl_serde_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_content(&self) -> Content {
                Content::Seq(vec![$(self.$n.to_content()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let seq = c
                    .as_seq()
                    .ok_or_else(|| DeError::custom("expected sequence for tuple"))?;
                let mut it = seq.iter();
                Ok(($(
                    {
                        let _ = $n; // positional marker
                        $t::from_content(
                            it.next().ok_or_else(|| DeError::custom("tuple too short"))?,
                        )?
                    },
                )+))
            }
        }
    )*};
}
impl_serde_tuple!((0 A, 1 B)(0 A, 1 B, 2 C));

/// Map keys must serialize to a string (JSON object keys).
fn key_to_string<K: Serialize>(key: &K) -> String {
    match key.to_content() {
        Content::Str(s) => s,
        other => panic!("map keys must serialize to strings, got {}", other.kind()),
    }
}

fn key_from_string<K: Deserialize>(key: &str) -> Result<K, DeError> {
    K::from_content(&Content::Str(key.to_string()))
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(k, v)| (key_to_string(k), v.to_content()))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let map = c
            .as_map()
            .ok_or_else(|| DeError::custom(format!("expected map, got {}", c.kind())))?;
        map.iter()
            .map(|(k, v)| Ok((key_from_string(k)?, V::from_content(v)?)))
            .collect()
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn to_content(&self) -> Content {
        // Sorted for deterministic output.
        let mut entries: Vec<(String, Content)> = self
            .iter()
            .map(|(k, v)| (key_to_string(k), v.to_content()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Content::Map(entries)
    }
}

impl<K: Deserialize + std::hash::Hash + Eq, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let map = c
            .as_map()
            .ok_or_else(|| DeError::custom(format!("expected map, got {}", c.kind())))?;
        map.iter()
            .map(|(k, v)| Ok((key_from_string(k)?, V::from_content(v)?)))
            .collect()
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let seq = c
            .as_seq()
            .ok_or_else(|| DeError::custom(format!("expected sequence, got {}", c.kind())))?;
        seq.iter().map(T::from_content).collect()
    }
}

impl<T: Serialize> Serialize for HashSet<T> {
    fn to_content(&self) -> Content {
        let mut items: Vec<Content> = self.iter().map(Serialize::to_content).collect();
        items.sort_by_key(|c| format!("{c:?}"));
        Content::Seq(items)
    }
}

impl<T: Deserialize + std::hash::Hash + Eq> Deserialize for HashSet<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let seq = c
            .as_seq()
            .ok_or_else(|| DeError::custom(format!("expected sequence, got {}", c.kind())))?;
        seq.iter().map(T::from_content).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(i64::from_content(&42i64.to_content()), Ok(42));
        assert_eq!(u32::from_content(&7u32.to_content()), Ok(7));
        assert_eq!(bool::from_content(&true.to_content()), Ok(true));
        assert_eq!(
            String::from_content(&String::from("hi").to_content()),
            Ok(String::from("hi"))
        );
        assert_eq!(f64::from_content(&1.5f64.to_content()), Ok(1.5));
    }

    #[test]
    fn integer_widening_to_float() {
        assert_eq!(f64::from_content(&Content::Int(10)), Ok(10.0));
    }

    #[test]
    fn option_none_is_null() {
        let none: Option<i64> = None;
        assert_eq!(none.to_content(), Content::Null);
        assert_eq!(Option::<i64>::from_content(&Content::Null), Ok(None));
        assert_eq!(Option::<i64>::from_content(&Content::Int(3)), Ok(Some(3)));
    }

    #[test]
    fn vec_and_map_round_trip() {
        let v = vec![1i64, 2, 3];
        assert_eq!(Vec::<i64>::from_content(&v.to_content()), Ok(v));
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u64);
        m.insert("b".to_string(), 2u64);
        assert_eq!(
            BTreeMap::<String, u64>::from_content(&m.to_content()),
            Ok(m)
        );
    }

    #[test]
    fn out_of_range_integer_rejected() {
        assert!(u8::from_content(&Content::Int(300)).is_err());
        assert!(u32::from_content(&Content::Int(-1)).is_err());
    }

    #[test]
    fn shape_mismatch_reports_kinds() {
        let err = bool::from_content(&Content::Str("x".into())).unwrap_err();
        assert!(err.0.contains("expected bool"));
    }
}
