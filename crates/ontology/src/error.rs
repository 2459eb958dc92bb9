//! Error types for ontology construction and querying.

use std::fmt;

/// Errors produced while building, parsing or querying an ontology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OntologyError {
    /// A concept with this name was added twice.
    DuplicateConcept(String),
    /// A concept name was referenced but never defined.
    UnknownConcept(String),
    /// Adding the edge would have created a subsumption cycle.
    Cycle { child: String, ancestor: String },
    /// The text format was malformed at the given 1-based line.
    Parse { line: usize, message: String },
}

impl fmt::Display for OntologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OntologyError::DuplicateConcept(name) => {
                write!(f, "concept `{name}` is defined more than once")
            }
            OntologyError::UnknownConcept(name) => {
                write!(f, "concept `{name}` is not defined in this ontology")
            }
            OntologyError::Cycle { child, ancestor } => write!(
                f,
                "making `{child}` a sub-concept of `{ancestor}` would create a subsumption cycle"
            ),
            OntologyError::Parse { line, message } => {
                write!(f, "ontology text format error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for OntologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = OntologyError::DuplicateConcept("Protein".into());
        assert!(e.to_string().contains("Protein"));
        let e = OntologyError::Cycle {
            child: "A".into(),
            ancestor: "B".into(),
        };
        assert!(e.to_string().contains("cycle"));
        let e = OntologyError::Parse {
            line: 3,
            message: "bad".into(),
        };
        assert!(e.to_string().contains("line 3"));
        assert!(OntologyError::UnknownConcept("X".into())
            .to_string()
            .contains("not defined"));
    }
}
