//! Invocation outcomes.

use std::fmt;

/// Why a module invocation failed to terminate normally.
///
/// The generation heuristic (§3.2) cares about exactly one distinction:
/// *normal termination* (a `Vec<Value>` result) versus anything else — "when
/// generating data examples, we only consider the combinations that yield
/// normal termination of the module invocation". The variants exist so that
/// operators, workflow enactment and the repair verifier can report *why*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvocationError {
    /// Wrong number of input values supplied.
    Arity { expected: usize, got: usize },
    /// An input value does not conform to its parameter's structural type,
    /// or `Null` was fed to a mandatory parameter.
    BadInput { parameter: String, reason: String },
    /// The module executed but rejected the input combination (e.g. an
    /// accession that resolves to nothing, a sequence its algorithm cannot
    /// process). This is the "invalid combination" case of §3.2.
    Rejected { reason: String },
    /// The provider has withdrawn the module (workflow decay, §6).
    Unavailable,
    /// The module crashed on the inputs.
    Fault { reason: String },
}

impl fmt::Display for InvocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvocationError::Arity { expected, got } => {
                write!(f, "expected {expected} input values, got {got}")
            }
            InvocationError::BadInput { parameter, reason } => {
                write!(f, "bad value for input `{parameter}`: {reason}")
            }
            InvocationError::Rejected { reason } => {
                write!(f, "module rejected the inputs: {reason}")
            }
            InvocationError::Unavailable => {
                write!(f, "module is no longer supplied by its provider")
            }
            InvocationError::Fault { reason } => write!(f, "module fault: {reason}"),
        }
    }
}

impl std::error::Error for InvocationError {}

impl InvocationError {
    /// Convenience constructor for [`InvocationError::Rejected`].
    pub fn rejected(reason: impl Into<String>) -> Self {
        InvocationError::Rejected {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`InvocationError::Fault`].
    pub fn fault(reason: impl Into<String>) -> Self {
        InvocationError::Fault {
            reason: reason.into(),
        }
    }

    /// Whether the error describes a *state-dependent* failure that a later
    /// attempt may not reproduce.
    ///
    /// `Arity`, `BadInput` and `Rejected` are functions of the input vector
    /// alone — a deterministic module will fail the same way forever, so they
    /// are safe to memoize and pointless to retry. `Unavailable` depends on
    /// catalog/provider state (a withdrawn module can be restored, §6) and
    /// `Fault` models a crashed service call; both can succeed on a retry and
    /// must never be cached.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            InvocationError::Unavailable | InvocationError::Fault { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(InvocationError::Arity {
            expected: 2,
            got: 1
        }
        .to_string()
        .contains("expected 2"));
        assert!(InvocationError::rejected("no such accession")
            .to_string()
            .contains("no such accession"));
        assert!(InvocationError::Unavailable
            .to_string()
            .contains("no longer"));
        assert!(InvocationError::fault("boom").to_string().contains("boom"));
        assert!(InvocationError::BadInput {
            parameter: "seq".into(),
            reason: "not text".into()
        }
        .to_string()
        .contains("seq"));
    }

    #[test]
    fn taxonomy_splits_state_dependent_from_deterministic() {
        assert!(InvocationError::Unavailable.is_transient());
        assert!(InvocationError::fault("timeout").is_transient());
        assert!(!InvocationError::Arity {
            expected: 1,
            got: 0
        }
        .is_transient());
        assert!(!InvocationError::BadInput {
            parameter: "seq".into(),
            reason: "not text".into()
        }
        .is_transient());
        assert!(!InvocationError::rejected("no such accession").is_transient());
    }
}
