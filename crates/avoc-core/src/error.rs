//! Error types for the voting core.

use std::error::Error;
use std::fmt;

/// Errors produced while evaluating a voting round.
///
/// The paper's fault scenarios (§7) map onto these variants: *missing values*
/// beyond quorum become [`VoteError::NoQuorum`], and *conflicting results*
/// the tie-break policy refused to resolve become [`VoteError::Tie`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VoteError {
    /// The round contained no usable ballots at all.
    EmptyRound,
    /// Fewer candidates submitted values than the quorum policy requires.
    NoQuorum {
        /// Number of candidates that did submit a value.
        present: usize,
        /// Number of candidates the quorum policy requires.
        required: usize,
    },
    /// A ballot carried a value of the wrong kind for this voter
    /// (e.g. a categorical string submitted to a numeric voter).
    TypeMismatch {
        /// The value kind the voter expects.
        expected: &'static str,
        /// The value kind that was submitted.
        got: &'static str,
    },
    /// A vector ballot did not match the voter's dimensionality.
    DimensionMismatch {
        /// Expected dimensionality.
        expected: usize,
        /// Dimensionality of the offending ballot.
        got: usize,
    },
    /// An unresolvable tie between candidate outputs.
    Tie {
        /// The tied candidate outputs, for diagnostics.
        candidates: Vec<String>,
    },
}

impl fmt::Display for VoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VoteError::EmptyRound => write!(f, "round contains no usable ballots"),
            VoteError::NoQuorum { present, required } => write!(
                f,
                "quorum not reached: {present} candidates present, {required} required"
            ),
            VoteError::TypeMismatch { expected, got } => {
                write!(f, "value type mismatch: expected {expected}, got {got}")
            }
            VoteError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "vector dimension mismatch: expected {expected}, got {got}"
                )
            }
            VoteError::Tie { candidates } => {
                write!(
                    f,
                    "unresolvable tie between {} candidates",
                    candidates.len()
                )
            }
        }
    }
}

impl Error for VoteError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = VoteError::NoQuorum {
            present: 2,
            required: 5,
        };
        let s = e.to_string();
        assert!(s.contains('2') && s.contains('5'));
        assert!(s.starts_with(char::is_lowercase));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VoteError>();
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn Error> = Box::new(VoteError::EmptyRound);
        assert_eq!(e.to_string(), "round contains no usable ballots");
    }
}
