//! VDX parsing and validation errors.

use std::error::Error;
use std::fmt;

/// Errors raised while parsing, validating or building from a VDX spec.
#[derive(Debug)]
#[non_exhaustive]
pub enum VdxError {
    /// The document is not valid JSON or misses required fields.
    Parse(serde_json::Error),
    /// The document parsed but violates a semantic rule of §6.
    Invalid {
        /// The offending field.
        field: &'static str,
        /// Why the combination is rejected.
        reason: String,
    },
}

impl fmt::Display for VdxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VdxError::Parse(e) => write!(f, "invalid vdx document: {e}"),
            VdxError::Invalid { field, reason } => {
                write!(f, "invalid vdx specification: field `{field}`: {reason}")
            }
        }
    }
}

impl Error for VdxError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VdxError::Parse(e) => Some(e),
            VdxError::Invalid { .. } => None,
        }
    }
}

impl From<serde_json::Error> for VdxError {
    fn from(e: serde_json::Error) -> Self {
        VdxError::Parse(e)
    }
}

/// The error of a VDX enum's `TryFrom<&str>`: a spelling that names none
/// of its variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidName {
    /// The enum read, e.g. `HistoryKind`.
    pub kind: &'static str,
    /// The spelling given.
    pub name: String,
}

impl fmt::Display for InvalidName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {} name `{}`", self.kind, self.name)
    }
}

impl Error for InvalidName {}

impl VdxError {
    pub(crate) fn invalid(field: &'static str, reason: impl Into<String>) -> Self {
        VdxError::Invalid {
            field,
            reason: reason.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_field() {
        let e = VdxError::invalid("history", "hybrid unavailable for categorical values");
        let s = e.to_string();
        assert!(s.contains("history"));
        assert!(s.contains("hybrid"));
    }

    #[test]
    fn parse_error_has_source() {
        let parse_err = serde_json::from_str("{").unwrap_err();
        let e = VdxError::from(parse_err);
        assert!(e.source().is_some());
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VdxError>();
    }
}
