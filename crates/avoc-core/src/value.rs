//! The value model: what a candidate sensor/module can submit to a vote.
//!
//! VDX (§6 of the paper) distinguishes *numeric* values — on which the full
//! algorithm family operates — from *categorical* values (character strings,
//! JSON blobs), for which only history-weighted majority voting applies.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A single candidate value submitted to a voting round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum Value {
    /// A scalar numeric measurement (e.g. lumen, dBm).
    Number(f64),
    /// A multi-dimensional numeric measurement; voted per-dimension (§5).
    Vector(Vec<f64>),
    /// A categorical value: a string, a JSON blob, a discrete state.
    Text(String),
}

impl Value {
    /// A short static name of the value kind, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Number(_) => "number",
            Value::Vector(_) => "vector",
            Value::Text(_) => "text",
        }
    }

    /// Returns the scalar if this is a [`Value::Number`].
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the coordinates if this is a [`Value::Vector`].
    pub fn as_vector(&self) -> Option<&[f64]> {
        match self {
            Value::Vector(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the string if this is a [`Value::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Number(v) => write!(f, "{v}"),
            Value::Vector(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            Value::Text(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Number(v)
    }
}

impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Self {
        Value::Vector(v)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_kind() {
        let n = Value::Number(1.5);
        assert_eq!(n.as_number(), Some(1.5));
        assert_eq!(n.as_vector(), None);
        assert_eq!(n.kind(), "number");

        let v = Value::Vector(vec![1.0, 2.0]);
        assert_eq!(v.as_vector(), Some(&[1.0, 2.0][..]));
        assert_eq!(v.kind(), "vector");

        let t = Value::from("open");
        assert_eq!(t.as_text(), Some("open"));
        assert_eq!(t.kind(), "text");
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Value::Number(2.5).to_string(), "2.5");
        assert_eq!(Value::Vector(vec![1.0, 2.0]).to_string(), "[1, 2]");
        assert_eq!(Value::from("on").to_string(), "\"on\"");
    }

    #[test]
    fn serde_untagged_round_trip() {
        let v = Value::Number(18.25);
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(json, "18.25");
        assert_eq!(serde_json::from_str::<Value>(&json).unwrap(), v);

        let t = Value::from("lane-3");
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, "\"lane-3\"");
        assert_eq!(serde_json::from_str::<Value>(&json).unwrap(), t);

        let vec = Value::Vector(vec![1.0, -2.5]);
        let json = serde_json::to_string(&vec).unwrap();
        assert_eq!(serde_json::from_str::<Value>(&json).unwrap(), vec);
    }

    #[test]
    fn conversions_from_primitives() {
        let v: Value = 3.5.into();
        assert_eq!(v, Value::Number(3.5));
        let v: Value = vec![1.0].into();
        assert_eq!(v, Value::Vector(vec![1.0]));
        let v: Value = String::from("s").into();
        assert_eq!(v, Value::Text("s".into()));
    }
}
