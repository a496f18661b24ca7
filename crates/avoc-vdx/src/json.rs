//! VDX's JSON form, read from and written to a [`Value`] by hand.
//!
//! The reader refuses, at every depth, a key it does not know and a key
//! given twice: inline VDX comes from clients, and a misspelt
//! `learning_rte` that silently kept its default would change the voter
//! without a word. Absent fields take their defaults; `algorithm_name` and
//! `params.error` are required. An `Option` field reads `null` as `None`.

use crate::spec::{FaultPolicySpec, VdxParams, VdxSpec};
use serde_json::{Error, Map, Value};
use std::fmt;

/// Maps a parsed document into a [`VdxSpec`].
pub(crate) fn read(doc: &Value) -> Result<VdxSpec, Error> {
    let mut algorithm_name = None;
    let mut spec = VdxSpec::default();
    for (key, value) in fields(doc, "VdxSpec")? {
        match key.as_str() {
            "algorithm_name" => algorithm_name = Some(field(key, value, string)?),
            "quorum" => spec.quorum = field(key, value, name)?,
            "quorum_percentage" => {
                spec.quorum_percentage = field(key, value, |v| or_null(v, number))?
            }
            "quorum_count" => spec.quorum_count = field(key, value, |v| or_null(v, count))?,
            "exclusion" => spec.exclusion = field(key, value, name)?,
            "exclusion_threshold" => spec.exclusion_threshold = field(key, value, number)?,
            "exclusion_min" => spec.exclusion_min = field(key, value, |v| or_null(v, number))?,
            "exclusion_max" => spec.exclusion_max = field(key, value, |v| or_null(v, number))?,
            "history" => spec.history = field(key, value, name)?,
            "params" => spec.params = field(key, value, params)?,
            "collation" => spec.collation = field(key, value, name)?,
            "bootstrapping" => spec.bootstrapping = field(key, value, boolean)?,
            "value_kind" => spec.value_kind = field(key, value, name)?,
            "dimensions" => spec.dimensions = field(key, value, |v| or_null(v, count))?,
            "weighting" => spec.weighting = field(key, value, name)?,
            "fault_policy" => spec.fault_policy = field(key, value, fault_policy)?,
            _ => return Err(unknown(key)),
        }
    }
    spec.algorithm_name = algorithm_name.ok_or_else(|| missing("algorithm_name"))?;
    Ok(spec)
}

fn params(value: &Value) -> Result<VdxParams, Error> {
    let mut error = None;
    let mut params = VdxParams::default();
    for (key, value) in fields(value, "VdxParams")? {
        match key.as_str() {
            "error" => error = Some(field(key, value, number)?),
            "soft_threshold" => params.soft_threshold = field(key, value, number)?,
            "learning_rate" => params.learning_rate = field(key, value, number)?,
            "margin" => params.margin = field(key, value, name)?,
            _ => return Err(unknown(key)),
        }
    }
    params.error = error.ok_or_else(|| missing("error"))?;
    Ok(params)
}

fn fault_policy(value: &Value) -> Result<FaultPolicySpec, Error> {
    let mut policy = FaultPolicySpec::default();
    for (key, value) in fields(value, "FaultPolicySpec")? {
        match key.as_str() {
            "on_no_quorum" => policy.on_no_quorum = field(key, value, name)?,
            "on_voter_error" => policy.on_voter_error = field(key, value, name)?,
            "on_tie" => policy.on_tie = field(key, value, name)?,
            _ => return Err(unknown(key)),
        }
    }
    Ok(policy)
}

/// An object's entries, refusing a key given twice.
fn fields<'a>(
    value: &'a Value,
    what: &str,
) -> Result<impl Iterator<Item = (&'a String, &'a Value)>, Error> {
    let map = value
        .as_object()
        .ok_or_else(|| Error::custom(format!("expected an object for {what}, got {value}")))?;
    for (i, key) in map.keys().enumerate() {
        if map.keys().take(i).any(|k| k == key) {
            return Err(Error::custom(format!("duplicate field `{key}`")));
        }
    }
    Ok(map.iter())
}

/// Reads one field's value, naming the field in any error.
fn field<'a, T>(
    key: &str,
    value: &'a Value,
    read: impl FnOnce(&'a Value) -> Result<T, Error>,
) -> Result<T, Error> {
    read(value).map_err(|e| Error::custom(format!("field `{key}`: {e}")))
}

fn or_null<'a, T>(
    value: &'a Value,
    read: impl FnOnce(&'a Value) -> Result<T, Error>,
) -> Result<Option<T>, Error> {
    if value.is_null() {
        Ok(None)
    } else {
        read(value).map(Some)
    }
}

fn unknown(key: &str) -> Error {
    Error::custom(format!("unknown field `{key}`"))
}

fn missing(key: &str) -> Error {
    Error::custom(format!("missing field `{key}`"))
}

fn expected(what: &str, value: &Value) -> Error {
    Error::custom(format!("expected {what}, got {value}"))
}

fn string(value: &Value) -> Result<String, Error> {
    value
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| expected("a string", value))
}

fn number(value: &Value) -> Result<f64, Error> {
    value.as_f64().ok_or_else(|| expected("a number", value))
}

/// A non-negative integral number: `2.0` reads as 2; `-1` and `2.5` are
/// refused.
fn count(value: &Value) -> Result<usize, Error> {
    value
        .as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| expected("a non-negative integer", value))
}

fn boolean(value: &Value) -> Result<bool, Error> {
    value.as_bool().ok_or_else(|| expected("a boolean", value))
}

/// An enum by its VDX spelling.
fn name<'a, T>(value: &'a Value) -> Result<T, Error>
where
    T: TryFrom<&'a str>,
    T::Error: fmt::Display,
{
    let spelling = value.as_str().ok_or_else(|| expected("a name", value))?;
    T::try_from(spelling).map_err(Error::custom)
}

/// The document for `spec`, every field present and in declaration order.
pub(crate) fn write(spec: &VdxSpec) -> Value {
    let p = &spec.params;
    let f = &spec.fault_policy;
    object([
        ("algorithm_name", Value::String(spec.algorithm_name.clone())),
        ("quorum", spelling(spec.quorum)),
        (
            "quorum_percentage",
            spec.quorum_percentage.map(Value::F64).unwrap_or_default(),
        ),
        (
            "quorum_count",
            spec.quorum_count.map(unsigned).unwrap_or_default(),
        ),
        ("exclusion", spelling(spec.exclusion)),
        ("exclusion_threshold", Value::F64(spec.exclusion_threshold)),
        (
            "exclusion_min",
            spec.exclusion_min.map(Value::F64).unwrap_or_default(),
        ),
        (
            "exclusion_max",
            spec.exclusion_max.map(Value::F64).unwrap_or_default(),
        ),
        ("history", spelling(spec.history)),
        (
            "params",
            object([
                ("error", Value::F64(p.error)),
                ("soft_threshold", Value::F64(p.soft_threshold)),
                ("learning_rate", Value::F64(p.learning_rate)),
                ("margin", spelling(p.margin)),
            ]),
        ),
        ("collation", spelling(spec.collation)),
        ("bootstrapping", Value::Bool(spec.bootstrapping)),
        ("value_kind", spelling(spec.value_kind)),
        (
            "dimensions",
            spec.dimensions.map(unsigned).unwrap_or_default(),
        ),
        ("weighting", spelling(spec.weighting)),
        (
            "fault_policy",
            object([
                ("on_no_quorum", spelling(f.on_no_quorum)),
                ("on_voter_error", spelling(f.on_voter_error)),
                ("on_tie", spelling(f.on_tie)),
            ]),
        ),
    ])
}

fn object<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Object(Map::from(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect::<Vec<_>>(),
    ))
}

fn spelling(kind: impl Into<&'static str>) -> Value {
    Value::String(kind.into().to_owned())
}

fn unsigned(n: usize) -> Value {
    Value::U64(n as u64)
}

#[cfg(test)]
mod tests {
    use crate::{VdxError, VdxSpec};

    /// Each document names the key that must be refused.
    const REFUSED: [(&str, &str); 4] = [
        (
            r#"{"algorithm_name": "a", "params": {"error": 0.05, "learning_rte": 0.9}}"#,
            "learning_rte",
        ),
        (
            r#"{"algorithm_name": "a", "fault_policy": {"on_tei": "FIRST"}}"#,
            "on_tei",
        ),
        (
            r#"{"algorithm_name": "a", "history": "NONE", "history": "HYBRID"}"#,
            "history",
        ),
        (
            r#"{"algorithm_name": "a", "params": {"error": 0.05, "error": 0.5}}"#,
            "error",
        ),
    ];

    #[test]
    fn nested_unknown_and_repeated_keys_are_refused() {
        for (doc, key) in REFUSED {
            match VdxSpec::from_json(doc) {
                Err(VdxError::Parse(e)) => {
                    let msg = e.to_string();
                    assert!(msg.contains(&format!("`{key}`")), "{doc}: `{msg}`");
                }
                other => panic!("{doc}: expected a parse error, got {other:?}"),
            }
        }
    }

    /// Every enum spelling the schema lists, at the top level and inside
    /// `params` and `fault_policy`, reads and is written back the same.
    #[test]
    fn every_schema_spelling_reads_and_writes_back() {
        let schema = serde_json::from_str(crate::VDX_SCHEMA).expect("schema");
        let mut checked = 0;
        for (key, prop) in schema["properties"].as_object().expect("properties").iter() {
            let leaves: Vec<(Option<&String>, &serde_json::Value)> =
                match prop["properties"].as_object() {
                    Some(inner) => inner.iter().map(|(sub, leaf)| (Some(sub), leaf)).collect(),
                    None => vec![(None, prop)],
                };
            for (sub, leaf) in leaves {
                for spelling in leaf["enum"].as_array().into_iter().flatten() {
                    let spelling = spelling.as_str().expect("a string");
                    let doc = match sub {
                        None => format!(r#"{{"algorithm_name": "x", "{key}": "{spelling}"}}"#),
                        Some(sub) => {
                            let error = if key == "params" {
                                r#""error": 0.05, "#
                            } else {
                                ""
                            };
                            format!(
                                r#"{{"algorithm_name": "x", "{key}": {{{error}"{sub}": "{spelling}"}}}}"#
                            )
                        }
                    };
                    let spec = VdxSpec::from_json(&doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
                    let written = serde_json::from_str(&spec.to_json()).expect("written JSON");
                    let at = match sub {
                        None => &written[key.as_str()],
                        Some(sub) => &written[key.as_str()][sub.as_str()],
                    };
                    assert_eq!(at.as_str(), Some(spelling), "{doc}");
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 33);
    }
}
