//! Offline shim for `serde_json`.
//!
//! JSON text is parsed into and printed from one self-describing tree,
//! [`Value`]. Only the API surface the workspace uses is provided:
//! [`from_str`], [`to_string_pretty`], [`Value`] (whose `Display` is compact
//! JSON), [`Map`] and [`Error`]. There is no reflection: a type that reads
//! or writes JSON maps itself to and from a [`Value`] by hand.

#![forbid(unsafe_code)]

use std::fmt;
use std::io;
use std::ops::Index;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// JSON `null`.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

/// An object's entries in document order. A key the document gives twice
/// is kept twice: [`Map::get`] finds the first, [`Map::iter`] shows both,
/// so a reader that must refuse repeats can.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The first value given for `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Iterates entries in document order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&String, &Value)> {
        self.into_iter()
    }

    /// Iterates keys in document order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }
}

impl From<Vec<(String, Value)>> for Map {
    fn from(entries: Vec<(String, Value)>) -> Self {
        Map { entries }
    }
}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a String, &'a Value);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (String, Value)>,
        fn(&'a (String, Value)) -> (&'a String, &'a Value),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

static NULL: Value = Value::Null;

impl Value {
    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(v) => Some(v as f64),
            Value::I64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The number as `u64`, if it is a non-negative integral number
    /// (`2.0` counts; `-1` and `2.5` do not).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(v) => Some(v),
            Value::I64(v) if v >= 0 => Some(v as u64),
            Value::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// The number as `i64`, if it is an integral number in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::U64(v) if v <= i64::MAX as u64 => Some(v as i64),
            Value::I64(v) => Some(v),
            Value::F64(v)
                if v.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&v) =>
            {
                Some(v as i64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array, if this is one.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The object, if this is one.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
}

impl Index<&str> for Value {
    type Output = Value;

    /// The field's value; `null` for non-objects and missing keys.
    fn index(&self, key: &str) -> &Value {
        self.as_object().and_then(|m| m.get(key)).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;

    /// The element; `null` for non-arrays and indices past the end.
    fn index(&self, idx: usize) -> &Value {
        self.as_array().and_then(|v| v.get(idx)).unwrap_or(&NULL)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

/// A JSON error: a syntax failure from the parser, with the byte offset
/// where it was found, or a shape failure from a reader that maps a
/// [`Value`] into a type.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    /// A shape failure with a reader's own message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error {
            msg: msg.to_string(),
        }
    }

    fn syntax(msg: impl fmt::Display, offset: usize) -> Self {
        Error::custom(format!("JSON syntax error at byte {offset}: {msg}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<Error> for io::Error {
    fn from(e: Error) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Parses JSON text.
///
/// # Errors
///
/// [`Error`] on malformed JSON or trailing characters.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::syntax("trailing characters", p.pos));
    }
    Ok(value)
}

/// Renders a value as 2-space-indented JSON.
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(value, Some(0), &mut out);
    out
}

impl fmt::Display for Value {
    /// Compact JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(self, None, &mut out);
        f.write_str(&out)
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_number(v: f64, out: &mut String) {
    if v.is_finite() {
        if v.fract() == 0.0 && v.abs() < 1e15 {
            out.push_str(&format!("{:.1}", v));
        } else {
            out.push_str(&format!("{v}"));
        }
    } else {
        // JSON has no Inf/NaN; match serde_json's lossy `null`.
        out.push_str("null");
    }
}

/// Writes `value` compact when `depth` is `None`, else indented as an
/// element `depth` levels deep.
fn write_value(value: &Value, depth: Option<usize>, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(v) => out.push_str(&v.to_string()),
        Value::I64(v) => out.push_str(&v.to_string()),
        Value::F64(v) => write_number(*v, out),
        Value::String(s) => write_string(s, out),
        Value::Array(items) => write_items(('[', ']'), items.iter().map(|v| (None, v)), depth, out),
        Value::Object(m) => {
            write_items(('{', '}'), m.iter().map(|(k, v)| (Some(k), v)), depth, out)
        }
    }
}

fn write_items<'a>(
    (open, close): (char, char),
    items: impl ExactSizeIterator<Item = (Option<&'a String>, &'a Value)>,
    depth: Option<usize>,
    out: &mut String,
) {
    let indent = |depth: usize, out: &mut String| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    };
    out.push(open);
    let empty = items.len() == 0;
    for (i, (key, value)) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = depth {
            indent(d + 1, out);
        }
        if let Some(key) = key {
            write_string(key, out);
            out.push_str(if depth.is_some() { ": " } else { ":" });
        }
        write_value(value, depth.map(|d| d + 1), out);
    }
    if let (Some(d), false) = (depth, empty) {
        indent(d, out);
    }
    out.push(close);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::syntax(format!("expected `{}`", b as char), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::syntax(format!("expected `{word}`"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(Error::syntax(
                format!("unexpected character `{}`", c as char),
                self.pos,
            )),
            None => Err(Error::syntax("unexpected end of input", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::syntax("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(Map::from(entries)));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(Map::from(entries)));
                }
                _ => return Err(Error::syntax("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::syntax("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| Error::syntax("bad \\u escape", self.pos))?;
                            // Surrogate pairs are rejected rather than combined;
                            // the workspace never emits them.
                            let c = char::from_u32(hex).ok_or_else(|| {
                                Error::syntax("\\u escape is not a scalar value", self.pos)
                            })?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(Error::syntax("bad escape", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape in one
                    // step. Both are ASCII, so the run ends on a char
                    // boundary of the &str.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::syntax("invalid number", start))?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::syntax(format!("invalid number `{text}`"), start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = r#"{"a": [1, -2, 3.5, "xü\n→y"], "b": {"c": true, "d": null}, "e": []}"#;
        let v = from_str(doc).unwrap();
        assert_eq!(v["a"][0].as_u64(), Some(1));
        assert_eq!(v["a"][1].as_i64(), Some(-2));
        assert_eq!(v["a"][2].as_f64(), Some(3.5));
        assert_eq!(v["a"][3], "xü\n→y");
        assert_eq!(v["b"]["c"].as_bool(), Some(true));
        assert!(v["b"]["d"].is_null());
        let compact = v.to_string();
        assert_eq!(
            compact,
            r#"{"a":[1,-2,3.5,"xü\n→y"],"b":{"c":true,"d":null},"e":[]}"#
        );
        assert_eq!(from_str(&compact).unwrap(), v);
    }

    #[test]
    fn syntax_error_names_its_offset() {
        let err = from_str("{").unwrap_err();
        assert_eq!(
            err.to_string(),
            "JSON syntax error at byte 1: expected `\"`"
        );
    }

    #[test]
    fn pretty_printing_indents_and_is_reparseable() {
        let v = from_str(r#"{"k": [1, 2.0], "s": "hi", "o": {}}"#).unwrap();
        let pretty = to_string_pretty(&v);
        assert_eq!(
            pretty,
            "{\n  \"k\": [\n    1,\n    2.0\n  ],\n  \"s\": \"hi\",\n  \"o\": {}\n}"
        );
        assert_eq!(from_str(&pretty).unwrap(), v);
    }

    #[test]
    fn a_repeated_key_is_kept_for_the_reader_to_see() {
        let v = from_str(r#"{"k": 1, "k": 2}"#).unwrap();
        let m = v.as_object().unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(v["k"].as_u64(), Some(1));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str("1 2").is_err());
    }
}
