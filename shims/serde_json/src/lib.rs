//! Offline shim for `serde_json`.
//!
//! JSON text is parsed into / printed from the shim serde's [`Content`]
//! model, which this crate re-exports as [`Value`]. Only the API surface the
//! workspace uses is provided: [`from_str`], [`to_string`],
//! [`to_string_pretty`], [`Value`], and [`Error`].

#![forbid(unsafe_code)]

use serde::content::Content;
use serde::de::Deserialize;
use serde::ser::Serialize;
use std::fmt;
use std::io;

/// A parsed JSON document (the shim serde's `Content` model).
pub type Value = serde::content::Content;

/// The object representation behind [`Value::as_object`].
pub type Map = serde::content::Map;

/// A JSON error: syntax failures from the parser or shape failures from
/// deserialization.
#[derive(Debug)]
pub struct Error {
    msg: String,
    source: Option<Box<dyn std::error::Error + Send + Sync>>,
}

impl Error {
    fn syntax(msg: impl fmt::Display, offset: usize) -> Self {
        Error {
            msg: format!("JSON syntax error at byte {offset}: {msg}"),
            source: Some(Box::new(SyntaxCause {
                offset,
                detail: msg.to_string(),
            })),
        }
    }

    fn data(e: serde::de::Error) -> Self {
        Error {
            msg: e.to_string(),
            source: Some(Box::new(e)),
        }
    }
}

/// The underlying cause attached to syntax errors so [`Error::source`]
/// reports where parsing failed.
#[derive(Debug)]
struct SyntaxCause {
    offset: usize,
    detail: String,
}

impl fmt::Display for SyntaxCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (byte {})", self.detail, self.offset)
    }
}

impl std::error::Error for SyntaxCause {}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source
            .as_deref()
            .map(|e| e as &(dyn std::error::Error + 'static))
    }
}

impl From<Error> for io::Error {
    fn from(e: Error) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Parses a value from JSON text.
///
/// # Errors
///
/// [`Error`] on malformed JSON or when the document does not match `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let content = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::syntax("trailing characters", p.pos));
    }
    T::from_content(&content).map_err(Error::data)
}

/// Renders a value as compact JSON.
///
/// # Errors
///
/// Infallible for the shim's data model; `Result` kept for API parity.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    print_compact(&value.to_content(), &mut out);
    Ok(out)
}

/// Renders a value as 2-space-indented JSON.
///
/// # Errors
///
/// Infallible for the shim's data model; `Result` kept for API parity.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    print_pretty(&value.to_content(), 0, &mut out);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

fn print_string(s: &str, out: &mut String) {
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

fn print_number(v: f64, out: &mut String) {
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

fn print_compact(c: &Content, out: &mut String) {
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::U64(v) => out.push_str(&v.to_string()),
        Content::I64(v) => out.push_str(&v.to_string()),
        Content::F64(v) => print_number(*v, out),
        Content::Str(s) => print_string(s, out),
        Content::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                print_compact(item, out);
            }
            out.push(']');
        }
        Content::Map(m) => {
            out.push('{');
            for (i, (k, v)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                print_string(k, out);
                out.push(':');
                print_compact(v, out);
            }
            out.push('}');
        }
    }
}

fn print_pretty(c: &Content, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent + 1);
    let close_pad = "  ".repeat(indent);
    match c {
        Content::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad);
                print_pretty(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&close_pad);
            out.push(']');
        }
        Content::Map(m) if !m.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in m.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad);
                print_string(k, out);
                out.push_str(": ");
                print_pretty(v, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&close_pad);
            out.push('}');
        }
        other => print_compact(other, out),
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
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

    fn literal(&mut self, word: &str, value: Content) -> Result<Content, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::syntax(format!("expected `{word}`"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Content, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Content::Null),
            Some(b't') => self.literal("true", Content::Bool(true)),
            Some(b'f') => self.literal("false", Content::Bool(false)),
            Some(b'"') => self.string().map(Content::Str),
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

    fn array(&mut self) -> Result<Content, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                _ => return Err(Error::syntax("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Content, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::obj(entries));
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
                    return Ok(Content::obj(entries));
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
                    // Consume one UTF-8 scalar (input is a &str, so valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::syntax("invalid UTF-8", self.pos))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Content, Error> {
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
                return Ok(Content::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Content::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Content::F64)
            .map_err(|_| Error::syntax(format!("invalid number `{text}`"), start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = r#"{"a": [1, -2, 3.5, "x\ny"], "b": {"c": true, "d": null}}"#;
        let v: Value = from_str(doc).unwrap();
        assert_eq!(v["a"][0], 1u64);
        assert_eq!(v["a"][1], -2i64);
        assert_eq!(v["a"][2], 3.5);
        assert_eq!(v["a"][3], "x\ny");
        assert_eq!(v["b"]["c"], true);
        assert!(v["b"]["d"].is_null());
        let printed = to_string(&v).unwrap();
        let back: Value = from_str(&printed).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn syntax_error_has_source_and_offset() {
        let err = from_str::<Value>("{").unwrap_err();
        assert!(std::error::Error::source(&err).is_some());
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn pretty_printing_is_reparseable() {
        let v: Value = from_str(r#"{"k": [1, 2], "s": "hi"}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<Value>("1 2").is_err());
    }
}
