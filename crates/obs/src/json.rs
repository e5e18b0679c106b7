//! Minimal hand-rolled JSON: enough writer and parser for the event
//! rows, manifests and trace records this workspace produces.
//!
//! Why not serde_json: the workspace builds with no registry access
//! (see the offline-crates policy note in `resq-cli`), so everything
//! the build needs lives in-tree. The subset implemented here is
//! complete for the flat-ish documents we emit: objects, arrays,
//! strings with standard escapes, numbers, booleans and null. Numbers
//! are kept as their raw text on parse, so `u64` values above 2^53
//! survive a round trip exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its raw text so integer precision survives.
    Number(String),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is not preserved (keys sorted).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Member lookup, if the value is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The members in key order, if the value is an object.
    pub fn entries(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }

    /// Compact single-line rendering (canonical for scalars; objects and
    /// arrays re-serialize with sorted keys). Used by `obs diff` to show
    /// values and by tests; not guaranteed byte-identical to the input.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            JsonValue::Number(raw) => out.push_str(raw),
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Error from [`parse`]: byte offset and a short message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the problem in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// garbage is an error.
pub fn parse(input: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, text: &str, message: &'static str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => {
                self.literal("true", "expected `true`")?;
                Ok(JsonValue::Bool(true))
            }
            Some(b'f') => {
                self.literal("false", "expected `false`")?;
                Ok(JsonValue::Bool(false))
            }
            Some(b'n') => {
                self.literal("null", "expected `null`")?;
                Ok(JsonValue::Null)
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{', "expected `{`")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected `:` after object key")?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[', "expected `[`")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected `\"`")?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by this
                            // workspace; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape character")),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the whole code point.
                    let start = self.pos - 1;
                    let width = utf8_width(c);
                    self.pos = start + width;
                    let s = std::str::from_utf8(
                        self.bytes
                            .get(start..start + width)
                            .ok_or_else(|| self.err("truncated UTF-8 sequence"))?,
                    )
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if raw.is_empty() || raw == "-" {
            return Err(self.err("malformed number"));
        }
        Ok(JsonValue::Number(raw.to_string()))
    }
}

fn utf8_width(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Appends a JSON string literal (quotes + escapes) for `s` to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats an `f64` so it round-trips: Rust's shortest-representation
/// `Display` (integer-valued floats print without a fraction, which is
/// still a valid JSON number), with non-finite values mapped to `null`
/// (JSON has no NaN/Infinity).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_object() {
        let v = parse(r#"{"a": 1, "b": -2.5e3, "c": "x\ny", "d": true, "e": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_f64(), Some(-2500.0));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&JsonValue::Null));
    }

    #[test]
    fn parses_nested_arrays_and_objects() {
        let v = parse(r#"{"rows": [{"k": 1}, {"k": 2}], "empty": [], "o": {}}"#).unwrap();
        match v.get("rows").unwrap() {
            JsonValue::Array(rows) => {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1].get("k").unwrap().as_u64(), Some(2));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn large_u64_round_trips_exactly() {
        let n = u64::MAX - 3;
        let v = parse(&format!("{{\"bytes\": {n}}}")).unwrap();
        assert_eq!(v.get("bytes").unwrap().as_u64(), Some(n));
    }

    #[test]
    fn escapes_round_trip() {
        let mut out = String::new();
        write_escaped(&mut out, "quote\" slash\\ nl\n tab\t ctrl\u{1}");
        let v = parse(&out).unwrap();
        assert_eq!(v.as_str(), Some("quote\" slash\\ nl\n tab\t ctrl\u{1}"));
    }

    #[test]
    fn f64_writer_round_trips() {
        for x in [
            0.0,
            -0.0,
            1.5,
            1.0 / 3.0,
            1e-300,
            2.2250738585072014e-308,
            12345.0,
        ] {
            let mut out = String::new();
            write_f64(&mut out, x);
            let back: f64 = out.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {out}");
        }
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("nulll").is_err());
        assert!(parse("-").is_err());
    }

    #[test]
    fn utf8_passthrough() {
        let v = parse("{\"s\": \"héllo ✓\"}").unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("héllo ✓"));
    }
}
