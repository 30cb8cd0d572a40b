//! A self-contained JSON (RFC 8259) value type, parser and writer.
//!
//! Objects use `BTreeMap` so serialization order is deterministic — important
//! for reproducible tests and for wire forms that are pinned byte for byte.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Maximum nesting depth accepted by the parser; guards against stack
/// exhaustion from adversarial inputs (the platform parses messages from
/// untrusted field devices).
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
///
/// Numbers are stored as `f64`, like most dynamic JSON models; the NGSI layer
/// never needs integers beyond 2^53.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number.
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object with deterministic (sorted) key order.
    Object(BTreeMap<String, Json>),
}

/// Error produced by [`Json::parse`], with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseJsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseJsonError {}

impl Json {
    /// Parses a JSON document. The entire input must be consumed (trailing
    /// whitespace is allowed).
    ///
    /// # Errors
    /// Returns [`ParseJsonError`] on malformed input, trailing garbage, or
    /// nesting deeper than [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Json, ParseJsonError> {
        let mut p = Parser::new(input);
        p.skip_ws();
        let v = p.value(0)?;
        p.finish()?;
        Ok(v)
    }

    /// Convenience constructor for an object from key/value pairs.
    pub fn object<I, K>(pairs: I) -> Json
    where
        I: IntoIterator<Item = (K, Json)>,
        K: Into<String>,
    {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Returns the value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Returns the value as an object map, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Looks up a key on an object (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object().and_then(|o| o.get(key))
    }

    /// Whether this value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes with no extra whitespace.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Serializes human-readably with two-space indentation.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Appends the compact serialization to `out` — what
    /// [`Json::to_compact_string`] returns, without the fresh `String`.
    pub(crate) fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(n) => write_number(*n, out),
            Json::String(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(map) if !map.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact_string())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Number(n)
    }
}
impl From<i64> for Json {
    #[expect(
        clippy::as_conversions,
        reason = "JSON numbers are f64 by definition; producers (sim ms, counters) stay below 2^53, where the conversion is exact"
    )]
    fn from(n: i64) -> Json {
        Json::Number(n as f64)
    }
}
impl From<u64> for Json {
    #[expect(
        clippy::as_conversions,
        reason = "JSON numbers are f64 by definition; producers (sim ms, counters) stay below 2^53, where the conversion is exact"
    )]
    fn from(n: u64) -> Json {
        Json::Number(n as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_owned())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::String(s)
    }
}
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Array(iter.into_iter().map(Into::into).collect())
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Appends a JSON number: the one number format of the wire (shared by
/// the tree writer above and the streaming entity writer in
/// [`crate::ngsi`]).
pub(crate) fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/inf. Emitting them would produce an unparseable
        // document, a worse failure than the information loss of `null`
        // (faulty sensors are exactly where non-finite values originate).
        out.push_str("null");
        return;
    }
    if n == 0.0 {
        // Canonical zero: JSON has no signed zero, so `-0.0` must not
        // print as `-0` (the std formatter would).
        out.push('0');
    } else {
        // Shortest roundtrip representation from the std formatter,
        // written straight into `out`; integral values already print
        // without a fractional part.
        write_display(out, n);
    }
}

/// Formats `value` into `out` in place. `fmt::Write` for `String` cannot
/// fail, so the `fmt::Result` carries nothing to handle.
fn write_display(out: &mut String, value: impl fmt::Display) {
    let written = write!(out, "{value}");
    debug_assert!(written.is_ok(), "fmt::Write for String is infallible");
}

/// Whether `b` must be escaped inside a JSON string (every such byte is
/// ASCII, so a byte scan finds exactly the chars that need escaping).
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Appends `s` as a quoted JSON string. The common case — nothing to
/// escape — is one `push_str`; otherwise clean runs are copied whole
/// between the escapes.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let mut clean_from = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(&s[clean_from..i]);
        clean_from = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => write_display(out, format_args!("\\u{b:04x}")),
        }
    }
    out.push_str(&s[clean_from..]);
    out.push('"');
}

/// The one JSON grammar: [`Json::parse`] builds a tree with it, and
/// `Entity::read_compact` walks the same tokens straight into an entity.
pub(crate) struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> ParseJsonError {
        ParseJsonError {
            offset: self.pos,
            message: msg.to_owned(),
        }
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    pub(crate) fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// Accepts trailing whitespace and then requires the end of input.
    pub(crate) fn finish(&mut self) -> Result<(), ParseJsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after value"));
        }
        Ok(())
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseJsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", char::from(b))))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseJsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    /// Parses the value at the cursor, `depth` containers deep.
    pub(crate) fn value(&mut self, depth: usize) -> Result<Json, ParseJsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.string()?.into_owned())),
            Some(b'[') => self.array(depth),
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.members(depth, |p, key| {
                    let value = p.value(depth + 1)?;
                    map.insert(key.into_owned(), value);
                    Ok(())
                })?;
                Ok(Json::Object(map))
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", char::from(c)))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseJsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Array(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// Walks the object at the cursor, `depth` containers deep: for each
    /// member, in input order, `member` gets the key with the cursor on the
    /// value, and must consume that value (at `depth + 1`).
    pub(crate) fn members(
        &mut self,
        depth: usize,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ParseJsonError>,
    ) -> Result<(), ParseJsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(()),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// Parses the string at the cursor. One without escapes is borrowed
    /// from the input; otherwise the clean runs between escapes are copied
    /// whole. (The input is a `&str`, so a run cut at an ASCII delimiter
    /// is always whole UTF-8.)
    fn string(&mut self) -> Result<Cow<'a, str>, ParseJsonError> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            let Some(len) = run else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            let end = start + len;
            let clean = self
                .text
                .get(start..end)
                .ok_or_else(|| self.err("invalid UTF-8 sequence"))?;
            self.pos = end + 1;
            match self.bytes[end] {
                b'"' => {
                    return Ok(match owned {
                        None => Cow::Borrowed(clean),
                        Some(mut out) => {
                            out.push_str(clean);
                            Cow::Owned(out)
                        }
                    })
                }
                b'\\' => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(clean);
                    let c = self.escape()?;
                    out.push(c);
                }
                _ => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, ParseJsonError> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let cp = self.hex4()?;
                if (0xD800..0xDC00).contains(&cp) {
                    // High surrogate: require a following \uXXXX low
                    // surrogate and combine.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(combined).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else if (0xDC00..0xE000).contains(&cp) {
                    return Err(self.err("unpaired low surrogate"));
                } else {
                    char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                }
            }
            _ => return Err(self.err("invalid escape sequence")),
        })
    }

    fn hex4(&mut self) -> Result<u32, ParseJsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseJsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: either a single 0, or a nonzero digit run.
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.err("leading zero in number"));
                }
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = self
            .text
            .get(start..self.pos)
            .ok_or_else(|| self.err("invalid utf-8 in number"))?;
        let n: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        if !n.is_finite() {
            return Err(self.err("number overflows f64"));
        }
        Ok(Json::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) -> Json {
        Json::parse(&v.to_compact_string()).expect("roundtrip parse")
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Number(42.0));
        assert_eq!(Json::parse("-3.25").unwrap(), Json::Number(-3.25));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Number(1000.0));
        assert_eq!(Json::parse("2.5E-2").unwrap(), Json::Number(0.025));
        assert_eq!(
            Json::parse("\"hi\"").unwrap(),
            Json::String("hi".to_owned())
        );
    }

    #[test]
    fn parses_containers() {
        let v = Json::parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert!(arr[2].get("b").unwrap().is_null());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" \t\n{ \"k\" :\r 1 } \n").unwrap();
        assert_eq!(v.get("k").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{} x").is_err());
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "01",
            "1.",
            ".5",
            "1e",
            "+1",
            "nul",
            "tru",
            "\"",
            "\"\\q\"",
            "\"\\u12\"",
            "[,]",
            "{,}",
            "--1",
            "NaN",
            "Infinity",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line1\nline2\t\"quoted\" \\slash\\ \u{08}\u{0C}\r café 💧";
        let v = Json::String(s.to_owned());
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(
            Json::parse(r#""Aé""#).unwrap(),
            Json::String("Aé".to_owned())
        );
        // Surrogate pair for U+1F4A7 (droplet).
        assert_eq!(
            Json::parse(r#""💧""#).unwrap(),
            Json::String("💧".to_owned())
        );
    }

    #[test]
    fn rejects_bad_surrogates() {
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\udca7""#).is_err());
        assert!(Json::parse(r#""\ud83dA""#).is_err());
    }

    #[test]
    fn rejects_raw_control_chars() {
        assert!(Json::parse("\"a\u{01}b\"").is_err());
    }

    #[test]
    fn number_formatting() {
        assert_eq!(Json::Number(5.0).to_compact_string(), "5");
        assert_eq!(Json::Number(-5.0).to_compact_string(), "-5");
        assert_eq!(Json::Number(0.5).to_compact_string(), "0.5");
        assert_eq!(Json::Number(1e16).to_compact_string(), "10000000000000000");
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        // A faulty sensor must not be able to produce an unparseable doc.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::object([("v", Json::Number(bad))]);
            let text = doc.to_compact_string();
            assert_eq!(text, r#"{"v":null}"#);
            assert!(Json::parse(&text).is_ok());
        }
    }

    #[test]
    fn object_keys_sorted_in_output() {
        let v = Json::parse(r#"{"b":1,"a":2}"#).unwrap();
        assert_eq!(v.to_compact_string(), r#"{"a":2,"b":1}"#);
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn pretty_print_parses_back() {
        let v = Json::object([
            ("name", Json::from("swamp")),
            (
                "pilots",
                [1i64, 2, 3, 4].iter().map(|&x| Json::from(x)).collect(),
            ),
            ("nested", Json::object([("k", Json::Null)])),
            ("empty_arr", Json::Array(vec![])),
            ("empty_obj", Json::Object(Default::default())),
        ]);
        let pretty = v.to_pretty_string();
        assert!(pretty.contains('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n": 1.5, "s": "x", "b": true, "a": []}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_array(), Some(&[][..]));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("k"), None);
        assert_eq!(Json::Null.as_f64(), None);
    }

    #[test]
    fn error_reports_offset() {
        let err = Json::parse(r#"{"a": bad}"#).unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(err.to_string().contains("byte 6"));
    }

    #[test]
    fn utf8_multibyte_passthrough() {
        let v = Json::parse("\"солома 稻草\"").unwrap();
        assert_eq!(v.as_str(), Some("солома 稻草"));
    }
}
