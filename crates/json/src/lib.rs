//! # qdelay-json
//!
//! A small, dependency-free JSON value with a strict parser, a stable
//! pretty-printer, and the per-line rule of newline-delimited streams
//! ([`parse_line`]), used for the workspace's committed result artifacts
//! (`results_tables34.json`, `results_tables567.json`), the determinism
//! tests that require *byte-identical* serialization across worker counts,
//! and the `qdelay-serve` wire protocol.
//!
//! Design points that matter to the callers:
//!
//! * **Objects preserve insertion order** (`Vec<(String, Json)>`, not a
//!   hash map), so serialization order is a function of construction order
//!   only — a prerequisite for byte-identical output.
//! * **Numbers are `f64`** and print via Rust's shortest-round-trip
//!   formatting; integral values within the exact-`f64` range print without
//!   a fractional part. Parsing followed by printing is idempotent.
//! * The parser is strict RFC-8259 (no comments, no trailing commas): the
//!   committed artifacts are machine-written, so leniency only hides bugs.
//!
//! # Examples
//!
//! ```
//! use qdelay_json::Json;
//!
//! let v = Json::parse(r#"{"jobs": 3, "ok": true, "ratio": 0.5}"#).unwrap();
//! assert_eq!(v.get("jobs").and_then(Json::as_f64), Some(3.0));
//! assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
//! let text = v.to_string_pretty();
//! assert_eq!(Json::parse(&text).unwrap(), v);
//! ```

mod reader;

pub use reader::{parse_line, ReadError, DEFAULT_MAX_LINE};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always an `f64`; integral values print without a
    /// fraction).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved exactly as constructed/parsed.
    Obj(Vec<(String, Json)>),
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    offset: usize,
}

impl JsonError {
    fn new(message: impl Into<String>, offset: usize) -> Self {
        Self {
            message: message.into(),
            offset,
        }
    }

    /// Byte offset at which parsing failed.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with the byte offset of the first violation.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::new("trailing characters", pos));
        }
        Ok(value)
    }

    /// Member lookup on objects (`None` for other kinds or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an exact non-negative integer, if it is one.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serializes with two-space indentation (the format of the committed
    /// result artifacts). Deterministic: identical values produce identical
    /// bytes.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, 0, true, &mut out);
        out
    }

    /// Serializes without any whitespace.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_value(self, 0, false, &mut out);
        out
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Self {
        Json::Num(x as f64)
    }
}

impl From<bool> for Json {
    fn from(x: bool) -> Self {
        Json::Bool(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

fn write_value(v: &Json, indent: usize, pretty: bool, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(x) => write_number(*x, out),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if pretty {
                    out.push('\n');
                    push_indent(indent + 1, out);
                }
                write_value(item, indent + 1, pretty, out);
            }
            if pretty {
                out.push('\n');
                push_indent(indent, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            if members.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if pretty {
                    out.push('\n');
                    push_indent(indent + 1, out);
                }
                write_string(k, out);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                write_value(item, indent + 1, pretty, out);
            }
            if pretty {
                out.push('\n');
                push_indent(indent, out);
            }
            out.push('}');
        }
    }
}

fn push_indent(levels: usize, out: &mut String) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_number(x: f64, out: &mut String) {
    use std::fmt::Write;
    if !x.is_finite() {
        // JSON has no NaN/Inf; the artifacts never contain them, but a
        // serializer must not emit invalid documents if one slips through.
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 9.007_199_254_740_992e15 {
        write!(out, "{}", x as i64).expect("write to String");
    } else {
        // `{:?}` is Rust's shortest round-trip float formatting.
        write!(out, "{x:?}").expect("write to String");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                write!(out, "\\u{:04x}", c as u32).expect("write to String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::new("unexpected end of input", *pos)),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    keyword: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(keyword.as_bytes()) {
        *pos += keyword.len();
        Ok(value)
    } else {
        Err(JsonError::new(format!("expected `{keyword}`"), *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(JsonError::new("expected string key", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(JsonError::new("expected `:`", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(JsonError::new("expected `,` or `}`", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(JsonError::new("expected `,` or `]`", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    *pos += 1; // consume opening quote
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::new("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| JsonError::new("truncated \\u escape", *pos))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| JsonError::new("invalid \\u escape", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::new("invalid \\u escape", *pos))?;
                        // Surrogate pairs are not needed by the artifacts;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(JsonError::new("invalid escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is &str, so boundaries are
                // valid).
                let rest = &bytes[*pos..];
                let s = unsafe { std::str::from_utf8_unchecked(rest) };
                let c = s.chars().next().expect("non-empty");
                if (c as u32) < 0x20 {
                    return Err(JsonError::new("unescaped control character", *pos));
                }
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |bytes: &[u8], pos: &mut usize| {
        let before = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos > before
    };
    if !digits(bytes, pos) {
        return Err(JsonError::new("expected digit", *pos));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(bytes, pos) {
            return Err(JsonError::new("expected fraction digits", *pos));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(bytes, pos) {
            return Err(JsonError::new("expected exponent digits", *pos));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII number");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| JsonError::new("invalid number", start))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("3.25").unwrap(), Json::Num(3.25));
        assert_eq!(Json::parse("-17").unwrap(), Json::Num(-17.0));
        assert_eq!(Json::parse("6.02e23").unwrap(), Json::Num(6.02e23));
        assert_eq!(Json::parse(r#""hi""#).unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": "x\ny"}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0], Json::Num(1.0));
        assert_eq!(a[1].get("b"), Some(&Json::Null));
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x\ny"));
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn round_trips_are_stable() {
        let src = r#"{"jobs": 1339, "fraction": 0.9716206123973115, "tags": ["a", "b"], "none": null, "flag": false}"#;
        let v = Json::parse(src).unwrap();
        let once = v.to_string_pretty();
        let twice = Json::parse(&once).unwrap().to_string_pretty();
        assert_eq!(once, twice);
        let compact = v.to_string_compact();
        assert_eq!(Json::parse(&compact).unwrap(), v);
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for x in [
            0.9716206123973115,
            0.027948523845571536,
            35.78006500541712,
            1e-300,
            -2.5,
            1.0,
            0.0,
        ] {
            let text = Json::Num(x).to_string_compact();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back, x, "value {x} serialized as {text}");
        }
    }

    #[test]
    fn integral_values_print_without_fraction() {
        assert_eq!(Json::Num(1339.0).to_string_compact(), "1339");
        assert_eq!(Json::Num(-5.0).to_string_compact(), "-5");
        assert_eq!(Json::Num(0.5).to_string_compact(), "0.5");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "{'a': 1}",
            "[01x]",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line1\nline2\ttab \"quoted\" back\\slash \u{1}";
        let text = Json::Str(s.to_string()).to_string_compact();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn as_usize_requires_exact_integer() {
        assert_eq!(Json::Num(12.0).as_usize(), Some(12));
        assert_eq!(Json::Num(12.5).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
        assert_eq!(Json::Str("12".into()).as_usize(), None);
    }

    #[test]
    fn error_reports_offset() {
        let err = Json::parse("[1, 2, oops]").unwrap_err();
        assert_eq!(err.offset(), 7);
    }
}
