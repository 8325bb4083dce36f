//! # qdelay-json
//!
//! A small, dependency-free JSON value with a strict parser, a stable
//! byte writer (compact and pretty), and the per-line rule of
//! newline-delimited streams ([`line_text`], [`parse_line`]), used for the
//! workspace's committed result artifacts (`results_tables34.json`,
//! `results_tables567.json`), the determinism tests that require
//! *byte-identical* serialization across worker counts, and the
//! `qdelay-serve` wire protocol.
//!
//! Design points that matter to the callers:
//!
//! * **Objects preserve insertion order** (`Vec<(String, Json)>`, not a
//!   hash map), so serialization order is a function of construction order
//!   only — a prerequisite for byte-identical output.
//! * **Numbers are `f64`** and print by one rule ([`write_num`]): Rust's
//!   shortest-round-trip formatting; integral values within the exact-`f64`
//!   range without a fractional part; non-finite as `null`. Parsing
//!   followed by printing is idempotent.
//! * **One writer.** [`Json::write_compact`] appends a value's bytes to a
//!   `Vec<u8>`; `to_string_compact` / `to_string_pretty` wrap the same
//!   code. Its leaves — [`write_num`], [`write_uint`], [`write_str`] — are
//!   public so a caller that knows its document's shape (the serve reply
//!   lines) can write it without building a [`Json`] first, under the same
//!   number and escape rules.
//! * **The parser is strict RFC 8259**: no comments, no trailing commas,
//!   no leading zeros (`01`, `-01.5`), no unescaped control characters,
//!   `\u` followed by exactly four hex digits (no sign), a `\uD83D\uDE80`
//!   surrogate pair combined into its one scalar and a lone or reversed
//!   surrogate refused (not mapped to U+FFFD — two different names must
//!   never decode to one string), exactly one value per document, and
//!   arrays and objects nested at most 128 deep (the parser recurses, and
//!   its input comes off a socket). The committed artifacts are
//!   machine-written and the wire is a protocol, so leniency only hides
//!   bugs.
//! * **The flat scan.** [`scan_flat`] walks one object whose members are
//!   all scalars — every data-plane request line — and hands out keys and
//!   values borrowed from the text, with no tree. It is not a second
//!   parser: it runs the tree parser's own leaf functions, words no error,
//!   and declines (`None`) whatever is not exactly that shape, leaving
//!   [`Json::parse`] the only producer of parse errors.
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

use std::borrow::Cow;
use std::io::Write;

pub use reader::{line_text, parse_line, ReadError, DEFAULT_MAX_LINE};

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
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
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
        let mut out = Vec::new();
        write_value(self, 0, true, &mut out);
        into_text(out)
    }

    /// Serializes without any whitespace.
    pub fn to_string_compact(&self) -> String {
        let mut out = Vec::new();
        self.write_compact(&mut out);
        into_text(out)
    }

    /// Appends the value's compact serialization — the bytes of
    /// [`Json::to_string_compact`] — to `out`.
    pub fn write_compact(&self, out: &mut Vec<u8>) {
        write_value(self, 0, false, out);
    }
}

fn into_text(out: Vec<u8>) -> String {
    String::from_utf8(out).expect("the writer copies `str`s and emits ASCII around them")
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

fn write_value(v: &Json, indent: usize, pretty: bool, out: &mut Vec<u8>) {
    match v {
        Json::Null => out.extend_from_slice(b"null"),
        Json::Bool(true) => out.extend_from_slice(b"true"),
        Json::Bool(false) => out.extend_from_slice(b"false"),
        Json::Num(x) => write_num(out, *x),
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) => {
            if items.is_empty() {
                out.extend_from_slice(b"[]");
                return;
            }
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                if pretty {
                    push_indent(indent + 1, out);
                }
                write_value(item, indent + 1, pretty, out);
            }
            if pretty {
                push_indent(indent, out);
            }
            out.push(b']');
        }
        Json::Obj(members) => {
            if members.is_empty() {
                out.extend_from_slice(b"{}");
                return;
            }
            out.push(b'{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                if pretty {
                    push_indent(indent + 1, out);
                }
                write_str(out, k);
                out.push(b':');
                if pretty {
                    out.push(b' ');
                }
                write_value(item, indent + 1, pretty, out);
            }
            if pretty {
                push_indent(indent, out);
            }
            out.push(b'}');
        }
    }
}

/// A line break, then `levels` of two-space indentation.
fn push_indent(levels: usize, out: &mut Vec<u8>) {
    out.push(b'\n');
    for _ in 0..levels {
        out.extend_from_slice(b"  ");
    }
}

/// 2^53: below it every integer is an exact `f64`.
const EXACT_INTS: u64 = 1 << 53;

/// Appends a number by the one number rule: an integral value below 2^53
/// in magnitude as an integer, any other finite value in Rust's shortest
/// round-trip form (`{:?}`), a non-finite one as `null`.
pub fn write_num(out: &mut Vec<u8>, x: f64) {
    if !x.is_finite() {
        // JSON has no NaN/Inf; the artifacts never contain them, but a
        // serializer must not emit invalid documents if one slips through.
        out.extend_from_slice(b"null");
    } else if x.fract() == 0.0 && x.abs() < EXACT_INTS as f64 {
        if x < 0.0 {
            out.push(b'-');
        }
        write_digits(out, x.abs() as u64);
    } else {
        write!(out, "{x:?}").expect("write to Vec");
    }
}

/// Appends an unsigned integer exactly as [`write_num`] prints
/// `n as f64`: its digits below 2^53, the rounded float's form from there.
pub fn write_uint(out: &mut Vec<u8>, n: u64) {
    if n < EXACT_INTS {
        write_digits(out, n);
    } else {
        write_num(out, n as f64);
    }
}

fn write_digits(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Whether `b` may not stand for itself inside a JSON string.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Appends a quoted string by the one escape rule: `"`, `\` and control
/// characters escaped (`\n`, `\r`, `\t` by name, the rest as `\u00xx`),
/// every run between them copied whole.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let mut rest = s.as_bytes();
    while let Some(at) = rest.iter().position(|&b| needs_escape(b)) {
        out.extend_from_slice(&rest[..at]);
        match rest[at] {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            control => write!(out, "\\u{control:04x}").expect("write to Vec"),
        }
        rest = &rest[at + 1..];
    }
    out.extend_from_slice(rest);
    out.push(b'"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Deepest nesting of arrays and objects the parser follows. The parser
/// recurses per level and reads lines off the network: without a cap, one
/// line of a few hundred thousand `[` overflows the reading thread's stack.
/// Nothing this workspace writes nests a tenth as deep.
const MAX_DEPTH: usize = 128;

/// Parses the value at `*pos`, itself `depth` containers deep.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::new("unexpected end of input", *pos)),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(JsonError::new(
            format!("nesting deeper than {MAX_DEPTH} levels"),
            *pos,
        )),
        Some(b'{') => parse_object(text, pos, depth + 1),
        Some(b'[') => parse_array(text, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(text, pos).map(Json::Num),
    }
}

fn parse_keyword<T>(
    bytes: &[u8],
    pos: &mut usize,
    keyword: &str,
    value: T,
) -> Result<T, JsonError> {
    if bytes[*pos..].starts_with(keyword.as_bytes()) {
        *pos += keyword.len();
        Ok(value)
    } else {
        Err(JsonError::new(format!("expected `{keyword}`"), *pos))
    }
}

fn parse_object(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
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
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(JsonError::new("expected `:`", *pos));
        }
        *pos += 1;
        let value = parse_value(text, pos, depth)?;
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

fn parse_array(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos, depth)?);
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

/// The end of the run of bytes from `from` that stand for themselves
/// inside a string: the index of the next `"`, `\` or control byte (all
/// ASCII, so a `char` boundary of the text), or the end of input.
fn plain_run(bytes: &[u8], from: usize) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| needs_escape(b))
        .map_or(bytes.len(), |at| from + at)
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    *pos += 1; // consume opening quote
    let mut out = String::new();
    loop {
        let run = *pos;
        *pos = plain_run(bytes, run);
        out.push_str(&text[run..*pos]);
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
                    Some(b'u') => out.push(parse_unicode_escape(bytes, pos)?),
                    _ => return Err(JsonError::new("invalid escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => return Err(JsonError::new("unescaped control character", *pos)),
        }
    }
}

/// The four hex digits after the `u` at `at`, as their value.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, JsonError> {
    let hex = bytes
        .get(at + 1..at + 5)
        .ok_or_else(|| JsonError::new("truncated \\u escape", at))?;
    // Digit by digit: `from_str_radix` would take a sign.
    hex.iter().try_fold(0u32, |code, &b| {
        let digit = char::from(b)
            .to_digit(16)
            .ok_or_else(|| JsonError::new("invalid \\u escape", at))?;
        Ok(code << 4 | digit)
    })
}

/// Decodes the `\uXXXX` whose `u` is at `*pos`, leaving `*pos` on its last
/// hex digit. A high surrogate must be followed at once by a low one and
/// the pair is one scalar (RFC 8259 §7); a lone or reversed surrogate is an
/// error, not U+FFFD — distinct names on the wire must stay distinct.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, JsonError> {
    let at = *pos;
    let unpaired = || JsonError::new("unpaired surrogate in \\u escape", at);
    let mut code = hex4(bytes, at)?;
    if (0xD800..0xDC00).contains(&code) {
        let low_at = at + 6; // past `uXXXX\`
        if bytes.get(at + 5..=low_at) != Some(b"\\u") {
            return Err(unpaired());
        }
        let low = hex4(bytes, low_at)?;
        if !(0xDC00..0xE000).contains(&low) {
            return Err(unpaired());
        }
        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        *pos = low_at;
    }
    *pos += 4;
    // Every code left is a scalar value but a lone low surrogate.
    char::from_u32(code).ok_or_else(unpaired)
}

fn parse_number(text: &str, pos: &mut usize) -> Result<f64, JsonError> {
    let bytes = text.as_bytes();
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |pos: &mut usize| {
        let before = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos > before
    };
    // The integer part is one `0`, or digits that do not start with one.
    let int = *pos;
    if !digits(pos) {
        return Err(JsonError::new("expected digit", *pos));
    }
    if bytes[int] == b'0' && *pos > int + 1 {
        return Err(JsonError::new("leading zero", int));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(pos) {
            return Err(JsonError::new("expected fraction digits", *pos));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return Err(JsonError::new("expected exponent digits", *pos));
        }
    }
    text[start..*pos]
        .parse()
        .map_err(|_| JsonError::new("invalid number", start))
}

/// A scalar member value [`scan_flat`] hands out; a string borrows from the
/// scanned text unless it held an escape.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(Cow<'a, str>),
}

impl From<Scalar<'_>> for Json {
    fn from(scalar: Scalar<'_>) -> Self {
        match scalar {
            Scalar::Null => Json::Null,
            Scalar::Bool(x) => Json::Bool(x),
            Scalar::Num(x) => Json::Num(x),
            Scalar::Str(s) => Json::Str(s.into_owned()),
        }
    }
}

/// Walks `text` if it is *exactly one object whose members are all
/// scalars*, calling `member` with each key and value in document order
/// (duplicates included), and returns `Some(())`. For anything else —
/// malformed text, a value that is not an object, a nested array or object,
/// trailing bytes — it returns `None`, possibly after some calls: a caller
/// keeps what it collected only on `Some`.
///
/// `Some` means [`Json::parse`] accepts `text` as an object of the same
/// members; `None` says nothing either way, so the caller falls back to the
/// tree parser, which alone words errors. Both run the same leaf functions,
/// so they cannot disagree about a string, a number or a keyword.
///
/// # Examples
///
/// ```
/// use qdelay_json::{scan_flat, Scalar};
///
/// let mut seen = Vec::new();
/// let line = r#"{"method":"predict","procs":4}"#;
/// scan_flat(line, |key, value| seen.push((key, value))).unwrap();
/// assert_eq!(seen[0], ("method".into(), Scalar::Str("predict".into())));
/// assert_eq!(seen[1], ("procs".into(), Scalar::Num(4.0)));
/// assert!(scan_flat(r#"{"id":[1]}"#, |_, _| ()).is_none()); // nested: the tree's
/// assert!(scan_flat(r#"{"a":1} x"#, |_, _| ()).is_none()); // malformed: the tree's
/// ```
pub fn scan_flat<'a>(
    text: &'a str,
    mut member: impl FnMut(Cow<'a, str>, Scalar<'a>),
) -> Option<()> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    // A string that is one plain run is lent out of the text; any other
    // (an escape, a control byte, no closing quote) is `parse_string`'s.
    let string = |pos: &mut usize| {
        let end = plain_run(bytes, *pos + 1);
        if bytes.get(end) == Some(&b'"') {
            let lent = &text[*pos + 1..end];
            *pos = end + 1;
            Some(Cow::Borrowed(lent))
        } else {
            parse_string(text, pos).ok().map(Cow::Owned)
        }
    };
    skip_ws(bytes, &mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return None;
    }
    pos += 1;
    skip_ws(bytes, &mut pos);
    if bytes.get(pos) == Some(&b'}') {
        pos += 1;
    } else {
        loop {
            skip_ws(bytes, &mut pos);
            if bytes.get(pos) != Some(&b'"') {
                return None;
            }
            let key = string(&mut pos)?;
            skip_ws(bytes, &mut pos);
            if bytes.get(pos) != Some(&b':') {
                return None;
            }
            pos += 1;
            skip_ws(bytes, &mut pos);
            let value = match bytes.get(pos)? {
                b'{' | b'[' => return None,
                b'"' => Scalar::Str(string(&mut pos)?),
                b't' => parse_keyword(bytes, &mut pos, "true", Scalar::Bool(true)).ok()?,
                b'f' => parse_keyword(bytes, &mut pos, "false", Scalar::Bool(false)).ok()?,
                b'n' => parse_keyword(bytes, &mut pos, "null", Scalar::Null).ok()?,
                _ => Scalar::Num(parse_number(text, &mut pos).ok()?),
            };
            member(key, value);
            skip_ws(bytes, &mut pos);
            match bytes.get(pos)? {
                b',' => pos += 1,
                b'}' => {
                    pos += 1;
                    break;
                }
                _ => return None,
            }
        }
    }
    skip_ws(bytes, &mut pos);
    (pos == bytes.len()).then_some(())
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
            // RFC 8259 §6: the integer part is `0` or starts with 1-9.
            "01",
            "-01.5",
            "[00]",
            // §7: `\\u` takes exactly four hex digits, and no sign.
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u00g1""#,
            r#""\u04""#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        for good in ["0", "-0", "0.5", "-0.5e1", "10", "[0,0.0,100]"] {
            assert!(Json::parse(good).is_ok(), "rejected {good:?}");
        }
    }

    #[test]
    fn nesting_is_capped_before_the_stack_is() {
        let nested = |levels: usize| "[".repeat(levels) + "7" + &"]".repeat(levels);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err().offset(),
            MAX_DEPTH
        );
        let mixed = r#"{"a":["#.repeat(MAX_DEPTH / 2) + "[" + &"]}".repeat(MAX_DEPTH / 2);
        assert!(Json::parse(&mixed).is_err(), "objects count as levels");
        // What used to abort the process: a line of nothing but openers.
        assert!(Json::parse(&"[".repeat(1 << 20)).is_err());
        assert!(Json::parse(&r#"{"a":"#.repeat(1 << 18)).is_err());
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_refused() {
        // What `json.dumps` (ensure_ascii) sends for the raw spelling.
        let escaped = Json::parse(r#""a\ud83d\ude80z \uD83D\uDE80""#).unwrap();
        assert_eq!(escaped, Json::parse("\"a🚀z 🚀\"").unwrap());
        assert_eq!(
            Json::parse(r#""\ud800\udc00""#).unwrap().as_str(),
            Some("\u{10000}")
        );
        assert_eq!(
            Json::parse(r#""\udbff\udfff""#).unwrap().as_str(),
            Some("\u{10ffff}")
        );
        assert_eq!(
            Json::parse(r#""\ud7ff\ue000""#).unwrap().as_str(),
            Some("\u{d7ff}\u{e000}")
        );
        for bad in [
            r#""\ud83d""#,        // lone high
            r#""\ude80""#,        // lone low
            r#""\ude80\ud83d""#,  // reversed
            r#""\ud83d\ud83d""#,  // high, high
            r#""\ud83dx\ude80""#, // not adjacent
            r#""\ud83d\n""#,      // another escape in between
            r#""\ud83d\ude8""#,   // truncated low
            r#""\ud83d\u+e80""#,  // signed low
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // The offset names the escape's `u`.
        assert_eq!(Json::parse(r#""ab\ude80""#).unwrap_err().offset(), 4);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line1\nline2\ttab \"quoted\" back\\slash \u{1}";
        let text = Json::Str(s.to_string()).to_string_compact();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn strings_copy_by_the_run_on_both_sides() {
        // Runs of every length around each kind of stop: a quote, a
        // backslash, a named and an unnamed control, multi-byte scalars.
        let stops = [
            "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1f}", "\u{7f}", "é", "星", "🚀", "/",
        ];
        for a in stops {
            for b in stops {
                for run in 0..3 {
                    let s = format!(
                        "{}{a}{}{b}{}",
                        "x".repeat(run),
                        "é".repeat(run),
                        "y".repeat(run)
                    );
                    let text = Json::Str(s.clone()).to_string_compact();
                    assert!(text.bytes().all(|b| b >= 0x20), "{text:?}");
                    assert_eq!(Json::parse(&text).unwrap().as_str(), Some(&s[..]), "{text}");
                }
            }
        }
        // DEL and everything past ASCII stand for themselves.
        assert_eq!(
            Json::Str("a\"b\\c\nd\re\tf\u{1}g\u{1f}h\u{7f}é".into()).to_string_compact(),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh\u{7f}é\""
        );
        assert!(Json::parse("\"a\u{1}b\"").is_err(), "raw control byte");
        assert_eq!(Json::parse("\"a\tb\"").unwrap_err().offset(), 2);
    }

    #[test]
    fn the_number_rule() {
        let text = |x: f64| Json::Num(x).to_string_compact();
        assert_eq!(text(-0.0), "0");
        assert_eq!(text(9_007_199_254_740_991.0), "9007199254740991");
        assert_eq!(text(-9_007_199_254_740_991.0), "-9007199254740991");
        assert_eq!(text(9_007_199_254_740_992.0), "9007199254740992.0");
        assert_eq!(text(5e-324), "5e-324");
        assert_eq!(text(f64::MAX), "1.7976931348623157e308");
        assert_eq!(text(f64::NAN), "null");
        assert_eq!(text(f64::NEG_INFINITY), "null");
        // An integer prints as the float it would have been stored as.
        for n in [0, 7, 10, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let mut out = Vec::new();
            write_uint(&mut out, n);
            assert_eq!(String::from_utf8(out).unwrap(), text(n as f64), "{n}");
        }
    }

    /// The members `scan_flat` hands out, as the tree they should equal.
    fn scanned(text: &str) -> Option<Json> {
        let mut members = Vec::new();
        scan_flat(text, |key, value| {
            members.push((key.into_owned(), Json::from(value)))
        })?;
        Some(Json::Obj(members))
    }

    #[test]
    fn flat_scan_agrees_with_the_tree_or_declines() {
        for flat in [
            "{}",
            " { } ",
            r#"{"a":1}"#,
            r#"{"a":null,"b":true,"c":false,"d":-1.5e3,"e":"x","a":2}"#,
            "\t{ \"a\" : 1 ,\r\n \"b\" : \"δ 🚀\" } \n",
            r#"{"k\u0065y":"v\n\ud83d\ude80","":""}"#,
            r#"{"big":1e999,"small":5e-324}"#,
        ] {
            assert_eq!(scanned(flat), Some(Json::parse(flat).unwrap()), "{flat}");
        }
        // Borrowed unless an escape forced a copy.
        scan_flat(r#"{"plain":"text","esc\n":"a\tb"}"#, |key, value| {
            let Scalar::Str(value) = value else {
                panic!("not a string")
            };
            let owned = key.contains('\n');
            assert_eq!(matches!(key, Cow::Owned(_)), owned);
            assert_eq!(matches!(value, Cow::Owned(_)), owned);
        })
        .unwrap();
        for declined in [
            "",
            " ",
            "1",
            "[]",
            "null",
            r#""s""#,
            r#"{"a":[1]}"#,
            r#"{"a":{}}"#,
            r#"{"a":1"#,
            r#"{"a":1,}"#,
            r#"{"a" 1}"#,
            r#"{a:1}"#,
            r#"{"a":1}}"#,
            r#"{"a":1} {"a":1}"#,
            r#"{"a":01}"#,
            r#"{"a":tru}"#,
            r#"{"a":"\ud83d"}"#,
            "{\"a\":\"\u{1}\"}",
            r#"{"a":"x}"#,
            r#"{"a":+1}"#,
        ] {
            assert_eq!(scanned(declined), None, "{declined}");
        }
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
