//! The per-line rule of newline-delimited JSON.
//!
//! The serve wire protocol is one JSON value per `\n`-terminated line over
//! a TCP connection. Both ends cut lines off their own receive buffers (the
//! serve event loop's framer, the client's reply cutter) and read each one
//! by [`line_text`] — the client through [`parse_line`], the server ahead
//! of its flat scan ([`crate::scan_flat`]) and, when that declines, the
//! same [`Json::parse`] — so blank lines, CRLF, trailing garbage and
//! invalid UTF-8 mean the same thing on both ends of a connection; both
//! also refuse a line longer than a hard cap ([`DEFAULT_MAX_LINE`] unless
//! configured) — an unbounded line is either a protocol violation or an
//! attack.
//!
//! Strictness matches [`Json::parse`]: each line must hold *exactly one*
//! top-level value — trailing garbage after the value is rejected, not
//! skipped — because leniency on a wire protocol hides client bugs.
//! Lines that are empty or all-whitespace are skipped (they are the
//! natural artifact of `\r\n` peers and trailing newlines).

use std::str::Utf8Error;

use crate::{Json, JsonError};

/// Default cap on a single line, in bytes (1 MiB). Far above any legitimate
/// request, far below what an unterminated-line flood could buffer.
pub const DEFAULT_MAX_LINE: usize = 1 << 20;

/// Why [`parse_line`] could not produce a value.
#[derive(Debug)]
pub enum ReadError {
    /// The line was not exactly one JSON value (malformed syntax, or
    /// trailing garbage after the value).
    Parse(JsonError),
    /// The line held bytes that are not valid UTF-8.
    InvalidUtf8,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Parse(e) => write!(f, "invalid JSON line: {e}"),
            ReadError::InvalidUtf8 => write!(f, "line is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Parse(e) => Some(e),
            ReadError::InvalidUtf8 => None,
        }
    }
}

/// Parses one line (its `\n` already cut off): exactly one value, or
/// `None` if the line is blank.
///
/// # Examples
///
/// ```
/// use qdelay_json::{parse_line, Json};
///
/// let v = parse_line(b"{\"method\": \"predict\"}\r").unwrap().unwrap();
/// assert_eq!(v.get("method").and_then(Json::as_str), Some("predict"));
/// assert_eq!(parse_line(b"  ").unwrap(), None); // blank: nothing to answer
/// assert!(parse_line(b"42 43").is_err()); // one value per line
/// ```
pub fn parse_line(line: &[u8]) -> Result<Option<Json>, ReadError> {
    let Some(text) = line_text(line).map_err(|_| ReadError::InvalidUtf8)? else {
        return Ok(None);
    };
    // Json::parse rejects trailing garbage after the top-level value, which
    // is exactly the per-line strictness the wire protocol needs.
    Json::parse(text).map(Some).map_err(ReadError::Parse)
}

/// The text of one line (its `\n` already cut off) as every reader of the
/// wire sees it: a trailing `\r` dropped, checked to be UTF-8, and `None`
/// if nothing but whitespace is left.
///
/// # Errors
///
/// The line held bytes that are not valid UTF-8.
pub fn line_text(line: &[u8]) -> Result<Option<&str>, Utf8Error> {
    // Tolerate CRLF peers.
    let line = match line.split_last() {
        Some((b'\r', rest)) => rest,
        _ => line,
    };
    let text = std::str::from_utf8(line)?;
    Ok((!text.trim().is_empty()).then_some(text))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crlf_lines_parse() {
        assert_eq!(parse_line(b"true\r").unwrap(), Some(Json::Bool(true)));
        assert_eq!(parse_line(b"false").unwrap(), Some(Json::Bool(false)));
    }

    #[test]
    fn trailing_garbage_after_value_is_rejected() {
        assert!(matches!(parse_line(b"{\"a\": 1} extra"), Err(ReadError::Parse(_))));
        assert!(matches!(parse_line(b"{\"a\":"), Err(ReadError::Parse(_))));
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        assert!(matches!(parse_line(b"\xff\xfe"), Err(ReadError::InvalidUtf8)));
    }

    #[test]
    fn blank_lines_are_skipped() {
        for blank in [&b""[..], b"\r", b" \t ", b"  \r"] {
            assert_eq!(parse_line(blank).unwrap(), None);
        }
    }
}
