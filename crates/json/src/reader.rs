//! Incremental reading of newline-delimited JSON from a byte stream.
//!
//! The serve wire protocol is one JSON value per `\n`-terminated line over
//! a TCP connection. A connection is unbounded, so the whole stream can
//! never be buffered; [`Reader`] holds only the bytes of the line currently
//! being assembled, refilling from the underlying [`std::io::Read`] in
//! fixed-size chunks. A value split across any number of read boundaries is
//! reassembled transparently; a line that exceeds the configured limit is a
//! hard error (the caller should drop the peer — an unbounded line is
//! either a protocol violation or an attack).
//!
//! Strictness matches [`Json::parse`]: each line must hold *exactly one*
//! top-level value — trailing garbage after the value is rejected, not
//! skipped — because leniency on a wire protocol hides client bugs.
//! Lines that are empty or all-whitespace are skipped (they are the
//! natural artifact of `\r\n` peers and trailing newlines).

use crate::{Json, JsonError};
use std::io::Read;

/// Default cap on a single line, in bytes (1 MiB). Far above any legitimate
/// request, far below what an unterminated-line flood could buffer.
pub const DEFAULT_MAX_LINE: usize = 1 << 20;

/// Why [`Reader::read_value`] could not produce a value.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// A complete line was read but was not exactly one JSON value
    /// (malformed syntax, or trailing garbage after the value).
    Parse(JsonError),
    /// A line grew past the configured limit without a terminating newline.
    LineTooLong {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// A line held bytes that are not valid UTF-8.
    InvalidUtf8,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "read failed: {e}"),
            ReadError::Parse(e) => write!(f, "invalid JSON line: {e}"),
            ReadError::LineTooLong { limit } => {
                write!(f, "line exceeds {limit} bytes without a newline")
            }
            ReadError::InvalidUtf8 => write!(f, "line is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            ReadError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

/// Streaming parser for newline-delimited JSON values.
///
/// # Examples
///
/// ```
/// use qdelay_json::{Json, Reader};
///
/// let wire = b"{\"method\": \"predict\"}\n42\n".as_slice();
/// let mut reader = Reader::new(wire);
/// let first = reader.read_value().unwrap().unwrap();
/// assert_eq!(first.get("method").and_then(Json::as_str), Some("predict"));
/// assert_eq!(reader.read_value().unwrap(), Some(Json::Num(42.0)));
/// assert_eq!(reader.read_value().unwrap(), None); // clean end of stream
/// ```
#[derive(Debug)]
pub struct Reader<R: Read> {
    inner: R,
    /// Bytes received but not yet consumed; `start` indexes the first live
    /// byte (compacted on refill so the buffer never grows past one line
    /// plus one read chunk).
    buf: Vec<u8>,
    start: usize,
    max_line: usize,
    eof: bool,
}

impl<R: Read> Reader<R> {
    /// Wraps a byte stream with the [`DEFAULT_MAX_LINE`] limit.
    pub fn new(inner: R) -> Self {
        Self::with_max_line(inner, DEFAULT_MAX_LINE)
    }

    /// Wraps a byte stream with an explicit per-line byte limit.
    ///
    /// # Panics
    ///
    /// Panics if `max_line` is zero.
    pub fn with_max_line(inner: R, max_line: usize) -> Self {
        assert!(max_line > 0, "max_line must be positive");
        Self {
            inner,
            buf: Vec::new(),
            start: 0,
            max_line,
            eof: false,
        }
    }

    /// Gives back the underlying stream (any buffered-but-unparsed bytes
    /// are dropped).
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Reads the next value, blocking on the underlying stream as needed.
    ///
    /// Returns `Ok(None)` at a clean end of stream (all remaining bytes
    /// were whitespace). A final non-empty line *without* a terminating
    /// newline is parsed as a value — a file whose last line lacks `\n` is
    /// not an error.
    ///
    /// # Errors
    ///
    /// [`ReadError`]. Parse errors consume the offending line, so a caller
    /// that wants to answer a malformed request with a typed error and keep
    /// the connection open can simply call `read_value` again; `Io` and
    /// `LineTooLong` leave the stream unsynchronized and the caller should
    /// disconnect.
    pub fn read_value(&mut self) -> Result<Option<Json>, ReadError> {
        loop {
            match self.next_line_span()? {
                None => return Ok(None),
                Some((s, e)) => match parse_line(&self.buf[s..e])? {
                    Some(v) => return Ok(Some(v)),
                    None => continue, // blank line
                },
            }
        }
    }

    /// Buffers up to the next line terminator and returns the line's span in
    /// `self.buf`, consuming it. The span stays valid until the next call
    /// (refills compact the buffer). `None` is clean end of stream.
    fn next_line_span(&mut self) -> Result<Option<(usize, usize)>, ReadError> {
        loop {
            // A complete line already buffered?
            if let Some(nl) = self.buf[self.start..].iter().position(|&b| b == b'\n') {
                let line_end = self.start + nl;
                let line_start = self.start;
                self.start = line_end + 1;
                return Ok(Some((line_start, line_end)));
            }
            let pending = self.buf.len() - self.start;
            if self.eof {
                if pending == 0 {
                    return Ok(None);
                }
                // Final unterminated line.
                let line_start = self.start;
                self.start = self.buf.len();
                return Ok(Some((line_start, self.buf.len())));
            }
            if pending > self.max_line {
                return Err(ReadError::LineTooLong {
                    limit: self.max_line,
                });
            }
            // Compact, then pull the next chunk from the stream.
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ReadError::Io(e)),
            }
        }
    }
}

/// Parses one line (its `\n` already cut off): exactly one value, or
/// `None` if the line is blank. This is the whole per-line rule of the wire
/// protocol — [`Reader`] applies it to the lines it assembles, and the
/// serve event loop applies it to the lines its own framer cuts — so blank
/// lines, CRLF, trailing garbage and invalid UTF-8 mean the same thing on
/// both ends of a connection. Fails only with [`ReadError::Parse`] or
/// [`ReadError::InvalidUtf8`].
pub fn parse_line(line: &[u8]) -> Result<Option<Json>, ReadError> {
    // Tolerate CRLF peers.
    let line = match line.split_last() {
        Some((b'\r', rest)) => rest,
        _ => line,
    };
    let text = std::str::from_utf8(line).map_err(|_| ReadError::InvalidUtf8)?;
    if text.trim().is_empty() {
        return Ok(None);
    }
    // Json::parse rejects trailing garbage after the top-level value, which
    // is exactly the per-line strictness the wire protocol needs.
    Json::parse(text).map(Some).map_err(ReadError::Parse)
}

impl<R: Read> Iterator for Reader<R> {
    type Item = Result<Json, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_value().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream that serves a fixed byte string `chunk` bytes per read —
    /// the adversarial fragmentation a TCP stream is allowed to produce.
    struct Chunked<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
    }

    impl<'a> Chunked<'a> {
        fn new(data: &'a [u8], chunk: usize) -> Self {
            Self {
                data,
                pos: 0,
                chunk,
            }
        }
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self
                .chunk
                .min(out.len())
                .min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    const WIRE: &[u8] =
        b"{\"method\": \"observe\", \"wait\": 12.5}\n[1, 2, 3]\n\n  \n\"last\"\n";

    fn expected() -> Vec<Json> {
        vec![
            Json::parse(r#"{"method": "observe", "wait": 12.5}"#).unwrap(),
            Json::parse("[1, 2, 3]").unwrap(),
            Json::Str("last".into()),
        ]
    }

    #[test]
    fn values_split_across_every_read_boundary() {
        // Every chunk size from 1 byte up fragments the values differently;
        // all must reassemble to the same sequence.
        for chunk in [1usize, 2, 3, 5, 7, 16, 64, WIRE.len()] {
            let got: Vec<Json> = Reader::new(Chunked::new(WIRE, chunk))
                .collect::<Result<_, _>>()
                .unwrap_or_else(|e| panic!("chunk {chunk}: {e}"));
            assert_eq!(got, expected(), "chunk size {chunk}");
        }
    }

    #[test]
    fn multiple_values_in_one_read_are_all_delivered() {
        let mut r = Reader::new(WIRE);
        assert_eq!(r.read_value().unwrap(), Some(expected()[0].clone()));
        assert_eq!(r.read_value().unwrap(), Some(expected()[1].clone()));
        assert_eq!(r.read_value().unwrap(), Some(expected()[2].clone()));
        assert_eq!(r.read_value().unwrap(), None);
        // Idempotent at EOF.
        assert_eq!(r.read_value().unwrap(), None);
    }

    #[test]
    fn final_line_without_newline_is_a_value() {
        let mut r = Reader::new(b"{\"a\": 1}\n7".as_slice());
        assert!(r.read_value().unwrap().is_some());
        assert_eq!(r.read_value().unwrap(), Some(Json::Num(7.0)));
        assert_eq!(r.read_value().unwrap(), None);
    }

    #[test]
    fn crlf_lines_parse() {
        let mut r = Reader::new(b"true\r\nfalse\r\n".as_slice());
        assert_eq!(r.read_value().unwrap(), Some(Json::Bool(true)));
        assert_eq!(r.read_value().unwrap(), Some(Json::Bool(false)));
        assert_eq!(r.read_value().unwrap(), None);
    }

    #[test]
    fn trailing_garbage_after_value_is_rejected() {
        let mut r = Reader::new(b"{\"a\": 1} extra\n[2]\n".as_slice());
        assert!(matches!(r.read_value(), Err(ReadError::Parse(_))));
        // The offending line is consumed; the stream stays usable.
        assert_eq!(r.read_value().unwrap(), Some(Json::parse("[2]").unwrap()));
    }

    #[test]
    fn malformed_line_reports_parse_error_and_resyncs() {
        let mut r = Reader::new(b"{\"a\":\ntrue\n".as_slice());
        assert!(matches!(r.read_value(), Err(ReadError::Parse(_))));
        assert_eq!(r.read_value().unwrap(), Some(Json::Bool(true)));
    }

    #[test]
    fn oversized_line_is_rejected_before_buffering_it_all() {
        // 64 KiB of digits with no newline against a 1 KiB limit: the error
        // must fire after ~1 KiB + one chunk, not after buffering all 64 KiB.
        let data = vec![b'1'; 64 * 1024];
        let mut r = Reader::with_max_line(Chunked::new(&data, 512), 1024);
        match r.read_value() {
            Err(ReadError::LineTooLong { limit }) => assert_eq!(limit, 1024),
            other => panic!("expected LineTooLong, got {other:?}"),
        }
        assert!(
            r.buf.len() <= 1024 + 4096 + 512,
            "buffered {} bytes past the limit",
            r.buf.len()
        );
    }

    #[test]
    fn oversized_terminated_line_still_parses_within_buffered_window() {
        // A long-but-terminated line under the limit is fine.
        let mut data = b"[".to_vec();
        data.extend(std::iter::repeat_n(b"1,".as_slice(), 300).flatten());
        data.extend_from_slice(b"1]\n");
        let mut r = Reader::with_max_line(Chunked::new(&data, 7), 4096);
        let v = r.read_value().unwrap().unwrap();
        assert_eq!(v.as_array().unwrap().len(), 301);
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        let mut r = Reader::new(b"\"ok\"\n\xff\xfe\ntrue\n".as_slice());
        assert_eq!(r.read_value().unwrap(), Some(Json::Str("ok".into())));
        assert!(matches!(r.read_value(), Err(ReadError::InvalidUtf8)));
        assert_eq!(r.read_value().unwrap(), Some(Json::Bool(true)));
    }

    #[test]
    fn whitespace_only_stream_is_clean_eof() {
        let mut r = Reader::new(b"\n \n\t\n".as_slice());
        assert_eq!(r.read_value().unwrap(), None);
    }

    #[test]
    fn iterator_yields_values_then_stops() {
        let items: Vec<_> = Reader::new(b"1\n2\n3\n".as_slice()).collect();
        assert_eq!(items.len(), 3);
        assert!(items.iter().all(|i| i.is_ok()));
    }
}
