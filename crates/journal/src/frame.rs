//! The CRC frame codec: `u32 payload_len | u32 frame_crc | payload`.
//!
//! This is the one framing idiom the workspace uses for binary byte
//! streams — journal segments on disk ([`crate::segment`]) and the serve
//! binary wire protocol share it, so a frame written by either can be
//! validated by the same code. The CRC-32 covers the length prefix *and*
//! the payload: a corrupted length cannot silently re-frame the stream,
//! because the checksum was computed over the original length bytes.
//!
//! The codec is deliberately incremental on the read side:
//! [`check`] inspects the *front* of a byte buffer and reports whether a
//! complete frame is there, more bytes are needed, or the bytes are
//! damaged — exactly the three outcomes a nonblocking socket reader or a
//! torn-tail file scan has to distinguish.
//!
//! [`Reader`] is the one bounds-checked cursor over a checked payload,
//! under the journal record, repl messages, serve wire and snapshot file.

use crate::crc::Crc32;
use std::fmt;

/// Byte length of a frame's prefix (length + CRC).
pub const PREFIX_LEN: usize = 8;

/// Reserves space for a frame prefix in `out` and returns the frame's
/// start offset. Write the payload, then call [`finish`] with the offset.
pub fn begin(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; PREFIX_LEN]);
    start
}

/// Back-fills the length and CRC of the frame opened at `start`, whose
/// payload is everything appended to `out` since [`begin`] returned.
pub fn finish(out: &mut Vec<u8>, start: usize) {
    let payload_start = start + PREFIX_LEN;
    let len = (out.len() - payload_start) as u32;
    let len_bytes = len.to_le_bytes();
    let mut crc = Crc32::new();
    crc.update(&len_bytes);
    crc.update(&out[payload_start..]);
    out[start..start + 4].copy_from_slice(&len_bytes);
    out[start + 4..start + 8].copy_from_slice(&crc.finish().to_le_bytes());
}

/// Appends one complete frame wrapping `payload` to `out`.
pub fn encode(payload: &[u8], out: &mut Vec<u8>) {
    let start = begin(out);
    out.extend_from_slice(payload);
    finish(out, start);
}

/// The outcome of inspecting the front of a buffer for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// A complete, checksum-valid frame: payload at `buf[start..end]`,
    /// next frame begins at `next`.
    Complete { start: usize, end: usize, next: usize },
    /// The buffer holds a valid prefix of a frame; more bytes are needed.
    Incomplete,
    /// The bytes cannot be (the start of) a valid frame.
    Damaged(&'static str),
}

/// Inspects `buf` (starting at its first byte) for one frame whose payload
/// is at most `max_payload` bytes. A length prefix beyond the cap is
/// damage, not an allocation request.
pub fn check(buf: &[u8], max_payload: u32) -> Check {
    if buf.len() < PREFIX_LEN {
        return Check::Incomplete;
    }
    let len_bytes: [u8; 4] = buf[0..4].try_into().expect("4 bytes");
    let payload_len = u32::from_le_bytes(len_bytes);
    if payload_len > max_payload {
        return Check::Damaged("frame length out of range");
    }
    let stored_crc = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let end = PREFIX_LEN + payload_len as usize;
    if buf.len() < end {
        return Check::Incomplete;
    }
    let mut crc = Crc32::new();
    crc.update(&len_bytes);
    crc.update(&buf[PREFIX_LEN..end]);
    if crc.finish() != stored_crc {
        return Check::Damaged("frame checksum mismatch");
    }
    Check::Complete { start: PREFIX_LEN, end, next: end }
}

/// Why a [`Reader`] refused a payload, naming the field it was reading.
/// It holds no heap data: a decoder pays for a message only on failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The payload ended inside the field.
    Truncated(&'static str),
    /// The field's bytes are not UTF-8.
    NotUtf8(&'static str),
    /// Bytes are left after the last field.
    Trailing { after: &'static str, bytes: usize },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ReadError::Truncated(field) => write!(f, "truncated {field}"),
            ReadError::NotUtf8(field) => write!(f, "{field} is not UTF-8"),
            ReadError::Trailing { after, bytes } => {
                write!(f, "{bytes} trailing bytes after {after}")
            }
        }
    }
}

impl std::error::Error for ReadError {}

/// For decoders whose errors are plain messages.
impl From<ReadError> for String {
    fn from(e: ReadError) -> String {
        e.to_string()
    }
}

/// Bounds-checked little-endian reads over one payload, front to back.
/// Every read names its field; nothing here allocates.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], ReadError> {
        if self.buf.len() - self.pos < n {
            return Err(ReadError::Truncated(field));
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], ReadError> {
        Ok(self.take(N, field)?.try_into().expect("take returns N bytes"))
    }

    pub fn u8(&mut self, field: &'static str) -> Result<u8, ReadError> {
        Ok(self.take(1, field)?[0])
    }

    pub fn u16(&mut self, field: &'static str) -> Result<u16, ReadError> {
        self.array(field).map(u16::from_le_bytes)
    }

    pub fn u32(&mut self, field: &'static str) -> Result<u32, ReadError> {
        self.array(field).map(u32::from_le_bytes)
    }

    pub fn u64(&mut self, field: &'static str) -> Result<u64, ReadError> {
        self.array(field).map(u64::from_le_bytes)
    }

    /// The next `len` bytes, which must be UTF-8.
    pub fn str(&mut self, len: usize, field: &'static str) -> Result<&'a str, ReadError> {
        std::str::from_utf8(self.take(len, field)?).map_err(|_| ReadError::NotUtf8(field))
    }

    /// The bytes not read yet.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Ends the payload, which `after` must have filled exactly.
    pub fn done(&self, after: &'static str) -> Result<(), ReadError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            bytes => Err(ReadError::Trailing { after, bytes }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_single_and_concatenated() {
        let mut buf = Vec::new();
        encode(b"hello", &mut buf);
        encode(b"", &mut buf);
        encode(&[0xFFu8; 300], &mut buf);
        let mut pos = 0;
        let mut payloads = Vec::new();
        while pos < buf.len() {
            match check(&buf[pos..], 1 << 20) {
                Check::Complete { start, end, next } => {
                    payloads.push(buf[pos + start..pos + end].to_vec());
                    pos += next;
                }
                other => panic!("unexpected {other:?} at {pos}"),
            }
        }
        assert_eq!(payloads.len(), 3);
        assert_eq!(payloads[0], b"hello");
        assert_eq!(payloads[1], b"");
        assert_eq!(payloads[2], vec![0xFFu8; 300]);
    }

    #[test]
    fn every_truncation_is_incomplete() {
        let mut buf = Vec::new();
        encode(b"payload bytes", &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(check(&buf[..cut], 1 << 20), Check::Incomplete, "cut {cut}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_damaged_or_incomplete() {
        let mut buf = Vec::new();
        encode(b"sensitive", &mut buf);
        for i in 0..buf.len() {
            for bit in 0..8 {
                let mut flipped = buf.clone();
                flipped[i] ^= 1 << bit;
                match check(&flipped, 1 << 20) {
                    Check::Complete { .. } => panic!("flip at byte {i} bit {bit} passed"),
                    Check::Incomplete | Check::Damaged(_) => {}
                }
            }
        }
    }

    #[test]
    fn oversized_length_is_damage() {
        let mut buf = Vec::new();
        encode(b"x", &mut buf);
        buf[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(check(&buf, 1 << 20), Check::Damaged(_)));
    }

    #[test]
    fn begin_finish_matches_encode() {
        let mut a = Vec::new();
        encode(b"same bytes", &mut a);
        let mut b = Vec::new();
        let start = begin(&mut b);
        b.extend_from_slice(b"same bytes");
        finish(&mut b, start);
        assert_eq!(a, b);
    }
}
