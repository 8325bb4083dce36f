//! Replication message codec over the journal frame format.
//!
//! See the crate docs for the message grammar. Everything here is pure
//! bytes-in/bytes-out; socket handling lives in [`crate::primary`] and
//! [`crate::replica`].

use qdelay_journal::frame::{self, ReadError, Reader};
use qdelay_journal::Record;
use std::io;

/// Protocol version spoken by this build. A mismatch on either side of
/// the handshake is [`ReplError::Corrupt`], never a silent misread.
pub const PROTO_VERSION: u32 = 1;

/// Largest admitted message payload. Snapshots ride in one frame, so this
/// is far above [`qdelay_journal::MAX_FRAME_LEN`].
pub const REPL_MAX_PAYLOAD: u32 = 1 << 26;

pub(crate) const MSG_HELLO: u8 = 1;
pub(crate) const MSG_WELCOME: u8 = 2;
pub(crate) const MSG_SNAPSHOT: u8 = 3;
pub(crate) const MSG_RECORD: u8 = 4;
pub(crate) const MSG_CAUGHT_UP: u8 = 5;

/// A byte position in one `(epoch, shard)` segment stream: `offset` is
/// the end of the last applied record's frame within segment `counter`.
/// Replaying a stream from its cursor yields exactly the records the
/// cursor's owner has not applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cursor {
    pub epoch: u64,
    pub shard: u32,
    pub counter: u64,
    pub offset: u64,
}

/// How a replication stream fails. `Corrupt` means the bytes cannot be
/// trusted — the replica drops its cursors and reconnects for a full
/// resync; `Io`/`Eof` keep the cursors (the stream was valid, just cut).
#[derive(Debug)]
pub enum ReplError {
    Io(io::Error),
    /// The peer closed the connection cleanly.
    Eof,
    Corrupt(String),
}

impl ReplError {
    pub(crate) fn corrupt(msg: impl Into<String>) -> ReplError {
        ReplError::Corrupt(msg.into())
    }

    /// True when this is a read-timeout tick (the caller's poll interval),
    /// not a real failure.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            ReplError::Io(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut
        )
    }
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Io(e) => write!(f, "replication i/o error: {e}"),
            ReplError::Eof => write!(f, "replication peer closed the stream"),
            ReplError::Corrupt(msg) => write!(f, "replication stream corrupt: {msg}"),
        }
    }
}

impl std::error::Error for ReplError {}

impl From<io::Error> for ReplError {
    fn from(e: io::Error) -> Self {
        ReplError::Io(e)
    }
}

/// A message the frame reader refused is corrupt.
impl From<ReadError> for ReplError {
    fn from(e: ReadError) -> Self {
        ReplError::Corrupt(e.to_string())
    }
}

/// A decoded replication message.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    Hello { version: u32, cursors: Vec<Cursor> },
    Welcome { version: u32, resume: bool },
    Snapshot(Vec<u8>),
    Record { cursor: Cursor, record: Record },
    CaughtUp,
}

fn put_cursor(c: Cursor, out: &mut Vec<u8>) {
    out.extend_from_slice(&c.epoch.to_le_bytes());
    out.extend_from_slice(&c.shard.to_le_bytes());
    out.extend_from_slice(&c.counter.to_le_bytes());
    out.extend_from_slice(&c.offset.to_le_bytes());
}

/// Appends one framed HELLO carrying the replica's cursors.
pub fn encode_hello(cursors: &[Cursor], out: &mut Vec<u8>) {
    let start = frame::begin(out);
    out.push(MSG_HELLO);
    out.extend_from_slice(&PROTO_VERSION.to_le_bytes());
    out.extend_from_slice(&(cursors.len() as u32).to_le_bytes());
    for &c in cursors {
        put_cursor(c, out);
    }
    frame::finish(out, start);
}

/// Appends one framed WELCOME.
pub fn encode_welcome(resume: bool, out: &mut Vec<u8>) {
    let start = frame::begin(out);
    out.push(MSG_WELCOME);
    out.extend_from_slice(&PROTO_VERSION.to_le_bytes());
    out.push(u8::from(resume));
    frame::finish(out, start);
}

/// Appends one framed SNAPSHOT wrapping opaque snapshot bytes (empty
/// bytes mean "empty state": the replica wipes everything).
pub fn encode_snapshot(bytes: &[u8], out: &mut Vec<u8>) {
    let start = frame::begin(out);
    out.push(MSG_SNAPSHOT);
    out.extend_from_slice(bytes);
    frame::finish(out, start);
}

/// Appends one framed RECORD: the record plus the cursor a replica holds
/// after applying it.
pub fn encode_record(cursor: Cursor, record: &Record, out: &mut Vec<u8>) {
    let start = frame::begin(out);
    out.push(MSG_RECORD);
    put_cursor(cursor, out);
    record.encode(out);
    frame::finish(out, start);
}

/// Appends one framed CAUGHT_UP.
pub fn encode_caught_up(out: &mut Vec<u8>) {
    let start = frame::begin(out);
    out.push(MSG_CAUGHT_UP);
    frame::finish(out, start);
}

fn cursor(r: &mut Reader<'_>) -> Result<Cursor, ReplError> {
    Ok(Cursor {
        epoch: r.u64("cursor epoch")?,
        shard: r.u32("cursor shard")?,
        counter: r.u64("cursor counter")?,
        offset: r.u64("cursor offset")?,
    })
}

/// Decodes one message from a full frame payload. The payload must be
/// exactly one message; damage of any kind — unknown type, short body,
/// trailing bytes, an undecodable record, a version this build does not
/// speak — is a typed [`ReplError::Corrupt`].
pub fn decode_msg(payload: &[u8]) -> Result<Msg, ReplError> {
    let mut r = Reader::new(payload);
    match r.u8("message type")? {
        MSG_HELLO => {
            let version = r.u32("version")?;
            if version != PROTO_VERSION {
                return Err(ReplError::corrupt(format!(
                    "peer speaks repl protocol {version}, this build speaks {PROTO_VERSION}"
                )));
            }
            let n = r.u32("cursor count")? as usize;
            // 28 bytes per cursor: an absurd count is damage, not an
            // allocation request.
            if n > payload.len() / 28 {
                return Err(ReplError::corrupt("hello cursor count exceeds payload"));
            }
            let mut cursors = Vec::with_capacity(n);
            for _ in 0..n {
                cursors.push(cursor(&mut r)?);
            }
            r.done("hello")?;
            Ok(Msg::Hello { version, cursors })
        }
        MSG_WELCOME => {
            let version = r.u32("version")?;
            if version != PROTO_VERSION {
                return Err(ReplError::corrupt(format!(
                    "primary speaks repl protocol {version}, this build speaks {PROTO_VERSION}"
                )));
            }
            let resume = match r.u8("resume")? {
                0 => false,
                1 => true,
                other => {
                    return Err(ReplError::corrupt(format!("bad welcome resume byte {other}")))
                }
            };
            r.done("welcome")?;
            Ok(Msg::Welcome { version, resume })
        }
        MSG_SNAPSHOT => Ok(Msg::Snapshot(payload[1..].to_vec())),
        MSG_RECORD => {
            let cursor = cursor(&mut r)?;
            let record = Record::decode(r.rest())
                .map_err(|e| ReplError::corrupt(format!("record payload: {e}")))?;
            Ok(Msg::Record { cursor, record })
        }
        MSG_CAUGHT_UP => {
            r.done("caught-up")?;
            Ok(Msg::CaughtUp)
        }
        other => Err(ReplError::corrupt(format!("unknown message type {other}"))),
    }
}

/// Exact encoded byte length of a record (without framing) — cheap enough
/// to call per publish for the lag-bytes gauge.
pub fn record_encoded_len(r: &Record) -> u64 {
    let feedback = 8 * (u64::from(r.predicted_bmbp.is_some())
        + u64::from(r.predicted_lognormal.is_some()));
    2 + r.site.len() as u64 + 2 + r.queue.len() as u64 + 1 + r.range.len() as u64
        + 8 + 8 + 1 + feedback
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdelay_journal::frame::Check;

    fn sample_record(seq: u64) -> Record {
        Record {
            site: "datastar".into(),
            queue: "normal".into(),
            range: "5-16".into(),
            seq,
            wait: seq as f64 * 1.5,
            predicted_bmbp: (seq % 2 == 0).then_some(seq as f64),
            predicted_lognormal: None,
            tombstone: false,
        }
    }

    fn decode_one(buf: &[u8]) -> Msg {
        match frame::check(buf, REPL_MAX_PAYLOAD) {
            Check::Complete { start, end, next } => {
                assert_eq!(next, buf.len(), "exactly one frame expected");
                decode_msg(&buf[start..end]).unwrap()
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn every_message_round_trips() {
        let cursors = vec![
            Cursor { epoch: 1, shard: 0, counter: 3, offset: 999 },
            Cursor { epoch: 2, shard: 7, counter: 0, offset: 24 },
        ];
        let mut buf = Vec::new();
        encode_hello(&cursors, &mut buf);
        assert_eq!(decode_one(&buf), Msg::Hello { version: PROTO_VERSION, cursors });

        for resume in [false, true] {
            let mut buf = Vec::new();
            encode_welcome(resume, &mut buf);
            assert_eq!(decode_one(&buf), Msg::Welcome { version: PROTO_VERSION, resume });
        }

        let mut buf = Vec::new();
        encode_snapshot(b"{\"version\":2}", &mut buf);
        assert_eq!(decode_one(&buf), Msg::Snapshot(b"{\"version\":2}".to_vec()));
        let mut buf = Vec::new();
        encode_snapshot(b"", &mut buf);
        assert_eq!(decode_one(&buf), Msg::Snapshot(Vec::new()));

        let cursor = Cursor { epoch: 4, shard: 2, counter: 1, offset: 480 };
        let record = sample_record(17);
        let mut buf = Vec::new();
        encode_record(cursor, &record, &mut buf);
        assert_eq!(decode_one(&buf), Msg::Record { cursor, record });

        let mut buf = Vec::new();
        encode_caught_up(&mut buf);
        assert_eq!(decode_one(&buf), Msg::CaughtUp);
    }

    #[test]
    fn damage_is_typed_never_invented() {
        // Unknown type byte.
        assert!(matches!(decode_msg(&[99]), Err(ReplError::Corrupt(_))));
        // Empty payload.
        assert!(matches!(decode_msg(&[]), Err(ReplError::Corrupt(_))));
        // Version mismatch.
        let mut hello = Vec::new();
        encode_hello(&[], &mut hello);
        let payload_at = frame::PREFIX_LEN;
        let mut bad = hello[payload_at..].to_vec();
        bad[1] = 9; // version LSB
        assert!(matches!(decode_msg(&bad), Err(ReplError::Corrupt(_))));
        // Truncations of every message never decode to something else.
        let cursor = Cursor { epoch: 1, shard: 0, counter: 0, offset: 100 };
        let mut rec = Vec::new();
        encode_record(cursor, &sample_record(3), &mut rec);
        let payload = &rec[payload_at..];
        for cut in 1..payload.len() {
            assert!(
                decode_msg(&payload[..cut]).is_err(),
                "truncated record at {cut} decoded"
            );
        }
        // Trailing bytes after a fixed-size message are rejected.
        let mut welcome = Vec::new();
        encode_welcome(true, &mut welcome);
        let mut padded = welcome[payload_at..].to_vec();
        padded.push(0);
        assert!(matches!(decode_msg(&padded), Err(ReplError::Corrupt(_))));
        // Absurd cursor count is damage, not an allocation.
        let mut huge = vec![MSG_HELLO];
        huge.extend_from_slice(&PROTO_VERSION.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_msg(&huge), Err(ReplError::Corrupt(_))));
    }

    #[test]
    fn record_encoded_len_is_exact() {
        for rec in [
            sample_record(1),
            sample_record(2),
            Record::tombstone("s", "q", "65+", 9),
        ] {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            assert_eq!(buf.len() as u64, record_encoded_len(&rec), "{rec:?}");
        }
    }
}
