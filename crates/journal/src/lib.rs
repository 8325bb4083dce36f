//! # qdelay-journal
//!
//! Append-only write-ahead log of `observe` records for `qdelay-serve`:
//! the durability substrate that turns "state is a pure function of the
//! observation sequence" (proved by `qdelay-predict`'s replay-equality
//! tests) into crash safety.
//!
//! Like every other crate in the workspace it is first-party and
//! dependency-free: the container builds offline.
//!
//! ## Pieces
//!
//! * [`Record`] — one acknowledged observation (partition key, per-partition
//!   sequence number, wait, optional outcome feedback), encoded as raw
//!   IEEE-754 bits so replay is bit-exact. See [`record`].
//! * [`segment`] — CRC-framed binary segment files with headers carrying
//!   format version and boot epoch, named so lexicographic order equals
//!   replay order.
//! * [`JournalWriter`] — per-shard appender with group commit (one buffered
//!   write per serve drain cycle), an [`FsyncPolicy`] knob, and rotation at
//!   a byte threshold.
//! * [`recover`] — boot-time scan: order segments, tolerate (and truncate)
//!   a torn tail on the newest segment of each stream, hard-error on
//!   mid-stream damage, and hand back records in ack order.
//! * [`write_atomic`] — tmp + `sync_all` + rename + directory fsync, the
//!   snapshot write primitive that can never clobber the previous good
//!   snapshot.
//!
//! ## Durability contract
//!
//! A record is journaled **before** its `observe` is acknowledged, so the
//! set of acked observations is always a subset of `journal ∪ snapshot`.
//! Recovery therefore reconstructs a state at least as new as anything a
//! client saw confirmed; torn tails can only contain *unacked* records.

mod atomic;
mod crc;
pub mod frame;
mod record;
mod recovery;
mod segment;
mod writer;

pub use atomic::{tmp_path, write_atomic, TMP_SUFFIX};
pub use crc::{crc32, Crc32};
pub use record::{Record, MAX_NAME_LEN};
pub use recovery::{recover, RecoverMode, RecoveredStream, Recovery};
pub use segment::{
    encode_frame, encode_header, read_segment_from, scan_dir, FramedRecord, SegmentFrames,
    SegmentId, FORMAT_VERSION, HEADER_LEN, MAX_FRAME_LEN,
};
pub use writer::{JournalWriter, SealedSegment};

use qdelay_telemetry::{Counter, Gauge, LatencyHistogram};
use std::path::Path;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Telemetry instruments (public: serve's compaction glue records into some
// of these so journal.* stays the single namespace for durability metrics).

/// Bytes appended to segment files (frames only, not headers).
pub static APPEND_BYTES: Counter = Counter::new("journal.append_bytes");
/// Records appended.
pub static RECORDS: Counter = Counter::new("journal.records");
/// Group commits (one per non-empty drain cycle).
pub static COMMITS: Counter = Counter::new("journal.commits");
/// Wall time of one group commit (buffered write + any fsync), ns.
pub static COMMIT_NS: LatencyHistogram = LatencyHistogram::new("journal.commit_ns");
/// fsyncs actually issued (policy-dependent).
pub static FSYNCS: Counter = Counter::new("journal.fsyncs");
/// Wall time of one fsync, ns.
pub static FSYNC_NS: LatencyHistogram = LatencyHistogram::new("journal.fsync_ns");
/// Segment rotations.
pub static ROTATIONS: Counter = Counter::new("journal.rotations");
/// Compaction passes (the snapshot rewritten, sealed segments deleted).
pub static COMPACTIONS: Counter = Counter::new("journal.compactions");
/// Segments deleted by compaction.
pub static COMPACTED_SEGMENTS: Counter = Counter::new("journal.compacted_segments");
/// Wall time of one compaction pass, in microseconds.
pub static COMPACT_US: LatencyHistogram = LatencyHistogram::new("journal.compact_us");
/// The longest single shard-lock hold within one compaction pass, in
/// microseconds: what the pass cost the traffic of that shard.
pub static COMPACT_LOCK_US: LatencyHistogram = LatencyHistogram::new("journal.compact_lock_us");
/// Live segment files on disk (last observed).
pub static LIVE_SEGMENTS: Gauge = Gauge::new("journal.segments");
/// Live journal bytes on disk (last observed): the blocks allocated to the
/// segment files × 512, so a sized-ahead segment's sparse zero tail does
/// not count.
pub static LIVE_BYTES: Gauge = Gauge::new("journal.live_bytes");
/// Records replayed during recovery.
pub static RECOVERY_RECORDS: Counter = Counter::new("journal.recovery.records");
/// Segments read during recovery.
pub static RECOVERY_SEGMENTS: Counter = Counter::new("journal.recovery.segments");
/// Duration of the last recovery, milliseconds.
pub static RECOVERY_MS: Gauge = Gauge::new("journal.recovery_ms");
/// Torn tails found (and truncated) during recovery.
pub static TORN_TAILS: Counter = Counter::new("journal.torn_tails");
/// Bytes discarded by torn-tail truncation.
pub static TORN_TAIL_BYTES: Counter = Counter::new("journal.torn_tail_bytes");

// ---------------------------------------------------------------------------

/// Everything that can go wrong in the journal, split the only way callers
/// care about: the environment failed ([`Io`](JournalError::Io)) versus the
/// bytes on disk are wrong ([`Corrupt`](JournalError::Corrupt)).
#[derive(Debug)]
pub enum JournalError {
    /// An OS-level I/O failure (open, read, write, fsync, rename, ...).
    Io {
        /// The path the operation targeted, when known.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The on-disk bytes do not form a valid journal. Recovery reports
    /// this for damage it is not allowed to tolerate (anything other than
    /// a torn tail on the newest segment of a stream); it is never a
    /// panic and never silently skipped.
    Corrupt {
        /// The segment file involved, when known (may be empty for
        /// payload-level decode errors detected before file context).
        segment: String,
        /// Byte offset of the damage within the segment, when known.
        offset: u64,
        /// Human-readable description of the damage.
        reason: String,
    },
}

impl JournalError {
    /// A corruption error with no file context yet (used by payload
    /// decoding; the segment reader attaches file + offset).
    pub fn corrupt(reason: impl Into<String>) -> Self {
        JournalError::Corrupt { segment: String::new(), offset: 0, reason: reason.into() }
    }

    /// An I/O error tagged with the path it hit.
    pub fn io(path: &Path, source: std::io::Error) -> Self {
        JournalError::Io { path: path.display().to_string(), source }
    }

    /// True for [`JournalError::Corrupt`].
    pub fn is_corrupt(&self) -> bool {
        matches!(self, JournalError::Corrupt { .. })
    }
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { path, source } => {
                if path.is_empty() {
                    write!(f, "journal io error: {source}")
                } else {
                    write!(f, "journal io error at {path}: {source}")
                }
            }
            JournalError::Corrupt { segment, offset, reason } => {
                if segment.is_empty() {
                    write!(f, "corrupt journal record: {reason}")
                } else {
                    write!(f, "corrupt journal segment {segment} at byte {offset}: {reason}")
                }
            }
        }
    }
}

/// A record payload the frame reader refused is corrupt.
impl From<frame::ReadError> for JournalError {
    fn from(e: frame::ReadError) -> Self {
        JournalError::corrupt(e.to_string())
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            JournalError::Corrupt { .. } => None,
        }
    }
}

/// When the journal forces appended bytes to stable storage.
///
/// | policy | durability after `kill -9` | cost |
/// |---|---|---|
/// | `Always` | every acked observe | one fsync per drain cycle |
/// | `Interval(d)` | all but the last ≤ `d` of acks | one fsync per `d` |
/// | `Never` | page cache only (process crash safe, power loss not) | none |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync at the end of every group commit.
    Always,
    /// fsync at most once per interval, piggybacked on commits.
    Interval(Duration),
    /// Never fsync; rely on the OS page cache (still safe against process
    /// death, because `write(2)` completed before the ack).
    Never,
}

impl FsyncPolicy {
    /// Parses the CLI form: `always`, `never`, `interval` (default 100 ms),
    /// or `interval:<ms>`.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            "interval" => Ok(FsyncPolicy::Interval(Duration::from_millis(100))),
            other => {
                if let Some(ms) = other.strip_prefix("interval:") {
                    let ms: u64 = ms
                        .parse()
                        .map_err(|_| format!("bad fsync interval {ms:?} (want milliseconds)"))?;
                    Ok(FsyncPolicy::Interval(Duration::from_millis(ms)))
                } else {
                    Err(format!(
                        "unknown fsync policy {other:?} (want always | never | interval[:ms])"
                    ))
                }
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Never => write!(f, "never"),
            FsyncPolicy::Interval(d) => write!(f, "interval:{}", d.as_millis()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_parses_cli_forms() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("interval"),
            Ok(FsyncPolicy::Interval(Duration::from_millis(100)))
        );
        assert_eq!(
            FsyncPolicy::parse("interval:250"),
            Ok(FsyncPolicy::Interval(Duration::from_millis(250)))
        );
        assert!(FsyncPolicy::parse("interval:abc").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        for s in ["always", "never", "interval:250"] {
            assert_eq!(FsyncPolicy::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn error_display_carries_context() {
        let e = JournalError::corrupt("bad flags");
        assert!(e.is_corrupt());
        assert!(e.to_string().contains("bad flags"));
        let e = JournalError::Corrupt {
            segment: "seg-x.qdj".into(),
            offset: 99,
            reason: "checksum".into(),
        };
        let s = e.to_string();
        assert!(s.contains("seg-x.qdj") && s.contains("99") && s.contains("checksum"));
        let e = JournalError::io(
            Path::new("/nope"),
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(!e.is_corrupt());
        assert!(e.to_string().contains("/nope"));
    }
}
