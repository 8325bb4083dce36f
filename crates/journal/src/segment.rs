//! Segment files: naming, headers, and CRC-framed record streams.
//!
//! A segment is one append-only file of frames. Its name encodes its
//! position in the global journal order:
//!
//! ```text
//! seg-<epoch:010>-<shard:04>-<counter:010>.qdj
//! ```
//!
//! * **epoch** — one server boot. Every boot scans the directory and opens
//!   a fresh epoch (max seen + 1), so a recovering server never appends to
//!   a file a crashed predecessor may have torn.
//! * **shard** — the owning shard event loop within that epoch. Shards own
//!   disjoint partition sets, so segments of the same epoch but different
//!   shards never share a partition and may be read in any relative order.
//! * **counter** — rotation sequence within one (epoch, shard) stream.
//!
//! The fixed-width decimal fields make lexicographic filename order equal
//! to `(epoch, shard, counter)` order, which is the order recovery and
//! compaction consume segments in.
//!
//! File layout:
//!
//! ```text
//! header:  "QDJL" | u32 version | u64 epoch | u32 shard | u32 header_crc
//! frame*:  u32 payload_len | u32 frame_crc | payload bytes
//! ```
//!
//! `frame_crc` covers the length prefix *and* the payload, so a corrupted
//! length cannot silently re-frame the stream. Only the last segment of an
//! (epoch, shard) stream may legitimately end mid-frame (a torn write from
//! a crash); [`read_segment_from`] distinguishes that tolerated torn tail
//! from hard corruption in a sealed segment.
//!
//! The writer sizes the active segment ahead of its frames, so the last
//! segment of a stream may also end in a *zero tail*: all-zero bytes from a
//! frame boundary to the end of the file. A record payload is never empty,
//! so a real frame never starts with a zero length prefix, and a tolerant
//! read ends cleanly there. Sealed segments are trimmed, so in a strict
//! read a zero tail is corruption.

use crate::crc::crc32;
use crate::frame::{self, Check, Reader};
use crate::record::Record;
use crate::JournalError;
use std::path::{Path, PathBuf};

/// Journal format version written and read by this build.
pub const FORMAT_VERSION: u32 = 1;

/// Magic bytes opening every segment file.
pub const MAGIC: [u8; 4] = *b"QDJL";

/// Byte length of the segment header.
pub const HEADER_LEN: usize = 4 + 4 + 8 + 4 + 4;

/// Largest admitted frame payload. Far above any real record; a length
/// prefix beyond this is treated as damage, not an allocation request.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// A parsed segment filename.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SegmentId {
    pub epoch: u64,
    pub shard: u32,
    pub counter: u64,
}

impl SegmentId {
    /// The filename this id maps to.
    pub fn file_name(&self) -> String {
        format!("seg-{:010}-{:04}-{:010}.qdj", self.epoch, self.shard, self.counter)
    }

    /// Parses a filename produced by [`SegmentId::file_name`]; `None` for
    /// anything else (snapshots, temp files, foreign files).
    pub fn parse(name: &str) -> Option<SegmentId> {
        let rest = name.strip_prefix("seg-")?.strip_suffix(".qdj")?;
        let mut parts = rest.split('-');
        let epoch = parts.next()?.parse().ok()?;
        let shard = parts.next()?.parse().ok()?;
        let counter = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(SegmentId { epoch, shard, counter })
    }
}

/// Encodes the header for a new segment.
pub fn encode_header(epoch: u64, shard: u32) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[0..4].copy_from_slice(&MAGIC);
    out[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out[8..16].copy_from_slice(&epoch.to_le_bytes());
    out[16..20].copy_from_slice(&shard.to_le_bytes());
    let crc = crc32(&out[0..20]);
    out[20..24].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Validates a segment header against the id its filename claims.
fn check_header(bytes: &[u8], id: SegmentId) -> Result<(), JournalError> {
    let Some(header) = bytes.get(..HEADER_LEN) else {
        return Err(JournalError::corrupt("segment shorter than its header"));
    };
    let r = &mut Reader::new(header);
    if r.take(4, "magic")? != MAGIC {
        return Err(JournalError::corrupt("bad segment magic"));
    }
    let (version, epoch, shard) = (r.u32("version")?, r.u64("epoch")?, r.u32("shard")?);
    if crc32(&header[..HEADER_LEN - 4]) != r.u32("header checksum")? {
        return Err(JournalError::corrupt("segment header checksum mismatch"));
    }
    if version != FORMAT_VERSION {
        return Err(JournalError::corrupt(format!(
            "segment format version {version} unsupported (this build reads {FORMAT_VERSION})"
        )));
    }
    if epoch != id.epoch || shard != id.shard {
        return Err(JournalError::corrupt(format!(
            "segment header (epoch {epoch}, shard {shard}) disagrees with filename {}",
            id.file_name()
        )));
    }
    Ok(())
}

/// Appends one frame (prefix + payload) for `record` to `out`.
pub fn encode_frame(record: &Record, out: &mut Vec<u8>) {
    let start = frame::begin(out);
    record.encode(out);
    debug_assert!(out.len() - start - frame::PREFIX_LEN <= MAX_FRAME_LEN as usize);
    frame::finish(out, start);
}

/// One decoded record plus the byte offset just past its frame — the
/// replication cursor a replica holds once it has applied the record
/// (resuming a stream at `end_offset` yields exactly the records after
/// this one).
#[derive(Debug, Clone, PartialEq)]
pub struct FramedRecord {
    pub record: Record,
    pub end_offset: u64,
}

/// What [`read_segment_from`] found past a cursor offset.
#[derive(Debug)]
pub struct SegmentFrames {
    /// Decoded records with their end offsets, in file (append) order.
    pub records: Vec<FramedRecord>,
    /// Byte offset of the first damaged/incomplete frame, if the scan
    /// stopped early; `None` when the file parsed to its exact end or to a
    /// zero tail.
    pub torn_at: Option<u64>,
    /// Byte offset just past the last intact frame (the start offset when
    /// there is none): where a torn tail or a zero tail begins, `len` when
    /// the file has neither.
    pub end: u64,
    /// Total file length in bytes.
    pub len: u64,
}

/// Reads a segment starting at a frame-boundary byte offset: `HEADER_LEN`
/// for the whole file (recovery), or a replica's cursor — the `end_offset`
/// of the last record it applied, so resuming there yields exactly the
/// records it has not seen.
///
/// With `tolerate_torn_tail`, the first bad frame (truncated, checksum
/// mismatch, or undecodable) ends the scan: everything before it is
/// returned and `torn_at` records where the damage starts. Without it, any
/// damage is a [`JournalError::Corrupt`] — the mode for sealed segments,
/// which were completed and rotated away and have no business being torn.
/// A damaged header is `Corrupt` in either mode, **unless** the file is so
/// short, or all zeros, that the header itself is the torn tail
/// (`torn_at = 0`, zero records).
/// An all-zero remainder at a frame boundary (the sized-ahead tail of an
/// active segment, see the module docs) ends a tolerant scan cleanly
/// (`torn_at = None`) and is `Corrupt` in a strict one.
/// An offset beyond the file end, or one that does not land on a frame
/// boundary, is corruption, not tolerated tearing — a cursor the primary
/// cannot serve must fail loudly so the replica falls back to a full
/// resync. Inside the frames the CRC framing detects a bad offset; one
/// followed only by zeros is checked by walking the frames from the
/// header, so a cursor inside a zero tail is refused too.
///
/// # Errors
///
/// `Io` when the file cannot be read; `Corrupt` as above.
pub fn read_segment_from(
    path: &Path,
    id: SegmentId,
    start_offset: u64,
    tolerate_torn_tail: bool,
) -> Result<SegmentFrames, JournalError> {
    let bytes = std::fs::read(path).map_err(|e| JournalError::io(path, e))?;
    let len = bytes.len() as u64;
    let fail = |offset: u64, what: String| -> Result<SegmentFrames, JournalError> {
        Err(JournalError::Corrupt {
            segment: path.display().to_string(),
            offset,
            reason: what,
        })
    };
    if let Err(e) = check_header(&bytes, id) {
        // A file shorter than one header, or all zeros (sized ahead before
        // its header reached the disk), can be a torn first write of the
        // active segment; a *wrong* header of full length cannot.
        if tolerate_torn_tail && (bytes.len() < HEADER_LEN || bytes.iter().all(|&b| b == 0)) {
            return Ok(SegmentFrames { records: Vec::new(), torn_at: Some(0), end: 0, len });
        }
        return match e {
            JournalError::Corrupt { reason, .. } => fail(0, reason),
            other => Err(other),
        };
    }
    if start_offset < HEADER_LEN as u64 || start_offset > len {
        return fail(
            start_offset,
            format!("start offset {start_offset} outside segment (len {len})"),
        );
    }
    let zero_from = |pos: usize| bytes[pos..].iter().all(|&b| b == 0);
    let start = start_offset as usize;
    if start > HEADER_LEN && zero_from(start) && !is_frame_end(&bytes, start) {
        return fail(start_offset, format!("start offset {start_offset} is not a frame end"));
    }
    let mut records = Vec::new();
    let mut pos = start;
    while pos < bytes.len() {
        // A real frame's length prefix is never zero, so this stops within
        // four bytes anywhere but in a zero tail.
        if zero_from(pos) {
            if tolerate_torn_tail {
                break;
            }
            return fail(pos as u64, "zero tail in a sealed segment".to_string());
        }
        // A file can only end mid-frame, so Incomplete means the tail is
        // cut — inside the prefix or the payload.
        let damage = match frame::check(&bytes[pos..], MAX_FRAME_LEN) {
            Check::Complete { start, end, next } => {
                if let Ok(record) = Record::decode(&bytes[pos + start..pos + end]) {
                    pos += next;
                    records.push(FramedRecord { record, end_offset: pos as u64 });
                    continue;
                }
                "frame payload does not decode"
            }
            Check::Incomplete if pos + frame::PREFIX_LEN > bytes.len() => "truncated frame prefix",
            Check::Incomplete => "truncated frame payload",
            Check::Damaged(reason) => reason,
        };
        // In tolerant mode any damage ends the scan (returning the intact
        // prefix); in strict mode it is a typed corruption error.
        if tolerate_torn_tail {
            let end = pos as u64;
            return Ok(SegmentFrames { records, torn_at: Some(end), end, len });
        }
        return fail(pos as u64, damage.to_string());
    }
    Ok(SegmentFrames { records, torn_at: None, end: pos as u64, len })
}

/// True when whole frames walked from the header end exactly at `offset`.
fn is_frame_end(bytes: &[u8], offset: usize) -> bool {
    let mut pos = HEADER_LEN;
    while pos < offset {
        match frame::check(&bytes[pos..], MAX_FRAME_LEN) {
            Check::Complete { next, .. } => pos += next,
            _ => return false,
        }
    }
    pos == offset
}

/// Lists the segment files in `dir`, sorted by `(epoch, shard, counter)`.
/// Non-segment files (the snapshot, temp files) are ignored.
pub fn scan_dir(dir: &Path) -> Result<Vec<(SegmentId, PathBuf)>, JournalError> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| JournalError::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| JournalError::io(dir, e))?;
        let name = entry.file_name();
        if let Some(id) = name.to_str().and_then(SegmentId::parse) {
            out.push((id, entry.path()));
        }
    }
    out.sort_by_key(|(id, _)| *id);
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A whole segment through [`read_segment_from`], its records without
    /// their end offsets.
    pub(crate) struct Whole {
        pub records: Vec<Record>,
        pub torn_at: Option<u64>,
    }

    pub(crate) fn read_segment(
        path: &Path,
        id: SegmentId,
        tolerant: bool,
    ) -> Result<Whole, JournalError> {
        let frames = read_segment_from(path, id, HEADER_LEN as u64, tolerant)?;
        let records = frames.records.into_iter().map(|f| f.record).collect();
        Ok(Whole { records, torn_at: frames.torn_at })
    }

    fn rec(seq: u64) -> Record {
        Record {
            site: "s".into(),
            queue: "q".into(),
            range: "1-4".into(),
            seq,
            wait: seq as f64 * 1.5,
            predicted_bmbp: (seq % 2 == 0).then_some(seq as f64),
            predicted_lognormal: None,
            tombstone: false,
        }
    }

    fn build_segment(id: SegmentId, seqs: std::ops::Range<u64>) -> Vec<u8> {
        let mut bytes = encode_header(id.epoch, id.shard).to_vec();
        for s in seqs {
            encode_frame(&rec(s), &mut bytes);
        }
        bytes
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("qdelay-journal-segment-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn filename_round_trip_and_ordering() {
        let id = SegmentId { epoch: 3, shard: 1, counter: 42 };
        assert_eq!(SegmentId::parse(&id.file_name()), Some(id));
        assert_eq!(id.file_name(), "seg-0000000003-0001-0000000042.qdj");
        // Lexicographic filename order == tuple order.
        let ids = [
            SegmentId { epoch: 1, shard: 2, counter: 9 },
            SegmentId { epoch: 2, shard: 0, counter: 0 },
            SegmentId { epoch: 2, shard: 0, counter: 10 },
            SegmentId { epoch: 2, shard: 1, counter: 3 },
        ];
        let mut names: Vec<String> = ids.iter().map(SegmentId::file_name).collect();
        names.sort();
        assert_eq!(names, ids.iter().map(SegmentId::file_name).collect::<Vec<_>>());
        // Foreign names are ignored.
        assert_eq!(SegmentId::parse("snapshot.json"), None);
        assert_eq!(SegmentId::parse("seg-1-2.qdj"), None);
        assert_eq!(SegmentId::parse("seg-a-b-c.qdj"), None);
    }

    #[test]
    fn write_read_round_trip() {
        let id = SegmentId { epoch: 1, shard: 0, counter: 0 };
        let path = tmp("round-trip.qdj");
        std::fs::write(&path, build_segment(id, 1..20)).unwrap();
        let got = read_segment(&path, id, false).unwrap();
        assert_eq!(got.records.len(), 19);
        assert_eq!(got.torn_at, None);
        for (i, r) in got.records.iter().enumerate() {
            assert_eq!(r, &rec(i as u64 + 1));
        }
    }

    #[test]
    fn cursor_resume_yields_exactly_the_suffix() {
        let id = SegmentId { epoch: 1, shard: 0, counter: 0 };
        let path = tmp("cursor.qdj");
        std::fs::write(&path, build_segment(id, 1..10)).unwrap();
        let full = read_segment_from(&path, id, HEADER_LEN as u64, false).unwrap();
        assert_eq!(full.records.len(), 9);
        // End offsets are strictly increasing and the last one is the file
        // end — a fully-applied replica's cursor is the file length.
        let mut prev = HEADER_LEN as u64;
        for f in &full.records {
            assert!(f.end_offset > prev);
            prev = f.end_offset;
        }
        assert_eq!(prev, full.len);
        // Resuming at any record's end offset yields exactly the suffix,
        // bit-identically.
        for (i, f) in full.records.iter().enumerate() {
            let rest = read_segment_from(&path, id, f.end_offset, false).unwrap();
            assert_eq!(rest.records.len(), 8 - i);
            assert_eq!(rest.records, full.records[i + 1..].to_vec());
        }
        // Off-boundary and out-of-range offsets are typed corruption in
        // both modes, never a tolerated tear at a bogus position.
        for bad in [HEADER_LEN as u64 + 1, 3, full.len + 50] {
            assert!(read_segment_from(&path, id, bad, false).is_err(), "offset {bad}");
        }
        assert!(read_segment_from(&path, id, full.len + 50, true).is_err());
    }

    #[test]
    fn torn_tail_is_tolerated_only_in_tolerant_mode() {
        let id = SegmentId { epoch: 1, shard: 0, counter: 0 };
        let full = build_segment(id, 1..10);
        let path = tmp("torn.qdj");
        // Cut mid-way through the last frame.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let got = read_segment(&path, id, true).unwrap();
        assert_eq!(got.records.len(), 8);
        assert!(got.torn_at.is_some());
        assert!(matches!(
            read_segment(&path, id, false),
            Err(JournalError::Corrupt { .. })
        ));
    }

    #[test]
    fn zero_tail_is_a_clean_end_only_in_tolerant_mode() {
        let id = SegmentId { epoch: 1, shard: 0, counter: 0 };
        let mut bytes = build_segment(id, 1..10);
        let end = bytes.len() as u64;
        bytes.resize(bytes.len() + 3000, 0);
        let path = tmp("zero-tail.qdj");
        std::fs::write(&path, &bytes).unwrap();
        let got = read_segment_from(&path, id, HEADER_LEN as u64, true).unwrap();
        assert_eq!(got.records.len(), 9);
        assert_eq!(got.torn_at, None, "a zero tail is not a torn tail");
        assert_eq!((got.end, got.len), (end, bytes.len() as u64));
        // A sealed segment is trimmed: zeros there are damage.
        assert!(matches!(
            read_segment(&path, id, false),
            Err(JournalError::Corrupt { offset, .. }) if offset == end
        ));
        // Shorter than a frame prefix is a zero tail too.
        std::fs::write(&path, &bytes[..end as usize + 3]).unwrap();
        let got = read_segment(&path, id, true).unwrap();
        assert_eq!((got.records.len(), got.torn_at), (9, None));
    }

    #[test]
    fn torn_frame_followed_by_zeros_is_still_a_torn_tail() {
        let id = SegmentId { epoch: 1, shard: 0, counter: 0 };
        let full = build_segment(id, 1..10);
        let mut bytes = full[..full.len() - 5].to_vec();
        bytes.resize(full.len() + 3000, 0);
        let path = tmp("torn-zero-tail.qdj");
        std::fs::write(&path, &bytes).unwrap();
        let got = read_segment_from(&path, id, HEADER_LEN as u64, true).unwrap();
        assert_eq!(got.records.len(), 8);
        let last_end = got.records.last().unwrap().end_offset;
        assert_eq!(got.torn_at, Some(last_end));
        assert_eq!(got.end, last_end);
    }

    #[test]
    fn cursor_inside_a_zero_tail_is_corrupt() {
        let id = SegmentId { epoch: 1, shard: 0, counter: 0 };
        let mut bytes = build_segment(id, 1..10);
        let end = bytes.len() as u64;
        bytes.resize(bytes.len() + 3000, 0);
        let len = bytes.len() as u64;
        let path = tmp("cursor-zero-tail.qdj");
        std::fs::write(&path, &bytes).unwrap();
        // At the last frame's end: nothing to ship, and no error.
        let rest = read_segment_from(&path, id, end, true).unwrap();
        assert!(rest.records.is_empty());
        assert_eq!((rest.torn_at, rest.end), (None, end));
        // Anywhere past it, up to and including EOF, or on the last
        // record's zero flags byte (followed only by zeros too): typed
        // corruption, so a replica resyncs instead of receiving nothing.
        assert_eq!(bytes[end as usize - 1], 0, "the last record ends in a zero byte");
        for bad in [end - 1, end + 1, end + 8, end + 1500, len] {
            assert!(
                matches!(read_segment_from(&path, id, bad, true), Err(JournalError::Corrupt { .. })),
                "offset {bad}"
            );
        }
    }

    #[test]
    fn all_zero_file_is_a_torn_first_write() {
        let id = SegmentId { epoch: 1, shard: 0, counter: 0 };
        let path = tmp("all-zero.qdj");
        std::fs::write(&path, vec![0u8; 4096]).unwrap();
        let got = read_segment_from(&path, id, HEADER_LEN as u64, true).unwrap();
        assert!(got.records.is_empty());
        assert_eq!((got.torn_at, got.end), (Some(0), 0));
        assert!(matches!(read_segment(&path, id, false), Err(JournalError::Corrupt { .. })));
    }

    #[test]
    fn header_damage_is_corrupt_even_in_tolerant_mode() {
        let id = SegmentId { epoch: 1, shard: 0, counter: 0 };
        let mut bytes = build_segment(id, 1..5);
        bytes[2] ^= 0xFF; // magic
        let path = tmp("bad-header.qdj");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_segment(&path, id, true),
            Err(JournalError::Corrupt { .. })
        ));
        // ...but a sub-header-length file is a torn first write.
        std::fs::write(&path, &bytes[..7]).unwrap();
        let got = read_segment(&path, id, true).unwrap();
        assert!(got.records.is_empty());
        assert_eq!(got.torn_at, Some(0));
    }

    #[test]
    fn header_filename_mismatch_is_corrupt() {
        let id = SegmentId { epoch: 1, shard: 0, counter: 0 };
        let other = SegmentId { epoch: 2, shard: 0, counter: 0 };
        let path = tmp("mismatch.qdj");
        std::fs::write(&path, build_segment(id, 1..5)).unwrap();
        assert!(matches!(
            read_segment(&path, other, true),
            Err(JournalError::Corrupt { .. })
        ));
    }

    #[test]
    fn interior_bit_flip_stops_at_the_damaged_frame() {
        let id = SegmentId { epoch: 1, shard: 0, counter: 0 };
        let mut bytes = build_segment(id, 1..10);
        // Flip one payload byte of roughly the 4th frame.
        let target = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[target] ^= 0x10;
        let path = tmp("flip.qdj");
        std::fs::write(&path, &bytes).unwrap();
        let got = read_segment(&path, id, true).unwrap();
        assert!(got.records.len() < 9, "damaged frame must not decode");
        assert!(got.torn_at.is_some());
        // Records before the damage are bit-identical.
        for (i, r) in got.records.iter().enumerate() {
            assert_eq!(r, &rec(i as u64 + 1));
        }
    }

    #[test]
    fn oversized_length_prefix_is_damage_not_allocation() {
        let id = SegmentId { epoch: 1, shard: 0, counter: 0 };
        let mut bytes = encode_header(1, 0).to_vec();
        bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        let path = tmp("huge-len.qdj");
        std::fs::write(&path, &bytes).unwrap();
        let got = read_segment(&path, id, true).unwrap();
        assert!(got.records.is_empty());
        assert_eq!(got.torn_at, Some(HEADER_LEN as u64));
    }

    #[test]
    fn scan_dir_orders_and_filters() {
        let dir = std::env::temp_dir().join("qdelay-journal-scan-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ids = [
            SegmentId { epoch: 2, shard: 0, counter: 0 },
            SegmentId { epoch: 1, shard: 1, counter: 5 },
            SegmentId { epoch: 1, shard: 0, counter: 7 },
        ];
        for id in ids {
            std::fs::write(dir.join(id.file_name()), b"x").unwrap();
        }
        std::fs::write(dir.join("snapshot.json"), b"{}").unwrap();
        std::fs::write(dir.join("snapshot.json.tmp"), b"{}").unwrap();
        let scanned = scan_dir(&dir).unwrap();
        let order: Vec<SegmentId> = scanned.iter().map(|(id, _)| *id).collect();
        assert_eq!(
            order,
            vec![
                SegmentId { epoch: 1, shard: 0, counter: 7 },
                SegmentId { epoch: 1, shard: 1, counter: 5 },
                SegmentId { epoch: 2, shard: 0, counter: 0 },
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
