//! Boot-time journal recovery.
//!
//! Scans a journal directory, orders segments by `(epoch, shard, counter)`
//! and replays every frame in that order. Torn tails are tolerated **only**
//! where a crash can legitimately produce them: the highest-counter
//! (active-at-crash) segment of each `(epoch, shard)` stream. Rotation
//! syncs a segment before sealing it, so damage anywhere else means the
//! file was modified outside the journal's write path — that is reported
//! as a typed [`JournalError::Corrupt`], never tolerated, never a panic.
//! The same active segment may end in a zero tail (the writer sizes it
//! ahead of its frames): that is a clean end, not a torn tail.
//!
//! Replay order is sufficient for bit-identical state reconstruction:
//! within one stream, frames appear in append (= ack) order; across shards
//! the partition sets are disjoint; across epochs, the earlier epoch's
//! records were acked before the later epoch's process even started.

use crate::segment::{read_segment_from, scan_dir, SegmentId, HEADER_LEN};
use crate::{JournalError, Record};
use std::path::Path;
use std::time::Instant;

/// Whether recovery may repair torn tails in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverMode {
    /// Read-only scan: torn tails are tolerated and reported but the
    /// files are left untouched (for inspection tools and dry runs).
    ReadOnly,
    /// Truncate each torn tail at the first bad frame and each zero tail
    /// at its start, so the directory is fully clean afterwards: no file
    /// keeps a tail. This is what the server uses at boot.
    TruncateTornTails,
}

/// Per-stream summary of what recovery read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredStream {
    /// Boot epoch of the stream.
    pub epoch: u64,
    /// Owning shard index within that epoch.
    pub shard: u32,
    /// Number of segment files read.
    pub segments: u64,
    /// Records replayed from this stream.
    pub records: u64,
    /// Bytes of torn tail found (0 for a clean stream).
    pub torn_bytes: u64,
}

/// The result of a full journal scan.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Every intact record, in replay (ack) order.
    pub records: Vec<Record>,
    /// Per-stream summaries, in `(epoch, shard)` order.
    pub streams: Vec<RecoveredStream>,
    /// The epoch a new writer should open: max seen + 1, or 1 for an
    /// empty directory. A recovering server never appends to a file a
    /// crashed predecessor may have torn.
    pub next_epoch: u64,
    /// Total segment files read.
    pub segments_read: u64,
    /// Total torn tails found.
    pub torn_tails: u64,
    /// Total bytes past the last intact frame across all torn tails.
    pub torn_bytes: u64,
}

/// Scans `dir` and replays the journal. A missing directory is an empty
/// journal, not an error (first boot).
///
/// # Errors
///
/// `Io` if the directory or a segment cannot be read (or truncated, in
/// [`RecoverMode::TruncateTornTails`]); `Corrupt` for damage outside a
/// legitimate torn-tail position.
pub fn recover(dir: &Path, mode: RecoverMode) -> Result<Recovery, JournalError> {
    let started = Instant::now();
    let mut out = Recovery { next_epoch: 1, ..Recovery::default() };
    if !dir.exists() {
        return Ok(out);
    }
    let segments = scan_dir(dir)?;
    let stream_of = |id: &SegmentId| (id.epoch, id.shard);
    for (i, (id, path)) in segments.iter().enumerate() {
        out.next_epoch = out.next_epoch.max(id.epoch + 1);
        // The active segment of each (epoch, shard) stream — the only place
        // a torn tail is legitimate — is the one with the highest counter:
        // the last of its stream in scan order.
        let tolerant = segments.get(i + 1).is_none_or(|(next, _)| stream_of(next) != stream_of(id));
        let contents = read_segment_from(path, *id, HEADER_LEN as u64, tolerant)?;
        out.segments_read += 1;
        crate::RECOVERY_SEGMENTS.incr();
        let record_count = contents.records.len() as u64;
        crate::RECOVERY_RECORDS.add(record_count);
        let torn_bytes = match contents.torn_at {
            Some(offset) => {
                let torn = contents.len - offset;
                out.torn_tails += 1;
                out.torn_bytes += torn;
                crate::TORN_TAILS.incr();
                crate::TORN_TAIL_BYTES.add(torn);
                torn
            }
            None => 0,
        };
        // `end` is the torn tail's start, or a zero tail's.
        if mode == RecoverMode::TruncateTornTails && contents.end < contents.len {
            truncate_at(path, contents.end)?;
        }
        out.records.extend(contents.records.into_iter().map(|f| f.record));
        // Fold into the per-stream summary (segments arrive grouped by
        // (epoch, shard) because scan order sorts by counter last).
        match out.streams.last_mut() {
            Some(s) if (s.epoch, s.shard) == stream_of(id) => {
                s.segments += 1;
                s.records += record_count;
                s.torn_bytes += torn_bytes;
            }
            _ => out.streams.push(RecoveredStream {
                epoch: id.epoch,
                shard: id.shard,
                segments: 1,
                records: record_count,
                torn_bytes,
            }),
        }
    }
    crate::RECOVERY_MS.set(started.elapsed().as_millis().min(u64::MAX as u128) as u64);
    Ok(out)
}

/// Truncates a segment at the end of its last intact frame and syncs both
/// the file and its directory, so the repair itself survives a crash. A
/// torn-below-header file (offset 0) is removed outright — it never
/// carried a valid header, so an empty husk would be corrupt on the
/// next scan.
fn truncate_at(path: &Path, offset: u64) -> Result<(), JournalError> {
    if offset == 0 {
        std::fs::remove_file(path).map_err(|e| JournalError::io(path, e))?;
    } else {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| JournalError::io(path, e))?;
        file.set_len(offset).map_err(|e| JournalError::io(path, e))?;
        file.sync_all().map_err(|e| JournalError::io(path, e))?;
    }
    if let Some(parent) = path.parent() {
        crate::atomic::sync_dir(parent)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SegmentId;
    use crate::writer::JournalWriter;
    use crate::FsyncPolicy;
    use std::path::PathBuf;

    fn rec(site: &str, seq: u64) -> Record {
        Record {
            site: site.into(),
            queue: "batch".into(),
            range: "17-64".into(),
            seq,
            wait: seq as f64 * 7.5,
            predicted_bmbp: None,
            predicted_lognormal: Some(seq as f64),
            tombstone: false,
        }
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qdelay-journal-recovery-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes records with the given seqs for `site` through a real
    /// writer with rotation.
    fn write_stream(
        dir: &Path,
        epoch: u64,
        shard: u32,
        site: &str,
        seqs: std::ops::RangeInclusive<u64>,
    ) {
        let mut w =
            JournalWriter::open(dir, epoch, shard, 96, FsyncPolicy::Never, None).unwrap();
        for s in seqs {
            w.append(&rec(site, s));
            w.commit().unwrap();
        }
        w.close().unwrap();
    }

    #[test]
    fn empty_or_missing_directory_is_a_clean_first_boot() {
        let dir = fresh_dir("empty");
        let r = recover(&dir, RecoverMode::ReadOnly).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.next_epoch, 1);
        let r = recover(&dir.join("does-not-exist"), RecoverMode::ReadOnly).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.next_epoch, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_epoch_multi_shard_replay_order() {
        let dir = fresh_dir("order");
        write_stream(&dir, 1, 0, "alpha", 1..=6);
        write_stream(&dir, 1, 1, "beta", 1..=4);
        // Epoch 2: the restarted server continues alpha's sequence.
        write_stream(&dir, 2, 0, "alpha", 7..=9);
        let r = recover(&dir, RecoverMode::ReadOnly).unwrap();
        assert_eq!(r.next_epoch, 3);
        assert_eq!(r.torn_tails, 0);
        // Per-site seq order is preserved (ack order within a partition).
        for site in ["alpha", "beta"] {
            let seqs: Vec<u64> =
                r.records.iter().filter(|x| x.site == site).map(|x| x.seq).collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(seqs, sorted, "{site} replayed out of order");
        }
        assert_eq!(r.records.len(), 13);
        // Epoch 1 records all precede epoch 2 records for the same site.
        let alpha: Vec<u64> =
            r.records.iter().filter(|x| x.site == "alpha").map(|x| x.seq).collect();
        assert_eq!(alpha, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(r.streams.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_next_boot_is_clean() {
        let dir = fresh_dir("torn");
        write_stream(&dir, 1, 0, "gamma", 1..=5);
        // Tear the active (highest-counter) segment mid-frame.
        let segments = scan_dir(&dir).unwrap();
        let (_, last_path) = segments.last().unwrap();
        let len = std::fs::metadata(last_path).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(last_path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        let r = recover(&dir, RecoverMode::TruncateTornTails).unwrap();
        assert_eq!(r.torn_tails, 1);
        assert!(r.torn_bytes > 0);
        let replayed = r.records.len();
        assert!(replayed < 5, "the torn record must not replay");
        // The replayed prefix is bit-identical to the original records.
        for (i, got) in r.records.iter().enumerate() {
            assert_eq!(got, &rec("gamma", i as u64 + 1));
        }
        // After truncation, a second recovery sees a clean journal with
        // the same prefix.
        let r2 = recover(&dir, RecoverMode::ReadOnly).unwrap();
        assert_eq!(r2.torn_tails, 0);
        assert_eq!(r2.records.len(), replayed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_tails_are_clean_ends_and_truncating_recovery_trims_them() {
        let dir = fresh_dir("zero-tail");
        // Two dead streams, each left by a crash (no close) with its active
        // segment sized ahead of its frames.
        let len = |path: &Path| std::fs::metadata(path).unwrap().len();
        let mut paths = Vec::new();
        for shard in 0..2 {
            let mut w =
                JournalWriter::open(&dir, 1, shard, 4096, FsyncPolicy::Never, None).unwrap();
            for s in 1..=5 {
                w.append(&rec("zeta", s));
                w.commit().unwrap();
            }
            let path = dir.join(w.current_id().file_name());
            assert_eq!(len(&path), 4096, "sized ahead");
            paths.push(path);
        }
        let r = recover(&dir, RecoverMode::ReadOnly).unwrap();
        assert_eq!(r.records.len(), 10);
        assert_eq!((r.torn_tails, r.torn_bytes), (0, 0), "a zero tail is not torn");
        assert!(paths.iter().all(|p| len(p) == 4096), "read-only leaves it");
        let r = recover(&dir, RecoverMode::TruncateTornTails).unwrap();
        assert_eq!((r.records.len(), r.torn_tails), (10, 0));
        for path in &paths {
            let id = SegmentId::parse(path.file_name().unwrap().to_str().unwrap()).unwrap();
            let frames = read_segment_from(path, id, HEADER_LEN as u64, false).unwrap();
            assert_eq!(frames.end, frames.len, "no file keeps a tail after boot");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_stream_damage_is_a_typed_error_not_a_tolerated_tear() {
        let dir = fresh_dir("midstream");
        write_stream(&dir, 1, 0, "delta", 1..=12); // small threshold → several segments
        let segments = scan_dir(&dir).unwrap();
        assert!(segments.len() >= 2, "need rotation for this test");
        // Damage a *sealed* (non-final) segment.
        let (_, sealed_path) = &segments[0];
        let mut bytes = std::fs::read(sealed_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(sealed_path, &bytes).unwrap();
        let err = recover(&dir, RecoverMode::ReadOnly).unwrap_err();
        assert!(err.is_corrupt(), "got {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sub_header_husk_is_removed_on_truncating_recovery() {
        let dir = fresh_dir("husk");
        write_stream(&dir, 1, 0, "eps", 1..=2);
        // Simulate a crash right after the active segment was created but
        // before its header landed: epoch 2's first file, 3 bytes long.
        let husk = dir.join(SegmentId { epoch: 2, shard: 0, counter: 0 }.file_name());
        std::fs::write(&husk, b"QD").unwrap();
        let r = recover(&dir, RecoverMode::TruncateTornTails).unwrap();
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.next_epoch, 3);
        assert!(!husk.exists(), "header-less husk must be deleted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
