//! The per-shard appender: group commit, fsync policy, segment rotation.
//!
//! One [`JournalWriter`] is owned by one serve shard and lives behind that
//! shard's lock, so it has one writer at a time and does no locking of its
//! own. Whichever I/O loop executes an observe stages it with
//! [`JournalWriter::append`]; at the end of its wakeup a loop calls
//! [`JournalWriter::commit`] once per shard it touched — everything staged
//! since the last commit, by any loop, lands as one buffered `write(2)`,
//! and acks are released only after a commit that covers them returns.
//! That is the WAL invariant: *acked ⊆ written*.
//!
//! The active segment is sized ahead of its writes: a commit that would
//! pass the file's length first extends it with `set_len` (a sparse zero
//! tail) towards the rotation threshold, at most [`GROW_STEP`] at a time.
//! Every other commit overwrites zeros inside the file, so its sync is a
//! `sync_data` that has no new length to journal. Sizing ahead stops at the
//! threshold, so a segment rotates exactly [`SealedSegment::len`] long and
//! is sealed with one `sync_all`; closing one trims its zero tail first.
//! Only a crashed active segment ends in zeros, which
//! [`crate::segment::read_segment_from`] reads as its end.

use crate::segment::{encode_frame, encode_header, SegmentId, HEADER_LEN};
use crate::{FsyncPolicy, JournalError, Record};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc::Sender;
use std::time::Instant;

/// The most the active segment's length grows in one step. A constant, so
/// an unbounded rotation threshold still leaves a small file.
pub const GROW_STEP: u64 = 1 << 20;

/// Notification that a segment was completed and rotated away. The
/// compactor consumes these; a sealed segment is immutable from this
/// moment until compaction deletes it.
#[derive(Debug, Clone)]
pub struct SealedSegment {
    /// The segment's identity (epoch, shard, rotation counter).
    pub id: SegmentId,
    /// Absolute path of the sealed file.
    pub path: PathBuf,
    /// Final file length in bytes.
    pub len: u64,
}

/// Append-only writer for one shard's segment stream.
pub struct JournalWriter {
    dir: PathBuf,
    epoch: u64,
    shard: u32,
    counter: u64,
    file: File,
    path: PathBuf,
    /// Bytes in the current segment file (header included).
    written: u64,
    /// The file's length: `written` plus the zero tail sized ahead of it.
    len: u64,
    /// Rotation threshold in bytes.
    segment_bytes: u64,
    policy: FsyncPolicy,
    last_sync: Instant,
    dirty_since_sync: bool,
    /// Frames staged since the last commit.
    buf: Vec<u8>,
    staged_records: u64,
    sealed_tx: Option<Sender<SealedSegment>>,
}

impl JournalWriter {
    /// Opens a fresh segment stream for `(epoch, shard)` in `dir`,
    /// starting at rotation counter 0. `sealed_tx`, when present, receives
    /// a [`SealedSegment`] for every rotated-away file.
    pub fn open(
        dir: &Path,
        epoch: u64,
        shard: u32,
        segment_bytes: u64,
        policy: FsyncPolicy,
        sealed_tx: Option<Sender<SealedSegment>>,
    ) -> Result<JournalWriter, JournalError> {
        let (file, path) = open_segment_file(dir, epoch, shard, 0, policy)?;
        Ok(JournalWriter {
            dir: dir.to_path_buf(),
            epoch,
            shard,
            counter: 0,
            file,
            path,
            written: HEADER_LEN as u64,
            len: HEADER_LEN as u64,
            segment_bytes: segment_bytes.max(HEADER_LEN as u64 + 1),
            policy,
            last_sync: Instant::now(),
            dirty_since_sync: false,
            buf: Vec::with_capacity(64 * 1024),
            staged_records: 0,
            sealed_tx,
        })
    }

    /// The id of the segment currently being appended to.
    pub fn current_id(&self) -> SegmentId {
        SegmentId { epoch: self.epoch, shard: self.shard, counter: self.counter }
    }

    /// Stages one record for the next [`JournalWriter::commit`]. Never
    /// touches the file system. Returns the byte offset the current
    /// segment will end at once this record is committed — the record's
    /// replication cursor (rotation happens only *after* a full commit, so
    /// every offset handed out between two commits belongs to
    /// [`JournalWriter::current_id`] as of the append).
    pub fn append(&mut self, record: &Record) -> u64 {
        encode_frame(record, &mut self.buf);
        self.staged_records += 1;
        self.written + self.buf.len() as u64
    }

    /// Number of records staged and not yet committed.
    pub fn staged(&self) -> u64 {
        self.staged_records
    }

    /// Writes everything staged since the last commit as one buffered
    /// write, fsyncs per policy, and rotates if the segment crossed the
    /// byte threshold. A no-op when nothing is staged.
    ///
    /// On error the journal must be considered broken: some prefix of the
    /// staged bytes may be on disk (recovery will treat it as a torn
    /// tail), so the caller must not ack the staged observations and must
    /// stop appending.
    pub fn commit(&mut self) -> Result<(), JournalError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        qdelay_telemetry::time_scope!(&crate::COMMIT_NS);
        let end = self.written + self.buf.len() as u64;
        if end > self.len {
            let len = self.segment_bytes.min(self.len + GROW_STEP).max(end);
            self.file.set_len(len).map_err(|e| JournalError::io(&self.path, e))?;
            self.len = len;
        }
        self.file
            .write_all(&self.buf)
            .map_err(|e| JournalError::io(&self.path, e))?;
        self.written = end;
        crate::APPEND_BYTES.add(self.buf.len() as u64);
        crate::RECORDS.add(self.staged_records);
        crate::COMMITS.incr();
        self.buf.clear();
        self.staged_records = 0;
        self.dirty_since_sync = true;
        if self.written >= self.segment_bytes {
            // Sealing syncs data and metadata (policy permitting), which
            // covers this commit.
            return self.rotate();
        }
        let sync_now = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Never => false,
            FsyncPolicy::Interval(d) => self.last_sync.elapsed() >= d,
        };
        if sync_now {
            self.sync(false)?;
        }
        Ok(())
    }

    /// `sync_data` for a commit (a length it grew is one a read needs, so
    /// `fdatasync` includes it); `sync_all` (`metadata`) once the file's
    /// length is final.
    fn sync(&mut self, metadata: bool) -> Result<(), JournalError> {
        if !self.dirty_since_sync {
            return Ok(());
        }
        qdelay_telemetry::time_scope!(&crate::FSYNC_NS);
        let synced = if metadata { self.file.sync_all() } else { self.file.sync_data() };
        synced.map_err(|e| JournalError::io(&self.path, e))?;
        crate::FSYNCS.incr();
        self.last_sync = Instant::now();
        self.dirty_since_sync = false;
        Ok(())
    }

    /// Seals the current segment and opens the next one. Sealed segments
    /// are synced to stable storage (unless the policy is `Never`), so
    /// only the *active* segment of a stream can ever be torn. Nor can a
    /// sealed one end in zeros: sizing ahead stops at the threshold, and
    /// the commit that reaches it ends at or past the file's length, so
    /// the file is exactly `written` long here.
    fn rotate(&mut self) -> Result<(), JournalError> {
        debug_assert_eq!(self.len, self.written);
        if self.policy != FsyncPolicy::Never {
            self.sync(true)?;
        }
        let sealed = SealedSegment {
            id: self.current_id(),
            path: self.path.clone(),
            len: self.written,
        };
        self.counter += 1;
        let (file, path) =
            open_segment_file(&self.dir, self.epoch, self.shard, self.counter, self.policy)?;
        self.file = file;
        self.path = path;
        self.written = HEADER_LEN as u64;
        self.len = HEADER_LEN as u64;
        self.dirty_since_sync = false;
        crate::ROTATIONS.incr();
        if let Some(tx) = &self.sealed_tx {
            // The receiver (compactor) may already be gone during teardown;
            // a dead receiver just means nobody compacts this segment now.
            let _ = tx.send(sealed);
        }
        Ok(())
    }

    /// Commits anything staged, trims the zero tail off the active segment
    /// and syncs it to disk. Called on clean server shutdown.
    pub fn close(mut self) -> Result<(), JournalError> {
        self.commit()?;
        if self.len > self.written {
            self.file.set_len(self.written).map_err(|e| JournalError::io(&self.path, e))?;
            self.dirty_since_sync = true;
        }
        self.sync(true)
    }
}

/// Creates a new segment file (must not already exist) and writes its
/// header. Returns the open handle positioned after the header. Unless the
/// policy is `Never`, the directory is synced so the new name is durable
/// on its own: a commit's `sync_data` does not carry it.
fn open_segment_file(
    dir: &Path,
    epoch: u64,
    shard: u32,
    counter: u64,
    policy: FsyncPolicy,
) -> Result<(File, PathBuf), JournalError> {
    let path = dir.join(SegmentId { epoch, shard, counter }.file_name());
    let mut file = OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&path)
        .map_err(|e| JournalError::io(&path, e))?;
    file.write_all(&encode_header(epoch, shard))
        .map_err(|e| JournalError::io(&path, e))?;
    if policy != FsyncPolicy::Never {
        crate::atomic::sync_dir(dir)?;
    }
    Ok((file, path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::scan_dir;
    use crate::segment::tests::read_segment;
    use std::sync::mpsc;

    fn rec(seq: u64) -> Record {
        Record {
            site: "site".into(),
            queue: "queue".into(),
            range: "1-4".into(),
            seq,
            wait: seq as f64 + 0.25,
            predicted_bmbp: Some(seq as f64 * 2.0),
            predicted_lognormal: Some(seq as f64 * 3.0),
            tombstone: false,
        }
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qdelay-journal-writer-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_commit_read_back() {
        let dir = fresh_dir("roundtrip");
        let mut w =
            JournalWriter::open(&dir, 1, 0, u64::MAX, FsyncPolicy::Never, None).unwrap();
        let mut offsets = Vec::new();
        for s in 1..=10 {
            offsets.push(w.append(&rec(s)));
        }
        assert_eq!(w.staged(), 10);
        w.commit().unwrap();
        assert_eq!(w.staged(), 0);
        let id = w.current_id();
        w.close().unwrap();
        let got = read_segment(&dir.join(id.file_name()), id, false).unwrap();
        assert_eq!(got.records.len(), 10);
        for (i, r) in got.records.iter().enumerate() {
            assert_eq!(r, &rec(i as u64 + 1));
        }
        // The offsets append promised are the frame end offsets a reader
        // sees — the replication cursor contract.
        let frames = crate::segment::read_segment_from(
            &dir.join(id.file_name()),
            id,
            crate::segment::HEADER_LEN as u64,
            false,
        )
        .unwrap();
        let read_offsets: Vec<u64> = frames.records.iter().map(|f| f.end_offset).collect();
        assert_eq!(offsets, read_offsets);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_produces_ordered_sealed_segments() {
        let dir = fresh_dir("rotate");
        let (tx, rx) = mpsc::channel();
        // Tiny threshold: every commit rotates.
        let mut w =
            JournalWriter::open(&dir, 2, 1, 64, FsyncPolicy::Always, Some(tx)).unwrap();
        for s in 1..=9 {
            w.append(&rec(s));
            w.commit().unwrap();
        }
        let last_id = w.current_id();
        w.close().unwrap();
        let sealed: Vec<SealedSegment> = rx.try_iter().collect();
        assert!(!sealed.is_empty());
        // Sealed counters are consecutive from 0.
        for (i, s) in sealed.iter().enumerate() {
            assert_eq!(s.id, SegmentId { epoch: 2, shard: 1, counter: i as u64 });
            assert!(s.len >= HEADER_LEN as u64);
            assert_eq!(std::fs::metadata(&s.path).unwrap().len(), s.len);
        }
        assert_eq!(last_id.counter, sealed.len() as u64);
        // Reading all segments in scan order yields seq 1..=9 in order —
        // every sealed segment parses strictly.
        let mut seqs = Vec::new();
        for (id, path) in scan_dir(&dir).unwrap() {
            let tolerant = id == last_id;
            for r in read_segment(&path, id, tolerant).unwrap().records {
                seqs.push(r.seq);
            }
        }
        assert_eq!(seqs, (1..=9).collect::<Vec<u64>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    #[test]
    fn commits_within_one_step_leave_the_length_unchanged() {
        let dir = fresh_dir("step");
        let mut w =
            JournalWriter::open(&dir, 1, 0, u64::MAX, FsyncPolicy::Always, None).unwrap();
        let path = dir.join(w.current_id().file_name());
        assert_eq!(file_len(&path), HEADER_LEN as u64, "an idle segment is not sized ahead");
        let mut ends = Vec::new();
        for s in 1..=200 {
            ends.push(w.append(&rec(s)));
            w.commit().unwrap();
            // An unbounded threshold still grows one step, not to the threshold.
            assert_eq!(file_len(&path), HEADER_LEN as u64 + GROW_STEP, "commit {s}");
        }
        // A crash now leaves a zero tail: a tolerant read ends there cleanly,
        // a strict one calls it corruption.
        let id = w.current_id();
        let frames = crate::segment::read_segment_from(&path, id, HEADER_LEN as u64, true).unwrap();
        assert_eq!(frames.records.len(), 200);
        assert_eq!(frames.torn_at, None);
        assert_eq!(frames.end, *ends.last().unwrap());
        assert!(matches!(read_segment(&path, id, false), Err(JournalError::Corrupt { .. })));
        w.close().unwrap();
        assert_eq!(file_len(&path), *ends.last().unwrap(), "close trims the zero tail");
        assert_eq!(read_segment(&path, id, false).unwrap().records.len(), 200);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_rotated_segment_is_exactly_its_sealed_length() {
        let dir = fresh_dir("trim");
        let (tx, rx) = mpsc::channel();
        let mut w =
            JournalWriter::open(&dir, 1, 0, 4096, FsyncPolicy::Always, Some(tx)).unwrap();
        let first = dir.join(w.current_id().file_name());
        let mut seq = 0;
        let sealed = loop {
            seq += 1;
            w.append(&rec(seq));
            w.commit().unwrap();
            if let Ok(sealed) = rx.try_recv() {
                break sealed;
            }
            // Sized ahead to the threshold, never past it.
            assert_eq!(file_len(&first), 4096, "commit {seq}");
        };
        assert_eq!(sealed.path, first);
        assert!(sealed.len < 4096 + 100, "sealed at the commit that crossed the threshold");
        assert_eq!(file_len(&sealed.path), sealed.len, "no zero tail past the threshold");
        let got = read_segment(&sealed.path, sealed.id, false).unwrap();
        assert_eq!(got.records.len(), seq as usize, "a sealed segment reads strictly");
        w.close().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_commit_is_a_no_op() {
        let dir = fresh_dir("empty");
        let mut w =
            JournalWriter::open(&dir, 1, 0, u64::MAX, FsyncPolicy::Always, None).unwrap();
        let before = std::fs::metadata(dir.join(w.current_id().file_name())).unwrap().len();
        w.commit().unwrap();
        w.commit().unwrap();
        let after = std::fs::metadata(dir.join(w.current_id().file_name())).unwrap().len();
        assert_eq!(before, after);
        w.close().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_same_stream_is_refused() {
        let dir = fresh_dir("refuse");
        let w = JournalWriter::open(&dir, 1, 0, u64::MAX, FsyncPolicy::Never, None).unwrap();
        // A second writer for the same (epoch, shard) would corrupt the
        // stream; create_new makes it an Io error instead.
        let second = JournalWriter::open(&dir, 1, 0, u64::MAX, FsyncPolicy::Never, None);
        assert!(matches!(second, Err(JournalError::Io { .. })));
        w.close().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
