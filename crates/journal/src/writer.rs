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

use crate::segment::{encode_frame, encode_header, SegmentId, HEADER_LEN};
use crate::{FsyncPolicy, JournalError, Record};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc::Sender;
use std::time::Instant;

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
        let (file, path) = open_segment_file(dir, epoch, shard, 0)?;
        Ok(JournalWriter {
            dir: dir.to_path_buf(),
            epoch,
            shard,
            counter: 0,
            file,
            path,
            written: HEADER_LEN as u64,
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
        self.file
            .write_all(&self.buf)
            .map_err(|e| JournalError::io(&self.path, e))?;
        self.written += self.buf.len() as u64;
        crate::APPEND_BYTES.add(self.buf.len() as u64);
        crate::RECORDS.add(self.staged_records);
        crate::COMMITS.incr();
        self.buf.clear();
        self.staged_records = 0;
        self.dirty_since_sync = true;
        let sync_now = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Never => false,
            FsyncPolicy::Interval(d) => self.last_sync.elapsed() >= d,
        };
        if sync_now {
            self.sync()?;
        }
        if self.written >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        if !self.dirty_since_sync {
            return Ok(());
        }
        qdelay_telemetry::time_scope!(&crate::FSYNC_NS);
        self.file
            .sync_all()
            .map_err(|e| JournalError::io(&self.path, e))?;
        crate::FSYNCS.incr();
        self.last_sync = Instant::now();
        self.dirty_since_sync = false;
        Ok(())
    }

    /// Seals the current segment and opens the next one. Sealed segments
    /// are synced to stable storage (unless the policy is `Never`), so
    /// only the *active* segment of a stream can ever be torn.
    fn rotate(&mut self) -> Result<(), JournalError> {
        if self.policy != FsyncPolicy::Never {
            self.sync()?;
        }
        let sealed = SealedSegment {
            id: self.current_id(),
            path: self.path.clone(),
            len: self.written,
        };
        self.counter += 1;
        let (file, path) = open_segment_file(&self.dir, self.epoch, self.shard, self.counter)?;
        self.file = file;
        self.path = path;
        self.written = HEADER_LEN as u64;
        self.dirty_since_sync = false;
        crate::ROTATIONS.incr();
        if let Some(tx) = &self.sealed_tx {
            // The receiver (compactor) may already be gone during teardown;
            // a dead receiver just means nobody compacts this segment now.
            let _ = tx.send(sealed);
        }
        Ok(())
    }

    /// Commits anything staged and syncs the active segment to disk.
    /// Called on clean server shutdown.
    pub fn close(mut self) -> Result<(), JournalError> {
        self.commit()?;
        self.sync()
    }
}

/// Creates a new segment file (must not already exist) and writes its
/// header. Returns the open handle positioned after the header.
fn open_segment_file(
    dir: &Path,
    epoch: u64,
    shard: u32,
    counter: u64,
) -> Result<(File, PathBuf), JournalError> {
    let path = dir.join(SegmentId { epoch, shard, counter }.file_name());
    let mut file = OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&path)
        .map_err(|e| JournalError::io(&path, e))?;
    file.write_all(&encode_header(epoch, shard))
        .map_err(|e| JournalError::io(&path, e))?;
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
