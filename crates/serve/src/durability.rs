//! Journal-backed durability: the glue between `qdelay-journal` and the
//! server's registry.
//!
//! Layout of a journal directory:
//!
//! ```text
//! <dir>/snapshot.json          versioned full snapshot (crate::snapshot)
//! <dir>/seg-EEEE-SSSS-CCCC.qdj per-shard segment streams (qdelay-journal)
//! ```
//!
//! The pair is read with a single rule: **state = snapshot ⊕ journal**,
//! where ⊕ replays every journaled record whose per-partition `seq` is
//! newer than the snapshot's cursor for that partition. Replay must be
//! exactly contiguous — a record more than one step ahead of the cursor
//! means part of the journal is missing, which is reported as corruption,
//! never papered over.
//!
//! Compaction applies the same ⊕ to a *prefix* of the journal (the sealed
//! segments), writes the result as the new snapshot (atomically), and
//! deletes the folded segments. Because served bounds are a pure function
//! of the observation sequence (PR 4's replay-equality guarantee) and
//! predictor state round-trips bit-identically, folding commutes with
//! serving: recovery over the compacted layout yields the same state as
//! recovery over the original one.

use crate::registry::{Partition, PartitionKey};
use crate::snapshot::{self, DeadPartition, PartitionSnapshot};
use qdelay_journal::{self as journal, JournalError, RecoverMode, Record, SealedSegment};
pub use qdelay_journal::FsyncPolicy;
use qdelay_json::Json;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// Durability knobs for a journaling server.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding the snapshot and the segment files. Created if
    /// missing.
    pub dir: PathBuf,
    /// When appended bytes reach stable storage (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Compaction trigger: once this many bytes of *sealed* segments have
    /// accumulated, fold them into the snapshot and delete them.
    pub compact_bytes: u64,
}

impl JournalConfig {
    /// Defaults tuned for a long-lived service: 4 MiB segments, compaction
    /// at 16 MiB of sealed journal, fsync every 100 ms.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        let segment_bytes = 4 << 20;
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Interval(std::time::Duration::from_millis(100)),
            segment_bytes,
            compact_bytes: 4 * segment_bytes,
        }
    }
}

/// The snapshot file inside a journal directory.
pub fn snapshot_file(dir: &Path) -> PathBuf {
    dir.join("snapshot.json")
}

/// Builds the journal record for an acknowledged observe; the key's
/// strings move into it.
pub(crate) fn record_for(
    key: PartitionKey,
    seq: u64,
    wait: f64,
    predicted_bmbp: Option<f64>,
    predicted_lognormal: Option<f64>,
) -> Record {
    Record {
        site: key.site,
        queue: key.queue,
        range: key.range.label().to_string(),
        seq,
        wait,
        predicted_bmbp,
        predicted_lognormal,
        tombstone: false,
    }
}

/// The partition key a journaled record belongs to.
pub(crate) fn record_key(r: &Record) -> Result<PartitionKey, String> {
    let range = snapshot::proc_range_from_label(&r.range)
        .ok_or_else(|| format!("journal record has unknown proc range '{}'", r.range))?;
    Ok(PartitionKey { site: r.site.clone(), queue: r.queue.clone(), range })
}

/// Where replayed records land. The replay loop ([`apply_records_into`])
/// owns the cursor discipline — dedup, gap detection, tombstone/resurrect
/// sequencing — while the sink owns the storage. Two sinks exist: plain
/// hash maps (boot-time load, compaction) and the capacity-managed
/// [`crate::hibernate::PartitionStore`], whose `observe` may first have
/// to restore a hibernated partition from its spill file (hence the
/// fallible signature).
pub(crate) trait RecordSink {
    /// Current cursor for `key`: the live partition's seq, a hibernated
    /// partition's spilled seq, a dead partition's tombstone seq, or 0.
    fn cursor(&self, key: &PartitionKey) -> u64;
    /// Applies a tombstone at `seq`: the partition (live or hibernated)
    /// is dropped and only the cursor survives.
    fn tombstone(&mut self, key: PartitionKey, seq: u64);
    /// Applies one observation to the partition at cursor `cursor`
    /// (creating or resurrecting it if absent).
    fn observe(&mut self, key: PartitionKey, cursor: u64, r: &Record) -> Result<(), String>;
}

/// The plain-map sink: exactly the storage the server used before
/// hibernation, still what boot-time load and compaction replay into.
pub(crate) struct MapSink<'a> {
    pub partitions: &'a mut HashMap<PartitionKey, Partition>,
    pub dead: &'a mut HashMap<PartitionKey, u64>,
}

impl RecordSink for MapSink<'_> {
    fn cursor(&self, key: &PartitionKey) -> u64 {
        match self.partitions.get(key) {
            Some(p) => p.seq(),
            None => self.dead.get(key).copied().unwrap_or(0),
        }
    }

    fn tombstone(&mut self, key: PartitionKey, seq: u64) {
        self.partitions.remove(&key);
        self.dead.insert(key, seq);
    }

    fn observe(&mut self, key: PartitionKey, cursor: u64, r: &Record) -> Result<(), String> {
        self.dead.remove(&key);
        self.partitions
            .entry(key)
            .or_insert_with(|| Partition::with_seq(cursor))
            .observe(r.wait, r.predicted_bmbp, r.predicted_lognormal);
        Ok(())
    }
}

/// Replays records onto a sink: a record at or below a partition's
/// cursor is a duplicate of state already folded into the snapshot and is
/// skipped; one exactly one past the cursor is applied; anything further
/// ahead means journal bytes are missing and is an error. Returns the
/// number of records applied.
///
/// Tombstones move a partition to the sink's dead-cursor set (at the
/// tombstone's seq), and a later observe for that key resurrects it with
/// fresh predictors but a continuing cursor ([`Partition::with_seq`]).
/// The seq space of a partition is therefore one unbroken monotone line
/// across any number of delete/recreate cycles, which is what lets the
/// dedup above stay correct when a replication stream overlaps a
/// tombstone.
pub(crate) fn apply_records_into<S: RecordSink>(
    sink: &mut S,
    records: impl IntoIterator<Item = Record>,
) -> Result<u64, String> {
    let mut applied = 0u64;
    for r in records {
        let key = record_key(&r)?;
        let cursor = sink.cursor(&key);
        if r.seq <= cursor {
            continue; // already folded into the snapshot
        }
        if r.seq != cursor + 1 {
            return Err(format!(
                "journal gap for {}/{}/{}: record seq {} follows cursor {}",
                r.site, r.queue, r.range, r.seq, cursor
            ));
        }
        if r.tombstone {
            sink.tombstone(key, r.seq);
        } else {
            sink.observe(key, cursor, &r)?;
        }
        applied += 1;
    }
    Ok(applied)
}

/// [`apply_records_into`] onto plain maps.
pub(crate) fn apply_records(
    partitions: &mut HashMap<PartitionKey, Partition>,
    dead: &mut HashMap<PartitionKey, u64>,
    records: impl IntoIterator<Item = Record>,
) -> Result<u64, String> {
    apply_records_into(&mut MapSink { partitions, dead }, records)
}

/// What [`load_state`] reconstructed at boot.
pub(crate) struct LoadedState {
    /// Every partition, rebuilt as snapshot ⊕ journal.
    pub partitions: Vec<(PartitionKey, Partition)>,
    /// The epoch new writers must open.
    pub next_epoch: u64,
    /// Records replayed from the journal tail.
    pub replayed: u64,
    /// Segment files that existed at boot (all folded into `partitions`).
    pub old_segments: Vec<PathBuf>,
    /// Tombstoned partitions' cursors (snapshot dead list ⊕ journal).
    pub dead: Vec<(PartitionKey, u64)>,
}

/// Boot-time load: newest valid snapshot plus the journal tail, with torn
/// tails truncated in place. Corruption (a damaged sealed segment, a
/// replay gap, an invalid snapshot) surfaces as `InvalidData` — the
/// operator must intervene rather than silently serve from partial state.
pub(crate) fn load_state(cfg: &JournalConfig) -> io::Result<LoadedState> {
    std::fs::create_dir_all(&cfg.dir)?;
    let mut partitions: HashMap<PartitionKey, Partition> = HashMap::new();
    let mut dead: HashMap<PartitionKey, u64> = HashMap::new();
    let snap_path = snapshot_file(&cfg.dir);
    if snap_path.exists() {
        let text = std::fs::read_to_string(&snap_path)?;
        let doc = Json::parse(&text).map_err(invalid_data)?;
        let (snaps, dead_list) = snapshot::decode(&doc).map_err(invalid_data)?;
        for snap in snaps {
            let key = PartitionKey {
                site: snap.site.clone(),
                queue: snap.queue.clone(),
                range: snap.range,
            };
            partitions.insert(key, Partition::from_snapshot(&snap).map_err(invalid_data)?);
        }
        for d in dead_list {
            dead.insert(
                PartitionKey { site: d.site, queue: d.queue, range: d.range },
                d.seq,
            );
        }
    }
    let recovery = journal::recover(&cfg.dir, RecoverMode::TruncateTornTails)
        .map_err(journal_to_io)?;
    let replayed =
        apply_records(&mut partitions, &mut dead, recovery.records).map_err(invalid_data)?;
    let old_segments = journal::scan_dir(&cfg.dir)
        .map_err(journal_to_io)?
        .into_iter()
        .map(|(_, path)| path)
        .collect();
    Ok(LoadedState {
        partitions: partitions.into_iter().collect(),
        next_epoch: recovery.next_epoch,
        replayed,
        old_segments,
        dead: dead.into_iter().collect(),
    })
}

/// Writes `parts` as the journal directory's snapshot (atomically), then
/// deletes `segments` — in that order, so a crash between the two steps
/// only leaves behind segments whose records the seq-dedup in
/// [`apply_records`] will skip on the next boot.
pub(crate) fn replace_with_snapshot(
    dir: &Path,
    parts: Vec<PartitionSnapshot>,
    dead: Vec<DeadPartition>,
    segments: &[PathBuf],
) -> Result<(), JournalError> {
    let doc = snapshot::encode(parts, dead);
    journal::write_atomic(&snapshot_file(dir), (doc.to_string_pretty() + "\n").as_bytes())?;
    for path in segments {
        std::fs::remove_file(path).map_err(|e| JournalError::io(path, e))?;
    }
    refresh_disk_gauges(dir)?;
    Ok(())
}

/// Background compaction pass: folds the given sealed segments into the
/// snapshot and deletes them. Untouched partitions' snapshot entries are
/// passed through verbatim; only partitions named by the folded records
/// are re-materialized, replayed, and re-serialized.
pub(crate) fn compact(dir: &Path, sealed: &mut Vec<SealedSegment>) -> Result<(), String> {
    sealed.sort_by_key(|s| s.id);
    let mut records = Vec::new();
    for seg in sealed.iter() {
        // Sealed segments were synced before rotation; strict read.
        let contents =
            journal::read_segment(&seg.path, seg.id, false).map_err(|e| e.to_string())?;
        records.extend(contents.records);
    }
    let snap_path = snapshot_file(dir);
    let (existing, existing_dead): (Vec<PartitionSnapshot>, Vec<DeadPartition>) =
        if snap_path.exists() {
            let text = std::fs::read_to_string(&snap_path).map_err(|e| e.to_string())?;
            snapshot::decode(&Json::parse(&text).map_err(|e| e.to_string())?)?
        } else {
            (Vec::new(), Vec::new())
        };
    // Materialize only the partitions the folded records touch.
    let touched: std::collections::HashSet<PartitionKey> = records
        .iter()
        .map(record_key)
        .collect::<Result<_, _>>()?;
    let mut untouched = Vec::new();
    let mut live: HashMap<PartitionKey, Partition> = HashMap::new();
    for snap in existing {
        let key = PartitionKey {
            site: snap.site.clone(),
            queue: snap.queue.clone(),
            range: snap.range,
        };
        if touched.contains(&key) {
            live.insert(key, Partition::from_snapshot(&snap).map_err(|e| e.to_string())?);
        } else {
            untouched.push(snap);
        }
    }
    // Dead cursors ride along whether touched or not: resurrection pulls
    // a key out of the map, a new tombstone puts one in, and an untouched
    // entry re-serializes identically.
    let mut dead: HashMap<PartitionKey, u64> = existing_dead
        .into_iter()
        .map(|d| (PartitionKey { site: d.site, queue: d.queue, range: d.range }, d.seq))
        .collect();
    apply_records(&mut live, &mut dead, records)?;
    let mut parts = untouched;
    parts.extend(live.iter().map(|(key, part)| part.to_snapshot(key)));
    let dead_list: Vec<DeadPartition> = dead
        .into_iter()
        .map(|(k, seq)| DeadPartition { site: k.site, queue: k.queue, range: k.range, seq })
        .collect();
    let paths: Vec<PathBuf> = sealed.iter().map(|s| s.path.clone()).collect();
    replace_with_snapshot(dir, parts, dead_list, &paths).map_err(|e| e.to_string())?;
    journal::COMPACTIONS.incr();
    journal::COMPACTED_SEGMENTS.add(sealed.len() as u64);
    sealed.clear();
    Ok(())
}

/// Updates the `journal.segments` / `journal.live_bytes` gauges from the
/// directory's current contents.
pub(crate) fn refresh_disk_gauges(dir: &Path) -> Result<(), JournalError> {
    let mut count = 0u64;
    let mut bytes = 0u64;
    for (_, path) in journal::scan_dir(dir)? {
        count += 1;
        bytes += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    }
    journal::LIVE_SEGMENTS.set(count);
    journal::LIVE_BYTES.set(bytes);
    Ok(())
}

pub(crate) fn journal_to_io(e: JournalError) -> io::Error {
    match e {
        JournalError::Io { source, .. } => source,
        corrupt => io::Error::new(io::ErrorKind::InvalidData, corrupt.to_string()),
    }
}

fn invalid_data<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdelay_journal::JournalWriter;

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qdelay-serve-durability-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn wait(i: u64) -> f64 {
        ((i.wrapping_mul(2_654_435_761)) % 10_000) as f64
    }

    fn key() -> PartitionKey {
        PartitionKey::for_request("site", "queue", 8)
    }

    /// Journals `seqs` for the test partition through a real writer.
    fn journal_range(dir: &Path, epoch: u64, seqs: std::ops::RangeInclusive<u64>) {
        let mut w = JournalWriter::open(
            dir,
            epoch,
            key().shard_index(1) as u32,
            u64::MAX,
            FsyncPolicy::Never,
            None,
        )
        .unwrap();
        for s in seqs {
            w.append(&record_for(key(), s, wait(s), None, None));
        }
        w.commit().unwrap();
        w.close().unwrap();
    }

    /// The oracle: a single partition fed seqs 1..=n directly.
    fn oracle(n: u64) -> Partition {
        let mut p = Partition::new();
        for s in 1..=n {
            p.observe(wait(s), None, None);
        }
        p
    }

    #[test]
    fn snapshot_plus_journal_equals_uninterrupted_replay() {
        let dir = fresh_dir("oplus");
        // Snapshot at seq 120, journal carries 121..=200.
        let head = oracle(120);
        let parts = vec![head.to_snapshot(&key())];
        replace_with_snapshot(&dir, parts, Vec::new(), &[]).unwrap();
        journal_range(&dir, 1, 121..=200);

        let cfg = JournalConfig::new(&dir);
        let loaded = load_state(&cfg).unwrap();
        assert_eq!(loaded.replayed, 80);
        assert_eq!(loaded.next_epoch, 2);
        let (_, mut rebuilt) =
            loaded.partitions.into_iter().find(|(k, _)| *k == key()).unwrap();
        let expect = oracle(200).predict();
        let got = rebuilt.predict();
        assert_eq!(got.seq, 200);
        assert_eq!(got.bmbp.map(f64::to_bits), expect.bmbp.map(f64::to_bits));
        assert_eq!(got.lognormal.map(f64::to_bits), expect.lognormal.map(f64::to_bits));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_records_are_deduped_not_reapplied() {
        let dir = fresh_dir("dedup");
        // Snapshot already covers 1..=150; the journal still holds 101..=150
        // (as after a crash between compaction's snapshot write and its
        // segment deletes).
        let parts = vec![oracle(150).to_snapshot(&key())];
        replace_with_snapshot(&dir, parts, Vec::new(), &[]).unwrap();
        journal_range(&dir, 1, 101..=150);
        let loaded = load_state(&JournalConfig::new(&dir)).unwrap();
        assert_eq!(loaded.replayed, 0, "covered records must be skipped");
        let (_, mut rebuilt) =
            loaded.partitions.into_iter().find(|(k, _)| *k == key()).unwrap();
        assert_eq!(rebuilt.predict().seq, 150);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_gap_is_a_typed_error() {
        let dir = fresh_dir("gap");
        let parts = vec![oracle(100).to_snapshot(&key())];
        replace_with_snapshot(&dir, parts, Vec::new(), &[]).unwrap();
        // Journal starts at 102: record 101 is missing.
        journal_range(&dir, 1, 102..=110);
        let err = match load_state(&JournalConfig::new(&dir)) {
            Ok(_) => panic!("a replay gap must not load"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("gap"), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tombstone_deletes_history_but_keeps_the_cursor() {
        let dir = fresh_dir("tombstone");
        // Journal 1..=80, tombstone at 81, resurrection 82..=120, all in
        // one segment stream.
        let k = key();
        let mut w = JournalWriter::open(
            &dir,
            1,
            k.shard_index(1) as u32,
            u64::MAX,
            FsyncPolicy::Never,
            None,
        )
        .unwrap();
        for s in 1..=80u64 {
            w.append(&record_for(k.clone(), s, wait(s), None, None));
        }
        w.append(&Record::tombstone(&k.site, &k.queue, k.range.label(), 81));
        for s in 82..=120u64 {
            w.append(&record_for(k.clone(), s, wait(s), None, None));
        }
        w.commit().unwrap();
        w.close().unwrap();

        let loaded = load_state(&JournalConfig::new(&dir)).unwrap();
        assert!(loaded.dead.is_empty(), "resurrected key must not stay dead");
        let (_, mut rebuilt) =
            loaded.partitions.into_iter().find(|(kk, _)| *kk == k).unwrap();
        // Oracle: fresh predictors whose cursor starts at the tombstone.
        let mut expect = Partition::with_seq(81);
        for s in 82..=120u64 {
            expect.observe(wait(s), None, None);
        }
        let e = expect.predict();
        let got = rebuilt.predict();
        assert_eq!(got.seq, 120, "cursor continues across the tombstone");
        assert_eq!(got.n, 39, "history restarted at the tombstone");
        assert_eq!(got.bmbp.map(f64::to_bits), e.bmbp.map(f64::to_bits));
        assert_eq!(got.lognormal.map(f64::to_bits), e.lognormal.map(f64::to_bits));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_cursor_survives_compaction_and_gates_replay() {
        let dir = fresh_dir("deadcursor");
        let k = key();
        // Journal 1..=30 then a trailing tombstone; fold *everything* into
        // the snapshot.
        let mut w = JournalWriter::open(
            &dir,
            1,
            k.shard_index(1) as u32,
            u64::MAX,
            FsyncPolicy::Never,
            None,
        )
        .unwrap();
        for s in 1..=30u64 {
            w.append(&record_for(k.clone(), s, wait(s), None, None));
        }
        w.append(&Record::tombstone(&k.site, &k.queue, k.range.label(), 31));
        w.commit().unwrap();
        w.close().unwrap();
        let mut sealed: Vec<SealedSegment> = journal::scan_dir(&dir)
            .unwrap()
            .into_iter()
            .map(|(id, path)| {
                let len = std::fs::metadata(&path).unwrap().len();
                SealedSegment { id, path, len }
            })
            .collect();
        compact(&dir, &mut sealed).unwrap();

        // The snapshot alone (no segments remain) carries the dead cursor.
        assert!(journal::scan_dir(&dir).unwrap().is_empty());
        let loaded = load_state(&JournalConfig::new(&dir)).unwrap();
        assert!(
            !loaded.partitions.iter().any(|(kk, _)| *kk == k),
            "tombstoned partition must not come back alive"
        );
        assert_eq!(loaded.dead, vec![(k.clone(), 31)]);

        // Replay gating off the dead cursor: 32 resurrects, 33-first is a
        // gap.
        let mut partitions: HashMap<PartitionKey, Partition> = HashMap::new();
        let mut dead: HashMap<PartitionKey, u64> = loaded.dead.into_iter().collect();
        apply_records(
            &mut partitions,
            &mut dead,
            [record_for(k.clone(), 32, wait(32), None, None)],
        )
        .unwrap();
        assert_eq!(partitions.get(&k).unwrap().seq(), 32);
        assert!(dead.is_empty());

        let mut partitions: HashMap<PartitionKey, Partition> = HashMap::new();
        let mut dead: HashMap<PartitionKey, u64> = vec![(k.clone(), 31)].into_iter().collect();
        let err = apply_records(
            &mut partitions,
            &mut dead,
            [record_for(k.clone(), 33, wait(33), None, None)],
        )
        .unwrap_err();
        assert!(err.contains("gap"), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_folds_sealed_segments_bit_identically() {
        let dir = fresh_dir("compact");
        // An untouched second partition already in the snapshot: compaction
        // must pass its entry through verbatim.
        let other_key = PartitionKey::for_request("other", "q", 70);
        let mut other = Partition::new();
        for s in 1..=40 {
            other.observe(wait(s) + 1.0, None, None);
        }
        replace_with_snapshot(&dir, vec![other.to_snapshot(&other_key)], Vec::new(), &[])
            .unwrap();
        let snapshot_before = std::fs::read_to_string(snapshot_file(&dir)).unwrap();

        // Journal 1..=120 for the test partition through a writer with a
        // tiny rotation threshold, so real sealed-segment notifications
        // accumulate.
        let (tx, rx) = std::sync::mpsc::channel();
        let shard = key().shard_index(1) as u32;
        let mut w =
            JournalWriter::open(&dir, 1, shard, 256, FsyncPolicy::Never, Some(tx)).unwrap();
        for s in 1..=120u64 {
            w.append(&record_for(key(), s, wait(s), None, None));
            w.commit().unwrap();
        }
        let active = w.current_id();
        w.close().unwrap();
        let mut sealed: Vec<SealedSegment> = rx.try_iter().collect();
        assert!(sealed.len() >= 2, "need several sealed segments");

        compact(&dir, &mut sealed).unwrap();
        assert!(sealed.is_empty());
        // Only the active (never-sealed) segment remains on disk.
        let remaining: Vec<_> = journal::scan_dir(&dir).unwrap();
        assert_eq!(remaining.len(), 1);
        assert_eq!(remaining[0].0, active);

        // snapshot ⊕ remaining journal reproduces the oracle bit-exactly,
        // and the untouched partition's snapshot entry survived verbatim.
        let loaded = load_state(&JournalConfig::new(&dir)).unwrap();
        let (_, mut rebuilt) = loaded
            .partitions
            .into_iter()
            .find(|(k, _)| *k == key())
            .expect("compacted partition present");
        let got = rebuilt.predict();
        let expect = oracle(120).predict();
        assert_eq!(got.seq, 120);
        assert_eq!(got.bmbp.map(f64::to_bits), expect.bmbp.map(f64::to_bits));
        assert_eq!(got.lognormal.map(f64::to_bits), expect.lognormal.map(f64::to_bits));
        let snapshot_after = std::fs::read_to_string(snapshot_file(&dir)).unwrap();
        assert!(
            snapshot_after.contains(r#""site": "other""#)
                || snapshot_after.contains(r#""site":"other""#),
            "untouched partition must stay in the snapshot"
        );
        assert_ne!(snapshot_before, snapshot_after);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
