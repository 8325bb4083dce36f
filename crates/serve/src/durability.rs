//! Journal-backed durability: the glue between `qdelay-journal` and the
//! server's registry.
//!
//! Layout of a journal directory:
//!
//! ```text
//! <dir>/snapshot.json          the snapshot file (crate::snapshot; framed
//!                              records since version 4 — the name is kept)
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
//! Boot ([`boot`]) is that rule and nothing else, run through the shards'
//! own crossings ([`crate::shard`]) before any writer exists: the snapshot
//! is read and installed ([`shard::install`]), then the journal tail is
//! replayed the way a replica applies its stream ([`shard::replay`]), and
//! the result is consolidated into a fresh snapshot ([`shard::persist`]).
//!
//! **Compaction collects; it does not fold.** The background compactor
//! ([`compactor_loop`]) writes what the shards already hold — the settled,
//! one-shard-at-a-time collect behind every snapshot — through the one
//! writer, [`shard::persist`], which replaces the snapshot atomically
//! ([`replace_with_snapshot`]) and then deletes the sealed segments the
//! compactor was sent. No segment is read and no record replayed a second
//! time. Why the result is `snapshot ⊕ journal`:
//!
//! * a shard applies an observe and stages its record under one lock hold,
//!   so once a segment is sealed every record in it is already in that
//!   shard's memory, and the deleted segments hold nothing the file lacks;
//! * each shard is settled — everything staged committed — before it is
//!   read, so the file never holds a record the journal lacks;
//! * the file may run ahead of the segments left on disk, which boot's
//!   seq dedup skips, exactly as after a crash between a snapshot write
//!   and its segment deletes.
//!
//! **The fenced rule.** A shard whose group commit failed is fenced: its
//! memory may hold an observe whose ack became an `io` error, and no
//! journal to hold it. Every write of the journal directory goes through
//! [`shard::persist`], whose collect refuses a fenced shard: the compactor
//! stops, as it does on any failure, and graceful shutdown leaves the
//! snapshot and segments as they are and reports the shard, so the next
//! boot recovers exactly what the journal holds. Lock order: the
//! replication hub's compaction guard first, then one shard at a time —
//! nothing takes them the other way.

use crate::registry::PartitionKey;
use crate::server::Shared;
use crate::shard::{self, Shard};
use crate::snapshot;
use qdelay_journal::{self as journal, JournalError, RecoverMode, Record, SealedSegment};
pub use qdelay_journal::FsyncPolicy;
use qdelay_repl::ReplHub;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

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
    /// accumulated, write what the shards hold as the snapshot and delete
    /// them.
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
/// sequencing — while the sink owns the storage: the capacity-managed
/// [`crate::hibernate::PartitionStore`] every shard holds (boot replay,
/// replica apply), whose `observe` may first have to restore a hibernated
/// partition from its spill file (hence the fallible signature). The tests'
/// oracle replays into plain hash maps (`MapSink`).
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

/// Boot: **state = snapshot ⊕ journal**, into the shards before any of
/// them has a journal writer. The snapshot — the journal directory's when
/// journaling, else `snapshot_path` — is installed ([`shard::install`]). A
/// journaling boot then recovers the segments (truncating torn tails),
/// replays their records exactly as a replica applies its stream
/// ([`shard::replay`]), consolidates the result into a fresh snapshot and
/// deletes the segments it covers ([`shard::persist`]), so recovery work
/// never accumulates across restarts. Returns the epoch new writers must
/// open (journaling only).
///
/// Corruption — an invalid snapshot, a damaged sealed segment, a replay
/// gap — is `InvalidData`: the operator must intervene rather than the
/// server silently serve partial state.
pub(crate) fn boot(
    shards: &[Mutex<Shard>],
    snapshot_path: Option<&Path>,
    journal: Option<&JournalConfig>,
) -> io::Result<Option<u64>> {
    let journal_snapshot = journal.map(|cfg| snapshot_file(&cfg.dir));
    if let Some(path) = journal_snapshot.as_deref().or(snapshot_path) {
        shard::install(shards, snapshot::read(path)?)?;
    }
    let Some(cfg) = journal else { return Ok(None) };
    std::fs::create_dir_all(&cfg.dir)?;
    let recovery =
        journal::recover(&cfg.dir, RecoverMode::TruncateTornTails).map_err(journal_to_io)?;
    let old_segments: Vec<PathBuf> =
        journal::scan_dir(&cfg.dir).map_err(journal_to_io)?.into_iter().map(|(_, p)| p).collect();
    let replayed = shard::replay(shards, recovery.records).map_err(invalid_data)?;
    let (partitions, _) = shard::persist(shards, Some((&cfg.dir, &old_segments)), None)?;
    if replayed > 0 {
        eprintln!(
            "qdelay-serve: recovered {partitions} partitions ({replayed} journal records replayed)"
        );
    }
    Ok(Some(recovery.next_epoch))
}

/// Accumulates sealed-segment notifications from the shard writers and,
/// once `threshold` bytes are pending, runs one compaction pass: the shards
/// persisted as the directory's snapshot, then the pending segments
/// deleted ([`shard::persist`]). Holds the shards weakly: they own the
/// writers whose senders keep `rx` open, so a strong reference would keep
/// them, and this thread, alive for good. Exits when every writer is
/// closed, or after the first failed pass (a fenced shard fails every
/// pass); whatever is pending then is left to graceful shutdown's
/// consolidation or the next boot's.
pub(crate) fn compactor_loop(
    rx: Receiver<SealedSegment>,
    shared: Weak<Shared>,
    dir: PathBuf,
    threshold: u64,
    hub: Option<Arc<ReplHub>>,
) {
    let mut pending: Vec<PathBuf> = Vec::new();
    let mut pending_bytes = 0u64;
    while let Ok(seg) = rx.recv() {
        pending_bytes += seg.len;
        pending.push(seg.path);
        while let Ok(more) = rx.try_recv() {
            pending_bytes += more.len;
            pending.push(more.path);
        }
        if pending_bytes < threshold {
            continue;
        }
        let Some(shared) = shared.upgrade() else { return };
        let started = Instant::now();
        // A replica catching up holds the hub's compaction lock across its
        // snapshot-plus-segments scan; deleting segments mid-scan would
        // ship it a hole. The guard comes first, then one shard at a time.
        let result = {
            let _guard = hub.as_ref().map(|h| h.pause_compaction());
            shard::persist(&shared.shards, Some((&dir, &pending)), None)
        };
        match result {
            Ok((_, longest_hold)) => {
                journal::COMPACTIONS.incr();
                journal::COMPACTED_SEGMENTS.add(pending.len() as u64);
                journal::COMPACT_US.record(started.elapsed().as_micros() as u64);
                journal::COMPACT_LOCK_US.record(longest_hold.as_micros() as u64);
                pending.clear();
                pending_bytes = 0;
            }
            Err(e) => {
                // Compaction is an optimization, not a correctness
                // requirement: leave the segments for the next boot's
                // consolidation and stop retrying (the failure is almost
                // certainly persistent — disk full, permissions, a fence).
                eprintln!("qdelay-serve: journal compaction failed (giving up): {e}");
                return;
            }
        }
    }
}

/// Writes a rendered snapshot as the journal directory's snapshot file
/// (atomically), then deletes `segments` — in that order, so a crash
/// between the two steps only leaves behind segments whose records the
/// seq-dedup in [`apply_records_into`] will skip on the next boot.
pub(crate) fn replace_with_snapshot(
    dir: &Path,
    rendered: &[u8],
    segments: &[PathBuf],
) -> io::Result<()> {
    snapshot::write(&snapshot_file(dir), rendered)?;
    for path in segments {
        std::fs::remove_file(path)?;
    }
    refresh_disk_gauges(dir).map_err(journal_to_io)
}

/// Updates the `journal.segments` / `journal.live_bytes` gauges from the
/// directory's current contents.
pub(crate) fn refresh_disk_gauges(dir: &Path) -> Result<(), JournalError> {
    let (count, bytes) = disk_usage(dir)?;
    journal::LIVE_SEGMENTS.set(count);
    journal::LIVE_BYTES.set(bytes);
    Ok(())
}

/// The segment files in `dir` and the bytes they hold on disk: the blocks
/// allocated to each × 512, not its length, because an active segment is
/// sized ahead of its frames and its sparse zero tail holds nothing.
fn disk_usage(dir: &Path) -> Result<(u64, u64), JournalError> {
    use std::os::unix::fs::MetadataExt as _;
    let mut count = 0u64;
    let mut bytes = 0u64;
    for (_, path) in journal::scan_dir(dir)? {
        count += 1;
        bytes += std::fs::metadata(&path).map(|m| m.blocks() * 512).unwrap_or(0);
    }
    Ok((count, bytes))
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
    use crate::client::Client;
    use crate::hibernate::PartitionStore;
    use crate::registry::{Partition, Prediction};
    use crate::server::{Server, ServerConfig};
    use crate::snapshot::Document;
    use qdelay_journal::JournalWriter;
    use qdelay_rng::{Rng, StdRng};
    use std::collections::HashMap;

    /// The plain-map sink: the oracle the tests replay snapshot ⊕ journal
    /// into.
    struct MapSink<'a> {
        partitions: &'a mut HashMap<PartitionKey, Partition>,
        dead: &'a mut HashMap<PartitionKey, u64>,
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

    /// [`apply_records_into`] onto plain maps.
    fn apply_records(
        partitions: &mut HashMap<PartitionKey, Partition>,
        dead: &mut HashMap<PartitionKey, u64>,
        records: impl IntoIterator<Item = Record>,
    ) -> Result<u64, String> {
        apply_records_into(&mut MapSink { partitions, dead }, records)
    }

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

    #[test]
    fn live_bytes_counts_allocated_blocks_not_the_sized_ahead_length() {
        let dir = fresh_dir("live-bytes");
        let mut w = JournalWriter::open(&dir, 1, 0, u64::MAX, FsyncPolicy::Never, None).unwrap();
        for s in 1..=10 {
            w.append(&record_for(key(), s, wait(s), None, None));
        }
        w.commit().unwrap();
        let len = std::fs::metadata(dir.join(w.current_id().file_name())).unwrap().len();
        assert!(len > 1 << 20, "sized ahead: {len}");
        let (count, bytes) = disk_usage(&dir).unwrap();
        assert_eq!(count, 1);
        assert!(bytes < 64 << 10, "{bytes} bytes on disk for a {len}-byte segment");
        w.close().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The oracle: a single partition fed seqs 1..=n directly.
    fn oracle(n: u64) -> Partition {
        let mut p = Partition::new();
        for s in 1..=n {
            p.observe(wait(s), None, None);
        }
        p
    }

    /// Writes `parts` (and no dead cursors) as the directory's snapshot.
    fn snapshot_of(dir: &Path, parts: &[(PartitionKey, Partition)]) {
        let entries = parts.iter().map(|(k, p)| p.to_snapshot(k)).collect();
        replace_with_snapshot(dir, &snapshot::render(entries, Vec::new()).unwrap(), &[]).unwrap();
    }

    /// Boots `dir` into one uncapped shard, as a one-shard server does;
    /// returns its store and the epoch its writer would open.
    fn boot_one(dir: &Path) -> io::Result<(PartitionStore, u64)> {
        let shards = [Mutex::new(Shard::new(0, PartitionStore::new(None, None)?, None))];
        let epoch = boot(&shards, None, Some(&JournalConfig::new(dir)))?;
        let [shard] = shards;
        let store = shard.into_inner().expect("no thread held the shard").store;
        Ok((store, epoch.expect("a journaling boot opens an epoch")))
    }

    fn bits(p: &Prediction) -> (usize, u64, Option<u64>, Option<u64>) {
        (p.n, p.seq, p.bmbp.map(f64::to_bits), p.lognormal.map(f64::to_bits))
    }

    #[test]
    fn snapshot_plus_journal_equals_uninterrupted_replay() {
        let dir = fresh_dir("oplus");
        // Snapshot at seq 120, journal carries 121..=200.
        snapshot_of(&dir, &[(key(), oracle(120))]);
        journal_range(&dir, 1, 121..=200);

        let (mut store, next_epoch) = boot_one(&dir).unwrap();
        assert_eq!(next_epoch, 2);
        let got = store.predict(key()).unwrap();
        assert_eq!(got.seq, 200, "all 80 journaled records replayed");
        assert_eq!(bits(&got), bits(&oracle(200).predict()));
        // Consolidated: the snapshot alone now carries the state.
        assert!(journal::scan_dir(&dir).unwrap().is_empty());
        let (parts, _) = snapshot::read(&snapshot_file(&dir)).unwrap();
        assert_eq!(parts, vec![oracle(200).to_snapshot(&key())]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_records_are_deduped_not_reapplied() {
        let dir = fresh_dir("dedup");
        // Snapshot already covers 1..=150; the journal still holds 101..=150
        // (as after a crash between compaction's snapshot write and its
        // segment deletes).
        snapshot_of(&dir, &[(key(), oracle(150))]);
        journal_range(&dir, 1, 101..=150);
        let (mut store, _) = boot_one(&dir).unwrap();
        let got = store.predict(key()).unwrap();
        assert_eq!(got.seq, 150, "covered records must be skipped");
        assert_eq!(bits(&got), bits(&oracle(150).predict()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_gap_is_a_typed_error() {
        let dir = fresh_dir("gap");
        snapshot_of(&dir, &[(key(), oracle(100))]);
        // Journal starts at 102: record 101 is missing.
        journal_range(&dir, 1, 102..=110);
        let err = match boot_one(&dir) {
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

        let (mut store, _) = boot_one(&dir).unwrap();
        let (_, dead) = store.collect().unwrap();
        assert!(dead.is_empty(), "resurrected key must not stay dead");
        // Oracle: fresh predictors whose cursor starts at the tombstone.
        let mut expect = Partition::with_seq(81);
        for s in 82..=120u64 {
            expect.observe(wait(s), None, None);
        }
        let got = store.predict(k).unwrap();
        assert_eq!(got.seq, 120, "cursor continues across the tombstone");
        assert_eq!(got.n, 39, "history restarted at the tombstone");
        assert_eq!(bits(&got), bits(&expect.predict()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_cursor_survives_compaction_and_gates_replay() {
        let dir = fresh_dir("deadcursor");
        let k = key();
        // Journal 1..=30 then a trailing tombstone; the boot consolidation
        // compacts *everything* into the snapshot.
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
        boot_one(&dir).unwrap();

        // The snapshot alone (no segments remain) carries the dead cursor.
        assert!(journal::scan_dir(&dir).unwrap().is_empty());
        let alone = snapshot::read(&snapshot_file(&dir)).unwrap();
        assert_eq!(alone, (Vec::new(), vec![(k.clone(), 31)]));
        let (mut store, _) = boot_one(&dir).unwrap();
        assert_eq!(store.partition_count(), 0, "tombstoned partition must not come back alive");
        assert_eq!(store.predict(k.clone()).unwrap(), Prediction::unobserved(31));
        let (_, dead) = store.collect().unwrap();
        assert_eq!(dead, vec![(k.clone(), 31)]);

        // Replay gating off the dead cursor: 32 resurrects, 33-first is a
        // gap.
        let mut partitions: HashMap<PartitionKey, Partition> = HashMap::new();
        let mut dead: HashMap<PartitionKey, u64> = dead.into_iter().collect();
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

    /// Copies a live journal directory as a crash would leave it. The
    /// compactor may delete a sealed segment between the listing and its
    /// copy, pairing an older snapshot with a hole no crash leaves behind,
    /// so the copy then starts over from a fresh listing.
    fn crash_image(src: &Path, dst: &Path) {
        'listing: loop {
            let _ = std::fs::remove_dir_all(dst);
            std::fs::create_dir_all(dst).unwrap();
            for entry in std::fs::read_dir(src).unwrap() {
                let entry = entry.unwrap();
                match std::fs::copy(entry.path(), dst.join(entry.file_name())) {
                    Err(e) if e.kind() == io::ErrorKind::NotFound => continue 'listing,
                    copied => {
                        copied.unwrap();
                    }
                }
            }
            return;
        }
    }

    /// Compaction collects the settled shards instead of folding segments.
    /// A journaling server with 512-byte segments, compacting at 2 KiB, runs
    /// the paper's loop — each observe carries the bounds its partition was
    /// just served — over 256 partitions until it has compacted at least
    /// three times. A crash image copied while it runs must boot every
    /// partition to a `seq` at or past its last ack before the copy and at
    /// or under its last observe sent by the copy's end, serving the bits of
    /// a [`MapSink`] replay of exactly that prefix.
    #[test]
    fn compaction_collects_the_settled_shards_and_a_crash_image_boots_to_the_map_replay() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::sync::Mutex;
        use std::time::Duration;
        const PARTITIONS: usize = 256;
        // Jobs per partition before the image is taken: enough for every
        // partition to be served a BMBP bound.
        const WARM: usize = 70;
        let live = fresh_dir("collect-live");
        let config = ServerConfig {
            journal: Some(JournalConfig {
                dir: live.clone(),
                fsync: FsyncPolicy::Never,
                segment_bytes: 512,
                compact_bytes: 2048,
            }),
            ..ServerConfig::default()
        };
        let server = Server::start("127.0.0.1:0", config).unwrap();
        let keys: Vec<PartitionKey> =
            (0..PARTITIONS).map(|i| PartitionKey::for_request(&format!("c{i}"), "q", 4)).collect();
        // Per partition: the record of every observe sent, in order, and
        // the seq of the last one acked.
        let sent: Mutex<Vec<Vec<Record>>> = Mutex::new(vec![Vec::new(); PARTITIONS]);
        let acked: Mutex<Vec<u64>> = Mutex::new(vec![0; PARTITIONS]);
        let (jobs, stop) = (AtomicUsize::new(0), AtomicBool::new(false));
        // No other test in this crate compacts, so the counter is this
        // server's.
        let compactions = journal::COMPACTIONS.value();
        let image = fresh_dir("collect-image");
        let (before, after) = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut c = Client::connect(server.local_addr()).unwrap();
                let mut rng = StdRng::seed_from_u64(29);
                for job in 0.. {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let (i, k) = (job % PARTITIONS, &keys[job % PARTITIONS]);
                    let served = c.predict(&k.site, &k.queue, 4).unwrap();
                    let spike = if rng.gen_bool(0.03) { 50.0 } else { 1.0 };
                    let w = wait(job as u64) * spike;
                    let (bmbp, lognormal) = (served.bmbp, served.lognormal);
                    let seq = served.seq + 1;
                    sent.lock().unwrap()[i].push(record_for(k.clone(), seq, w, bmbp, lognormal));
                    assert_eq!(c.observe(&k.site, &k.queue, 4, w, bmbp, lognormal).unwrap(), seq);
                    acked.lock().unwrap()[i] = seq;
                    jobs.store(job + 1, Ordering::SeqCst);
                }
            });
            while jobs.load(Ordering::SeqCst) < PARTITIONS * WARM
                || journal::COMPACTIONS.value() < compactions + 3
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            let before = acked.lock().unwrap().clone();
            crash_image(&live, &image);
            let after: Vec<usize> = sent.lock().unwrap().iter().map(Vec::len).collect();
            // The loop runs on past the copy before it is stopped.
            let target = jobs.load(Ordering::SeqCst) + PARTITIONS;
            while jobs.load(Ordering::SeqCst) < target {
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.store(true, Ordering::SeqCst);
            (before, after)
        });
        Client::connect(server.local_addr()).unwrap().shutdown().unwrap();
        server.join().unwrap();
        // Compaction kept the journal short: most of the history is in the
        // image's snapshot, not its segments.
        let tail = journal::recover(&image, RecoverMode::ReadOnly).unwrap().records.len();
        assert!(tail < PARTITIONS * WARM / 4, "{tail} records left in the journal tail");

        let sent = sent.into_inner().unwrap();
        let (mut store, _) = boot_one(&image).unwrap();
        assert_eq!(store.partition_count(), PARTITIONS);
        for (i, k) in keys.iter().enumerate() {
            let got = store.predict(k.clone()).unwrap();
            assert!(got.seq >= before[i], "{}: seq {} lost ack {}", k.label(), got.seq, before[i]);
            assert!(got.seq as usize <= after[i], "{}: seq {} never sent", k.label(), got.seq);
            let (mut parts, mut dead) = (HashMap::new(), HashMap::new());
            let prefix = sent[i][..got.seq as usize].iter().cloned();
            assert_eq!(apply_records(&mut parts, &mut dead, prefix).unwrap(), got.seq);
            let want = parts.get_mut(k).unwrap().predict();
            assert_eq!(bits(&got), bits(&want), "{}", k.label());
            assert!(got.bmbp.is_some(), "{}: the loop ran long enough to bound it", k.label());
        }
        let _ = std::fs::remove_dir_all(&live);
        let _ = std::fs::remove_dir_all(&image);
    }

    /// Partitions of the seeded boot battery: every proc bucket, and more
    /// keys than any cap under test holds.
    const KEYS: [(&str, &str, u32); 10] = [
        ("ds", "normal", 2),
        ("ds", "normal", 8),
        ("ds", "normal", 32),
        ("ds", "normal", 128),
        ("ds", "large", 4),
        ("ds", "debug", 1),
        ("blue", "batch", 16),
        ("blue", "batch", 64),
        ("lonestar", "q", 3),
        ("lonestar", "q", 100),
    ];

    fn battery_key(i: usize) -> PartitionKey {
        let (site, queue, procs) = KEYS[i];
        PartitionKey::for_request(site, queue, procs)
    }

    /// A seeded history: for each of [`KEYS`], an unbroken seq line of
    /// observes (some carrying the bounds a client was served, so detectors
    /// run) with the odd tombstone, which the next observe resurrects.
    fn seeded_history(rng: &mut StdRng) -> Vec<Record> {
        let mut cursors = [0u64; KEYS.len()];
        let mut records = Vec::new();
        for step in 0..1_400u64 {
            let i = rng.gen_range(0..KEYS.len());
            let k = battery_key(i);
            cursors[i] += 1;
            let seq = cursors[i];
            if rng.gen_range(0..90) == 0 {
                records.push(Record::tombstone(&k.site, &k.queue, k.range.label(), seq));
                continue;
            }
            let w = wait(step) * if rng.gen_bool(0.05) { 300.0 } else { 1.0 };
            let fed = rng.gen_bool(0.3).then(|| wait(step + 1));
            records.push(record_for(k, seq, w, fed, fed.map(|b| b * 0.9)));
        }
        records
    }

    /// Lays a history out as a journal directory a crashed server could
    /// leave: its first `folded` records consolidated into the snapshot;
    /// the rest — plus the last `overlap` folded ones again, as after a
    /// crash between a compaction's snapshot write and its segment deletes —
    /// in two epochs of per-shard streams written by a three-shard server;
    /// and the last stream torn mid-frame.
    fn lay_out(dir: &Path, history: &[Record], folded: usize, overlap: usize) {
        let (mut parts, mut dead) = (HashMap::new(), HashMap::new());
        apply_records(&mut parts, &mut dead, history[..folded].iter().cloned()).unwrap();
        let entries = parts.iter().map(|(k, p)| p.to_snapshot(k)).collect();
        let rendered = snapshot::render(entries, dead.into_iter().collect()).unwrap();
        replace_with_snapshot(dir, &rendered, &[]).unwrap();
        let tail = &history[folded - overlap..];
        let (first, second) = tail.split_at(tail.len() / 2);
        for (epoch, records) in [(1u64, first), (2, second)] {
            let mut writers: HashMap<usize, JournalWriter> = HashMap::new();
            for r in records {
                let shard = record_key(r).unwrap().shard_index(3);
                let w = writers.entry(shard).or_insert_with(|| {
                    JournalWriter::open(dir, epoch, shard as u32, 4096, FsyncPolicy::Never, None)
                        .unwrap()
                });
                w.append(r);
                w.commit().unwrap();
            }
            for (_, w) in writers {
                w.close().unwrap();
            }
        }
        let mut segments = journal::scan_dir(dir).unwrap();
        segments.sort_by_key(|(id, _)| *id);
        let (_, last) = segments.last().unwrap();
        let len = std::fs::metadata(last).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(last).unwrap().set_len(len - 3).unwrap();
        let recovered = journal::recover(dir, RecoverMode::ReadOnly).unwrap();
        assert!(segments.len() > 6, "streams rotated");
        assert_eq!(recovered.torn_tails, 1);
        assert_eq!(recovered.records.len(), tail.len() - 1, "the tear took the last record");
    }

    /// The oracle the boot must equal: a [`MapSink`] replay of the
    /// directory's snapshot ⊕ every intact record of its journal.
    fn map_replay(dir: &Path) -> Document {
        let (snaps, dead) = snapshot::read(&snapshot_file(dir)).unwrap();
        let mut parts: HashMap<PartitionKey, Partition> =
            snaps.iter().map(|s| (s.key(), Partition::from_snapshot(s).unwrap())).collect();
        let mut dead: HashMap<PartitionKey, u64> = dead.into_iter().collect();
        let records = journal::recover(dir, RecoverMode::ReadOnly).unwrap().records;
        apply_records(&mut parts, &mut dead, records).unwrap();
        (parts.iter().map(|(k, p)| p.to_snapshot(k)).collect(), dead.into_iter().collect())
    }

    fn copy_dir(src: &Path, dst: &Path) {
        let _ = std::fs::remove_dir_all(dst);
        std::fs::create_dir_all(dst).unwrap();
        for entry in std::fs::read_dir(src).unwrap() {
            let entry = entry.unwrap();
            if entry.file_type().unwrap().is_file() {
                std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
            }
        }
    }

    fn journaled(dir: &Path, shards: usize, cap: Option<usize>) -> ServerConfig {
        ServerConfig {
            shards,
            journal: Some(JournalConfig {
                dir: dir.to_path_buf(),
                fsync: FsyncPolicy::Never,
                segment_bytes: 1 << 20,
                compact_bytes: u64::MAX,
            }),
            max_resident: cap,
            ..ServerConfig::default()
        }
    }

    const SHARDS: [usize; 3] = [1, 4, 16];
    const CAPS: [Option<usize>; 4] = [None, Some(0), Some(1), Some(2)];

    /// One boot, at every shard count and cap: install the snapshot, then
    /// replay the journal through the stores as a replica applies its
    /// stream. Seeded directories carry tombstones and resurrections on
    /// both sides of the fold, duplicate records and a torn tail. Every
    /// partition must serve the bits and `seq` of a plain-map replay of
    /// snapshot ⊕ journal, every consolidated `snapshot.json` must be the
    /// same bytes (and the oracle's), and a directory with a replay gap
    /// must refuse to boot, typed, at every shard count and cap.
    #[test]
    fn one_boot_equals_the_map_replay_at_every_shard_count_and_cap() {
        let _serial = crate::hibernate::tests::serial();
        for seed in [1u64, 2] {
            let mut rng = StdRng::seed_from_u64(seed);
            let history = seeded_history(&mut rng);
            assert!(history.iter().filter(|r| r.tombstone).count() >= 3, "seed {seed}");
            let seeded = fresh_dir(&format!("battery-{seed}"));
            lay_out(&seeded, &history, 600, 40);
            let (parts, dead) = map_replay(&seeded);
            let want = snapshot::render(parts.clone(), dead.clone()).unwrap();
            let mut oracle: HashMap<PartitionKey, Partition> =
                parts.iter().map(|s| (s.key(), Partition::from_snapshot(s).unwrap())).collect();
            let answers: Vec<Prediction> = (0..KEYS.len())
                .map(|i| {
                    let k = battery_key(i);
                    let cursor = dead.iter().find(|(d, _)| *d == k).map_or(0, |(_, s)| *s);
                    oracle.get_mut(&k).map_or(Prediction::unobserved(cursor), Partition::predict)
                })
                .collect();
            assert!(answers.iter().any(|p| p.bmbp.is_some()), "seed {seed}: some bound served");
            for shards in SHARDS {
                for cap in CAPS {
                    let case = format!("seed {seed} shards {shards} cap {cap:?}");
                    let dir = fresh_dir(&format!("battery-{seed}-{shards}-{cap:?}"));
                    copy_dir(&seeded, &dir);
                    let config = journaled(&dir, shards, cap);
                    let server = Server::start("127.0.0.1:0", config).unwrap();
                    let consolidated = std::fs::read(snapshot_file(&dir)).unwrap();
                    assert!(consolidated == want, "{case}: consolidated snapshot differs");
                    let mut c = Client::connect(server.local_addr()).unwrap();
                    for (i, want) in answers.iter().enumerate() {
                        let (site, queue, procs) = KEYS[i];
                        let p = c.predict(site, queue, procs).unwrap();
                        let (bmbp, lognormal) = (p.bmbp, p.lognormal);
                        let got = bits(&Prediction { n: p.n, seq: p.seq, bmbp, lognormal });
                        assert_eq!(got, bits(want), "{case}: {site}/{queue}/{procs}");
                    }
                    c.shutdown().unwrap();
                    server.join().unwrap();
                    let at_shutdown = std::fs::read(snapshot_file(&dir)).unwrap();
                    assert!(at_shutdown == want, "{case}: the shutdown snapshot differs");
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }

            // The same directory with one mid-journal observe gone (one
            // whose key has a later record that the tear does not take).
            let last = history.len() - 1;
            let same_key = |a: &Record, b: &Record| record_key(a) == record_key(b);
            let gone = (600..last)
                .find(|&i| {
                    !history[i].tombstone
                        && history[i + 1..last].iter().any(|r| same_key(r, &history[i]))
                })
                .unwrap();
            let mut holed = history.clone();
            holed.remove(gone);
            let gapped = fresh_dir(&format!("battery-{seed}-gap"));
            lay_out(&gapped, &holed, 600, 40);
            for shards in SHARDS {
                for cap in CAPS {
                    let dir = fresh_dir(&format!("battery-{seed}-gap-{shards}-{cap:?}"));
                    copy_dir(&gapped, &dir);
                    let err = Server::start("127.0.0.1:0", journaled(&dir, shards, cap)).err();
                    let err = err.expect("a replay gap must not boot");
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{shards} shards, {cap:?}");
                    assert!(err.to_string().contains("gap"), "{err}");
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
            let _ = std::fs::remove_dir_all(&seeded);
            let _ = std::fs::remove_dir_all(&gapped);
        }
    }

    /// A capped replica's resync is the same install: the snapshot's cold
    /// tail lands hibernated with no answer and nothing is restored — no
    /// refit of partitions nobody asked about — and the first question
    /// about each cold key restores it exactly once; after that every
    /// answer comes from memory or the index.
    #[test]
    fn a_capped_resync_installs_the_cold_tail_without_a_restore() {
        let _serial = crate::hibernate::tests::serial();
        let dir = fresh_dir("resync-primary");
        let mut parts: Vec<(PartitionKey, Partition)> = Vec::new();
        for (i, &(site, queue, procs)) in KEYS.iter().enumerate() {
            let mut p = Partition::new();
            for j in 0..70 + i as u64 {
                p.observe(wait(j * 31 + i as u64), None, None);
            }
            parts.push((PartitionKey::for_request(site, queue, procs), p));
        }
        snapshot_of(&dir, &parts);
        let primary = Server::start(
            "127.0.0.1:0",
            ServerConfig { repl_addr: Some("127.0.0.1:0".into()), ..journaled(&dir, 4, None) },
        )
        .unwrap();
        let restores = crate::HIBERNATE_RESTORES.value();
        let cap = 2;
        let replica = Server::start(
            "127.0.0.1:0",
            ServerConfig {
                shards: 1,
                replicate_from: Some(primary.repl_addr().unwrap().to_string()),
                max_resident: Some(cap),
                spill_dir: Some(fresh_dir("resync-spill")),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut c = Client::connect(replica.local_addr()).unwrap();
        let mut installed = || {
            let stats = c.stats().unwrap();
            let count = |name| stats.get(name).and_then(qdelay_json::Json::as_usize).unwrap();
            (count("partitions"), count("hibernated"))
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while installed().0 < KEYS.len() {
            assert!(std::time::Instant::now() < deadline, "the replica never resynced");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(installed(), (KEYS.len(), KEYS.len() - cap));
        assert_eq!(crate::HIBERNATE_RESTORES.value(), restores, "the install restored nothing");

        // Sorted, the first `cap` keys are the residents; ask the cold tail
        // first, then everything twice over.
        let mut order: Vec<usize> = (0..KEYS.len()).collect();
        order.sort_by_key(|&i| battery_key(i));
        order.rotate_left(cap);
        let mut p = Client::connect(primary.local_addr()).unwrap();
        for round in 0..3 {
            for (n, &i) in order.iter().enumerate() {
                let (site, queue, procs) = KEYS[i];
                let got = c.predict(site, queue, procs).unwrap();
                assert_eq!(got, p.predict(site, queue, procs).unwrap(), "round {round}");
                let cold = KEYS.len() - cap;
                let asked = if round == 0 { (n + 1).min(cold) } else { cold };
                assert_eq!(
                    crate::HIBERNATE_RESTORES.value(),
                    restores + asked as u64,
                    "round {round} key {n}: one restore per cold key, on its first question"
                );
            }
        }
        c.shutdown().unwrap();
        p.shutdown().unwrap();
        replica.join().unwrap();
        primary.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
