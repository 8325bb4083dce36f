//! Partition hibernation: a capacity-managed registry for millions of
//! partitions.
//!
//! The serve registry holds every partition's full `HistoryBuffer`
//! resident forever; at millions of `(site, queue, proc-range)`
//! partitions, memory — not CPU — is the wall. Because the predictor
//! state surface round-trips bit-identically (PR 4), a cold partition
//! can page out losslessly: [`PartitionStore`] keeps each shard's
//! partitions under a resident cap by serializing least-recently-touched
//! partitions into a per-shard append-only **spill file** and lazily
//! restoring them on the next observe/predict/admit touch.
//!
//! ## The state machine
//!
//! ```text
//!             touch (restore: read + CRC + refit)
//!        ┌────────────────────────────────────────┐
//!        ▼                                        │
//!   ┌──────────┐   cap exceeded (evict LRU)  ┌────┴───────┐
//!   │ resident │ ───────────────────────────▶│ hibernated │
//!   └──────────┘                             └────────────┘
//!        │ tombstone                               │ tombstone
//!        ▼                                         ▼
//!   ┌──────────────────────────────────────────────────────┐
//!   │ dead (cursor only — spill slot freed, bytes garbage) │
//!   └──────────────────────────────────────────────────────┘
//! ```
//!
//! ## Spill file format
//!
//! An append-only sequence of CRC frames (the shared
//! [`qdelay_journal::frame`] codec — the same framing as journal
//! segments and the binary wire protocol):
//!
//! ```text
//! ┌─────────────┬───────────┬──────────────────────────────────┐
//! │ u32 len     │ u32 crc32 │ payload: one snapshot partition  │
//! │ (LE)        │ (len+payload) │ object as compact JSON       │
//! └─────────────┴───────────┴──────────────────────────────────┘
//! ```
//!
//! The payload is exactly the partition's entry in the snapshot
//! document ([`crate::snapshot::encode_partition`]), so a spill record
//! and a snapshot entry are interchangeable bytes-wise and the restore
//! path is the proven boot path ([`Partition::from_snapshot`] refits
//! from state, bit-identically). An in-memory index maps each
//! hibernated key to its `(offset, len)` slot; restores, re-evictions
//! and tombstones leave the old bytes behind as garbage.
//!
//! ## Compaction
//!
//! The sweeper (run by the shard loop between request batches) rewrites
//! the spill file once garbage exceeds half the file and the file is
//! big enough to care (64 KiB): live slots are re-read, CRC-checked and
//! appended to a fresh file which replaces the old one via the same
//! tmp + fsync + rename discipline as journal compaction
//! ([`qdelay_journal::write_atomic`]). A crash mid-compaction leaves
//! the old file intact.
//!
//! Spill files are scratch, not durability: they are truncated at boot
//! (state comes from the snapshot/journal) and never fsynced on append.

use crate::durability::{self, RecordSink};
use crate::registry::{Partition, PartitionKey};
use crate::snapshot::{self, DeadPartition, PartitionSnapshot};
use crate::{
    HIBERNATE_DISK_BYTES, HIBERNATE_EVICTIONS, HIBERNATE_EVICT_NS, HIBERNATE_HIBERNATED,
    HIBERNATE_RESIDENT, HIBERNATE_RESTORES, HIBERNATE_RESTORE_NS, HIBERNATE_SPILL_COMPACTIONS,
};
use qdelay_journal::frame::{self, Check};
use qdelay_json::Json;
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::time::Instant;

/// Largest spill-record payload accepted on read. Per-partition state is
/// bounded (the history buffer is capped), so anything near this is
/// damage, not data.
const MAX_SPILL_PAYLOAD: u32 = 1 << 26;

/// Compaction trigger: garbage must exceed half the file...
const COMPACT_GARBAGE_NUM: u64 = 2;
/// ...and the file must be at least this big (don't churn tiny files).
const DEFAULT_COMPACT_MIN_BYTES: u64 = 64 * 1024;

/// A resident partition plus its last-touch stamp (the key into `lru`).
struct Resident {
    partition: Partition,
    touch: u64,
}

/// Where a hibernated partition's bytes live in the spill file.
#[derive(Clone, Copy)]
struct SpillSlot {
    offset: u64,
    /// Whole-frame length (prefix + payload).
    len: u32,
    /// The partition's observation cursor at eviction time, kept in
    /// memory so `stats` and replay dedup never have to read the file.
    seq: u64,
}

/// The spill file and its byte accounting.
struct Spill {
    path: PathBuf,
    file: File,
    /// Append offset == file length.
    end: u64,
    /// Bytes of frames still referenced by the index; `end - live` is
    /// garbage.
    live: u64,
}

/// Capacity-managed per-shard partition storage: resident map + LRU +
/// hibernated index + dead cursors. With `cap == None` it degenerates to
/// the plain maps the server always had (no spill file is opened).
pub struct PartitionStore {
    resident: HashMap<PartitionKey, Resident>,
    /// Tombstoned partitions' cursors (see [`crate::snapshot::DeadPartition`]).
    dead: HashMap<PartitionKey, u64>,
    hibernated: HashMap<PartitionKey, SpillSlot>,
    /// Last-touch stamp → key; the first entry is the eviction victim.
    lru: BTreeMap<u64, PartitionKey>,
    clock: u64,
    cap: Option<usize>,
    spill: Option<Spill>,
    compact_min_bytes: u64,
}

impl PartitionStore {
    /// Opens a store. A capped store needs a spill path; the file is
    /// created (or truncated — spill files are scratch, state comes from
    /// the snapshot/journal) and held open for the store's lifetime.
    pub fn new(cap: Option<usize>, spill_path: Option<PathBuf>) -> io::Result<Self> {
        let spill = match (cap, spill_path) {
            (Some(_), Some(path)) => {
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(&path)?;
                Some(Spill { path, file, end: 0, live: 0 })
            }
            (Some(_), None) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "a resident cap needs a spill path",
                ))
            }
            (None, _) => None,
        };
        Ok(Self {
            resident: HashMap::new(),
            dead: HashMap::new(),
            hibernated: HashMap::new(),
            lru: BTreeMap::new(),
            clock: 0,
            cap,
            spill,
            compact_min_bytes: DEFAULT_COMPACT_MIN_BYTES,
        })
    }

    /// Lowers the compaction floor so unit tests can trip the sweeper
    /// with small files.
    #[cfg(test)]
    fn set_compact_min_bytes(&mut self, bytes: u64) {
        self.compact_min_bytes = bytes;
    }

    /// Wholesale-replaces the store's contents with materialized
    /// partitions (boot from a journal, replica snapshot install).
    /// Under a cap, partitions beyond it are spilled immediately —
    /// deterministically the largest sorted keys, so a re-install lands
    /// the same layout.
    pub fn install_parts(
        &mut self,
        mut parts: Vec<(PartitionKey, Partition)>,
        dead: Vec<(PartitionKey, u64)>,
    ) -> io::Result<()> {
        self.reset(dead)?;
        parts.sort_by(|a, b| a.0.cmp(&b.0));
        let keep = self.cap.unwrap_or(usize::MAX);
        for (i, (key, partition)) in parts.into_iter().enumerate() {
            if i < keep {
                self.insert_resident(key, partition);
            } else {
                let snap = partition.to_snapshot(&key);
                self.spill_snapshot(&key, &snap)?;
            }
        }
        Ok(())
    }

    /// Wholesale-replaces the store's contents from snapshot entries
    /// (boot from a snapshot file). Partitions beyond the cap land
    /// **directly in the hibernated state** — their history is never
    /// materialized, so booting a million-partition snapshot under a
    /// small cap costs a file append per cold partition, not a refit.
    pub fn install_snapshots(
        &mut self,
        mut snaps: Vec<PartitionSnapshot>,
        dead: Vec<(PartitionKey, u64)>,
    ) -> io::Result<()> {
        self.reset(dead)?;
        snaps.sort_by(|a, b| (&a.site, &a.queue, a.range).cmp(&(&b.site, &b.queue, b.range)));
        let keep = self.cap.unwrap_or(usize::MAX);
        for (i, snap) in snaps.into_iter().enumerate() {
            let key = PartitionKey {
                site: snap.site.clone(),
                queue: snap.queue.clone(),
                range: snap.range,
            };
            if i < keep {
                let partition = Partition::from_snapshot(&snap)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                self.insert_resident(key, partition);
            } else {
                self.spill_snapshot(&key, &snap)?;
            }
        }
        Ok(())
    }

    /// Clears everything (updating the global gauges) and truncates the
    /// spill file.
    fn reset(&mut self, dead: Vec<(PartitionKey, u64)>) -> io::Result<()> {
        HIBERNATE_RESIDENT.sub(self.resident.len() as u64);
        HIBERNATE_HIBERNATED.sub(self.hibernated.len() as u64);
        self.resident.clear();
        self.hibernated.clear();
        self.lru.clear();
        self.dead = dead.into_iter().collect();
        if let Some(spill) = &mut self.spill {
            spill.file.set_len(0)?;
            HIBERNATE_DISK_BYTES.sub(spill.end);
            spill.end = 0;
            spill.live = 0;
        }
        Ok(())
    }

    /// The materialize step every op goes through: returns the resident
    /// partition for `key`, restoring it from the spill file if it is
    /// hibernated, resurrecting it at its dead cursor if it was
    /// tombstoned, or creating it fresh. The touch stamp is bumped; call
    /// [`PartitionStore::enforce_cap`] after the op completes to evict
    /// whatever the touch displaced (never the partition an op is
    /// touching — eviction waits until the borrow ends).
    pub fn touch(&mut self, key: PartitionKey) -> io::Result<&mut Partition> {
        if !self.resident.contains_key(&key) {
            let partition = if self.hibernated.contains_key(&key) {
                self.restore(&key)?
            } else {
                match self.dead.remove(&key) {
                    Some(cursor) => Partition::with_seq(cursor),
                    None => Partition::new(),
                }
            };
            self.insert_resident(key.clone(), partition);
        } else {
            self.bump(&key);
        }
        Ok(&mut self.resident.get_mut(&key).expect("just inserted").partition)
    }

    /// Inserts a resident partition with a fresh touch stamp.
    fn insert_resident(&mut self, key: PartitionKey, partition: Partition) {
        self.clock += 1;
        let touch = self.clock;
        self.lru.insert(touch, key.clone());
        if self.resident.insert(key, Resident { partition, touch }).is_none() {
            HIBERNATE_RESIDENT.add(1);
        }
    }

    /// Moves `key` to the most-recently-touched end of the LRU.
    fn bump(&mut self, key: &PartitionKey) {
        let Some(entry) = self.resident.get_mut(key) else { return };
        self.lru.remove(&entry.touch);
        self.clock += 1;
        entry.touch = self.clock;
        self.lru.insert(entry.touch, key.clone());
    }

    /// Reads `key`'s spill slot back into a partition, freeing the slot.
    /// A torn or bit-flipped record is a typed error — the slot is kept
    /// (so the failure is stable and diagnosable) and no history is ever
    /// invented.
    fn restore(&mut self, key: &PartitionKey) -> io::Result<Partition> {
        let t0 = Instant::now();
        let slot = self.hibernated[key];
        let snap = self.read_slot(key, slot)?;
        let partition = Partition::from_snapshot(&snap).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("hibernated partition {} failed to refit: {e}", key.label()),
            )
        })?;
        self.hibernated.remove(key);
        HIBERNATE_HIBERNATED.sub(1);
        if let Some(spill) = &mut self.spill {
            spill.live -= u64::from(slot.len);
        }
        HIBERNATE_RESTORES.incr();
        HIBERNATE_RESTORE_NS.record(t0.elapsed().as_nanos() as u64);
        Ok(partition)
    }

    /// Reads and validates one spill slot without touching the index.
    fn read_slot(&self, key: &PartitionKey, slot: SpillSlot) -> io::Result<PartitionSnapshot> {
        let spill = self.spill.as_ref().expect("hibernated entries imply a spill file");
        let bad = |what: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "hibernated partition {} unreadable at {} (+{}) in {}: {what}",
                    key.label(),
                    slot.offset,
                    slot.len,
                    spill.path.display(),
                ),
            )
        };
        let mut buf = vec![0u8; slot.len as usize];
        spill
            .file
            .read_exact_at(&mut buf, slot.offset)
            .map_err(|e| bad(&format!("read failed: {e}")))?;
        let (start, end) = match frame::check(&buf, MAX_SPILL_PAYLOAD) {
            Check::Complete { start, end, next } if next == buf.len() => (start, end),
            Check::Complete { .. } => return Err(bad("frame shorter than its slot")),
            Check::Incomplete => return Err(bad("torn frame")),
            Check::Damaged(why) => return Err(bad(why)),
        };
        let text = std::str::from_utf8(&buf[start..end]).map_err(|_| bad("payload not UTF-8"))?;
        let doc = Json::parse(text).map_err(|e| bad(&format!("payload not JSON: {e}")))?;
        snapshot::decode_partition(&doc).map_err(|e| bad(&e))
    }

    /// Appends `snap` to the spill file and indexes `key` as hibernated.
    /// Writes use explicit offsets ([`FileExt::write_all_at`]) so the
    /// handle's cursor — reset when a compaction reopens the file —
    /// never matters.
    fn spill_snapshot(&mut self, key: &PartitionKey, snap: &PartitionSnapshot) -> io::Result<()> {
        let spill = self.spill.as_mut().expect("capped stores have a spill file");
        let mut frame_bytes = Vec::new();
        frame::encode(
            snapshot::encode_partition(snap).to_string_compact().as_bytes(),
            &mut frame_bytes,
        );
        spill.file.write_all_at(&frame_bytes, spill.end)?;
        let len = frame_bytes.len() as u64;
        let slot = SpillSlot { offset: spill.end, len: len as u32, seq: snap.seq };
        spill.end += len;
        spill.live += len;
        HIBERNATE_DISK_BYTES.add(len);
        if self.hibernated.insert(key.clone(), slot).is_none() {
            HIBERNATE_HIBERNATED.add(1);
        }
        Ok(())
    }

    /// Evicts least-recently-touched partitions until the resident set
    /// fits the cap. Call after each op's borrow of the touched
    /// partition ends — with `cap == 0` even the just-touched partition
    /// hibernates again, which is degenerate but correct.
    pub fn enforce_cap(&mut self) -> io::Result<()> {
        let Some(cap) = self.cap else { return Ok(()) };
        while self.resident.len() > cap {
            let (&touch, key) = self.lru.iter().next().expect("resident set is non-empty");
            let key = key.clone();
            let t0 = Instant::now();
            let entry = self.resident.get(&key).expect("lru entries are resident");
            let snap = entry.partition.to_snapshot(&key);
            self.spill_snapshot(&key, &snap)?;
            self.lru.remove(&touch);
            self.resident.remove(&key);
            HIBERNATE_RESIDENT.sub(1);
            HIBERNATE_EVICTIONS.incr();
            HIBERNATE_EVICT_NS.record(t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// The sweeper: compacts the spill file when garbage exceeds half of
    /// it (and the file is big enough to care). Live slots are re-read,
    /// CRC-verified and written to a fresh file that atomically replaces
    /// the old one (tmp + fsync + rename, the journal-compaction
    /// discipline) — a crash at any point leaves a valid file. Returns
    /// whether a compaction ran.
    pub fn sweep(&mut self) -> io::Result<bool> {
        {
            let Some(spill) = &self.spill else { return Ok(false) };
            let garbage = spill.end - spill.live;
            if spill.end < self.compact_min_bytes || garbage * COMPACT_GARBAGE_NUM <= spill.end {
                return Ok(false);
            }
        }
        // Stable iteration order keeps the rewritten file deterministic.
        let mut keys: Vec<PartitionKey> = self.hibernated.keys().cloned().collect();
        keys.sort();
        let mut bytes = Vec::new();
        let mut slots = Vec::with_capacity(keys.len());
        for key in &keys {
            let slot = self.hibernated[key];
            // Re-validate while copying: compaction must not launder a
            // corrupt record into a "fresh" file.
            self.read_slot(key, slot)?;
            let offset = bytes.len() as u64;
            let spill = self.spill.as_ref().expect("sweep checked");
            let mut frame_bytes = vec![0u8; slot.len as usize];
            spill.file.read_exact_at(&mut frame_bytes, slot.offset)?;
            bytes.extend_from_slice(&frame_bytes);
            slots.push((key.clone(), SpillSlot { offset, len: slot.len, seq: slot.seq }));
        }
        let spill = self.spill.as_mut().expect("sweep checked");
        qdelay_journal::write_atomic(&spill.path, &bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::Other, e.to_string()))?;
        // The rename replaced the inode our handle points at; reopen.
        spill.file = OpenOptions::new().read(true).write(true).open(&spill.path)?;
        HIBERNATE_DISK_BYTES.sub(spill.end - bytes.len() as u64);
        spill.end = bytes.len() as u64;
        spill.live = spill.end;
        for (key, slot) in slots {
            self.hibernated.insert(key, slot);
        }
        HIBERNATE_SPILL_COMPACTIONS.incr();
        Ok(true)
    }

    /// Serializes every partition — resident ones from memory,
    /// hibernated ones straight from their spill slots (decoded, never
    /// materialized into a `Partition`) — plus the dead-cursor list.
    /// This is the shard's `Collect` answer, so snapshots of a capped
    /// server cost a decode per cold partition, not a refit.
    pub fn collect(&self) -> io::Result<(Vec<PartitionSnapshot>, Vec<DeadPartition>)> {
        let mut parts = Vec::with_capacity(self.resident.len() + self.hibernated.len());
        for (key, entry) in &self.resident {
            parts.push(entry.partition.to_snapshot(key));
        }
        for (key, slot) in &self.hibernated {
            parts.push(self.read_slot(key, *slot)?);
        }
        let dead = self
            .dead
            .iter()
            .map(|(key, &seq)| DeadPartition {
                site: key.site.clone(),
                queue: key.queue.clone(),
                range: key.range,
                seq,
            })
            .collect();
        Ok((parts, dead))
    }

    /// Replays journal/replication records through the shared cursor
    /// discipline ([`durability::apply_records_into`]); an observe for a
    /// hibernated partition restores it first, and a tombstone frees its
    /// spill slot. The caller runs [`PartitionStore::enforce_cap`] after
    /// the batch.
    pub fn apply(
        &mut self,
        records: impl IntoIterator<Item = qdelay_journal::Record>,
    ) -> Result<u64, String> {
        durability::apply_records_into(self, records)
    }

    /// Partitions resident in memory.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Partitions hibernated to the spill file.
    pub fn hibernated_count(&self) -> usize {
        self.hibernated.len()
    }

    /// All live partitions (resident + hibernated).
    pub fn partition_count(&self) -> usize {
        self.resident.len() + self.hibernated.len()
    }

    /// Spill file size in bytes (live + garbage); 0 when uncapped.
    pub fn spill_disk_bytes(&self) -> u64 {
        self.spill.as_ref().map_or(0, |s| s.end)
    }

    /// Total observations across live partitions (the per-partition seq
    /// sum `stats` reports) — hibernated partitions contribute their
    /// indexed seq without a file read.
    pub fn total_observations(&self) -> u64 {
        self.resident.values().map(|e| e.partition.seq()).sum::<u64>()
            + self.hibernated.values().map(|s| s.seq).sum::<u64>()
    }
}

impl RecordSink for PartitionStore {
    fn cursor(&self, key: &PartitionKey) -> u64 {
        if let Some(entry) = self.resident.get(key) {
            return entry.partition.seq();
        }
        if let Some(slot) = self.hibernated.get(key) {
            return slot.seq;
        }
        self.dead.get(key).copied().unwrap_or(0)
    }

    fn tombstone(&mut self, key: PartitionKey, seq: u64) {
        if let Some(entry) = self.resident.remove(&key) {
            self.lru.remove(&entry.touch);
            HIBERNATE_RESIDENT.sub(1);
        }
        if let Some(slot) = self.hibernated.remove(&key) {
            // The slot's bytes become garbage for the sweeper.
            if let Some(spill) = &mut self.spill {
                spill.live -= u64::from(slot.len);
            }
            HIBERNATE_HIBERNATED.sub(1);
        }
        self.dead.insert(key, seq);
    }

    fn observe(
        &mut self,
        key: PartitionKey,
        _cursor: u64,
        r: &qdelay_journal::Record,
    ) -> Result<(), String> {
        let partition = self.touch(key).map_err(|e| e.to_string())?;
        partition.observe(r.wait, r.predicted_bmbp, r.predicted_lognormal);
        Ok(())
    }
}

impl Drop for PartitionStore {
    /// Withdraws this store's contributions from the process-wide
    /// gauges so a shut-down shard doesn't leave phantom residents.
    fn drop(&mut self) {
        HIBERNATE_RESIDENT.sub(self.resident.len() as u64);
        HIBERNATE_HIBERNATED.sub(self.hibernated.len() as u64);
        if let Some(spill) = &self.spill {
            HIBERNATE_DISK_BYTES.sub(spill.end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `HIBERNATE_RESTORES` is process-wide and the harness runs tests on
    /// parallel threads; two tests below assert the counter stands still
    /// across a call, so every test here that can restore runs under this
    /// lock.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn fresh_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("qdelay-hibernate-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn key(i: usize) -> PartitionKey {
        PartitionKey::for_request("site", &format!("q{i:03}"), 8)
    }

    fn wait(i: u64) -> f64 {
        ((i.wrapping_mul(2_654_435_761)) % 10_000) as f64 + 0.5
    }

    /// Grows a store of `n` partitions with `obs` observations each.
    fn grown(store: &mut PartitionStore, n: usize, obs: u64) {
        for i in 0..n {
            for j in 0..obs {
                let p = store.touch(key(i)).unwrap();
                p.observe(wait(i as u64 * 1000 + j), None, None);
                store.enforce_cap().unwrap();
            }
        }
    }

    #[test]
    fn capped_store_serves_bit_identical_bounds() {
        let _serial = serial();
        let mut capped =
            PartitionStore::new(Some(2), Some(fresh_path("bit-identical.qds"))).unwrap();
        let mut uncapped = PartitionStore::new(None, None).unwrap();
        for s in [&mut capped, &mut uncapped] {
            grown(s, 8, 120);
        }
        assert!(capped.hibernated_count() >= 6, "cap 2 of 8 must hibernate");
        for i in 0..8 {
            let want = uncapped.touch(key(i)).unwrap().predict();
            let got = capped.touch(key(i)).unwrap().predict();
            capped.enforce_cap().unwrap();
            assert_eq!(got.seq, want.seq);
            assert_eq!(got.bmbp.map(f64::to_bits), want.bmbp.map(f64::to_bits), "key {i}");
            assert_eq!(
                got.lognormal.map(f64::to_bits),
                want.lognormal.map(f64::to_bits),
                "key {i}"
            );
        }
    }

    #[test]
    fn collect_is_identical_and_reads_hibernated_without_restoring() {
        let _serial = serial();
        let mut capped = PartitionStore::new(Some(1), Some(fresh_path("collect.qds"))).unwrap();
        let mut uncapped = PartitionStore::new(None, None).unwrap();
        for s in [&mut capped, &mut uncapped] {
            grown(s, 5, 60);
        }
        let restores_before = crate::HIBERNATE_RESTORES.value();
        let (got, _) = capped.collect().unwrap();
        assert_eq!(
            crate::HIBERNATE_RESTORES.value(),
            restores_before,
            "collect must not restore"
        );
        let (want, _) = uncapped.collect().unwrap();
        assert_eq!(
            snapshot::encode(got, Vec::new()).to_string_pretty(),
            snapshot::encode(want, Vec::new()).to_string_pretty(),
            "snapshot documents must be byte-identical"
        );
    }

    #[test]
    fn lru_evicts_the_coldest_partition() {
        let _serial = serial();
        let mut store = PartitionStore::new(Some(2), Some(fresh_path("lru.qds"))).unwrap();
        grown(&mut store, 3, 5); // touch order 0,1,2 → 0 evicted
        assert!(store.hibernated.contains_key(&key(0)));
        store.touch(key(0)).unwrap(); // restore 0 → 1 is now coldest
        store.enforce_cap().unwrap();
        assert!(store.hibernated.contains_key(&key(1)));
        assert!(store.resident.contains_key(&key(0)));
        assert!(store.resident.contains_key(&key(2)));
    }

    #[test]
    fn cap_zero_hibernates_everything_after_each_op() {
        let _serial = serial();
        let mut store = PartitionStore::new(Some(0), Some(fresh_path("cap0.qds"))).unwrap();
        grown(&mut store, 3, 40);
        assert_eq!(store.resident_count(), 0);
        assert_eq!(store.hibernated_count(), 3);
        let p = store.touch(key(1)).unwrap().predict();
        assert_eq!(p.seq, 40);
    }

    #[test]
    fn torn_and_bit_flipped_spill_records_are_typed_errors() {
        let _serial = serial();
        let path = fresh_path("damage.qds");
        let mut store = PartitionStore::new(Some(0), Some(path.clone())).unwrap();
        grown(&mut store, 1, 50);
        let slot = store.hibernated[&key(0)];

        // Flip one payload byte on disk: the restore is a typed
        // InvalidData error naming the CRC, the slot stays indexed (the
        // failure is stable), and no partition is invented.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[slot.offset as usize + frame::PREFIX_LEN + 3] ^= 0x41;
        std::fs::write(&path, &bytes).unwrap();
        // Reopen: fs::write replaced the inode the store's handle held.
        store.spill.as_mut().unwrap().file = File::open(&path).unwrap();
        let err = store.touch(key(0)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        assert!(store.hibernated.contains_key(&key(0)), "slot survives for diagnosis");
        assert_eq!(store.resident_count(), 0, "no history invented");

        // Truncate mid-frame: same typed error, different cause.
        bytes.truncate(slot.offset as usize + 4);
        std::fs::write(&path, &bytes).unwrap();
        store.spill.as_mut().unwrap().file = File::open(&path).unwrap();
        let err = store.touch(key(0)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn sweeper_compacts_garbage_and_preserves_live_slots() {
        let _serial = serial();
        let path = fresh_path("compact.qds");
        let mut store = PartitionStore::new(Some(1), Some(path.clone())).unwrap();
        store.set_compact_min_bytes(1);
        // Thrash two partitions so each eviction strands the previous
        // spill record as garbage.
        for round in 0..6u64 {
            for i in 0..2 {
                let p = store.touch(key(i)).unwrap();
                for j in 0..30 {
                    p.observe(wait(round * 100 + i as u64 * 50 + j), None, None);
                }
                store.enforce_cap().unwrap();
            }
        }
        let before = store.spill_disk_bytes();
        assert!(store.sweep().unwrap(), "garbage ratio must have tripped");
        let after = store.spill_disk_bytes();
        assert!(after < before, "compaction must shrink the file ({before} -> {after})");
        assert_eq!(after, store.spill.as_ref().unwrap().live, "no garbage after compaction");
        assert_eq!(after, std::fs::metadata(&path).unwrap().len());
        assert!(!store.sweep().unwrap(), "a clean file must not re-compact");
        // Restores from the compacted file still round-trip.
        let p = store.touch(key(0)).unwrap().predict();
        assert_eq!(p.seq, 6 * 30);
    }

    #[test]
    fn tombstone_frees_hibernated_slots_and_keeps_the_cursor() {
        let _serial = serial();
        let mut store = PartitionStore::new(Some(0), Some(fresh_path("tomb.qds"))).unwrap();
        grown(&mut store, 1, 10);
        assert_eq!(store.hibernated_count(), 1);
        let live_before = store.spill.as_ref().unwrap().live;
        store.tombstone(key(0), 11);
        assert_eq!(store.hibernated_count(), 0);
        assert!(store.spill.as_ref().unwrap().live < live_before, "slot bytes became garbage");
        assert_eq!(store.cursor(&key(0)), 11, "tombstone cursor survives");
        // Resurrection continues the seq space.
        let p = store.touch(key(0)).unwrap();
        assert_eq!(p.observe(1.0, None, None), 12);
    }

    #[test]
    fn install_snapshots_lands_cold_partitions_directly_hibernated() {
        let _serial = serial();
        let mut grower = PartitionStore::new(None, None).unwrap();
        grown(&mut grower, 6, 80);
        let (snaps, _) = grower.collect().unwrap();

        let restores_before = crate::HIBERNATE_RESTORES.value();
        let mut store =
            PartitionStore::new(Some(2), Some(fresh_path("install.qds"))).unwrap();
        store.install_snapshots(snaps.clone(), Vec::new()).unwrap();
        assert_eq!(store.resident_count(), 2);
        assert_eq!(store.hibernated_count(), 4);
        assert_eq!(
            crate::HIBERNATE_RESTORES.value(),
            restores_before,
            "cold partitions must not be materialized at install"
        );
        let (back, _) = store.collect().unwrap();
        assert_eq!(
            snapshot::encode(back, Vec::new()).to_string_pretty(),
            snapshot::encode(snaps, Vec::new()).to_string_pretty()
        );
    }
}
