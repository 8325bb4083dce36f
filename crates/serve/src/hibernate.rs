//! Partition hibernation: a capacity-managed registry for millions of
//! partitions.
//!
//! The serve registry holds every partition's full history (its arrival
//! log and BMBP's sorted view of it) resident forever; at millions of
//! `(site, queue, proc-range)` partitions, memory — not CPU — is the
//! wall. Because the predictor state surface round-trips bit-identically,
//! a cold partition can page out losslessly: [`PartitionStore`] keeps each
//! shard's partitions under a resident cap by serializing least-recently-touched
//! partitions into a per-shard append-only **spill file** and lazily
//! restoring them when they are next *written* (an observe, a replicated
//! record). What pages out is the history, not the answer: the index entry
//! of a hibernated partition keeps the [`Prediction`] it was serving, so a
//! *question* (predict, admit) about it reads no file at all.
//!
//! ## The state machine
//!
//! ```text
//!                 touch (restore: read + CRC + decode + refit;
//!                        the slot stays where it is)
//!        ┌──────────────────────────────────────────────────┐
//!        ▼                                                  │
//!   ┌─────────────────┐  evict, seq unchanged:         ┌────┴───────────┐
//!   │ resident, clean │  index update, no write        │ hibernated,    │
//!   │ — slot kept     │ ──────────────────────────────▶│ answer known   │
//!   └─────────────────┘                                │ (a question is │
//!        │ observe (seq moves on)                      │  answered here)│
//!        ▼                                             │                │
//!   ┌─────────────────┐  evict: refit if dirty, encode │                │
//!   │ resident, dirty │  + append; the kept slot, if   │                │
//!   │ or never spilled│  any, is garbage ─────────────▶│                │
//!   └─────────────────┘                                └────────────────┘
//!        │ tombstone            ▲ first question: touch       │ tombstone
//!        │              ┌───────┴────────┐                    │
//!        │              │ hibernated,    │ any install's      │
//!        │              │ answer unknown │◀── cold tail       │
//!        │              └───────┬────────┘                    │
//!        ▼                      ▼ tombstone                   ▼
//!   ┌─────────────────────────────────────────────────────────────┐
//!   │ dead (cursor only — any slot freed, its bytes garbage)      │
//!   └─────────────────────────────────────────────────────────────┘
//! ```
//!
//! A restored partition remembers the slot it came from. Every mutation
//! of a [`Partition`] goes through `observe`, which bumps `seq`, so "the
//! partition's `seq` still equals the slot's" is an exact test that the
//! slot's bytes are still the partition's state: evicting such a
//! partition re-indexes the slot and touches neither the encoder nor the
//! file. Only a dirty eviction, a tombstone, a wholesale install or a
//! compaction turns a kept slot into garbage.
//!
//! ## The answer in the index
//!
//! Served bounds are a pure function of the observation sequence, so the
//! answer a partition gives at `seq` is the answer it gives until the next
//! observe — whether or not its history is in memory. The path that has
//! the partition in memory when it leaves, [`PartitionStore::enforce_cap`],
//! **writes the answer** into the slot's index entry (refitting first if an
//! observe left the partition dirty — half a microsecond, against the
//! restore it saves the next asker; the refit changes no exported state, so
//! the spill record and every snapshot are byte for byte what they were);
//! a compaction moves slots and carries their answers along. The one slot
//! with **no answer** is one written from a bare snapshot entry: the cold
//! tail of [`PartitionStore::install_snapshots`], the one install behind a
//! snapshot boot, a journal boot and a replica resync alike (and behind
//! [`PartitionStore::install_parts`], which writes no answers either). Its
//! partition is never materialized at install; its first question restores
//! it as a touch would, and the clean eviction that follows leaves the
//! answer.
//!
//! What a question ([`PartitionStore::predict`]) costs, by where it lands:
//!
//! | the key is…                | cost                                      |
//! |----------------------------|-------------------------------------------|
//! | resident                   | one hash, an LRU bump, `Partition::predict` |
//! | hibernated, answer known   | two hashes, a 56-byte copy — no file, no LRU, no eviction |
//! | hibernated, answer unknown | a restore, once                           |
//! | unknown or tombstoned      | two or three hashes; **nothing is created** |
//!
//! An answer is invalidated by construction, not by bookkeeping: the only
//! way to change a partition is to touch it, which moves its key from the
//! hibernated map to the resident one, and the next eviction writes the
//! answer of the state it evicts. A tombstone removes the index entry and
//! the answer with it. The store's seeded differential test asks at every
//! step and holds each answer against an uncapped twin's.
//!
//! The price is 32 bytes per *hibernated* partition (an index entry is
//! already well over 100 bytes of key strings, `Arc` and map slots), and a
//! change in **when damage is noticed**: a slot whose bytes rot on disk is
//! detected by the next thing that reads them — an observe, a `snapshot`,
//! a compaction — and no longer by the next question, which is answered,
//! correctly, from the value computed while the state was verified in
//! memory. Every byte that *is* read passes the same CRC, length, version
//! and validity checks as before.
//!
//! ## Spill file format
//!
//! An append-only sequence of CRC frames (the shared
//! [`qdelay_journal::frame`] codec — the same framing as journal
//! segments and the binary wire protocol):
//!
//! ```text
//! ┌─────────────┬───────────────┬────────────────────────────────┐
//! │ u32 len     │ u32 crc32     │ payload: one binary partition  │
//! │ (LE)        │ (len+payload) │ record (snapshot::encode_record)│
//! └─────────────┴───────────────┴────────────────────────────────┘
//! ```
//!
//! The payload is the versioned binary partition record
//! ([`crate::snapshot::encode_record`]) — the frame a snapshot file holds
//! for the partition, byte for byte: every field with every float as raw
//! bits, so a restore parses no text. It decodes to the same
//! [`PartitionSnapshot`] every snapshot reader yields, and the restore
//! path from there on is the
//! proven boot path ([`Partition::from_snapshot`] refits from state,
//! bit-identically). An in-memory index maps each hibernated key to its
//! slot — `(offset, len)`, the `seq` of the state in it and the answer
//! that state serves; `live` counts the bytes of every slot that is
//! indexed or kept by a resident partition, and `end - live` is garbage.
//!
//! ## Compaction
//!
//! The sweeper (run under the shard lock at the end of a loop wakeup)
//! rewrites the spill file once garbage exceeds half the file and the file
//! is big enough to care (64 KiB): each hibernated slot is read once,
//! CRC-checked, decoded and appended to a fresh file which replaces the
//! old one via the same tmp + fsync + rename discipline as journal
//! compaction ([`qdelay_journal::write_atomic`]). Slots kept by resident
//! partitions are not copied; those partitions are simply written again
//! when they are next evicted. A crash mid-compaction leaves the old
//! file intact.
//!
//! Spill files are scratch, not durability: they are truncated at boot
//! (state comes from the snapshot/journal) and never fsynced on append —
//! which is also why the binary record could replace the JSON payload
//! with no reader for the old one.

use crate::durability::{self, RecordSink};
use crate::registry::{Partition, PartitionKey, Prediction};
use crate::snapshot::{self, Document, PartitionSnapshot};
use crate::{
    HIBERNATE_DISK_BYTES, HIBERNATE_EVICTIONS, HIBERNATE_EVICT_NS, HIBERNATE_HIBERNATED,
    HIBERNATE_INDEX_ANSWERS, HIBERNATE_RESIDENT, HIBERNATE_RESTORES, HIBERNATE_RESTORE_NS,
    HIBERNATE_SPILL_COMPACTIONS,
};
use qdelay_journal::frame::{self, Check};
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Compaction trigger: garbage must exceed half the file...
const COMPACT_GARBAGE_NUM: u64 = 2;
/// ...and the file must be at least this big (don't churn tiny files).
const DEFAULT_COMPACT_MIN_BYTES: u64 = 64 * 1024;

/// A resident partition, its last-touch stamp, and the slot it was
/// restored from.
struct Resident {
    partition: Partition,
    /// The key into `lru` (capped stores only; an uncapped store keeps no
    /// recency order and leaves this 0).
    touch: u64,
    /// The spill slot this partition was restored from. While
    /// `partition.seq()` equals the slot's `seq` the slot's bytes *are*
    /// the partition's state and evicting it writes nothing.
    kept: Option<SpillSlot>,
}

/// Where a hibernated partition's bytes live in the spill file, and what
/// the partition was serving when it left memory.
#[derive(Clone, Copy)]
struct SpillSlot {
    offset: u64,
    /// Whole-frame length (prefix + payload).
    len: u32,
    /// History length of the answer; meaningful only beside `bounds`. Kept
    /// out of the `Option` and narrow so it packs next to `len`: the answer
    /// costs a slot 32 bytes, not 48.
    n: u32,
    /// The partition's observation cursor at eviction time, kept in
    /// memory so `stats` and replay dedup never have to read the file.
    seq: u64,
    /// Both served bounds as of `seq` (BMBP, log-normal). `None` only for a
    /// slot written from a bare snapshot entry, whose partition was never
    /// in memory to be asked.
    bounds: Option<(Option<f64>, Option<f64>)>,
}

impl SpillSlot {
    /// What a `predict` of the partition in this slot returns, if known.
    fn answer(&self) -> Option<Prediction> {
        let (bmbp, lognormal) = self.bounds?;
        Some(Prediction { n: self.n as usize, seq: self.seq, bmbp, lognormal })
    }

    /// Records `served` — the partition's own `predict()`, taken while it
    /// was in memory at this slot's `seq` — as the slot's answer.
    fn set_answer(&mut self, served: &Prediction) {
        debug_assert_eq!(served.seq, self.seq, "an answer belongs to its slot's state");
        // A history past u32 cannot have fit a spill record; if one ever
        // did, its questions restore.
        if let Ok(n) = u32::try_from(served.n) {
            self.n = n;
            self.bounds = Some((served.bmbp, served.lognormal));
        }
    }
}

/// The spill file and its byte accounting.
struct Spill {
    path: PathBuf,
    file: File,
    /// Append offset == file length.
    end: u64,
    /// Bytes of frames still referenced — by the hibernated index or kept
    /// by a resident partition; `end - live` is garbage.
    live: u64,
}

impl Spill {
    /// Appends `snap` as one framed binary record and returns its slot.
    /// Writes use explicit offsets ([`FileExt::write_all_at`]) so the
    /// handle's cursor — reset when a compaction reopens the file —
    /// never matters.
    fn append(&mut self, snap: &PartitionSnapshot) -> io::Result<SpillSlot> {
        let mut bytes = Vec::new();
        // Refused while the partition is still in memory: a slot the reader
        // would reject is lost history.
        snapshot::frame_record(snap, &mut bytes)?;
        self.file.write_all_at(&bytes, self.end)?;
        let len = bytes.len() as u64;
        let slot =
            SpillSlot { offset: self.end, len: len as u32, n: 0, seq: snap.seq, bounds: None };
        self.end += len;
        self.live += len;
        HIBERNATE_DISK_BYTES.add(len);
        Ok(slot)
    }

    /// Marks a slot's bytes as garbage for the sweeper.
    fn release(&mut self, slot: SpillSlot) {
        self.live -= u64::from(slot.len);
    }

    /// Reads one slot's frame onto the end of `out`, CRC-checks and
    /// decodes it. A torn or bit-flipped record is a typed error.
    fn read(
        &self,
        key: &PartitionKey,
        slot: SpillSlot,
        out: &mut Vec<u8>,
    ) -> io::Result<PartitionSnapshot> {
        let bad = |what: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "hibernated partition {} unreadable at {} (+{}) in {}: {what}",
                    key.label(),
                    slot.offset,
                    slot.len,
                    self.path.display(),
                ),
            )
        };
        let at = out.len();
        out.resize(at + slot.len as usize, 0);
        let buf = &mut out[at..];
        self.file
            .read_exact_at(buf, slot.offset)
            .map_err(|e| bad(&format!("read failed: {e}")))?;
        let (start, end) = match frame::check(buf, snapshot::MAX_FRAME_PAYLOAD) {
            Check::Complete { start, end, next } if next == buf.len() => (start, end),
            Check::Complete { .. } => return Err(bad("frame shorter than its slot")),
            Check::Incomplete => return Err(bad("torn frame")),
            Check::Damaged(why) => return Err(bad(why)),
        };
        snapshot::decode_record(&buf[start..end]).map_err(|e| bad(&e))
    }
}

/// Capacity-managed per-shard partition storage: resident map + LRU +
/// hibernated index + dead cursors. With `cap == None` it degenerates to
/// the plain maps the server always had: no spill file is opened and no
/// recency order is kept (nothing can ever be evicted).
pub struct PartitionStore {
    /// Keys are shared with `lru` and `hibernated`, so moving a partition
    /// between the three never clones its strings.
    resident: HashMap<Arc<PartitionKey>, Resident>,
    /// Tombstoned partitions' cursors (see [`crate::snapshot::Document`]).
    dead: HashMap<PartitionKey, u64>,
    hibernated: HashMap<Arc<PartitionKey>, SpillSlot>,
    /// Last-touch stamp → key; the first entry is the eviction victim.
    /// Empty when uncapped.
    lru: BTreeMap<u64, Arc<PartitionKey>>,
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

    /// [`PartitionStore::install_snapshots`] from materialized partitions:
    /// each is exported to its snapshot entry first.
    pub fn install_parts(
        &mut self,
        parts: Vec<(PartitionKey, Partition)>,
        dead: Vec<(PartitionKey, u64)>,
    ) -> io::Result<()> {
        self.install_snapshots(parts.iter().map(|(key, p)| p.to_snapshot(key)).collect(), dead)
    }

    /// Wholesale-replaces the store's contents from snapshot entries —
    /// the one install, behind a snapshot boot, a journal boot and a
    /// replica resync. The keys must be distinct (the snapshot reader
    /// refuses a document that names one twice). Under a cap, the entries
    /// beyond it — deterministically the largest sorted keys, so a
    /// re-install lands the same layout — land **directly in the
    /// hibernated state**: their history is never materialized, so
    /// installing a million-partition snapshot under a small cap costs a
    /// file append per cold partition, not a refit. Their slots therefore
    /// carry no answer: the first question about each restores it, and
    /// the clean eviction that follows leaves one.
    pub fn install_snapshots(
        &mut self,
        mut snaps: Vec<PartitionSnapshot>,
        dead: Vec<(PartitionKey, u64)>,
    ) -> io::Result<()> {
        self.reset(dead)?;
        snaps.sort_by(|a, b| (&a.site, &a.queue, a.range).cmp(&(&b.site, &b.queue, b.range)));
        let keep = self.cap.unwrap_or(usize::MAX);
        for (i, snap) in snaps.into_iter().enumerate() {
            let key = Arc::new(snap.key());
            if i < keep {
                let partition = Partition::from_snapshot(&snap)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                self.insert_resident(key, partition, None);
            } else {
                let spill = self.spill.as_mut().expect("capped stores have a spill file");
                let slot = spill.append(&snap)?;
                self.index(key, slot);
            }
        }
        Ok(())
    }

    /// Clears everything (updating the global gauges) and truncates the
    /// spill file; kept and indexed slots alike are gone with it.
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

    /// The materialize step every write goes through (and the read entry,
    /// [`PartitionStore::predict`], falls back on): returns the resident
    /// partition for `key`, restoring it from the spill file if it is
    /// hibernated, resurrecting it at its dead cursor if it was
    /// tombstoned, or creating it fresh. The touch stamp is bumped; call
    /// [`PartitionStore::enforce_cap`] after the op completes to evict
    /// whatever the touch displaced (never the partition an op is
    /// touching — eviction waits until the borrow ends).
    pub fn touch(&mut self, key: PartitionKey) -> io::Result<&mut Partition> {
        if self.resident.contains_key(&key) {
            let entry = self.resident.get_mut(&key).expect("just checked");
            if self.cap.is_some() {
                Self::bump(&mut self.lru, &mut self.clock, entry);
            }
            return Ok(&mut entry.partition);
        }
        let (key, partition, kept) = match self.hibernated.get(&key).copied() {
            Some(slot) => {
                let partition = self.restore(&key, slot)?;
                let (key, _) = self.hibernated.remove_entry(&key).expect("just read");
                HIBERNATE_HIBERNATED.sub(1);
                (key, partition, Some(slot))
            }
            None => {
                let partition = match self.dead.remove(&key) {
                    Some(cursor) => Partition::with_seq(cursor),
                    None => Partition::new(),
                };
                (Arc::new(key), partition, None)
            }
        };
        Ok(&mut self.insert_resident(key, partition, kept).partition)
    }

    /// The read every question (predict, admit) goes through: what
    /// [`Partition::predict`] would say for `key`, from wherever that is
    /// cheapest to learn. A resident partition is asked (and its touch
    /// stamp bumped, one key hash in all); a hibernated one whose slot
    /// carries its answer is answered from the index, touching neither the
    /// file, the recency order nor the resident set; a key the store has
    /// never seen, or has tombstoned, gets the fresh partition's constant
    /// answer **without being created** — a question never changes what the
    /// store holds. Only a hibernated partition with no answer on its slot
    /// (snapshot-booted, never yet asked) is restored, as a touch would;
    /// call [`PartitionStore::enforce_cap`] afterwards as after a touch.
    pub fn predict(&mut self, key: PartitionKey) -> io::Result<Prediction> {
        if let Some(entry) = self.resident.get_mut(&key) {
            if self.cap.is_some() {
                Self::bump(&mut self.lru, &mut self.clock, entry);
            }
            return Ok(entry.partition.predict());
        }
        match self.hibernated.get(&key).map(SpillSlot::answer) {
            Some(Some(answer)) => {
                HIBERNATE_INDEX_ANSWERS.incr();
                Ok(answer)
            }
            Some(None) => Ok(self.touch(key)?.predict()),
            None => Ok(Prediction::unobserved(self.dead.get(&key).copied().unwrap_or(0))),
        }
    }

    /// Moves a resident entry of a capped store to the most-recent end of
    /// the recency order; the key the order holds is shared, so nothing is
    /// cloned.
    fn bump(lru: &mut BTreeMap<u64, Arc<PartitionKey>>, clock: &mut u64, entry: &mut Resident) {
        let shared = lru.remove(&entry.touch).expect("capped residents are in lru");
        *clock += 1;
        entry.touch = *clock;
        lru.insert(entry.touch, shared);
    }

    /// Inserts a resident partition with a fresh touch stamp.
    fn insert_resident(
        &mut self,
        key: Arc<PartitionKey>,
        partition: Partition,
        kept: Option<SpillSlot>,
    ) -> &mut Resident {
        let mut touch = 0;
        if self.cap.is_some() {
            self.clock += 1;
            touch = self.clock;
            self.lru.insert(touch, Arc::clone(&key));
        }
        HIBERNATE_RESIDENT.add(1);
        // The key is not resident: a touch checked, and an install's keys
        // are distinct.
        self.resident.entry(key).or_insert(Resident { partition, touch, kept })
    }

    /// Reads `key`'s spill slot back into a partition. The slot stays
    /// where it is — the caller keeps it with the resident partition. A
    /// torn or bit-flipped record is a typed error — the slot stays
    /// indexed (so the failure is stable and diagnosable) and no history
    /// is ever invented.
    fn restore(&self, key: &PartitionKey, slot: SpillSlot) -> io::Result<Partition> {
        let t0 = Instant::now();
        let spill = self.spill.as_ref().expect("hibernated entries imply a spill file");
        let snap = spill.read(key, slot, &mut Vec::new())?;
        let partition = Partition::from_snapshot(&snap).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("hibernated partition {} failed to refit: {e}", key.label()),
            )
        })?;
        HIBERNATE_RESTORES.incr();
        HIBERNATE_RESTORE_NS.record(t0.elapsed().as_nanos() as u64);
        Ok(partition)
    }

    /// Indexes `key` — just evicted, or just installed — as hibernated in
    /// `slot`.
    fn index(&mut self, key: Arc<PartitionKey>, slot: SpillSlot) {
        self.hibernated.insert(key, slot);
        HIBERNATE_HIBERNATED.add(1);
    }

    /// Evicts least-recently-touched partitions until the resident set
    /// fits the cap. Call after each op's borrow of the touched
    /// partition ends — with `cap == 0` even the just-touched partition
    /// hibernates again, which is degenerate but correct.
    ///
    /// A partition whose `seq` still equals its kept slot's is clean (see
    /// the module docs): its eviction re-indexes the slot and writes
    /// nothing. Anything else is encoded and appended, and the slot it
    /// had kept becomes garbage. On a write error the partition stays
    /// resident and nothing has changed.
    pub fn enforce_cap(&mut self) -> io::Result<()> {
        let Some(cap) = self.cap else { return Ok(()) };
        while self.resident.len() > cap {
            let t0 = Instant::now();
            let (&touch, key) = self.lru.first_key_value().expect("capped residents are in lru");
            let entry = self.resident.get_mut(key).expect("lru entries are resident");
            // What the partition is serving leaves with it (refit first if
            // an observe dirtied it): the next question is answered from
            // the index instead of restoring. The refit changes no exported
            // state, so the record is the one an unasked partition writes.
            let answer = entry.partition.predict();
            let mut slot = match entry.kept {
                Some(slot) if slot.seq == answer.seq => slot,
                stale => {
                    let spill = self.spill.as_mut().expect("capped stores have a spill file");
                    let slot = spill.append(&entry.partition.to_snapshot(key))?;
                    if let Some(old) = stale {
                        spill.release(old);
                    }
                    slot
                }
            };
            slot.set_answer(&answer);
            let key = self.lru.remove(&touch).expect("just read");
            self.resident.remove(&key);
            self.index(key, slot);
            HIBERNATE_RESIDENT.sub(1);
            HIBERNATE_EVICTIONS.incr();
            HIBERNATE_EVICT_NS.record(t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// The sweeper: compacts the spill file when garbage exceeds half of
    /// it (and the file is big enough to care). Each hibernated slot is
    /// read once, CRC-verified, decoded and written to a fresh file that
    /// atomically replaces the old one (tmp + fsync + rename, the
    /// journal-compaction discipline) — a crash at any point leaves a
    /// valid file. Slots kept by resident partitions are dropped, not
    /// copied. Returns whether a compaction ran.
    pub fn sweep(&mut self) -> io::Result<bool> {
        let Some(spill) = &mut self.spill else { return Ok(false) };
        let garbage = spill.end - spill.live;
        if spill.end < self.compact_min_bytes || garbage * COMPACT_GARBAGE_NUM <= spill.end {
            return Ok(false);
        }
        // Stable iteration order keeps the rewritten file deterministic.
        let mut slots: Vec<(&Arc<PartitionKey>, &mut SpillSlot)> =
            self.hibernated.iter_mut().collect();
        slots.sort_by(|a, b| a.0.cmp(b.0));
        let mut bytes = Vec::new();
        let mut offsets = Vec::with_capacity(slots.len());
        for (key, slot) in &slots {
            // Validated while copied: compaction must not launder a
            // corrupt record into a "fresh" file.
            offsets.push(bytes.len() as u64);
            spill.read(key, **slot, &mut bytes)?;
        }
        qdelay_journal::write_atomic(&spill.path, &bytes)
            .map_err(|e| io::Error::other(e.to_string()))?;
        // The rename replaced the inode our handle points at; reopen.
        // Until this succeeds the old handle and the old index still
        // agree, so an error here leaves the store consistent.
        spill.file = OpenOptions::new().read(true).write(true).open(&spill.path)?;
        HIBERNATE_DISK_BYTES.sub(spill.end - bytes.len() as u64);
        spill.end = bytes.len() as u64;
        spill.live = spill.end;
        for ((_, slot), offset) in slots.into_iter().zip(offsets) {
            slot.offset = offset;
        }
        for entry in self.resident.values_mut() {
            entry.kept = None;
        }
        HIBERNATE_SPILL_COMPACTIONS.incr();
        Ok(true)
    }

    /// Serializes every partition — resident ones from memory,
    /// hibernated ones straight from their spill slots (decoded, never
    /// materialized into a `Partition`) — plus the dead-cursor list.
    /// This is the shard's `Collect` answer, so snapshots of a capped
    /// server cost a decode per cold partition, not a refit.
    pub fn collect(&self) -> io::Result<Document> {
        let mut parts = Vec::with_capacity(self.resident.len() + self.hibernated.len());
        for (key, entry) in &self.resident {
            parts.push(entry.partition.to_snapshot(key));
        }
        if !self.hibernated.is_empty() {
            let spill = self.spill.as_ref().expect("hibernated entries imply a spill file");
            let mut buf = Vec::new();
            for (key, slot) in &self.hibernated {
                buf.clear();
                parts.push(spill.read(key, *slot, &mut buf)?);
            }
        }
        let dead = self.dead.iter().map(|(key, &seq)| (key.clone(), seq)).collect();
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

    /// Waits held in memory across resident partitions (the sum of their
    /// log lengths) — what the store's resident set grows with.
    pub fn resident_waits(&self) -> u64 {
        self.resident.values().map(|e| e.partition.stored_waits() as u64).sum()
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
        // Whatever slot the partition had — kept while resident, or
        // indexed while hibernated — becomes garbage for the sweeper.
        let kept = self.resident.remove(&key).and_then(|entry| {
            self.lru.remove(&entry.touch);
            HIBERNATE_RESIDENT.sub(1);
            entry.kept
        });
        let indexed = self.hibernated.remove(&key);
        if indexed.is_some() {
            HIBERNATE_HIBERNATED.sub(1);
        }
        if let Some(spill) = &mut self.spill {
            kept.into_iter().chain(indexed).for_each(|slot| spill.release(slot));
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
pub(crate) mod tests {
    use super::*;
    use qdelay_predict::admission;
    use qdelay_rng::{Rng, StdRng};
    use std::path::Path;

    /// `HIBERNATE_RESTORES` is process-wide and the harness runs tests on
    /// parallel threads; tests here and in `durability` assert the counter
    /// stands still or moves by an exact count, so every test in the crate
    /// that can restore runs under this lock.
    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
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

    /// The books every operation must leave balanced: `live` is the summed
    /// length of every slot the index or a resident partition refers to,
    /// `end` is the file's length, and the recency order lists exactly the
    /// resident partitions.
    fn assert_accounting(store: &PartitionStore, path: &Path, when: &str) {
        let spill = store.spill.as_ref().unwrap();
        let kept = store.resident.values().filter_map(|r| r.kept.as_ref());
        let referenced: u64 = store.hibernated.values().chain(kept).map(|s| u64::from(s.len)).sum();
        assert_eq!(spill.live, referenced, "{when}: live bytes");
        assert_eq!(spill.end, std::fs::metadata(path).unwrap().len(), "{when}: file length");
        assert_eq!(store.lru.len(), store.resident.len(), "{when}: recency order");
        assert!(store.resident.len() <= store.cap.unwrap(), "{when}: cap");
    }

    fn document(store: &PartitionStore) -> String {
        let (parts, dead) = store.collect().unwrap();
        snapshot::encode(parts, dead).to_string_pretty()
    }

    fn prediction_bits(p: &Prediction) -> (usize, u64, Option<u64>, Option<u64>) {
        (p.n, p.seq, p.bmbp.map(f64::to_bits), p.lognormal.map(f64::to_bits))
    }

    /// Asks about `k` as a shard does — the read entry, then the cap — and
    /// says whether the question had to restore the partition.
    fn ask(store: &mut PartitionStore, k: &PartitionKey) -> (Prediction, bool) {
        let cold = store.hibernated.contains_key(k);
        let answer = store.predict(k.clone()).unwrap();
        let restored = cold && store.resident.contains_key(k);
        store.enforce_cap().unwrap();
        (answer, restored)
    }

    /// What a question may not move: which partitions exist and where, and
    /// the spill file's length.
    fn holdings(store: &PartitionStore) -> (usize, usize, usize, u64) {
        (store.resident_count(), store.hibernated_count(), store.dead.len(), store.spill_disk_bytes())
    }

    /// A seeded schedule of everything a shard does to its store —
    /// observe (with outcome feedback, so detectors run and trims fire),
    /// predict and admit through the read entry (of live, tombstoned and
    /// never-seen keys), replicated record batches, tombstones, collects
    /// and the between-batch sweep — against an uncapped twin fed the
    /// same operations. The cap must be invisible at every step and the
    /// spill file's books must balance after every step. Every partition
    /// here leaves memory through an eviction, so every slot carries its
    /// answer: no question may restore, move or create anything.
    #[test]
    fn seeded_schedules_match_an_uncapped_twin_and_keep_the_books() {
        let _serial = serial();
        for (cap, parts, seed) in [(0usize, 6usize, 1u64), (1, 8, 2), (2, 12, 3), (75, 110, 4)] {
            let path = fresh_path(&format!("schedule-{cap}.qds"));
            let mut capped = PartitionStore::new(Some(cap), Some(path.clone())).unwrap();
            capped.set_compact_min_bytes(1);
            let mut twin = PartitionStore::new(None, None).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            // What each partition was last served, fed back with its next
            // observation as a scheduler would.
            let mut served: Vec<Option<Prediction>> = vec![None; parts];
            let mut compactions = 0;
            // Warm through `apply`, as a replica installs history.
            for i in 0..parts {
                let k = key(i);
                let warm: Vec<_> = (1..=70)
                    .map(|seq| durability::record_for(k.clone(), seq, wait(seq + i as u64), None, None))
                    .collect();
                assert_eq!(capped.apply(warm.clone()), Ok(70));
                assert_eq!(twin.apply(warm), Ok(70));
                capped.enforce_cap().unwrap();
            }
            for step in 0..1500 {
                let i = rng.gen_range(0..parts);
                let k = key(i);
                let when = format!("cap {cap} step {step}");
                match rng.gen_range(0..100) {
                    0..=34 => {
                        // A regime shift now and then, so bounds are missed.
                        let w = wait(step) * if rng.gen_bool(0.1) { 400.0 } else { 1.0 };
                        let (b, l) = served[i].map_or((None, None), |p| (p.bmbp, p.lognormal));
                        let got = capped.touch(k.clone()).unwrap().observe(w, b, l);
                        let want = twin.touch(k).unwrap().observe(w, b, l);
                        assert_eq!(got, want, "{when}: observe seq");
                    }
                    35..=69 => {
                        let before = holdings(&capped);
                        let (got, restored) = ask(&mut capped, &k);
                        let want = twin.predict(k).unwrap();
                        assert_eq!(prediction_bits(&got), prediction_bits(&want), "{when}");
                        assert!(!restored, "{when}: the slot had its answer");
                        assert_eq!(holdings(&capped), before, "{when}: a question moves nothing");
                        served[i] = Some(want);
                    }
                    70..=79 => {
                        let budget = wait(step);
                        let decide = |p: Prediction| {
                            admission::decide(p.bmbp, p.lognormal, p.n as u64, budget)
                        };
                        let before = holdings(&capped);
                        let got = decide(capped.predict(k.clone()).unwrap());
                        let want = decide(twin.predict(k).unwrap());
                        assert_eq!(got, want, "{when}: admit");
                        assert_eq!(holdings(&capped), before, "{when}: a question moves nothing");
                    }
                    80..=84 => {
                        let seq = twin.cursor(&k) + 1;
                        let label = k.range.label();
                        let tomb = qdelay_journal::Record::tombstone(&k.site, &k.queue, label, seq);
                        assert_eq!(capped.apply([tomb.clone()]), Ok(1), "{when}");
                        assert_eq!(twin.apply([tomb]), Ok(1));
                        served[i] = None;
                    }
                    85..=91 => {
                        // A replicated batch across a few partitions, the
                        // first record a duplicate the cursor must skip.
                        let mut batch = Vec::new();
                        for j in 0..3 {
                            let k = key((i + j) % parts);
                            let cursor = twin.cursor(&k);
                            for seq in cursor.max(1)..cursor + 3 {
                                batch.push(durability::record_for(k.clone(), seq, wait(seq), None, None));
                            }
                        }
                        assert_eq!(capped.apply(batch.clone()), twin.apply(batch), "{when}");
                    }
                    92..=95 => assert_eq!(document(&capped), document(&twin), "{when}: collect"),
                    _ => {
                        // A key nobody ever observed: answered, not created
                        // (the count checks below hold the twin to it too).
                        let before = holdings(&capped);
                        let (got, _) = ask(&mut capped, &key(parts + i));
                        assert_eq!(got, Prediction::unobserved(0), "{when}");
                        assert_eq!(twin.predict(key(parts + i)).unwrap(), got, "{when}");
                        assert_eq!(holdings(&capped), before, "{when}: asking creates nothing");
                    }
                }
                capped.enforce_cap().unwrap();
                // The server sweeps at the end of each wakeup.
                compactions += usize::from(capped.sweep().unwrap());
                assert_accounting(&capped, &path, &when);
                assert_eq!(capped.total_observations(), twin.total_observations(), "{when}");
                assert_eq!(capped.partition_count(), twin.partition_count(), "{when}");
                assert_eq!(capped.dead.len(), twin.dead.len(), "{when}: a dead key stays dead");
            }
            assert!(compactions > 0, "cap {cap}: the lowered floor must have tripped the sweeper");
            assert_eq!(document(&capped), document(&twin), "cap {cap}: final collect");
        }
    }

    /// The slot-keeping restore on its own: a partition that is touched but
    /// not observed (an answerless slot's first question, a probe) goes
    /// back to the slot it came from.
    #[test]
    fn restores_that_observe_nothing_write_nothing_and_strand_nothing() {
        let _serial = serial();
        let path = fresh_path("touch-only.qds");
        let mut store = PartitionStore::new(Some(4), Some(path.clone())).unwrap();
        store.set_compact_min_bytes(1);
        grown(&mut store, 40, 70);
        // One pass of touches: whatever was resident and dirty gets its
        // slot; from here on every partition has one that is current.
        let mut first = Vec::new();
        for i in 0..40 {
            first.push(prediction_bits(&store.touch(key(i)).unwrap().predict()));
            store.enforce_cap().unwrap();
        }
        store.sweep().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let compactions = HIBERNATE_SPILL_COMPACTIONS.value();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..400 {
            let i = rng.gen_range(0..40);
            let hibernated = store.hibernated.contains_key(&key(i));
            let got = prediction_bits(&store.touch(key(i)).unwrap().predict());
            assert_eq!(got, first[i], "a cold answer is the warm answer");
            if hibernated {
                let entry = &store.resident[&key(i)];
                assert_eq!(entry.kept.map(|s| s.seq), Some(entry.partition.seq()), "slot kept");
            }
            store.enforce_cap().unwrap();
            assert!(!store.sweep().unwrap(), "no garbage, so nothing to compact");
            assert_accounting(&store, &path, "touch-only");
        }
        assert_eq!(store.spill_disk_bytes(), bytes.len() as u64, "the file did not grow");
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "not one byte was written");
        assert_eq!(HIBERNATE_SPILL_COMPACTIONS.value(), compactions);
        assert_eq!(store.hibernated_count(), 36);
    }

    #[test]
    fn questions_are_answered_from_the_index_and_move_nothing() {
        let _serial = serial();
        let path = fresh_path("questions.qds");
        let mut store = PartitionStore::new(Some(4), Some(path.clone())).unwrap();
        store.set_compact_min_bytes(1);
        let mut twin = PartitionStore::new(None, None).unwrap();
        for s in [&mut store, &mut twin] {
            grown(s, 40, 70);
        }
        // Every hibernated partition left through an eviction, dirty: each
        // slot has the answer the refit gave it, though nobody ever asked.
        let bytes = std::fs::read(&path).unwrap();
        let before = holdings(&store);
        assert_eq!(before, (4, 36, 0, bytes.len() as u64));
        let (restores, answers) = (HIBERNATE_RESTORES.value(), HIBERNATE_INDEX_ANSWERS.value());
        let mut rng = StdRng::seed_from_u64(9);
        let mut cold_asks = 0;
        for _ in 0..400 {
            let k = key(rng.gen_range(0..40));
            cold_asks += u64::from(store.hibernated.contains_key(&k));
            let (got, restored) = ask(&mut store, &k);
            let want = twin.predict(k).unwrap();
            assert_eq!(prediction_bits(&got), prediction_bits(&want), "a cold answer is the warm answer");
            assert!(!restored);
            assert!(!store.sweep().unwrap(), "no garbage, so nothing to compact");
            assert_accounting(&store, &path, "questions only");
        }
        assert!(cold_asks > 300, "the phase must have asked cold partitions");
        assert_eq!(holdings(&store), before, "nothing restored, evicted, created or written");
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "not one byte was written");
        assert_eq!(HIBERNATE_RESTORES.value(), restores);
        assert_eq!(HIBERNATE_INDEX_ANSWERS.value(), answers + cold_asks);

        // Two rounds of cold writes strand more than half the file; the
        // sweep moves every slot, and each answer moves with its slot.
        for round in 0..2 {
            for i in 0..40 {
                for s in [&mut store, &mut twin] {
                    s.touch(key(i)).unwrap().observe(wait(7_000 + round * 40 + i as u64), None, None);
                    s.enforce_cap().unwrap();
                }
            }
        }
        assert!(store.sweep().unwrap(), "garbage ratio must have tripped");
        for i in 0..40 {
            let (got, restored) = ask(&mut store, &key(i));
            assert_eq!(prediction_bits(&got), prediction_bits(&twin.predict(key(i)).unwrap()));
            assert_eq!(got.seq, 72);
            assert!(!restored, "key {i}: the answer survived the sweep");
        }
    }

    /// The budget DESIGN §17 states: an answer adds 32 bytes to the 24 a
    /// hibernated partition's slot already took.
    #[test]
    fn an_answer_costs_a_slot_32_bytes() {
        assert_eq!(std::mem::size_of::<SpillSlot>(), 24 + 32);
    }

    #[test]
    fn a_dirtied_partition_is_rewritten_never_served_from_its_stale_slot() {
        let _serial = serial();
        let path = fresh_path("stale.qds");
        let mut store = PartitionStore::new(Some(0), Some(path.clone())).unwrap();
        let mut twin = PartitionStore::new(None, None).unwrap();
        for s in [&mut store, &mut twin] {
            grown(s, 1, 70);
        }
        let stale = store.hibernated[&key(0)];
        assert_eq!(stale.seq, 70);
        // Restore (the slot is kept), observe (it goes stale), evict.
        for s in [&mut store, &mut twin] {
            assert_eq!(s.touch(key(0)).unwrap().observe(123_456.0, None, None), 71);
            s.enforce_cap().unwrap();
        }
        let fresh = store.hibernated[&key(0)];
        assert_eq!(fresh.seq, 71);
        assert_eq!(fresh.offset, stale.offset + u64::from(stale.len), "appended, not overwritten");
        assert_eq!(store.spill.as_ref().unwrap().live, u64::from(fresh.len), "old slot is garbage");
        assert_accounting(&store, &path, "after the dirty eviction");
        // The next restore reads the new slot.
        let got = store.touch(key(0)).unwrap().predict();
        let want = twin.touch(key(0)).unwrap().predict();
        assert_eq!(prediction_bits(&got), prediction_bits(&want));
        assert_eq!(got.seq, 71);
        // And that one was a question: evicting it again writes nothing.
        let end = store.spill_disk_bytes();
        store.enforce_cap().unwrap();
        assert_eq!(store.spill_disk_bytes(), end);
        assert_eq!(store.hibernated[&key(0)].offset, fresh.offset);
    }

    #[test]
    fn uncapped_stores_keep_no_recency_order() {
        let mut store = PartitionStore::new(None, None).unwrap();
        grown(&mut store, 5, 3);
        store.touch(key(2)).unwrap();
        assert!(store.lru.is_empty(), "nothing can be evicted, so nothing is ordered");
        assert_eq!(store.clock, 0);
        assert_eq!(store.resident_count(), 5);
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
        let healthy = store.predict(key(0)).unwrap();

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
        // A question reads no bytes: it is served what was computed while
        // the state was in memory. Whatever reads the slot fails as above.
        assert_eq!(store.predict(key(0)).unwrap(), healthy);
        assert_eq!(store.collect().unwrap_err().kind(), io::ErrorKind::InvalidData);

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

        // A slot written from a bare snapshot entry has no answer — its
        // partition was never in memory. The first question restores it
        // (and the eviction that follows, clean or not, leaves the answer);
        // no later question restores anything, until an observe moves the
        // partition on — and then the eviction's answer is the new one.
        let cold: Vec<_> = store.hibernated.keys().map(|k| PartitionKey::clone(k)).collect();
        assert!(store.hibernated.values().all(|slot| slot.answer().is_none()));
        let end = store.spill_disk_bytes();
        for k in &cold {
            let (got, restored) = ask(&mut store, k);
            assert!(restored, "{}: nothing to answer from yet", k.label());
            assert_eq!(prediction_bits(&got), prediction_bits(&grower.predict(k.clone()).unwrap()));
        }
        assert_eq!(crate::HIBERNATE_RESTORES.value(), restores_before + 4);
        // The four restored partitions went back to the slots they came
        // from; only the two boot residents they displaced were written.
        let written = store.spill_disk_bytes();
        assert!(written > end);
        for round in 0..3 {
            for i in 0..6 {
                let (got, restored) = ask(&mut store, &key(i));
                assert!(!restored, "round {round} key {i}: asked before, answered from the index");
                assert_eq!(prediction_bits(&got), prediction_bits(&grower.predict(key(i)).unwrap()));
            }
        }
        assert_eq!(store.spill_disk_bytes(), written, "questions write nothing");
        let k = cold[0].clone();
        for s in [&mut store, &mut grower] {
            assert_eq!(s.touch(k.clone()).unwrap().observe(31_337.0, None, None), 81);
            s.enforce_cap().unwrap();
        }
        for other in &cold[1..3] {
            store.touch(other.clone()).unwrap();
            store.enforce_cap().unwrap();
        }
        assert!(store.hibernated.contains_key(&k), "cap 2: two touches pushed it out");
        let (got, restored) = ask(&mut store, &k);
        assert!(!restored);
        assert_eq!(prediction_bits(&got), prediction_bits(&grower.predict(k).unwrap()));
        assert_eq!(got.seq, 81);
    }
}
