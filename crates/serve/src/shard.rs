//! The shard boundary: [`Shard`], the ops it executes, and every path by
//! which state crosses into or out of the shards, each written once.
//!
//! A shard owns a disjoint set of partitions (by key hash,
//! [`PartitionKey::shard_index`]), their journal stream and the group-commit
//! watermarks, behind a `Mutex`; whoever holds it — an I/O loop executing a
//! request, the replica apply thread, the compactor, boot, teardown — is
//! the shard's only writer for that long. State crosses four ways:
//!
//! * **In, install** ([`install`]): a snapshot document dealt by key and
//!   installed wholesale — boot and a replica's resync.
//! * **In, replay** ([`replay`]): journal records dealt by key and applied
//!   in [`APPLY_BATCH`] chunks, the resident cap enforced after each — boot
//!   recovery and the replica's stream. Boot runs both before any journal
//!   writer exists, so it goes through exactly what a replica does.
//! * **Out, collect** ([`collect`]): each shard settled (everything staged
//!   committed) and collected under one lock hold, one at a time. Bound for
//!   the journal directory, a collect refuses a **fenced** shard: its
//!   memory may hold an observe whose ack became an `io` error.
//! * **Out, persist** ([`persist`]): the one writer. It renders a collect
//!   once and replaces the journal directory's snapshot and/or writes a
//!   snapshot file — for boot consolidation, the compactor, graceful
//!   shutdown and a `snapshot` request to a file.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::dispatch::Failure;
use crate::durability;
use crate::hibernate::PartitionStore;
use crate::protocol;
use crate::registry::{PartitionKey, Prediction};
use crate::snapshot::{self, Document};
use crate::{ADMIT_ADMITTED, ADMIT_DEFERRED, ADMIT_MARGIN, ADMIT_REJECTED, OBSERVE_NS, PREDICT_NS};
use qdelay_journal::{JournalWriter, Record};
use qdelay_json::Json;
use qdelay_predict::admission::{self, Decision};
use qdelay_repl::{Cursor, ReplHub, TailEvent};

/// How many records a store applies before the cap is enforced again — at
/// boot and on a replica alike.
pub(crate) const APPLY_BATCH: usize = 256;

pub(crate) enum Op {
    Observe {
        wait: f64,
        predicted_bmbp: Option<f64>,
        predicted_lognormal: Option<f64>,
    },
    Predict,
    /// Admission check: predict (with the same lazy refit), then compare
    /// the bound against `budget`. The request-side `confidence` field is
    /// validated at the wire and not carried here — it cannot change the
    /// decision, so keeping it out of the Op keeps replay state minimal.
    Admit { budget: f64 },
}

/// What an [`Op`] computed, still typed: the codec is chosen where the
/// reply is rendered ([`crate::dispatch`]).
pub(crate) enum Done {
    /// The sequence number the observation became.
    Observed(u64),
    Predicted(Prediction),
    Admitted(Prediction, Decision),
}

impl Done {
    /// The wire method this answers, for the request's trace.
    pub(crate) fn method(&self) -> &'static str {
        match self {
            Done::Observed(_) => "observe",
            Done::Predicted(_) => "predict",
            Done::Admitted(..) => "admit",
        }
    }
}

/// One shard: a disjoint set of partitions, their journal stream, and the
/// group-commit watermarks.
pub(crate) struct Shard {
    index: usize,
    pub(crate) store: PartitionStore,
    /// Attached after boot, at the recovered epoch; taken at teardown.
    pub(crate) journal: Option<JournalWriter>,
    /// Set after a failed group commit: the in-memory state may be ahead
    /// of the journal, so further observes are rejected (predicts keep
    /// serving) and nothing persists this shard into the journal directory
    /// until the operator restarts the server.
    fenced: bool,
    hub: Option<Arc<ReplHub>>,
    /// Staged-but-uncommitted tail events for the replication hub;
    /// published as one batch after the group commit succeeds, so replicas
    /// only ever see durable records.
    pending_publish: Vec<TailEvent>,
    /// Records ever staged on the journal. A reply computed now reflects
    /// exactly these, which makes the count the reply's commit mark.
    appended: u64,
    /// How many of them a successful commit covers. Stops moving at a
    /// fence, so marks past it stay undurable for good.
    durable: u64,
}

impl Shard {
    /// A shard with no journal writer yet.
    pub(crate) fn new(index: usize, store: PartitionStore, hub: Option<Arc<ReplHub>>) -> Shard {
        Shard {
            index,
            store,
            journal: None,
            fenced: false,
            hub,
            pending_publish: Vec::new(),
            appended: 0,
            durable: 0,
        }
    }

    /// The commit mark of a reply computed under this lock hold.
    pub(crate) fn appended(&self) -> u64 {
        self.appended
    }

    /// Executes one data-plane op. Returns the typed result and the
    /// nanoseconds of the handle stage: this call, start to finish — the
    /// store's lookup or restore, the predictor call, an observe's journal
    /// staging, and the eviction the touch displaced. On a journaling shard
    /// an observe is staged on the writer, not committed: its ack must wait
    /// for a [`Shard::settle`] that reaches the mark [`Shard::appended`]
    /// now reports.
    pub(crate) fn execute(&mut self, key: PartitionKey, op: Op) -> Result<(Done, u64), Failure> {
        let io_failure = |e: io::Error| (protocol::ERR_IO, e.to_string());
        let t = Instant::now();
        let done = match op {
            Op::Observe { wait, predicted_bmbp, predicted_lognormal } => {
                if self.fenced {
                    return Err((protocol::ERR_IO, "journal unavailable; observe rejected".into()));
                }
                // The touch consumes the key; the journal record is built
                // from this copy by move.
                let journal_key = self.journal.is_some().then(|| key.clone());
                let partition = self.store.touch(key).map_err(io_failure)?;
                let seq = partition.observe(wait, predicted_bmbp, predicted_lognormal);
                if let (Some(writer), Some(jkey)) = (&mut self.journal, journal_key) {
                    let record = durability::record_for(
                        jkey,
                        seq,
                        wait,
                        predicted_bmbp,
                        predicted_lognormal,
                    );
                    let end = writer.append(&record);
                    self.appended += 1;
                    if self.hub.is_some() {
                        // Cursor: just past this record's frame in the
                        // writer's current segment (rotation happens at
                        // commit, after the batch).
                        let id = writer.current_id();
                        self.pending_publish.push(TailEvent {
                            cursor: Cursor {
                                epoch: id.epoch,
                                shard: id.shard,
                                counter: id.counter,
                                offset: end,
                            },
                            record,
                        });
                    }
                }
                Done::Observed(seq)
            }
            // A question goes through the store's read entry: it restores
            // only what the index cannot answer and never creates the
            // partition it asks about.
            Op::Predict => Done::Predicted(self.store.predict(key).map_err(io_failure)?),
            Op::Admit { budget } => {
                let p = self.store.predict(key).map_err(io_failure)?;
                let decision = admission::decide(p.bmbp, p.lognormal, p.n as u64, budget);
                match &decision {
                    Decision::Admit { margin, .. } => {
                        ADMIT_ADMITTED.incr();
                        ADMIT_MARGIN.record(*margin as u64);
                    }
                    Decision::Reject { margin, .. } => {
                        ADMIT_REJECTED.incr();
                        ADMIT_MARGIN.record(*margin as u64);
                    }
                    Decision::Defer { .. } => ADMIT_DEFERRED.incr(),
                }
                Done::Admitted(p, decision)
            }
        };
        // Evict whatever this touch displaced — after the borrow on the
        // touched partition ends, so even cap = 0 never evicts the
        // partition an op is using.
        self.enforce_cap();
        let handle_ns = t.elapsed().as_nanos() as u64;
        match done {
            Done::Observed(_) => OBSERVE_NS.record(handle_ns),
            Done::Predicted(_) | Done::Admitted(..) => PREDICT_NS.record(handle_ns),
        }
        Ok((done, handle_ns))
    }

    fn enforce_cap(&mut self) {
        if let Err(e) = self.store.enforce_cap() {
            eprintln!(
                "qdelay-serve: shard {} eviction failed (partition stays resident): {e}",
                self.index
            );
        }
    }

    /// The group commit. If fewer than `need` staged records are durable,
    /// one write (and at most one fsync) covers everything staged so far —
    /// by any loop — and the batch is published to the replication hub; a
    /// failed commit fences the shard instead. Returns the durable
    /// watermark: an ack is good iff its mark is at or under it, and once
    /// this has run with a reply's mark as `need`, that reply reflects
    /// only journaled state or the shard is fenced. The caller holds the
    /// shard lock through the fsync, so commits and publishes are totally
    /// ordered per shard. Also runs the spill-file sweeper, which is a
    /// no-op until the garbage ratio trips its threshold.
    pub(crate) fn settle(&mut self, need: u64) -> u64 {
        if self.durable < need {
            if let Some(writer) = &mut self.journal {
                match writer.commit() {
                    Ok(()) => {
                        self.durable = self.appended;
                        if let Some(hub) = &self.hub {
                            if !self.pending_publish.is_empty() {
                                hub.publish(Arc::new(std::mem::take(&mut self.pending_publish)));
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!(
                            "qdelay-serve: shard {} journal commit failed; fencing observes: {e}",
                            self.index
                        );
                        // Some prefix of the staged bytes may be on disk
                        // (a torn tail for recovery); drop the writer
                        // rather than risk re-appending over a partial
                        // write. Uncommitted records must never reach a
                        // replica: their acks become errors.
                        self.fenced = true;
                        self.journal = None;
                        self.pending_publish.clear();
                    }
                }
            }
        }
        self.sweep();
        self.durable
    }

    /// Settles everything staged so far, for a reader that reports this
    /// shard's state outside the group-commit staging: the report never
    /// holds what the journal does not.
    fn settle_staged(&mut self) {
        let need = self.appended;
        self.settle(need);
    }

    fn sweep(&mut self) {
        if let Err(e) = self.store.sweep() {
            eprintln!("qdelay-serve: shard {} spill compaction failed: {e}", self.index);
        }
    }
}

/// Locks one shard.
pub(crate) fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().expect("a thread panicked holding this shard")
}

/// In, install: deals a snapshot document to the shards that own its keys
/// and installs each share wholesale ([`PartitionStore::install_snapshots`])
/// — every shard is replaced, so stale state is cleared even where the
/// document has nothing for it. Under a resident cap the install spills the
/// entries past the cap, which can fail.
pub(crate) fn install(shards: &[Mutex<Shard>], (parts, dead): Document) -> io::Result<()> {
    let mut shares: Vec<Document> = shards.iter().map(|_| (Vec::new(), Vec::new())).collect();
    for snap in parts {
        shares[snap.key().shard_index(shards.len())].0.push(snap);
    }
    for (key, seq) in dead {
        shares[key.shard_index(shards.len())].1.push((key, seq));
    }
    for (shard, (parts, dead)) in shards.iter().zip(shares) {
        lock(shard).store.install_snapshots(parts, dead)?;
    }
    Ok(())
}

/// In, replay: deals records to the shards that own their keys — a stable
/// split, so each key keeps its order — and applies each share through its
/// store ([`PartitionStore::apply`], the one cursor discipline) in
/// [`APPLY_BATCH`] chunks, enforcing the cap after each and sweeping the
/// spill file after the share. Returns how many records applied; the first
/// failure (an unknown range, a gap, an unreadable spill slot) stops it.
pub(crate) fn replay(
    shards: &[Mutex<Shard>],
    records: impl IntoIterator<Item = Record>,
) -> Result<u64, String> {
    let mut shares: Vec<Vec<Record>> = shards.iter().map(|_| Vec::new()).collect();
    for r in records {
        shares[durability::record_key(&r)?.shard_index(shards.len())].push(r);
    }
    let mut applied = 0;
    for (shard, share) in shards.iter().zip(shares) {
        if share.is_empty() {
            continue;
        }
        let mut shard = lock(shard);
        let mut share = share.into_iter().peekable();
        while share.peek().is_some() {
            applied += shard.store.apply(share.by_ref().take(APPLY_BATCH))?;
            shard.enforce_cap();
        }
        shard.sweep();
    }
    Ok(applied)
}

/// Out, collect: every shard's partitions and dead cursors, one shard lock
/// at a time (so each partition is internally consistent; the document is
/// not one cut across shards, and never was), each settled first. With
/// `journaled` — the collect is bound for the journal directory — a fenced
/// shard fails it, named. A capped shard answers by decoding its spill
/// file, and a spill read can fail; any shard's failure fails the collect
/// (a snapshot missing partitions would silently lose state). Also returns
/// the longest shard-lock hold.
fn collect(
    shards: &[Mutex<Shard>],
    journaled: bool,
) -> io::Result<(Document, Duration)> {
    let (mut parts, mut dead) = (Vec::new(), Vec::new());
    let mut longest_hold = Duration::ZERO;
    for shard in shards {
        let mut shard = lock(shard);
        let held = Instant::now();
        shard.settle_staged();
        if journaled && shard.fenced {
            return Err(io::Error::other(format!(
                "shard {} is fenced; its memory may hold an observe the journal lacks",
                shard.index
            )));
        }
        let (p, d) = shard.store.collect()?;
        drop(shard);
        longest_hold = longest_hold.max(held.elapsed());
        parts.extend(p);
        dead.extend(d);
    }
    Ok(((parts, dead), longest_hold))
}

/// Out, persist: the one writer. Collects the shards (refusing a fenced
/// one when `journal` is set), renders the collect once, and writes it as
/// the journal directory's snapshot — replacing it, then deleting
/// `segments` ([`durability::replace_with_snapshot`]) — and/or to `file`.
/// Returns the partition count and the collect's longest shard-lock hold.
pub(crate) fn persist(
    shards: &[Mutex<Shard>],
    journal: Option<(&Path, &[PathBuf])>,
    file: Option<&Path>,
) -> io::Result<(usize, Duration)> {
    let ((parts, dead), longest_hold) = collect(shards, journal.is_some())?;
    let partitions = parts.len();
    let rendered = snapshot::render(parts, dead)?;
    if let Some((dir, segments)) = journal {
        durability::replace_with_snapshot(dir, &rendered, segments)?;
    }
    if let Some(path) = file {
        snapshot::write(path, &rendered)?;
    }
    Ok((partitions, longest_hold))
}

/// Builds the `stats` reply fields (minus the time-varying telemetry and
/// uptime sections) from every shard's registry totals, read one shard
/// lock at a time, each settled first: the sums, then each shard's own.
/// `resident` is `partitions - hibernated`; `resident_waits` sums the
/// resident partitions' arrival logs; spill bytes count a spill file's live
/// frames plus garbage.
pub(crate) fn stats_payload(shards: &[Mutex<Shard>]) -> Vec<(String, Json)> {
    const TOTALS: [&str; 6] = [
        "partitions",
        "observations",
        "resident",
        "resident_waits",
        "hibernated",
        "spill_disk_bytes",
    ];
    const PER_SHARD: [&str; 6] =
        ["partitions", "observations", "resident", "resident_waits", "hibernated", "spill_bytes"];
    let counts: Vec<[u64; 6]> = shards
        .iter()
        .map(|shard| {
            let mut shard = lock(shard);
            shard.settle_staged();
            let store = &shard.store;
            [
                store.partition_count() as u64,
                store.total_observations(),
                store.resident_count() as u64,
                store.resident_waits(),
                store.hibernated_count() as u64,
                store.spill_disk_bytes(),
            ]
        })
        .collect();
    let num = |n: u64| Json::Num(n as f64);
    let mut fields = vec![("version".into(), Json::Str(env!("CARGO_PKG_VERSION").to_string()))];
    for (i, name) in TOTALS.iter().enumerate() {
        fields.push((name.to_string(), num(counts.iter().map(|c| c[i]).sum())));
    }
    fields.push(("shards".into(), num(shards.len() as u64)));
    let per_shard = counts.iter().enumerate().map(|(index, c)| {
        let mut shard = vec![("shard".to_string(), num(index as u64))];
        shard.extend(PER_SHARD.iter().zip(c).map(|(name, &n)| (name.to_string(), num(n))));
        Json::Obj(shard)
    });
    fields.push(("per_shard".into(), Json::Arr(per_shard.collect())));
    fields
}
