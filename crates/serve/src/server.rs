//! The server: boot, the shards, teardown.
//!
//! Thread architecture (all `std`, no external runtime; Linux only — the
//! transport is epoll, and [`Server::start`] returns `Unsupported` where
//! there is no epoll):
//!
//! ```text
//!  both listeners ──► loop 0 ──deals sockets round-robin──► loop 1..N-1
//!  (JSON lines,
//!   binary frames)    every loop: read, frame, decode, lock the owning
//!                     shard, execute, render, group-commit, write
//!                              │
//!                              ▼
//!                     shard 0..N-1: Mutex<Shard>
//! ```
//!
//! * **Transport** — [`crate::event_loop`]: `shards` I/O threads, each
//!   with its own epoll set and connection table. A request is decoded,
//!   executed, rendered and written by the loop that read it
//!   ([`crate::dispatch`]); nothing is handed to another thread.
//! * **Sharding** — a shard is a lock, not a thread: each [`Shard`] owns a
//!   disjoint set of partitions (assigned by key hash,
//!   [`crate::registry::PartitionKey::shard_index`]) behind a mutex that a
//!   loop holds for the 30 ns – 8 µs one operation takes. `--shards` is
//!   the one knob and sets both the shard and the loop count.
//! * **Batching** — a wakeup executes every request its readable
//!   connections carried; on a journaling server the wakeup ends with one
//!   group commit per touched shard. Combined with the partitions' lazy
//!   refits, a burst of observes costs one refit at the next predict
//!   instead of one per observe.
//! * **Flow control** — there is no request queue to fill: a loop reads a
//!   bounded amount per connection per wakeup and executes what it read,
//!   so a client that outruns the server is held back by TCP.
//!   [`crate::protocol::ERR_BACKPRESSURE`] stays a decodable wire code but
//!   is no longer emitted.
//! * **Slow consumers** — each connection's unflushed reply bytes are
//!   bounded; a client that stops reading while its backlog is past the
//!   budget is disconnected (counted in `serve.slow_disconnects`) rather
//!   than allowed to grow a buffer without limit.
//! * **Warm restart** — on boot, `snapshot_path` (if it exists) is read
//!   and its partitions dealt across however many shards this run has and
//!   installed ([`durability::boot`]); on graceful shutdown the final
//!   registry state is written back.
//! * **Durability (optional)** — with a [`JournalConfig`], each shard owns
//!   a `qdelay-journal` writer: an observe is staged on it under the shard
//!   lock, and every reply a wakeup produced is held until the shards it
//!   touched are committed ([`Shard::settle`]), so every acknowledged
//!   observation is in the WAL and no reply reflects unjournaled state.
//!   Boot installs the journal directory's snapshot, then replays the
//!   segment tail (torn tails truncated) through the shards' stores the way
//!   a replica applies its stream, and consolidates; a background compactor
//!   writes what the settled shards hold as the snapshot and deletes the
//!   sealed segments, so disk and recovery time stay bounded. If a group
//!   commit fails, the acks it covered become `io` errors and the shard
//!   **fences**: further observes are rejected (the in-memory state may be
//!   ahead of the journal), while predicts keep serving, and the compactor
//!   stops rather than persist that state.
//! * **Replication (optional)** — with `repl_addr` set (requires a
//!   journal), a `qdelay-repl` listener streams the WAL to replicas:
//!   each shard publishes its committed batch to the replication hub
//!   *after* the group commit succeeds, under the shard lock, so replicas
//!   only ever see durable records, in cursor order. With
//!   `replicate_from` set the server boots as a **replica**: no journal
//!   of its own, an apply thread streaming the primary's WAL into the
//!   shards (through the same ⊕ replay path recovery uses), and
//!   read-only dispatch — observes answer `read_only` on both wire
//!   protocols until the replica is promoted (`promote` request,
//!   [`Server::promote`], or SIGHUP via the CLI).

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::dispatch::Failure;
use crate::durability::{self, JournalConfig};
use crate::event_loop::{self, LoopPort};
use crate::hibernate::PartitionStore;
use crate::protocol;
use crate::registry::{PartitionKey, Prediction};
use crate::snapshot::{self, Document};
use crate::tracing::{FlightRecorder, MetricsHub};
use crate::{
    ADMIT_ADMITTED, ADMIT_DEFERRED, ADMIT_MARGIN, ADMIT_REJECTED, OBSERVE_NS, PREDICT_NS,
    SNAPSHOTS,
};
use qdelay_predict::admission::{self, Decision};
use qdelay_journal::{self as journal, JournalWriter, Record, SealedSegment};
use qdelay_json::Json;
use qdelay_repl::{
    Cursor, Msg, PrimaryConfig, ReplClient, ReplError, ReplHub, ReplListener, TailEvent,
};

/// Server tuning knobs. The defaults suit the committed benchmark's
/// workloads (`benchmark/`) and the tests.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Shard count, and the I/O loop count: every shard comes with one
    /// loop, though any loop executes on any shard.
    pub shards: usize,
    /// Slow-consumer budget of each connection, in units of 256 bytes of
    /// unflushed replies; a reply arriving on a backlog past it disconnects
    /// the connection.
    pub writer_capacity: usize,
    /// Longest accepted request line in bytes (also the cap on one inline
    /// JSON reply).
    pub max_line: usize,
    /// Snapshot file: loaded at boot if present, rewritten at graceful
    /// shutdown and on `snapshot` requests without an explicit path.
    pub snapshot_path: Option<PathBuf>,
    /// Write-ahead-log durability. When set, boot state comes from the
    /// journal directory (its snapshot plus the segment tail) and
    /// `snapshot_path` only serves explicit `snapshot` requests.
    pub journal: Option<JournalConfig>,
    /// Second listener speaking the CRC-framed binary protocol
    /// ([`crate::proto`]), served by the same I/O loops as the JSON
    /// listener. `None` disables it.
    pub binary_addr: Option<String>,
    /// Requests whose traced stages sum past this budget are promoted to
    /// the flight recorder's slow ring. `0` disables promotion.
    pub slow_request_us: u64,
    /// Depth of each flight-recorder ring (one recent ring per shard plus
    /// one slow ring).
    pub flight_recorder_depth: usize,
    /// How often the metrics hub samples the telemetry registry for the
    /// `metrics` method's rate window.
    pub metrics_interval: Duration,
    /// Replication listener address (`qdelay-repl` wire protocol).
    /// Requires `journal` — the WAL is the replication log. `None`
    /// disables shipping.
    pub repl_addr: Option<String>,
    /// Boot as a warm standby streaming this primary's replication
    /// listener. Conflicts with `journal` (the replica's state is the
    /// primary's WAL; it keeps no log of its own) and implies read-only
    /// dispatch until promotion.
    pub replicate_from: Option<String>,
    /// Resident-partition cap per shard ([`crate::hibernate`]). When a
    /// shard holds more partitions than this, the least-recently-touched
    /// ones hibernate: their predictor state is spilled to disk and the
    /// in-memory history freed, to be restored bit-identically by the
    /// next observe (questions are answered from what the index kept).
    /// `None` (the default) keeps everything resident.
    pub max_resident: Option<usize>,
    /// Directory for the per-shard spill files hibernation appends to.
    /// Defaults to `<journal dir>/spill` when journaling, else
    /// `<snapshot_path>.spill`; a cap with none of the three resolvable
    /// is a start error (hibernation needs somewhere to spill).
    pub spill_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            writer_capacity: 1024,
            max_line: qdelay_json::DEFAULT_MAX_LINE,
            snapshot_path: None,
            journal: None,
            binary_addr: None,
            slow_request_us: 10_000,
            flight_recorder_depth: 256,
            metrics_interval: Duration::from_secs(1),
            repl_addr: None,
            replicate_from: None,
            max_resident: None,
            spill_dir: None,
        }
    }
}

/// One shard's registry totals, in shard order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardStats {
    shard: usize,
    partitions: usize,
    observations: u64,
    /// Partitions held in memory (`partitions - hibernated`).
    resident: usize,
    /// Partitions spilled to this shard's hibernation file.
    hibernated: usize,
    /// Bytes of this shard's spill file (live frames plus garbage).
    spill_bytes: u64,
}

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
/// group-commit watermarks. Lives in a `Mutex` inside [`Shared`]; whoever
/// holds the lock — an I/O loop executing a request, the replica apply
/// thread, [`Server::join`] — is the shard's only writer for that long.
pub(crate) struct Shard {
    index: usize,
    store: PartitionStore,
    journal: Option<JournalWriter>,
    /// Set after a failed group commit: the in-memory state may be ahead
    /// of the journal, so further observes are rejected (predicts keep
    /// serving) until the operator restarts the server.
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
    fn new(
        index: usize,
        store: PartitionStore,
        journal: Option<JournalWriter>,
        hub: Option<Arc<ReplHub>>,
    ) -> Shard {
        Shard {
            index,
            store,
            journal,
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

    fn sweep(&mut self) {
        if let Err(e) = self.store.sweep() {
            eprintln!("qdelay-serve: shard {} spill compaction failed: {e}", self.index);
        }
    }

    /// Replica apply: replays replicated journal records through the same
    /// ⊕ path recovery uses. The store restores hibernated partitions
    /// before applying to them and hibernates under the same cap a primary
    /// would.
    fn apply(&mut self, records: Vec<Record>) -> Result<u64, String> {
        let result = self.store.apply(records);
        self.enforce_cap();
        self.sweep();
        result
    }

    fn stats(&self) -> ShardStats {
        ShardStats {
            shard: self.index,
            partitions: self.store.partition_count(),
            observations: self.store.total_observations(),
            resident: self.store.resident_count(),
            hibernated: self.store.hibernated_count(),
            spill_bytes: self.store.spill_disk_bytes(),
        }
    }
}

/// State shared by the I/O loops, the replica apply thread and the
/// [`Server`] handle.
pub(crate) struct Shared {
    pub(crate) shutdown: AtomicBool,
    local_addr: SocketAddr,
    /// The binary listener's bound address, when configured.
    binary_addr: Option<SocketAddr>,
    pub(crate) config: ServerConfig,
    /// The shards, indexed by [`PartitionKey::shard_index`].
    pub(crate) shards: Vec<Mutex<Shard>>,
    /// One port per I/O loop: where loop 0 hands an accepted socket to its
    /// owner, and how shutdown wakes a loop blocked in `epoll_wait`.
    pub(crate) loops: Vec<LoopPort>,
    /// The observability plane's flight recorder (ZST with tracing off).
    pub(crate) recorder: Arc<FlightRecorder>,
    /// Periodic telemetry snapshotter behind the `metrics` wire method.
    pub(crate) metrics: Arc<MetricsHub>,
    /// True while this server is an unpromoted replica: observes answer
    /// `read_only` on both protocols. Never set on a primary.
    pub(crate) read_only: AtomicBool,
    /// Promotion channel to the replica apply thread; `None` on a primary.
    pub(crate) replica: Option<ReplicaCtl>,
}

/// Handshake state between [`Shared::promote`] callers and the replica
/// apply thread: callers register a waiter and raise `requested`; the
/// apply thread (which polls on its read-timeout tick) flushes whatever
/// it has buffered, flips `read_only` off, and answers every waiter with
/// the applied-record count.
pub(crate) struct ReplicaCtl {
    requested: AtomicBool,
    waiters: Mutex<Vec<mpsc::Sender<Result<u64, String>>>>,
    /// Records applied so far (mirrors the `repl.applied` counter, but
    /// readable even when telemetry is compiled out).
    applied: AtomicU64,
}

impl Shared {
    /// Promotes a replica to primary: drains the apply thread's buffered
    /// records, lifts read-only dispatch, and returns the total record
    /// count applied. Idempotent — promoting twice returns the same count.
    /// On a server that never was a replica this is a request error.
    pub(crate) fn promote(&self) -> Result<u64, String> {
        let ctl = self.replica.as_ref().ok_or_else(|| "not a replica".to_string())?;
        if !self.read_only.load(Ordering::SeqCst) {
            return Ok(ctl.applied.load(Ordering::SeqCst));
        }
        let (tx, rx) = mpsc::channel();
        ctl.waiters.lock().expect("promote waiters lock").push(tx);
        ctl.requested.store(true, Ordering::SeqCst);
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(result) => result,
            Err(_) => Err("promotion timed out (apply thread unresponsive)".into()),
        }
    }

    pub(crate) fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            for port in &self.loops {
                port.wake();
            }
        }
    }

    pub(crate) fn shard(&self, index: usize) -> MutexGuard<'_, Shard> {
        self.shards[index].lock().expect("a thread panicked holding this shard")
    }

    /// Locks a shard for a reply that reports its state outside the
    /// group-commit staging (`stats`, `snapshot`, the final collect):
    /// everything staged on it is committed first, so the report never
    /// holds what the journal does not.
    fn settled_shard(&self, index: usize) -> MutexGuard<'_, Shard> {
        let mut shard = self.shard(index);
        let need = shard.appended;
        shard.settle(need);
        shard
    }
}

/// A running prediction server. Bind with [`Server::start`], stop with
/// [`Server::shutdown`] (or a client `shutdown` request), and reap with
/// [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    /// The transport threads ([`crate::event_loop`]), one per shard.
    io_loops: Vec<JoinHandle<()>>,
    compactor: Option<JoinHandle<()>>,
    /// Keeping this sender alive keeps the metrics thread sampling;
    /// dropping it in `join` stops the thread at its next wakeup.
    metrics_stop: Option<mpsc::Sender<()>>,
    metrics_join: Option<JoinHandle<()>>,
    /// Replication fan-out (primary with `repl_addr`).
    repl_hub: Option<Arc<ReplHub>>,
    repl_listener: Option<ReplListener>,
    repl_addr: Option<SocketAddr>,
    /// The replica-mode apply thread (with `replicate_from`).
    repl_apply: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr`, restores the snapshot (if configured and present), and
    /// spawns the I/O loops. Linux only: where there is no epoll this
    /// returns `ErrorKind::Unsupported`.
    pub fn start<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> io::Result<Server> {
        assert!(config.shards > 0, "shards must be positive");
        assert!(config.writer_capacity > 0, "writer_capacity must be positive");
        if config.repl_addr.is_some() && config.journal.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "replication listener requires a journal (the WAL is the replication log)",
            ));
        }
        if config.replicate_from.is_some() && config.journal.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a replica keeps no journal of its own (its log is the primary's WAL)",
            ));
        }
        // The transport's wakeup primitives, first: on a platform without
        // eventfd/epoll this is where `start` says so, before any work.
        let loops =
            (0..config.shards).map(|_| LoopPort::new()).collect::<io::Result<Vec<_>>>()?;
        // Hibernation needs somewhere to spill. Resolve the directory up
        // front: explicit `spill_dir`, else alongside the journal, else
        // alongside the snapshot file.
        let spill_dir: Option<PathBuf> = if config.max_resident.is_some() {
            let dir = config
                .spill_dir
                .clone()
                .or_else(|| config.journal.as_ref().map(|j| j.dir.join("spill")))
                .or_else(|| {
                    config.snapshot_path.as_ref().map(|p| {
                        let mut os = p.as_os_str().to_owned();
                        os.push(".spill");
                        PathBuf::from(os)
                    })
                });
            match dir {
                Some(dir) => {
                    std::fs::create_dir_all(&dir)?;
                    Some(dir)
                }
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "a resident cap needs a spill directory: set spill_dir, \
                         a journal, or a snapshot path",
                    ))
                }
            }
        } else {
            None
        };

        // Boot: state = snapshot ⊕ journal, into one capacity-managed store
        // per shard (under a cap, the cold tail of the install hibernates
        // without a refit). Nothing is warmed first: the tables a partition
        // reads are committed constants (the change-point thresholds and
        // the 95/95 K' factors) or built by the first partition in ~0.15 ms
        // (the bound-index table).
        let mut stores = (0..config.shards)
            .map(|index| {
                let spill_path =
                    spill_dir.as_ref().map(|dir| dir.join(format!("spill-{index:04}.qds")));
                PartitionStore::new(config.max_resident, spill_path)
            })
            .collect::<io::Result<Vec<_>>>()?;
        let snapshot_path = config.snapshot_path.as_deref();
        let journal_epoch = durability::boot(&mut stores, snapshot_path, config.journal.as_ref())?;

        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let bin_listener = match &config.binary_addr {
            Some(addr) => Some(TcpListener::bind(addr.as_str())?),
            None => None,
        };
        let binary_addr = match &bin_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };

        // Replication fan-out hub: shards publish committed batches into
        // it, replica connections subscribe.
        let repl_hub: Option<Arc<ReplHub>> =
            config.repl_addr.as_ref().map(|_| Arc::new(ReplHub::new()));

        // The sealed-segment channel: the shard writers send, the
        // compactor (spawned once the shards are shared) receives.
        let (sealed_tx, sealed_rx) = match &config.journal {
            Some(_) => {
                let (tx, rx) = mpsc::channel::<SealedSegment>();
                (Some(tx), Some(rx))
            }
            None => (None, None),
        };

        let mut shards = Vec::with_capacity(config.shards);
        for (index, store) in stores.into_iter().enumerate() {
            let writer = match (&config.journal, journal_epoch) {
                (Some(jcfg), Some(epoch)) => Some(
                    JournalWriter::open(
                        &jcfg.dir,
                        epoch,
                        index as u32,
                        jcfg.segment_bytes,
                        jcfg.fsync,
                        sealed_tx.clone(),
                    )
                    .map_err(durability::journal_to_io)?,
                ),
                _ => None,
            };
            shards.push(Mutex::new(Shard::new(index, store, writer, repl_hub.clone())));
        }
        // The shard writers now hold the only sealed-segment senders, so
        // the compactor exits exactly when the last writer is closed.
        drop(sealed_tx);

        let recorder = Arc::new(FlightRecorder::new(
            config.shards,
            config.flight_recorder_depth,
            config.slow_request_us.saturating_mul(1_000),
        ));
        let metrics = MetricsHub::new(config.metrics_interval);
        let (metrics_stop, metrics_join) = metrics.spawn();
        let replicate_from = config.replicate_from.clone();
        let is_replica = replicate_from.is_some();
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            local_addr,
            binary_addr,
            config,
            shards,
            loops,
            recorder,
            metrics,
            read_only: AtomicBool::new(is_replica),
            replica: is_replica.then(|| ReplicaCtl {
                requested: AtomicBool::new(false),
                waiters: Mutex::new(Vec::new()),
                applied: AtomicU64::new(0),
            }),
        });
        let compactor = match (sealed_rx, &shared.config.journal) {
            (Some(rx), Some(jcfg)) => {
                let (dir, threshold) = (jcfg.dir.clone(), jcfg.compact_bytes);
                let (shards, hub) = (Arc::downgrade(&shared), repl_hub.clone());
                Some(std::thread::spawn(move || compactor_loop(rx, shards, dir, threshold, hub)))
            }
            _ => None,
        };
        let io_loops = event_loop::spawn(listener, bin_listener, &shared)?;

        // Primary side: the replication listener streaming the WAL.
        let mut repl_listener = None;
        let mut repl_sock = None;
        if let (Some(bind), Some(jcfg)) =
            (&shared.config.repl_addr, &shared.config.journal)
        {
            let hub = repl_hub.clone().expect("hub exists whenever repl_addr is set");
            let cfg = PrimaryConfig {
                dir: jcfg.dir.clone(),
                snapshot_path: durability::snapshot_file(&jcfg.dir),
            };
            let listener = ReplListener::spawn(cfg, hub, bind)?;
            repl_sock = Some(listener.local_addr());
            repl_listener = Some(listener);
        }

        // Replica side: the apply thread streaming the primary's WAL into
        // the shards.
        let mut repl_apply = None;
        if let Some(primary) = replicate_from {
            let loop_shared = Arc::clone(&shared);
            repl_apply = Some(
                std::thread::Builder::new()
                    .name("repl-apply".into())
                    .spawn(move || replica_loop(loop_shared, primary))?,
            );
        }

        Ok(Server {
            shared,
            io_loops,
            compactor,
            metrics_stop: Some(metrics_stop),
            metrics_join: Some(metrics_join),
            repl_hub,
            repl_listener,
            repl_addr: repl_sock,
            repl_apply,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The binary listener's bound address, when one is configured.
    pub fn binary_addr(&self) -> Option<SocketAddr> {
        self.shared.binary_addr
    }

    /// The replication listener's bound address, when one is configured.
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.repl_addr
    }

    /// True while this server is an unpromoted replica (observes answer
    /// `read_only`).
    pub fn is_read_only(&self) -> bool {
        self.shared.read_only.load(Ordering::SeqCst)
    }

    /// Promotes a replica to primary: drains the applied prefix, lifts
    /// read-only dispatch, and returns the count of records applied.
    /// Idempotent; an error on a server that never was a replica.
    pub fn promote(&self) -> Result<u64, String> {
        self.shared.promote()
    }

    /// Begins graceful shutdown; returns immediately. Call [`Server::join`]
    /// to wait for completion.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until shutdown is requested (by [`Server::shutdown`] or a
    /// client `shutdown` request), then tears down connections, writes the
    /// final snapshot if a path is configured, and closes the journals.
    pub fn join(mut self) -> io::Result<()> {
        // The I/O loops run until shutdown is requested, then flush and
        // close every connection on their way out. With them gone no
        // request can reach a shard, so nothing races the collect below.
        for io_loop in self.io_loops.drain(..) {
            let _ = io_loop.join();
        }
        // Stop the metrics sampler (no connection can query it anymore).
        drop(self.metrics_stop.take());
        if let Some(j) = self.metrics_join.take() {
            let _ = j.join();
        }
        // Replication teardown. The apply thread is the last writer the
        // shards have; it notices `shutdown` on its next tick. The
        // listener's accept thread is joined here; its connection threads
        // see the hub's shutdown flag within one tail tick.
        if let Some(j) = self.repl_apply.take() {
            let _ = j.join();
        }
        if let Some(listener) = self.repl_listener.take() {
            listener.stop();
        }
        // Collect and render the final registry state, once, for every
        // place that keeps one. Hibernated partitions are decoded off the
        // spill files without being restored, so a capped shutdown costs
        // reads, not refits.
        let wants_final = self.shared.config.snapshot_path.is_some()
            || self.shared.config.journal.is_some();
        let mut result = Ok(());
        let collected = wants_final.then(|| {
            collect_partitions(&self.shared).and_then(|(parts, dead)| snapshot::render(parts, dead))
        });
        let final_state = match collected {
            Some(Ok(rendered)) => Some(rendered),
            Some(Err(e)) => {
                result = Err(e);
                None
            }
            None => None,
        };
        // Each journaling shard commits and syncs its writer on the way
        // out.
        for index in 0..self.shared.shards.len() {
            let mut shard = self.shared.shard(index);
            if let Some(writer) = shard.journal.take() {
                if let Err(e) = writer.close() {
                    eprintln!("qdelay-serve: shard {index} journal close failed: {e}");
                }
            }
        }
        // The sealed-segment senders died with the writers, so the
        // compactor drains and exits; join it before touching the journal
        // directory so no compaction races the final snapshot.
        if let Some(compactor) = self.compactor.take() {
            let _ = compactor.join();
        }
        if let Some(rendered) = final_state {
            if let Some(jcfg) = &self.shared.config.journal {
                // Graceful-shutdown consolidation: fold everything into the
                // snapshot and delete every segment, so the next boot
                // replays nothing. A replica connection still catching up
                // holds the hub's compaction lock across its disk scan;
                // wait for it rather than deleting segments out from
                // under the scan.
                let _guard = self.repl_hub.as_ref().map(|h| h.pause_compaction());
                let segments = journal::scan_dir(&jcfg.dir)
                    .map(|v| v.into_iter().map(|(_, path)| path).collect::<Vec<_>>())
                    .unwrap_or_default();
                match durability::replace_with_snapshot(&jcfg.dir, &rendered, &segments) {
                    Ok(()) => SNAPSHOTS.incr(),
                    Err(e) => result = Err(e),
                }
            }
            if let Some(path) = &self.shared.config.snapshot_path {
                match snapshot::write(path, &rendered) {
                    Ok(()) => SNAPSHOTS.incr(),
                    Err(e) => result = result.and(Err(e)),
                }
            }
        }
        result
    }
}

/// Collects every shard's partitions and tombstoned cursors, one shard
/// lock at a time (so each partition is internally consistent; the
/// document is not one cut across shards, and never was), each committed
/// first. Fallible because a capped shard answers by decoding its spill
/// file, and a spill read can fail; any shard's failure fails the
/// collection (a snapshot missing partitions would silently lose state).
pub(crate) fn collect_partitions(shared: &Shared) -> io::Result<Document> {
    let mut out = Vec::new();
    let mut dead = Vec::new();
    for index in 0..shared.shards.len() {
        let (mut parts, mut d) = shared.settled_shard(index).store.collect()?;
        out.append(&mut parts);
        dead.append(&mut d);
    }
    Ok((out, dead))
}

pub(crate) fn write_snapshot(shared: &Shared, path: &std::path::Path) -> io::Result<usize> {
    let (parts, dead) = collect_partitions(shared)?;
    let count = parts.len();
    snapshot::write(path, &snapshot::render(parts, dead)?)?;
    SNAPSHOTS.incr();
    Ok(count)
}

/// Builds the `stats` reply fields (minus the time-varying telemetry and
/// uptime sections) from every shard's registry totals, read one shard
/// lock at a time, each committed first.
pub(crate) fn stats_payload(shared: &Shared) -> Vec<(String, Json)> {
    let stats: Vec<ShardStats> =
        (0..shared.shards.len()).map(|index| shared.settled_shard(index).stats()).collect();
    let partitions: usize = stats.iter().map(|s| s.partitions).sum();
    let observations: u64 = stats.iter().map(|s| s.observations).sum();
    let resident: usize = stats.iter().map(|s| s.resident).sum();
    let hibernated: usize = stats.iter().map(|s| s.hibernated).sum();
    let spill_bytes: u64 = stats.iter().map(|s| s.spill_bytes).sum();
    vec![
        ("version".into(), Json::Str(env!("CARGO_PKG_VERSION").to_string())),
        ("partitions".into(), Json::Num(partitions as f64)),
        ("observations".into(), Json::Num(observations as f64)),
        ("resident".into(), Json::Num(resident as f64)),
        ("hibernated".into(), Json::Num(hibernated as f64)),
        ("spill_disk_bytes".into(), Json::Num(spill_bytes as f64)),
        ("shards".into(), Json::Num(stats.len() as f64)),
        (
            "per_shard".into(),
            Json::Arr(
                stats
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("shard".into(), Json::Num(s.shard as f64)),
                            ("partitions".into(), Json::Num(s.partitions as f64)),
                            ("observations".into(), Json::Num(s.observations as f64)),
                            ("resident".into(), Json::Num(s.resident as f64)),
                            ("hibernated".into(), Json::Num(s.hibernated as f64)),
                            ("spill_bytes".into(), Json::Num(s.spill_bytes as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]
}

/// Accumulates sealed-segment notifications from the shard writers and
/// compacts once `threshold` bytes are pending. Holds the shards weakly:
/// they own the writers whose senders keep `rx` open, so a strong reference
/// would keep them, and this thread, alive for good. Exits when every
/// writer is closed, or after the first failed pass; whatever is pending
/// then is superseded by the final consolidation in [`Server::join`] or by
/// the next boot's.
fn compactor_loop(
    rx: Receiver<SealedSegment>,
    shards: Weak<Shared>,
    dir: PathBuf,
    threshold: u64,
    hub: Option<Arc<ReplHub>>,
) {
    let mut pending: Vec<SealedSegment> = Vec::new();
    let mut pending_bytes = 0u64;
    while let Ok(seg) = rx.recv() {
        pending_bytes += seg.len;
        pending.push(seg);
        while let Ok(more) = rx.try_recv() {
            pending_bytes += more.len;
            pending.push(more);
        }
        if pending_bytes < threshold {
            continue;
        }
        let Some(shared) = shards.upgrade() else { return };
        // A replica catching up holds the hub's compaction lock across its
        // snapshot-plus-segments scan; deleting segments mid-scan would
        // ship it a hole. The guard comes first, then one shard at a time.
        let result = {
            let _guard = hub.as_ref().map(|h| h.pause_compaction());
            compact(&shared, &dir, &pending)
        };
        match result {
            Ok(()) => {
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

/// One compaction pass: writes what the shards hold as the journal
/// directory's snapshot, then deletes `sealed` (see [`crate::durability`]
/// for why that is `snapshot ⊕ journal`). Each shard is settled, checked and
/// collected under one lock hold, one shard at a time; a fenced shard fails
/// the pass, since its memory may hold an observe the journal lacks.
fn compact(shared: &Shared, dir: &Path, sealed: &[SealedSegment]) -> io::Result<()> {
    let started = Instant::now();
    let mut longest_hold = Duration::ZERO;
    let (mut parts, mut dead) = (Vec::new(), Vec::new());
    for index in 0..shared.shards.len() {
        let mut shard = shared.shard(index);
        let held = Instant::now();
        let need = shard.appended;
        shard.settle(need);
        if shard.fenced {
            return Err(io::Error::other(format!(
                "shard {index} is fenced; its memory may hold an observe the journal lacks"
            )));
        }
        let (p, d) = shard.store.collect()?;
        drop(shard);
        longest_hold = longest_hold.max(held.elapsed());
        parts.extend(p);
        dead.extend(d);
    }
    let rendered = snapshot::render(parts, dead)?;
    let paths: Vec<PathBuf> = sealed.iter().map(|s| s.path.clone()).collect();
    durability::replace_with_snapshot(dir, &rendered, &paths)?;
    journal::COMPACTIONS.incr();
    journal::COMPACTED_SEGMENTS.add(sealed.len() as u64);
    journal::COMPACT_US.record(started.elapsed().as_micros() as u64);
    journal::COMPACT_LOCK_US.record(longest_hold.as_micros() as u64);
    Ok(())
}

/// Why [`run_stream`] returned.
enum StreamExit {
    /// Shutdown or promotion — stop replicating entirely.
    Stop,
    /// Connection lost; retry keeping the cursors we have.
    Reconnect,
    /// The stream (or replay) went wrong; drop the cursors so the next
    /// attempt is a full resync.
    Resync,
}

/// In-flight replica apply state: records buffered per *replica* shard
/// (routing is by key hash against this server's shard count — the
/// primary's may differ), plus the newest cursor seen per primary stream.
/// Cursors only advance after a flush in which *every* buffer applied, so
/// a reconnect can never resume past an unapplied record.
struct ApplyBuffers {
    per_shard: Vec<Vec<Record>>,
    newest: HashMap<(u64, u32), Cursor>,
    buffered: usize,
}

impl ApplyBuffers {
    fn new(shards: usize) -> ApplyBuffers {
        ApplyBuffers {
            per_shard: (0..shards).map(|_| Vec::new()).collect(),
            newest: HashMap::new(),
            buffered: 0,
        }
    }

    fn push(&mut self, cursor: Cursor, record: Record) -> Result<(), String> {
        let key = durability::record_key(&record)?;
        let index = key.shard_index(self.per_shard.len());
        self.per_shard[index].push(record);
        self.newest.insert((cursor.epoch, cursor.shard), cursor);
        self.buffered += 1;
        Ok(())
    }

    /// Applies every buffer, then advances `cursors` to the newest
    /// position per stream. All-or-nothing: any shard failure leaves the
    /// cursors untouched (the caller resyncs).
    fn flush(
        &mut self,
        shared: &Shared,
        cursors: &mut HashMap<(u64, u32), Cursor>,
        ctl: &ReplicaCtl,
    ) -> Result<(), String> {
        if self.buffered == 0 {
            return Ok(());
        }
        let mut applied = 0u64;
        let mut failure = None;
        for (index, buffer) in self.per_shard.iter_mut().enumerate() {
            if buffer.is_empty() {
                continue;
            }
            match shared.shard(index).apply(std::mem::take(buffer)) {
                Ok(n) => applied += n,
                Err(e) => failure = Some(e),
            }
        }
        self.buffered = 0;
        ctl.applied.fetch_add(applied, Ordering::SeqCst);
        qdelay_repl::APPLIED.add(applied);
        if let Some(e) = failure {
            self.newest.clear();
            return Err(e);
        }
        for (stream, cursor) in self.newest.drain() {
            cursors.insert(stream, cursor);
        }
        Ok(())
    }
}

/// A replica's resync: parses the primary's snapshot and installs it
/// wholesale into the shards, each its share — every shard is replaced, so
/// stale state is cleared even where the snapshot has nothing for it.
/// Under a resident cap the install spills the entries past the cap, which
/// can fail.
fn install_snapshot(shared: &Shared, bytes: &[u8]) -> io::Result<()> {
    let shares = durability::deal(snapshot::parse(bytes)?, shared.shards.len());
    for (index, (parts, dead)) in shares.into_iter().enumerate() {
        shared.shard(index).store.install_snapshots(parts, dead)?;
    }
    Ok(())
}

/// Lifts read-only dispatch and answers every promotion waiter.
fn finish_promotion(shared: &Shared, ctl: &ReplicaCtl) {
    shared.read_only.store(false, Ordering::SeqCst);
    let applied = ctl.applied.load(Ordering::SeqCst);
    for tx in ctl.waiters.lock().expect("promote waiters lock").drain(..) {
        let _ = tx.send(Ok(applied));
    }
    eprintln!("qdelay-serve: replica promoted to primary ({applied} records applied)");
}

/// One replication connection's lifetime: welcome (maybe snapshot), the
/// catch-up stream, then tail mode. Ticks every read timeout to flush
/// buffered records and poll for shutdown/promotion.
fn run_stream(
    shared: &Shared,
    mut client: ReplClient,
    cursors: &mut HashMap<(u64, u32), Cursor>,
    ctl: &ReplicaCtl,
) -> StreamExit {
    let connected_at = Instant::now();
    let mut caught_up = false;
    let mut buffers = ApplyBuffers::new(shared.shards.len());
    loop {
        let msg = match client.next_msg() {
            Ok(msg) => Some(msg),
            Err(e) if e.is_timeout() => None,
            Err(ReplError::Corrupt(why)) => {
                eprintln!("qdelay-serve: replication stream corrupt ({why}); full resync");
                return StreamExit::Resync;
            }
            Err(_) => {
                // Io / Eof: apply what we have so the cursors reflect it,
                // then reconnect.
                if buffers.flush(shared, cursors, ctl).is_err() {
                    return StreamExit::Resync;
                }
                return StreamExit::Reconnect;
            }
        };
        match msg {
            Some(Msg::Welcome { resume, .. }) => {
                if !resume {
                    // Snapshot incoming: our cursors are meaningless now.
                    cursors.clear();
                }
            }
            Some(Msg::Snapshot(bytes)) => {
                if let Err(e) = install_snapshot(shared, &bytes) {
                    eprintln!("qdelay-serve: replicated snapshot rejected ({e}); full resync");
                    return StreamExit::Resync;
                }
            }
            Some(Msg::Record { cursor, record }) => {
                if let Err(e) = buffers.push(cursor, record) {
                    eprintln!("qdelay-serve: replicated record rejected ({e}); full resync");
                    return StreamExit::Resync;
                }
                if buffers.buffered >= durability::APPLY_BATCH {
                    if let Err(e) = buffers.flush(shared, cursors, ctl) {
                        eprintln!("qdelay-serve: replica apply failed ({e}); full resync");
                        return StreamExit::Resync;
                    }
                }
            }
            Some(Msg::CaughtUp) => {
                if let Err(e) = buffers.flush(shared, cursors, ctl) {
                    eprintln!("qdelay-serve: replica apply failed ({e}); full resync");
                    return StreamExit::Resync;
                }
                if !caught_up {
                    caught_up = true;
                    qdelay_repl::CATCHUP_MS.record(connected_at.elapsed().as_millis() as u64);
                }
            }
            Some(Msg::Hello { .. }) => {
                eprintln!("qdelay-serve: primary sent HELLO (protocol confusion); full resync");
                return StreamExit::Resync;
            }
            None => {
                // Tick: flush, then poll shutdown and promotion.
                if let Err(e) = buffers.flush(shared, cursors, ctl) {
                    eprintln!("qdelay-serve: replica apply failed ({e}); full resync");
                    return StreamExit::Resync;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return StreamExit::Stop;
                }
                if ctl.requested.load(Ordering::SeqCst) {
                    finish_promotion(shared, ctl);
                    return StreamExit::Stop;
                }
            }
        }
    }
}

/// Replica-mode apply thread: stream the primary's WAL into the shards,
/// reconnecting (with the cursors kept) on connection loss and resyncing
/// from a snapshot after corruption. Exits on shutdown or promotion.
fn replica_loop(shared: Arc<Shared>, primary: String) {
    let ctl = shared.replica.as_ref().expect("replica_loop needs ReplicaCtl");
    let mut cursors: HashMap<(u64, u32), Cursor> = HashMap::new();
    let mut backoff = Duration::from_millis(250);
    'outer: loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if ctl.requested.load(Ordering::SeqCst) {
            finish_promotion(&shared, ctl);
            return;
        }
        let resume: Vec<Cursor> = cursors.values().copied().collect();
        match ReplClient::connect(primary.as_str(), &resume, Duration::from_millis(100)) {
            Ok(client) => {
                backoff = Duration::from_millis(250);
                match run_stream(&shared, client, &mut cursors, ctl) {
                    StreamExit::Stop => break 'outer,
                    StreamExit::Reconnect => {}
                    StreamExit::Resync => cursors.clear(),
                }
            }
            Err(_) => {}
        }
        // Backoff in short slices so shutdown and promotion stay
        // responsive while the primary is unreachable.
        let mut waited = Duration::ZERO;
        while waited < backoff {
            if shared.shutdown.load(Ordering::SeqCst)
                || ctl.requested.load(Ordering::SeqCst)
            {
                continue 'outer;
            }
            std::thread::sleep(Duration::from_millis(50));
            waited += Duration::from_millis(50);
        }
        backoff = (backoff * 2).min(Duration::from_secs(2));
    }
    // Shutdown: fail any promotion request that raced it.
    for tx in ctl.waiters.lock().expect("promote waiters lock").drain(..) {
        let _ = tx.send(Err("server is shutting down".into()));
    }
}
