//! The server: boot, the shard event loops, teardown.
//!
//! Thread architecture (all `std`, no external runtime; Linux only — the
//! transport is an epoll loop, and [`Server::start`] returns `Unsupported`
//! where there is no epoll):
//!
//! ```text
//!  both listeners ──► one I/O loop ──try_send──► shard 0..N event loops
//!  (JSON lines,        (accept, frame,               │  batched, lock-free
//!   binary frames)      decode, dispatch)            ▼
//!                      I/O loop ◄── out buffer ◄── rendered replies
//! ```
//!
//! * **Transport** — [`crate::event_loop`]: one thread, one epoll set over
//!   both listeners and every connection. Data-plane requests are routed
//!   to a shard; control methods are answered inline on that thread
//!   ([`crate::dispatch`]).
//! * **Sharding** — each shard thread owns a disjoint set of partitions
//!   (assigned by key hash, [`crate::registry::PartitionKey::shard_index`]),
//!   so predictor state is mutated single-threaded with no locks.
//! * **Batching** — a shard blocks on `recv` for the first message, then
//!   drains its queue non-blocking up to a batch cap before processing.
//!   Combined with the partitions' lazy refits, a burst of observes costs
//!   one refit at the next predict instead of one per observe.
//! * **Backpressure** — shard queues are bounded; a full queue rejects the
//!   request immediately with a typed [`crate::protocol::ERR_BACKPRESSURE`]
//!   error instead of stalling the connection.
//! * **Slow consumers** — each connection's unflushed reply bytes are
//!   bounded too; a client that stops reading while its backlog is past
//!   the budget is disconnected (counted in `serve.slow_disconnects`)
//!   rather than allowed to wedge a shard.
//! * **Warm restart** — on boot, `snapshot_path` (if it exists) is loaded
//!   and partitions are re-dealt across however many shards this run has;
//!   on graceful shutdown the final registry state is written back.
//! * **Durability (optional)** — with a [`JournalConfig`], each shard owns
//!   a `qdelay-journal` writer: the observes of one drain cycle are
//!   appended and group-committed *before* their acks are released, so
//!   every acknowledged observation is in the WAL. Boot recovery loads the
//!   journal directory's snapshot and replays the segment tail
//!   (truncating torn tails); a background compactor folds sealed
//!   segments into the snapshot so disk and recovery time stay bounded.
//!   If a group commit fails, the staged acks become `io` errors and the
//!   shard **fences**: further observes are rejected (the in-memory state
//!   may be ahead of the journal), while predicts keep serving.
//! * **Replication (optional)** — with `repl_addr` set (requires a
//!   journal), a `qdelay-repl` listener streams the WAL to replicas:
//!   each shard publishes its committed batch to the replication hub
//!   *after* the group commit succeeds, so replicas only ever see
//!   records whose acks were (or will be) released. With
//!   `replicate_from` set the server boots as a **replica**: no journal
//!   of its own, an apply thread streaming the primary's WAL into the
//!   shards (through the same ⊕ replay path recovery uses), and
//!   read-only dispatch — observes answer `read_only` on both wire
//!   protocols until the replica is promoted (`promote` request,
//!   [`Server::promote`], or SIGHUP via the CLI).

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::durability::{self, JournalConfig};
use crate::dispatch::Responder;
use crate::event_loop::{self, Waker};
use crate::hibernate::PartitionStore;
use crate::protocol;
use crate::registry::{Partition, PartitionKey};
use crate::snapshot::{self, DeadPartition, PartitionSnapshot};
use crate::tracing::{FlightRecorder, MetricsHub, PendingTrace, ReqTrace};
use crate::{
    ADMIT_ADMITTED, ADMIT_DEFERRED, ADMIT_MARGIN, ADMIT_REJECTED, BATCH_SIZE, ERRORS,
    OBSERVE_NS, PREDICT_NS, QUEUE_DEPTH, REJECTS, REQUEST_NS, SNAPSHOTS,
};
use qdelay_predict::admission::{self, Decision};
use qdelay_journal::{self as journal, JournalWriter, Record, SealedSegment};
use qdelay_json::Json;
use qdelay_repl::{
    Cursor, Msg, PrimaryConfig, ReplClient, ReplError, ReplHub, ReplListener, TailEvent,
};

/// Server tuning knobs. The defaults suit the loadgen bench and tests.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Shard (predictor-owning event loop) count.
    pub shards: usize,
    /// Bound on each shard's request queue; a full queue rejects with
    /// `backpressure`.
    pub queue_capacity: usize,
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
    /// ([`crate::proto`]), served by the same I/O loop as the JSON
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
    /// in-memory history freed, to be restored bit-identically on the
    /// next touch. `None` (the default) keeps everything resident.
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
            queue_capacity: 1024,
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

/// Messages a shard event loop consumes.
enum ShardMsg {
    Op {
        key: PartitionKey,
        op: Op,
        resp: Responder,
        enqueued: Instant,
        trace: ReqTrace,
    },
    /// Serialize every partition this shard owns, plus its tombstoned
    /// cursors (both are part of the snapshot document). Hibernated
    /// partitions are decoded straight off the spill file, so a capped
    /// shard answers without restoring them — which is also why the
    /// reply is fallible (a spill read can fail).
    Collect {
        reply: mpsc::Sender<Result<(Vec<PartitionSnapshot>, Vec<DeadPartition>), String>>,
    },
    /// Report this shard's registry totals.
    Stats { reply: mpsc::Sender<ShardStats> },
    /// Replica apply: replay a batch of replicated journal records through
    /// the same ⊕ path recovery uses. Replies with the count applied (or
    /// the replay error) directly — no journal, no staging.
    Apply { records: Vec<Record>, reply: mpsc::Sender<Result<u64, String>> },
    /// Replica resync: replace this shard's registry wholesale with state
    /// decoded from the primary's snapshot. Under a resident cap the
    /// install spills partitions past the cap, which can fail.
    Install {
        partitions: Vec<(PartitionKey, Partition)>,
        dead: Vec<(PartitionKey, u64)>,
        reply: mpsc::Sender<Result<(), String>>,
    },
}

/// One shard's registry totals, tagged with the shard's index so fan-out
/// replies can be merged deterministically regardless of arrival order.
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

/// A shard's ingress: bounded sender plus a depth counter for the
/// `serve.queue_depth` high-water mark.
#[derive(Clone)]
pub(crate) struct ShardHandle {
    tx: SyncSender<ShardMsg>,
    depth: Arc<AtomicU64>,
}

/// State shared by the I/O loop, the replica apply thread and the
/// [`Server`] handle.
pub(crate) struct Shared {
    pub(crate) shutdown: AtomicBool,
    local_addr: SocketAddr,
    /// The binary listener's bound address, when configured.
    binary_addr: Option<SocketAddr>,
    pub(crate) config: ServerConfig,
    /// The I/O loop's waker: every connection's replies signal it, and so
    /// does shutdown, so the loop never sleeps through either.
    pub(crate) waker: Arc<Waker>,
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
            self.waker.wake();
        }
    }
}

/// A running prediction server. Bind with [`Server::start`], stop with
/// [`Server::shutdown`] (or a client `shutdown` request), and reap with
/// [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    shards: Vec<ShardHandle>,
    shard_joins: Vec<JoinHandle<()>>,
    /// The transport thread ([`crate::event_loop`]).
    io_loop: Option<JoinHandle<()>>,
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
    /// spawns the shard threads and the I/O loop. Linux only: where there
    /// is no epoll this returns `ErrorKind::Unsupported`.
    pub fn start<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> io::Result<Server> {
        assert!(config.shards > 0, "shards must be positive");
        assert!(config.queue_capacity > 0, "queue_capacity must be positive");
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
        // The transport's wakeup primitive, first: on a platform without
        // eventfd/epoll this is where `start` says so, before any work.
        let waker = Waker::new()?;
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

        // The exact K-factor table the per-partition log-normal predictors
        // share is a process-wide lazy static (~100 noncentral-t
        // root-finds, ~150 ms): pay it here, before the listener exists,
        // rather than stalling a shard on the first partition a request
        // ever creates. (The change-point threshold table needs no such
        // care: it is a committed constant.)
        qdelay_predict::lognormal::LogNormalPredictor::prewarm_k_factors(
            &qdelay_predict::lognormal::LogNormalConfig::trim(),
        );

        // Reconstruct boot state: snapshot ⊕ journal when journaling, the
        // flat snapshot file otherwise. The journal path materializes
        // partitions (it replayed records into them anyway); the snapshot
        // path keeps the decoded `PartitionSnapshot`s so that, under a
        // resident cap, cold partitions can land directly in the
        // hibernated state without ever being refit.
        let (restored, restored_snaps, restored_dead, journal_epoch) = match &config.journal {
            Some(jcfg) => {
                let loaded = durability::load_state(jcfg)?;
                // Consolidate immediately: fold everything just replayed
                // into one fresh snapshot and delete the old epochs'
                // segments, so recovery work never accumulates across
                // restarts.
                let parts =
                    loaded.partitions.iter().map(|(k, p)| p.to_snapshot(k)).collect();
                let dead_list = loaded
                    .dead
                    .iter()
                    .map(|(k, seq)| DeadPartition {
                        site: k.site.clone(),
                        queue: k.queue.clone(),
                        range: k.range,
                        seq: *seq,
                    })
                    .collect();
                durability::replace_with_snapshot(
                    &jcfg.dir,
                    parts,
                    dead_list,
                    &loaded.old_segments,
                )
                .map_err(durability::journal_to_io)?;
                if loaded.replayed > 0 {
                    eprintln!(
                        "qdelay-serve: recovered {} partitions ({} journal records replayed)",
                        loaded.partitions.len(),
                        loaded.replayed
                    );
                }
                (loaded.partitions, Vec::new(), loaded.dead, Some(loaded.next_epoch))
            }
            None => match &config.snapshot_path {
                Some(path) if path.exists() => {
                    let text = std::fs::read_to_string(path)?;
                    let doc = Json::parse(&text).map_err(invalid_data)?;
                    let (snaps, dead_list) = snapshot::decode(&doc).map_err(invalid_data)?;
                    let dead = dead_list
                        .into_iter()
                        .map(|d| {
                            (PartitionKey { site: d.site, queue: d.queue, range: d.range }, d.seq)
                        })
                        .collect();
                    (Vec::new(), snaps, dead, None)
                }
                _ => (Vec::new(), Vec::new(), Vec::new(), None),
            },
        };

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

        // Deal restored partitions (and tombstoned cursors) to their
        // owning shards. At most one of `restored` / `restored_snaps` is
        // non-empty (journal vs snapshot boot).
        let boot_from_snapshot = !restored_snaps.is_empty();
        let mut per_shard: Vec<Vec<(PartitionKey, Partition)>> =
            (0..config.shards).map(|_| Vec::new()).collect();
        for (key, part) in restored {
            let index = key.shard_index(config.shards);
            per_shard[index].push((key, part));
        }
        let mut per_shard_snaps: Vec<Vec<PartitionSnapshot>> =
            (0..config.shards).map(|_| Vec::new()).collect();
        for snap in restored_snaps {
            let key = PartitionKey {
                site: snap.site.clone(),
                queue: snap.queue.clone(),
                range: snap.range,
            };
            per_shard_snaps[key.shard_index(config.shards)].push(snap);
        }
        let mut per_shard_dead: Vec<Vec<(PartitionKey, u64)>> =
            (0..config.shards).map(|_| Vec::new()).collect();
        for (key, seq) in restored_dead {
            let index = key.shard_index(config.shards);
            per_shard_dead[index].push((key, seq));
        }

        // Replication fan-out hub: shards publish committed batches into
        // it, replica connections subscribe.
        let repl_hub: Option<Arc<ReplHub>> =
            config.repl_addr.as_ref().map(|_| Arc::new(ReplHub::new()));

        // Background compactor + the sealed-segment channel feeding it.
        let mut compactor = None;
        let mut sealed_tx = None;
        if let Some(jcfg) = &config.journal {
            let (tx, rx) = mpsc::channel::<SealedSegment>();
            sealed_tx = Some(tx);
            let dir = jcfg.dir.clone();
            let threshold = jcfg.compact_bytes;
            let hub = repl_hub.clone();
            compactor =
                Some(std::thread::spawn(move || compactor_loop(rx, dir, threshold, hub)));
        }

        let mut shards = Vec::with_capacity(config.shards);
        let mut shard_joins = Vec::with_capacity(config.shards);
        for (index, ((initial, initial_snaps), initial_dead)) in per_shard
            .into_iter()
            .zip(per_shard_snaps)
            .zip(per_shard_dead)
            .enumerate()
        {
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
            // Each shard owns a capacity-managed store; under a cap the
            // cold tail of a snapshot boot hibernates without a refit.
            let spill_path =
                spill_dir.as_ref().map(|dir| dir.join(format!("spill-{index:04}.qds")));
            let mut store = PartitionStore::new(config.max_resident, spill_path)?;
            if boot_from_snapshot {
                store.install_snapshots(initial_snaps, initial_dead)?;
            } else {
                store.install_parts(initial, initial_dead)?;
            }
            let (tx, rx) = mpsc::sync_channel(config.queue_capacity);
            let depth = Arc::new(AtomicU64::new(0));
            let handle_depth = Arc::clone(&depth);
            let hub = repl_hub.clone();
            shard_joins.push(std::thread::spawn(move || {
                shard_loop(index, rx, depth, store, writer, hub)
            }));
            shards.push(ShardHandle { tx, depth: handle_depth });
        }
        // The shard writers now hold the only sealed-segment senders, so
        // the compactor exits exactly when the last shard does.
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
            waker,
            recorder,
            metrics,
            read_only: AtomicBool::new(is_replica),
            replica: is_replica.then(|| ReplicaCtl {
                requested: AtomicBool::new(false),
                waiters: Mutex::new(Vec::new()),
                applied: AtomicU64::new(0),
            }),
        });
        let io_loop =
            event_loop::spawn(listener, bin_listener, Arc::clone(&shared), shards.clone())?;

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
            let loop_shards = shards.clone();
            repl_apply = Some(
                std::thread::Builder::new()
                    .name("repl-apply".into())
                    .spawn(move || replica_loop(loop_shared, loop_shards, primary))?,
            );
        }

        Ok(Server {
            shared,
            shards,
            shard_joins,
            io_loop: Some(io_loop),
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
    /// final snapshot if a path is configured, and stops the shards.
    pub fn join(mut self) -> io::Result<()> {
        // The I/O loop runs until shutdown is requested, then flushes and
        // closes every connection on its way out. With it gone no request
        // can reach a shard, so nothing races the collect below.
        if let Some(io_loop) = self.io_loop.take() {
            let _ = io_loop.join();
        }
        // Stop the metrics sampler (no connection can query it anymore).
        drop(self.metrics_stop.take());
        if let Some(j) = self.metrics_join.take() {
            let _ = j.join();
        }
        // Replication teardown. The apply thread holds shard senders, so
        // it must exit before the shards can; it notices `shutdown` on its
        // next tick. The listener's accept thread is joined here; its
        // connection threads see the hub's shutdown flag within one tail
        // tick.
        if let Some(j) = self.repl_apply.take() {
            let _ = j.join();
        }
        if let Some(listener) = self.repl_listener.take() {
            listener.stop();
        }
        // Collect the final registry state while the shards are still
        // alive (the I/O loop is gone, so no op can race this).
        // Hibernated partitions are decoded off the spill files without
        // being restored, so a capped shutdown costs reads, not refits.
        let wants_final = self.shared.config.snapshot_path.is_some()
            || self.shared.config.journal.is_some();
        let mut result = Ok(());
        let final_state = match wants_final.then(|| collect_partitions(&self.shards)) {
            Some(Ok(state)) => Some(state),
            Some(Err(e)) => {
                result = Err(e);
                None
            }
            None => None,
        };
        // Dropping the last senders stops the shard loops; each journaling
        // shard commits and syncs its writer on the way out.
        self.shards.clear();
        for j in self.shard_joins.drain(..) {
            let _ = j.join();
        }
        // The writers' sealed-segment senders died with the shards, so the
        // compactor drains and exits; join it before touching the journal
        // directory so no compaction races the final snapshot.
        if let Some(compactor) = self.compactor.take() {
            let _ = compactor.join();
        }
        if let Some((parts, dead)) = final_state {
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
                match durability::replace_with_snapshot(
                    &jcfg.dir,
                    parts.clone(),
                    dead.clone(),
                    &segments,
                ) {
                    Ok(()) => SNAPSHOTS.incr(),
                    Err(e) => result = Err(durability::journal_to_io(e)),
                }
            }
            if let Some(path) = &self.shared.config.snapshot_path {
                let doc = snapshot::encode(parts, dead);
                match journal::write_atomic(path, (doc.to_string_pretty() + "\n").as_bytes())
                {
                    Ok(()) => SNAPSHOTS.incr(),
                    Err(e) => result = result.and(Err(durability::journal_to_io(e))),
                }
            }
        }
        result
    }
}

fn invalid_data<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Collects every shard's partitions and tombstoned cursors (each shard
/// serializes between batches, so partitions are internally consistent).
/// Fallible because a capped shard answers by decoding its spill file,
/// and a spill read can fail; any shard's failure fails the collection
/// (a snapshot missing partitions would silently lose state).
pub(crate) fn collect_partitions(
    shards: &[ShardHandle],
) -> io::Result<(Vec<PartitionSnapshot>, Vec<DeadPartition>)> {
    let (tx, rx) = mpsc::channel();
    let mut expected = 0usize;
    for shard in shards {
        if shard.tx.send(ShardMsg::Collect { reply: tx.clone() }).is_ok() {
            expected += 1;
        }
    }
    drop(tx);
    let mut out = Vec::new();
    let mut dead = Vec::new();
    for _ in 0..expected {
        match rx.recv() {
            Ok(Ok((mut parts, mut d))) => {
                out.append(&mut parts);
                dead.append(&mut d);
            }
            Ok(Err(e)) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            Err(_) => {}
        }
    }
    Ok((out, dead))
}

pub(crate) fn write_snapshot(shards: &[ShardHandle], path: &std::path::Path) -> io::Result<usize> {
    let (parts, dead) = collect_partitions(shards)?;
    let count = parts.len();
    let doc = snapshot::encode(parts, dead);
    // Atomic replace: a crash mid-write must leave any previous snapshot
    // intact rather than a truncated JSON file.
    journal::write_atomic(path, (doc.to_string_pretty() + "\n").as_bytes())
        .map_err(durability::journal_to_io)?;
    SNAPSHOTS.incr();
    Ok(count)
}

/// Queries every shard's registry totals. The default (`serial == false`)
/// broadcasts the request first and joins the replies afterwards, so the
/// shards compute concurrently; `serial` asks one shard at a time. Both
/// orders produce the same merged payload byte-for-byte (replies carry the
/// shard index and are sorted before merging) — pinned by a unit test.
pub(crate) fn gather_stats(shards: &[ShardHandle], serial: bool) -> Vec<ShardStats> {
    let mut stats: Vec<ShardStats> = if serial {
        shards
            .iter()
            .filter_map(|shard| {
                let (tx, rx) = mpsc::channel();
                shard.tx.send(ShardMsg::Stats { reply: tx }).ok()?;
                rx.recv().ok()
            })
            .collect()
    } else {
        let (tx, rx) = mpsc::channel();
        let mut expected = 0usize;
        for shard in shards {
            if shard.tx.send(ShardMsg::Stats { reply: tx.clone() }).is_ok() {
                expected += 1;
            }
        }
        drop(tx);
        (0..expected).filter_map(|_| rx.recv().ok()).collect()
    };
    stats.sort_by_key(|s| s.shard);
    stats
}

/// Builds the `stats` reply fields (minus the time-varying telemetry and
/// uptime sections) from per-shard totals. Each shard's entry includes its
/// live queue depth so a bare `stats` call shows where requests are
/// backed up; equal registry states at idle still merge byte-identically
/// (depth reads are zero once the queues drain).
pub(crate) fn stats_payload(stats: &[ShardStats], shards: &[ShardHandle]) -> Vec<(String, Json)> {
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
        ("shards".into(), Json::Num(shards.len() as f64)),
        (
            "per_shard".into(),
            Json::Arr(
                stats
                    .iter()
                    .map(|s| {
                        let depth = shards
                            .get(s.shard)
                            .map(|h| h.depth.load(Ordering::Relaxed))
                            .unwrap_or(0);
                        Json::Obj(vec![
                            ("shard".into(), Json::Num(s.shard as f64)),
                            ("partitions".into(), Json::Num(s.partitions as f64)),
                            ("observations".into(), Json::Num(s.observations as f64)),
                            ("resident".into(), Json::Num(s.resident as f64)),
                            ("hibernated".into(), Json::Num(s.hibernated as f64)),
                            ("spill_bytes".into(), Json::Num(s.spill_bytes as f64)),
                            ("queue_depth".into(), Json::Num(depth as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]
}

/// Accumulates sealed-segment notifications from the shard writers and
/// folds them into the journal snapshot once `threshold` bytes are
/// pending. Exits when every writer is gone (shard shutdown); whatever is
/// still pending then is superseded by the final consolidation in
/// [`Server::join`].
fn compactor_loop(
    rx: Receiver<SealedSegment>,
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
        // A replica catching up holds the hub's compaction lock across its
        // snapshot-plus-segments scan; folding segments away mid-scan
        // would ship it a hole.
        let result = {
            let _guard = hub.as_ref().map(|h| h.pause_compaction());
            durability::compact(&dir, &mut pending)
        };
        match result {
            Ok(()) => pending_bytes = 0,
            Err(e) => {
                // Compaction is an optimization, not a correctness
                // requirement: leave the segments for the next boot's
                // consolidation and stop retrying (the failure is almost
                // certainly persistent — disk full, permissions).
                eprintln!("qdelay-serve: journal compaction failed (giving up): {e}");
                return;
            }
        }
    }
}

/// Hands one data-plane op to the shard owning its partition, or answers
/// it with the typed rejection when the shard cannot take it.
pub(crate) fn route_op(
    shards: &[ShardHandle],
    key: PartitionKey,
    op: Op,
    resp: Responder,
    mut trace: ReqTrace,
) {
    let shard_index = key.shard_index(shards.len());
    let shard = &shards[shard_index];
    // One clock read serves both the request-latency baseline and the
    // trace's queue-stage start.
    let now = Instant::now();
    trace.enqueued(shard_index, now);
    let msg = ShardMsg::Op { key, op, resp, enqueued: now, trace };
    // Count the message before sending: the shard may dequeue (and
    // decrement) before this thread resumes, and the counter must never
    // dip below zero.
    let depth = shard.depth.fetch_add(1, Ordering::Relaxed) + 1;
    match shard.tx.try_send(msg) {
        Ok(()) => {
            QUEUE_DEPTH.set_max(depth);
        }
        Err(TrySendError::Full(ShardMsg::Op { resp, .. })) => {
            shard.depth.fetch_sub(1, Ordering::Relaxed);
            REJECTS.incr();
            resp.send_error(
                protocol::ERR_BACKPRESSURE,
                "shard queue full; request dropped, retry later",
            );
        }
        Err(TrySendError::Disconnected(ShardMsg::Op { resp, .. })) => {
            shard.depth.fetch_sub(1, Ordering::Relaxed);
            resp.send_error(protocol::ERR_SHUTTING_DOWN, "server is shutting down");
        }
        Err(_) => unreachable!("a rejected Op comes back as an Op"),
    }
}

/// Largest number of messages a shard processes per wakeup.
const MAX_BATCH: usize = 256;

/// A response withheld until the batch's group commit resolves. While a
/// journal is active, *every* response produced mid-batch is staged in
/// arrival order — not only the observe acks whose durability the commit
/// decides — so a connection pipelining mixed requests at one shard still
/// sees replies in request order.
enum Staged {
    /// Observe ack: downgraded to a typed error if the commit fails.
    Ack(Responder, Vec<u8>, Option<PendingTrace>),
    /// Any other request's reply; held for ordering only.
    Reply(Responder, Vec<u8>, Option<PendingTrace>),
    /// Partition snapshots (plus dead cursors) answering a `Collect`.
    Collected(
        mpsc::Sender<Result<(Vec<PartitionSnapshot>, Vec<DeadPartition>), String>>,
        Result<(Vec<PartitionSnapshot>, Vec<DeadPartition>), String>,
    ),
    /// This shard's `Stats` contribution.
    Counted(mpsc::Sender<ShardStats>, ShardStats),
}

fn shard_loop(
    shard: usize,
    rx: Receiver<ShardMsg>,
    depth: Arc<AtomicU64>,
    mut store: PartitionStore,
    mut journal: Option<JournalWriter>,
    hub: Option<Arc<ReplHub>>,
) {
    // Committed-but-unpublished tail events for the replication hub;
    // published as one batch after the group commit succeeds, so replicas
    // only ever see durable records.
    let mut pending_publish: Vec<TailEvent> = Vec::new();
    let mut batch = Vec::with_capacity(MAX_BATCH);
    // Responses staged until the batch's journal records are committed
    // (the WAL invariant: acked ⊆ journaled). Empty when not journaling.
    let mut staged: Vec<Staged> = Vec::new();
    // Set after a failed group commit: the in-memory state may be ahead of
    // the journal, so further observes are rejected (predicts keep
    // serving) until the operator restarts the server.
    let mut fenced = false;
    // Blocking recv for the first message, then drain what has queued up
    // behind it; the loop exits when every sender (server + connections)
    // is gone.
    while let Ok(first) = rx.recv() {
        batch.push(first);
        while batch.len() < MAX_BATCH {
            match rx.try_recv() {
                Ok(msg) => batch.push(msg),
                Err(_) => break,
            }
        }
        BATCH_SIZE.record(batch.len() as u64);
        for msg in batch.drain(..) {
            match msg {
                ShardMsg::Op { key, op, resp, enqueued, mut trace } => {
                    depth.fetch_sub(1, Ordering::Relaxed);
                    trace.dequeued_now();
                    let label = key.label();
                    match op {
                        Op::Observe { wait, predicted_bmbp, predicted_lognormal } => {
                            if fenced {
                                ERRORS.incr();
                                resp.send_error(
                                    protocol::ERR_IO,
                                    "journal unavailable; observe rejected",
                                );
                                REQUEST_NS.record(enqueued.elapsed().as_nanos() as u64);
                                continue;
                            }
                            let journal_key = journal.is_some().then(|| key.clone());
                            let partition = match store.touch(key) {
                                Ok(p) => p,
                                Err(e) => {
                                    ERRORS.incr();
                                    resp.send_error(protocol::ERR_IO, &e.to_string());
                                    REQUEST_NS.record(enqueued.elapsed().as_nanos() as u64);
                                    continue;
                                }
                            };
                            let t = Instant::now();
                            let seq =
                                partition.observe(wait, predicted_bmbp, predicted_lognormal);
                            let handle_ns = t.elapsed().as_nanos() as u64;
                            OBSERVE_NS.record(handle_ns);
                            let rendered = resp.observe(&label, seq);
                            let pending = Some(trace.finish(
                                "observe",
                                label,
                                handle_ns,
                                rendered.len(),
                            ));
                            match (&mut journal, journal_key) {
                                (Some(writer), Some(jkey)) => {
                                    let record = durability::record_for(
                                        &jkey,
                                        seq,
                                        wait,
                                        predicted_bmbp,
                                        predicted_lognormal,
                                    );
                                    let end = writer.append(&record);
                                    if hub.is_some() {
                                        // Cursor: just past this record's
                                        // frame in the writer's current
                                        // segment (rotation happens at
                                        // commit, after the batch).
                                        let id = writer.current_id();
                                        pending_publish.push(TailEvent {
                                            cursor: Cursor {
                                                epoch: id.epoch,
                                                shard: id.shard,
                                                counter: id.counter,
                                                offset: end,
                                            },
                                            record,
                                        });
                                    }
                                    // Ack withheld until this batch commits.
                                    staged.push(Staged::Ack(resp, rendered, pending));
                                }
                                _ => resp.send(&rendered, pending),
                            }
                        }
                        Op::Predict => {
                            let partition = match store.touch(key) {
                                Ok(p) => p,
                                Err(e) => {
                                    ERRORS.incr();
                                    resp.send_error(protocol::ERR_IO, &e.to_string());
                                    REQUEST_NS.record(enqueued.elapsed().as_nanos() as u64);
                                    continue;
                                }
                            };
                            let t = Instant::now();
                            let p = partition.predict();
                            let handle_ns = t.elapsed().as_nanos() as u64;
                            PREDICT_NS.record(handle_ns);
                            let rendered = resp.predict(&label, &p);
                            let pending = Some(trace.finish(
                                "predict",
                                label,
                                handle_ns,
                                rendered.len(),
                            ));
                            if journal.is_some() {
                                staged.push(Staged::Reply(resp, rendered, pending));
                            } else {
                                resp.send(&rendered, pending);
                            }
                        }
                        Op::Admit { budget } => {
                            let partition = match store.touch(key) {
                                Ok(p) => p,
                                Err(e) => {
                                    ERRORS.incr();
                                    resp.send_error(protocol::ERR_IO, &e.to_string());
                                    REQUEST_NS.record(enqueued.elapsed().as_nanos() as u64);
                                    continue;
                                }
                            };
                            let t = Instant::now();
                            let p = partition.predict();
                            let decision =
                                admission::decide(p.bmbp, p.lognormal, p.n as u64, budget);
                            let handle_ns = t.elapsed().as_nanos() as u64;
                            PREDICT_NS.record(handle_ns);
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
                            let rendered = resp.admit(&label, &p, &decision);
                            let pending = Some(trace.finish(
                                "admit",
                                label,
                                handle_ns,
                                rendered.len(),
                            ));
                            // Read-only like predict: staged for reply
                            // ordering under a journal, never for
                            // durability.
                            if journal.is_some() {
                                staged.push(Staged::Reply(resp, rendered, pending));
                            } else {
                                resp.send(&rendered, pending);
                            }
                        }
                    }
                    REQUEST_NS.record(enqueued.elapsed().as_nanos() as u64);
                    // Evict whatever this touch displaced — after the
                    // borrow on the touched partition ends, so even
                    // cap = 0 never evicts the partition an op is using.
                    if let Err(e) = store.enforce_cap() {
                        eprintln!(
                            "qdelay-serve: shard {shard} eviction failed \
                             (partition stays resident): {e}"
                        );
                    }
                }
                ShardMsg::Collect { reply } => {
                    let result = store.collect().map_err(|e| e.to_string());
                    if journal.is_some() {
                        staged.push(Staged::Collected(reply, result));
                    } else {
                        let _ = reply.send(result);
                    }
                }
                ShardMsg::Stats { reply } => {
                    let stats = ShardStats {
                        shard,
                        partitions: store.partition_count(),
                        observations: store.total_observations(),
                        resident: store.resident_count(),
                        hibernated: store.hibernated_count(),
                        spill_bytes: store.spill_disk_bytes(),
                    };
                    if journal.is_some() {
                        staged.push(Staged::Counted(reply, stats));
                    } else {
                        let _ = reply.send(stats);
                    }
                }
                ShardMsg::Apply { records, reply } => {
                    // Replica apply: straight through the recovery ⊕ path,
                    // answered directly (a replica has no journal, so
                    // nothing stages). The store restores hibernated
                    // partitions before applying to them and hibernates
                    // under the same cap a primary would.
                    let result = store.apply(records);
                    let _ = reply.send(result);
                    if let Err(e) = store.enforce_cap() {
                        eprintln!(
                            "qdelay-serve: shard {shard} eviction failed \
                             (partition stays resident): {e}"
                        );
                    }
                }
                ShardMsg::Install { partitions: parts, dead: dead_list, reply } => {
                    let result =
                        store.install_parts(parts, dead_list).map_err(|e| e.to_string());
                    let _ = reply.send(result);
                }
            }
        }
        // Group commit: one write (and at most one fsync) covers every
        // observe of this drain cycle, then the withheld responses are
        // released in arrival order.
        let committed = match journal.as_mut().map(JournalWriter::commit) {
            None | Some(Ok(())) => true,
            Some(Err(e)) => {
                eprintln!(
                    "qdelay-serve: shard {shard} journal commit failed; \
                     fencing observes: {e}"
                );
                // Some prefix of the staged bytes may be on disk (a torn
                // tail for recovery); drop the writer rather than risk
                // re-appending over a partial write.
                fenced = true;
                journal = None;
                false
            }
        };
        if committed {
            if let Some(hub) = &hub {
                if !pending_publish.is_empty() {
                    hub.publish(Arc::new(std::mem::take(&mut pending_publish)));
                }
            }
        } else {
            // Uncommitted records must never reach a replica: their acks
            // are about to be downgraded to errors.
            pending_publish.clear();
        }
        for entry in staged.drain(..) {
            match entry {
                Staged::Ack(resp, rendered, pending) if committed => {
                    resp.send(&rendered, pending)
                }
                Staged::Ack(resp, _, _) => {
                    ERRORS.incr();
                    resp.send_error(
                        protocol::ERR_IO,
                        "journal commit failed; observation not durable",
                    );
                }
                Staged::Reply(resp, rendered, pending) => resp.send(&rendered, pending),
                Staged::Collected(tx, result) => {
                    let _ = tx.send(result);
                }
                Staged::Counted(tx, stats) => {
                    let _ = tx.send(stats);
                }
            }
        }
        // Spill-file compaction between batches, off the request path:
        // a no-op until the garbage ratio trips the threshold.
        if let Err(e) = store.sweep() {
            eprintln!("qdelay-serve: shard {shard} spill compaction failed: {e}");
        }
    }
    if let Some(writer) = journal.take() {
        if let Err(e) = writer.close() {
            eprintln!("qdelay-serve: shard {shard} journal close failed: {e}");
        }
    }
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

/// How many buffered records trigger a flush to the shards mid-stream.
const APPLY_BATCH: usize = 256;

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
        shards: &[ShardHandle],
        cursors: &mut HashMap<(u64, u32), Cursor>,
        ctl: &ReplicaCtl,
    ) -> Result<(), String> {
        if self.buffered == 0 {
            return Ok(());
        }
        let (tx, rx) = mpsc::channel();
        let mut expected = 0usize;
        for (index, buffer) in self.per_shard.iter_mut().enumerate() {
            if buffer.is_empty() {
                continue;
            }
            let records = std::mem::take(buffer);
            shards[index]
                .tx
                .send(ShardMsg::Apply { records, reply: tx.clone() })
                .map_err(|_| "shard event loop gone".to_string())?;
            expected += 1;
        }
        drop(tx);
        let mut applied = 0u64;
        let mut failure = None;
        for _ in 0..expected {
            match rx.recv() {
                Ok(Ok(n)) => applied += n,
                Ok(Err(e)) => failure = Some(e),
                Err(_) => failure = Some("shard event loop gone".into()),
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

/// Decodes a primary snapshot and installs it wholesale into the shards
/// (every shard gets an `Install`, so stale state is cleared even where
/// the snapshot has nothing for it). Empty bytes mean empty state.
fn install_snapshot(shards: &[ShardHandle], bytes: &[u8]) -> Result<(), String> {
    let mut per_shard: Vec<(Vec<(PartitionKey, Partition)>, Vec<(PartitionKey, u64)>)> =
        (0..shards.len()).map(|_| (Vec::new(), Vec::new())).collect();
    if !bytes.is_empty() {
        let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let (snaps, dead) = snapshot::decode(&doc)?;
        for snap in &snaps {
            let key = PartitionKey {
                site: snap.site.clone(),
                queue: snap.queue.clone(),
                range: snap.range,
            };
            let part = Partition::from_snapshot(snap).map_err(|e| e.to_string())?;
            per_shard[key.shard_index(shards.len())].0.push((key, part));
        }
        for d in dead {
            let key = PartitionKey { site: d.site, queue: d.queue, range: d.range };
            per_shard[key.shard_index(shards.len())].1.push((key, d.seq));
        }
    }
    let (tx, rx) = mpsc::channel();
    let mut expected = 0usize;
    for (index, (parts, dead)) in per_shard.into_iter().enumerate() {
        shards[index]
            .tx
            .send(ShardMsg::Install { partitions: parts, dead, reply: tx.clone() })
            .map_err(|_| "shard event loop gone".to_string())?;
        expected += 1;
    }
    drop(tx);
    let mut failure = None;
    for _ in 0..expected {
        match rx.recv() {
            Ok(Ok(())) | Err(_) => {}
            Ok(Err(e)) => failure = Some(e),
        }
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(()),
    }
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
    shards: &[ShardHandle],
    mut client: ReplClient,
    cursors: &mut HashMap<(u64, u32), Cursor>,
    ctl: &ReplicaCtl,
) -> StreamExit {
    let connected_at = Instant::now();
    let mut caught_up = false;
    let mut buffers = ApplyBuffers::new(shards.len());
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
                if buffers.flush(shards, cursors, ctl).is_err() {
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
                if let Err(e) = install_snapshot(shards, &bytes) {
                    eprintln!("qdelay-serve: replicated snapshot rejected ({e}); full resync");
                    return StreamExit::Resync;
                }
            }
            Some(Msg::Record { cursor, record }) => {
                if let Err(e) = buffers.push(cursor, record) {
                    eprintln!("qdelay-serve: replicated record rejected ({e}); full resync");
                    return StreamExit::Resync;
                }
                if buffers.buffered >= APPLY_BATCH {
                    if let Err(e) = buffers.flush(shards, cursors, ctl) {
                        eprintln!("qdelay-serve: replica apply failed ({e}); full resync");
                        return StreamExit::Resync;
                    }
                }
            }
            Some(Msg::CaughtUp) => {
                if let Err(e) = buffers.flush(shards, cursors, ctl) {
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
                if let Err(e) = buffers.flush(shards, cursors, ctl) {
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
fn replica_loop(shared: Arc<Shared>, shards: Vec<ShardHandle>, primary: String) {
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
                match run_stream(&shared, &shards, client, &mut cursors, ctl) {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Spawns real shard loops with synthetic registries: shard `i` owns
    /// `i + 1` partitions with distinct observation counts.
    fn spawn_test_shards(count: usize) -> (Vec<ShardHandle>, Vec<JoinHandle<()>>) {
        let mut shards = Vec::new();
        let mut joins = Vec::new();
        for i in 0..count {
            let mut initial = Vec::new();
            for j in 0..=i {
                let key = PartitionKey::for_request(&format!("site-{i}-{j}"), "batch", 4);
                let mut part = Partition::default();
                for k in 0..(5 * (i + j + 1)) {
                    part.observe(k as f64 * 3.0, None, None);
                }
                initial.push((key, part));
            }
            let mut store = PartitionStore::new(None, None).unwrap();
            store.install_parts(initial, Vec::new()).unwrap();
            let (tx, rx) = mpsc::sync_channel(64);
            let depth = Arc::new(AtomicU64::new(0));
            let loop_depth = Arc::clone(&depth);
            joins.push(std::thread::spawn(move || {
                shard_loop(i, rx, loop_depth, store, None, None)
            }));
            shards.push(ShardHandle { tx, depth });
        }
        (shards, joins)
    }

    #[test]
    fn parallel_stats_fanout_matches_serial_byte_for_byte() {
        let (shards, joins) = spawn_test_shards(4);
        let parallel = stats_payload(&gather_stats(&shards, false), &shards);
        let serial = stats_payload(&gather_stats(&shards, true), &shards);
        assert_eq!(
            Json::Obj(parallel.clone()).to_string_compact(),
            Json::Obj(serial).to_string_compact(),
            "fan-out merge must be order-independent"
        );
        // Sanity on the merged totals: 1 + 2 + 3 + 4 partitions.
        let partitions = parallel
            .iter()
            .find(|(k, _)| k == "partitions")
            .and_then(|(_, v)| match v {
                Json::Num(n) => Some(*n as usize),
                _ => None,
            })
            .unwrap();
        assert_eq!(partitions, 10);
        drop(shards);
        for j in joins {
            j.join().unwrap();
        }
    }
}
