//! The server: configuration, start and teardown.
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
//! [`crate::event_loop`] runs one I/O thread per shard and executes a
//! request on the loop that read it ([`crate::dispatch`]); a shard is a
//! lock, not a thread, and every path by which state crosses into or out
//! of the shards is in [`crate::shard`]. `--shards` sets both counts.
//!
//! [`Server::start`] builds the shards without journals and boots them
//! (`state = snapshot ⊕ journal`, [`durability::boot`]), attaches one
//! `qdelay-journal` writer per shard at the recovered epoch, binds the
//! listeners, and spawns the loops, the metrics sampler and, as configured,
//! the compactor ([`durability::compactor_loop`]), the replication listener
//! (`repl_addr`, which needs a journal: the WAL is the replication log) and
//! the replica apply thread (`replicate_from`, [`crate::replica`]).
//!
//! [`Server::join`] reaps the loops, the sampler and the apply thread —
//! after which nothing else takes a shard lock — closes each journal writer
//! (commit + sync), which lets the compactor drain and exit, and persists
//! the final state to the journal directory and `snapshot_path` through the
//! one writer ([`crate::shard::persist`]). A fenced shard (its group commit
//! failed) refuses that persist: the directory keeps its snapshot and
//! segments for the next boot's recovery, and `join` returns the error
//! naming the shard.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::durability::{self, JournalConfig};
use crate::event_loop::{self, LoopPort};
use crate::hibernate::PartitionStore;
use crate::replica::{self, ReplicaCtl};
use crate::shard::{self, Shard};
use crate::tracing::{FlightRecorder, MetricsHub};
use crate::SNAPSHOTS;
use qdelay_journal::{self as journal, JournalWriter, SealedSegment};
use qdelay_repl::{PrimaryConfig, ReplHub, ReplListener};

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

/// State shared by the I/O loops, the replica apply thread and the
/// [`Server`] handle.
pub(crate) struct Shared {
    pub(crate) shutdown: AtomicBool,
    local_addr: SocketAddr,
    /// The binary listener's bound address, when configured.
    binary_addr: Option<SocketAddr>,
    pub(crate) config: ServerConfig,
    /// The shards, indexed by [`crate::registry::PartitionKey::shard_index`].
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

impl Shared {
    pub(crate) fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            for port in &self.loops {
                port.wake();
            }
        }
    }

    pub(crate) fn shard(&self, index: usize) -> MutexGuard<'_, Shard> {
        shard::lock(&self.shards[index])
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

        // Replication fan-out hub: shards publish committed batches into
        // it, replica connections subscribe.
        let repl_hub: Option<Arc<ReplHub>> =
            config.repl_addr.as_ref().map(|_| Arc::new(ReplHub::new()));

        // Boot: state = snapshot ⊕ journal, into one capacity-managed store
        // per shard, through the shards' own install and replay before any
        // journal writer exists (under a cap, the cold tail of the install
        // hibernates without a refit). Nothing is warmed first: the tables a
        // partition reads are committed constants (the change-point
        // thresholds and the 95/95 K' factors) or built by the first
        // partition in ~0.15 ms (the bound-index table).
        let mut shards = (0..config.shards)
            .map(|index| {
                let spill_path =
                    spill_dir.as_ref().map(|dir| dir.join(format!("spill-{index:04}.qds")));
                let store = PartitionStore::new(config.max_resident, spill_path)?;
                Ok(Mutex::new(Shard::new(index, store, repl_hub.clone())))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let snapshot_path = config.snapshot_path.as_deref();
        let journal_epoch = durability::boot(&shards, snapshot_path, config.journal.as_ref())?;
        // Then the writers, at the recovered epoch. They hold the only
        // senders of the sealed-segment channel, so the compactor exits
        // exactly when the last writer is closed.
        let mut sealed_rx = None;
        if let (Some(jcfg), Some(epoch)) = (&config.journal, journal_epoch) {
            let (tx, rx) = mpsc::channel::<SealedSegment>();
            for (index, shard) in shards.iter_mut().enumerate() {
                let writer = JournalWriter::open(
                    &jcfg.dir,
                    epoch,
                    index as u32,
                    jcfg.segment_bytes,
                    jcfg.fsync,
                    Some(tx.clone()),
                )
                .map_err(durability::journal_to_io)?;
                shard.get_mut().expect("no thread holds a shard yet").journal = Some(writer);
            }
            sealed_rx = Some(rx);
        }

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
            replica: is_replica.then(ReplicaCtl::default),
        });
        let compactor = match (sealed_rx, &shared.config.journal) {
            (Some(rx), Some(jcfg)) => {
                let (dir, threshold) = (jcfg.dir.clone(), jcfg.compact_bytes);
                let (shards, hub) = (Arc::downgrade(&shared), repl_hub.clone());
                Some(std::thread::spawn(move || {
                    durability::compactor_loop(rx, shards, dir, threshold, hub)
                }))
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
                    .spawn(move || replica::replica_loop(loop_shared, primary))?,
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
        replica::promote(&self.shared).map_err(|e| e.to_string())
    }

    /// Begins graceful shutdown; returns immediately. Call [`Server::join`]
    /// to wait for completion.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until shutdown is requested (by [`Server::shutdown`] or a
    /// client `shutdown` request), then tears down connections, closes the
    /// journals, and persists the final state to the journal directory and
    /// the snapshot file, where configured. A fenced shard fails that
    /// persist, named in the error, and leaves the journal directory as it
    /// was for the next boot to recover.
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
        // Each journaling shard commits and syncs its writer on the way
        // out. The sealed-segment senders die with the writers, so the
        // compactor drains and exits; join it before touching the journal
        // directory so no compaction races the final snapshot.
        for index in 0..self.shared.shards.len() {
            if let Some(writer) = self.shared.shard(index).journal.take() {
                if let Err(e) = writer.close() {
                    eprintln!("qdelay-serve: shard {index} journal close failed: {e}");
                }
            }
        }
        if let Some(compactor) = self.compactor.take() {
            let _ = compactor.join();
        }
        // Graceful-shutdown consolidation, through the one writer: the
        // journal directory's snapshot is replaced and every segment
        // deleted, so the next boot replays nothing, and `snapshot_path`
        // gets the same bytes. Hibernated partitions are decoded off the
        // spill files without being restored, so a capped shutdown costs
        // reads, not refits. A fenced shard refuses it: the directory keeps
        // its snapshot and segments for boot recovery, and the error names
        // the shard.
        let dir = self.shared.config.journal.as_ref().map(|j| j.dir.as_path());
        let file = self.shared.config.snapshot_path.as_deref();
        if dir.is_none() && file.is_none() {
            return Ok(());
        }
        // A replica connection still catching up holds the hub's compaction
        // lock across its disk scan; wait for it rather than deleting
        // segments out from under the scan.
        let _guard = self.repl_hub.as_ref().map(|h| h.pause_compaction());
        let segments: Vec<PathBuf> = dir
            .and_then(|dir| journal::scan_dir(dir).ok())
            .map(|v| v.into_iter().map(|(_, path)| path).collect())
            .unwrap_or_default();
        shard::persist(&self.shared.shards, dir.map(|dir| (dir, segments.as_slice())), file)?;
        SNAPSHOTS.add(u64::from(dir.is_some()) + u64::from(file.is_some()));
        Ok(())
    }
}
