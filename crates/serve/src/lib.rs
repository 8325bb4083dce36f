//! # qdelay-serve
//!
//! A sharded online prediction service over the paper's predictors: the
//! piece that turns the library into infrastructure a scheduler, portal, or
//! meta-scheduler can query live ("will my job start within an hour, with
//! 95% confidence?").
//!
//! Entirely first-party: `std::net` TCP carrying one request model in two
//! codecs — newline-delimited JSON ([`protocol`]) and CRC-framed binary
//! ([`proto`]) — served by one epoll I/O loop per shard ([`event_loop`],
//! Linux only) with one [`dispatch`] that executes a request on the thread
//! that read it; a registry of `(site, queue, proc-range)` partitions
//! sharded across mutex-held shards ([`registry`], `shard`), a reply
//! budget per connection, and versioned warm-restart snapshots
//! ([`snapshot`]) built on [`qdelay_predict::state`] — a restarted server
//! continues serving bit-identical bounds.
//!
//! With a [`durability::JournalConfig`], the server additionally keeps a
//! `qdelay-journal` write-ahead log: every `observe` is journaled before it
//! is acknowledged (group-committed per loop wakeup), segments rotate and a
//! background compactor writes what the shards hold as the snapshot and
//! deletes the sealed ones, and boot
//! recovery (`snapshot ⊕ journal`, torn tails truncated) reconstructs
//! bit-identical predictor state even after `kill -9` at an arbitrary byte.
//!
//! ## Quickstart
//!
//! ```
//! use qdelay_serve::{client::Client, server::{Server, ServerConfig}};
//!
//! let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! for i in 0..100 {
//!     client.observe("datastar", "normal", 4, f64::from(i % 40) * 30.0, None, None).unwrap();
//! }
//! let p = client.predict("datastar", "normal", 4).unwrap();
//! assert!(p.bmbp.is_some(), "100 observations are enough for 95/95");
//! client.shutdown().unwrap();
//! server.join().unwrap();
//! ```
//!
//! ## Telemetry and observability
//!
//! The service publishes `serve.*` instruments through `qdelay-telemetry`:
//! request/error counters, the requests-per-wakeup and loop-busy-time
//! distributions, and per-request latency histograms (`serve.request_ns`
//! measures decoded-to-rendered inside the server; `serve.predict_ns` /
//! `serve.observe_ns` isolate the work under the shard lock: the store's
//! lookup or restore, the predictor, the eviction). On top of that sits a live
//! observability plane ([`tracing`]): per-request stage tracing feeding
//! `serve.stage.*` histograms per protocol, a flight recorder of
//! recent/slow requests, and `metrics`/`trace` wire methods on both
//! protocols — all diagnostic-only and compiled to zero-sized no-ops
//! without the `tracing` feature.

pub mod client;
pub mod dispatch;
pub mod durability;
pub mod event_loop;
pub mod hibernate;
pub mod proto;
pub mod protocol;
pub mod registry;
mod replica;
pub mod server;
mod shard;
pub mod snapshot;
pub mod sys;
pub mod tracing;

use qdelay_telemetry::{Counter, Gauge, LatencyHistogram};

/// Requests accepted (parsed and validated; errors are counted separately).
pub(crate) static REQUESTS: Counter = Counter::new("serve.requests");
/// Error replies of any kind (parse, bad request, io).
pub(crate) static ERRORS: Counter = Counter::new("serve.errors");
/// JSON lines the flat scan declined and the tree parser read instead: a
/// nested `id` or member, or malformed input. No bundled client sends
/// either, so on a healthy data plane this stands still — a rise is a
/// client paying the slow path, or sending garbage.
pub(crate) static JSON_TREE_LINES: Counter = Counter::new("serve.json.tree_lines");
/// Data-plane requests executed per loop wakeup (what one group commit
/// covers on a journaling server).
pub(crate) static BATCH_SIZE: LatencyHistogram = LatencyHistogram::new("serve.batch_size");
/// One loop wakeup, `epoll_wait` return to flush done: how long every
/// other connection of that loop waited, fsyncs included.
pub(crate) static LOOP_BUSY_NS: LatencyHistogram = LatencyHistogram::new("serve.loop.busy_ns");
/// Decoded-to-rendered latency of observe/predict/admit requests (shard
/// lock wait included, group-commit wait not).
pub(crate) static REQUEST_NS: LatencyHistogram = LatencyHistogram::new("serve.request_ns");
/// A predict or admit under the shard lock: the store's lookup (or
/// restore), refit-if-dirty + bound reads, and any eviction it displaced.
pub(crate) static PREDICT_NS: LatencyHistogram = LatencyHistogram::new("serve.predict_ns");
/// An observe under the shard lock: the store's lookup (or restore),
/// feedback + history pushes, journal staging, and any eviction.
pub(crate) static OBSERVE_NS: LatencyHistogram = LatencyHistogram::new("serve.observe_ns");
/// Connections accepted over the server's lifetime.
pub(crate) static CONNECTIONS: Counter = Counter::new("serve.connections");
/// Binary-listener connections accepted (also counted in
/// `serve.connections`).
pub(crate) static BIN_CONNECTIONS: Counter = Counter::new("serve.bin_connections");
/// Connections force-closed because their unflushed replies stayed over budget.
pub(crate) static SLOW_DISCONNECTS: Counter = Counter::new("serve.slow_disconnects");
/// Snapshots taken (inline, to file, or at shutdown).
pub(crate) static SNAPSHOTS: Counter = Counter::new("serve.snapshots");
/// Admission checks answered `admit` (bound fit the budget).
pub(crate) static ADMIT_ADMITTED: Counter = Counter::new("serve.admit.admitted");
/// Admission checks answered `reject` (bound exceeded the budget).
pub(crate) static ADMIT_REJECTED: Counter = Counter::new("serve.admit.rejected");
/// Admission checks answered `defer` (no bound served yet).
pub(crate) static ADMIT_DEFERRED: Counter = Counter::new("serve.admit.deferred");
/// |bound − budget| of every decided (non-defer) admission check, in whole
/// wait-units — how close to the line traffic is running.
pub(crate) static ADMIT_MARGIN: LatencyHistogram = LatencyHistogram::new("serve.admit.margin");
/// Partitions currently resident in memory, summed across shards.
pub(crate) static HIBERNATE_RESIDENT: Gauge = Gauge::new("serve.hibernate.resident");
/// Partitions currently hibernated to spill files, summed across shards.
pub(crate) static HIBERNATE_HIBERNATED: Gauge = Gauge::new("serve.hibernate.hibernated");
/// Bytes on disk across all shards' spill files (live + garbage).
pub(crate) static HIBERNATE_DISK_BYTES: Gauge = Gauge::new("serve.hibernate.disk_bytes");
/// Partitions restored from a spill file on touch.
pub(crate) static HIBERNATE_RESTORES: Counter = Counter::new("serve.hibernate.restores");
/// Questions (predict, admit) about a hibernated partition answered from
/// the index — the answer it was serving when it left memory — with no
/// restore. With `restores` it splits cold traffic into reads and writes.
pub(crate) static HIBERNATE_INDEX_ANSWERS: Counter =
    Counter::new("serve.hibernate.index_answers");
/// Partitions evicted (serialized to a spill file and dropped from memory).
pub(crate) static HIBERNATE_EVICTIONS: Counter = Counter::new("serve.hibernate.evictions");
/// Spill-file compaction passes (garbage ratio exceeded the threshold).
pub(crate) static HIBERNATE_SPILL_COMPACTIONS: Counter =
    Counter::new("serve.hibernate.spill_compactions");
/// Wall time of one spill-file restore (read + CRC check + refit).
pub(crate) static HIBERNATE_RESTORE_NS: LatencyHistogram =
    LatencyHistogram::new("serve.hibernate.restore_ns");
/// Wall time of one eviction (serialize + spill append + index update).
pub(crate) static HIBERNATE_EVICT_NS: LatencyHistogram =
    LatencyHistogram::new("serve.hibernate.evict_ns");
