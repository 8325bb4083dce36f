//! The live observability plane: per-request stage tracing, the flight
//! recorder, and the metrics hub.
//!
//! A request passes through distinct stages, all on the I/O loop that read
//! it — decode (frame/JSON parse), queue (decoded until the owning shard's
//! lock is held: what another loop's operation or fsync on that shard
//! costs this request), handle (lock held until the result is in hand: the
//! store's lookup — or its restore of a hibernated partition — the
//! predictor call, an observe's journal staging, and the eviction the touch
//! displaced), reply (rendered until written, the group-commit wait
//! included) — and an aggregate `serve.request_ns` histogram cannot say
//! which one a p99 spike lives in. Everything done under the shard lock is
//! the handle stage's, so the four stages account for what a request cost
//! the shard and a slow restore can cross the slow-ring threshold.
//! [`ReqTrace`] rides each request through both wire protocols, stamping
//! monotonic timestamps at the stage boundaries; completed records feed
//! per-protocol `serve.stage.*` histograms and the [`FlightRecorder`]: a
//! fixed-depth per-shard ring of recent requests plus a threshold-promoted
//! ring of slow ones, dumpable live over the wire (`trace` method).
//!
//! Everything here is diagnostic-only: trace records never enter
//! snapshots, the journal, or any deterministic reply payload, and with
//! the `tracing` feature off the whole plane compiles to zero-sized
//! no-ops (pinned by tests below), mirroring `qdelay-telemetry`'s
//! disabled mode. The hot-path cost with it on is four `Instant::now()`
//! reads and one ring store of a few relaxed atomics per request.

use qdelay_json::Json;
use qdelay_telemetry::Snapshot;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Protocol tag for requests cut by the newline framer (JSON listener).
pub(crate) const PROTO_JSON: &str = "json";
/// Protocol tag for requests cut by the frame framer (binary listener).
pub(crate) const PROTO_BIN: &str = "binary";

/// Most entries of each kind a `trace` wire reply will carry; the rings
/// can hold more (shards × depth), but a dump is a diagnostic peek, not a
/// bulk export, and must stay well under the client's line limit.
const DUMP_CAP: usize = 128;

/// A completed request's stage breakdown. Plain data in both feature
/// modes; with tracing off none are ever produced, so dumps are empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Recorder-assigned completion sequence (global, monotonic).
    pub seq: u64,
    /// Owning shard index.
    pub shard: u32,
    /// [`PROTO_JSON`] or [`PROTO_BIN`].
    pub protocol: &'static str,
    /// `"observe"`, `"predict"` or `"admit"` (only shard ops are traced).
    pub method: &'static str,
    /// Partition label, `site/queue/procs`.
    pub partition: String,
    /// Request size on the wire (JSON line or binary frame payload).
    pub req_bytes: u32,
    /// Reply size on the wire (line + newline, or full frame).
    pub resp_bytes: u32,
    /// Wire bytes to the typed, validated request, on either codec
    /// (read-blocking excluded).
    pub decode_ns: u64,
    /// Decoded until the owning shard's lock is held.
    pub queue_ns: u64,
    /// Everything under the shard lock: store lookup or restore, the
    /// predictor call, journal staging, eviction.
    pub handle_ns: u64,
    /// Rendered until written to the socket (group-commit wait included).
    pub reply_ns: u64,
}

impl TraceEntry {
    /// Sum of the stage latencies — the traced portion of the request's
    /// server-side life.
    pub fn total_ns(&self) -> u64 {
        self.decode_ns + self.queue_ns + self.handle_ns + self.reply_ns
    }

    /// Renders the entry for the `trace` wire reply.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seq".to_string(), Json::Num(self.seq as f64)),
            ("shard".to_string(), Json::Num(f64::from(self.shard))),
            ("protocol".to_string(), Json::Str(self.protocol.to_string())),
            ("method".to_string(), Json::Str(self.method.to_string())),
            ("partition".to_string(), Json::Str(self.partition.clone())),
            ("req_bytes".to_string(), Json::Num(f64::from(self.req_bytes))),
            ("resp_bytes".to_string(), Json::Num(f64::from(self.resp_bytes))),
            ("decode_ns".to_string(), Json::Num(self.decode_ns as f64)),
            ("queue_ns".to_string(), Json::Num(self.queue_ns as f64)),
            ("handle_ns".to_string(), Json::Num(self.handle_ns as f64)),
            ("reply_ns".to_string(), Json::Num(self.reply_ns as f64)),
            ("total_ns".to_string(), Json::Num(self.total_ns() as f64)),
        ])
    }
}

/// What [`FlightRecorder::dump`] hands back for the `trace` wire method.
pub struct RecorderDump {
    /// Recent completed requests across all shards, oldest first.
    pub recent: Vec<TraceEntry>,
    /// Threshold-promoted slow requests, oldest first.
    pub slow: Vec<TraceEntry>,
    /// Ring stores skipped because a reader held the slot (never blocks
    /// the request path).
    pub dropped: u64,
    /// The promotion threshold the recorder was built with (0 = off).
    pub slow_threshold_ns: u64,
}

#[cfg(feature = "tracing")]
mod stage_stats {
    use qdelay_telemetry::{Counter, LatencyHistogram};

    pub(crate) static JSON_DECODE_NS: LatencyHistogram =
        LatencyHistogram::new("serve.stage.json.decode_ns");
    pub(crate) static JSON_QUEUE_NS: LatencyHistogram =
        LatencyHistogram::new("serve.stage.json.queue_ns");
    pub(crate) static JSON_HANDLE_NS: LatencyHistogram =
        LatencyHistogram::new("serve.stage.json.handle_ns");
    pub(crate) static JSON_REPLY_NS: LatencyHistogram =
        LatencyHistogram::new("serve.stage.json.reply_ns");
    pub(crate) static BIN_DECODE_NS: LatencyHistogram =
        LatencyHistogram::new("serve.stage.bin.decode_ns");
    pub(crate) static BIN_QUEUE_NS: LatencyHistogram =
        LatencyHistogram::new("serve.stage.bin.queue_ns");
    pub(crate) static BIN_HANDLE_NS: LatencyHistogram =
        LatencyHistogram::new("serve.stage.bin.handle_ns");
    pub(crate) static BIN_REPLY_NS: LatencyHistogram =
        LatencyHistogram::new("serve.stage.bin.reply_ns");
    /// Requests promoted to the slow ring.
    pub(crate) static SLOW: Counter = Counter::new("serve.trace.slow");
    /// Ring stores skipped because the slot was held by a dump.
    pub(crate) static DROPPED: Counter = Counter::new("serve.trace.dropped");
}

#[cfg(feature = "tracing")]
mod imp {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// An in-flight request's stage stamps. Created at decode, turned into
    /// a [`PendingTrace`] when the reply is rendered.
    #[derive(Debug)]
    pub(crate) struct ReqTrace {
        protocol: &'static str,
        started: Instant,
        decode_ns: u64,
        req_bytes: u32,
        shard: u32,
        routed: Instant,
        queue_ns: u64,
    }

    impl ReqTrace {
        /// Starts the decode clock: the frame's payload decode, or the
        /// line's UTF-8 check and JSON parse, runs after this.
        pub(crate) fn begin(protocol: &'static str) -> Self {
            let now = Instant::now();
            ReqTrace {
                protocol,
                started: now,
                decode_ns: 0,
                req_bytes: 0,
                shard: 0,
                routed: now,
                queue_ns: 0,
            }
        }

        /// Stamps decode completion.
        pub(crate) fn decoded(&mut self, req_bytes: usize) {
            self.decode_ns = self.started.elapsed().as_nanos() as u64;
            self.req_bytes = clamp_u32(req_bytes);
        }

        /// Opens the queue stage on the owning shard; `at` is the instant
        /// dispatch already read for `serve.request_ns`.
        pub(crate) fn routed(&mut self, shard: usize, at: Instant) {
            self.shard = shard as u32;
            self.routed = at;
        }

        /// Stamps the shard lock's acquisition, closing the queue stage.
        pub(crate) fn locked(&mut self) {
            self.queue_ns = self.routed.elapsed().as_nanos() as u64;
        }

        /// Closes the handle stage and seals the record; the reply stage
        /// starts now, at render ([`PendingTrace::mark_sent`]).
        pub(crate) fn finish(
            self,
            method: &'static str,
            partition: String,
            handle_ns: u64,
            resp_bytes: usize,
        ) -> PendingTrace {
            PendingTrace {
                entry: TraceEntry {
                    seq: 0,
                    shard: self.shard,
                    protocol: self.protocol,
                    method,
                    partition,
                    req_bytes: self.req_bytes,
                    resp_bytes: clamp_u32(resp_bytes),
                    decode_ns: self.decode_ns,
                    queue_ns: self.queue_ns,
                    handle_ns,
                    reply_ns: 0,
                },
                sent: None,
            }
        }
    }

    fn clamp_u32(n: usize) -> u32 {
        n.min(u32::MAX as usize) as u32
    }

    /// A sealed trace awaiting its reply-write completion stamp.
    #[derive(Debug)]
    pub(crate) struct PendingTrace {
        entry: TraceEntry,
        sent: Option<Instant>,
    }

    impl PendingTrace {
        /// Stamps the rendered instant (first call wins: a reply held for
        /// its group commit keeps the clock it was rendered on).
        pub(crate) fn mark_sent(&mut self) {
            if self.sent.is_none() {
                self.sent = Some(Instant::now());
            }
        }

        fn into_entry(self, completed: Instant) -> TraceEntry {
            let mut entry = self.entry;
            entry.reply_ns = self
                .sent
                .map(|s| completed.saturating_duration_since(s).as_nanos() as u64)
                .unwrap_or(0);
            entry
        }
    }

    /// One fixed-depth ring of trace entries. Writers claim a slot with a
    /// relaxed `fetch_add` and store under `try_lock` — if a dump happens
    /// to hold that slot the store is *dropped*, never blocked, so the
    /// request path cannot stall on an observer.
    struct Ring {
        slots: Box<[Mutex<Option<TraceEntry>>]>,
        head: AtomicU64,
        dropped: AtomicU64,
    }

    impl Ring {
        fn new(depth: usize) -> Ring {
            Ring {
                slots: (0..depth.max(1)).map(|_| Mutex::new(None)).collect(),
                head: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }
        }

        fn push(&self, entry: TraceEntry) {
            let slot = (self.head.fetch_add(1, Ordering::Relaxed) as usize) % self.slots.len();
            match self.slots[slot].try_lock() {
                Ok(mut guard) => *guard = Some(entry),
                Err(_) => {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    stage_stats::DROPPED.incr();
                }
            }
        }

        fn dump_into(&self, out: &mut Vec<TraceEntry>) {
            for slot in self.slots.iter() {
                if let Ok(guard) = slot.lock() {
                    if let Some(entry) = guard.as_ref() {
                        out.push(entry.clone());
                    }
                }
            }
        }

        fn dropped(&self) -> u64 {
            self.dropped.load(Ordering::Relaxed)
        }
    }

    /// Per-shard recent rings plus one global slow ring. See module docs.
    pub(crate) struct FlightRecorder {
        recent: Vec<Ring>,
        slow: Ring,
        slow_threshold_ns: u64,
        seq: AtomicU64,
    }

    impl FlightRecorder {
        /// `slow_threshold_ns == 0` disables slow promotion.
        pub(crate) fn new(shards: usize, depth: usize, slow_threshold_ns: u64) -> FlightRecorder {
            FlightRecorder {
                recent: (0..shards.max(1)).map(|_| Ring::new(depth)).collect(),
                slow: Ring::new(depth),
                slow_threshold_ns,
                seq: AtomicU64::new(0),
            }
        }

        /// Records a completed request: stage histograms, slow promotion,
        /// recent ring.
        pub(crate) fn record(&self, mut entry: TraceEntry) {
            entry.seq = self.seq.fetch_add(1, Ordering::Relaxed);
            let (decode, queue, handle, reply) = if entry.protocol == PROTO_BIN {
                (
                    &stage_stats::BIN_DECODE_NS,
                    &stage_stats::BIN_QUEUE_NS,
                    &stage_stats::BIN_HANDLE_NS,
                    &stage_stats::BIN_REPLY_NS,
                )
            } else {
                (
                    &stage_stats::JSON_DECODE_NS,
                    &stage_stats::JSON_QUEUE_NS,
                    &stage_stats::JSON_HANDLE_NS,
                    &stage_stats::JSON_REPLY_NS,
                )
            };
            decode.record(entry.decode_ns);
            queue.record(entry.queue_ns);
            handle.record(entry.handle_ns);
            reply.record(entry.reply_ns);
            if self.slow_threshold_ns > 0 && entry.total_ns() >= self.slow_threshold_ns {
                stage_stats::SLOW.incr();
                self.slow.push(entry.clone());
            }
            self.recent[(entry.shard as usize) % self.recent.len()].push(entry);
        }

        /// Completes a batch of pending traces against one clock read
        /// (the I/O loop calls this after each flush).
        pub(crate) fn complete_all(&self, batch: impl ExactSizeIterator<Item = PendingTrace>) {
            if batch.len() == 0 {
                return;
            }
            let now = Instant::now();
            for pending in batch {
                self.record(pending.into_entry(now));
            }
        }

        /// Snapshots both rings, oldest-first by completion sequence.
        pub(crate) fn dump(&self) -> RecorderDump {
            let mut recent = Vec::new();
            for ring in &self.recent {
                ring.dump_into(&mut recent);
            }
            recent.sort_by_key(|e| e.seq);
            let mut slow = Vec::new();
            self.slow.dump_into(&mut slow);
            slow.sort_by_key(|e| e.seq);
            let dropped =
                self.recent.iter().map(Ring::dropped).sum::<u64>() + self.slow.dropped();
            RecorderDump {
                recent,
                slow,
                dropped,
                slow_threshold_ns: self.slow_threshold_ns,
            }
        }
    }
}

#[cfg(not(feature = "tracing"))]
mod imp {
    use super::*;

    /// Zero-sized stand-in: every stamp is a no-op and no clock is read.
    #[derive(Debug)]
    pub(crate) struct ReqTrace;

    impl ReqTrace {
        pub(crate) fn begin(_protocol: &'static str) -> Self {
            ReqTrace
        }

        pub(crate) fn decoded(&mut self, _req_bytes: usize) {}

        pub(crate) fn routed(&mut self, _shard: usize, _at: Instant) {}

        pub(crate) fn locked(&mut self) {}

        pub(crate) fn finish(
            self,
            _method: &'static str,
            _partition: String,
            _handle_ns: u64,
            _resp_bytes: usize,
        ) -> PendingTrace {
            PendingTrace
        }
    }

    /// Zero-sized stand-in for the sealed trace.
    #[derive(Debug)]
    pub(crate) struct PendingTrace;

    impl PendingTrace {
        pub(crate) fn mark_sent(&mut self) {}
    }

    /// Zero-sized recorder: nothing is stored, dumps are empty.
    pub(crate) struct FlightRecorder;

    impl FlightRecorder {
        pub(crate) fn new(_shards: usize, _depth: usize, _slow_threshold_ns: u64) -> FlightRecorder {
            FlightRecorder
        }

        pub(crate) fn complete_all(&self, batch: impl ExactSizeIterator<Item = PendingTrace>) {
            batch.for_each(drop);
        }

        pub(crate) fn dump(&self) -> RecorderDump {
            RecorderDump {
                recent: Vec::new(),
                slow: Vec::new(),
                dropped: 0,
                slow_threshold_ns: 0,
            }
        }
    }
}

pub(crate) use imp::{FlightRecorder, PendingTrace, ReqTrace};

/// Renders the `trace` wire reply's fields from a recorder dump. Both
/// rings are capped at [`DUMP_CAP`] newest entries (totals reported
/// alongside) so the reply stays one sane-sized JSON line.
pub(crate) fn trace_fields(recorder: &FlightRecorder) -> Vec<(String, Json)> {
    let dump = recorder.dump();
    let tail_json = |entries: &[TraceEntry]| {
        let skip = entries.len().saturating_sub(DUMP_CAP);
        Json::Arr(entries[skip..].iter().map(TraceEntry::to_json).collect())
    };
    vec![
        (
            "slow_threshold_us".to_string(),
            Json::Num((dump.slow_threshold_ns / 1_000) as f64),
        ),
        ("dropped".to_string(), Json::Num(dump.dropped as f64)),
        (
            "recent_total".to_string(),
            Json::Num(dump.recent.len() as f64),
        ),
        ("slow_total".to_string(), Json::Num(dump.slow.len() as f64)),
        ("recent".to_string(), tail_json(&dump.recent)),
        ("slow".to_string(), tail_json(&dump.slow)),
    ]
}

/// Most telemetry samples the hub retains; at the default 1 s interval
/// that is about a minute of history for rate windows.
const METRICS_RING_CAP: usize = 64;

/// Periodic in-process snapshotter behind the `metrics` wire method: a
/// background thread samples the telemetry registry on an interval into a
/// short ring, and [`report`](MetricsHub::report) computes per-second
/// rates from the last two samples. Works in every feature combination —
/// with telemetry disabled the snapshots are simply empty.
pub(crate) struct MetricsHub {
    started: Instant,
    interval: Duration,
    ring: Mutex<Vec<(Instant, Snapshot)>>,
}

impl MetricsHub {
    /// Builds the hub with one immediate sample (so a `metrics` call right
    /// after boot already has a baseline).
    pub(crate) fn new(interval: Duration) -> Arc<MetricsHub> {
        let hub = Arc::new(MetricsHub {
            started: Instant::now(),
            interval,
            ring: Mutex::new(Vec::new()),
        });
        hub.tick();
        hub
    }

    /// Takes one sample now, evicting the oldest past the ring cap.
    pub(crate) fn tick(&self) {
        let snap = qdelay_telemetry::snapshot();
        let mut ring = self.ring.lock().unwrap();
        if ring.len() >= METRICS_RING_CAP {
            ring.remove(0);
        }
        ring.push((Instant::now(), snap));
    }

    /// Milliseconds since the hub (= the server) started.
    pub(crate) fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Spawns the sampling thread. Dropping the returned sender (or
    /// sending on it) stops the thread at its next wakeup.
    pub(crate) fn spawn(self: &Arc<Self>) -> (mpsc::Sender<()>, std::thread::JoinHandle<()>) {
        let hub = Arc::clone(self);
        let interval = self.interval;
        let (tx, rx) = mpsc::channel::<()>();
        let join = std::thread::Builder::new()
            .name("qdelay-metrics".to_string())
            .spawn(move || loop {
                match rx.recv_timeout(interval) {
                    Err(RecvTimeoutError::Timeout) => hub.tick(),
                    Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                }
            })
            .expect("spawn metrics thread");
        (tx, join)
    }

    /// Renders the `metrics` wire reply's fields: uptime, sampling state,
    /// per-second rates over the latest interval, and a fresh full
    /// snapshot.
    pub(crate) fn report(&self) -> Vec<(String, Json)> {
        let current = qdelay_telemetry::snapshot();
        let (samples, window_ms, rates) = {
            let ring = self.ring.lock().unwrap();
            if ring.len() >= 2 {
                let (t1, s1) = &ring[ring.len() - 2];
                let (t2, s2) = &ring[ring.len() - 1];
                let dt = t2.duration_since(*t1);
                (
                    ring.len(),
                    dt.as_millis() as u64,
                    s2.rates_since(s1, dt.as_secs_f64()),
                )
            } else {
                (ring.len(), 0, Vec::new())
            }
        };
        let rates_json = rates
            .into_iter()
            .map(|(name, rate)| (name, Json::Num((rate * 1000.0).round() / 1000.0)))
            .collect();
        vec![
            ("uptime_ms".to_string(), Json::Num(self.uptime_ms() as f64)),
            (
                "interval_ms".to_string(),
                Json::Num(self.interval.as_millis() as f64),
            ),
            ("samples".to_string(), Json::Num(samples as f64)),
            ("window_ms".to_string(), Json::Num(window_ms as f64)),
            ("rates".to_string(), Json::Obj(rates_json)),
            ("current".to_string(), current.to_json()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(shard: u32, handle_ns: u64) -> TraceEntry {
        TraceEntry {
            seq: 0,
            shard,
            protocol: PROTO_JSON,
            method: "predict",
            partition: "ds/normal/1-8".to_string(),
            req_bytes: 64,
            resp_bytes: 128,
            decode_ns: 500,
            queue_ns: 2_000,
            handle_ns,
            reply_ns: 300,
        }
    }

    #[test]
    fn total_ns_sums_stages() {
        assert_eq!(entry(0, 1_000).total_ns(), 500 + 2_000 + 1_000 + 300);
    }

    #[test]
    fn entry_json_carries_every_stage() {
        let json = entry(3, 1_000).to_json();
        for key in [
            "seq", "shard", "protocol", "method", "partition", "req_bytes", "resp_bytes",
            "decode_ns", "queue_ns", "handle_ns", "reply_ns", "total_ns",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        assert_eq!(json.get("protocol").and_then(Json::as_str), Some("json"));
    }

    #[test]
    fn metrics_hub_reports_rates_after_two_samples() {
        let hub = MetricsHub::new(Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(2));
        hub.tick();
        let fields = hub.report();
        let get = |name: &str| {
            fields
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
        };
        assert!(get("uptime_ms").and_then(|v| v.as_f64()).unwrap() >= 1.0);
        assert_eq!(get("samples").and_then(|v| v.as_f64()), Some(2.0));
        assert!(get("window_ms").and_then(|v| v.as_f64()).unwrap() >= 1.0);
        assert!(matches!(get("rates"), Some(Json::Obj(_))));
        assert!(get("current").unwrap().get("counters").is_some());
    }

    #[test]
    fn metrics_hub_ring_is_depth_bounded() {
        let hub = MetricsHub::new(Duration::from_secs(3600));
        for _ in 0..(METRICS_RING_CAP * 2) {
            hub.tick();
        }
        assert_eq!(hub.ring.lock().unwrap().len(), METRICS_RING_CAP);
    }

    #[cfg(feature = "tracing")]
    mod enabled {
        use super::*;

        #[test]
        fn ring_wraparound_keeps_newest_depth_entries() {
            // Threshold off: nothing promotes, only the recent ring fills.
            let rec = FlightRecorder::new(1, 8, 0);
            for i in 0..20 {
                rec.record(entry(0, i));
            }
            let dump = rec.dump();
            assert_eq!(dump.recent.len(), 8, "ring must stay at depth");
            let seqs: Vec<u64> = dump.recent.iter().map(|e| e.seq).collect();
            assert_eq!(seqs, (12..20).collect::<Vec<u64>>(), "newest survive");
            assert!(dump.slow.is_empty());
            assert_eq!(dump.dropped, 0);
        }

        #[test]
        fn slow_threshold_promotes_only_over_budget_requests() {
            let budget = entry(0, 0).total_ns() + 5_000;
            let rec = FlightRecorder::new(2, 16, budget);
            rec.record(entry(0, 1_000)); // under budget
            rec.record(entry(1, 50_000)); // over
            rec.record(entry(0, 5_000)); // exactly at budget (handle 5k) → promoted
            let dump = rec.dump();
            assert_eq!(dump.recent.len(), 3);
            let slow_handles: Vec<u64> = dump.slow.iter().map(|e| e.handle_ns).collect();
            assert_eq!(slow_handles, vec![50_000, 5_000]);
        }

        #[test]
        fn concurrent_writers_with_reader_stay_bounded_and_account_drops() {
            let rec = std::sync::Arc::new(FlightRecorder::new(4, 32, 1));
            let writers = 4u32;
            let per_writer = 2_000u64;
            std::thread::scope(|scope| {
                for w in 0..writers {
                    let rec = std::sync::Arc::clone(&rec);
                    scope.spawn(move || {
                        for i in 0..per_writer {
                            rec.record(entry(w, i));
                        }
                    });
                }
                let rec = std::sync::Arc::clone(&rec);
                scope.spawn(move || {
                    for _ in 0..200 {
                        let dump = rec.dump();
                        assert!(dump.recent.len() <= 4 * 32);
                        assert!(dump.slow.len() <= 32);
                    }
                });
            });
            let dump = rec.dump();
            // Every record either landed in a slot or was counted dropped;
            // the rings never exceed their configured depth.
            assert_eq!(dump.recent.len(), 4 * 32);
            assert!(dump.dropped < u64::from(writers) * per_writer);
            // Sequences are unique (each store claimed a distinct seq).
            let mut seqs: Vec<u64> = dump.recent.iter().map(|e| e.seq).collect();
            seqs.dedup();
            assert_eq!(seqs.len(), dump.recent.len());
        }

        #[test]
        fn recorder_memory_is_depth_bounded_under_sustained_load() {
            let rec = FlightRecorder::new(2, 16, 1); // everything promotes
            for i in 0..10_000u64 {
                rec.record(entry((i % 2) as u32, i));
            }
            let dump = rec.dump();
            assert_eq!(dump.recent.len(), 2 * 16);
            assert_eq!(dump.slow.len(), 16);
        }

        #[test]
        fn pending_trace_stamps_reply_stage_between_send_and_complete() {
            let rec = FlightRecorder::new(1, 4, 0);
            let mut trace = ReqTrace::begin(PROTO_BIN);
            trace.decoded(48);
            let now = Instant::now();
            trace.routed(0, now);
            trace.locked();
            let mut pending = trace.finish("observe", "s/q/1-4".to_string(), 7_000, 96);
            pending.mark_sent();
            std::thread::sleep(Duration::from_millis(2));
            rec.complete_all(vec![pending].into_iter());
            let dump = rec.dump();
            assert_eq!(dump.recent.len(), 1);
            let e = &dump.recent[0];
            assert_eq!(e.protocol, PROTO_BIN);
            assert_eq!(e.method, "observe");
            assert_eq!(e.partition, "s/q/1-4");
            assert_eq!(e.handle_ns, 7_000);
            assert_eq!((e.req_bytes, e.resp_bytes), (48, 96));
            assert!(e.reply_ns >= 1_000_000, "reply stage spans the sleep");
        }

        #[test]
        fn trace_fields_cap_dump_size_and_report_totals() {
            let rec = FlightRecorder::new(1, DUMP_CAP * 2, 0);
            for i in 0..(DUMP_CAP as u64 * 2) {
                rec.record(entry(0, i));
            }
            let fields = trace_fields(&rec);
            let get = |name: &str| fields.iter().find(|(n, _)| n == name).map(|(_, v)| v);
            assert_eq!(
                get("recent_total").and_then(|v| v.as_f64()),
                Some((DUMP_CAP * 2) as f64)
            );
            match get("recent") {
                Some(Json::Arr(items)) => assert_eq!(items.len(), DUMP_CAP),
                other => panic!("recent not an array: {other:?}"),
            }
        }
    }

    #[cfg(not(feature = "tracing"))]
    mod disabled {
        use super::*;

        #[test]
        fn trace_types_are_zero_sized_and_inert() {
            assert_eq!(std::mem::size_of::<ReqTrace>(), 0);
            assert_eq!(std::mem::size_of::<PendingTrace>(), 0);
            assert_eq!(std::mem::size_of::<FlightRecorder>(), 0);

            let rec = FlightRecorder::new(4, 256, 10_000_000);
            let mut trace = ReqTrace::begin(PROTO_JSON);
            trace.decoded(10);
            trace.routed(1, Instant::now());
            trace.locked();
            let mut pending = trace.finish("predict", "a/b/1-2".to_string(), 5, 10);
            pending.mark_sent();
            rec.complete_all(vec![pending].into_iter());
            let dump = rec.dump();
            assert!(dump.recent.is_empty() && dump.slow.is_empty());
            assert_eq!(dump.dropped, 0);
        }
    }
}
