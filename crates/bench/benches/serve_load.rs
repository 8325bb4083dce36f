//! Closed-loop load generator for qdelay-serve, plus the end-to-end
//! warm-restart and crash-recovery checks the persistence formats promise.
//!
//! Run via `cargo bench -p qdelay-bench --bench serve_load`. Five sections:
//!
//! 1. **Loadgen** — an in-process server (4 shards) driven by 8 client
//!    connections, each keeping a fixed window of pipelined `predict`
//!    requests in flight (closed-loop: the population of outstanding
//!    requests is constant, a reply releases the next request). Run twice,
//!    parameterized over the wire protocol: once against the JSON listener
//!    (newline framer) and once against the binary listener (CRC frames),
//!    both on the same epoll event loops. Reports aggregate req/s, the server-side
//!    `serve.request_ns` latency distribution, and the per-stage
//!    decode/queue/handle/reply breakdown (`serve.stage.*`) for each, and
//!    writes it all to `BENCH_serve.json` at the repo root.
//!
//! 2. **Durability** — the same closed loop driving `observe` (the only
//!    request the write-ahead log touches) against three servers: no
//!    journal, `fsync=interval` (the default), and `fsync=always`. The
//!    interval policy rides group commit and is expected to stay within
//!    20% of the non-durable baseline; `fsync=always` shows the floor.
//!
//! 3. **Recovery** — feed a journaling server, image its directory while
//!    it is live (exactly the bytes `kill -9` would leave), then time a
//!    cold boot from the image and require bit-identical predictions.
//!
//! 4. **Warm restart** — feed half a workload, snapshot, keep feeding while
//!    recording every prediction; kill the server, boot a fresh one from
//!    the snapshot, replay the second half, and require every prediction
//!    to be *bit-identical* to the uninterrupted run.
//!
//! 5. **Capacity** — a 10k-partition registry served under
//!    `max_resident=256` per shard: closed-loop predict throughput with
//!    ~90% of touches landing on hibernated partitions (restore + refit +
//!    re-evict per hit), reported as a retention ratio against the same
//!    registry fully resident, plus the `serve.hibernate.restore_ns`
//!    latency distribution and the resident/hibernated/disk gauges (the
//!    memory the cap is buying back).
//!
//! 6. **Replication** — a warm standby tailing the primary's WAL: how fast
//!    a fresh replica catches up on a populated journal, how far it lags
//!    under full observe load (`repl.lag_records`), what the attached
//!    replica costs the primary's observe throughput vs the journal-only
//!    baseline, and whether the quiesced replica's snapshot is
//!    byte-identical to the primary's. The overhead number is an
//!    in-process measurement: the replica applies on the same box (and on
//!    the 1-CPU bench container, the same core) as the primary it
//!    shadows, so the ratio is a floor on what separate machines see.
//!
//! Flags: `-- --requests N` (per connection, default 40000),
//! `-- --window W` (in-flight per connection, default 32).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use qdelay_json::Json;
use qdelay_serve::client::{BinClient, Client};
use qdelay_serve::durability::{FsyncPolicy, JournalConfig};
use qdelay_serve::server::{Server, ServerConfig};

const SHARDS: usize = 4;
const CONNECTIONS: usize = 8;

/// Warm partitions: 4 sites x 1 queue x 4 proc buckets = 16 partitions,
/// spread over all shards.
const SITES: [&str; 4] = ["datastar", "lonestar", "blue-horizon", "cnsidell"];
const PROCS: [u32; 4] = [2, 8, 32, 128];

fn wait_stream(i: u64) -> f64 {
    (i.wrapping_mul(2_654_435_761) % 100_000) as f64 / 10.0
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let requests_per_conn = flag("--requests", 40_000);
    let window = flag("--window", 32).max(1);

    let (req_per_s, latency, stages) = section_loadgen(requests_per_conn, window);
    let (bin_req_per_s, bin_latency, bin_stages) =
        section_loadgen_binary(requests_per_conn, window);
    let durability = section_durability(requests_per_conn / 2, window);
    let capacity = section_capacity(requests_per_conn / 4, window);
    let replication = section_replication(requests_per_conn / 2, window);
    let recovery = section_recovery();
    let replayed = section_warm_restart();
    write_bench_json(
        requests_per_conn,
        window,
        req_per_s,
        &latency,
        &stages,
        bin_req_per_s,
        &bin_latency,
        &bin_stages,
        durability,
        capacity,
        replication,
        recovery,
        replayed,
    );
}

/// Pulls `count`/`p50`/`p99` for each traced stage of one protocol
/// (`"json"` or `"bin"`) out of a telemetry snapshot document, and prints
/// the breakdown.
fn stage_summary(snapshot: &Json, proto: &str) -> Json {
    let histograms = snapshot.get("histograms").cloned().unwrap_or(Json::Null);
    let mut fields = Vec::new();
    for stage in ["decode_ns", "queue_ns", "handle_ns", "reply_ns"] {
        let h = histograms
            .get(&format!("serve.stage.{proto}.{stage}"))
            .cloned()
            .unwrap_or(Json::Null);
        let pick = |k: &str| h.get(k).cloned().unwrap_or(Json::Null);
        if let (Some(p50), Some(p99)) = (
            h.get("p50").and_then(Json::as_f64),
            h.get("p99").and_then(Json::as_f64),
        ) {
            println!("    stage {stage:<10} p50 {p50:>8.0} ns   p99 {p99:>9.0} ns");
        }
        fields.push((
            stage.to_string(),
            Json::Obj(vec![
                ("count".into(), pick("count")),
                ("p50".into(), pick("p50")),
                ("p99".into(), pick("p99")),
            ]),
        ));
    }
    Json::Obj(fields)
}

/// Runs the closed-loop load phase; returns (aggregate predict req/s, the
/// server-side request latency summary, the per-stage breakdown).
fn section_loadgen(requests_per_conn: usize, window: usize) -> (f64, Json, Json) {
    println!("== qdelay-serve closed-loop loadgen ==");
    println!(
        "  {SHARDS} shards, {CONNECTIONS} connections, window {window}, \
         {requests_per_conn} predicts/connection"
    );

    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig { shards: SHARDS, ..ServerConfig::default() },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // Warm every partition past the 95/95 history floor so predicts serve
    // real bounds, and refit once so the measured phase is read-mostly.
    let mut warm = Client::connect(addr).expect("connect");
    for site in SITES {
        for procs in PROCS {
            for i in 0..200u64 {
                warm.observe(site, "normal", procs, wait_stream(i), None, None)
                    .expect("warm observe");
            }
            let p = warm.predict(site, "normal", procs).expect("warm predict");
            assert!(p.bmbp.is_some(), "warmup must produce a bound");
        }
    }

    // Measure only the load phase.
    qdelay_telemetry::reset();
    let total_sent = AtomicU64::new(0);
    let barrier = Barrier::new(CONNECTIONS + 1);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..CONNECTIONS {
            let barrier = &barrier;
            let total_sent = &total_sent;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Pre-render the request lines this connection cycles over.
                let lines: Vec<String> = (0..16)
                    .map(|i| {
                        let site = SITES[(t + i) % SITES.len()];
                        let procs = PROCS[(t / SITES.len() + i) % PROCS.len()];
                        format!(
                            r#"{{"method":"predict","site":"{site}","queue":"normal","procs":{procs}}}"#
                        )
                    })
                    .collect();
                barrier.wait();
                let mut sent = 0usize;
                let mut received = 0usize;
                while received < requests_per_conn {
                    while sent < requests_per_conn && sent - received < window {
                        client.send_raw(&lines[sent % lines.len()]).expect("send");
                        sent += 1;
                    }
                    let reply = client.read_reply().expect("reply");
                    assert_eq!(
                        reply.get("ok"),
                        Some(&Json::Bool(true)),
                        "predict failed: {}",
                        reply.to_string_compact()
                    );
                    received += 1;
                }
                total_sent.fetch_add(sent as u64, Ordering::Relaxed);
            });
        }
        barrier.wait();
    });
    let elapsed = start.elapsed().as_secs_f64();
    let total = total_sent.load(Ordering::Relaxed);
    let req_per_s = total as f64 / elapsed;

    let snap = qdelay_telemetry::snapshot().to_json();
    let latency = snap
        .get("histograms")
        .and_then(|h| h.get("serve.request_ns"))
        .cloned()
        .unwrap_or(Json::Null);
    println!(
        "  {total} predicts in {elapsed:.3} s => {:.0} req/s  (target >= 100k)",
        req_per_s
    );
    if let (Some(p50), Some(p99)) = (
        latency.get("p50").and_then(Json::as_f64),
        latency.get("p99").and_then(Json::as_f64),
    ) {
        println!("  server-side enqueue-to-reply: p50 {p50:.0} ns, p99 {p99:.0} ns");
    }
    let stages = stage_summary(&snap, "json");

    let mut shutdown = Client::connect(addr).expect("connect");
    shutdown.shutdown().expect("shutdown");
    server.join().expect("join");
    (req_per_s, latency, stages)
}

/// The same closed loop against the binary listener: identical shard
/// work, identical request mix, the same event loop — only the wire
/// format differs. Returns
/// (aggregate predict req/s, server-side request latency summary, the
/// per-stage breakdown).
fn section_loadgen_binary(requests_per_conn: usize, window: usize) -> (f64, Json, Json) {
    println!("\n== binary protocol closed-loop loadgen ==");
    println!(
        "  {SHARDS} shards, {CONNECTIONS} connections, window {window}, \
         {requests_per_conn} predicts/connection"
    );

    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            shards: SHARDS,
            binary_addr: Some("127.0.0.1:0".to_string()),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.binary_addr().expect("binary listener");

    // Same warmup as the JSON run, through the binary listener.
    let mut warm = BinClient::connect(addr).expect("connect");
    for site in SITES {
        for procs in PROCS {
            for i in 0..200u64 {
                warm.observe(site, "normal", procs, wait_stream(i), None, None)
                    .expect("warm observe");
            }
            let p = warm.predict(site, "normal", procs).expect("warm predict");
            assert!(p.bmbp.is_some(), "warmup must produce a bound");
        }
    }

    qdelay_telemetry::reset();
    let total_sent = AtomicU64::new(0);
    let barrier = Barrier::new(CONNECTIONS + 1);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..CONNECTIONS {
            let barrier = &barrier;
            let total_sent = &total_sent;
            scope.spawn(move || {
                let mut client = BinClient::connect(addr).expect("connect");
                let targets: Vec<(&str, u32)> = (0..16)
                    .map(|i| {
                        (
                            SITES[(t + i) % SITES.len()],
                            PROCS[(t / SITES.len() + i) % PROCS.len()],
                        )
                    })
                    .collect();
                barrier.wait();
                let mut sent = 0usize;
                let mut received = 0usize;
                while received < requests_per_conn {
                    while sent < requests_per_conn && sent - received < window {
                        let (site, procs) = targets[sent % targets.len()];
                        client.queue_predict(site, "normal", procs);
                        sent += 1;
                    }
                    client.flush().expect("flush");
                    let (_, resp) = client.read_response().expect("reply");
                    assert!(
                        matches!(resp, qdelay_serve::proto::BinResponse::Predict { .. }),
                        "predict failed: {resp:?}"
                    );
                    received += 1;
                }
                total_sent.fetch_add(sent as u64, Ordering::Relaxed);
            });
        }
        barrier.wait();
    });
    let elapsed = start.elapsed().as_secs_f64();
    let total = total_sent.load(Ordering::Relaxed);
    let req_per_s = total as f64 / elapsed;

    let snap = qdelay_telemetry::snapshot().to_json();
    let latency = snap
        .get("histograms")
        .and_then(|h| h.get("serve.request_ns"))
        .cloned()
        .unwrap_or(Json::Null);
    println!("  {total} predicts in {elapsed:.3} s => {:.0} req/s", req_per_s);
    if let (Some(p50), Some(p99)) = (
        latency.get("p50").and_then(Json::as_f64),
        latency.get("p99").and_then(Json::as_f64),
    ) {
        println!("  server-side enqueue-to-reply: p50 {p50:.0} ns, p99 {p99:.0} ns");
    }
    let stages = stage_summary(&snap, "bin");

    let mut shutdown = BinClient::connect(addr).expect("connect");
    shutdown.shutdown().expect("shutdown");
    server.join().expect("join");
    (req_per_s, latency, stages)
}

/// Closed-loop `observe` load (the write path the journal sits on);
/// returns aggregate req/s.
fn observe_loadgen(
    label: &str,
    requests_per_conn: usize,
    window: usize,
    journal: Option<JournalConfig>,
) -> f64 {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig { shards: SHARDS, journal, ..ServerConfig::default() },
    )
    .expect("bind loopback");
    let req_per_s = drive_observes(server.local_addr(), requests_per_conn, window);
    println!(
        "  {label}: {} observes => {req_per_s:.0} req/s",
        requests_per_conn * CONNECTIONS
    );

    let mut shutdown = Client::connect(server.local_addr()).expect("connect");
    shutdown.shutdown().expect("shutdown");
    server.join().expect("join");
    req_per_s
}

/// The closed observe loop itself, against an already-running server;
/// returns aggregate req/s. Shared by the durability and replication
/// sections so their throughput numbers are directly comparable.
fn drive_observes(
    addr: std::net::SocketAddr,
    requests_per_conn: usize,
    window: usize,
) -> f64 {
    let total_sent = AtomicU64::new(0);
    let barrier = Barrier::new(CONNECTIONS + 1);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..CONNECTIONS {
            let barrier = &barrier;
            let total_sent = &total_sent;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let lines: Vec<String> = (0..16)
                    .map(|i| {
                        let site = SITES[(t + i) % SITES.len()];
                        let procs = PROCS[(t / SITES.len() + i) % PROCS.len()];
                        let wait = wait_stream((t * 16 + i) as u64);
                        format!(
                            r#"{{"method":"observe","site":"{site}","queue":"normal","procs":{procs},"wait":{wait}}}"#
                        )
                    })
                    .collect();
                barrier.wait();
                let mut sent = 0usize;
                let mut received = 0usize;
                while received < requests_per_conn {
                    while sent < requests_per_conn && sent - received < window {
                        client.send_raw(&lines[sent % lines.len()]).expect("send");
                        sent += 1;
                    }
                    let reply = client.read_reply().expect("reply");
                    assert_eq!(
                        reply.get("ok"),
                        Some(&Json::Bool(true)),
                        "observe failed: {}",
                        reply.to_string_compact()
                    );
                    received += 1;
                }
                total_sent.fetch_add(sent as u64, Ordering::Relaxed);
            });
        }
        barrier.wait();
    });
    let elapsed = start.elapsed().as_secs_f64();
    let total = total_sent.load(Ordering::Relaxed);
    total as f64 / elapsed
}

/// Measures the observe-path cost of durability: no journal vs the
/// `fsync=interval` default vs `fsync=always`.
fn section_durability(requests_per_conn: usize, window: usize) -> Json {
    println!("\n== durability: closed-loop observe throughput, journal off vs on ==");
    let baseline = observe_loadgen("baseline (no journal)  ", requests_per_conn, window, None);

    let dir = std::env::temp_dir().join("qdelay-serve-bench-journal");
    let _ = std::fs::remove_dir_all(&dir);
    let interval = observe_loadgen(
        "fsync=interval (100ms) ",
        requests_per_conn,
        window,
        Some(JournalConfig::new(&dir)),
    );

    let _ = std::fs::remove_dir_all(&dir);
    let mut always_cfg = JournalConfig::new(&dir);
    always_cfg.fsync = FsyncPolicy::Always;
    let always = observe_loadgen(
        "fsync=always           ",
        (requests_per_conn / 10).max(1_000),
        window,
        Some(always_cfg),
    );
    let _ = std::fs::remove_dir_all(&dir);

    let ratio = interval / baseline;
    println!(
        "  fsync=interval keeps {:.1}% of the non-durable baseline (target >= 80%)",
        ratio * 100.0
    );
    Json::Obj(vec![
        ("observe_req_per_s_no_journal".into(), Json::Num(baseline)),
        ("observe_req_per_s_fsync_interval".into(), Json::Num(interval)),
        ("observe_req_per_s_fsync_always".into(), Json::Num(always)),
        ("interval_over_baseline".into(), Json::Num(ratio)),
    ])
}

/// A 10k-partition registry under `max_resident=256` per shard: predict
/// throughput retention vs the fully-resident baseline, restore latency,
/// and how much of the registry the cap pushes to disk.
fn section_capacity(requests_per_conn: usize, window: usize) -> Json {
    println!("\n== capacity: 10k partitions under max_resident=256 per shard ==");
    const PARTITIONS: usize = 10_000;
    const CAP: usize = 256;
    const WARM_OBS: u64 = 4; // enough history for a spill record, cheap to refit

    // One run of the closed predict loop over the whole key space; each
    // connection cycles its own slice, so with the cap on, most touches
    // land on hibernated partitions.
    fn predict_loadgen(
        addr: std::net::SocketAddr,
        requests_per_conn: usize,
        window: usize,
    ) -> f64 {
        let total_sent = AtomicU64::new(0);
        let barrier = Barrier::new(CONNECTIONS + 1);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..CONNECTIONS {
                let barrier = &barrier;
                let total_sent = &total_sent;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let slice = PARTITIONS / CONNECTIONS;
                    let lines: Vec<String> = (t * slice..(t + 1) * slice)
                        .map(|p| {
                            format!(
                                r#"{{"method":"predict","site":"p-{p:04}","queue":"normal","procs":8}}"#
                            )
                        })
                        .collect();
                    barrier.wait();
                    let mut sent = 0usize;
                    let mut received = 0usize;
                    while received < requests_per_conn {
                        while sent < requests_per_conn && sent - received < window {
                            client.send_raw(&lines[sent % lines.len()]).expect("send");
                            sent += 1;
                        }
                        let reply = client.read_reply().expect("reply");
                        assert_eq!(
                            reply.get("ok"),
                            Some(&Json::Bool(true)),
                            "predict failed: {}",
                            reply.to_string_compact()
                        );
                        received += 1;
                    }
                    total_sent.fetch_add(sent as u64, Ordering::Relaxed);
                });
            }
            barrier.wait();
        });
        total_sent.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
    }

    // Populates every partition with a short history, pipelined.
    fn populate(addr: std::net::SocketAddr) {
        std::thread::scope(|scope| {
            for t in 0..CONNECTIONS {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let slice = PARTITIONS / CONNECTIONS;
                    let mut sent = 0usize;
                    let mut received = 0usize;
                    let total = slice * WARM_OBS as usize;
                    while received < total {
                        while sent < total && sent - received < 64 {
                            let p = t * slice + sent / WARM_OBS as usize;
                            let wait = wait_stream((p as u64) * WARM_OBS + sent as u64);
                            client
                                .send_raw(&format!(
                                    r#"{{"method":"observe","site":"p-{p:04}","queue":"normal","procs":8,"wait":{wait}}}"#
                                ))
                                .expect("send");
                            sent += 1;
                        }
                        let reply = client.read_reply().expect("reply");
                        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
                        received += 1;
                    }
                });
            }
        });
    }

    let run = |label: &str, cap: Option<usize>| -> (f64, Json, Json) {
        let dir = std::env::temp_dir().join("qdelay-serve-bench-capacity");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("capacity dir");
        let server = Server::start(
            "127.0.0.1:0",
            ServerConfig {
                shards: SHARDS,
                max_resident: cap,
                snapshot_path: Some(dir.join("snap.json")),
                ..ServerConfig::default()
            },
        )
        .expect("bind capacity server");
        populate(server.local_addr());
        qdelay_telemetry::reset();
        let req_per_s = predict_loadgen(server.local_addr(), requests_per_conn, window);
        let snap = qdelay_telemetry::snapshot().to_json();
        println!(
            "  {label}: {} predicts over {PARTITIONS} partitions => {req_per_s:.0} req/s",
            requests_per_conn * CONNECTIONS
        );
        // Resident/hibernated/spill *levels* come from `stats` (the
        // telemetry gauges were just reset, so they only carry deltas).
        let mut shutdown = Client::connect(server.local_addr()).expect("connect");
        let stats = shutdown.stats().expect("stats");
        shutdown.shutdown().expect("shutdown");
        server.join().expect("join");
        let _ = std::fs::remove_dir_all(&dir);
        (req_per_s, snap, stats)
    };

    let (baseline, _, _) = run("fully resident        ", None);
    let (capped, snap, stats) = run("max_resident=256/shard", Some(CAP));

    let level = |name: &str| stats.get(name).and_then(Json::as_f64).unwrap_or(0.0);
    let counter = |name: &str| {
        snap.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let restore = snap
        .get("histograms")
        .and_then(|h| h.get("serve.hibernate.restore_ns"))
        .cloned()
        .unwrap_or(Json::Null);
    let pick = |k: &str| restore.get(k).cloned().unwrap_or(Json::Null);
    let ratio = if baseline > 0.0 { capped / baseline } else { 0.0 };
    let resident = level("resident");
    let hibernated = level("hibernated");
    let disk = level("spill_disk_bytes");
    println!(
        "  capped run keeps {:.1}% of the fully-resident predict rate",
        ratio * 100.0
    );
    println!(
        "  end state: {resident:.0} resident, {hibernated:.0} hibernated, \
         {:.1} MiB spilled ({:.0} restores, {:.0} evictions)",
        disk / (1024.0 * 1024.0),
        counter("serve.hibernate.restores"),
        counter("serve.hibernate.evictions"),
    );
    if let (Some(p50), Some(p99)) = (
        restore.get("p50").and_then(Json::as_f64),
        restore.get("p99").and_then(Json::as_f64),
    ) {
        println!("  restore latency: p50 {p50:.0} ns, p99 {p99:.0} ns");
    }

    Json::Obj(vec![
        ("partitions".into(), Json::Num(PARTITIONS as f64)),
        ("max_resident_per_shard".into(), Json::Num(CAP as f64)),
        ("predict_req_per_s_uncapped".into(), Json::Num(baseline)),
        ("predict_req_per_s_capped".into(), Json::Num(capped)),
        ("capped_over_uncapped".into(), Json::Num(ratio)),
        ("resident".into(), Json::Num(resident)),
        ("hibernated".into(), Json::Num(hibernated)),
        ("spill_disk_bytes".into(), Json::Num(disk)),
        ("restores".into(), Json::Num(counter("serve.hibernate.restores"))),
        ("evictions".into(), Json::Num(counter("serve.hibernate.evictions"))),
        (
            "restore_ns".into(),
            Json::Obj(vec![
                ("count".into(), pick("count")),
                ("p50".into(), pick("p50")),
                ("p99".into(), pick("p99")),
            ]),
        ),
    ])
}

/// Measures the replication plane: catch-up rate of a fresh replica over
/// a populated WAL, steady-state lag under full observe load, the cost of
/// an attached replica to primary observe throughput, and byte-identity
/// of the quiesced replica snapshot.
fn section_replication(requests_per_conn: usize, window: usize) -> Json {
    println!("\n== replication: catch-up, steady-state lag, primary overhead ==");

    // Journal-only baseline: same fsync=interval WAL, no replication.
    let base_dir = std::env::temp_dir().join("qdelay-serve-bench-repl-base");
    let _ = std::fs::remove_dir_all(&base_dir);
    let baseline = observe_loadgen(
        "journal only           ",
        requests_per_conn,
        window,
        Some(JournalConfig::new(&base_dir)),
    );
    let _ = std::fs::remove_dir_all(&base_dir);

    let dir = std::env::temp_dir().join("qdelay-serve-bench-repl");
    let _ = std::fs::remove_dir_all(&dir);
    let primary = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            shards: SHARDS,
            journal: Some(JournalConfig::new(&dir)),
            repl_addr: Some("127.0.0.1:0".to_string()),
            ..ServerConfig::default()
        },
    )
    .expect("bind primary");
    let repl_addr = primary.repl_addr().expect("repl listener").to_string();

    // Populate the WAL before any replica exists; the closed loop sends
    // exactly `requests_per_conn` per connection, so the record count is
    // known without asking the server.
    drive_observes(primary.local_addr(), requests_per_conn, window);
    let backlog = (requests_per_conn * CONNECTIONS) as u64;

    // Catch-up: a fresh replica must scan + apply the whole backlog.
    let boot = Instant::now();
    let replica = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            shards: SHARDS,
            replicate_from: Some(repl_addr),
            ..ServerConfig::default()
        },
    )
    .expect("bind replica");
    let mut rc = Client::connect(replica.local_addr()).expect("connect replica");
    loop {
        let applied = rc
            .stats()
            .expect("replica stats")
            .get("observations")
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64;
        if applied >= backlog {
            break;
        }
        assert!(
            boot.elapsed() < std::time::Duration::from_secs(120),
            "replica stuck at {applied}/{backlog} applied records"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let catchup_s = boot.elapsed().as_secs_f64();
    let catchup_rate = backlog as f64 / catchup_s;
    println!(
        "  catch-up: {backlog} records in {catchup_s:.3} s => {catchup_rate:.0} records/s"
    );

    // Steady state: full observe load on the primary while the replica
    // tails. A sampler thread watches the lag gauge during the run.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut with_replica = 0.0;
    let mut lag_max = 0.0f64;
    let mut lag_sum = 0.0f64;
    let mut lag_samples = 0u64;
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            // Read the gauge atomic directly: a full telemetry snapshot
            // per sample would perturb the throughput being measured.
            let (mut max, mut sum, mut n) = (0.0f64, 0.0f64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                let lag = qdelay_repl::LAG_RECORDS.value() as f64;
                max = max.max(lag);
                sum += lag;
                n += 1;
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            (max, sum, n)
        });
        with_replica = drive_observes(primary.local_addr(), requests_per_conn, window);
        stop.store(true, Ordering::Relaxed);
        (lag_max, lag_sum, lag_samples) = sampler.join().expect("lag sampler");
    });
    let lag_mean = if lag_samples > 0 { lag_sum / lag_samples as f64 } else { 0.0 };
    let ratio = with_replica / baseline;
    println!(
        "  with replica attached  : {} observes => {with_replica:.0} req/s \
         ({:.1}% of journal-only; replica applies in-process on this box)",
        requests_per_conn * CONNECTIONS,
        ratio * 100.0
    );
    println!(
        "  steady-state lag: mean {lag_mean:.0} records, max {lag_max:.0} records \
         ({lag_samples} samples)"
    );

    // Quiesced byte-identity: no more observes are in flight, so the
    // primary's snapshot is stable and the replica must converge to
    // exactly those bytes. Snapshots go to files — at this scale the
    // inline form would exceed the client's line cap.
    let snap_dir = std::env::temp_dir().join("qdelay-serve-bench-repl-snap");
    std::fs::create_dir_all(&snap_dir).expect("snapshot dir");
    let p_path = snap_dir.join("primary.json");
    let r_path = snap_dir.join("replica.json");
    let mut pc = Client::connect(primary.local_addr()).expect("connect primary");
    pc.snapshot_to(p_path.to_str().expect("utf8 path")).expect("primary snapshot");
    let want = std::fs::read(&p_path).expect("read primary snapshot");
    let deadline = Instant::now() + std::time::Duration::from_secs(60);
    loop {
        rc.snapshot_to(r_path.to_str().expect("utf8 path")).expect("replica snapshot");
        if std::fs::read(&r_path).expect("read replica snapshot") == want {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replica snapshot never converged to the primary's bytes"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let _ = std::fs::remove_dir_all(&snap_dir);
    println!("  quiesced replica snapshot: byte-identical to the primary");

    rc.shutdown().expect("replica shutdown");
    replica.join().expect("replica join");
    pc.shutdown().expect("primary shutdown");
    primary.join().expect("primary join");
    let _ = std::fs::remove_dir_all(&dir);

    Json::Obj(vec![
        ("catchup_records".into(), Json::Num(backlog as f64)),
        ("catchup_s".into(), Json::Num(catchup_s)),
        ("catchup_records_per_s".into(), Json::Num(catchup_rate)),
        ("steady_lag_records_mean".into(), Json::Num(lag_mean)),
        ("steady_lag_records_max".into(), Json::Num(lag_max)),
        ("observe_req_per_s_journal_only".into(), Json::Num(baseline)),
        ("observe_req_per_s_with_replica".into(), Json::Num(with_replica)),
        ("replica_over_journal_only".into(), Json::Num(ratio)),
        ("bit_identical".into(), Json::Bool(true)),
    ])
}

/// Times a cold boot from a live crash image of the journal directory and
/// checks the recovered predictions bit-for-bit.
fn section_recovery() -> Json {
    println!("\n== recovery: boot from a kill -9 image of the journal ==");
    const EVENTS: u64 = 20_000;
    let dir = std::env::temp_dir().join("qdelay-serve-bench-recovery");
    let image = std::env::temp_dir().join("qdelay-serve-bench-recovery-image");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&image);

    // `Never`: the crash is modelled by imaging the live directory, so the
    // page cache stands in for the disk and the numbers isolate replay cost.
    let journal = |at: &Path| {
        let mut cfg = JournalConfig::new(at);
        cfg.fsync = FsyncPolicy::Never;
        cfg
    };
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            shards: SHARDS,
            journal: Some(journal(&dir)),
            ..ServerConfig::default()
        },
    )
    .expect("bind journaling server");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    for i in 0..EVENTS {
        let site = SITES[(i as usize) % SITES.len()];
        let procs = PROCS[(i as usize / SITES.len()) % PROCS.len()];
        c.observe(site, "normal", procs, wait_stream(i), None, None)
            .expect("observe");
    }
    let reference: Vec<Option<u64>> = SITES
        .iter()
        .flat_map(|site| {
            PROCS.map(|procs| {
                c.predict(site, "normal", procs)
                    .expect("predict")
                    .bmbp
                    .map(f64::to_bits)
            })
        })
        .collect();

    // The crash image: copy the directory while the server is still live.
    std::fs::create_dir_all(&image).expect("image dir");
    let mut journal_bytes = 0u64;
    let mut files = 0u64;
    for entry in std::fs::read_dir(&dir).expect("read journal dir") {
        let entry = entry.expect("dir entry");
        journal_bytes += std::fs::copy(entry.path(), image.join(entry.file_name()))
            .expect("copy journal file");
        files += 1;
    }
    c.shutdown().expect("shutdown");
    server.join().expect("join");

    let boot = Instant::now();
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            shards: SHARDS,
            journal: Some(journal(&image)),
            ..ServerConfig::default()
        },
    )
    .expect("bind recovered server");
    let recovery_ms = boot.elapsed().as_secs_f64() * 1e3;

    let mut c = Client::connect(server.local_addr()).expect("connect");
    let stats = c.stats().expect("stats");
    assert_eq!(
        stats.get("observations").and_then(Json::as_f64),
        Some(EVENTS as f64),
        "every acked observation must survive the crash"
    );
    let restored: Vec<Option<u64>> = SITES
        .iter()
        .flat_map(|site| {
            PROCS.map(|procs| {
                c.predict(site, "normal", procs)
                    .expect("predict")
                    .bmbp
                    .map(f64::to_bits)
            })
        })
        .collect();
    assert_eq!(
        reference, restored,
        "recovered server must serve bit-identical predictions"
    );
    c.shutdown().expect("shutdown");
    server.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&image);

    println!(
        "  {EVENTS} acked observations, {journal_bytes} journal bytes in {files} files"
    );
    println!("  cold boot + replay + consolidation: {recovery_ms:.1} ms, predictions bit-identical");
    Json::Obj(vec![
        ("acked_observations".into(), Json::Num(EVENTS as f64)),
        ("journal_bytes".into(), Json::Num(journal_bytes as f64)),
        ("journal_files".into(), Json::Num(files as f64)),
        ("recovery_ms".into(), Json::Num(recovery_ms)),
        ("bit_identical".into(), Json::Bool(true)),
    ])
}

/// Feeds a 1200-event workload with a mid-stream snapshot + restart and
/// checks bit-identical predictions for the remainder; returns the number
/// of compared predictions.
fn section_warm_restart() -> usize {
    println!("\n== warm restart: kill mid-workload, restore, compare bit-for-bit ==");
    const SPLIT: u64 = 600;
    const TOTAL: u64 = 1200;
    let dir = std::env::temp_dir().join("qdelay-serve-bench");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("loadgen-snapshot.json");
    let _ = std::fs::remove_file(&path);

    // Feeds events [from, to) with outcome feedback, predicting after each
    // observe; returns the (bmbp, lognormal) bit patterns.
    fn feed(client: &mut Client, from: u64, to: u64) -> Vec<(Option<u64>, Option<u64>)> {
        let mut out = Vec::new();
        let mut last: Option<f64> = None;
        for i in from..to {
            client
                .observe("ds", "normal", 8, wait_stream(i), last, None)
                .expect("observe");
            let p = client.predict("ds", "normal", 8).expect("predict");
            last = p.bmbp;
            out.push((p.bmbp.map(f64::to_bits), p.lognormal.map(f64::to_bits)));
        }
        out
    }

    // Uninterrupted reference run.
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    feed(&mut c, 0, SPLIT);
    let partitions = c
        .snapshot_to(path.to_str().expect("utf8 path"))
        .expect("snapshot");
    assert_eq!(partitions, 1);
    let reference = feed(&mut c, SPLIT, TOTAL);
    c.shutdown().expect("shutdown");
    server.join().expect("join");

    // Restarted run: boot from the mid-stream snapshot, replay the rest.
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            shards: 2, // different shard count on purpose: the format is flat
            snapshot_path: Some(path.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind restored");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let restored = feed(&mut c, SPLIT, TOTAL);
    c.shutdown().expect("shutdown");
    server.join().expect("join");

    assert_eq!(
        reference, restored,
        "restored server must serve bit-identical predictions"
    );
    println!(
        "  {} post-restart predictions, all bit-identical to the uninterrupted run",
        reference.len()
    );
    let _ = std::fs::remove_file(&path);
    reference.len()
}

#[allow(clippy::too_many_arguments)]
fn write_bench_json(
    requests_per_conn: usize,
    window: usize,
    req_per_s: f64,
    latency: &Json,
    stages: &Json,
    bin_req_per_s: f64,
    bin_latency: &Json,
    bin_stages: &Json,
    durability: Json,
    capacity: Json,
    replication: Json,
    recovery: Json,
    replayed: usize,
) {
    let doc = Json::Obj(vec![
        (
            "loadgen".into(),
            Json::Obj(vec![
                ("shards".into(), Json::Num(SHARDS as f64)),
                ("connections".into(), Json::Num(CONNECTIONS as f64)),
                ("window".into(), Json::Num(window as f64)),
                (
                    "requests".into(),
                    Json::Num((requests_per_conn * CONNECTIONS) as f64),
                ),
                ("predict_req_per_s".into(), Json::Num(req_per_s)),
                ("request_ns".into(), latency.clone()),
                ("stages".into(), stages.clone()),
            ]),
        ),
        (
            "loadgen_binary".into(),
            Json::Obj(vec![
                ("shards".into(), Json::Num(SHARDS as f64)),
                ("connections".into(), Json::Num(CONNECTIONS as f64)),
                ("window".into(), Json::Num(window as f64)),
                (
                    "requests".into(),
                    Json::Num((requests_per_conn * CONNECTIONS) as f64),
                ),
                ("predict_req_per_s".into(), Json::Num(bin_req_per_s)),
                ("request_ns".into(), bin_latency.clone()),
                ("stages".into(), bin_stages.clone()),
                (
                    "binary_over_json".into(),
                    Json::Num(if req_per_s > 0.0 { bin_req_per_s / req_per_s } else { 0.0 }),
                ),
            ]),
        ),
        ("durability".into(), durability),
        ("capacity".into(), capacity),
        ("replication".into(), replication),
        ("recovery".into(), recovery),
        (
            "warm_restart".into(),
            Json::Obj(vec![
                ("compared_predictions".into(), Json::Num(replayed as f64)),
                ("bit_identical".into(), Json::Bool(true)),
            ]),
        ),
    ]);
    let mut text = doc.to_string_pretty();
    text.push('\n');
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    match std::fs::write(path, &text) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}
