//! End-to-end tests of the live observability plane: the `metrics` and
//! `trace` wire methods over both protocols, the enriched `stats` reply,
//! and the flight recorder's central promise — that a request stuck behind
//! a held shard lock shows up with its latency attributed to queue-wait,
//! not compute — and that what the store does under the lock (a restore,
//! an eviction) is the handle stage's, not nobody's.

use qdelay::serve::client::Client;
use qdelay::serve::registry::{Partition, PartitionKey};
use qdelay::serve::server::{Server, ServerConfig};
use qdelay::serve::snapshot;
use qdelay_json::Json;
use std::io::{BufRead, BufReader, Write};
use std::time::Duration;

/// Starts a server with both listeners and a fast metrics sampler.
fn start_dual() -> Server {
    Server::start(
        "127.0.0.1:0",
        ServerConfig {
            binary_addr: Some("127.0.0.1:0".into()),
            metrics_interval: Duration::from_millis(20),
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// `metrics` must answer on both protocols with the same document shape:
/// uptime, sampler interval, a rates window, and a current telemetry
/// snapshot that reflects traffic this server actually saw.
#[test]
fn metrics_replies_on_both_protocols() {
    let server = start_dual();
    let mut json = Client::connect(server.local_addr()).unwrap();
    let mut bin = Client::connect_binary(server.binary_addr().unwrap()).unwrap();

    for i in 0..50 {
        json.observe("ds", "normal", 8, f64::from(i), None, None).unwrap();
        bin.observe("ds", "normal", 8, f64::from(i) + 0.5, None, None).unwrap();
        json.predict("ds", "normal", 8).unwrap();
    }
    // Let the sampler take at least one post-traffic sample.
    std::thread::sleep(Duration::from_millis(60));

    for client in [&mut json, &mut bin] {
        let report = client.metrics().unwrap();
        assert!(report.get("ok").is_none(), "the document, without a wire's envelope");
        for key in ["uptime_ms", "interval_ms", "samples", "window_ms"] {
            assert!(
                report.get(key).and_then(Json::as_f64).is_some(),
                "metrics reply carries numeric {key}: {report:?}"
            );
        }
        assert!(report.get("uptime_ms").and_then(Json::as_f64).unwrap() >= 0.0);
        assert_eq!(
            report.get("interval_ms").and_then(Json::as_f64),
            Some(20.0),
            "sampler interval is the configured one"
        );
        let current = report.get("current").expect("current snapshot");
        let requests = current
            .get("counters")
            .and_then(|c| c.get("serve.requests"))
            .and_then(Json::as_f64)
            .expect("serve.requests counter");
        assert!(requests >= 150.0, "snapshot saw the traffic: {requests}");
        assert!(report.get("rates").is_some(), "rates window present");
    }

    json.shutdown().unwrap();
    server.join().unwrap();
}

/// `trace` must answer on both protocols, and the recent ring must hold
/// per-stage traces for requests from *both* wire formats, each tagged
/// with its protocol and partition.
#[test]
fn trace_dump_covers_both_protocols() {
    let server = start_dual();
    let mut json = Client::connect(server.local_addr()).unwrap();
    let mut bin = Client::connect_binary(server.binary_addr().unwrap()).unwrap();

    for i in 0..20 {
        json.observe("ds", "normal", 8, f64::from(i), None, None).unwrap();
        bin.predict("lonestar", "normal", 16).unwrap();
    }

    // Entries land in the ring when the reply hits the socket, which can
    // trail the client's read by a scheduler tick; poll briefly.
    let mut protos_seen = (false, false);
    for _ in 0..50 {
        for client in [&mut json, &mut bin] {
            let dump = client.trace().unwrap();
            assert!(dump.get("ok").is_none(), "the document, without a wire's envelope");
            for key in ["slow_threshold_us", "dropped", "recent_total", "slow_total"] {
                assert!(dump.get(key).is_some(), "trace reply carries {key}");
            }
            let recent = match dump.get("recent") {
                Some(Json::Arr(entries)) => entries.clone(),
                other => panic!("recent is an array, got {other:?}"),
            };
            for entry in &recent {
                let proto = entry.get("protocol").and_then(Json::as_str).unwrap().to_string();
                match proto.as_str() {
                    "json" => protos_seen.0 = true,
                    "binary" => protos_seen.1 = true,
                    other => panic!("unexpected protocol tag {other}"),
                }
                for stage in ["decode_ns", "queue_ns", "handle_ns", "reply_ns", "total_ns"] {
                    assert!(
                        entry.get(stage).and_then(Json::as_f64).is_some(),
                        "entry carries {stage}"
                    );
                }
                assert!(
                    entry.get("partition").and_then(Json::as_str).is_some(),
                    "entry names its partition"
                );
            }
        }
        if protos_seen == (true, true) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(protos_seen, (true, true), "traces from both wire formats recorded");

    json.shutdown().unwrap();
    server.join().unwrap();
}

/// The enriched `stats` reply: crate version, uptime, and per-shard
/// registry totals (observations and the waits resident partitions hold),
/// identical in shape across both protocols. (The
/// per-shard `queue_depth` this test is named after left with the shard
/// queues; its absence is pinned here.)
#[test]
fn stats_reports_version_uptime_and_queue_depth() {
    let server = start_dual();
    let mut json = Client::connect(server.local_addr()).unwrap();
    let mut bin = Client::connect_binary(server.binary_addr().unwrap()).unwrap();
    json.observe("ds", "normal", 8, 10.0, None, None).unwrap();

    for client in [&mut json, &mut bin] {
        let stats = client.stats().unwrap();
        assert!(stats.get("ok").is_none(), "the document, without a wire's envelope");
        assert_eq!(
            stats.get("version").and_then(Json::as_str),
            Some(env!("CARGO_PKG_VERSION")),
            "stats names the serving crate version"
        );
        assert!(
            stats.get("uptime_ms").and_then(Json::as_f64).is_some(),
            "stats carries uptime_ms"
        );
        let shards = match stats.get("per_shard") {
            Some(Json::Arr(shards)) => shards.clone(),
            other => panic!("per_shard is an array, got {other:?}"),
        };
        assert_eq!(shards.len(), ServerConfig::default().shards);
        let observed: f64 = shards
            .iter()
            .map(|shard| shard.get("observations").and_then(Json::as_f64).expect("observations"))
            .sum();
        assert_eq!(observed, 1.0, "per-shard totals add up to the one observe");
        // The waits resident partitions hold in memory, read the same way:
        // the one observed wait, in its partition's log.
        let held: f64 = shards
            .iter()
            .map(|shard| shard.get("resident_waits").and_then(Json::as_f64).expect("resident_waits"))
            .sum();
        assert_eq!(held, 1.0, "per-shard resident waits add up to the one stored wait");
        assert_eq!(stats.get("resident_waits").and_then(Json::as_f64), Some(1.0));
        for shard in &shards {
            assert!(shard.get("queue_depth").is_none(), "there is no shard queue to report");
        }
    }

    json.shutdown().unwrap();
    server.join().unwrap();
}

/// The flight recorder's reason for existing: when a request has to wait
/// for its shard, its trace must pin the latency on `queue_ns` (decoded
/// until the shard lock is held), not `handle_ns` (the predictor itself).
/// The staller holds the victim's shard lock for milliseconds at a time:
/// pipelined `snapshot` requests, each collecting a registry of 400,000
/// waits under every shard's lock in turn, and leaving no trace entry of
/// its own. The victim, on the other loop (connections are dealt to loops
/// in accept order), asks depth-1 about a small partition of the same
/// shard from the staller's first request until after its last reply, so
/// its predicts overlap every hold, and its entries are the only ones in
/// the dump.
#[test]
fn stalled_shard_latency_is_attributed_to_queue_wait() {
    const HEAVY: usize = 4;
    const WAITS: usize = 100_000;
    const SNAPSHOTS: usize = 8;
    let dir = std::env::temp_dir().join(format!("qdelay-stalled-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // The heavy partitions share the victim's shard. They are built in
    // process and booted from a snapshot file: the wire would take minutes.
    let victim_key = PartitionKey::for_request("victim", "normal", 8);
    let shard = victim_key.shard_index(2);
    let heavy = (0..).map(|i| PartitionKey::for_request(&format!("heavy{i}"), "normal", 8));
    let keys = heavy.filter(|k| k.shard_index(2) == shard).take(HEAVY).chain([victim_key.clone()]);
    let parts = keys
        .enumerate()
        .map(|(i, key)| {
            let mut p = Partition::new();
            let waits = if key == victim_key { 80 } else { WAITS };
            for j in 0..waits {
                p.observe(((i * 7_919 + j * 7) % 1_000) as f64, None, None);
            }
            p.to_snapshot(&key)
        })
        .collect();
    let boot = dir.join("boot.snap");
    snapshot::write(&boot, &snapshot::render(parts, Vec::new()).unwrap()).unwrap();
    let config = ServerConfig {
        shards: 2,
        snapshot_path: Some(boot),
        // Every victim predict of the test stays in its shard's ring.
        flight_recorder_depth: 1 << 16,
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let path = Json::Str(dir.join("stall.snap").to_str().unwrap().into()).to_string_compact();
    let burst = format!("{{\"method\":\"snapshot\",\"path\":{path}}}\n").repeat(SNAPSHOTS);

    let waited = |dump: &Json| match dump.get("recent") {
        Some(Json::Arr(entries)) => entries.iter().any(|e| {
            let text = |key: &str| e.get(key).and_then(Json::as_str);
            let num = |key: &str| e.get(key).and_then(Json::as_f64).unwrap();
            (text("method"), text("partition")) == (Some("predict"), Some("victim/normal/5-16"))
                && num("queue_ns") > 10.0 * num("handle_ns").max(1.0)
        }),
        _ => false,
    };
    let mut attributed = false;
    for _ in 0..5 {
        let mut victim = Client::connect(addr).unwrap(); // loop 0
        let staller = std::net::TcpStream::connect(addr).unwrap(); // loop 1
        std::thread::scope(|scope| {
            let staller = scope.spawn(|| {
                (&staller).write_all(burst.as_bytes()).unwrap();
                let mut replies = BufReader::new(&staller);
                let mut line = String::new();
                for _ in 0..SNAPSHOTS {
                    line.clear();
                    replies.read_line(&mut line).unwrap();
                    assert!(line.contains("\"ok\":true"), "{line}");
                }
            });
            // Sixteen predicts between dumps: the dump's newest 128
            // entries always hold all of them.
            while !staller.is_finished() {
                for _ in 0..16 {
                    victim.predict("victim", "normal", 8).unwrap();
                }
                attributed |= waited(&victim.trace().unwrap());
            }
        });
        if attributed {
            break;
        }
    }
    assert!(
        attributed,
        "a predict behind a held shard lock attributes latency to queue-wait"
    );

    Client::connect(addr).unwrap().shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The handle stage is lock held → result in hand, so the one thing that
/// makes a cold request slow — the restore — is inside it (and inside
/// `serve.predict_ns`), where the slow-ring threshold can see it. A server
/// booted from a snapshot under cap 1 holds its second partition as an
/// answerless slot: the first question about it is this process's only
/// restore, so `serve.hibernate.restore_ns` has one sample to compare with.
/// The question after that, about the partition the restore displaced, is
/// answered from the index and counted as such.
#[test]
fn a_restore_is_timed_in_the_handle_stage_and_index_answers_are_counted() {
    let dir = std::env::temp_dir().join("qdelay-observability-it-restore");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = |max_resident| ServerConfig {
        shards: 1,
        snapshot_path: Some(dir.join("snap.json")),
        max_resident,
        ..ServerConfig::default()
    };
    let grower = Server::start("127.0.0.1:0", config(None)).unwrap();
    let mut c = Client::connect(grower.local_addr()).unwrap();
    c.observe("a", "q", 8, 1.0, None, None).unwrap();
    // Enough history that restoring it (decode, sort, two refits) is far
    // longer than a lookup.
    for i in 0..4000u32 {
        c.observe("big", "q", 8, f64::from(i * 7919 % 10_007), None, None).unwrap();
    }
    c.shutdown().unwrap();
    grower.join().unwrap();

    // Sorted first, "a" boots resident; "big" lands directly hibernated.
    let server = Server::start("127.0.0.1:0", config(Some(1))).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    assert_eq!(c.predict("big", "q", 8).unwrap().seq, 4000);
    assert_eq!(c.predict("a", "q", 8).unwrap().seq, 1);

    let stats = c.stats().unwrap();
    let telemetry = |section: &str, name: &str, field: Option<&str>| {
        let v = stats.get("telemetry").and_then(|t| t.get(section)).and_then(|s| s.get(name));
        field.map_or(v, |f| v.and_then(|h| h.get(f))).and_then(Json::as_f64).unwrap_or(f64::NAN)
    };
    assert_eq!(telemetry("counters", "serve.hibernate.restores", None), 1.0);
    assert_eq!(telemetry("counters", "serve.hibernate.index_answers", None), 1.0);
    assert_eq!(telemetry("histograms", "serve.hibernate.restore_ns", Some("count")), 1.0);
    // A histogram's `max` is the floor of its bucket: at most the sample.
    let restore_ns = telemetry("histograms", "serve.hibernate.restore_ns", Some("max"));
    assert!(restore_ns > 10_000.0, "restoring 4000 waits takes a while: {restore_ns} ns");
    assert!(telemetry("histograms", "serve.predict_ns", Some("max")) >= restore_ns);

    let dump = c.trace().unwrap();
    let Some(Json::Arr(recent)) = dump.get("recent") else { panic!("recent is an array") };
    let handle_ns = recent
        .iter()
        .find(|e| e.get("partition").and_then(Json::as_str) == Some("big/q/5-16"))
        .and_then(|e| e.get("handle_ns"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no trace of the cold predict in {recent:?}"));
    assert!(
        handle_ns >= restore_ns,
        "the restore ({restore_ns} ns) is part of the handle stage ({handle_ns} ns)"
    );

    c.shutdown().unwrap();
    server.join().unwrap();
}
