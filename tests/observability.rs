//! End-to-end tests of the live observability plane: the `metrics` and
//! `trace` wire methods over both protocols, the enriched `stats` reply,
//! and the flight recorder's central promise — that a request stuck behind
//! a held shard lock shows up with its latency attributed to queue-wait,
//! not compute — and that what the store does under the lock (a restore,
//! an eviction) is the handle stage's, not nobody's.

use qdelay::serve::client::Client;
use qdelay::serve::server::{Server, ServerConfig};
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
/// registry totals, identical in shape across both protocols. (The
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
/// The staller really holds the locks: a pipelined burst of observe→predict
/// pairs over every partition, so each predict pays a dirty refit under
/// its shard's lock and loop 1 (the second connection accepted) spends
/// most of the burst inside one lock or the other. The victim is on loop 0
/// (the third connection), asking depth-1 for a partition the burst never
/// touches. (Inline `snapshot`s hold a lock too, but only for a twelfth of
/// the time one takes; the rest is JSON encoding outside it.)
#[test]
fn stalled_shard_latency_is_attributed_to_queue_wait() {
    const PARTITIONS: u32 = 64;
    const SWEEPS: usize = 20;
    const VICTIM_PREDICTS: usize = 100;
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            shards: 2,
            // Every victim predict of one attempt stays in its shard's
            // ring, whatever the burst adds to it.
            flight_recorder_depth: 4096,
            // The staller reads nothing until its burst is done: its
            // unread replies must fit its budget.
            writer_capacity: 1 << 16,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Enough history that every refit is real work under the lock: 80
    // observations (past the 59 a 95/95 bound needs) in each partition,
    // and in the victim's own.
    let mut seed = Client::connect(addr).unwrap(); // loop 0
    for site in (0..PARTITIONS).map(|p| format!("site{p}")).chain(["victim".to_string()]) {
        for i in 0..80 {
            seed.observe(&site, "normal", 8, f64::from(i * 7 % 100), None, None)
                .unwrap();
        }
    }
    let mut burst = String::new();
    for sweep in 0..SWEEPS {
        for p in 0..PARTITIONS {
            burst.push_str(&format!(
                "{{\"method\":\"observe\",\"site\":\"site{p}\",\"queue\":\"normal\",\
                 \"procs\":8,\"wait\":{sweep}}}\n\
                 {{\"method\":\"predict\",\"site\":\"site{p}\",\"queue\":\"normal\",\
                 \"procs\":8}}\n"
            ));
        }
    }
    let burst_replies = SWEEPS * PARTITIONS as usize * 2;

    let mut attributed = false;
    for _ in 0..10 {
        // Raw writer so the whole burst is pipelined: loop 1 works through
        // it back to back, in and out of both shard locks.
        let staller = std::net::TcpStream::connect(addr).unwrap(); // loop 1
        let mut staller_w = staller.try_clone().unwrap();
        let mut staller_r = BufReader::new(staller);
        let mut victim = Client::connect(addr).unwrap(); // loop 0
        staller_w.write_all(burst.as_bytes()).unwrap();
        staller_w.flush().unwrap();

        // Depth-1 predicts while the burst runs: some of them find their
        // shard's lock held and wait for it. A trace lands when its reply
        // is flushed, and the burst's own traces all land when loop 1
        // finishes the wakeup that read it — so the victim looks at the
        // dump (newest entries only) as it goes, while its predicts are
        // still the newest thing in it.
        for _ in 0..VICTIM_PREDICTS / 20 {
            for _ in 0..20 {
                victim.predict("victim", "normal", 8).unwrap();
            }
            let dump = victim.trace().unwrap();
            let recent = match dump.get("recent") {
                Some(Json::Arr(entries)) => entries.clone(),
                _ => Vec::new(),
            };
            attributed |= recent
                .iter()
                .filter(|e| {
                    e.get("method").and_then(Json::as_str) == Some("predict")
                        && e.get("partition").and_then(Json::as_str)
                            == Some("victim/normal/5-16")
                })
                .any(|entry| {
                    let queue = entry.get("queue_ns").and_then(Json::as_f64).unwrap();
                    let handle = entry.get("handle_ns").and_then(Json::as_f64).unwrap();
                    queue > 10.0 * handle.max(1.0)
                });
        }

        // Drain the staller so its replies do not pile up across attempts.
        let mut line = String::new();
        for _ in 0..burst_replies {
            line.clear();
            staller_r.read_line(&mut line).unwrap();
        }
        if attributed {
            break;
        }
        // Lost every race (the burst ran between the predicts); try again.
    }
    assert!(
        attributed,
        "a predict behind a held shard lock attributes latency to queue-wait"
    );

    seed.shutdown().unwrap();
    server.join().unwrap();
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
