//! End-to-end tests of the live observability plane: the `metrics` and
//! `trace` wire methods over both protocols, the enriched `stats` reply,
//! and the flight recorder's central promise — that a request stuck behind
//! a busy shard shows up with its latency attributed to queue-wait, not
//! compute.

use qdelay::serve::client::{BinClient, Client};
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
    let mut bin = BinClient::connect(server.binary_addr().unwrap()).unwrap();

    for i in 0..50 {
        json.observe("ds", "normal", 8, f64::from(i), None, None).unwrap();
        bin.observe("ds", "normal", 8, f64::from(i) + 0.5, None, None).unwrap();
        json.predict("ds", "normal", 8).unwrap();
    }
    // Let the sampler take at least one post-traffic sample.
    std::thread::sleep(Duration::from_millis(60));

    for report in [json.metrics().unwrap(), bin.metrics().unwrap()] {
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
    let mut bin = BinClient::connect(server.binary_addr().unwrap()).unwrap();

    for i in 0..20 {
        json.observe("ds", "normal", 8, f64::from(i), None, None).unwrap();
        bin.predict("lonestar", "normal", 16).unwrap();
    }

    // Entries land in the ring when the reply hits the socket, which can
    // trail the client's read by a scheduler tick; poll briefly.
    let mut protos_seen = (false, false);
    for _ in 0..50 {
        for dump in [json.trace().unwrap(), bin.trace().unwrap()] {
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

/// The enriched `stats` reply: crate version, uptime, and per-shard queue
/// depth, identical in shape across both protocols.
#[test]
fn stats_reports_version_uptime_and_queue_depth() {
    let server = start_dual();
    let mut json = Client::connect(server.local_addr()).unwrap();
    let mut bin = BinClient::connect(server.binary_addr().unwrap()).unwrap();
    json.observe("ds", "normal", 8, 10.0, None, None).unwrap();

    for stats in [json.stats().unwrap(), bin.stats().unwrap()] {
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
        assert!(!shards.is_empty());
        for shard in &shards {
            let depth = shard
                .get("queue_depth")
                .and_then(Json::as_f64)
                .expect("per-shard queue_depth");
            assert_eq!(depth, 0.0, "idle server reports drained queues");
        }
    }

    json.shutdown().unwrap();
    server.join().unwrap();
}

/// The flight recorder's reason for existing: when a shard is busy, a
/// request's trace must pin the latency on `queue_ns` (waiting for the
/// shard), not `handle_ns` (the predictor itself). We stall the single
/// shard with a pipelined burst of data-plane work from a second
/// connection — observe→predict pairs over every partition, so each
/// predict pays a dirty refit — and race a predict in behind it.
#[test]
fn stalled_shard_latency_is_attributed_to_queue_wait() {
    const PARTITIONS: u32 = 64;
    const SWEEPS: usize = 20;
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            shards: 1,
            flight_recorder_depth: 128,
            // The whole burst must fit the shard queue (no backpressure
            // rejections), and its unread replies the staller's budget.
            queue_capacity: 1 << 16,
            writer_capacity: 1 << 16,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Enough history that every refit is real work for the shard: 80
    // observations (past the 59 a 95/95 bound needs) in each partition,
    // and in the victim's own, which the burst never touches.
    let mut seed = Client::connect(addr).unwrap();
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
    'attempts: for _ in 0..10 {
        // Raw writer so we can pipeline the burst without waiting for the
        // replies: all of it enters the shard queue back-to-back.
        let staller = std::net::TcpStream::connect(addr).unwrap();
        let mut staller_w = staller.try_clone().unwrap();
        let mut staller_r = BufReader::new(staller);
        staller_w.write_all(burst.as_bytes()).unwrap();
        staller_w.flush().unwrap();

        // The victim predict queues behind whatever of the burst remains
        // (the pause lets the loop finish reading the burst first; the
        // shard needs far longer than that to work through it).
        let mut victim = Client::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        victim.predict("victim", "normal", 8).unwrap();

        // Drain the staller so its replies do not pile up across attempts.
        let mut line = String::new();
        for _ in 0..burst_replies {
            line.clear();
            staller_r.read_line(&mut line).unwrap();
        }

        // The trace lands at reply flush; poll for the predict entry.
        for _ in 0..50 {
            let dump = victim.trace().unwrap();
            let recent = match dump.get("recent") {
                Some(Json::Arr(entries)) => entries.clone(),
                _ => Vec::new(),
            };
            let predict = recent.iter().rev().find(|e| {
                e.get("method").and_then(Json::as_str) == Some("predict")
                    && e.get("partition").and_then(Json::as_str) == Some("victim/normal/5-16")
            });
            if let Some(entry) = predict {
                let queue = entry.get("queue_ns").and_then(Json::as_f64).unwrap();
                let handle = entry.get("handle_ns").and_then(Json::as_f64).unwrap();
                if queue > 10.0 * handle.max(1.0) {
                    attributed = true;
                    break 'attempts;
                }
                // Lost the race (the burst already drained); try again.
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    assert!(
        attributed,
        "a predict behind a stalled shard attributes latency to queue-wait"
    );

    seed.shutdown().unwrap();
    server.join().unwrap();
}
