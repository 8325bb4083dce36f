//! End-to-end tests of the qdelay-serve service: concurrent clients over
//! real sockets, and hostile input that must produce typed errors rather
//! than a crash.

use qdelay::serve::client::{Client, ClientError, RetryPolicy, Wire};
use qdelay::serve::proto::{self, BinResponse};
use qdelay::serve::protocol::{self, Request};
use qdelay::serve::registry::{Partition, PartitionKey};
use qdelay::serve::server::{Server, ServerConfig};
use qdelay::serve::snapshot;
use qdelay_journal::frame::{self, Check};
use qdelay_json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

/// `serve.json.tree_lines` is process-wide and the harness runs tests on
/// parallel threads: the tests that send lines the flat scan declines and
/// the test that asserts the counter stands still run under this lock.
static TREE_LINES: Mutex<()> = Mutex::new(());

/// Deterministic per-thread wait stream.
fn wait(thread: usize, i: usize) -> f64 {
    (((thread as u64) << 32 | i as u64).wrapping_mul(2_654_435_761) % 10_000) as f64
}

/// K client threads interleaving observe/predict on shared partitions must
/// leave every partition in exactly the state a single-threaded replay of
/// that partition's (seq-ordered) events produces.
#[test]
fn concurrent_clients_match_single_threaded_replay() {
    const THREADS: usize = 8;
    const EVENTS_PER_THREAD: usize = 300;
    // 6 partitions, deliberately shared across threads: 2 sites x 1 queue
    // x 3 proc buckets.
    let partitions: [(&str, &str, u32); 6] = [
        ("ds", "normal", 2),
        ("ds", "normal", 8),
        ("ds", "normal", 70),
        ("lonestar", "normal", 2),
        ("lonestar", "normal", 8),
        ("lonestar", "normal", 70),
    ];

    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Each observe ack carries the per-partition sequence number it became;
    // collecting (key, seq, wait, fed-back prediction) is enough to replay
    // every partition's exact event order single-threaded.
    #[derive(Debug)]
    struct Event {
        key: PartitionKey,
        seq: u64,
        wait: f64,
        predicted_bmbp: Option<f64>,
        predicted_lognormal: Option<f64>,
    }

    let events: Vec<Event> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..THREADS {
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut log = Vec::new();
                // Each thread carries its own last-seen predictions per
                // partition and feeds them back, exercising record_outcome
                // (and hence change-point trims) under interleaving.
                let mut last: Vec<(Option<f64>, Option<f64>)> = vec![(None, None); 6];
                for i in 0..EVENTS_PER_THREAD {
                    let pi = (t + i) % 6;
                    let (site, queue, procs) = partitions[pi];
                    let w = wait(t, i);
                    let (pb, pl) = last[pi];
                    let seq = client.observe(site, queue, procs, w, pb, pl).unwrap();
                    log.push(Event {
                        key: PartitionKey::for_request(site, queue, procs),
                        seq,
                        wait: w,
                        predicted_bmbp: pb,
                        predicted_lognormal: pl,
                    });
                    if i % 5 == 0 {
                        let p = client.predict(site, queue, procs).unwrap();
                        last[pi] = (p.bmbp, p.lognormal);
                    }
                }
                log
            }));
        }
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    // Grab the server's final state as a snapshot file and shut it down.
    let path = std::env::temp_dir().join("qdelay-serve-it-concurrent.snap");
    let mut client = Client::connect(addr).unwrap();
    client.snapshot(Some(path.to_str().unwrap())).unwrap();
    client.shutdown().unwrap();
    server.join().unwrap();

    let (server_parts, server_dead) = snapshot::read(&path).expect("valid snapshot");
    let _ = std::fs::remove_file(&path);
    assert_eq!(server_parts.len(), 6);
    assert!(server_dead.is_empty(), "no tombstones were issued");

    // Single-threaded replay: per partition, apply its events in seq order
    // into a fresh Partition; the resulting state must equal the server's.
    for sp in &server_parts {
        let key = PartitionKey {
            site: sp.site.clone(),
            queue: sp.queue.clone(),
            range: sp.range,
        };
        let mut mine: Vec<&Event> = events.iter().filter(|e| e.key == key).collect();
        mine.sort_by_key(|e| e.seq);
        assert_eq!(
            mine.len() as u64,
            sp.seq,
            "every ack'd observe for {} is accounted for",
            key.label()
        );
        for (i, e) in mine.iter().enumerate() {
            assert_eq!(e.seq, i as u64 + 1, "seqs are a gapless 1..=n");
        }
        let mut replayed = Partition::new();
        for e in &mine {
            replayed.observe(e.wait, e.predicted_bmbp, e.predicted_lognormal);
        }
        assert_eq!(
            &replayed.to_snapshot(&key),
            sp,
            "replayed state diverged for {}",
            key.label()
        );
    }
}

#[test]
fn malformed_input_yields_typed_errors_not_crashes() {
    let _counter = TREE_LINES.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig { max_line: 4096, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut c = Client::connect(addr).unwrap();
    // Sends one raw line and reads its reply, which must be a typed error.
    let refused = |c: &mut Client, line: &str| {
        c.queue_raw(format!("{line}\n").as_bytes());
        c.flush().unwrap();
        match c.read_response().unwrap() {
            (id, BinResponse::Error { code, .. }) => (id, code),
            other => panic!("'{line}' was not refused: {other:?}"),
        }
    };

    // Truncated JSON: typed parse error, connection survives.
    assert_eq!(refused(&mut c, r#"{"method":"stats""#), (0, "parse".to_string()));

    // Trailing garbage after a complete value: also a parse error.
    assert_eq!(refused(&mut c, r#"{"method":"stats"} extra"#).1, "parse");

    // Nesting past the parser's cap: a parse error, not a deeper recursion.
    assert_eq!(refused(&mut c, &"[".repeat(4000)).1, "parse");

    // Unknown method: bad_request, and the id is echoed.
    assert_eq!(
        refused(&mut c, r#"{"id":42,"method":"teleport"}"#),
        (42, "bad_request".to_string())
    );

    // Missing/invalid fields.
    let line = r#"{"method":"observe","site":"s","queue":"q","procs":1}"#;
    assert_eq!(refused(&mut c, line).1, "bad_request");

    // The connection still works for valid traffic.
    let seq = c.observe("s", "q", 1, 5.0, None, None).unwrap();
    assert_eq!(seq, 1);

    // Oversized line: typed error, then the server closes this connection.
    let huge = format!(r#"{{"method":"predict","site":"{}""#, "x".repeat(8192));
    assert_eq!(refused(&mut c, &huge).1, "line_too_long");
    assert!(
        c.read_response().is_err(),
        "connection should be closed after an oversized line"
    );

    // ...but the server itself is alive: a fresh connection works.
    let mut c2 = Client::connect(addr).unwrap();
    let p = c2.predict("s", "q", 1).unwrap();
    assert_eq!(p.seq, 1, "state survived the hostile connection");

    // A refusal through the typed client API (this server is no replica).
    match c2.promote().unwrap_err() {
        ClientError::Server(e) => assert_eq!(e.code, "bad_request"),
        other => panic!("expected server error, got {other}"),
    }

    c2.shutdown().unwrap();
    server.join().unwrap();
}

/// Sends raw lines down a fresh connection and returns each reply parsed.
fn raw_exchange(server: &Server, lines: &[&str]) -> Vec<Json> {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut replies = BufReader::new(stream.try_clone().unwrap());
    lines
        .iter()
        .map(|line| {
            stream.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut reply = String::new();
            replies.read_line(&mut reply).unwrap();
            Json::parse(&reply).unwrap()
        })
        .collect()
}

/// A name spelled with a `\u` surrogate pair (what Python's `json.dumps`
/// sends for anything past the BMP) and the same name as raw UTF-8 are one
/// partition; half a pair is a parse error, not some third partition.
#[test]
fn escaped_and_raw_spellings_of_a_name_are_one_partition() {
    let _counter = TREE_LINES.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let replies = raw_exchange(
        &server,
        &[
            r#"{"method":"observe","site":"\ud83d\ude80","queue":"q","procs":1,"wait":5}"#,
            r#"{"method":"predict","site":"🚀","queue":"q","procs":1}"#,
            r#"{"method":"predict","site":"\ud83d","queue":"q","procs":1}"#,
            r#"{"method":"predict","site":"\ude80\ud83d","queue":"q","procs":1}"#,
        ],
    );
    let label = Json::Str("🚀/q/1-4".into());
    assert_eq!(replies[0].get("partition"), Some(&label), "{:?}", replies[0]);
    assert_eq!(replies[1].get("partition"), Some(&label), "{:?}", replies[1]);
    assert_eq!(replies[1].get("n"), Some(&Json::Num(1.0)));
    for refused in &replies[2..] {
        assert_eq!(refused.get("error").and_then(Json::as_str), Some("parse"), "{refused:?}");
    }
    let mut c = Client::connect(server.local_addr()).unwrap();
    assert_eq!(c.predict("🚀", "q", 1).unwrap().n, 1);
    assert_eq!(c.stats().unwrap().get("partitions"), Some(&Json::Num(1.0)));
    c.shutdown().unwrap();
    server.join().unwrap();
}

/// The flat scan reads every line the bundled client writes, so the count
/// of lines that fell to the tree parser stands still under data-plane
/// (and control) traffic; a nested `id` is the tree's, answered all the
/// same with the id echoed, and counted.
#[test]
fn client_traffic_never_takes_the_tree_path() {
    let _counter = TREE_LINES.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let tree_lines = |c: &mut Client| {
        let metrics = c.metrics().unwrap();
        let counters = metrics.get("current").and_then(|t| t.get("counters"));
        counters
            .and_then(|c| c.get("serve.json.tree_lines"))
            .and_then(Json::as_f64)
            .expect("registered by the first JSON connection")
    };
    let before = tree_lines(&mut c);
    for i in 0..70 {
        c.observe("δ \"site\"", "q\n", 4, wait(0, i), Some(1.5), None).unwrap();
        c.predict("δ \"site\"", "q\n", 4).unwrap();
        c.admit("δ \"site\"", "q\n", 4, 600.0, Some(0.95)).unwrap();
    }
    c.stats().unwrap();
    c.trace().unwrap();
    assert_eq!(tree_lines(&mut c), before, "a client line fell to the tree parser");

    // (The blank lines ride in front: they are answered by nothing.)
    let replies = raw_exchange(&server, &["\n  \r\n{\"method\":\"stats\",\"id\":[1]}"]);
    assert_eq!(replies[0].get("id"), Some(&Json::Arr(vec![Json::Num(1.0)])));
    assert_eq!(replies[0].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(tree_lines(&mut c), before + 1.0, "blank lines are not counted");

    c.shutdown().unwrap();
    server.join().unwrap();
}

/// Warm restart through the public server API: snapshot, kill, restore,
/// and the restored server serves bit-identical predictions.
#[test]
fn restart_from_snapshot_serves_identical_predictions() {
    let dir = std::env::temp_dir().join("qdelay-serve-test-snap");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("registry.json");

    let config = ServerConfig {
        shards: 3,
        snapshot_path: Some(path.clone()),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    for i in 0..200 {
        c.observe("ds", "normal", 4, wait(0, i), None, None).unwrap();
        c.observe("ds", "normal", 32, wait(1, i), None, None).unwrap();
    }
    let before_a = c.predict("ds", "normal", 4).unwrap();
    let before_b = c.predict("ds", "normal", 32).unwrap();
    c.shutdown().unwrap();
    server.join().unwrap(); // writes the final snapshot

    // Restart with a different shard count: the flat snapshot re-deals.
    let config = ServerConfig {
        shards: 5,
        snapshot_path: Some(path.clone()),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let after_a = c.predict("ds", "normal", 4).unwrap();
    let after_b = c.predict("ds", "normal", 32).unwrap();
    for (before, after) in [(&before_a, &after_a), (&before_b, &after_b)] {
        assert_eq!(before.n, after.n);
        assert_eq!(before.seq, after.seq);
        assert_eq!(before.bmbp.map(f64::to_bits), after.bmbp.map(f64::to_bits));
        assert_eq!(
            before.lognormal.map(f64::to_bits),
            after.lognormal.map(f64::to_bits)
        );
    }
    c.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A server that accepts but never replies must surface as the typed
/// `Timeout`, not a hang or a generic io error.
#[test]
fn unresponsive_server_yields_typed_timeout() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut lines = BufReader::new(&stream);
        let mut line = String::new();
        let _ = lines.read_line(&mut line); // swallow the request, never reply
        std::thread::sleep(Duration::from_millis(400));
        drop(stream);
    });
    let mut c = Client::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_millis(80))).unwrap();
    let err = c.predict("s", "q", 1).unwrap_err();
    assert!(matches!(err, ClientError::Timeout), "got {err}");
    hold.join().unwrap();
}

/// Reads one request off a stub server's connection.
fn stub_read(stream: &mut TcpStream, wire: Wire, buf: &mut Vec<u8>) -> (u64, Request) {
    loop {
        match wire {
            Wire::Json => {
                if let Some(newline) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=newline).collect();
                    let v = qdelay_json::parse_line(&line[..newline]).unwrap().unwrap();
                    let (id, request) = protocol::parse_request(&v);
                    let id = id.as_ref().and_then(Json::as_usize).expect("requests carry an id");
                    return (id as u64, request.unwrap());
                }
            }
            Wire::Bin => {
                let checked = frame::check(buf, proto::MAX_REQ_PAYLOAD);
                if let Check::Complete { start, end, next } = checked {
                    let (id, request) = proto::decode_request(&buf[start..end]);
                    buf.drain(..next);
                    return (id, request.unwrap());
                }
            }
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "the client hung up mid-request");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// A stub server's `predict` reply to request `id`, recognisable by `seq`.
fn stub_predict_reply(wire: Wire, id: u64, seq: u64) -> Vec<u8> {
    match wire {
        Wire::Json => {
            let id = Json::Num(id as f64);
            let line = protocol::predict_line(Some(&id), "s/q/1-4", 7, seq, None, None);
            format!("{line}\n").into_bytes()
        }
        Wire::Bin => {
            let mut out = Vec::new();
            proto::encode_predict_resp(&mut out, id, "s/q/1-4", 7, seq, None, None);
            out
        }
    }
}

/// After a timeout the connection is out of step: the late reply to the
/// first question arrives in front of the reply to the second. Whichever
/// wire, the second call must fail on the id it reads, never return the
/// first question's answer as its own.
#[test]
fn late_reply_is_refused_not_taken_for_the_next_answer() {
    for wire in [Wire::Json, Wire::Bin] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stub = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            // Silent through the first request; the second arrives only
            // after the client has given up on it. Then both answers go
            // out, the late one first.
            let (first, _) = stub_read(&mut stream, wire, &mut buf);
            let (second, _) = stub_read(&mut stream, wire, &mut buf);
            assert_eq!((first, second), (1, 2), "{wire:?}: ids count up from 1");
            stream.write_all(&stub_predict_reply(wire, first, 111)).unwrap();
            stream.write_all(&stub_predict_reply(wire, second, 222)).unwrap();
            stream
        });
        let mut c = match wire {
            Wire::Json => Client::connect(addr).unwrap(),
            Wire::Bin => Client::connect_binary(addr).unwrap(),
        };
        c.set_read_timeout(Some(Duration::from_millis(80))).unwrap();
        let err = c.predict("s", "q", 1).unwrap_err();
        assert!(matches!(err, ClientError::Timeout), "{wire:?}: got {err}");
        match c.predict("s", "q", 1) {
            Err(ClientError::Protocol(m)) => assert!(m.contains("reply id 1"), "{wire:?}: {m}"),
            other => panic!("{wire:?}: the late reply must be refused, got {other:?}"),
        }
        drop(stub.join().unwrap());
    }
}

/// Idempotent requests retry through a reconnect: the first connection
/// times out, the retry's fresh connection is answered.
#[test]
fn predict_retries_reconnect_after_timeout() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        // Connection 1: swallow the request and stay silent (client times
        // out). Keep the stream alive so the failure is a timeout, not EOF.
        let (first, _) = listener.accept().unwrap();
        let mut lines = BufReader::new(first.try_clone().unwrap());
        let mut line = String::new();
        let _ = lines.read_line(&mut line);
        // Connection 2 (the retry): answer the predict properly.
        let (mut second, _) = listener.accept().unwrap();
        let (id, request) = stub_read(&mut second, Wire::Json, &mut Vec::new());
        assert!(matches!(request, Request::Predict { .. }), "got: {request:?}");
        second.write_all(&stub_predict_reply(Wire::Json, id, 7)).unwrap();
        drop(first);
    });
    let mut c = Client::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_millis(80))).unwrap();
    c.set_retry(Some(RetryPolicy {
        attempts: 3,
        initial_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
    }));
    let p = c.predict("s", "q", 1).unwrap();
    assert_eq!(p.seq, 7, "the retry's reply must be the one returned");
    fake.join().unwrap();
}

/// `observe` is not idempotent (its ack assigns a sequence number) and
/// must never retry, even with a retry policy configured.
#[test]
fn observe_never_retries() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        // Drop the first connection after its request: the client sees EOF.
        {
            let (first, _) = listener.accept().unwrap();
            let mut lines = BufReader::new(first);
            let mut line = String::new();
            let _ = lines.read_line(&mut line);
        }
        // The next connection must be the test's sentinel, proving the
        // client never dialed again on its own.
        let (second, _) = listener.accept().unwrap();
        let mut lines = BufReader::new(second);
        let mut line = String::new();
        lines.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "sentinel", "observe must not have reconnected");
    });
    let mut c = Client::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
    c.set_retry(Some(RetryPolicy::default()));
    let err = c.observe("s", "q", 1, 5.0, None, None).unwrap_err();
    assert!(matches!(err, ClientError::Io(_)), "got {err}");
    let mut sentinel = std::net::TcpStream::connect(addr).unwrap();
    sentinel.write_all(b"sentinel\n").unwrap();
    fake.join().unwrap();
}

/// Timeout + retry configured against a healthy server changes nothing:
/// normal traffic flows exactly as without them.
#[test]
fn timeout_and_retry_are_transparent_on_a_healthy_server() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    c.set_retry(Some(RetryPolicy::default()));
    for i in 0..50 {
        c.observe("ds", "normal", 4, wait(0, i), None, None).unwrap();
    }
    let p = c.predict("ds", "normal", 4).unwrap();
    assert_eq!(p.seq, 50);
    let stats = c.stats().unwrap();
    assert_eq!(stats.get("observations").and_then(Json::as_f64), Some(50.0));
    c.shutdown().unwrap();
    server.join().unwrap();
}
