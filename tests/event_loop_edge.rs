//! Edge cases of the epoll I/O loops, run over both of their framers (JSON
//! lines and binary frames): partial writes under full socket buffers,
//! requests split across reads, half-closed clients, slow-client
//! poisoning, replies larger than the slow-consumer budget, the newline
//! framer's stream-level errors, and graceful shutdown with both listeners
//! live.

use qdelay::serve::client::{Client, ClientError, Pending, Wire};
use qdelay::serve::proto::BinResponse;
use qdelay::serve::protocol::{Request, ERR_LINE_TOO_LONG};
use qdelay::serve::registry::Partition;
use qdelay::serve::server::{Server, ServerConfig};
use qdelay::serve::snapshot;
use qdelay_json::Json;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn binary_server(config: ServerConfig) -> Server {
    let config = ServerConfig { binary_addr: Some("127.0.0.1:0".to_string()), ..config };
    Server::start("127.0.0.1:0", config).unwrap()
}

/// `serve.slow_disconnects` is process-wide and the harness runs tests on
/// parallel threads: the tests that poison a connection and the test that
/// asserts the counter stands still run under this lock.
static SLOW_DISCONNECTS: Mutex<()> = Mutex::new(());

fn slow_disconnects(server: &Server) -> f64 {
    let stats = Client::connect(server.local_addr()).unwrap().stats().unwrap();
    stats
        .get("telemetry")
        .and_then(|t| t.get("counters"))
        .and_then(|c| c.get("serve.slow_disconnects"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Both listeners, and so both framers.
const WIRES: [Wire; 2] = [Wire::Bin, Wire::Json];

/// A reply reduced to what these tests compare, whichever codec carried it.
#[derive(Debug, PartialEq)]
enum Reply {
    Observe { seq: u64 },
    Predict { n: u64, seq: u64 },
    Error(String),
}

/// A raw socket to one listener: the tests control every byte and every
/// read, which the typed clients would hide.
struct Raw {
    stream: TcpStream,
    wire: Wire,
    buf: Vec<u8>,
    /// Bytes read off the socket so far.
    received: usize,
    /// What `wire` needs to decode the replies to the requests encoded so
    /// far; the tests send them in the order they were encoded.
    pending: Pending,
}

impl Raw {
    fn connect(server: &Server, wire: Wire) -> Raw {
        let addr = match wire {
            Wire::Json => server.local_addr(),
            Wire::Bin => server.binary_addr().unwrap(),
        };
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        Raw { stream, wire, buf: Vec::new(), received: 0, pending: Pending::new() }
    }

    /// One request's bytes on this connection's wire.
    fn encode(&mut self, id: u64, request: Request) -> Vec<u8> {
        let mut out = Vec::new();
        self.wire.encode(&mut out, &mut self.pending, id, &request);
        out
    }

    fn observe(&mut self, id: u64, site: &str, wait: f64) -> Vec<u8> {
        self.encode(
            id,
            Request::Observe {
                site: site.into(),
                queue: "q".into(),
                procs: 8,
                wait,
                predicted_bmbp: None,
                predicted_lognormal: None,
            },
        )
    }

    fn predict(&mut self, id: u64, site: &str) -> Vec<u8> {
        self.encode(id, Request::Predict { site: site.into(), queue: "q".into(), procs: 8 })
    }

    fn stats(&mut self, id: u64) -> Vec<u8> {
        self.encode(id, Request::Stats)
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
    }

    /// The next reply in server order, whole, or `None` once the server
    /// has closed the connection.
    fn recv_response(&mut self) -> Option<(u64, BinResponse)> {
        loop {
            if let Some(reply) = self.wire.cut(&mut self.buf, &mut self.pending).unwrap() {
                return Some(reply);
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    self.received += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return None,
                Err(e) => panic!("{:?}: no reply within the timeout: {e}", self.wire),
            }
        }
    }

    /// The next reply, reduced to what most tests compare.
    fn recv(&mut self) -> Option<(u64, Reply)> {
        let (id, response) = self.recv_response()?;
        let reply = match response {
            BinResponse::Observe { seq, .. } => Reply::Observe { seq },
            BinResponse::Predict { n, seq, .. } => Reply::Predict { n, seq },
            BinResponse::Error { code, .. } => Reply::Error(code),
            other => panic!("unexpected reply {other:?}"),
        };
        Some((id, reply))
    }
}

/// Megabytes of pipelined replies while the client is not reading: the
/// kernel send buffer fills, the server's vectored write goes partial, and
/// the EPOLLOUT resume path must deliver every reply intact and in order —
/// each one the bounds, bit for bit, of an in-process replay.
#[test]
fn partial_writes_resume_mid_reply() {
    const SITES: [&str; 4] = ["a", "b", "c", "d"];
    const REQUESTS: u64 = 60_000;
    for wire in WIRES {
        let server = binary_server(ServerConfig {
            shards: 2,
            // A large byte budget so deferred reading is not mistaken for a
            // slow consumer: this test wants partial writes, not poisoning.
            writer_capacity: 1 << 20,
            ..ServerConfig::default()
        });
        let mut seeder = Client::connect_binary(server.binary_addr().unwrap()).unwrap();

        // The same history on the server and in process: the replay is the
        // oracle for every reply's bits.
        let mut replay: Vec<Partition> = SITES.iter().map(|_| Partition::new()).collect();
        for i in 0..3000u32 {
            let wait = f64::from(i % 997) * 3.25;
            seeder.observe(SITES[i as usize % 4], "q", 8, wait, None, None).unwrap();
            replay[i as usize % 4].observe(wait, None, None);
        }
        let want: Vec<String> = SITES
            .iter()
            .zip(&mut replay)
            .map(|(site, partition)| {
                let p = partition.predict();
                let (n, seq, bmbp, lognormal) = (p.n as u64, p.seq, p.bmbp, p.lognormal);
                let partition = format!("{site}/q/5-16");
                format!("{:?}", BinResponse::Predict { partition, n, seq, bmbp, lognormal })
            })
            .collect();

        // Queue the whole burst (without reading a byte): its replies total
        // megabytes — far more than any socket buffer pair, forcing the
        // server through WouldBlock + EPOLLOUT resumes.
        let mut client = Raw::connect(&server, wire);
        let site = |i: u64| SITES[i as usize % SITES.len()];
        let burst: Vec<u8> = (0..REQUESTS).flat_map(|i| client.predict(100 + i, site(i))).collect();
        client.send(&burst);
        std::thread::sleep(Duration::from_millis(100)); // let buffers wedge

        for i in 0..REQUESTS {
            let (id, reply) = client.recv_response().expect("server closed mid-burst");
            assert_eq!(id, 100 + i, "{wire:?}: responses arrive in request order");
            let want = &want[i as usize % SITES.len()];
            assert_eq!(&format!("{reply:?}"), want, "{wire:?}: reply {i} is bit-identical");
        }
        assert!(client.received > 3 << 20, "{wire:?}: {} bytes of replies", client.received);

        seeder.shutdown().unwrap();
        server.join().unwrap();
    }
}

/// Requests dribbled in one byte at a time still parse: short reads may
/// split a frame (or a line) at every possible boundary across wakeups.
#[test]
fn short_reads_split_requests_across_wakeups() {
    for wire in WIRES {
        let server = binary_server(ServerConfig { shards: 1, ..ServerConfig::default() });
        let mut client = Raw::connect(&server, wire);

        let first = client.observe(1, "site", 123.456);
        let mut rest = client.observe(2, "site", 789.0125);
        rest.extend(client.predict(3, "site"));

        // Dribble the first request byte-by-byte, then split the rest at an
        // arbitrary mid-request point: every prefix length gets exercised.
        for (i, byte) in first.iter().enumerate() {
            client.send(&[*byte]);
            if i % 7 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let cut = rest.len() / 2;
        client.send(&rest[..cut]);
        std::thread::sleep(Duration::from_millis(20));
        client.send(&rest[cut..]);

        assert_eq!(client.recv(), Some((1, Reply::Observe { seq: 1 })), "{wire:?}");
        assert_eq!(client.recv(), Some((2, Reply::Observe { seq: 2 })), "{wire:?}");
        assert_eq!(client.recv(), Some((3, Reply::Predict { n: 2, seq: 2 })), "{wire:?}");

        server.shutdown();
        server.join().unwrap();
    }
}

/// A client that pipelines a burst and then half-closes (EOF on its write
/// side) still gets every reply before the server closes its side.
#[test]
fn half_closed_client_still_gets_every_reply() {
    const BURST: u64 = 200;
    for wire in WIRES {
        let server = binary_server(ServerConfig { shards: 2, ..ServerConfig::default() });
        let mut client = Raw::connect(&server, wire);
        let mut burst = Vec::new();
        for i in 0..BURST {
            burst.extend(client.observe(i + 1, ["x", "y", "z"][i as usize % 3], i as f64));
        }
        burst.extend(client.predict(BURST + 1, "x"));
        client.send(&burst);
        client.stream.shutdown(Shutdown::Write).unwrap();

        let mut ids = Vec::new();
        while let Some((id, reply)) = client.recv() {
            assert!(!matches!(reply, Reply::Error(_)), "{wire:?}: request {id} got {reply:?}");
            ids.push(id);
        }
        ids.sort_unstable();
        assert_eq!(
            ids,
            (1..=BURST + 1).collect::<Vec<u64>>(),
            "{wire:?}: every request sent before the half-close is answered exactly once"
        );

        server.shutdown();
        server.join().unwrap();
    }
}

/// The newline framer's end-of-stream rule: a final line that arrives
/// without its newline is still a request and is answered before the close.
#[test]
fn final_unterminated_line_is_answered() {
    let server = binary_server(ServerConfig { shards: 1, ..ServerConfig::default() });
    let mut client = Raw::connect(&server, Wire::Json);
    let mut bytes = client.observe(1, "s", 5.0);
    bytes.extend(client.predict(2, "s"));
    assert_eq!(bytes.pop(), Some(b'\n'), "the last line goes out unterminated");
    client.send(&bytes);
    client.stream.shutdown(Shutdown::Write).unwrap();

    assert_eq!(client.recv(), Some((1, Reply::Observe { seq: 1 })));
    assert_eq!(client.recv(), Some((2, Reply::Predict { n: 1, seq: 1 })));
    assert_eq!(client.recv(), None, "then the server closes its side");

    server.shutdown();
    server.join().unwrap();
}

/// A line past `max_line` is unrecoverable (there is no resync inside an
/// unbounded line): the request before it is answered, one typed
/// `line_too_long` error is flushed, and only then does the server close —
/// whether or not the oversized line ever gets its newline.
#[test]
fn line_too_long_error_arrives_before_the_close() {
    for terminated in [false, true] {
        let server = binary_server(ServerConfig {
            shards: 1,
            max_line: 1024,
            ..ServerConfig::default()
        });
        let mut client = Raw::connect(&server, Wire::Json);
        let mut bytes = client.observe(1, "s", 5.0);
        bytes.extend(std::iter::repeat_n(b'x', 4096));
        if terminated {
            bytes.push(b'\n');
        }
        // Never answered: it sits behind the point where sync was lost.
        bytes.extend(client.predict(3, "s"));
        client.send(&bytes);

        // The shard's ack and the loop's own error may arrive in either
        // order; both arrive before the close, and nothing else does.
        let mut replies: Vec<(u64, Reply)> = std::iter::from_fn(|| client.recv()).collect();
        replies.sort_by_key(|(id, _)| *id);
        assert_eq!(
            replies,
            vec![
                (0, Reply::Error(ERR_LINE_TOO_LONG.to_string())),
                (1, Reply::Observe { seq: 1 }),
            ],
            "terminated={terminated}"
        );

        server.shutdown();
        server.join().unwrap();
    }
}

/// A client that stops reading while requesting large responses blows its
/// byte budget and is disconnected — without wedging the server or any
/// co-resident connection.
#[test]
fn slow_client_is_poisoned_not_the_server() {
    let _counter = SLOW_DISCONNECTS.lock().unwrap_or_else(|e| e.into_inner());
    for wire in WIRES {
        let server = binary_server(ServerConfig {
            shards: 1,
            writer_capacity: 8, // 8 * 256 = 2 KiB byte budget: trivially blown
            ..ServerConfig::default()
        });
        let addr = server.binary_addr().unwrap();

        let mut seeder = Client::connect_binary(addr).unwrap();
        for i in 0..500u32 {
            seeder.observe("s", "q", 4, f64::from(i), None, None).unwrap();
        }
        let before = slow_disconnects(&server);

        // The slow client: requests many `stats` documents, reads nothing.
        let mut slow = Raw::connect(&server, wire);
        let burst: Vec<u8> = (0..50).flat_map(|i| slow.stats(i + 1)).collect();
        slow.send(&burst);

        // The server must cut the connection: reads on it reach EOF/reset in
        // bounded time even though we never drained the responses.
        slow.stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        let start = Instant::now();
        let mut sink = vec![0u8; 64 * 1024];
        let died = loop {
            match slow.stream.read(&mut sink) {
                Ok(0) => break true,
                Ok(_) => {
                    // Drain slowly enough to stay poisoned: stop reading again.
                    std::thread::sleep(Duration::from_millis(50));
                    if start.elapsed() > Duration::from_secs(10) {
                        break false;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
                    ) =>
                {
                    break true
                }
                Err(_) => {
                    // timeout: keep waiting for the disconnect
                    if start.elapsed() > Duration::from_secs(10) {
                        break false;
                    }
                }
            }
        };
        assert!(died, "{wire:?}: slow client must be disconnected");
        assert_eq!(slow_disconnects(&server), before + 1.0, "{wire:?}: counted once");

        // Co-resident connection unaffected: the seeder still works.
        let seq = seeder.observe("s", "q", 4, 1.0, None, None).unwrap();
        assert_eq!(seq, 501);
        let p = seeder.predict("s", "q", 4).unwrap();
        assert_eq!(p.n, 501);

        seeder.shutdown().unwrap();
        server.join().unwrap();
    }
}

/// One reply larger than the whole slow-consumer budget, to a client that
/// is reading: the budget judges the backlog a reply finds, not the reply,
/// so a `stats` document is served in full on both protocols, the
/// connection lives on, and nobody is counted as a slow consumer.
#[test]
fn reply_larger_than_the_budget_reaches_a_reading_client() {
    let _counter = SLOW_DISCONNECTS.lock().unwrap_or_else(|e| e.into_inner());
    // writer_capacity 1: a budget of 256 bytes, well under one `stats` reply.
    let config = ServerConfig { shards: 4, writer_capacity: 1, ..ServerConfig::default() };
    let budget = config.writer_capacity * 256;
    let server = binary_server(config);
    let mut seeder = Client::connect_binary(server.binary_addr().unwrap()).unwrap();
    for i in 0..200u32 {
        seeder.observe("site7", "q", 8, f64::from(i % 97) * 1.5, None, None).unwrap();
    }
    let before = slow_disconnects(&server);

    for wire in WIRES {
        let mut client = Raw::connect(&server, wire);
        let request = client.stats(1);
        client.send(&request);
        match client.recv_response() {
            Some((1, BinResponse::Stats { json })) => assert!(
                json.len() > budget,
                "{wire:?}: the stats reply ({} bytes) must exceed the {budget}-byte budget",
                json.len()
            ),
            other => panic!("{wire:?}: a reading client lost its stats reply: {other:?}"),
        }
        // Same connection, still healthy.
        let request = client.predict(2, "site7");
        client.send(&request);
        assert_eq!(client.recv(), Some((2, Reply::Predict { n: 200, seq: 200 })), "{wire:?}");
    }
    assert_eq!(slow_disconnects(&server), before, "no reading client is a slow consumer");

    seeder.shutdown().unwrap();
    server.join().unwrap();
}

/// Graceful shutdown with both listeners live: in-flight work on each
/// protocol completes, both sockets close, and the final snapshot holds
/// the partitions both protocols observed.
#[test]
fn graceful_shutdown_with_both_listeners_live() {
    let dir = std::env::temp_dir().join(format!("qdelay-shutdown-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("final.json");
    let server = binary_server(ServerConfig {
        shards: 4,
        snapshot_path: Some(snap_path.clone()),
        ..ServerConfig::default()
    });
    let json_addr = server.local_addr();
    let bin_addr = server.binary_addr().unwrap();

    let mut json = Client::connect(json_addr).unwrap();
    let mut bin = Client::connect_binary(bin_addr).unwrap();
    for i in 0..40u32 {
        json.observe("json-site", "q", 2, f64::from(i) * 7.0, None, None).unwrap();
        bin.observe("bin-site", "q", 2, f64::from(i) * 11.0, None, None).unwrap();
    }

    // Shut down via the JSON listener while the binary connection idles.
    json.shutdown().unwrap();
    server.join().unwrap();

    // The binary connection is closed out by shutdown: the next call
    // fails with a transport error rather than hanging.
    bin.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match bin.predict("bin-site", "q", 2) {
        Err(ClientError::Io(_)) | Err(ClientError::Server(_)) => {}
        Ok(_) => panic!("predict succeeded after shutdown"),
        Err(e) => panic!("expected a transport error, got {e}"),
    }

    // The final snapshot holds both protocols' partitions.
    let (parts, _) = snapshot::read(&snap_path).unwrap();
    let has = |site: &str| parts.iter().any(|p| p.site == site);
    assert!(has("json-site"), "snapshot missing JSON-observed partition");
    assert!(has("bin-site"), "snapshot missing binary-observed partition");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Shutdown requested *through the binary listener* also tears everything
/// down (the acknowledgment races the close, so EOF counts as success),
/// including the JSON connection idling on the same loop.
#[test]
fn shutdown_via_binary_listener() {
    let server = binary_server(ServerConfig { shards: 2, ..ServerConfig::default() });
    let mut json = Client::connect(server.local_addr()).unwrap();
    let mut bin = Client::connect_binary(server.binary_addr().unwrap()).unwrap();

    json.observe("x", "q", 1, 5.0, None, None).unwrap();
    bin.observe("x", "q", 1, 6.0, None, None).unwrap();
    bin.shutdown().unwrap();
    server.join().unwrap();

    json.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match json.predict("x", "q", 1) {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected a transport error after shutdown, got {other:?}"),
    }
}
