//! Replication battery: warm bit-identical standby over WAL log-shipping.
//!
//! The contract under test, end to end:
//!
//! 1. **Bit-identity.** At any quiesced point, a replica's snapshot file
//!    is *byte-identical* to the primary's — for replica shard
//!    counts 1, 4, and 16, with tombstoned partitions in the history
//!    (the dead-cursor list replicates too), and whatever the replica's
//!    clients have asked it (a read changes nothing).
//! 2. **Failover.** `kill -9` the primary (a real process, a real
//!    SIGKILL), promote the replica, and clients continue: idempotent
//!    requests fail over under the retry policy, and the promoted
//!    replica's per-partition seq space continues with no gap.
//! 3. **Stream damage.** A torn or corrupted replication stream is a
//!    typed error — never a panic, and never an invented record.
//! 4. **Read-only dispatch.** Until promoted, a replica answers `observe`
//!    with the typed `read_only` error on both the JSON and binary
//!    protocols, while `predict`/`admit`/`stats` serve normally.

use qdelay::journal::{FsyncPolicy, JournalWriter, Record};
use qdelay::repl::{wire, Msg, ReplClient, ReplError};
use qdelay::serve::client::{Client, ClientError, RetryPolicy};
use qdelay::serve::durability::JournalConfig;
use qdelay::serve::registry::{Partition, PartitionKey};
use qdelay::serve::server::{Server, ServerConfig};
use qdelay::serve::snapshot;
use std::io::{BufRead, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Deterministic wait-time stream.
fn wait_stream(i: u64) -> f64 {
    (i.wrapping_mul(2_654_435_761) % 10_000) as f64 + 0.25
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qdelay-replication-it-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A journaled primary with its replication listener on an ephemeral port.
fn primary_config(dir: &Path, shards: usize) -> ServerConfig {
    ServerConfig {
        shards,
        journal: Some(JournalConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Never, // crashes are modeled by SIGKILL, not power loss
            segment_bytes: 4096,       // several rotations during a test
            compact_bytes: u64::MAX,
        }),
        repl_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    }
}

/// A read-only warm standby of the primary at `repl`.
fn replica_config(repl: &str, shards: usize) -> ServerConfig {
    ServerConfig {
        shards,
        replicate_from: Some(repl.to_string()),
        ..ServerConfig::default()
    }
}

fn rec(k: &PartitionKey, seq: u64) -> Record {
    Record {
        site: k.site.clone(),
        queue: k.queue.clone(),
        range: k.range.label().to_string(),
        seq,
        wait: wait_stream(seq),
        predicted_bmbp: (seq % 3 == 0).then(|| wait_stream(seq) * 0.5),
        predicted_lognormal: (seq % 5 == 0).then(|| wait_stream(seq) * 0.75),
        tombstone: false,
    }
}

/// The snapshot file `c`'s server writes to `path`, read back as bytes.
fn snapshot_file(c: &mut Client, path: &Path) -> Vec<u8> {
    c.snapshot(Some(path.to_str().unwrap())).unwrap();
    std::fs::read(path).unwrap()
}

/// Polls the replica until the snapshot file it writes to `path` matches
/// `want` byte for byte (the primary must be quiesced before computing
/// `want`).
fn await_byte_identical(replica: &mut Client, path: &Path, want: &[u8], what: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut got = Vec::new();
    while Instant::now() < deadline {
        got = snapshot_file(replica, path);
        if got == want {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let (want, got) = (snapshot::parse(want), snapshot::parse(&got));
    panic!("{what}: replica never converged\nprimary: {want:?}\nreplica: {got:?}");
}

/// Byte-identity across replica shard counts, with tombstone history.
///
/// The primary's WAL is pre-seeded with a tombstoned-and-resurrected
/// partition and a stays-dead partition, then live load is driven on top.
/// Three replicas with shard counts 1, 4, and 16 all converge to the
/// primary's exact snapshot bytes: the snapshot encoding is shard-count
/// free, and the dead-cursor list replicates with the live state.
#[test]
fn replica_snapshots_are_byte_identical_across_shard_counts() {
    let dir = fresh_dir("differential");
    let resurrected = PartitionKey::for_request("ds", "normal", 8);
    let stays_dead = PartitionKey::for_request("ds", "debug", 1);
    {
        let mut w =
            JournalWriter::open(&dir, 0, 0, 1 << 20, FsyncPolicy::Never, None).unwrap();
        for seq in 1..=20 {
            w.append(&rec(&resurrected, seq));
        }
        w.append(&Record::tombstone(
            &resurrected.site,
            &resurrected.queue,
            resurrected.range.label(),
            21,
        ));
        for seq in 22..=30 {
            w.append(&rec(&resurrected, seq));
        }
        for seq in 1..=5 {
            w.append(&rec(&stays_dead, seq));
        }
        w.append(&Record::tombstone(
            &stays_dead.site,
            &stays_dead.queue,
            stays_dead.range.label(),
            6,
        ));
        w.commit().unwrap();
    }

    let primary = Server::start("127.0.0.1:0", primary_config(&dir, 4)).unwrap();
    let repl = primary.repl_addr().unwrap().to_string();
    let mut pc = Client::connect(primary.local_addr()).unwrap();

    // Replicas attach while load is still arriving: part of the history
    // reaches them via the handshake snapshot + segment scan, the rest via
    // the live tail. The converged bytes must not depend on the split.
    let replicas: Vec<Server> = [1usize, 4, 16]
        .iter()
        .map(|&shards| Server::start("127.0.0.1:0", replica_config(&repl, shards)).unwrap())
        .collect();

    let partitions = [("ds", "normal", 8u32), ("ds", "normal", 64), ("eu", "short", 2)];
    let mut feedback: Vec<(Option<f64>, Option<f64>)> = vec![(None, None); partitions.len()];
    for i in 0..240u64 {
        let pi = (i % partitions.len() as u64) as usize;
        let (site, queue, procs) = partitions[pi];
        let (pb, pl) = feedback[pi];
        pc.observe(site, queue, procs, wait_stream(1000 + i), pb, pl).unwrap();
        if i % 7 == 0 {
            let p = pc.predict(site, queue, procs).unwrap();
            feedback[pi] = (p.bmbp, p.lognormal);
        }
    }

    // Quiesce: no more observes. The primary's snapshot is now stable and
    // every replica must converge to exactly these bytes.
    let snaps = fresh_dir("differential-snapshots");
    let want = snapshot_file(&mut pc, &snaps.join("primary.snap"));
    let (_, dead) = snapshot::parse(&want).unwrap();
    assert!(!dead.is_empty(), "tombstone cursors must be in the snapshot");
    for (replica, shards) in replicas.iter().zip([1usize, 4, 16]) {
        assert!(replica.is_read_only());
        let mut rc = Client::connect(replica.local_addr()).unwrap();
        // Reads are the only traffic a replica takes, and a read changes
        // nothing: asking about a key nobody observed creates no partition,
        // and asking about the tombstoned one leaves it dead (it answers
        // with its cursor). Either would make these bytes differ from the
        // primary's without a single write.
        assert_eq!(rc.predict("typo", "nope", 4).unwrap().seq, 0);
        rc.admit("typo2", "nope", 4, 600.0, None).unwrap();
        let asked = rc.predict(&stays_dead.site, &stays_dead.queue, 1).unwrap();
        assert_eq!(asked.n, 0, "a tombstoned partition has no history");
        let path = snaps.join(format!("replica-{shards}.snap"));
        await_byte_identical(&mut rc, &path, &want, &format!("{shards}-shard replica"));
        assert_eq!(rc.predict(&stays_dead.site, &stays_dead.queue, 1).unwrap().seq, 6);
        rc.shutdown().unwrap();
    }
    for replica in replicas {
        replica.join().unwrap();
    }
    pc.shutdown().unwrap();
    primary.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&snaps);
}

/// Read-only dispatch on both protocols, and promotion idempotence.
#[test]
fn replica_refuses_observes_until_promoted() {
    let dir = fresh_dir("read-only");
    let primary = Server::start("127.0.0.1:0", primary_config(&dir, 2)).unwrap();
    let repl = primary.repl_addr().unwrap().to_string();
    let mut pc = Client::connect(primary.local_addr()).unwrap();
    for i in 1..=50u64 {
        pc.observe("ds", "normal", 8, wait_stream(i), None, None).unwrap();
    }

    let mut rcfg = replica_config(&repl, 2);
    rcfg.binary_addr = Some("127.0.0.1:0".into());
    let replica = Server::start("127.0.0.1:0", rcfg).unwrap();
    assert!(replica.is_read_only());
    let mut rc = Client::connect(replica.local_addr()).unwrap();

    // Wait for full catch-up so the post-promotion seq check is exact.
    let deadline = Instant::now() + Duration::from_secs(20);
    while rc.predict("ds", "normal", 8).unwrap().seq < 50 {
        assert!(Instant::now() < deadline, "replica never caught up");
        std::thread::sleep(Duration::from_millis(25));
    }

    // JSON protocol: observe is the one mutating request, and only it is
    // gated. Reads serve normally from the replicated state.
    match rc.observe("ds", "normal", 8, 1.0, None, None) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, "read_only", "typed code, not a generic error");
            assert!(e.message.contains("promote"), "{}", e.message);
        }
        other => panic!("replica accepted a JSON observe: {other:?}"),
    }
    rc.stats().unwrap();
    rc.admit("ds", "normal", 8, 1e9, None).unwrap();

    // Binary protocol: same gate, same typed code.
    let mut bc = Client::connect_binary(replica.binary_addr().unwrap()).unwrap();
    match bc.observe("ds", "normal", 8, 1.0, None, None) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "read_only"),
        other => panic!("replica accepted a binary observe: {other:?}"),
    }
    bc.predict("ds", "normal", 8).unwrap();

    // A primary is not promotable; a replica is, idempotently — here over
    // the binary listener, then again through the in-process handle and
    // the JSON listener.
    let err = primary.promote().unwrap_err();
    assert!(err.contains("not a replica"), "{err}");
    let applied = bc.promote().unwrap();
    assert_eq!(applied, 50, "every replicated record was applied");
    assert!(!replica.is_read_only());
    assert_eq!(replica.promote().unwrap(), 50, "promotion is idempotent");
    assert_eq!(rc.promote().unwrap(), 50, "on either protocol");

    // The promoted server accepts observes, continuing the seq space.
    assert_eq!(rc.observe("ds", "normal", 8, 2.0, None, None).unwrap(), 51);
    assert_eq!(bc.observe("ds", "normal", 8, 3.0, None, None).unwrap(), 52);

    rc.shutdown().unwrap();
    replica.join().unwrap();
    pc.shutdown().unwrap();
    primary.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

const KILL9_CHILD_ENV: &str = "QDELAY_REPLICATION_KILL9_CHILD";

/// Child half of the kill-9 battery: a real journaled primary in its own
/// process, parked until the parent SIGKILLs it. Runs only when re-exec'd
/// by `kill9_failover_promotes_a_bit_identical_replica`; as a normal test
/// it is a no-op.
#[test]
fn kill9_child_primary() {
    let Ok(dir) = std::env::var(KILL9_CHILD_ENV) else { return };
    let server = Server::start("127.0.0.1:0", primary_config(Path::new(&dir), 1)).unwrap();
    println!(
        "CHILD_READY {} {}",
        server.local_addr(),
        server.repl_addr().expect("child primary has a repl listener")
    );
    // Parked: join() blocks on a shutdown request that never comes — the
    // parent's SIGKILL is the only way out, which is the point.
    server.join().unwrap();
}

/// The failover battery: `kill -9` a real primary process, promote the
/// in-process replica, and verify (a) the promoted state is bit-identical
/// to a single-threaded replay of exactly the records it applied, (b) the
/// seq space continues with no gap, and (c) a failover-list client's
/// idempotent requests carry on without the caller noticing.
#[test]
fn kill9_failover_promotes_a_bit_identical_replica() {
    let dir = fresh_dir("kill9");
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args(["kill9_child_primary", "--exact", "--nocapture"])
        .env(KILL9_CHILD_ENV, dir.to_str().unwrap())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = std::io::BufReader::new(child.stdout.take().unwrap()).lines();
    let (primary_json, primary_repl) = loop {
        let line = lines
            .next()
            .expect("child exited before CHILD_READY")
            .unwrap();
        // The libtest harness prints "test kill9_child_primary ... " with
        // no newline before the test body runs, so the marker lands
        // mid-line: search, don't prefix-match.
        if let Some(pos) = line.find("CHILD_READY ") {
            let mut it = line[pos + "CHILD_READY ".len()..].split_whitespace();
            break (
                it.next().unwrap().to_string(),
                it.next().unwrap().to_string(),
            );
        }
    };

    let replica = Server::start("127.0.0.1:0", replica_config(&primary_repl, 1)).unwrap();
    let replica_json = replica.local_addr().to_string();

    // The client knows both peers; only the primary accepts observes.
    let mut c = Client::connect_any(&[primary_json.as_str(), replica_json.as_str()]).unwrap();
    c.set_retry(Some(RetryPolicy {
        attempts: 6,
        initial_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(200),
    }));
    assert_eq!(c.active_peer().to_string(), primary_json);

    // No prediction feedback: the oracle below replays (wait, None, None).
    const EVENTS: u64 = 200;
    for i in 1..=EVENTS {
        let seq = c.observe("ds", "normal", 8, wait_stream(i), None, None).unwrap();
        assert_eq!(seq, i, "acked seqs are gapless while the primary lives");
    }

    // Make sure replication is flowing (not necessarily caught up) before
    // the kill — promotion must work from an arbitrary applied prefix.
    let mut rc = Client::connect(replica.local_addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while rc.predict("ds", "normal", 8).unwrap().seq == 0 {
        assert!(Instant::now() < deadline, "replication never started");
        std::thread::sleep(Duration::from_millis(10));
    }

    child.kill().unwrap(); // SIGKILL — no shutdown handshake, no flush
    child.wait().unwrap();

    let applied = replica.promote().unwrap();
    assert!(applied >= 1 && applied <= EVENTS, "applied {applied}");

    // Bit-identity: the promoted state must equal a fresh single-threaded
    // replay of exactly the first `applied` acked observations.
    let mut oracle = Partition::new();
    for i in 1..=applied {
        oracle.observe(wait_stream(i), None, None);
    }
    let got = rc.predict("ds", "normal", 8).unwrap();
    let want = oracle.predict();
    assert_eq!(got.seq, want.seq);
    assert_eq!(got.n, want.n);
    assert_eq!(got.bmbp.map(f64::to_bits), want.bmbp.map(f64::to_bits), "bmbp bits");
    assert_eq!(
        got.lognormal.map(f64::to_bits),
        want.lognormal.map(f64::to_bits),
        "lognormal bits"
    );

    // No seq gap: the promoted seq space continues from the applied
    // prefix (acked-but-unshipped records died with the primary, exactly
    // like acked-but-unsynced bytes in a single-node kill -9).
    assert_eq!(rc.observe("ds", "normal", 8, 7.5, None, None).unwrap(), applied + 1);

    // The failover client carries on: its connection died with the
    // primary, and the retry policy rotates its idempotent requests to
    // the promoted replica.
    let after = c.predict("ds", "normal", 8).unwrap();
    assert_eq!(after.seq, applied + 1);
    assert_eq!(c.active_peer().to_string(), replica_json, "client rotated to the replica");
    c.stats().unwrap();

    rc.shutdown().unwrap();
    replica.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Serves exactly `bytes` to one replication client, after consuming its
/// HELLO (17 bytes for an empty cursor list), then half-closes and drains
/// so nothing is lost to an early RST.
fn fake_primary(bytes: Vec<u8>) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut hello = [0u8; 17];
        s.read_exact(&mut hello).unwrap();
        s.write_all(&bytes).unwrap();
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut sink = [0u8; 256];
        while matches!(s.read(&mut sink), Ok(n) if n > 0) {}
    });
    (addr, handle)
}

/// Connects a real ReplClient to a fake primary serving `bytes` and pulls
/// messages until the first error, returning everything observed.
fn drain_session(bytes: Vec<u8>) -> (Vec<Msg>, ReplError) {
    let (addr, handle) = fake_primary(bytes);
    let mut client = ReplClient::connect(addr, &[], Duration::from_secs(5)).unwrap();
    let mut msgs = Vec::new();
    let err = loop {
        match client.next_msg() {
            Ok(m) => msgs.push(m),
            Err(e) => break e,
        }
    };
    drop(client); // the fake primary drains until the client hangs up
    handle.join().unwrap();
    (msgs, err)
}

/// Torn and corrupted streams: every failure is a typed error, never a
/// panic, and a damaged or truncated RECORD frame never yields a record.
#[test]
fn damaged_streams_are_typed_and_never_invent_records() {
    // The valid session prefix every case builds on.
    let mut prefix = Vec::new();
    wire::encode_welcome(false, &mut prefix);
    wire::encode_snapshot(b"", &mut prefix);
    let cursor = wire::Cursor { epoch: 1, shard: 0, counter: 0, offset: 64 };
    let record = rec(&PartitionKey::for_request("ds", "normal", 8), 7);
    let mut record_frame = Vec::new();
    wire::encode_record(cursor, &record, &mut record_frame);

    // Sanity: the undamaged session delivers exactly the record, then EOF.
    let mut clean = prefix.clone();
    clean.extend_from_slice(&record_frame);
    let (msgs, err) = drain_session(clean);
    assert_eq!(msgs.len(), 3);
    assert!(matches!(&msgs[2], Msg::Record { record: r, .. } if *r == record));
    assert!(matches!(err, ReplError::Eof), "clean close is Eof, got {err}");

    // Truncate the record frame at every byte: the prefix still decodes,
    // and the tear is Eof or Corrupt — never a record.
    for cut in 0..record_frame.len() {
        let mut torn = prefix.clone();
        torn.extend_from_slice(&record_frame[..cut]);
        let (msgs, err) = drain_session(torn);
        assert!(
            msgs.iter().all(|m| !matches!(m, Msg::Record { .. })),
            "cut {cut}: a torn frame produced a record"
        );
        assert!(
            matches!(err, ReplError::Eof | ReplError::Corrupt(_)),
            "cut {cut}: unexpected error {err}"
        );
    }

    // Flip every byte of the record frame: CRC or length damage must
    // surface as a typed error, and never as a (possibly altered) record.
    for flip in 0..record_frame.len() {
        let mut mangled = prefix.clone();
        let mut frame = record_frame.clone();
        frame[flip] ^= 0x41;
        mangled.extend_from_slice(&frame);
        let (msgs, err) = drain_session(mangled);
        assert!(
            msgs.iter().all(|m| !matches!(m, Msg::Record { .. })),
            "flip {flip}: a corrupted frame produced a record"
        );
        assert!(
            matches!(err, ReplError::Eof | ReplError::Corrupt(_)),
            "flip {flip}: unexpected error {err}"
        );
    }

    // A structurally valid frame wrapping garbage is Corrupt outright.
    let mut garbage = prefix.clone();
    let start = qdelay::journal::frame::begin(&mut garbage);
    garbage.push(99); // unknown message type
    qdelay::journal::frame::finish(&mut garbage, start);
    let (msgs, err) = drain_session(garbage);
    assert_eq!(msgs.len(), 2, "the valid prefix still decodes");
    assert!(matches!(err, ReplError::Corrupt(_)), "got {err}");
}
