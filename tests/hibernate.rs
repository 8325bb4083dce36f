//! Hibernation battery: the capacity-managed registry must be invisible
//! to clients.
//!
//! The contract under test, end to end:
//!
//! 1. **Equivalence.** For any op sequence, a server running under
//!    `max_resident` serves *bit-identical* bounds and produces a
//!    *byte-identical* final snapshot compared to an uncapped server —
//!    at shard counts 1, 4, and 16, including the degenerate caps 0
//!    (nothing stays resident) and 1 (every touch of a second partition
//!    evicts the first).
//! 2. **Durability composition.** A capped journaled server killed with
//!    a real SIGKILL recovers exactly the acked prefix, and the
//!    recovered state is bit-identical whether the reboot is capped or
//!    uncapped.
//! 3. **Replication composition.** A replica running under a resident
//!    cap converges to the primary's exact snapshot bytes, tombstone
//!    history included (partitions tombstoned while hibernated on the
//!    replica free their spill slots, they do not resurrect).
//! 4. **Damage.** A torn or bit-flipped spill record surfaces as a typed
//!    `io` error on every request that reads it (an observe, a snapshot)
//!    — never a panic, never invented history — while questions keep
//!    being served the answer computed before the damage, and the rest of
//!    the shard keeps serving. The slot is kept, so a repaired file takes
//!    writes again without a restart.
//! 5. **Nowhere to write.** A `snapshot` without a path on a server
//!    without a snapshot path is a typed `bad_request` on both wires and
//!    the connection survives; an explicit path, or the configured one,
//!    writes the state.

use qdelay::journal::{FsyncPolicy, JournalWriter, Record};
use qdelay::serve::client::{Client, ClientError, Prediction};
use qdelay::serve::durability::JournalConfig;
use qdelay::serve::registry::{Partition, PartitionKey};
use qdelay::serve::server::{Server, ServerConfig};
use qdelay::serve::snapshot;
use qdelay_json::Json;
use qdelay_predict::admission::Decision;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Deterministic wait-time stream.
fn wait_stream(i: u64) -> f64 {
    (i.wrapping_mul(2_654_435_761) % 10_000) as f64 + 0.5
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qdelay-hibernate-it-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 24 distinct partitions spanning sites, queues, and all four proc
/// buckets (0-4, 5-16, 17-64, 65+) — enough that a small cap forces
/// constant eviction/restore churn on every shard count under test.
fn partitions() -> Vec<(&'static str, &'static str, u32)> {
    let mut parts = Vec::new();
    for site in ["ds", "lonestar", "stampede"] {
        for queue in ["normal", "large"] {
            for procs in [2, 8, 32, 128] {
                parts.push((site, queue, procs));
            }
        }
    }
    parts
}

/// Bit-exact view of a predict reply.
fn predict_bits(p: &Prediction) -> (usize, u64, Option<u64>, Option<u64>) {
    (p.n, p.seq, p.bmbp.map(f64::to_bits), p.lognormal.map(f64::to_bits))
}

/// Bit-exact view of an admit decision.
fn decision_bits(d: &Decision) -> (u8, u64, u64) {
    match *d {
        Decision::Admit { bound, margin } => (0, bound.to_bits(), margin.to_bits()),
        Decision::Reject { bound, margin } => (1, bound.to_bits(), margin.to_bits()),
        Decision::Defer { retry_hint } => (2, retry_hint, 0),
    }
}

/// Drives the same interleaved observe/predict/admit workload against an
/// uncapped and a capped server, asserting every served answer is
/// bit-identical. Prediction feedback loops through the replies (asserted
/// equal first), so a single divergence would compound — none may occur.
fn assert_capped_matches_uncapped(shards: usize, cap: usize, label: &str) {
    let dir = fresh_dir(&format!("diff-{label}"));
    let free_snap = dir.join("free.json");
    let capped_snap = dir.join("capped.json");

    let free = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            shards,
            snapshot_path: Some(free_snap.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let capped = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            shards,
            snapshot_path: Some(capped_snap.clone()),
            max_resident: Some(cap),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut cf = Client::connect(free.local_addr()).unwrap();
    let mut cc = Client::connect(capped.local_addr()).unwrap();
    let parts = partitions();
    let mut last: Vec<(Option<f64>, Option<f64>)> = vec![(None, None); parts.len()];

    for i in 0..600u64 {
        // Stride 7 is coprime to 24: every partition is revisited on a
        // cadence longer than the cap, so the LRU keeps evicting.
        let pi = ((i * 7) % parts.len() as u64) as usize;
        let (site, queue, procs) = parts[pi];
        let w = wait_stream(i);
        let (pb, pl) = last[pi];
        let sf = cf.observe(site, queue, procs, w, pb, pl).unwrap();
        let sc = cc.observe(site, queue, procs, w, pb, pl).unwrap();
        assert_eq!(sf, sc, "{label}: seq diverged at op {i}");
        if i % 3 == 0 {
            let pf = cf.predict(site, queue, procs).unwrap();
            let pc = cc.predict(site, queue, procs).unwrap();
            assert_eq!(
                predict_bits(&pf),
                predict_bits(&pc),
                "{label}: predict diverged at op {i}"
            );
            last[pi] = (pf.bmbp, pf.lognormal);
        }
        if i % 7 == 0 {
            let budget = w * 1.5;
            let af = cf.admit(site, queue, procs, budget, Some(0.95)).unwrap();
            let ac = cc.admit(site, queue, procs, budget, Some(0.95)).unwrap();
            assert_eq!(af.n, ac.n, "{label}: admit n diverged at op {i}");
            assert_eq!(af.seq, ac.seq, "{label}: admit seq diverged at op {i}");
            assert_eq!(
                decision_bits(&af.decision),
                decision_bits(&ac.decision),
                "{label}: admit decision diverged at op {i}"
            );
        }
    }

    // Quiesced (everything above is synchronous request/response): a
    // mid-run explicit-path snapshot must already be byte-identical.
    // (These servers have a snapshot_path, so a bare `snapshot` request
    // rewrites that file; the explicit path keeps the two separate.)
    let mid_free = dir.join("mid-free.json");
    let mid_capped = dir.join("mid-capped.json");
    cf.snapshot(Some(mid_free.to_str().unwrap())).unwrap();
    cc.snapshot(Some(mid_capped.to_str().unwrap())).unwrap();
    assert_eq!(
        std::fs::read(&mid_free).unwrap(),
        std::fs::read(&mid_capped).unwrap(),
        "{label}: mid-run snapshots diverged"
    );

    // The capped server must actually be hibernating (the equivalence
    // above would hold vacuously otherwise). With 16 shards the 30 keys
    // spread thin, so only assert churn where the pigeonhole guarantees
    // it.
    let stats = cc.stats().unwrap();
    let num = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(f64::NAN);
    let resident = num(stats.get("resident"));
    let hibernated = num(stats.get("hibernated"));
    let spill_bytes = num(stats.get("spill_disk_bytes"));
    assert_eq!(
        resident + hibernated,
        parts.len() as f64,
        "{label}: resident + hibernated must cover every partition"
    );
    if shards * cap < parts.len() {
        assert!(hibernated > 0.0, "{label}: expected hibernated partitions");
        assert!(spill_bytes > 0.0, "{label}: expected spill bytes on disk");
    }
    let Some(Json::Arr(shard_stats)) = stats.get("per_shard") else {
        panic!("{label}: stats reply missing per-shard array")
    };
    for entry in shard_stats {
        for key in ["resident", "hibernated", "spill_bytes"] {
            assert!(
                entry.get(key).and_then(Json::as_f64).is_some(),
                "{label}: per-shard stats missing '{key}'"
            );
        }
    }

    cf.shutdown().unwrap();
    cc.shutdown().unwrap();
    free.join().unwrap();
    capped.join().unwrap();

    // Final on-disk snapshots: byte for byte.
    let free_bytes = std::fs::read(&free_snap).unwrap();
    let capped_bytes = std::fs::read(&capped_snap).unwrap();
    assert!(!free_bytes.is_empty());
    assert_eq!(free_bytes, capped_bytes, "{label}: snapshot files diverged");
}

/// The core equivalence battery: cap 2 across shard counts 1, 4, and 16.
#[test]
fn capped_servers_are_bit_identical_to_uncapped_across_shard_counts() {
    for shards in [1usize, 4, 16] {
        assert_capped_matches_uncapped(shards, 2, &format!("shards{shards}-cap2"));
    }
}

/// Degenerate caps: 0 (every partition hibernates after every op) and 1
/// (each touch of a different partition evicts the previous one — the
/// touch-during-evict ordering in its tightest form).
#[test]
fn degenerate_caps_zero_and_one_still_serve_exact_bounds() {
    assert_capped_matches_uncapped(1, 0, "shards1-cap0");
    assert_capped_matches_uncapped(4, 1, "shards4-cap1");
}

const KILL9_CHILD_ENV: &str = "QDELAY_HIBERNATE_KILL9_CHILD";

/// Child half of the kill-9 battery: a journaled server under cap 1 in
/// its own process, parked until the parent SIGKILLs it. Runs only when
/// re-exec'd; as a normal test it is a no-op.
#[test]
fn kill9_child_capped_server() {
    let Ok(dir) = std::env::var(KILL9_CHILD_ENV) else { return };
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            shards: 1,
            journal: Some(JournalConfig {
                dir: PathBuf::from(&dir),
                fsync: FsyncPolicy::Never, // the crash is SIGKILL, not power loss
                segment_bytes: 4096,
                compact_bytes: u64::MAX,
            }),
            max_resident: Some(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    println!("CHILD_READY {}", server.local_addr());
    server.join().unwrap();
}

/// SIGKILL a capped journaled server mid-load; reboot from its journal
/// dir twice — once capped, once uncapped — and require both recoveries
/// to serve bit-identical bounds equal to a single-threaded replay of
/// exactly the acked observations. The spill file is scratch state: a
/// recovery must never need it.
#[test]
fn kill9_recovery_under_a_cap_matches_the_acked_prefix() {
    let dir = fresh_dir("kill9");
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args(["kill9_child_capped_server", "--exact", "--nocapture"])
        .env(KILL9_CHILD_ENV, dir.to_str().unwrap())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = std::io::BufReader::new(child.stdout.take().unwrap()).lines();
    let addr = loop {
        let line = lines.next().expect("child exited before CHILD_READY").unwrap();
        // The libtest harness prints the test name with no trailing
        // newline before the body runs: search, don't prefix-match.
        if let Some(pos) = line.find("CHILD_READY ") {
            break line[pos + "CHILD_READY ".len()..]
                .split_whitespace()
                .next()
                .unwrap()
                .to_string();
        }
    };

    // Three partitions under cap 1: every op restores one and evicts
    // another, so the kill lands with most state hibernated.
    let parts: [(&str, &str, u32); 3] =
        [("ds", "normal", 2), ("ds", "normal", 8), ("ds", "large", 64)];
    let mut c = Client::connect(addr.as_str()).unwrap();
    let mut acked: Vec<Vec<f64>> = vec![Vec::new(); parts.len()];
    for i in 0..90u64 {
        let pi = (i % parts.len() as u64) as usize;
        let (site, queue, procs) = parts[pi];
        let w = wait_stream(i);
        let seq = c.observe(site, queue, procs, w, None, None).unwrap();
        acked[pi].push(w);
        assert_eq!(seq, acked[pi].len() as u64, "acked seqs are gapless");
    }

    child.kill().unwrap(); // SIGKILL — no shutdown handshake, no spill flush
    child.wait().unwrap();

    // Reboot twice from the same journal; the capped reboot spills into
    // the same directory the dead process was using.
    let mut replies: Vec<Vec<(usize, u64, Option<u64>, Option<u64>)>> = Vec::new();
    for cap in [Some(1usize), None] {
        let server = Server::start(
            "127.0.0.1:0",
            ServerConfig {
                shards: 1,
                journal: Some(JournalConfig {
                    dir: dir.clone(),
                    fsync: FsyncPolicy::Never,
                    segment_bytes: 4096,
                    compact_bytes: u64::MAX,
                }),
                max_resident: cap,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut rc = Client::connect(server.local_addr()).unwrap();
        let mut got = Vec::new();
        for &(site, queue, procs) in &parts {
            got.push(predict_bits(&rc.predict(site, queue, procs).unwrap()));
        }
        replies.push(got);
        rc.shutdown().unwrap();
        server.join().unwrap();
    }
    assert_eq!(replies[0], replies[1], "capped and uncapped recoveries diverged");

    // Both must equal the oracle replay of exactly the acked events.
    for (pi, waits) in acked.iter().enumerate() {
        let mut oracle = Partition::new();
        for &w in waits {
            oracle.observe(w, None, None);
        }
        let p = oracle.predict();
        let want = (p.n, p.seq, p.bmbp.map(f64::to_bits), p.lognormal.map(f64::to_bits));
        assert_eq!(replies[0][pi], want, "recovery diverged from oracle for partition {pi}");
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

/// Replicas under cap 1 — at shard counts 1, 4, and 16 — converge to the
/// primary's exact snapshot bytes. The WAL is pre-seeded with a
/// tombstoned-and-resurrected partition and a stays-dead one, so
/// tombstones land on partitions the capped replica has already
/// hibernated: the spill slot must be freed, not resurrected.
#[test]
fn capped_replicas_converge_byte_identically() {
    let dir = fresh_dir("replica");
    let resurrected = PartitionKey::for_request("ds", "normal", 8);
    let stays_dead = PartitionKey::for_request("ds", "debug", 1);
    {
        let mut w = JournalWriter::open(&dir, 0, 0, 1 << 20, FsyncPolicy::Never, None).unwrap();
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
    }

    let primary = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            shards: 4,
            journal: Some(JournalConfig {
                dir: dir.clone(),
                fsync: FsyncPolicy::Never,
                segment_bytes: 4096,
                compact_bytes: u64::MAX,
            }),
            repl_addr: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let repl = primary.repl_addr().unwrap().to_string();

    let mut replicas = Vec::new();
    for shards in [1usize, 4, 16] {
        let spill = fresh_dir(&format!("replica-spill-{shards}"));
        replicas.push((
            shards,
            Server::start(
                "127.0.0.1:0",
                ServerConfig {
                    shards,
                    replicate_from: Some(repl.clone()),
                    max_resident: Some(1),
                    // Replicas keep no journal and no snapshot path, so
                    // the spill directory must be explicit.
                    spill_dir: Some(spill),
                    ..ServerConfig::default()
                },
            )
            .unwrap(),
        ));
    }

    // Live load on top of the seeded history, spread across partitions
    // so cap-1 replica shards churn through hibernation while applying.
    let mut pc = Client::connect(primary.local_addr()).unwrap();
    let parts = partitions();
    for i in 0..300u64 {
        let pi = ((i * 11) % parts.len() as u64) as usize;
        let (site, queue, procs) = parts[pi];
        pc.observe(site, queue, procs, wait_stream(1000 + i), None, None).unwrap();
    }

    let snaps = fresh_dir("replica-snapshots");
    let want = snapshot_file(&mut pc, &snaps.join("primary.snap"));
    for (shards, replica) in &replicas {
        let mut rc = Client::connect(replica.local_addr()).unwrap();
        let path = snaps.join(format!("replica-{shards}.snap"));
        await_byte_identical(&mut rc, &path, &want, &format!("{shards}-shard capped replica"));
    }

    // The cap-1 single-shard replica holds every live partition through
    // one resident slot: hibernation must be doing the carrying.
    let mut rc = Client::connect(replicas[0].1.local_addr()).unwrap();
    let stats = rc.stats().unwrap();
    let hibernated = stats.get("hibernated").and_then(Json::as_f64).unwrap();
    let floor = (parts.len() - 1) as f64;
    assert!(hibernated >= floor, "expected a mostly-hibernated replica, got {hibernated}");
}

/// A question never changes the store. On both wires, `predict` and
/// `admit` of keys the server has never seen are answered as a fresh
/// partition would answer (`n` 0, `seq` 0, no bounds, `defer`) and of a
/// tombstoned key with its dead cursor as `seq` — and `stats`, the spill
/// file and the snapshot file are exactly what they were: no partition
/// appears, nothing is evicted to make room for one, and the dead key
/// stays dead until a write resurrects it at the next seq.
#[test]
fn questions_create_no_partitions_on_either_wire() {
    let dir = fresh_dir("ask-only");
    let live = [("ds", "normal", 2), ("ds", "normal", 8), ("ds", "large", 64)];
    let dead = PartitionKey::for_request("ds", "debug", 1);
    {
        let mut w = JournalWriter::open(&dir, 0, 0, 1 << 20, FsyncPolicy::Never, None).unwrap();
        for (site, queue, procs) in live {
            for seq in 1..=70 {
                w.append(&rec(&PartitionKey::for_request(site, queue, procs), seq));
            }
        }
        for seq in 1..=5 {
            w.append(&rec(&dead, seq));
        }
        w.append(&Record::tombstone(&dead.site, &dead.queue, dead.range.label(), 6));
        w.commit().unwrap();
    }
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            shards: 1,
            journal: Some(JournalConfig {
                dir: dir.clone(),
                fsync: FsyncPolicy::Never,
                segment_bytes: 1 << 20,
                compact_bytes: u64::MAX,
            }),
            binary_addr: Some("127.0.0.1:0".into()),
            max_resident: Some(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut json = Client::connect(server.local_addr()).unwrap();
    let mut binary = Client::connect_binary(server.binary_addr().unwrap()).unwrap();

    // What must stand still: the registry totals of `stats` (its telemetry
    // section counts requests, so it is left out) and the whole snapshot.
    let snap = fresh_dir("ask-only-snapshots").join("holdings.snap");
    let holdings = |c: &mut Client| -> (Vec<Option<f64>>, Vec<u8>) {
        let stats = c.stats().unwrap();
        let totals = [
            "partitions",
            "observations",
            "resident",
            "hibernated",
            "spill_disk_bytes",
            "resident_waits",
        ]
        .iter()
        .map(|name| stats.get(name).and_then(Json::as_f64))
        .collect();
        (totals, snapshot_file(c, &snap))
    };
    let before = holdings(&mut json);
    assert_eq!(before.0[..4], [Some(3.0), Some(210.0), Some(1.0), Some(2.0)]);
    assert!(before.0[4] > Some(0.0), "cap 1 of 3: the boot spilled two partitions");
    assert_eq!(before.0[5], Some(70.0), "the one resident partition holds its 70 waits");

    let fresh_defer = qdelay_predict::admission::decide(None, None, 0, 600.0);
    assert!(matches!(fresh_defer, Decision::Defer { .. }));
    for (wire, c) in [("json", &mut json), ("binary", &mut binary)] {
        for (site, queue, procs, seq) in
            [("typo", "nope", 4, 0), ("ds", "normla", 8, 0), ("ds", "debug", 1, 6)]
        {
            let p = c.predict(site, queue, procs).unwrap();
            assert_eq!(predict_bits(&p), (0, seq, None, None), "{wire}: predict {site}/{queue}");
            let a = c.admit(site, queue, procs, 600.0, Some(0.95)).unwrap();
            assert_eq!((a.n, a.seq), (0, seq), "{wire}: admit {site}/{queue}");
            assert_eq!(decision_bits(&a.decision), decision_bits(&fresh_defer), "{wire}");
        }
        // Questions about the hibernated partitions change nothing either.
        for (site, queue, procs) in live {
            assert_eq!(c.predict(site, queue, procs).unwrap().seq, 70, "{wire}");
        }
        assert_eq!(holdings(c), before, "{wire}: questions moved the store");
    }

    // The tombstoned key is still dead — and a write resurrects it just
    // past its cursor, exactly as if nobody had asked.
    assert_eq!(json.observe("ds", "debug", 1, 12.5, None, None).unwrap(), 7);
    assert_eq!(predict_bits(&binary.predict("ds", "debug", 1).unwrap()), (1, 7, None, None));

    json.shutdown().unwrap();
    server.join().unwrap();
}

/// Flip one byte inside a hibernated partition's spill record while the
/// server is live. A question about that partition never reads the slot —
/// it is served, bit for bit, the answer computed while the state was
/// verified in memory. Everything that does read the slot fails typed: an
/// observe is an `io` error and is not applied, a file snapshot is an `io`
/// error (the server must not panic, must not invent history, and must
/// keep serving every other partition). Repairing the byte serves the
/// partition's writes again — the failed restore keeps the slot.
#[test]
fn torn_spill_record_is_a_typed_error_and_repairable() {
    let dir = fresh_dir("torn");
    let snap = dir.join("snap.json");
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            shards: 1,
            snapshot_path: Some(snap.clone()),
            max_resident: Some(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();

    // Enough history that the bounds are numbers, not `null`.
    let mut oracle = Partition::new();
    for i in 0..70u64 {
        c.observe("ds", "normal", 8, wait_stream(i), None, None).unwrap();
        oracle.observe(wait_stream(i), None, None);
    }
    let healthy = predict_bits(&c.predict("ds", "normal", 8).unwrap());
    assert!(healthy.2.is_some(), "70 observations serve a BMBP bound");
    // Touching a second partition evicts the first (cap 1). Stats rides
    // the same shard lock, so once it reports the hibernation, the spill
    // write has happened.
    c.observe("ds", "large", 64, wait_stream(100), None, None).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stats.get("hibernated").and_then(Json::as_f64), Some(1.0));

    let spill_file = {
        let spill_dir = dir.join("snap.json.spill");
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&spill_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        assert_eq!(entries.len(), 1, "one shard, one spill file");
        entries.remove(0)
    };
    let bytes = std::fs::read(&spill_file).unwrap();
    assert!(!bytes.is_empty());
    let victim = bytes.len() / 2;
    let flip = |path: &Path, at: usize| {
        let mut b = std::fs::read(path).unwrap();
        b[at] ^= 0x40;
        std::fs::write(path, b).unwrap();
    };
    flip(&spill_file, victim);
    let is_io = |result: Result<(), ClientError>, what: &str| match result {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "io", "{what}: typed io error, got {e:?}"),
        other => panic!("{what} over a corrupt spill record must be a typed error, got {other:?}"),
    };

    // A question is answered from the index, from before the damage.
    let asked = predict_bits(&c.predict("ds", "normal", 8).unwrap());
    assert_eq!(asked, healthy, "a question never reads the slot");
    // A write has to restore, and the restore checks every byte it reads.
    is_io(c.observe("ds", "normal", 8, wait_stream(70), None, None).map(drop), "observe");
    // So does a snapshot: it may not launder the record into a document.
    let out = dir.join("damaged.json");
    is_io(c.snapshot(Some(out.to_str().unwrap())).map(drop), "file snapshot");
    assert!(!out.exists(), "no snapshot of state that cannot be read");
    // The shard survives: the resident partition still serves, and new
    // observations land.
    c.predict("ds", "large", 64).unwrap();
    c.observe("ds", "large", 64, wait_stream(101), None, None).unwrap();
    assert_eq!(predict_bits(&c.predict("ds", "normal", 8).unwrap()), healthy);

    // Repair the byte: the kept slot restores, no restart needed, and the
    // refused observe consumed no sequence number.
    flip(&spill_file, victim);
    let seq = c.observe("ds", "normal", 8, wait_stream(70), None, None).unwrap();
    assert_eq!(seq, 71, "the failed observe was not applied");
    oracle.observe(wait_stream(70), None, None);
    let want = oracle.predict();
    let want = (want.n, want.seq, want.bmbp.map(f64::to_bits), want.lognormal.map(f64::to_bits));
    let repaired = predict_bits(&c.predict("ds", "normal", 8).unwrap());
    assert_eq!(repaired, want, "repaired history must serve a clean replay's bounds");

    c.shutdown().unwrap();
    server.join().unwrap();
    assert!(snap.exists(), "graceful shutdown still writes the snapshot");
}

/// A `snapshot` with no path asks for the server's configured snapshot
/// path. On a server that has none it is a typed `bad_request` naming
/// `path` on both wires, and the connection keeps serving; an explicit
/// path writes the state, the same bytes from either wire. On a server
/// with a snapshot path, the path-less request writes that file.
#[test]
fn pathless_snapshot_without_a_snapshot_path_is_a_bad_request() {
    let dir = fresh_dir("pathless");
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig { shards: 2, binary_addr: Some("127.0.0.1:0".into()), ..ServerConfig::default() },
    )
    .unwrap();
    let mut json = Client::connect(server.local_addr()).unwrap();
    let mut binary = Client::connect_binary(server.binary_addr().unwrap()).unwrap();
    let parts = partitions();
    for (i, &(site, queue, procs)) in parts.iter().enumerate() {
        for j in 0..5u64 {
            json.observe(site, queue, procs, wait_stream(i as u64 * 10 + j), None, None).unwrap();
        }
    }

    let mut written = Vec::new();
    for (wire, c) in [("json", &mut json), ("binary", &mut binary)] {
        let err = match c.snapshot(None) {
            Err(ClientError::Server(e)) => e,
            other => panic!("{wire}: expected bad_request, got {other:?}"),
        };
        assert_eq!(err.code, "bad_request", "{wire}");
        assert!(err.message.contains("'path'"), "{wire}: the message names path: {}", err.message);
        // The connection survives the refusal.
        assert_eq!(c.predict("ds", "normal", 8).unwrap().seq, 5, "{wire}");
        let out = dir.join(format!("{wire}.snap"));
        assert_eq!(c.snapshot(Some(out.to_str().unwrap())).unwrap(), parts.len(), "{wire}");
        written.push(std::fs::read(&out).unwrap());
    }
    assert_eq!(written[0], written[1], "both wires write the same bytes");
    let (state, dead) = snapshot::parse(&written[0]).unwrap();
    assert_eq!((state.len(), dead.len()), (parts.len(), 0));
    assert!(state.iter().all(|p| p.seq == 5), "every partition's five observations");
    json.shutdown().unwrap();
    server.join().unwrap();

    // With a configured path, the path-less request writes there.
    let configured = dir.join("configured.snap");
    let config = ServerConfig {
        snapshot_path: Some(configured.clone()),
        binary_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut json = Client::connect(server.local_addr()).unwrap();
    let mut binary = Client::connect_binary(server.binary_addr().unwrap()).unwrap();
    json.observe("ds", "normal", 8, 5.0, None, None).unwrap();
    for (wire, c) in [("json", &mut json), ("binary", &mut binary)] {
        let _ = std::fs::remove_file(&configured);
        assert_eq!(c.snapshot(None).unwrap(), 1, "{wire}");
        assert_eq!(snapshot::read(&configured).unwrap().0.len(), 1, "{wire}");
    }
    json.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
