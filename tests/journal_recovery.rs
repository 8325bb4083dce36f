//! Crash-recovery equivalence for the journaling server.
//!
//! The durability contract under test: every *acknowledged* observation is
//! in the write-ahead log before its ack is released, so a `kill -9` at an
//! arbitrary byte loses at most unacknowledged work, and the restarted
//! server's predictor state is **bit-identical** to a single-threaded
//! replay of the surviving acked prefix.
//!
//! In-process, the kill is simulated faithfully: the journal directory is
//! copied while the server is live (the crash image — exactly the bytes a
//! dead process would leave behind), then truncated at arbitrary offsets
//! to model the torn final write.

use qdelay::journal::frame::{self, Check};
use qdelay::journal::{self, FsyncPolicy, RecoverMode, SegmentId};
use qdelay::serve::client::{Client, ClientError};
use qdelay::serve::durability::JournalConfig;
use qdelay::serve::proto::BinResponse;
use qdelay::serve::registry::{Partition, PartitionKey};
use qdelay::serve::server::{Server, ServerConfig};
use qdelay::serve::snapshot;
use qdelay_json::Json;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Deterministic wait-time stream.
fn wait(i: u64) -> f64 {
    (i.wrapping_mul(2_654_435_761) % 10_000) as f64 + 0.5
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qdelay-journal-recovery-it-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Copies a live journal directory. The compactor may delete a sealed
/// segment between the listing and its copy; the image could then pair the
/// older snapshot with a hole, which no crash leaves behind, so the copy
/// starts over from a fresh listing.
fn copy_dir(src: &Path, dst: &Path) {
    'listing: loop {
        let _ = std::fs::remove_dir_all(dst);
        std::fs::create_dir_all(dst).unwrap();
        for entry in std::fs::read_dir(src).unwrap() {
            let entry = entry.unwrap();
            match std::fs::copy(entry.path(), dst.join(entry.file_name())) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue 'listing,
                copied => {
                    copied.unwrap();
                }
            }
        }
        return;
    }
}

fn config(dir: &Path, segment_bytes: u64, compact_bytes: u64) -> ServerConfig {
    ServerConfig {
        shards: 1,
        journal: Some(JournalConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Never, // tests model crashes by copy, not power loss
            segment_bytes,
            compact_bytes,
        }),
        ..ServerConfig::default()
    }
}

/// One acked observation, with the prediction feedback that was sent.
#[derive(Clone, Copy)]
struct Event {
    partition: usize,
    wait: f64,
    predicted_bmbp: Option<f64>,
    predicted_lognormal: Option<f64>,
}

const PARTITIONS: [(&str, &str, u32); 2] = [("ds", "normal", 4), ("ds", "normal", 32)];

/// Replays the first `k` acked events into fresh partitions — the oracle a
/// recovered server must match bit-for-bit.
fn oracle(events: &[Event], k: usize) -> Vec<Partition> {
    let mut parts: Vec<Partition> = (0..PARTITIONS.len()).map(|_| Partition::new()).collect();
    for e in &events[..k] {
        parts[e.partition].observe(e.wait, e.predicted_bmbp, e.predicted_lognormal);
    }
    parts
}

/// Drives `count` observes (with prediction feedback every 7th request)
/// and returns the acked event log in journal (= ack) order.
fn drive(client: &mut Client, start: u64, count: u64) -> Vec<Event> {
    let mut events = Vec::new();
    let mut last: Vec<(Option<f64>, Option<f64>)> = vec![(None, None); PARTITIONS.len()];
    for i in start..start + count {
        let pi = (i % PARTITIONS.len() as u64) as usize;
        let (site, queue, procs) = PARTITIONS[pi];
        let (pb, pl) = last[pi];
        client.observe(site, queue, procs, wait(i), pb, pl).unwrap();
        events.push(Event {
            partition: pi,
            wait: wait(i),
            predicted_bmbp: pb,
            predicted_lognormal: pl,
        });
        if i % 7 == 0 {
            let p = client.predict(site, queue, procs).unwrap();
            last[pi] = (p.bmbp, p.lognormal);
        }
    }
    events
}

/// Asserts the server at `addr` serves exactly the oracle's state for the
/// first `k` events; returns the recovered observation count.
fn assert_matches_oracle(client: &mut Client, events: &[Event], k: usize) {
    let mut expect = oracle(events, k);
    for (pi, (site, queue, procs)) in PARTITIONS.iter().enumerate() {
        let got = client.predict(site, queue, *procs).unwrap();
        let want = expect[pi].predict();
        assert_eq!(got.seq, want.seq, "partition {pi} seq");
        assert_eq!(got.n, want.n, "partition {pi} n");
        assert_eq!(
            got.bmbp.map(f64::to_bits),
            want.bmbp.map(f64::to_bits),
            "partition {pi} bmbp bits"
        );
        assert_eq!(
            got.lognormal.map(f64::to_bits),
            want.lognormal.map(f64::to_bits),
            "partition {pi} lognormal bits"
        );
    }
}

/// The sum of partition seqs a server reports — the number of events its
/// recovered state contains.
fn observations(client: &mut Client) -> u64 {
    let stats = client.stats().unwrap();
    stats.get("observations").and_then(Json::as_f64).unwrap() as u64
}

/// kill -9 at an arbitrary byte: a live copy of the journal directory,
/// further truncated at arbitrary offsets within the active segment, must
/// recover to a bit-identical prefix of the acked history — for every
/// truncation point.
#[test]
fn crash_image_recovers_bit_identical_prefix_at_arbitrary_truncations() {
    let live = fresh_dir("crash-live");
    // Small segments so the crash image spans several files; compaction
    // off (huge threshold) so the image's layout is stable.
    let server = Server::start("127.0.0.1:0", config(&live, 2048, u64::MAX)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let events = drive(&mut client, 0, 260);

    // The crash image: what `kill -9` right now would leave on disk. The
    // client is idle, so every acked byte is in the page cache and the
    // copy is a consistent image.
    let image = fresh_dir("crash-image");
    copy_dir(&live, &image);

    // The live server keeps going and shuts down cleanly — proving the
    // copy was non-disruptive — while the image is recovered repeatedly.
    let _ = drive(&mut client, 260, 40);
    client.shutdown().unwrap();
    server.join().unwrap();

    // Find the image's active (highest-id) segment, its length and where
    // its frames end: the writer sizes it ahead, so a zero tail follows.
    let segments = journal::scan_dir(&image).unwrap();
    assert!(segments.len() >= 2, "need rotation in the crash image");
    let (active_id, active_path) = segments.last().unwrap();
    let active_len = std::fs::metadata(active_path).unwrap().len();
    let written =
        journal::read_segment_from(active_path, *active_id, journal::HEADER_LEN as u64, true)
            .unwrap()
            .end;
    assert!(written < active_len, "the active segment is sized ahead of its frames");

    // Arbitrary kill offsets: a seeded LCG spread over the written frames,
    // plus the edge cases (0 = killed at file creation, the written end =
    // no tear, full length = no tear and the whole zero tail).
    let mut offsets: Vec<u64> = vec![0, 1, written, active_len];
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..12 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        offsets.push(x % written);
    }

    for (case, cut) in offsets.into_iter().enumerate() {
        let crash = fresh_dir(&format!("crash-cut-{case}"));
        copy_dir(&image, &crash);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(crash.join(active_path.file_name().unwrap()))
            .unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let server = Server::start("127.0.0.1:0", config(&crash, 2048, u64::MAX)).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        let k = observations(&mut c) as usize;
        assert!(
            k <= events.len(),
            "case {case}: recovered more than was acked ({k} > {})",
            events.len()
        );
        // Everything in the sealed segments survives any tear of the
        // active one, so the recovered count can never fall to zero here.
        assert!(k > 0, "case {case}: sealed segments must survive");
        assert_matches_oracle(&mut c, &events, k);
        c.shutdown().unwrap();
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&crash);
    }

    let _ = std::fs::remove_dir_all(&live);
    let _ = std::fs::remove_dir_all(&image);
}

const KILL9_CHILD_ENV: &str = "QDELAY_JOURNAL_KILL9_CHILD";

/// Child half of the SIGKILL check: an `--fsync always` server on the
/// journal directory named by the environment, in its own process, parked
/// until the parent kills it or shuts it down. Runs only when re-exec'd; as
/// a normal test it is a no-op.
#[test]
fn kill9_child_fsync_always_server() {
    let Ok(dir) = std::env::var(KILL9_CHILD_ENV) else { return };
    let mut cfg = config(Path::new(&dir), 4096, u64::MAX);
    cfg.journal.as_mut().unwrap().fsync = FsyncPolicy::Always;
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    println!("CHILD_READY {}", server.local_addr());
    server.join().unwrap();
}

/// Starts [`kill9_child_fsync_always_server`] on `dir` and returns it with
/// the address it serves on.
fn spawn_child(dir: &Path) -> (std::process::Child, String) {
    use std::io::BufRead as _;
    let mut child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["kill9_child_fsync_always_server", "--exact", "--nocapture"])
        .env(KILL9_CHILD_ENV, dir)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut out = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(out.read_line(&mut line).unwrap() > 0, "child exited before CHILD_READY");
        // libtest prints the test name with no newline before the body
        // runs: search, don't prefix-match.
        if let Some(pos) = line.find("CHILD_READY ") {
            break line[pos + "CHILD_READY ".len()..].split_whitespace().next().unwrap().to_string();
        }
    };
    // Keep the pipe open, so the child's last lines do not hit EPIPE.
    child.stdout = Some(out.into_inner());
    (child, addr)
}

/// A SIGKILLed `--fsync always` server leaves its active segment sized
/// ahead of its frames, ending in zeros. The next boot reads the zero tail
/// as a clean end, not a torn tail, and serves exactly the acked history.
#[test]
fn sigkilled_fsync_always_server_leaves_a_zero_tail_that_boots_clean() {
    let dir = fresh_dir("kill9-zero-tail");
    let (mut child, addr) = spawn_child(&dir);
    let mut client = Client::connect(addr.as_str()).unwrap();
    let events = drive(&mut client, 0, 150);
    child.kill().unwrap(); // SIGKILL: no close, so nothing trims the active segment
    child.wait().unwrap();

    let segments = journal::scan_dir(&dir).unwrap();
    assert!(segments.len() >= 2, "need rotation: sealed segments are exact");
    for (i, (id, path)) in segments.iter().enumerate() {
        let len = std::fs::metadata(path).unwrap().len();
        let active = i == segments.len() - 1;
        let frames =
            journal::read_segment_from(path, *id, journal::HEADER_LEN as u64, active).unwrap();
        assert_eq!(frames.torn_at, None, "{}", id.file_name());
        if active {
            assert_eq!(len, 4096, "the active segment is sized to the threshold");
            assert!(frames.end < len, "and ends in zeros");
        } else {
            assert_eq!(frames.end, len, "a sealed segment is trimmed");
        }
    }

    let (mut child, addr) = spawn_child(&dir);
    let mut c = Client::connect(addr.as_str()).unwrap();
    let stats = c.stats().unwrap();
    let counter = |name: &str| {
        stats.get("telemetry").and_then(|t| t.get("counters")).and_then(|c| c.get(name)).cloned()
    };
    // With telemetry compiled in, the boot counted what it replayed, and
    // a counter never incremented is absent.
    if let Some(replayed) = counter("journal.recovery.records") {
        assert_eq!(replayed.as_f64(), Some(events.len() as f64));
        assert!(counter("journal.torn_tails").is_none(), "a zero tail is not a torn tail");
    }
    assert_eq!(observations(&mut c) as usize, events.len(), "every ack survives");
    assert_matches_oracle(&mut c, &events, events.len());
    c.shutdown().unwrap();
    child.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful restarts through the journal directory: state carries across
/// generations bit-identically, shutdown consolidates every segment into
/// the snapshot, and a third generation continues the sequence.
#[test]
fn graceful_restart_consolidates_and_serves_identical_state() {
    let dir = fresh_dir("graceful");

    let server = Server::start("127.0.0.1:0", config(&dir, 4096, u64::MAX)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut events = drive(&mut client, 0, 150);
    client.shutdown().unwrap();
    server.join().unwrap();

    // Graceful shutdown folded everything into the snapshot: no segments.
    assert_eq!(
        journal::scan_dir(&dir).unwrap().len(),
        0,
        "graceful shutdown must consolidate all segments"
    );

    // Generation 2 serves the identical state and keeps appending.
    let server = Server::start("127.0.0.1:0", config(&dir, 4096, u64::MAX)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_matches_oracle(&mut client, &events, events.len());
    events.extend(drive(&mut client, 150, 60));
    client.shutdown().unwrap();
    server.join().unwrap();

    // Generation 3 sees the union.
    let server = Server::start("127.0.0.1:0", config(&dir, 4096, u64::MAX)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(observations(&mut client) as usize, events.len());
    assert_matches_oracle(&mut client, &events, events.len());
    client.shutdown().unwrap();
    server.join().unwrap();

    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded corruption property test: truncate at any offset or flip any bit
/// of any journal file, and the system either recovers a strict,
/// bit-identical prefix of the acked history or reports a typed error — it
/// never panics and never serves invented or reordered state.
///
/// Two layers are pinned. The journal scan itself may legitimately return
/// a *subsequence* (a sealed segment truncated exactly on a frame boundary
/// parses cleanly), so there the property is "bit-identical records in the
/// original order, never invented". The serve-layer recovery then closes
/// the hole: any mid-stream loss shows up as a per-partition sequence gap
/// and boots refuse with a typed `InvalidData` error, so a server that
/// *does* boot serves exactly an acked prefix.
#[test]
fn corrupted_journals_recover_a_prefix_or_fail_typed_never_panic() {
    let pristine = fresh_dir("prop-pristine");
    let events;
    {
        let server = Server::start("127.0.0.1:0", config(&pristine, 1024, u64::MAX)).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        events = drive(&mut client, 0, 120);
        // Graceful shutdown would consolidate the segments away: image the
        // directory while the server is live, as a crash would.
        let image = fresh_dir("prop-image");
        copy_dir(&pristine, &image);
        client.shutdown().unwrap();
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&pristine);
        std::fs::rename(&image, &pristine).unwrap();
    }
    let original = journal::recover(&pristine, RecoverMode::ReadOnly).unwrap();
    assert!(original.records.len() >= 100, "need a substantial journal");
    let files: Vec<PathBuf> = journal::scan_dir(&pristine)
        .unwrap()
        .into_iter()
        .map(|(_, path)| path)
        .collect();
    assert!(files.len() >= 2, "need several segments");

    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut rand = move |bound: u64| {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        x % bound
    };

    let damaged = fresh_dir("prop-damaged");
    for case in 0..60u32 {
        let _ = std::fs::remove_dir_all(&damaged);
        copy_dir(&pristine, &damaged);
        let victim = &files[rand(files.len() as u64) as usize];
        let victim = damaged.join(victim.file_name().unwrap());
        let len = std::fs::metadata(&victim).unwrap().len();
        if case % 2 == 0 {
            // Truncate at an arbitrary offset.
            let f = std::fs::OpenOptions::new().write(true).open(&victim).unwrap();
            f.set_len(rand(len + 1)).unwrap();
        } else {
            // Flip one arbitrary bit.
            let mut bytes = std::fs::read(&victim).unwrap();
            let at = rand(len) as usize;
            bytes[at] ^= 1 << rand(8);
            std::fs::write(&victim, &bytes).unwrap();
        }

        // Layer 1: the raw scan never panics, and whatever it returns is
        // bit-identical records from the original, in the original order.
        match journal::recover(&damaged, RecoverMode::ReadOnly) {
            Ok(recovered) => {
                let mut idx = 0usize;
                for r in &recovered.records {
                    while idx < original.records.len() && &original.records[idx] != r {
                        idx += 1;
                    }
                    assert!(
                        idx < original.records.len(),
                        "case {case}: scan invented or reordered a record"
                    );
                    idx += 1;
                }
            }
            Err(e) => assert!(e.is_corrupt(), "case {case}: untyped scan error {e}"),
        }

        // Layer 2: a server booted from the damaged directory serves a
        // bit-identical acked prefix, or refuses with a typed error.
        match Server::start("127.0.0.1:0", config(&damaged, 1024, u64::MAX)) {
            Ok(server) => {
                let mut c = Client::connect(server.local_addr()).unwrap();
                let k = observations(&mut c) as usize;
                assert!(k <= events.len(), "case {case}: recovered unacked state");
                assert_matches_oracle(&mut c, &events, k);
                c.shutdown().unwrap();
                server.join().unwrap();
            }
            Err(e) => {
                assert_eq!(
                    e.kind(),
                    std::io::ErrorKind::InvalidData,
                    "case {case}: boot must fail typed, got {e}"
                );
            }
        }
    }

    let _ = std::fs::remove_dir_all(&pristine);
    let _ = std::fs::remove_dir_all(&damaged);
}

/// A site name whose `(site, "q", 4)` partition lives on `shard` of
/// `shards`: the `nth` such name in a fixed enumeration.
fn site_on_shard(shard: usize, shards: usize, nth: usize) -> String {
    (0..)
        .map(|i| format!("site{i}"))
        .filter(|site| PartitionKey::for_request(site, "q", 4).shard_index(shards) == shard)
        .nth(nth)
        .unwrap()
}

/// Group commit withholds every reply of a wakeup until the shards it
/// touched are committed, then releases them in arrival order — so a
/// connection pipelining a mix of methods over partitions on every shard
/// sees its replies in request order. Without a journal nothing is
/// withheld, and the order holds because one loop executes and renders a
/// connection's requests one after another.
#[test]
fn pipelined_replies_stay_in_request_order_under_journaling() {
    const PARTITIONS: u64 = 64;
    for journaled in [true, false] {
        let dir = fresh_dir("fifo");
        let server = Server::start(
            "127.0.0.1:0",
            ServerConfig {
                shards: 4,
                journal: if journaled { config(&dir, 1 << 20, u64::MAX).journal } else { None },
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for round in 0..8u64 {
            // One burst, written at once: an observe, a predict and an
            // admit for each of 64 partitions spread over the 4 shards.
            let mut sent = Vec::new();
            for p in 0..PARTITIONS {
                let site = format!("s{p}");
                let wait = wait(round * PARTITIONS + p);
                sent.push(client.queue_observe(&site, "normal", 4, wait, None, None));
                sent.push(client.queue_predict(&site, "normal", 4));
                sent.push(client.queue_admit(&site, "normal", 4, 600.0, None));
            }
            client.flush().unwrap();
            for expect in sent {
                let (id, reply) = client.read_response().unwrap();
                assert!(
                    !matches!(reply, BinResponse::Error { .. }),
                    "request must succeed: {reply:?}"
                );
                assert_eq!(
                    id, expect,
                    "journaled={journaled} round {round}: reply out of request order"
                );
            }
        }
        client.shutdown().unwrap();
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Two connections on different loops interleave observes into partitions
/// of ONE shard under `fsync always`, so both loops stage on, commit and
/// ack from the same journal stream. Crash images taken while they run
/// must each hold every observation acknowledged before the copy began,
/// and recover to exactly the replay of the prefix they hold.
#[test]
fn two_loops_on_one_shard_keep_acked_subset_of_journaled() {
    const PER_WORKER: usize = 150;
    let live = fresh_dir("two-loops-live");
    let mut cfg = config(&live, 4096, u64::MAX);
    cfg.shards = 2;
    cfg.journal.as_mut().unwrap().fsync = FsyncPolicy::Always;
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let sites: Vec<String> = (0..3).map(|nth| site_on_shard(0, 2, nth)).collect();

    // Accept order is loop order: the first connection is loop 0's, the
    // second loop 1's.
    let clients = [
        Client::connect(server.local_addr()).unwrap(),
        Client::connect(server.local_addr()).unwrap(),
    ];
    // Every ack, as (partition, seq, wait), in the order acks were seen.
    let acked: Mutex<Vec<(usize, u64, f64)>> = Mutex::new(Vec::new());
    let mut images: Vec<(PathBuf, Vec<(usize, u64, f64)>)> = Vec::new();
    std::thread::scope(|scope| {
        for (worker, mut client) in clients.into_iter().enumerate() {
            let (sites, acked) = (&sites, &acked);
            scope.spawn(move || {
                for i in 0..PER_WORKER {
                    let part = (i + worker) % sites.len();
                    let wait = wait((worker * PER_WORKER + i) as u64);
                    let seq = client.observe(&sites[part], "q", 4, wait, None, None).unwrap();
                    acked.lock().unwrap().push((part, seq, wait));
                }
            });
        }
        // The crash images: each taken once the workers have got this far,
        // while they keep going. What was acked before the copy began must
        // be in it.
        for (n, threshold) in [40, 110, 180, 250].into_iter().enumerate() {
            let before = loop {
                let seen = acked.lock().unwrap();
                if seen.len() >= threshold {
                    break seen.clone();
                }
                drop(seen);
                std::thread::yield_now();
            };
            let image = fresh_dir(&format!("two-loops-image-{n}"));
            copy_dir(&live, &image);
            images.push((image, before));
        }
    });
    let mut probe = Client::connect(server.local_addr()).unwrap();
    probe.shutdown().unwrap();
    server.join().unwrap();

    // Per partition, the waits in the order the shard applied them: acks
    // carry the sequence number each observation became.
    let mut all = acked.into_inner().unwrap();
    assert_eq!(all.len(), 2 * PER_WORKER);
    all.sort_by_key(|&(part, seq, _)| (part, seq));
    let history: Vec<Vec<f64>> = (0..sites.len())
        .map(|p| all.iter().filter(|e| e.0 == p).map(|e| e.2).collect())
        .collect();
    for (part, waits) in history.iter().enumerate() {
        let seqs: Vec<u64> = all.iter().filter(|e| e.0 == part).map(|e| e.1).collect();
        assert_eq!(seqs, (1..=waits.len() as u64).collect::<Vec<_>>(), "acked seqs are dense");
    }

    for (image, before) in images {
        let mut cfg = config(&image, 4096, u64::MAX);
        cfg.shards = 2;
        let server = Server::start("127.0.0.1:0", cfg).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for (part, site) in sites.iter().enumerate() {
            let got = client.predict(site, "q", 4).unwrap();
            let acked_before =
                before.iter().filter(|e| e.0 == part).map(|e| e.1).max().unwrap_or(0);
            assert!(
                got.seq >= acked_before,
                "partition {part}: recovered seq {} < acked seq {acked_before}",
                got.seq
            );
            let mut oracle = Partition::new();
            for &wait in &history[part][..got.seq as usize] {
                oracle.observe(wait, None, None);
            }
            let want = oracle.predict();
            assert_eq!(got.n, want.n, "partition {part} n");
            assert_eq!(got.bmbp.map(f64::to_bits), want.bmbp.map(f64::to_bits));
            assert_eq!(got.lognormal.map(f64::to_bits), want.lognormal.map(f64::to_bits));
        }
        client.shutdown().unwrap();
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&image);
    }
    let _ = std::fs::remove_dir_all(&live);
}

/// The doomed partitions' cursors in the live directory's snapshot file:
/// what a compaction last wrote for them (0 for one it has never seen).
fn snapshot_cursors(dir: &Path, doomed: &[String]) -> Vec<u64> {
    let (parts, _) = snapshot::read(&dir.join("snapshot.json")).unwrap();
    let cursor = |site: &str| parts.iter().find(|p| p.site == site).map_or(0, |p| p.seq);
    doomed.iter().map(|site| cursor(site)).collect()
}

/// Boots `dir` on two shards and checks each doomed partition: it keeps
/// every ack given before the failure and holds nothing the shard did not
/// apply, serving the bits of a replay of the prefix it recovered.
fn assert_doomed_recover(dir: &Path, doomed: &[String], applied: &[Vec<f64>], acked: &[u64]) {
    let mut cfg = config(dir, 1 << 20, u64::MAX);
    cfg.shards = 2;
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (part, site) in doomed.iter().enumerate() {
        let got = client.predict(site, "q", 4).unwrap();
        assert!(got.seq >= acked[part], "partition {part}: acked seq {} lost", acked[part]);
        assert!(got.seq as usize <= applied[part].len(), "partition {part}: invented state");
        let mut oracle = Partition::new();
        for &wait in &applied[part][..got.seq as usize] {
            oracle.observe(wait, None, None);
        }
        let want = oracle.predict();
        assert_eq!(got.bmbp.map(f64::to_bits), want.bmbp.map(f64::to_bits));
        assert_eq!(got.lognormal.map(f64::to_bits), want.lognormal.map(f64::to_bits));
    }
    client.shutdown().unwrap();
    server.join().unwrap();
}

/// The fence: a group commit that fails (here: its rotation finds the
/// next segment file already there) turns the acks it covered into typed
/// `io` errors and fences that shard for observes from every loop, while
/// its predicts, and the other shard entirely, keep serving. No ack given
/// before the failure is lost on recovery. Compaction runs throughout (512
/// B segments, 2 KiB threshold): it compacts before the fence, and after it
/// stops rather than persist the fenced shard's memory, so no snapshot
/// written while the server runs carries a doomed partition past its last
/// durable (acked) seq. Graceful shutdown keeps the same rule: `join`
/// fails naming the fenced shard, the directory keeps its snapshot and
/// segments, and booting the live directory recovers what the journal
/// holds, exactly as booting a crash image does.
#[test]
fn failed_commit_fences_one_shard_across_loops() {
    let live = fresh_dir("fence-live");
    let mut cfg = config(&live, 512, 2048);
    cfg.shards = 2;
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    // Shard 0's first rotation will collide with this file.
    let (active, _) = journal::scan_dir(&live)
        .unwrap()
        .into_iter()
        .find(|(id, _)| id.shard == 0)
        .expect("shard 0 has an active segment");
    let next = SegmentId { counter: active.counter + 1, ..active };
    std::fs::write(live.join(next.file_name()), journal::encode_header(next.epoch, next.shard))
        .unwrap();

    let doomed: Vec<String> = (0..2).map(|nth| site_on_shard(0, 2, nth)).collect();
    let healthy = site_on_shard(1, 2, 0);
    // The first connection is loop 0's, the second loop 1's.
    let mut clients = [
        Client::connect(server.local_addr()).unwrap(),
        Client::connect(server.local_addr()).unwrap(),
    ];
    let io_error = |result: Result<u64, ClientError>| match result {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, "io", "{}", e.message);
            true
        }
        Ok(_) => false,
        Err(e) => panic!("unexpected failure {e}"),
    };

    // The healthy shard rotates until a compaction has written it into the
    // snapshot: the compactor runs before the fence.
    let mut healthy_seq = 0;
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (parts, _) = snapshot::read(&live.join("snapshot.json")).unwrap();
        if parts.iter().any(|p| p.site == healthy) {
            break;
        }
        assert!(Instant::now() < deadline, "no compaction before the fence");
        healthy_seq = clients[1].observe(&healthy, "q", 4, wait(healthy_seq), None, None).unwrap();
    }

    // Depth-1 observes on the doomed shard, alternating loops, until the
    // commit that has to rotate fails. `applied[p]` is every wait the
    // shard applied to partition p, in order; `acked[p]` how many of them
    // were acknowledged.
    let mut applied: Vec<Vec<f64>> = vec![Vec::new(); doomed.len()];
    let mut acked = vec![0u64; doomed.len()];
    let mut fenced_at = None;
    for i in 0..200usize {
        let part = i % doomed.len();
        let wait = wait(i as u64);
        applied[part].push(wait);
        let result = clients[i % 2].observe(&doomed[part], "q", 4, wait, None, None);
        if io_error(result) {
            fenced_at = Some(i);
            break;
        }
        acked[part] = applied[part].len() as u64;
    }
    let fenced_at = fenced_at.expect("512-byte segments rotate within 200 observes");
    assert!(fenced_at > 0, "some observes are acked before the first rotation");

    // From both loops: observes on the fenced shard are refused, its
    // predicts serve, the other shard still acks (and keeps sealing
    // segments, so the compactor is asked again).
    for round in 0..6u64 {
        for client in &mut clients {
            for site in &doomed {
                assert!(io_error(client.observe(site, "q", 4, 1.0, None, None)));
                assert!(client.predict(site, "q", 4).unwrap().seq > 0);
            }
            assert!(!io_error(client.observe(&healthy, "q", 4, wait(round), None, None)));
        }
    }
    // And pipelined, both loops at once: every request is answered, in
    // order, with the same verdicts.
    std::thread::scope(|scope| {
        for client in &mut clients {
            let (doomed, healthy) = (&doomed[0], &healthy);
            scope.spawn(move || {
                let sent: Vec<u64> = (0..90u64)
                    .map(|i| match i % 3 {
                        0 => client.queue_observe(doomed, "q", 4, 2.0, None, None),
                        1 => client.queue_predict(doomed, "q", 4),
                        _ => client.queue_observe(healthy, "q", 4, 2.0, None, None),
                    })
                    .collect();
                client.flush().unwrap();
                for (i, expect) in sent.into_iter().enumerate() {
                    let (id, reply) = client.read_response().unwrap();
                    assert_eq!(id, expect);
                    match reply {
                        BinResponse::Error { code, .. } => {
                            assert_eq!((i % 3, code.as_str()), (0, "io"))
                        }
                        reply => assert_ne!(i % 3, 0, "{reply:?}"),
                    }
                }
            });
        }
    });

    // Well past the threshold of sealed bytes since the fence, the
    // compactor has had its turns: none may persist the fenced shard's
    // memory, which holds the observe whose ack became an error.
    for _ in 0..25 {
        for (part, cursor) in snapshot_cursors(&live, &doomed).into_iter().enumerate() {
            assert!(cursor <= acked[part], "partition {part}: snapshot at {cursor} > acked");
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // The crash image must hold every ack given before the failure, and
    // nothing the shard did not apply.
    let image = fresh_dir("fence-image");
    copy_dir(&live, &image);
    clients[0].shutdown().unwrap();
    let err = server.join().expect_err("a fenced server cannot consolidate");
    assert!(err.to_string().contains("shard 0 is fenced"), "{err}");
    // Shutdown left the snapshot as the compactor last wrote it, and the
    // segments for recovery.
    for (part, cursor) in snapshot_cursors(&live, &doomed).into_iter().enumerate() {
        assert!(cursor <= acked[part], "partition {part}: snapshot at {cursor} > acked");
    }
    assert!(!journal::scan_dir(&live).unwrap().is_empty(), "shutdown kept the segments");
    assert_doomed_recover(&image, &doomed, &applied, &acked);
    assert_doomed_recover(&live, &doomed, &applied, &acked);
    let _ = std::fs::remove_dir_all(&live);
    let _ = std::fs::remove_dir_all(&image);
}

/// Every snapshot of one state is the same bytes, whoever wrote it. A
/// quiescent, capped, journaling server (so hibernated spill slots are in
/// every collect) whose every commit seals a segment, so its compactor's
/// last pass saw the final state: that pass's `snapshot.json`, a
/// `snapshot` request to an explicit path, the `snapshot.json` graceful
/// shutdown consolidates, and the one the next boot consolidates (from the
/// same state handed to it with its partition frames reversed — a file the
/// reader takes but no writer writes — so the boot must rewrite it) are all
/// byte-identical.
#[test]
fn every_writer_renders_one_state_to_the_same_bytes() {
    let dir = fresh_dir("one-writer");
    let requested = fresh_dir("one-writer-request").join("snapshot");
    // A segment is sealed at every commit; every seal starts a compaction.
    let mut cfg = config(&dir, 1, 1);
    cfg.shards = 2;
    cfg.max_resident = Some(2);
    let server = Server::start("127.0.0.1:0", cfg.clone()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for p in 0..12u64 {
        let jobs = if p % 3 == 0 { 65 } else { 4 };
        for j in 0..jobs {
            client.observe(&format!("w{p}"), "q", 4, wait(p * 100 + j), None, None).unwrap();
        }
    }
    let stats = client.stats().unwrap();
    let hibernated = stats.get("hibernated").and_then(Json::as_f64).unwrap();
    assert!(hibernated >= 6.0, "the cap hibernates most partitions: {hibernated}");

    assert_eq!(client.snapshot(Some(requested.to_str().unwrap())).unwrap(), 12);
    let want = std::fs::read(&requested).unwrap();
    let snapshot_json = dir.join("snapshot.json");
    let deadline = Instant::now() + Duration::from_secs(20);
    while std::fs::read(&snapshot_json).unwrap() != want {
        assert!(Instant::now() < deadline, "the compactor never wrote the final state");
        std::thread::sleep(Duration::from_millis(10));
    }

    client.shutdown().unwrap();
    server.join().unwrap();
    assert!(journal::scan_dir(&dir).unwrap().is_empty(), "shutdown consolidated");
    assert!(std::fs::read(&snapshot_json).unwrap() == want, "the shutdown snapshot differs");

    let (parts, _) = snapshot::read(&snapshot_json).unwrap();
    let mut frames = Vec::new();
    let mut at = 0;
    while at < want.len() {
        let Check::Complete { next, .. } = frame::check(&want[at..], u32::MAX) else {
            panic!("a snapshot file is whole frames")
        };
        frames.push(&want[at..at + next]);
        at += next;
    }
    frames[1..=parts.len()].reverse();
    std::fs::write(&snapshot_json, frames.concat()).unwrap();
    assert!(std::fs::read(&snapshot_json).unwrap() != want, "the boot gets other bytes");
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    assert!(std::fs::read(&snapshot_json).unwrap() == want, "the boot snapshot differs");
    Client::connect(server.local_addr()).unwrap().shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(requested.parent().unwrap());
}

/// Compaction keeps disk usage and replay work bounded while the server
/// runs: sealed segments are folded into the snapshot in the background,
/// so a crash image never carries the full observation history as journal
/// frames.
#[test]
fn compaction_bounds_disk_and_replay() {
    let dir = fresh_dir("compact-bounds");
    const SEGMENT: u64 = 1024;
    const COMPACT: u64 = 4 * SEGMENT;
    let server = Server::start("127.0.0.1:0", config(&dir, SEGMENT, COMPACT)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let events = drive(&mut client, 0, 600);

    // The background compactor runs on rotation notifications; give it a
    // bounded moment to drain the backlog.
    let bound = COMPACT + 2 * SEGMENT;
    let mut live_bytes = u64::MAX;
    for _ in 0..100 {
        live_bytes = journal::scan_dir(&dir)
            .unwrap()
            .iter()
            .map(|(_, p)| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .sum();
        if live_bytes <= bound {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(
        live_bytes <= bound,
        "compaction must bound journal disk usage: {live_bytes} > {bound}"
    );

    // Telemetry agrees that compaction (not just shutdown consolidation)
    // did the folding.
    let stats = client.stats().unwrap();
    let compactions = stats
        .get("telemetry")
        .and_then(|t| t.get("counters"))
        .and_then(|c| c.get("journal.compactions"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    assert!(compactions >= 1.0, "expected background compactions, saw {compactions}");

    // Replay work is bounded too: a crash image taken now holds only the
    // yet-uncompacted tail as frames, far fewer than the full history.
    let image = fresh_dir("compact-bounds-image");
    copy_dir(&dir, &image);
    let tail = journal::recover(&image, RecoverMode::ReadOnly).unwrap();
    assert!(
        tail.records.len() < events.len() / 2,
        "most history must live in the snapshot, not the journal tail ({} of {})",
        tail.records.len(),
        events.len()
    );

    // And the image still recovers the *complete* state bit-identically.
    let server2 = Server::start("127.0.0.1:0", config(&image, SEGMENT, u64::MAX)).unwrap();
    let mut c2 = Client::connect(server2.local_addr()).unwrap();
    assert_eq!(observations(&mut c2) as usize, events.len());
    assert_matches_oracle(&mut c2, &events, events.len());
    c2.shutdown().unwrap();
    server2.join().unwrap();

    client.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&image);
}
