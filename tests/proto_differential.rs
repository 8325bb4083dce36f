//! Differential test of the two wire protocols: the same seeded
//! multi-partition request sequence driven through a JSON-protocol server
//! and through a binary-protocol server must produce bit-identical
//! predicted bounds at every probe point and byte-identical snapshot
//! files — across shard counts 1, 4, and 16.
//!
//! Both protocols are codecs over one request model, one `dispatch` and
//! one shard-side `Op` path (the `Responder` is the only codec-aware
//! seam), so this test is the executable proof that the listener a request
//! arrives on changes the wire format and nothing else — for the control
//! methods the script sprinkles in (`stats`, `snapshot` to a file,
//! `promote` on a non-replica) as much as for observe and predict.

use qdelay::serve::client::{Client, ClientError};
use qdelay::serve::proto::BinResponse;
use qdelay::serve::server::{Server, ServerConfig};
use qdelay::serve::snapshot;
use qdelay_json::Json;
use std::path::{Path, PathBuf};
use qdelay_rng::{Rng, StdRng};

/// One partition universe shared by every run: 2 sites x 2 queues x
/// 2 proc counts that land in different proc-range buckets.
const PARTITIONS: [(&str, &str, u32); 8] = [
    ("datastar", "normal", 2),
    ("datastar", "normal", 64),
    ("datastar", "high", 2),
    ("datastar", "high", 64),
    ("lonestar", "normal", 2),
    ("lonestar", "normal", 64),
    ("lonestar", "high", 2),
    ("lonestar", "high", 64),
];

/// A deterministic request script: observes with occasional feedback of
/// the last-seen bounds, predict probes whose results are recorded, and
/// now and then a control method.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    Observe { pi: usize, wait: f64, feed: bool },
    Predict { pi: usize },
    Stats,
    Snapshot,
    Promote,
}

fn script(seed: u64, len: usize) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut steps = Vec::with_capacity(len);
    for _ in 0..len {
        let r = rng.next_u64();
        let pi = (r % PARTITIONS.len() as u64) as usize;
        if r % 31 == 30 {
            steps.push([Step::Stats, Step::Snapshot, Step::Promote][(r / 31 % 3) as usize].clone());
        } else if r % 5 == 4 {
            steps.push(Step::Predict { pi });
        } else {
            // Waits in [0, 86400) seconds with a fractional part so float
            // handling is exercised beyond integers.
            let wait = (rng.next_u64() % 86_400_000) as f64 / 1000.0;
            let feed = r % 3 == 0;
            steps.push(Step::Observe { pi, wait, feed });
        }
    }
    steps
}

/// The observable outcomes of one run, everything bit-exact: each probe's
/// (n, seq, bmbp bits, lognormal bits), every observe's assigned seq, every
/// control method's answer, and the bytes of every snapshot file the run
/// wrote — the script's, then a final one.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    probes: Vec<(usize, u64, u64, Option<u64>, Option<u64>)>,
    seqs: Vec<u64>,
    controls: Vec<String>,
    snapshots: Vec<Vec<u8>>,
}

/// The registry half of a `stats` reply: the totals and each shard's
/// share. Uptime, telemetry and queue depths describe the run, not the
/// state, and are left out.
fn registry_fields(stats: &Json) -> String {
    let pick = |v: &Json, keys: &[&str]| {
        Json::Obj(keys.iter().map(|k| (k.to_string(), v.get(k).cloned().unwrap())).collect())
    };
    let mut fields = pick(
        stats,
        &["version", "partitions", "observations", "resident", "hibernated", "shards"],
    );
    let per_shard = match stats.get("per_shard") {
        Some(Json::Arr(shards)) => shards
            .iter()
            .map(|s| pick(s, &["shard", "partitions", "observations", "resident"]))
            .collect(),
        other => panic!("per_shard is an array, got {other:?}"),
    };
    if let Json::Obj(members) = &mut fields {
        members.push(("per_shard".into(), Json::Arr(per_shard)));
    }
    fields.to_string_compact()
}

/// Drives the script through `client`, writing its snapshot files in `dir`.
fn drive(client: &mut Client, steps: &[Step], dir: &Path) -> Outcome {
    let mut last: Vec<(Option<f64>, Option<f64>)> = vec![(None, None); PARTITIONS.len()];
    let mut probes = Vec::new();
    let mut seqs = Vec::new();
    let mut controls = Vec::new();
    let mut snapshots = Vec::new();
    let mut snapshot = |client: &mut Client| {
        let path = dir.join(format!("{}.snap", snapshots.len()));
        let partitions = client.snapshot(Some(path.to_str().unwrap())).unwrap();
        snapshots.push(std::fs::read(&path).unwrap());
        format!("snapshot of {partitions} partitions")
    };
    for step in steps {
        match *step {
            Step::Observe { pi, wait, feed } => {
                let (site, queue, procs) = PARTITIONS[pi];
                let (bmbp, lognormal) = if feed { last[pi] } else { (None, None) };
                seqs.push(client.observe(site, queue, procs, wait, bmbp, lognormal).unwrap());
            }
            Step::Predict { pi } => {
                let (site, queue, procs) = PARTITIONS[pi];
                let p = client.predict(site, queue, procs).unwrap();
                last[pi] = (p.bmbp, p.lognormal);
                probes.push((
                    p.n,
                    p.seq,
                    pi as u64,
                    p.bmbp.map(f64::to_bits),
                    p.lognormal.map(f64::to_bits),
                ));
            }
            Step::Stats => controls.push(registry_fields(&client.stats().unwrap())),
            Step::Snapshot => controls.push(snapshot(client)),
            Step::Promote => match client.promote() {
                Err(ClientError::Server(e)) => controls.push(format!("{}: {}", e.code, e.message)),
                other => panic!("a primary must refuse promotion with a typed error: {other:?}"),
            },
        }
    }
    snapshot(client);
    Outcome { probes, seqs, controls, snapshots }
}

/// One run of the script against a fresh server, through the listener
/// `binary` names; `label` keeps its snapshot files apart from every other
/// run's.
fn run(steps: &[Step], shards: usize, binary: bool, label: &str) -> Outcome {
    let dir: PathBuf = std::env::temp_dir().join(format!("qdelay-proto-diff-{label}-{binary}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = ServerConfig {
        shards,
        binary_addr: binary.then(|| "127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut json = Client::connect(server.local_addr()).unwrap();
    let outcome = match server.binary_addr() {
        Some(addr) => drive(&mut Client::connect_binary(addr).unwrap(), steps, &dir),
        None => drive(&mut json, steps, &dir),
    };
    // Always shut down through the JSON listener: after a binary run that
    // also covers the mixed-protocol shutdown path (the binary listener
    // must drain alongside it).
    json.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn differential(seed: u64, len: usize, shards: usize) {
    let steps = script(seed, len);
    let label = format!("{seed}-{shards}");
    let json = run(&steps, shards, false, &label);
    let binary = run(&steps, shards, true, &label);
    assert_eq!(
        json.probes.len(),
        binary.probes.len(),
        "same script must produce the same probe count"
    );
    for (i, (j, b)) in json.probes.iter().zip(binary.probes.iter()).enumerate() {
        assert_eq!(j, b, "probe {i} diverged (shards={shards})");
    }
    assert_eq!(json.seqs, binary.seqs, "observe seq streams diverged (shards={shards})");
    assert!(
        json.controls.iter().any(|c| c == "bad_request: not a replica")
            && json.controls.iter().any(|c| c.contains("per_shard"))
            && json.controls.iter().any(|c| c.starts_with("snapshot of")),
        "the script must reach promote, stats and snapshot: {:?}",
        json.controls
    );
    for (i, (j, b)) in json.controls.iter().zip(binary.controls.iter()).enumerate() {
        assert_eq!(j, b, "control reply {i} diverged (shards={shards})");
    }
    assert_eq!(json.controls.len(), binary.controls.len());
    assert_eq!(json.snapshots.len(), binary.snapshots.len());
    for (i, (j, b)) in json.snapshots.iter().zip(binary.snapshots.iter()).enumerate() {
        assert!(j == b, "snapshot file {i} diverged (shards={shards})");
    }
    // The final snapshot must actually hold state, or the comparison is
    // vacuous.
    let (partitions, _) = snapshot::parse(json.snapshots.last().unwrap()).unwrap();
    assert_eq!(partitions.len(), PARTITIONS.len(), "snapshot holds every observed partition");
}

#[test]
fn protocols_bit_identical_one_shard() {
    differential(7, 600, 1);
}

#[test]
fn protocols_bit_identical_four_shards() {
    differential(7, 600, 4);
}

#[test]
fn protocols_bit_identical_sixteen_shards() {
    differential(7, 600, 16);
}

/// A different seed on the default shard count, to make sure the property
/// is not an artifact of one lucky script.
#[test]
fn protocols_bit_identical_alt_seed() {
    differential(20260809, 400, 4);
}

/// Mixed traffic on ONE server: JSON and binary clients interleaving on
/// disjoint partitions of the same process must each see their own
/// consistent state, and a binary observe must be visible to a JSON
/// predict on the same partition (shared shard state).
#[test]
fn cross_protocol_visibility_on_one_server() {
    let config = ServerConfig {
        shards: 4,
        binary_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut json = Client::connect(server.local_addr()).unwrap();
    let mut bin = Client::connect_binary(server.binary_addr().unwrap()).unwrap();

    // 60 observations through the binary listener...
    for i in 0..60u32 {
        let seq = bin.observe("site", "q", 4, f64::from(i % 13) * 100.0, None, None).unwrap();
        assert_eq!(seq, u64::from(i) + 1);
    }
    // ...then one more through JSON: sequence numbers continue, proving
    // both listeners feed one partition.
    let seq = json.observe("site", "q", 4, 99.5, None, None).unwrap();
    assert_eq!(seq, 61);

    // Both protocols must now serve the exact same bounds.
    let pj = json.predict("site", "q", 4).unwrap();
    let pb = bin.predict("site", "q", 4).unwrap();
    assert_eq!(pj.n, pb.n);
    assert_eq!(pj.seq, pb.seq);
    assert_eq!(pj.bmbp.map(f64::to_bits), pb.bmbp.map(f64::to_bits));
    assert_eq!(pj.lognormal.map(f64::to_bits), pb.lognormal.map(f64::to_bits));

    // Interleaved pipelined bursts on the one loop: both connections write
    // a burst at the same partition before either reads a reply. Every
    // observe gets its own seq (together a gapless run), and each
    // connection reads its acks in the order it sent the requests.
    const ROUNDS: u64 = 20;
    const BURST: u64 = 8;
    let mut json_seqs = Vec::new();
    let mut bin_seqs = Vec::new();
    for round in 0..ROUNDS {
        for i in 0..BURST {
            let wait = (round * BURST + i) as f64 * 1.25;
            json.queue_observe("site", "q", 4, wait, None, None);
            bin.queue_observe("site", "q", 4, wait + 0.5, None, None);
        }
        json.flush().unwrap();
        bin.flush().unwrap();
        for _ in 0..BURST {
            for (client, seqs) in [(&mut json, &mut json_seqs), (&mut bin, &mut bin_seqs)] {
                match client.read_response().unwrap() {
                    (_, BinResponse::Observe { seq, .. }) => seqs.push(seq),
                    (_, other) => panic!("expected an observe ack, got {other:?}"),
                }
            }
        }
    }
    assert!(json_seqs.windows(2).all(|w| w[0] < w[1]), "JSON acks out of order");
    assert!(bin_seqs.windows(2).all(|w| w[0] < w[1]), "binary acks out of order");
    let mut all: Vec<u64> = json_seqs.iter().chain(bin_seqs.iter()).copied().collect();
    all.sort_unstable();
    let last = 61 + 2 * ROUNDS * BURST;
    assert_eq!(all, (62..=last).collect::<Vec<u64>>(), "seqs must be one gapless run");
    let pj = json.predict("site", "q", 4).unwrap();
    let pb = bin.predict("site", "q", 4).unwrap();
    assert_eq!((pj.n as u64, pj.seq), (last, last));
    assert_eq!((pj.n, pj.seq), (pb.n, pb.seq));
    assert_eq!(pj.bmbp.map(f64::to_bits), pb.bmbp.map(f64::to_bits));
    assert_eq!(pj.lognormal.map(f64::to_bits), pb.lognormal.map(f64::to_bits));

    bin.shutdown().unwrap();
    server.join().unwrap();
}
