//! What a resident cap costs, by what the cold traffic is: questions, or the
//! paper's loop. Reported (ungated) numbers; the first point of ROADMAP's
//! retention curve.
//!
//! `cargo run --release --example cold_mix [-- --partitions N]`
//!
//! An in-process server with one shard, driven closed-loop over the binary
//! wire by one connection that keeps 16 jobs in flight (enough that the
//! server, not the round trip, sets the rate), each about a partition picked
//! uniformly at random — so with 5 % of the partitions resident, 95 % of the
//! requests are about a hibernated one. Two mixes, each against a capped and
//! an uncapped server:
//!
//! * **questions** — `predict` only. A hibernated partition that has not
//!   been observed since it left memory is answered from the index: no
//!   restore.
//! * **paper loop** — `predict`, then `observe` with the bounds just served
//!   as feedback (§5.1: a job is quoted a bound on arrival and its wait joins
//!   the history when it starts). The observe is a cold *write*: it restores
//!   the partition, the eviction that follows writes the new record, and the
//!   record it replaced is garbage the sweeper compacts (`compactions`, each a
//!   rewrite of the whole spill file, fsynced).
//!
//! Every row runs in a process of its own (the binary re-executes itself), so
//! a row's RSS — read once the store is warm, before the timed phase — is that
//! configuration's and nobody else's. The default is the
//! committed benchmark's `predict-cold` shape — 3,000 partitions of 60 waits;
//! `--partitions 1000000` is the deployment the cap exists for (minutes of
//! warm-up, and the uncapped rows need the memory the cap is there to save).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use qdelay_json::Json;
use qdelay_rng::{Rng, StdRng};
use qdelay_serve::client::Client;
use qdelay_serve::proto::BinResponse;
use qdelay_serve::server::{Server, ServerConfig};

/// Warm-up observations per partition (one past the 59 a 95/95 bound needs).
const WAITS: usize = 60;
/// Share of the partitions a capped server keeps resident.
const RESIDENT_FRACTION: f64 = 0.05;
/// Length of each row's timed phase.
const TIMED: Duration = Duration::from_secs(3);
/// Warm-up observes kept in flight.
const WARM_WINDOW: usize = 64;
/// Jobs the timed phase keeps in flight.
const JOBS: usize = 16;

const MIXES: [&str; 2] = ["questions", "paper-loop"];
const CAPS: [&str; 2] = ["capped", "uncapped"];

fn wait_of(i: u64) -> f64 {
    (i.wrapping_mul(2_654_435_761) % 10_000) as f64 + 0.5
}

fn p50_us(samples: &mut [u64]) -> String {
    if samples.is_empty() {
        return "-".into();
    }
    samples.sort_unstable();
    format!("{:.1}", samples[samples.len() / 2] as f64 / 1e3)
}

/// This process's resident set, MiB (Linux; 0 where `/proc` says nothing).
fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One configuration, start to printed row.
fn run_row(mix: &str, capped: bool, partitions: usize) {
    let dir = std::env::temp_dir().join(format!("qdelay-cold-mix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            shards: 1,
            binary_addr: Some("127.0.0.1:0".into()),
            spill_dir: Some(dir.clone()),
            max_resident: capped.then_some((partitions as f64 * RESIDENT_FRACTION) as usize),
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let mut c = Client::connect_binary(server.binary_addr().expect("binary listener")).expect("dial");
    let sites: Vec<String> = (0..partitions).map(|p| format!("site{p}")).collect();

    // Warm-up, round-robin so that under a cap every observe is a cold one,
    // then one question per partition (a scheduler has asked before).
    let total = partitions * WAITS;
    let (mut sent, mut acked) = (0, 0);
    while acked < total {
        while sent < total && sent - acked < WARM_WINDOW {
            c.queue_observe(&sites[sent % partitions], "q", 4, wait_of(sent as u64), None, None);
            sent += 1;
        }
        c.flush().expect("flush");
        c.read_response().expect("ack");
        acked += 1;
    }
    for site in &sites {
        c.predict(site, "q", 4).expect("predict");
    }

    let counters = |c: &mut Client| {
        let stats = c.stats().expect("stats");
        let counter = |name: &str| {
            stats
                .get("telemetry")
                .and_then(|t| t.get("counters"))
                .and_then(|s| s.get(name))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        [
            counter("serve.hibernate.restores"),
            counter("serve.hibernate.index_answers"),
            counter("serve.hibernate.spill_compactions"),
        ]
    };
    let before = counters(&mut c);
    // Taken now: the warmed store, before this driver's sample vectors grow.
    let rss = rss_mib();
    let mut rng = StdRng::seed_from_u64(1);
    let (mut predicts, mut observes) = (Vec::new(), Vec::new());
    // Replies come back in request order, so the jobs in flight are a queue
    // of (partition, when its request was written).
    let mut in_flight = VecDeque::with_capacity(JOBS);
    let mut arrive = |c: &mut Client, in_flight: &mut VecDeque<(usize, Instant)>| {
        let p = rng.gen_range(0..partitions);
        c.queue_predict(&sites[p], "q", 4);
        in_flight.push_back((p, Instant::now()));
    };
    for _ in 0..JOBS {
        arrive(&mut c, &mut in_flight);
    }
    let started = Instant::now();
    while started.elapsed() < TIMED {
        c.flush().expect("flush");
        let (_, reply) = c.read_response().expect("reply");
        let (p, written) = in_flight.pop_front().expect("a reply answers a request");
        let took = written.elapsed().as_nanos() as u64;
        match reply {
            BinResponse::Predict { bmbp, lognormal, .. } if mix == "paper-loop" => {
                predicts.push(took);
                // The job starts: its wait joins the history, with the bounds
                // it was quoted as feedback.
                let wait = wait_of(predicts.len() as u64);
                c.queue_observe(&sites[p], "q", 4, wait, bmbp, lognormal);
                in_flight.push_back((p, Instant::now()));
            }
            BinResponse::Predict { .. } => {
                predicts.push(took);
                arrive(&mut c, &mut in_flight);
            }
            BinResponse::Observe { .. } => {
                observes.push(took);
                arrive(&mut c, &mut in_flight);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let ops = (predicts.len() + observes.len()) as f64;
    c.flush().expect("flush");
    for _ in in_flight.drain(..) {
        c.read_response().expect("reply");
    }
    let after = counters(&mut c);
    let [restores, answers, compactions] = [0, 1, 2].map(|i| after[i] - before[i]);
    let stats = c.stats().expect("stats");
    let num = |name: &str| stats.get(name).and_then(Json::as_f64).unwrap_or(0.0);
    let spill_per_partition = num("spill_disk_bytes") / num("hibernated").max(1.0);
    println!(
        "| {mix} | {} | {:.0} | {} | {} | {:.3} | {:.3} | {compactions:.0} | {rss:.1} | {spill_per_partition:.0} |",
        if capped { "capped" } else { "uncapped" },
        ops / elapsed,
        p50_us(&mut predicts),
        p50_us(&mut observes),
        restores / ops,
        answers / ops,
    );

    server.shutdown();
    server.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut partitions = 3_000usize;
    let mut row = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match (arg.as_str(), it.next()) {
            ("--partitions", Some(n)) => partitions = n.parse().expect("--partitions <count>"),
            // Internal: the re-executed child's configuration, `<mix>,<cap>`.
            ("--row", Some(r)) => row = r.split_once(',').map(|(m, c)| (m.to_string(), c == "capped")),
            _ => panic!("usage: cold_mix [--partitions <count>]"),
        }
    }
    if let Some((mix, capped)) = row {
        return run_row(&mix, capped, partitions);
    }
    println!(
        "{partitions} partitions x {WAITS} waits, {:.0} % resident under the cap, one shard, one \
         connection with {JOBS} jobs in flight (binary wire), uniform keys, {} s per row",
        RESIDENT_FRACTION * 100.0,
        TIMED.as_secs()
    );
    println!(
        "| mix | store | req/s | predict p50 us | observe p50 us | restores/op | index answers/op \
         | compactions | RSS MiB | spill B/partition |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let exe = std::env::current_exe().expect("own path");
    for mix in MIXES {
        for cap in CAPS {
            let status = std::process::Command::new(&exe)
                .args(["--partitions", &partitions.to_string(), "--row", &format!("{mix},{cap}")])
                .status()
                .expect("re-execute for one row");
            assert!(status.success(), "{mix}/{cap} row failed");
        }
    }
}
