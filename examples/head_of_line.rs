//! The head-of-line cost of group commit on the loop that issues it, as one
//! reported (ungated) number.
//!
//! `cargo run --release --example head_of_line`
//!
//! An in-process server with two shards and `fsync always`. Connection A
//! keeps a window of pipelined observes in flight over partitions of both
//! shards, so the loop that owns A ends every wakeup with a group commit —
//! an fsync — per shard. Connection B asks depth-1 predicts on partitions
//! A never touches, and its round trip is what is reported: once with A
//! idle, once with B on the other loop, once with B on A's loop.
//!
//! Placement relies on the server's dealing contract: the k-th accepted
//! connection is owned by loop `k mod shards`. On a server with a single
//! I/O loop (before the loops were per shard) the two placements are the
//! same thing, which is the comparison CHANGES.md records.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use qdelay_serve::client::Client;
use qdelay_serve::durability::{FsyncPolicy, JournalConfig};
use qdelay_serve::server::{Server, ServerConfig};

/// Observes A keeps in flight.
const WINDOW: usize = 32;
/// Partitions A spreads its observes over (both shards get their share).
const A_PARTITIONS: usize = 16;
/// Partitions B asks about.
const B_PARTITIONS: usize = 8;
/// B's samples per placement.
const SAMPLES: usize = 20_000;

fn quantile(sorted: &[u64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize] as f64 / 1e3
}

/// B's depth-1 predict round trips, in nanoseconds, sorted.
fn probe(b: &mut Client) -> Vec<u64> {
    let mut samples = Vec::with_capacity(SAMPLES);
    for i in 0..SAMPLES {
        let site = format!("b{}", i % B_PARTITIONS);
        let t = Instant::now();
        b.predict(&site, "q", 4).expect("predict");
        samples.push(t.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    samples
}

fn report(label: &str, sorted: &[u64]) {
    println!(
        "{label:<28} p50 {:>8.1} us   p99 {:>8.1} us   ({} predicts)",
        quantile(sorted, 0.50),
        quantile(sorted, 0.99),
        sorted.len()
    );
}

fn main() {
    let dir = std::env::temp_dir().join("qdelay-head-of-line");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("journal dir");
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            shards: 2,
            binary_addr: Some("127.0.0.1:0".into()),
            journal: Some(JournalConfig {
                fsync: FsyncPolicy::Always,
                ..JournalConfig::new(&dir)
            }),
            ..ServerConfig::default()
        },
    )
    .expect("server");

    // Accept order is loop order: A on loop 0, then a B for each loop.
    let mut a =
        Client::connect_binary(server.binary_addr().expect("binary listener")).expect("A");
    let mut b_other = Client::connect(server.local_addr()).expect("B, other loop");
    let mut b_same = Client::connect(server.local_addr()).expect("B, same loop");

    // Warm B's partitions past the 59 observations a 95/95 bound needs.
    for p in 0..B_PARTITIONS {
        for i in 0..80 {
            b_other.observe(&format!("b{p}"), "q", 4, f64::from(i * 7 % 100), None, None).unwrap();
        }
        b_other.predict(&format!("b{p}"), "q", 4).unwrap();
    }

    report("A idle, B on loop 1", &probe(&mut b_other));
    report("A idle, B on loop 0", &probe(&mut b_same));

    let stop = AtomicBool::new(false);
    let mut sent = 0usize;
    std::thread::scope(|scope| {
        let (stop, sent) = (&stop, &mut sent);
        scope.spawn(move || {
            let mut received = 0usize;
            let started = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                while *sent - received < WINDOW {
                    let site = format!("a{}", *sent % A_PARTITIONS);
                    a.queue_observe(&site, "q", 4, (*sent % 1000) as f64, None, None);
                    *sent += 1;
                }
                a.flush().expect("A flush");
                a.read_response().expect("A ack");
                received += 1;
            }
            let rate = received as f64 / started.elapsed().as_secs_f64();
            println!("A: {received} observes acked, {rate:.0}/s, window {WINDOW}, fsync always");
        });
        // Let A reach its steady state before B starts measuring.
        std::thread::sleep(Duration::from_millis(200));
        report("A pipelining, B on loop 1", &probe(&mut b_other));
        report("A pipelining, B on loop 0", &probe(&mut b_same));
        stop.store(true, Ordering::Relaxed);
    });

    server.shutdown();
    server.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}
