//! Regression pins for what the log-normal comparator's K-factor table
//! costs a process.
//!
//! The comparator needs the one-sided tolerance factor `k(n, q, C)` on
//! every refit. Before the prefill, each new history size
//! `n <= exact_limit` paid a cold noncentral-t root-find (~2 ms); a long
//! replay with two predictors paid ~191 of them. The cache then learned to
//! fill its whole exact range `[2, exact_limit]` at once, warm-starting each
//! root-find from its neighbor, and to share that table process-wide. Now
//! the served 95/95 table is a committed constant, so a process that serves
//! only the paper's spec — a replay, a server's boot, its partitions being
//! born, evicted and restored — computes no table at all, and any other spec
//! computes exactly one per process.
//!
//! This file is a standalone test binary on purpose: the telemetry
//! registry is process-global, and counter deltas are only meaningful when
//! no other test pollutes them concurrently (the tests below take one lock).

use qdelay::predict::bound::BoundSpec;
use qdelay::predict::lognormal::{LogNormalConfig, LogNormalPredictor};
use qdelay::serve::client::{Client, Prediction};
use qdelay::serve::registry::Partition;
use qdelay::serve::server::{Server, ServerConfig};
use qdelay::sim::harness::{self, HarnessConfig};
use qdelay::telemetry;
use qdelay::trace::{JobRecord, Trace};
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests: each asserts a delta of a process-wide counter.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn counter(name: &str) -> u64 {
    telemetry::snapshot().counter(name).unwrap_or(0)
}

const ROOTFIND: &str = "predict.lognormal.kfactor.rootfind";

/// A 100k-record synthetic trace with log-normal-ish waits and a mid-trace
/// level shift (so the trimming predictor actually trims and re-walks its
/// history sizes).
fn synthetic_trace(n: usize) -> Trace {
    let mut t = Trace::new("synthetic", "kfactor-replay");
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..n {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let u = ((state >> 11) as f64) / ((1u64 << 53) as f64);
        let spread = (-2.0 * (1.0 - u).max(1e-12).ln()).sqrt();
        let wait = if i < n / 2 {
            60.0 * spread
        } else {
            900.0 * spread
        };
        t.push(JobRecord {
            submit: i as u64 * 30,
            wait_secs: wait,
            procs: 1,
            run_secs: 45.0,
        });
    }
    t
}

/// Replays `trace` through a NoTrim and a Trim predictor for `spec` and
/// returns the exact K-factor tables the process computed meanwhile.
fn replay_rootfinds(trace: &Trace, spec: BoundSpec) -> u64 {
    let before = counter(ROOTFIND);
    let misses0 = counter("predict.lognormal.kfactor.miss");
    for base in [LogNormalConfig::no_trim(), LogNormalConfig::trim()] {
        let mut p = LogNormalPredictor::new(LogNormalConfig { spec, ..base });
        let res = harness::run(trace, &mut p, &HarnessConfig::default());
        assert!(!res.records.is_empty());
    }
    // The memo itself was exercised, not bypassed.
    assert!(
        counter("predict.lognormal.kfactor.miss") > misses0,
        "growing history sizes must miss the (n, k) memo"
    );
    counter(ROOTFIND) - before
}

#[test]
fn hundred_k_refit_replay_pays_at_most_a_handful_of_rootfinds() {
    let _guard = lock();
    let trace = synthetic_trace(100_000);
    // The served spec reads the committed table: no root-find at all.
    assert_eq!(
        replay_rootfinds(&trace, BoundSpec::paper_default()),
        0,
        "a 95/95 replay must adopt the committed K' table"
    );
    // Any other spec walks its table once per process; the second
    // predictor adopts the first one's (the unprefilled cache paid ~191
    // root-finds here).
    assert_eq!(
        replay_rootfinds(&trace, BoundSpec::new(0.90, 0.95).unwrap()),
        1,
        "a q = 0.90 replay must compute exactly one table"
    );
}

type Bits = (usize, u64, Option<u64>, Option<u64>);

fn served_bits(p: &Prediction) -> Bits {
    (p.n, p.seq, p.bmbp.map(f64::to_bits), p.lognormal.map(f64::to_bits))
}

fn replay_bits(oracle: &mut Partition) -> Bits {
    let p = oracle.predict();
    (p.n, p.seq, p.bmbp.map(f64::to_bits), p.lognormal.map(f64::to_bits))
}

/// A server boots, three partitions are born, fill past BMBP's 59-wait
/// minimum and are asked along the way, and under a one-partition cap each
/// birth hibernates the previous one; then a write restores the first.
/// None of it computes a K-factor table, and every answer is the bits a
/// plain in-process `Partition` replay serves.
#[test]
fn serve_boot_and_first_partitions_pay_no_rootfinds() {
    let _guard = lock();
    let before = counter(ROOTFIND);
    let restores0 = counter("serve.hibernate.restores");
    let dir = std::env::temp_dir().join(format!("qdelay-kfactor-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            shards: 1,
            snapshot_path: Some(dir.join("snap.json")),
            max_resident: Some(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let keys = [("ds", "normal", 4), ("ds", "large", 32), ("sdsc", "express", 128)];
    let mut oracles: Vec<Partition> = keys.iter().map(|_| Partition::new()).collect();
    let wait = |i: usize, j: u64| ((i as u64 + 1) * j.wrapping_mul(2_654_435_761) % 9_973) as f64;
    for (i, &(site, queue, procs)) in keys.iter().enumerate() {
        let mut last = (None, None);
        for j in 0..70u64 {
            let w = wait(i, j);
            let seq = c.observe(site, queue, procs, w, last.0, last.1).unwrap();
            assert_eq!(seq, oracles[i].observe(w, last.0, last.1));
            if j % 5 == 4 {
                let served = c.predict(site, queue, procs).unwrap();
                assert_eq!(
                    served_bits(&served),
                    replay_bits(&mut oracles[i]),
                    "{site}/{queue}/{procs} after {} observes",
                    j + 1
                );
                last = (served.bmbp, served.lognormal);
            }
        }
    }
    // The first partition is hibernated (cap 1): a write restores it.
    let (site, queue, procs) = keys[0];
    let w = wait(0, 70);
    c.observe(site, queue, procs, w, None, None).unwrap();
    oracles[0].observe(w, None, None);
    let served = c.predict(site, queue, procs).unwrap();
    assert_eq!(
        served_bits(&served),
        replay_bits(&mut oracles[0]),
        "the restored partition serves a replay's bits"
    );
    assert!(served.bmbp.is_some() && served.lognormal.is_some());
    assert!(counter("serve.hibernate.restores") > restores0, "the write restored");
    c.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(counter(ROOTFIND) - before, 0, "no K-factor table was computed");
}
