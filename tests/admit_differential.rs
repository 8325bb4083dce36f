//! Differential battery for prediction-driven admission control.
//!
//! Wire half: a seeded multi-partition script of interleaved
//! observe/predict/admit requests runs over the JSON protocol and the
//! binary protocol at shard counts 1, 4, and 16. Every admit decision the
//! server answers must equal — bit for bit — an inline oracle computed
//! client-side from a predict on the same partition plus
//! [`qdelay::predict::admission::decide`], and the JSON and binary runs
//! must agree on every decision byte and float payload. Because `admit`
//! is read-only and bounds are a pure function of the observation
//! sequence, this is the executable proof that admission decisions are
//! replayable.
//!
//! The scheduler half of the admission loop — `PredictiveBackfill`
//! against an independent oracle — lives in `tests/backfill_differential.rs`
//! with the other scheduler scenarios.

use qdelay::predict::admission::{decide, Decision};
use qdelay::serve::client::Client;
use qdelay::serve::server::{Server, ServerConfig};
use qdelay_rng::{Rng, StdRng};

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

#[derive(Debug, Clone, PartialEq)]
enum Step {
    Observe { pi: usize, wait: f64 },
    Predict { pi: usize },
    Admit { pi: usize, budget: f64, confidence: Option<f64> },
}

/// Budgets mix tiny, huge, zero, and fractional values so admit, reject,
/// and (early on) defer all occur, with margins that exercise float
/// round-tripping.
fn script(seed: u64, len: usize) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut steps = Vec::with_capacity(len);
    for _ in 0..len {
        let r = rng.next_u64();
        let pi = (r % PARTITIONS.len() as u64) as usize;
        match r % 7 {
            0 | 1 => steps.push(Step::Predict { pi }),
            2 | 3 => {
                let budget = match r % 4 {
                    0 => 0.0,
                    1 => (rng.next_u64() % 1_000_000) as f64 / 17.0,
                    _ => (rng.next_u64() % 200_000) as f64,
                };
                let confidence = if r % 5 == 0 { Some(0.95) } else { None };
                steps.push(Step::Admit { pi, budget, confidence });
            }
            _ => {
                let wait = (rng.next_u64() % 86_400_000) as f64 / 1000.0;
                steps.push(Step::Observe { pi, wait });
            }
        }
    }
    steps
}

/// Every admit decision, bit-exact: (pi, n, seq, kind byte, bound bits,
/// margin-or-retry bits).
type AdmitProbe = (usize, usize, u64, u8, u64, u64);

fn probe_of(pi: usize, n: usize, seq: u64, d: &Decision) -> AdmitProbe {
    match *d {
        Decision::Admit { bound, margin } => (pi, n, seq, 0, bound.to_bits(), margin.to_bits()),
        Decision::Reject { bound, margin } => (pi, n, seq, 1, bound.to_bits(), margin.to_bits()),
        Decision::Defer { retry_hint } => (pi, n, seq, 2, 0, retry_hint),
    }
}

/// Runs the script, asserting each admit against the client-side oracle
/// (predict + decide on the same partition, which `admit` must mirror).
fn run_script(steps: &[Step], shards: usize, binary: bool) -> Vec<AdmitProbe> {
    let config = ServerConfig {
        shards,
        binary_addr: if binary { Some("127.0.0.1:0".to_string()) } else { None },
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut json = Client::connect(server.local_addr()).unwrap();
    let mut bin = server.binary_addr().map(|addr| Client::connect_binary(addr).unwrap());
    // The one driver: the same calls, over whichever wire this run is on.
    let client = bin.as_mut().unwrap_or(&mut json);

    let mut probes = Vec::new();
    for step in steps {
        match *step {
            Step::Observe { pi, wait } => {
                let (site, queue, procs) = PARTITIONS[pi];
                client.observe(site, queue, procs, wait, None, None).unwrap();
            }
            Step::Predict { pi } => {
                let (site, queue, procs) = PARTITIONS[pi];
                client.predict(site, queue, procs).unwrap();
            }
            Step::Admit { pi, budget, confidence } => {
                let (site, queue, procs) = PARTITIONS[pi];
                // Inline oracle: admit is read-only, so a predict issued
                // just before it sees the exact same partition state.
                let p = client.predict(site, queue, procs).unwrap();
                let a = client.admit(site, queue, procs, budget, confidence).unwrap();
                let expected = decide(p.bmbp, p.lognormal, p.n as u64, budget);
                assert_eq!(
                    probe_of(pi, p.n, p.seq, &expected),
                    probe_of(pi, a.n, a.seq, &a.decision),
                    "server admit diverged from client-side oracle \
                     (shards={shards}, binary={binary})"
                );
                probes.push(probe_of(pi, a.n, a.seq, &a.decision));
            }
        }
    }
    json.shutdown().unwrap();
    server.join().unwrap();
    probes
}

fn wire_differential(seed: u64, len: usize, shards: usize) {
    let steps = script(seed, len);
    let j = run_script(&steps, shards, false);
    let b = run_script(&steps, shards, true);
    assert!(!j.is_empty(), "script must contain admit steps");
    assert_eq!(j, b, "JSON and binary admit streams diverged (shards={shards})");
    // The battery is vacuous unless all three decision kinds occurred.
    for kind in 0u8..=2 {
        assert!(
            j.iter().any(|p| p.3 == kind),
            "script never produced decision kind {kind}"
        );
    }
}

// Script length note: the nonparametric BMBP bound needs roughly 60
// observations per partition before it exists at 95/95, and until then the
// lognormal fallback's bound on these near-uniform waits is enormous (so
// everything rejects or defers). 2000 steps ≈ 140 observations per
// partition — enough that every decision kind occurs.

#[test]
fn admit_bit_identical_one_shard() {
    wire_differential(11, 2000, 1);
}

#[test]
fn admit_bit_identical_four_shards() {
    wire_differential(11, 2000, 4);
}

#[test]
fn admit_bit_identical_sixteen_shards() {
    wire_differential(11, 2000, 16);
}

#[test]
fn admit_bit_identical_alt_seed() {
    wire_differential(20260809, 1200, 4);
}

/// An exact-boundary admit: budget set to the served bound itself must
/// admit with a margin of exactly +0.0 on both protocols.
#[test]
fn admit_boundary_budget_is_exact_on_both_protocols() {
    let config = ServerConfig {
        shards: 2,
        binary_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut json = Client::connect(server.local_addr()).unwrap();
    let mut bin = Client::connect_binary(server.binary_addr().unwrap()).unwrap();
    for i in 0..100 {
        json.observe("s", "q", 4, f64::from(i % 40) * 30.0 + 0.125, None, None).unwrap();
    }
    let bound = json.predict("s", "q", 4).unwrap().bmbp.expect("warm");
    for client in [&mut json, &mut bin] {
        match client.admit("s", "q", 4, bound, None).unwrap().decision {
            Decision::Admit { bound: b, margin } => {
                assert_eq!(b.to_bits(), bound.to_bits());
                assert_eq!(margin.to_bits(), 0.0f64.to_bits(), "margin must be exactly zero");
            }
            other => panic!("boundary budget must admit, got {other:?}"),
        }
    }
    json.shutdown().unwrap();
    server.join().unwrap();
}
