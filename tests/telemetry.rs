//! Integration tests for the telemetry layer as wired through the stack:
//! trim-event counters differenced against predictor state, byte-identical
//! snapshot determinism for seeded simulations, and end-to-end snapshot
//! content from a harness run.
//!
//! The telemetry registry is process-global, so every test here serializes
//! on one mutex and works with counter *deltas* (counters are monotone).

use qdelay::batchsim::engine::Simulation;
use qdelay::batchsim::policy::SchedulerPolicy;
use qdelay::batchsim::workload::WorkloadConfig;
use qdelay::batchsim::MachineConfig;
use qdelay::predict::bmbp::{Bmbp, BmbpConfig};
use qdelay::predict::lognormal::{LogNormalConfig, LogNormalPredictor};
use qdelay::sim::harness::{self, HarnessConfig};
use qdelay::telemetry;
use qdelay::trace::{JobRecord, Trace};
use std::sync::Mutex;

static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A synthetic trace whose waits level-shift upward partway through:
/// the regime change the paper's change-point trimming exists for.
fn shifted_trace(n: usize, shift_at: usize) -> Trace {
    let mut t = Trace::new("synthetic", "shifted");
    for i in 0..n {
        // Deterministic scramble for within-regime variety.
        let noise = ((i as u64).wrapping_mul(2_654_435_761) % 120) as f64;
        let wait = if i < shift_at { noise } else { 6_000.0 + noise * 10.0 };
        t.push(JobRecord {
            submit: 1_000 + i as u64 * 60,
            wait_secs: wait,
            procs: 1 + (i % 8) as u32,
            run_secs: 30.0,
        });
    }
    t
}

#[test]
fn trim_counter_matches_predictor_state_differentially() {
    let _guard = lock();
    let before = telemetry::snapshot();
    let bmbp_trims_before = before.counter("predict.bmbp.trims").unwrap_or(0);
    let logn_trims_before = before.counter("predict.lognormal.trims").unwrap_or(0);

    let trace = shifted_trace(3_000, 1_500);
    let mut bmbp = Bmbp::new(BmbpConfig {
        threshold_override: Some(3),
        ..BmbpConfig::default()
    });
    let res = harness::run(&trace, &mut bmbp, &HarnessConfig::default());
    assert!(!res.records.is_empty());
    assert!(
        bmbp.trims() > 0,
        "the level shift must force at least one trim"
    );

    let mut logn = LogNormalPredictor::new(LogNormalConfig {
        threshold_override: Some(3),
        ..LogNormalConfig::trim()
    });
    harness::run(&trace, &mut logn, &HarnessConfig::default());
    assert!(logn.trims() > 0);

    // Differential: the global counters must have advanced by exactly the
    // number of trims the predictors report having performed.
    let after = telemetry::snapshot();
    assert_eq!(
        after.counter("predict.bmbp.trims").unwrap_or(0) - bmbp_trims_before,
        bmbp.trims() as u64,
        "bmbp trim counter out of sync with predictor state"
    );
    assert_eq!(
        after.counter("predict.lognormal.trims").unwrap_or(0) - logn_trims_before,
        logn.trims() as u64,
        "lognormal trim counter out of sync with predictor state"
    );
    // A trim pins the trimmed-length gauge at the post-trim history length
    // (59 for the paper's 95/95 spec).
    assert_eq!(
        after.gauge("predict.bmbp.trimmed_len"),
        Some(bmbp.config().spec.min_history_upper() as u64)
    );
}

#[test]
fn identical_seeded_simulations_export_identical_snapshots() {
    let _guard = lock();
    // Only logically-derived instruments (pass lengths, cap hits, queue
    // depths) are deterministic; wall-clock histograms are zeroed by the
    // reset and never touched by the batch simulator, so full-snapshot
    // bytes must match across identical seeded runs.
    let run_once = || {
        telemetry::reset();
        let mut sim = Simulation::new(
            MachineConfig::single_queue(64),
            SchedulerPolicy::ConservativeBackfill,
        );
        let traces = sim.run(&WorkloadConfig {
            days: 10,
            jobs_per_day: 120.0,
            seed: 7,
            ..WorkloadConfig::default()
        });
        assert!(!traces[0].is_empty());
        telemetry::snapshot().to_json().to_string_pretty()
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(
        first, second,
        "identical seeded runs must export byte-identical telemetry JSON"
    );
    assert!(first.contains("batchsim.backfill.pass_considered"));
    assert!(first.contains("batchsim.queue_depth_peak"));
}

#[test]
fn harness_run_snapshot_reports_cache_and_latency_surfaces() {
    let _guard = lock();
    let before = telemetry::snapshot();
    let hit0 = before.counter("predict.bound_index.hit").unwrap_or(0);
    let carry0 = before.counter("predict.bound_index.carry_forward").unwrap_or(0);
    let miss0 = before.counter("predict.bound_index.miss").unwrap_or(0);
    let khit0 = before.counter("predict.lognormal.kfactor.hit").unwrap_or(0);
    let kmiss0 = before.counter("predict.lognormal.kfactor.miss").unwrap_or(0);
    let served0 = before.counter("sim.predictions_served").unwrap_or(0);
    let bmbp_refits0 = before
        .histogram("sim.refit_ns.bmbp")
        .map_or(0, |h| h.count);

    let trace = shifted_trace(4_000, 4_000); // stationary: no trims needed
    let mut bmbp = Bmbp::with_defaults();
    harness::run(&trace, &mut bmbp, &HarnessConfig::default());
    let mut logn = LogNormalPredictor::new(LogNormalConfig::no_trim());
    harness::run(&trace, &mut logn, &HarnessConfig::default());

    let snap = telemetry::snapshot();
    let hits = snap.counter("predict.bound_index.hit").unwrap_or(0) - hit0;
    let carries = snap.counter("predict.bound_index.carry_forward").unwrap_or(0) - carry0;
    let misses = snap.counter("predict.bound_index.miss").unwrap_or(0) - miss0;
    // A stationary replay grows n between refits and never trims, so the
    // index is carried forward, and fresh O(log n) inversions are rare:
    // one when n first reaches the minimum history, and one per gap past
    // the carry-forward limit.
    assert!(carries > 0, "refit loop must carry the index forward");
    assert!(
        hits + carries > 10 * misses.max(1),
        "cache hit rate too low: {hits} hits + {carries} carries vs {misses} fresh inversions"
    );
    let khits = snap.counter("predict.lognormal.kfactor.hit").unwrap_or(0) - khit0;
    let kmisses = snap.counter("predict.lognormal.kfactor.miss").unwrap_or(0) - kmiss0;
    assert!(khits + kmisses > 0, "log-normal refits must consult the K memo");
    assert!(snap.counter("sim.predictions_served").unwrap_or(0) > served0);

    // Per-method refit latency histograms carry real samples with ordered
    // quantiles (content is wall-clock, so only shape is asserted).
    let bmbp_lat = snap.histogram("sim.refit_ns.bmbp").expect("bmbp refit histogram");
    assert!(bmbp_lat.count > bmbp_refits0);
    assert!(bmbp_lat.p50 <= bmbp_lat.p99 && bmbp_lat.p99 <= bmbp_lat.max.max(bmbp_lat.p99));
    let json = snap.to_json();
    for field in ["p50", "p90", "p99", "p999"] {
        assert!(
            json.get("histograms")
                .and_then(|h| h.get("sim.refit_ns.bmbp"))
                .and_then(|h| h.get(field))
                .is_some(),
            "snapshot JSON must expose {field}"
        );
    }
}
