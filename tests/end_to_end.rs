//! End-to-end integration: synthetic catalog traces through the full
//! evaluation pipeline, checking the paper's headline claims in miniature.

use qdelay::predict::bmbp::Bmbp;
use qdelay::predict::lognormal::{LogNormalConfig, LogNormalPredictor};
use qdelay::sim::harness::{self, HarnessConfig};
use qdelay::trace::catalog;
use qdelay::trace::synth::{self, SynthSettings};

fn scaled_profile(machine: &str, queue: &str, jobs: u64) -> qdelay::trace::catalog::QueueProfile {
    let mut p = catalog::find(machine, queue).expect("catalog row");
    p.job_count = p.job_count.min(jobs);
    p
}

/// BMBP achieves the advertised coverage on calibrated catalog queues.
#[test]
fn bmbp_is_correct_on_catalog_queues() {
    for (machine, queue) in [
        ("datastar", "express"),
        ("nersc", "debug"),
        ("sdsc", "low"),
        ("tacc2", "serial"),
    ] {
        let p = scaled_profile(machine, queue, 6_000);
        let trace = synth::generate(&p, &SynthSettings::with_seed(11));
        let mut bmbp = Bmbp::with_defaults();
        let res = harness::run(&trace, &mut bmbp, &HarnessConfig::default());
        let m = res.metrics();
        assert!(
            m.correct_fraction >= 0.95,
            "{machine}/{queue}: BMBP fraction {}",
            m.correct_fraction
        );
        // Meaningful, not vacuous: misses do occur.
        assert!(
            m.correct_fraction < 1.0,
            "{machine}/{queue}: suspiciously perfect"
        );
    }
}

/// The nonstationary end-jolt queue (lanl/short) hurts BMBP exactly as the
/// paper reports: correctness drops below the stationary queues.
#[test]
fn end_jolt_degrades_correctness() {
    let seed = SynthSettings::with_seed(11);
    let jolt = synth::generate(&scaled_profile("lanl", "short", 4_000), &seed);
    let calm = synth::generate(&scaled_profile("lanl", "chammpq", 4_000), &seed);
    let frac = |trace| {
        let mut bmbp = Bmbp::with_defaults();
        harness::run(trace, &mut bmbp, &HarnessConfig::default())
            .metrics()
            .correct_fraction
    };
    let f_jolt = frac(&jolt);
    let f_calm = frac(&calm);
    assert!(
        f_jolt < f_calm,
        "jolted queue ({f_jolt}) should underperform calm queue ({f_calm})"
    );
}

/// Trimming rescues the log-normal method on queues where the full-history
/// fit goes stale — the paper's Table 3 vs Table 4 comparison in miniature.
#[test]
fn trimming_helps_lognormal_on_shifting_trace() {
    // A trace with hard regime shifts.
    let mut settings = SynthSettings::with_seed(23);
    settings.regime_days = 20.0;
    settings.regime_spread_frac = 0.6;
    let p = scaled_profile("datastar", "normal", 8_000);
    let trace = synth::generate(&p, &settings);

    let run = |cfg: LogNormalConfig| {
        let mut pred = LogNormalPredictor::new(cfg);
        harness::run(&trace, &mut pred, &HarnessConfig::default()).metrics()
    };
    let no_trim = run(LogNormalConfig::no_trim());
    let trim = run(LogNormalConfig::trim());
    // Trimming must not be worse, and usually strictly helps correctness.
    assert!(
        trim.correct_fraction >= no_trim.correct_fraction - 0.01,
        "trim {} vs no-trim {}",
        trim.correct_fraction,
        no_trim.correct_fraction
    );
}

/// The paper's §5.1 ablation: epoch length 0 vs 300 s barely matters.
#[test]
fn epoch_length_has_minimal_effect() {
    let p = scaled_profile("sdsc", "express", 4_000);
    let trace = synth::generate(&p, &SynthSettings::with_seed(31));
    let frac = |epoch: u64| {
        let mut bmbp = Bmbp::with_defaults();
        let cfg = HarnessConfig {
            epoch_secs: epoch,
            ..HarnessConfig::default()
        };
        harness::run(&trace, &mut bmbp, &cfg).metrics().correct_fraction
    };
    let f300 = frac(300);
    let f0 = frac(0);
    assert!(
        (f300 - f0).abs() < 0.02,
        "epoch effect too large: 300s={f300}, 0s={f0}"
    );
}

/// Full pipeline through the SWF round trip: a synthetic trace written as
/// SWF, re-parsed, and evaluated must give identical results.
#[test]
fn swf_roundtrip_preserves_evaluation() {
    use qdelay::trace::swf;
    let p = scaled_profile("llnl", "all", 3_000);
    let trace = synth::generate(&p, &SynthSettings::with_seed(41));

    // Convert to SWF records (integer seconds in SWF; our waits are already
    // rounded to whole seconds by the generator).
    let mut log = String::from("; synthetic\n");
    for (i, j) in trace.iter().enumerate() {
        log.push_str(&format!(
            "{} {} {} {} {} -1 -1 {} -1 -1 1 1 1 -1 3 -1 -1 -1\n",
            i + 1,
            j.submit,
            j.wait_secs as i64,
            j.run_secs as i64,
            j.procs,
            j.procs
        ));
    }
    let parsed = swf::parse_swf(&log).expect("well-formed SWF");
    let traces = parsed.to_traces("llnl");
    assert_eq!(traces.len(), 1);
    let roundtrip = &traces[0];
    assert_eq!(roundtrip.len(), trace.len());

    let frac = |t: &qdelay::trace::Trace| {
        let mut bmbp = Bmbp::with_defaults();
        harness::run(t, &mut bmbp, &HarnessConfig::default())
            .metrics()
            .correct_fraction
    };
    assert_eq!(frac(&trace), frac(roundtrip));
}
