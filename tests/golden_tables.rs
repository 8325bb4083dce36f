//! Golden-table regression tests: the committed result artifacts
//! (`results_tables34.json`, `results_tables567.json`) are pinned outputs
//! of the evaluation pipeline at seed 42. These tests (a) verify the
//! artifacts still encode the paper's headline shape, and (b) replay a
//! miniature slice of the catalog and check it reproduces the pinned
//! numbers — so any behavioral drift in the predictors, the synthesizer,
//! or the harness shows up as a diff against the goldens.

use qdelay::sim::paper::{self, MethodKind, QueueRun, SuiteConfig};
use qdelay_json::Json;
use qdelay_trace::catalog;
use qdelay_trace::synth::SynthSettings;

fn load_runs(path: &str) -> Vec<QueueRun> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden artifact {path}: {e}"));
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("bad JSON in {path}: {e}"));
    paper::runs_from_json(&json).unwrap_or_else(|e| panic!("bad schema in {path}: {e}"))
}

/// The artifacts were generated at `qdelay paper`'s default seed.
fn golden_config() -> SuiteConfig {
    SuiteConfig {
        synth: SynthSettings::with_seed(42),
        ..SuiteConfig::default()
    }
}

fn assert_close(a: f64, b: f64, what: &str) {
    let tol = 1e-9 * b.abs().max(1.0);
    assert!(
        (a - b).abs() <= tol || (a.is_nan() && b.is_nan()),
        "{what}: replayed {a} vs golden {b}"
    );
}

fn assert_metrics_match(actual: &qdelay_sim::metrics::EvalMetrics, golden: &qdelay_sim::metrics::EvalMetrics, what: &str) {
    assert_eq!(actual.jobs, golden.jobs, "{what}: jobs");
    assert_eq!(actual.correct, golden.correct, "{what}: correct");
    assert_eq!(actual.unpredicted, golden.unpredicted, "{what}: unpredicted");
    assert_close(actual.correct_fraction, golden.correct_fraction, what);
    assert_close(actual.median_ratio, golden.median_ratio, what);
    assert_close(actual.median_inverse_ratio, golden.median_inverse_ratio, what);
}

/// Table 3/4 artifact still encodes the paper's headline: BMBP correct on
/// 31 of 32 queues, the sole failure being the nonstationary lanl/short.
#[test]
fn tables34_artifact_matches_paper_shape() {
    let runs = load_runs("results_tables34.json");
    assert_eq!(runs.len(), 32 * 3, "32 queues x 3 methods");
    let bmbp: Vec<&QueueRun> = runs.iter().filter(|r| r.method == MethodKind::Bmbp).collect();
    assert_eq!(bmbp.len(), 32);
    let failures: Vec<String> = bmbp
        .iter()
        .filter(|r| r.metrics.correct_fraction < 0.95)
        .map(|r| format!("{}/{}", r.machine, r.queue))
        .collect();
    assert_eq!(failures, vec!["lanl/short"], "BMBP failures changed");
    // The comparator methods fail substantially more often (Table 3's
    // point); exact counts are pinned.
    let fails_of = |m: MethodKind| {
        runs.iter()
            .filter(|r| r.method == m && r.metrics.correct_fraction < 0.95)
            .count()
    };
    assert_eq!(fails_of(MethodKind::LogNormalNoTrim), 16);
    assert_eq!(fails_of(MethodKind::LogNormalTrim), 10);
}

/// Tables 5-7 artifact sanity: every populated cell meets the 1000-job
/// floor, and BMBP's per-cell correctness stays far ahead of NoTrim's.
#[test]
fn tables567_artifact_matches_paper_shape() {
    let runs = load_runs("results_tables567.json");
    let correct_cells = |m: MethodKind| {
        let mut total = 0usize;
        let mut correct = 0usize;
        for r in runs.iter().filter(|r| r.method == m) {
            for metrics in r.per_range.values() {
                assert!(metrics.jobs >= 1000, "thin cell survived the floor");
                total += 1;
                correct += (metrics.correct_fraction >= 0.95) as usize;
            }
        }
        (correct, total)
    };
    let (bmbp_ok, bmbp_cells) = correct_cells(MethodKind::Bmbp);
    let (notrim_ok, notrim_cells) = correct_cells(MethodKind::LogNormalNoTrim);
    assert_eq!(bmbp_cells, 56);
    assert_eq!(bmbp_ok, 51);
    assert_eq!(notrim_cells, 56);
    assert!(
        notrim_ok < bmbp_ok,
        "NoTrim ({notrim_ok}) should trail BMBP ({bmbp_ok})"
    );
}

/// Miniature catalog replay: re-evaluate the two smallest queues from
/// scratch and compare every metric against the pinned artifact rows.
/// Exercises the full incremental engine (RankIndex history, cached bound
/// indices, running log-moments) against numbers produced through the
/// public pipeline.
#[test]
fn miniature_replay_reproduces_golden_rows() {
    let golden = load_runs("results_tables34.json");
    let config = golden_config();
    for (machine, queue) in [("paragon", "q256s"), ("datastar", "TGhigh")] {
        let profile = catalog::find(machine, queue).expect("catalog row");
        let replayed = paper::evaluate_profile(&profile, &config);
        assert_eq!(replayed.len(), 3);
        for run in &replayed {
            let pin = golden
                .iter()
                .find(|g| g.machine == machine && g.queue == queue && g.method == run.method)
                .unwrap_or_else(|| panic!("{machine}/{queue} {:?} missing from golden", run.method));
            let what = format!("{machine}/{queue} {:?}", run.method);
            assert_metrics_match(&run.metrics, &pin.metrics, &what);
            assert_eq!(
                run.per_range.keys().collect::<Vec<_>>(),
                pin.per_range.keys().collect::<Vec<_>>(),
                "{what}: populated ranges"
            );
            for (range, metrics) in &run.per_range {
                assert_metrics_match(
                    metrics,
                    &pin.per_range[range],
                    &format!("{what} {range:?}"),
                );
            }
        }
    }
}

/// The serializer round-trips the committed artifacts byte-for-byte:
/// parse -> re-serialize reproduces the exact files, so regeneration
/// diffs stay reviewable.
#[test]
fn artifacts_round_trip_byte_identical() {
    for path in ["results_tables34.json", "results_tables567.json"] {
        let text = std::fs::read_to_string(path).expect("artifact exists");
        let runs = load_runs(path);
        let reserialized = paper::runs_to_json(&runs).to_string_pretty();
        assert_eq!(
            text.trim_end(),
            reserialized.trim_end(),
            "{path} did not round-trip"
        );
    }
}
