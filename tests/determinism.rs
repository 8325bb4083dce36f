//! Determinism: the catalog suite must produce byte-identical serialized
//! results regardless of worker count — the seed derivation is per-profile
//! and results land in per-profile slots, so thread scheduling cannot leak
//! into the output.

use qdelay::sim::paper::{self, SuiteConfig};
use qdelay_trace::catalog;
use qdelay_trace::synth::SynthSettings;

#[test]
fn suite_results_independent_of_worker_count() {
    let mut profiles = vec![
        catalog::find("datastar", "express").unwrap(),
        catalog::find("sdsc", "express").unwrap(),
        catalog::find("nersc", "debug").unwrap(),
        catalog::find("lanl", "short").unwrap(),
    ];
    for p in &mut profiles {
        p.job_count = p.job_count.min(2_000);
    }
    let config = SuiteConfig {
        synth: SynthSettings::with_seed(42),
        ..SuiteConfig::default()
    };

    let serial = paper::evaluate_catalog_with_workers(&profiles, &config, 1);
    let parallel = paper::evaluate_catalog_with_workers(&profiles, &config, 4);
    let oversubscribed = paper::evaluate_catalog_with_workers(&profiles, &config, 16);

    let serial_json = paper::runs_to_json(&serial).to_string_pretty();
    let parallel_json = paper::runs_to_json(&parallel).to_string_pretty();
    let oversub_json = paper::runs_to_json(&oversubscribed).to_string_pretty();

    assert_eq!(serial, parallel, "worker count changed results");
    assert_eq!(
        serial_json, parallel_json,
        "serialized results not byte-identical (1 vs 4 workers)"
    );
    assert_eq!(
        serial_json, oversub_json,
        "serialized results not byte-identical (1 vs 16 workers)"
    );
    // And a re-run from scratch is reproducible too.
    let rerun = paper::evaluate_catalog_with_workers(&profiles, &config, 4);
    assert_eq!(
        serial_json,
        paper::runs_to_json(&rerun).to_string_pretty(),
        "re-run with identical config diverged"
    );
}
