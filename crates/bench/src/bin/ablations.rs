//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Refit epoch**: 300 s versus 0 s (refit on every arrival). §5.1
//!    claims "the effect on the results was minimal".
//! 2. **Trimming**: BMBP with change-point trimming on versus off.
//! 3. **Miss-threshold sensitivity**: forcing the consecutive-miss
//!    threshold to 2/3/5/8 instead of the Monte-Carlo calibration.
//!
//! Usage: `cargo run --release -p qdelay-bench --bin ablations [seed]`

use qdelay_bench::suite::SuiteConfig;
use qdelay_bench::table;
use qdelay_predict::bmbp::{Bmbp, BmbpConfig};
use qdelay_sim::harness::{self, HarnessConfig};
use qdelay_sim::EvalMetrics;
use qdelay_trace::catalog;
use qdelay_trace::synth::{self, SynthSettings};
use qdelay_trace::Trace;

/// The queues used for ablations: a contended heavy-tail queue, a fast
/// interactive-style queue, and the nonstationary end-jolt queue.
fn ablation_traces(seed: u64) -> Vec<Trace> {
    let settings = SynthSettings::with_seed(seed);
    ["datastar/normal", "tacc2/serial", "lanl/short"]
        .iter()
        .map(|key| {
            let (m, q) = key.split_once('/').expect("well-formed key");
            let mut p = catalog::find(m, q).expect("catalog row");
            p.job_count = p.job_count.min(20_000);
            synth::generate(&p, &settings)
        })
        .collect()
}

fn run_bmbp(trace: &Trace, config: BmbpConfig, harness_cfg: &HarnessConfig) -> EvalMetrics {
    let mut p = Bmbp::new(config);
    harness::run(trace, &mut p, harness_cfg).metrics()
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let traces = ablation_traces(seed);
    let base_harness = SuiteConfig::default().harness;

    println!("BMBP ablations (seed {seed}; 3 representative queues)\n");
    let header: Vec<String> = ["Variant", "Queue", "Correct", "Median ratio"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    let mut push = |variant: &str, trace: &Trace, m: EvalMetrics| {
        rows.push(vec![
            variant.to_string(),
            format!("{}/{}", trace.machine(), trace.queue()),
            format!("{:.3}", m.correct_fraction),
            format!("{:.2e}", m.median_ratio),
        ]);
    };

    for trace in &traces {
        // 1. Epoch length.
        for (label, epoch) in [("epoch=300s (paper)", 300), ("epoch=0s (per-job)", 0)] {
            let cfg = HarnessConfig {
                epoch_secs: epoch,
                ..base_harness
            };
            push(label, trace, run_bmbp(trace, BmbpConfig::default(), &cfg));
        }
        // 2. Trimming.
        let cfg = BmbpConfig {
            trimming: false,
            ..BmbpConfig::default()
        };
        push("trimming=off", trace, run_bmbp(trace, cfg, &base_harness));
        // 3. Threshold override.
        for t in [2usize, 3, 5, 8] {
            let cfg = BmbpConfig {
                threshold_override: Some(t),
                ..BmbpConfig::default()
            };
            push(&format!("threshold={t}"), trace, run_bmbp(trace, cfg, &base_harness));
        }
    }
    print!("{}", table::render(&header, &rows, 2));
    println!("\nExpected shape:");
    println!("  * epoch 0 vs 300 s: near-identical (paper section 5.1);");
    println!("  * trimming off: lower correctness on the nonstationary lanl/short;");
    println!("  * tiny thresholds trim too eagerly (looser bounds), huge ones adapt late.");
}
