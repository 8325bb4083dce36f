//! Regenerates the paper's **Table 3** (fraction of correct predictions per
//! queue, three methods) and **Table 4** (median ratio of actual to
//! predicted wait), over the 32 queue rows the paper evaluates.
//!
//! Markers: `*` = method failed the 0.95 correctness target on that queue;
//! `^` = tightest bounds among the correct methods (the paper's boldface).
//!
//! Usage: `cargo run --release -p qdelay-bench --bin tables34 [seed]`
//! (every queue at its full catalog length; seconds on two cores).

use qdelay_bench::suite::{self, MethodKind, SuiteConfig};
use qdelay_bench::table;
use qdelay_trace::catalog;
use qdelay_trace::synth::SynthSettings;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    let profiles = catalog::queue_table_catalog();
    let config = SuiteConfig {
        synth: SynthSettings::with_seed(seed),
        ..SuiteConfig::default()
    };
    eprintln!(
        "evaluating {} queues x 3 methods (seed {seed}) ...",
        profiles.len()
    );
    let started = std::time::Instant::now();
    let runs = suite::evaluate_catalog(&profiles, &config);
    eprintln!("done in {:.1} s", started.elapsed().as_secs_f64());

    let grouped = suite::group_by_queue(&runs);
    let q = 0.95;

    // ---- Table 3: correctness fractions ----
    let header: Vec<String> = ["Machine", "Queue", "BMBP", "logn NoTrim", "logn Trim"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows3 = Vec::new();
    let mut rows4 = Vec::new();
    let mut bmbp_correct = 0usize;
    let mut notrim_correct = 0usize;
    let mut trim_correct = 0usize;
    let mut bmbp_wins = 0usize;
    for ((machine, queue), methods) in &grouped {
        let winner = suite::most_accurate_correct(methods, q);
        let mut row3 = vec![machine.clone(), queue.clone()];
        let mut row4 = vec![machine.clone(), queue.clone()];
        for kind in MethodKind::ALL {
            let run = &methods[&kind];
            let frac = run.metrics.correct_fraction;
            let correct = run.metrics.is_correct(q);
            row3.push(table::fraction_cell(frac, q, winner == Some(kind)));
            row4.push(table::ratio_cell(
                run.metrics.median_ratio,
                correct,
                winner == Some(kind),
            ));
            match kind {
                MethodKind::Bmbp => bmbp_correct += correct as usize,
                MethodKind::LogNormalNoTrim => notrim_correct += correct as usize,
                MethodKind::LogNormalTrim => trim_correct += correct as usize,
            }
        }
        if winner == Some(MethodKind::Bmbp) {
            bmbp_wins += 1;
        }
        rows3.push(row3);
        rows4.push(row4);
    }

    println!("\nTable 3 — fraction of correct 95/95 upper-bound predictions");
    println!("('*' = below 0.95; '^' = tightest correct method)\n");
    print!("{}", table::render(&header, &rows3, 2));

    println!("\nTable 4 — median(actual/predicted); smaller = more conservative\n");
    print!("{}", table::render(&header, &rows4, 2));

    let n = grouped.len();
    println!("\nSummary (paper shape to verify):");
    println!("  BMBP correct on {bmbp_correct}/{n} queues (paper: 31/32 — all but lanl/short)");
    println!("  logn NoTrim correct on {notrim_correct}/{n} (paper: fails on ~13 queues)");
    println!("  logn Trim  correct on {trim_correct}/{n} (paper: fails on ~4 queues)");
    println!("  BMBP tightest-correct on {bmbp_wins}/{n} queues (paper: 'a large majority')");

    let json = suite::runs_to_json(&runs).to_string_pretty();
    let path = "results_tables34.json";
    if std::fs::write(path, json).is_ok() {
        println!("  per-queue JSON written to {path}");
    }
}
