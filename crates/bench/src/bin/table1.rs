//! Regenerates the paper's **Table 1**: per-queue job counts, mean, median,
//! and standard deviation of queue delay — paper values side by side with
//! the calibrated synthetic traces this reproduction actually evaluates on.
//!
//! Usage: `cargo run --release -p qdelay-bench --bin table1 [seed]`

use qdelay_bench::table;
use qdelay_trace::catalog;
use qdelay_trace::synth::{self, SynthSettings};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let settings = SynthSettings::with_seed(seed);
    println!("Table 1 reproduction — synthetic traces calibrated to the paper");
    println!("(seed {seed}; paper columns first, generated columns second)\n");

    let header: Vec<String> = [
        "Site/Machine",
        "Queue",
        "Jobs",
        "Avg(paper)",
        "Med(paper)",
        "Std(paper)",
        "Avg(gen)",
        "Med(gen)",
        "Std(gen)",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let profiles = catalog::paper_catalog();
    let traces = synth::generate_catalog(&profiles, &settings);
    let mut rows = Vec::new();
    for (profile, trace) in profiles.iter().zip(&traces) {
        let s = trace.summary().expect("every catalog trace has >= 2 jobs");
        rows.push(vec![
            profile.machine.to_string(),
            profile.queue.to_string(),
            profile.job_count.to_string(),
            format!("{:.0}", profile.mean_wait),
            format!("{:.0}", profile.median_wait),
            format!("{:.0}", profile.std_wait),
            format!("{:.0}", s.mean),
            format!("{:.0}", s.median),
            format!("{:.0}", s.std_dev),
        ]);
    }
    print!("{}", table::render(&header, &rows, 2));
    println!("\nMedians are pinned by construction; means/stds match in shape");
    println!("(heavy tails: median << mean, std >= mean), not to the digit.");
}
