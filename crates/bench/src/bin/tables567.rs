//! Regenerates the paper's **Tables 5, 6 and 7**: fraction of correct
//! predictions per queue *and processor-count range* (1-4, 5-16, 17-64,
//! 65+) for BMBP, log-normal without trimming, and log-normal with
//! trimming. Cells with fewer than 1000 jobs print `-`, as in the paper.
//!
//! Usage: `cargo run --release -p qdelay-bench --bin tables567 [seed]`
//! (every queue at its full catalog length; seconds on two cores).

use qdelay_bench::suite::{self, MethodKind, SuiteConfig};
use qdelay_bench::table;
use qdelay_trace::catalog;
use qdelay_trace::synth::SynthSettings;
use qdelay_trace::ProcRange;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    let profiles = catalog::proc_table_catalog();
    let config = SuiteConfig {
        synth: SynthSettings::with_seed(seed),
        ..SuiteConfig::default()
    };
    eprintln!(
        "evaluating {} queues x 3 methods x 4 ranges (seed {seed}) ...",
        profiles.len()
    );
    let started = std::time::Instant::now();
    let runs = suite::evaluate_catalog(&profiles, &config);
    eprintln!("done in {:.1} s", started.elapsed().as_secs_f64());

    let grouped = suite::group_by_queue(&runs);
    let q = 0.95;
    let header: Vec<String> = ["Machine", "Queue", "1-4", "5-16", "17-64", "65+"]
        .iter()
        .map(|s| s.to_string())
        .collect();

    for (kind, table_no) in [
        (MethodKind::Bmbp, 5),
        (MethodKind::LogNormalNoTrim, 6),
        (MethodKind::LogNormalTrim, 7),
    ] {
        let mut rows = Vec::new();
        let mut cells = 0usize;
        let mut correct_cells = 0usize;
        for ((machine, queue), methods) in &grouped {
            let run = &methods[&kind];
            let mut row = vec![machine.clone(), queue.clone()];
            for range in ProcRange::ALL {
                match run.per_range.get(&range) {
                    Some(m) => {
                        cells += 1;
                        correct_cells += m.is_correct(q) as usize;
                        row.push(table::fraction_cell(m.correct_fraction, q, false));
                    }
                    None => row.push("-".to_string()),
                }
            }
            rows.push(row);
        }
        println!(
            "\nTable {table_no} — {} correctness by queue and processor range",
            kind.label()
        );
        println!("('-' = fewer than 1000 jobs in the cell; '*' = below 0.95)\n");
        print!("{}", table::render(&header, &rows, 2));
        println!("\n  {} of {} populated cells correct", correct_cells, cells);
        match kind {
            MethodKind::Bmbp => {
                println!("  (paper Table 5: BMBP correct in every populated cell)")
            }
            MethodKind::LogNormalNoTrim => {
                println!("  (paper Table 6: fails in roughly a third of the cells)")
            }
            MethodKind::LogNormalTrim => {
                println!("  (paper Table 7: better than NoTrim, still several failures)")
            }
        }
    }

    let json = suite::runs_to_json(&runs).to_string_pretty();
    let path = "results_tables567.json";
    if std::fs::write(path, json).is_ok() {
        println!("\nper-cell JSON written to {path}");
    }
}
