//! # qdelay-bench
//!
//! The experiment harness: everything needed to regenerate each table and
//! figure of the paper from the calibrated synthetic catalog.
//!
//! Binaries (one per exhibit — see DESIGN.md's per-experiment index):
//!
//! | binary      | reproduces                                         |
//! |-------------|----------------------------------------------------|
//! | `table1`    | Table 1 — trace summary statistics                 |
//! | `tables34`  | Tables 3 & 4 — per-queue correctness and accuracy  |
//! | `tables567` | Tables 5-7 — correctness by queue x processor range|
//! | `table8`    | Table 8 — day-in-the-life quantile panels          |
//! | `figure1`   | Figure 1 — bound time series, Datastar vs Lonestar |
//! | `figure2`   | Figure 2 — bounds by processor range, large-job era|
//! | `ablations` | epoch length, bound method, trimming ablations     |
//!
//! Timing lives in the committed benchmark (`benchmark/`, contract in
//! `BENCHMARK.json`), not here.

pub mod suite;
pub mod table;

pub use suite::{evaluate_catalog, standard_methods, MethodKind, QueueRun, SuiteConfig};
