//! # qdelay
//!
//! Predicting bounds on queuing delay in space-shared computing
//! environments — a full Rust reproduction of Brevik, Nurmi & Wolski
//! (UCSB TR CS2005-09 / IISWC 2006), whose method later became known as
//! QBETS.
//!
//! Production HPC machines are space-shared: a job waits in a batch queue
//! until a large-enough partition frees up, and that wait is notoriously
//! unpredictable. The paper's contribution — the **Brevik Method Batch
//! Predictor (BMBP)** — turns the observed history of waits into an upper
//! bound, at a stated confidence level, on the wait the *next* job will
//! experience, using a non-parametric binomial argument over order
//! statistics plus an adaptive change-point detector for the nonstationary
//! reality of administrator-tuned queues.
//!
//! This crate is a facade over the workspace:
//!
//! * [`predict`] — BMBP and the log-normal comparator
//!   (`qdelay-predict`);
//! * [`stats`] — the from-scratch statistical substrate (`qdelay-stats`);
//! * [`trace`] — trace model, SWF parsing, the paper's Table 1 catalog and
//!   calibrated synthetic workloads (`qdelay-trace`);
//! * [`batchsim`] — a discrete-event space-shared cluster simulator
//!   (`qdelay-batchsim`);
//! * [`sim`] — the paper's §5.1 trace-replay evaluation harness
//!   (`qdelay-sim`);
//! * [`serve`] — a sharded online prediction service over TCP with
//!   warm-restart snapshots and optional write-ahead-log durability
//!   (`qdelay-serve`);
//! * [`journal`] — the append-only observation WAL underneath it:
//!   CRC-framed segments, group commit, rotation, compaction, and
//!   crash recovery (`qdelay-journal`);
//! * [`repl`] — WAL log-shipping replication on top of the journal:
//!   cursor handshake, catch-up streaming, live tail, warm bit-identical
//!   standbys (`qdelay-repl`);
//! * [`telemetry`] — first-party counters, gauges, latency histograms and
//!   deterministic JSON snapshots wired through all of the above
//!   (`qdelay-telemetry`).
//!
//! # Quickstart
//!
//! ```
//! use qdelay::predict::{bmbp::Bmbp, QuantilePredictor};
//!
//! // Waits (seconds) of jobs that already started, oldest first.
//! let history = [12.0, 310.0, 0.0, 45.0, 3600.0, 95.0];
//! let mut predictor = Bmbp::with_defaults(); // 95/95, paper configuration
//! for _ in 0..12 {
//!     for w in history {
//!         predictor.observe(w);
//!     }
//! }
//! predictor.refit();
//! let bound = predictor.current_bound().value().expect("72 obs >= 59");
//! println!("95% confident the next job starts within {bound} seconds");
//! ```

pub use qdelay_batchsim as batchsim;
pub use qdelay_journal as journal;
pub use qdelay_predict as predict;
pub use qdelay_repl as repl;
pub use qdelay_serve as serve;
pub use qdelay_sim as sim;
pub use qdelay_stats as stats;
pub use qdelay_telemetry as telemetry;
pub use qdelay_trace as trace;

/// The workspace version, for tooling.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_re_exports_align() {
        // Types must be the same items, not copies.
        let spec: crate::predict::BoundSpec = crate::predict::bound::BoundSpec::paper_default();
        assert_eq!(spec.quantile(), 0.95);
        assert!(!crate::VERSION.is_empty());
        assert_eq!(crate::repl::PROTO_VERSION, 1);
    }
}
