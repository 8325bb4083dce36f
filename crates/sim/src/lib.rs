//! # qdelay-sim
//!
//! The paper's trace-driven, event-driven evaluation simulator (§5.1).
//!
//! A trace of `(submit time, wait)` pairs is replayed against a
//! [`qdelay_predict::QuantilePredictor`] under the exact information
//! constraints a live deployment would face:
//!
//! * a job's wait time becomes visible to the predictor only when the job
//!   *starts* (leaves the pending queue), not when it arrives;
//! * the served prediction is refreshed only on a periodic epoch (default
//!   300 s, modeling the five-minute log "dump" the paper assumes), not on
//!   every event;
//! * an initial fraction of the trace (default 10%) is used for training:
//!   waits accumulate and the change-point detector is calibrated, but no
//!   successes/failures are recorded.
//!
//! The crate also provides the derived measurements the paper reports:
//! correctness fractions and median prediction ratios ([`metrics`]),
//! bound time series for Figures 1-2 (sampling in [`harness`]),
//! multi-quantile snapshot panels for Table 8 ([`snapshots`]), and what the
//! exhibits share: the catalog-wide three-method evaluation behind Tables
//! 3-7, its JSON artifacts and the plain-text tables ([`paper`]; the CLI's
//! `qdelay paper` prints each exhibit).

pub mod harness;
pub mod metrics;
pub mod paper;
pub mod snapshots;

pub use harness::{HarnessConfig, HarnessResult, PredictionRecord, SampleWindow};
pub use metrics::EvalMetrics;
