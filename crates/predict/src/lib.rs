//! # qdelay-predict
//!
//! Queue-delay bound predictors reproducing Brevik, Nurmi & Wolski,
//! *Predicting Bounds on Queuing Delay in Space-shared Computing
//! Environments* (2006):
//!
//! * [`bmbp::Bmbp`] — the Brevik Method Batch Predictor (the paper's
//!   contribution): non-parametric binomial order-statistic bounds with
//!   adaptive change-point history trimming;
//! * [`lognormal::LogNormalPredictor`] — the parametric comparator (§4.2),
//!   with and without BMBP's trimming strategy;
//! * [`baseline`] — deliberately naive predictors that anchor the
//!   evaluation metrics;
//! * [`admission`] — bound-vs-budget admit/reject/defer decisions (the
//!   closed loop: predictions driving resource management);
//! * [`bound`] — the underlying quantile-bound inference, usable directly;
//! * [`changepoint`] — the consecutive-miss rare-event detector and its
//!   Monte Carlo calibration;
//! * [`history`] — the dual arrival-order/sorted wait store.
//!
//! # Quickstart
//!
//! ```
//! use qdelay_predict::{bmbp::Bmbp, QuantilePredictor};
//!
//! let mut predictor = Bmbp::with_defaults(); // 95/95, paper configuration
//! // Feed the waits (seconds) of jobs that have already started.
//! for wait in (0..200).map(|i| f64::from(i % 40) * 30.0) {
//!     predictor.observe(wait);
//! }
//! predictor.refit();
//! let bound = predictor.current_bound().value().expect("enough history");
//! println!("95% confident the next job starts within {bound} s");
//! ```

pub mod admission;
pub mod baseline;
pub mod bmbp;
pub mod bound;
pub mod changepoint;
pub mod history;
pub mod lognormal;
pub mod rank_index;
pub mod state;

pub use bound::{BoundMethod, BoundOutcome, BoundSpec};

/// A queue-delay bound predictor, as exercised by the paper's trace-driven
/// evaluation (§5.1).
///
/// The lifecycle mirrors the simulator's three event kinds:
///
/// 1. a job leaves the queue → its wait becomes visible → [`observe`];
/// 2. a refit epoch elapses → [`refit`] recomputes the served prediction;
/// 3. a job arrives → [`current_bound`] is its prediction, and once its true
///    wait is known the harness reports it via [`record_outcome`] so the
///    predictor can watch for change points.
///
/// [`observe`]: QuantilePredictor::observe
/// [`refit`]: QuantilePredictor::refit
/// [`current_bound`]: QuantilePredictor::current_bound
/// [`record_outcome`]: QuantilePredictor::record_outcome
pub trait QuantilePredictor {
    /// Short stable identifier (used in reports: `"bmbp"`,
    /// `"lognormal-trim"`, ...).
    fn name(&self) -> &str;

    /// The quantile/confidence target this predictor serves.
    fn spec(&self) -> BoundSpec;

    /// Adds a completed wait (seconds) to the history.
    ///
    /// # Panics
    ///
    /// Implementations panic if `wait` is negative or not finite.
    fn observe(&mut self, wait: f64);

    /// Recomputes the served prediction from the current history (the
    /// paper's periodic "refit" epoch).
    ///
    /// A refit is a pure function of the state the other mutators leave:
    /// one with no [`observe`], [`record_outcome`] or [`finish_training`]
    /// since the previous refit leaves [`current_bound`] and all later
    /// behaviour unchanged. The replay harness relies on this to skip the
    /// epochs in which no job started. Every implementation here meets it:
    /// a repeated refit is a same-`n` memo hit, so it leaves no index or
    /// K-factor memo behind either.
    ///
    /// [`observe`]: QuantilePredictor::observe
    /// [`record_outcome`]: QuantilePredictor::record_outcome
    /// [`finish_training`]: QuantilePredictor::finish_training
    /// [`current_bound`]: QuantilePredictor::current_bound
    fn refit(&mut self);

    /// The prediction currently being served.
    fn current_bound(&self) -> BoundOutcome;

    /// Feedback for a completed prediction: `predicted` was served, the job
    /// actually waited `actual`. Drives change-point detection.
    fn record_outcome(&mut self, predicted: f64, actual: f64);

    /// Signals the end of the training period, letting the predictor
    /// calibrate (e.g. the consecutive-miss threshold from training
    /// autocorrelation) and produce its first real prediction.
    ///
    /// It must leave [`current_bound`](QuantilePredictor::current_bound)
    /// current, as a [`refit`](QuantilePredictor::refit) would: the replay
    /// harness counts it as a refit and skips the next one if no job starts
    /// in between. An override that only calibrates must refit as well.
    fn finish_training(&mut self) {
        self.refit();
    }

    /// Number of observations currently retained.
    fn history_len(&self) -> usize;
}

/// Error produced by predictor configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictError {
    message: String,
}

impl PredictError {
    /// Creates an error with the given message. Public so downstream crates
    /// layering validation on top of predictor state (resumable replays,
    /// serve snapshots) can fail with the same error type.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    pub(crate) fn invalid_config(message: impl Into<String>) -> Self {
        Self::new(message)
    }
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for PredictError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_objects_work() {
        // The trait must stay object-safe: the harness holds predictors as
        // Box<dyn QuantilePredictor>.
        let mut predictors: Vec<Box<dyn QuantilePredictor>> = vec![
            Box::new(bmbp::Bmbp::with_defaults()),
            Box::new(lognormal::LogNormalPredictor::new(
                lognormal::LogNormalConfig::no_trim(),
            )),
            Box::new(baseline::MaxObservedPredictor::new()),
        ];
        for p in &mut predictors {
            for i in 0..100 {
                p.observe(i as f64);
            }
            p.finish_training();
        }
        assert_eq!(predictors[0].name(), "bmbp");
        assert!(predictors[2].current_bound().value().is_some());
    }

    /// The contract on [`QuantilePredictor::refit`]: a seeded random
    /// schedule of observes, outcomes (with bursts of misses, so trimming
    /// predictors trim), `finish_training` calls and refits, applied to two
    /// twins of which one refits 0–2 extra times after every refit and
    /// `finish_training` — before the next change. Both must serve the same
    /// bound, bit for bit, after every step.
    fn assert_extra_refits_change_nothing<P: QuantilePredictor>(make: impl Fn() -> P) -> P {
        use qdelay_rng::{Rng, StdRng};
        let bits = |p: &P| match p.current_bound() {
            BoundOutcome::Bound(v) => Ok(v.to_bits()),
            BoundOutcome::InsufficientHistory { needed } => Err(needed),
        };
        let (mut plain, mut eager) = (make(), make());
        for seed in 1..=4u64 {
            let mut ops = StdRng::seed_from_u64(seed);
            let mut extra = StdRng::seed_from_u64(!seed);
            let (mut level, mut missing) = (100.0f64, false);
            for step in 0..2_500 {
                if ops.gen_bool(0.01) {
                    level = 10.0 + 5_000.0 * ops.gen_f64();
                }
                if ops.gen_bool(0.03) {
                    missing = !missing;
                }
                let roll = ops.gen_f64();
                let refit = roll >= 0.85;
                if roll < 0.55 {
                    let wait = (level * -ops.gen_f64_open().ln()).floor();
                    plain.observe(wait);
                    eager.observe(wait);
                } else if roll < 0.85 {
                    let predicted = plain.current_bound().value().unwrap_or(level);
                    let actual = if missing {
                        predicted * 2.0 + 1.0
                    } else {
                        level * ops.gen_f64()
                    };
                    plain.record_outcome(predicted, actual);
                    eager.record_outcome(predicted, actual);
                } else if roll < 0.98 {
                    plain.refit();
                    eager.refit();
                } else {
                    plain.finish_training();
                    eager.finish_training();
                }
                for _ in 0..if refit { extra.gen_range(0..3) } else { 0 } {
                    eager.refit();
                }
                assert_eq!(bits(&plain), bits(&eager), "{} seed {seed} step {step}", plain.name());
                assert_eq!(plain.history_len(), eager.history_len());
            }
        }
        plain
    }

    #[test]
    fn an_extra_refit_changes_nothing() {
        use bmbp::{Bmbp, BmbpConfig};
        use lognormal::{LogNormalConfig, LogNormalPredictor};
        for method in [BoundMethod::Auto, BoundMethod::Exact] {
            let p = assert_extra_refits_change_nothing(|| {
                Bmbp::new(BmbpConfig {
                    method,
                    ..BmbpConfig::default()
                })
            });
            assert!(p.trims() > 0, "the schedule must exercise {method:?} trims");
        }
        assert_extra_refits_change_nothing(|| LogNormalPredictor::new(LogNormalConfig::no_trim()));
        let p = assert_extra_refits_change_nothing(|| LogNormalPredictor::new(LogNormalConfig::trim()));
        assert!(p.trims() > 0, "the schedule must exercise log-normal trims");
        assert_extra_refits_change_nothing(baseline::MaxObservedPredictor::new);
        assert_extra_refits_change_nothing(|| {
            baseline::EmpiricalQuantilePredictor::new(BoundSpec::paper_default())
        });
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PredictError>();
    }
}
