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

pub use bound::{BoundOutcome, BoundSpec};

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
    /// The bound a refit computes depends only on the sequence of
    /// [`observe`], [`record_outcome`] and [`finish_training`] calls so
    /// far, not on which earlier refits ran: a refit may be repeated,
    /// skipped or deferred without changing any bound a later refit
    /// serves. The replay harness relies on this to skip the epochs in
    /// which no job started, and the refits whose bound no arrival or
    /// sample reads. Every implementation here meets it: the baselines
    /// recompute from their history, and BMBP's index memo and the
    /// log-normal K′ memo are pure functions of `n`.
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

    /// A seeded random schedule of observes, outcomes (with bursts of
    /// misses, so trimming predictors trim), `finish_training` calls and
    /// refits, applied alike to two twins; `after` sees them after every
    /// step, with whether it refit (or called `finish_training`). An
    /// outcome's `predicted` is the first twin's bound. Returns the first
    /// twin.
    fn drive_twins<P: QuantilePredictor>(
        make: impl Fn() -> P,
        mut after: impl FnMut(&mut [P; 2], bool, u64),
    ) -> P {
        use qdelay_rng::{Rng, StdRng};
        let mut twins = [make(), make()];
        for seed in 1..=4u64 {
            let mut ops = StdRng::seed_from_u64(seed);
            let (mut level, mut missing) = (100.0f64, false);
            for _ in 0..2_500 {
                if ops.gen_bool(0.01) {
                    level = 10.0 + 5_000.0 * ops.gen_f64();
                }
                if ops.gen_bool(0.03) {
                    missing = !missing;
                }
                let roll = ops.gen_f64();
                if roll < 0.55 {
                    let wait = (level * -ops.gen_f64_open().ln()).floor();
                    twins.iter_mut().for_each(|p| p.observe(wait));
                } else if roll < 0.85 {
                    let predicted = twins[0].current_bound().value().unwrap_or(level);
                    let actual = if missing {
                        predicted * 2.0 + 1.0
                    } else {
                        level * ops.gen_f64()
                    };
                    twins.iter_mut().for_each(|p| p.record_outcome(predicted, actual));
                } else if roll < 0.98 {
                    twins.iter_mut().for_each(|p| p.refit());
                } else {
                    twins.iter_mut().for_each(|p| p.finish_training());
                }
                after(&mut twins, roll >= 0.85, seed);
                assert_eq!(twins[0].history_len(), twins[1].history_len());
            }
        }
        let [first, _] = twins;
        first
    }

    fn bound_bits<P: QuantilePredictor>(p: &P) -> Result<u64, usize> {
        match p.current_bound() {
            BoundOutcome::Bound(v) => Ok(v.to_bits()),
            BoundOutcome::InsufficientHistory { needed } => Err(needed),
        }
    }

    /// The contract on [`QuantilePredictor::refit`], repeated refits: of two
    /// twins, one refits 0–2 extra times after every refit and
    /// `finish_training` — before the next change. Both must serve the same
    /// bound, bit for bit, after every step.
    fn assert_extra_refits_change_nothing<P: QuantilePredictor>(make: impl Fn() -> P) -> P {
        use qdelay_rng::{Rng, StdRng};
        let mut extra = StdRng::seed_from_u64(!0);
        drive_twins(make, |[plain, eager], refit, seed| {
            for _ in 0..if refit { extra.gen_range(0..3) } else { 0 } {
                eager.refit();
            }
            assert_eq!(bound_bits(plain), bound_bits(eager), "{} seed {seed}", plain.name());
        })
    }

    /// The contract on [`QuantilePredictor::refit`], skipped refits: of two
    /// twins, one refits after every step, the other only at the schedule's
    /// random refits and `finish_training` calls. At each of those, the
    /// second must serve the first's bound, bit for bit.
    fn assert_skipped_refits_change_nothing<P: QuantilePredictor>(make: impl Fn() -> P) -> P {
        drive_twins(make, |[eager, lazy], refit, seed| {
            eager.refit();
            if refit {
                assert_eq!(bound_bits(lazy), bound_bits(eager), "{} seed {seed}", eager.name());
            }
        })
    }

    /// Runs `$check` over every predictor in this crate — `Bmbp`, both
    /// log-normal configurations and the two baselines — and checks that
    /// the trimming ones trimmed.
    macro_rules! for_every_predictor {
        ($check:ident) => {{
            use lognormal::{LogNormalConfig, LogNormalPredictor};
            let p = $check(bmbp::Bmbp::with_defaults);
            assert!(p.trims() > 0, "the schedule must exercise BMBP trims");
            $check(|| LogNormalPredictor::new(LogNormalConfig::no_trim()));
            let p = $check(|| LogNormalPredictor::new(LogNormalConfig::trim()));
            assert!(p.trims() > 0, "the schedule must exercise log-normal trims");
            $check(baseline::MaxObservedPredictor::new);
            $check(|| baseline::EmpiricalQuantilePredictor::new(BoundSpec::paper_default()));
        }};
    }

    #[test]
    fn an_extra_refit_changes_nothing() {
        for_every_predictor!(assert_extra_refits_change_nothing);
    }

    #[test]
    fn a_skipped_refit_changes_nothing() {
        for_every_predictor!(assert_skipped_refits_change_nothing);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PredictError>();
    }
}
