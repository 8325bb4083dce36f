//! Predictor state — the warm-restart surface.
//!
//! A predictor's observable behavior is a pure function of a small plain
//! core: its configuration, the arrival-order wait history, the change-point
//! detector's run state, and (for the log-normal method) the exact running
//! log-moment accumulators. Everything else it holds — the sorted
//! [`crate::rank_index::RankIndex`], the
//! [`crate::bound::BoundIndexCache`], the memoized K-factors — is a cache
//! derived from that core, deterministically regenerable on load.
//!
//! This module defines that core, minus the history, as plain structs
//! ([`BmbpState`], [`LogNormalState`]), produced by
//! [`crate::bmbp::Bmbp::state`] /
//! [`crate::lognormal::LogNormalPredictor::state`] and consumed, together
//! with the retained waits, by the matching `from_state` constructors. The
//! history travels separately because both predictors of a partition see
//! every wait and drop only the oldest ones: their two histories are
//! suffixes of one arrival sequence, which a container stores once. Two
//! guarantees make it a *warm restart* rather than a best-effort import:
//!
//! * **Byte-identical continuation** — a restored predictor fed the same
//!   subsequent events emits bit-for-bit the same bounds as the original
//!   would have. For BMBP this follows from multiset equality of the
//!   history; for the log-normal method the Kahan accumulator state is
//!   carried verbatim (a rebuild from the waits could differ in the last
//!   ulp).
//! * **Caches invalidated on load** — bound indices and K-factors are
//!   recomputed, never trusted from the state, so a state produced by an
//!   older build with different cache internals still restores correctly.
//!
//! Consumers: `qdelay-serve`'s partition formats (its `snapshot` module owns
//! both encodings — the snapshot document and the binary spill record — of
//! every partition's pair of predictors and their one shared history).

use crate::PredictError;

/// Run state of a [`crate::changepoint::RareEventDetector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorState {
    /// Consecutive-miss threshold currently in force.
    pub threshold: usize,
    /// Length of the current miss run (always `< threshold`).
    pub consecutive_misses: usize,
    /// How many times the detector has fired.
    pub times_fired: usize,
}

/// The plain core of a [`crate::bmbp::Bmbp`] predictor, history aside.
#[derive(Debug, Clone, PartialEq)]
pub struct BmbpState {
    /// Target quantile `q`.
    pub quantile: f64,
    /// Confidence level `C`.
    pub confidence: f64,
    /// Whether change-point trimming is enabled.
    pub trimming: bool,
    /// Configured threshold override, if any.
    pub threshold_override: Option<usize>,
    /// Configured history cap, if any.
    pub max_history: Option<usize>,
    /// Change-point detector run state.
    pub detector: DetectorState,
    /// Trims performed so far.
    pub trims: usize,
    /// Whether training calibration has run.
    pub calibrated: bool,
}

/// Exact Kahan-compensated log-moment accumulators of a
/// [`crate::lognormal::LogNormalPredictor`]. `n` is implied by the length
/// of the history they summarize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MomentsState {
    /// Running sum of `ln(w + 1)`.
    pub sum: f64,
    /// Kahan compensation for `sum`.
    pub sum_comp: f64,
    /// Running sum of `ln(w + 1)^2`.
    pub sum_sq: f64,
    /// Kahan compensation for `sum_sq`.
    pub sum_sq_comp: f64,
}

/// The plain core of a [`crate::lognormal::LogNormalPredictor`], history
/// aside.
#[derive(Debug, Clone, PartialEq)]
pub struct LogNormalState {
    /// Target quantile `q`.
    pub quantile: f64,
    /// Confidence level `C`.
    pub confidence: f64,
    /// Whether change-point trimming is enabled.
    pub trimming: bool,
    /// Configured threshold override, if any.
    pub threshold_override: Option<usize>,
    /// Change-point detector run state.
    pub detector: DetectorState,
    /// Trims performed so far.
    pub trims: usize,
    /// Exact accumulator state (carried verbatim for bit-identical
    /// continuation).
    pub moments: MomentsState,
}

impl DetectorState {
    /// Checks the invariants a live detector keeps: a positive threshold
    /// and a run strictly below it. Every decoder of this state calls it.
    ///
    /// # Errors
    ///
    /// [`PredictError`] naming the broken invariant.
    pub fn validate(&self) -> Result<(), PredictError> {
        if self.threshold == 0 {
            return Err(PredictError::invalid_config(
                "detector threshold must be positive",
            ));
        }
        if self.consecutive_misses >= self.threshold {
            return Err(PredictError::invalid_config(format!(
                "detector run {} must be below threshold {}",
                self.consecutive_misses, self.threshold
            )));
        }
        Ok(())
    }
}

/// Rejects a history holding a wait no predictor admits: the check both
/// `from_state` constructors make before loading.
pub(crate) fn check_waits(waits: &[f64]) -> Result<(), PredictError> {
    match waits.iter().find(|w| !(w.is_finite() && **w >= 0.0)) {
        Some(w) => Err(PredictError::invalid_config(format!(
            "waits must be finite and non-negative, got {w}"
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use crate::bmbp::{Bmbp, BmbpConfig};
    use crate::lognormal::{LogNormalConfig, LogNormalPredictor};
    use crate::QuantilePredictor;

    /// Deterministic nonstationary wait stream: a calm regime, a jolt, a
    /// second calm regime — enough to exercise trims on both methods.
    fn wait(i: u64) -> f64 {
        let base = (i.wrapping_mul(2_654_435_761) % 10_000) as f64;
        if (600..700).contains(&i) {
            base * 50.0 + 500_000.0
        } else {
            base
        }
    }

    /// Drives a predictor exactly as the serve loop would: observe,
    /// periodically refit, feed outcomes back. Returns served bounds.
    fn drive<P: QuantilePredictor>(p: &mut P, range: std::ops::Range<u64>) -> Vec<Option<f64>> {
        let mut bounds = Vec::new();
        for i in range {
            if i % 7 == 0 {
                p.refit();
            }
            if let Some(b) = p.current_bound().value() {
                p.record_outcome(b, wait(i));
            }
            p.observe(wait(i));
            if i % 3 == 0 {
                p.refit();
                bounds.push(p.current_bound().value());
            }
        }
        bounds
    }

    fn bmbp_waits(p: &Bmbp) -> Vec<f64> {
        p.history().iter().collect()
    }

    fn lognormal_waits(p: &LogNormalPredictor) -> Vec<f64> {
        p.waits().collect()
    }

    fn assert_bits_eq(a: &[Option<f64>], b: &[Option<f64>], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.map(f64::to_bits),
                y.map(f64::to_bits),
                "{what}: bound #{i} diverged ({x:?} vs {y:?})"
            );
        }
    }

    #[test]
    fn bmbp_round_trip_is_byte_identical_on_replayed_trace() {
        let mut original = Bmbp::new(BmbpConfig {
            threshold_override: Some(3),
            ..BmbpConfig::default()
        });
        drive(&mut original, 0..900);
        assert!(original.trims() > 0, "jolt must have caused a trim");

        let mut restored =
            Bmbp::from_state(&original.state(), &bmbp_waits(&original)).expect("state restores");
        assert_eq!(restored.state(), original.state());

        // Identical remainder -> bit-identical bounds.
        let a = drive(&mut original, 900..1600);
        let b = drive(&mut restored, 900..1600);
        assert_bits_eq(&a, &b, "bmbp");
        assert_eq!(original.trims(), restored.trims());
        assert_eq!(original.history_len(), restored.history_len());
    }

    #[test]
    fn lognormal_round_trip_is_byte_identical_on_replayed_trace() {
        let mut original = LogNormalPredictor::new(LogNormalConfig {
            threshold_override: Some(3),
            ..LogNormalConfig::trim()
        });
        drive(&mut original, 0..900);
        assert!(original.trims() > 0, "jolt must have caused a trim");

        let mut restored =
            LogNormalPredictor::from_state(&original.state(), &lognormal_waits(&original))
                .expect("restores");
        assert_eq!(restored.state(), original.state());

        // The log-normal bound is a function of the *exact* accumulator
        // bits, so this also proves the Kahan state was carried verbatim.
        let a = drive(&mut original, 900..1600);
        let b = drive(&mut restored, 900..1600);
        assert_bits_eq(&a, &b, "lognormal");
    }

    #[test]
    fn bmbp_capped_history_round_trips() {
        let mut original = Bmbp::new(BmbpConfig {
            max_history: Some(150),
            ..BmbpConfig::default()
        });
        drive(&mut original, 0..500);
        assert_eq!(original.history_len(), 150);
        let restored = Bmbp::from_state(&original.state(), &bmbp_waits(&original)).unwrap();
        assert_eq!(restored.history_len(), 150);
        assert_eq!(restored.config(), original.config());
        let mut a = original;
        let mut b = restored;
        assert_bits_eq(&drive(&mut a, 500..800), &drive(&mut b, 500..800), "capped");
    }

    #[test]
    fn lognormal_eviction_free_state_matches_fresh_rebuild_semantics() {
        // With no evictions the carried accumulators equal a from-scratch
        // feed, so restoring must equal simply replaying the waits.
        let mut original = LogNormalPredictor::new(LogNormalConfig::no_trim());
        for i in 0..300 {
            original.observe(wait(i));
        }
        original.refit();
        let restored =
            LogNormalPredictor::from_state(&original.state(), &lognormal_waits(&original))
                .unwrap();
        let mut replayed = LogNormalPredictor::new(LogNormalConfig::no_trim());
        for i in 0..300 {
            replayed.observe(wait(i));
        }
        replayed.refit();
        assert_eq!(
            restored.current_bound().value().map(f64::to_bits),
            replayed.current_bound().value().map(f64::to_bits)
        );
    }

    #[test]
    fn restored_predictor_refits_on_load() {
        // The snapshot carries history, not the served bound: restore must
        // serve the refit bound even if the original had stale observes.
        let mut p = Bmbp::with_defaults();
        for i in 0..100 {
            p.observe(wait(i));
        }
        p.refit();
        for i in 100..160 {
            p.observe(wait(i)); // not yet refit in the original
        }
        let restored = Bmbp::from_state(&p.state(), &bmbp_waits(&p)).unwrap();
        p.refit();
        assert_eq!(
            restored.current_bound().value().map(f64::to_bits),
            p.current_bound().value().map(f64::to_bits)
        );
    }

    #[test]
    fn invalid_states_are_rejected() {
        let good = Bmbp::with_defaults().state();

        let mut bad_spec = good.clone();
        bad_spec.quantile = 1.5;
        assert!(Bmbp::from_state(&bad_spec, &[]).is_err());

        let mut bad_detector = good.clone();
        bad_detector.detector.threshold = 0;
        assert!(Bmbp::from_state(&bad_detector, &[]).is_err());

        let mut bad_run = good.clone();
        bad_run.detector.consecutive_misses = bad_run.detector.threshold;
        assert!(Bmbp::from_state(&bad_run, &[]).is_err());

        for bad_wait in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(Bmbp::from_state(&good, &[1.0, bad_wait]).is_err());
            let logn = LogNormalPredictor::new(LogNormalConfig::trim()).state();
            assert!(LogNormalPredictor::from_state(&logn, &[bad_wait, 1.0]).is_err());
        }

        let mut overfull = good.clone();
        overfull.max_history = Some(2);
        assert!(Bmbp::from_state(&overfull, &[1.0, 2.0, 3.0]).is_err());
        assert!(Bmbp::from_state(&overfull, &[2.0, 3.0]).is_ok());
    }
}
