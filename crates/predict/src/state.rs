//! Serializable predictor state — the warm-restart surface.
//!
//! A predictor's observable behavior is a pure function of a small plain
//! core: its configuration, the arrival-order wait history, the change-point
//! detector's run state, and (for the log-normal method) the exact running
//! log-moment accumulators. Everything else it holds — the sorted
//! [`crate::rank_index::RankIndex`], the
//! [`crate::bound::BoundIndexCache`], the memoized K-factors — is a cache
//! derived from that core, deterministically regenerable on load.
//!
//! This module defines that core as plain structs ([`BmbpState`],
//! [`LogNormalState`]) with a stable JSON encoding, produced by
//! [`crate::bmbp::Bmbp::state`] /
//! [`crate::lognormal::LogNormalPredictor::state`] and consumed by the
//! matching `from_state` constructors. Two guarantees make it a *warm
//! restart* rather than a best-effort import:
//!
//! * **Byte-identical continuation** — a restored predictor fed the same
//!   subsequent events emits bit-for-bit the same bounds as the original
//!   would have. For BMBP this follows from multiset equality of the
//!   history; for the log-normal method the Kahan accumulator state is
//!   carried verbatim (a rebuild from the waits could differ in the last
//!   ulp), and `qdelay-json` prints floats shortest-round-trip so the JSON
//!   leg is lossless.
//! * **Caches invalidated on load** — bound indices and K-factors are
//!   recomputed, never trusted from the snapshot, so a state produced by an
//!   older build with different cache internals still restores correctly.
//!
//! Consumers: `qdelay-serve` snapshots (every partition's pair of
//! predictors).

use crate::bound::BoundMethod;
use crate::PredictError;
use qdelay_json::Json;

/// Snapshot-format version stamped into every serialized state.
pub const STATE_VERSION: u64 = 1;

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

/// The plain core of a [`crate::bmbp::Bmbp`] predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct BmbpState {
    /// Target quantile `q`.
    pub quantile: f64,
    /// Confidence level `C`.
    pub confidence: f64,
    /// Index computation method.
    pub method: BoundMethod,
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
    /// The retained waits, in arrival order (oldest first).
    pub waits: Vec<f64>,
}

/// Exact Kahan-compensated log-moment accumulators of a
/// [`crate::lognormal::LogNormalPredictor`]. `n` is implied by the wait
/// list's length.
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
    /// Single-wait removals since the last full rebuild. The log-normal
    /// history is uncapped, so nothing is ever removed that way: exported
    /// as 0 and ignored on load, kept so existing documents decode.
    pub removals: usize,
}

/// The plain core of a [`crate::lognormal::LogNormalPredictor`].
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
    /// The retained waits, in arrival order (oldest first).
    pub waits: Vec<f64>,
}

fn method_name(method: BoundMethod) -> &'static str {
    match method {
        BoundMethod::Auto => "auto",
        BoundMethod::Exact => "exact",
        BoundMethod::Approx => "approx",
    }
}

fn method_from_name(name: &str) -> Result<BoundMethod, PredictError> {
    match name {
        "auto" => Ok(BoundMethod::Auto),
        "exact" => Ok(BoundMethod::Exact),
        "approx" => Ok(BoundMethod::Approx),
        other => Err(PredictError::invalid_config(format!(
            "unknown bound method '{other}'"
        ))),
    }
}

fn opt_usize_json(v: Option<usize>) -> Json {
    match v {
        Some(x) => Json::Num(x as f64),
        None => Json::Null,
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, PredictError> {
    obj.get(key)
        .ok_or_else(|| PredictError::invalid_config(format!("state missing field '{key}'")))
}

fn f64_field(obj: &Json, key: &str) -> Result<f64, PredictError> {
    field(obj, key)?
        .as_f64()
        .ok_or_else(|| PredictError::invalid_config(format!("field '{key}' must be a number")))
}

fn usize_field(obj: &Json, key: &str) -> Result<usize, PredictError> {
    field(obj, key)?.as_usize().ok_or_else(|| {
        PredictError::invalid_config(format!("field '{key}' must be a non-negative integer"))
    })
}

fn opt_usize_field(obj: &Json, key: &str) -> Result<Option<usize>, PredictError> {
    match field(obj, key)? {
        Json::Null => Ok(None),
        v => v.as_usize().map(Some).ok_or_else(|| {
            PredictError::invalid_config(format!("field '{key}' must be null or an integer"))
        }),
    }
}

fn bool_field(obj: &Json, key: &str) -> Result<bool, PredictError> {
    match field(obj, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(PredictError::invalid_config(format!(
            "field '{key}' must be a boolean"
        ))),
    }
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, PredictError> {
    field(obj, key)?
        .as_str()
        .ok_or_else(|| PredictError::invalid_config(format!("field '{key}' must be a string")))
}

fn waits_field(obj: &Json) -> Result<Vec<f64>, PredictError> {
    let arr = field(obj, "waits")?
        .as_array()
        .ok_or_else(|| PredictError::invalid_config("field 'waits' must be an array"))?;
    arr.iter()
        .map(|v| {
            let w = v
                .as_f64()
                .ok_or_else(|| PredictError::invalid_config("waits must be numbers"))?;
            if w.is_finite() && w >= 0.0 {
                Ok(w)
            } else {
                Err(PredictError::invalid_config(format!(
                    "waits must be finite and non-negative, got {w}"
                )))
            }
        })
        .collect()
}

fn check_version(obj: &Json, expected_kind: &str) -> Result<(), PredictError> {
    let version = usize_field(obj, "version")?;
    if version as u64 != STATE_VERSION {
        return Err(PredictError::invalid_config(format!(
            "unsupported state version {version} (this build reads {STATE_VERSION})"
        )));
    }
    let kind = str_field(obj, "kind")?;
    if kind != expected_kind {
        return Err(PredictError::invalid_config(format!(
            "state kind '{kind}' where '{expected_kind}' was expected"
        )));
    }
    Ok(())
}

impl DetectorState {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("threshold".into(), Json::Num(self.threshold as f64)),
            (
                "consecutive_misses".into(),
                Json::Num(self.consecutive_misses as f64),
            ),
            ("times_fired".into(), Json::Num(self.times_fired as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, PredictError> {
        let state = Self {
            threshold: usize_field(v, "threshold")?,
            consecutive_misses: usize_field(v, "consecutive_misses")?,
            times_fired: usize_field(v, "times_fired")?,
        };
        state.validate()?;
        Ok(state)
    }

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

impl BmbpState {
    /// Serializes to the stable versioned JSON encoding.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("version".into(), Json::Num(STATE_VERSION as f64)),
            ("kind".into(), Json::Str("bmbp".into())),
            ("quantile".into(), Json::Num(self.quantile)),
            ("confidence".into(), Json::Num(self.confidence)),
            ("method".into(), Json::Str(method_name(self.method).into())),
            ("trimming".into(), Json::Bool(self.trimming)),
            (
                "threshold_override".into(),
                opt_usize_json(self.threshold_override),
            ),
            ("max_history".into(), opt_usize_json(self.max_history)),
            ("detector".into(), self.detector.to_json()),
            ("trims".into(), Json::Num(self.trims as f64)),
            ("calibrated".into(), Json::Bool(self.calibrated)),
            (
                "waits".into(),
                Json::Arr(self.waits.iter().map(|&w| Json::Num(w)).collect()),
            ),
        ])
    }

    /// Decodes from JSON, validating every field.
    ///
    /// # Errors
    ///
    /// [`PredictError`] naming the first missing, mistyped, or out-of-range
    /// field.
    pub fn from_json(v: &Json) -> Result<Self, PredictError> {
        check_version(v, "bmbp")?;
        Ok(Self {
            quantile: f64_field(v, "quantile")?,
            confidence: f64_field(v, "confidence")?,
            method: method_from_name(str_field(v, "method")?)?,
            trimming: bool_field(v, "trimming")?,
            threshold_override: opt_usize_field(v, "threshold_override")?,
            max_history: opt_usize_field(v, "max_history")?,
            detector: DetectorState::from_json(field(v, "detector")?)?,
            trims: usize_field(v, "trims")?,
            calibrated: bool_field(v, "calibrated")?,
            waits: waits_field(v)?,
        })
    }
}

impl MomentsState {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("sum".into(), Json::Num(self.sum)),
            ("sum_comp".into(), Json::Num(self.sum_comp)),
            ("sum_sq".into(), Json::Num(self.sum_sq)),
            ("sum_sq_comp".into(), Json::Num(self.sum_sq_comp)),
            ("removals".into(), Json::Num(self.removals as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, PredictError> {
        Ok(Self {
            sum: f64_field(v, "sum")?,
            sum_comp: f64_field(v, "sum_comp")?,
            sum_sq: f64_field(v, "sum_sq")?,
            sum_sq_comp: f64_field(v, "sum_sq_comp")?,
            removals: usize_field(v, "removals")?,
        })
    }
}

impl LogNormalState {
    /// Serializes to the stable versioned JSON encoding.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("version".into(), Json::Num(STATE_VERSION as f64)),
            ("kind".into(), Json::Str("lognormal".into())),
            ("quantile".into(), Json::Num(self.quantile)),
            ("confidence".into(), Json::Num(self.confidence)),
            ("trimming".into(), Json::Bool(self.trimming)),
            (
                "threshold_override".into(),
                opt_usize_json(self.threshold_override),
            ),
            ("detector".into(), self.detector.to_json()),
            ("trims".into(), Json::Num(self.trims as f64)),
            ("moments".into(), self.moments.to_json()),
            (
                "waits".into(),
                Json::Arr(self.waits.iter().map(|&w| Json::Num(w)).collect()),
            ),
        ])
    }

    /// Decodes from JSON, validating every field.
    ///
    /// # Errors
    ///
    /// [`PredictError`] naming the first missing, mistyped, or out-of-range
    /// field.
    pub fn from_json(v: &Json) -> Result<Self, PredictError> {
        check_version(v, "lognormal")?;
        Ok(Self {
            quantile: f64_field(v, "quantile")?,
            confidence: f64_field(v, "confidence")?,
            trimming: bool_field(v, "trimming")?,
            threshold_override: opt_usize_field(v, "threshold_override")?,
            detector: DetectorState::from_json(field(v, "detector")?)?,
            trims: usize_field(v, "trims")?,
            moments: MomentsState::from_json(field(v, "moments")?)?,
            waits: waits_field(v)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

        // Export -> JSON text -> parse -> restore.
        let text = original.state().to_json().to_string_pretty();
        let restored_state = BmbpState::from_json(&qdelay_json::Json::parse(&text).unwrap())
            .expect("state decodes");
        assert_eq!(restored_state, original.state());
        let mut restored = Bmbp::from_state(&restored_state).expect("state restores");

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

        let text = original.state().to_json().to_string_pretty();
        let restored_state =
            LogNormalState::from_json(&qdelay_json::Json::parse(&text).unwrap())
                .expect("state decodes");
        assert_eq!(restored_state, original.state());
        let mut restored = LogNormalPredictor::from_state(&restored_state).expect("restores");

        // The log-normal bound is a function of the *exact* accumulator
        // bits, so this also proves the Kahan state survived the JSON leg.
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
        let restored = Bmbp::from_state(&original.state()).unwrap();
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
        let restored = LogNormalPredictor::from_state(&original.state()).unwrap();
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
        let restored = Bmbp::from_state(&p.state()).unwrap();
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
        assert!(Bmbp::from_state(&bad_spec).is_err());

        let mut bad_detector = good.clone();
        bad_detector.detector.threshold = 0;
        assert!(Bmbp::from_state(&bad_detector).is_err());

        let mut bad_run = good.clone();
        bad_run.detector.consecutive_misses = bad_run.detector.threshold;
        assert!(Bmbp::from_state(&bad_run).is_err());

        let mut bad_wait = good.clone();
        bad_wait.waits = vec![-1.0];
        assert!(Bmbp::from_state(&bad_wait).is_err());

        let mut overfull = good.clone();
        overfull.max_history = Some(2);
        overfull.waits = vec![1.0, 2.0, 3.0];
        assert!(Bmbp::from_state(&overfull).is_err());
    }

    #[test]
    fn json_decode_rejects_wrong_kind_and_version() {
        let bmbp_json = Bmbp::with_defaults().state().to_json();
        assert!(LogNormalState::from_json(&bmbp_json).is_err(), "kind mismatch");
        let lognormal_json = LogNormalPredictor::new(LogNormalConfig::no_trim())
            .state()
            .to_json();
        assert!(BmbpState::from_json(&lognormal_json).is_err(), "kind mismatch");

        let mut members = match bmbp_json {
            Json::Obj(m) => m,
            _ => unreachable!(),
        };
        members[0].1 = Json::Num(999.0); // version
        assert!(BmbpState::from_json(&Json::Obj(members)).is_err());

        assert!(BmbpState::from_json(&Json::Null).is_err());
        assert!(BmbpState::from_json(&Json::Obj(vec![])).is_err());
    }

    #[test]
    fn method_names_round_trip() {
        for m in [BoundMethod::Auto, BoundMethod::Exact, BoundMethod::Approx] {
            assert_eq!(method_from_name(method_name(m)).unwrap(), m);
        }
        assert!(method_from_name("clt").is_err());
    }
}
