//! The Brevik Method Batch Predictor (BMBP) — the paper's contribution.
//!
//! BMBP predicts an upper bound, at a stated confidence level, on the queue
//! wait a newly submitted job will experience, using *only* the history of
//! previously observed waits:
//!
//! 1. maintain the observed waits in sorted order;
//! 2. read the bound off an order statistic whose index comes from inverting
//!    the binomial CDF ([`crate::bound`]);
//! 3. watch for runs of consecutive incorrect predictions — a calibrated
//!    "rare event" ([`crate::changepoint`]) — and, when one occurs, trim the
//!    history to the minimum statistically meaningful length so the
//!    predictor adapts to the regime change.

use crate::bound::{self, BoundIndexCache, BoundMethod, BoundOutcome, BoundSpec};
use crate::changepoint::{calibrate_threshold, RareEventDetector, ThresholdTable};
use crate::history::HistoryBuffer;
use crate::state::{check_waits, BmbpState, DetectorState};
use crate::{PredictError, QuantilePredictor};
use qdelay_telemetry::{Counter, Gauge, LatencyHistogram, Span};

/// Wall-clock cost of BMBP refits (index lookup + order-statistic read),
/// sampled one refit in 64.
static BMBP_REFIT_NS: LatencyHistogram = LatencyHistogram::new("predict.bmbp.refit_ns");
/// Change-point trims performed across all BMBP instances.
static BMBP_TRIMS: Counter = Counter::new("predict.bmbp.trims");
/// History length immediately after the most recent trim.
static BMBP_TRIMMED_LEN: Gauge = Gauge::new("predict.bmbp.trimmed_len");

/// Configuration for a [`Bmbp`] predictor.
///
/// # Examples
///
/// ```
/// use qdelay_predict::bmbp::BmbpConfig;
/// use qdelay_predict::bound::BoundSpec;
///
/// // Paper defaults: 95/95, trimming on.
/// let cfg = BmbpConfig::default();
/// assert_eq!(cfg.spec, BoundSpec::paper_default());
/// assert!(cfg.trimming);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BmbpConfig {
    /// Target quantile and confidence level.
    pub spec: BoundSpec,
    /// Whether to trim history on detected change points (paper §4.1);
    /// disabling this gives the "no adaptation" ablation.
    pub trimming: bool,
    /// Overrides the Monte-Carlo-calibrated consecutive-miss threshold.
    pub threshold_override: Option<usize>,
    /// Hard cap on retained history (`None` = unbounded, the paper's
    /// setting).
    pub max_history: Option<usize>,
}

impl Default for BmbpConfig {
    fn default() -> Self {
        Self {
            spec: BoundSpec::paper_default(),
            trimming: true,
            threshold_override: None,
            max_history: None,
        }
    }
}

/// The BMBP predictor.
///
/// # Examples
///
/// ```
/// use qdelay_predict::bmbp::Bmbp;
/// use qdelay_predict::QuantilePredictor;
///
/// let mut p = Bmbp::with_defaults();
/// for i in 0..100 {
///     p.observe(10.0 + (i % 17) as f64);
/// }
/// p.refit();
/// let bound = p.current_bound().value().expect("100 obs > 59 minimum");
/// assert!(bound <= 26.0 && bound >= 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct Bmbp {
    config: BmbpConfig,
    history: HistoryBuffer,
    detector: RareEventDetector,
    index_cache: BoundIndexCache,
    cached: BoundOutcome,
    trims: usize,
    calibrated: bool,
    /// Sampling tick for the refit-latency span (one refit in 64 is timed;
    /// a refit is ~40 ns, so timing each would triple its cost).
    refit_tick: u32,
}

impl Bmbp {
    /// Creates a predictor from a configuration.
    pub fn new(config: BmbpConfig) -> Self {
        let history = match config.max_history {
            Some(cap) => HistoryBuffer::with_max_len(cap),
            None => HistoryBuffer::new(),
        };
        // Until training calibration runs, use the i.i.d. bucket of the
        // default table (or the override).
        let threshold = config
            .threshold_override
            .unwrap_or_else(|| ThresholdTable::default_table().threshold_for(0.0));
        let needed = config.spec.min_history_upper();
        let index_cache = BoundIndexCache::new(config.spec, BoundMethod::Exact);
        Self {
            config,
            history,
            detector: RareEventDetector::new(threshold),
            index_cache,
            cached: BoundOutcome::InsufficientHistory { needed },
            trims: 0,
            calibrated: false,
            refit_tick: 0,
        }
    }

    /// Creates a predictor with the paper's default configuration (95/95,
    /// trimming enabled).
    pub fn with_defaults() -> Self {
        Self::new(BmbpConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &BmbpConfig {
        &self.config
    }

    /// The stored history.
    pub fn history(&self) -> &HistoryBuffer {
        &self.history
    }

    /// Number of change-point trims performed so far.
    pub fn trims(&self) -> usize {
        self.trims
    }

    /// The consecutive-miss threshold currently in force.
    pub fn miss_threshold(&self) -> usize {
        self.detector.threshold()
    }

    /// Ad-hoc **upper** bound query against the current history for an
    /// arbitrary spec (used e.g. for the paper's Table 8 quantile panels).
    ///
    /// Reads the order statistic straight off the history's rank index —
    /// no sorted copy is materialized.
    pub fn upper_bound_for(&self, spec: BoundSpec) -> BoundOutcome {
        match bound::upper_index(self.history.len(), spec, BoundMethod::Exact) {
            Some(k) => BoundOutcome::Bound(
                self.history
                    .order_statistic(k)
                    .expect("index in [1, n] by construction"),
            ),
            None => BoundOutcome::InsufficientHistory {
                needed: spec.min_history_upper(),
            },
        }
    }

    /// Ad-hoc **lower** bound query against the current history.
    pub fn lower_bound_for(&self, spec: BoundSpec) -> BoundOutcome {
        match bound::lower_index(self.history.len(), spec) {
            Some(k) => BoundOutcome::Bound(
                self.history
                    .order_statistic(k)
                    .expect("index in [1, n] by construction"),
            ),
            None => BoundOutcome::InsufficientHistory {
                needed: spec.min_history_lower(),
            },
        }
    }

    /// Two-sided confidence interval for the `quantile` at overall level
    /// `confidence` (paper §3 notes the method extends to "two-sided
    /// confidence intervals, at any desired level of confidence").
    ///
    /// The confidence budget is split evenly: each side is a one-sided
    /// bound at `(1 + confidence) / 2`, so the pair covers the quantile
    /// with probability at least `confidence` by a union bound.
    ///
    /// Returns `None` if the history is too short for either side.
    ///
    /// # Panics
    ///
    /// Panics if `quantile` or `confidence` are outside `(0, 1)`.
    pub fn interval_for(&self, quantile: f64, confidence: f64) -> Option<(f64, f64)> {
        assert!(
            quantile > 0.0 && quantile < 1.0 && confidence > 0.0 && confidence < 1.0,
            "quantile and confidence must be in (0,1)"
        );
        let side = (1.0 + confidence) / 2.0;
        let spec = BoundSpec::new(quantile, side).expect("side level in (0,1)");
        let lo = self.lower_bound_for(spec).value()?;
        let hi = self.upper_bound_for(spec).value()?;
        Some((lo, hi))
    }

    /// Exports the plain serializable core of this predictor, history
    /// aside (see [`crate::state`]; the history is [`Bmbp::history`]).
    pub fn state(&self) -> BmbpState {
        BmbpState {
            quantile: self.config.spec.quantile(),
            confidence: self.config.spec.confidence(),
            trimming: self.config.trimming,
            threshold_override: self.config.threshold_override,
            max_history: self.config.max_history,
            detector: DetectorState {
                threshold: self.detector.threshold(),
                consecutive_misses: self.detector.consecutive_misses(),
                times_fired: self.detector.times_fired(),
            },
            trims: self.trims,
            calibrated: self.calibrated,
        }
    }

    /// Reconstructs a predictor from exported state and its retained
    /// `waits` (arrival order, oldest first — [`HistoryBuffer::iter`] of the
    /// exporter's [`Bmbp::history`]). The history is bulk-loaded (one sort,
    /// [`HistoryBuffer::load`]), the bound-index cache rebuilt, and the
    /// served bound refit, so the result continues bit-for-bit where the
    /// exporter stopped.
    ///
    /// # Errors
    ///
    /// Rejects states with invalid specs, detectors, waits, or more waits
    /// than `max_history` admits.
    pub fn from_state(state: &BmbpState, waits: &[f64]) -> Result<Self, PredictError> {
        let spec = BoundSpec::new(state.quantile, state.confidence)?;
        state.detector.validate()?;
        if let Some(cap) = state.max_history {
            if waits.len() > cap {
                return Err(PredictError::invalid_config(format!(
                    "{} waits exceed max_history {cap}",
                    waits.len()
                )));
            }
        }
        check_waits(waits)?;
        let mut p = Self::new(BmbpConfig {
            spec,
            trimming: state.trimming,
            threshold_override: state.threshold_override,
            max_history: state.max_history,
        });
        p.history.load(waits);
        p.detector = RareEventDetector::restore(
            state.detector.threshold,
            state.detector.consecutive_misses,
            state.detector.times_fired,
        );
        p.trims = state.trims;
        p.calibrated = state.calibrated;
        p.recompute();
        Ok(p)
    }

    fn recompute(&mut self) {
        let _span = Span::enter_sampled(&BMBP_REFIT_NS, &mut self.refit_tick, 63);
        // Index from the per-n memo (O(1) per step of n since the last
        // refit), value from the rank index (O(√n) selection) — the refit
        // never touches every stored observation.
        self.cached = match self.index_cache.upper_index(self.history.len()) {
            Some(k) => BoundOutcome::Bound(
                self.history
                    .order_statistic(k)
                    .expect("index in [1, n] by construction"),
            ),
            None => BoundOutcome::InsufficientHistory {
                needed: self.config.spec.min_history_upper(),
            },
        };
    }
}

impl QuantilePredictor for Bmbp {
    fn name(&self) -> &str {
        "bmbp"
    }

    fn spec(&self) -> BoundSpec {
        self.config.spec
    }

    fn observe(&mut self, wait: f64) {
        self.history.push(wait);
    }

    fn refit(&mut self) {
        self.recompute();
    }

    fn current_bound(&self) -> BoundOutcome {
        self.cached
    }

    fn record_outcome(&mut self, predicted: f64, actual: f64) {
        let miss = actual > predicted;
        if !miss {
            self.detector.record_hit();
            return;
        }
        if self.detector.record_miss() && self.config.trimming {
            // Change point: keep only the shortest history from which a
            // statistically meaningful bound can still be drawn (59 for the
            // paper's 95/95 spec).
            self.history
                .trim_to_recent(self.config.spec.min_history_upper());
            self.trims += 1;
            BMBP_TRIMS.incr();
            BMBP_TRIMMED_LEN.set(self.history.len() as u64);
            self.recompute();
        }
    }

    fn finish_training(&mut self) {
        if self.config.threshold_override.is_none() {
            let waits = self.history.to_arrival_vec();
            let threshold = calibrate_threshold(&waits, ThresholdTable::default_table());
            self.detector.set_threshold(threshold);
        }
        self.calibrated = true;
        self.recompute();
    }

    fn history_len(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn insufficient_until_minimum_history() {
        let mut p = Bmbp::with_defaults();
        for w in ramp(58) {
            p.observe(w);
        }
        p.refit();
        assert_eq!(
            p.current_bound(),
            BoundOutcome::InsufficientHistory { needed: 59 }
        );
        p.observe(58.0);
        p.refit();
        assert_eq!(p.current_bound(), BoundOutcome::Bound(58.0));
    }

    #[test]
    fn refit_controls_visibility() {
        // Observations must not change the served prediction until refit —
        // the paper's epoch semantics (section 5.1, case 3).
        let mut p = Bmbp::with_defaults();
        for w in ramp(100) {
            p.observe(w);
        }
        p.refit();
        let before = p.current_bound();
        for _ in 0..50 {
            p.observe(1_000_000.0);
        }
        assert_eq!(p.current_bound(), before, "stale until refit");
        p.refit();
        assert_ne!(p.current_bound(), before);
    }

    #[test]
    fn trims_after_consecutive_misses() {
        let mut p = Bmbp::new(BmbpConfig {
            threshold_override: Some(3),
            ..BmbpConfig::default()
        });
        for w in ramp(200) {
            p.observe(w);
        }
        p.refit();
        let bound = p.current_bound().value().unwrap();
        // Three consecutive misses trigger a trim to 59.
        p.record_outcome(bound, bound + 1.0);
        p.record_outcome(bound, bound + 1.0);
        assert_eq!(p.history_len(), 200);
        p.record_outcome(bound, bound + 1.0);
        assert_eq!(p.trims(), 1);
        assert_eq!(p.history_len(), 59);
        // After the trim the bound reflects only recent (larger) values.
        assert_eq!(p.current_bound(), BoundOutcome::Bound(199.0));
    }

    #[test]
    fn hits_break_runs() {
        let mut p = Bmbp::new(BmbpConfig {
            threshold_override: Some(3),
            ..BmbpConfig::default()
        });
        for w in ramp(100) {
            p.observe(w);
        }
        p.refit();
        let b = p.current_bound().value().unwrap();
        p.record_outcome(b, b + 1.0);
        p.record_outcome(b, b + 1.0);
        p.record_outcome(b, b - 1.0); // hit
        p.record_outcome(b, b + 1.0);
        p.record_outcome(b, b + 1.0);
        assert_eq!(p.trims(), 0, "run was broken by the hit");
    }

    #[test]
    fn trimming_disabled_never_trims() {
        let mut p = Bmbp::new(BmbpConfig {
            trimming: false,
            threshold_override: Some(2),
            ..BmbpConfig::default()
        });
        for w in ramp(100) {
            p.observe(w);
        }
        p.refit();
        let b = p.current_bound().value().unwrap();
        for _ in 0..10 {
            p.record_outcome(b, b + 1.0);
        }
        assert_eq!(p.trims(), 0);
        assert_eq!(p.history_len(), 100);
    }

    #[test]
    fn training_calibration_sets_threshold() {
        let mut p = Bmbp::with_defaults();
        // Strongly autocorrelated training data.
        for i in 0..500 {
            p.observe(100.0 * (1.0 + (i as f64 / 60.0).sin()));
        }
        p.finish_training();
        assert!(p.miss_threshold() > 3, "threshold = {}", p.miss_threshold());
    }

    #[test]
    fn lower_and_upper_ad_hoc_queries() {
        let mut p = Bmbp::with_defaults();
        for w in ramp(1000) {
            p.observe(w);
        }
        let spec25 = BoundSpec::new(0.25, 0.95).unwrap();
        let spec95 = BoundSpec::paper_default();
        let lo = p.lower_bound_for(spec25).value().unwrap();
        let hi = p.upper_bound_for(spec95).value().unwrap();
        assert!(lo < 250.0, "lower bound on .25 quantile sits below it");
        assert!(hi > 950.0, "upper bound on .95 quantile sits above it");
    }

    #[test]
    fn two_sided_interval_straddles_quantile() {
        let mut p = Bmbp::with_defaults();
        for w in ramp(2000) {
            p.observe(w);
        }
        let (lo, hi) = p.interval_for(0.5, 0.95).expect("plenty of history");
        // Sample median of 0..2000 is ~1000.
        assert!(lo < 1000.0 && 1000.0 < hi, "interval ({lo}, {hi})");
        // A wider confidence level gives a wider interval.
        let (lo99, hi99) = p.interval_for(0.5, 0.99).unwrap();
        assert!(lo99 <= lo && hi99 >= hi);
    }

    #[test]
    fn two_sided_interval_needs_history() {
        let mut p = Bmbp::with_defaults();
        for w in ramp(20) {
            p.observe(w);
        }
        assert_eq!(p.interval_for(0.95, 0.95), None);
    }

    #[test]
    #[should_panic(expected = "must be in (0,1)")]
    fn two_sided_interval_validates() {
        Bmbp::with_defaults().interval_for(1.0, 0.95);
    }

    #[test]
    fn max_history_caps_growth() {
        let mut p = Bmbp::new(BmbpConfig {
            max_history: Some(80),
            ..BmbpConfig::default()
        });
        for w in ramp(500) {
            p.observe(w);
        }
        assert_eq!(p.history_len(), 80);
    }

    #[test]
    fn coverage_on_iid_data() {
        // On stationary data the 95/95 bound must cover at least ~95% of
        // subsequent draws. Deterministic scramble as the data source.
        let data: Vec<f64> = (0..4000)
            .map(|i| ((i as u64).wrapping_mul(2_654_435_761) % 10_000) as f64)
            .collect();
        let mut p = Bmbp::with_defaults();
        let mut hits = 0usize;
        let mut total = 0usize;
        for (i, &w) in data.iter().enumerate() {
            if i >= 400 {
                p.refit();
                if let Some(b) = p.current_bound().value() {
                    total += 1;
                    if w <= b {
                        hits += 1;
                    }
                }
            }
            p.observe(w);
        }
        let frac = hits as f64 / total as f64;
        assert!(frac >= 0.95, "coverage {frac} < 0.95");
        // And not absurdly conservative on uniform data.
        assert!(frac <= 0.995, "coverage {frac} suspiciously high");
    }
}
