//! The log-normal comparator method (paper §4.2).
//!
//! Fits a normal distribution to `ln(wait + 1)` by maximum likelihood and
//! produces the level-`C` upper confidence bound on the `q` quantile via a
//! one-sided normal tolerance bound `m + K' * s` (Guttman's K', which
//! [`qdelay_stats::tolerance`] ships as a committed table for the paper's
//! 95/95 spec and computes exactly for any other). Two variants, matching the
//! paper's evaluation columns:
//!
//! * **NoTrim** — fits the entire observed history every refit;
//! * **Trim** — applies BMBP's change-point history-trimming strategy on
//!   top of the log-normal model.
//!
//! The `+ 1` shift admits the zero-second waits that are common in
//! interactive queues (Table 1 shows queue medians of 1 second); the bound
//! is shifted back by `- 1` on output.
//!
//! The fit reads only the running log-moments, never an order statistic,
//! so the model keeps no copy of the history at all: the waits live in an
//! arrival-order log its owner keeps (for trimming, calibration and state
//! export), with no sorted view to maintain.

use crate::bound::{BoundOutcome, BoundSpec};
use crate::changepoint::{calibrate_threshold, RareEventDetector, ThresholdTable};
use crate::history::{newest, push_retaining, retain_newest};
use crate::state::{check_waits, DetectorState, LogNormalState, MomentsState};
use crate::{PredictError, QuantilePredictor};
use qdelay_stats::tolerance::KFactorCache;
use qdelay_stats::DistributionError;
use qdelay_telemetry::{Counter, LatencyHistogram, Span};
use std::collections::VecDeque;

/// Wall-clock cost of log-normal refits (moments read + K lookup), sampled
/// one refit in 64.
static LOGN_REFIT_NS: LatencyHistogram = LatencyHistogram::new("predict.lognormal.refit_ns");
/// Change-point trims performed across all log-normal instances.
static LOGN_TRIMS: Counter = Counter::new("predict.lognormal.trims");
/// Refits that reused the K-factor memoized for the current `(n, q, C)`.
static KFACTOR_HIT: Counter = Counter::new("predict.lognormal.kfactor.hit");
/// Refits whose `n` changed since the last K lookup (memo bypassed).
static KFACTOR_MISS: Counter = Counter::new("predict.lognormal.kfactor.miss");
/// Exact K-factor tables this process computed: one warm-started walk of
/// ~100 noncentral-t root-finds each. Adopting the committed 95/95 table,
/// or one another predictor's cache already computed, counts nothing — so
/// a process serving only the paper's spec reads 0, and any other spec
/// counts 1 however many predictors or refits replay (pinned in
/// `tests/kfactor_prefill.rs`).
static KFACTOR_ROOTFIND: Counter = Counter::new("predict.lognormal.kfactor.rootfind");
/// Wall-clock cost of K-factor lookups that missed the per-`n` memo, timed
/// only on refits whose `predict.lognormal.refit_ns` span is sampled: the
/// lookup is ~8 ns, so two clock reads on every miss would cost more than
/// it does.
static KFACTOR_NS: LatencyHistogram = LatencyHistogram::new("predict.lognormal.kfactor_ns");

/// Configuration for [`LogNormalPredictor`].
#[derive(Debug, Clone, PartialEq)]
pub struct LogNormalConfig {
    /// Target quantile and confidence level.
    pub spec: BoundSpec,
    /// Whether to apply BMBP-style change-point trimming.
    pub trimming: bool,
    /// Overrides the calibrated consecutive-miss threshold (only meaningful
    /// with `trimming`).
    pub threshold_override: Option<usize>,
}

impl LogNormalConfig {
    /// The paper's "logn NoTrim" column: full history, no adaptation.
    pub fn no_trim() -> Self {
        Self {
            spec: BoundSpec::paper_default(),
            trimming: false,
            threshold_override: None,
        }
    }

    /// The paper's "logn Trim" column: log-normal model with BMBP's
    /// history-trimming.
    pub fn trim() -> Self {
        Self {
            spec: BoundSpec::paper_default(),
            trimming: true,
            threshold_override: None,
        }
    }
}

/// Running Kahan-compensated sums of `ln(w + 1)` and its square, so the MLE
/// refit is O(1) instead of an O(n) pass over the history.
///
/// Waits are only ever added: the history is uncapped, so a wait leaves it
/// only through a change-point trim, which rebuilds the sums from the
/// survivors.
#[derive(Debug, Clone, Default)]
struct LogMoments {
    n: usize,
    sum: f64,
    sum_comp: f64,
    sum_sq: f64,
    sum_sq_comp: f64,
}

impl LogMoments {
    fn kahan_add(sum: &mut f64, comp: &mut f64, x: f64) {
        let y = x - *comp;
        let t = *sum + y;
        *comp = (t - *sum) - y;
        *sum = t;
    }

    /// Accounts for a new wait observation.
    fn add_wait(&mut self, wait: f64) {
        let l = (wait + 1.0).ln();
        Self::kahan_add(&mut self.sum, &mut self.sum_comp, l);
        Self::kahan_add(&mut self.sum_sq, &mut self.sum_sq_comp, l * l);
        self.n += 1;
    }

    /// Recomputes the sums from scratch (after a trim).
    fn rebuild<I: IntoIterator<Item = f64>>(&mut self, waits: I) {
        *self = Self::default();
        for w in waits {
            self.add_wait(w);
        }
    }

    /// Mean of the stored `ln(w + 1)` values.
    fn mean(&self) -> f64 {
        self.sum / self.n as f64
    }

    /// Sample standard deviation of the stored `ln(w + 1)` values.
    ///
    /// Returns 0 for degenerate (near-constant) samples: the one-pass
    /// variance cancels catastrophically there, so anything below a relative
    /// threshold is treated as exactly zero — matching the two-pass
    /// formula's behavior on constant data.
    fn sample_std(&self) -> f64 {
        debug_assert!(self.n >= 2);
        let nf = self.n as f64;
        let var = ((self.sum_sq - self.sum * self.sum / nf) / (nf - 1.0)).max(0.0);
        let scale = self.sum_sq / nf; // mean square, >= var for centered data
        if var <= 1e-12 * scale.max(f64::MIN_POSITIVE) {
            0.0
        } else {
            var.sqrt()
        }
    }
}

/// The log-normal method without its arrival log: the running
/// log-moments of the retained waits, the change-point detector and the
/// served bound.
///
/// The retained waits are the newest [`len`](Self::len) of an arrival log
/// the caller owns (see [`crate::bmbp::BmbpModel`], whose log a serve
/// partition shares); only a trim and calibration read it.
#[derive(Debug, Clone)]
pub struct LogNormalModel {
    config: LogNormalConfig,
    detector: RareEventDetector,
    kcache: KFactorCache,
    /// Last `(n, k)` pair served: the spec `(q, C)` is fixed per predictor,
    /// so the K-factor is a pure function of `n` — epoch refits that arrive
    /// with unchanged history skip even the `KFactorCache` lookup.
    klast: Option<(usize, f64)>,
    /// The moments of the retained waits; their count is the history's
    /// length.
    moments: LogMoments,
    cached: BoundOutcome,
    trims: usize,
    /// Sampling tick for the refit-latency span (one refit in 64 is timed).
    refit_tick: u32,
}

/// Minimum history for a log-normal fit (mean and sd need two points).
const MIN_FIT: usize = 2;

impl LogNormalModel {
    /// Creates a model from a configuration.
    ///
    /// # Panics
    ///
    /// Never panics for specs produced by [`BoundSpec::new`]; the K-factor
    /// cache construction re-validates the same invariants.
    pub fn new(config: LogNormalConfig) -> Self {
        let threshold = config
            .threshold_override
            .unwrap_or_else(|| ThresholdTable::default_table().threshold_for(0.0));
        let kcache = KFactorCache::new(config.spec.quantile(), config.spec.confidence())
            .expect("BoundSpec guarantees open-interval parameters");
        Self {
            config,
            detector: RareEventDetector::new(threshold),
            kcache,
            klast: None,
            moments: LogMoments::default(),
            cached: BoundOutcome::InsufficientHistory { needed: MIN_FIT },
            trims: 0,
            refit_tick: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &LogNormalConfig {
        &self.config
    }

    /// Number of retained waits: the newest this many of the log are this
    /// model's history.
    #[inline]
    pub fn len(&self) -> usize {
        self.moments.n
    }

    /// Whether no wait is retained.
    pub fn is_empty(&self) -> bool {
        self.moments.n == 0
    }

    /// Number of change-point trims performed so far.
    pub fn trims(&self) -> usize {
        self.trims
    }

    /// See [`LogNormalPredictor::state`].
    pub fn state(&self) -> LogNormalState {
        LogNormalState {
            quantile: self.config.spec.quantile(),
            confidence: self.config.spec.confidence(),
            trimming: self.config.trimming,
            threshold_override: self.config.threshold_override,
            detector: DetectorState {
                threshold: self.detector.threshold(),
                consecutive_misses: self.detector.consecutive_misses(),
                times_fired: self.detector.times_fired(),
            },
            trims: self.trims,
            moments: MomentsState {
                sum: self.moments.sum,
                sum_comp: self.moments.sum_comp,
                sum_sq: self.moments.sum_sq,
                sum_sq_comp: self.moments.sum_sq_comp,
            },
        }
    }

    /// Reconstructs a model from exported state and its retained `waits`
    /// (arrival order, oldest first); see [`LogNormalPredictor::from_state`].
    /// The caller's log must end with `waits`.
    ///
    /// # Errors
    ///
    /// Rejects states with invalid specs, detectors, waits, or non-finite
    /// accumulators.
    pub fn from_state(state: &LogNormalState, waits: &[f64]) -> Result<Self, PredictError> {
        let spec = BoundSpec::new(state.quantile, state.confidence)?;
        state.detector.validate()?;
        check_waits(waits)?;
        let m = &state.moments;
        if ![m.sum, m.sum_comp, m.sum_sq, m.sum_sq_comp]
            .iter()
            .all(|x| x.is_finite())
        {
            return Err(PredictError::invalid_config(
                "moment accumulators must be finite",
            ));
        }
        let mut p = Self::new(LogNormalConfig {
            spec,
            trimming: state.trimming,
            threshold_override: state.threshold_override,
        });
        p.moments = LogMoments {
            n: waits.len(),
            sum: m.sum,
            sum_comp: m.sum_comp,
            sum_sq: m.sum_sq,
            sum_sq_comp: m.sum_sq_comp,
        };
        p.detector = RareEventDetector::restore(
            state.detector.threshold,
            state.detector.consecutive_misses,
            state.detector.times_fired,
        );
        p.trims = state.trims;
        p.recompute();
        Ok(p)
    }

    /// Accounts for `wait`, which the caller appends to its log next.
    ///
    /// # Panics
    ///
    /// Panics if `wait` is negative or not finite — the contract of
    /// [`crate::history::SortedHistory::push`], which BMBP's history keeps.
    pub fn observe(&mut self, wait: f64) {
        assert!(
            wait.is_finite() && wait >= 0.0,
            "wait must be finite and non-negative, got {wait}"
        );
        self.moments.add_wait(wait);
    }

    /// Recomputes the served bound; see [`QuantilePredictor::refit`].
    pub fn refit(&mut self) {
        self.recompute();
    }

    /// The bound currently served.
    pub fn current_bound(&self) -> BoundOutcome {
        self.cached
    }

    /// Feedback for a served bound; see
    /// [`QuantilePredictor::record_outcome`]. A change-point trim rebuilds
    /// the moments from the newest waits of `log`, which holds this
    /// model's history as its suffix.
    pub fn record_outcome(&mut self, log: &VecDeque<f64>, predicted: f64, actual: f64) {
        if !self.config.trimming {
            return;
        }
        let miss = actual > predicted;
        if !miss {
            self.detector.record_hit();
            return;
        }
        if self.detector.record_miss() {
            // Same response as BMBP: keep the shortest meaningful suffix.
            // Use BMBP's minimum so the two trimmed methods see comparable
            // history lengths (this is what the paper's "same history
            // trimming scheme employed by BMBP" means). The moments are
            // rebuilt even when nothing is dropped.
            let keep = self.config.spec.min_history_upper().min(self.len());
            self.moments.rebuild(newest(log, keep));
            self.trims += 1;
            LOGN_TRIMS.incr();
            self.recompute();
        }
    }

    /// Calibrates the miss threshold on the retained waits of `log`; see
    /// [`QuantilePredictor::finish_training`].
    pub fn finish_training(&mut self, log: &VecDeque<f64>) {
        if self.config.trimming && self.config.threshold_override.is_none() {
            let waits: Vec<f64> = newest(log, self.len()).collect();
            let threshold = calibrate_threshold(&waits, ThresholdTable::default_table());
            self.detector.set_threshold(threshold);
        }
        self.recompute();
    }

    fn recompute(&mut self) {
        let span = Span::enter_sampled(&LOGN_REFIT_NS, &mut self.refit_tick, 63);
        let n = self.moments.n;
        if n < MIN_FIT {
            self.cached = BoundOutcome::InsufficientHistory { needed: MIN_FIT };
            return;
        }
        // O(1): the running log-moment accumulators replace the former
        // full-history rescan per refit.
        let m = self.moments.mean();
        let s = self.moments.sample_std();
        if s == 0.0 {
            // Degenerate sample: every wait identical; the only sensible
            // bound is that value itself.
            self.cached = BoundOutcome::Bound(m.exp() - 1.0);
            return;
        }
        let k = self.k_factor_memoized(n, span.is_some());
        self.cached = BoundOutcome::Bound((m + k * s).exp() - 1.0);
    }

    /// K-factor for sample size `n`, memoized on the last `(n, k)` pair
    /// (the spec is fixed, so `n` alone keys the memo). Misses fall through
    /// to the [`KFactorCache`], timing the lookup when `timed` (the refit's
    /// own span is sampled).
    fn k_factor_memoized(&mut self, n: usize, timed: bool) -> f64 {
        if let Some((last_n, last_k)) = self.klast {
            if last_n == n {
                KFACTOR_HIT.incr();
                return last_k;
            }
        }
        KFACTOR_MISS.incr();
        let k = {
            let _lookup = timed.then(|| Span::enter(&KFACTOR_NS));
            k_factor_counted(&mut self.kcache, n).expect("n >= 2 and spec validated")
        };
        self.klast = Some((n, k));
        k
    }
}

/// Log-normal MLE predictor with tolerance-bound quantile estimates: a
/// [`LogNormalModel`] and the arrival log it reads.
///
/// # Examples
///
/// ```
/// use qdelay_predict::lognormal::{LogNormalConfig, LogNormalPredictor};
/// use qdelay_predict::QuantilePredictor;
///
/// let mut p = LogNormalPredictor::new(LogNormalConfig::no_trim());
/// for i in 1..200u32 {
///     p.observe(f64::from(i % 40) * 10.0);
/// }
/// p.refit();
/// assert!(p.current_bound().value().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct LogNormalPredictor {
    model: LogNormalModel,
    /// The retained waits in arrival order, oldest first.
    log: VecDeque<f64>,
}

impl LogNormalPredictor {
    /// Forces the process-wide exact K-factor table for `config`'s spec to
    /// exist, so the first refit of a predictor with that spec never pays
    /// it on a latency-sensitive thread. Near-free for the paper's 95/95
    /// spec, whose table is compiled in; any other spec pays ~100
    /// warm-started noncentral-t root-finds on the first call in a process
    /// and a registry lookup on every later one.
    pub fn prewarm_k_factors(config: &LogNormalConfig) {
        if let Ok(mut cache) =
            KFactorCache::new(config.spec.quantile(), config.spec.confidence())
        {
            let _ = k_factor_counted(&mut cache, 2);
        }
    }

    /// Creates a predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Never panics for specs produced by [`BoundSpec::new`]; the K-factor
    /// cache construction re-validates the same invariants.
    pub fn new(config: LogNormalConfig) -> Self {
        Self { model: LogNormalModel::new(config), log: VecDeque::new() }
    }

    /// The active configuration.
    pub fn config(&self) -> &LogNormalConfig {
        self.model.config()
    }

    /// Number of change-point trims performed so far.
    pub fn trims(&self) -> usize {
        self.model.trims()
    }

    /// Exports the plain serializable core of this predictor, history
    /// aside (see [`crate::state`]; the history is [`Self::waits`]). The
    /// Kahan accumulators are exported verbatim: rebuilding them from the
    /// waits could differ in the last ulp, and the served bound is a
    /// function of their exact bits.
    pub fn state(&self) -> LogNormalState {
        self.model.state()
    }

    /// The retained waits in arrival order, oldest first.
    pub fn waits(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.log.iter().copied()
    }

    /// Reconstructs a predictor from exported state and its retained
    /// `waits` (arrival order, oldest first — the exporter's
    /// [`Self::waits`]) and refits. The K-factor cache and per-`n` memo
    /// are regenerated (they are pure functions of `(n, q, C)`); the moment
    /// accumulators are restored bit-for-bit so the continuation is
    /// byte-identical.
    ///
    /// # Errors
    ///
    /// Rejects states with invalid specs, detectors, waits, or non-finite
    /// accumulators.
    pub fn from_state(state: &LogNormalState, waits: &[f64]) -> Result<Self, PredictError> {
        let model = LogNormalModel::from_state(state, waits)?;
        Ok(Self { model, log: waits.iter().copied().collect() })
    }
}

/// `cache.k_factor(n)`, counting the exact table in
/// `predict.lognormal.kfactor.rootfind` if this lookup is the one that
/// computed it.
fn k_factor_counted(cache: &mut KFactorCache, n: usize) -> Result<f64, DistributionError> {
    let computed_before = cache.computed_exact_table();
    let k = cache.k_factor(n);
    if cache.computed_exact_table() && !computed_before {
        KFACTOR_ROOTFIND.incr();
    }
    k
}

impl QuantilePredictor for LogNormalPredictor {
    fn name(&self) -> &str {
        if self.model.config.trimming {
            "lognormal-trim"
        } else {
            "lognormal-notrim"
        }
    }

    fn spec(&self) -> BoundSpec {
        self.model.config.spec
    }

    /// # Panics
    ///
    /// Panics if `wait` is negative or not finite.
    fn observe(&mut self, wait: f64) {
        self.model.observe(wait);
        push_retaining(&mut self.log, wait, self.model.len());
    }

    fn refit(&mut self) {
        self.model.refit();
    }

    fn current_bound(&self) -> BoundOutcome {
        self.model.current_bound()
    }

    fn record_outcome(&mut self, predicted: f64, actual: f64) {
        self.model.record_outcome(&self.log, predicted, actual);
        retain_newest(&mut self.log, self.model.len());
    }

    fn finish_training(&mut self) {
        self.model.finish_training(&self.log);
    }

    fn history_len(&self) -> usize {
        self.model.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic "log-normal-ish" sample: exp of equally spaced normal
    /// quantiles, scaled.
    fn lognormal_sample(n: usize, mu: f64, sigma: f64) -> Vec<f64> {
        (1..=n)
            .map(|i| {
                let p = i as f64 / (n as f64 + 1.0);
                (mu + sigma * qdelay_stats::normal::std_normal_quantile(p)).exp()
            })
            .collect()
    }

    #[test]
    fn bound_exceeds_sample_quantile_on_lognormal_data() {
        let sample = lognormal_sample(500, 3.0, 1.0);
        let mut p = LogNormalPredictor::new(LogNormalConfig::no_trim());
        for &w in &sample {
            p.observe(w);
        }
        p.refit();
        let bound = p.current_bound().value().unwrap();
        let q95 = qdelay_stats::describe::quantile(&sample, 0.95).unwrap();
        assert!(bound > q95, "bound {bound} must exceed sample q95 {q95}");
        // ...but not by an absurd factor on genuinely log-normal data.
        assert!(bound < q95 * 3.0, "bound {bound} vs q95 {q95}");
    }

    #[test]
    fn insufficient_below_two_observations() {
        let mut p = LogNormalPredictor::new(LogNormalConfig::no_trim());
        p.refit();
        assert!(p.current_bound().value().is_none());
        p.observe(5.0);
        p.refit();
        assert!(p.current_bound().value().is_none());
        p.observe(6.0);
        p.refit();
        assert!(p.current_bound().value().is_some());
    }

    #[test]
    fn degenerate_history_predicts_the_constant() {
        let mut p = LogNormalPredictor::new(LogNormalConfig::no_trim());
        for _ in 0..50 {
            p.observe(42.0);
        }
        p.refit();
        let b = p.current_bound().value().unwrap();
        assert!((b - 42.0).abs() < 1e-9, "b = {b}");
    }

    #[test]
    fn zero_waits_are_admitted() {
        let mut p = LogNormalPredictor::new(LogNormalConfig::no_trim());
        for i in 0..100 {
            p.observe(if i % 2 == 0 { 0.0 } else { 100.0 });
        }
        p.refit();
        let b = p.current_bound().value().unwrap();
        assert!(b.is_finite() && b >= 0.0);
    }

    #[test]
    fn trim_variant_trims_and_notrim_does_not() {
        for (cfg, expect_trim) in [(LogNormalConfig::trim(), true), (LogNormalConfig::no_trim(), false)]
        {
            let mut p = LogNormalPredictor::new(LogNormalConfig {
                threshold_override: Some(2),
                ..cfg
            });
            for i in 0..300 {
                p.observe((i % 50) as f64);
            }
            p.refit();
            let b = p.current_bound().value().unwrap();
            for _ in 0..6 {
                p.record_outcome(b, b + 100.0);
            }
            assert_eq!(p.trims() > 0, expect_trim, "config {:?}", p.config());
            if expect_trim {
                assert_eq!(p.history_len(), p.config().spec.min_history_upper());
            } else {
                assert_eq!(p.history_len(), 300);
            }
        }
    }

    #[test]
    fn tighter_with_more_data() {
        // The tolerance factor shrinks with n, so the bound on identical
        // distributional data tightens.
        let small = lognormal_sample(60, 2.0, 0.8);
        let large = lognormal_sample(2000, 2.0, 0.8);
        let mut ps = LogNormalPredictor::new(LogNormalConfig::no_trim());
        for &w in &small {
            ps.observe(w);
        }
        ps.refit();
        let mut pl = LogNormalPredictor::new(LogNormalConfig::no_trim());
        for &w in &large {
            pl.observe(w);
        }
        pl.refit();
        let bs = ps.current_bound().value().unwrap();
        let bl = pl.current_bound().value().unwrap();
        assert!(bl < bs, "large-n bound {bl} should be tighter than {bs}");
    }

    #[test]
    fn incremental_moments_match_two_pass_fit() {
        // The running accumulators must agree with the former
        // full-rescan fit to floating-point noise.
        let sample = lognormal_sample(800, 2.5, 1.2);
        let mut p = LogNormalPredictor::new(LogNormalConfig::no_trim());
        for &w in &sample {
            p.observe(w);
        }
        p.refit();
        let incremental = p.current_bound().value().unwrap();

        let logs: Vec<f64> = sample.iter().map(|w| (w + 1.0).ln()).collect();
        let m = qdelay_stats::describe::mean(&logs).unwrap();
        let s = qdelay_stats::describe::sample_std(&logs).unwrap();
        let k = KFactorCache::new(0.95, 0.95).unwrap().k_factor(800).unwrap();
        let two_pass = (m + k * s).exp() - 1.0;
        assert!(
            (incremental - two_pass).abs() <= 1e-6 * two_pass.abs().max(1.0),
            "incremental {incremental} vs two-pass {two_pass}"
        );
    }

    #[test]
    fn moments_survive_trim_rebuild() {
        // After a change-point trim the accumulators are rebuilt from the
        // surviving suffix; the fit must equal a fresh predictor fed only
        // that suffix.
        let mut p = LogNormalPredictor::new(LogNormalConfig {
            threshold_override: Some(2),
            ..LogNormalConfig::trim()
        });
        for i in 0..300 {
            p.observe((i % 50) as f64 + 1.0);
        }
        p.refit();
        let b = p.current_bound().value().unwrap();
        for _ in 0..3 {
            p.record_outcome(b, b + 100.0);
        }
        assert!(p.trims() > 0);
        let keep = p.history_len();

        let mut fresh = LogNormalPredictor::new(LogNormalConfig::no_trim());
        for i in (300 - keep)..300 {
            fresh.observe((i % 50) as f64 + 1.0);
        }
        fresh.refit();
        assert_eq!(p.current_bound(), fresh.current_bound());
    }

    #[test]
    fn kfactor_memo_serves_repeat_refits() {
        let mut p = LogNormalPredictor::new(LogNormalConfig::no_trim());
        for &w in &lognormal_sample(150, 2.0, 0.9) {
            p.observe(w);
        }
        p.refit();
        let first = p.current_bound();
        assert_eq!(p.model.klast.map(|(n, _)| n), Some(150));
        let hits_before = KFACTOR_HIT.value();
        // Same n: the refit must serve the memoized K and give the same
        // bound (counters are global and monotone, so >= is the safe check
        // under parallel test threads).
        p.refit();
        assert_eq!(p.current_bound(), first);
        assert!(KFACTOR_HIT.value() >= hits_before + 1);
        // Growing n invalidates the memo by key.
        p.observe(7.0);
        p.refit();
        assert_eq!(p.model.klast.map(|(n, _)| n), Some(151));
    }

    #[test]
    fn names_distinguish_variants() {
        let a = LogNormalPredictor::new(LogNormalConfig::no_trim());
        let b = LogNormalPredictor::new(LogNormalConfig::trim());
        assert_eq!(a.name(), "lognormal-notrim");
        assert_eq!(b.name(), "lognormal-trim");
    }
}
