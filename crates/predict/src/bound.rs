//! Binomial confidence bounds on population quantiles from order statistics.
//!
//! This module is the direct implementation of the paper's §4.1 and
//! appendix: given `n` observations regarded as i.i.d. draws, the number of
//! them below the population quantile `X_q` is `Binomial(n, q)`, so an order
//! statistic with a suitable index is an upper (or lower) confidence bound
//! for `X_q` — with *no* distributional assumptions.

use qdelay_stats::binomial::Binomial;
use qdelay_stats::normal::std_normal_quantile;
use qdelay_telemetry::Counter;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Refits that reused the index cached for the current `n` outright.
static BOUND_INDEX_HIT: Counter = Counter::new("predict.bound_index.hit");
/// Refits that read a new `n`'s index from the process-wide `Auto` table.
static BOUND_INDEX_TABLE: Counter = Counter::new("predict.bound_index.table");
/// Refits that advanced a cached exact index by the O(1)-per-step walk.
static BOUND_INDEX_CARRY: Counter = Counter::new("predict.bound_index.carry_forward");
/// Refits served by the O(1) CLT closed form (large-`n` region of `Auto`).
static BOUND_INDEX_APPROX: Counter = Counter::new("predict.bound_index.approx");
/// Refits that paid a fresh `O(log n)` exact binomial-CDF inversion.
static BOUND_INDEX_MISS: Counter = Counter::new("predict.bound_index.miss");

/// The target of a bound computation: which quantile, at what confidence.
///
/// # Examples
///
/// ```
/// use qdelay_predict::bound::BoundSpec;
/// let spec = BoundSpec::new(0.95, 0.95)?;
/// assert_eq!(spec.min_history_upper(), 59); // paper section 4.1
/// # Ok::<(), qdelay_predict::PredictError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundSpec {
    quantile: f64,
    confidence: f64,
}

impl BoundSpec {
    /// Creates a bound specification.
    ///
    /// # Errors
    ///
    /// Returns [`crate::PredictError`] unless both `quantile` and
    /// `confidence` lie strictly inside `(0, 1)`.
    pub fn new(quantile: f64, confidence: f64) -> Result<Self, crate::PredictError> {
        if !(quantile > 0.0 && quantile < 1.0 && confidence > 0.0 && confidence < 1.0) {
            return Err(crate::PredictError::invalid_config(format!(
                "quantile and confidence must be in (0,1), got q={quantile}, C={confidence}"
            )));
        }
        Ok(Self {
            quantile,
            confidence,
        })
    }

    /// The paper's headline specification: 95%-confidence bound on the 0.95
    /// quantile.
    pub fn paper_default() -> Self {
        Self {
            quantile: 0.95,
            confidence: 0.95,
        }
    }

    /// The target quantile `q`.
    pub fn quantile(&self) -> f64 {
        self.quantile
    }

    /// The confidence level `C`.
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// Minimum sample size from which an *upper* bound exists.
    ///
    /// An upper bound requires `P[Bin(n, q) <= n-1] >= C`, i.e.
    /// `1 - q^n >= C`, giving `n >= ln(1-C)/ln(q)`. For the paper's 95/95
    /// specification this is 59 (§4.1).
    pub fn min_history_upper(&self) -> usize {
        ((1.0 - self.confidence).ln() / self.quantile.ln()).ceil() as usize
    }

    /// Minimum sample size from which a *lower* bound exists.
    ///
    /// A lower bound requires `P[Bin(n, q) >= 1] >= C`, i.e.
    /// `1 - (1-q)^n >= C`.
    pub fn min_history_lower(&self) -> usize {
        ((1.0 - self.confidence).ln() / (1.0 - self.quantile).ln()).ceil() as usize
    }
}

impl Default for BoundSpec {
    /// The paper's 95/95 specification.
    fn default() -> Self {
        Self::paper_default()
    }
}

/// How the order-statistic index is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundMethod {
    /// Exact binomial CDF inversion below [`BoundMethod::AUTO_THRESHOLD`]
    /// expected successes/failures, CLT approximation above — the paper's
    /// appendix strategy.
    #[default]
    Auto,
    /// Always invert the exact binomial CDF.
    Exact,
    /// Always use the normal approximation
    /// `k = ceil(n q + z_C sqrt(n q (1-q)))` (requires the approximation to
    /// be in range; falls back to exact at tiny `n`).
    Approx,
}

impl BoundMethod {
    /// Expected-count threshold above which `Auto` switches to the CLT
    /// approximation (the appendix suggests 10).
    pub const AUTO_THRESHOLD: f64 = 10.0;

    /// Whether this method answers size `n` for quantile `q` with the CLT
    /// closed form. `Auto`'s exact region is a prefix in `n`: both expected
    /// counts grow with `n`.
    fn resolves_to_approx(self, n: usize, q: f64) -> bool {
        match self {
            Self::Exact => false,
            Self::Approx => true,
            Self::Auto => {
                let nf = n as f64;
                nf * q >= Self::AUTO_THRESHOLD && nf * (1.0 - q) >= Self::AUTO_THRESHOLD
            }
        }
    }
}

/// Result of asking for a bound from a finite sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundOutcome {
    /// A bound was produced.
    Bound(f64),
    /// The sample is too small for the requested spec; `needed` is the
    /// minimum sample size at which a bound becomes available.
    InsufficientHistory {
        /// Minimum number of observations required.
        needed: usize,
    },
}

impl BoundOutcome {
    /// The bound value, if one was produced.
    pub fn value(&self) -> Option<f64> {
        match self {
            Self::Bound(v) => Some(*v),
            Self::InsufficientHistory { .. } => None,
        }
    }
}

/// 1-indexed order-statistic index for an **upper** confidence bound on the
/// `q` quantile, or `None` if `n` is too small.
///
/// The index is the smallest `k` with `P[Bin(n, q) <= k-1] >= C`; then the
/// `k`-th smallest observation bounds `X_q` from above with confidence `C`
/// (paper appendix, equation 3).
///
/// # Examples
///
/// ```
/// use qdelay_predict::bound::{upper_index, BoundMethod, BoundSpec};
/// let spec = BoundSpec::paper_default();
/// // The appendix's worked example: n = 1000, q = 0.9, C = 0.95 -> k = 916.
/// let spec2 = BoundSpec::new(0.9, 0.95)?;
/// assert_eq!(upper_index(1000, spec2, BoundMethod::Approx), Some(916));
/// assert_eq!(upper_index(58, spec, BoundMethod::Exact), None);
/// assert_eq!(upper_index(59, spec, BoundMethod::Exact), Some(59));
/// # Ok::<(), qdelay_predict::PredictError>(())
/// ```
pub fn upper_index(n: usize, spec: BoundSpec, method: BoundMethod) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let q = spec.quantile();
    let k = if method.resolves_to_approx(n, q) {
        let nf = n as f64;
        let z = std_normal_quantile(spec.confidence());
        let raw = (nf * q + z * (nf * q * (1.0 - q)).sqrt()).ceil();
        if raw < 1.0 {
            1
        } else {
            raw as usize
        }
    } else {
        let b = Binomial::new(n as u64, q).expect("validated quantile");
        b.quantile(spec.confidence()) as usize + 1
    };
    if k > n {
        None
    } else {
        Some(k)
    }
}

/// 1-indexed order-statistic index for a **lower** confidence bound on the
/// `q` quantile, or `None` if `n` is too small.
///
/// The index is the largest `k` with `P[Bin(n, q) >= k] >= C`, i.e. the
/// largest `k` with `P[Bin(n, q) <= k-1] <= 1 - C`.
pub fn lower_index(n: usize, spec: BoundSpec, method: BoundMethod) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let q = spec.quantile();
    if method.resolves_to_approx(n, q) {
        let nf = n as f64;
        let z = std_normal_quantile(spec.confidence());
        let raw = (nf * q - z * (nf * q * (1.0 - q)).sqrt()).floor();
        if raw < 1.0 {
            None
        } else {
            Some(raw as usize)
        }
    } else {
        let b = Binomial::new(n as u64, q).expect("validated quantile");
        // Largest k-1 with cdf(k-1) <= 1 - C.
        let target = 1.0 - spec.confidence();
        if b.cdf(0) > target {
            return None; // even k = 1 fails
        }
        // quantile(target) is the smallest m with cdf(m) >= target; walk to
        // the largest m with cdf(m) <= target.
        let mut m = b.quantile(target);
        if b.cdf(m) > target {
            if m == 0 {
                return None;
            }
            m -= 1;
        }
        Some(m as usize + 1)
    }
}

/// Upper confidence bound on the `q` quantile from a sorted sample.
///
/// # Panics
///
/// Panics (in debug builds) if `sorted` is not ascending.
pub fn upper_bound(sorted: &[f64], spec: BoundSpec, method: BoundMethod) -> BoundOutcome {
    debug_assert!(is_sorted(sorted), "input must be sorted ascending");
    match upper_index(sorted.len(), spec, method) {
        Some(k) => BoundOutcome::Bound(sorted[k - 1]),
        None => BoundOutcome::InsufficientHistory {
            needed: spec.min_history_upper(),
        },
    }
}

/// Lower confidence bound on the `q` quantile from a sorted sample.
///
/// # Panics
///
/// Panics (in debug builds) if `sorted` is not ascending.
pub fn lower_bound(sorted: &[f64], spec: BoundSpec, method: BoundMethod) -> BoundOutcome {
    debug_assert!(is_sorted(sorted), "input must be sorted ascending");
    match lower_index(sorted.len(), spec, method) {
        Some(k) => BoundOutcome::Bound(sorted[k - 1]),
        None => BoundOutcome::InsufficientHistory {
            needed: spec.min_history_lower(),
        },
    }
}

fn is_sorted(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] <= w[1])
}

/// Memoized bound-index lookups for a fixed `(spec, method)` pair.
///
/// Predictors ask for the same index on every refit, but `n` only changes
/// when an observation arrives or the history is trimmed. The cache
/// recomputes only when `n` changes. Under `Auto` the exact region is a
/// finite prefix (`n < 200` for 95/95), so a new `n` there is read from a
/// table built once per process per `(q, C)` by the exact inversion, and
/// above it the closed form is O(1). `Exact`, whose region is unbounded,
/// exploits the monotonicity of the index in `n` — `k(n) <= k(n+1) <= k(n)
/// + 1` — to *carry forward* the index with one O(1) binomial CDF check per
/// intervening `n`, instead of a fresh `O(log n)`-CDF-evaluation inversion.
///
/// # Examples
///
/// ```
/// use qdelay_predict::bound::{upper_index, BoundIndexCache, BoundMethod, BoundSpec};
/// let spec = BoundSpec::paper_default();
/// let mut cache = BoundIndexCache::new(spec, BoundMethod::Exact);
/// for n in 0..500 {
///     assert_eq!(cache.upper_index(n), upper_index(n, spec, BoundMethod::Exact));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct BoundIndexCache {
    spec: BoundSpec,
    method: BoundMethod,
    /// The process's table for `spec` under `Auto`; empty for the other
    /// methods and for regions too long to tabulate.
    table: AutoTable,
    upper: Option<(usize, Option<usize>)>,
    lower: Option<(usize, Option<usize>)>,
}

/// Beyond this gap the carry-forward walk costs more than a fresh binary
/// inversion, so the cache recomputes from scratch.
const CARRY_FORWARD_LIMIT: usize = 64;

/// Longest `Auto` exact region that is tabulated. Only a quantile within
/// `10 / 4096` of 0 or 1 has a longer one; it keeps the carry-forward walk.
const TABLE_MAX_LEN: usize = 4096;

/// The process's `Auto` exact-region tables, keyed by `(q.to_bits(),
/// C.to_bits())`; empty where the region is too long to tabulate. Tables
/// live as long as the process.
static SHARED_TABLES: OnceLock<Mutex<HashMap<(u64, u64), AutoTable>>> = OnceLock::new();

/// `table[n] == upper_index(n, spec, Auto)` over `Auto`'s exact region.
type AutoTable = &'static [Option<usize>];

/// The process's `Auto` exact-region table for `spec`, built by the first
/// cache that asks.
fn auto_table(spec: BoundSpec) -> AutoTable {
    let key = (spec.quantile().to_bits(), spec.confidence().to_bits());
    let shared = SHARED_TABLES.get_or_init(Default::default);
    let found = shared
        .lock()
        .expect("bound-index registry poisoned")
        .get(&key)
        .copied();
    if let Some(table) = found {
        return table;
    }
    // Built outside the lock: a racing cache builds the identical table and
    // the entry API keeps the first winner.
    let table = build_auto_table(spec);
    shared
        .lock()
        .expect("bound-index registry poisoned")
        .entry(key)
        .or_insert_with(|| table.leak())
}

/// `upper_index(n, spec, Exact)` for every `n` below the first size `Auto`
/// answers in closed form, or nothing if that is beyond [`TABLE_MAX_LEN`].
fn build_auto_table(spec: BoundSpec) -> Vec<Option<usize>> {
    let q = spec.quantile();
    let guess = BoundMethod::AUTO_THRESHOLD / q.min(1.0 - q);
    if guess >= TABLE_MAX_LEN as f64 {
        return Vec::new();
    }
    let approx = |n: usize| BoundMethod::Auto.resolves_to_approx(n, q);
    let mut region = guess as usize;
    while !approx(region) {
        region += 1;
    }
    while region > 0 && approx(region - 1) {
        region -= 1;
    }
    (0..region)
        .map(|n| upper_index(n, spec, BoundMethod::Exact))
        .collect()
}

impl BoundIndexCache {
    /// Creates an empty cache for a spec/method pair. An `Auto` cache
    /// adopts the process's table for `spec`, building it (one exact
    /// inversion per size of the region, ~0.15 ms for 95/95) if it is the
    /// first to ask.
    pub fn new(spec: BoundSpec, method: BoundMethod) -> Self {
        Self {
            spec,
            method,
            table: if method == BoundMethod::Auto {
                auto_table(spec)
            } else {
                &[]
            },
            upper: None,
            lower: None,
        }
    }

    /// The spec this cache serves.
    pub fn spec(&self) -> BoundSpec {
        self.spec
    }

    /// The method this cache serves.
    pub fn method(&self) -> BoundMethod {
        self.method
    }

    /// Whether `method` resolves to the CLT approximation at this `n`.
    fn resolves_to_approx(&self, n: usize) -> bool {
        self.method.resolves_to_approx(n, self.spec.quantile())
    }

    /// Cached [`upper_index`] for sample size `n`.
    pub fn upper_index(&mut self, n: usize) -> Option<usize> {
        if let Some((cached_n, k)) = self.upper {
            if cached_n == n {
                BOUND_INDEX_HIT.incr();
                return k;
            }
        }
        let k = self.fresh_or_carried_upper(n);
        debug_assert_eq!(k, upper_index(n, self.spec, self.method));
        self.upper = Some((n, k));
        k
    }

    fn fresh_or_carried_upper(&self, n: usize) -> Option<usize> {
        // The approximation is a closed form — O(1), nothing to carry.
        // The Auto exact region is a prefix of n (expected counts grow with
        // n), so `prev_n < n` both resolving to exact means every
        // intervening size did too, and the step walk below is valid.
        if self.resolves_to_approx(n) {
            BOUND_INDEX_APPROX.incr();
            return upper_index(n, self.spec, self.method);
        }
        if let Some(&k) = self.table.get(n) {
            BOUND_INDEX_TABLE.incr();
            return k;
        }
        if let Some((prev_n, Some(mut k))) = self.upper {
            if prev_n < n
                && n - prev_n <= CARRY_FORWARD_LIMIT
                && !self.resolves_to_approx(prev_n)
            {
                BOUND_INDEX_CARRY.incr();
                let q = self.spec.quantile();
                let c = self.spec.confidence();
                for m in prev_n + 1..=n {
                    // k(m) is k(m-1) or k(m-1) + 1; one CDF check decides.
                    let b = Binomial::new(m as u64, q).expect("validated quantile");
                    if b.cdf((k - 1) as u64) < c {
                        k += 1;
                    }
                }
                return if k > n { None } else { Some(k) };
            }
        }
        BOUND_INDEX_MISS.incr();
        upper_index(n, self.spec, self.method)
    }

    /// Cached [`lower_index`] for sample size `n` (memoized on `n`; the
    /// lower index is off the refit hot path, so no carry-forward).
    pub fn lower_index(&mut self, n: usize) -> Option<usize> {
        if let Some((cached_n, k)) = self.lower {
            if cached_n == n {
                return k;
            }
        }
        let k = lower_index(n, self.spec, self.method);
        self.lower = Some((n, k));
        k
    }

    /// Drops all cached entries (e.g. after reconfiguring the predictor).
    /// The process-wide `Auto` table stays: it depends on the spec alone.
    pub fn invalidate(&mut self) {
        self.upper = None;
        self.lower = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation() {
        assert!(BoundSpec::new(0.0, 0.95).is_err());
        assert!(BoundSpec::new(1.0, 0.95).is_err());
        assert!(BoundSpec::new(0.95, 0.0).is_err());
        assert!(BoundSpec::new(0.95, 1.0).is_err());
        assert!(BoundSpec::new(0.5, 0.5).is_ok());
    }

    #[test]
    fn paper_minimums() {
        let spec = BoundSpec::paper_default();
        assert_eq!(spec.min_history_upper(), 59);
        // Lower bound on the .25 quantile at 95% confidence needs 11 obs:
        // (1 - .25)^11 < .05 <= (1 - .25)^10.
        let spec25 = BoundSpec::new(0.25, 0.95).unwrap();
        assert_eq!(spec25.min_history_lower(), 11);
    }

    #[test]
    fn appendix_worked_example() {
        // n = 1000, q = 0.9, C = 0.95: sample .9 quantile is x_(900), move up
        // 1.645*sqrt(1000*.9*.1) ~ 15.6 -> x_(916).
        let spec = BoundSpec::new(0.9, 0.95).unwrap();
        assert_eq!(upper_index(1000, spec, BoundMethod::Approx), Some(916));
        // Exact differs from the CLT by at most 1 order statistic here.
        let exact = upper_index(1000, spec, BoundMethod::Exact).unwrap();
        assert!((exact as i64 - 916).unsigned_abs() <= 1, "exact = {exact}");
    }

    #[test]
    fn exact_index_is_minimal() {
        let spec = BoundSpec::paper_default();
        for n in [59usize, 80, 200, 1000] {
            let k = upper_index(n, spec, BoundMethod::Exact).unwrap();
            let b = Binomial::new(n as u64, 0.95).unwrap();
            assert!(b.cdf((k - 1) as u64) >= 0.95);
            assert!(b.cdf((k - 2) as u64) < 0.95, "k not minimal at n={n}");
        }
    }

    #[test]
    fn lower_index_is_maximal() {
        let spec = BoundSpec::new(0.25, 0.95).unwrap();
        for n in [11usize, 20, 100, 500] {
            let k = lower_index(n, spec, BoundMethod::Exact).unwrap();
            let b = Binomial::new(n as u64, 0.25).unwrap();
            // P[Bin >= k] >= C  <=>  cdf(k-1) <= 1-C
            assert!(b.cdf((k - 1) as u64) <= 0.05000000001);
            // k+1 would violate.
            assert!(b.cdf(k as u64) > 0.05, "k not maximal at n={n}");
        }
    }

    #[test]
    fn insufficient_history_reports_requirement() {
        let spec = BoundSpec::paper_default();
        let sample: Vec<f64> = (0..58).map(|i| i as f64).collect();
        match upper_bound(&sample, spec, BoundMethod::Exact) {
            BoundOutcome::InsufficientHistory { needed } => assert_eq!(needed, 59),
            BoundOutcome::Bound(_) => panic!("expected insufficient history"),
        }
    }

    #[test]
    fn at_exactly_59_bound_is_maximum() {
        // With n = 59 the 95/95 upper bound is the sample maximum.
        let spec = BoundSpec::paper_default();
        let sample: Vec<f64> = (0..59).map(|i| i as f64).collect();
        assert_eq!(
            upper_bound(&sample, spec, BoundMethod::Exact),
            BoundOutcome::Bound(58.0)
        );
    }

    #[test]
    fn approx_and_exact_agree_at_scale() {
        let spec = BoundSpec::paper_default();
        for n in [500usize, 5_000, 50_000, 350_000] {
            let e = upper_index(n, spec, BoundMethod::Exact).unwrap();
            let a = upper_index(n, spec, BoundMethod::Approx).unwrap();
            assert!(
                (e as i64 - a as i64).unsigned_abs() <= 2,
                "n={n}: exact {e} vs approx {a}"
            );
        }
    }

    #[test]
    fn auto_picks_exact_for_small_samples() {
        // n = 100, q = .95: n(1-q) = 5 < 10, so Auto must use the exact path.
        let spec = BoundSpec::paper_default();
        assert_eq!(
            upper_index(100, spec, BoundMethod::Auto),
            upper_index(100, spec, BoundMethod::Exact)
        );
        // Large n: Auto follows the approximation.
        assert_eq!(
            upper_index(100_000, spec, BoundMethod::Auto),
            upper_index(100_000, spec, BoundMethod::Approx)
        );
    }

    #[test]
    fn bounds_are_monotone_in_confidence() {
        let sample: Vec<f64> = (0..500).map(|i| (i as f64).powf(1.3)).collect();
        let mut prev = f64::NEG_INFINITY;
        for c in [0.5, 0.8, 0.9, 0.95, 0.99] {
            let spec = BoundSpec::new(0.9, c).unwrap();
            let v = upper_bound(&sample, spec, BoundMethod::Exact)
                .value()
                .unwrap();
            assert!(v >= prev, "bound must grow with confidence");
            prev = v;
        }
    }

    #[test]
    fn bounds_are_monotone_in_quantile() {
        let sample: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let mut prev = f64::NEG_INFINITY;
        for q in [0.5, 0.75, 0.9, 0.95] {
            let spec = BoundSpec::new(q, 0.9).unwrap();
            let v = upper_bound(&sample, spec, BoundMethod::Exact)
                .value()
                .unwrap();
            assert!(v >= prev, "bound must grow with quantile");
            prev = v;
        }
    }

    #[test]
    fn lower_bound_below_upper_bound() {
        let sample: Vec<f64> = (0..300).map(|i| (i as f64) * 2.0).collect();
        let spec = BoundSpec::new(0.5, 0.95).unwrap();
        let lo = lower_bound(&sample, spec, BoundMethod::Exact).value().unwrap();
        let hi = upper_bound(&sample, spec, BoundMethod::Exact).value().unwrap();
        assert!(lo < hi);
        // Both straddle the sample median.
        let med = qdelay_stats::describe::quantile(&sample, 0.5).unwrap();
        assert!(lo <= med && med <= hi);
    }

    #[test]
    fn empty_sample_yields_insufficient() {
        let spec = BoundSpec::paper_default();
        assert!(upper_bound(&[], spec, BoundMethod::Auto).value().is_none());
        assert!(lower_bound(&[], spec, BoundMethod::Auto).value().is_none());
    }

    #[test]
    fn cache_matches_direct_across_min_history_crossing() {
        // n walking 0 -> 200 crosses min_history_upper() = 59 for 95/95:
        // the cache must flip from None to Some exactly where the direct
        // computation does.
        for method in [BoundMethod::Exact, BoundMethod::Auto, BoundMethod::Approx] {
            let spec = BoundSpec::paper_default();
            let mut cache = BoundIndexCache::new(spec, method);
            for n in 0..200 {
                assert_eq!(
                    cache.upper_index(n),
                    upper_index(n, spec, method),
                    "n = {n}, method = {method:?}"
                );
            }
            assert_eq!(cache.upper_index(58), upper_index(58, spec, method));
            assert_eq!(cache.upper_index(59), upper_index(59, spec, method));
        }
    }

    #[test]
    fn cache_survives_changepoint_trim_shrink() {
        // A change-point trim snaps n from large back to 59; the cache must
        // recompute rather than carry a stale large-n index.
        let spec = BoundSpec::paper_default();
        let mut cache = BoundIndexCache::new(spec, BoundMethod::Auto);
        assert_eq!(cache.upper_index(5000), upper_index(5000, spec, BoundMethod::Auto));
        assert_eq!(cache.upper_index(59), Some(59));
        // Regrow one observation at a time (the post-trim refit pattern).
        for n in 60..200 {
            assert_eq!(cache.upper_index(n), upper_index(n, spec, BoundMethod::Auto));
        }
    }

    #[test]
    fn auto_table_matches_direct_across_and_beyond_its_region() {
        for (q, c, region) in [(0.95, 0.95, 200usize), (0.5, 0.9, 20), (0.99, 0.9, 1000)] {
            let spec = BoundSpec::new(q, c).unwrap();
            let direct = |n: usize| upper_index(n, spec, BoundMethod::Auto);
            let mut cache = BoundIndexCache::new(spec, BoundMethod::Auto);
            assert_eq!(cache.table.len(), region, "q = {q}");
            assert!(!BoundMethod::Auto.resolves_to_approx(region - 1, q));
            assert!(BoundMethod::Auto.resolves_to_approx(region, q));
            for n in 0..=2 * region {
                assert_eq!(cache.upper_index(n), direct(n), "q = {q}, n = {n}");
            }
            // Dropping the memo keeps the table; walk back down.
            cache.invalidate();
            for n in (0..=2 * region).rev() {
                assert_eq!(cache.upper_index(n), direct(n), "q = {q}, n = {n} after invalidate");
            }
            // A change-point trim snaps n back to 59, then it regrows.
            assert_eq!(cache.upper_index(5000), direct(5000));
            for n in 59..=(2 * region).max(100) {
                assert_eq!(cache.upper_index(n), direct(n), "q = {q}, n = {n} after trim");
            }
        }
    }

    #[test]
    fn only_auto_caches_hold_a_table() {
        let spec = BoundSpec::paper_default();
        assert!(BoundIndexCache::new(spec, BoundMethod::Exact).table.is_empty());
        assert!(BoundIndexCache::new(spec, BoundMethod::Approx).table.is_empty());
        // A region past the tabulation limit keeps the carry-forward walk.
        let extreme = BoundSpec::new(0.9999, 0.95).unwrap();
        let mut cache = BoundIndexCache::new(extreme, BoundMethod::Auto);
        assert!(cache.table.is_empty());
        for n in [59usize, 60, 100, 30_000, 29_990] {
            assert_eq!(cache.upper_index(n), upper_index(n, extreme, BoundMethod::Auto), "n = {n}");
        }
    }

    #[test]
    fn cache_carry_forward_spans_gaps() {
        // Jumps smaller and larger than the carry-forward limit, repeated
        // queries at the same n, and non-monotone n sequences.
        let spec = BoundSpec::new(0.9, 0.95).unwrap();
        let mut cache = BoundIndexCache::new(spec, BoundMethod::Exact);
        for n in [30usize, 31, 40, 90, 90, 500, 501, 499, 1000, 64, 65] {
            assert_eq!(cache.upper_index(n), upper_index(n, spec, BoundMethod::Exact), "n = {n}");
        }
    }

    #[test]
    fn cache_exact_and_approx_agree_at_large_n() {
        let spec = BoundSpec::paper_default();
        let mut exact = BoundIndexCache::new(spec, BoundMethod::Exact);
        let mut approx = BoundIndexCache::new(spec, BoundMethod::Approx);
        for n in [10_000usize, 10_001, 10_002, 100_000, 350_000] {
            let e = exact.upper_index(n).unwrap();
            let a = approx.upper_index(n).unwrap();
            assert!(
                (e as i64 - a as i64).unsigned_abs() <= 2,
                "n = {n}: exact {e} vs approx {a}"
            );
        }
    }

    #[test]
    fn cache_lower_index_memoizes_correctly() {
        let spec = BoundSpec::new(0.25, 0.95).unwrap();
        let mut cache = BoundIndexCache::new(spec, BoundMethod::Exact);
        for n in [0usize, 5, 11, 11, 12, 100, 50, 500] {
            assert_eq!(cache.lower_index(n), lower_index(n, spec, BoundMethod::Exact), "n = {n}");
        }
        cache.invalidate();
        assert_eq!(cache.lower_index(100), lower_index(100, spec, BoundMethod::Exact));
    }
}
