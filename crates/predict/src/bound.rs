//! Binomial confidence bounds on population quantiles from order statistics.
//!
//! This module is the direct implementation of the paper's §4.1 and
//! appendix: given `n` observations regarded as i.i.d. draws, the number of
//! them below the population quantile `X_q` is `Binomial(n, q)`, so an order
//! statistic with a suitable index is an upper (or lower) confidence bound
//! for `X_q` — with *no* distributional assumptions.
//!
//! Every index is the exact inversion of the binomial CDF, at every `n`.
//! The appendix suggests a CLT shortcut for large `n`, but it lands one
//! rank low often enough (the 95/95 upper index at `n = 202` reaches
//! confidence 0.941) to break the promise of confidence *at least* `C`, so
//! it is not used. [`BoundIndexCache`] makes the exact index cheap by
//! carrying it from one `n` to the next with the CDF recurrence.

use qdelay_stats::binomial::Binomial;
use qdelay_telemetry::Counter;

/// Refits that reused the index cached for the current `n` outright.
static BOUND_INDEX_HIT: Counter = Counter::new("predict.bound_index.hit");
/// Refits that carried a cached index forward by the O(1)-per-step walk.
static BOUND_INDEX_CARRY: Counter = Counter::new("predict.bound_index.carry_forward");
/// Refits that paid a fresh `O(log n)`-CDF-evaluation inversion.
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

/// Names a bound method, but every method serves the exact index: nothing
/// branches on it. It survives only as the parameter of [`upper_index`]
/// and [`BoundIndexCache::new`], because the benchmark's layer probes
/// (`benchmark/src/layers.rs`) call both with it, and that crate changes
/// only with a revision of the benchmark. It goes with those call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundMethod {
    /// The exact index.
    Auto,
    /// The exact index.
    Exact,
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
/// `q` quantile, or `None` below [`BoundSpec::min_history_upper`].
///
/// The index is the smallest `k` with `P[Bin(n, q) <= k-1] >= C`; then the
/// `k`-th smallest observation bounds `X_q` from above with confidence `C`
/// (paper appendix, equation 3). The method is ignored ([`BoundMethod`]).
///
/// # Examples
///
/// ```
/// use qdelay_predict::bound::{upper_index, BoundMethod, BoundSpec};
/// let spec = BoundSpec::paper_default();
/// // The appendix's worked example: n = 1000, q = 0.9, C = 0.95 -> k = 916.
/// let spec2 = BoundSpec::new(0.9, 0.95)?;
/// assert_eq!(upper_index(1000, spec2, BoundMethod::Exact), Some(916));
/// assert_eq!(upper_index(58, spec, BoundMethod::Exact), None);
/// assert_eq!(upper_index(59, spec, BoundMethod::Exact), Some(59));
/// # Ok::<(), qdelay_predict::PredictError>(())
/// ```
pub fn upper_index(n: usize, spec: BoundSpec, _method: BoundMethod) -> Option<usize> {
    Side::Upper.fresh_index(n, spec)
}

/// 1-indexed order-statistic index for a **lower** confidence bound on the
/// `q` quantile, or `None` below [`BoundSpec::min_history_lower`].
///
/// The index is the largest `k` with `P[Bin(n, q) >= k] >= C`, i.e. the
/// largest `k` with `P[Bin(n, q) <= k-1] <= 1 - C`.
pub fn lower_index(n: usize, spec: BoundSpec) -> Option<usize> {
    Side::Lower.fresh_index(n, spec)
}

/// Upper confidence bound on the `q` quantile from a sorted sample.
///
/// # Panics
///
/// Panics (in debug builds) if `sorted` is not ascending.
pub fn upper_bound(sorted: &[f64], spec: BoundSpec) -> BoundOutcome {
    debug_assert!(is_sorted(sorted), "input must be sorted ascending");
    match upper_index(sorted.len(), spec, BoundMethod::Exact) {
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
pub fn lower_bound(sorted: &[f64], spec: BoundSpec) -> BoundOutcome {
    debug_assert!(is_sorted(sorted), "input must be sorted ascending");
    match lower_index(sorted.len(), spec) {
        Some(k) => BoundOutcome::Bound(sorted[k - 1]),
        None => BoundOutcome::InsufficientHistory {
            needed: spec.min_history_lower(),
        },
    }
}

fn is_sorted(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] <= w[1])
}

/// The two indices. Each is read off `j`, the smallest count whose
/// `P[Bin(n, q) <= j]` has reached the side's level: the upper index is
/// `j + 1`, the lower is `j`. As `n` grows by one, `j` grows by 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    /// `P[Bin(n, q) <= j] >= C`.
    Upper,
    /// `P[Bin(n, q) <= j] > 1 - C`.
    Lower,
}

impl Side {
    fn level(self, spec: BoundSpec) -> f64 {
        match self {
            Self::Upper => spec.confidence,
            Self::Lower => 1.0 - spec.confidence,
        }
    }

    fn reached(self, cdf: f64, level: f64) -> bool {
        match self {
            Self::Upper => cdf >= level,
            Self::Lower => cdf > level,
        }
    }

    /// Sizes below this have no index: the `needed` that
    /// [`BoundOutcome::InsufficientHistory`] reports.
    fn min_n(self, spec: BoundSpec) -> usize {
        match self {
            Self::Upper => spec.min_history_upper(),
            Self::Lower => spec.min_history_lower(),
        }
    }

    /// The index `j` names at a size `n` that has one. The clamp matters
    /// only where rounding splits the tie `1 - q^n = C` (or
    /// `1 - (1-q)^n = C`) between the closed-form minimum and the CDF.
    fn index(self, n: usize, j: u64) -> usize {
        match self {
            Self::Upper => (j as usize + 1).min(n),
            Self::Lower => (j as usize).max(1),
        }
    }

    /// `j` at size `n`, by a fresh inversion of the binomial CDF.
    fn fresh_j(self, b: &Binomial, level: f64) -> u64 {
        // The smallest `m` with `P[Bin(n, q) <= m] >= level`.
        let m = b.quantile(level);
        match self {
            Self::Upper => m,
            Self::Lower => m + u64::from(b.cdf(m) <= level),
        }
    }

    fn fresh_index(self, n: usize, spec: BoundSpec) -> Option<usize> {
        if n < self.min_n(spec) {
            return None;
        }
        let b = Binomial::new(n as u64, spec.quantile).expect("validated quantile");
        Some(self.index(n, self.fresh_j(&b, self.level(spec))))
    }
}

/// Beyond this gap the cache recomputes instead of walking. A step costs
/// ~12 ns and a fresh inversion 0.7–10 µs for `n` from 200 to 10⁵ (95/95,
/// one core of a 2-vCPU x86 box), so 128 steps cost what an inversion
/// does near `n = 1,000`. Refit gaps are short: in the seed-1 catalog
/// replay, 3 of ~554k exceed 16.
const CARRY_FORWARD_LIMIT: usize = 128;

/// A walk whose carried CDF lands this close to the level decides with
/// [`Binomial::cdf`] instead, so its decision is the inversion's. The
/// carried value drifts from the CDF's by far less (it is resynced from
/// the CDF at least every [`RESYNC_STEPS`] steps).
const GUARD: f64 = 1e-9;

/// Steps after which a walk resyncs its CDF and mass from [`Binomial`].
const RESYNC_STEPS: u32 = 1024;

/// One side's index carried forward in `n`: `j` with `P[Bin(n, q) <= j]`
/// and `P[Bin(n, q) = j]` at the size it was last asked for.
#[derive(Debug, Clone, Copy)]
struct Walk {
    j: u64,
    cdf: f64,
    pmf: f64,
    since_sync: u32,
}

impl Walk {
    /// `j`'s CDF and mass at size `n`, from [`Binomial`].
    fn synced(b: &Binomial, j: u64) -> Self {
        Self {
            j,
            cdf: b.cdf(j),
            pmf: b.pmf(j),
            since_sync: 0,
        }
    }

    /// Moves the walk from size `n - 1` to `n`. With `F = P[Bin(n-1, q) <=
    /// j]` and `f = P[Bin(n-1, q) = j]`:
    /// `P[Bin(n, q) <= j] = F - q·f`,
    /// `P[Bin(n, q) = j] = f·n/(n - j)·(1 - q)` and
    /// `P[Bin(n, q) = j + 1] = P[Bin(n, q) = j]·(n - j)/(j + 1)·q/(1 - q)`.
    fn step(&mut self, n: u64, side: Side, level: f64, q: f64) {
        let j = self.j;
        let mut cdf = self.cdf - q * self.pmf;
        let mut pmf = self.pmf * n as f64 / (n - j) as f64 * (1.0 - q);
        let near = (cdf - level).abs() < GUARD;
        let exact = || Binomial::new(n, q).expect("validated quantile");
        if near {
            cdf = exact().cdf(j);
        }
        if !side.reached(cdf, level) {
            pmf *= (n - j) as f64 / (j + 1) as f64 * (q / (1.0 - q));
            cdf += pmf;
            self.j += 1;
        }
        self.since_sync += 1;
        if near || self.since_sync == RESYNC_STEPS {
            *self = Self::synced(&exact(), self.j);
        } else {
            (self.cdf, self.pmf) = (cdf, pmf);
        }
    }
}

/// One side's memo: the last size asked at or above the minimum, and the
/// walk there.
#[derive(Debug, Clone)]
struct Memo {
    side: Side,
    min_n: usize,
    last: Option<(usize, Walk)>,
}

impl Memo {
    fn new(side: Side, spec: BoundSpec) -> Self {
        Self {
            side,
            min_n: side.min_n(spec),
            last: None,
        }
    }

    fn index(&mut self, n: usize, spec: BoundSpec) -> Option<usize> {
        if n < self.min_n {
            return None;
        }
        let (side, level, q) = (self.side, self.side.level(spec), spec.quantile);
        let walk = match self.last {
            Some((m, walk)) if m == n => {
                BOUND_INDEX_HIT.incr();
                return Some(side.index(n, walk.j));
            }
            Some((m, mut walk)) if m < n && n - m <= CARRY_FORWARD_LIMIT => {
                BOUND_INDEX_CARRY.incr();
                for size in m + 1..=n {
                    walk.step(size as u64, side, level, q);
                }
                walk
            }
            // Empty, shrunk (a trim) or too far behind.
            _ => {
                BOUND_INDEX_MISS.incr();
                let b = Binomial::new(n as u64, q).expect("validated quantile");
                Walk::synced(&b, side.fresh_j(&b, level))
            }
        };
        self.last = Some((n, walk));
        Some(side.index(n, walk.j))
    }
}

/// Memoized bound-index lookups for a fixed spec.
///
/// Predictors ask for the index on every refit, but `n` only changes when
/// an observation arrives or the history is trimmed. Below the minimum
/// history the index is `None` with no CDF call. Otherwise the cache keeps
/// `j`, `P[Bin(n, q) <= j]` and `P[Bin(n, q) = j]` for the last `n`, and
/// carries them to a larger `n` by the binomial recurrence: the index rises
/// by 0 or 1 per step, and one carried CDF value decides which (the walk is
/// guarded and resynced so that every decision is the exact inversion's).
/// A smaller `n` (a change-point trim), an empty cache (a new or restored
/// predictor) or a gap past [`CARRY_FORWARD_LIMIT`] pays a fresh inversion.
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
    upper: Memo,
    lower: Memo,
}

impl BoundIndexCache {
    /// Creates an empty cache for a spec. The method is ignored
    /// ([`BoundMethod`]).
    pub fn new(spec: BoundSpec, _method: BoundMethod) -> Self {
        Self {
            spec,
            upper: Memo::new(Side::Upper, spec),
            lower: Memo::new(Side::Lower, spec),
        }
    }

    /// The spec this cache serves.
    pub fn spec(&self) -> BoundSpec {
        self.spec
    }

    /// Cached [`upper_index`] for sample size `n`.
    pub fn upper_index(&mut self, n: usize) -> Option<usize> {
        let k = self.upper.index(n, self.spec);
        debug_assert_eq!(k, upper_index(n, self.spec, BoundMethod::Exact), "n = {n}");
        k
    }

    /// Cached [`lower_index`] for sample size `n`.
    pub fn lower_index(&mut self, n: usize) -> Option<usize> {
        let k = self.lower.index(n, self.spec);
        debug_assert_eq!(k, lower_index(n, self.spec), "n = {n}");
        k
    }

    /// Drops all cached entries (e.g. after reconfiguring the predictor).
    pub fn invalidate(&mut self) {
        self.upper.last = None;
        self.lower.last = None;
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
        // n = 1000, q = 0.9, C = 0.95: the appendix moves up from x_(900)
        // by 1.645*sqrt(1000*.9*.1) ~ 15.6 to x_(916), which here is the
        // exact index.
        let spec = BoundSpec::new(0.9, 0.95).unwrap();
        let b = Binomial::new(1000, 0.9).unwrap();
        assert!(b.cdf(914) < 0.95 && b.cdf(915) >= 0.95);
        assert_eq!(upper_index(1000, spec, BoundMethod::Exact), Some(916));
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
            let k = lower_index(n, spec).unwrap();
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
        match upper_bound(&sample, spec) {
            BoundOutcome::InsufficientHistory { needed } => assert_eq!(needed, 59),
            BoundOutcome::Bound(_) => panic!("expected insufficient history"),
        }
    }

    #[test]
    fn at_exactly_59_bound_is_maximum() {
        // With n = 59 the 95/95 upper bound is the sample maximum.
        let spec = BoundSpec::paper_default();
        let sample: Vec<f64> = (0..59).map(|i| i as f64).collect();
        assert_eq!(upper_bound(&sample, spec), BoundOutcome::Bound(58.0));
    }

    #[test]
    fn bounds_are_monotone_in_confidence() {
        let sample: Vec<f64> = (0..500).map(|i| (i as f64).powf(1.3)).collect();
        let mut prev = f64::NEG_INFINITY;
        for c in [0.5, 0.8, 0.9, 0.95, 0.99] {
            let spec = BoundSpec::new(0.9, c).unwrap();
            let v = upper_bound(&sample, spec).value().unwrap();
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
            let v = upper_bound(&sample, spec).value().unwrap();
            assert!(v >= prev, "bound must grow with quantile");
            prev = v;
        }
    }

    #[test]
    fn lower_bound_below_upper_bound() {
        let sample: Vec<f64> = (0..300).map(|i| (i as f64) * 2.0).collect();
        let spec = BoundSpec::new(0.5, 0.95).unwrap();
        let lo = lower_bound(&sample, spec).value().unwrap();
        let hi = upper_bound(&sample, spec).value().unwrap();
        assert!(lo < hi);
        // Both straddle the sample median.
        let med = qdelay_stats::describe::quantile(&sample, 0.5).unwrap();
        assert!(lo <= med && med <= hi);
    }

    #[test]
    fn empty_sample_yields_insufficient() {
        let spec = BoundSpec::paper_default();
        assert!(upper_bound(&[], spec).value().is_none());
        assert!(lower_bound(&[], spec).value().is_none());
    }

    #[test]
    fn cache_matches_direct_across_min_history_crossing() {
        // n walking 0 -> 200 crosses min_history_upper() = 59 for 95/95:
        // the cache must flip from None to Some exactly where the direct
        // computation does.
        let spec = BoundSpec::paper_default();
        let mut cache = BoundIndexCache::new(spec, BoundMethod::Auto);
        for n in 0..200 {
            assert_eq!(cache.upper_index(n), upper_index(n, spec, BoundMethod::Exact), "n = {n}");
        }
        assert_eq!(cache.upper_index(58), None);
        assert_eq!(cache.upper_index(59), Some(59));
    }

    #[test]
    fn cache_survives_changepoint_trim_shrink() {
        // A change-point trim snaps n from large back to 59; the cache must
        // recompute rather than carry a stale large-n index.
        let spec = BoundSpec::paper_default();
        let mut cache = BoundIndexCache::new(spec, BoundMethod::Auto);
        assert_eq!(cache.upper_index(5000), upper_index(5000, spec, BoundMethod::Exact));
        assert_eq!(cache.upper_index(59), Some(59));
        // Regrow one observation at a time (the post-trim refit pattern).
        for n in 60..200 {
            assert_eq!(cache.upper_index(n), upper_index(n, spec, BoundMethod::Exact));
        }
    }

    #[test]
    fn cache_carry_forward_spans_gaps() {
        // Jumps smaller and larger than the carry-forward limit, repeated
        // queries at the same n, non-monotone n sequences, and a quantile
        // whose minimum history is long.
        for (q, c) in [(0.9, 0.95), (0.9999, 0.95)] {
            let spec = BoundSpec::new(q, c).unwrap();
            let mut cache = BoundIndexCache::new(spec, BoundMethod::Exact);
            for n in [30usize, 31, 40, 90, 90, 500, 501, 499, 1000, 64, 65, 29_990, 30_000] {
                assert_eq!(cache.upper_index(n), upper_index(n, spec, BoundMethod::Exact), "n = {n}");
                assert_eq!(cache.lower_index(n), lower_index(n, spec), "n = {n}");
            }
        }
    }

    #[test]
    fn cache_lower_index_memoizes_correctly() {
        let spec = BoundSpec::new(0.25, 0.95).unwrap();
        let mut cache = BoundIndexCache::new(spec, BoundMethod::Exact);
        for n in [0usize, 5, 11, 11, 12, 100, 50, 500] {
            assert_eq!(cache.lower_index(n), lower_index(n, spec), "n = {n}");
        }
        cache.invalidate();
        assert_eq!(cache.lower_index(100), lower_index(100, spec));
    }

    /// The served index is the exact inversion at every `n` up to 10⁵, and
    /// every [`CARRY_FORWARD_LIMIT`]-th `n` up to 4·10⁵ (the walk still
    /// steps through each), for the paper's spec, Table 8's three other
    /// quantiles and 95/99, on both sides. Every step that has an index
    /// is a carry, so this is the walk against the inversion.
    #[test]
    fn the_walk_serves_the_exact_index_everywhere() {
        for (q, c) in [(0.95, 0.95), (0.5, 0.95), (0.75, 0.95), (0.05, 0.95), (0.95, 0.99)] {
            let spec = BoundSpec::new(q, c).unwrap();
            let mut cache = BoundIndexCache::new(spec, BoundMethod::Auto);
            let sizes = (0..=100_000).chain((100_000..=400_000).step_by(CARRY_FORWARD_LIMIT));
            for n in sizes {
                let what = format!("q = {q}, C = {c}, n = {n}");
                assert_eq!(cache.upper_index(n), upper_index(n, spec, BoundMethod::Exact), "{what}");
                assert_eq!(cache.lower_index(n), lower_index(n, spec), "{what}");
            }
        }
    }
}
