//! One-sided tolerance factors for normal populations.
//!
//! These are the "K' distribution" values of Guttman's Table 4.6 that the
//! paper's log-normal comparator (§4.2) reads from a printed table. The
//! level-`C` upper confidence bound for the `q` quantile of a normal
//! population, given a sample of size `n` with mean `m` and standard
//! deviation `s`, is `m + k * s` with
//!
//! ```text
//! k(n, q, C) = t_inv(C; nu = n - 1, delta = z_q * sqrt(n)) / sqrt(n)
//! ```
//!
//! Exact evaluation is a Brent root-find over the noncentral-t CDF, each
//! evaluation an 800-step Simpson integral (~10^5 floating-point
//! operations), so one factor costs ~10^6 operations, about 2 ms.
//! [`KFactorCache`] tabulates the exact range once per process and switches
//! to the asymptotic expansion above a configurable size, which is what the
//! predictors use in the hot path. As in the paper, the served 95/95 table
//! ships as a committed constant, so no process pays its root-finds; its
//! normal quantile ships beside it, so no 95/95 cache runs `Phi^-1` either.

use crate::noncentral_t::NonCentralT;
use crate::normal::std_normal_quantile;
use crate::DistributionError;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Process-wide exact tables for every spec other than the committed one,
/// keyed by `(q.to_bits(), confidence.to_bits(), exact_limit)`. Every
/// [`KFactorCache`] with the same spec shares one table, so a registry
/// holding millions of per-partition predictors pays the ~100-root-find
/// walk once per process, not once per partition. Tables live as long as
/// the process.
static SHARED_EXACT: OnceLock<Mutex<HashMap<ExactKey, &'static [f64]>>> = OnceLock::new();

/// `(q.to_bits(), confidence.to_bits(), exact_limit)`.
type ExactKey = (u64, u64, usize);

/// The K' table for the served spec, `q = 0.95`, `C = 0.95`, `n = 2..=100`
/// ([`KFactorCache::DEFAULT_EXACT_LIMIT`]), as `f64` bit patterns: exactly
/// what [`exact_walk`] computes, which a unit test regenerates and
/// compares bit for bit.
const PAPER_K_FACTOR_BITS: [u64; 99] = [
    0x403a42902edcfe24, // n =   2: 26.26001255889254
    0x401e9fa450b3e951, // n =   3: 7.655900250416679
    0x40149353ee879f61, // n =   4: 5.143874861743684
    0x4010cf8b8a4cf7fa, // n =   5: 4.202680741260332
    0x400da9560fc3c48b, // n =   6: 3.707683680688722
    0x400b321ccaf1c80c, // n =   7: 3.399468980315765
    0x40097f93c539e0c0, // n =   8: 3.1872935684478705
    0x40083ff97416255c, // n =   9: 3.031237513471451
    0x400749a72f982fb7, // n =  10: 2.9109634130781745
    0x4006851b6633c5a5, // n =  11: 2.8149936661290718
    0x4005e4078a28c5f2, // n =  12: 2.736342505807209
    0x40055d3127472731, // n =  13: 2.6705039089764786
    0x4004ea5c9f9ca169, // n =  14: 2.6144344777750814
    0x4004872b3ae34f70, // n =  15: 2.566000423490486
    0x40043073f8be34e4, // n =  16: 2.5236586983725022
    0x4003e3de6441d34c, // n =  17: 2.4862640221203147
    0x40039fa2d07f10be, // n =  18: 2.4529472626473696
    0x40036260bf9d28ed, // n =  19: 2.423036095603598
    0x40032b02ee470401, // n =  20: 2.396001683752275
    0x4002f8ac0c1403e4, // n =  21: 2.37142190395433
    0x4002caa921732030, // n =  22: 2.348955403638705
    0x4002a067c5240467, // n =  23: 2.3283229257217957
    0x4002796eef4a12e5, // n =  24: 2.3092936224442036
    0x40025559a165124c, // n =  25: 2.2916748627633634
    0x400233d2dc9b1dfc, // n =  26: 2.2753045306051245
    0x400214928a4919fb, // n =  27: 2.2600451282080463
    0x4001f75b16c3b77f, // n =  28: 2.245779207084467
    0x4001dbf790ee6843, // n =  29: 2.2324057886844755
    0x4001c23a2e1434a7, // n =  30: 2.219837532035473
    0x4001a9fb1a493d02, // n =  31: 2.207998471603447
    0x4001931783d66994, // n =  32: 2.1968221950348354
    0x40017d70d4a2547d, // n =  33: 2.1862503635443873
    0x400168ec0fbfab6a, // n =  34: 2.176231501614372
    0x400155714ba23dbc, // n =  35: 2.1667200001608915
    0x400142eb43370dd5, // n =  36: 2.157675290219894
    0x40013146f9673639, // n =  37: 2.1490611538527244
    0x400120736b86e73d, // n =  38: 2.1408451462310993
    0x400110614fef95bc, // n =  39: 2.1329981083860883
    0x40010102de95e904, // n =  40: 2.1254937543391197
    0x4000f24ba1dc7a26, // n =  41: 2.1183083196076664
    0x4000e4304e3c032d, // n =  42: 2.1114202606262524
    0x4000d6a69f9e41ad, // n =  43: 2.1048099966212335
    0x4000c9a53b7f081d, // n =  44: 2.098459687055778
    0x4000bd239712063a, // n =  45: 2.0923530390143954
    0x4000b119e0ce3a92, // n =  46: 2.0864751398979218
    0x4000a580ecdb9411, // n =  47: 2.080812311602593
    0x40009a5223f5bb4a, // n =  48: 2.0753519830099423
    0x40008f877469005b, // n =  49: 2.0700825781387215
    0x4000851b44dd5340, // n =  50: 2.0649934177439775
    0x40007b0868af370f, // n =  51: 2.0600746324988743
    0x4000714a15a0b65d, // n =  52: 2.055317086188366
    0x400067dbdab486ed, // n =  53: 2.050712307581185
    0x40005eb9980c8aee, // n =  54: 2.0462524298503615
    0x400055df77aa7489, // n =  55: 2.041930136575108
    0x40004d49e6f62e9e, // n =  56: 2.0377386134985747
    0x400044f590f1b582, // n =  57: 2.033671505333303
    0x40003cdf59055bd6, // n =  58: 2.02972287700275
    0x400035045652676e, // n =  59: 2.0258871787927353
    0x40002d61cf7c55a9, // n =  60: 2.02215921495618
    0x400025f536db3227, // n =  61: 2.018534115375832
    0x40001ebc270b1c51, // n =  62: 2.0150073099389734
    0x400017b45fceb688, // n =  63: 2.0115745053252034
    0x400010dbc33b6288, // n =  64: 2.00823166394213
    0x40000a305327752b, // n =  65: 2.0049749847809344
    0x400003b02ed355d4, // n =  66: 2.001800885986748
    0x3ffffab3218efd21, // n =  67: 1.9987059889679772
    0x3fffee5599c3bd8d, // n =  68: 1.9956871038847084
    0x3fffe2449d1be0a2, // n =  69: 1.992741216379763
    0x3fffd67d2e466062, // n =  70: 1.9898654754270173
    0x3fffcafc78cc8377, // n =  71: 1.9870571821886338
    0x3fffbfbfce52cc85, // n =  72: 1.9843137797841177
    0x3fffb4c4a41299c7, // n =  73: 1.9816328438843003
    0x3fffaa08908728de, // n =  74: 1.9790120740531658
    0x3fff9f8949493245, // n =  75: 1.9764492857676867
    0x3fff9544a1150520, // n =  76: 1.9739424030561352
    0x3fff8b3885f70f01, // n =  77: 1.9714894516955044
    0x3fff8162ff9bb927, // n =  78: 1.9690885529231055
    0x3fff77c22dbf42de, // n =  79: 1.966737917613663
    0x3fff6e5446bae5d3, // n =  80: 1.9644358408826192
    0x3fff6517962cf077, // n =  81: 1.9621806970817752
    0x3fff5c0a7bb94854, // n =  82: 1.9599709351500865
    0x3fff532b69e08cb8, // n =  83: 1.9578050742937148
    0x3fff4a78e4ebd79e, // n =  84: 1.9556816999661133
    0x3fff41f181eb8b65, // n =  85: 1.9535994601253261
    0x3fff3993e5c78b0a, // n =  86: 1.9515570617447247
    0x3fff315ec45f9ed8, // n =  87: 1.9495532675591019
    0x3fff2950dfba998f, // n =  88: 1.947586893025434
    0x3fff21690743402c, // n =  89: 1.9456568034838808
    0x3fff19a61711d41a, // n =  90: 1.9437619115026394
    0x3fff1206f7413e97, // n =  91: 1.9419011743920345
    0x3fff0a8a9b4f247d, // n =  92: 1.9400735918773357
    0x3fff03300185eec9, // n =  93: 1.9382782039164559
    0x3ffefbf632702759, // n =  94: 1.936514088653402
    0x3ffef4dc405468f2, // n =  95: 1.9347803604965148
    0x3ffeede146b95b43, // n =  96: 1.9330761683138042
    0x3ffee70469f11550, // n =  97: 1.93140069373597
    0x3ffee044d6ab6f3c, // n =  98: 1.92975314956034
    0x3ffed9a1c18ec8f3, // n =  99: 1.9281327782487636
    0x3ffed31a66d6c7c8, // n = 100: 1.9265388505123031
];

/// `std_normal_quantile(0.95)` as an `f64` bit pattern (1.6448536269514726):
/// both `z_q` and `z_C` of the served spec, so a 95/95 [`KFactorCache`]
/// resolves its expansion inputs without running `Phi^-1`. A unit test pins
/// it to the function.
const PAPER_Z_BITS: u64 = 0x3ffa515209676abd;

/// [`PAPER_K_FACTOR_BITS`] as values, `PAPER_K_FACTORS[i] == k(i + 2)`.
static PAPER_K_FACTORS: [f64; 99] = from_bits(PAPER_K_FACTOR_BITS);

const fn from_bits<const N: usize>(bits: [u64; N]) -> [f64; N] {
    let mut out = [0.0; N];
    let mut i = 0;
    while i < N {
        out[i] = f64::from_bits(bits[i]);
        i += 1;
    }
    out
}

/// Exact one-sided tolerance factor `k(n, q, confidence)`.
///
/// # Errors
///
/// Returns [`DistributionError`] if `n < 2`, or `q`/`confidence` are outside
/// `(0, 1)`.
///
/// # Examples
///
/// ```
/// // Published table value: n = 10, q = 0.95, C = 0.95 gives k = 2.911.
/// let k = qdelay_stats::tolerance::one_sided_k_factor(10, 0.95, 0.95)?;
/// assert!((k - 2.911).abs() < 0.01);
/// # Ok::<(), qdelay_stats::DistributionError>(())
/// ```
pub fn one_sided_k_factor(n: usize, q: f64, confidence: f64) -> Result<f64, DistributionError> {
    validate(n, q, confidence)?;
    let nf = n as f64;
    let delta = std_normal_quantile(q) * nf.sqrt();
    let t = NonCentralT::new(nf - 1.0, delta)?
        .quantile(confidence)
        .map_err(|e| DistributionError::numerical(e.to_string()))?;
    Ok(t / nf.sqrt())
}

/// Asymptotic (large-`n`) one-sided tolerance factor.
///
/// Uses the standard expansion `k ~ (z_q + sqrt(z_q^2 - a b)) / a` with
/// `a = 1 - z_C^2 / (2(n-1))` and `b = z_q^2 - z_C^2 / n`. Its error has a
/// sign: at 95/95 the expansion sits *below* the exact factor at every `n`
/// sampled in `[101, 5000]`, by up to 0.16 % at `n = 101`, so a bound built
/// on it is slightly liberal there (ROADMAP item 1 owns the fix). The
/// relative error is below `2e-3` for `n >= 100` and below `2e-4` for
/// `n >= 2000` (verified in tests).
///
/// # Errors
///
/// Returns [`DistributionError`] on the same invalid inputs as
/// [`one_sided_k_factor`], or if the expansion degenerates (only possible
/// for very small `n` with extreme confidence levels).
pub fn one_sided_k_factor_approx(
    n: usize,
    q: f64,
    confidence: f64,
) -> Result<f64, DistributionError> {
    validate(n, q, confidence)?;
    expansion(
        n,
        q,
        confidence,
        std_normal_quantile(q),
        std_normal_quantile(confidence),
    )
}

/// The expansion of [`one_sided_k_factor_approx`] from resolved normal
/// quantiles `zq = Phi^-1(q)` and `zc = Phi^-1(confidence)`: the one code
/// path behind the free function and [`KFactorCache::k_factor`]. `q` and
/// `confidence` only name the spec in the degenerate error; the caller has
/// validated them.
fn expansion(
    n: usize,
    q: f64,
    confidence: f64,
    zq: f64,
    zc: f64,
) -> Result<f64, DistributionError> {
    let nf = n as f64;
    let a = 1.0 - zc * zc / (2.0 * (nf - 1.0));
    let b = zq * zq - zc * zc / nf;
    let disc = zq * zq - a * b;
    if a <= 0.0 || disc < 0.0 {
        return Err(DistributionError::numerical(format!(
            "tolerance expansion degenerate for n={n}, q={q}, C={confidence}"
        )));
    }
    Ok((zq + disc.sqrt()) / a)
}

fn validate(n: usize, q: f64, confidence: f64) -> Result<(), DistributionError> {
    if n < 2 {
        return Err(DistributionError::insufficient_data(
            "tolerance factor needs n >= 2",
        ));
    }
    if !(q > 0.0 && q < 1.0 && confidence > 0.0 && confidence < 1.0) {
        return Err(DistributionError::invalid_param(format!(
            "q and confidence must be in (0,1), got q={q}, C={confidence}"
        )));
    }
    Ok(())
}

/// Memoizing tolerance-factor source for a fixed `(q, confidence)` pair.
///
/// Exact values are computed and cached for `n` up to
/// [`KFactorCache::exact_limit`]; larger samples use the asymptotic
/// expansion, which runs slightly *below* the exact factor there (up to
/// 0.16 % at `n = 101` for 95/95, so the served bound is slightly liberal;
/// ROADMAP item 1). The expansion's two normal quantiles are constants of
/// the spec, resolved once when the cache is made — for 95/95 from a
/// committed constant — so a lookup past the exact range costs a few
/// arithmetic operations. This is the form the log-normal predictor uses:
/// it refits on every epoch, with `n` growing by a few jobs each time, so
/// memoization by `n` removes nearly all cost.
///
/// # Examples
///
/// ```
/// use qdelay_stats::tolerance::KFactorCache;
/// let mut cache = KFactorCache::new(0.95, 0.95)?;
/// let k59 = cache.k_factor(59)?;
/// let k1000 = cache.k_factor(1000)?;
/// assert!(k59 > k1000); // more data, tighter bound
/// # Ok::<(), qdelay_stats::DistributionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KFactorCache {
    q: f64,
    confidence: f64,
    /// `Phi^-1(q)` and `Phi^-1(confidence)`, the expansion's inputs.
    zq: f64,
    zc: f64,
    exact_limit: usize,
    /// Exact factors, `exact[i] == k(i + 2)`; `None` until the first exact
    /// request adopts (or computes) the table for this spec.
    exact: Option<&'static [f64]>,
    /// Whether this cache ran the root-finds for its table itself, rather
    /// than adopting the committed one or one another cache published.
    computed: bool,
}

impl KFactorCache {
    /// Default crossover from exact to asymptotic evaluation. The
    /// asymptotic expansion is within 2e-3 relative error of the exact
    /// factor from n = 100 on (verified in tests), while exact evaluation
    /// costs ~10^6 floating-point operations (about 2 ms) per factor. The
    /// error is one-sided, not noise: at 95/95 the expansion is below the
    /// exact factor at every sampled `n` in `[101, 5000]`, by up to 0.16 %
    /// at `n = 101`, so the served bound just past this limit is slightly
    /// liberal (ROADMAP item 1 owns the fix).
    pub const DEFAULT_EXACT_LIMIT: usize = 100;

    /// Creates a cache for the given quantile and confidence level,
    /// resolving the expansion's `Phi^-1(q)` and `Phi^-1(confidence)` once:
    /// the served 95/95 spec reads them from a committed constant, any
    /// other spec computes them here.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] if `q` or `confidence` are outside
    /// `(0, 1)`.
    pub fn new(q: f64, confidence: f64) -> Result<Self, DistributionError> {
        validate(2, q, confidence)?;
        let (zq, zc) = if (q, confidence) == (0.95, 0.95) {
            let z = f64::from_bits(PAPER_Z_BITS);
            (z, z)
        } else {
            (std_normal_quantile(q), std_normal_quantile(confidence))
        };
        Ok(Self {
            q,
            confidence,
            zq,
            zc,
            exact_limit: Self::DEFAULT_EXACT_LIMIT,
            exact: None,
            computed: false,
        })
    }

    /// Overrides the exact/asymptotic crossover sample size.
    pub fn with_exact_limit(mut self, exact_limit: usize) -> Self {
        self.exact_limit = exact_limit;
        self.exact = None;
        self.computed = false;
        self
    }

    /// The quantile this cache serves.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The confidence level this cache serves.
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// The exact/asymptotic crossover sample size.
    pub fn exact_limit(&self) -> usize {
        self.exact_limit
    }

    /// Number of sizes `n` this cache serves from its exact table: 0 until
    /// the first exact request, then the whole range `[2, exact_limit]`,
    /// whether the table was adopted or computed
    /// ([`KFactorCache::computed_exact_table`] tells which).
    pub fn memoized_len(&self) -> usize {
        self.exact.map_or(0, <[f64]>::len)
    }

    /// Whether this cache paid the noncentral-t root-finds for its exact
    /// table itself. Adopting the committed 95/95 table, or a table another
    /// cache in this process already computed, leaves it `false`.
    pub fn computed_exact_table(&self) -> bool {
        self.computed
    }

    /// Returns `k(n, q, C)`, computing at most once per distinct `n`
    /// *per process*.
    ///
    /// The first exact request takes the whole contiguous range
    /// `[2, exact_limit]` at once: predictors walk `n` upward a few samples
    /// at a time, so every size in the range is needed eventually. For the
    /// served 95/95 spec at the default limit that range is the committed
    /// table, read from a `static`. Any other spec is computed by one
    /// warm-started walk of [`one_sided_k_factor`]'s root-find over the
    /// range and published in a process-wide registry keyed by
    /// `(q, C, exact_limit)`; every other cache with the same spec adopts
    /// it instead of recomputing, so per-partition predictors cost O(1) to
    /// warm no matter how many partitions a process holds. Past the exact
    /// range the factor is the expansion of [`one_sided_k_factor_approx`],
    /// bit for bit, from the quantiles this cache resolved when it was made.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] if `n < 2`, or if the expansion
    /// degenerates (see [`one_sided_k_factor_approx`]).
    pub fn k_factor(&mut self, n: usize) -> Result<f64, DistributionError> {
        validate(n, self.q, self.confidence)?;
        if n > self.exact_limit {
            return expansion(n, self.q, self.confidence, self.zq, self.zc);
        }
        let table = match self.exact {
            Some(table) => table,
            None => self.adopt_exact()?,
        };
        Ok(table[n - 2])
    }

    /// Adopts the exact table for this cache's spec: the committed one for
    /// 95/95, else the registry's, computing and publishing it if this is
    /// the first cache in the process to ask.
    fn adopt_exact(&mut self) -> Result<&'static [f64], DistributionError> {
        if (self.q, self.confidence, self.exact_limit) == (0.95, 0.95, Self::DEFAULT_EXACT_LIMIT) {
            self.exact = Some(&PAPER_K_FACTORS);
            return Ok(&PAPER_K_FACTORS);
        }
        let key = (self.q.to_bits(), self.confidence.to_bits(), self.exact_limit);
        let shared = SHARED_EXACT.get_or_init(|| Mutex::new(HashMap::new()));
        let found = shared
            .lock()
            .expect("k-factor registry poisoned")
            .get(&key)
            .copied();
        let table = match found {
            Some(table) => table,
            None => {
                // Compute outside the lock: a racing cache recomputes the
                // identical (deterministic) table and the entry API keeps
                // the first winner, so every adopter shares one allocation.
                let table = exact_walk(self.q, self.confidence, self.exact_limit)?;
                self.computed = true;
                *shared
                    .lock()
                    .expect("k-factor registry poisoned")
                    .entry(key)
                    .or_insert_with(|| Vec::leak(table))
            }
        };
        self.exact = Some(table);
        Ok(table)
    }
}

/// The exact factors `k(2), ..., k(exact_limit)` by one sequential walk:
/// each root-find warm-starts from its neighbor (`t ~ k(n-1) * sqrt(n)` is
/// an excellent bracket center), so the amortized cost per size is a
/// handful of CDF evaluations instead of a cold `brent_expand` search.
fn exact_walk(q: f64, confidence: f64, exact_limit: usize) -> Result<Vec<f64>, DistributionError> {
    let mut table = Vec::with_capacity(exact_limit.saturating_sub(1));
    let mut k_prev: Option<f64> = None;
    for n in 2..=exact_limit {
        let nf = n as f64;
        let delta = std_normal_quantile(q) * nf.sqrt();
        let dist = NonCentralT::new(nf - 1.0, delta)?;
        let t = match k_prev {
            Some(k) => dist.quantile_from(confidence, k * nf.sqrt()),
            None => dist.quantile(confidence),
        }
        .map_err(|e| DistributionError::numerical(e.to_string()))?;
        let k = t / nf.sqrt();
        table.push(k);
        k_prev = Some(k);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_table_values() {
        // One-sided normal tolerance factors, q = 0.95, C = 0.95
        // (Guttman / NIST tables).
        let table = [
            (10usize, 2.911),
            (15, 2.566),
            (20, 2.396),
            (30, 2.220),
            (50, 2.065),
            (100, 1.927),
        ];
        for (n, expect) in table {
            let k = one_sided_k_factor(n, 0.95, 0.95).unwrap();
            assert!(
                (k - expect).abs() < 0.01,
                "n={n}: k={k}, published {expect}"
            );
        }
    }

    #[test]
    fn matches_published_q90_values() {
        // q = 0.90, C = 0.95 one-sided factors.
        let table = [(10usize, 2.355), (30, 1.777), (100, 1.527)];
        for (n, expect) in table {
            let k = one_sided_k_factor(n, 0.90, 0.95).unwrap();
            assert!((k - expect).abs() < 0.012, "n={n}: k={k}, want {expect}");
        }
    }

    #[test]
    fn approx_converges_to_exact() {
        for &n in &[100usize, 500, 2000] {
            let exact = one_sided_k_factor(n, 0.95, 0.95).unwrap();
            let approx = one_sided_k_factor_approx(n, 0.95, 0.95).unwrap();
            let rel = ((approx - exact) / exact).abs();
            let tol = if n >= 2000 {
                2e-4
            } else if n >= 500 {
                1e-3
            } else {
                2e-3
            };
            assert!(rel < tol, "n={n}: exact={exact}, approx={approx}, rel={rel}");
        }
    }

    #[test]
    fn k_decreases_with_n_toward_z() {
        // As n -> inf, k -> z_q (the bound converges to the quantile).
        let z95 = std_normal_quantile(0.95);
        let mut prev = f64::INFINITY;
        for &n in &[5usize, 10, 50, 200, 1000] {
            let k = one_sided_k_factor(n, 0.95, 0.95).unwrap();
            assert!(k < prev, "k must decrease with n");
            assert!(k > z95);
            prev = k;
        }
        let k_big = one_sided_k_factor_approx(1_000_000, 0.95, 0.95).unwrap();
        assert!((k_big - z95).abs() < 0.01);
    }

    #[test]
    fn cache_consistency() {
        let mut cache = KFactorCache::new(0.95, 0.95).unwrap();
        let a = cache.k_factor(59).unwrap();
        let b = cache.k_factor(59).unwrap();
        assert_eq!(a, b);
        // Warm-started prefill values agree with the cold root-find to well
        // inside the 1e-10 root tolerance.
        let exact = one_sided_k_factor(59, 0.95, 0.95).unwrap();
        assert!((a - exact).abs() < 1e-8, "cached {a} vs exact {exact}");
        // Above the limit, approx is served.
        let big = cache.k_factor(50_000).unwrap();
        let approx = one_sided_k_factor_approx(50_000, 0.95, 0.95).unwrap();
        assert_eq!(big, approx);
    }

    #[test]
    fn first_miss_prefills_contiguous_range() {
        let mut cache = KFactorCache::new(0.95, 0.95).unwrap().with_exact_limit(40);
        assert_eq!(cache.memoized_len(), 0);
        cache.k_factor(17).unwrap();
        // One miss fills every exact size: [2, 40] is 39 entries.
        assert_eq!(cache.memoized_len(), 39);
        // Every prefilled value matches its cold counterpart.
        for n in [2usize, 3, 10, 25, 40] {
            let warm = cache.k_factor(n).unwrap();
            let cold = one_sided_k_factor(n, 0.95, 0.95).unwrap();
            assert!(
                (warm - cold).abs() < 1e-8,
                "n={n}: prefilled {warm} vs cold {cold}"
            );
        }
        assert_eq!(cache.memoized_len(), 39, "lookups stay memoized");
    }

    #[test]
    fn committed_paper_table_is_what_the_exact_walk_computes() {
        let walked = exact_walk(0.95, 0.95, KFactorCache::DEFAULT_EXACT_LIMIT).unwrap();
        assert_eq!(walked.len(), PAPER_K_FACTOR_BITS.len());
        for (i, (k, &bits)) in walked.iter().zip(&PAPER_K_FACTOR_BITS).enumerate() {
            assert_eq!(
                k.to_bits(),
                bits,
                "n = {}: walked {k} vs committed {}",
                i + 2,
                f64::from_bits(bits)
            );
        }
    }

    #[test]
    fn paper_spec_adopts_the_committed_table_and_other_specs_compute_once() {
        let mut paper = KFactorCache::new(0.95, 0.95).unwrap();
        let k59 = paper.k_factor(59).unwrap();
        assert_eq!(k59.to_bits(), PAPER_K_FACTOR_BITS[57]);
        assert_eq!(paper.memoized_len(), 99);
        assert!(!paper.computed_exact_table());
        // A spec no other test asks for: the first cache walks, the second
        // adopts the published table.
        let mut first = KFactorCache::new(0.9, 0.9).unwrap().with_exact_limit(12);
        let mut second = first.clone();
        let k = first.k_factor(7).unwrap();
        assert!(first.computed_exact_table());
        assert_eq!(second.k_factor(7).unwrap().to_bits(), k.to_bits());
        assert!(!second.computed_exact_table());
        assert_eq!(second.memoized_len(), 11);
    }

    #[test]
    fn committed_paper_z_is_the_normal_quantile() {
        assert_eq!(PAPER_Z_BITS, std_normal_quantile(0.95).to_bits());
    }

    #[test]
    fn cache_expansion_is_the_free_expansion_bit_for_bit() {
        // (0.9, 0.99) has q != C, so a swap of z_q and z_C shows there.
        let specs = [(0.95, 0.95), (0.05, 0.95), (0.5, 0.95), (0.75, 0.95), (0.9, 0.99)];
        let sizes = (101..=100_000).chain((100_000..=10_000_000).step_by(997));
        for (q, c) in specs {
            let mut cache = KFactorCache::new(q, c).unwrap();
            for n in sizes.clone() {
                let free = one_sided_k_factor_approx(n, q, c).unwrap();
                assert_eq!(
                    cache.k_factor(n).unwrap().to_bits(),
                    free.to_bits(),
                    "q={q}, C={c}, n={n}"
                );
            }
            assert_eq!(cache.memoized_len(), 0, "no exact table was needed");
        }
    }

    #[test]
    fn cache_expansion_degenerates_with_the_free_error() {
        // z_C ~ 7.03, so a = 1 - z_C^2 / (2(n-1)) <= 0 up to n = 25.
        let (q, c) = (0.9, 1.0 - 1e-12);
        let mut cache = KFactorCache::new(q, c).unwrap().with_exact_limit(2);
        for n in [3usize, 10, 25] {
            let err = cache.k_factor(n).unwrap_err();
            assert_eq!(err.kind(), crate::DistributionErrorKind::Numerical);
            assert_eq!(Err(err), one_sided_k_factor_approx(n, q, c), "n={n}");
        }
        let free = one_sided_k_factor_approx(30, q, c).unwrap();
        assert_eq!(cache.k_factor(30).unwrap().to_bits(), free.to_bits());
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(one_sided_k_factor(1, 0.95, 0.95).is_err());
        assert!(one_sided_k_factor(10, 0.0, 0.95).is_err());
        assert!(one_sided_k_factor(10, 0.95, 1.0).is_err());
        assert!(KFactorCache::new(1.0, 0.5).is_err());
    }
}
