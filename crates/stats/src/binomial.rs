//! The binomial distribution.
//!
//! This is the mathematical heart of BMBP (paper §4.1 and the appendix): the
//! number of sample values below the population quantile `X_q` is
//! `Binomial(n, q)`, so confidence bounds on quantiles reduce to binomial
//! CDF evaluations. The CDF is computed exactly through the regularized
//! incomplete beta function, so it is stable for `n` in the millions —
//! no term-by-term summation is involved.

use crate::special::{inc_beta, ln_choose};

/// A binomial distribution with `n` trials and success probability `p`.
///
/// # Examples
///
/// ```
/// use qdelay_stats::binomial::Binomial;
/// let b = Binomial::new(59, 0.95)?;
/// // P[all 59 below the 0.95 quantile] is just under 5%:
/// // this is why 59 is the minimum history for a 95/95 bound (paper §4.1).
/// assert!(b.cdf(58) >= 0.95);
/// # Ok::<(), qdelay_stats::DistributionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates a binomial distribution.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DistributionError`] if `p` is outside `[0, 1]` or not
    /// finite.
    pub fn new(n: u64, p: f64) -> Result<Self, crate::DistributionError> {
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            return Err(crate::DistributionError::invalid_param(format!(
                "binomial requires p in [0,1], got {p}"
            )));
        }
        Ok(Self { n, p })
    }

    /// Number of trials.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Probability mass function `P[X = k]`.
    pub fn pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return 0.0;
        }
        if self.p == 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        if self.p == 1.0 {
            return if k == self.n { 1.0 } else { 0.0 };
        }
        (ln_choose(self.n, k)
            + k as f64 * self.p.ln()
            + (self.n - k) as f64 * (1.0 - self.p).ln())
        .exp()
    }

    /// Cumulative distribution function `P[X <= k]`.
    ///
    /// Exact via `I_{1-p}(n-k, k+1)`; no summation, so this is O(1) in `k`
    /// and numerically stable for very large `n`.
    pub fn cdf(&self, k: u64) -> f64 {
        if k >= self.n {
            return 1.0;
        }
        if self.p == 0.0 {
            return 1.0;
        }
        if self.p == 1.0 {
            return 0.0;
        }
        inc_beta(1.0 - self.p, (self.n - k) as f64, k as f64 + 1.0)
    }

    /// Survival function `P[X > k] = 1 - cdf(k)`, computed directly for tail
    /// precision.
    pub fn sf(&self, k: u64) -> f64 {
        if k >= self.n {
            return 0.0;
        }
        if self.p == 0.0 {
            return 0.0;
        }
        if self.p == 1.0 {
            return 1.0;
        }
        inc_beta(self.p, k as f64 + 1.0, (self.n - k) as f64)
    }

    /// Smallest `k` such that `cdf(k) >= level`.
    ///
    /// This is the binomial quantile; BMBP's order-statistic index is a thin
    /// wrapper around it. Uses a normal-approximation initial guess plus a
    /// local search, then falls back to binary search, so it is `O(log n)`
    /// CDF evaluations in the worst case.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `(0, 1]`.
    pub fn quantile(&self, level: f64) -> u64 {
        assert!(
            level > 0.0 && level <= 1.0,
            "binomial quantile level must be in (0,1], got {level}"
        );
        if self.p == 0.0 {
            return 0;
        }
        if self.p == 1.0 {
            return self.n;
        }
        // Initial guess from the CLT.
        let mean = self.n as f64 * self.p;
        let sd = (self.n as f64 * self.p * (1.0 - self.p)).sqrt();
        let z = if level >= 1.0 {
            8.0
        } else {
            crate::normal::std_normal_quantile(level)
        };
        let guess = (mean + z * sd).round().clamp(0.0, self.n as f64) as u64;
        // Establish a bracket [lo, hi] with cdf(lo) < level <= cdf(hi).
        let mut hi = guess;
        while hi < self.n && self.cdf(hi) < level {
            hi = (hi + 1 + hi / 8).min(self.n);
        }
        let mut lo = guess.min(hi);
        while lo > 0 && self.cdf(lo - 1) >= level {
            lo = lo.saturating_sub(1 + lo / 8);
        }
        // Binary search for the smallest k with cdf(k) >= level.
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.cdf(mid) >= level {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        let b = Binomial::new(40, 0.3).unwrap();
        let total: f64 = (0..=40).map(|k| b.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_matches_summed_pmf() {
        let b = Binomial::new(30, 0.62).unwrap();
        let mut acc = 0.0;
        for k in 0..=30 {
            acc += b.pmf(k);
            assert!(
                (b.cdf(k) - acc).abs() < 1e-11,
                "cdf mismatch at k={k}: {} vs {acc}",
                b.cdf(k)
            );
        }
    }

    #[test]
    fn sf_complements_cdf() {
        let b = Binomial::new(100, 0.95).unwrap();
        for k in 0..100 {
            assert!((b.cdf(k) + b.sf(k) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_minimum_history_is_59() {
        // Paper §4.1: the smallest n for which a 95%-confidence upper bound
        // on the 0.95 quantile exists is 59, i.e. P[Bin(n,.95) <= n-1] >= .95
        // iff 1 - .95^n >= .95 iff n >= 59.
        for n in 1..59u64 {
            let b = Binomial::new(n, 0.95).unwrap();
            assert!(b.cdf(n - 1) < 0.95, "n={n} should be insufficient");
        }
        let b = Binomial::new(59, 0.95).unwrap();
        assert!(b.cdf(58) >= 0.95);
    }

    #[test]
    fn quantile_is_minimal() {
        let b = Binomial::new(200, 0.4).unwrap();
        for &level in &[0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999] {
            let k = b.quantile(level);
            assert!(b.cdf(k) >= level);
            if k > 0 {
                assert!(b.cdf(k - 1) < level, "quantile not minimal at {level}");
            }
        }
    }

    #[test]
    fn quantile_large_n() {
        // Must stay fast and correct at trace scale (n ~ 350k).
        let b = Binomial::new(356_487, 0.95).unwrap();
        let k = b.quantile(0.95);
        // CLT check: k ~ n q + z sqrt(nq(1-q)) = 338662.65 + 1.645*130.1
        let expect = 356_487.0 * 0.95 + 1.645 * (356_487.0f64 * 0.95 * 0.05).sqrt();
        assert!((k as f64 - expect).abs() < 3.0, "k={k}, expect~{expect}");
    }

    #[test]
    fn degenerate_p() {
        let b0 = Binomial::new(10, 0.0).unwrap();
        assert_eq!(b0.quantile(0.99), 0);
        assert_eq!(b0.cdf(0), 1.0);
        let b1 = Binomial::new(10, 1.0).unwrap();
        assert_eq!(b1.quantile(0.5), 10);
        assert_eq!(b1.pmf(10), 1.0);
    }

    #[test]
    fn rejects_bad_p() {
        assert!(Binomial::new(10, -0.1).is_err());
        assert!(Binomial::new(10, 1.1).is_err());
        assert!(Binomial::new(10, f64::NAN).is_err());
    }
}
