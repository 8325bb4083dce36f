//! The normal (Gaussian) distribution.
//!
//! Provides the standard-normal CDF/quantile pair used throughout the
//! predictors (`z*` critical values, CLT approximations to the binomial).

use crate::special::erfc;

/// Standard normal cumulative distribution function `Phi(x)`.
///
/// Full double precision in the body and right tail; the left tail is
/// computed through [`erfc`] so that e.g. `std_normal_cdf(-10.0)` retains
/// relative precision.
///
/// # Examples
///
/// ```
/// let p = qdelay_stats::normal::std_normal_cdf(1.96);
/// assert!((p - 0.975).abs() < 1e-3);
/// ```
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal quantile function (inverse CDF) `Phi^{-1}(p)`.
///
/// Uses Acklam's rational approximation refined by one Halley step against
/// the exact CDF, giving close to full double precision.
///
/// # Panics
///
/// Panics if `p` is not in the open interval `(0, 1)`.
///
/// # Examples
///
/// ```
/// let z = qdelay_stats::normal::std_normal_quantile(0.975);
/// assert!((z - 1.959_963_984_540_054).abs() < 1e-9);
/// ```
pub fn std_normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "std_normal_quantile: p must be in (0,1), got {p}"
    );
    // Acklam's algorithm.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step.
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_reference_values() {
        // Values from standard normal tables / mpmath.
        let cases = [
            (0.0, 0.5),
            (1.0, 0.841_344_746_068_542_9),
            (-1.0, 0.158_655_253_931_457_05),
            (1.644_853_626_951_472_7, 0.95),
            (1.959_963_984_540_054, 0.975),
            (2.326_347_874_040_841, 0.99),
            (3.0, 0.998_650_101_968_369_9),
        ];
        for (x, p) in cases {
            assert!(
                (std_normal_cdf(x) - p).abs() < 1e-12,
                "cdf({x}) = {} != {p}",
                std_normal_cdf(x)
            );
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        for i in 1..999 {
            let p = i as f64 / 1000.0;
            let x = std_normal_quantile(p);
            assert!(
                (std_normal_cdf(x) - p).abs() < 1e-12,
                "round-trip failed at p={p}"
            );
        }
    }

    #[test]
    fn quantile_extreme_tails() {
        let z = std_normal_quantile(1e-10);
        assert!((std_normal_cdf(z) - 1e-10).abs() / 1e-10 < 1e-6);
        let z = std_normal_quantile(1.0 - 1e-12);
        assert!(z > 6.0 && z < 8.0);
    }

    #[test]
    fn left_tail_precision() {
        // Phi(-8) = 1 - Phi(8) = 6.22096057427178e-16 (mpmath)
        let s = std_normal_cdf(-8.0);
        assert!((s - 6.220_960_574_271_78e-16).abs() / 6.2e-16 < 1e-8);
    }

    #[test]
    fn critical_values() {
        // The z* values the paper's appendix uses.
        assert!((std_normal_quantile(0.95) - 1.644_853_626_951_472_7).abs() < 1e-10);
    }
}
