//! # qdelay-rng
//!
//! First-party deterministic pseudo-random number generation for the qdelay
//! workspace. The container environments the workspace targets are fully
//! offline, so the synthetic-trace generators cannot rely on external RNG
//! crates; this crate supplies the small surface they actually need:
//!
//! * [`StdRng`] — a xoshiro256++ generator seeded through SplitMix64, the
//!   workspace's single source of randomness. Everything downstream of a
//!   seed is bit-for-bit deterministic across platforms and thread counts,
//!   which the per-cell seeding scheme of `qdelay_sim::paper` depends on.
//! * [`Rng`] — the operations generators are written against (`next_u64`,
//!   uniform `f64`, ranges), so samplers stay generic over the engine.
//! * [`Distribution`] and the samplers [`Normal`], [`StandardNormal`],
//!   [`Exp1`], [`Pareto`] — the distributions the calibrated workload
//!   generators draw from.
//!
//! All algorithms are fixed: changing any sampling algorithm is a breaking
//! change to every golden number in the repository, and is guarded by the
//! golden-table regression tests at the workspace root.
//!
//! # Examples
//!
//! ```
//! use qdelay_rng::{Distribution, Normal, Rng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let u: f64 = rng.gen_f64();
//! assert!((0.0..1.0).contains(&u));
//! let n = Normal::new(5.0, 2.0).unwrap();
//! let x = n.sample(&mut rng);
//! assert!(x.is_finite());
//! ```

/// Error constructing a distribution with invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistrError {
    message: &'static str,
}

impl std::fmt::Display for DistrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for DistrError {}

/// The random-engine operations samplers are written against.
///
/// Only `next_u64` is required; everything else derives from it, so any
/// future engine (e.g. a counter-based one for sharded replay) plugs in by
/// implementing one method.
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn gen_f64(&mut self) -> f64 {
        // Take the top 53 bits: the standard conversion, unbiased over the
        // representable grid.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `(0, 1]` — safe to pass to `ln`.
    fn gen_f64_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `usize` in `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "gen_range requires a non-empty range");
        let span = (range.end - range.start) as u64;
        // Multiply-shift rejection-free mapping (Lemire); the tiny bias for
        // astronomically large spans is irrelevant at trace scale.
        let hi = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        range.start + hi as usize
    }

    /// Bernoulli draw with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }
}

/// xoshiro256++ — the workspace's standard engine.
///
/// Small state, excellent statistical quality, and trivially portable; the
/// name mirrors the role `rand::rngs::StdRng` played before the workspace
/// went dependency-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Seeds the engine from a single `u64` by running SplitMix64, the
    /// reference seeding procedure for the xoshiro family (it guarantees a
    /// non-zero state for every seed).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }
}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A sampling distribution over `T`.
pub trait Distribution<T> {
    /// Draws one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

/// The standard normal distribution `N(0, 1)`.
///
/// Sampled by the Box–Muller transform (one draw consumes two uniforms and
/// keeps only the cosine branch — slightly wasteful, but stateless, which
/// keeps `Distribution` implementors `Copy` and sampling order independent
/// of call sites).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StandardNormal;

impl Distribution<f64> for StandardNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u1 = rng.gen_f64_open();
        let u2 = rng.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// The normal distribution `N(mean, sd^2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError`] if `sd` is negative or either parameter is
    /// non-finite.
    pub fn new(mean: f64, sd: f64) -> Result<Self, DistrError> {
        if !mean.is_finite() || !sd.is_finite() || sd < 0.0 {
            return Err(DistrError {
                message: "normal requires finite mean and non-negative sd",
            });
        }
        Ok(Self { mean, sd })
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.sd * StandardNormal.sample(rng)
    }
}

/// The unit exponential distribution `Exp(1)`, by CDF inversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Exp1;

impl Distribution<f64> for Exp1 {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        -rng.gen_f64_open().ln()
    }
}

/// The Pareto distribution with scale `x_m` and shape `alpha`, by CDF
/// inversion: `x = x_m * u^(-1/alpha)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Errors
    ///
    /// Returns [`DistrError`] unless both `scale` and `alpha` are positive
    /// and finite.
    pub fn new(scale: f64, alpha: f64) -> Result<Self, DistrError> {
        if !(scale > 0.0 && scale.is_finite() && alpha > 0.0 && alpha.is_finite()) {
            return Err(DistrError {
                message: "pareto requires positive finite scale and alpha",
            });
        }
        Ok(Self { scale, alpha })
    }
}

impl Distribution<f64> for Pareto {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.scale * rng.gen_f64_open().powf(-1.0 / self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(100);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let u = rng.gen_f64();
            assert!((0.0..1.0).contains(&u));
            let v = rng.gen_f64_open();
            assert!(v > 0.0 && v <= 1.0);
        }
    }

    #[test]
    fn gen_range_covers_and_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let x = rng.gen_range(3..13);
            assert!((3..13).contains(&x));
            seen[x - 3] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of a small range hit");
    }

    #[test]
    #[should_panic(expected = "non-empty range")]
    fn gen_range_rejects_empty() {
        StdRng::seed_from_u64(0).gen_range(5..5);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200_000;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..n {
            let z = StandardNormal.sample(&mut rng);
            sum += z;
            sum_sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn exponential_mean_is_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 100_000;
        let mean = (0..n).map(|_| Exp1.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn pareto_exceeds_scale_and_is_heavy() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = Pareto::new(2.0, 1.5).unwrap();
        let sample: Vec<f64> = (0..50_000).map(|_| p.sample(&mut rng)).collect();
        assert!(sample.iter().all(|&x| x >= 2.0));
        // Theoretical mean alpha*xm/(alpha-1) = 6.
        let mean = sample.iter().sum::<f64>() / sample.len() as f64;
        assert!((mean - 6.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = StdRng::seed_from_u64(6);
        let d = Normal::new(10.0, 0.5).unwrap();
        let n = 100_000;
        let mean = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Pareto::new(0.0, 1.0).is_err());
        assert!(Pareto::new(1.0, f64::INFINITY).is_err());
    }
}
