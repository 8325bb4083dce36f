//! Calibrated synthetic workload generation.
//!
//! The archival logs behind the paper's Table 1 are not redistributable, so
//! experiments run on synthetic traces *calibrated to the published
//! statistics of each row*. The generator reproduces the features the paper
//! documents and that the predictors are sensitive to:
//!
//! * **heavy-tailed marginals** — waits are regime-shifted log-normals with
//!   a Pareto tail mixture; the log-scale `sigma` comes from the published
//!   mean/median ratio (`mean/median = exp(sigma^2/2)` for a log-normal) and
//!   the generated series is rescaled so its median matches the row exactly;
//! * **autocorrelation** — an AR(1) process in log space (the paper's §4.1
//!   Monte Carlo uses exactly this structure for its calibration);
//! * **nonstationarity** — piecewise regimes whose log-means jump at random
//!   change points, modeling the administrator policy changes the paper
//!   describes; the LANL `short` anomaly (a late surge of long waits, §6.1)
//!   is reproduced by an explicit end-of-trace jolt;
//! * **diurnal/weekly arrival cycles** — submission times follow a
//!   rate-modulated renewal process;
//! * **processor-count effects** — per-job processor counts follow the
//!   profile's mix, and wait times carry a configurable log-space bias per
//!   processor range so that per-range conditional distributions genuinely
//!   differ (§6.2).
//!
//! Everything is deterministic given the seed.

use crate::catalog::QueueProfile;
use crate::{JobRecord, ProcRange, Trace};
use qdelay_rng::{Distribution, Exp1, Normal, Pareto, Rng, StandardNormal, StdRng};
use qdelay_stats::describe::quantile;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Sampling weights over the four processor ranges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcMix {
    weights: [f64; 4],
}

impl ProcMix {
    /// Creates a mix, normalizing the weights to sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or all are zero.
    pub fn new(weights: [f64; 4]) -> Self {
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "weights must be non-negative"
        );
        let sum: f64 = weights.iter().sum();
        assert!(sum > 0.0, "at least one weight must be positive");
        Self {
            weights: [
                weights[0] / sum,
                weights[1] / sum,
                weights[2] / sum,
                weights[3] / sum,
            ],
        }
    }

    /// The normalized weights, in [`ProcRange::ALL`] order.
    pub fn weights(&self) -> [f64; 4] {
        self.weights
    }

    /// Samples a processor range.
    pub fn sample_range<R: Rng>(&self, rng: &mut R) -> ProcRange {
        let u: f64 = rng.gen_f64();
        let mut acc = 0.0;
        for (i, &w) in self.weights.iter().enumerate() {
            acc += w;
            if u < acc {
                return ProcRange::ALL[i];
            }
        }
        ProcRange::ALL[3]
    }

    /// Samples a concrete processor count: a range by weight, then a
    /// size-skewed value within the range (small counts are more common, as
    /// in real logs).
    pub fn sample_procs<R: Rng>(&self, rng: &mut R) -> u32 {
        let range = self.sample_range(rng);
        let (lo, hi) = range.bounds();
        let hi = hi.unwrap_or(256);
        // Inverse-square-ish skew toward the low end of the range.
        let u: f64 = rng.gen_f64();
        let span = (hi - lo) as f64;
        lo + (span * u * u).floor() as u32
    }
}

/// Tuning knobs for the generator. The defaults reproduce the qualitative
/// behaviour described in the paper; experiments override specific fields
/// (e.g. the Figure 2 scenario flips `proc_bias` negative for the month
/// where large jobs were favored).
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSettings {
    /// Master seed; each profile derives an independent stream from it.
    pub seed: u64,
    /// Lag-1 autocorrelation of the log-wait AR(1) process.
    pub ar1: f64,
    /// Average regime duration, days (policy-change cadence).
    pub regime_days: f64,
    /// Regime log-mean jump scale, as a fraction of the marginal log sigma.
    pub regime_spread_frac: f64,
    /// Probability a wait receives a Pareto tail multiplier.
    pub tail_weight: f64,
    /// Pareto tail index (smaller = heavier).
    pub tail_alpha: f64,
    /// Log-space wait bias per processor-range step above the smallest
    /// (positive = bigger jobs wait longer).
    pub proc_bias: f64,
    /// Amplitude of the diurnal arrival-rate modulation in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Weekend arrival-rate multiplier.
    pub weekend_factor: f64,
    /// Probability a job starts (near-)immediately — the backfill
    /// "instant start" mass that makes real wait marginals zero-inflated
    /// rather than log-normal.
    pub instant_start_weight: f64,
    /// Soft upper compression point, in log-sigmas above the log-mean.
    /// Real queues cannot produce the months-long waits a fitted
    /// log-normal's far tail implies (schedulers drain, admins intervene),
    /// so waits beyond `exp(mu + upper_compression * sigma)` are
    /// log-compressed toward it. Set very large to disable.
    pub upper_compression: f64,
}

impl Default for SynthSettings {
    fn default() -> Self {
        Self {
            seed: 42,
            ar1: 0.45,
            regime_days: 45.0,
            regime_spread_frac: 0.35,
            tail_weight: 0.03,
            tail_alpha: 1.1,
            proc_bias: 0.25,
            diurnal_amplitude: 0.6,
            weekend_factor: 0.6,
            instant_start_weight: 0.22,
            upper_compression: 2.6,
        }
    }
}

impl SynthSettings {
    /// Default settings with a specific seed.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// Derives the log-normal scale from a row's published mean/median ratio,
/// clamped to a plausible band.
fn sigma_from_ratio(mean: f64, median: f64) -> f64 {
    if mean > median && median > 0.0 {
        (2.0 * (mean / median).ln()).sqrt().clamp(0.25, 3.5)
    } else {
        // schammpq-style near-symmetric queue (median >= mean): a real
        // log-normal cannot produce this; use a tight spread.
        0.3
    }
}

fn mix_seed(master: u64, profile: &QueueProfile) -> u64 {
    // FNV-1a over machine/queue so each trace gets an independent stream.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ master;
    for b in profile
        .machine
        .bytes()
        .chain([b'/'])
        .chain(profile.queue.bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Generates a synthetic trace calibrated to one Table 1 row.
///
/// The result has exactly `profile.job_count` jobs, submission times
/// spanning the profile's date range with diurnal/weekly structure, and a
/// wait-time series whose median matches the row (by construction) and
/// whose mean/standard-deviation reproduce the published heavy-tail shape.
///
/// # Examples
///
/// ```
/// use qdelay_trace::{catalog, synth};
///
/// let profile = catalog::find("datastar", "normal").expect("catalog row");
/// let trace = synth::generate(&profile, &synth::SynthSettings::with_seed(7));
/// assert_eq!(trace.len() as u64, profile.job_count);
/// let s = trace.summary().unwrap();
/// assert!(s.mean > s.median); // heavy tail preserved
/// ```
pub fn generate(profile: &QueueProfile, settings: &SynthSettings) -> Trace {
    let n = profile.job_count as usize;
    let mut rng = StdRng::seed_from_u64(mix_seed(settings.seed, profile));
    if n == 0 {
        return Trace::new(profile.machine, profile.queue);
    }

    let submits = arrival_times(profile, settings, &mut rng, n);
    let procs: Vec<u32> = (0..n)
        .map(|_| profile.proc_mix.sample_procs(&mut rng))
        .collect();
    let waits = wait_series(profile, settings, &mut rng, n, &procs);
    let runtime_dist = Normal::new(8.2f64, 1.0).expect("valid normal"); // ln-space, median ~1 h

    // One allocation at the final length. The submits are already in
    // order (`arrival_times` is non-decreasing), so `from_jobs` sorts
    // nothing.
    let jobs = (0..n)
        .map(|i| JobRecord {
            submit: submits[i],
            wait_secs: waits[i],
            procs: procs[i],
            run_secs: runtime_dist.sample(&mut rng).exp().clamp(1.0, 7.0 * 86_400.0),
        })
        .collect();
    Trace::from_jobs(profile.machine, profile.queue, jobs)
}

/// Generates traces for a whole catalog with one master seed, in catalog
/// order — the traces `generate` makes of each profile, bit for bit.
///
/// Each trace draws from its own stream, so the profiles are generated on
/// [`std::thread::available_parallelism`] workers, largest first (the
/// biggest queue is over a quarter of the Table 1 catalog). The workers are
/// bounded: one thread per profile would hold every profile's scratch
/// vectors at once and raise peak memory by about a third.
pub fn generate_catalog(profiles: &[QueueProfile], settings: &SynthSettings) -> Vec<Trace> {
    let mut largest_first: Vec<usize> = (0..profiles.len()).collect();
    largest_first.sort_by_key(|&i| std::cmp::Reverse(profiles[i].job_count));
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let mut made: Vec<(usize, Trace)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(profiles.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut made = Vec::new();
                    while let Some(&i) = largest_first.get(next.fetch_add(1, Ordering::Relaxed)) {
                        made.push((i, generate(&profiles[i], settings)));
                    }
                    made
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a synthesis worker panicked"))
            .collect()
    });
    made.sort_unstable_by_key(|&(i, _)| i);
    made.into_iter().map(|(_, trace)| trace).collect()
}

/// The arrival-rate multiplier at `t` seconds into a trace: busy
/// mid-afternoon, quiet weekends (days 5 and 6), never below 0.05. Shared by
/// this generator and batchsim's workload, so that both modulate their
/// renewal arrivals alike.
pub fn arrival_rate(t: f64, diurnal_amplitude: f64, weekend_factor: f64) -> f64 {
    let hour = hour_of_day(t / 3600.0);
    let day = ((t / 86_400.0) as u64) % 7;
    let diurnal = 1.0 + diurnal_amplitude * ((hour - 14.0) / 24.0 * std::f64::consts::TAU).cos();
    let weekly = if day >= 5 { weekend_factor } else { 1.0 };
    (diurnal * weekly).max(0.05)
}

/// `hours % 24.0` for `0 <= hours < 2^49`, bit for bit, without libm's
/// `fmod`, which returns the representable `hours - 24n` for
/// `n = floor(hours / 24)`.
///
/// `floor(fl(hours / 24))` is `n`. A quotient below an integer `m` lies at
/// least `ulp(hours) / 24` below it, which is 2/3 or 4/3 of `ulp(m)` (24 is
/// three times a power of two), while rounding onto `m` needs it to lie
/// less than `ulp(m) / 2` below; and rounding never carries a quotient at
/// or above `n` below it. `24n` is an integer no larger than `hours`, which
/// is below 2^49, so the product is exact, and `hours - 24n` is exact too:
/// it is `hours` itself when `n` is 0, and otherwise `24n` lies within a
/// factor of two of `hours` (Sterbenz).
fn hour_of_day(hours: f64) -> f64 {
    hours - 24.0 * (hours / 24.0).floor()
}

/// Submission times: renewal process with diurnal and weekly rate
/// modulation, rescaled to cover the profile's span exactly. Non-decreasing:
/// the raw times only grow, and the rescale and the cast to whole seconds
/// are monotone.
fn arrival_times(
    profile: &QueueProfile,
    settings: &SynthSettings,
    rng: &mut StdRng,
    n: usize,
) -> Vec<u64> {
    let span = profile.duration_days as f64 * 86_400.0;
    let base_gap = span / n as f64;
    let mut t = 0.0f64;
    let mut raw = Vec::with_capacity(n);
    for _ in 0..n {
        let rate = arrival_rate(t, settings.diurnal_amplitude, settings.weekend_factor);
        let e: f64 = Exp1.sample(rng);
        t += base_gap * e / rate;
        raw.push(t);
    }
    // Rescale so the trace covers the documented span.
    let last = *raw.last().expect("n > 0");
    raw.into_iter()
        .map(|x| profile.start_unix + (x / last * span) as u64)
        .collect()
}

/// The wait-time series: regime-switching AR(1) log-normal with Pareto tail
/// mixture, processor-range bias, optional end jolt, and median pinning.
fn wait_series(
    profile: &QueueProfile,
    settings: &SynthSettings,
    rng: &mut StdRng,
    n: usize,
    procs: &[u32],
) -> Vec<f64> {
    let sigma = sigma_from_ratio(profile.mean_wait, profile.median_wait);
    let mu = (profile.median_wait + 1.0).ln();
    let regime_spread = settings.regime_spread_frac * sigma;
    let sigma_within = (sigma * sigma - regime_spread * regime_spread)
        .max(0.04)
        .sqrt();

    // Regime boundaries: expected one per `regime_days`.
    let n_regimes = ((profile.duration_days as f64 / settings.regime_days).round() as usize)
        .clamp(1, 40);
    let mut boundaries = vec![0usize];
    if n_regimes > 1 {
        let mut cuts: Vec<usize> = (0..n_regimes - 1)
            .map(|_| rng.gen_range(1..n.max(2)))
            .collect();
        cuts.sort_unstable();
        boundaries.extend(cuts);
    }
    boundaries.push(n);

    let shift_dist = Normal::new(0.0, regime_spread.max(1e-9)).expect("valid normal");
    let pareto = Pareto::new(1.0, settings.tail_alpha).expect("valid pareto");
    let rho = settings.ar1.clamp(0.0, 0.99);
    let innov = (1.0 - rho * rho).sqrt();

    let mut waits = Vec::with_capacity(n);
    // AR(1) state, initialized from its stationary N(0, sigma_within^2).
    let mut e = {
        let z: f64 = StandardNormal.sample(rng);
        sigma_within * z
    };
    for w in boundaries.windows(2) {
        let (start, end) = (w[0], w[1]);
        let shift: f64 = if boundaries.len() > 2 {
            shift_dist.sample(rng)
        } else {
            0.0
        };
        for &job_procs in &procs[start..end] {
            let z: f64 = StandardNormal.sample(rng);
            e = rho * e + innov * sigma_within * z;
            let range_idx = ProcRange::for_procs(job_procs) as usize;
            let bias = settings.proc_bias * range_idx as f64;
            // Log-wait with a soft ceiling: values beyond the compression
            // point are pulled logarithmically toward it, mimicking the
            // bounded worst case of real queues. This is the main departure
            // from log-normality the parametric comparator has to cope with.
            let mut y = mu + shift + bias + e;
            let ceil = mu + settings.upper_compression * sigma;
            if y > ceil {
                y = ceil + (1.0 + (y - ceil)).ln() * 0.25;
            }
            let mut wait = y.exp() - 1.0;
            // Backfill found a hole: the job starts almost immediately.
            // Instant starts cluster when the queue is light (AR state low),
            // preserving the serial dependence of the series; the factor
            // 2*Phi(-e/sigma) has mean 1, so the marginal probability stays
            // `instant_start_weight`.
            let u = rng.gen_f64();
            if instant_start(u, settings.instant_start_weight, -e / sigma_within.max(1e-9)) {
                wait = rng.gen_f64() * 15.0;
            } else if rng.gen_f64() < settings.tail_weight {
                // Cap the multiplier: one freak sample must not dominate a
                // whole trace's variance (the published std-devs are large
                // but finite).
                let mult: f64 = pareto.sample(rng);
                wait *= mult.min(100.0);
            }
            waits.push(wait.max(0.0));
        }
    }

    // End jolt (LANL short, section 6.1): the last ~8% of jobs see a sudden
    // surge of *unusually* long delays — long relative to the queue's whole
    // history, i.e. pushed past its historical upper quantiles, not merely
    // scaled. These waits are also so long that most of them only become
    // visible after the log ends, which is exactly why the predictor cannot
    // adapt in time (the paper's explanation for its one failure).
    if profile.end_jolt {
        let start = n - n / 12; // ~8%
        let q99 = quantile(&waits, 0.99).expect("non-empty");
        // ~10 days: longer than the trace's remaining span for nearly all
        // jolted jobs, so their waits stay invisible to the predictor.
        const JOLT_FLOOR: f64 = 10.0 * 86_400.0;
        for wv in waits.iter_mut().skip(start) {
            *wv = q99.mul_add(4.0, JOLT_FLOOR) + (*wv + 1.0) * 8.0;
        }
    }

    // Pin the median to the published value.
    let actual_median = quantile(&waits, 0.5).expect("non-empty");
    if actual_median > 0.0 && profile.median_wait > 0.0 {
        let scale = profile.median_wait / actual_median;
        for wv in &mut waits {
            *wv *= scale;
        }
    }
    // Round sub-second noise to whole seconds like real scheduler logs.
    for wv in &mut waits {
        *wv = wv.round().max(0.0);
    }
    waits
}

/// `u < w * (2.0 * std_normal_cdf(x))` for a uniform draw `u >= 0`, bit
/// for bit, mostly without the erfc series behind `std_normal_cdf`.
///
/// `2Φ(x)` is `erfc(-x/√2)`, which lies in `[0, 2]`, so no draw at or above
/// `2w + δ` is below the threshold (for a negative `w`, no draw at all).
/// Below that cut, [`erfc_approx`] places the draw unless it lies within `δ`
/// of `w·erfc_approx`: the fit's relative error is below 1.2e-7, so
/// `w·erfc_approx` is within 2.4e-7·|w|, plus a few ulps of rounding on
/// either side, of the threshold the exact expression computes, which is
/// inside `δ = 1e-6·max(1, |w|)` for every `w`. A draw in that band, or a
/// NaN anywhere, falls through to the exact expression.
fn instant_start(u: f64, w: f64, x: f64) -> bool {
    let band = 1e-6 * w.abs().max(1.0);
    if u >= 2.0 * w + band {
        return false;
    }
    let approx = w * erfc_approx(-x / std::f64::consts::SQRT_2);
    if (u - approx).abs() > band {
        return u < approx;
    }
    u < w * (2.0 * qdelay_stats::normal::std_normal_cdf(x))
}

/// `erfc(z)` to a relative error below 1.2e-7 everywhere: the Chebyshev
/// fit `erfcc` of Press et al., *Numerical Recipes* (2nd ed., §6.2).
fn erfc_approx(z: f64) -> f64 {
    let a = z.abs();
    let t = 1.0 / (1.0 + 0.5 * a);
    let poly = -1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    let tail = t * (-a * a + poly).exp();
    if z >= 0.0 {
        tail
    } else {
        2.0 - tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn settings() -> SynthSettings {
        SynthSettings::with_seed(1234)
    }

    #[test]
    fn generates_exact_job_count_and_span() {
        let p = catalog::find("datastar", "express").unwrap();
        let t = generate(&p, &settings());
        assert_eq!(t.len() as u64, p.job_count);
        let (first, last) = t.span().unwrap();
        assert!(first >= p.start_unix);
        let span = (last - first) as f64;
        let target = p.duration_days as f64 * 86_400.0;
        assert!(span <= target * 1.01 && span >= target * 0.8, "span {span}");
    }

    #[test]
    fn deterministic_given_seed() {
        let p = catalog::find("sdsc", "express").unwrap();
        let a = generate(&p, &settings());
        let b = generate(&p, &settings());
        assert_eq!(a, b);
        let c = generate(&p, &SynthSettings::with_seed(999));
        assert_ne!(a, c);
    }

    #[test]
    fn median_is_pinned_and_tail_is_heavy() {
        for key in [("datastar", "normal"), ("nersc", "regular"), ("tacc2", "normal")] {
            let p = catalog::find(key.0, key.1).unwrap();
            let t = generate(&p, &settings());
            let s = t.summary().unwrap();
            // Median matches the published value within rounding slack.
            let rel = (s.median - p.median_wait).abs() / p.median_wait.max(1.0);
            assert!(rel < 0.25, "{}: median {} vs {}", p.key(), s.median, p.median_wait);
            // Heavy tail: mean well above median, std comparable to mean.
            assert!(s.mean > 2.0 * s.median, "{}: not heavy-tailed", p.key());
            assert!(s.std_dev > s.mean * 0.8, "{}: std too small", p.key());
        }
    }

    #[test]
    fn end_jolt_raises_late_waits() {
        let p = catalog::find("lanl", "short").unwrap();
        let t = generate(&p, &settings());
        let waits = t.waits();
        let n = waits.len();
        let early: f64 = waits[..n / 2].iter().sum::<f64>() / (n / 2) as f64;
        let tail_start = n - n / 20; // final 5%, inside the jolt window
        let late: f64 =
            waits[tail_start..].iter().sum::<f64>() / (n - tail_start) as f64;
        assert!(
            late > early * 5.0,
            "late mean {late} should dwarf early mean {early}"
        );
    }

    #[test]
    fn proc_mix_controls_populated_cells() {
        // datastar/TGnormal: only the 1-4 cell reaches 1000 jobs (Table 5).
        let p = catalog::find("datastar", "TGnormal").unwrap();
        let t = generate(&p, &settings());
        let counts: Vec<usize> = ProcRange::ALL
            .iter()
            .map(|r| t.filter_procs(*r).len())
            .collect();
        assert!(counts[0] >= 1000, "1-4 cell must be populated: {counts:?}");
        assert!(counts[1] < 1000 && counts[2] < 1000 && counts[3] < 1000,
                "only 1-4 may reach 1000: {counts:?}");
        // lanl/small: all four cells populated.
        let p = catalog::find("lanl", "small").unwrap();
        let t = generate(&p, &settings());
        for r in ProcRange::ALL {
            assert!(t.filter_procs(r).len() >= 1000, "{r} cell must be populated");
        }
    }

    #[test]
    fn proc_bias_shifts_conditional_waits() {
        let p = catalog::find("lanl", "small").unwrap();
        let mut s = settings();
        s.proc_bias = 0.8;
        let t = generate(&p, &s);
        let small = t.filter_procs(ProcRange::R1To4);
        let large = t.filter_procs(ProcRange::R65Plus);
        let ms = small.summary().unwrap().median;
        let ml = large.summary().unwrap().median;
        assert!(ml > ms * 1.5, "large-job median {ml} vs small {ms}");
        // Negative bias flips the ordering (the Figure 2 scenario).
        s.proc_bias = -0.8;
        let t = generate(&p, &s);
        let ms = t.filter_procs(ProcRange::R1To4).summary().unwrap().median;
        let ml = t.filter_procs(ProcRange::R65Plus).summary().unwrap().median;
        assert!(ml < ms, "negative bias must favor large jobs");
    }

    #[test]
    fn waits_are_autocorrelated() {
        let p = catalog::find("nersc", "low").unwrap();
        let t = generate(&p, &settings());
        let rho = qdelay_stats::autocorr::lag1_log(&t.waits()).unwrap();
        assert!(rho > 0.2, "lag-1 log autocorrelation {rho} too weak");
    }

    #[test]
    fn submits_sorted_and_nonnegative_waits() {
        let p = catalog::find("paragon", "standby").unwrap();
        let t = generate(&p, &settings());
        let mut prev = 0u64;
        for j in &t {
            assert!(j.submit >= prev);
            assert!(j.wait_secs >= 0.0 && j.wait_secs.is_finite());
            assert!(j.procs >= 1);
            assert!(j.run_secs > 0.0);
            prev = j.submit;
        }
    }

    /// The parallel catalog against the sequential map, bit for bit, at
    /// the full length of every Table 1 row.
    #[test]
    fn generate_catalog_equals_the_sequential_map() {
        let profiles = catalog::paper_catalog();
        for seed in [1, 42] {
            let settings = SynthSettings::with_seed(seed);
            let parallel = generate_catalog(&profiles, &settings);
            assert_eq!(parallel.len(), profiles.len());
            for (p, got) in profiles.iter().zip(&parallel) {
                let want = generate(p, &settings);
                assert_eq!((got.machine(), got.queue()), (want.machine(), want.queue()));
                let bits = |t: &Trace| -> Vec<(u64, u64, u32, u64)> {
                    t.iter()
                        .map(|j| (j.submit, j.wait_secs.to_bits(), j.procs, j.run_secs.to_bits()))
                        .collect()
                };
                assert!(bits(got) == bits(&want), "{} differs at seed {seed}", p.key());
            }
        }
    }

    /// What lets `generate` skip the sort: every Table 1 queue's
    /// submits come out in order.
    #[test]
    fn arrival_times_are_non_decreasing() {
        for seed in [1, 2, 42] {
            let settings = SynthSettings::with_seed(seed);
            for p in catalog::queue_table_catalog() {
                let mut rng = StdRng::seed_from_u64(mix_seed(seed, &p));
                let submits = arrival_times(&p, &settings, &mut rng, p.job_count as usize);
                assert!(
                    submits.windows(2).all(|w| w[0] <= w[1]),
                    "{} at seed {seed}",
                    p.key()
                );
            }
        }
    }

    /// Each catalog trace is its own stable sort by submit, so the sort
    /// `generate` no longer runs would have changed nothing.
    #[test]
    fn catalog_traces_equal_their_stable_sort() {
        let profiles = catalog::paper_catalog();
        for trace in generate_catalog(&profiles, &SynthSettings::with_seed(1)) {
            let mut sorted = trace.jobs().to_vec();
            sorted.sort_by_key(|j| j.submit);
            assert!(trace.jobs() == sorted.as_slice(), "{}/{}", trace.machine(), trace.queue());
        }
    }

    /// `v` moved `k` ulps up (or down, for negative `k`).
    fn ulps(v: f64, k: i32) -> f64 {
        (0..k.abs()).fold(v, |v, _| if k > 0 { v.next_up() } else { v.next_down() })
    }

    /// The shortcut decides every draw as the expression it replaced does:
    /// at the exact threshold and a few ulps around it, around the edges of
    /// the band where the exact expression takes over, and around the
    /// `2w + band` cut, over `x` from -40 (the threshold underflows to 0) to
    /// 40 (erfc rounds to 2, so the threshold is exactly `2w`).
    #[test]
    fn instant_start_equals_the_exact_expression() {
        use qdelay_stats::normal::std_normal_cdf;
        let mut at_two = 0;
        for w in [0.0, 0.22, 0.7, 1.0, 3.0] {
            let band = 1e-6 * f64::max(w, 1.0);
            for i in -10_240..=10_240 {
                let x = f64::from(i) / 256.0;
                let exact = w * (2.0 * std_normal_cdf(x));
                at_two += usize::from(exact == 2.0 * w && w > 0.0);
                let approx = w * erfc_approx(-x / std::f64::consts::SQRT_2);
                let mut draws = vec![0.0, 2.0 * w + band];
                for centre in [exact, approx - band, approx + band, 2.0 * w + band] {
                    draws.extend((-4..=4).map(|k| ulps(centre, k)));
                }
                for f in [0.5, 1.0, 2.0] {
                    draws.extend([exact - f * band, exact + f * band]);
                }
                for u in draws {
                    assert_eq!(
                        instant_start(u, w, x),
                        u < exact,
                        "u {u:e}, w {w}, x {x}: threshold {exact:e}, approximation {approx:e}"
                    );
                }
            }
        }
        assert!(at_two > 0, "the grid reaches the 2w threshold");
    }

    /// The remainder is `fmod`'s, bit for bit: at multiples of 24 and a few
    /// ulps either side of them up to 2^40 (where a quotient that rounded
    /// onto the integer above would make it negative), and at a million
    /// random points spread over every binade below 2^40.
    #[test]
    fn hour_of_day_equals_fmod() {
        let same = |x: f64| {
            assert_eq!(hour_of_day(x).to_bits(), (x % 24.0).to_bits(), "hours {x:e}");
        };
        let mut rng = StdRng::seed_from_u64(24);
        let max_multiple = (1u64 << 40) / 24;
        let multiples = (0..10_000u64)
            .chain((0..40).flat_map(|b| [(1u64 << b) - 1, 1 << b, (1 << b) + 1]))
            .chain((0..10_000).map(|_| rng.next_u64() % max_multiple))
            .filter(|&m| m <= max_multiple);
        for m in multiples {
            let x = 24.0 * m as f64;
            for k in -4..=4 {
                let v = ulps(x, k);
                if v >= 0.0 {
                    same(v);
                }
            }
        }
        for _ in 0..1_000_000 {
            let binade = rng.gen_range(0..42) as i32 - 1;
            same(rng.gen_f64() * 2f64.powi(binade));
        }
    }

    #[test]
    fn proc_mix_normalizes() {
        let m = ProcMix::new([2.0, 2.0, 4.0, 0.0]);
        assert_eq!(m.weights(), [0.25, 0.25, 0.5, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn proc_mix_rejects_negative() {
        ProcMix::new([-1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn proc_mix_sampling_respects_bounds() {
        let m = ProcMix::new([0.25, 0.25, 0.25, 0.25]);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let p = m.sample_procs(&mut rng);
            assert!((1..=256).contains(&p));
        }
    }
}
