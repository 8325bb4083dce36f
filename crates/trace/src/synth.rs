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
    let mut trace = Trace::new(profile.machine, profile.queue);
    if n == 0 {
        return trace;
    }

    let submits = arrival_times(profile, settings, &mut rng, n);
    let procs: Vec<u32> = (0..n)
        .map(|_| profile.proc_mix.sample_procs(&mut rng))
        .collect();
    let waits = wait_series(profile, settings, &mut rng, n, &procs);
    let runtime_dist = Normal::new(8.2f64, 1.0).expect("valid normal"); // ln-space, median ~1 h

    for i in 0..n {
        let run_secs = runtime_dist.sample(&mut rng).exp().clamp(1.0, 7.0 * 86_400.0);
        trace.push(JobRecord {
            submit: submits[i],
            wait_secs: waits[i],
            procs: procs[i],
            run_secs,
        });
    }
    trace.sort_by_submit();
    trace
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

/// Submission times: renewal process with diurnal and weekly rate
/// modulation, rescaled to cover the profile's span exactly.
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
        // Local rate multiplier: busy mid-afternoon, quiet weekends.
        let hour = (t / 3600.0) % 24.0;
        let day = ((t / 86_400.0) as u64) % 7;
        let diurnal = 1.0
            + settings.diurnal_amplitude
                * ((hour - 14.0) / 24.0 * std::f64::consts::TAU).cos();
        let weekly = if day >= 5 { settings.weekend_factor } else { 1.0 };
        let rate = (diurnal * weekly).max(0.05);
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
            let light_queue =
                2.0 * qdelay_stats::normal::std_normal_cdf(-e / sigma_within.max(1e-9));
            if rng.gen_f64() < settings.instant_start_weight * light_queue {
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
