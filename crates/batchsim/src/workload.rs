//! Workload generation for the cluster simulator.
//!
//! Produces job streams with the features production logs show: Poisson
//! arrivals modulated by time-of-day and day-of-week, heavy-tailed
//! (log-normal) runtimes, size-skewed processor requests, and the
//! systematic runtime *over*-estimation users are famous for (backfill
//! schedulers see estimates, not truths).

use crate::{MachineConfig, SimJob};
use qdelay_trace::synth::{self, ProcMix};
use qdelay_rng::{Distribution, Exp1, Normal, Rng, StdRng};

/// Workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Length of the generated trace, days.
    pub days: u32,
    /// Mean arrivals per day (across all queues).
    pub jobs_per_day: f64,
    /// RNG seed.
    pub seed: u64,
    /// Relative submission rates per queue (`None` = uniform across the
    /// machine's queues).
    pub queue_weights: Option<Vec<f64>>,
    /// Processor-request mix.
    pub proc_mix: ProcMix,
    /// Mean of `ln(runtime)`; default `ln(3600)` (one hour median).
    pub runtime_log_mean: f64,
    /// Standard deviation of `ln(runtime)`.
    pub runtime_log_sd: f64,
    /// Mean multiplicative over-estimation factor (>= 1).
    pub estimate_factor: f64,
    /// Diurnal arrival-rate modulation amplitude in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Weekend arrival-rate multiplier.
    pub weekend_factor: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            days: 30,
            jobs_per_day: 300.0,
            seed: 42,
            queue_weights: None,
            proc_mix: ProcMix::new([0.45, 0.30, 0.20, 0.05]),
            runtime_log_mean: 3600.0f64.ln(),
            runtime_log_sd: 1.4,
            estimate_factor: 2.0,
            diurnal_amplitude: 0.6,
            weekend_factor: 0.5,
        }
    }
}

/// Generates a job stream for `machine`.
///
/// Processor requests are clamped to the machine size and to each queue's
/// admission cap; runtimes are clamped to `[30 s, 7 days]` and to the
/// queue's runtime cap. Estimates are at least the true runtime (the
/// scheduler kills jobs at their estimate on real systems, so rational
/// users over-estimate).
///
/// # Panics
///
/// Panics if `queue_weights` is provided with a length different from the
/// machine's queue count, or contains a negative weight.
pub fn generate(config: &WorkloadConfig, machine: &MachineConfig) -> Vec<SimJob> {
    let nq = machine.queues.len();
    let weights: Vec<f64> = match &config.queue_weights {
        Some(w) => {
            assert_eq!(w.len(), nq, "queue_weights length must match queue count");
            assert!(w.iter().all(|&x| x >= 0.0), "weights must be non-negative");
            w.clone()
        }
        None => vec![1.0; nq],
    };
    let wsum: f64 = weights.iter().sum();
    assert!(wsum > 0.0, "at least one queue weight must be positive");

    let mut rng = StdRng::seed_from_u64(config.seed);
    let span = config.days as f64 * 86_400.0;
    let total_jobs = (config.days as f64 * config.jobs_per_day).round() as usize;
    let base_gap = span / total_jobs.max(1) as f64;
    let runtime_dist =
        Normal::new(config.runtime_log_mean, config.runtime_log_sd).expect("valid normal");
    let over_dist = Normal::new(config.estimate_factor.max(1.0).ln(), 0.5).expect("valid normal");

    let mut jobs = Vec::with_capacity(total_jobs);
    let mut t = 0.0f64;
    for id in 0..total_jobs as u64 {
        // Rate-modulated renewal arrivals.
        let rate = synth::arrival_rate(t, config.diurnal_amplitude, config.weekend_factor);
        let e: f64 = Exp1.sample(&mut rng);
        t += base_gap * e / rate;

        // Queue by weight.
        let mut pick: f64 = rng.gen_f64() * wsum;
        let mut queue = nq - 1;
        for (qi, &w) in weights.iter().enumerate() {
            if pick < w {
                queue = qi;
                break;
            }
            pick -= w;
        }
        let spec = &machine.queues[queue];

        // Size and runtime under queue admission rules.
        let max_procs = spec.max_procs.unwrap_or(machine.procs).min(machine.procs);
        let procs = config.proc_mix.sample_procs(&mut rng).clamp(1, max_procs);
        let raw_runtime = runtime_dist.sample(&mut rng).exp();
        let cap = spec.max_runtime.unwrap_or(7 * 86_400) as f64;
        let runtime = raw_runtime.clamp(30.0, cap.min(7.0 * 86_400.0)) as u64;
        let over: f64 = over_dist.sample(&mut rng).exp().max(1.0);
        let estimate = ((runtime as f64 * over) as u64).min(cap as u64).max(runtime);

        jobs.push(SimJob {
            id,
            submit: t as u64,
            procs,
            runtime: runtime.max(1),
            estimate,
            queue,
        });
    }
    jobs.sort_by_key(|j| (j.submit, j.id));
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueueSpec;

    fn machine() -> MachineConfig {
        MachineConfig {
            procs: 128,
            queues: vec![
                QueueSpec::new("normal", 5),
                QueueSpec::new("short", 10).with_max_runtime(3600).with_max_procs(16),
            ],
        }
    }

    #[test]
    fn respects_job_count_and_span() {
        let cfg = WorkloadConfig {
            days: 10,
            jobs_per_day: 100.0,
            ..WorkloadConfig::default()
        };
        let jobs = generate(&cfg, &machine());
        assert_eq!(jobs.len(), 1000);
        // Arrivals sorted, roughly within the span (renewal noise allowed).
        assert!(jobs.windows(2).all(|w| w[0].submit <= w[1].submit));
        let last = jobs.last().unwrap().submit;
        assert!(last < 20 * 86_400, "last arrival {last}");
    }

    #[test]
    fn queue_admission_rules_enforced() {
        let jobs = generate(&WorkloadConfig::default(), &machine());
        for j in &jobs {
            assert!(j.procs >= 1 && j.procs <= 128);
            assert!(j.estimate >= j.runtime);
            if j.queue == 1 {
                assert!(j.procs <= 16, "short queue caps procs");
                assert!(j.runtime <= 3600, "short queue caps runtime");
            }
        }
    }

    #[test]
    fn queue_weights_shift_traffic() {
        let cfg = WorkloadConfig {
            queue_weights: Some(vec![9.0, 1.0]),
            ..WorkloadConfig::default()
        };
        let jobs = generate(&cfg, &machine());
        let q0 = jobs.iter().filter(|j| j.queue == 0).count();
        let q1 = jobs.len() - q0;
        assert!(q0 > q1 * 5, "q0={q0}, q1={q1}");
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn wrong_weight_length_panics() {
        let cfg = WorkloadConfig {
            queue_weights: Some(vec![1.0]),
            ..WorkloadConfig::default()
        };
        generate(&cfg, &machine());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&WorkloadConfig::default(), &machine());
        let b = generate(&WorkloadConfig::default(), &machine());
        assert_eq!(a, b);
        let c = generate(
            &WorkloadConfig {
                seed: 1,
                ..WorkloadConfig::default()
            },
            &machine(),
        );
        assert_ne!(a, c);
    }

    #[test]
    fn runtimes_are_heavy_tailed() {
        let jobs = generate(
            &WorkloadConfig {
                days: 30,
                jobs_per_day: 500.0,
                ..WorkloadConfig::default()
            },
            &machine(),
        );
        let rts: Vec<f64> = jobs.iter().map(|j| j.runtime as f64).collect();
        let s = qdelay_stats::describe::Summary::from_sample(&rts).unwrap();
        assert!(s.mean > s.median, "runtime mean {} <= median {}", s.mean, s.median);
    }
}
