//! The event-driven replay loop (paper §5.1).
//!
//! Three event kinds drive the simulation, exactly as in the paper:
//!
//! 1. **job start** — a pending job's wait expires; its wait time joins the
//!    predictor's history and, if the job carried a prediction, the
//!    success/failure is fed back for change-point detection;
//! 2. **job arrival** — the currently served prediction is recorded for the
//!    arriving job and the job joins the pending queue;
//! 3. **epoch** — every `epoch_secs` of virtual time the predictor refits
//!    and the served prediction is refreshed.
//!
//! With `epoch_secs = 0` the predictor refits before every arrival — the
//! paper's "likely unrealizable" per-job-update deployment, kept as an
//! ablation (§5.1 reports its effect is minimal).

use qdelay_predict::QuantilePredictor;
use qdelay_telemetry::{time_scope, Counter, LatencyHistogram, Span};
use qdelay_trace::{JobRecord, Trace};

/// Per-refit latency, split by predictor so tail regressions in one method
/// can't hide behind another's volume. Resolved once per [`run`], sampled
/// one refit in [`REFIT_SAMPLE_MASK`]` + 1` (incremental refits are tens of
/// nanoseconds, so timing each one would dominate the replay itself).
static REFIT_NS_BMBP: LatencyHistogram = LatencyHistogram::new("sim.refit_ns.bmbp");
static REFIT_NS_LOGN_NOTRIM: LatencyHistogram =
    LatencyHistogram::new("sim.refit_ns.lognormal_notrim");
static REFIT_NS_LOGN_TRIM: LatencyHistogram = LatencyHistogram::new("sim.refit_ns.lognormal_trim");
static REFIT_NS_OTHER: LatencyHistogram = LatencyHistogram::new("sim.refit_ns.other");
/// Jobs replayed (training + result phases) across all harness runs.
static JOBS_REPLAYED: Counter = Counter::new("sim.jobs_replayed");
/// Result-phase arrivals that were actually served a bound.
static PREDICTIONS_SERVED: Counter = Counter::new("sim.predictions_served");
/// Epoch refits fired (excludes the per-arrival refits of `epoch_secs = 0`).
static EPOCHS: Counter = Counter::new("sim.epochs");
/// Wall-clock of whole replay runs (jobs/sec = jobs_replayed / replay_ns).
static REPLAY_NS: LatencyHistogram = LatencyHistogram::new("sim.replay_ns");

/// One refit in 64 is wall-clock timed; the rest pay one local add.
const REFIT_SAMPLE_MASK: u32 = 63;

/// Latency histogram for a predictor's refits, by its published name.
fn refit_histogram(name: &str) -> &'static LatencyHistogram {
    match name {
        "bmbp" => &REFIT_NS_BMBP,
        "lognormal-notrim" => &REFIT_NS_LOGN_NOTRIM,
        "lognormal-trim" => &REFIT_NS_LOGN_TRIM,
        _ => &REFIT_NS_OTHER,
    }
}

/// Harness configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessConfig {
    /// Seconds of virtual time between predictor refits (paper: 300).
    /// Zero means "refit before every arrival".
    pub epoch_secs: f64,
    /// Leading fraction of jobs used for training (paper: 0.10).
    pub training_fraction: f64,
    /// Optional bound-sampling window for time-series figures.
    pub sample: Option<SampleWindow>,
}

impl Default for HarnessConfig {
    /// The paper's settings: 300-second epochs, 10% training, no sampling.
    fn default() -> Self {
        Self {
            epoch_secs: 300.0,
            training_fraction: 0.10,
            sample: None,
        }
    }
}

/// A window of virtual time over which the served bound is sampled at a
/// fixed step (drives Figures 1 and 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleWindow {
    /// First sample time (UNIX seconds).
    pub start: u64,
    /// Last sample time (inclusive, UNIX seconds).
    pub end: u64,
    /// Sampling step, seconds.
    pub step: u64,
}

/// A sampled value of the served bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundSample {
    /// Virtual time of the sample (UNIX seconds).
    pub time: u64,
    /// The served upper bound at that time, if one was available.
    pub bound: Option<f64>,
}

/// The prediction made for one result-phase job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionRecord {
    /// Job submission time (UNIX seconds).
    pub submit: u64,
    /// The bound served at submission (`None` if the predictor had
    /// insufficient history).
    pub predicted: Option<f64>,
    /// The wait the job actually experienced, seconds.
    pub actual: f64,
    /// Processors the job requested (for §6.2 breakdowns).
    pub procs: u32,
}

impl PredictionRecord {
    /// Whether the prediction was correct (bound at or above the actual
    /// wait). `None` when no prediction was served.
    pub fn correct(&self) -> Option<bool> {
        self.predicted.map(|p| self.actual <= p)
    }
}

/// Output of one harness run.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessResult {
    /// Machine the trace came from.
    pub machine: String,
    /// Queue the trace came from.
    pub queue: String,
    /// Predictor identifier.
    pub predictor: String,
    /// Number of jobs consumed as training.
    pub training_jobs: usize,
    /// Per-job predictions for the result phase, in arrival order.
    pub records: Vec<PredictionRecord>,
    /// Bound samples, when a [`SampleWindow`] was configured.
    pub samples: Vec<BoundSample>,
}

impl HarnessResult {
    /// Correctness/accuracy metrics over all result-phase records.
    pub fn metrics(&self) -> crate::metrics::EvalMetrics {
        crate::metrics::EvalMetrics::from_records(&self.records)
    }
}

/// Internal sweep event. A start goes before an arrival at the same
/// instant, so an arriving job sees every wait that became visible at that
/// instant; epoch refits are interleaved inline between events rather than
/// materialized.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// (start_time, job index) — job leaves the pending queue.
    Start(f64, usize),
    /// (submit_time, job index).
    Arrival(f64, usize),
}

impl Event {
    fn time(&self) -> f64 {
        match *self {
            Event::Start(t, _) | Event::Arrival(t, _) => t,
        }
    }
}

/// Every job's arrival and start, in sweep order. Arrivals are already in
/// order (the caller asserts it), so only the starts are sorted — ties by
/// job index — and the two are merged on the fly.
fn merged_events(jobs: &[JobRecord]) -> impl Iterator<Item = Event> + '_ {
    let mut starts: Vec<(f64, usize)> =
        jobs.iter().enumerate().map(|(i, j)| (j.start_time(), i)).collect();
    assert!(starts.iter().all(|(t, _)| !t.is_nan()), "finite event times");
    starts.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut starts = starts.into_iter().peekable();
    let mut arrivals = jobs.iter().map(|j| j.submit as f64).enumerate().peekable();
    std::iter::from_fn(move || match (starts.peek(), arrivals.peek()) {
        (Some(&(start, idx)), Some(&(_, arrival))) if start <= arrival => {
            starts.next();
            Some(Event::Start(start, idx))
        }
        (_, Some(_)) => arrivals.next().map(|(idx, t)| Event::Arrival(t, idx)),
        (_, None) => starts.next().map(|(t, idx)| Event::Start(t, idx)),
    })
}

/// Replays `trace` against `predictor` under the paper's §5.1 protocol.
///
/// The trace must be sorted by submission time (traces from this
/// workspace's parsers and generators always are).
///
/// # Panics
///
/// Panics if `config.training_fraction` is not in `[0, 1)` or the trace is
/// not sorted by submission time.
pub fn run(
    trace: &Trace,
    predictor: &mut dyn QuantilePredictor,
    config: &HarnessConfig,
) -> HarnessResult {
    assert!(
        (0.0..1.0).contains(&config.training_fraction),
        "training_fraction must be in [0,1)"
    );
    assert!(
        trace.jobs().windows(2).all(|w| w[0].submit <= w[1].submit),
        "trace must be sorted by submit time"
    );

    let jobs = trace.jobs();
    let n = jobs.len();
    let training_jobs = (n as f64 * config.training_fraction).ceil() as usize;
    let refit_ns = refit_histogram(predictor.name());
    time_scope!(&REPLAY_NS);
    JOBS_REPLAYED.add(n as u64);

    let mut records = Vec::with_capacity(n - training_jobs);
    let mut samples = Vec::new();
    // The prediction served to each job, by index (None = none served or
    // training job).
    let mut served: Vec<Option<f64>> = vec![None; n];
    let mut next_epoch = if config.epoch_secs > 0.0 {
        jobs.first().map(|j| j.submit as f64 + config.epoch_secs)
    } else {
        None
    };
    let mut next_sample = config.sample.map(|w| w.start);
    let mut arrivals_seen = 0usize;
    // Global-counter traffic is batched in locals and flushed once per run:
    // the event loop runs up to ~10 refits per job, and even one relaxed
    // `fetch_add` per event is measurable against a ~40 ns incremental refit.
    let mut refit_tick: u32 = 0;
    let mut epochs: u64 = 0;
    let mut predictions_served: u64 = 0;
    let mut trained = training_jobs == 0;
    if trained {
        predictor.finish_training();
    }

    for ev in merged_events(jobs) {
        let now = ev.time();
        // Fire any epochs due before this event.
        if let Some(epoch) = next_epoch {
            let mut epoch = epoch;
            while epoch <= now {
                {
                    let _refit_span =
                        Span::enter_sampled(refit_ns, &mut refit_tick, REFIT_SAMPLE_MASK);
                    predictor.refit();
                }
                epochs += 1;
                record_samples(&mut next_sample, &config.sample, epoch, predictor, &mut samples);
                epoch += config.epoch_secs;
            }
            next_epoch = Some(epoch);
        }
        match ev {
            Event::Start(_, idx) => {
                let actual = jobs[idx].wait_secs;
                predictor.observe(actual);
                if let Some(predicted) = served[idx] {
                    predictor.record_outcome(predicted, actual);
                }
            }
            Event::Arrival(_, idx) => {
                if config.epoch_secs == 0.0 {
                    let _refit_span =
                        Span::enter_sampled(refit_ns, &mut refit_tick, REFIT_SAMPLE_MASK);
                    predictor.refit();
                }
                arrivals_seen += 1;
                if !trained && arrivals_seen > training_jobs {
                    predictor.finish_training();
                    trained = true;
                }
                if trained {
                    let predicted = predictor.current_bound().value();
                    if predicted.is_some() {
                        predictions_served += 1;
                    }
                    served[idx] = predicted;
                    records.push(PredictionRecord {
                        submit: jobs[idx].submit,
                        predicted,
                        actual: jobs[idx].wait_secs,
                        procs: jobs[idx].procs,
                    });
                }
            }
        }
    }
    // Flush trailing samples after the last event.
    if let Some(w) = config.sample {
        while let Some(t) = next_sample {
            if t > w.end {
                break;
            }
            {
                let _refit_span =
                    Span::enter_sampled(refit_ns, &mut refit_tick, REFIT_SAMPLE_MASK);
                predictor.refit();
            }
            samples.push(BoundSample {
                time: t,
                bound: predictor.current_bound().value(),
            });
            next_sample = Some(t + w.step);
        }
    }
    EPOCHS.add(epochs);
    PREDICTIONS_SERVED.add(predictions_served);

    HarnessResult {
        machine: trace.machine().to_string(),
        queue: trace.queue().to_string(),
        predictor: predictor.name().to_string(),
        training_jobs,
        records,
        samples,
    }
}

fn record_samples(
    next_sample: &mut Option<u64>,
    window: &Option<SampleWindow>,
    epoch_time: f64,
    predictor: &dyn QuantilePredictor,
    samples: &mut Vec<BoundSample>,
) {
    let Some(w) = window else { return };
    while let Some(t) = *next_sample {
        if t > w.end || (t as f64) > epoch_time {
            break;
        }
        samples.push(BoundSample {
            time: t,
            bound: predictor.current_bound().value(),
        });
        *next_sample = Some(t + w.step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdelay_predict::baseline::MaxObservedPredictor;
    use qdelay_predict::bmbp::Bmbp;

    /// A trace with constant inter-arrival gap and fixed waits.
    fn uniform_trace(n: usize, gap: u64, wait: f64) -> Trace {
        let mut t = Trace::new("m", "q");
        for i in 0..n {
            t.push(JobRecord {
                submit: 1000 + i as u64 * gap,
                wait_secs: wait,
                procs: 1,
                run_secs: 100.0,
            });
        }
        t
    }

    #[test]
    fn training_jobs_not_recorded() {
        let trace = uniform_trace(100, 60, 5.0);
        let mut p = MaxObservedPredictor::new();
        let res = run(&trace, &mut p, &HarnessConfig::default());
        assert_eq!(res.training_jobs, 10);
        assert_eq!(res.records.len(), 90);
    }

    #[test]
    fn predictor_only_sees_started_jobs() {
        // Waits of 10 000 s with arrivals every 60 s: when job i arrives,
        // jobs arriving in the last 10 000 s are still pending, so the
        // max-observed predictor must lag behind.
        let mut trace = Trace::new("m", "q");
        for i in 0..50u64 {
            trace.push(JobRecord {
                submit: i * 60,
                wait_secs: 10_000.0 + i as f64, // strictly increasing waits
                procs: 1,
                run_secs: 1.0,
            });
        }
        let mut p = MaxObservedPredictor::new();
        let res = run(
            &trace,
            &mut p,
            &HarnessConfig {
                epoch_secs: 0.0, // refit continuously; isolation is the point
                training_fraction: 0.1,
                sample: None,
            },
        );
        // No job can ever see a wait >= its own (all pending): every
        // prediction must be below the actual wait.
        for r in &res.records {
            if let Some(pred) = r.predicted {
                assert!(
                    pred < r.actual,
                    "prediction {pred} should lag actual {}",
                    r.actual
                );
            }
        }
    }

    #[test]
    fn epoch_zero_refits_continuously() {
        let trace = uniform_trace(200, 3600, 7.0); // gaps far over waits
        let mut p = MaxObservedPredictor::new();
        let res = run(
            &trace,
            &mut p,
            &HarnessConfig {
                epoch_secs: 0.0,
                training_fraction: 0.1,
                sample: None,
            },
        );
        // All waits identical: every result-phase prediction is exact.
        assert!(res.records.iter().all(|r| r.predicted == Some(7.0)));
    }

    #[test]
    fn stale_predictions_between_epochs() {
        // One very long epoch: predictions never refresh after training.
        let trace = uniform_trace(100, 60, 3.0);
        let mut p = MaxObservedPredictor::new();
        let res = run(
            &trace,
            &mut p,
            &HarnessConfig {
                epoch_secs: 1e9,
                training_fraction: 0.1,
                sample: None,
            },
        );
        // finish_training refits once; after that the bound stays 3.0 anyway
        // (constant waits). Check it was served to everyone.
        assert!(res.records.iter().all(|r| r.predicted == Some(3.0)));
    }

    #[test]
    fn bmbp_end_to_end_on_stationary_trace() {
        // Scrambled-but-stationary waits: BMBP must hit >= 95% coverage.
        let mut trace = Trace::new("m", "q");
        for i in 0..3000u64 {
            let wait = (i.wrapping_mul(2_654_435_761) % 7200) as f64;
            trace.push(JobRecord {
                submit: i * 120,
                wait_secs: wait,
                procs: 1,
                run_secs: 60.0,
            });
        }
        let mut p = Bmbp::with_defaults();
        let res = run(&trace, &mut p, &HarnessConfig::default());
        let m = res.metrics();
        assert!(m.jobs > 2000);
        assert!(
            m.correct_fraction >= 0.95,
            "coverage {} below target",
            m.correct_fraction
        );
    }

    #[test]
    fn sampling_window_produces_series() {
        let trace = uniform_trace(500, 300, 42.0);
        let mut p = MaxObservedPredictor::new();
        let cfg = HarnessConfig {
            epoch_secs: 300.0,
            training_fraction: 0.1,
            sample: Some(SampleWindow {
                start: 1000,
                end: 1000 + 499 * 300,
                step: 3600,
            }),
        };
        let res = run(&trace, &mut p, &cfg);
        assert!(!res.samples.is_empty());
        // Samples are equally spaced and within the window.
        for w in res.samples.windows(2) {
            assert_eq!(w[1].time - w[0].time, 3600);
        }
        // Once history exists, samples carry the bound.
        assert!(res.samples.iter().rev().take(5).all(|s| s.bound == Some(42.0)));
    }

    #[test]
    #[should_panic(expected = "sorted by submit")]
    fn rejects_unsorted_trace() {
        let mut trace = Trace::new("m", "q");
        trace.push(JobRecord {
            submit: 100,
            wait_secs: 1.0,
            procs: 1,
            run_secs: 1.0,
        });
        trace.push(JobRecord {
            submit: 50,
            wait_secs: 1.0,
            procs: 1,
            run_secs: 1.0,
        });
        let mut p = MaxObservedPredictor::new();
        run(&trace, &mut p, &HarnessConfig::default());
    }

    /// The merge against what it replaced: every event pushed (arrival
    /// before start, per job) and stable-sorted by time, a start ranking
    /// first at equal times. Small integer gaps and waits make ties of every
    /// kind — start/start, start/arrival, a zero wait — common.
    #[test]
    fn merged_events_match_a_stable_sort_of_all_events() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |modulus: u64| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % modulus
        };
        let mut submit = 50;
        let mut t = Trace::new("m", "q");
        for _ in 0..2_000 {
            submit += next(3);
            t.push(JobRecord { submit, wait_secs: next(6) as f64, procs: 1, run_secs: 1.0 });
        }
        let mut sorted = Vec::new();
        for (i, j) in t.jobs().iter().enumerate() {
            sorted.push(Event::Arrival(j.submit as f64, i));
            sorted.push(Event::Start(j.start_time(), i));
        }
        sorted.sort_by(|a, b| {
            let is_arrival = |e: &Event| matches!(e, Event::Arrival(..));
            a.time().total_cmp(&b.time()).then(is_arrival(a).cmp(&is_arrival(b)))
        });
        assert_eq!(merged_events(t.jobs()).collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn empty_trace_yields_empty_result() {
        let trace = Trace::new("m", "q");
        let mut p = MaxObservedPredictor::new();
        let res = run(&trace, &mut p, &HarnessConfig::default());
        assert!(res.records.is_empty());
        assert_eq!(res.training_jobs, 0);
    }
}
