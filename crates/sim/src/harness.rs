//! The event-driven replay loop (paper §5.1).
//!
//! Three event kinds drive the simulation, exactly as in the paper:
//!
//! 1. **job start** — a pending job's wait expires; its wait time joins the
//!    predictor's history and, if the job carried a prediction, the
//!    success/failure is fed back for change-point detection;
//! 2. **job arrival** — the currently served prediction is recorded for the
//!    arriving job and the job joins the pending queue;
//! 3. **epoch** — every `epoch_secs` whole seconds of virtual time the
//!    predictor refits and the served prediction is refreshed.
//!
//! With `epoch_secs = 0` the predictor refits before every arrival — the
//! paper's "likely unrealizable" per-job-update deployment, kept as an
//! ablation (§5.1 reports its effect is minimal).
//!
//! An epoch refits only if a job started since the last refit and someone
//! reads the bound it computes: the next arrival, if it comes before the
//! next epoch, or a sample at or before this epoch.
//! Otherwise the refit is left to a later epoch, which computes from the
//! later state the bound a reader would be served anyway (the contract on
//! [`QuantilePredictor::refit`]).

use qdelay_predict::QuantilePredictor;
use qdelay_telemetry::{time_scope, Counter, LatencyHistogram, Span};
use qdelay_trace::Trace;

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
/// Epochs elapsed (excludes the per-arrival refits of `epoch_secs = 0`).
/// An epoch refits only if the predictor changed since its last refit and
/// the bound is read before the next epoch, so this counts epochs, not
/// refits.
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
    /// Whole seconds of virtual time between refit epochs (paper: 300).
    /// Zero means "refit before every arrival". Either way a refit runs
    /// only if a job started since the last one, and an epoch's refit only
    /// if the next arrival comes before the next epoch or a sample falls at
    /// or before this epoch: no one else reads the bound it computes.
    pub epoch_secs: u64,
    /// Leading fraction of jobs used for training (paper: 0.10).
    pub training_fraction: f64,
    /// Optional bound-sampling window for time-series figures.
    pub sample: Option<SampleWindow>,
}

impl Default for HarnessConfig {
    /// The paper's settings: 300-second epochs, 10% training, no sampling.
    fn default() -> Self {
        Self {
            epoch_secs: 300,
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
    /// Sampling step, seconds (positive).
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
/// order (the caller asserts it) and starts walk the trace's cached
/// [`Trace::start_order`] (ties by job index; it asserts every start time
/// is finite); the two are merged on the fly.
fn merged_events(trace: &Trace) -> impl Iterator<Item = Event> + '_ {
    let jobs = trace.jobs();
    let mut starts = trace
        .start_order()
        .iter()
        .map(|&idx| (jobs[idx as usize].start_time(), idx as usize))
        .peekable();
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
/// Panics if `config.training_fraction` is not in `[0, 1)`, a sample
/// window's step is zero, the trace is not sorted by submission time or a
/// start time is not finite.
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
        config.sample.is_none_or(|w| w.step > 0),
        "sample step must be positive"
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

    let mut records: Vec<PredictionRecord> = Vec::with_capacity(n - training_jobs);
    let mut samples = Vec::new();
    // Epochs are the whole seconds `first submit + k·epoch_secs`, k ≥ 1.
    let step = config.epoch_secs;
    let mut next_epoch = match jobs.first() {
        Some(first) if step > 0 => first.submit.checked_add(step),
        _ => None,
    };
    let mut next_sample = config.sample.filter(|w| w.start <= w.end).map(|w| w.start);
    let mut arrivals_seen = 0usize;
    // Global-counter traffic is batched in locals and flushed once per run:
    // even one relaxed `fetch_add` per event is measurable against a
    // ~40 ns incremental refit.
    let mut refit_tick: u32 = 0;
    let mut epochs: u64 = 0;
    let mut predictions_served: u64 = 0;
    // Whether the predictor may have changed since its last refit: set by
    // every start, cleared by every refit and by `finish_training`, which
    // must leave the bound as current as a refit would (its contract on
    // `QuantilePredictor`). A refit while it is clear would serve the same
    // bound, and one whose bound nobody reads may wait for a later epoch
    // (the contract on `QuantilePredictor::refit`). It starts set because a
    // predictor may be handed over with history it has not refit on.
    let mut stale = true;
    let mut trained = training_jobs == 0;
    if trained {
        predictor.finish_training();
        stale = false;
    }

    for ev in merged_events(trace) {
        let now = ev.time();
        if let Some((due, last)) = next_epoch.and_then(|epoch| due_epochs(epoch, step, now)) {
            epochs += due;
            next_epoch = last.checked_add(step);
            // The bound refit at `last` is read by the next arrival if it
            // comes before the next epoch and is served (a training arrival
            // is not, and the one that ends training refits in
            // `finish_training`), and by any sample at or before `last`.
            // The epochs before `last` fire with no event between them.
            let arrival_reads = trained
                && jobs
                    .get(arrivals_seen)
                    .is_some_and(|j| next_epoch.is_none_or(|e| j.submit < e));
            if arrival_reads || next_sample.is_some_and(|t| t <= last) {
                refit_if_stale(predictor, &mut stale, refit_ns, &mut refit_tick);
            }
            record_samples(
                &mut next_sample,
                &config.sample,
                last,
                predictor,
                &mut samples,
            );
        }
        match ev {
            Event::Start(_, idx) => {
                let actual = jobs[idx].wait_secs;
                predictor.observe(actual);
                // The bound served to job `idx` is its record's; a job that
                // starts before it arrives (a zero wait) has none yet.
                let served = idx
                    .checked_sub(training_jobs)
                    .and_then(|k| records.get(k))
                    .and_then(|r| r.predicted);
                if let Some(predicted) = served {
                    predictor.record_outcome(predicted, actual);
                }
                stale = true;
            }
            Event::Arrival(_, idx) => {
                if step == 0 {
                    refit_if_stale(predictor, &mut stale, refit_ns, &mut refit_tick);
                }
                arrivals_seen += 1;
                if !trained && arrivals_seen > training_jobs {
                    predictor.finish_training();
                    stale = false;
                    trained = true;
                }
                if trained {
                    let predicted = predictor.current_bound().value();
                    if predicted.is_some() {
                        predictions_served += 1;
                    }
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
    if next_sample.is_some() {
        refit_if_stale(predictor, &mut stale, refit_ns, &mut refit_tick);
        record_samples(
            &mut next_sample,
            &config.sample,
            u64::MAX,
            predictor,
            &mut samples,
        );
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

/// Refits `predictor` if `stale`, clearing it, and times one refit in
/// [`REFIT_SAMPLE_MASK`]` + 1`.
fn refit_if_stale(
    predictor: &mut dyn QuantilePredictor,
    stale: &mut bool,
    refit_ns: &'static LatencyHistogram,
    refit_tick: &mut u32,
) {
    if std::mem::take(stale) {
        let _refit_span = Span::enter_sampled(refit_ns, refit_tick, REFIT_SAMPLE_MASK);
        predictor.refit();
    }
}

/// `(count, last)` of the epochs due at an event at `now`, the next being
/// `epoch` and the rest `step` apart: those at or before `now`, which are
/// whole seconds, so those at or before its floor. `None` if none is due.
fn due_epochs(epoch: u64, step: u64, now: f64) -> Option<(u64, u64)> {
    // `as` floors a finite non-negative time and saturates a larger one.
    let floor = now as u64;
    let due = floor.checked_sub(epoch)? / step + 1;
    Some((due, epoch + (due - 1) * step))
}

/// Samples the served bound at every sample time up to `until`, leaving
/// `next_sample` at the first one after it (`None` past the window's end).
fn record_samples(
    next_sample: &mut Option<u64>,
    window: &Option<SampleWindow>,
    until: u64,
    predictor: &dyn QuantilePredictor,
    samples: &mut Vec<BoundSample>,
) {
    let Some(w) = window else { return };
    while let Some(t) = next_sample.filter(|&t| t <= until) {
        samples.push(BoundSample {
            time: t,
            bound: predictor.current_bound().value(),
        });
        *next_sample = t.checked_add(w.step).filter(|&t| t <= w.end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdelay_predict::bmbp::Bmbp;
    use qdelay_predict::{BoundOutcome, BoundSpec};
    use qdelay_trace::JobRecord;

    /// Serves the largest wait seen as of its last refit: a bound from the
    /// first wait on, where BMBP needs 59.
    #[derive(Default)]
    struct MaxSoFar {
        max: Option<f64>,
        served: Option<f64>,
        seen: usize,
    }

    impl QuantilePredictor for MaxSoFar {
        fn name(&self) -> &str { "max-so-far" }
        fn spec(&self) -> BoundSpec { BoundSpec::paper_default() }
        fn observe(&mut self, wait: f64) {
            self.max = Some(self.max.map_or(wait, |m| m.max(wait)));
            self.seen += 1;
        }
        fn refit(&mut self) { self.served = self.max; }
        fn current_bound(&self) -> BoundOutcome {
            self.served.map_or(BoundOutcome::InsufficientHistory { needed: 1 }, BoundOutcome::Bound)
        }
        fn record_outcome(&mut self, _predicted: f64, _actual: f64) {}
        fn history_len(&self) -> usize { self.seen }
    }

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
        let mut p = MaxSoFar::default();
        let res = run(&trace, &mut p, &HarnessConfig::default());
        assert_eq!(res.training_jobs, 10);
        assert_eq!(res.records.len(), 90);
    }

    #[test]
    fn predictor_only_sees_started_jobs() {
        // Waits of 10 000 s with arrivals every 60 s: when job i arrives,
        // jobs arriving in the last 10 000 s are still pending, so the
        // max-so-far predictor must lag behind.
        let mut trace = Trace::new("m", "q");
        for i in 0..50u64 {
            trace.push(JobRecord {
                submit: i * 60,
                wait_secs: 10_000.0 + i as f64, // strictly increasing waits
                procs: 1,
                run_secs: 1.0,
            });
        }
        let mut p = MaxSoFar::default();
        let res = run(
            &trace,
            &mut p,
            &HarnessConfig {
                epoch_secs: 0, // refit continuously; isolation is the point
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
        let mut p = MaxSoFar::default();
        let res = run(
            &trace,
            &mut p,
            &HarnessConfig {
                epoch_secs: 0,
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
        let mut p = MaxSoFar::default();
        let res = run(
            &trace,
            &mut p,
            &HarnessConfig {
                epoch_secs: 1_000_000_000,
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
        let mut p = MaxSoFar::default();
        let cfg = HarnessConfig {
            epoch_secs: 300,
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
        let mut p = MaxSoFar::default();
        run(&trace, &mut p, &HarnessConfig::default());
    }

    /// What the merge replaced: every event pushed (arrival before start,
    /// per job) and stable-sorted by time, a start ranking first at equal
    /// times.
    fn sorted_events(trace: &Trace) -> Vec<Event> {
        let mut sorted = Vec::new();
        for (i, j) in trace.jobs().iter().enumerate() {
            sorted.push(Event::Arrival(j.submit as f64, i));
            sorted.push(Event::Start(j.start_time(), i));
        }
        sorted.sort_by(|a, b| {
            let is_arrival = |e: &Event| matches!(e, Event::Arrival(..));
            a.time().total_cmp(&b.time()).then(is_arrival(a).cmp(&is_arrival(b)))
        });
        sorted
    }

    /// The merge against what it replaced. Small integer gaps and waits
    /// make ties of every kind — start/start, start/arrival, a zero wait —
    /// common.
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
        assert_eq!(merged_events(&t).collect::<Vec<_>>(), sorted_events(&t));
    }

    /// Counts the refits `run` asks for, and checks each is owed: the
    /// wrapper is dirty from any change until the next refit or
    /// `finish_training`, and at the start (a handed-over predictor may
    /// not have refit on its history).
    struct Counting<P> {
        inner: P,
        dirty: bool,
        refits: usize,
        dirty_reads: std::cell::Cell<usize>,
    }

    impl<P: QuantilePredictor> QuantilePredictor for Counting<P> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn spec(&self) -> qdelay_predict::BoundSpec {
            self.inner.spec()
        }
        fn observe(&mut self, wait: f64) {
            self.dirty = true;
            self.inner.observe(wait);
        }
        fn refit(&mut self) {
            assert!(std::mem::take(&mut self.dirty), "a refit that follows no change");
            self.refits += 1;
            self.inner.refit();
        }
        fn current_bound(&self) -> qdelay_predict::BoundOutcome {
            self.dirty_reads.set(self.dirty_reads.get() + usize::from(self.dirty));
            self.inner.current_bound()
        }
        fn record_outcome(&mut self, predicted: f64, actual: f64) {
            self.dirty = true;
            self.inner.record_outcome(predicted, actual);
        }
        fn finish_training(&mut self) {
            self.dirty = false;
            self.inner.finish_training();
        }
        fn history_len(&self) -> usize {
            self.inner.history_len()
        }
    }

    /// Every sample time of `config`'s window, if it has one.
    fn sample_times(config: &HarnessConfig) -> impl Iterator<Item = u64> {
        let window = config.sample.into_iter();
        window.flat_map(|w| (w.start..=w.end).step_by(w.step as usize))
    }

    /// `(refits owed, epochs elapsed)` for `trace` under `config`, walking
    /// the epochs one at a time in floating point. A refit is owed while a
    /// start precedes it since the last refit or `finish_training`: at an
    /// epoch, if the next arrival comes before the next epoch and is served
    /// after training ended, or a sample falls at or before this one; at
    /// each arrival, at `epoch_secs = 0`; and before the samples that trail
    /// the last event.
    fn owed_refits(trace: &Trace, config: &HarnessConfig) -> (usize, usize) {
        let jobs = trace.jobs();
        let training = (trace.len() as f64 * config.training_fraction).ceil() as usize;
        let step = config.epoch_secs as f64;
        let (mut owed, mut epochs, mut arrivals) = (0, 0, 0);
        let mut changed = training > 0;
        let mut settle = |changed: &mut bool| owed += usize::from(std::mem::take(changed));
        let mut samples = sample_times(config).peekable();
        let mut epoch = jobs[0].submit as f64 + step;
        for ev in merged_events(trace) {
            while step > 0.0 && epoch <= ev.time() {
                let trained = training == 0 || arrivals > training;
                let arrival_reads = trained
                    && jobs.get(arrivals).is_some_and(|j| (j.submit as f64) < epoch + step);
                if arrival_reads || samples.peek().is_some_and(|&t| t as f64 <= epoch) {
                    settle(&mut changed);
                }
                while samples.next_if(|&t| t as f64 <= epoch).is_some() {}
                epoch += step;
                epochs += 1;
            }
            match ev {
                Event::Start(..) => changed = true,
                Event::Arrival(..) => {
                    if step == 0.0 {
                        settle(&mut changed);
                    }
                    arrivals += 1;
                    if training > 0 && arrivals == training + 1 {
                        changed = false;
                    }
                }
            }
        }
        if samples.peek().is_some() {
            settle(&mut changed);
        }
        (owed, epochs)
    }

    /// Bursty arrivals and heavy-tailed waits: some epochs see many starts,
    /// many see none. Job 0 and a job in the result phase wait zero (so
    /// each starts before it arrives), and a job arrives on an epoch.
    fn bursty_trace() -> Trace {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |modulus: u64| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % modulus
        };
        let mut submit = 10_000;
        let mut t = Trace::new("m", "q");
        for i in 0..3_000 {
            submit += if next(10) == 0 { next(20_000) } else { next(120) };
            if i == 2_000 {
                submit += 300 - (submit - 10_000) % 300;
            }
            let wait = if i % 2_000 == 0 { 0.0 } else { (next(1_000) * next(1_000)) as f64 / 40.0 };
            t.push(JobRecord { submit, wait_secs: wait, procs: 1, run_secs: 1.0 });
        }
        t
    }

    /// The replay as it was written before epochs were counted and refits
    /// skipped: the events of [`sorted_events`], a float walk over the
    /// epochs with a refit at each, a refit before every arrival at
    /// `epoch_secs = 0`, and each job's served bound kept by index.
    fn reference_run(
        trace: &Trace,
        p: &mut dyn QuantilePredictor,
        config: &HarnessConfig,
    ) -> HarnessResult {
        let jobs = trace.jobs();
        let training = (jobs.len() as f64 * config.training_fraction).ceil() as usize;
        let mut sample_times = sample_times(config).peekable();
        let (mut records, mut samples) = (Vec::new(), Vec::new());
        let mut served = vec![None; jobs.len()];
        let mut epoch = jobs[0].submit as f64 + config.epoch_secs as f64;
        let mut arrivals = 0;
        if training == 0 {
            p.finish_training();
        }
        for ev in sorted_events(trace) {
            while config.epoch_secs > 0 && epoch <= ev.time() {
                p.refit();
                while let Some(time) = sample_times.next_if(|&t| t as f64 <= epoch) {
                    samples.push(BoundSample { time, bound: p.current_bound().value() });
                }
                epoch += config.epoch_secs as f64;
            }
            match ev {
                Event::Start(_, i) => {
                    p.observe(jobs[i].wait_secs);
                    if let Some(predicted) = served[i] {
                        p.record_outcome(predicted, jobs[i].wait_secs);
                    }
                }
                Event::Arrival(_, i) => {
                    if config.epoch_secs == 0 {
                        p.refit();
                    }
                    arrivals += 1;
                    if training > 0 && arrivals == training + 1 {
                        p.finish_training();
                    }
                    if i >= training {
                        served[i] = p.current_bound().value();
                        let (submit, predicted) = (jobs[i].submit, served[i]);
                        let (actual, procs) = (jobs[i].wait_secs, jobs[i].procs);
                        records.push(PredictionRecord { submit, predicted, actual, procs });
                    }
                }
            }
        }
        p.refit();
        for time in sample_times {
            samples.push(BoundSample { time, bound: p.current_bound().value() });
        }
        HarnessResult {
            machine: trace.machine().to_string(),
            queue: trace.queue().to_string(),
            predictor: p.name().to_string(),
            training_jobs: training,
            records,
            samples,
        }
    }

    /// The configurations the refit tests sweep: epoch 300 and 0, with and
    /// without a sample window, and no training phase.
    fn refit_configs(trace: &Trace) -> [HarnessConfig; 5] {
        let (first, last) = trace.span().unwrap();
        let window = SampleWindow { start: first + 5_000, end: last + 50_000, step: 1_700 };
        [
            HarnessConfig::default(),
            HarnessConfig { epoch_secs: 0, ..HarnessConfig::default() },
            HarnessConfig { sample: Some(window), ..HarnessConfig::default() },
            HarnessConfig { epoch_secs: 0, sample: Some(window), ..HarnessConfig::default() },
            HarnessConfig { training_fraction: 0.0, ..HarnessConfig::default() },
        ]
    }

    #[test]
    fn bursty_trace_has_the_edge_cases() {
        let trace = bursty_trace();
        let jobs = trace.jobs();
        let on_epoch = |t: f64| t.fract() == 0.0 && (t as u64 - jobs[0].submit).is_multiple_of(300);
        assert_eq!(jobs[0].wait_secs, 0.0);
        assert!(jobs[300..].iter().any(|j| j.wait_secs == 0.0));
        assert!(jobs.iter().any(|j| on_epoch(j.submit as f64)));
        assert!(jobs.iter().any(|j| j.wait_secs > 0.0 && on_epoch(j.start_time())));
    }

    #[test]
    fn a_refit_runs_only_after_a_start() {
        let trace = bursty_trace();
        for config in refit_configs(&trace) {
            let mut p = Counting {
                inner: Bmbp::with_defaults(),
                dirty: true,
                refits: 0,
                dirty_reads: Default::default(),
            };
            let res = run(&trace, &mut p, &config);
            let (owed, epochs) = owed_refits(&trace, &config);
            assert_eq!(p.refits, owed, "{config:?}");
            if config.epoch_secs > 0 {
                assert!(owed < epochs / 2, "{owed} refits over {epochs} epochs");
            } else {
                // Every question is answered after a refit on every start.
                assert_eq!(p.dirty_reads.get(), 0);
            }
            // Sampling still happens at every step of the window.
            if config.sample.is_some() {
                let times: Vec<u64> = res.samples.iter().map(|s| s.time).collect();
                assert_eq!(times, sample_times(&config).collect::<Vec<_>>());
                assert!(res.samples.last().unwrap().bound.is_some());
            }
        }
    }

    /// Served bounds and samples are those of a replay that refits at every
    /// epoch, bit for bit, for every predictor. A wrong bound fed back at a
    /// start shows too: the trimming predictors trim on it.
    #[test]
    fn skipped_refits_serve_the_reference_bounds() {
        use qdelay_predict::lognormal::{LogNormalConfig, LogNormalPredictor};
        let trace = bursty_trace();
        let makers: [fn() -> Box<dyn QuantilePredictor>; 4] = [
            || Box::new(Bmbp::with_defaults()),
            || Box::new(LogNormalPredictor::new(LogNormalConfig::no_trim())),
            || Box::new(LogNormalPredictor::new(LogNormalConfig::trim())),
            || Box::new(MaxSoFar::default()),
        ];
        let bits = |res: &HarnessResult| {
            let records = res.records.iter().map(|r| (r.submit, r.predicted.map(f64::to_bits)));
            let samples = res.samples.iter().map(|s| (s.time, s.bound.map(f64::to_bits)));
            (records.collect::<Vec<_>>(), samples.collect::<Vec<_>>())
        };
        for config in refit_configs(&trace) {
            for make in makers {
                let (mut p, mut q) = (make(), make());
                let got = run(&trace, p.as_mut(), &config);
                let want = reference_run(&trace, q.as_mut(), &config);
                assert_eq!(bits(&got), bits(&want), "{} {config:?}", got.predictor);
                assert_eq!(got.records.len(), trace.len() - got.training_jobs);
            }
        }
    }

    #[test]
    fn due_epochs_match_a_float_walk() {
        let trace = bursty_trace();
        for step in [1, 7, 300, 86_400] {
            let first = trace.jobs()[0].submit;
            let (mut walked, mut next) = (first as f64 + step as f64, Some(first + step));
            for ev in merged_events(&trace) {
                let mut due = 0;
                while walked <= ev.time() {
                    walked += step as f64;
                    due += 1;
                }
                match next.and_then(|epoch| due_epochs(epoch, step, ev.time())) {
                    Some((count, last)) => {
                        let want = (due, walked - step as f64);
                        assert_eq!((count, last as f64), want, "{ev:?} step {step}");
                        next = Some(last + step);
                    }
                    None => assert_eq!(due, 0, "{ev:?} step {step}"),
                }
                assert_eq!(next.map(|e| e as f64), Some(walked));
            }
        }
    }

    #[test]
    #[should_panic(expected = "sample step must be positive")]
    fn a_zero_sample_step_is_rejected() {
        let config = HarnessConfig {
            sample: Some(SampleWindow { start: 1000, end: 2000, step: 0 }),
            ..HarnessConfig::default()
        };
        run(&uniform_trace(20, 60, 5.0), &mut MaxSoFar::default(), &config);
    }

    #[test]
    #[should_panic(expected = "finite event times")]
    fn an_infinite_wait_is_rejected() {
        let mut trace = Trace::new("m", "q");
        for i in 0..20 {
            let wait_secs = if i == 7 { f64::INFINITY } else { 5.0 };
            trace.push(JobRecord { submit: 1000 + i * 60, wait_secs, procs: 1, run_secs: 100.0 });
        }
        run(&trace, &mut MaxSoFar::default(), &HarnessConfig::default());
    }

    #[test]
    fn empty_trace_yields_empty_result() {
        let trace = Trace::new("m", "q");
        let mut p = MaxSoFar::default();
        let res = run(&trace, &mut p, &HarnessConfig::default());
        assert!(res.records.is_empty());
        assert_eq!(res.training_jobs, 0);
    }
}
