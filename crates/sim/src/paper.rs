//! What the paper's exhibits share: catalog-wide evaluation (every queue,
//! every method, in parallel), the JSON shape of the result artifacts, and
//! plain-text table rendering ([`table`]).

pub mod table;

use crate::harness::{self, HarnessConfig};
use crate::metrics::{bucket_by_proc_range, EvalMetrics};
use qdelay_predict::bmbp::{Bmbp, BmbpConfig};
use qdelay_predict::lognormal::{LogNormalConfig, LogNormalPredictor};
use qdelay_predict::QuantilePredictor;
use qdelay_trace::catalog::QueueProfile;
use qdelay_trace::synth::{self, SynthSettings};
use qdelay_json::Json;
use qdelay_trace::{ProcRange, Trace};
use std::collections::BTreeMap;

/// The three methods the paper compares (Tables 3-7 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MethodKind {
    /// Brevik Method Batch Predictor (the paper's contribution).
    Bmbp,
    /// Log-normal MLE with full history.
    LogNormalNoTrim,
    /// Log-normal MLE with BMBP's history trimming.
    LogNormalTrim,
}

impl MethodKind {
    /// Column order used by the paper.
    pub const ALL: [MethodKind; 3] = [
        MethodKind::Bmbp,
        MethodKind::LogNormalNoTrim,
        MethodKind::LogNormalTrim,
    ];

    /// The paper's column label.
    pub fn label(&self) -> &'static str {
        match self {
            MethodKind::Bmbp => "BMBP",
            MethodKind::LogNormalNoTrim => "logn NoTrim",
            MethodKind::LogNormalTrim => "logn Trim",
        }
    }

    /// Stable identifier used in the JSON result artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            MethodKind::Bmbp => "Bmbp",
            MethodKind::LogNormalNoTrim => "LogNormalNoTrim",
            MethodKind::LogNormalTrim => "LogNormalTrim",
        }
    }

    /// Inverse of [`MethodKind::name`].
    pub fn from_name(name: &str) -> Option<MethodKind> {
        MethodKind::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Instantiates a fresh predictor of this kind (95/95 spec).
    pub fn make(&self) -> Box<dyn QuantilePredictor> {
        match self {
            MethodKind::Bmbp => Box::new(Bmbp::new(BmbpConfig::default())),
            MethodKind::LogNormalNoTrim => {
                Box::new(LogNormalPredictor::new(LogNormalConfig::no_trim()))
            }
            MethodKind::LogNormalTrim => {
                Box::new(LogNormalPredictor::new(LogNormalConfig::trim()))
            }
        }
    }
}

/// Configuration of a catalog evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteConfig {
    /// Trace synthesis settings (seed etc.).
    pub synth: SynthSettings,
    /// Replay-harness settings (epoch, training fraction).
    pub harness: HarnessConfig,
    /// Minimum jobs for a processor-range cell to be reported (paper: 1000).
    pub min_cell_jobs: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self {
            synth: SynthSettings::default(),
            harness: HarnessConfig::default(),
            min_cell_jobs: 1000,
        }
    }
}

/// The evaluation result for one (queue, method) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueRun {
    /// Machine key (paper naming, e.g. `"tacc2"`).
    pub machine: String,
    /// Queue name.
    pub queue: String,
    /// Which method produced this run.
    pub method: MethodKind,
    /// Whole-queue metrics (Tables 3/4).
    pub metrics: EvalMetrics,
    /// Per-processor-range metrics for cells meeting the job minimum
    /// (Tables 5-7).
    pub per_range: BTreeMap<ProcRange, EvalMetrics>,
}

/// Runs every method over every profile, in parallel across queues.
///
/// Each queue's trace is generated once and replayed once per method, so
/// methods see byte-identical workloads (the paper's "apples-to-apples"
/// requirement). Results are ordered by catalog order, then method order.
pub fn evaluate_catalog(profiles: &[QueueProfile], config: &SuiteConfig) -> Vec<QueueRun> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    evaluate_catalog_with_workers(profiles, config, workers)
}

/// [`evaluate_catalog`] with an explicit worker count.
///
/// Results depend only on the profiles and config, never on `workers` or
/// scheduling order: each profile is seeded independently and written to its
/// own slot, so `workers = 1` and `workers = N` produce identical output.
pub fn evaluate_catalog_with_workers(
    profiles: &[QueueProfile],
    config: &SuiteConfig,
    workers: usize,
) -> Vec<QueueRun> {
    let workers = workers.clamp(1, profiles.len().max(1));

    /// Wall-clock per profile evaluation (all methods on one queue).
    static PROFILE_EVAL_NS: qdelay_telemetry::LatencyHistogram =
        qdelay_telemetry::LatencyHistogram::new("sim.paper.profile_eval_ns");
    /// Profiles evaluated across all suite invocations.
    static PROFILES_EVALUATED: qdelay_telemetry::Counter =
        qdelay_telemetry::Counter::new("sim.paper.profiles_evaluated");

    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<Vec<QueueRun>>>> =
        (0..profiles.len()).map(|_| std::sync::Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Per-worker shard: timings accumulate contention-free and
                // flush into the shared histogram once, after the loop.
                let mut timings = qdelay_telemetry::LocalHistogram::new();
                loop {
                    let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if idx >= profiles.len() {
                        break;
                    }
                    let started = std::time::Instant::now();
                    let runs = evaluate_profile(&profiles[idx], config);
                    timings.record(started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                    PROFILES_EVALUATED.incr();
                    *slots[idx].lock().expect("slot lock") = Some(runs);
                }
                PROFILE_EVAL_NS.merge_from(&timings);
            });
        }
    });

    slots
        .into_iter()
        .flat_map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every profile evaluated")
        })
        .collect()
}

/// Evaluates all three methods on one profile.
pub fn evaluate_profile(profile: &QueueProfile, config: &SuiteConfig) -> Vec<QueueRun> {
    let trace = synth::generate(profile, &config.synth);
    MethodKind::ALL
        .into_iter()
        .map(|method| evaluate_trace(&trace, method, config))
        .collect()
}

/// Evaluates one method on an explicit trace.
pub fn evaluate_trace(trace: &Trace, method: MethodKind, config: &SuiteConfig) -> QueueRun {
    let mut predictor = method.make();
    let result = harness::run(trace, predictor.as_mut(), &config.harness);
    QueueRun {
        machine: trace.machine().to_string(),
        queue: trace.queue().to_string(),
        method,
        metrics: result.metrics(),
        per_range: bucket_by_proc_range(&result.records, config.min_cell_jobs),
    }
}

/// Groups runs as `(machine, queue) -> method -> run` for table rendering.
pub fn group_by_queue(
    runs: &[QueueRun],
) -> Vec<((String, String), BTreeMap<MethodKind, QueueRun>)> {
    let mut order: Vec<(String, String)> = Vec::new();
    let mut map: BTreeMap<(String, String), BTreeMap<MethodKind, QueueRun>> = BTreeMap::new();
    for run in runs {
        let key = (run.machine.clone(), run.queue.clone());
        if !map.contains_key(&key) {
            order.push(key.clone());
        }
        map.entry(key).or_default().insert(run.method, run.clone());
    }
    order
        .into_iter()
        .map(|key| {
            let v = map.remove(&key).expect("key inserted above");
            (key, v)
        })
        .collect()
}

/// Among the methods that are *correct* on this queue (fraction >= q),
/// returns the one with the tightest bounds — the highest median
/// actual/predicted ratio. This is the boldface rule of Tables 3/4.
pub fn most_accurate_correct(
    methods: &BTreeMap<MethodKind, QueueRun>,
    target_quantile: f64,
) -> Option<MethodKind> {
    methods
        .iter()
        .filter(|(_, run)| run.metrics.is_correct(target_quantile))
        .max_by(|a, b| {
            a.1.metrics
                .median_ratio
                .partial_cmp(&b.1.metrics.median_ratio)
                .expect("finite ratios")
        })
        .map(|(k, _)| *k)
}

/// Stable JSON key for a processor range (matches the result artifacts).
fn range_key(range: ProcRange) -> &'static str {
    match range {
        ProcRange::R1To4 => "R1To4",
        ProcRange::R5To16 => "R5To16",
        ProcRange::R17To64 => "R17To64",
        ProcRange::R65Plus => "R65Plus",
    }
}

fn range_from_key(key: &str) -> Option<ProcRange> {
    ProcRange::ALL.into_iter().find(|&r| range_key(r) == key)
}

/// Non-finite medians (empty cells) serialize as `null`, as JSON requires.
fn num_or_null(x: f64) -> Json {
    if x.is_finite() {
        Json::from(x)
    } else {
        Json::Null
    }
}

fn metrics_to_json(m: &EvalMetrics) -> Json {
    Json::Obj(vec![
        ("jobs".into(), Json::from(m.jobs)),
        ("correct".into(), Json::from(m.correct)),
        ("correct_fraction".into(), Json::from(m.correct_fraction)),
        ("median_ratio".into(), num_or_null(m.median_ratio)),
        (
            "median_inverse_ratio".into(),
            num_or_null(m.median_inverse_ratio),
        ),
        ("unpredicted".into(), Json::from(m.unpredicted)),
    ])
}

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn f64_or_nan(j: &Json) -> Result<f64, String> {
    match j {
        Json::Null => Ok(f64::NAN),
        _ => j.as_f64().ok_or_else(|| "expected number".to_string()),
    }
}

fn metrics_from_json(j: &Json) -> Result<EvalMetrics, String> {
    Ok(EvalMetrics {
        jobs: field(j, "jobs")?.as_usize().ok_or("jobs not usize")?,
        correct: field(j, "correct")?.as_usize().ok_or("correct not usize")?,
        correct_fraction: field(j, "correct_fraction")?
            .as_f64()
            .ok_or("correct_fraction not f64")?,
        median_ratio: f64_or_nan(field(j, "median_ratio")?)?,
        median_inverse_ratio: f64_or_nan(field(j, "median_inverse_ratio")?)?,
        unpredicted: field(j, "unpredicted")?
            .as_usize()
            .ok_or("unpredicted not usize")?,
    })
}

/// Serializes runs to the JSON array shape stored in
/// `results_tables34.json` / `results_tables567.json`.
pub fn runs_to_json(runs: &[QueueRun]) -> Json {
    Json::Arr(
        runs.iter()
            .map(|run| {
                Json::Obj(vec![
                    ("machine".into(), Json::from(run.machine.as_str())),
                    ("queue".into(), Json::from(run.queue.as_str())),
                    ("method".into(), Json::from(run.method.name())),
                    ("metrics".into(), metrics_to_json(&run.metrics)),
                    (
                        "per_range".into(),
                        Json::Obj(
                            run.per_range
                                .iter()
                                .map(|(r, m)| (range_key(*r).to_string(), metrics_to_json(m)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// Parses the JSON array shape produced by [`runs_to_json`].
pub fn runs_from_json(j: &Json) -> Result<Vec<QueueRun>, String> {
    let arr = j.as_array().ok_or("expected top-level array")?;
    arr.iter()
        .map(|item| {
            let method_name = field(item, "method")?.as_str().ok_or("method not string")?;
            let method = MethodKind::from_name(method_name)
                .ok_or_else(|| format!("unknown method `{method_name}`"))?;
            let mut per_range = BTreeMap::new();
            for (key, val) in field(item, "per_range")?
                .as_object()
                .ok_or("per_range not object")?
            {
                let range =
                    range_from_key(key).ok_or_else(|| format!("unknown proc range `{key}`"))?;
                per_range.insert(range, metrics_from_json(val)?);
            }
            Ok(QueueRun {
                machine: field(item, "machine")?
                    .as_str()
                    .ok_or("machine not string")?
                    .to_string(),
                queue: field(item, "queue")?
                    .as_str()
                    .ok_or("queue not string")?
                    .to_string(),
                method,
                metrics: metrics_from_json(field(item, "metrics")?)?,
                per_range,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdelay_trace::catalog;

    /// A fast, small suite config for tests.
    fn quick_config() -> SuiteConfig {
        SuiteConfig {
            synth: SynthSettings::with_seed(7),
            ..SuiteConfig::default()
        }
    }

    /// A profile scaled down for test speed.
    fn small_profile() -> QueueProfile {
        let mut p = catalog::find("datastar", "express").unwrap();
        p.job_count = 3000;
        p
    }

    #[test]
    fn evaluate_profile_runs_all_methods() {
        let runs = evaluate_profile(&small_profile(), &quick_config());
        assert_eq!(runs.len(), 3);
        for r in &runs {
            assert!(r.metrics.jobs > 2000, "{:?} evaluated {} jobs", r.method, r.metrics.jobs);
        }
        // BMBP must be correct on a calibrated stationary-ish queue.
        let bmbp = runs.iter().find(|r| r.method == MethodKind::Bmbp).unwrap();
        assert!(
            bmbp.metrics.correct_fraction >= 0.95,
            "bmbp fraction {}",
            bmbp.metrics.correct_fraction
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut p1 = small_profile();
        p1.job_count = 1500;
        let mut p2 = catalog::find("sdsc", "express").unwrap();
        p2.job_count = 1500;
        let profiles = vec![p1.clone(), p2.clone()];
        let cfg = quick_config();
        let parallel = evaluate_catalog(&profiles, &cfg);
        let sequential: Vec<QueueRun> = profiles
            .iter()
            .flat_map(|p| evaluate_profile(p, &cfg))
            .collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn grouping_preserves_catalog_order() {
        let mut p1 = small_profile();
        p1.job_count = 1200;
        let mut p2 = catalog::find("sdsc", "express").unwrap();
        p2.job_count = 1200;
        let runs = evaluate_catalog(&[p1, p2], &quick_config());
        let grouped = group_by_queue(&runs);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].0 .1, "express");
        assert_eq!(grouped[0].0 .0, "datastar");
        assert_eq!(grouped[1].0 .0, "sdsc");
        assert_eq!(grouped[0].1.len(), 3);
    }

    #[test]
    fn json_round_trip_preserves_runs() {
        let runs = evaluate_profile(&small_profile(), &quick_config());
        let json = runs_to_json(&runs);
        let text = json.to_string_pretty();
        let parsed = Json::parse(&text).expect("self-produced JSON parses");
        let back = runs_from_json(&parsed).expect("round trip");
        assert_eq!(back, runs);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let mut p1 = small_profile();
        p1.job_count = 1200;
        let mut p2 = catalog::find("sdsc", "express").unwrap();
        p2.job_count = 1200;
        let profiles = vec![p1, p2];
        let cfg = quick_config();
        let one = evaluate_catalog_with_workers(&profiles, &cfg, 1);
        let four = evaluate_catalog_with_workers(&profiles, &cfg, 4);
        assert_eq!(one, four);
    }

    #[test]
    fn boldface_rule_prefers_tightest_correct() {
        let mk = |fraction: f64, ratio: f64, method: MethodKind| QueueRun {
            machine: "m".into(),
            queue: "q".into(),
            method,
            metrics: EvalMetrics {
                jobs: 1000,
                correct: (fraction * 1000.0) as usize,
                correct_fraction: fraction,
                median_ratio: ratio,
                median_inverse_ratio: 1.0 / ratio,
                unpredicted: 0,
            },
            per_range: BTreeMap::new(),
        };
        let mut methods = BTreeMap::new();
        methods.insert(MethodKind::Bmbp, mk(0.97, 0.01, MethodKind::Bmbp));
        // Tighter but incorrect: must not win.
        methods.insert(
            MethodKind::LogNormalNoTrim,
            mk(0.90, 0.5, MethodKind::LogNormalNoTrim),
        );
        methods.insert(
            MethodKind::LogNormalTrim,
            mk(0.96, 0.005, MethodKind::LogNormalTrim),
        );
        assert_eq!(most_accurate_correct(&methods, 0.95), Some(MethodKind::Bmbp));
    }
}
