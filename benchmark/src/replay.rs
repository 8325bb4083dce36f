//! `replay-catalog`: no socket at all. The Table 1 catalog is synthesized
//! from the seed, one simulated machine with a mid-run policy change is
//! added, and every trace is replayed through the paper's evaluation
//! harness with all three methods, on two threads. `predict`, `stats`,
//! `sim` and `trace` do all the work; the transport does none.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use qdelay_batchsim::engine::Simulation;
use qdelay_batchsim::policy::{PolicyChange, PolicySchedule, SchedulerPolicy};
use qdelay_batchsim::workload::WorkloadConfig;
use qdelay_batchsim::{MachineConfig, QueueSpec};
use qdelay_predict::bmbp::Bmbp;
use qdelay_predict::lognormal::{LogNormalConfig, LogNormalPredictor};
use qdelay_predict::QuantilePredictor;
use qdelay_serve::registry::Partition;
use qdelay_sim::harness::{self, HarnessConfig};
use qdelay_trace::{catalog, synth, Trace};

use crate::child::{own_cpu_seconds, own_peak_rss_mib};
use crate::util::{median, quantile_sorted, sliced_p99, sorted, Digest};
use crate::{Ctx, Metric, Outcome, REPLAY_CATALOG};

const METHODS: usize = 3;

fn method(index: usize) -> Box<dyn QuantilePredictor> {
    match index {
        0 => Box::new(Bmbp::with_defaults()),
        1 => Box::new(LogNormalPredictor::new(LogNormalConfig::no_trim())),
        _ => Box::new(LogNormalPredictor::new(LogNormalConfig::trim())),
    }
}

/// A 64-day, 256-processor machine under EASY backfill that switches to
/// conservative backfill with a large-job boost for days 30–35: a policy
/// change covering under a tenth of the run, which the change-point
/// detector has to find.
pub fn machine_trace(seed: u64, days: u32) -> Trace {
    const DAY: u64 = 86_400;
    let machine = MachineConfig {
        procs: 256,
        queues: vec![QueueSpec::new("normal", 10)],
    };
    let (from, to) = (
        u64::from(days) * DAY * 30 / 64,
        u64::from(days) * DAY * 35 / 64,
    );
    let mut schedule = PolicySchedule::new();
    schedule.add(
        from,
        PolicyChange::SetPolicy(SchedulerPolicy::ConservativeBackfill),
    );
    schedule.add(
        from,
        PolicyChange::SetLargeJobBoost {
            min_procs: 17,
            boost: 1_000,
        },
    );
    schedule.add(
        to,
        PolicyChange::SetLargeJobBoost {
            min_procs: 17,
            boost: 0,
        },
    );
    schedule.add(to, PolicyChange::SetPolicy(SchedulerPolicy::EasyBackfill));
    let workload = WorkloadConfig {
        days,
        jobs_per_day: 140.0,
        proc_mix: synth::ProcMix::new([0.50, 0.30, 0.18, 0.02]),
        seed,
        ..WorkloadConfig::default()
    };
    let mut sim = Simulation::new(machine, SchedulerPolicy::EasyBackfill).with_schedule(schedule);
    sim.run(&workload).swap_remove(0)
}

/// The traces of one seed: the queue-table catalog at full length plus the
/// simulated machine.
fn build_traces(seed: u64) -> Vec<Trace> {
    let mut traces = synth::generate_catalog(
        &catalog::queue_table_catalog(),
        &synth::SynthSettings::with_seed(seed),
    );
    traces.push(machine_trace(seed, 64));
    traces
}

/// What one `(trace, method)` replay produced.
#[derive(Clone, Copy, PartialEq)]
struct UnitResult {
    jobs: u64,
    served: u64,
    covered: u64,
    digest: f64,
}

fn replay_unit(trace: &Trace, method_index: usize) -> UnitResult {
    let mut predictor = method(method_index);
    let result = harness::run(trace, predictor.as_mut(), &HarnessConfig::default());
    let mut digest = Digest::new();
    let (mut served, mut covered) = (0, 0);
    for r in &result.records {
        if let Some(p) = r.predicted {
            digest.eat(p.to_bits());
            served += 1;
            covered += u64::from(r.actual <= p);
        }
    }
    UnitResult {
        jobs: trace.len() as u64,
        served,
        covered,
        digest: digest.value(),
    }
}

/// The latency a scheduler sees for one question asked in-process: reveal
/// the job's wait to a partition and ask for the bounds (`observe` + a
/// dirty `predict`), each round trip timed on its own, in nanoseconds.
fn question_latencies(trace: &Trace, deadline: Instant) -> Vec<u32> {
    let waits = trace.waits();
    let mut out = Vec::new();
    'outer: loop {
        let mut p = Partition::new();
        for chunk in waits.chunks(256) {
            if Instant::now() >= deadline {
                break 'outer;
            }
            for &w in chunk {
                let t = Instant::now();
                p.observe(w, None, None);
                std::hint::black_box(p.predict());
                out.push(t.elapsed().as_nanos().min(u32::MAX as u128) as u32);
            }
        }
    }
    out
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new(REPLAY_CATALOG);
    let threads = ctx.conns;

    let mut setup_s = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..ctx.setups() {
        // Free the previous round first: two catalogs alive at once would
        // be the peak RSS.
        drop(std::mem::take(&mut traces));
        let started = Instant::now();
        traces = build_traces(ctx.seed);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let units = traces.len() * METHODS;
    let jobs_per_pass: u64 = traces.iter().map(|t| t.len() as u64).sum::<u64>() * METHODS as u64;
    out.note(format!(
        "{} traces ({} catalog queues + 1 simulated machine), {jobs_per_pass} job-method \
         replays per pass, {threads} thread(s)",
        traces.len(),
        traces.len() - 1
    ));

    // Depth-1 analogue: one question at a time per thread.
    let deadline = Instant::now() + ctx.depth1_len();
    let latencies: Vec<Vec<u32>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let trace = &traces[t % traces.len()];
                s.spawn(move || question_latencies(trace, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a replay thread panicked"))
            .collect()
    });
    let d1: Vec<u32> = latencies.into_iter().flatten().collect();
    let questions = d1.len();
    let d1_p99_us = ctx.traced.then(|| sliced_p99(&d1) / 1e3);
    let d1_p50_us = quantile_sorted(&sorted(d1), 0.5) / 1e3;

    // Saturation analogue: both threads pull (trace, method) units off one
    // counter, pass after pass, until the deadline.
    let cpu0 = own_cpu_seconds().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let deadline = started + ctx.saturation_len();
    let next = AtomicUsize::new(0);
    let done: Vec<Vec<(usize, UnitResult, Instant)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    while Instant::now() < deadline {
                        let u = next.fetch_add(1, Ordering::Relaxed);
                        let (trace, m) = ((u % units) / METHODS, u % METHODS);
                        mine.push((u, replay_unit(&traces[trace], m), Instant::now()));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a replay thread panicked"))
            .collect()
    });
    let cpu1 = own_cpu_seconds().map_err(|e| e.to_string())?;
    let mut done: Vec<_> = done.into_iter().flatten().collect();
    done.sort_by_key(|(u, _, _)| *u);
    let wall = done
        .iter()
        .map(|(_, _, at)| *at)
        .max()
        .map_or(Duration::ZERO, |at| at - started);
    let jobs: u64 = done.iter().map(|(_, r, _)| r.jobs).sum();

    // Oracle: a replay is a pure function of its trace and method, so every
    // later pass must reproduce the first pass's result bit for bit, and
    // every unit must have served a bound to most of its jobs.
    let mut first: Vec<Option<UnitResult>> = vec![None; units];
    let (mut bad, mut why) = (0u64, None);
    for (u, r, _) in &done {
        match &first[u % units] {
            None => first[u % units] = Some(*r),
            Some(f) if f == r => {}
            Some(_) => {
                bad += 1;
                why.get_or_insert(format!("unit {} differs between passes", u % units));
            }
        }
        if r.served * 2 < r.jobs {
            bad += 1;
            why.get_or_insert(format!(
                "unit {} served bounds to under half its jobs",
                u % units
            ));
        }
    }
    out.attempted += done.len() as u64;
    out.failed += bad;
    if let Some(why) = why {
        out.note(format!("first replay failure: {why}"));
    }

    // Coverage is the paper's success metric: BMBP units of the first pass
    // only, so it is exact for a seed once one pass completes.
    let bmbp = first.iter().step_by(METHODS).flatten();
    let (served, covered) = bmbp.fold((0, 0), |(s, c), r| (s + r.served, c + r.covered));
    let complete = first.iter().all(Option::is_some);
    out.note(format!(
        "{} units replayed ({:.2} passes); first pass {}; coverage pooled over {served} BMBP predictions",
        done.len(),
        done.len() as f64 / units as f64,
        if complete { "complete" } else { "incomplete: coverage is over a partial catalog" }
    ));

    out.e2e = vec![
        Metric::new("throughput_rps", jobs as f64 / wall.as_secs_f64(), "ops/s"),
        Metric::new("latency_p50_us", d1_p50_us, "us"),
        Metric::new(
            "cpu_us_per_op",
            (cpu1 - cpu0) * 1e6 / jobs.max(1) as f64,
            "us",
        ),
        Metric::new(
            "peak_rss_mb",
            own_peak_rss_mib().map_err(|e| e.to_string())?,
            "MiB",
        ),
        Metric::new(
            "bound_coverage",
            covered as f64 / served.max(1) as f64,
            "fraction",
        ),
        Metric::new("setup_s", median(&setup_s), "s"),
    ];
    out.note(format!(
        "latency from {questions} in-process observe+predict round trips; set-up (trace \
         synthesis) times {setup_s:.3?} s"
    ));

    if let Some(p99_us) = d1_p99_us {
        out.layer("client.latency_p99_us", p99_us);
        out.layer("client.sat_rps_mean", jobs as f64 / wall.as_secs_f64());
        crate::layers::replay_ledger(ctx, d1_p50_us, &mut out)?;
    }
    Ok(out)
}
