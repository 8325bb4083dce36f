//! The scheduler differential: the production engine vs an independent
//! rebuild-per-event oracle.
//!
//! The oracle below is a second event loop, written only here. At every
//! event it re-derives everything from scratch: the priority order (a
//! [`PriorityState`] with the administrator actions due so far applied),
//! the urgency order, the EASY pass, the conservative availability profile
//! and its greedy placement, and the admission verdicts. Nothing is
//! carried between passes except what the contract requires: the running
//! jobs, the waiting set and the per-queue predictors.
//!
//! Every scenario runs one job list and policy schedule through both
//! [`Simulation`] and the oracle and demands *byte-identical* results: the
//! exact `(job, start_time)` sequence in the order the scheduler made the
//! starts, the per-arrival admission verdicts, the per-queue wait traces,
//! and the derived machine metrics. Conservative scenarios span drainable
//! and overloaded queues, on-time, early and late completions, multi-queue
//! priorities, administrator policy flips mid-trace and same-instant event
//! storms. Predictive scenarios span seeded overload waves, a dense burst
//! and mid-trace switches.

use qdelay::batchsim::engine::{AdmitRecord, Simulation, StartRecord};
use qdelay::batchsim::metrics::machine_metrics;
use qdelay::batchsim::policy::{PolicyChange, PolicySchedule, PriorityState, SchedulerPolicy};
use qdelay::batchsim::workload::{self, WorkloadConfig};
use qdelay::batchsim::{DeadlineConfig, MachineConfig, QueueSpec, SimJob};
use qdelay::predict::bmbp::Bmbp;
use qdelay::predict::QuantilePredictor;
use qdelay::trace::{JobRecord, Trace};

/// What one run produced: one trace per queue, every start in the order
/// the scheduler made it, and one admission verdict per arrival.
type Run = (Vec<Trace>, Vec<StartRecord>, Vec<AdmitRecord>);

// ---------------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------------

struct Oracle {
    free: u32,
    /// (id, true_finish, est_finish, procs)
    running: Vec<(u64, u64, u64, u32)>,
    waiting: Vec<SimJob>,
    priority: PriorityState,
    policy: SchedulerPolicy,
    predictors: Vec<Bmbp>,
    deadline: DeadlineConfig,
    traces: Vec<Trace>,
    starts: Vec<StartRecord>,
    admits: Vec<AdmitRecord>,
}

impl Oracle {
    fn run(
        machine: &MachineConfig,
        policy: SchedulerPolicy,
        schedule: &PolicySchedule,
        deadline: DeadlineConfig,
        jobs: &[SimJob],
    ) -> Run {
        let mut o = Oracle {
            free: machine.procs,
            running: Vec::new(),
            waiting: Vec::new(),
            priority: PriorityState::from_queues(
                machine.queues.iter().map(|q| q.priority).collect(),
            ),
            policy,
            predictors: machine
                .queues
                .iter()
                .map(|_| Bmbp::with_defaults())
                .collect(),
            deadline,
            traces: machine
                .queues
                .iter()
                .map(|q| Trace::new("batchsim", q.name.clone()))
                .collect(),
            starts: Vec::new(),
            admits: Vec::new(),
        };
        let changes = schedule.changes();
        let mut next_change = 0;
        // Arrivals in (submit, input-index) order — the engine's heap
        // breaks arrival ties by job-list index.
        let mut arrivals: Vec<usize> = (0..jobs.len()).collect();
        arrivals.sort_by_key(|&i| (jobs[i].submit, i));
        let mut next_arrival = 0;
        loop {
            // Next event: finishes sort before arrivals at equal times,
            // finishes among themselves by job id (the engine's EventKind
            // derive ordering inside its min-heap).
            let fin = o.running.iter().map(|&(id, tf, _, _)| (tf, 0u8, id)).min();
            let arr = arrivals
                .get(next_arrival)
                .map(|&i| (jobs[i].submit, 1u8, i as u64));
            let Some((now, kind, payload)) = fin.into_iter().chain(arr).min() else {
                break;
            };
            while let Some(due) = changes.get(next_change).filter(|c| c.at <= now) {
                if let PolicyChange::SetPolicy(p) = due.change {
                    o.policy = p;
                }
                o.priority.apply(&due.change);
                next_change += 1;
            }
            if kind == 0 {
                let idx = o
                    .running
                    .iter()
                    .position(|&(id, ..)| id == payload)
                    .unwrap();
                let (_, _, _, procs) = o.running.remove(idx);
                o.free += procs;
            } else {
                let j = jobs[payload as usize];
                next_arrival += 1;
                let admitted = if o.policy == SchedulerPolicy::PredictiveBackfill {
                    match o.predictors[j.queue].current_bound().value() {
                        Some(b) => b <= o.deadline.wait_budget(j.estimate) as f64,
                        None => true,
                    }
                } else {
                    true
                };
                o.admits.push(AdmitRecord {
                    job_id: j.id,
                    admitted,
                });
                o.waiting.push(j);
            }
            o.pass(now);
        }
        assert!(o.waiting.is_empty(), "oracle stalled with jobs waiting");
        for t in &mut o.traces {
            t.sort_by_submit();
        }
        (o.traces, o.starts, o.admits)
    }

    fn allocate(&mut self, j: SimJob, now: u64) {
        assert!(j.procs <= self.free, "oracle over-allocated");
        self.free -= j.procs;
        self.running
            .push((j.id, now + j.runtime, now + j.estimate, j.procs));
        self.starts.push(StartRecord {
            job_id: j.id,
            start: now,
        });
        let wait = (now - j.submit) as f64;
        if let Some(b) = self.predictors[j.queue].current_bound().value() {
            self.predictors[j.queue].record_outcome(b, wait);
        }
        self.predictors[j.queue].observe(wait);
        self.traces[j.queue].push(JobRecord {
            submit: j.submit,
            wait_secs: wait,
            procs: j.procs,
            run_secs: j.runtime as f64,
        });
    }

    fn pass(&mut self, now: u64) {
        let priority = &self.priority;
        self.waiting
            .sort_by_key(|j| priority.sort_key(j.queue, j.procs, j.submit, j.id));
        match self.policy {
            SchedulerPolicy::Fcfs => self.fcfs(now),
            SchedulerPolicy::EasyBackfill => self.easy(now),
            SchedulerPolicy::ConservativeBackfill => self.conservative(now),
            SchedulerPolicy::PredictiveBackfill => {
                for p in &mut self.predictors {
                    p.refit();
                }
                let bounds: Vec<Option<f64>> = self
                    .predictors
                    .iter()
                    .map(|p| p.current_bound().value())
                    .collect();
                let deadline = self.deadline;
                let priority = &self.priority;
                self.waiting.sort_by_key(|j| {
                    let budget = deadline.wait_budget(j.estimate);
                    let waited = now - j.submit;
                    let rem = budget.saturating_sub(waited) as i128;
                    let bound = bounds[j.queue].map_or(0, |b| b.ceil() as i128);
                    (
                        (waited > budget, rem - bound),
                        priority.sort_key(j.queue, j.procs, j.submit, j.id),
                    )
                });
                self.easy(now);
            }
        }
    }

    fn fcfs(&mut self, now: u64) {
        while let Some(&head) = self.waiting.first() {
            if head.procs > self.free {
                break;
            }
            self.waiting.remove(0);
            self.allocate(head, now);
        }
    }

    /// Running jobs' `(estimated_finish, procs)`, sorted.
    fn releases(&self) -> Vec<(u64, u32)> {
        let mut releases: Vec<(u64, u32)> = self
            .running
            .iter()
            .map(|&(_, _, est, p)| (est, p))
            .collect();
        releases.sort_unstable();
        releases
    }

    /// Earliest time >= now when `procs` fit, from estimated releases.
    fn earliest_fit(&self, procs: u32, now: u64) -> (u64, u32) {
        if procs <= self.free {
            return (now, self.free);
        }
        let mut free = self.free;
        for (finish, p) in self.releases() {
            free += p;
            if free >= procs {
                return (finish.max(now), free);
            }
        }
        (u64::MAX, 0)
    }

    fn easy(&mut self, now: u64) {
        self.fcfs(now);
        if self.waiting.is_empty() {
            return;
        }
        loop {
            let head = self.waiting[0];
            let (shadow, free_at_shadow) = self.earliest_fit(head.procs, now);
            if shadow == u64::MAX {
                break;
            }
            let extra = free_at_shadow - head.procs;
            let mut any = false;
            let mut i = 1;
            while i < self.waiting.len() {
                let cand = self.waiting[i];
                let fits_now = cand.procs <= self.free;
                let ends_before_shadow = now + cand.estimate <= shadow;
                let within_extra = cand.procs <= extra;
                if fits_now && (ends_before_shadow || within_extra) {
                    self.waiting.remove(i);
                    self.allocate(cand, now);
                    any = true;
                    break;
                }
                i += 1;
            }
            if !any {
                break;
            }
            if self.waiting[0].procs <= self.free {
                self.fcfs(now);
                if self.waiting.is_empty() {
                    break;
                }
            }
        }
    }

    /// Rebuilds the availability profile, walks the waiting jobs in
    /// priority order giving each the earliest window compatible with every
    /// earlier reservation, and starts the ones whose window opens now.
    fn conservative(&mut self, now: u64) {
        let mut profile = RebuildProfile::new(self.free, &self.releases(), now);
        let mut i = 0;
        while i < self.waiting.len() {
            let job = self.waiting[i];
            // Estimates of zero still occupy the machine momentarily.
            let duration = job.estimate.max(1);
            let t = profile.earliest_window(job.procs, duration, now);
            if t == u64::MAX {
                i += 1;
                continue;
            }
            profile.reserve(job.procs, t, duration);
            if t == now {
                self.waiting.remove(i);
                self.allocate(job, now);
            } else {
                i += 1;
            }
        }
    }
}

/// An availability profile rebuilt from scratch for every pass.
struct RebuildProfile {
    /// (time, free_from_this_time_on), strictly increasing times.
    points: Vec<(u64, u32)>,
}

impl RebuildProfile {
    fn new(free_now: u32, releases: &[(u64, u32)], now: u64) -> Self {
        let mut points = vec![(now, free_now)];
        let mut free = free_now;
        for &(t, p) in releases {
            free += p;
            // A release estimated at or before `now` belongs to a job that
            // is still running (its Finish event has not fired — e.g. a
            // same-instant finish later in the event queue, or a true
            // runtime exceeding the estimate). Its processors must not be
            // counted free at the present instant.
            let t = t.max(now + 1);
            match points.iter_mut().find(|(pt, _)| *pt == t) {
                Some(entry) => entry.1 = free,
                None => points.push((t, free)),
            }
        }
        points.sort_unstable();
        Self { points }
    }

    /// Free processors at time `t`.
    fn free_at(&self, t: u64) -> u32 {
        let idx = self.points.partition_point(|(pt, _)| *pt <= t);
        self.points[idx.saturating_sub(1)].1
    }

    /// Earliest `t >= from` such that `procs` are free throughout
    /// `[t, t + duration)`.
    fn earliest_window(&self, procs: u32, duration: u64, from: u64) -> u64 {
        let mut candidates: Vec<u64> = self.points.iter().map(|&(t, _)| t.max(from)).collect();
        candidates.push(from);
        candidates.sort_unstable();
        candidates.dedup();
        'outer: for &start in &candidates {
            if self.free_at(start) < procs {
                continue;
            }
            let end = start.saturating_add(duration);
            for &(t, free) in &self.points {
                if t > start && t < end && free < procs {
                    continue 'outer;
                }
            }
            return start;
        }
        u64::MAX
    }

    /// Reserves `procs` processors over `[start, start + duration)`.
    fn reserve(&mut self, procs: u32, start: u64, duration: u64) {
        let end = start.saturating_add(duration);
        let free_at_start = self.free_at(start);
        let free_at_end = self.free_at(end);
        if !self.points.iter().any(|(t, _)| *t == start) {
            self.points.push((start, free_at_start));
        }
        if end != u64::MAX && !self.points.iter().any(|(t, _)| *t == end) {
            self.points.push((end, free_at_end));
        }
        self.points.sort_unstable();
        for p in &mut self.points {
            if p.0 >= start && p.0 < end {
                assert!(p.1 >= procs, "oracle profile underflow");
                p.1 -= procs;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The comparison
// ---------------------------------------------------------------------------

/// Runs `jobs` through the engine and the oracle and asserts byte-identical
/// starts, verdicts, traces and derived metrics.
fn assert_matches_oracle(
    label: &str,
    machine: MachineConfig,
    policy: SchedulerPolicy,
    schedule: PolicySchedule,
    jobs: Vec<SimJob>,
) {
    let deadline = DeadlineConfig::default();
    let (traces, starts, admits) = Simulation::new(machine.clone(), policy)
        .with_schedule(schedule.clone())
        .with_deadlines(deadline)
        .run_jobs_admitted(jobs.clone());
    let (o_traces, o_starts, o_admits) = Oracle::run(&machine, policy, &schedule, deadline, &jobs);

    assert_eq!(
        starts,
        o_starts,
        "{label}: start schedules diverge (first at index {})",
        starts
            .iter()
            .zip(&o_starts)
            .position(|(a, b)| a != b)
            .unwrap_or(starts.len().min(o_starts.len()))
    );
    assert_eq!(admits, o_admits, "{label}: admission verdicts diverge");
    assert_eq!(traces.len(), o_traces.len(), "{label}: queue count");
    let flat = |t: &Trace| -> Vec<(u64, u64, u32, u64)> {
        t.iter()
            .map(|j| {
                (
                    j.submit,
                    j.wait_secs.to_bits(),
                    j.procs,
                    j.run_secs.to_bits(),
                )
            })
            .collect()
    };
    for (q, (t, o)) in traces.iter().zip(&o_traces).enumerate() {
        assert_eq!(flat(t), flat(o), "{label}: queue {q} traces diverge");
    }
    assert_eq!(
        format!("{:?}", machine_metrics(&traces, machine.procs)),
        format!("{:?}", machine_metrics(&o_traces, machine.procs)),
        "{label}: derived metrics diverge"
    );
}

/// A conservative-backfill scenario with no administrator actions.
fn assert_conservative(label: &str, procs: u32, jobs: Vec<SimJob>) {
    assert_matches_oracle(
        label,
        MachineConfig::single_queue(procs),
        SchedulerPolicy::ConservativeBackfill,
        PolicySchedule::new(),
        jobs,
    );
}

fn job(id: u64, submit: u64, procs: u32, runtime: u64, estimate: u64) -> SimJob {
    SimJob {
        id,
        submit,
        procs,
        runtime,
        estimate,
        queue: 0,
    }
}

/// A schedule of discipline switches only.
fn switches(at: &[(u64, SchedulerPolicy)]) -> PolicySchedule {
    let mut schedule = PolicySchedule::new();
    for &(t, p) in at {
        schedule.add(t, PolicyChange::SetPolicy(p));
    }
    schedule
}

// ---------------------------------------------------------------------------
// Conservative backfill
// ---------------------------------------------------------------------------

#[test]
fn seeded_drainable_workloads_with_overestimates() {
    // The generator's default estimate_factor (2.0) makes most completions
    // *early* relative to their estimates: every finish invalidates held
    // reservations. Three seeds, ~300 jobs each.
    for seed in [11u64, 23, 37] {
        let machine = MachineConfig::single_queue(64);
        let jobs = workload::generate(
            &WorkloadConfig {
                days: 2,
                jobs_per_day: 150.0,
                seed,
                ..WorkloadConfig::default()
            },
            &machine,
        );
        assert!(jobs.len() > 100, "seed {seed} generated too few jobs");
        assert_conservative(&format!("drainable seed {seed}"), 64, jobs);
    }
}

#[test]
fn seeded_overloaded_bursts_exceed_the_old_cap() {
    // 150 jobs burst in over a few minutes onto a small machine: the queue
    // runs deeper than the 128-job reservation cap the seed engine had,
    // and every waiting job must hold a reservation.
    for seed in [5u64, 71] {
        let mut jobs = Vec::new();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in 0..150u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let procs = 1 + (state >> 33) as u32 % 8;
            let runtime = 300 + (state >> 7) % 2500;
            jobs.push(job(i, i * 2, procs, runtime, runtime * 2));
        }
        assert_conservative(&format!("overloaded seed {seed}"), 8, jobs);
    }
}

#[test]
fn deep_queue_matches_oracle_with_cap_off() {
    // 160 jobs burst onto an 8-proc machine within four seconds: the queue
    // runs deeper than the old 128-job cap from the first minute.
    let jobs: Vec<SimJob> = (0..160)
        .map(|i| {
            let runtime = 50 + (i * 37) % 400;
            job(i, i % 4, 1 + (i as u32 * 5) % 8, runtime, runtime)
        })
        .collect();
    assert_conservative("deep queue", 8, jobs);
}

#[test]
fn misestimated_runtimes_match_oracle() {
    // Early and late completions (estimate != runtime) interleave, so
    // every invalidation rule fires.
    let jobs: Vec<SimJob> = (0..120)
        .map(|i| {
            let runtime = 50 + (i * 61) % 500;
            let estimate = match i % 3 {
                0 => runtime,              // on time
                1 => runtime * 2,          // finishes early
                _ => (runtime / 2).max(1), // overruns its estimate
            };
            job(i, i * 3, 1 + (i as u32 * 7) % 8, runtime, estimate)
        })
        .collect();
    assert_conservative("misestimated runtimes", 8, jobs);
}

#[test]
fn exact_estimates_keep_fast_path_and_oracle_in_lockstep() {
    // estimate == runtime everywhere: completions are on time, so the
    // engine should live almost entirely on its fast path — drainable and
    // overloaded variants both must still match the oracle.
    let machine = MachineConfig::single_queue(32);
    let drainable = workload::generate(
        &WorkloadConfig {
            days: 2,
            jobs_per_day: 120.0,
            seed: 13,
            estimate_factor: 1.0,
            ..WorkloadConfig::default()
        },
        &machine,
    );
    assert_conservative("exact drainable", 32, drainable);

    let overloaded: Vec<SimJob> = (0..140)
        .map(|i| {
            let runtime = 200 + (i * 331) % 1700;
            job(i, i, 1 + (i as u32 * 3) % 6, runtime, runtime)
        })
        .collect();
    assert_conservative("exact overloaded", 6, overloaded);
}

#[test]
fn late_completions_overrun_their_estimates() {
    // runtime > estimate: release points go overdue and must be clamped
    // past `now` event after event — the advance()-shift invalidation path.
    let jobs: Vec<SimJob> = (0..120)
        .map(|i| {
            let estimate = 100 + (i * 53) % 900;
            let runtime = estimate * 2 + (i % 7) * 13; // always late
            job(i, i * 5, 1 + (i as u32) % 8, runtime, estimate)
        })
        .collect();
    assert_conservative("late completions", 8, jobs);
}

#[test]
fn multi_queue_priorities_and_mid_trace_boost() {
    // Two queues plus a large-job boost installed mid-trace: priority
    // reshuffles re-order the waiting queue under held reservations, and
    // under predictive backfill they break urgency ties.
    let machine = MachineConfig {
        procs: 32,
        queues: vec![QueueSpec::new("prod", 10), QueueSpec::new("scavenge", 1)],
    };
    let mut jobs = Vec::new();
    for i in 0..130u64 {
        let runtime = 150 + (i * 97) % 1200;
        jobs.push(SimJob {
            id: i,
            submit: i * 7,
            procs: 1 + (i as u32 * 11) % 24,
            runtime,
            estimate: runtime + (i % 5) * 40,
            queue: (i % 3 == 0) as usize,
        });
    }
    let mut schedule = PolicySchedule::new();
    schedule.add(
        200,
        PolicyChange::SetLargeJobBoost {
            min_procs: 16,
            boost: 500,
        },
    );
    schedule.add(
        600,
        PolicyChange::SetQueuePriority {
            queue: 1,
            priority: 20,
        },
    );
    for policy in [
        SchedulerPolicy::ConservativeBackfill,
        SchedulerPolicy::PredictiveBackfill,
    ] {
        assert_matches_oracle(
            &format!("multi-queue boost, {policy:?}"),
            machine.clone(),
            policy,
            schedule.clone(),
            jobs.clone(),
        );
    }
}

#[test]
fn policy_switches_resync_the_profile() {
    // easy -> conservative -> fcfs -> conservative: each return to
    // conservative finds a stale profile and must re-sync from the cluster.
    let schedule = switches(&[
        (0, SchedulerPolicy::EasyBackfill),
        (400, SchedulerPolicy::ConservativeBackfill),
        (900, SchedulerPolicy::Fcfs),
        (1400, SchedulerPolicy::ConservativeBackfill),
    ]);
    let jobs: Vec<SimJob> = (0..110)
        .map(|i| {
            let runtime = 80 + (i * 71) % 700;
            job(
                i,
                i * 20,
                1 + (i as u32 * 5) % 12,
                runtime,
                runtime + (i % 4) * 60,
            )
        })
        .collect();
    assert_matches_oracle(
        "policy switches",
        MachineConfig::single_queue(16),
        SchedulerPolicy::ConservativeBackfill,
        schedule,
        jobs,
    );
}

#[test]
fn same_instant_storms_and_zero_estimates() {
    // Batches of jobs submitted at identical instants, including
    // zero-runtime/zero-estimate jobs (duration clamps to 1) and jobs that
    // finish at the same tick they start others.
    let mut jobs = Vec::new();
    let mut id = 0u64;
    for wave in 0..12u64 {
        for k in 0..10u64 {
            let runtime = if k % 4 == 0 { 0 } else { 50 * (k + 1) };
            // Exact estimates: finishes collide with sibling starts.
            jobs.push(job(id, wave * 100, 1 + (k as u32) % 5, runtime, runtime));
            id += 1;
        }
    }
    assert_conservative("same-instant storms", 5, jobs);
}

// ---------------------------------------------------------------------------
// Predictive backfill
// ---------------------------------------------------------------------------

/// Seeded single-queue workload: arrival waves several times machine
/// capacity with mixed widths, the regime where urgency ordering and
/// admission verdicts are all exercised.
fn waves(n_waves: u64, per_wave: u64, gap: u64, spacing: u64, seed: u64) -> Vec<SimJob> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut jobs = Vec::new();
    for w in 0..n_waves {
        for j in 0..per_wave {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let procs = 1 + ((state >> 53) % 8) as u32;
            let runtime = 60 + ((state >> 17) % 1_201);
            // A third of jobs overestimate their runtime, as real users do.
            let estimate = if state.is_multiple_of(3) {
                runtime * 2
            } else {
                runtime
            };
            jobs.push(job(
                w * per_wave + j,
                w * gap + j * spacing,
                procs,
                runtime,
                estimate,
            ));
        }
    }
    jobs
}

fn assert_predictive(
    label: &str,
    policy: SchedulerPolicy,
    schedule: PolicySchedule,
    jobs: Vec<SimJob>,
) {
    assert_matches_oracle(
        label,
        MachineConfig::single_queue(8),
        policy,
        schedule,
        jobs,
    );
}

#[test]
fn predictive_matches_oracle_across_seeded_workloads() {
    // ≥8 seeded workloads: overload waves of different shapes and seeds.
    for (i, seed) in [3u64, 7, 11, 19, 42, 1009, 77_777, 20_260_809]
        .iter()
        .enumerate()
    {
        let jobs = waves(4 + (i as u64 % 3), 30 + (i as u64 * 5), 18_000, 10, *seed);
        assert_predictive(
            &format!("workload {i} (seed {seed})"),
            SchedulerPolicy::PredictiveBackfill,
            PolicySchedule::new(),
            jobs,
        );
    }
}

#[test]
fn predictive_matches_oracle_on_dense_overloaded_burst() {
    // Everything arrives nearly at once: the queue runs ~200 deep.
    assert_predictive(
        "dense burst",
        SchedulerPolicy::PredictiveBackfill,
        PolicySchedule::new(),
        waves(1, 200, 0, 2, 5),
    );
}

#[test]
fn predictive_matches_oracle_through_policy_switches() {
    // Warm up under EASY, switch to predictive mid-trace, briefly fall
    // back to FCFS, and return — verdict gating must follow the policy in
    // force at each arrival instant.
    assert_predictive(
        "mid-trace switches",
        SchedulerPolicy::EasyBackfill,
        switches(&[
            (25_000, SchedulerPolicy::PredictiveBackfill),
            (45_000, SchedulerPolicy::Fcfs),
            (62_000, SchedulerPolicy::PredictiveBackfill),
        ]),
        waves(5, 40, 20_000, 10, 13),
    );
}
