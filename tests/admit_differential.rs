//! Differential battery for prediction-driven admission control.
//!
//! Wire half: a seeded multi-partition script of interleaved
//! observe/predict/admit requests runs over the JSON protocol and the
//! binary protocol at shard counts 1, 4, and 16. Every admit decision the
//! server answers must equal — bit for bit — an inline oracle computed
//! client-side from a predict on the same partition plus
//! [`qdelay::predict::admission::decide`], and the JSON and binary runs
//! must agree on every decision byte and float payload. Because `admit`
//! is read-only and bounds are a pure function of the observation
//! sequence, this is the executable proof that admission decisions are
//! replayable.
//!
//! Scheduler half: `PredictiveBackfill` schedules from the engine must
//! match a naive rebuild-per-event oracle — an independent event loop,
//! written here, that re-derives the urgency order, the EASY pass, and
//! the admission verdicts from scratch at every event — on the exact
//! `(job, start, admitted?)` sequences across seeded workloads including
//! overloaded bursts and mid-trace policy switches.

use qdelay::batchsim::engine::{AdmitRecord, Simulation, StartRecord};
use qdelay::batchsim::policy::{PolicyChange, PolicySchedule, SchedulerPolicy};
use qdelay::batchsim::{DeadlineConfig, MachineConfig, SimJob};
use qdelay::predict::admission::{decide, Decision};
use qdelay::predict::bmbp::Bmbp;
use qdelay::predict::QuantilePredictor;
use qdelay::serve::client::Client;
use qdelay::serve::server::{Server, ServerConfig};
use qdelay_rng::{Rng, StdRng};

// ---------------------------------------------------------------------------
// Wire half
// ---------------------------------------------------------------------------

const PARTITIONS: [(&str, &str, u32); 8] = [
    ("datastar", "normal", 2),
    ("datastar", "normal", 64),
    ("datastar", "high", 2),
    ("datastar", "high", 64),
    ("lonestar", "normal", 2),
    ("lonestar", "normal", 64),
    ("lonestar", "high", 2),
    ("lonestar", "high", 64),
];

#[derive(Debug, Clone, PartialEq)]
enum Step {
    Observe { pi: usize, wait: f64 },
    Predict { pi: usize },
    Admit { pi: usize, budget: f64, confidence: Option<f64> },
}

/// Budgets mix tiny, huge, zero, and fractional values so admit, reject,
/// and (early on) defer all occur, with margins that exercise float
/// round-tripping.
fn script(seed: u64, len: usize) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut steps = Vec::with_capacity(len);
    for _ in 0..len {
        let r = rng.next_u64();
        let pi = (r % PARTITIONS.len() as u64) as usize;
        match r % 7 {
            0 | 1 => steps.push(Step::Predict { pi }),
            2 | 3 => {
                let budget = match r % 4 {
                    0 => 0.0,
                    1 => (rng.next_u64() % 1_000_000) as f64 / 17.0,
                    _ => (rng.next_u64() % 200_000) as f64,
                };
                let confidence = if r % 5 == 0 { Some(0.95) } else { None };
                steps.push(Step::Admit { pi, budget, confidence });
            }
            _ => {
                let wait = (rng.next_u64() % 86_400_000) as f64 / 1000.0;
                steps.push(Step::Observe { pi, wait });
            }
        }
    }
    steps
}

/// Every admit decision, bit-exact: (pi, n, seq, kind byte, bound bits,
/// margin-or-retry bits).
type AdmitProbe = (usize, usize, u64, u8, u64, u64);

fn probe_of(pi: usize, n: usize, seq: u64, d: &Decision) -> AdmitProbe {
    match *d {
        Decision::Admit { bound, margin } => (pi, n, seq, 0, bound.to_bits(), margin.to_bits()),
        Decision::Reject { bound, margin } => (pi, n, seq, 1, bound.to_bits(), margin.to_bits()),
        Decision::Defer { retry_hint } => (pi, n, seq, 2, 0, retry_hint),
    }
}

/// Runs the script, asserting each admit against the client-side oracle
/// (predict + decide on the same partition, which `admit` must mirror).
fn run_script(steps: &[Step], shards: usize, binary: bool) -> Vec<AdmitProbe> {
    let config = ServerConfig {
        shards,
        binary_addr: if binary { Some("127.0.0.1:0".to_string()) } else { None },
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut json = Client::connect(server.local_addr()).unwrap();
    let mut bin = server.binary_addr().map(|addr| Client::connect_binary(addr).unwrap());
    // The one driver: the same calls, over whichever wire this run is on.
    let client = bin.as_mut().unwrap_or(&mut json);

    let mut probes = Vec::new();
    for step in steps {
        match *step {
            Step::Observe { pi, wait } => {
                let (site, queue, procs) = PARTITIONS[pi];
                client.observe(site, queue, procs, wait, None, None).unwrap();
            }
            Step::Predict { pi } => {
                let (site, queue, procs) = PARTITIONS[pi];
                client.predict(site, queue, procs).unwrap();
            }
            Step::Admit { pi, budget, confidence } => {
                let (site, queue, procs) = PARTITIONS[pi];
                // Inline oracle: admit is read-only, so a predict issued
                // just before it sees the exact same partition state.
                let p = client.predict(site, queue, procs).unwrap();
                let a = client.admit(site, queue, procs, budget, confidence).unwrap();
                let expected = decide(p.bmbp, p.lognormal, p.n as u64, budget);
                assert_eq!(
                    probe_of(pi, p.n, p.seq, &expected),
                    probe_of(pi, a.n, a.seq, &a.decision),
                    "server admit diverged from client-side oracle \
                     (shards={shards}, binary={binary})"
                );
                probes.push(probe_of(pi, a.n, a.seq, &a.decision));
            }
        }
    }
    json.shutdown().unwrap();
    server.join().unwrap();
    probes
}

fn wire_differential(seed: u64, len: usize, shards: usize) {
    let steps = script(seed, len);
    let j = run_script(&steps, shards, false);
    let b = run_script(&steps, shards, true);
    assert!(!j.is_empty(), "script must contain admit steps");
    assert_eq!(j, b, "JSON and binary admit streams diverged (shards={shards})");
    // The battery is vacuous unless all three decision kinds occurred.
    for kind in 0u8..=2 {
        assert!(
            j.iter().any(|p| p.3 == kind),
            "script never produced decision kind {kind}"
        );
    }
}

// Script length note: the nonparametric BMBP bound needs roughly 60
// observations per partition before it exists at 95/95, and until then the
// lognormal fallback's bound on these near-uniform waits is enormous (so
// everything rejects or defers). 2000 steps ≈ 140 observations per
// partition — enough that every decision kind occurs.

#[test]
fn admit_bit_identical_one_shard() {
    wire_differential(11, 2000, 1);
}

#[test]
fn admit_bit_identical_four_shards() {
    wire_differential(11, 2000, 4);
}

#[test]
fn admit_bit_identical_sixteen_shards() {
    wire_differential(11, 2000, 16);
}

#[test]
fn admit_bit_identical_alt_seed() {
    wire_differential(20260809, 1200, 4);
}

/// An exact-boundary admit: budget set to the served bound itself must
/// admit with a margin of exactly +0.0 on both protocols.
#[test]
fn admit_boundary_budget_is_exact_on_both_protocols() {
    let config = ServerConfig {
        shards: 2,
        binary_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut json = Client::connect(server.local_addr()).unwrap();
    let mut bin = Client::connect_binary(server.binary_addr().unwrap()).unwrap();
    for i in 0..100 {
        json.observe("s", "q", 4, f64::from(i % 40) * 30.0 + 0.125, None, None).unwrap();
    }
    let bound = json.predict("s", "q", 4).unwrap().bmbp.expect("warm");
    for client in [&mut json, &mut bin] {
        match client.admit("s", "q", 4, bound, None).unwrap().decision {
            Decision::Admit { bound: b, margin } => {
                assert_eq!(b.to_bits(), bound.to_bits());
                assert_eq!(margin.to_bits(), 0.0f64.to_bits(), "margin must be exactly zero");
            }
            other => panic!("boundary budget must admit, got {other:?}"),
        }
    }
    json.shutdown().unwrap();
    server.join().unwrap();
}

// ---------------------------------------------------------------------------
// Scheduler half: PredictiveBackfill vs a naive rebuild-per-event oracle
// ---------------------------------------------------------------------------

/// An independently written event loop that re-derives everything from
/// scratch at every event: the priority order, the urgency order, the EASY
/// pass, and the admission verdicts. No state is carried between passes
/// except what the contract requires (cluster occupancy, predictors).
struct Oracle {
    free: u32,
    /// (id, true_finish, est_finish, procs)
    running: Vec<(u64, u64, u64, u32)>,
    waiting: Vec<SimJob>,
    predictors: Vec<Bmbp>,
    deadline: DeadlineConfig,
    policy: SchedulerPolicy,
    /// (at, policy), time-sorted; drained as time passes.
    switches: Vec<(u64, SchedulerPolicy)>,
    starts: Vec<StartRecord>,
    admits: Vec<AdmitRecord>,
}

impl Oracle {
    fn run(
        machine_procs: u32,
        queues: usize,
        policy: SchedulerPolicy,
        switches: Vec<(u64, SchedulerPolicy)>,
        deadline: DeadlineConfig,
        jobs: &[SimJob],
    ) -> (Vec<StartRecord>, Vec<AdmitRecord>) {
        let mut o = Oracle {
            free: machine_procs,
            running: Vec::new(),
            waiting: Vec::new(),
            predictors: (0..queues).map(|_| Bmbp::with_defaults()).collect(),
            deadline,
            policy,
            switches,
            starts: Vec::new(),
            admits: Vec::new(),
        };
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
            let arr = (next_arrival < arrivals.len())
                .then(|| (jobs[arrivals[next_arrival]].submit, 1u8, arrivals[next_arrival] as u64));
            let (now, kind, payload) = match (fin, arr) {
                (None, None) => break,
                (Some(f), None) => f,
                (None, Some(a)) => a,
                (Some(f), Some(a)) => f.min(a),
            };
            while let Some(&(at, p)) = o.switches.first() {
                if at > now {
                    break;
                }
                o.policy = p;
                o.switches.remove(0);
            }
            if kind == 0 {
                let idx = o.running.iter().position(|&(id, ..)| id == payload).unwrap();
                let (_, _, _, procs) = o.running.remove(idx);
                o.free += procs;
            } else {
                let j = jobs[arrivals[next_arrival]];
                next_arrival += 1;
                let admitted = if o.policy == SchedulerPolicy::PredictiveBackfill {
                    match o.predictors[j.queue].current_bound().value() {
                        Some(b) => b <= o.deadline.wait_budget(j.estimate) as f64,
                        None => true,
                    }
                } else {
                    true
                };
                o.admits.push(AdmitRecord { job_id: j.id, admitted });
                o.waiting.push(j);
            }
            o.pass(now);
        }
        assert!(o.waiting.is_empty(), "oracle stalled with jobs waiting");
        (o.starts, o.admits)
    }

    fn allocate(&mut self, j: SimJob, now: u64) {
        assert!(j.procs <= self.free, "oracle over-allocated");
        self.free -= j.procs;
        self.running.push((j.id, now + j.runtime, now + j.estimate, j.procs));
        self.starts.push(StartRecord { job_id: j.id, start: now });
        let wait = (now - j.submit) as f64;
        if let Some(b) = self.predictors[j.queue].current_bound().value() {
            self.predictors[j.queue].record_outcome(b, wait);
        }
        self.predictors[j.queue].observe(wait);
    }

    /// Single-queue priority order (all priorities equal): submit, then id.
    fn sort_fcfs(&mut self) {
        self.waiting.sort_by_key(|j| (j.submit, j.id));
    }

    fn pass(&mut self, now: u64) {
        match self.policy {
            SchedulerPolicy::Fcfs => {
                self.sort_fcfs();
                self.fcfs(now);
            }
            SchedulerPolicy::EasyBackfill => {
                self.sort_fcfs();
                self.easy(now);
            }
            SchedulerPolicy::PredictiveBackfill => {
                for p in &mut self.predictors {
                    p.refit();
                }
                let bounds: Vec<Option<f64>> =
                    self.predictors.iter().map(|p| p.current_bound().value()).collect();
                let deadline = self.deadline;
                self.waiting.sort_by_key(|j| {
                    let budget = deadline.wait_budget(j.estimate);
                    let waited = now - j.submit;
                    let rem = budget.saturating_sub(waited) as i128;
                    let bound = bounds[j.queue].map_or(0, |b| b.ceil() as i128);
                    ((waited > budget, rem - bound), (j.submit, j.id))
                });
                self.easy(now);
            }
            SchedulerPolicy::ConservativeBackfill => {
                panic!("oracle scripts only switch between fcfs/easy/predictive")
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

    /// Earliest time >= now when `procs` fit, from estimated releases.
    fn earliest_fit(&self, procs: u32, now: u64) -> (u64, u32) {
        if procs <= self.free {
            return (now, self.free);
        }
        let mut releases: Vec<(u64, u32)> =
            self.running.iter().map(|&(_, _, est, p)| (est, p)).collect();
        releases.sort_unstable();
        let mut free = self.free;
        for (finish, p) in releases {
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
}

/// Seeded single-queue workload: arrival waves several times machine
/// capacity with mixed widths, the regime where urgency ordering and
/// admission verdicts are all exercised.
fn workload(n_waves: u64, per_wave: u64, gap: u64, spacing: u64, seed: u64) -> Vec<SimJob> {
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
            let estimate = if state % 3 == 0 { runtime * 2 } else { runtime };
            jobs.push(SimJob {
                id: w * per_wave + j,
                submit: w * gap + j * spacing,
                procs,
                runtime,
                estimate,
                queue: 0,
            });
        }
    }
    jobs
}

fn scheduler_differential(
    jobs: Vec<SimJob>,
    policy: SchedulerPolicy,
    switches: &[(u64, SchedulerPolicy)],
    label: &str,
) {
    let deadline = DeadlineConfig::default();
    let mut schedule = PolicySchedule::new();
    for &(at, p) in switches {
        schedule.add(at, PolicyChange::SetPolicy(p));
    }
    let (_, starts, admits) = Simulation::new(MachineConfig::single_queue(8), policy)
        .with_schedule(schedule)
        .with_deadlines(deadline)
        .run_jobs_admitted(jobs.clone());
    let (o_starts, o_admits) =
        Oracle::run(8, 1, policy, switches.to_vec(), deadline, &jobs);
    assert_eq!(starts, o_starts, "start schedule diverged from oracle: {label}");
    assert_eq!(admits, o_admits, "admission verdicts diverged from oracle: {label}");
}

#[test]
fn predictive_matches_oracle_across_seeded_workloads() {
    // ≥8 seeded workloads: overload waves of different shapes and seeds.
    for (i, seed) in [3u64, 7, 11, 19, 42, 1009, 77_777, 20_260_809].iter().enumerate() {
        let jobs = workload(4 + (i as u64 % 3), 30 + (i as u64 * 5), 18_000, 10, *seed);
        scheduler_differential(
            jobs,
            SchedulerPolicy::PredictiveBackfill,
            &[],
            &format!("workload {i} (seed {seed})"),
        );
    }
}

#[test]
fn predictive_matches_oracle_on_dense_overloaded_burst() {
    // Everything arrives nearly at once: the queue runs ~200 deep.
    let jobs = workload(1, 200, 0, 2, 5);
    scheduler_differential(
        jobs,
        SchedulerPolicy::PredictiveBackfill,
        &[],
        "dense burst",
    );
}

#[test]
fn predictive_matches_oracle_through_policy_switches() {
    // Warm up under EASY, switch to predictive mid-trace, briefly fall
    // back to FCFS, and return — verdict gating must follow the policy in
    // force at each arrival instant.
    let jobs = workload(5, 40, 20_000, 10, 13);
    scheduler_differential(
        jobs,
        SchedulerPolicy::EasyBackfill,
        &[
            (25_000, SchedulerPolicy::PredictiveBackfill),
            (45_000, SchedulerPolicy::Fcfs),
            (62_000, SchedulerPolicy::PredictiveBackfill),
        ],
        "mid-trace switches",
    );
}
