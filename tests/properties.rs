//! Property-style tests over the workspace's core invariants, driven by
//! deterministic pseudo-random sweeps (`qdelay-rng` with fixed seeds).

use qdelay::predict::bound::{
    lower_index, upper_bound, upper_index, BoundIndexCache, BoundMethod, BoundSpec,
};
use qdelay::predict::history::{push_retaining, SortedHistory};
use qdelay::predict::rank_index::RankIndex;
use qdelay::stats::binomial::Binomial;
use qdelay_rng::{Rng, StdRng};
use std::collections::VecDeque;

/// The upper-bound order statistic index is always in [1, n] when it
/// exists, and is monotone in confidence.
#[test]
fn upper_index_in_range_and_monotone() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for _ in 0..300 {
        let n = rng.gen_range(1..5_000);
        let q = 0.5 + 0.49 * rng.gen_f64();
        let lo_spec = BoundSpec::new(q, 0.80).unwrap();
        let hi_spec = BoundSpec::new(q, 0.99).unwrap();
        let k_lo = upper_index(n, lo_spec, BoundMethod::Exact);
        let k_hi = upper_index(n, hi_spec, BoundMethod::Exact);
        if let Some(k) = k_lo {
            assert!(k >= 1 && k <= n, "k = {k} out of [1, {n}]");
        }
        if let (Some(a), Some(b)) = (k_lo, k_hi) {
            assert!(a <= b, "index must grow with confidence: {a} vs {b}");
        }
        // If the high-confidence index exists, the low one must too.
        if k_hi.is_some() && n >= lo_spec.min_history_upper() {
            assert!(k_lo.is_some());
        }
    }
}

/// Lower bound index never exceeds upper bound index.
#[test]
fn lower_le_upper() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for _ in 0..300 {
        let n = rng.gen_range(20..3_000);
        let q = 0.2 + 0.6 * rng.gen_f64();
        let spec = BoundSpec::new(q, 0.9).unwrap();
        if let (Some(lo), Some(hi)) = (
            lower_index(n, spec),
            upper_index(n, spec, BoundMethod::Exact),
        ) {
            assert!(lo <= hi, "lo {lo} > hi {hi} at n={n}, q={q}");
        }
    }
}

/// The exact index satisfies its defining binomial inequality and is
/// minimal.
#[test]
fn exact_index_is_defining_minimum() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for _ in 0..200 {
        let n = rng.gen_range(59..2_000);
        let spec = BoundSpec::paper_default();
        let k = upper_index(n, spec, BoundMethod::Exact).unwrap();
        let b = Binomial::new(n as u64, 0.95).unwrap();
        assert!(b.cdf((k - 1) as u64) >= 0.95);
        if k >= 2 {
            assert!(b.cdf((k - 2) as u64) < 0.95);
        }
    }
}

/// The smallest `j` in `[0, n]` whose `P[Bin(n, q) <= j]` has `reached`
/// the level, by bisection over `Binomial::cdf` (`j = n` always has).
fn first_reaching(b: &Binomial, reached: impl Fn(f64) -> bool) -> u64 {
    let (mut lo, mut hi) = (0, b.n());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reached(b.cdf(mid)) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// The cache serves a fresh exact inversion on random paths of `n` — steps
/// of 0 to 300 (past the carry-forward limit), shrinks and invalidations —
/// for random `q` and `C` in [0.01, 0.99], as the CLI's `--quantile` and
/// `--confidence` may ask. There is no index exactly below the minimum
/// history the spec reports.
#[test]
fn cached_indices_are_fresh_inversions_on_random_paths() {
    let mut rng = StdRng::seed_from_u64(0x1DE5);
    for _ in 0..40 {
        let (q, c) = (0.01 + 0.98 * rng.gen_f64(), 0.01 + 0.98 * rng.gen_f64());
        let spec = BoundSpec::new(q, c).unwrap();
        let mut cache = BoundIndexCache::new(spec, BoundMethod::Auto);
        let mut n = 0usize;
        for _ in 0..120 {
            match rng.gen_range(0..10) {
                0 => n = rng.gen_range(0..n + 1),
                1 => cache.invalidate(),
                _ => n += rng.gen_range(0..301),
            }
            let b = Binomial::new(n.max(1) as u64, q).unwrap();
            let upper = (n >= spec.min_history_upper())
                .then(|| (first_reaching(&b, |f| f >= c) as usize + 1).min(n));
            let lower = (n >= spec.min_history_lower())
                .then(|| (first_reaching(&b, |f| f > 1.0 - c) as usize).max(1));
            let what = format!("q = {q}, C = {c}, n = {n}");
            assert_eq!(cache.upper_index(n), upper, "{what}");
            assert_eq!(cache.lower_index(n), lower, "{what}");
            assert_eq!(upper_index(n, spec, BoundMethod::Exact), upper, "{what}");
            assert_eq!(lower_index(n, spec), lower, "{what}");
        }
    }
}

/// The bound is an actual element of the sample and weakly increases with
/// the requested quantile.
#[test]
fn bound_is_sample_element() {
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    for _ in 0..50 {
        let len = rng.gen_range(59..400);
        let mut xs: Vec<f64> = (0..len).map(|_| rng.gen_f64() * 1e6).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = f64::NEG_INFINITY;
        for q in [0.5, 0.75, 0.9, 0.95] {
            let spec = BoundSpec::new(q, 0.95).unwrap();
            if let Some(v) = upper_bound(&xs, spec).value() {
                assert!(
                    xs.binary_search_by(|x| x.partial_cmp(&v).unwrap()).is_ok(),
                    "bound {v} not a sample element"
                );
                assert!(v >= prev);
                prev = v;
            }
        }
    }
}

/// A `SortedHistory`'s view is always the retained suffix of its arrival
/// log, sorted.
#[test]
fn history_views_agree() {
    let mut rng = StdRng::seed_from_u64(0xFACE);
    for _ in 0..60 {
        let cap = rng.gen_range(1..64);
        let ops = rng.gen_range(1..200);
        let (mut h, mut log) = (SortedHistory::with_max_len(cap), VecDeque::new());
        for _ in 0..ops {
            let w = rng.gen_f64() * 1e9;
            h.push(&log, w);
            push_retaining(&mut log, w, h.len());
            if rng.gen_bool(0.1) {
                h.trim_to_recent(&log, cap / 2 + 1);
                log.drain(..log.len() - h.len());
            }
            let mut arrivals: Vec<f64> = log.iter().copied().collect();
            arrivals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(arrivals, h.sorted_vec());
            assert!(h.len() <= cap);
        }
    }
}

/// Binomial CDF is monotone in k and complements its survival function.
#[test]
fn binomial_cdf_properties() {
    let mut rng = StdRng::seed_from_u64(0xBEAD);
    for _ in 0..40 {
        let n = rng.gen_range(1..500) as u64;
        let p = 0.01 + 0.98 * rng.gen_f64();
        let b = Binomial::new(n, p).unwrap();
        let mut prev = 0.0;
        for k in 0..=n {
            let c = b.cdf(k);
            assert!(c >= prev - 1e-12);
            assert!((c + b.sf(k) - 1.0).abs() < 1e-9);
            prev = c;
        }
        assert!((b.cdf(n) - 1.0).abs() < 1e-12);
    }
}

mod rank_index_differential {
    use super::*;

    /// The naive oracle: a flat sorted Vec with O(n) operations, mirroring
    /// the sorted view as it was before `RankIndex`.
    #[derive(Default)]
    struct Oracle {
        sorted: Vec<f64>,
    }

    impl Oracle {
        fn insert(&mut self, x: f64) {
            let i = self.sorted.partition_point(|&v| v < x);
            self.sorted.insert(i, x);
        }

        fn remove_one(&mut self, x: f64) -> bool {
            let i = self.sorted.partition_point(|&v| v < x);
            if i < self.sorted.len() && self.sorted[i] == x {
                self.sorted.remove(i);
                true
            } else {
                false
            }
        }

        fn select(&self, k: usize) -> Option<f64> {
            self.sorted.get(k).copied()
        }
    }

    /// Differential test: RankIndex vs the naive oracle under arbitrary
    /// interleavings of insert / remove / select / clear, with duplicate
    /// and near-duplicate values to stress the equal-key paths.
    #[test]
    fn rank_index_matches_naive_oracle() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(0x5EED ^ seed);
            let mut idx = RankIndex::new();
            let mut oracle = Oracle::default();
            for step in 0..4000 {
                // Coarse value grid so duplicates are common.
                let value = (rng.gen_f64() * 50.0).floor();
                match rng.gen_range(0..10) {
                    // Removal of a value that may or may not be present.
                    0 | 1 => {
                        assert_eq!(
                            idx.remove_one(value),
                            oracle.remove_one(value),
                            "seed {seed} step {step}: remove({value}) diverged"
                        );
                    }
                    2 if rng.gen_bool(0.02) => {
                        idx.clear();
                        oracle.sorted.clear();
                    }
                    _ => {
                        idx.insert(value);
                        oracle.insert(value);
                    }
                }
                assert_eq!(idx.len(), oracle.sorted.len());
                if step % 97 == 0 {
                    idx.check_invariants();
                    assert_eq!(idx.to_vec(), oracle.sorted);
                }
                // Spot-check order statistics every step.
                if !oracle.sorted.is_empty() {
                    let k = rng.gen_range(0..oracle.sorted.len());
                    assert_eq!(idx.select(k), oracle.select(k), "seed {seed} step {step}");
                    assert_eq!(idx.select(oracle.sorted.len()), None);
                }
            }
        }
    }

    /// The same differential at the `SortedHistory` level, driven with its
    /// log as `Bmbp` drives them: push with capacity eviction,
    /// trim_to_recent, clear, and k-th selection against a naive
    /// arrival-list oracle.
    #[test]
    fn history_buffer_matches_naive_oracle() {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(0xACE ^ seed);
            let cap = rng.gen_range(5..300);
            let (mut h, mut log) = (SortedHistory::with_max_len(cap), VecDeque::new());
            let mut arrivals: Vec<f64> = Vec::new();
            for step in 0..3000 {
                match rng.gen_range(0..12) {
                    0 => {
                        let keep = rng.gen_range(1..cap + 1);
                        h.trim_to_recent(&log, keep);
                        log.drain(..log.len() - h.len());
                        if keep < arrivals.len() {
                            arrivals.drain(..arrivals.len() - keep);
                        }
                    }
                    1 if rng.gen_bool(0.05) => {
                        h.clear();
                        log.clear();
                        arrivals.clear();
                    }
                    _ => {
                        let w = (rng.gen_f64() * 1e4).floor();
                        let evicted = h.push(&log, w);
                        push_retaining(&mut log, w, h.len());
                        arrivals.push(w);
                        let expect_evicted = if arrivals.len() > cap {
                            Some(arrivals.remove(0))
                        } else {
                            None
                        };
                        assert_eq!(evicted, expect_evicted, "seed {seed} step {step}");
                    }
                }
                assert_eq!(h.len(), arrivals.len());
                assert_eq!(log, arrivals);
                let mut sorted = arrivals.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                if step % 59 == 0 {
                    assert_eq!(h.sorted_vec(), sorted);
                }
                if !sorted.is_empty() {
                    let k = rng.gen_range(0..sorted.len()) + 1;
                    assert_eq!(h.order_statistic(k), Some(sorted[k - 1]));
                }
            }
        }
    }
}

mod batchsim_props {
    use qdelay::batchsim::engine::Simulation;
    use qdelay::batchsim::policy::SchedulerPolicy;
    use qdelay::batchsim::{MachineConfig, SimJob};
    use qdelay_rng::{Rng, StdRng};

    fn random_jobs(rng: &mut StdRng, machine_procs: u32) -> Vec<SimJob> {
        let n = rng.gen_range(1..80);
        (0..n)
            .map(|i| {
                let runtime = 10 + rng.gen_range(0..4_990) as u64;
                SimJob {
                    id: i as u64,
                    submit: rng.gen_range(0..50_000) as u64,
                    procs: (1 + rng.gen_range(0..64) as u32).min(machine_procs),
                    runtime,
                    estimate: runtime + rng.gen_range(0..2_000) as u64,
                    queue: 0,
                }
            })
            .collect()
    }

    /// Every job eventually starts, waits are non-negative, and no job
    /// starts before it was submitted — under every policy.
    #[test]
    fn all_jobs_start_with_sane_waits() {
        let mut rng = StdRng::seed_from_u64(0x10B5);
        for round in 0..60 {
            let jobs = random_jobs(&mut rng, 64);
            let policy = [
                SchedulerPolicy::Fcfs,
                SchedulerPolicy::EasyBackfill,
                SchedulerPolicy::ConservativeBackfill,
            ][round % 3];
            let n = jobs.len();
            let mut sim = Simulation::new(MachineConfig::single_queue(64), policy);
            let traces = sim.run_jobs(jobs);
            assert_eq!(traces[0].len(), n);
            for j in traces[0].jobs() {
                assert!(j.wait_secs >= 0.0);
                assert!(j.wait_secs.is_finite());
            }
        }
    }

    /// Backfill never beats the jobs' aggregate demand lower bound.
    #[test]
    fn conservation_of_work() {
        let mut rng = StdRng::seed_from_u64(0xCAFE);
        for _ in 0..40 {
            let jobs = random_jobs(&mut rng, 64);
            let total_demand: u64 = jobs.iter().map(|j| j.runtime * j.procs as u64).sum();
            let last_submit = jobs.iter().map(|j| j.submit).max().unwrap_or(0);
            let mut sim = Simulation::new(
                MachineConfig::single_queue(64),
                SchedulerPolicy::EasyBackfill,
            );
            let traces = sim.run_jobs(jobs);
            // Makespan is at least demand / capacity (work conservation
            // lower bound) and finite.
            let end = traces[0]
                .iter()
                .map(|j| j.start_time() + j.run_secs)
                .fold(0.0f64, f64::max);
            assert!(end >= total_demand as f64 / 64.0);
            assert!(end <= last_submit as f64 + total_demand as f64 + 1.0);
        }
    }
}

mod admission_props {
    use qdelay::predict::admission::{decide, Decision, MIN_OBSERVATIONS};
    use qdelay_rng::{Rng, StdRng};

    /// Random predictor states: bounds present/absent in every combination,
    /// spanning tiny to enormous magnitudes.
    fn random_state(rng: &mut StdRng) -> (Option<f64>, Option<f64>, u64) {
        let mag = |rng: &mut StdRng| 10f64.powf(rng.gen_f64() * 12.0 - 3.0);
        let bmbp = rng.gen_bool(0.6).then(|| mag(rng));
        let lognormal = rng.gen_bool(0.6).then(|| mag(rng));
        let n = rng.gen_range(0..5_000) as u64;
        (bmbp, lognormal, n)
    }

    /// Admission is monotone in budget: admitting at budget `b` implies
    /// admitting at every `b' > b`, and rejecting at `b` implies rejecting
    /// at every `b' < b`. Defer depends only on warmup, never on budget.
    #[test]
    fn admit_is_monotone_in_budget() {
        let mut rng = StdRng::seed_from_u64(0xAD417);
        for _ in 0..500 {
            let (bmbp, lognormal, n) = random_state(&mut rng);
            // An ascending budget ladder around plausible bound magnitudes.
            let mut budgets: Vec<f64> = (0..12)
                .map(|_| 10f64.powf(rng.gen_f64() * 13.0 - 3.0))
                .chain([0.0, f64::MAX])
                .collect();
            budgets.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut admitted_below = false;
            for &b in &budgets {
                match decide(bmbp, lognormal, n, b) {
                    Decision::Admit { .. } => admitted_below = true,
                    Decision::Reject { .. } => {
                        assert!(
                            !admitted_below,
                            "rejected at {b} after admitting at a smaller budget \
                             (bmbp {bmbp:?}, lognormal {lognormal:?})"
                        );
                    }
                    Decision::Defer { .. } => {
                        assert!(
                            bmbp.is_none() && lognormal.is_none(),
                            "deferred while a bound was available"
                        );
                    }
                }
            }
        }
    }

    /// Defer happens exactly when no bound exists, and its retry hint is
    /// always positive and never overshoots the warmup requirement.
    #[test]
    fn defer_retry_hints_are_finite_and_positive() {
        let mut rng = StdRng::seed_from_u64(0xDEFE7);
        for _ in 0..500 {
            let n = rng.gen_range(0..100) as u64;
            let budget = rng.gen_f64() * 1e6;
            match decide(None, None, n, budget) {
                Decision::Defer { retry_hint } => {
                    assert!(retry_hint >= 1, "retry hint must be positive");
                    assert!(
                        retry_hint <= MIN_OBSERVATIONS.max(1),
                        "hint {retry_hint} overshoots warmup at n={n}"
                    );
                    // The hint converges: after that many more observations
                    // the count satisfies the warmup floor.
                    assert!(n + retry_hint >= MIN_OBSERVATIONS);
                }
                other => panic!("no bound at n={n} must defer, got {other:?}"),
            }
        }
    }

    /// Margins are exact f64 arithmetic, bit for bit: `budget - bound` on
    /// admit, `bound - budget` on reject — no epsilon, no rounding.
    #[test]
    fn margins_are_exact_differences() {
        let mut rng = StdRng::seed_from_u64(0x3AC7);
        for _ in 0..2_000 {
            let (bmbp, lognormal, n) = random_state(&mut rng);
            let budget = 10f64.powf(rng.gen_f64() * 13.0 - 3.0);
            let effective = bmbp.or(lognormal);
            match decide(bmbp, lognormal, n, budget) {
                Decision::Admit { bound, margin } => {
                    assert_eq!(bound.to_bits(), effective.unwrap().to_bits());
                    assert_eq!(
                        margin.to_bits(),
                        (budget - bound).to_bits(),
                        "admit margin must be exactly budget - bound"
                    );
                    assert!(margin >= 0.0);
                }
                Decision::Reject { bound, margin } => {
                    assert_eq!(bound.to_bits(), effective.unwrap().to_bits());
                    assert_eq!(
                        margin.to_bits(),
                        (bound - budget).to_bits(),
                        "reject margin must be exactly bound - budget"
                    );
                    assert!(margin > 0.0);
                }
                Decision::Defer { .. } => assert!(effective.is_none()),
            }
        }
    }

    /// The same monotonicity holds end to end through a live server: a
    /// rising budget ladder against one warmed partition flips from reject
    /// to admit exactly once, and the reported margins match the served
    /// bound exactly.
    #[test]
    fn admit_monotone_through_the_wire() {
        use qdelay::serve::client::Client;
        use qdelay::serve::server::{Server, ServerConfig};

        let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        for i in 0..120u64 {
            c.observe("site", "q", 8, ((i * 37) % 4_000) as f64, None, None).unwrap();
        }
        let bound = c.predict("site", "q", 8).unwrap().bmbp.expect("warmed partition");
        let mut admitted = false;
        for k in 0..40 {
            let budget = bound * (0.5 + 0.025 * k as f64);
            match c.admit("site", "q", 8, budget, None).unwrap().decision {
                Decision::Admit { bound: b, margin } => {
                    admitted = true;
                    assert_eq!(b.to_bits(), bound.to_bits());
                    assert_eq!(margin.to_bits(), (budget - bound).to_bits());
                }
                Decision::Reject { bound: b, margin } => {
                    assert!(!admitted, "reject after admit on a rising ladder");
                    assert_eq!(b.to_bits(), bound.to_bits());
                    assert_eq!(margin.to_bits(), (bound - budget).to_bits());
                }
                Decision::Defer { .. } => panic!("warmed partition must not defer"),
            }
        }
        assert!(admitted, "the ladder crosses the bound, so the tail must admit");
        c.shutdown().unwrap();
        server.join().unwrap();
    }
}

mod availability_profile_props {
    use qdelay::batchsim::profile::AvailabilityProfile;
    use qdelay_rng::{Rng, StdRng};

    /// Random interleavings of allocate / release / reserve / unreserve /
    /// advance / clear keep every structural invariant intact, and undoing
    /// everything restores the exact empty profile.
    #[test]
    fn random_operation_sequences_preserve_invariants() {
        for seed in [0xBEEFu64, 0xFACE, 0x5EED, 0xA5A5] {
            let mut rng = StdRng::seed_from_u64(seed);
            let capacity = 4 + (rng.gen_range(1..29)) as u32;
            let mut p = AvailabilityProfile::new(capacity);
            let mut now = 0u64;
            let mut next_id = 0u64;
            let mut running: Vec<u64> = Vec::new();
            let mut reserved: Vec<u64> = Vec::new();

            for step in 0..600 {
                match rng.gen_range(0..10) {
                    // Start or reserve a job at its earliest feasible slot —
                    // the engine's contract: on_allocate only when the whole
                    // window is free *now* (a reservation would start at the
                    // present instant), reserve otherwise.
                    0..=7 => {
                        let procs = 1 + (rng.gen_range(0..capacity as usize)) as u32;
                        let duration = rng.gen_range(1..3_000) as u64;
                        let (t, _scanned) = p.earliest_fit(procs, duration, now);
                        if t == now {
                            p.on_allocate(next_id, procs, now + duration, now);
                            running.push(next_id);
                            next_id += 1;
                        } else if t != u64::MAX {
                            p.reserve(next_id, procs, t, duration);
                            reserved.push(next_id);
                            next_id += 1;
                        }
                    }
                    // Finish a running job (possibly early or late), or drop
                    // one reservation.
                    8 => {
                        if !running.is_empty() && rng.gen_f64() < 0.7 {
                            let idx = rng.gen_range(0..running.len());
                            let id = running.swap_remove(idx);
                            p.on_release(id, now);
                        } else if !reserved.is_empty() {
                            let idx = rng.gen_range(0..reserved.len());
                            let id = reserved.swap_remove(idx);
                            assert!(p.unreserve(id).is_some());
                        }
                    }
                    // Advance the clock (shifts overdue release points). The
                    // engine starts or re-places reservations that come due
                    // before time moves past them; model that by unreserving
                    // them first.
                    _ => {
                        now += rng.gen_range(1..500) as u64;
                        for id in p.reservations_due(now) {
                            p.unreserve(id);
                            reserved.retain(|&x| x != id);
                        }
                        p.advance(now);
                    }
                }
                // Invariants after every operation.
                p.validate().unwrap_or_else(|e| {
                    panic!("seed {seed:#x} step {step}: invariant broken: {e}")
                });
                let pts = p.points();
                assert_eq!(pts[0].0, now, "points view starts at the present");
                for w in pts.windows(2) {
                    assert!(
                        w[0].0 < w[1].0,
                        "seed {seed:#x} step {step}: points not strictly ordered"
                    );
                    assert!(
                        w[0].1 != w[1].1,
                        "seed {seed:#x} step {step}: adjacent points equal (no coalescing)"
                    );
                }
                for (_, free) in pts {
                    assert!(free <= capacity, "free {free} exceeds capacity {capacity}");
                }
                // Due reservations are exactly those with start <= now; on a
                // profile maintained via earliest_fit(from = now) they can
                // only come due at the present instant or later.
                for id in p.reservations_due(now) {
                    let r = p.reservation(id).expect("due id has a reservation");
                    assert!(r.start <= now);
                }
            }

            // Teardown: removing everything restores the empty profile.
            p.clear_reservations();
            for id in running.drain(..) {
                p.on_release(id, now);
            }
            assert!(p.is_empty(), "seed {seed:#x}: profile not empty after teardown");
            assert_eq!(p.free_now(), capacity);
            assert_eq!(p.points(), vec![(now, capacity)]);
            p.validate().unwrap();
        }
    }

    /// earliest_fit returns a window that genuinely has the processors
    /// free throughout, and there is no earlier one (cross-checked against
    /// a brute-force scan over the profile's own points).
    #[test]
    fn earliest_fit_is_sound_and_minimal() {
        let mut rng = StdRng::seed_from_u64(0xF17);
        for _ in 0..150 {
            let capacity = 4 + (rng.gen_range(1..13)) as u32;
            let mut p = AvailabilityProfile::new(capacity);
            let now = 0u64;
            let mut next_id = 0u64;
            // Random feasible load, placed under the engine's contract:
            // allocate only when the whole window is free now.
            for _ in 0..rng.gen_range(1..20) {
                let procs = 1 + (rng.gen_range(0..capacity as usize)) as u32;
                let duration = rng.gen_range(1..900) as u64;
                let (t, _) = p.earliest_fit(procs, duration, now);
                if t == now {
                    p.on_allocate(next_id, procs, now + duration, now);
                } else if t != u64::MAX {
                    p.reserve(next_id, procs, t, duration);
                }
                next_id += 1;
            }
            let procs = 1 + (rng.gen_range(0..capacity as usize)) as u32;
            let duration = rng.gen_range(1..700) as u64;
            let (t, _) = p.earliest_fit(procs, duration, now);
            if t == u64::MAX {
                continue;
            }
            let pts = p.points();
            let free_at = |x: u64| -> u32 {
                pts.iter().rev().find(|&&(pt, _)| pt <= x).map(|&(_, f)| f).unwrap_or(pts[0].1)
            };
            // Sound: free throughout [t, t + duration).
            let end = t.saturating_add(duration);
            for &(pt, free) in &pts {
                if pt >= t && pt < end {
                    assert!(free >= procs, "window at {t} not actually free at {pt}");
                }
            }
            assert!(free_at(t) >= procs);
            // Minimal: no candidate start (profile point or now) earlier
            // than t admits the window.
            for &(cand, _) in pts.iter().filter(|&&(c, _)| c >= now && c < t) {
                let cand_end = cand.saturating_add(duration);
                let blocked = pts
                    .iter()
                    .any(|&(pt, free)| pt >= cand && pt < cand_end && free < procs)
                    || free_at(cand) < procs;
                assert!(blocked, "earlier window at {cand} was available but {t} returned");
            }
        }
    }
}
