//! One connection's closed loop: build the next request from the workload's
//! mix, predict its reply from the shadow partition, keep `window` requests
//! in flight, and account for every reply.

use std::time::{Duration, Instant};

use qdelay_predict::admission::{self, Decision};
use qdelay_rng::{Rng, StdRng};
use qdelay_serve::registry::Prediction;

use crate::conn::{Conn, Op, RecvError, Reply};
use crate::gen::{Part, Stage};
use crate::util::mix;

/// What a connection sends next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    /// Warm-up: this many `observe`s of one partition, then the next
    /// partition (so a capped server restores each partition once, not once
    /// per observe); no outcome feedback.
    Warm(u32),
    /// Round-robin `predict` of every partition: ends warm-up (leaving every
    /// partition clean) and closes a workload (the final-state oracle).
    PredictEach,
    /// `predict` of a uniformly random partition.
    PredictRandom,
    /// Round-robin `observe` carrying the bounds a predict just before would
    /// have been served (the shadow's), as a scheduler that asked earlier.
    ObserveFeedback,
    /// The paper's loop per job: `predict`, sometimes `admit`, then
    /// `observe` with the actual wait and the served bounds.
    JobLoop,
}

/// Share of `JobLoop` jobs that ask `admit` between predict and observe;
/// gives ≈ 45/10/45 predict/admit/observe.
const ADMIT_PER_MILLE: u64 = 222;

/// Width of the completion-count slices a phase's throughput is cut into.
pub const SLICE: Duration = Duration::from_millis(100);

#[derive(Clone, Copy)]
pub enum Limit {
    Until(Instant),
    Ops(u64),
}

/// One request's client-side span (traced runs only). Times are
/// nanoseconds; `start_ns` counts from the phase's first send.
#[derive(Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub op: &'static str,
    pub start_ns: u64,
    pub encode_ns: u32,
    pub flush_ns: u32,
    pub await_ns: u32,
    pub decode_ns: u32,
    pub total_ns: u32,
}

#[derive(Default)]
pub struct PhaseStats {
    pub sent: u64,
    pub succeeded: u64,
    /// Typed error replies other than `backpressure`.
    pub errors: u64,
    /// `backpressure` replies: the server refused the request.
    pub rejects: u64,
    /// Requests still unanswered when the connection timed out or broke.
    pub lost: u64,
    /// Replies that differ from the shadow partition's, bit for bit.
    pub mismatches: u64,
    /// Round trips in completion order, nanoseconds.
    pub latencies_ns: Vec<u32>,
    /// First send to last reply.
    pub wall: Duration,
    /// Replies per [`SLICE`] of the phase, by completion time.
    pub slices: Vec<u32>,
    pub cov_hits: u64,
    pub cov_total: u64,
    pub spans: Vec<Span>,
    pub first_failure: Option<String>,
}

impl PhaseStats {
    pub fn failed(&self) -> u64 {
        self.errors + self.rejects + self.lost + self.mismatches
    }

    pub fn merge(&mut self, other: PhaseStats) {
        self.sent += other.sent;
        self.succeeded += other.succeeded;
        self.errors += other.errors;
        self.rejects += other.rejects;
        self.lost += other.lost;
        self.mismatches += other.mismatches;
        self.latencies_ns.extend(other.latencies_ns);
        self.wall = self.wall.max(other.wall);
        if self.slices.len() < other.slices.len() {
            self.slices.resize(other.slices.len(), 0);
        }
        for (mine, theirs) in self.slices.iter_mut().zip(&other.slices) {
            *mine += theirs;
        }
        self.cov_hits += other.cov_hits;
        self.cov_total += other.cov_total;
        self.spans.extend(other.spans);
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    /// Holds one wait against the BMBP bound served for it, if one was.
    fn cover(&mut self, wait: f64, bound: Option<f64>) {
        if let Some(bound) = bound {
            self.cov_total += 1;
            self.cov_hits += u64::from(wait <= bound);
        }
    }

    fn fail(&mut self, why: String) {
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }
}

enum Expect {
    Seq(u64),
    Prediction(Prediction),
    Decision {
        n: u64,
        seq: u64,
        decision: Decision,
    },
}

struct Inflight {
    id: u64,
    part: usize,
    op: &'static str,
    t0: Instant,
    expect: Expect,
    /// A fresh wait from the partition's stream to hold against the served
    /// BMBP bound (`PredictRandom`: the wait the asking job would have had).
    cov_wait: Option<f64>,
    encode_ns: u32,
    flush_ns: u32,
}

pub struct Worker {
    pub conn: Conn,
    pub parts: Vec<Part>,
    rng: StdRng,
    seed: u64,
    rr: usize,
    next_id: u64,
}

impl Worker {
    pub fn new(conn: Conn, parts: Vec<Part>, seed: u64) -> Worker {
        Worker {
            conn,
            parts,
            rng: StdRng::seed_from_u64(seed),
            seed,
            rr: 0,
            next_id: 1,
        }
    }

    fn round_robin(&mut self) -> usize {
        let i = self.rr % self.parts.len();
        self.rr += 1;
        i
    }

    /// Picks the next request and what the server must answer. The shadow
    /// is advanced here, at send time: one connection's requests to one
    /// partition are applied in send order, so the shadow and the server
    /// see the same sequence whatever the window.
    fn next_op(
        &mut self,
        mix_kind: Mix,
        stats: &mut PhaseStats,
    ) -> (usize, Op, Expect, Option<f64>) {
        match mix_kind {
            Mix::Warm(each) => {
                let i = (self.rr / each as usize) % self.parts.len();
                self.rr += 1;
                let p = &mut self.parts[i];
                let wait = p.next_wait();
                let seq = p.shadow.observe(wait, None, None);
                (
                    i,
                    Op::Observe {
                        wait,
                        bmbp: None,
                        lognormal: None,
                    },
                    Expect::Seq(seq),
                    None,
                )
            }
            Mix::PredictEach => {
                let i = self.round_robin();
                let expect = Expect::Prediction(self.parts[i].shadow.predict());
                (i, Op::Predict, expect, None)
            }
            Mix::PredictRandom => {
                let i = self.rng.gen_range(0..self.parts.len());
                let p = &mut self.parts[i];
                let expect = Expect::Prediction(p.shadow.predict());
                let wait = p.next_wait();
                (i, Op::Predict, expect, Some(wait))
            }
            Mix::ObserveFeedback => {
                let i = self.round_robin();
                let p = &mut self.parts[i];
                let served = p.shadow.predict();
                let wait = p.next_wait();
                stats.cover(wait, served.bmbp);
                let seq = p.shadow.observe(wait, served.bmbp, served.lognormal);
                let op = Op::Observe {
                    wait,
                    bmbp: served.bmbp,
                    lognormal: served.lognormal,
                };
                (i, op, Expect::Seq(seq), None)
            }
            Mix::JobLoop => {
                let i = self.round_robin();
                let seed = self.seed;
                let p = &mut self.parts[i];
                match p.stage {
                    Stage::Predict => {
                        let asks_admit =
                            mix(seed, (i as u64) << 32 | p.jobs) % 1000 < ADMIT_PER_MILLE;
                        p.stage = if asks_admit {
                            Stage::Admit
                        } else {
                            Stage::Observe
                        };
                        (i, Op::Predict, Expect::Prediction(p.shadow.predict()), None)
                    }
                    Stage::Admit => {
                        p.stage = Stage::Observe;
                        let now = p.shadow.predict();
                        let budget = p.spec.budget;
                        let decision =
                            admission::decide(now.bmbp, now.lognormal, now.n as u64, budget);
                        let expect = Expect::Decision {
                            n: now.n as u64,
                            seq: now.seq,
                            decision,
                        };
                        (i, Op::Admit { budget }, expect, None)
                    }
                    Stage::Observe => {
                        p.stage = Stage::Predict;
                        p.jobs += 1;
                        let wait = p.next_wait();
                        let (bmbp, lognormal) = p.served;
                        stats.cover(wait, bmbp);
                        let seq = p.shadow.observe(wait, bmbp, lognormal);
                        (
                            i,
                            Op::Observe {
                                wait,
                                bmbp,
                                lognormal,
                            },
                            Expect::Seq(seq),
                            None,
                        )
                    }
                }
            }
        }
    }

    /// Runs one closed-loop phase: `window` requests in flight until
    /// `limit`, then drains. Replies are never unwrapped: anything but the
    /// expected answer is counted.
    pub fn run_phase(
        &mut self,
        mix_kind: Mix,
        window: usize,
        limit: Limit,
        traced: bool,
    ) -> PhaseStats {
        assert!(
            mix_kind != Mix::JobLoop || self.parts.len() > window,
            "the job loop needs more partitions than the window, so a \
             partition's previous reply is in before its next request"
        );
        self.conn.traced = traced;
        let mut stats = PhaseStats::default();
        let mut inflight: Vec<Inflight> = Vec::with_capacity(window);
        let start = Instant::now();
        let mut now = start;
        let mut last_reply = start;
        let mut broken = false;
        loop {
            let open = !broken
                && match limit {
                    Limit::Until(deadline) => now < deadline,
                    Limit::Ops(n) => stats.sent < n,
                };
            if open {
                let first_new = inflight.len();
                let room = match limit {
                    Limit::Ops(n) => (n - stats.sent) as usize,
                    Limit::Until(_) => window,
                };
                while inflight.len() < window.min(first_new + room) {
                    let (part, op, expect, cov_wait) = self.next_op(mix_kind, &mut stats);
                    let id = self.next_id;
                    self.next_id += 1;
                    let t0 = Instant::now();
                    self.conn.queue(id, &self.parts[part].spec, &op);
                    let encode_ns = if traced {
                        t0.elapsed().as_nanos() as u32
                    } else {
                        0
                    };
                    stats.sent += 1;
                    inflight.push(Inflight {
                        id,
                        part,
                        op: op.name(),
                        t0,
                        expect,
                        cov_wait,
                        encode_ns,
                        flush_ns: 0,
                    });
                }
                let t = traced.then(Instant::now);
                if let Err(e) = self.conn.flush() {
                    stats.fail(format!("flush: {e}"));
                    broken = true;
                }
                if let Some(t) = t {
                    let ns = t.elapsed().as_nanos() as u32;
                    for f in &mut inflight[first_new..] {
                        f.flush_ns = ns;
                    }
                }
            }
            if inflight.is_empty() {
                break;
            }
            if broken {
                stats.lost += inflight.len() as u64;
                break;
            }
            match self.conn.recv() {
                Ok((id, reply)) => {
                    now = Instant::now();
                    last_reply = now;
                    let slice = (now.duration_since(start).as_nanos() / SLICE.as_nanos()) as usize;
                    if stats.slices.len() <= slice {
                        stats.slices.resize(slice + 1, 0);
                    }
                    stats.slices[slice] += 1;
                    let Some(at) = inflight.iter().position(|f| f.id == id) else {
                        stats.mismatches += 1;
                        stats.fail(format!("reply for unknown request id {id}"));
                        continue;
                    };
                    let f = inflight.swap_remove(at);
                    let total = now.duration_since(f.t0).as_nanos().min(u32::MAX as u128) as u32;
                    stats.latencies_ns.push(total);
                    if traced {
                        stats.spans.push(Span {
                            id,
                            op: f.op,
                            start_ns: f.t0.duration_since(start).as_nanos() as u64,
                            encode_ns: f.encode_ns,
                            flush_ns: f.flush_ns,
                            await_ns: self.conn.split.await_ns.min(u32::MAX as u64) as u32,
                            decode_ns: self.conn.split.decode_ns.min(u32::MAX as u64) as u32,
                            total_ns: total,
                        });
                    }
                    self.account(f, reply, &mut stats);
                }
                Err(e) => {
                    stats.fail(match e {
                        RecvError::Timeout => "timeout waiting for a reply".to_string(),
                        RecvError::Io(e) => format!("connection: {e}"),
                        RecvError::Protocol(m) => format!("protocol: {m}"),
                    });
                    broken = true;
                }
            }
        }
        stats.wall = last_reply.duration_since(start);
        stats
    }

    fn account(&mut self, f: Inflight, reply: Reply, stats: &mut PhaseStats) {
        let part = &mut self.parts[f.part];
        let matches = match (&f.expect, &reply) {
            (_, Reply::Error { code }) => {
                if code == "backpressure" {
                    stats.rejects += 1;
                } else {
                    stats.errors += 1;
                }
                stats.fail(format!(
                    "{} of {}: error reply '{code}'",
                    f.op, part.spec.site
                ));
                return;
            }
            (Expect::Seq(want), Reply::Observe { seq }) => want == seq,
            (
                Expect::Prediction(want),
                Reply::Predict {
                    n,
                    seq,
                    bmbp,
                    lognormal,
                },
            ) => {
                part.served = (*bmbp, *lognormal);
                if let Some(wait) = f.cov_wait {
                    stats.cover(wait, *bmbp);
                }
                same_prediction(want, *n, *seq, *bmbp, *lognormal)
            }
            (
                Expect::Decision {
                    n: wn,
                    seq: ws,
                    decision: wd,
                },
                Reply::Admit { n, seq, decision },
            ) => wn == n && ws == seq && decision_bits(wd) == decision_bits(decision),
            _ => false,
        };
        if matches {
            stats.succeeded += 1;
        } else {
            stats.mismatches += 1;
            stats.fail(format!(
                "{} of {}: reply {reply:?} differs from the shadow partition",
                f.op, part.spec.site
            ));
        }
    }
}

/// Whether a served prediction equals the shadow's, bounds bit for bit.
pub fn same_prediction(
    want: &Prediction,
    n: u64,
    seq: u64,
    bmbp: Option<f64>,
    lognormal: Option<f64>,
) -> bool {
    want.n as u64 == n
        && want.seq == seq
        && want.bmbp.map(f64::to_bits) == bmbp.map(f64::to_bits)
        && want.lognormal.map(f64::to_bits) == lognormal.map(f64::to_bits)
}

fn decision_bits(d: &Decision) -> (u8, u64, u64) {
    match *d {
        Decision::Admit { bound, margin } => (0, bound.to_bits(), margin.to_bits()),
        Decision::Reject { bound, margin } => (1, bound.to_bits(), margin.to_bits()),
        Decision::Defer { retry_hint } => (2, retry_hint, 0),
    }
}
