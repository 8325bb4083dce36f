//! # qdelay-batchsim
//!
//! A discrete-event simulator of a space-shared (batch-scheduled) parallel
//! machine — the substrate that *produces* queue-wait traces endogenously.
//!
//! The paper evaluates on logs from production machines whose scheduling
//! policies are "partially or completely hidden ... and may change over
//! time" (§5.2). This crate models exactly that environment:
//!
//! * a machine with a fixed processor count, space-shared: every job gets a
//!   dedicated partition for its whole runtime ([`cluster`]);
//! * multiple submission queues with administrator-assigned priorities
//!   ([`QueueSpec`]);
//! * a scheduler running strict FCFS, priority-FCFS, EASY backfill, or
//!   conservative backfill ([`policy`], [`engine`]);
//! * administrator *policy changes* at arbitrary points in the trace —
//!   queue-priority reshuffles, backfill toggles, temporary boosts for
//!   large jobs (the mechanism behind the paper's Figure 2 surprise) —
//!   which are precisely the nonstationarity BMBP's change-point detection
//!   targets;
//! * a workload generator with diurnal arrival cycles, heavy-tailed
//!   runtimes, and user runtime *over*-estimates ([`workload`]).
//!
//! The output is a [`qdelay_trace::Trace`] per queue, directly consumable by
//! the evaluation harness.
//!
//! # Example
//!
//! ```
//! use qdelay_batchsim::{engine::Simulation, MachineConfig, QueueSpec,
//!                       policy::SchedulerPolicy, workload::WorkloadConfig};
//!
//! let machine = MachineConfig {
//!     procs: 128,
//!     queues: vec![QueueSpec::new("normal", 10), QueueSpec::new("low", 1)],
//! };
//! let workload = WorkloadConfig { days: 30, jobs_per_day: 200.0, seed: 7,
//!                                 ..WorkloadConfig::default() };
//! let mut sim = Simulation::new(machine, SchedulerPolicy::EasyBackfill);
//! let traces = sim.run(&workload);
//! assert_eq!(traces.len(), 2);
//! ```

pub mod cluster;
pub mod engine;
pub mod metrics;
pub mod policy;
pub mod profile;
pub mod workload;

/// Per-job wait-budget (deadline) derivation for deadline-aware policies.
///
/// Jobs carry no deadline field of their own (real batch logs don't have
/// one either); instead a site-wide rule derives each job's maximum
/// acceptable queuing delay from what the scheduler already knows:
///
/// ```text
/// wait_budget(job) = base + factor × estimate
/// ```
///
/// A job's SLO is *missed* when its actual wait exceeds that budget. The
/// [`policy::SchedulerPolicy::PredictiveBackfill`] discipline orders jobs
/// by remaining budget minus the predicted delay bound, and the admission
/// records compare the served bound against the full budget at arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineConfig {
    /// Flat wait allowance every job receives, seconds.
    pub base: u64,
    /// Additional allowance per second of the user's runtime estimate
    /// (longer jobs tolerate proportionally longer queues).
    pub factor: u64,
}

impl Default for DeadlineConfig {
    fn default() -> Self {
        Self { base: 600, factor: 1 }
    }
}

impl DeadlineConfig {
    /// The maximum acceptable queuing delay for a job with this runtime
    /// estimate, seconds.
    pub fn wait_budget(&self, estimate: u64) -> u64 {
        self.base.saturating_add(self.factor.saturating_mul(estimate))
    }
}

/// A job inside the simulator.
///
/// `runtime` is the true execution time; `estimate` is what the user told
/// the scheduler (backfill decisions use the estimate, as on real systems).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimJob {
    /// Unique, monotonically increasing id (also the FCFS tiebreak).
    pub id: u64,
    /// Submission time, seconds.
    pub submit: u64,
    /// Processors requested (dedicated for the whole runtime).
    pub procs: u32,
    /// True runtime, seconds.
    pub runtime: u64,
    /// User-supplied runtime estimate, seconds (>= runtime on average).
    pub estimate: u64,
    /// Index into the machine's queue list.
    pub queue: usize,
}

/// A submission queue and its administrator-assigned base priority.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueSpec {
    /// Queue name, e.g. `"normal"`.
    pub name: String,
    /// Base priority; higher is served first.
    pub priority: i64,
    /// Largest processor request the queue admits (`None` = machine size).
    pub max_procs: Option<u32>,
    /// Longest runtime estimate the queue admits, seconds (`None` = no cap).
    pub max_runtime: Option<u64>,
}

impl QueueSpec {
    /// Creates a queue with a name and base priority, no admission caps.
    pub fn new(name: impl Into<String>, priority: i64) -> Self {
        Self {
            name: name.into(),
            priority,
            max_procs: None,
            max_runtime: None,
        }
    }

    /// Sets the processor-count admission cap.
    pub fn with_max_procs(mut self, max_procs: u32) -> Self {
        self.max_procs = Some(max_procs);
        self
    }

    /// Sets the runtime admission cap.
    pub fn with_max_runtime(mut self, max_runtime: u64) -> Self {
        self.max_runtime = Some(max_runtime);
        self
    }
}

/// Static description of the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Total processors in the machine.
    pub procs: u32,
    /// The submission queues, index-addressed by [`SimJob::queue`].
    pub queues: Vec<QueueSpec>,
}

impl MachineConfig {
    /// A single-queue machine — the LLNL Blue Pacific shape.
    pub fn single_queue(procs: u32) -> Self {
        Self {
            procs,
            queues: vec![QueueSpec::new("all", 0)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_spec_builder() {
        let q = QueueSpec::new("short", 5)
            .with_max_procs(32)
            .with_max_runtime(3600);
        assert_eq!(q.name, "short");
        assert_eq!(q.priority, 5);
        assert_eq!(q.max_procs, Some(32));
        assert_eq!(q.max_runtime, Some(3600));
    }

    #[test]
    fn single_queue_machine() {
        let m = MachineConfig::single_queue(512);
        assert_eq!(m.procs, 512);
        assert_eq!(m.queues.len(), 1);
        assert_eq!(m.queues[0].name, "all");
    }
}
