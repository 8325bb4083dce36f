//! # qdelay-trace
//!
//! Batch-queue trace model for the `qdelay` workspace.
//!
//! The paper's evaluation (§5) replays archival scheduler logs from seven
//! HPC machines. Those logs are not redistributable, so this crate provides
//! (a) the job/trace data model and parsers (native format and Standard
//! Workload Format) so real logs can be used when available, (b) a catalog
//! of every machine/queue row from the paper's Table 1 with its published
//! statistics, and (c) a calibrated synthetic generator that reproduces the
//! statistical features those rows document — heavy tails, autocorrelation,
//! and nonstationary regime changes (see [`synth`]).
//!
//! ```
//! use qdelay_trace::catalog;
//!
//! let profiles = catalog::paper_catalog();
//! assert_eq!(profiles.len(), 39); // every row of Table 1
//! let total: u64 = profiles.iter().map(|p| p.job_count).sum();
//! assert_eq!(total, 1_235_106); // Table 1 row sum ("1.26 million", section 5.2)
//! ```

pub mod catalog;
pub mod procrange;
pub mod swf;
pub mod synth;

use std::sync::OnceLock;

pub use procrange::ProcRange;

/// One submitted job, as recorded by a batch scheduler log.
///
/// Times are UNIX seconds; the paper's parsed data files carry exactly
/// `(submit timestamp, queue wait duration)` per line (§5.1), extended here
/// with the processor count (needed for §6.2) and runtime (needed by the
/// cluster simulator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    /// Submission time, UNIX seconds.
    pub submit: u64,
    /// Time spent waiting in queue before execution, seconds.
    pub wait_secs: f64,
    /// Number of processors requested.
    pub procs: u32,
    /// Execution duration, seconds (0 when unknown).
    pub run_secs: f64,
}

impl JobRecord {
    /// The moment the job started executing.
    pub fn start_time(&self) -> f64 {
        self.submit as f64 + self.wait_secs
    }

    /// The processor-count range bucket this job falls into.
    pub fn proc_range(&self) -> ProcRange {
        ProcRange::for_procs(self.procs)
    }
}

/// A wait-time trace for one machine/queue pair, ordered by submission time.
///
/// # Examples
///
/// ```
/// use qdelay_trace::{JobRecord, Trace};
///
/// let mut t = Trace::new("datastar", "normal");
/// t.push(JobRecord { submit: 100, wait_secs: 30.0, procs: 4, run_secs: 600.0 });
/// t.push(JobRecord { submit: 160, wait_secs: 5.0, procs: 64, run_secs: 60.0 });
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.waits(), vec![30.0, 5.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Trace {
    machine: String,
    queue: String,
    jobs: Vec<JobRecord>,
    /// [`Trace::start_order`], computed on first use and dropped by every
    /// change to `jobs`.
    start_order: OnceLock<Box<[u32]>>,
}

/// Two traces are equal when their names and records are; whether either
/// has computed its start order does not matter.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.machine == other.machine && self.queue == other.queue && self.jobs == other.jobs
    }
}

impl Trace {
    /// Creates an empty trace for a machine/queue pair.
    pub fn new(machine: impl Into<String>, queue: impl Into<String>) -> Self {
        Self {
            machine: machine.into(),
            queue: queue.into(),
            jobs: Vec::new(),
            start_order: OnceLock::new(),
        }
    }

    /// A trace for a machine/queue pair holding `jobs`, sorted by
    /// submission time (stable). The records are kept in the vector given,
    /// so one built at its final length is never copied or regrown.
    ///
    /// # Examples
    ///
    /// ```
    /// use qdelay_trace::{JobRecord, Trace};
    ///
    /// let job = |submit| JobRecord { submit, wait_secs: 1.0, procs: 1, run_secs: 60.0 };
    /// let t = Trace::from_jobs("datastar", "normal", vec![job(200), job(100)]);
    /// assert_eq!(t.span(), Some((100, 200)));
    /// ```
    pub fn from_jobs(
        machine: impl Into<String>,
        queue: impl Into<String>,
        jobs: Vec<JobRecord>,
    ) -> Self {
        let mut trace = Self {
            jobs,
            ..Self::new(machine, queue)
        };
        trace.sort_by_submit();
        trace
    }

    /// A trace of the same machine/queue pair holding `jobs`.
    fn with_jobs(&self, jobs: Vec<JobRecord>) -> Trace {
        Trace {
            jobs,
            ..Trace::new(self.machine.clone(), self.queue.clone())
        }
    }

    /// Machine identifier (e.g. `"datastar"`).
    pub fn machine(&self) -> &str {
        &self.machine
    }

    /// Queue name (e.g. `"normal"`).
    pub fn queue(&self) -> &str {
        &self.queue
    }

    /// Appends a job record.
    ///
    /// Records may be appended out of order; call [`Trace::sort_by_submit`]
    /// before replaying if so.
    pub fn push(&mut self, job: JobRecord) {
        self.start_order.take();
        self.jobs.push(job);
    }

    /// Number of job records.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the trace holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The job records, in stored order.
    pub fn jobs(&self) -> &[JobRecord] {
        &self.jobs
    }

    /// Iterates over the job records.
    pub fn iter(&self) -> std::slice::Iter<'_, JobRecord> {
        self.jobs.iter()
    }

    /// Sorts the records by submission time (stable). Records already in
    /// order are left as they are: a stable sort could not move them, and
    /// it would allocate scratch the size of the trace to find that out.
    pub fn sort_by_submit(&mut self) {
        if !self.jobs.is_sorted_by_key(|j| j.submit) {
            self.start_order.take();
            self.jobs.sort_by_key(|j| j.submit);
        }
    }

    /// The job indices in the order the jobs leave the queue: by
    /// [`JobRecord::start_time`], ties by index. Sorted once, on first
    /// use, and kept until the records next change, so every replay of a
    /// trace walks one order.
    ///
    /// # Panics
    ///
    /// Panics if a start time is not finite or the trace holds more than
    /// `u32::MAX` jobs.
    pub fn start_order(&self) -> &[u32] {
        self.start_order.get_or_init(|| {
            let n = u32::try_from(self.jobs.len()).expect("at most u32::MAX jobs");
            let mut starts: Vec<(f64, u32)> =
                self.jobs.iter().zip(0..n).map(|(j, i)| (j.start_time(), i)).collect();
            assert!(starts.iter().all(|(t, _)| t.is_finite()), "finite event times");
            starts.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            starts.into_iter().map(|(_, i)| i).collect()
        })
    }

    /// All wait times, in stored order.
    pub fn waits(&self) -> Vec<f64> {
        self.jobs.iter().map(|j| j.wait_secs).collect()
    }

    /// Summary statistics of the wait times (the paper's Table 1 columns).
    ///
    /// Returns `None` for traces with fewer than 2 jobs.
    pub fn summary(&self) -> Option<qdelay_stats::describe::Summary> {
        qdelay_stats::describe::Summary::from_sample(&self.waits())
    }

    /// A sub-trace containing only the jobs in the given processor range.
    pub fn filter_procs(&self, range: ProcRange) -> Trace {
        self.with_jobs(
            self.jobs
                .iter()
                .copied()
                .filter(|j| j.proc_range() == range)
                .collect(),
        )
    }

    /// `(first, last)` submission timestamps, if non-empty.
    pub fn span(&self) -> Option<(u64, u64)> {
        let first = self.jobs.first()?.submit;
        let last = self.jobs.last()?.submit;
        Some((first, last))
    }

    /// A sub-trace of the jobs *submitted* in `[from, until)`.
    pub fn window(&self, from: u64, until: u64) -> Trace {
        self.with_jobs(
            self.jobs
                .iter()
                .copied()
                .filter(|j| j.submit >= from && j.submit < until)
                .collect(),
        )
    }

    /// Parses the paper's native parsed-log format: one job per line,
    /// whitespace-separated `submit_unix_ts wait_secs [procs [run_secs]]`;
    /// `#` starts a comment.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on malformed lines, with the line number.
    pub fn parse_native(machine: &str, queue: &str, text: &str) -> Result<Self, TraceError> {
        let mut trace = Trace::new(machine, queue);
        for (lineno, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split_whitespace();
            let submit: u64 = fields
                .next()
                .ok_or_else(|| TraceError::parse(lineno + 1, "missing submit time"))?
                .parse()
                .map_err(|_| TraceError::parse(lineno + 1, "bad submit time"))?;
            let wait_secs: f64 = fields
                .next()
                .ok_or_else(|| TraceError::parse(lineno + 1, "missing wait"))?
                .parse()
                .map_err(|_| TraceError::parse(lineno + 1, "bad wait"))?;
            if !wait_secs.is_finite() || wait_secs < 0.0 {
                return Err(TraceError::parse(lineno + 1, "wait must be >= 0"));
            }
            let procs: u32 = match fields.next() {
                Some(f) => f
                    .parse()
                    .map_err(|_| TraceError::parse(lineno + 1, "bad proc count"))?,
                None => 1,
            };
            let run_secs: f64 = match fields.next() {
                Some(f) => f
                    .parse()
                    .map_err(|_| TraceError::parse(lineno + 1, "bad run time"))?,
                None => 0.0,
            };
            trace.push(JobRecord {
                submit,
                wait_secs,
                procs,
                run_secs,
            });
        }
        trace.sort_by_submit();
        Ok(trace)
    }

    /// Serializes to the native format parsed by [`Trace::parse_native`].
    pub fn to_native(&self) -> String {
        let mut out = String::with_capacity(self.jobs.len() * 32);
        out.push_str(&format!(
            "# machine={} queue={} jobs={}\n",
            self.machine,
            self.queue,
            self.jobs.len()
        ));
        for j in &self.jobs {
            out.push_str(&format!(
                "{} {} {} {}\n",
                j.submit, j.wait_secs, j.procs, j.run_secs
            ));
        }
        out
    }
}

impl Extend<JobRecord> for Trace {
    fn extend<T: IntoIterator<Item = JobRecord>>(&mut self, iter: T) {
        self.start_order.take();
        self.jobs.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a JobRecord;
    type IntoIter = std::slice::Iter<'a, JobRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.jobs.iter()
    }
}

/// Error raised while reading or constructing traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceError {
    line: Option<usize>,
    message: String,
}

impl TraceError {
    pub(crate) fn parse(line: usize, message: impl Into<String>) -> Self {
        Self {
            line: Some(line),
            message: message.into(),
        }
    }

    #[allow(dead_code)]
    pub(crate) fn other(message: impl Into<String>) -> Self {
        Self {
            line: None,
            message: message.into(),
        }
    }

    /// The 1-based line number the error occurred on, for parse errors.
    pub fn line(&self) -> Option<usize> {
        self.line
    }
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_roundtrip() {
        let mut t = Trace::new("m", "q");
        t.push(JobRecord {
            submit: 1000,
            wait_secs: 12.5,
            procs: 8,
            run_secs: 3600.0,
        });
        t.push(JobRecord {
            submit: 2000,
            wait_secs: 0.0,
            procs: 1,
            run_secs: 10.0,
        });
        let text = t.to_native();
        let back = Trace::parse_native("m", "q", &text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn parse_defaults_and_comments() {
        let text = "# a comment\n100 5.0\n200 6.5 16\n\n300 7.0 32 120 # trailing\n";
        let t = Trace::parse_native("m", "q", text).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.jobs()[0].procs, 1);
        assert_eq!(t.jobs()[1].procs, 16);
        assert_eq!(t.jobs()[2].run_secs, 120.0);
    }

    #[test]
    fn parse_sorts_by_submit() {
        let t = Trace::parse_native("m", "q", "300 1.0\n100 2.0\n200 3.0\n").unwrap();
        let submits: Vec<u64> = t.iter().map(|j| j.submit).collect();
        assert_eq!(submits, vec![100, 200, 300]);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = Trace::parse_native("m", "q", "100 5.0\nnot-a-number 3\n").unwrap_err();
        assert_eq!(err.line(), Some(2));
        let err = Trace::parse_native("m", "q", "100 -4\n").unwrap_err();
        assert_eq!(err.line(), Some(1));
        let err = Trace::parse_native("m", "q", "100\n").unwrap_err();
        assert!(err.to_string().contains("missing wait"));
    }

    #[test]
    fn filter_procs_partitions() {
        let mut t = Trace::new("m", "q");
        for (i, procs) in [1u32, 4, 8, 16, 32, 64, 128].iter().enumerate() {
            t.push(JobRecord {
                submit: i as u64,
                wait_secs: 1.0,
                procs: *procs,
                run_secs: 0.0,
            });
        }
        let total: usize = ProcRange::ALL
            .iter()
            .map(|r| t.filter_procs(*r).len())
            .sum();
        assert_eq!(total, t.len());
        assert_eq!(t.filter_procs(ProcRange::R1To4).len(), 2);
        assert_eq!(t.filter_procs(ProcRange::R65Plus).len(), 1);
    }

    #[test]
    fn summary_matches_describe() {
        let mut t = Trace::new("m", "q");
        for i in 0..100u64 {
            t.push(JobRecord {
                submit: i,
                wait_secs: i as f64,
                procs: 1,
                run_secs: 0.0,
            });
        }
        let s = t.summary().unwrap();
        assert_eq!(s.count, 100);
        assert!((s.mean - 49.5).abs() < 1e-12);
    }

    #[test]
    fn window_selects_by_submit() {
        let t = Trace::parse_native("m", "q", "100 1\n200 2\n300 3\n400 4\n").unwrap();
        let w = t.window(200, 400);
        assert_eq!(w.len(), 2);
        assert_eq!(w.jobs()[0].submit, 200);
        assert_eq!(w.jobs()[1].submit, 300);
        assert!(t.window(500, 600).is_empty());
        assert_eq!(w.machine(), "m");
    }

    /// A trace whose start times tie often: small integer submits and
    /// waits, a zero wait among them.
    fn tied_starts() -> Trace {
        let mut t = Trace::new("m", "q");
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..500u64 {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            t.push(JobRecord {
                submit: i / 3,
                wait_secs: ((state >> 33) % 5) as f64,
                procs: 1,
                run_secs: 1.0,
            });
        }
        t
    }

    fn sorted_starts(t: &Trace) -> Vec<u32> {
        let mut order: Vec<u32> = (0..t.len() as u32).collect();
        order.sort_by(|&a, &b| {
            let start = |i: u32| t.jobs()[i as usize].start_time();
            start(a).total_cmp(&start(b)).then(a.cmp(&b))
        });
        order
    }

    #[test]
    fn start_order_is_the_start_then_index_sort() {
        let t = tied_starts();
        let order = t.start_order();
        assert_eq!(order, sorted_starts(&t));
        let ties = order
            .windows(2)
            .filter(|w| t.jobs()[w[0] as usize].start_time() == t.jobs()[w[1] as usize].start_time())
            .count();
        assert!(ties > 100, "the trace must tie often ({ties} ties)");
        assert!(std::ptr::eq(order, t.start_order()), "computed once");
        assert!(Trace::new("m", "q").start_order().is_empty());
    }

    #[test]
    fn every_change_drops_the_start_order() {
        let job = |submit, wait_secs| JobRecord { submit, wait_secs, procs: 1, run_secs: 1.0 };
        let mut t = Trace::new("m", "q");
        t.push(job(10, 5.0));
        assert_eq!(t.start_order(), [0]);
        t.push(job(11, 0.0));
        assert_eq!(t.start_order(), [1, 0]);
        t.extend([job(0, 1.0)]);
        assert_eq!(t.start_order(), [2, 1, 0]);
        t.sort_by_submit();
        assert_eq!(t.start_order(), [0, 2, 1]);
        assert_eq!(t.start_order(), sorted_starts(&t));
    }

    #[test]
    fn clone_and_equality_ignore_the_start_order() {
        let cold = tied_starts();
        let warm = tied_starts();
        warm.start_order();
        assert_eq!(cold, warm);
        let copy = warm.clone();
        assert_eq!(copy, cold);
        assert_eq!(copy.start_order(), cold.start_order());
        let mut longer = warm.clone();
        longer.push(JobRecord { submit: 1_000, wait_secs: 0.0, procs: 1, run_secs: 1.0 });
        assert_ne!(longer, warm);
        assert_eq!(longer.start_order(), sorted_starts(&longer));
    }

    #[test]
    fn threads_reading_first_at_once_share_one_order() {
        let t = tied_starts();
        let barrier = std::sync::Barrier::new(2);
        let orders: Vec<Vec<u32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        t.start_order().to_vec()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(orders[0], orders[1]);
        assert_eq!(orders[0], sorted_starts(&t));
    }

    #[test]
    #[should_panic(expected = "finite event times")]
    fn start_order_rejects_a_nan_start() {
        let mut t = Trace::new("m", "q");
        t.push(JobRecord { submit: 1, wait_secs: f64::NAN, procs: 1, run_secs: 1.0 });
        t.start_order();
    }

    #[test]
    fn span_reports_extremes() {
        let t = Trace::parse_native("m", "q", "300 1.0\n100 2.0\n").unwrap();
        assert_eq!(t.span(), Some((100, 300)));
        assert_eq!(Trace::new("m", "q").span(), None);
    }
}
