//! Standard Workload Format (SWF) support.
//!
//! The archival logs the paper evaluates on (SDSC Paragon/SP, LANL O2K,
//! LLNL Blue Pacific, ...) are distributed by the Parallel Workloads
//! Archive in SWF: one job per line, 18 whitespace-separated fields, with
//! `;` starting comments. This module parses SWF into per-queue [`Trace`]s
//! so real logs can be dropped into the evaluation harness unchanged.

use crate::{JobRecord, Trace, TraceError};
use std::collections::BTreeMap;

/// One SWF record: the subset of fields the evaluation reads, plus the job
/// id and status.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwfJob {
    /// Field 1: job id.
    pub job_id: i64,
    /// Field 2: submit time, seconds from log start.
    pub submit: i64,
    /// Field 3: wait time, seconds (-1 = unknown).
    pub wait: i64,
    /// Field 4: run time, seconds (-1 = unknown).
    pub run: i64,
    /// Field 5: allocated processors (-1 = unknown).
    pub procs_alloc: i64,
    /// Field 8: requested processors (-1 = unknown).
    pub procs_req: i64,
    /// Field 11: completion status.
    pub status: i64,
    /// Field 15: queue number (-1 = unknown).
    pub queue: i64,
}

impl SwfJob {
    /// Requested processors, falling back to allocated (the convention the
    /// Parallel Workloads Archive recommends).
    pub fn effective_procs(&self) -> u32 {
        let p = if self.procs_req > 0 {
            self.procs_req
        } else {
            self.procs_alloc
        };
        p.max(1) as u32
    }
}

/// A parsed SWF log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SwfLog {
    jobs: Vec<SwfJob>,
}

impl SwfLog {
    /// The parsed job records.
    pub fn jobs(&self) -> &[SwfJob] {
        &self.jobs
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the log holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Groups the log into one [`Trace`] per queue number, skipping records
    /// with unknown wait times.
    ///
    /// Queue `q` becomes a trace named `q<q>` on the given machine; records
    /// with no queue field land in `"q?"`.
    pub fn to_traces(&self, machine: &str) -> Vec<Trace> {
        let mut by_queue: BTreeMap<i64, Trace> = BTreeMap::new();
        for j in &self.jobs {
            if j.wait < 0 || j.submit < 0 {
                continue; // unknown wait or corrupt record
            }
            let name = if j.queue >= 0 {
                format!("q{}", j.queue)
            } else {
                "q?".to_string()
            };
            let trace = by_queue
                .entry(j.queue)
                .or_insert_with(|| Trace::new(machine, name));
            trace.push(JobRecord {
                submit: j.submit as u64,
                wait_secs: j.wait as f64,
                procs: j.effective_procs(),
                run_secs: j.run.max(0) as f64,
            });
        }
        by_queue
            .into_values()
            .map(|mut t| {
                t.sort_by_submit();
                t
            })
            .collect()
    }
}

/// Parses SWF text.
///
/// Header comment lines (`;`) are ignored. Short lines (fewer than 18
/// fields) are tolerated down to 8 fields, with missing trailing fields
/// treated as unknown, because real archive files vary.
///
/// # Errors
///
/// Returns [`TraceError`] with a line number on malformed records.
pub fn parse_swf(text: &str) -> Result<SwfLog, TraceError> {
    let mut jobs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 8 {
            return Err(TraceError::parse(
                lineno + 1,
                format!("SWF record has {} fields, need at least 8", fields.len()),
            ));
        }
        let get = |i: usize| -> Result<i64, TraceError> {
            match fields.get(i) {
                Some(f) => f
                    .parse::<f64>() // some archives write floats in int fields
                    .map(|v| v as i64)
                    .map_err(|_| {
                        TraceError::parse(lineno + 1, format!("bad SWF field {}", i + 1))
                    }),
                None => Ok(-1),
            }
        };
        jobs.push(SwfJob {
            job_id: get(0)?,
            submit: get(1)?,
            wait: get(2)?,
            run: get(3)?,
            procs_alloc: get(4)?,
            procs_req: get(7)?,
            status: get(10)?,
            queue: get(14)?,
        });
    }
    Ok(SwfLog { jobs })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Version: 2.2
; Computer: test cluster
1 0 10 100 4 -1 -1 4 -1 -1 1 1 1 -1 1 -1 -1 -1
2 50 0 200 16 -1 -1 16 -1 -1 1 1 1 -1 1 -1 -1 -1
3 90 -1 300 8 -1 -1 8 -1 -1 0 1 1 -1 2 -1 -1 -1
4 120 33 40 1 -1 -1 -1 -1 -1 1 1 1 -1 2 -1 -1 -1
";

    #[test]
    fn parses_and_groups_by_queue() {
        let log = parse_swf(SAMPLE).unwrap();
        assert_eq!(log.len(), 4);
        let traces = log.to_traces("test");
        assert_eq!(traces.len(), 2);
        let q1 = traces.iter().find(|t| t.queue() == "q1").unwrap();
        let q2 = traces.iter().find(|t| t.queue() == "q2").unwrap();
        assert_eq!(q1.len(), 2);
        // Job 3 has unknown wait (-1) and is skipped.
        assert_eq!(q2.len(), 1);
        assert_eq!(q2.jobs()[0].wait_secs, 33.0);
    }

    #[test]
    fn requested_procs_preferred_over_allocated() {
        let log = parse_swf(SAMPLE).unwrap();
        assert_eq!(log.jobs()[0].effective_procs(), 4);
        // Job 4 has procs_req = -1, falls back to allocated 1.
        assert_eq!(log.jobs()[3].effective_procs(), 1);
    }

    #[test]
    fn rejects_malformed_records() {
        let err = parse_swf("1 2 3\n").unwrap_err();
        assert_eq!(err.line(), Some(1));
        let err = parse_swf("1 0 10 100 4 -1 -1 four -1 -1 1 1 1 -1 1 -1 -1 -1\n").unwrap_err();
        assert!(err.to_string().contains("field 8"));
    }

    #[test]
    fn tolerates_short_records() {
        // 8 fields: everything after procs_req defaults to unknown.
        let log = parse_swf("1 0 10 100 4 -1 -1 4\n").unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.jobs()[0].queue, -1);
        let traces = log.to_traces("m");
        assert_eq!(traces[0].queue(), "q?");
    }

    #[test]
    fn empty_and_comment_only_logs() {
        assert!(parse_swf("").unwrap().is_empty());
        assert!(parse_swf("; nothing here\n;\n").unwrap().is_empty());
    }
}
