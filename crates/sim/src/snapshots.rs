//! Multi-quantile snapshot panels — the paper's Table 8 ("one day in the
//! life of the datastar/normal queue").
//!
//! At a fixed cadence (the paper samples every two hours), the BMBP history
//! is queried for a *lower* bound on the 0.25 quantile and *upper* bounds on
//! the 0.5, 0.75 and 0.95 quantiles, all at 95% confidence — a compact
//! picture of what a user could expect from the queue at that moment.

use qdelay_predict::bmbp::{Bmbp, BmbpConfig};
use qdelay_predict::{BoundSpec, QuantilePredictor};
use qdelay_trace::Trace;

/// One row of a Table 8-style panel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantilePanel {
    /// Snapshot time (UNIX seconds).
    pub time: u64,
    /// 95%-confidence *lower* bound on the 0.25 quantile.
    pub lower_q25: Option<f64>,
    /// 95%-confidence upper bound on the 0.5 quantile.
    pub upper_q50: Option<f64>,
    /// 95%-confidence upper bound on the 0.75 quantile.
    pub upper_q75: Option<f64>,
    /// 95%-confidence upper bound on the 0.95 quantile.
    pub upper_q95: Option<f64>,
}

/// Configuration for panel generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotConfig {
    /// First snapshot (UNIX seconds).
    pub start: u64,
    /// Last snapshot (inclusive).
    pub end: u64,
    /// Cadence in seconds (paper: 7200 = two hours).
    pub step: u64,
    /// Confidence level for all four bounds (paper: 0.95).
    pub confidence: f64,
}

/// Replays `trace` with a BMBP predictor (paper configuration) and emits
/// one [`QuantilePanel`] per snapshot time from `config.start` to
/// `config.end`. Jobs are revealed to the history exactly as in the main
/// harness: a job's wait becomes visible at its start time (stable sort,
/// so ties replay identically across runs).
///
/// # Panics
///
/// Panics if `start > end`, `step == 0`, or `confidence` is outside (0, 1).
pub fn quantile_panels(trace: &Trace, config: &SnapshotConfig) -> Vec<QuantilePanel> {
    assert!(config.start <= config.end, "start must be <= end");
    assert!(config.step > 0, "step must be positive");
    let [spec25, spec50, spec75, spec95] = [0.25, 0.50, 0.75, 0.95]
        .map(|q| BoundSpec::new(q, config.confidence).expect("validated confidence"));
    let mut bmbp = Bmbp::new(BmbpConfig::default());
    let mut starts: Vec<(f64, f64)> = trace.iter().map(|j| (j.start_time(), j.wait_secs)).collect();
    starts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let mut starts = starts.into_iter().peekable();
    let mut panels = Vec::new();
    let mut t = config.start;
    loop {
        while let Some((_, wait)) = starts.next_if(|&(start, _)| start <= t as f64) {
            bmbp.observe(wait);
        }
        panels.push(QuantilePanel {
            time: t,
            lower_q25: bmbp.lower_bound_for(spec25).value(),
            upper_q50: bmbp.upper_bound_for(spec50).value(),
            upper_q75: bmbp.upper_bound_for(spec75).value(),
            upper_q95: bmbp.upper_bound_for(spec95).value(),
        });
        match t.checked_add(config.step) {
            Some(next) if next <= config.end => t = next,
            _ => return panels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdelay_trace::JobRecord;

    fn trace_with_waits(waits: &[f64]) -> Trace {
        let mut t = Trace::new("m", "q");
        for (i, &w) in waits.iter().enumerate() {
            t.push(JobRecord {
                submit: i as u64 * 100,
                wait_secs: w,
                procs: 1,
                run_secs: 10.0,
            });
        }
        t
    }

    #[test]
    fn panels_cover_requested_window() {
        let waits: Vec<f64> = (0..2000).map(|i| (i % 300) as f64).collect();
        let trace = trace_with_waits(&waits);
        let cfg = SnapshotConfig {
            start: 0,
            end: 86_400,
            step: 7_200,
            confidence: 0.95,
        };
        let panels = quantile_panels(&trace, &cfg);
        assert_eq!(panels.len(), 13); // 0..=86400 step 7200
        assert_eq!(panels[0].time, 0);
        assert_eq!(panels.last().unwrap().time, 86_400);
    }

    #[test]
    fn quantile_ordering_within_panel() {
        let waits: Vec<f64> = (0..5000)
            .map(|i| ((i as u64).wrapping_mul(2_654_435_761) % 100_000) as f64)
            .collect();
        let trace = trace_with_waits(&waits);
        let cfg = SnapshotConfig {
            start: 400_000,
            end: 500_000,
            step: 7_200,
            confidence: 0.95,
        };
        let panels = quantile_panels(&trace, &cfg);
        for p in &panels {
            let (Some(lo), Some(q50), Some(q75), Some(q95)) =
                (p.lower_q25, p.upper_q50, p.upper_q75, p.upper_q95)
            else {
                panic!("panel at {} missing bounds", p.time);
            };
            assert!(lo <= q50 && q50 <= q75 && q75 <= q95, "ordering at {}", p.time);
        }
    }

    #[test]
    fn early_panels_have_no_bounds() {
        // Before any job starts, the history is empty.
        let trace = trace_with_waits(&[1.0; 100]);
        let cfg = SnapshotConfig {
            start: 0,
            end: 0,
            step: 100,
            confidence: 0.95,
        };
        let panels = quantile_panels(&trace, &cfg);
        assert_eq!(panels.len(), 1);
        assert_eq!(panels[0].upper_q95, None);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_rejected() {
        let trace = trace_with_waits(&[1.0]);
        quantile_panels(
            &trace,
            &SnapshotConfig {
                start: 0,
                end: 10,
                step: 0,
                confidence: 0.95,
            },
        );
    }
}
