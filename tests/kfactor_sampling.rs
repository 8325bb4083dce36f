//! Pins how the log-normal comparator accounts for its K-factor lookups.
//!
//! A lookup that misses the per-`n` memo is an ~8 ns table read, so it is
//! timed only on the refits whose `predict.lognormal.refit_ns` span is
//! sampled (one in 64), while the `.kfactor.{hit,miss}` counters count
//! every refit.
//!
//! This file is a standalone test binary on purpose: the telemetry
//! registry is process-global, and exact deltas hold only while nothing
//! else in the process touches these instruments.

use qdelay::predict::lognormal::{LogNormalConfig, LogNormalPredictor};
use qdelay::predict::QuantilePredictor;
use qdelay::telemetry;

/// One refit in this many is sampled (`Span::enter_sampled`'s mask + 1).
const SAMPLE_EVERY: u64 = 64;

fn counter(name: &str) -> u64 {
    telemetry::snapshot().counter(name).unwrap_or(0)
}

fn samples(name: &str) -> u64 {
    telemetry::snapshot().histogram(name).map_or(0, |h| h.count)
}

#[derive(Debug, PartialEq)]
struct Reading {
    hits: u64,
    misses: u64,
    lookup_samples: u64,
    refit_samples: u64,
}

fn read() -> Reading {
    Reading {
        hits: counter("predict.lognormal.kfactor.hit"),
        misses: counter("predict.lognormal.kfactor.miss"),
        lookup_samples: samples("predict.lognormal.kfactor_ns"),
        refit_samples: samples("predict.lognormal.refit_ns"),
    }
}

fn wait(i: u64) -> f64 {
    (i % 37) as f64 * 3.0 + 1.0
}

#[test]
fn kfactor_lookups_are_counted_exactly_and_timed_with_their_sampled_refit() {
    let mut p = LogNormalPredictor::new(LogNormalConfig::no_trim());
    for i in 0..100 {
        p.observe(wait(i));
    }
    let before = read();

    // Dirty refits: `n` grows before each, so every one misses the memo.
    let dirty = 10 * SAMPLE_EVERY + 17;
    for i in 0..dirty {
        p.observe(wait(100 + i));
        p.refit();
        assert!(p.current_bound().value().is_some());
    }
    let after_dirty = read();
    assert_eq!(
        after_dirty,
        Reading {
            hits: before.hits,
            misses: before.misses + dirty,
            lookup_samples: before.lookup_samples + dirty / SAMPLE_EVERY,
            refit_samples: before.refit_samples + dirty / SAMPLE_EVERY,
        }
    );

    // Clean refits: `n` is unchanged, so every one hits the memo, and a
    // sampled one (refit number 704) times no lookup.
    let clean = 50;
    for _ in 0..clean {
        p.refit();
    }
    let refits = dirty + clean;
    assert_eq!(
        read(),
        Reading {
            hits: after_dirty.hits + clean,
            misses: after_dirty.misses,
            lookup_samples: after_dirty.lookup_samples,
            refit_samples: before.refit_samples + refits / SAMPLE_EVERY,
        }
    );
    assert!(refits / SAMPLE_EVERY > dirty / SAMPLE_EVERY, "a clean refit must be sampled");
}
