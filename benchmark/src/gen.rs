//! Inputs: everything the server is sent derives from `--seed` here.

use crate::util::mix;
use qdelay_serve::registry::Partition;
use qdelay_trace::{catalog, synth};

/// One partition's identity and its stream of waits, drawn from a Table 1
/// profile through `qdelay_trace::synth` (AR(1) log-waits with regime
/// switches and a Pareto tail, so change-point trims do fire).
#[derive(Clone)]
pub struct PartitionSpec {
    pub site: String,
    pub queue: String,
    pub procs: u32,
    pub waits: Vec<f64>,
    /// A wait budget for `admit`: twice the pool's median, so both
    /// decisions occur.
    pub budget: f64,
}

/// Processor counts covering all four proc-range buckets.
const PROCS: [u32; 4] = [2, 8, 32, 128];

/// `count` partitions with `pool` waits each. The same `(seed, count,
/// pool)` always yields the same partitions.
pub fn partitions(seed: u64, count: usize, pool: usize) -> Vec<PartitionSpec> {
    let profiles = catalog::queue_table_catalog();
    (0..count)
        .map(|i| {
            let mut profile = profiles[i % profiles.len()].clone();
            profile.job_count = pool as u64;
            let settings = synth::SynthSettings::with_seed(mix(seed, i as u64));
            let waits = synth::generate(&profile, &settings).waits();
            let mut sorted = waits.clone();
            sorted.sort_by(f64::total_cmp);
            PartitionSpec {
                site: format!("site{i:05}"),
                queue: profile.queue.to_string(),
                procs: PROCS[i % PROCS.len()],
                budget: 2.0 * sorted[sorted.len() / 2],
                waits,
            }
        })
        .collect()
}

/// A partition as one connection drives it: the spec, a cursor into its
/// wait pool, and the shadow predictor fed exactly what the server is sent.
pub struct Part {
    pub spec: PartitionSpec,
    cursor: usize,
    pub shadow: Partition,
    /// `mixed-json`: where this partition's current job is in the paper's
    /// predict → (admit) → observe loop.
    pub stage: Stage,
    /// `mixed-json`: the bounds the server last served for this partition.
    pub served: (Option<f64>, Option<f64>),
    pub jobs: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    Predict,
    Admit,
    Observe,
}

impl Part {
    pub fn new(spec: PartitionSpec) -> Self {
        Part {
            spec,
            cursor: 0,
            shadow: Partition::new(),
            stage: Stage::Predict,
            served: (None, None),
            jobs: 0,
        }
    }

    /// The next wait of the stream; the pool wraps, deterministically.
    pub fn next_wait(&mut self) -> f64 {
        let w = self.spec.waits[self.cursor % self.spec.waits.len()];
        self.cursor += 1;
        w
    }
}
