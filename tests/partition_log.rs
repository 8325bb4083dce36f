//! One arrival log against two: a serve [`Partition`] keeps a single log
//! that both of its predictors read, and must behave exactly like a
//! reference pair — a standalone [`Bmbp`] and a [`LogNormalPredictor`]
//! (Trim), each owning its own log — given the same observes and the same
//! outcome feedback.
//!
//! The seeded script drives both through stretches in which only BMBP is
//! told it missed, only the log-normal is, both are, or neither is given
//! feedback, so each predictor trims while the other does not, in both
//! orders, and the longer history passes from one predictor to the other.
//! After every step the served bounds (by bits), `n` and `seq` agree, and
//! the partition's snapshot equals the reference's: the longer history
//! plus both retained lengths. At random steps the partition is replaced
//! by its own snapshot's restore and must continue bit for bit.

use qdelay::predict::bmbp::{Bmbp, BmbpConfig};
use qdelay::predict::lognormal::{LogNormalConfig, LogNormalPredictor};
use qdelay::predict::QuantilePredictor;
use qdelay::serve::registry::{Partition, PartitionKey, Prediction};
use qdelay::serve::snapshot::PartitionSnapshot;
use qdelay_rng::{Rng, StdRng};

/// The two predictors a partition pairs, each with its own log.
struct Reference {
    bmbp: Bmbp,
    lognormal: LogNormalPredictor,
    seq: u64,
    dirty: bool,
}

impl Reference {
    fn new(bmbp: BmbpConfig) -> Self {
        Self {
            bmbp: Bmbp::new(bmbp),
            lognormal: LogNormalPredictor::new(LogNormalConfig::trim()),
            seq: 0,
            dirty: false,
        }
    }

    fn observe(&mut self, wait: f64, bmbp: Option<f64>, lognormal: Option<f64>) {
        if let Some(p) = bmbp {
            self.bmbp.record_outcome(p, wait);
        }
        if let Some(p) = lognormal {
            self.lognormal.record_outcome(p, wait);
        }
        self.bmbp.observe(wait);
        self.lognormal.observe(wait);
        self.seq += 1;
        self.dirty = true;
    }

    fn predict(&mut self) -> Prediction {
        if std::mem::take(&mut self.dirty) {
            self.bmbp.refit();
            self.lognormal.refit();
        }
        Prediction {
            n: self.bmbp.history_len(),
            seq: self.seq,
            bmbp: self.bmbp.current_bound().value(),
            lognormal: self.lognormal.current_bound().value(),
        }
    }

    /// The snapshot a partition holding this pair must write: the longer
    /// history, and how many of its newest waits each predictor retains.
    fn snapshot(&self, key: &PartitionKey) -> PartitionSnapshot {
        let (b, l) = (self.bmbp.history_len(), self.lognormal.history_len());
        let waits = if b >= l {
            self.bmbp.waits().collect()
        } else {
            self.lognormal.waits().collect()
        };
        PartitionSnapshot {
            site: key.site.clone(),
            queue: key.queue.clone(),
            range: key.range,
            seq: self.seq,
            bmbp: self.bmbp.state(),
            lognormal: self.lognormal.state(),
            waits,
            bmbp_retained: b,
            lognormal_retained: l,
        }
    }

    fn from_snapshot(snap: &PartitionSnapshot) -> Self {
        let (bmbp, lognormal) = snap.histories();
        Self {
            bmbp: Bmbp::from_state(&snap.bmbp, bmbp).unwrap(),
            lognormal: LogNormalPredictor::from_state(&snap.lognormal, lognormal).unwrap(),
            seq: snap.seq,
            dirty: false,
        }
    }
}

fn bits(p: &Prediction) -> (usize, u64, Option<u64>, Option<u64>) {
    (p.n, p.seq, p.bmbp.map(f64::to_bits), p.lognormal.map(f64::to_bits))
}

/// Who is told about a served bound in the current stretch.
#[derive(Clone, Copy, Debug)]
enum Feedback {
    /// Each predictor gets its own served bound back.
    Served,
    /// BMBP is told it missed every time; the log-normal that it hit.
    BmbpMisses,
    /// The log-normal is told it missed every time; BMBP that it hit.
    LogNormalMisses,
    /// No feedback at all.
    Silent,
}

/// What the script saw happen, so a run that never exercised a case fails.
#[derive(Default, Debug)]
struct Seen {
    /// BMBP trimmed in a step where the log-normal did not.
    bmbp_alone: usize,
    /// The log-normal trimmed in a step where BMBP did not.
    lognormal_alone: usize,
    /// Steps ending with the log-normal's history the longer one.
    lognormal_longer: usize,
    /// Steps ending with BMBP's history the longer one.
    bmbp_longer: usize,
    round_trips: usize,
}

/// Drives `part` and `reference` through `steps` seeded steps, checking
/// them against each other after every one.
fn drive(part: &mut Partition, reference: &mut Reference, seed: u64, steps: usize) -> Seen {
    let key = PartitionKey::for_request("site", "queue", 8);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = Seen::default();
    let mut feedback = Feedback::Served;
    let mut level = 100.0;
    for step in 0..steps {
        if rng.gen_bool(0.04) {
            feedback = match rng.gen_range(0..4) {
                0 => Feedback::Served,
                1 => Feedback::BmbpMisses,
                2 => Feedback::LogNormalMisses,
                _ => Feedback::Silent,
            };
        }
        if rng.gen_bool(0.01) {
            level = 1.0 + 10_000.0 * rng.gen_f64();
        }
        // Zero waits occur (they are common in interactive queues), but
        // never while a stretch forces misses against a bound of zero.
        let draw = (level * -rng.gen_f64_open().ln()).floor();
        let wait = match feedback {
            Feedback::BmbpMisses | Feedback::LogNormalMisses => draw + 1.0,
            _ => draw,
        };
        let served = part.predict();
        let (b, l) = match feedback {
            Feedback::Served => (served.bmbp, served.lognormal),
            Feedback::BmbpMisses => (Some(0.0), Some(f64::MAX)),
            Feedback::LogNormalMisses => (Some(f64::MAX), Some(0.0)),
            Feedback::Silent => (None, None),
        };
        let trims = (reference.bmbp.trims(), reference.lognormal.trims());
        let seq = part.observe(wait, b, l);
        reference.observe(wait, b, l);
        assert_eq!(seq, reference.seq, "seed {seed} step {step}: seq");
        match (reference.bmbp.trims() > trims.0, reference.lognormal.trims() > trims.1) {
            (true, false) => seen.bmbp_alone += 1,
            (false, true) => seen.lognormal_alone += 1,
            _ => {}
        }
        let (nb, nl) = (reference.bmbp.history_len(), reference.lognormal.history_len());
        seen.lognormal_longer += usize::from(nl > nb);
        seen.bmbp_longer += usize::from(nb > nl);

        let expected = reference.snapshot(&key);
        assert_eq!(part.to_snapshot(&key), expected, "seed {seed} step {step}: snapshot");
        assert_eq!(part.stored_waits(), nb.max(nl), "seed {seed} step {step}: log length");
        if rng.gen_bool(0.05) {
            *part = Partition::from_snapshot(&part.to_snapshot(&key)).unwrap();
            seen.round_trips += 1;
        }
        assert_eq!(
            bits(&part.predict()),
            bits(&reference.predict()),
            "seed {seed} step {step}: served bounds"
        );
    }
    seen
}

#[test]
fn one_log_serves_both_predictors_bit_for_bit() {
    for seed in 0..6u64 {
        let mut part = Partition::new();
        let mut reference = Reference::new(BmbpConfig::default());
        let seen = drive(&mut part, &mut reference, 0x1065 ^ seed, 3000);
        assert!(seen.bmbp_alone > 0, "seed {seed}: BMBP never trimmed alone: {seen:?}");
        assert!(seen.lognormal_alone > 0, "seed {seed}: log-normal never trimmed alone: {seen:?}");
        assert!(seen.bmbp_longer > 0 && seen.lognormal_longer > 0, "seed {seed}: {seen:?}");
        assert!(seen.round_trips > 0, "seed {seed}: {seen:?}");
    }
}

/// A capped BMBP (`max_history`, which only a snapshot can give a
/// partition) evicts its oldest wait on every observe at the cap, reading
/// it from the shared log — usually from the middle of it, where the
/// log-normal's longer history still keeps older waits.
#[test]
fn a_capped_bmbp_evicts_from_the_shared_log() {
    let key = PartitionKey::for_request("site", "queue", 8);
    for (seed, cap) in [(1u64, 60usize), (2, 80), (3, 200)] {
        let config = BmbpConfig { max_history: Some(cap), ..BmbpConfig::default() };
        let mut reference = Reference::new(config);
        let mut part = Partition::from_snapshot(&reference.snapshot(&key)).unwrap();
        let seen = drive(&mut part, &mut reference, 0xCA9 ^ seed, 2000);
        assert!(reference.bmbp.history_len() <= cap);
        assert!(seen.lognormal_longer > 0, "cap {cap}: the log never outgrew BMBP: {seen:?}");
    }
}

/// A hand-built snapshot may claim more retained waits than it stores
/// (no decoder admits one); [`PartitionSnapshot::histories`] reads such a
/// claim as "all of them", and so must the restored partition, including
/// what it writes back.
#[test]
fn an_overclaimed_retained_count_restores_as_every_stored_wait() {
    let key = PartitionKey::for_request("site", "queue", 8);
    let mut reference = Reference::new(BmbpConfig::default());
    let mut part = Partition::new();
    drive(&mut part, &mut reference, 0x0C1A, 400);
    let base = reference.snapshot(&key);
    let stored = base.waits.len();
    for (b, l) in [(stored + 5, base.lognormal_retained), (base.bmbp_retained, stored + 1)] {
        let hand = PartitionSnapshot { bmbp_retained: b, lognormal_retained: l, ..base.clone() };
        let mut part = Partition::from_snapshot(&hand).unwrap();
        let mut reference = Reference::from_snapshot(&hand);
        let written = part.to_snapshot(&key);
        assert_eq!(written, reference.snapshot(&key));
        assert_eq!(written.waits, base.waits);
        assert_eq!(written.bmbp_retained.max(written.lognormal_retained), stored);
        drive(&mut part, &mut reference, 0x0C1B, 300);
    }
}
