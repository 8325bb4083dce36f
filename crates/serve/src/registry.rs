//! Partition keys, per-partition predictor state, and the shard map.
//!
//! A **partition** is the unit of predictor state: one `(site, queue,
//! proc-range)` triple owning a BMBP and a log-normal predictor
//! ([`BmbpModel`], [`LogNormalModel`]) and the one arrival log both read.
//! Partitions are assigned to shards by a stable FNV-1a hash of the key,
//! so the same key always lands on the same shard within a run — one
//! shard lock ([`crate::server`]) covers every predictor a request can
//! touch, and whoever holds it mutates them single-threaded — while the
//! snapshot format stays flat and shard-count-independent (a restart may
//! use a different `--shards`).

use crate::snapshot::PartitionSnapshot;
use qdelay_predict::bmbp::BmbpModel;
use qdelay_predict::history::push_retaining;
use qdelay_predict::lognormal::{LogNormalConfig, LogNormalModel};
use qdelay_predict::PredictError;
use qdelay_trace::ProcRange;
use std::collections::VecDeque;

/// Identifies one partition: a queue at a site, restricted to a processor
/// bucket (the paper's Tables 5-7 per-size split).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartitionKey {
    pub site: String,
    pub queue: String,
    pub range: ProcRange,
}

impl PartitionKey {
    /// Builds the key a request with this `procs` count routes to.
    pub fn for_request(site: &str, queue: &str, procs: u32) -> Self {
        Self {
            site: site.to_string(),
            queue: queue.to_string(),
            range: ProcRange::for_procs(procs),
        }
    }

    /// Human-readable label used in replies and snapshots:
    /// `site/queue/range`.
    pub fn label(&self) -> String {
        let range = self.range.label();
        let mut label =
            String::with_capacity(self.site.len() + self.queue.len() + range.len() + 2);
        label.push_str(&self.site);
        label.push('/');
        label.push_str(&self.queue);
        label.push('/');
        label.push_str(range);
        label
    }

    /// The owning shard, by FNV-1a over the key's fields (NUL-separated, so
    /// `("ab","c")` and `("a","bc")` hash differently). Stable across runs
    /// and platforms.
    pub fn shard_index(&self, shards: usize) -> usize {
        assert!(shards > 0, "shards must be positive");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.site.as_bytes());
        eat(&[0]);
        eat(self.queue.as_bytes());
        eat(&[0]);
        eat(self.range.label().as_bytes());
        (h % shards as u64) as usize
    }
}

/// One partition's predictor pair, the arrival log they share, and its
/// observation cursor.
///
/// Both predictors see every wait and drop only their oldest, so their
/// histories are suffixes of one arrival stream: the partition keeps that
/// stream once, as a log of the newest max(n_bmbp, n_lognormal) waits —
/// exactly the `waits` of its [`PartitionSnapshot`] — and each predictor
/// keeps only what it derives from its suffix (BMBP its sorted view, the
/// log-normal its running moments).
///
/// `seq` counts observations applied to this partition; every `observe`
/// acknowledgement returns the sequence number it became, which is what
/// lets an external client reconstruct the exact per-partition event order
/// even when many connections interleave.
///
/// Refits are **lazy**: `observe` only marks the partition dirty, and the
/// next `predict` refits both predictors before serving. Served bounds are
/// therefore a pure function of the observation sequence — independent of
/// how requests were batched or which loop executed them — while
/// back-to-back observes cost no refit at all.
#[derive(Debug)]
pub struct Partition {
    bmbp: BmbpModel,
    lognormal: LogNormalModel,
    /// The newest `max(bmbp.len(), lognormal.len())` waits, oldest first.
    log: VecDeque<f64>,
    seq: u64,
    dirty: bool,
}

/// The answer `predict` serves for a partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Observations the BMBP predictor currently retains (its post-trim
    /// history length). The log-normal predictor trims on its own misses,
    /// so its history can be shorter or longer: on the paper's loop the
    /// two lengths differ in ~45 % of samples of long-lived partitions.
    pub n: usize,
    /// Observation sequence number the prediction reflects.
    pub seq: u64,
    /// BMBP upper bound, if the history suffices.
    pub bmbp: Option<f64>,
    /// Log-normal (Trim variant) upper bound, if the history suffices.
    pub lognormal: Option<f64>,
}

impl Prediction {
    /// What a partition with no history serves — [`Partition::with_seq`]`(seq)
    /// .predict()`, without building the partition. The store answers
    /// questions about keys it does not hold with this, so that asking
    /// creates nothing.
    pub fn unobserved(seq: u64) -> Self {
        Self { n: 0, seq, bmbp: None, lognormal: None }
    }
}

impl Partition {
    /// A fresh partition with the paper-default predictor pair (BMBP 95/95
    /// with trimming; log-normal Trim variant).
    pub fn new() -> Self {
        Self {
            bmbp: BmbpModel::with_defaults(),
            lognormal: LogNormalModel::new(LogNormalConfig::trim()),
            log: VecDeque::new(),
            seq: 0,
            dirty: false,
        }
    }

    /// A fresh partition whose sequence cursor starts at `seq` instead of
    /// zero: the resurrection state after a tombstone. The predictors are
    /// brand new (a tombstone deletes all history), but the cursor keeps
    /// counting so per-partition seq stays strictly monotone across the
    /// delete — which is what lets replication dedup replayed records on
    /// either side of a tombstone.
    pub fn with_seq(seq: u64) -> Self {
        Self { seq, ..Self::new() }
    }

    /// Applies one observation (optionally with outcome feedback for either
    /// predictor) and returns the sequence number it became.
    ///
    /// Feedback comes first, so a trim sees the log without the new wait;
    /// then both predictors take the wait (BMBP's `max_history` eviction
    /// reads its oldest wait from the log); then the log drops the waits
    /// neither predictor retains any longer and takes the new one.
    pub fn observe(
        &mut self,
        wait: f64,
        predicted_bmbp: Option<f64>,
        predicted_lognormal: Option<f64>,
    ) -> u64 {
        if let Some(p) = predicted_bmbp {
            self.bmbp.record_outcome(&self.log, p, wait);
        }
        if let Some(p) = predicted_lognormal {
            self.lognormal.record_outcome(&self.log, p, wait);
        }
        self.bmbp.observe(&self.log, wait);
        self.lognormal.observe(wait);
        push_retaining(&mut self.log, wait, self.bmbp.len().max(self.lognormal.len()));
        self.dirty = true;
        self.seq += 1;
        self.seq
    }

    /// Serves the current bounds, refitting first if observations arrived
    /// since the last predict. The answer is a pure function of the
    /// observation sequence and stays the partition's answer until the next
    /// `observe` — which is what lets [`crate::hibernate`] keep it in the
    /// index when the partition's history pages out.
    pub fn predict(&mut self) -> Prediction {
        if self.dirty {
            self.bmbp.refit();
            self.lognormal.refit();
            self.dirty = false;
        }
        Prediction {
            n: self.bmbp.len(),
            seq: self.seq,
            bmbp: self.bmbp.current_bound().value(),
            lognormal: self.lognormal.current_bound().value(),
        }
    }

    /// Observations applied so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Waits held in memory: the length of the shared log.
    pub fn stored_waits(&self) -> usize {
        self.log.len()
    }

    /// Exports this partition's serializable core: the log is the stored
    /// history, and each predictor's retained count names its suffix.
    pub fn to_snapshot(&self, key: &PartitionKey) -> PartitionSnapshot {
        PartitionSnapshot {
            site: key.site.clone(),
            queue: key.queue.clone(),
            range: key.range,
            seq: self.seq,
            bmbp: self.bmbp.state(),
            lognormal: self.lognormal.state(),
            waits: self.log.iter().copied().collect(),
            bmbp_retained: self.bmbp.len(),
            lognormal_retained: self.lognormal.len(),
        }
    }

    /// Restores a partition from a snapshot. Both predictors refit on load
    /// (`from_state` does), so the partition starts clean, not dirty. The
    /// log keeps the longer of the two histories [`PartitionSnapshot::histories`]
    /// reads, so a hand-built entry's waits that neither predictor retains
    /// are not kept.
    pub fn from_snapshot(snap: &PartitionSnapshot) -> Result<Self, PredictError> {
        let (bmbp, lognormal) = snap.histories();
        let kept = bmbp.len().max(lognormal.len());
        Ok(Self {
            bmbp: BmbpModel::from_state(&snap.bmbp, bmbp)?,
            lognormal: LogNormalModel::from_state(&snap.lognormal, lognormal)?,
            log: snap.waits[snap.waits.len() - kept..].iter().copied().collect(),
            seq: snap.seq,
            dirty: false,
        })
    }
}

impl Default for Partition {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_routing_buckets_procs() {
        let a = PartitionKey::for_request("s", "q", 3);
        let b = PartitionKey::for_request("s", "q", 4);
        let c = PartitionKey::for_request("s", "q", 5);
        assert_eq!(a, b, "3 and 4 procs share the 1-4 bucket");
        assert_ne!(b, c);
        assert_eq!(a.label(), "s/q/1-4");
        assert_eq!(c.label(), "s/q/5-16");
    }

    #[test]
    fn shard_index_is_stable_and_separator_safe() {
        let k = PartitionKey::for_request("datastar", "normal", 4);
        assert_eq!(k.shard_index(4), k.shard_index(4), "deterministic");
        assert!(k.shard_index(1) == 0);
        // NUL separation: gluing site+queue differently must change the hash
        // input (equal indices can still collide, but the keys differ).
        let x = PartitionKey::for_request("ab", "c", 1);
        let y = PartitionKey::for_request("a", "bc", 1);
        assert_ne!(x, y);
    }

    #[test]
    fn shard_spread_covers_all_shards() {
        // 64 distinct keys over 4 shards: every shard gets work.
        let mut seen = [false; 4];
        for i in 0..64 {
            let k = PartitionKey::for_request(&format!("site{i}"), "q", 1);
            seen[k.shard_index(4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "spread: {seen:?}");
    }

    #[test]
    fn lazy_refit_serves_sequence_deterministic_bounds() {
        // However the observes are interleaved with (ignored) predicts, the
        // bound after the final predict depends only on the sequence.
        let waits: Vec<f64> = (0..200).map(|i| (i % 37) as f64).collect();
        let mut a = Partition::new();
        for &w in &waits {
            a.observe(w, None, None);
        }
        let pa = a.predict();

        let mut b = Partition::new();
        for (i, &w) in waits.iter().enumerate() {
            b.observe(w, None, None);
            if i % 13 == 0 {
                b.predict();
            }
        }
        let pb = b.predict();
        assert_eq!(pa, pb);
        assert_eq!(pa.seq, 200);
        assert!(pa.bmbp.is_some());
    }

    #[test]
    fn the_unobserved_answer_is_what_a_fresh_partition_serves() {
        assert_eq!(Partition::new().predict(), Prediction::unobserved(0));
        // A resurrected partition: new predictors, the dead cursor as seq.
        assert_eq!(Partition::with_seq(41).predict(), Prediction::unobserved(41));
    }

    #[test]
    fn snapshot_round_trip_preserves_predictions() {
        let mut p = Partition::new();
        for i in 0..150 {
            p.observe((i % 29) as f64 * 10.0, None, None);
        }
        let before = p.predict();
        let key = PartitionKey::for_request("s", "q", 8);
        let snap = p.to_snapshot(&key);
        let mut restored = Partition::from_snapshot(&snap).unwrap();
        let after = restored.predict();
        assert_eq!(before.bmbp.map(f64::to_bits), after.bmbp.map(f64::to_bits));
        assert_eq!(
            before.lognormal.map(f64::to_bits),
            after.lognormal.map(f64::to_bits)
        );
        assert_eq!(restored.seq(), 150);
    }

    #[test]
    fn outcome_feedback_reaches_the_right_predictor() {
        let mut p = Partition::new();
        for i in 0..100 {
            p.observe((i % 10) as f64, None, None);
        }
        let before = p.predict();
        // Hammer only the BMBP predictor with misses; its detector fires
        // and trims, the log-normal history stays put.
        for _ in 0..10 {
            p.observe(1e6, before.bmbp.map(|b| b + 1.0), None);
        }
        let after = p.predict();
        assert!(after.n < 110, "bmbp trimmed: n = {}", after.n);
    }
}
