//! Wait-time history storage.
//!
//! Predictors keep the observed waits in arrival order (so that trimming
//! can discard the *oldest* measurements, per the paper's change-point
//! response) and, for BMBP, in a sorted order-statistic index (so that the
//! order statistics at the heart of BMBP are cheap at prediction time).
//!
//! The two views are stored apart. The arrival order is a plain
//! `VecDeque<f64>` **log** owned by whoever holds the predictor; a
//! predictor retains the newest `len` waits of it and is handed the log
//! whenever it must read them (a trim, a capacity eviction, calibration).
//! That is what lets a serve partition keep one log for both of its
//! predictors — their histories are suffixes of one arrival stream — while
//! a standalone predictor owns one.
//!
//! A caller drives a [`SortedHistory`] and its log together: it calls
//! [`SortedHistory::push`] with the log as it stands, then
//! [`push_retaining`] the same wait with the history's new length, so the
//! log drops exactly the wait the history evicted.

use crate::rank_index::RankIndex;
use std::collections::VecDeque;

/// The newest `n` waits of `log`, oldest first.
///
/// # Panics
///
/// Panics if `log` holds fewer than `n` waits.
pub(crate) fn newest(log: &VecDeque<f64>, n: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
    log.range(log.len() - n..).copied()
}

/// Drops the oldest waits of `log` until at most `keep` remain.
#[inline]
pub(crate) fn retain_newest(log: &mut VecDeque<f64>, keep: usize) {
    let excess = log.len().saturating_sub(keep);
    if excess > 0 {
        log.drain(..excess);
    }
}

/// Appends `wait` to `log`, first dropping the oldest waits so that `log`
/// ends at most `keep` long — dropping before pushing, so a log at its
/// length never grows its buffer to take one more.
#[inline]
pub fn push_retaining(log: &mut VecDeque<f64>, wait: f64, keep: usize) {
    retain_newest(log, keep.saturating_sub(1));
    log.push_back(wait);
}

/// The sorted view of the newest [`len`](Self::len) waits of an arrival
/// log held elsewhere, with an optional cap on that length.
///
/// The view is a [`RankIndex`] — a chunked sorted list — so inserts and
/// capacity evictions cost `O(log n)` block lookup plus a bounded memmove,
/// and the `k`-th order statistic costs `O(√n)`, instead of the `O(n)`
/// memmove per insert of a flat sorted `Vec`. Trimming to the most recent
/// `k` observations rebuilds the index in `O(k log k)`, which is fine
/// because change points are rare.
///
/// Every method that must know *which* waits are the oldest takes the log:
/// its newest `len()` waits are this history, in arrival order.
#[derive(Debug, Clone, Default)]
pub struct SortedHistory {
    sorted: RankIndex,
    max_len: Option<usize>,
}

impl SortedHistory {
    /// Creates an empty, unbounded history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a history that retains at most `max_len` most recent
    /// observations, evicting the oldest on overflow.
    ///
    /// # Panics
    ///
    /// Panics if `max_len` is zero.
    pub fn with_max_len(max_len: usize) -> Self {
        assert!(max_len > 0, "max_len must be positive");
        Self { sorted: RankIndex::new(), max_len: Some(max_len) }
    }

    /// Number of retained observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the history holds no observations.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Accounts for `wait`, which the caller appends to `log` next (`log`
    /// does not hold it yet). Returns the observation evicted to respect
    /// `max_len`, if any — the oldest retained wait, read from `log`; the
    /// caller's log should then drop it too.
    ///
    /// # Panics
    ///
    /// Panics if `wait` is negative or not finite — queue waits are
    /// non-negative by construction, so such a value indicates a caller bug.
    pub fn push(&mut self, log: &VecDeque<f64>, wait: f64) -> Option<f64> {
        assert!(
            wait.is_finite() && wait >= 0.0,
            "wait must be finite and non-negative, got {wait}"
        );
        let mut evicted = None;
        if self.max_len == Some(self.len()) {
            let old = log[log.len() - self.len()];
            let removed = self.sorted.remove_one(old);
            debug_assert!(removed, "evicted value must exist in sorted view");
            evicted = Some(old);
        }
        self.sorted.insert(wait);
        evicted
    }

    /// Replaces the contents with `waits` (arrival order, oldest first) in
    /// bulk: one sort ([`RankIndex::rebuild`]) instead of `waits.len()`
    /// single inserts, leaving the view exactly as pushing each wait in
    /// turn would.
    ///
    /// # Panics
    ///
    /// Panics if any wait is negative or not finite, or if `waits` is
    /// longer than `max_len` admits.
    pub fn load(&mut self, waits: &[f64]) {
        assert!(
            waits.iter().all(|w| w.is_finite() && *w >= 0.0),
            "waits must be finite and non-negative"
        );
        assert!(
            self.max_len.is_none_or(|cap| waits.len() <= cap),
            "{} waits exceed max_len {:?}",
            waits.len(),
            self.max_len
        );
        self.sorted.rebuild(waits.iter().copied());
    }

    /// Discards all but the most recent `keep` observations, which are the
    /// newest `keep` of `log`.
    ///
    /// Keeping more than the current length is a no-op.
    pub fn trim_to_recent(&mut self, log: &VecDeque<f64>, keep: usize) {
        if keep < self.len() {
            self.sorted.rebuild(newest(log, keep));
        }
    }

    /// Removes every observation.
    pub fn clear(&mut self) {
        self.sorted.clear();
    }

    /// The underlying order-statistic index.
    pub fn rank_index(&self) -> &RankIndex {
        &self.sorted
    }

    /// Copies the observations into an ascending `Vec` — `O(n)`; prefer
    /// [`SortedHistory::order_statistic`] for point queries.
    pub fn sorted_vec(&self) -> Vec<f64> {
        self.sorted.to_vec()
    }

    /// The `k`-th order statistic, 1-indexed (so `order_statistic(1)` is the
    /// minimum). `O(√n)`.
    ///
    /// Returns `None` if `k` is zero or exceeds the current length.
    pub fn order_statistic(&self, k: usize) -> Option<f64> {
        if k == 0 {
            return None;
        }
        self.sorted.select(k - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_view_tracks_inserts() {
        let (mut h, mut log) = (SortedHistory::new(), VecDeque::new());
        for w in [5.0, 1.0, 3.0, 3.0, 9.0, 0.0] {
            h.push(&log, w);
            push_retaining(&mut log, w, h.len());
        }
        assert_eq!(h.sorted_vec(), vec![0.0, 1.0, 3.0, 3.0, 5.0, 9.0]);
        assert_eq!(h.len(), 6);
        assert_eq!(h.order_statistic(1), Some(0.0));
        assert_eq!(h.order_statistic(6), Some(9.0));
        assert_eq!(h.order_statistic(7), None);
        assert_eq!(h.order_statistic(0), None);
    }

    #[test]
    fn arrival_order_preserved() {
        let (mut h, mut log) = (SortedHistory::new(), VecDeque::new());
        for w in [5.0, 1.0, 3.0] {
            h.push(&log, w);
            push_retaining(&mut log, w, h.len());
        }
        assert_eq!(newest(&log, h.len()).collect::<Vec<_>>(), vec![5.0, 1.0, 3.0]);
        assert_eq!(log.back(), Some(&3.0));
    }

    #[test]
    fn trim_keeps_most_recent() {
        let (mut h, mut log) = (SortedHistory::new(), VecDeque::new());
        for w in (0..100).map(f64::from) {
            h.push(&log, w);
            push_retaining(&mut log, w, h.len());
        }
        h.trim_to_recent(&log, 10);
        retain_newest(&mut log, h.len());
        assert_eq!(h.len(), 10);
        assert_eq!(log[0], 90.0);
        assert_eq!(h.sorted_vec()[0], 90.0);
        assert_eq!(h.sorted_vec()[9], 99.0);
        // Trimming to more than len is a no-op.
        h.trim_to_recent(&log, 1000);
        assert_eq!(h.len(), 10);
    }

    #[test]
    fn load_matches_pushing_each_wait() {
        // Across the RankIndex block threshold, with ties whose bits differ.
        let waits: Vec<f64> = (0..3000u64)
            .map(|i| match i % 7 {
                0 => 0.0,
                3 => -0.0,
                _ => (i.wrapping_mul(2_654_435_761) % 500) as f64,
            })
            .collect();
        let (mut pushed, mut log) = (SortedHistory::new(), VecDeque::new());
        for &w in &waits {
            pushed.push(&log, w);
            push_retaining(&mut log, w, pushed.len());
        }
        let mut loaded = SortedHistory::with_max_len(3000);
        loaded.push(&VecDeque::new(), 9.0); // load replaces, it does not append
        loaded.load(&waits);
        loaded.rank_index().check_invariants();
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(loaded.sorted_vec()), bits(pushed.sorted_vec()));
    }

    #[test]
    #[should_panic(expected = "exceed max_len")]
    fn load_respects_max_len() {
        SortedHistory::with_max_len(2).load(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let (mut h, mut log) = (SortedHistory::with_max_len(3), VecDeque::new());
        for (w, evicted) in [(10.0, None), (20.0, None), (30.0, None), (40.0, Some(10.0))] {
            assert_eq!(h.push(&log, w), evicted, "push {w}");
            push_retaining(&mut log, w, h.len());
        }
        assert_eq!(h.len(), 3);
        assert_eq!(log, [20.0, 30.0, 40.0]);
        assert_eq!(h.sorted_vec(), vec![20.0, 30.0, 40.0]);
    }

    #[test]
    fn capacity_eviction_with_duplicates() {
        let (mut h, mut log) = (SortedHistory::with_max_len(2), VecDeque::new());
        for w in [7.0, 7.0] {
            h.push(&log, w);
            push_retaining(&mut log, w, h.len());
        }
        assert_eq!(h.push(&log, 7.0), Some(7.0));
        assert_eq!(h.sorted_vec(), vec![7.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_wait() {
        SortedHistory::new().push(&VecDeque::new(), -1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_nan_wait() {
        SortedHistory::new().push(&VecDeque::new(), f64::NAN);
    }

    #[test]
    fn clear_empties_the_sorted_view() {
        let (mut h, mut log) = (SortedHistory::new(), VecDeque::new());
        for w in [1.0, 2.0] {
            h.push(&log, w);
            push_retaining(&mut log, w, h.len());
        }
        h.clear();
        assert!(h.is_empty());
        assert!(h.sorted_vec().is_empty());
        assert_eq!(h.order_statistic(1), None);
    }

    #[test]
    fn large_history_order_statistics_stay_consistent() {
        // Cross the RankIndex block-split threshold several times.
        let (mut h, mut log) = (SortedHistory::new(), VecDeque::new());
        for i in 0..5000u64 {
            let w = (i.wrapping_mul(2_654_435_761) % 100_000) as f64;
            h.push(&log, w);
            push_retaining(&mut log, w, h.len());
        }
        h.rank_index().check_invariants();
        let sorted = h.sorted_vec();
        for k in [1usize, 100, 2500, 5000] {
            assert_eq!(h.order_statistic(k), Some(sorted[k - 1]));
        }
    }
}
