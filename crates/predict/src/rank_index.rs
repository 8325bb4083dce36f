//! Chunked order-statistic index over a multiset of `f64` samples.
//!
//! [`RankIndex`] stores values in a sequence of sorted blocks of bounded
//! size, giving `O(log n + √n)` insert and remove (binary search to find the
//! block, memmove within one block only) and `O(√n)` selection of the k-th
//! smallest element — versus the `O(n)` memmove per insert of a single
//! sorted `Vec`. It exists to back BMBP's
//! [`SortedHistory`](crate::history::SortedHistory), whose per-job cost
//! dominates million-job trace replays.
//!
//! Values must not be NaN (enforced by debug assertions); `SortedHistory`
//! validates before inserting.
//!
//! # Examples
//!
//! ```
//! use qdelay_predict::rank_index::RankIndex;
//!
//! let mut idx = RankIndex::new();
//! for w in [30.0, 5.0, 120.0, 5.0] {
//!     idx.insert(w);
//! }
//! assert_eq!(idx.len(), 4);
//! assert_eq!(idx.select(0), Some(5.0));   // minimum
//! assert_eq!(idx.select(3), Some(120.0)); // maximum
//! assert!(idx.remove_one(5.0));
//! assert_eq!(idx.to_vec(), vec![5.0, 30.0, 120.0]);
//! ```

/// Target block size. Splits happen at `2 * BLOCK_CAP`, so blocks hold
/// between `BLOCK_CAP / 2` (after a split) and `2 * BLOCK_CAP` elements and
/// a memmove never touches more than `2 * BLOCK_CAP` slots. 512 keeps a
/// block within a few cache lines' worth of pages while the block directory
/// stays small (a 1M-sample history has ~1000 blocks).
const BLOCK_CAP: usize = 512;

/// A multiset of `f64` values supporting sorted-order queries, implemented
/// as a list of sorted blocks.
#[derive(Debug, Clone, Default)]
pub struct RankIndex {
    /// Non-empty sorted blocks; block `i`'s last element <= block `i+1`'s
    /// first element.
    blocks: Vec<Vec<f64>>,
    len: usize,
}

impl RankIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored values (counting duplicates).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every value.
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.len = 0;
    }

    /// Index of the block that should hold `value`: the first block whose
    /// last element is `>= value`, or the final block.
    fn block_for(&self, value: f64) -> usize {
        let i = self
            .blocks
            .partition_point(|b| *b.last().expect("blocks are non-empty") < value);
        i.min(self.blocks.len().saturating_sub(1))
    }

    /// Inserts a value, keeping the multiset ordered.
    ///
    /// Cost: `O(log n)` to locate the block plus a memmove within a single
    /// block (`O(BLOCK_CAP)`).
    pub fn insert(&mut self, value: f64) {
        debug_assert!(!value.is_nan(), "RankIndex does not admit NaN");
        if self.blocks.is_empty() {
            self.blocks.push(vec![value]);
            self.len = 1;
            return;
        }
        let bi = self.block_for(value);
        let block = &mut self.blocks[bi];
        let pos = block.partition_point(|&x| x < value);
        block.insert(pos, value);
        self.len += 1;
        if block.len() >= 2 * BLOCK_CAP {
            let tail = block.split_off(block.len() / 2);
            self.blocks.insert(bi + 1, tail);
        }
    }

    /// Removes one occurrence of `value`, returning whether it was present.
    ///
    /// Equal values are indistinguishable, so any one occurrence may be the
    /// one removed.
    pub fn remove_one(&mut self, value: f64) -> bool {
        if self.blocks.is_empty() {
            return false;
        }
        let bi = self.block_for(value);
        let block = &mut self.blocks[bi];
        let pos = block.partition_point(|&x| x < value);
        if pos >= block.len() || block[pos] != value {
            return false;
        }
        block.remove(pos);
        self.len -= 1;
        if block.is_empty() {
            self.blocks.remove(bi);
        }
        true
    }

    /// The `k`-th smallest value, 0-indexed (`select(0)` is the minimum).
    ///
    /// Cost: `O(n / BLOCK_CAP)` — a walk over the block directory.
    pub fn select(&self, k: usize) -> Option<f64> {
        if k >= self.len {
            return None;
        }
        let mut remaining = k;
        for block in &self.blocks {
            if remaining < block.len() {
                return Some(block[remaining]);
            }
            remaining -= block.len();
        }
        unreachable!("k < len implies some block holds it")
    }

    /// Iterates over the values in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.blocks.iter().flatten().copied()
    }

    /// Copies the values into an ascending `Vec`.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.iter());
        out
    }

    /// Rebuilds the index from an arbitrary iterator of values — one
    /// `O(n log n)` sort instead of `n` single inserts; used after bulk
    /// trims and when a history is loaded from state.
    ///
    /// Equal values keep the order `n` calls to [`RankIndex::insert`] would
    /// leave them in (each insert lands before its equals, so later inputs
    /// come first): the only equal values with different bits are `0.0` and
    /// `-0.0`, and a bulk load must serve the same bits as a replay.
    pub fn rebuild<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        let mut all: Vec<f64> = values.into_iter().collect();
        debug_assert!(all.iter().all(|x| !x.is_nan()));
        all.reverse();
        all.sort_by(|a, b| a.partial_cmp(b).expect("no NaN stored"));
        self.len = all.len();
        self.blocks.clear();
        for chunk in all.chunks(BLOCK_CAP) {
            self.blocks.push(chunk.to_vec());
        }
    }

    /// Internal consistency check, for tests: block ordering, per-block
    /// sortedness, length bookkeeping.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut count = 0;
        let mut prev = f64::NEG_INFINITY;
        for block in &self.blocks {
            assert!(!block.is_empty(), "empty block retained");
            assert!(block.len() < 2 * BLOCK_CAP, "oversized block");
            for &x in block {
                assert!(prev <= x, "out of order: {prev} then {x}");
                prev = x;
            }
            count += block.len();
        }
        assert_eq!(count, self.len, "len bookkeeping drifted");
    }
}

impl FromIterator<f64> for RankIndex {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut idx = Self::new();
        idx.rebuild(iter);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_select_ordered() {
        let mut idx = RankIndex::new();
        for w in [5.0, 1.0, 3.0, 3.0, 9.0, 0.0] {
            idx.insert(w);
        }
        idx.check_invariants();
        assert_eq!(idx.to_vec(), vec![0.0, 1.0, 3.0, 3.0, 5.0, 9.0]);
        assert_eq!(idx.select(0), Some(0.0));
        assert_eq!(idx.select(5), Some(9.0));
        assert_eq!(idx.select(6), None);
    }

    #[test]
    fn remove_handles_duplicates_and_misses() {
        let mut idx: RankIndex = [7.0, 7.0, 2.0].into_iter().collect();
        assert!(idx.remove_one(7.0));
        assert_eq!(idx.to_vec(), vec![2.0, 7.0]);
        assert!(!idx.remove_one(8.0));
        assert!(idx.remove_one(2.0));
        assert!(idx.remove_one(7.0));
        assert!(idx.is_empty());
        assert!(!idx.remove_one(7.0));
        idx.check_invariants();
    }

    #[test]
    fn blocks_split_and_stay_bounded() {
        let mut idx = RankIndex::new();
        // Ascending, descending, and interleaved insertions all stress the
        // split path.
        for i in 0..(6 * BLOCK_CAP) {
            idx.insert(i as f64);
        }
        for i in (0..(6 * BLOCK_CAP)).rev() {
            idx.insert(i as f64 + 0.5);
        }
        idx.check_invariants();
        assert_eq!(idx.len(), 12 * BLOCK_CAP);
        assert_eq!(idx.select(0), Some(0.0));
        assert_eq!(idx.select(1), Some(0.5));
    }

    #[test]
    fn rebuild_from_unsorted() {
        let mut idx = RankIndex::new();
        idx.rebuild((0..2000).rev().map(|i| i as f64));
        idx.check_invariants();
        assert_eq!(idx.len(), 2000);
        assert_eq!(idx.select(1999), Some(1999.0));
    }

    #[test]
    fn rebuild_orders_ties_as_single_inserts_do() {
        // 0.0 and -0.0 compare equal but differ in bits; a bulk load must
        // select the same bits at every rank as a replay of the inserts.
        let values = [0.0, 3.0, -0.0, 0.0, 1.0, -0.0, -0.0, 3.0, 0.0];
        let mut one_by_one = RankIndex::new();
        for v in values {
            one_by_one.insert(v);
        }
        let bulk: RankIndex = values.into_iter().collect();
        bulk.check_invariants();
        let bits = |idx: &RankIndex| idx.iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(&bulk), bits(&one_by_one));
    }

    #[test]
    fn clear_resets() {
        let mut idx: RankIndex = (0..100).map(|i| i as f64).collect();
        idx.clear();
        assert!(idx.is_empty());
        assert_eq!(idx.select(0), None);
        idx.insert(1.0);
        assert_eq!(idx.len(), 1);
    }
}
