//! The persistent incremental availability profile for conservative
//! backfill.
//!
//! The seed engine rebuilt a piecewise-constant free-processor profile from
//! scratch on every scheduling event and re-placed every reservation, so a
//! pass over a `W`-deep queue cost O(W·P²) in the profile size `P` and a
//! 128-job reservation cap was needed to keep overloaded queues tolerable —
//! silently changing schedules exactly in the deep-queue tail. This module
//! maintains the profile *across* events instead:
//!
//! * free-processor counts are stored as a delta map keyed by time
//!   (`BTreeMap<u64, i64>`), so a reservation's two edge points insert and
//!   remove in O(log n);
//! * job starts and finishes update `free_now` and a single release point
//!   each, in O(log n);
//! * the earliest-fit scan walks deltas in time order from the query point
//!   and stops at the first window that stays feasible: O(log n + k) for
//!   `k` points examined (reported to the
//!   `batchsim.profile.points_scanned` histogram by the engine).
//!
//! The engine keeps reservations valid across events whenever completions
//! match their estimates; any deviation (early/late finish, priority
//! change, out-of-order arrival) invalidates them and the engine re-places
//! against this same structure — see `engine.rs` for the invalidation
//! rules and DESIGN.md §10 for the complexity table.

use crate::cluster::Cluster;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

/// A reservation held in the profile: `procs` processors over
/// `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// Reserved window start (inclusive).
    pub start: u64,
    /// Reserved window end (exclusive); `u64::MAX` means "forever"
    /// (saturated arithmetic on absurd estimates).
    pub end: u64,
    /// Processors reserved.
    pub procs: u32,
}

#[derive(Debug, Clone, Copy)]
struct RunningRelease {
    /// Current (possibly clamped) profile key of the release point.
    key: u64,
    procs: u32,
}

/// Piecewise-constant free-processor availability over future time,
/// maintained incrementally.
///
/// Invariants (checked by [`AvailabilityProfile::validate`]):
///
/// * every delta key is strictly greater than `now` after
///   [`AvailabilityProfile::advance`];
/// * no delta entry is zero (adjacent segments always differ — removing a
///   reservation coalesces its neighbors back together);
/// * every prefix sum `free_now + Σ deltas` stays within
///   `[0, capacity]`;
/// * releasing every job and removing every reservation restores the
///   empty profile exactly.
#[derive(Debug, Clone)]
pub struct AvailabilityProfile {
    capacity: u32,
    now: u64,
    /// Free processors at the present instant (mirrors `Cluster::free`).
    free_now: u32,
    /// Future changes to the free count: at key `t` the count changes by
    /// the signed value (release: `+procs`; reservation: `-procs` at start,
    /// `+procs` at end).
    deltas: BTreeMap<u64, i64>,
    /// Release key -> ids of running jobs estimated to release then.
    release_times: BTreeMap<u64, Vec<u64>>,
    /// Running job id -> its release point.
    running: HashMap<u64, RunningRelease>,
    /// Waiting job id -> its reservation.
    reservations: HashMap<u64, Reservation>,
    /// Reservation start -> ids reserved to start then (the due-index the
    /// engine uses to find startable jobs in O(log n)).
    res_starts: BTreeMap<u64, Vec<u64>>,
}

impl AvailabilityProfile {
    /// An empty profile for an idle machine of `capacity` processors.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            now: 0,
            free_now: capacity,
            deltas: BTreeMap::new(),
            release_times: BTreeMap::new(),
            running: HashMap::new(),
            reservations: HashMap::new(),
            res_starts: BTreeMap::new(),
        }
    }

    /// Rebuilds the profile from a cluster's running set (used when the
    /// engine regains the conservative policy after another discipline ran
    /// and the profile went stale). Drops all reservations.
    pub fn sync(&mut self, cluster: &Cluster, now: u64) {
        self.deltas.clear();
        self.release_times.clear();
        self.running.clear();
        self.reservations.clear();
        self.res_starts.clear();
        self.capacity = cluster.capacity();
        self.free_now = cluster.free();
        self.now = now;
        for (id, est_finish, procs) in cluster.running_jobs() {
            let key = est_finish.max(now + 1);
            *self.deltas.entry(key).or_insert(0) += i64::from(procs);
            self.release_times.entry(key).or_default().push(id);
            self.running.insert(id, RunningRelease { key, procs });
        }
    }

    /// Total processors.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Free processors at the present instant.
    pub fn free_now(&self) -> u32 {
        self.free_now
    }

    /// The present instant (last `advance` time).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of change points currently stored.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Whether the profile holds no future change points.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// The reservation held for `id`, if any.
    pub fn reservation(&self, id: u64) -> Option<Reservation> {
        self.reservations.get(&id).copied()
    }

    /// Ids of jobs whose reservation start is at or before `now`.
    pub fn reservations_due(&self, now: u64) -> Vec<u64> {
        self.res_starts
            .range(..=now)
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect()
    }

    /// Moves the clock to `now`, clamping overdue release points (jobs
    /// whose estimate has passed but whose finish event has not fired) to
    /// `now + 1`: their processors must not be counted free at the present
    /// instant. Returns `true` if any point moved — held reservations were
    /// computed against the old profile and must be re-placed.
    pub fn advance(&mut self, now: u64) -> bool {
        self.now = now;
        let mut shifted = false;
        while let Some((&t, _)) = self.release_times.range(..=now).next() {
            shifted = true;
            let ids = self.release_times.remove(&t).expect("key just observed");
            for id in &ids {
                let procs = {
                    let entry = self.running.get_mut(id).expect("release is running");
                    entry.key = now + 1;
                    entry.procs
                };
                self.sub_delta(t, i64::from(procs));
                self.add_delta(now + 1, i64::from(procs));
            }
            self.release_times.entry(now + 1).or_default().extend(ids);
        }
        shifted
    }

    /// Records a job start: `procs` leave the free pool now, returning at
    /// `est_finish` (clamped past the present instant like every release).
    ///
    /// # Panics
    ///
    /// Panics if the id already has a release point or the free count would
    /// go negative.
    pub fn on_allocate(&mut self, id: u64, procs: u32, est_finish: u64, now: u64) {
        assert!(
            self.free_now >= procs,
            "profile allocation of {procs} exceeds {} free",
            self.free_now
        );
        self.free_now -= procs;
        let key = est_finish.max(now + 1);
        self.add_delta(key, i64::from(procs));
        self.release_times.entry(key).or_default().push(id);
        let prev = self.running.insert(id, RunningRelease { key, procs });
        assert!(prev.is_none(), "job {id} already has a release point");
    }

    /// Records a job finish at `now`: its release point is removed and its
    /// processors are free immediately. Returns `true` if the completion
    /// deviated from the profile's belief (the release point was not at
    /// exactly `now`) — held reservations assumed the old release time and
    /// must be re-placed.
    ///
    /// # Panics
    ///
    /// Panics if the id has no release point.
    pub fn on_release(&mut self, id: u64, now: u64) -> bool {
        let entry = self
            .running
            .remove(&id)
            .unwrap_or_else(|| panic!("job {id} has no release point"));
        self.sub_delta(entry.key, i64::from(entry.procs));
        let ids = self
            .release_times
            .get_mut(&entry.key)
            .expect("release key indexed");
        ids.retain(|&x| x != id);
        if ids.is_empty() {
            self.release_times.remove(&entry.key);
        }
        self.free_now += entry.procs;
        debug_assert!(self.free_now <= self.capacity);
        entry.key != now
    }

    /// Inserts a reservation of `procs` over `[start, start + duration)`.
    ///
    /// # Panics
    ///
    /// Panics if the id already holds a reservation.
    pub fn reserve(&mut self, id: u64, procs: u32, start: u64, duration: u64) {
        let end = start.saturating_add(duration);
        self.sub_delta(start, i64::from(procs));
        if end != u64::MAX {
            self.add_delta(end, i64::from(procs));
        }
        self.res_starts.entry(start).or_default().push(id);
        let prev = self.reservations.insert(id, Reservation { start, end, procs });
        assert!(prev.is_none(), "job {id} is already reserved");
    }

    /// Removes a reservation, coalescing its edge points away. Returns the
    /// removed reservation, or `None` if the id held none.
    pub fn unreserve(&mut self, id: u64) -> Option<Reservation> {
        let res = self.reservations.remove(&id)?;
        self.add_delta(res.start, i64::from(res.procs));
        if res.end != u64::MAX {
            self.sub_delta(res.end, i64::from(res.procs));
        }
        let ids = self
            .res_starts
            .get_mut(&res.start)
            .expect("reservation start indexed");
        ids.retain(|&x| x != id);
        if ids.is_empty() {
            self.res_starts.remove(&res.start);
        }
        Some(res)
    }

    /// Drops every reservation (release points stay). Used when held
    /// reservations are invalidated and the engine re-places from scratch.
    pub fn clear_reservations(&mut self) {
        let ids: Vec<u64> = self.reservations.keys().copied().collect();
        for id in ids {
            self.unreserve(id);
        }
        debug_assert!(self.res_starts.is_empty());
    }

    /// Earliest `t >= from` such that `procs` stay free throughout
    /// `[t, t + duration)`, plus the number of change points examined.
    /// Returns `(u64::MAX, scanned)` if no window exists (only possible
    /// when saturated "forever" reservations block the tail).
    pub fn earliest_fit(&self, procs: u32, duration: u64, from: u64) -> (u64, u64) {
        let need = i64::from(procs);
        let mut free = i64::from(self.free_now);
        for (_, d) in self.deltas.range(..=from) {
            free += d;
        }
        let mut anchor = from;
        let mut ok = free >= need;
        let mut scanned = 0u64;
        for (&t, &d) in self.deltas.range((Bound::Excluded(from), Bound::Unbounded)) {
            scanned += 1;
            if ok && t >= anchor.saturating_add(duration) {
                return (anchor, scanned);
            }
            free += d;
            if free >= need {
                if !ok {
                    anchor = t;
                    ok = true;
                }
            } else {
                ok = false;
            }
        }
        if ok {
            (anchor, scanned)
        } else {
            (u64::MAX, scanned)
        }
    }

    /// The absolute profile as `(time, free_from_then_on)` points, starting
    /// with `(now, free_now)`. Strictly increasing times; adjacent counts
    /// always differ (a test/inspection view — O(n)).
    pub fn points(&self) -> Vec<(u64, u32)> {
        let mut v = vec![(self.now, self.free_now)];
        let mut free = i64::from(self.free_now);
        for (&t, &d) in &self.deltas {
            free += d;
            debug_assert!(free >= 0 && free <= i64::from(self.capacity));
            v.push((t, free as u32));
        }
        v
    }

    /// Checks every structural invariant, returning a description of the
    /// first violation. Used by the property-test battery.
    pub fn validate(&self) -> Result<(), String> {
        let mut free = i64::from(self.free_now);
        if free < 0 || free > i64::from(self.capacity) {
            return Err(format!("free_now {free} outside [0, {}]", self.capacity));
        }
        for (&t, &d) in &self.deltas {
            if d == 0 {
                return Err(format!("zero delta retained at t={t} (coalescing broken)"));
            }
            free += d;
            if free < 0 || free > i64::from(self.capacity) {
                return Err(format!(
                    "free count {free} at t={t} outside [0, {}]",
                    self.capacity
                ));
            }
        }
        let running_procs: i64 = self.running.values().map(|r| i64::from(r.procs)).sum();
        if running_procs + i64::from(self.free_now) != i64::from(self.capacity) {
            return Err(format!(
                "running procs {running_procs} + free {} != capacity {}",
                self.free_now, self.capacity
            ));
        }
        // Rebuild the delta map from bookkeeping and compare exactly.
        let mut expect: BTreeMap<u64, i64> = BTreeMap::new();
        for r in self.running.values() {
            *expect.entry(r.key).or_insert(0) += i64::from(r.procs);
        }
        for res in self.reservations.values() {
            *expect.entry(res.start).or_insert(0) -= i64::from(res.procs);
            if res.end != u64::MAX {
                *expect.entry(res.end).or_insert(0) += i64::from(res.procs);
            }
        }
        expect.retain(|_, d| *d != 0);
        if expect != self.deltas {
            return Err("delta map disagrees with release/reservation bookkeeping".into());
        }
        Ok(())
    }

    fn add_delta(&mut self, t: u64, d: i64) {
        debug_assert!(d > 0);
        let e = self.deltas.entry(t).or_insert(0);
        *e += d;
        if *e == 0 {
            self.deltas.remove(&t);
        }
    }

    fn sub_delta(&mut self, t: u64, d: i64) {
        debug_assert!(d > 0);
        let e = self.deltas.entry(t).or_insert(0);
        *e -= d;
        if *e == 0 {
            self.deltas.remove(&t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profile_fits_immediately() {
        let p = AvailabilityProfile::new(16);
        let (t, scanned) = p.earliest_fit(16, 1000, 0);
        assert_eq!((t, scanned), (0, 0));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn allocate_release_roundtrip_restores_empty() {
        let mut p = AvailabilityProfile::new(10);
        p.on_allocate(1, 6, 100, 0);
        p.on_allocate(2, 4, 200, 0);
        assert_eq!(p.free_now(), 0);
        assert_eq!(p.len(), 2);
        assert!(p.validate().is_ok());
        assert!(!p.on_release(1, 100), "on-time: key == now");
        assert_eq!(p.free_now(), 6);
        p.on_release(2, 200);
        assert_eq!(p.free_now(), 10);
        assert!(p.is_empty());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn on_time_release_is_clean_early_is_dirty() {
        let mut p = AvailabilityProfile::new(10);
        p.on_allocate(1, 4, 100, 0);
        p.on_allocate(2, 4, 100, 0);
        assert!(!p.on_release(1, 100), "on-time release keeps reservations");
        let mut q = AvailabilityProfile::new(10);
        q.on_allocate(1, 4, 100, 0);
        assert!(q.on_release(1, 40), "early release invalidates");
    }

    #[test]
    fn advance_clamps_overdue_releases_and_reports() {
        let mut p = AvailabilityProfile::new(10);
        p.on_allocate(1, 10, 100, 0);
        assert!(!p.advance(50), "nothing overdue yet");
        assert!(p.advance(150), "overdue release must shift");
        // Processors are not free at the present instant.
        let (t, _) = p.earliest_fit(10, 10, 150);
        assert_eq!(t, 151);
        assert!(p.validate().is_ok());
        // The late job finishing later is a deviation (key is 151, not 160).
        assert!(p.on_release(1, 160));
        assert!(p.is_empty());
    }

    #[test]
    fn reserve_unreserve_coalesces_exactly() {
        let mut p = AvailabilityProfile::new(8);
        p.on_allocate(1, 8, 100, 0);
        p.reserve(10, 8, 100, 50);
        p.reserve(11, 8, 150, 50);
        assert!(p.validate().is_ok());
        // Adjacent reservations: the shared boundary at 150 coalesces away.
        let pts = p.points();
        assert_eq!(pts, vec![(0, 0), (200, 8)]);
        p.unreserve(11);
        assert_eq!(p.points(), vec![(0, 0), (150, 8)]);
        p.unreserve(10);
        assert_eq!(p.points(), vec![(0, 0), (100, 8)]);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn earliest_fit_finds_holes_and_tail() {
        let mut p = AvailabilityProfile::new(10);
        p.on_allocate(1, 8, 1000, 0);
        // 2 free until 1000, then 10.
        let (t, _) = p.earliest_fit(2, 500, 0);
        assert_eq!(t, 0, "small job fits in the hole");
        let (t, _) = p.earliest_fit(10, 100, 0);
        assert_eq!(t, 1000);
        // A reservation plugging the hole pushes the small job out to the
        // release at 1000 (free rises to 8 there even with the reservation
        // still holding 2 procs until 2000).
        p.reserve(2, 2, 0, 2000);
        let (t, _) = p.earliest_fit(2, 500, 0);
        assert_eq!(t, 1000);
        // Saturate the window after the release too: now nothing fits
        // before the reservation ends.
        p.reserve(3, 8, 1000, 1000);
        let (t, _) = p.earliest_fit(2, 500, 0);
        assert_eq!(t, 2000);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn forever_reservation_blocks_tail() {
        let mut p = AvailabilityProfile::new(4);
        p.reserve(1, 4, 10, u64::MAX); // end saturates to forever
        let (t, _) = p.earliest_fit(1, 1, 0);
        assert_eq!(t, 0, "window before the forever reservation still fits");
        let (t, _) = p.earliest_fit(1, 20, 0);
        assert_eq!(t, u64::MAX, "no window crossing the forever reservation");
        assert!(p.validate().is_ok());
    }

    #[test]
    fn due_index_tracks_reservation_starts() {
        let mut p = AvailabilityProfile::new(4);
        p.reserve(1, 2, 100, 10);
        p.reserve(2, 2, 100, 10);
        p.reserve(3, 2, 200, 10);
        assert!(p.reservations_due(99).is_empty());
        let mut due = p.reservations_due(100);
        due.sort_unstable();
        assert_eq!(due, vec![1, 2]);
        p.unreserve(1);
        assert_eq!(p.reservations_due(100), vec![2]);
        p.clear_reservations();
        assert!(p.reservations_due(u64::MAX).is_empty());
        assert!(p.is_empty());
    }
}
