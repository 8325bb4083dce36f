//! Processor allocation state for the space-shared machine.
//!
//! A [`Cluster`] tracks how many processors are free and, for every running
//! job, when the *scheduler believes* it will finish (the user estimate).
//! Backfill reservations are computed from those estimated finishes — using
//! true runtimes would be an information leak the real systems don't have.

use std::collections::HashMap;

/// Allocation bookkeeping for one machine.
#[derive(Debug, Clone)]
pub struct Cluster {
    capacity: u32,
    free: u32,
    /// job id -> (estimated finish time, procs)
    running: HashMap<u64, (u64, u32)>,
}

impl Cluster {
    /// Creates an idle cluster.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            free: capacity,
            running: HashMap::new(),
        }
    }

    /// Total processors.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Currently free processors.
    pub fn free(&self) -> u32 {
        self.free
    }

    /// Whether a job of `procs` processors can start right now.
    pub fn fits(&self, procs: u32) -> bool {
        procs <= self.free
    }

    /// Starts a job: dedicates `procs` processors until released.
    ///
    /// # Panics
    ///
    /// Panics if the job does not fit, `procs` is zero, or the id is already
    /// running — all of which indicate scheduler bugs, not recoverable
    /// states.
    pub fn allocate(&mut self, id: u64, procs: u32, est_finish: u64) {
        assert!(procs > 0, "job must request at least one processor");
        assert!(
            self.fits(procs),
            "allocation of {procs} procs exceeds {} free",
            self.free
        );
        let prev = self.running.insert(id, (est_finish, procs));
        assert!(prev.is_none(), "job {id} is already running");
        self.free -= procs;
    }

    /// Finishes a job, returning its processors to the free pool. Returns
    /// the job's `(estimated_finish, procs)` so callers maintaining an
    /// availability profile can retire the matching release point.
    ///
    /// # Panics
    ///
    /// Panics if the id is not running.
    pub fn release(&mut self, id: u64) -> (u64, u32) {
        let (est_finish, procs) = self
            .running
            .remove(&id)
            .unwrap_or_else(|| panic!("job {id} is not running"));
        self.free += procs;
        debug_assert!(self.free <= self.capacity);
        (est_finish, procs)
    }

    /// Every running job as `(id, estimated_finish, procs)`, in arbitrary
    /// order — the input for rebuilding an availability profile.
    pub fn running_jobs(&self) -> impl Iterator<Item = (u64, u64, u32)> + '_ {
        self.running.iter().map(|(&id, &(est, procs))| (id, est, procs))
    }

    /// Estimated `(finish_time, procs)` pairs of all running jobs, sorted by
    /// finish time — the input to backfill reservation computations.
    pub fn estimated_releases(&self) -> Vec<(u64, u32)> {
        let mut v: Vec<(u64, u32)> = self.running.values().copied().collect();
        v.sort_unstable();
        v
    }

    /// Earliest time at which at least `procs` processors will be free,
    /// assuming running jobs end at their *estimated* finishes and nothing
    /// new starts. Also returns how many processors will be free then.
    ///
    /// Returns `(now, free)` immediately if the job already fits.
    pub fn earliest_fit(&self, procs: u32, now: u64) -> (u64, u32) {
        if self.fits(procs) {
            return (now, self.free);
        }
        let mut free = self.free;
        for (finish, p) in self.estimated_releases() {
            free += p;
            if free >= procs {
                return (finish.max(now), free);
            }
        }
        // Unreachable for jobs within machine capacity; guard anyway.
        (u64::MAX, self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut c = Cluster::new(100);
        c.allocate(1, 60, 1000);
        assert_eq!(c.free(), 40);
        assert!(c.fits(40));
        assert!(!c.fits(41));
        c.allocate(2, 40, 2000);
        assert_eq!(c.free(), 0);
        assert_eq!(c.release(1), (1000, 60));
        assert_eq!(c.free(), 60);
        assert_eq!(c.running_jobs().collect::<Vec<_>>(), [(2, 2000, 40)]);
        c.release(2);
        assert_eq!(c.free(), 100);
        assert_eq!(c.running_jobs().count(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn over_allocation_panics() {
        let mut c = Cluster::new(10);
        c.allocate(1, 11, 100);
    }

    #[test]
    #[should_panic(expected = "already running")]
    fn duplicate_id_panics() {
        let mut c = Cluster::new(10);
        c.allocate(1, 2, 100);
        c.allocate(1, 2, 200);
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn release_unknown_panics() {
        Cluster::new(10).release(99);
    }

    #[test]
    fn earliest_fit_walks_estimated_releases() {
        let mut c = Cluster::new(100);
        c.allocate(1, 50, 1000);
        c.allocate(2, 30, 500);
        c.allocate(3, 20, 2000);
        // 0 free now; need 60: after t=500 -> 30 free, after t=1000 -> 80.
        let (t, free) = c.earliest_fit(60, 0);
        assert_eq!(t, 1000);
        assert_eq!(free, 80);
        // Need 90: only after everything ends.
        let (t, _) = c.earliest_fit(90, 0);
        assert_eq!(t, 2000);
        // Fits immediately.
        c.release(1);
        let (t, free) = c.earliest_fit(50, 42);
        assert_eq!((t, free), (42, 50));
    }

    #[test]
    fn earliest_fit_respects_now() {
        let mut c = Cluster::new(10);
        c.allocate(1, 10, 100);
        // Release is estimated before `now`: earliest fit is now.
        let (t, _) = c.earliest_fit(5, 500);
        assert_eq!(t, 500);
    }
}
