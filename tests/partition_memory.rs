//! A resident partition's heap, counted by the allocator.
//!
//! The resident set of `qdelay serve` grows with the waits its partitions
//! hold, so the bytes a partition spends per stored wait are what bounds
//! how many partitions fit in memory. A partition keeps one arrival log
//! shared by its two predictors, plus BMBP's sorted view: two `f64` arrays
//! per stored wait, where three (a second and third arrival deque) cost
//! half as much again.
//!
//! Figures for the two pins below, from the tree that still kept three
//! arrays (each predictor's own deque beside BMBP's sorted view) and from
//! this one: one partition after 256 feedback-free observes held 6,240 B
//! (three arrays grown to capacity 256, 6,144 B of them) and now holds
//! 4,192 B; 1,024 partitions after 180 rounds of predict-then-observe
//! averaged 6,239 B at 180 stored waits each and now average 4,192 B.
//!
//! The counting allocator keeps a per-thread running net of bytes
//! allocated, so the tests of this file may run in parallel.

use qdelay::serve::registry::Partition;
use qdelay_rng::{Rng, StdRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Net bytes this thread has allocated and not yet freed. A `const`
    /// `Cell` needs no lazy initialisation and no destructor, so reading it
    /// from inside the allocator allocates nothing.
    static NET: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    let _ = NET.try_with(|net| net.set(net.get() + delta));
}

// SAFETY: every method forwards to `System` unchanged and only adds
// bookkeeping on a thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn net() -> isize {
    NET.with(Cell::get)
}

/// Builds and drives one throwaway partition, so that whatever the
/// predictors initialise once per process (the miss-threshold table, the
/// K′ table) is not counted as a partition's own.
fn warm_up() {
    let mut p = Partition::new();
    for i in 0..300 {
        let served = p.predict();
        p.observe(f64::from(i % 37), served.bmbp, served.lognormal);
    }
}

#[test]
fn one_partition_holds_two_arrays_of_its_waits() {
    const WAITS: usize = 256;
    warm_up();
    let waits: Vec<f64> = (0..WAITS).map(|i| ((i * 7919) % 1000) as f64).collect();
    let before = net();
    let mut p = Partition::new();
    for &w in &waits {
        p.observe(w, None, None);
    }
    let held = net() - before;
    assert_eq!(p.stored_waits(), WAITS, "no feedback, so no trim");
    let limit = (2 * 8 * WAITS + 512) as isize;
    assert!(held <= limit, "one partition with {WAITS} waits holds {held} B (limit {limit} B)");
    drop(p);
}

#[test]
fn a_thousand_partitions_on_the_paper_loop_average_under_4_5_kib() {
    const PARTITIONS: usize = 1024;
    const ROUNDS: usize = 180;
    warm_up();
    // One wait level per partition and exponential draws around it; the
    // served bounds are fed back, as on the paper's loop.
    let mut rng = StdRng::seed_from_u64(0x6d65_6d6f);
    let levels: Vec<f64> = (0..PARTITIONS).map(|_| 10.0 + 5_000.0 * rng.gen_f64()).collect();
    let draws: Vec<f64> = (0..PARTITIONS * ROUNDS)
        .map(|i| (levels[i % PARTITIONS] * -rng.gen_f64_open().ln()).floor())
        .collect();

    let before = net();
    let mut parts: Vec<Partition> = Vec::with_capacity(PARTITIONS);
    parts.resize_with(PARTITIONS, Partition::new);
    let vec_bytes = (PARTITIONS * std::mem::size_of::<Partition>()) as isize;
    for round in 0..ROUNDS {
        for (i, p) in parts.iter_mut().enumerate() {
            let served = p.predict();
            p.observe(draws[round * PARTITIONS + i], served.bmbp, served.lognormal);
        }
    }
    let heap = net() - before - vec_bytes;
    let stored: usize = parts.iter().map(Partition::stored_waits).sum();
    let average = heap as f64 / PARTITIONS as f64;
    assert!(
        stored >= PARTITIONS * ROUNDS * 9 / 10,
        "few trims expected: {stored} waits stored"
    );
    assert!(
        average < 4.5 * 1024.0,
        "{PARTITIONS} partitions average {average:.0} B of heap at {:.1} stored waits",
        stored as f64 / PARTITIONS as f64
    );
}
