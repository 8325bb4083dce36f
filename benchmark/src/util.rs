//! Order statistics over latency samples and the batch timer the per-layer
//! ledger is built from.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The `q`-quantile (nearest-rank) of an already sorted slice. Samples are
/// `f64` or, for latencies, `u32` nanoseconds (millions of them are kept).
pub fn quantile_sorted<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

pub fn sorted<T: Copy + PartialOrd>(mut v: Vec<T>) -> Vec<T> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

pub fn median<T: Copy + PartialOrd + Into<f64>>(v: &[T]) -> f64 {
    quantile_sorted(&sorted(v.to_vec()), 0.5)
}

/// `p99` that one machine stall cannot move: the samples, in arrival
/// order, are cut into ten equal consecutive slices and the median of the
/// slices' p99s is reported. Falls back to the plain p99 when a slice
/// would hold fewer than 100 samples.
pub fn sliced_p99<T: Copy + PartialOrd + Into<f64>>(in_order: &[T]) -> f64 {
    const SLICES: usize = 10;
    let per = in_order.len() / SLICES;
    if per < 100 {
        return quantile_sorted(&sorted(in_order.to_vec()), 0.99);
    }
    let p99s: Vec<f64> = in_order
        .chunks_exact(per)
        .take(SLICES)
        .map(|c| quantile_sorted(&sorted(c.to_vec()), 0.99))
        .collect();
    median(&p99s)
}

/// Mean nanoseconds per call of `f` over `inputs`, cycled until roughly
/// `budget` has been spent (at least one full pass). Batch-timed: two clock
/// reads per pass, so a 20 ns layer is not drowned by a 25 ns clock.
pub fn batch_ns<I, R>(inputs: &[I], budget: Duration, mut f: impl FnMut(&I) -> R) -> f64 {
    assert!(!inputs.is_empty(), "batch_ns needs inputs");
    let start = Instant::now();
    let mut calls = 0u64;
    let mut spent = Duration::ZERO;
    while spent < budget {
        let t = Instant::now();
        for i in inputs {
            black_box(f(black_box(i)));
        }
        spent += t.elapsed();
        calls += inputs.len() as u64;
        if start.elapsed() > budget * 4 {
            break;
        }
    }
    spent.as_nanos() as f64 / calls as f64
}

/// SplitMix64 finalizer: derives independent sub-seeds from `(seed, salt)`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the bit patterns of served bounds: changes iff a bound does.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bits: u64) {
        for b in bits.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The low 48 bits, which an `f64` (and so a JSON number) holds exactly.
    pub fn value(self) -> f64 {
        (self.0 & 0xFFFF_FFFF_FFFF) as f64
    }
}
