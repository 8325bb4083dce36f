//! Descriptive statistics over samples.
//!
//! Used to summarize traces (the paper's Table 1 columns: count, mean,
//! median, standard deviation) and inside the predictors.


/// Arithmetic mean of a sample.
///
/// Returns `None` for an empty sample.
///
/// # Examples
///
/// ```
/// assert_eq!(qdelay_stats::describe::mean(&[1.0, 2.0, 3.0]), Some(2.0));
/// assert_eq!(qdelay_stats::describe::mean(&[]), None);
/// ```
pub fn mean(data: &[f64]) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    Some(data.iter().sum::<f64>() / data.len() as f64)
}

/// Sample variance (divide by `n - 1`).
///
/// Returns `None` for fewer than 2 observations. Uses the two-pass
/// algorithm for numerical stability.
pub fn sample_variance(data: &[f64]) -> Option<f64> {
    if data.len() < 2 {
        return None;
    }
    let m = mean(data)?;
    let ss: f64 = data.iter().map(|&x| (x - m) * (x - m)).sum();
    Some(ss / (data.len() - 1) as f64)
}

/// Sample standard deviation (divide by `n - 1`).
///
/// Returns `None` for fewer than 2 observations.
pub fn sample_std(data: &[f64]) -> Option<f64> {
    sample_variance(data).map(f64::sqrt)
}

/// Empirical quantile with linear interpolation (Hyndman-Fan type 7,
/// the default of R and NumPy).
///
/// Selects on a copy of the data (expected linear time) and returns
/// [`quantile_sorted`] of the sorted data, bit for bit; for repeated
/// queries over the same sample use [`quantile_sorted`] on pre-sorted data.
///
/// Returns `None` for an empty sample.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or `data` holds a NaN.
pub fn quantile(data: &[f64], q: f64) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    assert!((0.0..=1.0).contains(&q), "quantile q must be in [0,1], got {q}");
    if data.len() == 1 {
        return Some(data[0]);
    }
    let (lo, hi, frac) = type7_position(data.len(), q);
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN in quantile input");
    let mut copy = data.to_vec();
    let (_, &mut at_lo, above) = copy.select_nth_unstable_by(lo, cmp);
    // `hi` is `lo` or `lo + 1`; the latter is the least value above `lo`.
    let at_hi = if hi == lo {
        at_lo
    } else {
        *above.iter().min_by(|a, b| cmp(a, b)).expect("hi < n")
    };
    Some(at_lo + (at_hi - at_lo) * frac)
}

/// Empirical quantile (type 7) over data that is already sorted ascending.
///
/// Returns `None` for an empty sample.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile q must be in [0,1], got {q}");
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    if n == 1 {
        return Some(sorted[0]);
    }
    let (lo, hi, frac) = type7_position(n, q);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Where the type-7 `q` quantile of `n >= 2` sorted values lies: the order
/// statistics below and above it, and the weight of the upper one.
fn type7_position(n: usize, q: f64) -> (usize, usize, f64) {
    let h = q * (n - 1) as f64;
    let lo = h.floor() as usize;
    (lo, h.ceil() as usize, h - lo as f64)
}

/// Median (0.5 quantile, type 7).
pub fn median(data: &[f64]) -> Option<f64> {
    quantile(data, 0.5)
}

/// A compact five-number-plus summary of a sample, mirroring the columns of
/// the paper's Table 1.
///
/// # Examples
///
/// ```
/// use qdelay_stats::describe::Summary;
/// let s = Summary::from_sample(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
/// assert_eq!(s.count, 5);
/// assert_eq!(s.median, 3.0);
/// assert!(s.mean > s.median); // heavy right tail
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (type-7 quantile).
    pub median: f64,
    /// Sample standard deviation (n - 1 denominator).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// Returns `None` if the sample has fewer than 2 observations (the
    /// standard deviation would be undefined).
    pub fn from_sample(data: &[f64]) -> Option<Self> {
        if data.len() < 2 {
            return None;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in data {
            min = min.min(x);
            max = max.max(x);
        }
        Some(Self {
            count: data.len(),
            mean: mean(data)?,
            median: median(data)?,
            std_dev: sample_std(data)?,
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let d = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&d), Some(5.0));
        assert!((sample_variance(&d).unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(mean(&[]), None);
        assert_eq!(sample_variance(&[1.0]), None);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
    }

    #[test]
    fn quantile_type7_matches_r() {
        // R: quantile(1:10, c(.25,.5,.75,.95)) -> 3.25 5.50 7.75 9.55
        let d: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert!((quantile(&d, 0.25).unwrap() - 3.25).abs() < 1e-12);
        assert!((quantile(&d, 0.5).unwrap() - 5.5).abs() < 1e-12);
        assert!((quantile(&d, 0.75).unwrap() - 7.75).abs() < 1e-12);
        assert!((quantile(&d, 0.95).unwrap() - 9.55).abs() < 1e-12);
        assert_eq!(quantile(&d, 0.0), Some(1.0));
        assert_eq!(quantile(&d, 1.0), Some(10.0));
    }

    /// Selection against the sort it replaces, bit for bit: n = 1 and 2,
    /// odd and even n, runs of duplicates, and zeros of both signs.
    #[test]
    fn quantile_equals_quantile_sorted_bit_for_bit() {
        let samples: [&[f64]; 8] = [
            &[4.5],
            &[3.0, -1.0],
            &[0.0, 0.0],
            &[9.0, 1.0, 5.0, 3.0, 7.0],
            &[2.0, 8.0, 2.0, 6.0, 2.0, 0.0],
            &[0.0, -0.0, 0.0, 1e-300, 0.0, -0.0, 7.5],
            &[5.0; 9],
            &[1.0, 1.0, 3.0, 3.0, 3.0, 2.0, 2.0, 0.0, 0.0, 1e9],
        ];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut random = Vec::new();
        for _ in 0..301 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            random.push((state % 17) as f64 * 0.25);
        }
        let qs = [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0, 1.0 / 3.0];
        for data in samples.iter().copied().chain([&random[..], &random[..300]]) {
            let mut sorted = data.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for q in qs {
                let want = quantile_sorted(&sorted, q).map(f64::to_bits);
                let got = quantile(data, q).map(f64::to_bits);
                assert_eq!(got, want, "q {q} over {data:?}");
            }
        }
    }

    #[test]
    fn quantile_unsorted_input() {
        let d = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(quantile(&d, 0.5), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn quantile_rejects_out_of_range() {
        quantile(&[1.0, 2.0], 1.5);
    }

    #[test]
    fn summary_min_max() {
        let s = Summary::from_sample(&[3.0, -1.0, 4.0, 1.0, 5.0]).unwrap();
        assert_eq!(s.min, -1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.count, 5);
    }
}
