//! Cost of the order-statistic index computation itself: exact binomial CDF
//! inversion versus the appendix's CLT approximation, across sample sizes —
//! and the [`BoundIndexCache`] that makes the per-refit cost O(1) when `n`
//! changes by small steps, which is the harness's actual access pattern.
//!
//! Run via `cargo bench -p qdelay-bench --bench bound_index`.

use qdelay_bench::microbench::bench;
use qdelay_predict::bound::{upper_index, BoundIndexCache, BoundMethod, BoundSpec};

fn main() {
    let spec = BoundSpec::paper_default();

    println!("== upper_index: exact inversion vs CLT approximation ==");
    for &n in &[59usize, 1_000, 50_000, 1_000_000] {
        bench(&format!("upper_index/exact/n={n}"), || {
            upper_index(n, spec, BoundMethod::Exact)
        });
        bench(&format!("upper_index/approx/n={n}"), || {
            upper_index(n, spec, BoundMethod::Approx)
        });
    }

    // The harness's access pattern: one query per refit while n grows by a
    // handful of observations between refits. The exact cache carries the
    // last index forward with one O(1) CDF check per intervening n; the auto
    // cache reads its exact region from the process-wide table and the rest
    // from the closed form; computing fresh re-inverts the binomial CDF every
    // time.
    println!("\n== sequential-n sweep (59..=10058), one query per n ==");
    let sweep = 10_000usize;
    for method in [BoundMethod::Exact, BoundMethod::Auto] {
        let tag = match method {
            BoundMethod::Exact => "exact",
            BoundMethod::Approx => "approx",
            BoundMethod::Auto => "auto",
        };
        let cached = bench(&format!("upper_index/cached_sweep/{tag}/{sweep}"), || {
            let mut cache = BoundIndexCache::new(spec, method);
            let mut acc = 0usize;
            for n in 59..59 + sweep {
                acc += cache.upper_index(n).expect("n >= 59");
            }
            acc
        });
        let fresh = bench(&format!("upper_index/fresh_sweep/{tag}/{sweep}"), || {
            let mut acc = 0usize;
            for n in 59..59 + sweep {
                acc += upper_index(n, spec, method).expect("n >= 59");
            }
            acc
        });
        println!(
            "  [{tag}] cache speedup over fresh inversion: {:.1}x ({:.0} ns vs {:.0} ns per query)",
            fresh.ns_per_iter / cached.ns_per_iter,
            fresh.ns_per_iter / sweep as f64,
            cached.ns_per_iter / sweep as f64,
        );
    }

    println!("\n== log-normal comparator's per-refit cost driver ==");
    bench("tolerance_k_factor/exact_n_59", || {
        qdelay_stats::tolerance::one_sided_k_factor(59, 0.95, 0.95)
    });
    bench("tolerance_k_factor/approx_n_100000", || {
        qdelay_stats::tolerance::one_sided_k_factor_approx(100_000, 0.95, 0.95)
    });
}
