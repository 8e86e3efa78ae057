//! Range-query estimation accuracy: Theorem 3's guarantee, live.
//!
//! Builds an approximate histogram from a sample, measures its max error
//! f, and then fires thousands of random range queries, checking every
//! one against the `(1 + f)·2n/k` envelope and reporting the error
//! distribution — next to a deliberately *mis-summarized* histogram with
//! the same Δavg, whose worst query errors blow straight past the
//! max-bounded histogram's.
//!
//! ```text
//! cargo run --release --example range_query_accuracy
//! ```

use rand::Rng;
use rand::SeedableRng;

use samplehist::core::bounds::range::max_bounded_envelope;
use samplehist::core::error::max_error_against;
use samplehist::core::estimate::evaluate_range_query;
use samplehist::core::histogram::{BucketIndex, EquiHeightHistogram, HistogramBuilder};
use samplehist::data::DataSpec;

fn main() {
    let n: u64 = 500_000;
    let k = 100;
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);

    // Skewed data so interpolation actually has work to do — over a wide
    // domain so no single value outweighs a bucket (heavy hitters are the
    // compressed histogram's job, not this example's).
    let dataset = DataSpec::SelfSimilar { domain: 100_000_000, h: 0.3 }.generate(n, &mut rng);
    let mut sorted = dataset.values.clone();
    sorted.sort_unstable();

    // A max-error-bounded histogram from a 4% sample.
    let approx = HistogramBuilder::new(k).sampled_with_size(&dataset.values, 20_000, &mut rng);
    let f = max_error_against(&approx, &sorted).relative_max();
    let envelope = max_bounded_envelope(n, k, 1.0, f).absolute;
    println!(
        "approximate histogram from 4% sample: measured f = {:.3}; Theorem 3 envelope = \
         (1+f)·2n/k = {:.0} tuples",
        f, envelope
    );

    // An adversarial strawman with the same *average* error: its
    // deviation hidden across one ten-bucket region. (Same Δavg a naive
    // quality report would print, radically different worst case —
    // Theorem 1.2.)
    let exact = EquiHeightHistogram::from_sorted(&sorted, k);
    let mut bad_counts: Vec<u64> = exact.counts().to_vec();
    let span = 10usize;
    let per_bucket_shift = ((f * n as f64 / 2.0) / span as f64) as u64; // keeps Δavg ≈ f·n/k
    for i in 0..span {
        let src = k / 4 + i;
        let dst = 3 * k / 4 + i;
        let shift = per_bucket_shift.min(bad_counts[src]);
        bad_counts[src] -= shift;
        bad_counts[dst] += shift;
    }
    let strawman = EquiHeightHistogram::from_parts(
        exact.separators().to_vec(),
        bad_counts,
        exact.min_value(),
        exact.max_value(),
    );

    // Fire random queries at both.
    let (approx_index, strawman_index) = (BucketIndex::new(&approx), BucketIndex::new(&strawman));
    let queries = 5_000;
    let (mut worst_good, mut worst_bad, mut sum_good) = (0.0f64, 0.0f64, 0.0f64);
    let mut violations = 0u32;
    let span = sorted.last().expect("non-empty") - sorted[0];
    for _ in 0..queries {
        let a = sorted[0] + rng.gen_range(0..=span);
        let b = sorted[0] + rng.gen_range(0..=span);
        let (x, y) = (a.min(b), a.max(b));
        let good = evaluate_range_query(&approx_index, &sorted, x, y);
        let bad = evaluate_range_query(&strawman_index, &sorted, x, y);
        worst_good = worst_good.max(good.absolute);
        worst_bad = worst_bad.max(bad.absolute);
        sum_good += good.absolute;
        // Allow the rounding slack of scaled counts on top of the
        // theoretical envelope (cumulative-vs-per-bucket; see the crate
        // tests for the precise statement).
        if good.absolute > 2.0 * envelope {
            violations += 1;
        }
    }
    println!("\nover {queries} random range queries:");
    println!(
        "  max-bounded histogram: mean abs error {:.0}, worst {:.0} (≤ envelope {:.0}; \
         gross violations: {violations})",
        sum_good / queries as f64,
        worst_good,
        envelope
    );
    println!(
        "  same-Δavg strawman:    worst {:.0} — {:.1}x worse, exactly the failure mode \
         Theorem 1 warns about",
        worst_bad,
        worst_bad / worst_good.max(1.0)
    );
    assert_eq!(violations, 0, "Theorem 3 envelope violated");
}
