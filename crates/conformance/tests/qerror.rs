//! Sample size vs. observed q-error: the telemetry plane's accuracy
//! metric must respect the paper's central relationship.
//!
//! Corollary 1 says a larger sample (smaller `f`) yields a histogram
//! with smaller relative error. The serve-time counterpart: **observed
//! q-error quantiles shrink (or at worst hold) as the sample grows**.
//! This experiment builds histograms from Corollary-1 sample sizes at a
//! loose and a tight error target over a Zipf(1) population, routes a
//! fixed probe workload through the batched serve-time kernels
//! ([`BucketIndex::estimate_range_batch`] /
//! [`BucketIndex::estimate_eq_batch`] — the
//! same entry points production estimation uses), folds every q-error
//! into the telemetry [`QuantileSketch`], and compares the per-trial p95
//! averaged across seeded trials.
//!
//! Run at smoke counts (default) or in full:
//! `SAMPLEHIST_CONFORMANCE_TRIALS=full cargo test -p samplehist-conformance`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use samplehist_conformance::trials;
use samplehist_core::bounds::corollary1_sample_size;
use samplehist_core::histogram::{count_le, count_lt, BucketIndex, EquiHeightHistogram};
use samplehist_core::sampling::with_replacement;
use samplehist_data::Zipf;
use samplehist_engine::qerror;
use samplehist_obs::QuantileSketch;

const DOMAIN: usize = 2_000;
const N: u64 = 200_000;
const K: usize = 20;

/// The fixed probe workload: closed ranges of varied position and width
/// plus equality probes on the head ranks (where Zipf mass concentrates).
fn probe_workload() -> (Vec<(i64, i64)>, Vec<i64>) {
    let mut ranges = Vec::new();
    for i in 0..48i64 {
        let lo = 1 + (i * 41) % DOMAIN as i64;
        let width = 1 + (i * i * 7) % 400;
        ranges.push((lo, (lo + width).min(DOMAIN as i64)));
    }
    let eqs: Vec<i64> = (1..=32).collect();
    (ranges, eqs)
}

/// Build a histogram from `r` with-replacement tuples and fold the
/// workload's q-errors (batched estimates vs. exact truths) into a
/// telemetry sketch; returns its p95.
fn observed_p95(sorted: &[i64], r: usize, rng: &mut StdRng) -> f64 {
    let sample = with_replacement(sorted, r, rng);
    let hist = EquiHeightHistogram::from_unsorted_sample(sample, K, N);
    let index = BucketIndex::new(&hist);
    let (ranges, eqs) = probe_workload();

    let mut est_ranges = vec![0.0f64; ranges.len()];
    let mut est_eqs = vec![0.0f64; eqs.len()];
    index.estimate_range_batch(&ranges, &mut est_ranges);
    index.estimate_eq_batch(&eqs, &mut est_eqs);

    let mut sketch = QuantileSketch::new();
    for (&(lo, hi), &est) in ranges.iter().zip(&est_ranges) {
        let truth = (count_le(sorted, hi) - count_lt(sorted, lo)) as f64;
        sketch.observe(qerror(est, truth));
    }
    // Merge the equality leg separately — the exposition pipeline merges
    // sketches, so exercise that path here too.
    let mut eq_sketch = QuantileSketch::new();
    for (&v, &est) in eqs.iter().zip(&est_eqs) {
        let truth = (count_le(sorted, v) - count_lt(sorted, v)) as f64;
        eq_sketch.observe(qerror(est, truth));
    }
    sketch.merge(&eq_sketch);
    assert_eq!(sketch.count(), (ranges.len() + eqs.len()) as u64);
    sketch.p95().expect("workload is non-empty")
}

/// Corollary-1 sample sizes at f = 0.4 (loose) vs f = 0.1 (tight) — a
/// 16× larger sample — must not yield a *worse* average observed p95
/// q-error. (5% head-room absorbs sketch granularity: buckets resolve
/// 1/16 of an octave, so equal underlying quantiles can differ by one
/// sub-bucket.)
#[test]
fn larger_sample_does_not_worsen_observed_qerror_p95() {
    let data = Zipf::new(1.0, DOMAIN).materialize_exact(N);
    debug_assert!(data.windows(2).all(|w| w[0] <= w[1]));
    let gamma = 0.1;
    let r_small = corollary1_sample_size(K, 0.4, N, gamma).ceil() as usize;
    let r_large = corollary1_sample_size(K, 0.1, N, gamma).ceil() as usize;
    assert!(r_large < N as usize, "tight target must stay sub-population, got {r_large}");
    assert!(r_large >= 8 * r_small, "f 0.4 → 0.1 should grow the sample ~16×");

    let t = trials(8, 120);
    let (mut sum_small, mut sum_large) = (0.0f64, 0.0f64);
    for trial in 0..t {
        let mut rng = StdRng::seed_from_u64(0xE000 + trial as u64);
        sum_small += observed_p95(&data, r_small, &mut rng);
        sum_large += observed_p95(&data, r_large, &mut rng);
    }
    let (avg_small, avg_large) = (sum_small / t as f64, sum_large / t as f64);
    assert!(avg_small >= 1.0 && avg_large >= 1.0, "q-error is bounded below by 1");
    assert!(
        avg_large <= avg_small * 1.05,
        "a 16× sample must not worsen observed p95 q-error: \
         small-sample avg {avg_small:.4}, large-sample avg {avg_large:.4} over {t} trials"
    );
}
