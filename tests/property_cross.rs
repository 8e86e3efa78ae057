//! Cross-crate property tests: invariants that must hold for *any* data,
//! any bucket count, any sampling parameters.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use samplehist::core::distinct::{all_estimators, FrequencyProfile};
use samplehist::core::error::{fractional_max_error, max_error_against, summarize_counts};
use samplehist::core::estimate::true_range_count;
use samplehist::core::histogram::{
    bucket_counts, BucketIndex, CompressedHistogram, CompressedIndex, EquiHeightHistogram,
};
use samplehist::core::sampling::{self, cvb, CvbConfig, Schedule, SliceBlocks, ValidationMode};
use samplehist::core::BlockSource;

fn arbitrary_multiset() -> impl Strategy<Value = Vec<i64>> {
    // Mixtures of runs and singles, size 1..400, values in a small domain
    // so duplicates are common.
    prop::collection::vec((-50i64..50, 1usize..8), 1..60).prop_map(|runs| {
        let mut v: Vec<i64> =
            runs.into_iter().flat_map(|(val, c)| std::iter::repeat(val).take(c)).collect();
        v.sort_unstable();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Histogram structural invariants for any multiset and bucket count.
    #[test]
    fn histogram_invariants(data in arbitrary_multiset(), k in 1usize..20) {
        let h = EquiHeightHistogram::from_sorted(&data, k);
        prop_assert_eq!(h.num_buckets(), k);
        prop_assert_eq!(h.counts().iter().sum::<u64>(), data.len() as u64);
        prop_assert!(h.separators().windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(h.separators().iter().all(|s| data.binary_search(s).is_ok()),
            "separators are data values");
        // bucket_of is consistent with the counts.
        let recounted = bucket_counts(&data, h.separators());
        prop_assert_eq!(recounted.as_slice(), h.counts());
    }

    /// Theorem 2 for arbitrary count vectors: Δavg ≤ Δvar ≤ Δmax.
    #[test]
    fn metric_ordering(counts in prop::collection::vec(0u64..1000, 1..30)) {
        let total: u64 = counts.iter().sum();
        let s = summarize_counts(&counts, total);
        prop_assert!(s.delta_avg <= s.delta_var + 1e-9);
        prop_assert!(s.delta_var <= s.delta_max + 1e-9);
    }

    /// Sampled histograms: scaled counts always sum to n; recounting them
    /// against the population never panics and sums to n too.
    #[test]
    fn sampled_histogram_count_conservation(
        data in arbitrary_multiset(),
        k in 1usize..12,
        scale_up in 1u64..50,
    ) {
        let n = data.len() as u64 * scale_up;
        let h = EquiHeightHistogram::from_sorted_sample(&data, k, n);
        prop_assert_eq!(h.counts().iter().sum::<u64>(), n);
        prop_assert_eq!(h.total(), n);
    }

    /// The range estimator is monotone in the query's upper bound and
    /// consistent at the extremes.
    #[test]
    fn range_estimator_monotone(data in arbitrary_multiset(), k in 1usize..10) {
        let h = EquiHeightHistogram::from_sorted(&data, k);
        let est = BucketIndex::new(&h);
        let mut prev = 0.0f64;
        for t in -60..60i64 {
            let cur = est.estimate_le(t);
            prop_assert!(cur + 1e-9 >= prev, "estimate_le not monotone at {}", t);
            prop_assert!(cur >= -1e-9 && cur <= data.len() as f64 + 1e-9);
            prev = cur;
        }
        prop_assert_eq!(est.estimate_le(100), data.len() as f64);
        // Whole-domain query is exact.
        let whole = est.estimate_range(i64::MIN, i64::MAX);
        prop_assert!((whole - data.len() as f64).abs() < 1e-9);
        prop_assert_eq!(true_range_count(&data, i64::MIN, i64::MAX), data.len() as u64);
    }

    /// Compressed histograms conserve mass: heavy counts + residual total
    /// = n, and whole-domain range estimates are exact.
    #[test]
    fn compressed_histogram_conserves_mass(data in arbitrary_multiset(), k in 1usize..10) {
        let c = CompressedHistogram::from_sorted(&data, k);
        let heavy: u64 = c.high_frequency_values().iter().map(|&(_, cnt)| cnt).sum();
        let light = c.residual().map_or(0, |h| h.total());
        prop_assert_eq!(heavy + light, data.len() as u64);
        prop_assert!(c.buckets_used() <= k.max(1));
        let idx = CompressedIndex::new(&c);
        let whole = idx.estimate_range(i64::MIN, i64::MAX);
        prop_assert!((whole - data.len() as f64).abs() < 1e-9);
        // Equality on a heavy value is exact.
        for &(v, cnt) in c.high_frequency_values() {
            prop_assert_eq!(idx.estimate_eq(v), cnt as f64);
        }
    }

    /// The fractional metric is symmetric-ish in spirit: zero iff the
    /// distributions agree on every gap; always finite; zero when
    /// observed == reference.
    #[test]
    fn fractional_metric_sanity(data in arbitrary_multiset(), k in 1usize..10) {
        let h = EquiHeightHistogram::from_sorted(&data, k);
        let rep = fractional_max_error(h.separators(), &data, &data);
        prop_assert_eq!(rep.max, 0.0);
        prop_assert!(rep.gaps.iter().all(|g| g.reference_fraction >= -1e-12));
        let total_ref: f64 = rep.gaps.iter().map(|g| g.reference_fraction).sum();
        prop_assert!((total_ref - 1.0).abs() < 1e-9, "gap masses sum to 1");
    }

    /// Every distinct estimator stays in [d_sample, n] (Goodman excepted,
    /// by design) for arbitrary profiles.
    #[test]
    fn estimators_feasible(data in arbitrary_multiset(), scale_up in 1u64..100) {
        let n = data.len() as u64 * scale_up;
        let p = FrequencyProfile::from_sorted_sample(&data);
        for est in all_estimators() {
            if est.name() == "Goodman" { continue; }
            let e = est.estimate(&p, n);
            prop_assert!(e.is_finite(), "{} not finite", est.name());
            prop_assert!(e >= p.distinct_in_sample() as f64 - 1e-9, "{} below floor", est.name());
            prop_assert!(e <= n as f64 + 1e-9, "{} above n", est.name());
        }
    }

    /// CVB terminates, respects its block cap, and its histogram is a
    /// valid summary of the whole column, for arbitrary data and block
    /// sizes.
    #[test]
    fn cvb_always_terminates_validly(
        data in arbitrary_multiset(),
        block_size in 1usize..20,
        seed in 0u64..1000,
        cap_pct in 10u32..=100,
    ) {
        let src = SliceBlocks::new(&data, block_size);
        let config = CvbConfig {
            buckets: 5,
            target_f: 0.3,
            gamma: 0.1,
            schedule: Schedule::Doubling { initial_blocks: 1 },
            validation: ValidationMode::AllTuples,
            max_block_fraction: cap_pct as f64 / 100.0,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let result = cvb::run(&src, &config, &mut rng);
        prop_assert!(result.blocks_sampled <= src.num_blocks());
        let cap = ((src.num_blocks() as f64 * config.max_block_fraction).ceil() as usize).max(1);
        prop_assert!(result.blocks_sampled <= cap + 1);
        prop_assert_eq!(result.histogram.total(), data.len() as u64);
        prop_assert_eq!(result.tuples_sampled as usize, result.sample_sorted.len());
        prop_assert!(result.sample_sorted.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Record sampling never invents values.
    #[test]
    fn samples_are_subsets(data in arbitrary_multiset(), r in 1usize..100, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = sampling::with_replacement(&data, r, &mut rng);
        prop_assert!(s.iter().all(|v| data.binary_search(v).is_ok()));
        let s2 = sampling::without_replacement(&data, r.min(data.len()), &mut rng);
        prop_assert!(s2.iter().all(|v| data.binary_search(v).is_ok()));
    }

    /// The deviation of a perfect histogram on duplicate-free data is
    /// less than one bucket unit — it only exists at all because k may
    /// not divide n.
    #[test]
    fn perfect_histogram_near_zero_deviation(n in 1usize..500, k in 1usize..20) {
        let data: Vec<i64> = (0..n as i64).collect();
        let h = EquiHeightHistogram::from_sorted(&data, k);
        let err = max_error_against(&h, &data);
        prop_assert!(err.delta_max < 1.0, "Δmax = {}", err.delta_max);
    }
}
