//! Property tests for [`HistogramSampler`] edge cases, mirroring the
//! `index_identity.rs` style: heavy-duplicate multisets, degenerate
//! bucket shapes, separators at the i64 extremes, and the
//! thread-count-invariance contract of the seeded materializers.

use proptest::prelude::*;

use samplehist_core::histogram::{CompressedHistogram, EquiHeightHistogram};
use samplehist_data::HistogramSampler;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Heavy-duplicate multisets: a few dominant runs plus a scattered
/// tail — the shape that collapses separators and produces zero-count
/// buckets.
fn skewed_multiset(domain: i64) -> impl Strategy<Value = Vec<i64>> {
    let heavy = prop::collection::vec((-domain..domain, 500usize..1500), 1..4);
    let light = prop::collection::vec(-domain..domain, 1..800);
    (heavy, light).prop_map(|(heavy, light)| {
        let mut v: Vec<i64> = Vec::new();
        for (val, c) in heavy {
            v.resize(v.len() + c, val);
        }
        v.extend(light);
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every draw lands inside the observed value range and maps back
    /// (via `bucket_of`) to a bucket that actually carries mass — for
    /// arbitrary skew and any bucket count.
    #[test]
    fn draws_respect_bounds_and_bucket_masses(
        data in skewed_multiset(1 << 40),
        k in 1usize..24,
    ) {
        let mut work = data;
        let h = EquiHeightHistogram::from_unsorted_in_place(&mut work, k);
        let s = HistogramSampler::from_equi_height(&h);
        prop_assert_eq!(s.value_bounds(), (h.min_value(), h.max_value()));
        prop_assert_eq!(s.total(), h.total());
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..256 {
            let v = s.sample(&mut rng);
            prop_assert!(v >= h.min_value() && v <= h.max_value(),
                "draw {} outside [{}, {}]", v, h.min_value(), h.max_value());
            let b = h.bucket_of(v);
            prop_assert!(h.counts()[b] > 0,
                "draw {} landed in zero-count bucket {}", v, b);
        }
    }

    /// A single-bucket histogram (k = 1): the sampler is uniform over
    /// `[min, max]` and never strays.
    #[test]
    fn single_bucket_draws_span_min_max(data in skewed_multiset(1 << 20)) {
        let h = EquiHeightHistogram::from_unsorted(data, 1);
        let s = HistogramSampler::from_equi_height(&h);
        prop_assert_eq!(s.num_outcomes(), 1);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..128 {
            let v = s.sample(&mut rng);
            prop_assert!(v >= h.min_value() && v <= h.max_value());
        }
    }

    /// All-heavy compressed histograms (no residual): every draw is one
    /// of the heavy values, with nothing invented between them.
    #[test]
    fn all_heavy_compressed_draws_only_heavy_values(
        runs in prop::collection::vec((any::<i64>(), 200u64..600), 1..5),
    ) {
        // De-duplicate into the strictly-ascending side table
        // `CompressedHistogram::from_parts` requires.
        let mut heavy: Vec<(i64, u64)> = runs;
        heavy.sort_by_key(|&(v, _)| v);
        heavy.dedup_by_key(|&mut (v, _)| v);
        let total: u64 = heavy.iter().map(|&(_, c)| c).sum();
        let h = CompressedHistogram::from_parts(heavy.clone(), None, total);
        prop_assert!(h.residual().is_none());
        let s = HistogramSampler::from_compressed(&h);
        prop_assert_eq!(s.num_outcomes(), heavy.len());
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..256 {
            let v = s.sample(&mut rng);
            prop_assert!(heavy.binary_search_by_key(&v, |&(hv, _)| hv).is_ok(),
                "draw {} is not a heavy value", v);
        }
    }

    /// Separators and data at the i64 extremes: full-span buckets must
    /// neither overflow nor hang, and draws stay in range.
    #[test]
    fn extreme_edge_histograms_are_safe(counts in prop::collection::vec(0u64..40, 6..7)) {
        let mut counts = counts;
        counts[0] += 1; // at least one unit of mass
        let h = EquiHeightHistogram::from_parts(
            vec![i64::MIN, -7, 0, i64::MAX - 1, i64::MAX],
            counts,
            i64::MIN,
            i64::MAX,
        );
        let s = HistogramSampler::from_equi_height(&h);
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..256 {
            let _ = s.sample(&mut rng); // i64 is total; just must not panic
        }
        let stream = s.materialize_seeded_threads(4, 1000, 3);
        prop_assert_eq!(stream.len(), 1000);
    }

    /// The seeded materializer is a pure function of `(sampler, n,
    /// seed)` — invariant to the thread count, for arbitrary `n`
    /// including chunk-boundary stragglers.
    #[test]
    fn materialize_seeded_is_thread_invariant(
        data in skewed_multiset(1 << 30),
        k in 1usize..16,
        n in 0usize..20_000,
        seed in any::<u64>(),
    ) {
        let h = EquiHeightHistogram::from_unsorted(data, k);
        let s = HistogramSampler::from_equi_height(&h);
        let reference = s.materialize_seeded_threads(1, n, seed);
        prop_assert_eq!(reference.len(), n);
        for threads in [2usize, 4] {
            prop_assert_eq!(&s.materialize_seeded_threads(threads, n, seed), &reference);
        }
    }
}

/// Empty histograms (total = 0, possible only through `from_parts`)
/// are rejected loudly rather than sampled from.
#[test]
#[should_panic(expected = "empty histogram")]
fn empty_equi_height_histogram_rejected() {
    let h = EquiHeightHistogram::from_parts(vec![7], vec![0, 0], 0, 10);
    let _ = HistogramSampler::from_equi_height(&h);
}

/// Data containing the extreme values themselves round-trips through
/// construction and sampling.
#[test]
fn data_at_i64_extremes_samples_cleanly() {
    let mut data = vec![i64::MIN; 50];
    data.extend(std::iter::repeat(0).take(50));
    data.extend(std::iter::repeat(i64::MAX).take(50));
    let h = EquiHeightHistogram::from_unsorted(data, 3);
    let s = HistogramSampler::from_equi_height(&h);
    assert_eq!(s.value_bounds(), (i64::MIN, i64::MAX));
    let mut rng = StdRng::seed_from_u64(41);
    for _ in 0..2000 {
        let _ = s.sample(&mut rng);
    }
}
