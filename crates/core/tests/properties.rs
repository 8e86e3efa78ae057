//! Property tests for the core crate's invariants — the contracts between
//! modules that the unit tests exercise only pointwise.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use samplehist_core::bounds::{corollary1_error, corollary1_sample_size, theorem5_sample_size};
use samplehist_core::distinct::{DistinctEstimator, FrequencyProfile, Gee};
use samplehist_core::error::{delta_separation, fractional_max_error};
use samplehist_core::estimate::{duplication_density, duplication_density_from_profile};
use samplehist_core::histogram::{selection_profitable, BucketIndex, EquiHeightHistogram};
use samplehist_core::math::{hypergeometric_pmf, ln_binomial};
use samplehist_core::sampling::{Reservoir, Schedule, ScheduleContext};

fn multiset() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec((-100i64..100, 1usize..6), 1..50).prop_map(|runs| {
        let mut v: Vec<i64> =
            runs.into_iter().flat_map(|(val, c)| std::iter::repeat(val).take(c)).collect();
        v.sort_unstable();
        v
    })
}

/// Unsorted heavy-duplicate multisets: `runs` runs of 4–7 copies of a
/// value from a small domain (so distinct runs collide on values too).
fn unsorted_multiset(runs: std::ops::Range<usize>) -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec((-1000i64..1000, 4usize..8), runs).prop_map(|runs| {
        runs.into_iter().flat_map(|(val, c)| std::iter::repeat(val).take(c)).collect()
    })
}

/// Heavy-duplicate Zipf-like multisets: a few runs big enough to trip the
/// radix refinement's heavy-slice detector (≥ 8192 tuples per run, and
/// heavy mass dominating `n`), plus a light scattered tail, over a domain
/// wide enough that the top radix pass cannot resolve values exactly.
fn skewed_multiset(domain: i64) -> impl Strategy<Value = Vec<i64>> {
    let heavy = prop::collection::vec((-domain..domain, 9000usize..12_000), 1..4);
    let light = prop::collection::vec(-domain..domain, 0..1500);
    (heavy, light).prop_map(|(heavy, light)| {
        let mut v: Vec<i64> = Vec::new();
        for (val, c) in heavy {
            v.resize(v.len() + c, val);
        }
        v.extend(light);
        v
    })
}

/// Install a process-global Prometheus recorder once, so the byte-identity
/// properties below run with recording *enabled* — the paths under test
/// emit spans and counters, and recording must never perturb results.
fn enable_recording() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let sink: std::sync::Arc<dyn samplehist_obs::Sink> =
            std::sync::Arc::new(samplehist_obs::PromSink::new());
        samplehist_obs::set_global(samplehist_obs::Recorder::with_sinks(vec![sink]));
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Corollary 1 is monotone in every argument, and its two directions
    /// are mutually consistent for arbitrary parameters.
    #[test]
    fn corollary1_shape(
        k in 1usize..2000,
        f_millis in 1u32..1000,
        n in 1000u64..10_000_000_000,
        gamma_millis in 1u32..999,
    ) {
        let f = f_millis as f64 / 1000.0;
        let gamma = gamma_millis as f64 / 1000.0;
        let r = corollary1_sample_size(k, f, n, gamma);
        prop_assert!(r > 0.0 && r.is_finite());
        prop_assert!(corollary1_sample_size(k + 1, f, n, gamma) > r);
        prop_assert!(corollary1_sample_size(k, f, 2 * n, gamma) > r);
        // Round trip: the error guaranteed by ceil(r) samples is ≤ f.
        let f_back = corollary1_error(r.ceil() as u64, k, n, gamma);
        prop_assert!(f_back <= f + 1e-9);
    }

    /// Theorem 5 always costs at least Theorem 4's k-fold-smaller cousin
    /// at equal δ (for k ≥ 3 where both are in their stated domains).
    #[test]
    fn separation_bound_dominates(k in 3usize..1000, n in 10_000u64..100_000_000) {
        let delta = 0.5 * n as f64 / k as f64;
        let r4 = samplehist_core::bounds::theorem4_sample_size(n, k, delta, 0.01);
        let r5 = theorem5_sample_size(n, k, delta, 0.01);
        prop_assert!(r5 > r4);
    }

    /// δ-separation is symmetric in its two histograms.
    #[test]
    fn separation_is_symmetric(data in multiset(), k in 1usize..8, split in 1usize..10) {
        let h1 = EquiHeightHistogram::from_sorted(&data, k);
        // A second histogram over the same data from a subsample.
        let sub: Vec<i64> = data.iter().copied().step_by(split).collect();
        let sub = if sub.is_empty() { data.clone() } else { sub };
        let h2 = EquiHeightHistogram::from_sorted_sample(&sub, k, data.len() as u64);
        let ab = delta_separation(&h1, &h2, &data).max;
        let ba = delta_separation(&h2, &h1, &data).max;
        prop_assert_eq!(ab, ba);
    }

    /// The fractional metric is invariant under duplicating the observed
    /// multiset (it is a statement about distributions, not counts).
    #[test]
    fn fractional_scale_invariance(data in multiset(), k in 1usize..8) {
        let h = EquiHeightHistogram::from_sorted(&data, k);
        let mut doubled = Vec::with_capacity(data.len() * 2);
        for &v in &data {
            doubled.push(v);
            doubled.push(v);
        }
        let single = fractional_max_error(h.separators(), &data, &data).max;
        let double = fractional_max_error(h.separators(), &data, &doubled).max;
        prop_assert!((single - double).abs() < 1e-12);
    }

    /// Range estimates are additive across a split point.
    #[test]
    fn range_estimate_additive(data in multiset(), k in 1usize..8, m in -100i64..100) {
        let h = EquiHeightHistogram::from_sorted(&data, k);
        let est = BucketIndex::new(&h);
        let whole = est.estimate_range(-200, 200);
        let left = est.estimate_range(-200, m);
        let right = est.estimate_range(m + 1, 200);
        prop_assert!((whole - (left + right)).abs() < 1e-6,
            "split at {}: {} vs {} + {}", m, whole, left, right);
    }

    /// GEE is monotone in the singleton count: more singletons, more
    /// estimated distinct values (n fixed, everything else fixed).
    #[test]
    fn gee_monotone_in_singletons(f1 in 1u64..500, extra in 0u64..200) {
        let n = 10_000_000u64;
        let base = FrequencyProfile::from_pairs(vec![(1, f1), (3, 40)]);
        let more = FrequencyProfile::from_pairs(vec![(1, f1 + extra + 1), (3, 40)]);
        prop_assert!(Gee.estimate(&more, n) > Gee.estimate(&base, n));
    }

    /// Reservoir size is min(capacity, stream length) for any stream.
    #[test]
    fn reservoir_size_law(cap in 1usize..50, stream_len in 0usize..200, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut res = Reservoir::new(cap);
        for i in 0..stream_len {
            res.offer(i as i64, &mut rng);
        }
        prop_assert_eq!(res.items().len(), cap.min(stream_len));
        prop_assert_eq!(res.seen(), stream_len as u64);
    }

    /// Every schedule proposes at least one block in any state.
    #[test]
    fn schedules_always_progress(
        round in 1usize..30,
        blocks in 0usize..10_000,
        tuples in 0u64..1_000_000,
        n in 1_000u64..10_000_000,
        b in 1u32..1000,
    ) {
        let ctx = ScheduleContext {
            round,
            blocks_so_far: blocks,
            tuples_so_far: tuples,
            total_tuples: n,
            tuples_per_block: b as f64,
        };
        for s in [
            Schedule::Doubling { initial_blocks: 4 },
            Schedule::SqrtSteps { multiplier: 5.0 },
            Schedule::Geometric { initial_blocks: 4, ratio: 2.0 },
            Schedule::Fixed { blocks_per_round: 7 },
        ] {
            prop_assert!(s.next_blocks(&ctx) >= 1, "{:?}", s);
        }
    }

    /// Hypergeometric pmf is a probability distribution for arbitrary
    /// small parameters, and ln_binomial is symmetric.
    #[test]
    fn math_identities(n in 1u64..60, m_frac in 0u32..=100, r_frac in 1u32..=100) {
        let m = n * m_frac as u64 / 100;
        let r = (n * r_frac as u64 / 100).max(1);
        let total: f64 = (0..=r).map(|i| hypergeometric_pmf(n, m, r, i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-8, "pmf sums to {}", total);
        let k = m.min(n);
        prop_assert!((ln_binomial(n, k) - ln_binomial(n, n - k)).abs() < 1e-9);
    }

    /// Codec round trip composed with recounting: persistence does not
    /// change what the optimizer would estimate.
    #[test]
    fn persisted_histograms_estimate_identically(data in multiset(), k in 1usize..8) {
        use samplehist_core::histogram::codec;
        let h = EquiHeightHistogram::from_sorted(&data, k);
        let back = codec::decode(&codec::encode(&h)).expect("round trip");
        let a = BucketIndex::new(&h);
        let b = BucketIndex::new(&back);
        for t in [-150i64, -3, 0, 42, 150] {
            prop_assert_eq!(a.estimate_le(t).to_bits(), b.estimate_le(t).to_bits());
        }
    }

    /// `from_unsorted` (radix-count routed at this size) is byte-identical
    /// to sort + `from_sorted`, and the sampled variant to
    /// `from_sorted_sample`, for every multiset and bucket count.
    #[test]
    fn from_unsorted_equals_sort_path(
        data in unsorted_multiset(2100..2600), // × runs ⇒ n ≥ 8192: radix route
        k in 2usize..32,
        extra_pop in 0u64..10_000,
    ) {
        let mut sorted = data.clone();
        sorted.sort_unstable();
        prop_assert_eq!(
            EquiHeightHistogram::from_unsorted(data.clone(), k),
            EquiHeightHistogram::from_sorted(&sorted, k)
        );
        let pop = data.len() as u64 + extra_pop;
        prop_assert_eq!(
            EquiHeightHistogram::from_unsorted_sample(data.clone(), k, pop),
            EquiHeightHistogram::from_sorted_sample(&sorted, k, pop)
        );
    }

    /// The frequency-profile builder is bit-identical to the serial tally
    /// for any sorted multiset and thread budget. (These samples stay
    /// below `PROFILE_FORK_MIN_LEN`, so the tally never forks here; the
    /// forked tally has a fixed-input test at the threshold in
    /// `distinct::freq`.)
    #[test]
    fn parallel_frequency_profile_equals_serial(
        data in unsorted_multiset(1..500),
        threads in 1usize..10,
    ) {
        let mut sorted = data;
        sorted.sort_unstable();
        prop_assert_eq!(
            FrequencyProfile::from_sorted_sample_threads(threads, &sorted),
            FrequencyProfile::from_sorted_sample_threads(1, &sorted)
        );
    }

    /// The skew-refined radix route (exact sub-resolution: the ±2³² domain
    /// keeps the refinement's sub-shift at zero) is byte-identical to
    /// sort + `from_sorted` on heavy-duplicate multisets at thread budgets
    /// 1 and 4, with recording enabled. Every drawn multiset holds
    /// ≥ 9000 values, so `from_unsorted_threads` takes the radix route.
    /// (These sizes stay below `RADIX_FORK_MIN_LEN`, so no pass forks
    /// here; the forked passes have fixed-input tests at the threshold
    /// in `histogram::radix`.)
    #[test]
    fn refined_radix_exact_equals_sort_path(
        data in skewed_multiset(1 << 32),
        k in 2usize..32,
    ) {
        enable_recording();
        prop_assert!(selection_profitable(data.len(), k), "radix route");
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let reference = EquiHeightHistogram::from_sorted(&sorted, k);
        for threads in [1usize, 4] {
            let mut work = data.clone();
            let got = EquiHeightHistogram::from_unsorted_threads(threads, &mut work, k);
            prop_assert_eq!(&got, &reference, "threads = {}", threads);
        }
    }

    /// Same property over a ±2⁴⁵ domain, where refined slices are too wide
    /// to resolve exactly and the sub-slice gather/recursion path runs.
    #[test]
    fn refined_radix_subgather_equals_sort_path(
        data in skewed_multiset(1 << 45),
        k in 2usize..32,
    ) {
        enable_recording();
        prop_assert!(selection_profitable(data.len(), k), "radix route");
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let reference = EquiHeightHistogram::from_sorted(&sorted, k);
        for threads in [1usize, 4] {
            let mut work = data.clone();
            let got = EquiHeightHistogram::from_unsorted_threads(threads, &mut work, k);
            prop_assert_eq!(&got, &reference, "threads = {}", threads);
        }
    }

    /// The unsorted-sample frequency profile matches the sorted tally,
    /// and the profile-derived density ANALYZE stores is bit-identical to
    /// the sorted run-length density.
    #[test]
    fn unsorted_profile_and_density_equal_sorted(data in unsorted_multiset(1..500)) {
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let profile = FrequencyProfile::from_unsorted_sample(&data);
        prop_assert_eq!(&profile, &FrequencyProfile::from_sorted_sample(&sorted));
        prop_assert_eq!(
            duplication_density_from_profile(&profile).to_bits(),
            duplication_density(&sorted).to_bits()
        );
    }
}
