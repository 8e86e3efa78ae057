//! Oracles for the full-scan build path: `sort_values` and the sample
//! CVB grows, `GrowingSample`, against the standard library's sort, the
//! unsorted equi-height builders against sort + `from_sorted`, the
//! compressed builders against the copy-and-filter construction they
//! replace, and the frequency tally against a map of run lengths.

use std::collections::BTreeMap;

use proptest::prelude::*;
use samplehist_core::distinct::FrequencyProfile;
use samplehist_core::histogram::{
    sort_values, CompressedHistogram, EquiHeightHistogram, GrowingSample,
};

/// Deterministic value stream for building inputs from a drawn seed.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// `n` values from `lo` onward whose span `hi − lo + 1` is exactly
/// `span` (both ends present when `n ≥ 2`), in arbitrary order.
fn with_span(n: usize, lo: i64, span: u64, seed: u64) -> Vec<i64> {
    let mut next = xorshift(seed);
    let mut values: Vec<i64> = (0..n).map(|_| lo + (next() % span) as i64).collect();
    if n >= 2 {
        values[n / 3] = lo;
        values[n / 2] = lo + (span - 1) as i64;
    }
    values
}

fn check_sort(mut values: Vec<i64>) -> bool {
    let mut expected = values.clone();
    expected.sort_unstable();
    let counting = sort_values(&mut values);
    assert_eq!(values, expected);
    counting
}

#[test]
fn sort_values_edge_cases() {
    assert!(!check_sort(vec![]));
    assert!(!check_sort(vec![7]));
    assert!(check_sort(vec![-3; 1000]), "all-equal input spans 1");
    assert!(!check_sort(vec![i64::MAX, i64::MIN, 0, i64::MIN, i64::MAX]), "full i64 span");
    assert!(check_sort(vec![i64::MAX, i64::MAX - 1, i64::MAX]), "span at the top end");
    assert!(check_sort(vec![i64::MIN + 1, i64::MIN, i64::MIN]), "span at the bottom end");
    assert!(check_sort(with_span(1000, -500, 8000, 3)), "span = 8n counts");
    assert!(!check_sort(with_span(1000, -500, 8001, 3)), "span = 8n + 1 sorts");
}

/// Runs of 255, 256, 257, 511, 512 and 65,536 copies, which wrap a
/// byte-wide counter zero, one, one, one, two and 256 times, among
/// values held once; all-equal input of 2^20 values; and the i64
/// extremes with more than 256 copies each, apart (counted) and together
/// (compared).
#[test]
fn sort_values_with_wrapped_counts() {
    let mut next = xorshift(0x5EED);
    for copies in [255usize, 256, 257, 511, 512, 65_536] {
        let mut values = vec![17i64; copies];
        values.extend((0..1000).map(|_| (next() % 100) as i64));
        values.extend(vec![99i64; copies]);
        let len = values.len();
        values.swap(0, len - 1);
        assert!(check_sort(values), "{copies} copies");
    }
    assert!(check_sort(vec![-9; 1 << 20]), "2^20 equal values");
    let mut low = vec![i64::MIN; 300];
    low.extend([i64::MIN + 2, i64::MIN + 1, i64::MIN]);
    assert!(check_sort(low.clone()), "i64::MIN with 301 copies");
    let mut high = vec![i64::MAX; 513];
    high.extend([i64::MAX - 3, i64::MAX - 1]);
    assert!(check_sort(high.clone()), "i64::MAX with 513 copies");
    let mut both = low;
    both.extend(high);
    assert!(!check_sort(both), "both extremes span all of i64");
}

proptest! {
    /// Every span around the `8n` cutoff, negative and positive origins,
    /// and inputs that hold both `i64::MIN` and `i64::MAX`.
    #[test]
    fn sort_values_equals_sort_unstable(
        n in 0usize..400,
        lo in -1_000_000_000_000i64..1_000_000_000_000,
        shape in 0u8..5,
        seed in any::<u64>(),
    ) {
        let (values, expect_counting) = match shape {
            0 => (with_span(n, lo, 8 * n.max(1) as u64, seed), n >= 2),
            1 => (with_span(n, lo, 8 * n as u64 + 1, seed), false),
            2 => (vec![lo; n], n >= 2),
            3 => {
                let mut v = with_span(n, lo, 3, seed);
                v.extend([i64::MIN, i64::MAX]);
                (v, false)
            }
            _ => (with_span(n, lo, 1 + seed % (16 * n as u64 + 1), seed), false),
        };
        let counting = check_sort(values);
        if shape < 4 {
            prop_assert_eq!(counting, expect_counting);
        }
    }
}

// -- Unsorted equi-height builds against sort + `from_sorted` -------------

/// Spans at and just past the counting sort's `8n` boundary, all-equal
/// input, more buckets than values, and the i64 extremes alone and
/// mixed with heavy runs: `from_unsorted`, `from_unsorted_in_place` and
/// `from_unsorted_sample` equal `sort_unstable` + `from_sorted` (or
/// `from_sorted_sample`) for k ∈ {1, 3, 40}.
#[test]
fn from_unsorted_matches_sort_on_edge_inputs() {
    let n = 10_000usize;
    let mut extremes_with_runs = vec![i64::MIN; 5_000];
    extremes_with_runs.extend(vec![i64::MAX; 5_000]);
    extremes_with_runs.extend(with_span(5_000, -(1 << 40), 1 << 41, 0xFE));
    let cases: Vec<(&str, Vec<i64>, bool)> = vec![
        ("span 8n", with_span(n, -5, 8 * n as u64, 0x10), true),
        ("span 8n + 1", with_span(n, -5, 8 * n as u64 + 1, 0x11), false),
        ("all equal", vec![13; 4_096], true),
        ("k > n", with_span(5, 0, 1 << 20, 0x12), false),
        ("extremes", vec![i64::MIN, i64::MAX, 0, -1, 1, i64::MIN, i64::MAX], false),
        ("i64::MIN alone", vec![i64::MIN; 100], true),
        ("i64::MAX alone", vec![i64::MAX; 100], true),
        ("extremes with heavy runs", extremes_with_runs, false),
    ];
    for (name, data, counting) in cases {
        let mut sorted = data.clone();
        sorted.sort_unstable();
        assert_eq!(sort_values(&mut data.clone()), counting, "{name}: sort_values route");
        let population = 3 * data.len() as u64 + 7;
        for k in [1usize, 3, 40] {
            let expect = EquiHeightHistogram::from_sorted(&sorted, k);
            let mut in_place = data.clone();
            let got = EquiHeightHistogram::from_unsorted_in_place(&mut in_place, k);
            assert_eq!(got, expect, "{name}, k={k}: in place");
            assert_eq!(in_place, sorted, "{name}, k={k}: buffer left sorted");
            let got = EquiHeightHistogram::from_unsorted(data.clone(), k);
            assert_eq!(got, expect, "{name}, k={k}");
            assert_eq!(
                EquiHeightHistogram::from_unsorted_sample(data.clone(), k, population),
                EquiHeightHistogram::from_sorted_sample(&sorted, k, population),
                "{name}, k={k}: sample"
            );
        }
    }
}

// -- The growing sample against `sort_unstable` ---------------------------

/// Grows a `GrowingSample` from the sorted `prefix` by each of `batches`
/// (unsorted) in turn. After each batch, checks its length, its counts at
/// every value of the union and at the ends, and its histograms against
/// `sort_unstable` + `count_le` / `from_sorted_sample`; at the end, checks
/// `into_sorted`. Returns whether the union was held as counts after each
/// batch.
fn check_growth(mut prefix: Vec<i64>, batches: &[Vec<i64>]) -> Vec<bool> {
    prefix.sort_unstable();
    let mut expected = prefix.clone();
    let mut sample = GrowingSample::from_sorted(prefix);
    let mut routes = Vec::new();
    // A reused buffer with stale capacity, as CVB's tail is.
    let mut batch = Vec::with_capacity(7);
    for tail in batches {
        batch.extend_from_slice(tail);
        sample.append(&mut batch);
        assert!(batch.is_empty(), "append leaves the batch empty");
        expected.extend_from_slice(tail);
        expected.sort_unstable();
        routes.push(sample.is_counted());
        assert_eq!(sample.len(), expected.len());
        if expected.is_empty() {
            continue;
        }
        let (lo, hi) = (expected[0], expected[expected.len() - 1]);
        let mut probes: Vec<i64> = expected.clone();
        probes.extend([i64::MIN, lo.saturating_sub(1), hi.saturating_add(1), i64::MAX]);
        probes.sort_unstable();
        let mut got = Vec::new();
        sample.count_le_each(&probes, &mut got);
        let want: Vec<u64> =
            probes.iter().map(|&v| expected.partition_point(|&x| x <= v) as u64).collect();
        assert_eq!(got, want, "count_le_each after {} values", expected.len());
        let population = 2 * expected.len() as u64 + 3;
        for k in [1usize, 3, 40] {
            assert_eq!(
                sample.histogram(k, population),
                EquiHeightHistogram::from_sorted_sample(&expected, k, population),
                "k={k} after {} values",
                expected.len()
            );
        }
    }
    assert_eq!(sample.into_sorted(), expected);
    routes
}

#[test]
fn growing_sample_edge_cases() {
    let narrow = with_span(500, -100, 400, 5);
    let wide = with_span(500, -100, 1 << 40, 6);
    assert_eq!(check_growth(vec![], &[vec![]]), [false]);
    assert_eq!(
        check_growth(vec![], std::slice::from_ref(&narrow)),
        [true],
        "empty prefix, narrow batch"
    );
    assert_eq!(
        check_growth(vec![], std::slice::from_ref(&wide)),
        [false],
        "empty prefix, wide batch"
    );
    assert_eq!(check_growth(narrow.clone(), &[vec![]]), [false], "empty batch: nothing to fold");
    assert_eq!(check_growth(vec![9; 300], &[vec![9; 200]]), [true], "all-equal union spans 1");
    let extremes = vec![i64::MAX, i64::MIN, 1];
    assert_eq!(check_growth(vec![i64::MIN, 0, i64::MAX], &[extremes]), [false], "full span");
    let top = vec![i64::MAX - 1, i64::MAX];
    assert_eq!(check_growth(vec![i64::MAX - 2, i64::MAX], &[top]), [true], "top end");
    let bottom = vec![i64::MIN, i64::MIN + 2];
    assert_eq!(check_growth(vec![i64::MIN, i64::MIN + 1], &[bottom]), [true], "bottom end");
    // The union's span, not the prefix's or the batch's, picks the route.
    let low: Vec<i64> = (0..100).collect();
    let high: Vec<i64> = (1_500..1_600).collect();
    assert_eq!(check_growth(low.clone(), &[high]), [true], "union span 1600 = 8n");
    let far: Vec<i64> = (1_501..1_601).collect();
    assert_eq!(check_growth(low.clone(), &[far]), [false], "batch above, union span 8n + 1");
    let below: Vec<i64> = (-1_600..-1_500).collect();
    assert_eq!(check_growth(low.clone(), &[below]), [false], "batch below the prefix");
    let straddle: Vec<i64> = (-50..150).step_by(2).chain([-5_000, 5_000]).collect();
    assert_eq!(check_growth(low.clone(), &[straddle]), [false], "batch on both sides");
    assert_eq!(check_growth(wide.clone(), std::slice::from_ref(&narrow)), [false], "wide prefix");
    assert_eq!(check_growth(narrow.clone(), &[wide]), [false], "narrow prefix, wide batch");
    // Counted, widened below and above, sent back to the sorted route by
    // an outlier, then dense enough to count again.
    let batches = [
        (0..200).collect::<Vec<i64>>(),
        (-300..-100).collect(),
        (200..1_000).rev().collect(),
        vec![1 << 20],
        (0..140_000).map(|v| v % 1_000 + 1_000).collect(),
    ];
    assert_eq!(check_growth(vec![], &batches), [true, true, true, false, true]);
    // Wrapped counters survive widening: 300 and 600 copies at the old
    // origin, then a batch below it.
    let heavy: Vec<i64> = [vec![5; 300], vec![6; 600]].concat();
    let lower: Vec<i64> = vec![-2_000; 257];
    assert_eq!(check_growth(vec![], &[heavy, lower, vec![6; 256]]), [true, true, true]);
}

proptest! {
    /// A prefix and up to three batches drawn over the same or shifted
    /// spans around the union's `8n` cutoff, some holding the i64
    /// extremes: the sample agrees with `sort_unstable` after every batch.
    #[test]
    fn growing_sample_equals_sort_unstable(
        prior in 0usize..200,
        batches in prop::collection::vec((0usize..200, -3_000i64..3_000, any::<bool>()), 1..4),
        lo in -1_000_000_000_000i64..1_000_000_000_000,
        span_per_value in 0u64..17,
        seed in any::<u64>(),
    ) {
        let n = (prior + batches.iter().map(|b| b.0).sum::<usize>()).max(1) as u64;
        let span = 1 + span_per_value * n / 2;
        let prefix = with_span(prior, lo, span, seed);
        let mut tails = Vec::new();
        for (i, &(len, offset, extremes)) in batches.iter().enumerate() {
            let mut tail = with_span(len, lo.saturating_add(offset), span, seed ^ (i as u64 + 1));
            if extremes && len > 0 {
                tail[0] = i64::MIN;
                tail[len - 1] = i64::MAX;
            }
            tails.push(tail);
        }
        let routes = check_growth(prefix, &tails);
        for (i, &(len, _, extremes)) in batches.iter().enumerate() {
            if extremes && len > 0 {
                prop_assert!(!routes[i], "a union holding both extremes is never counted");
            }
        }
    }
}

// -- Compressed builders against copy-and-filter ---------------------------

/// Runs of equal values in `sorted` longer than `threshold`, by walking
/// every run.
fn oracle_runs(sorted: &[i64], threshold: f64) -> Vec<(i64, u64)> {
    let mut runs = Vec::new();
    let mut i = 0usize;
    while i < sorted.len() {
        let v = sorted[i];
        let start = i;
        while i < sorted.len() && sorted[i] == v {
            i += 1;
        }
        let c = (i - start) as u64;
        if c as f64 > threshold {
            runs.push((v, c));
        }
    }
    runs
}

/// `sorted` without the heavy values, filtered one element at a time.
fn oracle_residual(sorted: &[i64], runs: &[(i64, u64)]) -> Vec<i64> {
    sorted
        .iter()
        .copied()
        .filter(|v| runs.binary_search_by_key(v, |&(hv, _)| hv).is_err())
        .collect()
}

fn oracle_from_sorted(sorted: &[i64], k: usize) -> CompressedHistogram {
    let n = sorted.len() as u64;
    let runs = oracle_runs(sorted, n as f64 / k as f64);
    let residual_values = oracle_residual(sorted, &runs);
    let residual = (!residual_values.is_empty())
        .then(|| EquiHeightHistogram::from_sorted(&residual_values, k - runs.len()));
    CompressedHistogram::from_parts(runs, residual, n)
}

fn oracle_from_sorted_sample(sample: &[i64], k: usize, population: u64) -> CompressedHistogram {
    let r = sample.len() as u64;
    let scale = population as f64 / r as f64;
    let runs: Vec<(i64, u64)> = oracle_runs(sample, r as f64 / k as f64)
        .into_iter()
        .map(|(v, c)| (v, (c as f64 * scale).round() as u64))
        .collect();
    let residual_sample = oracle_residual(sample, &runs);
    let heavy_total: u64 = runs.iter().map(|&(_, c)| c).sum();
    let residual_total = population.saturating_sub(heavy_total).max(residual_sample.len() as u64);
    let residual = (!residual_sample.is_empty()).then(|| {
        EquiHeightHistogram::from_sorted_sample(&residual_sample, k - runs.len(), residual_total)
    });
    CompressedHistogram::from_parts(runs, residual, population)
}

fn check_compressed(sorted: &[i64], k: usize) {
    assert_eq!(CompressedHistogram::from_sorted(sorted, k), oracle_from_sorted(sorted, k), "k={k}");
    for population in [sorted.len() as u64, 3 * sorted.len() as u64 + 7] {
        assert_eq!(
            CompressedHistogram::from_sorted_sample(sorted, k, population),
            oracle_from_sorted_sample(sorted, k, population),
            "k={k} population={population}"
        );
    }
}

/// Sorted multiset from `(value, copies)` runs.
fn from_runs(runs: &[(i64, usize)]) -> Vec<i64> {
    let mut v: Vec<i64> =
        runs.iter().flat_map(|&(val, c)| std::iter::repeat(val).take(c)).collect();
    v.sort_unstable();
    v
}

#[test]
fn compressed_builders_match_copy_and_filter_on_edge_shapes() {
    let light: Vec<(i64, usize)> = (10..60).map(|v| (v, 1 + (v as usize % 3))).collect();
    let mut both_ends = vec![(0i64, 400usize), (100, 350)];
    both_ends.extend(&light);
    let cases = [
        from_runs(&both_ends),            // heavy runs at both ends
        from_runs(&[(5, 100)]),           // all heavy: residual `None`
        from_runs(&[(1, 600), (2, 400)]), // pigeonhole edge at k = 2
        from_runs(&light),                // nothing heavy
        vec![4, 9, 11],                   // fewer values than buckets
        from_runs(&[(-7, 3), (i64::MIN, 2), (i64::MAX, 9)]),
    ];
    for sorted in &cases {
        for k in [1usize, 2, 3, 10, 64, sorted.len() + 5] {
            check_compressed(sorted, k);
        }
    }
}

proptest! {
    /// Random run structures: a few long runs among many short ones, with
    /// bucket budgets from 1 to past `n`.
    #[test]
    fn compressed_builders_match_copy_and_filter(
        runs in prop::collection::vec((-300i64..300, 1usize..40), 1..60),
        heavy in prop::collection::vec((-300i64..300, 40usize..400), 0..4),
        k in 1usize..120,
    ) {
        let mut all = runs;
        all.extend(heavy);
        let sorted = from_runs(&all);
        check_compressed(&sorted, k);
        check_compressed(&sorted, sorted.len() + k);
    }
}

// -- Frequency tally against a map of run lengths --------------------------

fn oracle_profile(sorted: &[i64]) -> Vec<(u64, u64)> {
    let mut by_multiplicity = BTreeMap::new();
    let mut i = 0usize;
    while i < sorted.len() {
        let start = i;
        while i < sorted.len() && sorted[i] == sorted[start] {
            i += 1;
        }
        *by_multiplicity.entry((i - start) as u64).or_insert(0u64) += 1;
    }
    by_multiplicity.into_iter().collect()
}

#[test]
fn tally_matches_the_map_at_the_dense_cutoff() {
    for len in [1usize, 2, 3, 62, 63, 64, 65, 127, 128, 129, 1000] {
        let sorted = from_runs(&[(0, len), (1, 1), (2, len), (3, 64), (4, 63)]);
        let got: Vec<(u64, u64)> = FrequencyProfile::from_sorted_sample(&sorted).iter().collect();
        assert_eq!(got, oracle_profile(&sorted), "len={len}");
    }
}

proptest! {
    /// Run lengths on both sides of the dense array's 64 cutoff.
    #[test]
    fn tally_matches_the_map(
        runs in prop::collection::vec((-500i64..500, 1usize..140), 1..80),
    ) {
        let sorted = from_runs(&runs);
        let got: Vec<(u64, u64)> = FrequencyProfile::from_sorted_sample(&sorted).iter().collect();
        prop_assert_eq!(got, oracle_profile(&sorted));
    }
}
