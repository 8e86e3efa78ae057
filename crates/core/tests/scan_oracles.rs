//! Oracles for the full-scan build path: `sort_values` and CVB's union
//! sort `sort_appended` against the standard library's sort, the
//! compressed builders against the copy-and-filter construction they
//! replace, and the frequency tally against a map of run lengths.

use std::collections::BTreeMap;

use proptest::prelude::*;
use samplehist_core::distinct::FrequencyProfile;
use samplehist_core::histogram::{
    sort_appended, sort_values, CompressedHistogram, EquiHeightHistogram,
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
    assert!(check_sort(with_span(1000, -500, 2000, 3)), "span = 2n counts");
    assert!(!check_sort(with_span(1000, -500, 2001, 3)), "span = 2n + 1 sorts");
}

proptest! {
    /// Every span around the `2n` cutoff, negative and positive origins,
    /// and inputs that hold both `i64::MIN` and `i64::MAX`.
    #[test]
    fn sort_values_equals_sort_unstable(
        n in 0usize..400,
        lo in -1_000_000_000_000i64..1_000_000_000_000,
        shape in 0u8..5,
        seed in any::<u64>(),
    ) {
        let (values, expect_counting) = match shape {
            0 => (with_span(n, lo, 2 * n.max(1) as u64, seed), n >= 2),
            1 => (with_span(n, lo, 2 * n as u64 + 1, seed), false),
            2 => (vec![lo; n], n >= 2),
            3 => {
                let mut v = with_span(n, lo, 3, seed);
                v.extend([i64::MIN, i64::MAX]);
                (v, false)
            }
            _ => (with_span(n, lo, 1 + seed % (4 * n as u64 + 1), seed), false),
        };
        let counting = check_sort(values);
        if shape < 4 {
            prop_assert_eq!(counting, expect_counting);
        }
    }
}

// -- The union sort against `sort_unstable` --------------------------------

/// Sorts `prefix` (the sorted sample so far) followed by `tail` (the
/// fresh batch, unsorted) with `sort_appended`, checks the union against
/// `sort_unstable`, and returns whether the counting sort ran.
fn check_appended(mut prefix: Vec<i64>, tail: &[i64]) -> bool {
    prefix.sort_unstable();
    let prior = prefix.len();
    let mut values = prefix;
    values.extend_from_slice(tail);
    let mut expected = values.clone();
    expected.sort_unstable();
    // A stale scratch buffer, larger than any tail, must not leak into
    // the result.
    let mut scratch = vec![i64::MIN; 3 * tail.len() + 5];
    let counting = sort_appended(&mut values, prior, &mut scratch);
    assert_eq!(values, expected, "prior {prior}, tail {tail:?}");
    counting
}

#[test]
fn sort_appended_edge_cases() {
    let narrow = with_span(500, -100, 400, 5);
    let wide = with_span(500, -100, 1 << 40, 6);
    assert!(!check_appended(vec![], &[]));
    assert!(check_appended(vec![], &narrow), "empty prefix: sort_values on the tail");
    assert!(!check_appended(vec![], &wide), "empty prefix, wide tail");
    assert!(!check_appended(narrow.clone(), &[]), "empty tail: nothing to sort");
    assert!(check_appended(vec![9; 300], &[9; 200]), "all-equal union spans 1");
    assert!(!check_appended(vec![i64::MIN, 0, i64::MAX], &[i64::MAX, i64::MIN, 1]), "full span");
    assert!(check_appended(vec![i64::MAX - 2, i64::MAX], &[i64::MAX - 1, i64::MAX]), "top end");
    assert!(check_appended(vec![i64::MIN, i64::MIN + 1], &[i64::MIN, i64::MIN + 2]), "bottom end");
    // The union's span, not the prefix's or the tail's, picks the route.
    let low: Vec<i64> = (0..100).collect();
    let high: Vec<i64> = (150..250).collect();
    assert!(check_appended(low.clone(), &high), "union span 250 <= 2n = 400");
    let far: Vec<i64> = (1_000..1_100).collect();
    assert!(!check_appended(low.clone(), &far), "tail above the prefix, union span 1100 > 400");
    let below: Vec<i64> = (-1_100..-1_000).collect();
    assert!(!check_appended(low.clone(), &below), "tail below the prefix");
    let straddle: Vec<i64> = (-50..150).step_by(2).chain([-5_000, 5_000]).collect();
    assert!(!check_appended(low, &straddle), "tail on both sides of the prefix");
    assert!(!check_appended(wide.clone(), &narrow), "wide prefix, narrow tail: the tail counts");
    assert!(!check_appended(narrow, &wide), "narrow prefix, wide tail");
}

proptest! {
    /// Prefix and tail drawn over the same or disjoint spans around the
    /// union's `2n` cutoff, including prefixes and tails that are empty or
    /// hold the i64 extremes: both routes agree with `sort_unstable`.
    #[test]
    fn sort_appended_equals_sort_unstable(
        sizes in (0usize..300, 0usize..300),
        lo in -1_000_000_000_000i64..1_000_000_000_000,
        shape in (0u64..5, -2_000i64..2_000, any::<bool>()),
        seed in any::<u64>(),
    ) {
        let ((prior, fresh), (span_per_value, offset, extremes)) = (sizes, shape);
        let n = (prior + fresh).max(1) as u64;
        let span = 1 + span_per_value * n / 2;
        let prefix = with_span(prior, lo, span, seed);
        let mut tail = with_span(fresh, lo.saturating_add(offset), span, seed ^ 0x9e37);
        if extremes && fresh > 0 {
            tail[0] = i64::MIN;
            tail[fresh - 1] = i64::MAX;
        }
        let counting = check_appended(prefix, &tail);
        if extremes && fresh > 0 {
            prop_assert!(!counting, "a union holding both extremes never counts");
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
