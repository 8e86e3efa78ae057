//! Compressed histograms — the "standard approach" of paper Section 5 for
//! duplicate-heavy columns.
//!
//! A value whose multiplicity exceeds the ideal bucket size `n/k` would
//! swallow one or more whole buckets of an equi-height histogram, turning
//! adjacent separators into copies of itself and making per-bucket error
//! ill-defined. Compressed histograms pull such **high-frequency values**
//! out into an exact value→count side table and build an ordinary
//! equi-height histogram over the residue with the remaining buckets.
//! Range and equality estimation then answer from both parts, through a
//! [`CompressedIndex`](super::CompressedIndex).

use std::ops::Range;

use super::count_le;
use super::equi_height::EquiHeightHistogram;

/// A compressed k-histogram: exact singleton buckets for values with
/// multiplicity > `n/k`, an equi-height histogram over everything else.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedHistogram {
    /// `(value, exact count)` for each high-frequency value, ascending.
    high_freq: Vec<(i64, u64)>,
    /// Equi-height histogram of the residual multiset (`None` when the
    /// high-frequency values cover the whole column).
    residual: Option<EquiHeightHistogram>,
    /// Total tuples summarized.
    total: u64,
}

impl CompressedHistogram {
    /// Build from **sorted** data with a budget of `k` buckets total.
    ///
    /// Values with multiplicity strictly greater than `n/k` become
    /// singleton buckets (at most `k − 1` of them, so the residual always
    /// keeps at least one bucket); the residual gets the remaining
    /// `k − #high` buckets. O(k log n) after the sort: the residual is read
    /// through rank arithmetic over `sorted`, never copied.
    ///
    /// # Panics
    /// If `sorted` is empty, unsorted, or `k == 0`.
    pub fn from_sorted(sorted: &[i64], k: usize) -> Self {
        assert!(k > 0, "a histogram needs at least one bucket");
        assert!(!sorted.is_empty(), "cannot build a histogram of an empty value set");
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");

        let n = sorted.len() as u64;
        let heavy = heavy_runs(sorted, n as f64 / k as f64);
        // At most k−1 runs exceed n/k: k of them would together exceed n.
        // So the residual is always left ≥ 1 bucket.
        debug_assert!(heavy.len() < k, "pigeonhole: at most k-1 values exceed n/k");
        let high_freq = heavy.iter().map(|run| (sorted[run.start], run.len() as u64)).collect();
        let residual = residual_histogram(sorted, &heavy, k - heavy.len());
        Self { high_freq, residual, total: n }
    }

    /// Build an **approximate** compressed histogram from a sorted random
    /// sample of a population with `population_total` tuples: values
    /// whose *sample* multiplicity exceeds `r/k` become heavy (their
    /// counts scaled by `n/r`), the residue gets an equi-height histogram
    /// scaled the same way. This is what a sampling-based `ANALYZE`
    /// stores when asked for a compressed histogram.
    ///
    /// # Panics
    /// If the sample is empty, not sorted, `k == 0`, or the population is
    /// smaller than the sample.
    pub fn from_sorted_sample(sample: &[i64], k: usize, population_total: u64) -> Self {
        assert!(k > 0, "a histogram needs at least one bucket");
        assert!(!sample.is_empty(), "cannot build a histogram from an empty sample");
        assert!(
            population_total >= sample.len() as u64,
            "population ({population_total}) smaller than sample ({})",
            sample.len()
        );
        debug_assert!(sample.windows(2).all(|w| w[0] <= w[1]), "sample must be sorted");

        let r = sample.len() as u64;
        let scale = population_total as f64 / r as f64;
        let heavy = heavy_runs(sample, r as f64 / k as f64);
        debug_assert!(heavy.len() < k, "pigeonhole: at most k-1 values exceed r/k");
        let high_freq: Vec<(i64, u64)> = heavy
            .iter()
            .map(|run| (sample[run.start], (run.len() as f64 * scale).round() as u64))
            .collect();
        let heavy_total: u64 = high_freq.iter().map(|&(_, c)| c).sum();
        let residual_len = sample.len() - heavy.iter().map(Range::len).sum::<usize>();
        let residual_total = population_total.saturating_sub(heavy_total).max(
            residual_len as u64, // never claim fewer than observed
        );
        let residual = residual_histogram(sample, &heavy, k - heavy.len())
            .map(|h| h.scaled_to(residual_total));

        Self { high_freq, residual, total: population_total }
    }

    /// Build from **unsorted** data with a budget of `k` buckets total:
    /// sort a copy, then [`Self::from_sorted`].
    ///
    /// # Panics
    /// If `values` is empty or `k == 0`.
    pub fn from_unsorted(values: &[i64], k: usize) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        Self::from_sorted(&sorted, k)
    }

    /// Assemble a compressed histogram from raw parts: an ascending
    /// high-frequency side table, an optional residual histogram, and the
    /// population total. Used by the probe-fed patch path
    /// ([`super::maintained::PatchableStats`]), which re-derives the heavy
    /// set and repairs the residual in place rather than rebuilding from a
    /// full sample.
    ///
    /// Like [`EquiHeightHistogram::from_parts`] the caller owns the
    /// statistics' meaning; this constructor only enforces the structural
    /// invariants the estimators rely on.
    ///
    /// # Panics
    /// If both parts are empty, the side table is not strictly ascending
    /// by value, or any high-frequency count is zero.
    pub fn from_parts(
        high_freq: Vec<(i64, u64)>,
        residual: Option<EquiHeightHistogram>,
        total: u64,
    ) -> Self {
        assert!(
            residual.is_some() || !high_freq.is_empty(),
            "a compressed histogram needs a side table or a residual"
        );
        assert!(
            high_freq.windows(2).all(|w| w[0].0 < w[1].0),
            "high-frequency values must be strictly ascending"
        );
        assert!(high_freq.iter().all(|&(_, c)| c > 0), "high-frequency counts must be positive");
        Self { high_freq, residual, total }
    }

    /// The high-frequency side table.
    pub fn high_frequency_values(&self) -> &[(i64, u64)] {
        &self.high_freq
    }

    /// The residual equi-height histogram, if any values remain.
    pub fn residual(&self) -> Option<&EquiHeightHistogram> {
        self.residual.as_ref()
    }

    /// Total tuples summarized.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Buckets used: one per high-frequency value plus the residual's.
    pub fn buckets_used(&self) -> usize {
        self.high_freq.len() + self.residual.as_ref().map_or(0, |h| h.num_buckets())
    }
}

/// The index ranges of the runs of equal values in `sorted` longer than
/// `threshold`, ascending.
///
/// Only positions that are multiples of `stride = max(1, ⌊threshold⌋)`
/// are probed: a run longer than the threshold spans more than `stride`
/// positions, so it covers one of them, and two binary searches find its
/// bounds. A threshold of `n/k` makes this O(k log n).
pub(super) fn heavy_runs(sorted: &[i64], threshold: f64) -> Vec<Range<usize>> {
    let stride = (threshold.floor() as usize).max(1);
    let mut runs = Vec::new();
    let (mut probe, mut searched) = (0usize, 0usize);
    while probe < sorted.len() {
        let v = sorted[probe];
        let start = searched + sorted[searched..probe].partition_point(|&x| x < v);
        let end = probe + sorted[probe..].partition_point(|&x| x <= v);
        if (end - start) as f64 > threshold {
            runs.push(start..end);
        }
        searched = end;
        probe = end.div_ceil(stride) * stride;
    }
    runs
}

/// `sorted` without the `heavy` runs (ascending, disjoint index ranges),
/// copied gap by gap.
pub(super) fn without_runs(sorted: &[i64], heavy: &[Range<usize>]) -> Vec<i64> {
    let mut rest = Vec::with_capacity(sorted.len() - heavy.iter().map(Range::len).sum::<usize>());
    let mut from = 0;
    for run in heavy {
        rest.extend_from_slice(&sorted[from..run.start]);
        from = run.end;
    }
    rest.extend_from_slice(&sorted[from..]);
    rest
}

/// The perfect equi-height `k`-histogram of `sorted` without its `heavy`
/// runs, read in place (`None` when nothing is left): a residual rank
/// maps to an index of `sorted` by skipping the heavy runs before it, and
/// a residual `count_le(v)` is the full one minus the heavy mass `≤ v`.
fn residual_histogram(
    sorted: &[i64],
    heavy: &[Range<usize>],
    k: usize,
) -> Option<EquiHeightHistogram> {
    let len = sorted.len() - heavy.iter().map(Range::len).sum::<usize>();
    if len == 0 {
        return None;
    }
    // Ranks and separators both arrive in non-decreasing order, so one
    // cursor over the heavy runs serves each accessor.
    let (mut next, mut skipped) = (0usize, 0usize);
    let at = |rank: usize| {
        while heavy.get(next).is_some_and(|run| run.start <= rank + skipped) {
            skipped += heavy[next].len();
            next += 1;
        }
        sorted[rank + skipped]
    };
    let (mut below, mut heavy_le) = (0usize, 0usize);
    let residual_count_le = |v: i64| {
        let le = count_le(sorted, v);
        while heavy.get(below).is_some_and(|run| run.end <= le) {
            heavy_le += heavy[below].len();
            below += 1;
        }
        (le - heavy_le) as u64
    };
    Some(EquiHeightHistogram::from_rank_view(len, k, at, residual_count_le))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::true_range_count;
    use crate::histogram::CompressedIndex;

    fn skewed_data() -> Vec<i64> {
        // Value 100 appears 500 times, value 200 appears 300 times, plus
        // 200 distinct light values 0..99 and 300..399 (one each).
        let mut data: Vec<i64> = Vec::new();
        data.extend(std::iter::repeat(100i64).take(500));
        data.extend(std::iter::repeat(200i64).take(300));
        data.extend(0..100);
        data.extend(300..400);
        data.sort_unstable();
        data
    }

    #[test]
    fn heavy_values_are_pulled_out() {
        let data = skewed_data(); // n = 1000
        let h = CompressedHistogram::from_sorted(&data, 10); // n/k = 100
        assert_eq!(h.high_frequency_values(), &[(100, 500), (200, 300)]);
        assert_eq!(h.total(), 1000);
        let residual = h.residual().expect("light values remain");
        assert_eq!(residual.total(), 200);
        assert_eq!(residual.num_buckets(), 8);
        assert_eq!(h.buckets_used(), 10);
    }

    #[test]
    fn equality_estimates_are_exact_for_heavy_values() {
        let data = skewed_data();
        let h = CompressedIndex::new(&CompressedHistogram::from_sorted(&data, 10));
        assert_eq!(h.estimate_eq(100), 500.0);
        assert_eq!(h.estimate_eq(200), 300.0);
        // A light value: residual estimate is ~1 (200 values, 8 buckets).
        let e = h.estimate_eq(50);
        assert!(e < 30.0, "light estimate {e}");
    }

    #[test]
    fn range_estimates_combine_both_parts() {
        let data = skewed_data();
        let h = CompressedIndex::new(&CompressedHistogram::from_sorted(&data, 10));
        // [100, 200] contains both heavy values and light 101..=199: none
        // (light values are 0..99 and 300..399).
        let est = h.estimate_range(100, 200);
        let truth = true_range_count(&data, 100, 200);
        assert_eq!(truth, 800);
        assert!((est - 800.0).abs() < 40.0, "est = {est}");
        // Whole-domain query is exact-ish.
        let est = h.estimate_range(i64::MIN, i64::MAX);
        assert!((est - 1000.0).abs() < 1e-6);
        assert_eq!(h.estimate_range(10, 5), 0.0);
    }

    #[test]
    fn no_heavy_values_degenerates_to_plain_histogram() {
        let data: Vec<i64> = (0..1000).collect();
        let h = CompressedHistogram::from_sorted(&data, 10);
        assert!(h.high_frequency_values().is_empty());
        assert_eq!(h.residual().expect("all residual").num_buckets(), 10);
        assert_eq!(h.buckets_used(), 10);
    }

    #[test]
    fn all_one_value_has_empty_residual() {
        let data = vec![5i64; 100];
        let h = CompressedHistogram::from_sorted(&data, 4);
        assert_eq!(h.high_frequency_values(), &[(5, 100)]);
        assert!(h.residual().is_none());
        let idx = CompressedIndex::new(&h);
        assert_eq!(idx.estimate_eq(5), 100.0);
        assert_eq!(idx.estimate_eq(6), 0.0);
        assert_eq!(idx.estimate_range(0, 10), 100.0);
    }

    #[test]
    fn at_most_k_minus_one_heavy_values() {
        // n = 500, k = 3, threshold ~166.7: only value 1 qualifies.
        let mut data: Vec<i64> = Vec::new();
        for (v, c) in [(1i64, 250usize), (2, 120), (3, 80), (4, 50)] {
            data.extend(std::iter::repeat(v).take(c));
        }
        data.sort_unstable();
        let h = CompressedHistogram::from_sorted(&data, 3);
        assert_eq!(h.high_frequency_values(), &[(1, 250)]);
        assert!(h.buckets_used() <= 3);

        // Pigeonhole at the edge: k = 2, two values of 600/400: threshold
        // 500, only one can exceed it, residual keeps its bucket.
        let mut data: Vec<i64> = Vec::new();
        data.extend(std::iter::repeat(1i64).take(600));
        data.extend(std::iter::repeat(2i64).take(400));
        let h = CompressedHistogram::from_sorted(&data, 2);
        assert_eq!(h.high_frequency_values(), &[(1, 600)]);
        let residual = h.residual().expect("value 2 remains");
        assert_eq!(residual.total(), 400);
    }

    #[test]
    fn sampled_construction_scales_heavy_values() {
        // Population: value 7 is 50% of 10_000 tuples; sample 10% of it.
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut population = vec![7i64; 5_000];
        population.extend(0..5_000i64);
        population.sort_unstable();
        let mut sample: Vec<i64> =
            (0..1_000).map(|_| population[rng.gen_range(0..population.len())]).collect();
        sample.sort_unstable();

        let h = CompressedHistogram::from_sorted_sample(&sample, 10, 10_000);
        assert_eq!(h.total(), 10_000);
        let heavy = h.high_frequency_values();
        let seven = heavy.iter().find(|&&(v, _)| v == 7).expect("7 is heavy");
        assert!((seven.1 as f64 - 5_000.0).abs() < 900.0, "scaled heavy count = {}", seven.1);
        // Range over everything ≈ n.
        let whole = CompressedIndex::new(&h).estimate_range(i64::MIN, i64::MAX);
        assert!((whole - 10_000.0).abs() < 600.0);
    }

    #[test]
    fn sampled_construction_without_heavy_values() {
        let sample: Vec<i64> = (0..500).collect();
        let h = CompressedHistogram::from_sorted_sample(&sample, 8, 100_000);
        assert!(h.high_frequency_values().is_empty());
        assert_eq!(h.residual().expect("all residual").total(), 100_000);
        assert_eq!(h.buckets_used(), 8);
    }

    /// Deterministic shuffle: spread the sorted data across the output
    /// with a stride co-prime to the length.
    fn strided(sorted: &[i64]) -> Vec<i64> {
        let n = sorted.len();
        let stride = (n / 2 + 1) | 1; // odd ⇒ co-prime with powers of two; good enough here
        let mut out = Vec::with_capacity(n);
        let mut i = 0usize;
        for _ in 0..n {
            out.push(sorted[i]);
            i = (i + stride) % n;
        }
        assert_eq!(out.len(), n);
        out
    }

    #[test]
    fn unsorted_matches_sorted_builder() {
        let all_one = vec![5i64; 100];
        let distinct: Vec<i64> = (0..1000).collect();
        let cases = [
            (strided(&skewed_data()), skewed_data()),
            (all_one.clone(), all_one),
            (strided(&distinct), distinct),
            (vec![3i64, 1, 2], vec![1, 2, 3]), // more buckets than values
        ];
        for (shuffled, sorted) in cases {
            for k in [1usize, 2, 3, 10, 40] {
                let got = CompressedHistogram::from_unsorted(&shuffled, k);
                assert_eq!(got, CompressedHistogram::from_sorted(&sorted, k), "k={k}");
            }
        }
    }

    /// The patch path's residual (`without_runs` over `heavy_runs`)
    /// against the run walk and per-element filter it replaces.
    #[test]
    fn heavy_runs_and_residual_match_the_run_walk_and_filter() {
        let mut shapes = vec![skewed_data(), vec![5i64; 100], (0..1000).collect(), vec![1, 2, 3]];
        let mut ends = vec![0i64; 300];
        ends.extend(1..50);
        ends.extend(std::iter::repeat(60).take(200));
        shapes.push(ends);
        for sorted in &shapes {
            for threshold in [0.5, 1.0, 1.5, 3.0, 99.0, 100.0, 250.0, 1e9] {
                let mut walked = Vec::new();
                let mut i = 0usize;
                while i < sorted.len() {
                    let start = i;
                    while i < sorted.len() && sorted[i] == sorted[start] {
                        i += 1;
                    }
                    if (i - start) as f64 > threshold {
                        walked.push(start..i);
                    }
                }
                let heavy = heavy_runs(sorted, threshold);
                assert_eq!(heavy, walked, "threshold={threshold}");
                let filtered: Vec<i64> = sorted
                    .iter()
                    .copied()
                    .filter(|v| !walked.iter().any(|run| sorted[run.start] == *v))
                    .collect();
                assert_eq!(without_runs(sorted, &heavy), filtered, "threshold={threshold}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty value set")]
    fn empty_rejected() {
        let _ = CompressedHistogram::from_sorted(&[], 4);
    }

    #[test]
    #[should_panic(expected = "empty value set")]
    fn unsorted_empty_rejected() {
        let _ = CompressedHistogram::from_unsorted(&[], 4);
    }
}
