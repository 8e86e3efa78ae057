//! The equi-height histogram structure itself.

use std::ops::Bound;

use samplehist_parallel as parallel;

use super::bucket_counts;
use super::radix;

/// An equi-height *k*-histogram (paper Section 2.1).
///
/// Stores the `k−1` separators, the per-bucket counts of the multiset it
/// summarizes (exact for a perfect histogram, scaled estimates for a
/// sampled one), the total `n`, and the observed min/max used for
/// intra-bucket interpolation by the range estimator.
///
/// Invariants (checked on construction, relied upon everywhere):
/// * `separators` is non-decreasing and has `k − 1` entries;
/// * `counts` has `k` entries summing to `total`;
/// * `min_value ≤ separators[0]` and `separators[k−2] ≤ max_value`
///   (when `k ≥ 2`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquiHeightHistogram {
    separators: Vec<i64>,
    counts: Vec<u64>,
    total: u64,
    min_value: i64,
    max_value: i64,
}

/// A read-only view of one bucket, yielded by
/// [`EquiHeightHistogram::buckets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketRef {
    /// Zero-based bucket index `j` (the paper numbers buckets from 1).
    pub index: usize,
    /// Lower domain bound: `Excluded(s_{j-1})`, or `Unbounded` for the
    /// first bucket (`s_0 = −∞`).
    pub lower: Bound<i64>,
    /// Upper domain bound: `Included(s_j)`, or `Unbounded` for the last
    /// bucket (`s_k = +∞`).
    pub upper: Bound<i64>,
    /// Count of values assigned to this bucket.
    pub count: u64,
}

impl EquiHeightHistogram {
    /// Build the **perfect** equi-height k-histogram of `sorted` (a full
    /// scan, as a database would do under `CREATE STATISTICS ... FULLSCAN`).
    ///
    /// Separator `s_j` is the value of rank `⌈j·n/k⌉` (1-based), the
    /// canonical equi-depth quantile choice: for duplicate-free data every
    /// bucket ends up with `⌊n/k⌋` or `⌈n/k⌉` values. With duplicates the
    /// domain-based bucket rule `B_j = (s_{j-1}, s_j]` makes bucket sizes
    /// deviate from `n/k` — that is inherent (an exact equi-height
    /// histogram may not exist; paper Section 5) and the counts stored here
    /// are the true domain-rule counts.
    ///
    /// # Panics
    /// If `sorted` is empty, not sorted, or `k == 0`.
    pub fn from_sorted(sorted: &[i64], k: usize) -> Self {
        assert!(k > 0, "a histogram needs at least one bucket");
        assert!(!sorted.is_empty(), "cannot build a histogram of an empty value set");
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");

        let separators = quantile_separators(sorted, k);
        let counts = bucket_counts(sorted, &separators);
        let total = sorted.len() as u64;
        Self {
            separators,
            counts,
            total,
            min_value: sorted[0],
            max_value: *sorted.last().expect("non-empty"),
        }
    }

    /// Build an **approximate** equi-height k-histogram from a sorted
    /// random sample of a population with `population_total` tuples.
    ///
    /// The separators are the sample's equi-height separators (paper
    /// Section 3.1: "compute an equi-height k-histogram for R"); the stored
    /// counts are the sample bucket counts scaled by `n/r` and rounded with
    /// the largest-remainder method so they still sum to exactly `n` —
    /// this is what the optimizer will consume, so the invariant
    /// `Σ counts = total` must survive rounding.
    ///
    /// # Panics
    /// If the sample is empty, not sorted, `k == 0`, or
    /// `population_total < sample.len()`.
    pub fn from_sorted_sample(sample: &[i64], k: usize, population_total: u64) -> Self {
        assert_sample_shape(sample, k, population_total);
        Self::from_sorted(sample, k).scaled_to(population_total)
    }

    /// Build the perfect equi-height k-histogram from **unsorted** data,
    /// choosing the cheaper construction path by input shape:
    ///
    /// * large inputs with few separators (see [`super::selection_profitable`])
    ///   resolve the `k−1` separator ranks and their `count_le` by radix
    ///   counting (`radix`) — ~3 linear passes, no sort;
    /// * everything else is sorted and handed to [`Self::from_sorted`].
    ///
    /// Both paths produce **byte-identical** histograms (property-tested
    /// against sort + [`Self::from_sorted`]): separators are order
    /// statistics, counts follow the order-independent domain rule. The
    /// `histogram.route.*` counter records the path taken.
    ///
    /// # Panics
    /// If `values` is empty or `k == 0`.
    pub fn from_unsorted(mut values: Vec<i64>, k: usize) -> Self {
        Self::from_unsorted_in_place(&mut values, k)
    }

    /// [`Self::from_unsorted`] without taking ownership: the caller's
    /// buffer may be sorted in place (on the sort path) but is never
    /// reallocated.
    pub fn from_unsorted_in_place(values: &mut [i64], k: usize) -> Self {
        Self::from_unsorted_threads(parallel::num_threads(), values, k)
    }

    /// [`Self::from_unsorted_in_place`] with an explicit thread count
    /// (results are bit-identical at any thread count).
    ///
    /// # Panics
    /// If `values` is empty or `k == 0`.
    pub fn from_unsorted_threads(threads: usize, values: &mut [i64], k: usize) -> Self {
        assert!(k > 0, "a histogram needs at least one bucket");
        assert!(!values.is_empty(), "cannot build a histogram of an empty value set");
        if radix::selection_profitable(values.len(), k) {
            Self::from_unsorted_radix(threads, values, k)
        } else {
            Self::from_unsorted_sort(values, k)
        }
    }

    /// Sort path of [`Self::from_unsorted_threads`]: sort in place, then
    /// [`Self::from_sorted`].
    fn from_unsorted_sort(values: &mut [i64], k: usize) -> Self {
        samplehist_obs::global().counter("histogram.route.sort", 1);
        values.sort_unstable();
        Self::from_sorted(values, k)
    }

    /// Radix path of [`Self::from_unsorted_threads`], whatever the input
    /// shape: resolve the separator ranks of `values` by radix counting
    /// and turn the returned `(value, count_le)` pairs into bucket counts
    /// — the same consecutive-difference formula [`bucket_counts`]
    /// applies to sorted data. Never rearranges the input.
    pub(super) fn from_unsorted_radix(threads: usize, values: &[i64], k: usize) -> Self {
        samplehist_obs::global().counter("histogram.route.radix", 1);
        let ranks = radix::separator_ranks(values.len(), k);
        let resolution = radix::resolve_ranks(threads, values, &ranks);
        let mut separators = Vec::with_capacity(k - 1);
        let mut counts = Vec::with_capacity(k);
        let mut prev = 0u64;
        for (v, le) in resolution.entries {
            separators.push(v);
            debug_assert!(le >= prev);
            counts.push(le - prev);
            prev = le;
        }
        let total = values.len() as u64;
        counts.push(total - prev);
        Self { separators, counts, total, min_value: resolution.min, max_value: resolution.max }
    }

    /// Convenience wrapper over [`Self::from_sorted_sample`] accepting an
    /// unsorted sample. Routes through radix rank resolution instead of a
    /// sort when the sample shape makes that profitable (same rule and
    /// same byte-identical guarantee as [`Self::from_unsorted`]); counts
    /// are scaled with the same largest-remainder rule as
    /// [`Self::from_sorted_sample`].
    ///
    /// # Panics
    /// If the sample is empty, `k == 0`, or
    /// `population_total < sample.len()`.
    pub fn from_unsorted_sample(mut sample: Vec<i64>, k: usize, population_total: u64) -> Self {
        assert_sample_shape(&sample, k, population_total);
        Self::from_unsorted_in_place(&mut sample, k).scaled_to(population_total)
    }

    /// This histogram of a sample, with its counts scaled up to a
    /// population of `population_total` tuples by largest-remainder
    /// rounding (so they still sum to exactly the new total).
    fn scaled_to(self, population_total: u64) -> Self {
        let counts = scale_counts_largest_remainder(&self.counts, self.total, population_total);
        Self { counts, total: population_total, ..self }
    }

    /// Assemble a histogram from raw parts. Used by tests and by the
    /// worst-case constructions in [`crate::bounds::range`], where bucket
    /// counts are dictated by an adversary rather than by data.
    ///
    /// # Panics
    /// If any structural invariant is violated.
    pub fn from_parts(
        separators: Vec<i64>,
        counts: Vec<u64>,
        min_value: i64,
        max_value: i64,
    ) -> Self {
        assert!(!counts.is_empty(), "need at least one bucket");
        assert_eq!(separators.len() + 1, counts.len(), "k buckets require k-1 separators");
        assert!(separators.windows(2).all(|w| w[0] <= w[1]), "separators must be non-decreasing");
        assert!(min_value <= max_value, "min must not exceed max");
        if let (Some(&first), Some(&last)) = (separators.first(), separators.last()) {
            assert!(
                min_value <= first && last <= max_value,
                "separators must lie within [min, max]"
            );
        }
        let total = counts.iter().sum();
        Self { separators, counts, total, min_value, max_value }
    }

    /// Number of buckets, `k`.
    pub fn num_buckets(&self) -> usize {
        self.counts.len()
    }

    /// The separators `s_1 … s_{k-1}` (non-decreasing, `k − 1` entries).
    pub fn separators(&self) -> &[i64] {
        &self.separators
    }

    /// Per-bucket counts (exact or scaled estimates; see constructors).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of tuples summarized, `n`.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest value observed when the histogram was built.
    pub fn min_value(&self) -> i64 {
        self.min_value
    }

    /// Largest value observed when the histogram was built.
    pub fn max_value(&self) -> i64 {
        self.max_value
    }

    /// The ideal bucket size `n/k` every bucket of a perfect equi-height
    /// histogram would have.
    pub fn ideal_bucket_size(&self) -> f64 {
        self.total as f64 / self.num_buckets() as f64
    }

    /// Index of the bucket that value `v` belongs to under the rule
    /// `B_j = (s_{j-1}, s_j]`: the first bucket whose separator is `≥ v`.
    pub fn bucket_of(&self, v: i64) -> usize {
        self.separators.partition_point(|&s| s < v)
    }

    /// Fraction of the total mass assigned to bucket `j`
    /// (`counts[j] / total`). Zero for degenerate buckets created by
    /// repeated separators.
    ///
    /// # Panics
    /// If `j ≥ k`.
    pub fn bucket_mass(&self, j: usize) -> f64 {
        assert!(j < self.num_buckets(), "bucket index {j} out of range");
        if self.total == 0 {
            return 0.0;
        }
        self.counts[j] as f64 / self.total as f64
    }

    /// Inclusive **value-domain** bounds `(lo, hi)` of bucket `j`: the
    /// integer values a member of `B_j = (s_{j-1}, s_j]` can take, with
    /// the unbounded outer buckets clamped to the observed
    /// [`Self::min_value`] / [`Self::max_value`].
    ///
    /// For histograms built from data, a bucket with `counts[j] > 0`
    /// always has a non-empty range (`lo ≤ hi`): the counted values
    /// themselves lie inside it. Degenerate zero-count buckets (repeated
    /// separators) return an empty range (`lo > hi`), as may buckets of
    /// an adversarial [`Self::from_parts`] assembly. This is the
    /// accessor histogram-inversion samplers build on.
    ///
    /// # Panics
    /// If `j ≥ k`.
    pub fn bucket_value_bounds(&self, j: usize) -> (i64, i64) {
        let k = self.num_buckets();
        assert!(j < k, "bucket index {j} out of range");
        let lo = if j == 0 { self.min_value } else { self.separators[j - 1].saturating_add(1) };
        let hi = if j == k - 1 { self.max_value } else { self.separators[j] };
        (lo, hi)
    }

    /// Iterate over the buckets with their domain bounds.
    pub fn buckets(&self) -> impl Iterator<Item = BucketRef> + '_ {
        (0..self.num_buckets()).map(move |j| BucketRef {
            index: j,
            lower: if j == 0 { Bound::Unbounded } else { Bound::Excluded(self.separators[j - 1]) },
            upper: if j == self.num_buckets() - 1 {
                Bound::Unbounded
            } else {
                Bound::Included(self.separators[j])
            },
            count: self.counts[j],
        })
    }

    /// Re-derive this histogram against a different (sorted) dataset:
    /// same separators, counts taken from `sorted`. This is the operation
    /// behind every error metric — "partition V with the sample's
    /// separators" (paper Section 3.1) — and behind cross-validation.
    pub fn recount_against(&self, sorted: &[i64]) -> Self {
        assert!(!sorted.is_empty(), "cannot recount against an empty value set");
        let counts = bucket_counts(sorted, &self.separators);
        Self {
            separators: self.separators.clone(),
            counts,
            total: sorted.len() as u64,
            min_value: sorted[0],
            max_value: *sorted.last().expect("non-empty"),
        }
    }
}

/// The argument contract of the sampled constructors.
fn assert_sample_shape(sample: &[i64], k: usize, population_total: u64) {
    assert!(k > 0, "a histogram needs at least one bucket");
    assert!(!sample.is_empty(), "cannot build a histogram from an empty sample");
    assert!(
        population_total >= sample.len() as u64,
        "population ({population_total}) smaller than sample ({})",
        sample.len()
    );
}

/// Separators of the equi-height k-histogram of `sorted`: the values at
/// 1-based ranks `⌈j·n/k⌉` for `j = 1 … k−1`.
fn quantile_separators(sorted: &[i64], k: usize) -> Vec<i64> {
    let n = sorted.len() as u64;
    (1..k as u64)
        .map(|j| {
            let rank = crate::math::div_ceil_u64(j * n, k as u64); // 1-based, ≥ 1
            sorted[(rank - 1) as usize]
        })
        .collect()
}

/// Scale `sample_counts` (summing to `r`) to estimates summing to exactly
/// `n`, using largest-remainder rounding. Shared with the probe-fed patch
/// path in [`super::maintained`], which rescales build-half bucket counts
/// with the same rule so patched and rebuilt histograms round identically.
pub(crate) fn scale_counts_largest_remainder(sample_counts: &[u64], r: u64, n: u64) -> Vec<u64> {
    debug_assert_eq!(sample_counts.iter().sum::<u64>(), r);
    let scale = n as f64 / r as f64;
    let raw: Vec<f64> = sample_counts.iter().map(|&c| c as f64 * scale).collect();
    let mut floors: Vec<u64> = raw.iter().map(|&x| x.floor() as u64).collect();
    let assigned: u64 = floors.iter().sum();
    let mut leftover = (n - assigned.min(n)) as usize;
    // Hand the leftover units to the buckets with the largest fractional
    // parts, ties broken by index for determinism.
    let mut order: Vec<usize> = (0..raw.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = raw[a] - raw[a].floor();
        let fb = raw[b] - raw[b].floor();
        fb.partial_cmp(&fa).expect("fractional parts are finite").then(a.cmp(&b))
    });
    for &i in order.iter() {
        if leftover == 0 {
            break;
        }
        floors[i] += 1;
        leftover -= 1;
    }
    debug_assert_eq!(floors.iter().sum::<u64>(), n);
    floors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_histogram_distinct_values() {
        let data: Vec<i64> = (1..=12).collect();
        let h = EquiHeightHistogram::from_sorted(&data, 4);
        assert_eq!(h.num_buckets(), 4);
        assert_eq!(h.separators(), &[3, 6, 9]);
        assert_eq!(h.counts(), &[3, 3, 3, 3]);
        assert_eq!(h.total(), 12);
        assert_eq!(h.min_value(), 1);
        assert_eq!(h.max_value(), 12);
        assert_eq!(h.ideal_bucket_size(), 3.0);
    }

    #[test]
    fn perfect_histogram_non_divisible() {
        let data: Vec<i64> = (1..=10).collect();
        let h = EquiHeightHistogram::from_sorted(&data, 3);
        // Ranks ceil(10/3)=4, ceil(20/3)=7 -> separators 4, 7.
        assert_eq!(h.separators(), &[4, 7]);
        assert_eq!(h.counts(), &[4, 3, 3]);
    }

    #[test]
    fn single_bucket_histogram() {
        let data = vec![5, 1, 9, 3];
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let h = EquiHeightHistogram::from_sorted(&sorted, 1);
        assert!(h.separators().is_empty());
        assert_eq!(h.counts(), &[4]);
    }

    #[test]
    fn more_buckets_than_values() {
        let data = [10, 20];
        let h = EquiHeightHistogram::from_sorted(&data, 5);
        assert_eq!(h.num_buckets(), 5);
        assert_eq!(h.counts().iter().sum::<u64>(), 2);
        // Separators are still non-decreasing and drawn from the data.
        assert!(h.separators().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn duplicates_produce_repeated_separators() {
        // One value holds 80% of the data: separators collapse onto it.
        let mut data = vec![7i64; 80];
        data.extend(81..=100); // 20 distinct tail values
        data.sort_unstable();
        let h = EquiHeightHistogram::from_sorted(&data, 10);
        // Ranks 10,20,...,70 are all the value 7.
        assert!(h.separators()[..7].iter().all(|&s| s == 7));
        // All 80 copies land in the first bucket that 7 belongs to.
        assert_eq!(h.counts()[0], 80);
        assert_eq!(h.counts().iter().sum::<u64>(), 100);
    }

    #[test]
    fn bucket_of_respects_half_open_rule() {
        let data: Vec<i64> = (1..=12).collect();
        let h = EquiHeightHistogram::from_sorted(&data, 4); // seps 3, 6, 9
        assert_eq!(h.bucket_of(3), 0); // s_1 = 3 belongs to B_1 (index 0)
        assert_eq!(h.bucket_of(4), 1);
        assert_eq!(h.bucket_of(6), 1);
        assert_eq!(h.bucket_of(7), 2);
        assert_eq!(h.bucket_of(100), 3);
        assert_eq!(h.bucket_of(i64::MIN), 0);
    }

    #[test]
    fn buckets_iterator_bounds() {
        let data: Vec<i64> = (1..=12).collect();
        let h = EquiHeightHistogram::from_sorted(&data, 4);
        let buckets: Vec<BucketRef> = h.buckets().collect();
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0].lower, Bound::Unbounded);
        assert_eq!(buckets[0].upper, Bound::Included(3));
        assert_eq!(buckets[1].lower, Bound::Excluded(3));
        assert_eq!(buckets[3].upper, Bound::Unbounded);
        assert_eq!(buckets.iter().map(|b| b.count).sum::<u64>(), 12);
    }

    #[test]
    fn bucket_mass_and_value_bounds() {
        let data: Vec<i64> = (1..=12).collect();
        let h = EquiHeightHistogram::from_sorted(&data, 4); // seps 3, 6, 9
        assert_eq!(h.bucket_value_bounds(0), (1, 3));
        assert_eq!(h.bucket_value_bounds(1), (4, 6));
        assert_eq!(h.bucket_value_bounds(3), (10, 12));
        assert!((h.bucket_mass(0) - 0.25).abs() < 1e-12);
        let total_mass: f64 = (0..4).map(|j| h.bucket_mass(j)).sum();
        assert!((total_mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_value_bounds_degenerate_and_extreme() {
        // Repeated separators: the collapsed bucket's range is empty.
        let mut data = vec![7i64; 80];
        data.extend(81..=100);
        data.sort_unstable();
        let h = EquiHeightHistogram::from_sorted(&data, 10);
        for b in h.buckets() {
            let (lo, hi) = h.bucket_value_bounds(b.index);
            if b.count > 0 {
                assert!(lo <= hi, "non-empty bucket {} must have lo <= hi", b.index);
            }
        }
        // Separator at i64::MAX: saturating_add keeps the bound sane.
        let h = EquiHeightHistogram::from_parts(vec![i64::MAX], vec![2, 0], i64::MIN, i64::MAX);
        assert_eq!(h.bucket_value_bounds(0), (i64::MIN, i64::MAX));
        assert_eq!(h.bucket_value_bounds(1), (i64::MAX, i64::MAX));
    }

    #[test]
    fn sampled_histogram_counts_sum_to_population() {
        let sample: Vec<i64> = (0..100).map(|i| i * 3).collect();
        let h = EquiHeightHistogram::from_sorted_sample(&sample, 7, 1_000_003);
        assert_eq!(h.total(), 1_000_003);
        assert_eq!(h.counts().iter().sum::<u64>(), 1_000_003);
        assert_eq!(h.num_buckets(), 7);
    }

    #[test]
    fn sampled_histogram_equals_perfect_when_sample_is_population() {
        let data: Vec<i64> = (1..=1000).collect();
        let perfect = EquiHeightHistogram::from_sorted(&data, 8);
        let sampled = EquiHeightHistogram::from_sorted_sample(&data, 8, 1000);
        assert_eq!(perfect, sampled);
    }

    #[test]
    fn recount_against_other_data() {
        let sample: Vec<i64> = vec![10, 20, 30, 40];
        let h = EquiHeightHistogram::from_sorted_sample(&sample, 2, 4); // sep [20]
        let population: Vec<i64> = (1..=100).collect();
        let recounted = h.recount_against(&population);
        assert_eq!(recounted.separators(), h.separators());
        assert_eq!(recounted.counts(), &[20, 80]);
        assert_eq!(recounted.total(), 100);
    }

    #[test]
    fn largest_remainder_rounding_is_exact() {
        let scaled = scale_counts_largest_remainder(&[1, 1, 1], 3, 10);
        assert_eq!(scaled.iter().sum::<u64>(), 10);
        // 10/3 each: floors 3,3,3 plus one remainder unit to the first.
        assert_eq!(scaled, vec![4, 3, 3]);

        let scaled = scale_counts_largest_remainder(&[2, 0, 1], 3, 7);
        assert_eq!(scaled.iter().sum::<u64>(), 7);
        assert_eq!(scaled[1], 0, "empty buckets stay empty");
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let _ = EquiHeightHistogram::from_sorted(&[1, 2, 3], 0);
    }

    #[test]
    #[should_panic(expected = "empty value set")]
    fn empty_data_rejected() {
        let _ = EquiHeightHistogram::from_sorted(&[], 3);
    }

    #[test]
    #[should_panic(expected = "population")]
    fn sample_larger_than_population_rejected() {
        let sample: Vec<i64> = (0..10).collect();
        let _ = EquiHeightHistogram::from_sorted_sample(&sample, 2, 5);
    }

    /// Deterministic duplicate-heavy multiset for path-equivalence tests.
    fn noisy(n: usize, domain: u64) -> Vec<i64> {
        let mut x = 0x9E37_79B9u64 | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % domain) as i64
            })
            .collect()
    }

    #[test]
    fn from_unsorted_matches_sorted_path_on_both_routes() {
        // Small input: routed through sort. Large input: routed through
        // radix. Either way the result must equal from_sorted exactly.
        for (n, k) in [(100usize, 7usize), (20_000, 64), (20_000, 599)] {
            let data = noisy(n, 97);
            let mut sorted = data.clone();
            sorted.sort_unstable();
            let reference = EquiHeightHistogram::from_sorted(&sorted, k);
            assert_eq!(EquiHeightHistogram::from_unsorted(data, k), reference, "n={n} k={k}");
        }
    }

    #[test]
    fn from_unsorted_sample_matches_sorted_sample_on_both_routes() {
        for (n, k) in [(50usize, 5usize), (20_000, 100)] {
            let data = noisy(n, 41);
            let mut sorted = data.clone();
            sorted.sort_unstable();
            let pop = (2 * n + 3) as u64;
            let reference = EquiHeightHistogram::from_sorted_sample(&sorted, k, pop);
            assert_eq!(
                EquiHeightHistogram::from_unsorted_sample(data, k, pop),
                reference,
                "n={n} k={k}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "population")]
    fn from_unsorted_sample_rejects_small_population_on_radix_path() {
        // Large enough to take the radix route: the population assert
        // must still fire with the same message as the sorted path.
        let sample: Vec<i64> = (0..20_000).collect();
        let _ = EquiHeightHistogram::from_unsorted_sample(sample, 10, 100);
    }

    /// The shape-routed entry point and both private paths it picks from,
    /// each private path forced whatever the input shape.
    fn every_path(
        threads: usize,
        data: &[i64],
        k: usize,
    ) -> [(&'static str, EquiHeightHistogram); 3] {
        let mut auto = data.to_vec();
        let mut sort = data.to_vec();
        [
            ("auto", EquiHeightHistogram::from_unsorted_threads(threads, &mut auto, k)),
            ("sort", EquiHeightHistogram::from_unsorted_sort(&mut sort, k)),
            ("radix", EquiHeightHistogram::from_unsorted_radix(threads, data, k)),
        ]
    }

    #[test]
    fn explicit_routes_agree_byte_for_byte() {
        for (n, k) in [(10_000usize, 64usize), (20_000, 599)] {
            let data = noisy(n, 97);
            let mut sorted = data.clone();
            sorted.sort_unstable();
            let reference = EquiHeightHistogram::from_sorted(&sorted, k);
            for threads in [1usize, 4] {
                for (route, h) in every_path(threads, &data, k) {
                    assert_eq!(h, reference, "route={route} threads={threads} n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn explicit_routes_agree_on_samples() {
        let data = noisy(15_000, 41);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let pop = 123_457u64;
        let reference = EquiHeightHistogram::from_sorted_sample(&sorted, 100, pop);
        let h = EquiHeightHistogram::from_unsorted_sample(data.clone(), 100, pop);
        assert_eq!(h, reference, "route=auto");
        for threads in [1usize, 4] {
            for (route, h) in every_path(threads, &data, 100) {
                assert_eq!(h.scaled_to(pop), reference, "route={route} threads={threads}");
            }
        }
    }

    #[test]
    fn from_parts_validates_invariants() {
        let h = EquiHeightHistogram::from_parts(vec![5], vec![3, 4], 0, 10);
        assert_eq!(h.total(), 7);
    }

    #[test]
    #[should_panic(expected = "k buckets require k-1 separators")]
    fn from_parts_rejects_arity_mismatch() {
        let _ = EquiHeightHistogram::from_parts(vec![5, 6], vec![3, 4], 0, 10);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn from_parts_rejects_unsorted_separators() {
        let _ = EquiHeightHistogram::from_parts(vec![6, 5], vec![1, 1, 1], 0, 10);
    }
}
