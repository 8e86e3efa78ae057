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

use samplehist_parallel as parallel;

use super::equi_height::EquiHeightHistogram;
use super::radix;

/// Value arrays shorter than this verify heavy candidates serially.
const PAR_COUNT_MIN: usize = 1 << 16;

/// Probe size for the unsorted builders' shape detection.
const ROUTE_PROBE: usize = 1024;

/// The unsorted builders fall back to sort + the sorted builder when at
/// least this fraction of the probe belongs to heavy values.
const ROUTE_HEAVY_MASS: f64 = 0.5;

/// Should the unsorted builders sort a copy and run the sorted builder
/// instead of the sort-free path? Both are **byte-identical**
/// (property-tested); the choice is purely about speed. The sort-free
/// path (rank probing + sort-free equi-height residual) wins on
/// light-tailed shapes where the residual is most of the column; when
/// heavy values dominate, its probing and filtering passes are overhead
/// spent on tuples that end up in the side table anyway, and the bench
/// numbers favor plain sort + [`CompressedHistogram::from_sorted`].
///
/// The rule: sample a strided probe of ≤ `ROUTE_PROBE` values, sort it,
/// and measure the fraction of probe mass in values heavier than `m/k` —
/// the probe-scaled image of the builder's own `n/k` threshold. Heavy
/// mass ≥ `ROUTE_HEAVY_MASS` sorts. Deterministic: the probe is strided,
/// not sampled, so the same input always takes the same path.
fn heavy_dominated(values: &[i64], k: usize) -> bool {
    let stride = (values.len() / ROUTE_PROBE).max(1);
    let mut probe: Vec<i64> = values.iter().copied().step_by(stride).collect();
    probe.sort_unstable();
    let m = probe.len();
    let threshold = m as f64 / k as f64;
    let mut heavy = 0usize;
    let mut i = 0usize;
    while i < m {
        let start = i;
        while i < m && probe[i] == probe[start] {
            i += 1;
        }
        if (i - start) as f64 > threshold {
            heavy += i - start;
        }
    }
    heavy as f64 / m as f64 >= ROUTE_HEAVY_MASS
}

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
    /// `k − #high` buckets.
    ///
    /// # Panics
    /// If `sorted` is empty, unsorted, or `k == 0`.
    pub fn from_sorted(sorted: &[i64], k: usize) -> Self {
        assert!(k > 0, "a histogram needs at least one bucket");
        assert!(!sorted.is_empty(), "cannot build a histogram of an empty value set");
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");

        let n = sorted.len() as u64;
        let threshold = n as f64 / k as f64;

        // Collect runs above the threshold. There can be at most k−1 of
        // them: k values each with multiplicity strictly above n/k would
        // together exceed n. So the residual is always left ≥ 1 bucket.
        let mut runs: Vec<(i64, u64)> = Vec::new();
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
        debug_assert!(runs.len() < k, "pigeonhole: at most k-1 values exceed n/k");

        let residual_k = k - runs.len();
        let residual_values: Vec<i64> = if runs.is_empty() {
            sorted.to_vec()
        } else {
            sorted
                .iter()
                .copied()
                .filter(|v| runs.binary_search_by_key(v, |&(hv, _)| hv).is_err())
                .collect()
        };
        let residual = (!residual_values.is_empty())
            .then(|| EquiHeightHistogram::from_sorted(&residual_values, residual_k));

        Self { high_freq: runs, residual, total: n }
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
        let threshold = r as f64 / k as f64;

        let mut runs: Vec<(i64, u64)> = Vec::new();
        let mut i = 0usize;
        while i < sample.len() {
            let v = sample[i];
            let start = i;
            while i < sample.len() && sample[i] == v {
                i += 1;
            }
            let c = (i - start) as u64;
            if c as f64 > threshold {
                runs.push((v, (c as f64 * scale).round() as u64));
            }
        }
        debug_assert!(runs.len() < k, "pigeonhole: at most k-1 values exceed r/k");

        let residual_k = k - runs.len();
        let residual_sample: Vec<i64> = if runs.is_empty() {
            sample.to_vec()
        } else {
            sample
                .iter()
                .copied()
                .filter(|v| runs.binary_search_by_key(v, |&(hv, _)| hv).is_err())
                .collect()
        };
        let heavy_total: u64 = runs.iter().map(|&(_, c)| c).sum();
        let residual_total = population_total.saturating_sub(heavy_total).max(
            residual_sample.len() as u64, // never claim fewer than observed
        );
        let residual = (!residual_sample.is_empty()).then(|| {
            EquiHeightHistogram::from_sorted_sample(&residual_sample, residual_k, residual_total)
        });

        Self { high_freq: runs, residual, total: population_total }
    }

    /// Build from **unsorted** data with a budget of `k` buckets total —
    /// byte-identical to [`Self::from_sorted`] of the sorted data
    /// (property-tested), routed by shape.
    ///
    /// On light-tailed shapes the heavy values are found by **rank
    /// probing** (see `find_heavy_values`) and verified with one exact
    /// counting pass; the residual multiset is filtered unsorted and
    /// handed to [`EquiHeightHistogram::from_unsorted_threads`], which
    /// resolves its separator ranks through the radix resolver. Total
    /// cost: ~5 linear passes, no `O(n log n)` anywhere. When a shape
    /// probe shows heavy values dominating the column, the builder falls
    /// back to sort + [`Self::from_sorted`] instead (see
    /// `heavy_dominated`).
    ///
    /// # Panics
    /// If `values` is empty or `k == 0`.
    pub fn from_unsorted(values: &[i64], k: usize) -> Self {
        Self::from_unsorted_threads(parallel::num_threads(), values, k)
    }

    /// [`Self::from_unsorted`] with an explicit thread count (results are
    /// bit-identical at any thread count).
    pub fn from_unsorted_threads(threads: usize, values: &[i64], k: usize) -> Self {
        assert!(k > 0, "a histogram needs at least one bucket");
        assert!(!values.is_empty(), "cannot build a histogram of an empty value set");
        if heavy_dominated(values, k) {
            samplehist_obs::global().counter("histogram.compressed.route.sorted", 1);
            let mut sorted = values.to_vec();
            sorted.sort_unstable();
            return Self::from_sorted(&sorted, k);
        }
        Self::from_unsorted_sortfree(threads, values, k)
    }

    /// Sort-free path of [`Self::from_unsorted_threads`], whatever the
    /// input shape.
    fn from_unsorted_sortfree(threads: usize, values: &[i64], k: usize) -> Self {
        samplehist_obs::global().counter("histogram.compressed.sortfree", 1);
        let n = values.len() as u64;
        let threshold = n as f64 / k as f64;
        let runs = find_heavy_values(threads, values, threshold, k);
        debug_assert!(runs.len() < k, "pigeonhole: at most k-1 values exceed n/k");

        let residual_k = k - runs.len();
        let mut residual_values = filter_residual(values, &runs);
        let residual = (!residual_values.is_empty()).then(|| {
            EquiHeightHistogram::from_unsorted_threads(threads, &mut residual_values, residual_k)
        });

        Self { high_freq: runs, residual, total: n }
    }

    /// Sort-free counterpart of [`Self::from_sorted_sample`]:
    /// byte-identical output (heavy counts scaled by `n/r` with the same
    /// float rounding, residual scaled with the same largest-remainder
    /// rule), routed by shape like [`Self::from_unsorted`].
    ///
    /// # Panics
    /// If the sample is empty, `k == 0`, or the population is smaller
    /// than the sample.
    pub fn from_unsorted_sample(sample: &[i64], k: usize, population_total: u64) -> Self {
        Self::from_unsorted_sample_threads(parallel::num_threads(), sample, k, population_total)
    }

    /// [`Self::from_unsorted_sample`] with an explicit thread count.
    pub fn from_unsorted_sample_threads(
        threads: usize,
        sample: &[i64],
        k: usize,
        population_total: u64,
    ) -> Self {
        assert!(k > 0, "a histogram needs at least one bucket");
        assert!(!sample.is_empty(), "cannot build a histogram from an empty sample");
        assert!(
            population_total >= sample.len() as u64,
            "population ({population_total}) smaller than sample ({})",
            sample.len()
        );
        if heavy_dominated(sample, k) {
            samplehist_obs::global().counter("histogram.compressed.route.sorted", 1);
            let mut sorted = sample.to_vec();
            sorted.sort_unstable();
            return Self::from_sorted_sample(&sorted, k, population_total);
        }
        Self::from_unsorted_sample_sortfree(threads, sample, k, population_total)
    }

    /// Sort-free path of [`Self::from_unsorted_sample_threads`], whatever
    /// the sample shape.
    fn from_unsorted_sample_sortfree(
        threads: usize,
        sample: &[i64],
        k: usize,
        population_total: u64,
    ) -> Self {
        samplehist_obs::global().counter("histogram.compressed.sortfree", 1);
        let r = sample.len() as u64;
        let scale = population_total as f64 / r as f64;
        let threshold = r as f64 / k as f64;
        let sample_runs = find_heavy_values(threads, sample, threshold, k);
        debug_assert!(sample_runs.len() < k, "pigeonhole: at most k-1 values exceed r/k");

        let runs: Vec<(i64, u64)> =
            sample_runs.iter().map(|&(v, c)| (v, (c as f64 * scale).round() as u64)).collect();
        let residual_k = k - runs.len();
        let mut residual_sample = filter_residual(sample, &runs);
        let heavy_total: u64 = runs.iter().map(|&(_, c)| c).sum();
        let residual_total = population_total.saturating_sub(heavy_total).max(
            residual_sample.len() as u64, // never claim fewer than observed
        );
        let residual = (!residual_sample.is_empty()).then(|| {
            EquiHeightHistogram::from_unsorted_sample_threads(
                threads,
                &mut residual_sample,
                residual_k,
                residual_total,
            )
        });

        Self { high_freq: runs, residual, total: population_total }
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

/// Exact `(value, count)` pairs with count strictly above `threshold`,
/// ascending, found **without sorting**.
///
/// Rank probing: let `t = max(⌊n/k⌋, 1)`. A heavy value (count
/// `> n/k`, hence `≥ t + 1`) occupies at least `t + 1` consecutive
/// positions of the sorted multiset, so that run necessarily covers a
/// rank that is a multiple of `t`. Resolving the ranks `{0, t, 2t, …}`
/// (at most `⌊n/t⌋ + 1 ≈ k + 1` of them) through the radix rank
/// resolver therefore surfaces every heavy value among the probe
/// results; one exact counting pass over the candidates (binary search
/// into the ≤ k+1 sorted probe values) filters the false positives and
/// supplies exact counts. Cost: the resolver's ~3 linear passes plus
/// one verification pass.
fn find_heavy_values(threads: usize, values: &[i64], threshold: f64, k: usize) -> Vec<(i64, u64)> {
    let t = (values.len() / k).max(1);
    let probes: Vec<usize> = (0..values.len()).step_by(t).collect();
    let resolution = radix::resolve_ranks_threads(threads, values, &probes);
    let mut candidates: Vec<i64> = resolution.entries.into_iter().map(|(v, _)| v).collect();
    candidates.dedup(); // probe values arrive ascending
    samplehist_obs::global().counter("histogram.compressed.candidates", candidates.len() as u64);
    let counts = count_candidates(threads, values, &candidates);
    candidates.into_iter().zip(counts).filter(|&(_, c)| c as f64 > threshold).collect()
}

/// One exact counting pass of `values` against the ascending
/// `candidates` (chunk-parallel with a sequential reduce).
fn count_candidates(threads: usize, values: &[i64], candidates: &[i64]) -> Vec<u64> {
    let tally = |chunk: &[i64]| {
        let mut counts = vec![0u64; candidates.len()];
        for &v in chunk {
            if let Ok(i) = candidates.binary_search(&v) {
                counts[i] += 1;
            }
        }
        counts
    };
    if threads <= 1 || values.len() < PAR_COUNT_MIN {
        return tally(values);
    }
    let partials = parallel::par_chunks_map(threads, values, threads, tally);
    let mut out = vec![0u64; candidates.len()];
    for partial in partials {
        for (acc, c) in out.iter_mut().zip(partial) {
            *acc += c;
        }
    }
    out
}

/// The values that are not in the (ascending) heavy side table, in
/// input order.
fn filter_residual(values: &[i64], runs: &[(i64, u64)]) -> Vec<i64> {
    if runs.is_empty() {
        return values.to_vec();
    }
    values
        .iter()
        .copied()
        .filter(|v| runs.binary_search_by_key(v, |&(hv, _)| hv).is_err())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::true_range_count;
    use crate::histogram::CompressedIndex;
    use proptest::prelude::*;

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
    fn sortfree_matches_sorted_path() {
        // Forced sort-free path: skewed_data's heavy mass (0.8) would
        // otherwise auto-route to the sorted builder and test nothing.
        let data = skewed_data();
        let shuffled = strided(&data);
        for k in [1usize, 2, 3, 10, 40] {
            let reference = CompressedHistogram::from_sorted(&data, k);
            for threads in [1usize, 4] {
                let got = CompressedHistogram::from_unsorted_sortfree(threads, &shuffled, k);
                assert_eq!(got, reference, "k={k} threads={threads}");
            }
        }
    }

    #[test]
    fn sortfree_sample_matches_sorted_sample_path() {
        let data = skewed_data();
        let shuffled = strided(&data);
        for (k, pop) in [(10usize, 5_000u64), (4, 1_000), (1, 999_999)] {
            let reference = CompressedHistogram::from_sorted_sample(&data, k, pop);
            for threads in [1usize, 4] {
                let got =
                    CompressedHistogram::from_unsorted_sample_sortfree(threads, &shuffled, k, pop);
                assert_eq!(got, reference, "k={k} pop={pop} threads={threads}");
            }
        }
    }

    #[test]
    fn sortfree_all_one_value_and_no_heavy_edges() {
        // Every tuple heavy: empty residual. (Forced sort-free — auto
        // would route this fully-dominated input to the sorted builder.)
        let data = vec![5i64; 100];
        let h = CompressedHistogram::from_unsorted_sortfree(1, &data, 4);
        assert_eq!(h, CompressedHistogram::from_sorted(&data, 4));
        assert!(h.residual().is_none());

        // No value heavy: pure equi-height residual.
        let sorted: Vec<i64> = (0..1000).collect();
        let h = CompressedHistogram::from_unsorted(&strided(&sorted), 10);
        assert_eq!(h, CompressedHistogram::from_sorted(&sorted, 10));
        assert!(h.high_frequency_values().is_empty());

        // More buckets than values: t clamps to 1, all ranks probed.
        let tiny = vec![3i64, 1, 2];
        let mut tiny_sorted = tiny.clone();
        tiny_sorted.sort_unstable();
        let h = CompressedHistogram::from_unsorted(&tiny, 8);
        assert_eq!(h, CompressedHistogram::from_sorted(&tiny_sorted, 8));
    }

    #[test]
    fn auto_route_resolves_by_heavy_mass() {
        // 90% of the column is one value: sorted builder territory.
        let mut dominated = vec![7i64; 9_000];
        dominated.extend(0..1_000);
        assert!(heavy_dominated(&dominated, 10));

        // All-distinct column: no heavy mass at all, stays sort-free.
        let distinct: Vec<i64> = (0..10_000).collect();
        assert!(!heavy_dominated(&distinct, 10));

        // And both paths build the same histogram.
        let mut sorted = dominated;
        sorted.sort_unstable();
        let shuffled = strided(&sorted);
        let sortfree = CompressedHistogram::from_unsorted_sortfree(1, &shuffled, 10);
        assert_eq!(sortfree, CompressedHistogram::from_sorted(&sorted, 10));
        assert_eq!(sortfree, CompressedHistogram::from_unsorted(&shuffled, 10));
    }

    #[test]
    #[should_panic(expected = "empty value set")]
    fn empty_rejected() {
        let _ = CompressedHistogram::from_sorted(&[], 4);
    }

    #[test]
    #[should_panic(expected = "empty value set")]
    fn sortfree_empty_rejected() {
        let _ = CompressedHistogram::from_unsorted(&[], 4);
    }

    /// Heavy-duplicate Zipf-like multisets: a few runs big enough to trip
    /// the radix refinement's heavy-slice detector (≥ 8192 tuples per
    /// run, and heavy mass dominating `n`), plus a light scattered tail,
    /// over a domain wide enough that the top radix pass cannot resolve
    /// values exactly.
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The sort-free compressed histogram (rank probing + exact
        /// counting, no global order ever established) equals the
        /// sort-based one on heavy-duplicate multisets — plain and
        /// sampled, serial and parallel. The sort-free path is forced:
        /// these skewed inputs would otherwise auto-route to the sorted
        /// builder and test nothing.
        #[test]
        fn sortfree_compressed_equals_sort_path(
            data in skewed_multiset(1 << 32),
            k in 1usize..24,
            extra_pop in 0u64..50_000,
        ) {
            super::super::test_recording();
            let mut sorted = data.clone();
            sorted.sort_unstable();
            let reference = CompressedHistogram::from_sorted(&sorted, k);
            let pop = data.len() as u64 + extra_pop;
            let sampled_reference = CompressedHistogram::from_sorted_sample(&sorted, k, pop);
            for threads in [1usize, 4] {
                prop_assert_eq!(
                    &CompressedHistogram::from_unsorted_sortfree(threads, &data, k),
                    &reference,
                    "threads = {}", threads
                );
                prop_assert_eq!(
                    &CompressedHistogram::from_unsorted_sample_sortfree(threads, &data, k, pop),
                    &sampled_reference,
                    "sampled, threads = {}", threads
                );
            }
        }

        /// The shape routing is invisible in the output: for mixtures
        /// sweeping the heavy-mass fraction across the routing
        /// threshold, the forced sort-free path and the shape-routed
        /// entry point both equal the sorted builder (which is also the
        /// heavy-dominated path), plain and sampled.
        #[test]
        fn compressed_routing_is_byte_invisible(
            heavy_count in 0usize..4000,
            light in prop::collection::vec(-1000i64..1000, 2000usize),
            k in 2usize..16,
            extra_pop in 0u64..50_000,
        ) {
            // heavy fraction = heavy_count / (heavy_count + 2000) ∈ [0, 0.67):
            // cases land on both sides of the 0.5 routing threshold.
            let mut data = vec![123i64; heavy_count];
            data.extend(light);
            let mut sorted = data.clone();
            sorted.sort_unstable();
            let reference = CompressedHistogram::from_sorted(&sorted, k);
            let pop = data.len() as u64 + extra_pop;
            let sampled_reference = CompressedHistogram::from_sorted_sample(&sorted, k, pop);
            prop_assert_eq!(
                &CompressedHistogram::from_unsorted_sortfree(1, &data, k),
                &reference,
                "sortfree"
            );
            prop_assert_eq!(&CompressedHistogram::from_unsorted_threads(1, &data, k), &reference, "auto");
            prop_assert_eq!(
                &CompressedHistogram::from_unsorted_sample_sortfree(1, &data, k, pop),
                &sampled_reference,
                "sampled sortfree"
            );
            prop_assert_eq!(
                &CompressedHistogram::from_unsorted_sample_threads(1, &data, k, pop),
                &sampled_reference,
                "sampled auto"
            );
        }
    }
}
