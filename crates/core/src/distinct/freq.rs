//! The frequency-of-frequencies profile `f_j` that every distinct-value
//! estimator consumes.
//!
//! `f_j` is the number of distinct values occurring **exactly** `j` times
//! in the sample (paper Section 6.2); `Σ j·f_j = r` and `Σ f_j = d_sample`.
//! Stored sparsely (multiplicity → count) because skewed data can put one
//! value hundreds of thousands of times into a sample while only a handful
//! of multiplicities actually occur.

use samplehist_parallel::PROFILE_FORK_MIN_LEN;

/// Sparse frequency-of-frequencies profile of one sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequencyProfile {
    /// `(j, f_j)` pairs with `f_j > 0`, ascending in `j`.
    freqs: Vec<(u64, u64)>,
    /// Sample size `r = Σ j·f_j`.
    sample_size: u64,
    /// Distinct values in the sample, `d_sample = Σ f_j`.
    distinct: u64,
}

impl FrequencyProfile {
    /// Build the profile of a **sorted** sample.
    ///
    /// Samples of at least [`PROFILE_FORK_MIN_LEN`] values are profiled
    /// chunk-parallel: the sample is cut at run-aligned boundaries (a
    /// boundary never splits a run of equal values, so every run is
    /// counted whole by exactly one chunk), each
    /// chunk's run lengths are tallied independently, and the per-chunk
    /// multiplicity maps are merged in chunk order. The result is
    /// bit-identical to the serial tally at any thread count.
    ///
    /// # Panics
    /// If the sample is empty or not sorted.
    pub fn from_sorted_sample(sorted: &[i64]) -> Self {
        Self::from_sorted_sample_threads(samplehist_parallel::num_threads(), sorted)
    }

    /// [`Self::from_sorted_sample`] with an explicit thread budget
    /// (`threads <= 1` runs serially) — used by the determinism tests.
    pub fn from_sorted_sample_threads(threads: usize, sorted: &[i64]) -> Self {
        assert!(!sorted.is_empty(), "cannot profile an empty sample");
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sample must be sorted");

        let by_multiplicity = if threads <= 1 || sorted.len() < PROFILE_FORK_MIN_LEN {
            tally_runs(sorted)
        } else {
            let segments = run_aligned_segments(sorted, threads);
            let partials =
                samplehist_parallel::par_map_threads(threads, &segments, |seg| tally_runs(seg));
            let mut merged = std::collections::BTreeMap::new();
            for partial in partials {
                for (j, f) in partial {
                    *merged.entry(j).or_insert(0) += f;
                }
            }
            merged
        };
        let freqs: Vec<(u64, u64)> = by_multiplicity.into_iter().collect();
        let sample_size = freqs.iter().map(|&(j, f)| j * f).sum();
        let distinct = freqs.iter().map(|&(_, f)| f).sum();
        debug_assert_eq!(sample_size, sorted.len() as u64);
        Self { freqs, sample_size, distinct }
    }

    /// Build the profile of an **unsorted** sample: sort a copy, then
    /// [`Self::from_sorted_sample`].
    ///
    /// # Panics
    /// If the sample is empty.
    pub fn from_unsorted_sample(values: &[i64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        Self::from_sorted_sample(&sorted)
    }

    /// Build directly from `(multiplicity, count)` pairs — used by tests
    /// and by the adversarial constructions, where the profile is known
    /// analytically.
    ///
    /// # Panics
    /// If pairs are not strictly ascending in multiplicity, contain zeros,
    /// or the profile is empty.
    pub fn from_pairs(pairs: Vec<(u64, u64)>) -> Self {
        assert!(!pairs.is_empty(), "profile must be non-empty");
        assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "multiplicities must be strictly ascending"
        );
        assert!(
            pairs.iter().all(|&(j, f)| j > 0 && f > 0),
            "multiplicities and counts must be positive"
        );
        let sample_size = pairs.iter().map(|&(j, f)| j * f).sum();
        let distinct = pairs.iter().map(|&(_, f)| f).sum();
        Self { freqs: pairs, sample_size, distinct }
    }

    /// `f_j`: distinct values appearing exactly `j` times in the sample.
    pub fn f(&self, j: u64) -> u64 {
        self.freqs.binary_search_by_key(&j, |&(m, _)| m).map(|idx| self.freqs[idx].1).unwrap_or(0)
    }

    /// Singletons, `f_1` — the quantity every estimator pivots on.
    pub fn f1(&self) -> u64 {
        self.f(1)
    }

    /// Doubletons, `f_2`.
    pub fn f2(&self) -> u64 {
        self.f(2)
    }

    /// Distinct values appearing **at least twice**: `Σ_{j≥2} f_j`.
    pub fn repeated(&self) -> u64 {
        self.distinct - self.f1()
    }

    /// Sample size `r`.
    pub fn sample_size(&self) -> u64 {
        self.sample_size
    }

    /// Distinct values observed in the sample, `d_sample`.
    pub fn distinct_in_sample(&self) -> u64 {
        self.distinct
    }

    /// Largest multiplicity any value has in the sample.
    pub fn max_multiplicity(&self) -> u64 {
        self.freqs.last().map(|&(j, _)| j).unwrap_or(0)
    }

    /// Iterate `(j, f_j)` pairs with `f_j > 0`, ascending in `j`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.freqs.iter().copied()
    }

    /// `Σ j·(j−1)·f_j` — the raw ingredient of the Chao–Lee coefficient of
    /// variation.
    pub fn sum_j_jm1_f(&self) -> u64 {
        self.freqs.iter().map(|&(j, f)| j * (j - 1) * f).sum()
    }

    /// The Chao–Lee estimate of the squared coefficient of variation of
    /// the population frequencies,
    /// `γ̂² = max(0, (d/Ĉ) · Σ j(j−1)f_j / (r(r−1)) − 1)`
    /// with `Ĉ = 1 − f₁/r` the sample-coverage estimate. Returns 0 when
    /// the sample is a single tuple or the coverage estimate is 0.
    pub fn squared_cv_estimate(&self) -> f64 {
        let r = self.sample_size as f64;
        if r < 2.0 {
            return 0.0;
        }
        let coverage = 1.0 - self.f1() as f64 / r;
        if coverage <= 0.0 {
            return 0.0;
        }
        let d0 = self.distinct as f64 / coverage;
        let gamma2 = d0 * self.sum_j_jm1_f() as f64 / (r * (r - 1.0)) - 1.0;
        gamma2.max(0.0)
    }
}

/// Run lengths of a sorted slice → multiplicity → count-of-runs map.
fn tally_runs(sorted: &[i64]) -> std::collections::BTreeMap<u64, u64> {
    let mut by_multiplicity = std::collections::BTreeMap::new();
    let mut i = 0usize;
    while i < sorted.len() {
        let v = sorted[i];
        let start = i;
        while i < sorted.len() && sorted[i] == v {
            i += 1;
        }
        *by_multiplicity.entry((i - start) as u64).or_insert(0) += 1;
    }
    by_multiplicity
}

/// Cut `sorted` into at most `pieces` contiguous segments whose boundaries
/// never split a run of equal values. Boundaries depend only on the data
/// and `pieces` — not on scheduling — so parallel profiling stays
/// deterministic.
fn run_aligned_segments(sorted: &[i64], pieces: usize) -> Vec<&[i64]> {
    let mut segments = Vec::with_capacity(pieces);
    let target = sorted.len().div_ceil(pieces.max(1));
    let mut start = 0usize;
    while start < sorted.len() {
        let mut end = (start + target).min(sorted.len());
        if end < sorted.len() {
            // Push the cut to the end of the run containing it.
            let run_value = sorted[end - 1];
            end += sorted[end..].partition_point(|&v| v == run_value);
        }
        segments.push(&sorted[start..end]);
        start = end;
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_profile_is_bit_identical_to_serial() {
        // Skewed sorted data with runs that straddle naive chunk cuts,
        // long enough that the tally forks.
        let prom = crate::histogram::test_recording();
        let mut sorted: Vec<i64> = Vec::new();
        let mut x = 0x1234_5678u64 | 1;
        let mut v = 0i64;
        while sorted.len() < PROFILE_FORK_MIN_LEN {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let run = 1 + (x % 19) * (x % 7) * (x % 1009) / 37;
            sorted.extend(std::iter::repeat(v).take(run as usize));
            v += 1;
        }
        let serial = FrequencyProfile::from_sorted_sample_threads(1, &sorted);
        let forks = || prom.counter_value("parallel.par_map.calls").unwrap_or(0);
        for threads in [2, 3, 4, 7, 8, 64] {
            let before = forks();
            assert_eq!(
                FrequencyProfile::from_sorted_sample_threads(threads, &sorted),
                serial,
                "threads={threads}"
            );
            assert!(forks() > before, "threads={threads}: the tally must fork");
        }
    }

    #[test]
    fn run_aligned_segments_never_split_runs() {
        let sorted = vec![1i64, 1, 1, 2, 2, 3, 3, 3, 3, 3, 4];
        for pieces in 1..=8 {
            let segs = run_aligned_segments(&sorted, pieces);
            assert_eq!(segs.iter().map(|s| s.len()).sum::<usize>(), sorted.len());
            for pair in segs.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                assert!(!a.is_empty() && !b.is_empty());
                assert_ne!(a.last(), b.first(), "pieces={pieces} split a run");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn unsorted_empty_sample_rejected() {
        let _ = FrequencyProfile::from_unsorted_sample(&[]);
    }

    #[test]
    fn profile_of_mixed_sample() {
        // 1,1,1,2,3,3,4 -> f_1 = 2 (values 2,4), f_2 = 1 (value 3),
        // f_3 = 1 (value 1).
        let sorted = [1i64, 1, 1, 2, 3, 3, 4];
        let p = FrequencyProfile::from_sorted_sample(&sorted);
        assert_eq!(p.f1(), 2);
        assert_eq!(p.f2(), 1);
        assert_eq!(p.f(3), 1);
        assert_eq!(p.f(4), 0);
        assert_eq!(p.sample_size(), 7);
        assert_eq!(p.distinct_in_sample(), 4);
        assert_eq!(p.repeated(), 2);
        assert_eq!(p.max_multiplicity(), 3);
    }

    #[test]
    fn invariants_sum_correctly() {
        let sorted: Vec<i64> = vec![5, 5, 5, 5, 7, 8, 8, 9, 9, 9];
        let p = FrequencyProfile::from_sorted_sample(&sorted);
        let r: u64 = p.iter().map(|(j, f)| j * f).sum();
        let d: u64 = p.iter().map(|(_, f)| f).sum();
        assert_eq!(r, p.sample_size());
        assert_eq!(d, p.distinct_in_sample());
        assert_eq!(r, 10);
        assert_eq!(d, 4);
    }

    #[test]
    fn all_distinct_profile() {
        let sorted: Vec<i64> = (0..50).collect();
        let p = FrequencyProfile::from_sorted_sample(&sorted);
        assert_eq!(p.f1(), 50);
        assert_eq!(p.repeated(), 0);
        assert_eq!(p.max_multiplicity(), 1);
        assert_eq!(p.sum_j_jm1_f(), 0);
    }

    #[test]
    fn single_value_profile() {
        let sorted = vec![3i64; 20];
        let p = FrequencyProfile::from_sorted_sample(&sorted);
        assert_eq!(p.f(20), 1);
        assert_eq!(p.f1(), 0);
        assert_eq!(p.distinct_in_sample(), 1);
        assert_eq!(p.sum_j_jm1_f(), 20 * 19);
    }

    #[test]
    fn from_pairs_round_trip() {
        let p = FrequencyProfile::from_pairs(vec![(1, 10), (3, 2)]);
        assert_eq!(p.sample_size(), 16);
        assert_eq!(p.distinct_in_sample(), 12);
        assert_eq!(p.f(3), 2);
    }

    #[test]
    fn squared_cv_zero_for_uniform_multiplicities() {
        // All values seen exactly twice: a homogeneous profile.
        let sorted: Vec<i64> = (0..30).flat_map(|v| [v, v]).collect();
        let p = FrequencyProfile::from_sorted_sample(&sorted);
        let cv = p.squared_cv_estimate();
        assert!(cv < 0.1, "cv² = {cv}");
    }

    #[test]
    fn squared_cv_large_for_skew() {
        // One value 100 times plus 50 singletons.
        let mut s = vec![0i64; 100];
        s.extend(1..=50);
        s.sort_unstable();
        let p = FrequencyProfile::from_sorted_sample(&s);
        let cv = p.squared_cv_estimate();
        assert!(cv > 5.0, "cv² = {cv}");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_pairs_rejects_disorder() {
        let _ = FrequencyProfile::from_pairs(vec![(3, 1), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_rejected() {
        let _ = FrequencyProfile::from_sorted_sample(&[]);
    }
}
