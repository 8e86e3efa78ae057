//! The frequency-of-frequencies profile `f_j` that every distinct-value
//! estimator consumes.
//!
//! `f_j` is the number of distinct values occurring **exactly** `j` times
//! in the sample (paper Section 6.2); `Σ j·f_j = r` and `Σ f_j = d_sample`.
//! Stored sparsely (multiplicity → count) because skewed data can put one
//! value hundreds of thousands of times into a sample while only a handful
//! of multiplicities actually occur.

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
    /// Build the profile of a **sorted** sample: one serial pass that
    /// gallops from run to run, tallying multiplicities below 64 in a
    /// dense array.
    ///
    /// # Panics
    /// If the sample is empty or not sorted.
    pub fn from_sorted_sample(sorted: &[i64]) -> Self {
        assert!(!sorted.is_empty(), "cannot profile an empty sample");
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sample must be sorted");
        let freqs = tally_runs(sorted);
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

/// Multiplicities below this are tallied in a dense array; only longer
/// runs, of which a sample holds few, go through a map.
const DENSE_MULTIPLICITIES: usize = 64;

/// Run lengths of a sorted slice → `(multiplicity, count of runs)`,
/// ascending in multiplicity.
fn tally_runs(sorted: &[i64]) -> Vec<(u64, u64)> {
    let mut dense = [0u64; DENSE_MULTIPLICITIES];
    let mut long = std::collections::BTreeMap::new();
    // Singletons, the commonest run, count in a register rather than
    // through `dense[1]`'s load-add-store chain.
    let mut singletons = 0u64;
    let mut start = 0usize;
    while start < sorted.len() {
        let end = run_end(sorted, start);
        match end - start {
            1 => singletons += 1,
            len if len < DENSE_MULTIPLICITIES => dense[len] += 1,
            len => *long.entry(len as u64).or_insert(0) += 1,
        }
        start = end;
    }
    dense[1] = singletons;
    let short = (1..DENSE_MULTIPLICITIES).filter(|&j| dense[j] > 0).map(|j| (j as u64, dense[j]));
    short.chain(long).collect()
}

/// End of the run of equal values starting at `start`: gallop past it in
/// steps 1, 2, 4, …, then binary-search the last step. A singleton costs
/// one comparison, a run of length `m` O(log m).
fn run_end(sorted: &[i64], start: usize) -> usize {
    let v = sorted[start];
    if sorted.get(start + 1) != Some(&v) {
        return start + 1;
    }
    let mut step = 2usize;
    while sorted.get(start + step) == Some(&v) {
        step *= 2;
    }
    // `sorted[start + step / 2]` is `v`; the run ends by `start + step`.
    let lo = start + step / 2 + 1;
    let hi = (start + step).min(sorted.len());
    lo + sorted[lo..hi].partition_point(|&x| x == v)
}

#[cfg(test)]
mod tests {
    use super::*;

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
