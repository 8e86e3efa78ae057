//! Equi-width histograms — the classical baseline equi-height replaced.
//!
//! The paper takes equi-height as given ("commonly used in many
//! commercial optimizers"); this module implements the alternative it
//! displaced so the ablation benches can quantify *why*: equi-width
//! buckets assign equal domain ranges rather than equal tuple counts, so
//! skewed data piles most tuples into a few buckets and range-query
//! interpolation error explodes with the skew, while equi-height error
//! stays bounded by bucket mass (Theorem 1.1's `2n/k`).

/// An equi-width k-histogram: `k` buckets of equal domain width spanning
/// `[min, max]`, with exact per-bucket counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquiWidthHistogram {
    min: i64,
    max: i64,
    counts: Vec<u64>,
}

impl EquiWidthHistogram {
    /// Build from **sorted** data.
    ///
    /// Bucket `j` covers `[min + j·w, min + (j+1)·w)` with
    /// `w = (max − min + 1)/k` (the last bucket absorbs the rounding
    /// remainder and is closed at `max`).
    ///
    /// # Panics
    /// If the data is empty, unsorted, or `k == 0`.
    pub fn from_sorted(sorted: &[i64], k: usize) -> Self {
        assert!(k > 0, "a histogram needs at least one bucket");
        assert!(!sorted.is_empty(), "cannot build a histogram of an empty value set");
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");

        let min = sorted[0];
        let max = *sorted.last().expect("non-empty");
        let mut counts = vec![0u64; k];
        for &v in sorted {
            counts[Self::bucket_index(min, max, k, v)] += 1;
        }
        Self { min, max, counts }
    }

    fn bucket_index(min: i64, max: i64, k: usize, v: i64) -> usize {
        debug_assert!(v >= min && v <= max);
        let span = (max as i128 - min as i128) + 1;
        let offset = v as i128 - min as i128;
        ((offset * k as i128) / span) as usize
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.counts.len()
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total tuples summarized.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Smallest / largest value covered.
    pub fn domain(&self) -> (i64, i64) {
        (self.min, self.max)
    }

    /// The inclusive domain interval of bucket `j`.
    pub fn bucket_bounds(&self, j: usize) -> (i64, i64) {
        let k = self.counts.len() as i128;
        let span = (self.max as i128 - self.min as i128) + 1;
        let lo = self.min as i128 + (span * j as i128).div_euclid(k);
        let hi = self.min as i128 + (span * (j as i128 + 1)).div_euclid(k) - 1;
        (lo as i64, hi as i64)
    }

    /// Estimated number of values `≤ t`, with uniform interpolation
    /// inside the bucket containing `t`.
    pub fn estimate_le(&self, t: i64) -> f64 {
        if t < self.min {
            return 0.0;
        }
        if t >= self.max {
            return self.total() as f64;
        }
        let j = Self::bucket_index(self.min, self.max, self.counts.len(), t);
        let below: u64 = self.counts[..j].iter().sum();
        let (lo, hi) = self.bucket_bounds(j);
        let fraction = if hi > lo { (t - lo + 1) as f64 / (hi - lo + 1) as f64 } else { 1.0 };
        below as f64 + fraction * self.counts[j] as f64
    }

    /// Estimated output size of the inclusive range `[x, y]`.
    pub fn estimate_range(&self, x: i64, y: i64) -> f64 {
        if x > y {
            return 0.0;
        }
        let lo = if x == i64::MIN { 0.0 } else { self.estimate_le(x - 1) };
        (self.estimate_le(y) - lo).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_data_even_buckets() {
        let data: Vec<i64> = (0..100).collect();
        let h = EquiWidthHistogram::from_sorted(&data, 10);
        assert_eq!(h.num_buckets(), 10);
        assert!(h.counts().iter().all(|&c| c == 10));
        assert_eq!(h.total(), 100);
        assert_eq!(h.domain(), (0, 99));
    }

    #[test]
    fn bucket_bounds_partition_the_domain() {
        let data: Vec<i64> = (5..=27).collect();
        let h = EquiWidthHistogram::from_sorted(&data, 4);
        let mut expected_lo = 5i64;
        for j in 0..4 {
            let (lo, hi) = h.bucket_bounds(j);
            assert_eq!(lo, expected_lo, "bucket {j} starts where the last ended");
            assert!(hi >= lo);
            expected_lo = hi + 1;
        }
        assert_eq!(expected_lo, 28, "buckets cover exactly [5, 27]");
    }

    #[test]
    fn skew_piles_into_one_bucket() {
        // 90% of tuples at the bottom of a wide domain.
        let mut data = vec![0i64; 900];
        data.extend((1..=100).map(|i| i * 1000));
        data.sort_unstable();
        let h = EquiWidthHistogram::from_sorted(&data, 10);
        assert!(h.counts()[0] >= 900, "skew lands in bucket 0: {:?}", h.counts());
    }

    #[test]
    fn estimate_exact_on_uniform() {
        let data: Vec<i64> = (0..1000).collect();
        let h = EquiWidthHistogram::from_sorted(&data, 10);
        for t in [0i64, 99, 100, 555, 999] {
            let truth = (t + 1) as f64;
            assert!(
                (h.estimate_le(t) - truth).abs() < 1e-9,
                "t={t}: {} vs {truth}",
                h.estimate_le(t)
            );
        }
        assert!((h.estimate_range(100, 199) - 100.0).abs() < 1e-9);
        assert_eq!(h.estimate_range(10, 5), 0.0);
    }

    /// The ablation's premise: on skewed data the equi-width estimate of
    /// a head-range query is far worse than equi-height's.
    #[test]
    fn worse_than_equi_height_on_skew() {
        use crate::estimate::evaluate_range_query;
        use crate::histogram::{BucketIndex, EquiHeightHistogram};

        // Zipf-ish: value v appears ~1/(v+1) times, values up to 100k.
        let mut data = Vec::new();
        for v in 0..1000i64 {
            let copies = (2000 / (v + 1)) as usize;
            data.extend(std::iter::repeat(v * 100).take(copies.max(1)));
        }
        data.sort_unstable();
        let k = 20;
        let eh = BucketIndex::new(&EquiHeightHistogram::from_sorted(&data, k));
        let ew = EquiWidthHistogram::from_sorted(&data, k);

        // A query inside the dense head.
        let (x, y) = (0i64, 500);
        let truth = crate::estimate::true_range_count(&data, x, y) as f64;
        let eh_err = evaluate_range_query(&eh, &data, x, y).absolute;
        let ew_err = (ew.estimate_range(x, y) - truth).abs();
        assert!(
            ew_err > 3.0 * eh_err.max(1.0),
            "equi-width err {ew_err} vs equi-height err {eh_err} (truth {truth})"
        );
    }

    #[test]
    fn single_value_domain() {
        let data = vec![7i64; 50];
        let h = EquiWidthHistogram::from_sorted(&data, 5);
        assert_eq!(h.total(), 50);
        assert_eq!(h.estimate_range(7, 7), 50.0);
        assert_eq!(h.estimate_range(8, 9), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty value set")]
    fn empty_rejected() {
        let _ = EquiWidthHistogram::from_sorted(&[], 4);
    }
}
