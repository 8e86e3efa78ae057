//! Range-query result-size estimation from an equi-height histogram,
//! evaluated against ground truth.
//!
//! The estimate is the "typical strategy" of paper Section 2.2, served by
//! [`BucketIndex`]: for a query interval `[x, y]`, sum the full buckets
//! strictly inside the range and interpolate the two partial buckets at
//! the ends, assuming values are spread uniformly across each bucket's
//! domain interval. Interpolation is the irreducible source of error —
//! even the perfect histogram carries up to `2n/k` of it (Theorem 1.1) —
//! and histogram *count* error adds on top, which is exactly what
//! Theorems 1 and 3 quantify.

use crate::histogram::{count_le, BucketIndex};

/// Exact output size of `x ≤ v ≤ y` over sorted data (ground truth).
pub fn true_range_count(sorted: &[i64], x: i64, y: i64) -> u64 {
    if x > y {
        return 0;
    }
    let hi = count_le(sorted, y);
    let lo = if x == i64::MIN { 0 } else { count_le(sorted, x - 1) };
    (hi - lo) as u64
}

/// One evaluated range query: estimate vs truth, with both error forms
/// used by Theorems 1 and 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeQueryError {
    /// The histogram's estimate.
    pub estimate: f64,
    /// The true output size.
    pub truth: u64,
    /// `|estimate − truth|`.
    pub absolute: f64,
    /// `|estimate − truth| / truth`, or `None` for empty results (the
    /// paper: relative error needs "the output size ... not too small to
    /// get any meaningful numbers").
    pub relative: Option<f64>,
}

/// Evaluate the query `x ≤ v ≤ y` with a histogram's `index` against
/// ground truth `sorted`.
pub fn evaluate_range_query(
    index: &BucketIndex,
    sorted: &[i64],
    x: i64,
    y: i64,
) -> RangeQueryError {
    let estimate = index.estimate_range(x, y);
    let truth = true_range_count(sorted, x, y);
    let absolute = (estimate - truth as f64).abs();
    let relative = (truth > 0).then(|| absolute / truth as f64);
    RangeQueryError { estimate, truth, absolute, relative }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::range::max_bounded_envelope;
    use crate::error::max_error_against;
    use crate::histogram::{CompressedHistogram, CompressedIndex, EquiHeightHistogram};

    fn uniform(n: i64) -> Vec<i64> {
        (1..=n).collect()
    }

    #[test]
    fn estimate_le_edges() {
        let data = uniform(100);
        let h = EquiHeightHistogram::from_sorted(&data, 10);
        let est = BucketIndex::new(&h);
        assert_eq!(est.estimate_le(0), 0.0);
        assert_eq!(est.estimate_le(100), 100.0);
        assert_eq!(est.estimate_le(1_000_000), 100.0);
        assert_eq!(est.estimate_lt(i64::MIN), 0.0);
    }

    #[test]
    fn uniform_data_interpolates_exactly() {
        // On perfectly uniform integer data the continuous assumption is
        // exact at every point.
        let data = uniform(1000);
        let h = EquiHeightHistogram::from_sorted(&data, 10);
        let est = BucketIndex::new(&h);
        for t in [1i64, 37, 100, 499, 500, 777, 999] {
            let truth = count_le(&data, t) as f64;
            assert!(
                (est.estimate_le(t) - truth).abs() < 1e-9,
                "t = {t}: est {} vs {truth}",
                est.estimate_le(t)
            );
        }
    }

    #[test]
    fn range_queries_on_uniform_data() {
        let data = uniform(1000);
        let h = EquiHeightHistogram::from_sorted(&data, 10);
        let est = BucketIndex::new(&h);
        assert!((est.estimate_range(101, 200) - 100.0).abs() < 1e-9);
        assert!((est.estimate_range(1, 1000) - 1000.0).abs() < 1e-9);
        assert_eq!(est.estimate_range(500, 499), 0.0, "empty range");
        assert!((est.estimate_range(1, 500) / h.total() as f64 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn true_range_count_brute_force_agreement() {
        let mut data = vec![5i64, 5, 5, 9, 12, 12, 40, 41, 42, 100];
        data.sort_unstable();
        for (x, y) in [(0, 4), (5, 5), (5, 12), (13, 39), (40, 100), (i64::MIN, i64::MAX)] {
            let brute = data.iter().filter(|&&v| v >= x && v <= y).count() as u64;
            assert_eq!(true_range_count(&data, x, y), brute, "({x},{y})");
        }
    }

    #[test]
    fn degenerate_bucket_behaviour_plain_vs_compressed() {
        // One value dominating: the heavy mass lands in the bucket whose
        // upper separator is the value itself, and a plain equi-height
        // histogram *smears* it across the bucket's domain width under the
        // continuous-uniform assumption. A point query on the heavy value
        // therefore underestimates badly — this is precisely the Section 5
        // problem that compressed histograms exist to fix.
        let mut data = vec![50i64; 90];
        data.extend([1, 2, 3, 4, 5, 96, 97, 98, 99, 100]);
        data.sort_unstable();
        let h = EquiHeightHistogram::from_sorted(&data, 10);
        let est = BucketIndex::new(&h);
        // Plain histogram: the 95-tuple bucket (-inf, 50] is spread over
        // (min-1, 50], so [50,50] sees only ~1/50 of it.
        let plain = est.estimate_range(50, 50);
        assert!(plain < 10.0, "plain histogram should smear: {plain}");
        // But a range covering the whole bucket gets the mass right.
        let covering = est.estimate_range(0, 50);
        assert!((covering - 95.0).abs() < 1e-9, "covering query: {covering}");

        // Compressed histogram: exact for the heavy value.
        let c = CompressedIndex::new(&CompressedHistogram::from_sorted(&data, 10));
        assert_eq!(c.estimate_eq(50), 90.0);
        // And the light tail is no longer contaminated by the heavy mass.
        let light = c.estimate_range(96, 100);
        assert!((light - 5.0).abs() < 3.0, "light range: {light}");
    }

    /// Theorem 3 end-to-end: a histogram whose separators deviate from the
    /// ideal ranks by at most δ (measured here as the *cumulative* form of
    /// the max error, which is what Theorem 4's proof actually bounds)
    /// keeps every range query's absolute error within `2·(n/k + δ)` —
    /// the `(1 + f)·2n/k` envelope with `f = δ/(n/k)`.
    #[test]
    fn theorem_3_envelope_holds_empirically() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        // Skewed data: value density rises quadratically.
        let mut data: Vec<i64> = (0..30_000)
            .map(|_| {
                let u: f64 = rng.gen();
                (u.sqrt() * 100_000.0) as i64
            })
            .collect();
        data.sort_unstable();
        let n = data.len() as u64;
        let k = 25;
        // An approximate histogram from a modest sample.
        let sample = crate::sampling::with_replacement(&data, 4000, &mut rng);
        let h = EquiHeightHistogram::from_unsorted_sample(sample, k, n);

        // Measured cumulative max deviation: max_j |C(s_j) − j·n/k|.
        let ideal = n as f64 / k as f64;
        let delta_cum = h
            .separators()
            .iter()
            .enumerate()
            .map(|(j, &s)| (count_le(&data, s) as f64 - (j + 1) as f64 * ideal).abs())
            .fold(0.0f64, f64::max);
        let f_cum = delta_cum / ideal;
        // (Sanity: the per-bucket max error is within 2× the cumulative.)
        let f_bucket = max_error_against(&h, &data).relative_max();
        assert!(f_bucket <= 2.0 * f_cum + 1e-9);

        // Theorem 3 envelope at f = f_cum, plus the ±1-per-bucket rounding
        // slack of the stored (scaled) counts.
        let envelope = max_bounded_envelope(n, k, 1.0, f_cum).absolute + 2.0 * k as f64;
        let index = BucketIndex::new(&h);
        for _ in 0..200 {
            let a = rng.gen_range(0..100_000i64);
            let b = rng.gen_range(0..100_000i64);
            let (x, y) = (a.min(b), a.max(b));
            let err = evaluate_range_query(&index, &data, x, y);
            assert!(
                err.absolute <= envelope + 1e-6,
                "query [{x},{y}]: abs err {} > envelope {envelope}",
                err.absolute
            );
        }
    }

    #[test]
    fn relative_error_is_none_on_empty_result() {
        let data = uniform(100);
        let h = EquiHeightHistogram::from_sorted(&data, 4);
        let err = evaluate_range_query(&BucketIndex::new(&h), &data, 2000, 3000);
        assert_eq!(err.truth, 0);
        assert!(err.relative.is_none());
    }
}
