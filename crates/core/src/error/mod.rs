//! Error metrics for approximate histograms (paper Sections 2 and 5).
//!
//! The paper's central observation is that the classical *aggregate*
//! metrics — average error Δavg and variance error Δvar — permit an
//! approximate histogram to be wildly wrong in one region while still
//! looking good overall, which translates directly into unbounded
//! range-query estimation errors (Theorem 1). Its proposed replacement is
//! the **max error metric** Δmax (Definition 1): the largest absolute
//! deviation of any bucket from the ideal size `n/k`. A histogram with
//! `Δmax ≤ δ` is called *δ-deviant*.
//!
//! This module provides:
//! * [`ErrorSummary`] / [`summarize_counts`] — Δavg, Δvar, Δmax over a set
//!   of bucket counts (Section 2.2/2.3 formulas, verified against the
//!   paper's Example 2 numbers).
//! * [`max_error_against`] and [`compare`] — evaluate a histogram's
//!   separators against a (sorted) dataset, the "partition V with the
//!   sample's separators" operation of Section 3.1.
//! * [`delta_separation`] — Definition 2's bucket-boundary metric: the
//!   largest symmetric difference between corresponding buckets of two
//!   k-histograms over the same value set.
//! * [`fractional_max_error`] — Definition 4's generalization of the max
//!   error to duplicate-valued data with repeated separators; this is the
//!   metric the adaptive CVB algorithm cross-validates with (from rank
//!   counts, through the same gap walk).

mod fractional;
mod metrics;
mod separation;

pub(crate) use fractional::fractional_max_from_counts;
pub use fractional::{
    fractional_max_error, histogram_fractional_error, FractionalGap, FractionalReport,
};
pub use metrics::{summarize_counts, ErrorSummary};
pub use separation::{delta_separation, is_delta_separated, SeparationReport};

use crate::histogram::EquiHeightHistogram;

/// Partition `sorted_data` with `hist`'s separators and summarize the
/// deviation of the resulting bucket counts from the ideal `n/k`
/// (`n = sorted_data.len()`, `k = hist.num_buckets()`).
///
/// This is the evaluation step of paper Section 3.1: the histogram's
/// quality is judged by how evenly *the population* splits under the
/// *sample-derived* separators.
pub fn max_error_against(hist: &EquiHeightHistogram, sorted_data: &[i64]) -> ErrorSummary {
    compare(hist, sorted_data).summary
}

/// Everything [`max_error_against`] computes, plus the recounted bucket
/// sizes for callers that want to inspect where the error lives.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramComparison {
    /// Δavg / Δvar / Δmax of the recounted buckets.
    pub summary: ErrorSummary,
    /// The population's bucket counts under the histogram's separators.
    pub counts: Vec<u64>,
}

/// See [`max_error_against`]; also returns the recounted bucket sizes.
pub fn compare(hist: &EquiHeightHistogram, sorted_data: &[i64]) -> HistogramComparison {
    let counts = crate::histogram::bucket_counts(sorted_data, hist.separators());
    let summary = summarize_counts(&counts, sorted_data.len() as u64);
    HistogramComparison { summary, counts }
}

/// Is `hist` δ-deviant with respect to `sorted_data` (Definition 1)?
pub fn is_delta_deviant(hist: &EquiHeightHistogram, sorted_data: &[i64], delta: f64) -> bool {
    max_error_against(hist, sorted_data).delta_max <= delta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_histogram_has_tiny_deviation() {
        let data: Vec<i64> = (0..1000).collect();
        let h = EquiHeightHistogram::from_sorted(&data, 10);
        let err = max_error_against(&h, &data);
        // Duplicate-free data, k | n: deviation is exactly zero.
        assert_eq!(err.delta_max, 0.0);
        assert!(is_delta_deviant(&h, &data, 0.0));
    }

    #[test]
    fn perfect_histogram_non_divisible_deviation_below_one() {
        let data: Vec<i64> = (0..1003).collect();
        let h = EquiHeightHistogram::from_sorted(&data, 10);
        let err = max_error_against(&h, &data);
        assert!(err.delta_max < 1.0, "Δmax = {}", err.delta_max);
    }

    #[test]
    fn compare_exposes_recounted_buckets() {
        // Separators from a skewed "sample", evaluated on uniform data.
        let sample = vec![1i64, 2, 3, 4]; // k=2 -> separator [2]
        let h = EquiHeightHistogram::from_sorted_sample(&sample, 2, 100);
        let population: Vec<i64> = (1..=100).collect();
        let cmp = compare(&h, &population);
        assert_eq!(cmp.counts, vec![2, 98]);
        assert_eq!(cmp.summary.delta_max, 48.0); // |2 - 50| = |98 - 50| = 48
        assert!(!is_delta_deviant(&h, &population, 10.0));
        assert!(is_delta_deviant(&h, &population, 48.0));
    }
}
