//! Equi-height histograms and friends (paper Sections 2.1 and 5).
//!
//! A *k*-histogram over a totally ordered domain is a sequence of
//! separators `s_1 ≤ … ≤ s_{k-1}` inducing buckets
//! `B_j = { v : s_{j-1} < v ≤ s_j }` with the conventions `s_0 = −∞` and
//! `s_k = +∞`. An **equi-height** k-histogram chooses the separators so
//! every bucket holds (as close as possible to) `n/k` of the `n` values.
//!
//! Three construction paths are provided:
//!
//! * [`EquiHeightHistogram::from_sorted`] — the *perfect* histogram from a
//!   full scan + sort, the reference point for every error metric.
//! * [`EquiHeightHistogram::from_sorted_sample`] — the *approximate*
//!   histogram: separators from a random sample, per-bucket counts scaled
//!   up to the population size. This is what a sampling-based `ANALYZE`
//!   stores in the catalog.
//! * [`CompressedHistogram`] — Section 5's "standard approach" for
//!   duplicate-heavy columns: values with multiplicity above `n/k` are
//!   stored exactly, the residue gets an equi-height histogram.
//!
//! Two supporting pieces round the module out: [`EquiWidthHistogram`],
//! the classical baseline equi-height displaced (kept for the ablation
//! benches), and [`index`], the serve-time branchless bucket indexes
//! estimation routes through once statistics are built.

mod builder;
mod compressed;
mod equi_height;
mod equi_width;
pub mod index;
mod maintained;
mod sort;

pub use builder::HistogramBuilder;
pub use compressed::CompressedHistogram;
pub use equi_height::{BucketRef, EquiHeightHistogram};
pub use equi_width::EquiWidthHistogram;
pub use index::{BucketIndex, CompressedIndex, LeCursor};
pub use maintained::{
    MaintainedHistogram, PatchOutcome, PatchPolicy, PatchRefusal, PatchableStats, PatchedStats,
};
pub use sort::{sort_values, GrowingSample};

/// The routing rule of the deleted radix construction path: `true` for
/// inputs of at least 8192 values whose `k − 1` separators number at
/// most one eighth of them. Nothing in this workspace calls it; perfbench's
/// `replay_scan` still imports it, and it goes when that replay times
/// ANALYZE's one sort.
#[doc(hidden)]
pub fn selection_profitable(n: usize, k: usize) -> bool {
    k >= 2 && n >= 8 * 1024 && (k - 1).saturating_mul(8) <= n
}

/// Number of elements of the **sorted** slice that are `≤ v`.
///
/// This is the primitive every bucket-counting routine reduces to: the size
/// of bucket `B_j = (s_{j-1}, s_j]` over sorted data is
/// `count_le(data, s_j) − count_le(data, s_{j-1})`.
pub fn count_le(sorted: &[i64], v: i64) -> usize {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
    sorted.partition_point(|&x| x <= v)
}

/// Number of elements of the **sorted** slice that are `< v`.
pub fn count_lt(sorted: &[i64], v: i64) -> usize {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
    sorted.partition_point(|&x| x < v)
}

/// Count, over **sorted** data, how many values fall in each bucket of the
/// histogram defined by `separators` (which must be non-decreasing). The
/// result has `separators.len() + 1` entries and sums to `sorted.len()`.
pub fn bucket_counts(sorted: &[i64], separators: &[i64]) -> Vec<u64> {
    debug_assert!(separators.windows(2).all(|w| w[0] <= w[1]), "separators must be non-decreasing");
    let mut counts = Vec::with_capacity(separators.len() + 1);
    let mut prev = 0usize;
    for &s in separators {
        let c = count_le(sorted, s);
        debug_assert!(c >= prev);
        counts.push((c - prev) as u64);
        prev = c;
    }
    counts.push((sorted.len() - prev) as u64);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_le_lt_basics() {
        let data = [1, 2, 2, 2, 5, 9];
        assert_eq!(count_le(&data, 0), 0);
        assert_eq!(count_le(&data, 1), 1);
        assert_eq!(count_le(&data, 2), 4);
        assert_eq!(count_le(&data, 3), 4);
        assert_eq!(count_le(&data, 9), 6);
        assert_eq!(count_le(&data, 100), 6);
        assert_eq!(count_lt(&data, 2), 1);
        assert_eq!(count_lt(&data, 10), 6);
        assert_eq!(count_lt(&data, 1), 0);
    }

    #[test]
    fn bucket_counts_partition_the_data() {
        let data = [1, 2, 3, 4, 5, 6, 7, 8];
        // Buckets: (-inf,2], (2,5], (5,+inf) -> 2, 3, 3
        assert_eq!(bucket_counts(&data, &[2, 5]), vec![2, 3, 3]);
        // No separators: one bucket with everything.
        assert_eq!(bucket_counts(&data, &[]), vec![8]);
        // Repeated separators yield empty middle buckets.
        assert_eq!(bucket_counts(&data, &[4, 4]), vec![4, 0, 4]);
    }

    #[test]
    fn bucket_counts_with_duplicates() {
        let data = [3, 3, 3, 3, 7, 7];
        // A separator equal to the duplicated value pulls all copies left.
        assert_eq!(bucket_counts(&data, &[3]), vec![4, 2]);
        assert_eq!(bucket_counts(&data, &[2]), vec![0, 6]);
    }

    #[test]
    fn bucket_counts_empty_data() {
        let data: [i64; 0] = [];
        assert_eq!(bucket_counts(&data, &[1, 2]), vec![0, 0, 0]);
    }
}
