//! Density — the duplicate-ness statistic SQL Server collects alongside
//! each histogram (paper Section 7.1: "Density 0.0 implies that all values
//! in the column are distinct, while density 1.0 implies that all values
//! in the column are identical").
//!
//! Two related quantities are provided:
//!
//! * [`duplication_density`] — the normalized form matching the paper's
//!   0.0/1.0 endpoints exactly: the probability that two *distinct* tuples
//!   drawn at random share a value,
//!   `(Σ c_v² − n) / (n² − n)`.
//! * [`squared_frequency_density`] — the un-normalized second moment
//!   `Σ (c_v/n)²`, the probability that two independent tuples share a
//!   value; `n ×` this is the expected result size of an equality
//!   predicate whose constant is drawn like the data, which is how an
//!   optimizer uses density for `WHERE col = ?`.

/// Per-value multiplicities of a **sorted** multiset.
fn run_lengths(sorted: &[i64]) -> impl Iterator<Item = u64> + '_ {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
    let mut i = 0usize;
    std::iter::from_fn(move || {
        if i >= sorted.len() {
            return None;
        }
        let v = sorted[i];
        let start = i;
        while i < sorted.len() && sorted[i] == v {
            i += 1;
        }
        Some((i - start) as u64)
    })
}

/// The paper's density: probability that two tuples drawn without
/// replacement share a value. 0.0 iff all values are distinct, 1.0 iff all
/// are identical. Input must be sorted.
///
/// # Panics
/// If `sorted` is empty.
pub fn duplication_density(sorted: &[i64]) -> f64 {
    assert!(!sorted.is_empty(), "density of an empty multiset is undefined");
    let n = sorted.len() as u64;
    if n == 1 {
        // A single tuple has no pair to collide with; call it distinct.
        return 0.0;
    }
    let sum_sq: u128 = run_lengths(sorted).map(|c| (c as u128) * (c as u128)).sum();
    ((sum_sq - n as u128) as f64) / ((n as u128 * n as u128 - n as u128) as f64)
}

/// [`duplication_density`] computed from a [`FrequencyProfile`] instead
/// of sorted data: `Σ_j j²·f_j` over the profile is the same integer as
/// `Σ_v c_v²` over the runs, and the final float expression is
/// identical, so the result is **bit-identical** to
/// `duplication_density(sorted)` — `ANALYZE` takes its density from the
/// profile it already built instead of a second pass over the runs.
///
/// [`FrequencyProfile`]: crate::distinct::FrequencyProfile
pub fn duplication_density_from_profile(profile: &crate::distinct::FrequencyProfile) -> f64 {
    let n = profile.sample_size();
    if n <= 1 {
        return 0.0;
    }
    let sum_sq: u128 = profile.iter().map(|(j, f)| (j as u128) * (j as u128) * (f as u128)).sum();
    ((sum_sq - n as u128) as f64) / ((n as u128 * n as u128 - n as u128) as f64)
}

/// The second frequency moment `Σ (c_v/n)²` — probability two
/// independently drawn tuples share a value. Ranges over `[1/n, 1]`.
/// Input must be sorted.
pub fn squared_frequency_density(sorted: &[i64]) -> f64 {
    assert!(!sorted.is_empty(), "density of an empty multiset is undefined");
    let n = sorted.len() as f64;
    let sum_sq: u128 = run_lengths(sorted).map(|c| (c as u128) * (c as u128)).sum();
    sum_sq as f64 / (n * n)
}

/// Expected result size of an equality predicate `col = c` when `c` is
/// drawn with the data's own distribution: `Σ c_v² / n = n ×`
/// [`squared_frequency_density`]. This is the estimate an optimizer
/// produces from the density statistic for parameterized equality
/// predicates.
pub fn expected_equality_matches(sorted: &[i64]) -> f64 {
    squared_frequency_density(sorted) * sorted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_distinct_is_zero() {
        let data: Vec<i64> = (0..1000).collect();
        assert_eq!(duplication_density(&data), 0.0);
        assert!((squared_frequency_density(&data) - 1.0 / 1000.0).abs() < 1e-15);
    }

    #[test]
    fn all_identical_is_one() {
        let data = vec![7i64; 500];
        assert_eq!(duplication_density(&data), 1.0);
        assert_eq!(squared_frequency_density(&data), 1.0);
    }

    #[test]
    fn halfway_case() {
        // Two values, each half the data: P(two distinct tuples collide)
        // = 2 * C(n/2, 2) / C(n, 2).
        let mut data = vec![1i64; 50];
        data.extend(std::iter::repeat(2i64).take(50));
        let expected = 2.0 * (50.0 * 49.0 / 2.0) / (100.0 * 99.0 / 2.0);
        assert!((duplication_density(&data) - expected).abs() < 1e-12);
        assert!((squared_frequency_density(&data) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn singleton_input() {
        assert_eq!(duplication_density(&[42]), 0.0);
        assert_eq!(squared_frequency_density(&[42]), 1.0);
    }

    #[test]
    fn equality_matches_on_unif_dup() {
        // Every value exactly 100 times: an equality lookup returns 100.
        let mut data: Vec<i64> = Vec::new();
        for v in 0..50 {
            data.extend(std::iter::repeat(v as i64).take(100));
        }
        assert!((expected_equality_matches(&data) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn density_monotone_in_duplication() {
        // More duplication -> higher density.
        let low: Vec<i64> = (0..100).collect();
        let mut mid: Vec<i64> = (0..50).flat_map(|v| [v, v]).collect();
        mid.sort_unstable();
        let mut high: Vec<i64> = (0..10).flat_map(|v| std::iter::repeat(v).take(10)).collect();
        high.sort_unstable();
        let (dl, dm, dh) =
            (duplication_density(&low), duplication_density(&mid), duplication_density(&high));
        assert!(dl < dm && dm < dh, "{dl} {dm} {dh}");
    }

    #[test]
    fn profile_density_is_bit_identical() {
        use crate::distinct::FrequencyProfile;
        let mut x = 0x5151_5151u64 | 1;
        let mut sorted: Vec<i64> = (0..30_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 499) as i64
            })
            .collect();
        sorted.sort_unstable();
        let from_sorted = duplication_density(&sorted);
        let profile = FrequencyProfile::from_sorted_sample(&sorted);
        let from_profile = duplication_density_from_profile(&profile);
        assert_eq!(from_sorted.to_bits(), from_profile.to_bits());
        // Endpoint cases too.
        let ones = FrequencyProfile::from_pairs(vec![(1, 100)]);
        assert_eq!(duplication_density_from_profile(&ones), 0.0);
        let all_same = FrequencyProfile::from_pairs(vec![(100, 1)]);
        assert_eq!(duplication_density_from_profile(&all_same), 1.0);
        let single = FrequencyProfile::from_pairs(vec![(1, 1)]);
        assert_eq!(duplication_density_from_profile(&single), 0.0);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn empty_rejected() {
        let _ = duplication_density(&[]);
    }
}
