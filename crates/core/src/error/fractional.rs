//! The fractional max error f′ for duplicate-valued data (Definition 4).
//!
//! When a value occurs more than `n/k` times, adjacent separators collapse
//! onto it and the per-bucket max error of Definition 1 becomes ill-defined
//! (several buckets describe the *same* value and cannot be told apart).
//! Definition 4 therefore measures error over the **distinct separator
//! values** `d_1 < … < d_m`: for each gap between consecutive distinct
//! separators it compares the fraction of a *reference* distribution that
//! falls in the gap (`f_{j+1} − f_j`, from the sample the histogram was
//! built on) with the fraction of an *observed* distribution (`p_{j+1} −
//! p_j`, from the validation sample or the full data), normalized by the
//! reference fraction:
//!
//! ```text
//! f′ = max_j  |(f_{j+1} − f_j) − (p_{j+1} − p_j)|  /  (f_{j+1} − f_j)
//! ```
//!
//! Boundary convention: we take `d_0 = −∞` and `d_{m+1} = +∞`, so
//! `f_0 = p_0 = 0` and `f_{m+1} = p_{m+1} = 1`, and the maximum runs over
//! all `m + 1` gaps. (The paper's formula indexes `j = 1 … m`, leaving the
//! first gap `(−∞, d_1]` implicit; including it is the conservative
//! reading and is required for f′ to reduce to Definition 1's `f` on
//! duplicate-free data, which the paper states it does.) Gaps with zero
//! reference mass are skipped — the denominator would be 0 and the gap
//! describes a region the reference sample believes is empty.

use crate::histogram::count_le;

/// One gap between consecutive distinct separator values, with both
/// distributions' mass in it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FractionalGap {
    /// Upper distinct separator bounding the gap (`None` = +∞ gap).
    pub upper: Option<i64>,
    /// Reference-distribution mass of the gap (`f_{j+1} − f_j`).
    pub reference_fraction: f64,
    /// Observed-distribution mass of the gap (`p_{j+1} − p_j`).
    pub observed_fraction: f64,
    /// `|reference − observed| / reference`, or `None` when the gap has
    /// zero reference mass.
    pub relative_error: Option<f64>,
}

/// Full output of [`fractional_max_error`].
#[derive(Debug, Clone, PartialEq)]
pub struct FractionalReport {
    /// Distinct separator values `d_1 < … < d_m`.
    pub distinct_separators: Vec<i64>,
    /// Per-gap details (`m + 1` gaps, including the `+∞` gap).
    pub gaps: Vec<FractionalGap>,
    /// The metric: maximum relative gap error (0 if every gap was skipped).
    pub max: f64,
}

impl FractionalReport {
    /// Index of the gap achieving the maximum, if any gap was measurable.
    pub fn argmax(&self) -> Option<usize> {
        self.gaps
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.relative_error.map(|e| (i, e)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("errors are finite"))
            .map(|(i, _)| i)
    }
}

/// Compute Definition 4's fractional max error f′.
///
/// * `separators` — the current histogram's separators (possibly with
///   repeats), non-decreasing.
/// * `reference_sorted` — the sorted multiset the separators were derived
///   from (the accumulated sample `R` in the adaptive algorithm); supplies
///   the `f_j`.
/// * `observed_sorted` — the sorted multiset being compared (the
///   cross-validation sample `R_i`, or the full data when measuring true
///   error); supplies the `p_j`.
///
/// On duplicate-free data with distinct separators this equals Definition
/// 1's relative max error `Δmax/(n/k)` of the observed data partitioned by
/// the separators — see the `reduces_to_definition_1` test.
///
/// # Panics
/// If either multiset is empty or separators are not non-decreasing.
pub fn fractional_max_error(
    separators: &[i64],
    reference_sorted: &[i64],
    observed_sorted: &[i64],
) -> FractionalReport {
    assert!(!reference_sorted.is_empty(), "reference multiset must be non-empty");
    assert!(!observed_sorted.is_empty(), "observed multiset must be non-empty");
    assert!(separators.windows(2).all(|w| w[0] <= w[1]), "separators must be non-decreasing");

    let mut distinct: Vec<i64> = separators.to_vec();
    distinct.dedup();

    let mut gaps = Vec::with_capacity(distinct.len() + 1);
    let max = fractional_max_from_counts(
        &distinct,
        (|j| count_le(reference_sorted, distinct[j]) as u64, reference_sorted.len() as u64),
        (|j| count_le(observed_sorted, distinct[j]) as u64, observed_sorted.len() as u64),
        |gap| gaps.push(gap),
    );
    FractionalReport { distinct_separators: distinct, gaps, max }
}

/// Definition 4's gap walk over cumulative counts — the one place f′'s
/// float arithmetic lives, so every caller that feeds it the same counts
/// gets the same bits.
///
/// `distinct` holds the distinct separators `d_1 < … < d_m`; each side is
/// `(le, total)`, where `le(j)` is that distribution's mass at or below
/// `distinct[j]` and `total` its whole mass, so its cumulative fraction
/// there is `le(j) / total`. Calls `on_gap` for each of the `m + 1` gaps
/// (the `+∞` gap last) and returns the maximum relative gap error (0 if
/// every gap was skipped).
pub(crate) fn fractional_max_from_counts(
    distinct: &[i64],
    (reference_le, reference_total): (impl Fn(usize) -> u64, u64),
    (observed_le, observed_total): (impl Fn(usize) -> u64, u64),
    mut on_gap: impl FnMut(FractionalGap),
) -> f64 {
    let nr = reference_total as f64;
    let no = observed_total as f64;
    let mut max = 0.0f64;
    let (mut prev_f, mut prev_p) = (0.0f64, 0.0f64);
    let cumulative = distinct
        .iter()
        .enumerate()
        .map(|(j, &d)| (Some(d), reference_le(j) as f64 / nr, observed_le(j) as f64 / no));
    // The +∞ gap: everything above the last distinct separator.
    for (upper, f_cum, p_cum) in cumulative.chain([(None, 1.0, 1.0)]) {
        let rf = f_cum - prev_f;
        let of = p_cum - prev_p;
        let rel = if rf > 0.0 { Some((rf - of).abs() / rf) } else { None };
        if let Some(e) = rel {
            if e > max {
                max = e;
            }
        }
        on_gap(FractionalGap {
            upper,
            reference_fraction: rf,
            observed_fraction: of,
            relative_error: rel,
        });
        prev_f = f_cum;
        prev_p = p_cum;
    }
    max
}

/// Definition 4's fractional max error of a **stored histogram** against a
/// fresh observed sample, using the histogram's own bucket masses as the
/// reference distribution.
///
/// [`fractional_max_error`] needs the sorted multiset the separators were
/// derived from; a statistics catalog does not retain that sample. But the
/// histogram already records each bucket's mass, and bucket `j`'s mass
/// lies entirely in `(s_{j-1}, s_j]` — so the reference cumulative
/// fraction at every distinct separator is exact from the stored counts
/// alone: `f(d) = (Σ counts of buckets with upper separator ≤ d) / n`.
/// This is what a Theorem-7-style *staleness probe* evaluates: draw a
/// small fresh sample, partition it with the stored separators, and
/// compare gap masses. A histogram whose true error stayed within the
/// build-time target passes a `2f` threshold with high probability; one
/// the data has drifted away from fails it (same accept/reject geometry
/// as the cross-validation test inside CVB).
///
/// # Panics
/// If `observed_sorted` is empty.
pub fn histogram_fractional_error(
    histogram: &crate::histogram::EquiHeightHistogram,
    observed_sorted: &[i64],
) -> FractionalReport {
    assert!(!observed_sorted.is_empty(), "observed multiset must be non-empty");
    let separators = histogram.separators();
    let counts = histogram.counts();

    // Collapse runs of equal separators into one distinct separator whose
    // cumulative mass covers every bucket ending at that value (mirrors
    // `fractional_max_error`'s dedup).
    let mut distinct = Vec::with_capacity(separators.len());
    let mut reference_le = Vec::with_capacity(separators.len());
    let mut cum: u64 = 0;
    let mut i = 0;
    while i < separators.len() {
        let d = separators[i];
        while i < separators.len() && separators[i] == d {
            cum += counts[i];
            i += 1;
        }
        distinct.push(d);
        reference_le.push(cum);
    }

    // The +∞ gap compares the last bucket's mass with everything observed
    // above the last distinct separator.
    let mut gaps = Vec::with_capacity(distinct.len() + 1);
    let max = fractional_max_from_counts(
        &distinct,
        (|j| reference_le[j], histogram.total()),
        (|j| count_le(observed_sorted, distinct[j]) as u64, observed_sorted.len() as u64),
        |gap| gaps.push(gap),
    );
    FractionalReport { distinct_separators: distinct, gaps, max }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::EquiHeightHistogram;

    #[test]
    fn identical_distributions_have_zero_error() {
        let data: Vec<i64> = (0..100).collect();
        let h = EquiHeightHistogram::from_sorted(&data, 10);
        let rep = fractional_max_error(h.separators(), &data, &data);
        assert_eq!(rep.max, 0.0);
        assert_eq!(rep.gaps.len(), 10); // 9 distinct separators + inf gap
    }

    /// The paper: "When all values are distinct, f_{j+1} − f_j = 1/k and
    /// p_{j+1} − p_j reduces to b_j/n, and f′ reduces to f as in
    /// Definition 1."
    #[test]
    fn reduces_to_definition_1() {
        // Reference: 20 distinct values, k = 4 -> separators 5,10,15.
        let reference: Vec<i64> = (1..=20).collect();
        let h = EquiHeightHistogram::from_sorted(&reference, 4);
        // Observed population: skewed toward small values.
        let observed: Vec<i64> =
            (1..=20).flat_map(|v| std::iter::repeat(v).take(if v <= 5 { 10 } else { 1 })).collect();
        let rep = fractional_max_error(h.separators(), &reference, &observed);

        // Definition 1's relative f on the observed data:
        let def1 = crate::error::max_error_against(&h, &observed).relative_max();
        assert!((rep.max - def1).abs() < 1e-12, "f' = {} vs f = {}", rep.max, def1);
    }

    #[test]
    fn duplicate_separators_are_collapsed() {
        // A heavy value makes several separators identical.
        let mut reference = vec![5i64; 70];
        reference.extend(6..=35); // 30 tail values
        reference.sort_unstable();
        let h = EquiHeightHistogram::from_sorted(&reference, 10);
        assert!(h.separators().windows(2).any(|w| w[0] == w[1]), "test needs repeats");
        let rep = fractional_max_error(h.separators(), &reference, &reference);
        // Distinct separators strictly increase.
        assert!(rep.distinct_separators.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(rep.max, 0.0, "same multiset on both sides");
    }

    #[test]
    fn detects_mass_shift_in_one_gap() {
        // Reference says each of 4 gaps holds 25%; observed puts 70% in
        // the first gap.
        let reference: Vec<i64> = (1..=100).collect();
        let h = EquiHeightHistogram::from_sorted(&reference, 4); // seps 25,50,75
        let mut observed: Vec<i64> = std::iter::repeat(10i64).take(70).collect();
        observed.extend((76..=105).map(|v| v.min(100)));
        observed.sort_unstable();
        let rep = fractional_max_error(h.separators(), &reference, &observed);
        // First gap: reference 0.25, observed 0.70 -> rel err 1.8.
        assert!((rep.max - 1.8).abs() < 1e-9, "max = {}", rep.max);
        assert_eq!(rep.argmax(), Some(0));
    }

    #[test]
    fn zero_reference_gap_is_skipped() {
        // Separators 10,10 over reference data that has no values in some
        // gap: the degenerate (10,10] gap has zero reference mass.
        let reference = vec![5i64, 10, 10, 20];
        let observed = vec![5i64, 11, 12, 20];
        let rep = fractional_max_error(&[10, 10], &reference, &observed);
        // Gaps: (-inf,10] and (10,+inf) after dedup -> both measurable.
        assert_eq!(rep.distinct_separators, vec![10]);
        assert!(rep.gaps.iter().all(|g| g.relative_error.is_some()));
    }

    #[test]
    fn empty_separator_list_single_gap() {
        let data = vec![1i64, 2, 3];
        let rep = fractional_max_error(&[], &data, &data);
        assert_eq!(rep.gaps.len(), 1);
        assert_eq!(rep.max, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_reference_rejected() {
        let _ = fractional_max_error(&[1], &[], &[1]);
    }

    #[test]
    fn histogram_reference_matches_sample_reference() {
        // For an exact (full-scan) histogram the stored bucket counts are
        // the domain-rule counts of the build data, so using them as the
        // reference must reproduce `fractional_max_error` exactly —
        // including with duplicate separators from a heavy value.
        let mut data = vec![7i64; 60];
        data.extend(8..=47);
        data.sort_unstable();
        let h = EquiHeightHistogram::from_sorted(&data, 8);
        let observed: Vec<i64> = (0..50).map(|i| i % 40 + 5).collect();
        let mut observed = observed;
        observed.sort_unstable();
        let via_sample = fractional_max_error(h.separators(), &data, &observed);
        let via_histogram = histogram_fractional_error(&h, &observed);
        assert_eq!(via_histogram.distinct_separators, via_sample.distinct_separators);
        assert_eq!(via_histogram.gaps.len(), via_sample.gaps.len());
        for (a, b) in via_histogram.gaps.iter().zip(&via_sample.gaps) {
            assert!((a.reference_fraction - b.reference_fraction).abs() < 1e-12);
            assert!((a.observed_fraction - b.observed_fraction).abs() < 1e-12);
        }
        assert!((via_histogram.max - via_sample.max).abs() < 1e-12);
    }

    #[test]
    fn histogram_probe_passes_on_fresh_sample_fails_on_drift() {
        // A histogram of uniform data probes clean against more uniform
        // data and loudly fails once the distribution shifts.
        let data: Vec<i64> = (0..10_000).collect();
        let h = EquiHeightHistogram::from_sorted(&data, 20);
        let same: Vec<i64> = (0..10_000).step_by(7).collect();
        let rep = histogram_fractional_error(&h, &same);
        assert!(rep.max < 0.05, "uniform probe error {}", rep.max);

        let mut drifted: Vec<i64> = (0..10_000).map(|i| i % 500).collect();
        drifted.sort_unstable();
        let rep = histogram_fractional_error(&h, &drifted);
        assert!(rep.max > 1.0, "drifted probe error {}", rep.max);
    }
}
