//! Selectivity estimation from column statistics — the optimizer-facing
//! consumer that the paper's error analysis (Theorems 1 and 3) is about.

use crate::predicate::Predicate;
use crate::stats::ColumnStatistics;

/// One cardinality estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CardinalityEstimate {
    /// Estimated matching rows.
    pub rows: f64,
    /// `rows / num_rows`.
    pub selectivity: f64,
}

/// Estimate the output cardinality of an equi-join `A.x = B.y` from the
/// two columns' statistics.
///
/// The estimator refines the System-R formula `n_a·n_b / max(d_a, d_b)`
/// (paper's reference \[28\], where the paper notes distinct-count error
/// feeds "join-selectivity estimation formulas") by applying it **per
/// aligned domain fragment**: the union of both histograms' separators
/// splits the domain, each side's rows in a fragment come from histogram
/// interpolation, each side's distinct count in a fragment is apportioned
/// from its global distinct estimate in proportion to rows (the
/// uniform-duplication assumption), and the System-R formula is applied
/// fragment-wise. Fragments outside either column's [min, max] contribute
/// nothing — which is how histogram alignment beats the global formula on
/// partially overlapping domains.
///
/// One forward merge of the two sorted separator arrays visits the
/// fragment bounds in ascending order, and each side answers
/// `estimate_le(bound)` through a [`LeCursor`] that walks its buckets
/// instead of descending the tree. A fragment `(prev, bound]` holds
/// `(le(bound) − le(prev)).max(0)` rows, with each `le` computed once and
/// carried to the next fragment. The first `prev` is `lo − 1` (its `le`
/// is 0 when `lo == i64::MIN`). The cost is `O(k_a + k_b)` with no sort,
/// no descent and no allocation, and the float operations are those of
/// the scalar `estimate_le`-difference loop, so the result has its bits.
///
/// [`LeCursor`]: samplehist_core::histogram::LeCursor
pub fn estimate_equijoin(a: &ColumnStatistics, b: &ColumnStatistics) -> f64 {
    let (lo, hi) = (
        a.histogram.min_value().max(b.histogram.min_value()),
        a.histogram.max_value().min(b.histogram.max_value()),
    );
    if lo > hi {
        return 0.0;
    }
    let (da, db) = (a.distinct_estimate.max(1.0), b.distinct_estimate.max(1.0));
    let (na, nb) = (a.num_rows as f64, b.num_rows as f64);
    let mut cur_a = a.index().histogram.le_cursor();
    let mut cur_b = b.index().histogram.le_cursor();
    let (mut le_a, mut le_b) = if lo == i64::MIN {
        (0.0, 0.0)
    } else {
        (cur_a.estimate_le(lo - 1), cur_b.estimate_le(lo - 1))
    };
    let (seps_a, seps_b) = (a.histogram.separators(), b.histogram.separators());
    let (mut ia, mut ib) = (0, 0);
    let mut prev = lo;
    let mut total = 0.0f64;
    loop {
        // Next bound: the least separator of either side above `prev`,
        // capped at `hi` (separators repeat within and across sides).
        while ia < seps_a.len() && seps_a[ia] <= prev {
            ia += 1;
        }
        while ib < seps_b.len() && seps_b[ib] <= prev {
            ib += 1;
        }
        let next_a = seps_a.get(ia).copied().unwrap_or(i64::MAX);
        let next_b = seps_b.get(ib).copied().unwrap_or(i64::MAX);
        let bound = next_a.min(next_b).min(hi);
        let (bound_a, bound_b) = (cur_a.estimate_le(bound), cur_b.estimate_le(bound));
        let ra = (bound_a - le_a).max(0.0);
        let rb = (bound_b - le_b).max(0.0);
        if ra > 0.0 && rb > 0.0 {
            // Distinct values each side brings to this fragment,
            // apportioned by row mass; at least 1 once rows exist.
            let d_frag_a = (da * ra / na).max(1.0);
            let d_frag_b = (db * rb / nb).max(1.0);
            total += ra * rb / d_frag_a.max(d_frag_b);
        }
        if bound == hi {
            return total;
        }
        (le_a, le_b, prev) = (bound_a, bound_b, bound);
    }
}

/// Estimate the cardinality of `predicate` from `stats`.
///
/// Range predicates use the histogram with intra-bucket interpolation
/// (paper Section 2.2's "typical strategy"). Equality predicates take the
/// larger of the histogram's one-point range estimate (which catches
/// heavy values whose mass the histogram resolves) and the
/// rows-per-distinct implied by the distinct-count estimate (which
/// catches light values that interpolation would undercount) — the same
/// blend a production optimizer gets from its histogram + density pair.
/// Constants outside the observed [min, max] estimate to zero.
pub fn estimate_cardinality(
    stats: &ColumnStatistics,
    predicate: &Predicate,
) -> CardinalityEstimate {
    let n = stats.num_rows as f64;
    let index = stats.index();
    let rows = match predicate.as_range() {
        None => 0.0,
        Some((lo, hi)) => match (&index.compressed, predicate) {
            // A compressed histogram answers equality on a heavy value
            // exactly and keeps heavy mass out of range interpolation;
            // prefer it whenever ANALYZE built one. A single descent
            // both classifies the constant (heavy/light) and produces
            // the estimate — the old path bisected the side table for
            // membership and then again inside `estimate_eq`.
            (Some(c), Predicate::Eq(v)) => {
                let h = &stats.histogram;
                if *v < h.min_value() || *v > h.max_value() {
                    0.0
                } else {
                    let (est, heavy) = c.estimate_eq_classified(*v);
                    if heavy {
                        est
                    } else {
                        est.max(stats.rows_per_distinct())
                    }
                }
            }
            (Some(c), _) => c.estimate_range(lo, hi),
            (None, Predicate::Eq(v)) => {
                let h = &stats.histogram;
                if *v < h.min_value() || *v > h.max_value() {
                    0.0
                } else {
                    index.histogram.estimate_range(lo, hi).max(stats.rows_per_distinct())
                }
            }
            (None, _) => index.histogram.estimate_range(lo, hi),
        },
    };
    let rows = rows.clamp(0.0, n);
    CardinalityEstimate { rows, selectivity: if n > 0.0 { rows / n } else { 0.0 } }
}

/// Batched [`estimate_cardinality`]: `out[i]` is byte-identical to
/// `estimate_cardinality(stats, &predicates[i])`, but the probes are
/// partitioned by routing arm and each partition runs through the
/// eight-lane batch kernels in one call — one descent pass for every
/// plain range, one for every compressed range, one classified pass for
/// every compressed equality. This is what the wire server's per-column
/// request coalescing lands on: a socketful of predicates against the
/// same column costs a handful of interleaved tree descents instead of
/// one data-dependent walk per request.
///
/// # Panics
/// If `out.len() != predicates.len()`.
pub fn estimate_cardinality_batch(
    stats: &ColumnStatistics,
    predicates: &[Predicate],
    out: &mut [CardinalityEstimate],
) {
    assert_eq!(predicates.len(), out.len(), "output slice must match predicate count");
    let n = stats.num_rows as f64;
    let index = stats.index();
    let mut rows = vec![0.0f64; predicates.len()];
    // Partition satisfiable predicates by the arm the scalar router
    // would take; unsatisfiable ones stay at the 0.0 the scalar path
    // produces. `eq_*` is only populated on the compressed route —
    // plain equality shares the range kernel with a post-pass floor.
    let mut rg_slots: Vec<usize> = Vec::new();
    let mut rg_probes: Vec<(i64, i64)> = Vec::new();
    let mut rg_floor: Vec<bool> = Vec::new();
    let mut eq_slots: Vec<usize> = Vec::new();
    let mut eq_probes: Vec<i64> = Vec::new();
    let h = &stats.histogram;
    for (i, p) in predicates.iter().enumerate() {
        let Some((lo, hi)) = p.as_range() else { continue };
        if let Predicate::Eq(v) = p {
            if *v < h.min_value() || *v > h.max_value() {
                continue;
            }
            if index.compressed.is_some() {
                eq_slots.push(i);
                eq_probes.push(*v);
                continue;
            }
        }
        rg_slots.push(i);
        rg_probes.push((lo, hi));
        rg_floor.push(matches!(p, Predicate::Eq(_)));
    }
    match &index.compressed {
        Some(c) => {
            let mut rg_out = vec![0.0f64; rg_probes.len()];
            c.estimate_range_batch(&rg_probes, &mut rg_out);
            for (&slot, est) in rg_slots.iter().zip(rg_out) {
                rows[slot] = est;
            }
            let mut eq_out = vec![(0.0f64, false); eq_probes.len()];
            c.estimate_eq_classified_batch(&eq_probes, &mut eq_out);
            for (&slot, (est, heavy)) in eq_slots.iter().zip(eq_out) {
                rows[slot] = if heavy { est } else { est.max(stats.rows_per_distinct()) };
            }
        }
        None => {
            let mut rg_out = vec![0.0f64; rg_probes.len()];
            index.histogram.estimate_range_batch(&rg_probes, &mut rg_out);
            for ((&slot, est), floor) in rg_slots.iter().zip(rg_out).zip(rg_floor) {
                rows[slot] = if floor { est.max(stats.rows_per_distinct()) } else { est };
            }
        }
    }
    for (o, r) in out.iter_mut().zip(rows) {
        let r = r.clamp(0.0, n);
        *o = CardinalityEstimate { rows: r, selectivity: if n > 0.0 { r / n } else { 0.0 } };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, AnalyzeOptions};
    use crate::table::Table;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use samplehist_storage::Layout;

    fn stats_for(values: Vec<i64>, buckets: usize, seed: u64) -> ColumnStatistics {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Table::builder("t")
            .column_with_blocking("c", values, 100, Layout::Random, &mut rng)
            .build();
        analyze(&t, "c", &AnalyzeOptions::full_scan(buckets), &mut rng).expect("exists")
    }

    #[test]
    fn range_estimates_on_uniform_data() {
        let s = stats_for((1..=10_000).collect(), 100, 1);
        let est = estimate_cardinality(&s, &Predicate::Between { low: 1, high: 5000 });
        assert!((est.rows - 5000.0).abs() < 60.0, "rows = {}", est.rows);
        assert!((est.selectivity - 0.5).abs() < 0.01);

        let est = estimate_cardinality(&s, &Predicate::Lt(101));
        assert!((est.rows - 100.0).abs() < 15.0, "rows = {}", est.rows);

        let est = estimate_cardinality(&s, &Predicate::Ge(9001));
        assert!((est.rows - 1000.0).abs() < 30.0, "rows = {}", est.rows);
    }

    #[test]
    fn equality_uses_rows_per_distinct_floor() {
        // 100 copies of each of 100 values: eq estimate should be ~100,
        // not the interpolated sliver.
        let values: Vec<i64> = (0..100).flat_map(|v| vec![v * 1000; 100]).collect();
        let s = stats_for(values, 10, 2);
        let est = estimate_cardinality(&s, &Predicate::Eq(50_000));
        assert!((est.rows - 100.0).abs() < 20.0, "rows = {}", est.rows);
    }

    #[test]
    fn out_of_domain_constants_estimate_zero() {
        let s = stats_for((1..=1000).collect(), 10, 3);
        assert_eq!(estimate_cardinality(&s, &Predicate::Eq(100_000)).rows, 0.0);
        assert_eq!(estimate_cardinality(&s, &Predicate::Eq(-5)).rows, 0.0);
        let est = estimate_cardinality(&s, &Predicate::Gt(1000));
        assert_eq!(est.rows, 0.0);
    }

    #[test]
    fn unsatisfiable_predicate_is_zero() {
        let s = stats_for((1..=1000).collect(), 10, 4);
        let est = estimate_cardinality(&s, &Predicate::Between { low: 9, high: 3 });
        assert_eq!(est.rows, 0.0);
        assert_eq!(est.selectivity, 0.0);
    }

    #[test]
    fn estimates_never_exceed_table() {
        let s = stats_for((1..=1000).collect(), 10, 5);
        let est = estimate_cardinality(&s, &Predicate::Le(i64::MAX));
        assert!(est.rows <= 1000.0);
        assert!(est.selectivity <= 1.0);
    }

    #[test]
    fn compressed_statistics_sharpen_heavy_equality() {
        // One value holds 40% of a skewed column.
        let mut values = vec![777_000i64; 40_000];
        values.extend((0..60_000).map(|i| i * 10));
        let mut rng = StdRng::seed_from_u64(21);
        let t = Table::builder("t")
            .column_with_blocking("c", values, 100, Layout::Random, &mut rng)
            .build();
        let plain = analyze(&t, "c", &AnalyzeOptions::full_scan(20), &mut rng).expect("exists");
        let comp = analyze(&t, "c", &AnalyzeOptions::full_scan(20).with_compressed(), &mut rng)
            .expect("exists");
        assert!(comp.compressed.is_some());

        let truth = 40_000.0f64;
        let e_plain = estimate_cardinality(&plain, &Predicate::Eq(777_000)).rows;
        let e_comp = estimate_cardinality(&comp, &Predicate::Eq(777_000)).rows;
        assert!((e_comp - truth).abs() < 1.0, "compressed equality should be exact: {e_comp}");
        assert!(
            (e_comp - truth).abs() < (e_plain - truth).abs(),
            "compressed ({e_comp}) should beat plain ({e_plain})"
        );

        // Light-value equality still floors at rows-per-distinct.
        let e_light = estimate_cardinality(&comp, &Predicate::Eq(300_000)).rows;
        assert!((1.0..100.0).contains(&e_light), "light eq = {e_light}");

        // And ranges through the compressed path stay sane.
        let est = estimate_cardinality(&comp, &Predicate::Le(i64::MAX));
        assert!((est.rows - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn batched_cardinality_is_byte_identical_to_scalar() {
        // Heavy-duplicate data so a compressed histogram (with a
        // non-empty side table) and the plain histogram both exist, and
        // every predicate shape hits every routing arm, including
        // out-of-domain and unsatisfiable ones.
        let mut values: Vec<i64> = (0..30_000).map(|i| (i * i) % 2003).collect();
        values.extend(vec![777i64; 10_000]);
        let mut rng = StdRng::seed_from_u64(32);
        let t = Table::builder("t")
            .column_with_blocking("c", values, 100, Layout::Random, &mut rng)
            .build();
        let plain = analyze(&t, "c", &AnalyzeOptions::full_scan(60), &mut rng).expect("exists");
        let comp = analyze(&t, "c", &AnalyzeOptions::full_scan(60).with_compressed(), &mut rng)
            .expect("exists");
        assert!(!comp.compressed.as_ref().unwrap().high_frequency_values().is_empty());
        let mut probes: Vec<Predicate> = Vec::new();
        for i in 0..250i64 {
            let x = (i * 131) % 2500 - 200;
            probes.push(Predicate::Eq(x));
            probes.push(Predicate::Le(x));
            probes.push(Predicate::Gt(x));
            probes.push(Predicate::Between { low: x, high: x + (i % 11) * 40 });
        }
        probes.push(Predicate::Eq(777));
        probes.push(Predicate::Eq(-999_999));
        probes.push(Predicate::Between { low: 9, high: 3 });
        probes.push(Predicate::Le(i64::MAX));
        probes.push(Predicate::Ge(i64::MIN));
        for stats in [&plain, &comp] {
            let mut out = vec![CardinalityEstimate { rows: 0.0, selectivity: 0.0 }; probes.len()];
            estimate_cardinality_batch(stats, &probes, &mut out);
            for (p, got) in probes.iter().zip(&out) {
                let want = estimate_cardinality(stats, p);
                assert_eq!(
                    got.rows.to_bits(),
                    want.rows.to_bits(),
                    "{p}: batched {} vs scalar {}",
                    got.rows,
                    want.rows
                );
                assert_eq!(got.selectivity.to_bits(), want.selectivity.to_bits(), "{p}");
            }
        }
    }

    fn true_equijoin(a: &[i64], b_sorted: &[i64]) -> u64 {
        use samplehist_core::histogram::count_le;
        a.iter()
            .map(|&v| {
                let hi = count_le(b_sorted, v);
                let lo = if v == i64::MIN { 0 } else { count_le(b_sorted, v - 1) };
                (hi - lo) as u64
            })
            .sum()
    }

    #[test]
    fn equijoin_self_join_unif_dup() {
        // Each of 100 values appears 50 times: self-join = 100·50² = 250k.
        let values: Vec<i64> = (0..100).flat_map(|v| vec![v * 10; 50]).collect();
        let s = stats_for(values.clone(), 20, 10);
        let est = estimate_equijoin(&s, &s);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let truth = true_equijoin(&values, &sorted) as f64;
        assert_eq!(truth, 250_000.0);
        assert!((est - truth).abs() / truth < 0.25, "self-join est {est} vs truth {truth}");
    }

    #[test]
    fn equijoin_disjoint_domains_is_zero() {
        let a = stats_for((0..1000).collect(), 10, 11);
        let b = stats_for((5000..6000).collect(), 10, 12);
        assert_eq!(estimate_equijoin(&a, &b), 0.0);
    }

    #[test]
    fn equijoin_partial_overlap_beats_global_formula() {
        // A covers 0..10000, B covers 9000..19000: only 10% of each side
        // can join. All values distinct: truth = 1000.
        let a_vals: Vec<i64> = (0..10_000).collect();
        let b_vals: Vec<i64> = (9_000..19_000).collect();
        let a = stats_for(a_vals.clone(), 50, 13);
        let b = stats_for(b_vals.clone(), 50, 14);
        let mut b_sorted = b_vals;
        b_sorted.sort_unstable();
        let truth = true_equijoin(&a_vals, &b_sorted) as f64;
        assert_eq!(truth, 1000.0);

        let est = estimate_equijoin(&a, &b);
        let global = 10_000.0f64 * 10_000.0 / 10_000.0; // System-R, no overlap awareness
        assert!(
            (est - truth).abs() < (global - truth).abs() / 2.0,
            "aligned est {est} should beat global {global} (truth {truth})"
        );
    }

    /// The scalar oracle for [`estimate_equijoin`]: sort and dedup the
    /// fragment bounds, then take `estimate_le` differences through the
    /// tree descent. Below `lo == i64::MIN` there is nothing, so the first
    /// fragment's `le(prev)` is 0 there instead of `le(lo − 1)`.
    fn scalar_equijoin(a: &ColumnStatistics, b: &ColumnStatistics) -> f64 {
        let (lo, hi) = (
            a.histogram.min_value().max(b.histogram.min_value()),
            a.histogram.max_value().min(b.histogram.max_value()),
        );
        if lo > hi {
            return 0.0;
        }
        let mut bounds: Vec<i64> = a
            .histogram
            .separators()
            .iter()
            .chain(b.histogram.separators())
            .copied()
            .filter(|&s| s > lo && s < hi)
            .collect();
        bounds.push(hi);
        bounds.sort_unstable();
        bounds.dedup();
        let est_a = &a.index().histogram;
        let est_b = &b.index().histogram;
        let le = |est: &samplehist_core::histogram::BucketIndex, t: Option<i64>| {
            t.map_or(0.0, |t| est.estimate_le(t))
        };
        let (da, db) = (a.distinct_estimate.max(1.0), b.distinct_estimate.max(1.0));
        let (na, nb) = (a.num_rows as f64, b.num_rows as f64);
        let mut total = 0.0f64;
        let mut prev = lo.checked_sub(1);
        for &bound in &bounds {
            let rows_a = (est_a.estimate_le(bound) - le(est_a, prev)).max(0.0);
            let rows_b = (est_b.estimate_le(bound) - le(est_b, prev)).max(0.0);
            if rows_a > 0.0 && rows_b > 0.0 {
                let d_frag_a = (da * rows_a / na).max(1.0);
                let d_frag_b = (db * rows_b / nb).max(1.0);
                total += rows_a * rows_b / d_frag_a.max(d_frag_b);
            }
            prev = Some(bound);
        }
        total
    }

    fn assert_equijoin_matches_oracle(a: &ColumnStatistics, b: &ColumnStatistics) {
        for (x, y) in [(a, b), (b, a)] {
            let swept = estimate_equijoin(x, y);
            let scalar = scalar_equijoin(x, y);
            assert_eq!(swept.to_bits(), scalar.to_bits(), "sweep {swept} vs scalar {scalar}");
        }
    }

    /// Column statistics straight from a multiset: the perfect k-histogram
    /// and an exact distinct count, with no table or ANALYZE around it.
    fn stats_from_values(mut values: Vec<i64>, k: usize) -> ColumnStatistics {
        values.sort_unstable();
        let mut distinct = values.clone();
        distinct.dedup();
        ColumnStatistics {
            table: "t".into(),
            column: "c".into(),
            num_rows: values.len() as u64,
            histogram: samplehist_core::histogram::EquiHeightHistogram::from_sorted(&values, k),
            compressed: None,
            density: 0.0,
            distinct_estimate: distinct.len() as f64,
            distinct_in_sample: distinct.len() as u64,
            sample_size: values.len() as u64,
            method: "test".into(),
            io: Default::default(),
            index: Default::default(),
        }
    }

    /// The one-pass merge inside [`estimate_equijoin`] must have the bits
    /// of the scalar `estimate_le`-difference oracle. Fixed examples:
    /// overlapping duplicate-heavy columns, a partial overlap, mixed
    /// bucket counts, k = 1, touching and disjoint domains, and domains
    /// that reach `i64::MIN` and `i64::MAX`.
    #[test]
    fn equijoin_sweep_matches_scalar_reference() {
        let cases = [
            (
                stats_for((0..5000).map(|i| i % 500).collect(), 25, 41),
                stats_for((0..3000).map(|i| (i % 300) * 2).collect(), 25, 42),
            ),
            (
                stats_for((0..10_000).collect(), 50, 43),
                stats_for((9_000..19_000).collect(), 50, 44),
            ),
            (
                stats_for((0..100).flat_map(|v| vec![v * 10; 50]).collect(), 20, 45),
                stats_for((0..2000).map(|i| (i * 7) % 990).collect(), 13, 46),
            ),
            (stats_from_values((0..500).collect(), 1), stats_from_values((250..900).collect(), 7)),
            (stats_from_values((0..500).collect(), 5), stats_from_values((499..900).collect(), 5)),
            (stats_from_values((0..500).collect(), 5), stats_from_values((500..900).collect(), 5)),
            (
                stats_from_values(vec![i64::MIN, i64::MIN, -5, 0, 7, i64::MAX], 3),
                stats_from_values(vec![i64::MIN, -5, -5, 3, i64::MAX, i64::MAX], 4),
            ),
            (
                stats_from_values(vec![i64::MIN; 40], 3),
                stats_from_values(vec![i64::MIN, i64::MIN, 1], 2),
            ),
        ];
        for (a, b) in &cases {
            assert_equijoin_matches_oracle(a, b);
        }
    }

    /// One side of a random equijoin: `runs` of (value step, multiplicity)
    /// laid out from `base` in strides of `scale`, so long runs make
    /// duplicate-heavy single-value buckets; `ends` adds `i64::MIN`
    /// (bit 0) and `i64::MAX` (bit 1).
    fn side(base: i64, scale: i64, runs: &[(i64, usize)], ends: u8) -> Vec<i64> {
        let mut v: Vec<i64> = Vec::new();
        for &(step, mult) in runs {
            v.resize(v.len() + mult, base.saturating_add(step.saturating_mul(scale)));
        }
        if ends & 1 != 0 {
            v.push(i64::MIN);
        }
        if ends & 2 != 0 {
            v.push(i64::MAX);
        }
        v
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Random histogram pairs against the scalar oracle, compared with
        /// `to_bits`. `place` puts B's domain at an independent offset
        /// (0), starting exactly at A's max so the two touch at one point
        /// (1), or just past it so they are disjoint (2).
        #[test]
        fn equijoin_sweep_matches_scalar_reference_on_random_pairs(
            a in (
                proptest::collection::vec((0i64..200, 1usize..80), 1..24),
                1usize..16,
                -1000i64..1000,
                0u8..4,
            ),
            b in (
                proptest::collection::vec((0i64..200, 1usize..80), 1..24),
                1usize..16,
                -1000i64..1000,
                0u8..4,
            ),
            scale in 1i64..1_000_000_000_000,
            place in 0u8..3,
        ) {
            let (runs_a, k_a, base_a, ends_a) = a;
            let (runs_b, k_b, base_b, ends_b) = b;
            let a = stats_from_values(side(base_a, scale, &runs_a, ends_a), k_a);
            let base_b = match place {
                0 => base_b,
                1 => a.histogram.max_value(),
                _ => a.histogram.max_value().saturating_add(1),
            };
            let b = stats_from_values(side(base_b, scale, &runs_b, ends_b), k_b);
            assert_equijoin_matches_oracle(&a, &b);
        }
    }

    #[test]
    fn equijoin_is_symmetric() {
        let a = stats_for((0..5000).map(|i| i % 500).collect(), 25, 15);
        let b = stats_for((0..3000).map(|i| (i % 300) * 2).collect(), 25, 16);
        let ab = estimate_equijoin(&a, &b);
        let ba = estimate_equijoin(&b, &a);
        assert!((ab - ba).abs() < 1e-6 * ab.max(1.0), "{ab} vs {ba}");
    }

    /// End-to-end sanity: estimates from a *sampled* histogram stay close
    /// to the truth on a mildly skewed column.
    #[test]
    fn sampled_statistics_estimate_well() {
        use crate::analyze::AnalyzeMode;
        let mut rng = StdRng::seed_from_u64(6);
        let values: Vec<i64> = (0..50_000i64).map(|i| (i % 224) * (i % 224)).collect();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let t = Table::builder("t")
            .column_with_blocking("c", values, 100, Layout::Random, &mut rng)
            .build();
        let opts = AnalyzeOptions {
            buckets: 50,
            mode: AnalyzeMode::BlockSample { rate: 0.2 },
            compressed: false,
        };
        let s = analyze(&t, "c", &opts, &mut rng).expect("exists");
        for pred in [
            Predicate::Le(2500),
            Predicate::Between { low: 100, high: 10_000 },
            Predicate::Ge(40_000),
        ] {
            let est = estimate_cardinality(&s, &pred);
            let truth = pred.true_cardinality(&sorted) as f64;
            assert!(
                (est.rows - truth).abs() < 0.05 * 50_000.0,
                "{pred}: est {} vs true {truth}",
                est.rows
            );
        }
    }
}
