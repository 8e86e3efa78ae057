//! Byte-identity properties for the serve-time bucket indexes: every
//! estimate a [`BucketIndex`] or [`CompressedIndex`] produces must have
//! the same bits as the bisect oracle below, on heavy-duplicate inputs,
//! for histograms built serially and in parallel, with recording enabled.
//!
//! The oracle is the paper's Section 2.2 estimate computed the direct
//! way: bisect the separators for the bucket, sum the counts below it,
//! interpolate inside it; for compressed histograms, bisect the side
//! table for membership and filter it for range mass. It is the single
//! reference implementation of that arithmetic, kept in test code.

use proptest::prelude::*;

use samplehist_core::histogram::{
    BucketIndex, CompressedHistogram, CompressedIndex, EquiHeightHistogram,
};

/// Estimated number of values `≤ t`: bisect for the bucket, cumulative
/// count below it, uniform interpolation inside it. The first bucket's
/// open lower edge is `min − 1` and the last bucket's upper edge is
/// `max`; edge arithmetic is i128 so `min = i64::MIN` and full-span
/// buckets stay defined.
fn oracle_le(h: &EquiHeightHistogram, t: i64) -> f64 {
    if t < h.min_value() {
        return 0.0;
    }
    if t >= h.max_value() {
        return h.total() as f64;
    }
    let j = h.bucket_of(t);
    let below = h.counts()[..j].iter().sum::<u64>() as f64;
    let seps = h.separators();
    let lower = if j == 0 { h.min_value() as i128 - 1 } else { seps[j - 1] as i128 };
    let upper = if j == h.num_buckets() - 1 { h.max_value() as i128 } else { seps[j] as i128 };
    let fraction = if upper <= lower {
        // Degenerate bucket (single duplicated value): all-or-nothing.
        if t as i128 >= upper {
            1.0
        } else {
            0.0
        }
    } else {
        ((t as i128 - lower) as f64 / (upper - lower) as f64).clamp(0.0, 1.0)
    };
    below + fraction * h.counts()[j] as f64
}

/// Estimated number of values `< t`.
fn oracle_lt(h: &EquiHeightHistogram, t: i64) -> f64 {
    if t == i64::MIN {
        0.0
    } else {
        oracle_le(h, t - 1)
    }
}

/// Estimated output size of `x ≤ v ≤ y` (0 for `x > y`).
fn oracle_range(h: &EquiHeightHistogram, x: i64, y: i64) -> f64 {
    if x > y {
        return 0.0;
    }
    (oracle_le(h, y) - oracle_lt(h, x)).max(0.0)
}

/// Compressed equality plus classification: a membership bisect of the
/// side table, else the residual's one-point range.
fn oracle_compressed_eq(c: &CompressedHistogram, v: i64) -> (f64, bool) {
    let heavy = c.high_frequency_values();
    match heavy.binary_search_by_key(&v, |&(hv, _)| hv) {
        Ok(i) => (heavy[i].1 as f64, true),
        Err(_) => (c.residual().map_or(0.0, |h| oracle_range(h, v, v)), false),
    }
}

/// Compressed range: the side table's in-range mass, filtered linearly,
/// plus the residual's range estimate.
fn oracle_compressed_range(c: &CompressedHistogram, x: i64, y: i64) -> f64 {
    if x > y {
        return 0.0;
    }
    let heavy: u64 = c
        .high_frequency_values()
        .iter()
        .filter(|&&(v, _)| v >= x && v <= y)
        .map(|&(_, cnt)| cnt)
        .sum();
    heavy as f64 + c.residual().map_or(0.0, |h| oracle_range(h, x, y))
}

/// Heavy-duplicate Zipf-like multisets: a few dominant runs plus a light
/// scattered tail — the duplicate structure that stresses degenerate
/// (single-value) buckets and repeated separators in the tree.
fn skewed_multiset(domain: i64) -> impl Strategy<Value = Vec<i64>> {
    let heavy = prop::collection::vec((-domain..domain, 2000usize..4000), 1..4);
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

/// Probe points that hit bucket interiors, exact separators, the domain
/// edges, and far outside the data.
fn probe_points(h: &EquiHeightHistogram) -> Vec<i64> {
    let mut pts = vec![
        i64::MIN,
        i64::MIN + 1,
        h.min_value(),
        h.min_value().saturating_sub(1),
        h.max_value(),
        h.max_value().saturating_add(1),
        i64::MAX - 1,
        i64::MAX,
        0,
        1,
        -1,
    ];
    for &s in h.separators() {
        pts.push(s);
        pts.push(s.saturating_sub(1));
        pts.push(s.saturating_add(1));
    }
    pts
}

/// Install a process-global Prometheus recorder once: the index paths
/// emit counters, and recording must never perturb estimates.
fn enable_recording() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let sink: std::sync::Arc<dyn samplehist_obs::Sink> =
            std::sync::Arc::new(samplehist_obs::PromSink::new());
        samplehist_obs::set_global(samplehist_obs::Recorder::with_sinks(vec![sink]));
    });
}

fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BucketIndex replays the bisect oracle bit-for-bit: `estimate_le`,
    /// `estimate_lt`, `estimate_range` and `estimate_eq` on every probe
    /// point.
    #[test]
    fn bucket_index_is_byte_identical_to_bisect(
        data in skewed_multiset(1 << 40),
        k in 1usize..24,
    ) {
        enable_recording();
        let mut work = data;
        let h = EquiHeightHistogram::from_unsorted_in_place(&mut work, k);
        let idx = BucketIndex::new(&h);
        let pts = probe_points(&h);
        for &t in &pts {
            assert_bits(idx.estimate_le(t), oracle_le(&h, t), &format!("le({t})"));
            assert_bits(idx.estimate_lt(t), oracle_lt(&h, t), &format!("lt({t})"));
            assert_bits(idx.estimate_eq(t), oracle_range(&h, t, t), &format!("eq({t})"));
        }
        for &x in &pts {
            for &y in pts.iter().step_by(3) {
                assert_bits(
                    idx.estimate_range(x, y),
                    oracle_range(&h, x, y),
                    &format!("range({x}, {y})"),
                );
            }
        }
    }

    /// The batched entry points agree bit-for-bit with their scalar
    /// counterparts for arbitrary probe lists (full lanes + remainder).
    #[test]
    fn batched_estimates_equal_scalar(
        data in skewed_multiset(1 << 40),
        k in 1usize..24,
        probes in prop::collection::vec((any::<i64>(), any::<i64>()), 1..40),
    ) {
        enable_recording();
        let h = EquiHeightHistogram::from_unsorted(data.clone(), k);
        let idx = BucketIndex::new(&h);
        let mut out = vec![0.0; probes.len()];
        idx.estimate_range_batch(&probes, &mut out);
        for (i, &(x, y)) in probes.iter().enumerate() {
            assert_bits(out[i], idx.estimate_range(x, y), &format!("range batch [{i}]"));
        }
        let eqs: Vec<i64> = probes.iter().map(|&(x, _)| x).collect();
        let mut out = vec![0.0; eqs.len()];
        idx.estimate_eq_batch(&eqs, &mut out);
        for (i, &t) in eqs.iter().enumerate() {
            assert_bits(out[i], idx.estimate_eq(t), &format!("eq batch [{i}]"));
        }
    }

    /// CompressedIndex vs the bisect oracle: equality (heavy and light
    /// constants) with its classification flag, ranges spanning heavy
    /// runs, and the batch paths, with sampled population scaling.
    #[test]
    fn compressed_index_is_byte_identical(
        data in skewed_multiset(1 << 40),
        k in 1usize..16,
        extra_pop in 0u64..50_000,
    ) {
        enable_recording();
        let pop = data.len() as u64 + extra_pop;
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let c = CompressedHistogram::from_sorted_sample(&sorted, k, pop);
        let idx = CompressedIndex::new(&c);
        let mut pts: Vec<i64> = data.iter().copied().take(6).collect();
        pts.extend([i64::MIN, i64::MAX, 0, -1, 1]);
        for &(v, _) in c.high_frequency_values() {
            pts.push(v);
            pts.push(v.saturating_add(1));
        }
        for &v in &pts {
            let (want, bisect_hit) = oracle_compressed_eq(&c, v);
            assert_bits(idx.estimate_eq(v), want, &format!("compressed eq({v})"));
            let (est, heavy) = idx.estimate_eq_classified(v);
            prop_assert_eq!(est.to_bits(), want.to_bits());
            prop_assert_eq!(heavy, bisect_hit, "classification of {}", v);
        }
        for &x in &pts {
            for &y in pts.iter().step_by(2) {
                assert_bits(
                    idx.estimate_range(x, y),
                    oracle_compressed_range(&c, x, y),
                    &format!("compressed range({x}, {y})"),
                );
            }
        }
        let mut out = vec![(0.0, false); pts.len()];
        idx.estimate_eq_classified_batch(&pts, &mut out);
        for (i, &v) in pts.iter().enumerate() {
            let (want, bisect_hit) = oracle_compressed_eq(&c, v);
            assert_bits(out[i].0, want, &format!("compressed eq batch [{i}]"));
            prop_assert_eq!(out[i].1, bisect_hit, "batch classification of {}", v);
        }
    }

    /// Separators at the i64 extremes: the `min − 1` anchor and the
    /// full-span bucket width both leave the i64 range, and the widened
    /// arithmetic must agree between index and oracle for arbitrary probes.
    #[test]
    fn edge_separator_histograms_agree(probes in prop::collection::vec(any::<i64>(), 1..64)) {
        enable_recording();
        let h = EquiHeightHistogram::from_parts(
            vec![i64::MIN, -7, 0, i64::MAX - 1, i64::MAX],
            vec![3, 5, 7, 11, 13, 17],
            i64::MIN,
            i64::MAX,
        );
        let idx = BucketIndex::new(&h);
        for &t in &probes {
            assert_bits(idx.estimate_le(t), oracle_le(&h, t), &format!("edge le({t})"));
            assert_bits(idx.estimate_lt(t), oracle_lt(&h, t), &format!("edge lt({t})"));
        }
        let pairs: Vec<(i64, i64)> =
            probes.iter().zip(probes.iter().rev()).map(|(&a, &b)| (a, b)).collect();
        let mut out = vec![0.0; pairs.len()];
        idx.estimate_range_batch(&pairs, &mut out);
        for (i, &(x, y)) in pairs.iter().enumerate() {
            assert_bits(out[i], oracle_range(&h, x, y), &format!("edge range [{i}]"));
        }
    }
}

// -- fixed cases ----------------------------------------------------------

#[test]
fn one_bucket_histogram() {
    // No separators: the tree is empty and everything interpolates
    // within the single bucket.
    let h = EquiHeightHistogram::from_parts(vec![], vec![10], 0, 9);
    let idx = BucketIndex::new(&h);
    for t in [-1, 0, 4, 9, 10] {
        assert_bits(idx.estimate_le(t), oracle_le(&h, t), "one bucket le");
    }
    assert_eq!(idx.num_buckets(), 1);
}

#[test]
fn all_equal_histogram_is_all_or_nothing() {
    // Degenerate buckets: every separator equals the single value.
    let data = vec![42i64; 100];
    let h = EquiHeightHistogram::from_sorted(&data, 4);
    let idx = BucketIndex::new(&h);
    for t in [41, 42, 43] {
        assert_bits(idx.estimate_le(t), oracle_le(&h, t), "all equal le");
        assert_bits(idx.estimate_range(t, t), oracle_range(&h, t, t), "all equal point range");
    }
    assert_eq!(idx.estimate_eq(42), 100.0);
    assert_eq!(idx.estimate_eq(41), 0.0);
}

#[test]
fn min_max_edge_separators() {
    // Separators at both i64 extremes: the `min − 1` anchor and the
    // `upper − lower` width both leave the i64 range.
    let h = EquiHeightHistogram::from_parts(
        vec![i64::MIN, 0, i64::MAX],
        vec![3, 5, 7, 11],
        i64::MIN,
        i64::MAX,
    );
    let idx = BucketIndex::new(&h);
    for t in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX] {
        assert_bits(idx.estimate_le(t), oracle_le(&h, t), "extreme le");
        assert_bits(idx.estimate_lt(t), oracle_lt(&h, t), "extreme lt");
    }
    for (x, y) in [(i64::MIN, i64::MAX), (i64::MIN, 0), (0, i64::MAX), (5, 4)] {
        assert_bits(idx.estimate_range(x, y), oracle_range(&h, x, y), "extreme range");
    }
}

#[test]
fn compressed_index_empty_heavy_table() {
    // All-distinct data: no value exceeds n/k, the side table is empty
    // and everything routes to the residual.
    let data: Vec<i64> = (0..1000).collect();
    let c = CompressedHistogram::from_sorted(&data, 10);
    assert!(c.high_frequency_values().is_empty());
    let idx = CompressedIndex::new(&c);
    for v in [-1, 0, 500, 999, 1000] {
        assert_eq!(idx.estimate_eq_classified(v), oracle_compressed_eq(&c, v), "eq({v})");
    }
    assert_bits(
        idx.estimate_range(100, 200),
        oracle_compressed_range(&c, 100, 200),
        "empty heavy range",
    );
}

#[test]
fn compressed_index_classifies_heavy_vs_light() {
    let mut data = vec![50i64; 90];
    data.extend([1, 2, 3, 4, 5, 96, 97, 98, 99, 100]);
    data.sort_unstable();
    let c = CompressedHistogram::from_sorted(&data, 10);
    let idx = CompressedIndex::new(&c);
    assert_eq!(idx.estimate_eq_classified(50), (90.0, true), "50 holds 90% of the column");
    assert!(!idx.estimate_eq_classified(3).1);
    for v in [0, 3, 50, 96, 101, i64::MIN, i64::MAX] {
        let (est, heavy) = idx.estimate_eq_classified(v);
        let (want, hit) = oracle_compressed_eq(&c, v);
        assert_bits(est, want, &format!("classified eq({v})"));
        assert_eq!(heavy, hit, "classification of {v}");
    }
    let ranges = [
        (0, 100),
        (50, 50),
        (51, 100),
        (101, 200),
        (7, 3),
        (i64::MIN, i64::MAX),
        (0, i64::MAX),
        (i64::MAX, i64::MAX),
    ];
    for (x, y) in ranges {
        assert_bits(idx.estimate_range(x, y), oracle_compressed_range(&c, x, y), "range");
    }
}

#[test]
fn compressed_index_without_residual() {
    // Every value heavy: no residual index at all.
    let mut data = vec![1i64; 40];
    data.extend(vec![2i64; 40]);
    data.extend(vec![3i64; 40]);
    let c = CompressedHistogram::from_sorted(&data, 4);
    assert!(c.residual().is_none());
    let idx = CompressedIndex::new(&c);
    let probes: Vec<(i64, i64)> = vec![(0, 0), (1, 1), (1, 2), (0, 9), (3, 1), (2, 3)];
    let mut out = vec![0.0; probes.len()];
    idx.estimate_range_batch(&probes, &mut out);
    for (i, &(x, y)) in probes.iter().enumerate() {
        let want = oracle_compressed_range(&c, x, y);
        assert_bits(idx.estimate_range(x, y), want, "no residual range");
        assert_bits(out[i], want, "no residual range batch");
    }
    for v in [0, 1, 2, 3, 4] {
        assert_eq!(idx.estimate_eq_classified(v), oracle_compressed_eq(&c, v), "eq({v})");
    }
}
