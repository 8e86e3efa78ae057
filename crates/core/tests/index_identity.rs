//! Byte-identity properties for the serve-time bucket indexes: every
//! estimate a [`BucketIndex`] or [`CompressedIndex`] produces must have
//! the same bits as the bisect path it replaces ([`RangeEstimator`] and
//! [`CompressedHistogram`]'s own estimators), on heavy-duplicate inputs,
//! for histograms built serially and in parallel, with recording enabled.

use proptest::prelude::*;

use samplehist_core::estimate::RangeEstimator;
use samplehist_core::histogram::{
    BucketIndex, CompressedHistogram, CompressedIndex, EquiHeightHistogram,
};

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

    /// BucketIndex replays RangeEstimator bit-for-bit: `estimate_le`,
    /// `estimate_lt`, `estimate_range` and `estimate_eq` on every probe
    /// point, over histograms built with 1 and 4 threads.
    #[test]
    fn bucket_index_is_byte_identical_to_bisect(
        data in skewed_multiset(1 << 40),
        k in 1usize..24,
    ) {
        enable_recording();
        for threads in [1usize, 4] {
            let mut work = data.clone();
            let h = EquiHeightHistogram::from_unsorted_threads(threads, &mut work, k);
            let idx = BucketIndex::new(&h);
            let est = RangeEstimator::new(&h);
            let pts = probe_points(&h);
            for &t in &pts {
                assert_bits(idx.estimate_le(t), est.estimate_le(t),
                    &format!("le({t}), threads {threads}"));
                assert_bits(idx.estimate_lt(t), est.estimate_lt(t),
                    &format!("lt({t}), threads {threads}"));
                assert_bits(idx.estimate_eq(t), est.estimate_range(t, t),
                    &format!("eq({t}), threads {threads}"));
            }
            for &x in &pts {
                for &y in pts.iter().step_by(3) {
                    assert_bits(
                        idx.estimate_range(x, y),
                        est.estimate_range(x, y),
                        &format!("range({x}, {y}), threads {threads}"),
                    );
                }
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

    /// CompressedIndex vs the compressed histogram's own estimators:
    /// equality (heavy and light constants), ranges spanning heavy runs,
    /// and the batch path — threads 1 and 4, sampled population scaling.
    #[test]
    fn compressed_index_is_byte_identical(
        data in skewed_multiset(1 << 40),
        k in 1usize..16,
        extra_pop in 0u64..50_000,
    ) {
        enable_recording();
        let pop = data.len() as u64 + extra_pop;
        for threads in [1usize, 4] {
            let c = CompressedHistogram::from_unsorted_sample_threads(threads, &data, k, pop);
            let idx = CompressedIndex::new(&c);
            let mut pts: Vec<i64> = data.iter().copied().take(6).collect();
            pts.extend([i64::MIN, i64::MAX, 0, -1, 1]);
            for &(v, _) in c.high_frequency_values() {
                pts.push(v);
                pts.push(v.saturating_add(1));
            }
            for &v in &pts {
                assert_bits(idx.estimate_eq(v), c.estimate_eq(v),
                    &format!("compressed eq({v}), threads {threads}"));
                let (est, heavy) = idx.estimate_eq_classified(v);
                prop_assert_eq!(est.to_bits(), c.estimate_eq(v).to_bits());
                let bisect_hit =
                    c.high_frequency_values().binary_search_by_key(&v, |&(x, _)| x).is_ok();
                prop_assert_eq!(heavy, bisect_hit, "classification of {}", v);
            }
            for &x in &pts {
                for &y in pts.iter().step_by(2) {
                    assert_bits(
                        idx.estimate_range(x, y),
                        c.estimate_range(x, y),
                        &format!("compressed range({x}, {y}), threads {threads}"),
                    );
                }
            }
            let mut out = vec![0.0; pts.len()];
            idx.estimate_eq_batch(&pts, &mut out);
            for (i, &v) in pts.iter().enumerate() {
                assert_bits(out[i], c.estimate_eq(v), &format!("compressed eq batch [{i}]"));
            }
        }
    }

    /// Separators at the i64 extremes: the `min − 1` anchor and the
    /// full-span bucket width both leave the i64 range, and the widened
    /// arithmetic must agree between the two paths for arbitrary probes.
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
        let est = RangeEstimator::new(&h);
        for &t in &probes {
            assert_bits(idx.estimate_le(t), est.estimate_le(t), &format!("edge le({t})"));
            assert_bits(idx.estimate_lt(t), est.estimate_lt(t), &format!("edge lt({t})"));
        }
        let pairs: Vec<(i64, i64)> =
            probes.iter().zip(probes.iter().rev()).map(|(&a, &b)| (a, b)).collect();
        let mut out = vec![0.0; pairs.len()];
        idx.estimate_range_batch(&pairs, &mut out);
        for (i, &(x, y)) in pairs.iter().enumerate() {
            assert_bits(out[i], est.estimate_range(x, y), &format!("edge range [{i}]"));
        }
    }
}
