//! Property tests for [`QuantileSketch`]: the merge algebra the
//! accuracy-telemetry plane leans on. The service's dump()-bit-identity
//! guarantee reduces to exactly these properties — per-thread
//! observation partitions folded in any order must produce identical
//! sketch state.

use proptest::prelude::*;
use samplehist_obs::QuantileSketch;

fn sketch_of(values: &[f64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in values {
        s.observe(v);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging per-partition sketches equals observing the whole stream,
    /// for any 3-way partition — i.e. merge is a homomorphism from
    /// concatenation, which implies order-independence.
    #[test]
    fn merge_is_partition_independent(
        values in proptest::collection::vec(0.5f64..1.0e6, 0..200),
        cut_a in 0usize..200,
        cut_b in 0usize..200,
    ) {
        let cut_a = cut_a.min(values.len());
        let cut_b = cut_b.clamp(cut_a, values.len());
        let whole = sketch_of(&values);

        let (a, b, c) =
            (sketch_of(&values[..cut_a]), sketch_of(&values[cut_a..cut_b]), sketch_of(&values[cut_b..]));

        // Left fold in order…
        let mut fwd = QuantileSketch::new();
        fwd.merge(&a);
        fwd.merge(&b);
        fwd.merge(&c);
        // …and a different association/order.
        let mut rev = c.clone();
        let mut bc = b.clone();
        bc.merge(&a);
        rev.merge(&bc);

        prop_assert_eq!(&fwd, &whole);
        prop_assert_eq!(&rev, &whole);
    }

    /// Quantiles are monotone in `q`, never exceed the tracked max, and
    /// overstate a true quantile by at most one sub-bucket (6.25%
    /// relative).
    #[test]
    fn quantiles_are_sound(
        values in proptest::collection::vec(1.0f64..1.0e9, 1..300),
    ) {
        let s = sketch_of(&values);
        prop_assert_eq!(s.count(), values.len() as u64);
        let (p50, p95, p99) = (s.p50().unwrap(), s.p95().unwrap(), s.p99().unwrap());
        prop_assert!(p50 <= p95 && p95 <= p99, "p50 {} p95 {} p99 {}", p50, p95, p99);
        let max = s.max().unwrap();
        prop_assert!(p99 <= max, "p99 {} above max {}", p99, max);

        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let true_p95 = sorted[((0.95 * sorted.len() as f64).ceil() as usize).max(1) - 1];
        prop_assert!(p95 >= true_p95 - 1e-12, "sketch p95 {} under true {}", p95, true_p95);
        prop_assert!(
            p95 <= true_p95 * (1.0 + 1.0 / 16.0) + 1e-9,
            "sketch p95 {} overstates true {} by more than a sub-bucket",
            p95,
            true_p95
        );
    }
}
