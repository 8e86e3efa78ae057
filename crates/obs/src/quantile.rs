//! A fixed-size, mergeable log-scale quantile sketch for ratio metrics.
//!
//! [`LogHistogram`](crate::LogHistogram) answers "how long did it take"
//! for integer nanoseconds; [`QuantileSketch`] answers "how wrong was
//! it" for `f64` ratios ≥ 1 — q-errors, compression ratios, relative
//! blow-ups. The design constraints come from the accuracy-telemetry
//! plane that consumes it:
//!
//! * **Fixed size** — a flat bucket array (no allocation after
//!   construction), so a sketch can live inside a catalog snapshot and
//!   be observed from any thread behind a plain mutex.
//! * **Deterministic, order-independent merge** — buckets are
//!   count-additive and the max is a commutative/associative fold, so
//!   folding per-thread sketches in any order (or observing in any
//!   interleaving) yields byte-identical state. This is what keeps the
//!   service's `dump()` bit-identical at 1 and 4 drain threads.
//! * **No libm** — bucketing reads the IEEE-754 exponent and the top
//!   mantissa bits directly, so the same value lands in the same bucket
//!   on every platform and build.
//!
//! Resolution: each power-of-two octave is split into
//! 2^[`SUB_BITS`] = 16 linear sub-buckets, so a reported quantile
//! overstates the true one by at most ~6.25% — far tighter than the
//! factor-of-two timing histogram, as befits a metric whose interesting
//! values live between 1 and 10 — and never exceeds the tracked max.

/// Mantissa bits used for sub-bucketing (16 sub-buckets per octave).
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Octaves covered: values in `[1, 2^32)` resolve; larger ones clamp
/// into the overflow bucket.
const OCTAVES: usize = 32;
/// Underflow bucket (≤ 1) + resolved octaves + overflow bucket.
const BUCKETS: usize = 1 + OCTAVES * SUBS + 1;

/// Mergeable log-scale quantile sketch over `f64` values ≥ 1.
///
/// Values below 1 (a q-error can't be) clamp into the underflow bucket
/// with upper bound 1; values at or above 2^32 clamp into the overflow
/// bucket, whose upper bound is infinite. A reported quantile is its
/// bucket's upper bound capped at the tracked max. NaN observations are
/// ignored.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    counts: [u64; BUCKETS],
    count: u64,
    /// Largest observation; `f64::max` is commutative and associative
    /// (NaN never enters), so merges stay order-independent.
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self { counts: [0; BUCKETS], count: 0, max: f64::NEG_INFINITY }
    }

    /// Bucket index of `v`: IEEE-754 exponent selects the octave, the
    /// top [`SUB_BITS`] mantissa bits the sub-bucket. Pure bit
    /// arithmetic — bit-stable across platforms.
    fn bucket(v: f64) -> usize {
        if v.is_nan() || v <= 1.0 {
            return 0; // ≤ 1 (and -0.0, negatives: a ratio can't be)
        }
        if !v.is_finite() {
            return BUCKETS - 1;
        }
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
        if exp >= OCTAVES as i64 {
            return BUCKETS - 1;
        }
        let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        1 + exp as usize * SUBS + sub
    }

    /// Exclusive upper bound of bucket `i`, reconstructed from the same
    /// bit layout [`Self::bucket`] decomposes.
    fn upper_bound(i: usize) -> f64 {
        if i == 0 {
            return 1.0;
        }
        if i >= BUCKETS - 1 {
            return f64::INFINITY;
        }
        let b = (i - 1) as u64;
        let exp = b / SUBS as u64;
        let sub = b % SUBS as u64;
        // `+` (not `|`) so sub + 1 == SUBS carries into the exponent,
        // yielding exactly the next octave's lower edge.
        f64::from_bits(((exp + 1023) << 52) + ((sub + 1) << (52 - SUB_BITS)))
    }

    /// Record one observation. NaN is ignored (a broken ratio must not
    /// poison the max fold).
    pub fn observe(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.counts[Self::bucket(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self`. Count-additive and max-commutative, so
    /// any merge order over any partition of the observations produces
    /// identical state.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile (`q` in `[0,1]`): the upper bound of the bucket
    /// holding it, capped at the tracked max; `None` when empty.
    /// Overstates the true quantile by at most one sub-bucket (~6.25%
    /// relative) and never exceeds [`Self::max`].
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Self::upper_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median (see [`Self::quantile`]).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// 95th percentile (see [`Self::quantile`]).
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th percentile (see [`Self::quantile`]).
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_exact() {
        assert_eq!(QuantileSketch::bucket(0.0), 0);
        assert_eq!(QuantileSketch::bucket(1.0), 0);
        assert_eq!(QuantileSketch::bucket(f64::NEG_INFINITY), 0);
        assert_eq!(QuantileSketch::bucket(1.0 + 1.0 / 16.0), 2, "second sub-bucket lower edge");
        assert_eq!(QuantileSketch::bucket(2.0), 1 + SUBS);
        assert_eq!(QuantileSketch::bucket(4.0), 1 + 2 * SUBS);
        assert_eq!(QuantileSketch::bucket(f64::INFINITY), BUCKETS - 1);
        assert_eq!(QuantileSketch::bucket(2f64.powi(40)), BUCKETS - 1);
        // Round-trip: every resolved bucket's upper bound lands in the
        // next bucket (the bound is exclusive).
        for i in 1..BUCKETS - 1 {
            let ub = QuantileSketch::upper_bound(i);
            assert_eq!(QuantileSketch::bucket(ub), i + 1, "bucket {i} upper bound {ub}");
        }
    }

    #[test]
    fn quantiles_overstate_by_at_most_a_sub_bucket() {
        let mut s = QuantileSketch::new();
        for i in 0..10_000 {
            s.observe(1.0 + i as f64 / 1000.0); // 1.0 .. 11.0
        }
        let p50 = s.p50().expect("non-empty");
        assert!((6.0..=6.4).contains(&p50), "p50 = {p50}");
        let p99 = s.p99().expect("non-empty");
        assert!((10.89..=11.7).contains(&p99), "p99 = {p99}");
        let max = s.max().expect("non-empty");
        assert!((max - 10.999).abs() < 1e-9, "max = {max}");
        assert_eq!(s.count(), 10_000);
    }

    #[test]
    fn nan_is_ignored_and_overflow_reports_max() {
        let mut s = QuantileSketch::new();
        s.observe(f64::NAN);
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        // Both values exceed the resolved range (2^32), so they share the
        // overflow bucket and every quantile there reports the tracked max.
        s.observe(1e12);
        s.observe(1e13);
        assert_eq!(s.quantile(0.5), Some(1e13), "overflow bucket reports the real max");
        assert_eq!(s.quantile(1.0), Some(1e13));
        // A resolved observation below them still anchors low quantiles.
        s.observe(2.0);
        let p01 = s.quantile(0.01).expect("non-empty");
        assert!(p01 <= 2.125, "p01 = {p01}");
    }

    #[test]
    fn merge_matches_sequential_observation() {
        let values = [1.0, 1.5, 2.0, 3.7, 0.2, 100.0, 1e40, 7.77];
        let mut whole = QuantileSketch::new();
        for v in values {
            whole.observe(v);
        }
        let mut left = QuantileSketch::new();
        let mut right = QuantileSketch::new();
        for (i, v) in values.into_iter().enumerate() {
            if i % 2 == 0 {
                left.observe(v)
            } else {
                right.observe(v)
            }
        }
        let mut merged = QuantileSketch::new();
        merged.merge(&right);
        merged.merge(&left);
        assert_eq!(merged, whole, "merge in any order must equal the sequential sketch");
    }
}
