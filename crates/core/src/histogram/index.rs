//! Serve-time bucket indexes: branchless tree search over histogram
//! separators, built once per ANALYZE and amortized across millions of
//! estimation calls.
//!
//! The estimation hot path used to be `separators.partition_point(..)` —
//! a data-dependent binary search over a sorted slice — plus, on the
//! engine side, an `O(k)` cumulative-count rebuild *per call*
//! ([`RangeEstimator::new`]). This module replaces both with structures
//! in the spirit of "Enhancing Histograms by Tree-Like Bucket Indices":
//!
//! * [`BucketIndex`] — an Eytzinger (BFS-order) layout of the equi-height
//!   separators, padded to a full tree so every probe runs a **fixed
//!   depth, branchless** descent (`e = 2e + (tree[e] < v)`), plus flat
//!   prefix-summed per-bucket arrays so `estimate_le` is one descent and
//!   a fused multiply-add away.
//! * [`CompressedIndex`] — the same tree over a compressed histogram's
//!   high-frequency runs with prefix-summed exact counts (a heavy range
//!   sum becomes two descents and a subtraction), delegating the light
//!   residue to a nested [`BucketIndex`].
//!
//! Every estimate is **byte-identical** to the bisect path it replaces
//! ([`RangeEstimator`] / [`CompressedHistogram`]'s own estimators): the
//! descent computes exactly `partition_point(|&s| s < v)` and the
//! interpolation replays the same float operations in the same order.
//! This is property-tested (`tests/index_identity.rs`), so callers may
//! switch routes freely without perturbing plans.
//!
//! The batched entry points ([`BucketIndex::estimate_range_batch`],
//! [`CompressedIndex::estimate_eq_batch`]) interleave eight descent
//! cursors per tree level — the same eight-lane template as the radix
//! resolver's `min_max` — so the level loop is straight-line lane math
//! the compiler can vectorize, with per-probe arithmetic in a scalar
//! epilogue.
//!
//! A caller whose thresholds arrive in ascending order needs no descent
//! at all: [`BucketIndex::le_cursor`] returns an [`LeCursor`] that walks
//! the bucket pointer forward over the separators (the upper bucket
//! edges the index already stores) and runs the same interpolation
//! epilogue, so a sweep of `m` thresholds costs `O(k + m)` and every
//! answer has the bits of [`BucketIndex::estimate_le`]. The engine's
//! equijoin estimator merges two histograms' separators through two such
//! cursors.
//!
//! [`RangeEstimator`]: crate::estimate::RangeEstimator
//! [`RangeEstimator::new`]: crate::estimate::RangeEstimator::new

use super::compressed::CompressedHistogram;
use super::equi_height::EquiHeightHistogram;

/// Descent lanes per batched chunk, mirroring `min_max`'s accumulator
/// count: wide enough to hide the tree-level load latency, narrow enough
/// that the cursor state stays in registers.
const LANES: usize = 8;

/// A full (padded) Eytzinger search tree over a sorted slice, answering
/// `partition_point(|&s| s < v)` with a fixed-depth branchless descent.
///
/// Layout: 1-based BFS order in a flat array of `2^h − 1` slots; slots
/// beyond the real elements hold `i64::MAX` sentinels, which never
/// satisfy `tree[e] < v` and therefore behave exactly like elements
/// sitting past the end of the sorted slice. A companion `rank` array
/// maps the descent's landing slot back to the sorted position, with
/// slot 0 (the "every element is `< v`" exit) mapping to `len`.
#[derive(Debug, Clone, PartialEq)]
struct Eytzinger {
    tree: Box<[i64]>,
    rank: Box<[u32]>,
    height: u32,
    len: usize,
}

impl Eytzinger {
    fn new(sorted: &[i64]) -> Self {
        let m = sorted.len();
        // Smallest full tree with at least m slots (cap = 2^h − 1 ≥ m).
        let cap = (m + 1).next_power_of_two() - 1;
        let height = (cap + 1).trailing_zeros();
        let mut tree = vec![i64::MAX; cap + 1].into_boxed_slice();
        let mut rank = vec![m as u32; cap + 1].into_boxed_slice();
        // In-order walk of the full tree assigns sorted positions
        // 0..cap; positions ≥ m stay at the sentinel value with rank m.
        fn fill(tree: &mut [i64], rank: &mut [u32], sorted: &[i64], e: usize, pos: &mut usize) {
            if e >= tree.len() {
                return;
            }
            fill(tree, rank, sorted, 2 * e, pos);
            if *pos < sorted.len() {
                tree[e] = sorted[*pos];
                rank[e] = *pos as u32;
            }
            *pos += 1;
            fill(tree, rank, sorted, 2 * e + 1, pos);
        }
        let mut pos = 0usize;
        fill(&mut tree, &mut rank, sorted, 1, &mut pos);
        Self { tree, rank, height, len: m }
    }

    /// `sorted.partition_point(|&s| s < v)`, branchlessly.
    #[inline]
    fn partition_point(&self, v: i64) -> usize {
        let mut e = 1usize;
        for _ in 0..self.height {
            e = 2 * e + usize::from(self.tree[e] < v);
        }
        // Undo the trailing right-turns plus the final left-turn: `e` is
        // now the slot of the first element ≥ v (0 when none exists).
        e >>= e.trailing_ones() + 1;
        self.rank[e] as usize
    }

    /// Eight interleaved descents: one tree level for all lanes before
    /// advancing, so the level loop is pure lane-parallel arithmetic.
    #[inline]
    fn partition_point8(&self, v: &[i64]) -> [usize; LANES] {
        debug_assert_eq!(v.len(), LANES);
        let mut e = [1usize; LANES];
        for _ in 0..self.height {
            for lane in 0..LANES {
                e[lane] = 2 * e[lane] + usize::from(self.tree[e[lane]] < v[lane]);
            }
        }
        let mut out = [0usize; LANES];
        for lane in 0..LANES {
            let slot = e[lane] >> (e[lane].trailing_ones() + 1);
            out[lane] = self.rank[slot] as usize;
        }
        out
    }
}

/// Branchless serve-time index over one [`EquiHeightHistogram`].
///
/// Construction cost is `O(k)`; every estimate thereafter is a
/// fixed-depth descent plus three flat-array loads — no per-call
/// cumulative rebuild, no data-dependent branches. All estimates are
/// byte-identical to [`RangeEstimator`](crate::estimate::RangeEstimator)
/// over the same histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketIndex {
    search: Eytzinger,
    /// `below[j]` = Σ counts of buckets `0..j`, pre-converted to f64 (the
    /// exact value `cumulative[j-1] as f64` the bisect path computes).
    below: Box<[f64]>,
    /// `count[j]` = bucket j's count as f64.
    count: Box<[f64]>,
    /// Exclusive lower domain edge of bucket j, widened to i128 so the
    /// first bucket's `min − 1` anchor is defined even at `i64::MIN`.
    lo_edge: Box<[i128]>,
    /// Inclusive upper domain edge of bucket j (i128 for symmetry; the
    /// subtraction `upper − lower` can exceed the i64 range).
    hi_edge: Box<[i128]>,
    min_value: i64,
    max_value: i64,
    total: f64,
}

impl BucketIndex {
    /// Build the index for `hist`.
    pub fn new(hist: &EquiHeightHistogram) -> Self {
        let seps = hist.separators();
        let k = hist.num_buckets();
        let counts = hist.counts();
        let mut below = Vec::with_capacity(k);
        let mut count = Vec::with_capacity(k);
        let mut lo_edge = Vec::with_capacity(k);
        let mut hi_edge = Vec::with_capacity(k);
        let mut acc = 0u64;
        for j in 0..k {
            below.push(acc as f64);
            acc += counts[j];
            count.push(counts[j] as f64);
            lo_edge.push(if j == 0 { hist.min_value() as i128 - 1 } else { seps[j - 1] as i128 });
            hi_edge.push(if j == k - 1 { hist.max_value() as i128 } else { seps[j] as i128 });
        }
        samplehist_obs::global().counter("index.bucket.built", 1);
        Self {
            search: Eytzinger::new(seps),
            below: below.into_boxed_slice(),
            count: count.into_boxed_slice(),
            lo_edge: lo_edge.into_boxed_slice(),
            hi_edge: hi_edge.into_boxed_slice(),
            min_value: hist.min_value(),
            max_value: hist.max_value(),
            total: hist.total() as f64,
        }
    }

    /// Number of buckets indexed.
    pub fn num_buckets(&self) -> usize {
        self.count.len()
    }

    /// Index of the bucket containing `v` — the branchless equivalent of
    /// [`EquiHeightHistogram::bucket_of`].
    #[inline]
    pub fn bucket_of(&self, v: i64) -> usize {
        self.search.partition_point(v)
    }

    /// Interpolation epilogue shared by the scalar and batched paths:
    /// replays `RangeEstimator::estimate_le`'s arithmetic exactly, with
    /// the bucket already resolved to `j`.
    #[inline]
    fn finish_le(&self, t: i64, j: usize) -> f64 {
        if t < self.min_value {
            return 0.0;
        }
        if t >= self.max_value {
            return self.total;
        }
        let lower = self.lo_edge[j];
        let upper = self.hi_edge[j];
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
        self.below[j] + fraction * self.count[j]
    }

    /// Estimated number of values `≤ t`.
    #[inline]
    pub fn estimate_le(&self, t: i64) -> f64 {
        self.finish_le(t, self.search.partition_point(t))
    }

    /// A forward-only [`LeCursor`] starting below every bucket.
    pub fn le_cursor(&self) -> LeCursor<'_> {
        LeCursor {
            index: self,
            bucket: 0,
            last: self.count.len().saturating_sub(1),
            floor: i64::MIN,
        }
    }

    /// Estimated number of values `< t`.
    #[inline]
    pub fn estimate_lt(&self, t: i64) -> f64 {
        if t == i64::MIN {
            0.0
        } else {
            self.estimate_le(t - 1)
        }
    }

    /// Estimated output size of `x ≤ v ≤ y` (0 for `x > y`).
    #[inline]
    pub fn estimate_range(&self, x: i64, y: i64) -> f64 {
        if x > y {
            return 0.0;
        }
        (self.estimate_le(y) - self.estimate_lt(x)).max(0.0)
    }

    /// One-point range `v = t` (what the residual side of an equality
    /// estimate reduces to).
    #[inline]
    pub fn estimate_eq(&self, t: i64) -> f64 {
        self.estimate_range(t, t)
    }

    /// Batched range estimation: `out[i]` = estimate of
    /// `probes[i].0 ≤ v ≤ probes[i].1`, byte-identical to calling
    /// [`Self::estimate_range`] per probe. Probes are processed in
    /// chunks of eight with interleaved descents for both endpoints.
    ///
    /// # Panics
    /// If `out.len() != probes.len()`.
    pub fn estimate_range_batch(&self, probes: &[(i64, i64)], out: &mut [f64]) {
        assert_eq!(probes.len(), out.len(), "output slice must match probe count");
        let recorder = samplehist_obs::global();
        if recorder.is_enabled() {
            recorder.counter("index.range_batch.calls", 1);
            recorder.counter("index.range_batch.probes", probes.len() as u64);
        }
        let mut chunks = probes.chunks_exact(LANES);
        let mut outs = out.chunks_exact_mut(LANES);
        for (chunk, o) in (&mut chunks).zip(&mut outs) {
            let mut hi = [0i64; LANES];
            let mut lo = [0i64; LANES];
            for lane in 0..LANES {
                hi[lane] = chunk[lane].1;
                // `estimate_lt(x)` probes at `x − 1`; the wrap at
                // i64::MIN is immaterial because that lane's epilogue
                // short-circuits to 0 before touching the descent result.
                lo[lane] = chunk[lane].0.wrapping_sub(1);
            }
            let jhi = self.search.partition_point8(&hi);
            let jlo = self.search.partition_point8(&lo);
            for lane in 0..LANES {
                let (x, y) = chunk[lane];
                o[lane] = if x > y {
                    0.0
                } else {
                    let le = self.finish_le(y, jhi[lane]);
                    let lt = if x == i64::MIN { 0.0 } else { self.finish_le(x - 1, jlo[lane]) };
                    (le - lt).max(0.0)
                };
            }
        }
        for (&(x, y), o) in chunks.remainder().iter().zip(outs.into_remainder()) {
            *o = self.estimate_range(x, y);
        }
    }

    /// Batched equality estimation: `out[i]` = one-point range estimate
    /// of `v = probes[i]`, byte-identical to [`Self::estimate_eq`] per
    /// probe.
    ///
    /// # Panics
    /// If `out.len() != probes.len()`.
    pub fn estimate_eq_batch(&self, probes: &[i64], out: &mut [f64]) {
        assert_eq!(probes.len(), out.len(), "output slice must match probe count");
        let recorder = samplehist_obs::global();
        if recorder.is_enabled() {
            recorder.counter("index.eq_batch.calls", 1);
            recorder.counter("index.eq_batch.probes", probes.len() as u64);
        }
        let mut chunks = probes.chunks_exact(LANES);
        let mut outs = out.chunks_exact_mut(LANES);
        for (chunk, o) in (&mut chunks).zip(&mut outs) {
            let mut below = [0i64; LANES];
            for lane in 0..LANES {
                below[lane] = chunk[lane].wrapping_sub(1);
            }
            let jeq = self.search.partition_point8(chunk);
            let jlt = self.search.partition_point8(&below);
            for lane in 0..LANES {
                let t = chunk[lane];
                let le = self.finish_le(t, jeq[lane]);
                let lt = if t == i64::MIN { 0.0 } else { self.finish_le(t - 1, jlt[lane]) };
                o[lane] = (le - lt).max(0.0);
            }
        }
        for (&t, o) in chunks.remainder().iter().zip(outs.into_remainder()) {
            *o = self.estimate_eq(t);
        }
    }
}

/// [`BucketIndex::estimate_le`] for non-decreasing thresholds, by walking
/// instead of descending.
///
/// Each call advances the bucket pointer past every separator `< t` —
/// exactly the bucket the descent would land on — and then runs the
/// index's interpolation epilogue, so each answer is byte-identical to
/// [`BucketIndex::estimate_le`]. Over a whole sweep the pointer moves at
/// most `k − 1` times.
#[derive(Debug, Clone)]
pub struct LeCursor<'a> {
    index: &'a BucketIndex,
    bucket: usize,
    /// Last bucket: the pointer never passes it (`k − 1` separators).
    last: usize,
    /// Previous threshold; thresholds must not decrease.
    floor: i64,
}

impl LeCursor<'_> {
    /// Estimated number of values `≤ t`, for `t` at or above every
    /// threshold this cursor has seen.
    ///
    /// # Panics
    /// In debug builds, if `t` is below the previous threshold.
    #[inline]
    pub fn estimate_le(&mut self, t: i64) -> f64 {
        debug_assert!(t >= self.floor, "LeCursor thresholds must not decrease");
        self.floor = t;
        let index = self.index;
        // `hi_edge[j]` is separator j for every j below the last bucket.
        while self.bucket < self.last && index.hi_edge[self.bucket] < i128::from(t) {
            self.bucket += 1;
        }
        index.finish_le(t, self.bucket)
    }
}

/// Branchless serve-time index over one [`CompressedHistogram`]: the
/// high-frequency side table as an Eytzinger tree with prefix-summed
/// exact counts, the residue as a nested [`BucketIndex`].
///
/// A heavy range sum is two descents and one u64 subtraction (the prefix
/// difference equals the side table's in-range sum exactly); an equality
/// probe is one descent that *also* classifies the constant as heavy or
/// light — which is how the engine's old double lookup (membership
/// bisect, then a second bisect inside `estimate_eq`) collapses into a
/// single descent.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedIndex {
    search: Eytzinger,
    /// Heavy values, ascending (hit test for the descent's landing rank).
    values: Box<[i64]>,
    /// Exact heavy counts, aligned with `values`.
    counts: Box<[u64]>,
    /// `prefix[i]` = Σ `counts[..i]`; `len + 1` entries.
    prefix: Box<[u64]>,
    residual: Option<BucketIndex>,
}

impl CompressedIndex {
    /// Build the index for `hist`.
    pub fn new(hist: &CompressedHistogram) -> Self {
        let heavy = hist.high_frequency_values();
        let values: Box<[i64]> = heavy.iter().map(|&(v, _)| v).collect();
        let counts: Box<[u64]> = heavy.iter().map(|&(_, c)| c).collect();
        let mut prefix = Vec::with_capacity(heavy.len() + 1);
        let mut acc = 0u64;
        prefix.push(0);
        for &c in counts.iter() {
            acc += c;
            prefix.push(acc);
        }
        samplehist_obs::global().counter("index.compressed.built", 1);
        Self {
            search: Eytzinger::new(&values),
            values,
            counts,
            prefix: prefix.into_boxed_slice(),
            residual: hist.residual().map(BucketIndex::new),
        }
    }

    /// The residue's index, when the compressed histogram has one.
    pub fn residual(&self) -> Option<&BucketIndex> {
        self.residual.as_ref()
    }

    /// Number of heavy values ≤ `v`.
    #[inline]
    fn heavy_le(&self, v: i64) -> usize {
        if v == i64::MAX {
            self.values.len()
        } else {
            self.search.partition_point(v + 1)
        }
    }

    /// Equality estimate plus the heavy/light classification, from a
    /// single descent. Byte-identical to
    /// [`CompressedHistogram::estimate_eq`]; the flag is `true` exactly
    /// when the old membership bisect would have hit.
    #[inline]
    pub fn estimate_eq_classified(&self, v: i64) -> (f64, bool) {
        let j = self.search.partition_point(v);
        if j < self.values.len() && self.values[j] == v {
            return (self.counts[j] as f64, true);
        }
        let light = match &self.residual {
            None => 0.0,
            Some(r) => r.estimate_range(v, v),
        };
        (light, false)
    }

    /// Equality estimate: exact for heavy values, residual one-point
    /// range otherwise.
    #[inline]
    pub fn estimate_eq(&self, v: i64) -> f64 {
        self.estimate_eq_classified(v).0
    }

    /// Estimated output size of `x ≤ v ≤ y`: exact in-range heavy mass
    /// (prefix difference) plus the residual's interpolated estimate.
    /// Byte-identical to [`CompressedHistogram::estimate_range`].
    #[inline]
    pub fn estimate_range(&self, x: i64, y: i64) -> f64 {
        if x > y {
            return 0.0;
        }
        let heavy = self.prefix[self.heavy_le(y)] - self.prefix[self.search.partition_point(x)];
        let light = match &self.residual {
            None => 0.0,
            Some(r) => r.estimate_range(x, y),
        };
        heavy as f64 + light
    }

    /// Batched range estimation: `out[i]` = estimate of
    /// `probes[i].0 ≤ v ≤ probes[i].1`, byte-identical to calling
    /// [`Self::estimate_range`] per probe. The heavy prefix difference
    /// runs eight interleaved descents per endpoint; the residual side
    /// goes through [`BucketIndex::estimate_range_batch`] in one call.
    ///
    /// # Panics
    /// If `out.len() != probes.len()`.
    pub fn estimate_range_batch(&self, probes: &[(i64, i64)], out: &mut [f64]) {
        assert_eq!(probes.len(), out.len(), "output slice must match probe count");
        let recorder = samplehist_obs::global();
        if recorder.is_enabled() {
            recorder.counter("index.compressed_range_batch.calls", 1);
            recorder.counter("index.compressed_range_batch.probes", probes.len() as u64);
        }
        // Residual estimates for every probe in one batched pass; lanes
        // with x > y come back 0.0 and are discarded below anyway.
        match &self.residual {
            None => out.fill(0.0),
            Some(r) => r.estimate_range_batch(probes, out),
        }
        let mut chunks = probes.chunks_exact(LANES);
        let mut outs = out.chunks_exact_mut(LANES);
        for (chunk, o) in (&mut chunks).zip(&mut outs) {
            let mut hi = [0i64; LANES];
            let mut lo = [0i64; LANES];
            for lane in 0..LANES {
                // `heavy_le(y)` probes at `y + 1`; the wrap at i64::MAX
                // is immaterial because that lane's epilogue substitutes
                // the full table length before touching the result.
                hi[lane] = chunk[lane].1.wrapping_add(1);
                lo[lane] = chunk[lane].0;
            }
            let jhi = self.search.partition_point8(&hi);
            let jlo = self.search.partition_point8(&lo);
            for lane in 0..LANES {
                let (x, y) = chunk[lane];
                o[lane] = if x > y {
                    0.0
                } else {
                    let le = if y == i64::MAX { self.values.len() } else { jhi[lane] };
                    let heavy = self.prefix[le] - self.prefix[jlo[lane]];
                    heavy as f64 + o[lane]
                };
            }
        }
        for (&(x, y), o) in chunks.remainder().iter().zip(outs.into_remainder()) {
            *o = if x > y {
                0.0
            } else {
                let heavy =
                    self.prefix[self.heavy_le(y)] - self.prefix[self.search.partition_point(x)];
                heavy as f64 + *o
            };
        }
    }

    /// Batched equality estimation with classification: `out[i]` =
    /// [`Self::estimate_eq_classified`] of `probes[i]`, byte-identically.
    /// Heavy hits resolve in the eight-lane descent; the light residue
    /// is gathered and answered by one nested
    /// [`BucketIndex::estimate_eq_batch`] call.
    ///
    /// # Panics
    /// If `out.len() != probes.len()`.
    pub fn estimate_eq_classified_batch(&self, probes: &[i64], out: &mut [(f64, bool)]) {
        assert_eq!(probes.len(), out.len(), "output slice must match probe count");
        let recorder = samplehist_obs::global();
        if recorder.is_enabled() {
            recorder.counter("index.classified_eq_batch.calls", 1);
            recorder.counter("index.classified_eq_batch.probes", probes.len() as u64);
        }
        let mut light_slots: Vec<usize> = Vec::new();
        let mut light_probes: Vec<i64> = Vec::new();
        let chunks = probes.chunks_exact(LANES);
        let tail = chunks.remainder();
        for (c, chunk) in chunks.enumerate() {
            let j = self.search.partition_point8(chunk);
            for lane in 0..LANES {
                let i = c * LANES + lane;
                let v = chunk[lane];
                if j[lane] < self.values.len() && self.values[j[lane]] == v {
                    out[i] = (self.counts[j[lane]] as f64, true);
                } else {
                    out[i] = (0.0, false);
                    light_slots.push(i);
                    light_probes.push(v);
                }
            }
        }
        let base = probes.len() - tail.len();
        for (t, &v) in tail.iter().enumerate() {
            let i = base + t;
            let j = self.search.partition_point(v);
            if j < self.values.len() && self.values[j] == v {
                out[i] = (self.counts[j] as f64, true);
            } else {
                out[i] = (0.0, false);
                light_slots.push(i);
                light_probes.push(v);
            }
        }
        if let Some(r) = &self.residual {
            let mut light_out = vec![0.0; light_probes.len()];
            r.estimate_eq_batch(&light_probes, &mut light_out);
            for (&slot, est) in light_slots.iter().zip(light_out) {
                out[slot].0 = est;
            }
        }
    }

    /// Batched equality estimation with the eight-lane heavy descent;
    /// byte-identical to [`Self::estimate_eq`] per probe.
    ///
    /// # Panics
    /// If `out.len() != probes.len()`.
    pub fn estimate_eq_batch(&self, probes: &[i64], out: &mut [f64]) {
        assert_eq!(probes.len(), out.len(), "output slice must match probe count");
        let recorder = samplehist_obs::global();
        if recorder.is_enabled() {
            recorder.counter("index.compressed_eq_batch.calls", 1);
            recorder.counter("index.compressed_eq_batch.probes", probes.len() as u64);
        }
        let mut chunks = probes.chunks_exact(LANES);
        let mut outs = out.chunks_exact_mut(LANES);
        for (chunk, o) in (&mut chunks).zip(&mut outs) {
            let j = self.search.partition_point8(chunk);
            for lane in 0..LANES {
                let v = chunk[lane];
                o[lane] = if j[lane] < self.values.len() && self.values[j[lane]] == v {
                    self.counts[j[lane]] as f64
                } else {
                    match &self.residual {
                        None => 0.0,
                        Some(r) => r.estimate_range(v, v),
                    }
                };
            }
        }
        for (&v, o) in chunks.remainder().iter().zip(outs.into_remainder()) {
            *o = self.estimate_eq(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::RangeEstimator;

    fn assert_bits(a: f64, b: f64, what: &str) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
    }

    #[test]
    fn eytzinger_matches_partition_point_exhaustively() {
        for m in 0..20usize {
            let sorted: Vec<i64> = (0..m as i64).map(|i| i * 3).collect();
            let tree = Eytzinger::new(&sorted);
            for v in -2..(3 * m as i64 + 2) {
                assert_eq!(
                    tree.partition_point(v),
                    sorted.partition_point(|&s| s < v),
                    "m = {m}, v = {v}"
                );
            }
        }
    }

    #[test]
    fn eytzinger_handles_duplicates_and_extremes() {
        let sorted = vec![i64::MIN, i64::MIN, -5, -5, -5, 0, 7, 7, i64::MAX, i64::MAX];
        let tree = Eytzinger::new(&sorted);
        for v in [i64::MIN, i64::MIN + 1, -5, -4, 0, 1, 7, 8, i64::MAX - 1, i64::MAX] {
            assert_eq!(tree.partition_point(v), sorted.partition_point(|&s| s < v), "v = {v}");
        }
    }

    #[test]
    fn one_bucket_histogram() {
        // No separators: the tree is empty and everything interpolates
        // within the single bucket.
        let h = EquiHeightHistogram::from_parts(vec![], vec![10], 0, 9);
        let idx = BucketIndex::new(&h);
        let est = RangeEstimator::new(&h);
        for t in [-1, 0, 4, 9, 10] {
            assert_bits(idx.estimate_le(t), est.estimate_le(t), "one bucket le");
        }
        assert_eq!(idx.num_buckets(), 1);
    }

    #[test]
    fn all_equal_histogram_is_all_or_nothing() {
        // Degenerate buckets: every separator equals the single value.
        let data = vec![42i64; 100];
        let h = EquiHeightHistogram::from_sorted(&data, 4);
        let idx = BucketIndex::new(&h);
        let est = RangeEstimator::new(&h);
        for t in [41, 42, 43] {
            assert_bits(idx.estimate_le(t), est.estimate_le(t), "all equal le");
            assert_bits(
                idx.estimate_range(t, t),
                est.estimate_range(t, t),
                "all equal point range",
            );
        }
        assert_eq!(idx.estimate_eq(42), 100.0);
        assert_eq!(idx.estimate_eq(41), 0.0);
    }

    #[test]
    fn min_max_edge_separators() {
        // Separators at both i64 extremes: the old bisect path's
        // `min − 1` anchor and `upper − lower` width both leave the i64
        // range; the widened i128 arithmetic must agree with the (also
        // widened) RangeEstimator.
        let h = EquiHeightHistogram::from_parts(
            vec![i64::MIN, 0, i64::MAX],
            vec![3, 5, 7, 11],
            i64::MIN,
            i64::MAX,
        );
        let idx = BucketIndex::new(&h);
        let est = RangeEstimator::new(&h);
        for t in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX] {
            assert_bits(idx.estimate_le(t), est.estimate_le(t), "extreme le");
            assert_bits(idx.estimate_lt(t), est.estimate_lt(t), "extreme lt");
        }
        for (x, y) in [(i64::MIN, i64::MAX), (i64::MIN, 0), (0, i64::MAX), (5, 4)] {
            assert_bits(idx.estimate_range(x, y), est.estimate_range(x, y), "extreme range");
        }
    }

    #[test]
    fn batch_matches_scalar_including_remainder() {
        let data: Vec<i64> = (0..999).map(|i| (i * i) % 4001).collect();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let h = EquiHeightHistogram::from_sorted(&sorted, 13);
        let idx = BucketIndex::new(&h);
        // 21 probes: two full lanes plus a 5-probe remainder.
        let probes: Vec<(i64, i64)> = (0..21)
            .map(|i| {
                let x = (i * 397) % 4400 - 200;
                (x, x + (i % 7) * 100)
            })
            .collect();
        let mut out = vec![0.0; probes.len()];
        idx.estimate_range_batch(&probes, &mut out);
        for (i, &(x, y)) in probes.iter().enumerate() {
            assert_bits(out[i], idx.estimate_range(x, y), "range batch lane");
        }
        let eqs: Vec<i64> = (0..21).map(|i| (i * 211) % 4300 - 100).collect();
        let mut out = vec![0.0; eqs.len()];
        idx.estimate_eq_batch(&eqs, &mut out);
        for (i, &t) in eqs.iter().enumerate() {
            assert_bits(out[i], idx.estimate_eq(t), "eq batch lane");
        }
    }

    #[test]
    fn batch_handles_min_endpoint() {
        let h = EquiHeightHistogram::from_parts(vec![0], vec![4, 4], i64::MIN, i64::MAX);
        let idx = BucketIndex::new(&h);
        let probes: Vec<(i64, i64)> = (0..8).map(|i| (i64::MIN, i64::MIN + i * 1000)).collect();
        let mut out = vec![0.0; probes.len()];
        idx.estimate_range_batch(&probes, &mut out);
        for (i, &(x, y)) in probes.iter().enumerate() {
            assert_bits(out[i], idx.estimate_range(x, y), "MIN endpoint");
        }
        let eqs = vec![i64::MIN; 8];
        let mut out = vec![0.0; 8];
        idx.estimate_eq_batch(&eqs, &mut out);
        for &o in &out {
            assert_bits(o, idx.estimate_eq(i64::MIN), "MIN eq");
        }
    }

    #[test]
    fn compressed_index_empty_heavy_table() {
        // All-distinct data: no value exceeds n/k, the side table is
        // empty and everything routes to the residual.
        let data: Vec<i64> = (0..1000).collect();
        let c = CompressedHistogram::from_sorted(&data, 10);
        assert!(c.high_frequency_values().is_empty());
        let idx = CompressedIndex::new(&c);
        for v in [-1, 0, 500, 999, 1000] {
            assert_bits(idx.estimate_eq(v), c.estimate_eq(v), "empty heavy eq");
        }
        assert_bits(idx.estimate_range(100, 200), c.estimate_range(100, 200), "empty heavy rng");
    }

    #[test]
    fn compressed_index_classifies_heavy_vs_light() {
        let mut data = vec![50i64; 90];
        data.extend([1, 2, 3, 4, 5, 96, 97, 98, 99, 100]);
        data.sort_unstable();
        let c = CompressedHistogram::from_sorted(&data, 10);
        let idx = CompressedIndex::new(&c);
        let (heavy_est, heavy) = idx.estimate_eq_classified(50);
        assert!(heavy, "50 holds 90% of the column");
        assert_eq!(heavy_est, 90.0);
        let (_, light) = idx.estimate_eq_classified(3);
        assert!(!light);
        for v in [0, 3, 50, 96, 101] {
            assert_bits(idx.estimate_eq(v), c.estimate_eq(v), "classified eq");
        }
        for (x, y) in [(0, 100), (50, 50), (51, 100), (101, 200), (7, 3)] {
            assert_bits(idx.estimate_range(x, y), c.estimate_range(x, y), "compressed range");
        }
        // Batch agrees with scalar across lanes and remainder.
        let probes: Vec<i64> = (0..19).map(|i| i * 7 % 110).collect();
        let mut out = vec![0.0; probes.len()];
        idx.estimate_eq_batch(&probes, &mut out);
        for (i, &v) in probes.iter().enumerate() {
            assert_bits(out[i], c.estimate_eq(v), "compressed eq batch");
        }
    }

    #[test]
    fn compressed_range_batch_matches_scalar() {
        let mut data: Vec<i64> = (0..500).map(|i| (i * 13) % 211).collect();
        data.extend(vec![77i64; 300]);
        data.extend(vec![5i64; 200]);
        data.sort_unstable();
        let c = CompressedHistogram::from_sorted(&data, 12);
        let idx = CompressedIndex::new(&c);
        // 21 probes: full lanes plus remainder, including inverted,
        // out-of-domain, and i64 extreme endpoints.
        let mut probes: Vec<(i64, i64)> = (0..17)
            .map(|i| {
                let x = (i * 37) % 250 - 20;
                (x, x + (i % 5) * 40)
            })
            .collect();
        probes.push((9, 3));
        probes.push((i64::MIN, i64::MAX));
        probes.push((0, i64::MAX));
        probes.push((i64::MAX, i64::MAX));
        let mut out = vec![0.0; probes.len()];
        idx.estimate_range_batch(&probes, &mut out);
        for (i, &(x, y)) in probes.iter().enumerate() {
            assert_bits(out[i], idx.estimate_range(x, y), "compressed range batch lane");
            assert_bits(out[i], c.estimate_range(x, y), "compressed range batch vs hist");
        }
    }

    #[test]
    fn compressed_range_batch_without_residual() {
        // Every value heavy: no residual index at all.
        let mut data = vec![1i64; 40];
        data.extend(vec![2i64; 40]);
        data.extend(vec![3i64; 40]);
        let c = CompressedHistogram::from_sorted(&data, 4);
        let idx = CompressedIndex::new(&c);
        let probes: Vec<(i64, i64)> = vec![(0, 0), (1, 1), (1, 2), (0, 9), (3, 1), (2, 3)];
        let mut out = vec![0.0; probes.len()];
        idx.estimate_range_batch(&probes, &mut out);
        for (i, &(x, y)) in probes.iter().enumerate() {
            assert_bits(out[i], idx.estimate_range(x, y), "no residual range batch");
        }
    }

    #[test]
    fn classified_eq_batch_matches_scalar() {
        let mut data = vec![50i64; 90];
        data.extend(vec![60i64; 85]);
        data.extend((0..40).map(|i| i * 3));
        data.sort_unstable();
        let c = CompressedHistogram::from_sorted(&data, 10);
        let idx = CompressedIndex::new(&c);
        // Heavy hits, light hits, misses, and extremes across lanes + tail.
        let mut probes: Vec<i64> = (0..18).map(|i| (i * 11) % 130 - 4).collect();
        probes.push(50);
        probes.push(60);
        probes.push(i64::MIN);
        probes.push(i64::MAX);
        let mut out = vec![(0.0, false); probes.len()];
        idx.estimate_eq_classified_batch(&probes, &mut out);
        for (i, &v) in probes.iter().enumerate() {
            let (est, heavy) = idx.estimate_eq_classified(v);
            assert_bits(out[i].0, est, "classified batch estimate");
            assert_eq!(out[i].1, heavy, "classified batch flag for {v}");
        }
    }
}
