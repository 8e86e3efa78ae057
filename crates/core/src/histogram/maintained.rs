//! Incrementally maintained approximate equi-height histograms — the
//! problem setting of Gibbons, Matias & Poosala (VLDB 1997), the closest
//! prior work the paper compares its bounds against (Section 3.4).
//!
//! The paper's own algorithms rebuild statistics from a fresh sample; GMP
//! instead keep a histogram continuously correct as tuples are **added**
//! to the relation, using a *backing sample* plus a split-and-rebuild
//! rule. This module implements that strategy in its insert-only form:
//!
//! * a reservoir maintains a uniform backing sample of the growing
//!   relation;
//! * each insert increments the (estimated) count of the bucket the new
//!   value falls in;
//! * when some bucket exceeds `(1 + tolerance) · n/k`, the histogram is
//!   **re-derived from the backing sample** — an O(r log r) local repair
//!   that needs no scan of the relation.
//!
//! The combination gives a histogram whose max error stays bounded by the
//! tolerance (plus the sampling error of the backing sample, which is
//! governed by Corollary 1 applied to the reservoir's capacity) while
//! processing inserts in O(log k) amortized.

use std::fmt;

use rand::Rng;

use super::bucket_counts;
use super::compressed::{heavy_runs, without_runs, CompressedHistogram};
use super::count_le;
use super::equi_height::{scale_counts_largest_remainder, EquiHeightHistogram};
use crate::error::histogram_fractional_error;
use crate::sampling::Reservoir;

/// An equi-height histogram kept approximately correct under inserts.
#[derive(Debug, Clone)]
pub struct MaintainedHistogram {
    buckets: usize,
    /// Relative slack a bucket may accumulate before a rebuild.
    tolerance: f64,
    /// Uniform backing sample of everything ever inserted.
    backing: Reservoir,
    /// Current histogram (separators + live counts).
    histogram: EquiHeightHistogram,
    /// Live per-bucket counts (updated per insert; `histogram.counts()`
    /// is refreshed from these at rebuild time).
    counts: Vec<u64>,
    /// Total tuples inserted.
    total: u64,
    /// Total at the time of the last rebuild (drives the growth trigger).
    last_rebuild_total: u64,
    /// Rebuilds performed so far (observability for tests/benches).
    rebuilds: u64,
}

impl MaintainedHistogram {
    /// Start maintaining a `buckets`-bucket histogram with a backing
    /// sample of `sample_capacity` and the given rebuild `tolerance`
    /// (e.g. 0.5 = rebuild when a bucket reaches 150% of the ideal size).
    ///
    /// `initial` seeds the structure (it may be a single tuple; the
    /// histogram grows with the data).
    ///
    /// # Panics
    /// If `buckets == 0`, `sample_capacity == 0`, `tolerance ≤ 0`, or
    /// `initial` is empty.
    pub fn new(
        buckets: usize,
        sample_capacity: usize,
        tolerance: f64,
        initial: &[i64],
        rng: &mut impl Rng,
    ) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        assert!(sample_capacity > 0, "backing sample must have capacity");
        assert!(tolerance > 0.0, "tolerance must be positive");
        assert!(!initial.is_empty(), "need at least one initial tuple");

        let mut backing = Reservoir::new(sample_capacity);
        backing.offer_all(initial, rng);
        let total = initial.len() as u64;
        let (histogram, counts) = rebuild_from(&backing, buckets, total);
        Self {
            buckets,
            tolerance,
            backing,
            histogram,
            counts,
            total,
            last_rebuild_total: total,
            rebuilds: 0,
        }
    }

    /// Insert one tuple. Amortized O(log k); occasionally O(r log r) when
    /// a bucket trips the tolerance and the histogram is re-derived from
    /// the backing sample.
    pub fn insert(&mut self, value: i64, rng: &mut impl Rng) {
        self.backing.offer(value, rng);
        self.total += 1;
        let j = self.histogram.bucket_of(value);
        self.counts[j] += 1;

        // Two triggers: a bucket drifted past the tolerance, or the
        // relation doubled since the last rebuild (separators derived
        // from a much smaller reservoir snapshot go stale even when no
        // single bucket trips — e.g. uniformly random insert orders).
        let ideal = self.total as f64 / self.buckets as f64;
        let bucket_tripped = self.counts[j] as f64 > (1.0 + self.tolerance) * ideal;
        let growth_tripped = self.total >= 2 * self.last_rebuild_total;
        if bucket_tripped || growth_tripped {
            let (h, c) = rebuild_from(&self.backing, self.buckets, self.total);
            self.histogram = h;
            self.counts = c;
            self.last_rebuild_total = self.total;
            self.rebuilds += 1;
        }
    }

    /// Insert a batch.
    pub fn insert_all(&mut self, values: &[i64], rng: &mut impl Rng) {
        for &v in values {
            self.insert(v, rng);
        }
    }

    /// The current histogram. Counts are the live per-bucket tallies
    /// scaled into a fresh structure, so the result is internally
    /// consistent (`Σ counts = total inserted`).
    pub fn histogram(&self) -> EquiHeightHistogram {
        EquiHeightHistogram::from_parts(
            self.histogram.separators().to_vec(),
            self.counts.clone(),
            self.histogram.min_value(),
            self.histogram.max_value(),
        )
    }

    /// Tuples inserted so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Size of the backing sample currently held.
    pub fn backing_sample_len(&self) -> usize {
        self.backing.items().len()
    }
}

/// Derive (histogram, live counts) from the backing sample.
fn rebuild_from(
    backing: &Reservoir,
    buckets: usize,
    total: u64,
) -> (EquiHeightHistogram, Vec<u64>) {
    let mut sample = backing.items().to_vec();
    sample.sort_unstable();
    let h = EquiHeightHistogram::from_sorted_sample(&sample, buckets, total);
    let counts = h.counts().to_vec();
    (h, counts)
}

/// Tuning for probe-fed histogram patching ([`PatchableStats`]).
///
/// All thresholds are expressed relative to the *ideal* build-half bucket
/// mass `|A|/k`, mirroring the GMP split-and-rebuild trigger: a bucket
/// whose fresh-sample mass has drifted far above the ideal is split at
/// the sample's within-bucket quantiles; runs of buckets that have
/// emptied out are merged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatchPolicy {
    /// Split a bucket once its build-half mass exceeds
    /// `(1 + split_tolerance) · |A|/k` (GMP's rebuild tolerance, applied
    /// per bucket).
    pub split_tolerance: f64,
    /// Merge an adjacent run of buckets while the run's combined
    /// build-half mass stays ≤ `merge_fill · |A|/k`.
    pub merge_fill: f64,
    /// Refuse to patch when the build half carries fewer than this many
    /// tuples per bucket — below it the within-bucket quantiles are
    /// noise and a patch would certify nothing.
    pub min_sample_per_bucket: f64,
}

impl Default for PatchPolicy {
    fn default() -> Self {
        Self { split_tolerance: 0.5, merge_fill: 0.75, min_sample_per_bucket: 2.0 }
    }
}

/// Why a patch was not attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchRefusal {
    /// The probe sample's build half is too small for the bucket count
    /// (see [`PatchPolicy::min_sample_per_bucket`]).
    SampleTooSmall {
        /// Build-half tuples available.
        got: usize,
        /// Minimum the policy demands.
        need: usize,
    },
}

impl fmt::Display for PatchRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchRefusal::SampleTooSmall { got, need } => {
                write!(f, "patch refused: build half has {got} tuples, need {need}")
            }
        }
    }
}

impl std::error::Error for PatchRefusal {}

/// A patched statistics artifact: the repaired histogram(s) plus the
/// split/merge tally of the repair. Produced by
/// [`PatchableStats::patch_from`]; the patched histogram is a plain
/// [`EquiHeightHistogram`] (and optional [`CompressedHistogram`]) served
/// through the same indexes as a rebuilt one.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchedStats {
    /// The repaired equi-height histogram (counts re-derived from the
    /// build half, scaled to the population with the same
    /// largest-remainder rule as a fresh sampled build).
    pub histogram: EquiHeightHistogram,
    /// The repaired compressed histogram, present iff the stored
    /// statistics carried one.
    pub compressed: Option<CompressedHistogram>,
    /// Bucket splits performed (boundaries added).
    pub splits: usize,
    /// Bucket merges performed (boundaries removed).
    pub merges: usize,
}

/// A validated patch: the artifact plus its Definition-4 max-error
/// certificate measured against the held-out validation half of the
/// probe sample. Produced by [`PatchableStats::patch`].
#[derive(Debug, Clone, PartialEq)]
pub struct PatchOutcome {
    /// The repaired statistics.
    pub patched: PatchedStats,
    /// Definition-4 relative max bucket error (`Δ̂max`) of the patched
    /// histogram against the validation half — the number the service
    /// compares to the widened Theorem 7 bound.
    pub error: f64,
    /// Tuples in the build half.
    pub build_tuples: usize,
    /// Tuples in the validation half.
    pub validation_tuples: usize,
}

/// Stored statistics viewed as a patchable representation.
///
/// The paper's pipeline rebuilds statistics from a fresh Corollary-1
/// sample; GMP maintenance instead repairs them in place from a backing
/// sample. `PatchableStats` ports that repair rule to the service's
/// refresh path: the Theorem-7 staleness probe already draws a
/// Corollary-1-sized uniform sample, and instead of discarding it after
/// the pass/fail verdict, the patch path spends it twice —
///
/// 1. the sorted sample is split into a **build half** A (even indexes)
///    and a **validation half** B (odd indexes), two interleaved uniform
///    samples of the live table;
/// 2. A re-derives the structure: stored separators are kept where A's
///    per-bucket mass still fits, overfull buckets are split at A's
///    within-bucket quantiles, emptied runs are merged, and the result
///    is rebalanced to exactly the stored bucket count; counts are
///    recounted from A and scaled to the population;
/// 3. B — untouched by step 2 — yields an honest Theorem-7-style
///    cross-validation certificate: the patched histogram's Definition-4
///    error against an independent sample ([`PatchOutcome::error`]).
///
/// The caller accepts the patch iff that certificate is within the
/// widened Theorem 7 bound for `|B|` tuples; otherwise it escalates to a
/// full rebuild. Everything is deterministic in the supplied `rng`
/// stream (drawn only when a sample-empty bucket must be split, to pick
/// an interior split point).
#[derive(Debug, Clone, Copy)]
pub struct PatchableStats<'a> {
    histogram: &'a EquiHeightHistogram,
    compressed: Option<&'a CompressedHistogram>,
    policy: PatchPolicy,
}

impl<'a> PatchableStats<'a> {
    /// View stored statistics as patchable, with the default
    /// [`PatchPolicy`].
    pub fn new(
        histogram: &'a EquiHeightHistogram,
        compressed: Option<&'a CompressedHistogram>,
    ) -> Self {
        Self { histogram, compressed, policy: PatchPolicy::default() }
    }

    /// Replace the patch policy.
    pub fn with_policy(mut self, policy: PatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Split a **sorted** probe sample into the (build, validation)
    /// halves by even/odd index — two interleaved uniform samples, each
    /// sorted. Exposed so callers that transform the patched artifact
    /// (e.g. feedback nudges) can re-validate against the same held-out
    /// half.
    pub fn split_sample(sample: &[i64]) -> (Vec<i64>, Vec<i64>) {
        debug_assert!(sample.windows(2).all(|w| w[0] <= w[1]), "sample must be sorted");
        let build = sample.iter().copied().step_by(2).collect();
        let validation = sample.iter().skip(1).copied().step_by(2).collect();
        (build, validation)
    }

    /// Patch the stored statistics from a sorted **build half** of
    /// `population_total` tuples' worth of table. Returns the repaired
    /// artifact without a certificate — use [`Self::patch`] for the
    /// one-call build-and-validate path.
    ///
    /// # Panics
    /// If `build` is unsorted or larger than the population.
    pub fn patch_from(
        &self,
        build: &[i64],
        population_total: u64,
        rng: &mut impl Rng,
    ) -> Result<PatchedStats, PatchRefusal> {
        debug_assert!(build.windows(2).all(|w| w[0] <= w[1]), "build half must be sorted");
        let k = self.histogram.num_buckets();
        let need = (self.policy.min_sample_per_bucket * k as f64).ceil() as usize;
        if build.len() < need.max(1) {
            return Err(PatchRefusal::SampleTooSmall { got: build.len(), need: need.max(1) });
        }
        assert!(
            population_total >= build.len() as u64,
            "population ({population_total}) smaller than build half ({})",
            build.len()
        );

        let (separators, splits, merges) =
            patch_separators(self.histogram, build, k, &self.policy, rng);
        let counts = scale_counts_largest_remainder(
            &bucket_counts(build, &separators),
            build.len() as u64,
            population_total,
        );
        let min_value = self.histogram.min_value().min(build[0]);
        let max_value = self.histogram.max_value().max(*build.last().expect("non-empty"));
        let histogram = EquiHeightHistogram::from_parts(separators, counts, min_value, max_value);

        let mut total_splits = splits;
        let mut total_merges = merges;
        let compressed = self.compressed.map(|stored| {
            let (patched, s, m) =
                patch_compressed(stored, build, population_total, &self.policy, rng);
            total_splits += s;
            total_merges += m;
            patched
        });

        Ok(PatchedStats { histogram, compressed, splits: total_splits, merges: total_merges })
    }

    /// Patch from a full sorted probe sample and certify the result:
    /// split into halves, repair from the build half, and measure the
    /// Definition-4 error of the patched histogram against the held-out
    /// validation half.
    pub fn patch(
        &self,
        sample: &[i64],
        population_total: u64,
        rng: &mut impl Rng,
    ) -> Result<PatchOutcome, PatchRefusal> {
        let (build, validation) = Self::split_sample(sample);
        if validation.is_empty() {
            return Err(PatchRefusal::SampleTooSmall { got: sample.len(), need: 2 });
        }
        let patched = self.patch_from(&build, population_total, rng)?;
        let error = histogram_fractional_error(&patched.histogram, &validation).max;
        Ok(PatchOutcome {
            patched,
            error,
            build_tuples: build.len(),
            validation_tuples: validation.len(),
        })
    }
}

/// The separator repair at the heart of the patch: keep, split, merge,
/// rebalance. Returns `(separators, splits, merges)` with exactly
/// `target_k − 1` separators, all within the union of the stored
/// histogram's and the build half's value ranges.
fn patch_separators(
    stored: &EquiHeightHistogram,
    build: &[i64],
    target_k: usize,
    policy: &PatchPolicy,
    rng: &mut impl Rng,
) -> (Vec<i64>, usize, usize) {
    let ideal = build.len() as f64 / target_k as f64;
    let mut splits = 0usize;
    let mut merges = 0usize;

    // Merge pass: walk the stored buckets left to right, folding a bucket
    // into the run before it while the run stays under the merge fill.
    let stored_seps = stored.separators();
    let stored_counts = bucket_counts(build, stored_seps);
    let mut seps: Vec<i64> = Vec::with_capacity(target_k);
    let mut counts: Vec<u64> = Vec::with_capacity(target_k + 1);
    for (j, &c) in stored_counts.iter().enumerate() {
        if let Some(last) = counts.last_mut() {
            if (*last + c) as f64 <= policy.merge_fill * ideal {
                *last += c;
                merges += 1;
                continue;
            }
        }
        if j > 0 {
            seps.push(stored_seps[j - 1]);
        }
        counts.push(c);
    }

    // Split pass: any bucket past the tolerance is cut at the build
    // half's within-bucket quantiles, GMP's re-derivation localized to
    // the offending bucket.
    let mut seps2: Vec<i64> = Vec::with_capacity(target_k);
    for j in 0..counts.len() {
        if j > 0 {
            seps2.push(seps[j - 1]);
        }
        let c = counts[j] as usize;
        if c as f64 > (1.0 + policy.split_tolerance) * ideal && c >= 2 {
            let lo = if j == 0 { 0 } else { count_le(build, seps[j - 1]) };
            let segment = &build[lo..lo + c];
            let pieces = ((c as f64 / ideal).round() as usize).clamp(2, c);
            for i in 1..pieces {
                let rank = crate::math::div_ceil_u64((i * c) as u64, pieces as u64);
                seps2.push(segment[(rank - 1) as usize]);
            }
            splits += pieces - 1;
        }
    }
    let mut seps = seps2;

    // Rebalance to exactly `target_k` buckets so the patched histogram is
    // structurally interchangeable with a rebuilt one.
    while seps.len() + 1 > target_k {
        // Merge the adjacent pair with the smallest combined build mass.
        let counts = bucket_counts(build, &seps);
        let j = (0..counts.len() - 1)
            .min_by_key(|&j| counts[j] + counts[j + 1])
            .expect("more than one bucket");
        seps.remove(j);
        merges += 1;
    }
    while seps.len() + 1 < target_k {
        // Split the bucket with the largest build mass at its sample
        // median; a sample-empty bucket is split at a random interior
        // point of its domain (the patch's only use of randomness).
        let counts = bucket_counts(build, &seps);
        let j = (0..counts.len()).max_by_key(|&j| counts[j]).expect("at least one bucket");
        let c = counts[j] as usize;
        let new_sep = if c >= 2 {
            let lo = if j == 0 { 0 } else { count_le(build, seps[j - 1]) };
            let segment = &build[lo..lo + c];
            segment[(c - 1) / 2]
        } else {
            let lo_dom = if j == 0 { stored.min_value().min(build[0]) } else { seps[j - 1] };
            let hi_dom = if j == counts.len() - 1 {
                stored.max_value().max(*build.last().expect("non-empty"))
            } else {
                seps[j]
            };
            if hi_dom > lo_dom + 1 {
                rng.gen_range(lo_dom + 1..=hi_dom - 1)
            } else {
                hi_dom
            }
        };
        seps.insert(j, new_sep);
        splits += 1;
    }

    (seps, splits, merges)
}

/// Repair a stored compressed histogram from the build half: the heavy
/// side table is re-derived exactly (sample multiplicity > `|A|/k`,
/// counts scaled to the population like a fresh sampled build), and the
/// stored residual histogram is patched — not rebuilt — against the
/// build half minus the new heavy values.
fn patch_compressed(
    stored: &CompressedHistogram,
    build: &[i64],
    population_total: u64,
    policy: &PatchPolicy,
    rng: &mut impl Rng,
) -> (CompressedHistogram, usize, usize) {
    let k = stored.buckets_used().max(1);
    let r = build.len() as u64;
    let scale = population_total as f64 / r as f64;
    let threshold = r as f64 / k as f64;

    // Heavy runs of the (sorted) build half, same rule and rounding as
    // `CompressedHistogram::from_sorted_sample`.
    let heavy = heavy_runs(build, threshold);
    debug_assert!(heavy.len() < k.max(2), "pigeonhole: at most k-1 values exceed r/k");
    let runs: Vec<(i64, u64)> = heavy
        .iter()
        .map(|run| (build[run.start], ((run.len() as f64 * scale).round() as u64).max(1)))
        .collect();

    let residual_k = k.saturating_sub(runs.len()).max(1);
    let residual_build = without_runs(build, &heavy);
    let heavy_total: u64 = runs.iter().map(|&(_, c)| c).sum();
    let residual_total = population_total.saturating_sub(heavy_total).max(
        residual_build.len() as u64, // never claim fewer than observed
    );

    let mut splits = 0usize;
    let mut merges = 0usize;
    let residual = (!residual_build.is_empty()).then(|| match stored.residual() {
        Some(res) => {
            let (separators, s, m) =
                patch_separators(res, &residual_build, residual_k, policy, rng);
            splits += s;
            merges += m;
            let counts = scale_counts_largest_remainder(
                &bucket_counts(&residual_build, &separators),
                residual_build.len() as u64,
                residual_total,
            );
            let min_value = res.min_value().min(residual_build[0]);
            let max_value = res.max_value().max(*residual_build.last().expect("non-empty"));
            EquiHeightHistogram::from_parts(separators, counts, min_value, max_value)
        }
        // The stored statistics had no residual (side table covered the
        // column); the fresh one needs a residual, so build it anew.
        None => {
            EquiHeightHistogram::from_sorted_sample(&residual_build, residual_k, residual_total)
        }
    });

    (CompressedHistogram::from_parts(runs, residual, population_total), splits, merges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::max_error_against;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grows_with_inserts_and_stays_consistent() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = MaintainedHistogram::new(10, 500, 0.5, &[0], &mut rng);
        for v in 1..5_000i64 {
            m.insert(v, &mut rng);
        }
        assert_eq!(m.total(), 5_000);
        let h = m.histogram();
        assert_eq!(h.total(), 5_000);
        assert_eq!(h.num_buckets(), 10);
        assert!(m.backing_sample_len() <= 500);
    }

    /// The maintenance contract: after a long insert stream, the
    /// maintained histogram's max error against the true data stays small
    /// — without ever rescanning the relation.
    #[test]
    fn error_stays_bounded_under_growth() {
        let mut rng = StdRng::seed_from_u64(2);
        // Adversarial-ish stream: values arrive in ascending order, so
        // early histograms are always wrong about the future.
        let stream: Vec<i64> = (0..40_000).collect();
        let mut m = MaintainedHistogram::new(20, 2_000, 0.3, &stream[..100], &mut rng);
        m.insert_all(&stream[100..], &mut rng);

        let mut sorted = stream.clone();
        sorted.sort_unstable();
        // Bound = rebuild tolerance (0.3) + backing-sample error (~0.26
        // for 100 samples/bucket at 2.6σ); both can land on the trailing
        // bucket of an ascending stream.
        let err = max_error_against(&m.histogram(), &sorted).relative_max();
        assert!(err < 0.6, "maintained error f = {err}");
        assert!(m.rebuilds() > 0, "an ascending stream must force rebuilds");
    }

    #[test]
    fn random_stream_needs_few_rebuilds() {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(3);
        let mut stream: Vec<i64> = (0..40_000).collect();
        stream.shuffle(&mut rng);
        let mut m = MaintainedHistogram::new(20, 2_000, 0.3, &stream[..100], &mut rng);
        m.insert_all(&stream[100..], &mut rng);

        // In random arrival order the structure barely drifts.
        let mut ascending = StdRng::seed_from_u64(4);
        let asc: Vec<i64> = (0..40_000).collect();
        let mut m2 = MaintainedHistogram::new(20, 2_000, 0.3, &asc[..100], &mut ascending);
        m2.insert_all(&asc[100..], &mut ascending);
        assert!(
            m.rebuilds() <= m2.rebuilds(),
            "random {} vs ascending {} rebuilds",
            m.rebuilds(),
            m2.rebuilds()
        );
    }

    #[test]
    fn skewed_inserts_track_the_heavy_value() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = MaintainedHistogram::new(10, 1_000, 0.3, &[0], &mut rng);
        // 80% of the stream is the value 42.
        let mut stream = vec![42i64; 16_000];
        stream.extend(1000..5000);
        use rand::seq::SliceRandom;
        stream.shuffle(&mut rng);
        m.insert_all(&stream, &mut rng);

        let h = m.histogram();
        // The heavy value must appear among the separators (equi-height
        // collapses onto it).
        assert!(h.separators().contains(&42), "separators: {:?}", h.separators());
    }

    #[test]
    #[should_panic(expected = "at least one initial tuple")]
    fn empty_seed_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = MaintainedHistogram::new(10, 100, 0.5, &[], &mut rng);
    }

    /// Deterministic pseudo-random multiset (xorshift, no RNG state).
    fn noisy(n: usize, domain: u64, salt: u64) -> Vec<i64> {
        let mut x = 0x9E37_79B9u64 ^ salt | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % domain) as i64
            })
            .collect()
    }

    #[test]
    fn split_sample_interleaves_and_stays_sorted() {
        let sample: Vec<i64> = (0..101).collect();
        let (a, b) = PatchableStats::split_sample(&sample);
        assert_eq!(a.len(), 51);
        assert_eq!(b.len(), 50);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a[0], 0);
        assert_eq!(b[0], 1);
    }

    #[test]
    fn patch_preserves_structure_and_invariants() {
        // Stored histogram of one distribution, probe sample of a mildly
        // different one: the patched artifact must keep k buckets, sum to
        // the population, and nest min/max over both sources.
        let mut rng = StdRng::seed_from_u64(7);
        let mut old = noisy(20_000, 1000, 1);
        old.sort_unstable();
        let stored = EquiHeightHistogram::from_sorted_sample(&old, 20, 200_000);

        let mut probe = noisy(4_096, 1200, 2);
        probe.sort_unstable();
        let outcome = PatchableStats::new(&stored, None)
            .patch(&probe, 200_000, &mut rng)
            .expect("sample is large enough");
        let h = &outcome.patched.histogram;
        assert_eq!(h.num_buckets(), 20);
        assert_eq!(h.total(), 200_000);
        assert_eq!(h.counts().iter().sum::<u64>(), 200_000);
        assert!(h.min_value() <= stored.min_value());
        assert!(h.max_value() >= stored.max_value());
        assert!(h.separators().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(outcome.build_tuples, 2048);
        assert_eq!(outcome.validation_tuples, 2048);
        assert!(outcome.error.is_finite());
    }

    #[test]
    fn patch_is_deterministic_in_the_stream() {
        let mut old = noisy(10_000, 500, 3);
        old.sort_unstable();
        let stored = EquiHeightHistogram::from_sorted_sample(&old, 16, 100_000);
        let mut probe = noisy(2_048, 700, 4);
        probe.sort_unstable();
        let a = PatchableStats::new(&stored, None)
            .patch(&probe, 100_000, &mut StdRng::seed_from_u64(9))
            .unwrap();
        let b = PatchableStats::new(&stored, None)
            .patch(&probe, 100_000, &mut StdRng::seed_from_u64(9))
            .unwrap();
        assert_eq!(a, b);
    }

    /// The core promise: after drift, the patched histogram's held-out
    /// error is far below the stale histogram's, and close to what a full
    /// rebuild from the same build half would achieve.
    #[test]
    fn patch_repairs_drift() {
        let mut rng = StdRng::seed_from_u64(11);
        let old: Vec<i64> = (0..50_000).collect();
        let stored = EquiHeightHistogram::from_sorted(&old, 20);

        // Drift: the data is now clustered mod 5000 (mass moved left).
        let mut probe = noisy(8_192, 5_000, 5);
        probe.sort_unstable();
        let (build, validation) = PatchableStats::split_sample(&probe);

        let stale_err = histogram_fractional_error(&stored, &validation).max;
        let outcome = PatchableStats::new(&stored, None).patch(&probe, 50_000, &mut rng).unwrap();
        assert!(outcome.error < stale_err / 2.0, "patched {} vs stale {stale_err}", outcome.error);
        assert!(outcome.patched.splits + outcome.patched.merges > 0, "drift must cause repairs");

        // A fresh rebuild from the same build half is the quality ceiling;
        // the patch must land in its neighborhood (within 3x).
        let rebuilt = EquiHeightHistogram::from_sorted_sample(&build, 20, 50_000);
        let rebuilt_err = histogram_fractional_error(&rebuilt, &validation).max;
        assert!(
            outcome.error <= (3.0 * rebuilt_err).max(0.2),
            "patched {} vs rebuilt {rebuilt_err}",
            outcome.error
        );
    }

    #[test]
    fn patch_on_matching_data_is_calm() {
        // No drift: a patch from a fresh sample of the same distribution
        // must certify a small error (passing the Theorem-7 geometry the
        // service checks it against).
        let mut rng = StdRng::seed_from_u64(13);
        let mut old = noisy(40_000, 2_000, 6);
        old.sort_unstable();
        let stored = EquiHeightHistogram::from_sorted_sample(&old, 20, 40_000);
        let mut probe = noisy(8_192, 2_000, 7);
        probe.sort_unstable();
        let outcome = PatchableStats::new(&stored, None).patch(&probe, 40_000, &mut rng).unwrap();
        assert!(outcome.error < 0.5, "calm patch error {}", outcome.error);
    }

    #[test]
    fn patch_updates_compressed_side_table() {
        // Stored stats have one heavy value; the drifted data has a
        // different one. The patched side table must track the new heavy
        // hitter exactly.
        let mut rng = StdRng::seed_from_u64(17);
        let mut old: Vec<i64> = vec![42; 30_000];
        old.extend(0..30_000);
        old.sort_unstable();
        let stored_h = EquiHeightHistogram::from_sorted_sample(&old, 12, 60_000);
        let stored_c = CompressedHistogram::from_sorted_sample(&old, 12, 60_000);
        assert!(stored_c.high_frequency_values().iter().any(|&(v, _)| v == 42));

        let mut probe: Vec<i64> = vec![777; 2_000];
        probe.extend((0..2_000).map(|i| i * 15));
        probe.sort_unstable();
        let outcome = PatchableStats::new(&stored_h, Some(&stored_c))
            .patch(&probe, 60_000, &mut rng)
            .unwrap();
        let patched_c = outcome.patched.compressed.expect("compressed stats patched");
        assert!(
            patched_c.high_frequency_values().iter().any(|&(v, _)| v == 777),
            "new heavy value tracked: {:?}",
            patched_c.high_frequency_values()
        );
        assert!(
            !patched_c.high_frequency_values().iter().any(|&(v, _)| v == 42),
            "stale heavy value dropped"
        );
        assert_eq!(patched_c.total(), 60_000);
        // Roughly half the probe is 777 -> its scaled count is near half
        // the population.
        let (_, c) = patched_c.high_frequency_values()[0];
        assert!((25_000..=35_000).contains(&c), "heavy count {c}");
    }

    #[test]
    fn patch_refuses_tiny_samples() {
        let old: Vec<i64> = (0..1_000).collect();
        let stored = EquiHeightHistogram::from_sorted(&old, 100);
        let probe: Vec<i64> = (0..50).collect();
        let err = PatchableStats::new(&stored, None)
            .patch(&probe, 1_000, &mut StdRng::seed_from_u64(19))
            .unwrap_err();
        assert!(matches!(err, PatchRefusal::SampleTooSmall { got: 25, need: 200 }), "{err}");
    }

    #[test]
    fn patch_handles_sample_empty_buckets() {
        // Stored separators concentrate where the new data has no mass at
        // all: the rebalance must split sample-empty buckets via the rng
        // without violating ordering invariants.
        let old: Vec<i64> = (0..1_000).collect();
        let stored = EquiHeightHistogram::from_sorted(&old, 50);
        let probe: Vec<i64> = vec![5_000; 512]; // single point, far right
        let outcome = PatchableStats::new(&stored, None)
            .patch(&probe, 1_000, &mut StdRng::seed_from_u64(23))
            .unwrap();
        let h = &outcome.patched.histogram;
        assert_eq!(h.num_buckets(), 50);
        assert!(h.separators().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(h.counts().iter().sum::<u64>(), 1_000);
    }
}
