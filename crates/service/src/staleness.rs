//! When are statistics stale — and how cheaply can we find out?
//!
//! The policy is two-staged, after SQL Server's auto-update-stats design
//! the paper was built for (Section 7):
//!
//! 1. **Suspicion** is free: a column becomes *suspect* once its
//!    modification counter has grown past a fraction of the table (plus
//!    an absolute floor, so tiny tables don't thrash).
//! 2. **Certainty** is cheap: a suspect column gets a *cross-validation
//!    probe* — a small fresh block sample whose empirical distribution is
//!    compared against the stored histogram with the paper's Definition-4
//!    metric (`Δ̂max`, relative max bucket error). Theorem 7's accept
//!    geometry says a stored histogram that still fits the data passes at
//!    threshold `2f`; only a **failed** probe pays for a full CVB
//!    re-ANALYZE.
//!
//! The probe's sample is sized by Corollary 1 but clamped to a small
//! budget: a watchdog doesn't need the precision of a build, it needs to
//! notice gross drift for a handful of page reads. The pass threshold
//! widens accordingly ([`StalenessPolicy::pass_threshold`] plugs the
//! clamped size back into Corollary 1), so the probe never claims more
//! discrimination than its sample can certify.

use rand::Rng;
use samplehist_core::bounds::{corollary1_error, corollary1_sample_size};
use samplehist_core::error::histogram_fractional_error;
use samplehist_core::histogram::EquiHeightHistogram;
use samplehist_core::TryBlockSource;

/// Tuning for staleness detection and the cross-validation probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalenessPolicy {
    /// Fraction of the table that must have churned before a column is
    /// suspect (SQL Server's classic trigger is ~20%).
    pub mod_fraction: f64,
    /// Absolute modification floor: below this, never suspect (prevents
    /// refresh storms on small tables).
    pub min_mods: u64,
    /// The relative max error `f` the probe aims to test at (before
    /// budget clamping).
    pub probe_f: f64,
    /// Probe failure probability γ for the Corollary-1 sizing.
    pub probe_gamma: f64,
    /// Accept threshold as a multiple of the effective `f` — Theorem 7's
    /// cross-validation accepts at `2f`.
    pub pass_factor: f64,
    /// Smallest probe worth drawing, in tuples.
    pub min_probe_tuples: u64,
    /// Probe budget cap, in tuples — the knob that keeps probes cheap.
    pub max_probe_tuples: u64,
}

impl Default for StalenessPolicy {
    fn default() -> Self {
        Self {
            mod_fraction: 0.2,
            min_mods: 512,
            probe_f: 0.25,
            probe_gamma: 0.1,
            pass_factor: 2.0,
            min_probe_tuples: 1024,
            max_probe_tuples: 16_384,
        }
    }
}

impl StalenessPolicy {
    /// Is a column with `num_rows` rows and `mods_since` modifications
    /// since its last build/probe suspect?
    pub fn is_suspect(&self, num_rows: u64, mods_since: u64) -> bool {
        let fraction_floor = (self.mod_fraction * num_rows as f64).ceil() as u64;
        mods_since >= fraction_floor.max(self.min_mods).max(1)
    }

    /// Probe sample size in tuples for a `k`-bucket histogram over `n`
    /// rows: the Corollary-1 size at (`probe_f`, `probe_gamma`), clamped
    /// into `[min_probe_tuples, max_probe_tuples]` and never above `n`.
    pub fn probe_tuples(&self, k: usize, n: u64) -> u64 {
        let ideal = corollary1_sample_size(k, self.probe_f, n, self.probe_gamma) as u64;
        ideal.clamp(self.min_probe_tuples, self.max_probe_tuples).min(n.max(1))
    }

    /// Accept threshold for a probe of `r` tuples: `pass_factor` times the
    /// error the clamped sample can actually certify (Corollary 1 solved
    /// for `f`, floored at `probe_f`, capped at 1 — beyond 1 the sample
    /// certifies nothing and only gross drift can fail the probe).
    pub fn pass_threshold(&self, r: u64, k: usize, n: u64) -> f64 {
        let certifiable = corollary1_error(r.max(1), k, n, self.probe_gamma).min(1.0);
        self.pass_factor * certifiable.max(self.probe_f)
    }

    /// Re-derive the *probe*'s sizing targets from a service-level
    /// q-error budget — the probe-side counterpart of the rung-3
    /// re-ANALYZE auto-sizing. The Theorem-7 error target becomes the
    /// fraction that certifies the requested q-error
    /// ([`target_f_for_qerror`]) and the failure probability γ becomes
    /// the complement of the watched accuracy quantile, so the probe
    /// tests the stored histogram at exactly the fidelity the budget
    /// promises queries. The tuple budget clamp
    /// ([`min_probe_tuples`](Self::min_probe_tuples) /
    /// [`max_probe_tuples`](Self::max_probe_tuples)) still applies — the
    /// probe stays a watchdog, and [`pass_threshold`](Self::pass_threshold)
    /// widens honestly when the cap bites.
    ///
    /// [`target_f_for_qerror`]: samplehist_engine::target_f_for_qerror
    pub fn with_qerror_budget(self, budget: f64, quantile: f64) -> Self {
        Self {
            probe_f: samplehist_engine::target_f_for_qerror(budget).clamp(1e-3, 1.0),
            probe_gamma: (1.0 - quantile).clamp(1e-6, 0.5),
            ..self
        }
    }
}

/// Tuning for the *feedback-driven* staleness trigger: the accuracy
/// counterpart of [`StalenessPolicy`]'s modification counters.
///
/// Execution feeds observed (predicted, actual) cardinality pairs into
/// each snapshot's accuracy ledger; once a column has accumulated
/// [`min_observations`](Self::min_observations) of them and the watched
/// q-error quantile exceeds
/// [`qerror_threshold`](Self::qerror_threshold), the column is marked
/// suspect **exactly like the mod-counter path** — it escalates to a
/// Theorem-7 probe, and only a failed probe pays for a full re-ANALYZE.
/// This catches estimate rot the modification counters are blind to
/// (drifted reloads, correlated predicates) with zero writes observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyPolicy {
    /// Which q-error quantile to watch (0.95 = p95).
    pub quantile: f64,
    /// Breach level for the watched quantile: estimates off by more than
    /// this factor (in either direction) count as rot.
    pub qerror_threshold: f64,
    /// Observations a ledger must accumulate before it can breach —
    /// the "sustained over N observations" guard against one unlucky
    /// predicate triggering a probe.
    pub min_observations: u64,
}

impl Default for AccuracyPolicy {
    fn default() -> Self {
        Self { quantile: 0.95, qerror_threshold: 2.0, min_observations: 64 }
    }
}

impl AccuracyPolicy {
    /// Is a ledger with `observations` recorded pairs and `watched` as
    /// its watched-quantile q-error in breach?
    pub fn is_breach(&self, observations: u64, watched: f64) -> bool {
        observations >= self.min_observations.max(1) && watched > self.qerror_threshold
    }
}

/// What a cross-validation probe concluded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeOutcome {
    /// The stored histogram still fits: `observed ≤ threshold`.
    Passed {
        /// Measured `Δ̂max` of the stored histogram against the fresh sample.
        observed: f64,
        /// Accept threshold used.
        threshold: f64,
        /// Fresh tuples actually read.
        tuples: u64,
    },
    /// The stored histogram drifted: a full re-ANALYZE is warranted.
    Failed {
        /// Measured `Δ̂max`.
        observed: f64,
        /// Accept threshold used.
        threshold: f64,
        /// Fresh tuples actually read.
        tuples: u64,
    },
    /// Every sampled page failed to read; nothing can be concluded.
    Unreadable {
        /// Page reads attempted.
        blocks_tried: usize,
    },
}

impl ProbeOutcome {
    /// Did the stored histogram survive the probe?
    pub fn passed(&self) -> bool {
        matches!(self, ProbeOutcome::Passed { .. })
    }
}

/// Reusable buffers for [`run_probe_with`] — the page-permutation and
/// sampled-value vectors a probe fills. The caller (typically one per
/// worker thread) owns the allocations and successive probes only pay a
/// clear + refill, not a fresh heap round-trip per probe.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    /// Page permutation; refilled with the identity each probe before
    /// the Fisher–Yates prefix shuffle.
    order: Vec<usize>,
    /// Sampled tuples, sorted in place before the error metric.
    values: Vec<i64>,
}

impl ProbeScratch {
    /// The sorted sample the most recent probe drew through this scratch
    /// (empty before the first probe). [`run_probe_with`] leaves the
    /// buffer intact on return precisely so a failed probe's
    /// Corollary-1-sized sample can be *reused* — the patch path feeds it
    /// to `PatchableStats` instead of reading the table again, which is
    /// what keeps an incremental refresh O(probe).
    pub fn sample(&self) -> &[i64] {
        &self.values
    }
}

/// Run one cross-validation probe: draw a small fresh block sample from
/// `source` (skipping unreadable pages) and test `histogram` against it.
///
/// Deterministic in `rng`: the page subset is a Fisher–Yates prefix, so
/// the same stream draws the same probe. Allocates its buffers per call;
/// repeated probers should hold a [`ProbeScratch`] and call
/// [`run_probe_with`], which behaves identically.
pub fn run_probe(
    source: &impl TryBlockSource,
    histogram: &EquiHeightHistogram,
    policy: &StalenessPolicy,
    rng: &mut impl Rng,
) -> ProbeOutcome {
    run_probe_with(&mut ProbeScratch::default(), source, histogram, policy, rng)
}

/// [`run_probe`] with caller-held buffers; outcome is identical for any
/// scratch state (both buffers are fully re-initialized per probe).
pub fn run_probe_with(
    scratch: &mut ProbeScratch,
    source: &impl TryBlockSource,
    histogram: &EquiHeightHistogram,
    policy: &StalenessPolicy,
    rng: &mut impl Rng,
) -> ProbeOutcome {
    let n = source.num_tuples();
    let pages = source.num_blocks();
    if n == 0 || pages == 0 {
        return ProbeOutcome::Unreadable { blocks_tried: 0 };
    }
    let k = histogram.num_buckets();
    let want_tuples = policy.probe_tuples(k, n);
    let per_page = (n / pages as u64).max(1);
    let want_pages = (want_tuples.div_ceil(per_page) as usize).clamp(1, pages);

    // Fisher–Yates prefix: `want_pages` distinct pages, order-determined
    // by the stream alone (the reused buffer is rebuilt from the
    // identity, so prior probes leave no trace).
    let order = &mut scratch.order;
    order.clear();
    order.extend(0..pages);
    for i in 0..want_pages {
        let j = rng.gen_range(i..pages);
        order.swap(i, j);
    }

    let values = &mut scratch.values;
    values.clear();
    values.reserve(want_tuples as usize);
    let mut tried = 0usize;
    for &page in &order[..want_pages] {
        tried += 1;
        if let Ok(block) = source.try_block(page) {
            values.extend_from_slice(&block);
        }
    }
    if values.is_empty() {
        return ProbeOutcome::Unreadable { blocks_tried: tried };
    }
    values.sort_unstable();
    let tuples = values.len() as u64;
    let observed = histogram_fractional_error(histogram, values).max;
    let threshold = policy.pass_threshold(tuples, k, n);
    if observed <= threshold {
        ProbeOutcome::Passed { observed, threshold, tuples }
    } else {
        ProbeOutcome::Failed { observed, threshold, tuples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use samplehist_core::histogram::EquiHeightHistogram;
    use samplehist_core::sampling::Reliable;
    use samplehist_storage::{FaultInjectingStorage, FaultSpec, HeapFile, Layout};

    #[test]
    fn suspicion_needs_both_floors() {
        let p = StalenessPolicy::default();
        assert!(!p.is_suspect(10_000, 511), "below absolute floor");
        assert!(!p.is_suspect(10_000, 1999), "below 20% of 10k");
        assert!(p.is_suspect(10_000, 2000));
        assert!(!p.is_suspect(100, 21), "small table: min_mods dominates");
        assert!(p.is_suspect(100, 512));
    }

    #[test]
    fn probe_size_is_clamped() {
        let p = StalenessPolicy::default();
        let n = 1_000_000;
        assert_eq!(p.probe_tuples(600, n), p.max_probe_tuples, "big k hits the cap");
        assert!(p.probe_tuples(600, 100) <= 100, "never more than the table");
        // Threshold widens when the budget can't certify probe_f.
        let r = p.probe_tuples(600, n);
        assert!(p.pass_threshold(r, 600, n) >= p.pass_factor * p.probe_f);
        assert!(p.pass_threshold(r, 600, n) <= p.pass_factor * 1.0 + 1e-12);
    }

    #[test]
    fn qerror_budget_sizes_the_probe() {
        let base = StalenessPolicy::default();
        let tight = base.with_qerror_budget(1.1, 0.95);
        let loose = base.with_qerror_budget(3.0, 0.95);
        // f = (q−1)/(q+1): 1.1 → ~0.048 (finer than default), 3.0 → 0.5
        // (coarser); γ tracks the watched quantile's complement.
        assert!(tight.probe_f < base.probe_f);
        assert!(loose.probe_f > base.probe_f);
        assert!((tight.probe_gamma - 0.05).abs() < 1e-12);
        // With the clamp out of the way, the drawn probe is monotone in
        // the budget: tighter budget, bigger sample.
        let wide = StalenessPolicy { min_probe_tuples: 1, max_probe_tuples: u64::MAX, ..base };
        let (k, n) = (20usize, 1_000_000u64);
        let t = wide.with_qerror_budget(1.1, 0.95).probe_tuples(k, n);
        let b = wide.probe_tuples(k, n);
        let l = wide.with_qerror_budget(3.0, 0.95).probe_tuples(k, n);
        assert!(t > b && b > l, "probe sizes must order by budget: {t} > {b} > {l}");
        // Under the default cap the budgeted probe still respects the
        // tuple ceiling — the threshold widens instead.
        let capped = base.with_qerror_budget(1.05, 0.95);
        let r = capped.probe_tuples(k, n);
        assert!(r <= base.max_probe_tuples);
        assert!(capped.pass_threshold(r, k, n) >= capped.pass_factor * capped.probe_f);
    }

    fn file_of(values: Vec<i64>, seed: u64) -> HeapFile {
        let mut rng = StdRng::seed_from_u64(seed);
        HeapFile::with_layout(values, 50, Layout::Random, &mut rng)
    }

    #[test]
    fn probe_passes_fresh_and_fails_drifted() {
        let mut rng = StdRng::seed_from_u64(3);
        let fresh: Vec<i64> = (0..50_000).collect();
        let hist = EquiHeightHistogram::from_unsorted(fresh.clone(), 100);
        let file = file_of(fresh, 4);
        let policy = StalenessPolicy::default();

        let outcome = run_probe(&Reliable(&file), &hist, &policy, &mut rng);
        assert!(outcome.passed(), "fresh data must pass: {outcome:?}");

        // Replace the data with a clustered distribution: same row count,
        // wildly different shape.
        let drifted: Vec<i64> = (0..50_000).map(|i| i % 100).collect();
        let drifted_file = file_of(drifted, 5);
        let outcome = run_probe(&Reliable(&drifted_file), &hist, &policy, &mut rng);
        assert!(!outcome.passed(), "drifted data must fail: {outcome:?}");
        assert!(matches!(outcome, ProbeOutcome::Failed { .. }));
    }

    #[test]
    fn probe_survives_partial_faults_and_reports_total_loss() {
        let mut rng = StdRng::seed_from_u64(6);
        let fresh: Vec<i64> = (0..50_000).collect();
        let hist = EquiHeightHistogram::from_unsorted(fresh.clone(), 100);
        let file = file_of(fresh, 7);
        let policy = StalenessPolicy::default();

        let flaky = FaultInjectingStorage::new(&file, FaultSpec::healthy(8).with_unreadable(0.3));
        let outcome = run_probe(&flaky, &hist, &policy, &mut rng);
        assert!(outcome.passed(), "30% page loss still leaves a usable probe: {outcome:?}");

        let dead = FaultInjectingStorage::new(&file, FaultSpec::healthy(9).with_unreadable(1.0));
        let outcome = run_probe(&dead, &hist, &policy, &mut rng);
        assert!(matches!(outcome, ProbeOutcome::Unreadable { blocks_tried } if blocks_tried > 0));
    }

    #[test]
    fn probe_is_deterministic_in_the_stream() {
        let fresh: Vec<i64> = (0..20_000).map(|i| i * 3).collect();
        let hist = EquiHeightHistogram::from_unsorted(fresh.clone(), 50);
        let file = file_of(fresh, 10);
        let policy = StalenessPolicy::default();
        let a = run_probe(&Reliable(&file), &hist, &policy, &mut StdRng::seed_from_u64(11));
        let b = run_probe(&Reliable(&file), &hist, &policy, &mut StdRng::seed_from_u64(11));
        assert_eq!(a, b);
    }

    #[test]
    fn reused_scratch_matches_fresh_allocations() {
        // The same stream through one long-lived scratch must reproduce
        // per-probe allocations exactly, across sources of different
        // page counts (the order buffer is refilled, never assumed).
        let policy = StalenessPolicy::default();
        let mut scratch = ProbeScratch::default();
        for (rows, seed) in [(20_000usize, 30u64), (5_000, 31), (50_000, 32)] {
            let data: Vec<i64> = (0..rows as i64).map(|i| i * 7 % 997).collect();
            let hist = EquiHeightHistogram::from_unsorted(data.clone(), 64);
            let file = file_of(data, seed);
            let fresh =
                run_probe(&Reliable(&file), &hist, &policy, &mut StdRng::seed_from_u64(seed + 100));
            let reused = run_probe_with(
                &mut scratch,
                &Reliable(&file),
                &hist,
                &policy,
                &mut StdRng::seed_from_u64(seed + 100),
            );
            assert_eq!(fresh, reused, "rows = {rows}");
        }
    }
}
