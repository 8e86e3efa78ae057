//! CVB — adaptive **C**ross-**V**alidated **B**lock-level sampling
//! (paper Section 4.2, evaluated in Section 7 as "the CVB algorithm").
//!
//! The problem: block-level sampling is `b×` cheaper than record-level
//! sampling per tuple (you get the whole page for one I/O), but if tuples
//! within a page are correlated the *effective* sample is much smaller
//! than its tuple count, and the right number of pages to read depends on
//! a clustering structure nobody knows a priori (Section 4.1's scenarios).
//!
//! The paper's answer: sample blocks in increasing batches; before folding
//! each new batch `R_i` into the accumulated sample `R`, use it to
//! **cross-validate** the histogram built from `R`. If partitioning `R_i`
//! by the current separators shows relative error below the target `f`,
//! stop; Theorem 7 guarantees the test neither stops too early (a
//! histogram with true error > 2f·n/k almost never passes) nor drags on (a
//! histogram with true error ≤ f·n/(2k) almost never fails). With the
//! doubling schedule the total I/O is within 2× of the unknowable optimum
//! for the data's actual clustering.
//!
//! Duplicates are handled by validating with the **fractional max error**
//! f′ of Definition 4 rather than raw bucket counts — on duplicate-free
//! data the two coincide exactly.
//!
//! ```
//! use rand::SeedableRng;
//! use samplehist_core::sampling::{cvb, CvbConfig, SliceBlocks};
//!
//! // A column scattered over 100-tuple pages.
//! let mut data: Vec<i64> = (0..50_000).collect();
//! use rand::seq::SliceRandom;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! data.shuffle(&mut rng);
//! let source = SliceBlocks::new(&data, 100);
//!
//! // Ask for 20 buckets within 20% error; CVB sizes the I/O itself.
//! let config = CvbConfig::theoretical(&source, 20, 0.2, 0.05);
//! let result = cvb::run(&source, &config, &mut rng);
//! assert!(result.converged || result.exhausted);
//! assert_eq!(result.histogram.num_buckets(), 20);
//! ```

use rand::Rng;
use samplehist_obs::Recorder;

use super::block::{BlockPermutation, BlockSource};
use super::fallible::{BlockError, Reliable, TryBlockSource};
use super::schedule::{Schedule, ScheduleContext};
use crate::bounds::chaudhuri::corollary1_sample_size;
use crate::error::fractional_max_from_counts;
use crate::histogram::{count_le, sort_appended, EquiHeightHistogram};

/// How the cross-validation sample is formed from each round's fresh
/// blocks (Section 4.2's "twists on this basic strategy").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationMode {
    /// Validate with every tuple of the new blocks (the base algorithm).
    #[default]
    AllTuples,
    /// Validate with one uniformly chosen tuple per new block — immune to
    /// intra-block correlation in the *validation* set itself, at the cost
    /// of a much smaller (hence noisier) test sample.
    OneTuplePerBlock,
}

/// Configuration for a CVB run.
#[derive(Debug, Clone, PartialEq)]
pub struct CvbConfig {
    /// Number of histogram buckets, `k`.
    pub buckets: usize,
    /// Target relative max error `f` (Definition 1 / Definition 4).
    pub target_f: f64,
    /// Failure probability γ used when sizing the initial sample.
    pub gamma: f64,
    /// Stepping policy for successive rounds.
    pub schedule: Schedule,
    /// How to build the cross-validation sample each round.
    pub validation: ValidationMode,
    /// Hard cap on the fraction of blocks ever read (1.0 = allow falling
    /// back to a full scan, which yields the exact histogram).
    pub max_block_fraction: f64,
}

impl CvbConfig {
    /// The paper's step 1: size the initial batch from Theorem 4 /
    /// Corollary 1 — `r` record-level samples, hence `g₀ = r/b` blocks —
    /// and use the doubling schedule thereafter.
    ///
    /// When the theoretical `r` exceeds `n` (small relations or very
    /// strict `f`), `g₀` is clamped so the first round is at most half the
    /// file and cross-validation still gets a chance to run.
    pub fn theoretical(
        source: &impl BlockSource,
        buckets: usize,
        target_f: f64,
        gamma: f64,
    ) -> Self {
        let n = source.num_tuples();
        let b = source.avg_tuples_per_block().max(1.0);
        let r = corollary1_sample_size(buckets, target_f, n, gamma);
        let g0 = ((r / b).ceil() as usize).clamp(1, (source.num_blocks() / 2).max(1));
        Self {
            buckets,
            target_f,
            gamma,
            schedule: Schedule::Doubling { initial_blocks: g0 },
            validation: ValidationMode::AllTuples,
            max_block_fraction: 1.0,
        }
    }

    /// The SQL Server 7.0 prototype's configuration (Section 7.1): the
    /// accumulated sample steps through multiples of `5·√n` tuples.
    pub fn prototype(buckets: usize, target_f: f64, gamma: f64) -> Self {
        Self {
            buckets,
            target_f,
            gamma,
            schedule: Schedule::SqrtSteps { multiplier: 5.0 },
            validation: ValidationMode::AllTuples,
            max_block_fraction: 1.0,
        }
    }

    fn validate(&self) {
        assert!(self.buckets > 0, "need at least one bucket");
        assert!(
            self.target_f > 0.0 && self.target_f <= 1.0,
            "target f must be in (0,1], got {}",
            self.target_f
        );
        assert!(self.gamma > 0.0 && self.gamma < 1.0, "γ must be in (0,1)");
        assert!(
            self.max_block_fraction > 0.0 && self.max_block_fraction <= 1.0,
            "max_block_fraction must be in (0,1]"
        );
    }
}

/// One iteration of the adaptive loop, for post-mortem inspection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CvbRound {
    /// 1-based round number.
    pub round: usize,
    /// Blocks drawn this round.
    pub new_blocks: usize,
    /// Blocks drawn in total after this round.
    pub total_blocks: usize,
    /// Tuples accumulated after this round.
    pub total_tuples: u64,
    /// Cross-validation error f′ of the *pre-merge* histogram against this
    /// round's fresh sample (`None` for the first round, which has no
    /// histogram to validate yet).
    pub cross_validation_error: Option<f64>,
}

/// The outcome of a CVB run.
#[derive(Debug, Clone)]
pub struct CvbResult {
    /// The final histogram (built from every tuple sampled, scaled to `n`).
    pub histogram: EquiHeightHistogram,
    /// Whether the cross-validation test passed (`false` means the run hit
    /// the block cap or exhausted the file first).
    pub converged: bool,
    /// Whether every block of the source was read (the histogram is then
    /// exact rather than approximate).
    pub exhausted: bool,
    /// Number of cross-validation rounds actually executed
    /// (`== rounds.len()`; surfaced separately so traces and tests can
    /// assert convergence behavior without walking the round log).
    pub rounds_executed: usize,
    /// Whether the run stopped with block budget to spare: the
    /// cross-validation test passed before the block cap (or the file)
    /// was exhausted. `false` means the schedule ran to its maximum.
    pub terminated_early: bool,
    /// Per-round trace.
    pub rounds: Vec<CvbRound>,
    /// Total blocks read — the algorithm's I/O cost.
    pub blocks_sampled: usize,
    /// Total tuples in the accumulated sample.
    pub tuples_sampled: u64,
    /// The accumulated sample itself, sorted — callers reuse it for
    /// density and distinct-value estimation, exactly as the prototype
    /// recorded "the number of distinct values in the sample".
    pub sample_sorted: Vec<i64>,
}

impl CvbResult {
    /// Fraction of the relation's tuples that were read.
    pub fn sampling_rate(&self, source_tuples: u64) -> f64 {
        self.tuples_sampled as f64 / source_tuples as f64
    }

    /// I/O overhead relative to the record-level optimum of Corollary 1:
    /// `(tuples read) / min(r, n)`. Values near 1 mean block sampling cost
    /// no more than the theory's record-level sample; the paper argues the
    /// doubling schedule keeps this within 2× of the effective-rate
    /// optimum for the data's clustering.
    pub fn oversampling_factor(&self, config: &CvbConfig, n: u64) -> f64 {
        let r =
            corollary1_sample_size(config.buckets, config.target_f, n, config.gamma).min(n as f64);
        self.tuples_sampled as f64 / r
    }
}

/// Run the adaptive algorithm of Section 4.2 against `source`.
///
/// ```text
/// 1. g₀ from Theorem 4 (or the configured schedule)
/// 2. R ← g₀ random blocks; H₀ ← equi-height histogram of R
/// 3. repeat:
///      draw g_i fresh blocks R_i
///      δ_i ← error of partitioning R_i with H_{i-1}'s separators
///      append R_i to R and re-sort; rebuild H_i
///    until δ_i < f
/// 4. output H_i
/// ```
///
/// Blocks are drawn without replacement via a single up-front permutation,
/// so the union of all rounds is a uniform block sample at every point.
/// If the permutation (or the configured cap) runs out before the test
/// passes, the accumulated sample is used as-is; with the cap at 1.0 that
/// degenerates to a full scan and an exact histogram.
///
/// This is [`try_run`] over [`Reliable`]`(source)` with the default
/// [`DegradationPolicy`]: a reliable source never fails a read, so the
/// degradation machinery stays idle. Pass a recorder via
/// [`try_run_traced`] to trace the run.
///
/// # Panics
/// If the source is empty or the configuration is invalid.
pub fn run(source: &impl BlockSource, config: &CvbConfig, rng: &mut impl Rng) -> CvbResult {
    try_run(&Reliable(source), config, &DegradationPolicy::default(), rng)
        .map(|(result, _)| result)
        .expect("a reliable source never fails a read")
}

/// How much loss the degradation-aware [`try_run`] may absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationPolicy {
    /// Replacement blocks that may be drawn beyond the schedule, across the
    /// whole run, to cover failed reads. Each failed block spends one unit;
    /// when the budget runs out, rounds simply shrink (and the
    /// cross-validation threshold widens per Theorem 7).
    pub replacement_budget: usize,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        Self { replacement_budget: 64 }
    }
}

/// What a degradation-aware run lost and what it can still certify.
///
/// The default is the report of an acquisition that lost nothing and
/// certifies no `f` — what a full scan or a fixed block sample reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DegradationReport {
    /// Blocks whose reads failed for good (after the storage layer's own
    /// retries) and therefore contributed no tuples.
    pub blocks_failed: usize,
    /// Extra blocks drawn from the permutation to replace failed ones.
    pub replacements_drawn: usize,
    /// The cross-validation threshold actually enforced. Equal to the
    /// configured `target_f` on a clean run; wider when rounds shrank below
    /// plan — Theorem 7's validation size scales as `1/f²`, so a round that
    /// kept only `s_actual` of its planned `s_planned` validation tuples
    /// can certify only `f · √(s_planned / s_actual)`.
    pub effective_target_f: f64,
    /// Whether any data was lost (`blocks_failed > 0`).
    pub degraded: bool,
    /// The last block error observed, for diagnostics.
    pub last_error: Option<BlockError>,
}

impl DegradationReport {
    fn clean(target_f: f64) -> Self {
        Self { effective_target_f: target_f, ..Self::default() }
    }
}

/// Why a degradation-aware CVB run could not produce a histogram at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CvbError {
    /// Every block the permutation offered failed to read: there is not a
    /// single trustworthy tuple to build from.
    SourceUnreadable {
        /// How many blocks were attempted before giving up.
        blocks_tried: usize,
        /// The last error observed.
        last_error: Option<BlockError>,
    },
}

impl std::fmt::Display for CvbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CvbError::SourceUnreadable { blocks_tried, last_error } => {
                write!(f, "no readable blocks after {blocks_tried} attempts")?;
                if let Some(err) = last_error {
                    write!(f, " (last error: {err})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CvbError {}

/// Degradation-aware [`run`]: the same adaptive loop over a source whose
/// reads can fail.
///
/// Failed blocks are skipped and replaced by drawing further down the
/// permutation (up to `policy.replacement_budget` across the run); once
/// replacements run out, rounds shrink and the acceptance threshold widens
/// per Theorem 7 (see [`DegradationReport::effective_target_f`]). [`run`]
/// is this loop over [`Reliable`], so on a fault-free source the result is
/// the one [`run`] returns for the same data and RNG seed.
///
/// Returns an error only when not a single block could be read.
pub fn try_run(
    source: &impl TryBlockSource,
    config: &CvbConfig,
    policy: &DegradationPolicy,
    rng: &mut impl Rng,
) -> Result<(CvbResult, DegradationReport), CvbError> {
    try_run_traced(source, config, policy, rng, &samplehist_obs::global())
}

/// [`try_run`] with an explicit [`Recorder`]: emits a `cvb.run` span with
/// one `cvb.round` child per doubling round carrying the adaptive loop's
/// decision record — blocks drawn, accumulated sample size `r`, whether
/// the round's sort counted (`counting`), the cross-validation error Δ̂
/// against the target `f`, and the accept/reject verdict. When a block
/// fails, the trace also carries the degradation record — a
/// `cvb.blocks_failed` counter per lost block, per-round
/// `failed` / `replaced` / `effective_f` fields, and run-level
/// `blocks_failed` / `replacements_drawn` / `degraded` / `effective_f`
/// fields — so traces show exactly what was lost; a run that lost nothing
/// carries none of them. Recording is passive (no RNG draws, no feedback),
/// so the result is bit-identical to an untraced run.
pub fn try_run_traced(
    source: &impl TryBlockSource,
    config: &CvbConfig,
    policy: &DegradationPolicy,
    rng: &mut impl Rng,
    recorder: &Recorder,
) -> Result<(CvbResult, DegradationReport), CvbError> {
    config.validate();
    assert!(source.num_blocks() > 0, "cannot sample an empty source");
    let n = source.num_tuples();
    assert!(n > 0, "cannot sample a source with no tuples");

    let max_blocks =
        ((source.num_blocks() as f64 * config.max_block_fraction).ceil() as usize).max(1);
    let b = source.avg_tuples_per_block();

    let mut run_span = recorder.span("cvb.run");
    run_span.field("n", n);
    run_span.field("blocks", source.num_blocks());
    run_span.field("buckets", config.buckets);
    run_span.field("target_f", config.target_f);
    run_span.field("max_blocks", max_blocks);

    let mut permutation = BlockPermutation::with_len(source.num_blocks(), rng);
    let mut accumulated: Vec<i64> = Vec::new();
    let mut rounds: Vec<CvbRound> = Vec::new();
    let mut histogram: Option<EquiHeightHistogram> = None;
    let mut converged = false;
    let mut scratch = Scratch::default();
    // Where each readable block's tuples sit in the (still unsorted) tail
    // of `accumulated`, in draw order: what one-tuple-per-block validation
    // picks from.
    let mut fresh_spans: Vec<(usize, usize)> = Vec::new();

    let mut report = DegradationReport::clean(config.target_f);
    let mut widest_f = config.target_f;

    let mut round = 0usize;
    while permutation.drawn() < max_blocks {
        round += 1;
        let ctx = ScheduleContext {
            round,
            blocks_so_far: permutation.drawn(),
            tuples_so_far: accumulated.len() as u64,
            total_tuples: n,
            tuples_per_block: b,
        };
        let want = config.schedule.next_blocks(&ctx).min(max_blocks - permutation.drawn());
        scratch.fresh_ids.clear();
        scratch.fresh_ids.extend_from_slice(permutation.take(want));
        if scratch.fresh_ids.is_empty() {
            break;
        }
        let planned_blocks = scratch.fresh_ids.len();
        let mut round_span = run_span.child("cvb.round");

        // Append this round's tuples to the sample, replacing failed blocks
        // from the tail of the permutation while the budget lasts.
        let prior = accumulated.len();
        fresh_spans.clear();
        let mut failed_this_round = 0usize;
        let mut replaced_this_round = 0usize;
        let mut i = 0;
        while i < scratch.fresh_ids.len() {
            let id = scratch.fresh_ids[i];
            i += 1;
            match source.try_block(id) {
                Ok(tuples) => {
                    // Grow to the round's remaining estimate rather than
                    // by doubling: the sample is the run's largest buffer.
                    let rest = (b * (scratch.fresh_ids.len() - i) as f64) as usize;
                    accumulated.reserve_exact(tuples.len() + rest);
                    fresh_spans.push((accumulated.len(), tuples.len()));
                    accumulated.extend_from_slice(&tuples);
                }
                Err(err) => {
                    failed_this_round += 1;
                    report.blocks_failed += 1;
                    report.last_error = Some(err);
                    recorder.counter("cvb.blocks_failed", 1);
                    if report.replacements_drawn < policy.replacement_budget
                        && permutation.drawn() < max_blocks
                    {
                        let replacement = permutation.take(1)[0];
                        report.replacements_drawn += 1;
                        replaced_this_round += 1;
                        scratch.fresh_ids.push(replacement);
                    }
                }
            }
        }

        // Theorem 7 sizes the validation sample as s ∝ 1/f²: a round that
        // kept fewer blocks than planned can only certify a wider f.
        let kept_blocks = fresh_spans.len();
        let effective_f = if kept_blocks < planned_blocks && kept_blocks > 0 {
            (config.target_f * (planned_blocks as f64 / kept_blocks as f64).sqrt()).min(1.0)
        } else {
            config.target_f
        };
        widest_f = widest_f.max(effective_f);

        if accumulated.len() == prior {
            // Every block of this round was lost; nothing to validate or
            // sort, but the attempt still counts against the block cap.
            rounds.push(CvbRound {
                round,
                new_blocks: 0,
                total_blocks: permutation.drawn(),
                total_tuples: accumulated.len() as u64,
                cross_validation_error: None,
            });
            round_span.field("round", round);
            round_span.field("new_blocks", 0usize);
            round_span.field("counting", false);
            round_span.field("failed", failed_this_round);
            round_span.field("verdict", "lost");
            round_span.finish();
            continue;
        }

        // Cross-validate the current histogram against the fresh tuples
        // (Definition 4's fractional error; reduces to Definition 1 when
        // values are distinct). The reference counts `count_le(R, d)` at
        // the distinct separators are read off the sorted prefix, and
        // one-tuple-per-block picks off the unsorted tail, before the
        // union sort rewrites both.
        let one_per_block = config.validation == ValidationMode::OneTuplePerBlock;
        if let Some(h) = &histogram {
            scratch.distinct.clear();
            scratch.distinct.extend_from_slice(h.separators());
            scratch.distinct.dedup();
            let prefix = &accumulated[..prior];
            scratch.prior_le.clear();
            scratch.prior_le.extend(scratch.distinct.iter().map(|&d| count_le(prefix, d) as u64));
            if one_per_block {
                scratch.validation.clear();
                scratch.validation.extend(
                    fresh_spans
                        .iter()
                        .map(|&(start, len)| accumulated[start + rng.gen_range(0..len)]),
                );
                scratch.validation.sort_unstable();
            }
        }
        let counting = sort_appended(&mut accumulated, prior, &mut scratch.tail);
        // The fresh tuples' counts are rank differences over the union.
        let cv_error = histogram.as_ref().map(|_| {
            let (distinct, prior_le, picks) =
                (&scratch.distinct, &scratch.prior_le, &scratch.validation);
            let reference = (|j: usize| prior_le[j], prior as u64);
            if one_per_block {
                let observed = (|j| count_le(picks, distinct[j]) as u64, picks.len() as u64);
                fractional_max_from_counts(distinct, reference, observed, |_| {})
            } else {
                let fresh = |j| count_le(&accumulated, distinct[j]) as u64 - prior_le[j];
                let observed = (fresh, (accumulated.len() - prior) as u64);
                fractional_max_from_counts(distinct, reference, observed, |_| {})
            }
        });
        histogram = Some(EquiHeightHistogram::from_sorted_sample(&accumulated, config.buckets, n));

        rounds.push(CvbRound {
            round,
            new_blocks: kept_blocks,
            total_blocks: permutation.drawn(),
            total_tuples: accumulated.len() as u64,
            cross_validation_error: cv_error,
        });

        let accepted = cv_error.is_some_and(|err| err < effective_f);
        round_span.field("round", round);
        round_span.field("new_blocks", kept_blocks);
        round_span.field("total_blocks", permutation.drawn());
        round_span.field("r", accumulated.len());
        round_span.field("counting", counting);
        round_span.field("target_f", config.target_f);
        if failed_this_round > 0 {
            round_span.field("failed", failed_this_round);
            round_span.field("replaced", replaced_this_round);
            round_span.field("effective_f", effective_f);
        }
        match cv_error {
            None => round_span.field("verdict", "bootstrap"),
            Some(err) => {
                round_span.field("delta_hat", err);
                round_span.field("verdict", if accepted { "accept" } else { "reject" });
            }
        }
        round_span.finish();
        if accepted {
            converged = true;
            report.effective_target_f = effective_f;
            break;
        }
    }

    report.degraded = report.blocks_failed > 0;
    if !converged {
        report.effective_target_f = widest_f;
    }

    if accumulated.is_empty() {
        run_span.field("blocks_failed", report.blocks_failed);
        run_span.field("verdict", "unreadable");
        run_span.finish();
        return Err(CvbError::SourceUnreadable {
            blocks_tried: permutation.drawn(),
            last_error: report.last_error,
        });
    }

    let exhausted = permutation.remaining() == 0;
    let histogram = histogram.expect("accumulated sample is non-empty");
    let result = CvbResult {
        histogram,
        converged,
        exhausted,
        rounds_executed: rounds.len(),
        terminated_early: converged && permutation.drawn() < max_blocks,
        blocks_sampled: permutation.drawn(),
        tuples_sampled: accumulated.len() as u64,
        rounds,
        sample_sorted: accumulated,
    };
    run_span.field("rounds", result.rounds_executed);
    run_span.field("converged", result.converged);
    run_span.field("exhausted", result.exhausted);
    run_span.field("terminated_early", result.terminated_early);
    run_span.field("blocks_sampled", result.blocks_sampled);
    run_span.field("tuples_sampled", result.tuples_sampled);
    run_span.field("oversampling_factor", result.oversampling_factor(config, n));
    if report.degraded {
        run_span.field("blocks_failed", report.blocks_failed);
        run_span.field("replacements_drawn", report.replacements_drawn);
        run_span.field("degraded", report.degraded);
        run_span.field("effective_f", report.effective_target_f);
    }
    run_span.finish();
    Ok((result, report))
}

/// Reusable per-round buffers for the adaptive loop: the drawn block ids,
/// the one-tuple-per-block validation set, the union sort's tail copy, and
/// the current histogram's distinct separators with the sorted prefix's
/// counts at them. The sample itself is one vector that only grows, so a
/// round allocates nothing once these have reached their largest size.
#[derive(Default)]
struct Scratch {
    fresh_ids: Vec<usize>,
    validation: Vec<i64>,
    tail: Vec<i64>,
    distinct: Vec<i64>,
    prior_le: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::max_error_against;
    use crate::sampling::block::SliceBlocks;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn shuffled(n: i64, seed: u64) -> Vec<i64> {
        let mut v: Vec<i64> = (0..n).collect();
        v.shuffle(&mut StdRng::seed_from_u64(seed));
        v
    }

    #[test]
    fn converges_on_random_layout() {
        // 100k distinct values scattered randomly across pages: block
        // sampling behaves like record sampling, so CVB should converge
        // well before a full scan.
        let data = shuffled(100_000, 7);
        let src = SliceBlocks::new(&data, 100);
        let config = CvbConfig {
            buckets: 20,
            target_f: 0.2,
            gamma: 0.05,
            schedule: Schedule::Doubling { initial_blocks: 40 },
            validation: ValidationMode::AllTuples,
            max_block_fraction: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(8);
        let result = run(&src, &config, &mut rng);
        assert!(result.converged, "rounds: {:?}", result.rounds);
        assert!(!result.exhausted, "converged before a full scan");
        assert_eq!(result.rounds_executed, result.rounds.len());
        assert!(result.terminated_early, "convergence left block budget unused");

        // And the histogram it returns really is good: check true error.
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let true_err = max_error_against(&result.histogram, &sorted).relative_max();
        // Theorem 7 guarantees ≤ 2f whp on passing the f test.
        assert!(true_err <= 2.0 * config.target_f, "true error {true_err}");
    }

    #[test]
    fn sorted_layout_needs_more_blocks_than_random() {
        // Fully clustered (sorted) pages are the paper's scenario (b): the
        // effective sampling rate collapses and CVB must keep going.
        let n = 50_000i64;
        let random = shuffled(n, 11);
        let sorted: Vec<i64> = (0..n).collect();
        let config = CvbConfig {
            buckets: 20,
            target_f: 0.25,
            gamma: 0.05,
            schedule: Schedule::Doubling { initial_blocks: 20 },
            validation: ValidationMode::AllTuples,
            max_block_fraction: 1.0,
        };
        let run_on = |data: &Vec<i64>, seed: u64| {
            let src = SliceBlocks::new(data, 100);
            run(&src, &config, &mut StdRng::seed_from_u64(seed))
        };
        let blocks_random: usize = (0..5).map(|s| run_on(&random, s).blocks_sampled).sum();
        let blocks_sorted: usize = (0..5).map(|s| run_on(&sorted, s).blocks_sampled).sum();
        assert!(
            blocks_sorted > 2 * blocks_random,
            "sorted {blocks_sorted} vs random {blocks_random}"
        );
    }

    #[test]
    fn full_scan_fallback_yields_exact_histogram() {
        // All tuples on each page identical (scenario b, extreme): with a
        // tight target the algorithm may walk to a full scan; the result
        // is then the exact histogram.
        let mut data: Vec<i64> = Vec::new();
        for page in 0..50 {
            data.extend(std::iter::repeat(page as i64).take(20));
        }
        let src = SliceBlocks::new(&data, 20);
        let config = CvbConfig {
            buckets: 10,
            target_f: 0.01,
            gamma: 0.05,
            schedule: Schedule::Doubling { initial_blocks: 2 },
            validation: ValidationMode::AllTuples,
            max_block_fraction: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(13);
        let result = run(&src, &config, &mut rng);
        if result.exhausted {
            let mut sorted = data.clone();
            sorted.sort_unstable();
            let exact = EquiHeightHistogram::from_sorted(&sorted, 10);
            assert_eq!(result.histogram.separators(), exact.separators());
            assert_eq!(result.tuples_sampled, 1000);
        }
    }

    #[test]
    fn block_cap_is_respected() {
        let data = shuffled(10_000, 17);
        let src = SliceBlocks::new(&data, 10); // 1000 blocks
        let config = CvbConfig {
            buckets: 100,
            target_f: 0.01, // unreachably strict -> would scan everything
            gamma: 0.05,
            schedule: Schedule::Doubling { initial_blocks: 10 },
            validation: ValidationMode::AllTuples,
            max_block_fraction: 0.25,
        };
        let mut rng = StdRng::seed_from_u64(19);
        let result = run(&src, &config, &mut rng);
        assert!(!result.converged);
        assert!(result.blocks_sampled <= 250);
        assert!(!result.exhausted);
        assert!(!result.terminated_early, "ran the schedule to its cap");
        assert_eq!(result.rounds_executed, result.rounds.len());
    }

    #[test]
    fn one_tuple_per_block_validation_runs() {
        let data = shuffled(50_000, 23);
        let src = SliceBlocks::new(&data, 50);
        let config = CvbConfig {
            buckets: 20,
            target_f: 0.25,
            gamma: 0.05,
            schedule: Schedule::Doubling { initial_blocks: 50 },
            validation: ValidationMode::OneTuplePerBlock,
            max_block_fraction: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(29);
        let result = run(&src, &config, &mut rng);
        assert!(result.rounds.len() >= 2 || result.converged || result.exhausted);
        // The trace records validation errors from round 2 onward.
        assert!(result.rounds[0].cross_validation_error.is_none());
        for r in &result.rounds[1..] {
            assert!(r.cross_validation_error.is_some());
        }
    }

    #[test]
    fn theoretical_config_sizes_initial_round() {
        let data = shuffled(100_000, 31);
        let src = SliceBlocks::new(&data, 100);
        let cfg = CvbConfig::theoretical(&src, 10, 0.5, 0.1);
        match cfg.schedule {
            Schedule::Doubling { initial_blocks } => {
                // r = 4*10*ln(2e6)/0.25 ≈ 2322 tuples -> ~24 blocks.
                assert!((20..30).contains(&initial_blocks), "g0 = {initial_blocks}");
            }
            ref other => panic!("expected doubling schedule, got {other:?}"),
        }
    }

    #[test]
    fn sampling_rate_and_oversampling_reports() {
        let data = shuffled(100_000, 37);
        let src = SliceBlocks::new(&data, 100);
        let config = CvbConfig::theoretical(&src, 10, 0.5, 0.1);
        let mut rng = StdRng::seed_from_u64(41);
        let result = run(&src, &config, &mut rng);
        let rate = result.sampling_rate(src.num_tuples());
        assert!(rate > 0.0 && rate <= 1.0);
        let over = result.oversampling_factor(&config, src.num_tuples());
        assert!(over > 0.0);
    }

    #[test]
    fn trace_is_monotone() {
        let data = shuffled(50_000, 43);
        let src = SliceBlocks::new(&data, 100);
        let config = CvbConfig {
            buckets: 30,
            target_f: 0.1,
            gamma: 0.05,
            schedule: Schedule::Doubling { initial_blocks: 10 },
            validation: ValidationMode::AllTuples,
            max_block_fraction: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(47);
        let result = run(&src, &config, &mut rng);
        for w in result.rounds.windows(2) {
            assert!(w[1].total_blocks > w[0].total_blocks);
            assert!(w[1].total_tuples > w[0].total_tuples);
            assert_eq!(w[1].round, w[0].round + 1);
        }
        let last = result.rounds.last().expect("at least one round");
        assert_eq!(last.total_blocks, result.blocks_sampled);
        assert_eq!(last.total_tuples, result.tuples_sampled);
    }

    #[test]
    #[should_panic(expected = "empty source")]
    fn empty_source_rejected() {
        let src = SliceBlocks::new(&[], 10);
        let config = CvbConfig::prototype(10, 0.1, 0.05);
        let mut rng = StdRng::seed_from_u64(53);
        let _ = run(&src, &config, &mut rng);
    }

    // ---- degradation-aware path -------------------------------------

    use std::borrow::Cow;

    /// A block source that permanently fails every block whose index
    /// satisfies a predicate — the simplest deterministic fault model.
    struct Failing<'a> {
        inner: SliceBlocks<'a>,
        fails: fn(usize) -> bool,
    }

    impl TryBlockSource for Failing<'_> {
        fn num_blocks(&self) -> usize {
            self.inner.num_blocks()
        }
        fn num_tuples(&self) -> u64 {
            self.inner.num_tuples()
        }
        fn try_block(&self, index: usize) -> Result<Cow<'_, [i64]>, BlockError> {
            if (self.fails)(index) {
                Err(BlockError::Unreadable { block: index })
            } else {
                Ok(Cow::Borrowed(self.inner.block(index)))
            }
        }
    }

    #[test]
    fn failed_blocks_are_replaced_and_reported() {
        let data = shuffled(50_000, 71);
        let src = Failing { inner: SliceBlocks::new(&data, 100), fails: |id| id % 5 == 2 };
        let config = CvbConfig {
            buckets: 20,
            target_f: 0.25,
            gamma: 0.05,
            schedule: Schedule::Doubling { initial_blocks: 40 },
            validation: ValidationMode::AllTuples,
            max_block_fraction: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(73);
        let (result, report) =
            try_run(&src, &config, &DegradationPolicy { replacement_budget: 1000 }, &mut rng)
                .expect("80% of blocks are readable");
        assert!(report.degraded);
        assert!(report.blocks_failed > 0);
        assert!(report.replacements_drawn > 0, "budget was available");
        assert!(matches!(report.last_error, Some(BlockError::Unreadable { .. })));
        assert!(result.converged || result.exhausted);
        assert_eq!(result.histogram.total(), 50_000, "still scaled to the full relation");
        // With every failure replaced, no round shrank: no widening.
        assert_eq!(report.effective_target_f, config.target_f);
    }

    #[test]
    fn exhausted_budget_widens_the_threshold() {
        let data = shuffled(50_000, 79);
        let src = Failing { inner: SliceBlocks::new(&data, 100), fails: |id| id % 2 == 0 };
        let config = CvbConfig {
            buckets: 20,
            target_f: 0.2,
            gamma: 0.05,
            schedule: Schedule::Doubling { initial_blocks: 40 },
            validation: ValidationMode::AllTuples,
            max_block_fraction: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(83);
        let (result, report) =
            try_run(&src, &config, &DegradationPolicy { replacement_budget: 0 }, &mut rng)
                .expect("half the blocks are readable");
        assert!(report.degraded);
        assert_eq!(report.replacements_drawn, 0);
        assert!(
            report.effective_target_f > config.target_f,
            "shrunk rounds must widen the certified f (got {})",
            report.effective_target_f
        );
        assert!(report.effective_target_f <= 1.0);
        assert!(result.tuples_sampled > 0);
    }

    #[test]
    fn unreadable_source_is_a_structured_error() {
        let data = shuffled(1_000, 89);
        let src = Failing { inner: SliceBlocks::new(&data, 100), fails: |_| true };
        let config = CvbConfig {
            buckets: 10,
            target_f: 0.2,
            gamma: 0.05,
            schedule: Schedule::Doubling { initial_blocks: 4 },
            validation: ValidationMode::AllTuples,
            max_block_fraction: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(97);
        let err = try_run(&src, &config, &DegradationPolicy::default(), &mut rng)
            .expect_err("nothing is readable");
        let CvbError::SourceUnreadable { blocks_tried, last_error } = err;
        assert!(blocks_tried > 0);
        assert!(last_error.is_some());
        assert!(err.to_string().contains("no readable blocks"));
    }

    #[test]
    fn try_run_emits_failure_counters() {
        use samplehist_obs::{MemorySink, Recorder};
        use std::sync::Arc;
        let data = shuffled(20_000, 101);
        let src = Failing { inner: SliceBlocks::new(&data, 100), fails: |id| id % 4 == 1 };
        let config = CvbConfig {
            buckets: 10,
            target_f: 0.3,
            gamma: 0.05,
            schedule: Schedule::Doubling { initial_blocks: 20 },
            validation: ValidationMode::AllTuples,
            max_block_fraction: 1.0,
        };
        let sink = Arc::new(MemorySink::new());
        let recorder = Recorder::new(sink.clone());
        let mut rng = StdRng::seed_from_u64(103);
        let (_, report) =
            try_run_traced(&src, &config, &DegradationPolicy::default(), &mut rng, &recorder)
                .expect("mostly readable");
        recorder.flush();
        let failed: u64 = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                samplehist_obs::Event::Counter { name: "cvb.blocks_failed", delta, .. } => {
                    Some(*delta)
                }
                _ => None,
            })
            .sum();
        assert_eq!(failed as usize, report.blocks_failed);
        assert!(failed > 0);
    }
}
