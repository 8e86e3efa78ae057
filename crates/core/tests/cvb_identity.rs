//! The CVB oracle: the paper's Section 4.2 loop written the plain way —
//! each round's fresh blocks sorted on their own, validated with
//! `fractional_max_error` against the accumulated sample, then merged into
//! a new sorted vector — with no spans and no reused buffers. `cvb::run`
//! and `cvb::try_run` (which grow one `GrowingSample`, held as counts
//! while its span allows, and validate from rank counts) are pinned
//! against it bit for bit, Δ̂ by `to_bits`, on healthy storage and on
//! storage that loses blocks. Their traces must report the sample held
//! as counts exactly when the union spans at most `8n`, and the columns
//! are chosen so that the union switches to counts mid-run, widens its
//! count array, and goes back to the sorted route.

use std::borrow::Cow;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use samplehist_core::error::fractional_max_error;
use samplehist_core::histogram::{sort_values, EquiHeightHistogram};
use samplehist_core::sampling::{
    cvb, BlockError, BlockPermutation, BlockSource, CvbConfig, CvbResult, CvbRound,
    DegradationPolicy, DegradationReport, Reliable, Schedule, ScheduleContext, SliceBlocks,
    TryBlockSource, ValidationMode,
};
use samplehist_obs::{Event, MemorySink, Recorder, Value};

/// What the oracle computes, field for field as in `CvbResult` and
/// `DegradationReport`.
#[derive(Debug)]
struct Oracle {
    histogram: EquiHeightHistogram,
    sample_sorted: Vec<i64>,
    rounds: Vec<CvbRound>,
    /// The union's `(min, max, len)` after each round.
    unions: Vec<(i64, i64, usize)>,
    converged: bool,
    exhausted: bool,
    blocks_sampled: usize,
    blocks_failed: usize,
    replacements_drawn: usize,
    effective_target_f: f64,
}

/// The two sorted slices merged into a new vector.
fn merge(a: &[i64], b: &[i64]) -> Vec<i64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Section 4.2: draw blocks in rounds down one up-front permutation;
/// validate the current histogram against each round's fresh blocks
/// before merging them; stop once the cross-validation error is below `f`.
/// A failed block is replaced from the permutation while the budget
/// lasts; a round that kept fewer blocks than planned only certifies
/// `f · √(planned / kept)` (Theorem 7's `s ∝ 1/f²`).
fn oracle(
    source: &impl TryBlockSource,
    config: &CvbConfig,
    policy: &DegradationPolicy,
    rng: &mut impl Rng,
) -> Oracle {
    let n = source.num_tuples();
    let max_blocks =
        ((source.num_blocks() as f64 * config.max_block_fraction).ceil() as usize).max(1);
    let mut permutation = BlockPermutation::with_len(source.num_blocks(), rng);
    let mut accumulated: Vec<i64> = Vec::new();
    let mut rounds: Vec<CvbRound> = Vec::new();
    let mut unions: Vec<(i64, i64, usize)> = Vec::new();
    let mut histogram: Option<EquiHeightHistogram> = None;
    let mut converged = false;
    let (mut blocks_failed, mut replacements_drawn) = (0, 0);
    let (mut widest_f, mut certified_f) = (config.target_f, None);
    while permutation.drawn() < max_blocks {
        let ctx = ScheduleContext {
            round: rounds.len() + 1,
            blocks_so_far: permutation.drawn(),
            tuples_so_far: accumulated.len() as u64,
            total_tuples: n,
            tuples_per_block: source.avg_tuples_per_block(),
        };
        let want = config.schedule.next_blocks(&ctx).min(max_blocks - permutation.drawn());
        let mut ids = permutation.take(want).to_vec();
        if ids.is_empty() {
            break;
        }
        let planned = ids.len();
        let mut blocks: Vec<Vec<i64>> = Vec::new();
        let mut i = 0;
        while i < ids.len() {
            match source.try_block(ids[i]) {
                Ok(tuples) => blocks.push(tuples.into_owned()),
                Err(_) => {
                    blocks_failed += 1;
                    if replacements_drawn < policy.replacement_budget
                        && permutation.drawn() < max_blocks
                    {
                        ids.push(permutation.take(1)[0]);
                        replacements_drawn += 1;
                    }
                }
            }
            i += 1;
        }
        let kept = blocks.len();
        let effective_f = if kept < planned && kept > 0 {
            (config.target_f * (planned as f64 / kept as f64).sqrt()).min(1.0)
        } else {
            config.target_f
        };
        widest_f = widest_f.max(effective_f);
        let mut fresh = blocks.concat();
        if fresh.is_empty() {
            rounds.push(CvbRound {
                round: rounds.len() + 1,
                new_blocks: 0,
                total_blocks: permutation.drawn(),
                total_tuples: accumulated.len() as u64,
                cross_validation_error: None,
            });
            unions.push(unions.last().copied().unwrap_or((0, 0, 0)));
            continue;
        }
        sort_values(&mut fresh);

        let cv_error = histogram.as_ref().map(|h| {
            let validation = match config.validation {
                ValidationMode::AllTuples => fresh.clone(),
                ValidationMode::OneTuplePerBlock => {
                    let mut picks: Vec<i64> =
                        blocks.iter().map(|block| block[rng.gen_range(0..block.len())]).collect();
                    picks.sort_unstable();
                    picks
                }
            };
            fractional_max_error(h.separators(), &accumulated, &validation).max
        });

        accumulated = merge(&accumulated, &fresh);
        unions.push((accumulated[0], accumulated[accumulated.len() - 1], accumulated.len()));
        histogram = Some(EquiHeightHistogram::from_sorted_sample(&accumulated, config.buckets, n));
        rounds.push(CvbRound {
            round: rounds.len() + 1,
            new_blocks: kept,
            total_blocks: permutation.drawn(),
            total_tuples: accumulated.len() as u64,
            cross_validation_error: cv_error,
        });
        if cv_error.is_some_and(|err| err < effective_f) {
            converged = true;
            certified_f = Some(effective_f);
            break;
        }
    }
    Oracle {
        histogram: histogram.expect("at least one block was readable"),
        sample_sorted: accumulated,
        rounds,
        unions,
        converged,
        exhausted: permutation.remaining() == 0,
        blocks_sampled: permutation.drawn(),
        blocks_failed,
        replacements_drawn,
        effective_target_f: certified_f.unwrap_or(widest_f),
    }
}

/// Asserts that a run equals the oracle, Δ̂ and the certified `f` bit for
/// bit.
fn assert_matches(got: &CvbResult, report: &DegradationReport, want: &Oracle, case: &str) {
    assert_eq!(got.histogram, want.histogram, "{case}");
    assert_eq!(got.sample_sorted, want.sample_sorted, "{case}");
    assert_eq!(got.rounds, want.rounds, "{case}");
    let bits = |rounds: &[CvbRound]| -> Vec<Option<u64>> {
        rounds.iter().map(|r| r.cross_validation_error.map(f64::to_bits)).collect()
    };
    assert_eq!(bits(&got.rounds), bits(&want.rounds), "{case}: Δ̂ bits");
    assert_eq!(got.converged, want.converged, "{case}");
    assert_eq!(got.exhausted, want.exhausted, "{case}");
    assert_eq!(got.blocks_sampled, want.blocks_sampled, "{case}");
    assert_eq!(got.tuples_sampled, want.sample_sorted.len() as u64, "{case}");
    assert_eq!(report.blocks_failed, want.blocks_failed, "{case}");
    assert_eq!(report.replacements_drawn, want.replacements_drawn, "{case}");
    assert_eq!(report.degraded, want.blocks_failed > 0, "{case}");
    assert_eq!(
        report.effective_target_f.to_bits(),
        want.effective_target_f.to_bits(),
        "{case}: certified f"
    );
}

/// A traced `try_run`, with each round's `counting` field.
fn traced_run(
    source: &impl TryBlockSource,
    config: &CvbConfig,
    policy: &DegradationPolicy,
    seed: u64,
) -> (CvbResult, DegradationReport, Vec<bool>) {
    let sink = Arc::new(MemorySink::new());
    let recorder = Recorder::new(sink.clone());
    let (result, report) =
        cvb::try_run_traced(source, config, policy, &mut StdRng::seed_from_u64(seed), &recorder)
            .expect("some block is readable");
    let mut counting = Vec::new();
    for event in sink.events() {
        if let Event::SpanEnd { name: "cvb.round", fields, .. } = event {
            match fields.iter().find(|(k, _)| *k == "counting").map(|(_, v)| v) {
                Some(Value::Bool(counted)) => counting.push(*counted),
                other => panic!("cvb.round without a boolean counting field: {other:?}"),
            }
        }
    }
    (result, report, counting)
}

/// How often a run's sample changed representation between rounds.
#[derive(Debug, Default, Clone, Copy)]
struct Transitions {
    /// Held sorted, then counted.
    to_counts: usize,
    /// Counted, then counted over a wider range.
    widened: usize,
    /// Counted, then held sorted.
    to_sorted: usize,
}

impl Transitions {
    /// Checks each round's `counting` against the `8n` rule over the
    /// oracle's union and tallies the transitions between rounds.
    fn tally(&mut self, counting: &[bool], want: &Oracle, case: &str) {
        assert_eq!(counting.len(), want.unions.len(), "{case}: one counting field per round");
        for (round, (&counted, &(lo, hi, len))) in counting.iter().zip(&want.unions).enumerate() {
            let span = hi as i128 - lo as i128 + 1;
            assert_eq!(counted, len > 0 && span <= 8 * len as i128, "{case}: round {}", round + 1);
        }
        for (pair, unions) in counting.windows(2).zip(want.unions.windows(2)) {
            match (pair[0], pair[1]) {
                (false, true) if unions[0].2 > 0 => self.to_counts += 1,
                (true, true) if unions[0].0 != unions[1].0 || unions[0].1 != unions[1].1 => {
                    self.widened += 1
                }
                (true, false) => self.to_sorted += 1,
                _ => {}
            }
        }
    }

    fn assert_all_occur(&self, case: &str) {
        let Self { to_counts, widened, to_sorted } = *self;
        assert!(
            to_counts > 0 && widened > 0 && to_sorted > 0,
            "{case}: to counts {to_counts}, widened {widened}, to sorted {to_sorted}"
        );
    }
}

/// The three columns whose runs change the sample's representation, on
/// 100-tuple pages in storage order (clustered, so runs last many
/// rounds): every value once (the union spans the column long before it
/// holds an eighth of it, so it switches to counts mid-run); ten copies
/// of each value (counted from the first round, and every block drawn
/// outside the union's range widens it); twenty copies of each value and
/// one far outlier in block 1 (the round that draws it sends the union
/// back to the sorted route).
fn transition_columns(rows: i64) -> [Vec<i64>; 3] {
    let distinct: Vec<i64> = (0..rows).collect();
    let ramp: Vec<i64> = (0..rows).map(|i| i / 10).collect();
    let mut outlier: Vec<i64> = (0..rows).map(|i| i / 20).collect();
    outlier[150] = 1 << 40;
    [distinct, ramp, outlier]
}

fn config(validation: ValidationMode, schedule: Schedule, max_block_fraction: f64) -> CvbConfig {
    CvbConfig { buckets: 20, target_f: 0.2, gamma: 0.05, schedule, validation, max_block_fraction }
}

/// Values spread over 2^40, so no union's span is within `8n`.
fn wide(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..1i64 << 40)).collect()
}

/// `cvb::run` equals the oracle on scattered pages (early convergence),
/// clustered pages (long runs, up to a full scan), a wide-span column (the
/// sorted route throughout), the three transition columns and a capped
/// run, under both validation modes, both schedules and several seeds;
/// and the degradation report of the same run says nothing was lost.
#[test]
fn run_matches_the_oracle() {
    let mut scattered: Vec<i64> = (0..40_000).map(|i| i % 5_000).collect();
    scattered.shuffle(&mut StdRng::seed_from_u64(1));
    let clustered: Vec<i64> = (0..40_000).map(|i| i / 7).collect();
    let wide = wide(40_000, 2);
    let [distinct, ramp, outlier] = transition_columns(40_000);
    let (mut validated_rounds, mut converged, mut exhausted) = (0, 0, 0);
    let mut transitions = [Transitions::default(); 2];
    for data in [&scattered, &clustered, &wide, &distinct, &ramp, &outlier] {
        let source = SliceBlocks::new(data, 100);
        for (mode, validation) in
            [ValidationMode::AllTuples, ValidationMode::OneTuplePerBlock].into_iter().enumerate()
        {
            for (schedule, cap) in [
                (Schedule::Doubling { initial_blocks: 8 }, 1.0),
                (Schedule::Doubling { initial_blocks: 3 }, 0.3),
                (Schedule::SqrtSteps { multiplier: 5.0 }, 1.0),
            ] {
                let config = config(validation, schedule, cap);
                let policy = DegradationPolicy::default();
                for seed in [3, 5, 8] {
                    let want = oracle(
                        &Reliable(&source),
                        &config,
                        &policy,
                        &mut StdRng::seed_from_u64(seed),
                    );
                    let case = format!("{validation:?} {schedule:?} cap {cap} seed {seed}");
                    let got = cvb::run(&source, &config, &mut StdRng::seed_from_u64(seed));
                    let (traced, report, counting) =
                        traced_run(&Reliable(&source), &config, &policy, seed);
                    assert_matches(&got, &report, &want, &case);
                    assert_matches(&traced, &report, &want, &case);
                    assert_eq!(report.effective_target_f, config.target_f, "{case}");
                    transitions[mode].tally(&counting, &want, &case);
                    validated_rounds += want.rounds.len() - 1;
                    converged += want.converged as usize;
                    exhausted += want.exhausted as usize;
                }
            }
        }
    }
    // The comparison means something only if the cases reach validated
    // rounds, convergence, a full scan, and every change of the sample's
    // representation under each validation mode.
    assert!(validated_rounds > 100, "{validated_rounds} validated rounds");
    assert!(converged > 0 && exhausted > 0, "converged {converged}, exhausted {exhausted}");
    transitions[0].assert_all_occur("all tuples");
    transitions[1].assert_all_occur("one tuple per block");
}

/// Storage that permanently fails every block whose index satisfies a
/// predicate.
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

/// `cvb::try_run` equals the oracle when blocks fail: with a budget that
/// replaces every failure, with one that runs out part-way (shrunk rounds
/// widen the certified `f`), and with none; under both validation modes,
/// on narrow, wide and transition columns, including runs that read every
/// block. The transition columns' outlier sits in block 1, which neither
/// fault model fails.
#[test]
fn degraded_runs_match_the_oracle() {
    let mut narrow: Vec<i64> = (0..30_000).map(|i| i % 2_000).collect();
    narrow.shuffle(&mut StdRng::seed_from_u64(4));
    let wide = wide(30_000, 6);
    let [distinct, ramp, outlier] = transition_columns(30_000);
    let fault_models: [fn(usize) -> bool; 2] = [|id| id % 5 == 2, |id| id % 2 == 0];
    let (mut replaced, mut widened, mut exhausted, mut lost_rounds) = (0, 0, 0, 0);
    let mut transitions = [Transitions::default(); 2];
    for data in [&narrow, &wide, &distinct, &ramp, &outlier] {
        for fails in fault_models {
            let source = Failing { inner: SliceBlocks::new(data, 100), fails };
            for (mode, validation) in [ValidationMode::AllTuples, ValidationMode::OneTuplePerBlock]
                .into_iter()
                .enumerate()
            {
                for (target_f, initial_blocks) in [(0.2, 8), (0.01, 1)] {
                    let config = CvbConfig {
                        target_f,
                        ..config(validation, Schedule::Doubling { initial_blocks }, 1.0)
                    };
                    for budget in [1_000, 4, 0] {
                        let policy = DegradationPolicy { replacement_budget: budget };
                        for seed in [7, 9] {
                            let want =
                                oracle(&source, &config, &policy, &mut StdRng::seed_from_u64(seed));
                            let (got, report, counting) =
                                traced_run(&source, &config, &policy, seed);
                            let case = format!(
                                "{validation:?} f {target_f} g0 {initial_blocks} budget {budget} \
                                 seed {seed}"
                            );
                            assert_matches(&got, &report, &want, &case);
                            assert!(report.degraded, "{case}");
                            transitions[mode].tally(&counting, &want, &case);
                            replaced += (want.replacements_drawn > 0) as usize;
                            widened += (want.effective_target_f > target_f) as usize;
                            exhausted += want.exhausted as usize;
                            lost_rounds += want.rounds.iter().filter(|r| r.new_blocks == 0).count();
                        }
                    }
                }
            }
        }
    }
    assert!(replaced > 0 && widened > 0, "replaced {replaced}, widened {widened}");
    assert!(exhausted > 0, "no run read every block");
    assert!(lost_rounds > 0, "no round lost all its blocks");
    transitions[0].assert_all_occur("degraded, all tuples");
    transitions[1].assert_all_occur("degraded, one tuple per block");
}
