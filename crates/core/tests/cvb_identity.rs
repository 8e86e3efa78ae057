//! The CVB oracle: the paper's Section 4.2 loop over storage whose reads
//! never fail, written plainly — no spans, no scratch buffers, no
//! degradation bookkeeping — with `cvb::run` pinned against it bit for
//! bit. `cvb::run` is the degradation-aware loop over `Reliable`, so this
//! is what proves that loop unchanged on healthy storage.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use samplehist_core::error::fractional_max_error;
use samplehist_core::histogram::EquiHeightHistogram;
use samplehist_core::sampling::{
    cvb, BlockPermutation, BlockSource, CvbConfig, CvbRound, DegradationPolicy, Reliable, Schedule,
    ScheduleContext, SliceBlocks, ValidationMode,
};

/// What the oracle computes, field for field as in `CvbResult`.
#[derive(Debug)]
struct Oracle {
    histogram: EquiHeightHistogram,
    sample_sorted: Vec<i64>,
    rounds: Vec<CvbRound>,
    converged: bool,
    exhausted: bool,
    blocks_sampled: usize,
}

/// Section 4.2: draw blocks in rounds down one up-front permutation;
/// validate the current histogram against each round's fresh blocks
/// before merging them; stop once the cross-validation error is below `f`.
fn oracle(source: &impl BlockSource, config: &CvbConfig, rng: &mut impl Rng) -> Oracle {
    let n = source.num_tuples();
    let max_blocks =
        ((source.num_blocks() as f64 * config.max_block_fraction).ceil() as usize).max(1);
    let mut permutation = BlockPermutation::new(source, rng);
    let mut accumulated: Vec<i64> = Vec::new();
    let mut rounds: Vec<CvbRound> = Vec::new();
    let mut histogram: Option<EquiHeightHistogram> = None;
    let mut converged = false;
    while permutation.drawn() < max_blocks {
        let ctx = ScheduleContext {
            round: rounds.len() + 1,
            blocks_so_far: permutation.drawn(),
            tuples_so_far: accumulated.len() as u64,
            total_tuples: n,
            tuples_per_block: source.avg_tuples_per_block(),
        };
        let want = config.schedule.next_blocks(&ctx).min(max_blocks - permutation.drawn());
        let fresh_ids = permutation.take(want).to_vec();
        if fresh_ids.is_empty() {
            break;
        }
        let mut fresh: Vec<i64> =
            fresh_ids.iter().flat_map(|&id| source.block(id).iter().copied()).collect();
        fresh.sort_unstable();

        let cv_error = histogram.as_ref().map(|h| {
            let validation = match config.validation {
                ValidationMode::AllTuples => fresh.clone(),
                ValidationMode::OneTuplePerBlock => {
                    let mut picks: Vec<i64> = fresh_ids
                        .iter()
                        .map(|&id| {
                            let block = source.block(id);
                            block[rng.gen_range(0..block.len())]
                        })
                        .collect();
                    picks.sort_unstable();
                    picks
                }
            };
            fractional_max_error(h.separators(), &accumulated, &validation).max
        });

        accumulated.extend_from_slice(&fresh);
        accumulated.sort_unstable();
        histogram = Some(EquiHeightHistogram::from_sorted_sample(&accumulated, config.buckets, n));
        rounds.push(CvbRound {
            round: rounds.len() + 1,
            new_blocks: fresh_ids.len(),
            total_blocks: permutation.drawn(),
            total_tuples: accumulated.len() as u64,
            cross_validation_error: cv_error,
        });
        if cv_error.is_some_and(|err| err < config.target_f) {
            converged = true;
            break;
        }
    }
    Oracle {
        histogram: histogram.expect("at least one round ran"),
        sample_sorted: accumulated,
        rounds,
        converged,
        exhausted: permutation.remaining() == 0,
        blocks_sampled: permutation.drawn(),
    }
}

fn config(validation: ValidationMode, schedule: Schedule, max_block_fraction: f64) -> CvbConfig {
    CvbConfig { buckets: 20, target_f: 0.2, gamma: 0.05, schedule, validation, max_block_fraction }
}

/// `cvb::run` equals the oracle on scattered pages (early convergence),
/// clustered pages (long runs, up to a full scan) and a capped run, under
/// both validation modes, both schedules and several seeds; and the
/// degradation report of the same run says nothing was lost.
#[test]
fn run_matches_the_oracle() {
    let mut scattered: Vec<i64> = (0..40_000).map(|i| i % 5_000).collect();
    scattered.shuffle(&mut StdRng::seed_from_u64(1));
    let clustered: Vec<i64> = (0..40_000).map(|i| i / 7).collect();
    let (mut validated_rounds, mut converged, mut exhausted) = (0, 0, 0);
    for data in [&scattered, &clustered] {
        let source = SliceBlocks::new(data, 100);
        for validation in [ValidationMode::AllTuples, ValidationMode::OneTuplePerBlock] {
            for (schedule, cap) in [
                (Schedule::Doubling { initial_blocks: 8 }, 1.0),
                (Schedule::Doubling { initial_blocks: 3 }, 0.3),
                (Schedule::SqrtSteps { multiplier: 5.0 }, 1.0),
            ] {
                let config = config(validation, schedule, cap);
                for seed in [3, 5, 8] {
                    let want = oracle(&source, &config, &mut StdRng::seed_from_u64(seed));
                    let got = cvb::run(&source, &config, &mut StdRng::seed_from_u64(seed));
                    let case = format!("{validation:?} {schedule:?} cap {cap} seed {seed}");
                    assert_eq!(got.histogram, want.histogram, "{case}");
                    assert_eq!(got.sample_sorted, want.sample_sorted, "{case}");
                    assert_eq!(got.rounds, want.rounds, "{case}");
                    assert_eq!(got.converged, want.converged, "{case}");
                    assert_eq!(got.exhausted, want.exhausted, "{case}");
                    assert_eq!(got.blocks_sampled, want.blocks_sampled, "{case}");
                    // The report of a healthy run: nothing lost, nothing
                    // replaced, the requested `f` certified.
                    let (_, report) = cvb::try_run(
                        &Reliable(&source),
                        &config,
                        &DegradationPolicy::default(),
                        &mut StdRng::seed_from_u64(seed),
                    )
                    .expect("a healthy source is readable");
                    assert!(!report.degraded, "{case}");
                    assert_eq!(report.blocks_failed, 0, "{case}");
                    assert_eq!(report.replacements_drawn, 0, "{case}");
                    assert_eq!(report.effective_target_f, config.target_f, "{case}");
                    validated_rounds += want.rounds.len() - 1;
                    converged += want.converged as usize;
                    exhausted += want.exhausted as usize;
                }
            }
        }
    }
    // The comparison means something only if the cases reach validated
    // rounds, convergence and a full scan.
    assert!(validated_rounds > 100, "{validated_rounds} validated rounds");
    assert!(converged > 0 && exhausted > 0, "converged {converged}, exhausted {exhausted}");
}
