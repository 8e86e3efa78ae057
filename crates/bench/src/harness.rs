//! Shared measurement machinery for the figure reproductions.
//!
//! The Section 7 figures are all built from one of two measurements over
//! a heap file:
//!
//! * [`error_vs_rate`] — the realized (ground-truth) fractional max error
//!   of a block-sampled histogram as the sampling rate grows (Figures 5
//!   and 7 plot these curves directly);
//! * [`required_sampling`] — the sampling rate/pages at which the error
//!   first drops below a target (Figures 3, 4, 6 and 8 plot this
//!   quantity against N, bins, and record size).
//!
//! Both grow one without-replacement block sample incrementally (a block
//! permutation consumed prefix-by-prefix), so a whole curve costs one
//! pass of sorting/merging per trial rather than one sample per point.
//! Error is measured with Definition 4's fractional max error of the
//! sample-built separators against the **full sorted column** — the
//! ground truth an experiment can see even though the algorithm cannot.

use samplehist_core::error::fractional_max_error;
use samplehist_core::histogram::{sort_appended, EquiHeightHistogram};
use samplehist_core::sampling::{BlockPermutation, BlockSource};
use samplehist_parallel as parallel;
use samplehist_storage::HeapFile;

use crate::scale::Scale;

/// One point of an error-vs-rate curve (averaged over trials).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorCurvePoint {
    /// Target sampling rate (fraction of tuples).
    pub rate: f64,
    /// Mean tuples actually accumulated (whole blocks, so ≥ target).
    pub mean_tuples: f64,
    /// Mean blocks read.
    pub mean_blocks: f64,
    /// Mean fractional max error f′ against the full column.
    pub mean_error: f64,
}

/// A sorted copy of a heap file's column (ground truth for error
/// measurement).
pub fn sorted_copy(file: &HeapFile) -> Vec<i64> {
    file.sorted_values()
}

/// Measure the ground-truth error of block-sampled histograms at each of
/// the (ascending) target `rates`, averaged over `scale.trials` trials.
///
/// # Panics
/// If `rates` is empty, unsorted, or contains values outside (0, 1].
pub fn error_vs_rate(
    file: &HeapFile,
    full_sorted: &[i64],
    buckets: usize,
    rates: &[f64],
    scale: &Scale,
    label: &str,
) -> Vec<ErrorCurvePoint> {
    assert!(!rates.is_empty(), "need at least one rate");
    assert!(rates.windows(2).all(|w| w[0] < w[1]), "rates must be strictly ascending");
    assert!(
        rates.iter().all(|&r| r > 0.0 && r <= 1.0),
        "rates must be sampling fractions in (0,1]"
    );
    let n = file.num_tuples();

    // Trials are independent given their RNG stream (`scale.rng(label,
    // trial)`), so they run in parallel; the per-trial results come back
    // in trial order and are reduced sequentially, making the output
    // bit-identical at any thread count.
    let trials: Vec<u32> = (0..scale.trials).collect();
    let per_trial: Vec<Vec<(f64, f64, f64)>> = parallel::par_map(&trials, |&trial| {
        let mut rng = scale.rng(label, trial);
        let mut permutation = BlockPermutation::new(file, &mut rng);
        let (mut sample, mut spare) = (Vec::new(), Vec::new());
        rates
            .iter()
            .map(|&rate| {
                let target = (rate * n as f64).ceil() as usize;
                grow_to(&mut sample, &mut spare, target, &mut permutation, file);
                let hist = EquiHeightHistogram::from_sorted_sample(&sample, buckets, n);
                let err = fractional_max_error(hist.separators(), &sample, full_sorted).max;
                (sample.len() as f64, permutation.drawn() as f64, err)
            })
            .collect()
    });
    let mut acc: Vec<(f64, f64, f64)> = vec![(0.0, 0.0, 0.0); rates.len()];
    for trial_points in per_trial {
        for (a, p) in acc.iter_mut().zip(trial_points) {
            a.0 += p.0;
            a.1 += p.1;
            a.2 += p.2;
        }
    }

    let t = scale.trials as f64;
    rates
        .iter()
        .zip(acc)
        .map(|(&rate, (tuples, blocks, err))| ErrorCurvePoint {
            rate,
            mean_tuples: tuples / t,
            mean_blocks: blocks / t,
            mean_error: err / t,
        })
        .collect()
}

/// The sampling cost at which a block-sampled histogram first reaches a
/// target error (averaged over trials).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequiredSampling {
    /// Target fractional max error.
    pub target_f: f64,
    /// Mean tuples needed.
    pub mean_tuples: f64,
    /// Mean pages needed.
    pub mean_blocks: f64,
    /// Mean sampling rate (`tuples / n`).
    pub mean_rate: f64,
    /// Trials (out of `scale.trials`) that reached the target before
    /// exhausting the file; the rest count the full scan as their cost.
    pub reached: u32,
}

/// Grow a block sample geometrically (~12% per probe) until the
/// ground-truth error drops to `target_f`, and report the cost of the
/// crossing point.
pub fn required_sampling(
    file: &HeapFile,
    full_sorted: &[i64],
    buckets: usize,
    target_f: f64,
    scale: &Scale,
    label: &str,
) -> RequiredSampling {
    assert!(target_f > 0.0 && target_f <= 1.0, "target f must be in (0,1]");
    let n = file.num_tuples();

    // Same parallel-trials scheme as `error_vs_rate`: independent RNG
    // stream per trial, sequential reduction in trial order.
    let trials: Vec<u32> = (0..scale.trials).collect();
    let per_trial: Vec<(f64, f64, bool)> = parallel::par_map(&trials, |&trial| {
        let mut rng = scale.rng(label, trial);
        let mut permutation = BlockPermutation::new(file, &mut rng);
        let (mut sample, mut spare) = (Vec::new(), Vec::new());
        // Start near the cheapest size that could plausibly certify the
        // target (a few tuples per bucket), then grow geometrically.
        let mut target = (buckets as u64 * 4).min(n) as usize;
        let hit = loop {
            grow_to(&mut sample, &mut spare, target, &mut permutation, file);
            let hist = EquiHeightHistogram::from_sorted_sample(&sample, buckets, n);
            let err = fractional_max_error(hist.separators(), &sample, full_sorted).max;
            if err <= target_f {
                break true;
            }
            if permutation.remaining() == 0 {
                break false; // full scan: cost is the whole file
            }
            target = ((target as f64) * 1.12).ceil() as usize;
        };
        (sample.len() as f64, permutation.drawn() as f64, hit)
    });
    let mut tuples_sum = 0.0f64;
    let mut blocks_sum = 0.0f64;
    let mut reached = 0u32;
    for (tuples, blocks, hit) in per_trial {
        tuples_sum += tuples;
        blocks_sum += blocks;
        reached += hit as u32;
    }

    let t = scale.trials as f64;
    RequiredSampling {
        target_f,
        mean_tuples: tuples_sum / t,
        mean_blocks: blocks_sum / t,
        mean_rate: tuples_sum / t / n as f64,
        reached,
    }
}

/// Extend `sample` (kept sorted) with whole blocks until it holds at
/// least `target` tuples or the permutation is exhausted. The blocks are
/// appended to `sample` and sorted into it by `sort_appended`, whose
/// scratch buffer `spare` is reused from one growth step to the next.
fn grow_to(
    sample: &mut Vec<i64>,
    spare: &mut Vec<i64>,
    target: usize,
    permutation: &mut BlockPermutation,
    file: &HeapFile,
) {
    let prior = sample.len();
    let b = file.avg_tuples_per_block().max(1.0);
    while sample.len() < target {
        let want = (((target - sample.len()) as f64 / b).ceil() as usize).max(1);
        let ids = permutation.take(want);
        if ids.is_empty() {
            break;
        }
        for &id in ids {
            sample.extend_from_slice(file.block(id));
        }
    }
    sort_appended(sample, prior, spare);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use samplehist_storage::Layout;

    fn random_file(n: i64, seed: u64) -> HeapFile {
        let mut rng = StdRng::seed_from_u64(seed);
        HeapFile::with_layout((0..n).collect(), 100, Layout::Random, &mut rng)
    }

    #[test]
    fn error_curve_is_roughly_decreasing() {
        let file = random_file(60_000, 1);
        let full = sorted_copy(&file);
        let scale = Scale::tiny();
        let curve = error_vs_rate(&file, &full, 50, &[0.02, 0.08, 0.32], &scale, "t1");
        assert_eq!(curve.len(), 3);
        assert!(
            curve[0].mean_error > curve[2].mean_error,
            "{:?}",
            curve.iter().map(|p| p.mean_error).collect::<Vec<_>>()
        );
        // Block accounting is consistent: tuples ≈ blocks * 100.
        for p in &curve {
            assert!((p.mean_tuples - p.mean_blocks * 100.0).abs() < 1.0);
            assert!(p.mean_tuples >= p.rate * 60_000.0);
        }
    }

    #[test]
    fn full_rate_reaches_zero_error() {
        let file = random_file(20_000, 2);
        let full = sorted_copy(&file);
        let scale = Scale::tiny();
        let curve = error_vs_rate(&file, &full, 20, &[0.5, 1.0], &scale, "t2");
        assert!(curve[1].mean_error < 1e-9, "full scan error = {}", curve[1].mean_error);
    }

    #[test]
    fn required_sampling_finds_a_crossing() {
        let file = random_file(60_000, 3);
        let full = sorted_copy(&file);
        let scale = Scale::tiny();
        let req = required_sampling(&file, &full, 20, 0.3, &scale, "t3");
        assert_eq!(req.reached, scale.trials);
        assert!(req.mean_rate > 0.0 && req.mean_rate < 1.0, "rate = {}", req.mean_rate);
        // A loose target needs fewer samples than a strict one.
        let strict = required_sampling(&file, &full, 20, 0.1, &scale, "t3");
        assert!(strict.mean_tuples > req.mean_tuples);
    }

    #[test]
    fn impossible_target_costs_a_full_scan() {
        // Clustered pages + a strict target at tiny n: may exhaust.
        let mut rng = StdRng::seed_from_u64(4);
        let file = HeapFile::with_layout((0..5_000).collect(), 100, Layout::Clustered, &mut rng);
        let full = sorted_copy(&file);
        let scale = Scale::tiny();
        let req = required_sampling(&file, &full, 50, 0.01, &scale, "t4");
        // Either it reached the target (only possible near a full scan) or
        // it scanned everything; in both cases cost ≤ the file itself.
        assert!(req.mean_tuples <= 5_000.0 + 1e-9);
        assert!(req.mean_blocks <= 50.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rates_must_ascend() {
        let file = random_file(1_000, 5);
        let full = sorted_copy(&file);
        let _ = error_vs_rate(&file, &full, 10, &[0.5, 0.2], &Scale::tiny(), "t5");
    }
}
