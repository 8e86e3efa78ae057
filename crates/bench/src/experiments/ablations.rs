//! Ablations: the design choices DESIGN.md calls out, each isolated.
//!
//! 1. **Stepping schedule** (Section 4.2 vs 7.1): doubling vs the
//!    prototype's √n steps vs fixed-size rounds, on a random layout —
//!    how much does the schedule change total I/O and convergence?
//! 2. **Validation mode** (Section 4.2's "twists"): all tuples of the new
//!    blocks vs one tuple per block, on a partially clustered layout —
//!    robustness to correlated validation data vs statistical power.
//! 3. **Histogram structure**: equi-height vs equi-width vs compressed on
//!    skewed data, measured as range-query estimation error at equal
//!    bucket budget — why the paper's subject is equi-height at all.
//! 4. **Sampling mode** (Section 3.1): with vs without replacement at
//!    equal r — the paper's claim that the distinction is negligible.

use rand::Rng;

use samplehist_core::error::{fractional_max_error, max_error_against};
use samplehist_core::estimate::true_range_count;
use samplehist_core::histogram::{
    BucketIndex, CompressedHistogram, CompressedIndex, EquiHeightHistogram, EquiWidthHistogram,
};
use samplehist_core::sampling::{self, cvb, BlockSource, CvbConfig, Schedule, ValidationMode};
use samplehist_data::DataSpec;
use samplehist_storage::Layout;

use super::common::{build_file, pct, zipf_domain, DEFAULT_BLOCKING};
use crate::output::ResultTable;
use crate::scale::Scale;

/// Experiment identifier.
pub const ID: &str = "ablations";

/// Run all five ablations.
pub fn run(scale: &Scale) -> Vec<ResultTable> {
    vec![
        schedule_ablation(scale),
        validation_ablation(scale),
        structure_ablation(scale),
        replacement_ablation(scale),
        strategy_ablation(scale),
    ]
}

/// Ablation 5: CVB's iterated cross-validation vs classical double
/// (two-phase) sampling, per layout. Double sampling spends a pilot to
/// estimate the cluster design effect and then commits; CVB keeps
/// checking. Both are measured on I/O and on the error they actually
/// deliver.
fn strategy_ablation(scale: &Scale) -> ResultTable {
    use samplehist_core::sampling::{double, DoubleSamplingConfig};

    let n = scale.n.min(1_000_000);
    let bins = 100;
    let target_f = 0.25;
    let spec = DataSpec::Zipf { z: 2.0, domain: zipf_domain(n) };

    let mut t = ResultTable::new(
        format!("Ablation 5: CVB vs double sampling (Z=2, k={bins}, f={target_f}, N={n})"),
        &["layout", "strategy", "blocks", "rate", "true error", "deff est"],
    );
    for (lname, layout) in [
        ("random", Layout::Random),
        ("partial 20%", Layout::paper_partial()),
        ("clustered", Layout::Clustered),
    ] {
        let mut acc = [[0.0f64; 3]; 2]; // [strategy][blocks, tuples, err]
        let mut deff_sum = 0.0f64;
        for trial in 0..scale.trials {
            let mut rng = scale.rng(&format!("{ID}/strategy/{lname}"), trial);
            let file = build_file(&spec, n, layout, DEFAULT_BLOCKING, &mut rng);
            let full = file.sorted_values();

            let cvb_cfg = CvbConfig {
                buckets: bins,
                target_f,
                gamma: 0.05,
                schedule: Schedule::Doubling { initial_blocks: (file.num_blocks() / 100).max(2) },
                validation: ValidationMode::AllTuples,
                max_block_fraction: 1.0,
            };
            let r1 = cvb::run(&file, &cvb_cfg, &mut rng);
            acc[0][0] += r1.blocks_sampled as f64;
            acc[0][1] += r1.tuples_sampled as f64;
            acc[0][2] +=
                fractional_max_error(r1.histogram.separators(), &r1.sample_sorted, &full).max;

            let ds_cfg = DoubleSamplingConfig {
                buckets: bins,
                target_f,
                gamma: 0.05,
                pilot_blocks: (file.num_blocks() / 100).max(10),
            };
            let r2 = double::run(&file, &ds_cfg, &mut rng);
            acc[1][0] += r2.blocks_sampled() as f64;
            acc[1][1] += r2.tuples_sampled as f64;
            acc[1][2] +=
                fractional_max_error(r2.histogram.separators(), &r2.sample_sorted, &full).max;
            deff_sum += r2.design_effect;
        }
        let tr = scale.trials as f64;
        for (idx, sname) in [(0usize, "CVB"), (1, "double")] {
            t.row(vec![
                lname.into(),
                sname.into(),
                format!("{:.0}", acc[idx][0] / tr),
                pct(acc[idx][1] / tr / n as f64),
                format!("{:.3}", acc[idx][2] / tr),
                if idx == 1 { format!("{:.1}", deff_sum / tr) } else { "-".into() },
            ]);
        }
    }
    t
}

fn schedule_ablation(scale: &Scale) -> ResultTable {
    let n = scale.n.min(1_000_000);
    let bins = 100;
    let target_f = 0.2;
    let spec = DataSpec::Zipf { z: 2.0, domain: zipf_domain(n) };

    let mut t = ResultTable::new(
        format!(
            "Ablation 1: CVB stepping schedule (random layout, Z=2, k={bins}, f={target_f}, N={n})"
        ),
        &["schedule", "rounds", "blocks", "rate", "converged", "true error"],
    );
    type ScheduleFactory = Box<dyn Fn(usize) -> Schedule>;
    let schedules: Vec<(&str, ScheduleFactory)> = vec![
        (
            "doubling (paper §4.2)",
            Box::new(|blocks| Schedule::Doubling { initial_blocks: (blocks / 100).max(2) }),
        ),
        ("sqrt steps ×5 (prototype §7.1)", Box::new(|_| Schedule::SqrtSteps { multiplier: 5.0 })),
        ("sqrt steps ×25", Box::new(|_| Schedule::SqrtSteps { multiplier: 25.0 })),
        (
            "geometric ×3",
            Box::new(|blocks| Schedule::Geometric {
                initial_blocks: (blocks / 100).max(2),
                ratio: 3.0,
            }),
        ),
        (
            "fixed 2% rounds",
            Box::new(|blocks| Schedule::Fixed { blocks_per_round: (blocks / 50).max(1) }),
        ),
    ];

    for (name, make) in schedules {
        let (mut rounds, mut blocks, mut tuples, mut err) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let mut converged_all = true;
        for trial in 0..scale.trials {
            let mut rng = scale.rng(&format!("{ID}/sched/{name}"), trial);
            let file = build_file(&spec, n, Layout::Random, DEFAULT_BLOCKING, &mut rng);
            let full = file.sorted_values();
            let config = CvbConfig {
                buckets: bins,
                target_f,
                gamma: 0.05,
                schedule: make(file.num_blocks()),
                validation: ValidationMode::AllTuples,
                max_block_fraction: 1.0,
            };
            let result = cvb::run(&file, &config, &mut rng);
            rounds += result.rounds.len() as f64;
            blocks += result.blocks_sampled as f64;
            tuples += result.tuples_sampled as f64;
            err +=
                fractional_max_error(result.histogram.separators(), &result.sample_sorted, &full)
                    .max;
            converged_all &= result.converged || result.exhausted;
        }
        let tr = scale.trials as f64;
        t.row(vec![
            name.into(),
            format!("{:.1}", rounds / tr),
            format!("{:.0}", blocks / tr),
            pct(tuples / tr / n as f64),
            if converged_all { "yes" } else { "capped" }.into(),
            format!("{:.3}", err / tr),
        ]);
    }
    t
}

fn validation_ablation(scale: &Scale) -> ResultTable {
    let n = scale.n.min(1_000_000);
    let bins = 100;
    let target_f = 0.25;
    let spec = DataSpec::Zipf { z: 2.0, domain: zipf_domain(n) };

    let mut t = ResultTable::new(
        format!(
            "Ablation 2: cross-validation sample (partially clustered layout, k={bins}, f={target_f}, N={n})"
        ),
        &["validation mode", "blocks", "rate", "true error", "note"],
    );
    for (mode, note) in [
        (ValidationMode::AllTuples, "cheap; validation inherits block correlation"),
        (ValidationMode::OneTuplePerBlock, "unbiased validation; k× less power per block"),
    ] {
        let (mut blocks, mut tuples, mut err) = (0.0f64, 0.0f64, 0.0f64);
        for trial in 0..scale.trials {
            let mut rng = scale.rng(&format!("{ID}/val/{mode:?}"), trial);
            let file = build_file(&spec, n, Layout::paper_partial(), DEFAULT_BLOCKING, &mut rng);
            let full = file.sorted_values();
            let config = CvbConfig {
                buckets: bins,
                target_f,
                gamma: 0.05,
                schedule: Schedule::Doubling { initial_blocks: (file.num_blocks() / 100).max(2) },
                validation: mode,
                max_block_fraction: 1.0,
            };
            let result = cvb::run(&file, &config, &mut rng);
            blocks += result.blocks_sampled as f64;
            tuples += result.tuples_sampled as f64;
            err +=
                fractional_max_error(result.histogram.separators(), &result.sample_sorted, &full)
                    .max;
        }
        let tr = scale.trials as f64;
        t.row(vec![
            format!("{mode:?}"),
            format!("{:.0}", blocks / tr),
            pct(tuples / tr / n as f64),
            format!("{:.3}", err / tr),
            note.into(),
        ]);
    }
    t
}

fn structure_ablation(scale: &Scale) -> ResultTable {
    let n = scale.n.min(1_000_000);
    let k = 100usize;
    let spec = DataSpec::Zipf { z: 1.0, domain: zipf_domain(n) };
    let mut rng = scale.rng(&format!("{ID}/structure"), 0);
    let mut sorted = spec.generate(n, &mut rng).values;
    sorted.sort_unstable();

    let eh = BucketIndex::new(&EquiHeightHistogram::from_sorted(&sorted, k));
    let ew = EquiWidthHistogram::from_sorted(&sorted, k);
    let ch = CompressedIndex::new(&CompressedHistogram::from_sorted(&sorted, k));

    // Random range queries over the value domain.
    let (lo, hi) = (sorted[0], *sorted.last().expect("non-empty"));
    let queries = 2_000usize;
    let (mut sums, mut maxes) = ([0.0f64; 3], [0.0f64; 3]);
    let mut eq_err = [0.0f64; 3];
    for _ in 0..queries {
        let a = rng.gen_range(lo..=hi);
        let b = rng.gen_range(lo..=hi);
        let (x, y) = (a.min(b), a.max(b));
        let truth = true_range_count(&sorted, x, y) as f64;
        let errs = [
            (eh.estimate_range(x, y) - truth).abs(),
            (ew.estimate_range(x, y) - truth).abs(),
            (ch.estimate_range(x, y) - truth).abs(),
        ];
        for i in 0..3 {
            sums[i] += errs[i];
            maxes[i] = maxes[i].max(errs[i]);
        }
        // Point queries on a random existing value.
        let v = sorted[rng.gen_range(0..sorted.len())];
        let point_truth = true_range_count(&sorted, v, v) as f64;
        eq_err[0] += (eh.estimate_range(v, v) - point_truth).abs();
        eq_err[1] += (ew.estimate_range(v, v) - point_truth).abs();
        eq_err[2] += (ch.estimate_eq(v) - point_truth).abs();
    }

    let mut t = ResultTable::new(
        format!(
            "Ablation 3: histogram structure at equal budget k={k} (Zipf Z=1, N={n}, \
             {queries} random ranges + point queries)"
        ),
        &["structure", "mean abs range err", "max abs range err", "mean abs point err"],
    );
    for (i, name) in ["equi-height", "equi-width", "compressed"].iter().enumerate() {
        t.row(vec![
            (*name).into(),
            format!("{:.0}", sums[i] / queries as f64),
            format!("{:.0}", maxes[i]),
            format!("{:.1}", eq_err[i] / queries as f64),
        ]);
    }
    t
}

fn replacement_ablation(scale: &Scale) -> ResultTable {
    let n = scale.n.min(1_000_000);
    let k = 100usize;
    let data: Vec<i64> = (0..n as i64).collect();
    let rates = [0.01f64, 0.05, 0.2];

    let mut t = ResultTable::new(
        format!("Ablation 4: with vs without replacement (distinct values, k={k}, N={n})"),
        &["sample rate", "f (with repl)", "f (without repl)", "ratio"],
    );
    for &rate in &rates {
        let r = (n as f64 * rate) as usize;
        let (mut fw, mut fo) = (0.0f64, 0.0f64);
        for trial in 0..scale.trials {
            let mut rng = scale.rng(&format!("{ID}/repl/{rate}"), trial);
            let s1 = sampling::with_replacement(&data, r, &mut rng);
            let h1 = EquiHeightHistogram::from_unsorted_sample(s1, k, n);
            fw += max_error_against(&h1, &data).relative_max();
            let s2 = sampling::without_replacement(&data, r, &mut rng);
            let h2 = EquiHeightHistogram::from_unsorted_sample(s2, k, n);
            fo += max_error_against(&h2, &data).relative_max();
        }
        let tr = scale.trials as f64;
        t.row(vec![
            pct(rate),
            format!("{:.4}", fw / tr),
            format!("{:.4}", fo / tr),
            format!("{:.2}", (fw / tr) / (fo / tr).max(1e-12)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_five_tables_produced() {
        let scale = Scale { n: 80_000, trials: 1, seed: 71, full: false };
        let tables = run(&scale);
        assert_eq!(tables.len(), 5);
        assert_eq!(tables[0].rows.len(), 5, "five schedules");
        assert_eq!(tables[1].rows.len(), 2, "two validation modes");
        assert_eq!(tables[2].rows.len(), 3, "three structures");
        assert_eq!(tables[3].rows.len(), 3, "three rates");
        assert_eq!(tables[4].rows.len(), 6, "three layouts x two strategies");
    }

    #[test]
    fn double_sampling_estimates_larger_deff_on_clustering() {
        let scale = Scale { n: 100_000, trials: 2, seed: 83, full: false };
        let t = strategy_ablation(&scale);
        // deff column of the "double" rows, in layout order.
        let deffs: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[1] == "double")
            .map(|r| r[5].parse().expect("numeric"))
            .collect();
        assert_eq!(deffs.len(), 3);
        assert!(deffs[2] > deffs[0], "clustered {} vs random {}", deffs[2], deffs[0]);
    }

    #[test]
    fn equi_width_loses_on_skew() {
        let scale = Scale { n: 120_000, trials: 1, seed: 73, full: false };
        let t = structure_ablation(&scale);
        let mean_eh: f64 = t.rows[0][1].parse().expect("numeric");
        let mean_ew: f64 = t.rows[1][1].parse().expect("numeric");
        assert!(
            mean_ew > 2.0 * mean_eh.max(1.0),
            "equi-width {mean_ew} should be much worse than equi-height {mean_eh}"
        );
        // Compressed wins point queries outright.
        let point_ch: f64 = t.rows[2][3].parse().expect("numeric");
        let point_eh: f64 = t.rows[0][3].parse().expect("numeric");
        assert!(point_ch <= point_eh + 1e-9, "compressed {point_ch} vs equi-height {point_eh}");
    }

    #[test]
    fn replacement_modes_are_equivalent() {
        let scale = Scale { n: 100_000, trials: 3, seed: 79, full: false };
        let t = replacement_ablation(&scale);
        for row in &t.rows {
            let ratio: f64 = row[3].parse().expect("numeric");
            assert!((0.4..2.5).contains(&ratio), "rate {}: ratio {ratio}", row[0]);
        }
    }
}
