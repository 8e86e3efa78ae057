//! The `analyze` workload: one thread ANALYZEs three columns in a
//! closed loop, each by adaptive CVB sampling and by full scan.
//!
//! Columns (all `rows` long, 64-byte records on 8 KB pages):
//! * `uniform` — every value distinct, random layout;
//! * `zipf` — Zipf z = 1 over `rows / 10` values, random layout;
//! * `dup` — each value repeated 1000 times, the paper's partially
//!   clustered layout (20% of each value's copies contiguous, Fig. 7).
//!
//! Modes: adaptive CVB at k = 200 (f = 0.1, γ = 0.01), and full scan at
//! k = 600 with a compressed histogram.

use rand::rngs::StdRng;
use samplehist_core::distinct::{DistinctEstimator, FrequencyProfile, Gee};
use samplehist_core::error::histogram_fractional_error;
use samplehist_core::histogram::{selection_profitable, CompressedHistogram, EquiHeightHistogram};
use samplehist_core::sampling::{cvb, CvbConfig, Schedule, ValidationMode};
use samplehist_core::BlockSource;
use samplehist_data::DataSpec;
use samplehist_engine::{analyze, AnalyzeOptions, ColumnStatistics, Table};
use samplehist_storage::{HeapFile, Layout, PageId};

use crate::calib::Speed;
use crate::util::{mean, median, put, stream, timed, Deadline, Ledger, Metrics, Times};

/// Buckets for adaptive CVB.
pub const CVB_BUCKETS: usize = 200;
/// Buckets for the full scan.
pub const SCAN_BUCKETS: usize = 600;
/// Target relative max error of the CVB mode.
const TARGET_F: f64 = 0.1;
/// Failure probability of the CVB mode.
const GAMMA: f64 = 0.01;
/// Record size: 128 tuples per 8 KB page.
const RECORD_BYTES: usize = 64;

/// One analyzed column with the exact answers it is checked against.
struct ColumnData {
    name: &'static str,
    sorted: Vec<i64>,
    distinct: u64,
    scan_histogram: EquiHeightHistogram,
    scan_compressed: CompressedHistogram,
}

/// The analyze workload's data: one table of three columns.
pub struct AnalyzeWorld {
    table: Table,
    columns: Vec<ColumnData>,
    rows: u64,
}

fn cvb_options() -> AnalyzeOptions {
    AnalyzeOptions::adaptive(CVB_BUCKETS)
}

fn scan_options() -> AnalyzeOptions {
    AnalyzeOptions::full_scan(SCAN_BUCKETS).with_compressed()
}

/// Generate the columns, lay them out, and run one warm ANALYZE per
/// column and mode.
pub fn setup(seed: u64, rows: u64) -> AnalyzeWorld {
    let specs: [(&'static str, DataSpec, Layout); 3] = [
        ("uniform", DataSpec::UniformDistinct, Layout::Random),
        ("zipf", DataSpec::Zipf { z: 1.0, domain: (rows / 10).max(1000) as usize }, Layout::Random),
        ("dup", DataSpec::UnifDup { copies: 1000 }, Layout::paper_partial()),
    ];
    let mut facts = Table::builder("facts");
    let mut columns = Vec::new();
    for (i, (name, spec, layout)) in specs.into_iter().enumerate() {
        let values = spec.generate(rows, &mut stream(seed, "analyze.values", i as u64, 0)).values;
        let mut sorted = values.clone();
        if !sorted.is_sorted() {
            sorted.sort_unstable();
        }
        let distinct = 1 + sorted.windows(2).filter(|w| w[0] != w[1]).count() as u64;
        let mut layout_rng = stream(seed, "analyze.layout", i as u64, 0);
        facts = facts.column(name, values, RECORD_BYTES, layout, &mut layout_rng);
        columns.push(ColumnData {
            name,
            scan_histogram: EquiHeightHistogram::from_sorted(&sorted, SCAN_BUCKETS),
            scan_compressed: CompressedHistogram::from_sorted(&sorted, SCAN_BUCKETS),
            sorted,
            distinct,
        });
    }
    let table = facts.build();
    for (i, col) in columns.iter().enumerate() {
        for options in [cvb_options(), scan_options()] {
            let mut rng = stream(seed, "analyze.warm", i as u64, 0);
            analyze(&table, col.name, &options, &mut rng).expect("warm ANALYZE");
        }
    }
    AnalyzeWorld { table, columns, rows }
}

/// The deterministic metrics: `calls` CVB ANALYZEs per column, each on
/// a stream of its own. Returns the sampling rate (tuples read over rows
/// covered, all calls together) and the max error (the worst column's
/// median Definition-4 error against the exact data; the median keeps
/// an occasional extra doubling round from swinging it).
pub fn accuracy(world: &AnalyzeWorld, seed: u64, calls: u64, ledger: &mut Ledger) -> (f64, f64) {
    let n = world.rows;
    let (mut tuples, mut rows, mut max_error) = (0u64, 0u64, 0.0f64);
    for (i, col) in world.columns.iter().enumerate() {
        let mut errors = Vec::new();
        for call in 0..calls {
            let mut rng = stream(seed, "analyze.accuracy", i as u64, call);
            let stats = analyze(&world.table, col.name, &cvb_options(), &mut rng);
            ledger.ops(1, stats.is_err() as u64);
            let Ok(stats) = stats else { continue };
            check_stats(ledger, &stats, n);
            tuples += stats.io.tuples_read;
            rows += n;
            errors.push(histogram_fractional_error(&stats.histogram, &col.sorted).max);
        }
        if !errors.is_empty() {
            max_error = max_error.max(median(&errors));
        }
    }
    (tuples as f64 / rows.max(1) as f64, max_error)
}

/// The measurements of one kind of slice (traced or untraced), summed
/// over every slice of the run.
#[derive(Debug, Default)]
pub struct AnalyzeRun {
    traced: bool,
    cycle: u64,
    rows: u64,
    /// CVB ANALYZE times per column, ns.
    cvb_ns: Vec<Times>,
    /// Full-scan ANALYZE times per column, ns.
    scan_ns: Vec<Times>,
    /// Stage timings (traced half only).
    stages: Stages,
}

/// Per-call stage samples of the traced half, in nanoseconds unless
/// named otherwise.
#[derive(Debug, Default)]
struct Stages {
    cvb_total: Vec<f64>,
    cvb_run: Vec<f64>,
    cvb_rounds: Vec<f64>,
    cvb_oversampling: Vec<f64>,
    sample_build: Vec<f64>,
    sample_profile: Vec<f64>,
    gee: Vec<f64>,
    gee_ratio_error: Vec<f64>,
    pages_read: Vec<f64>,
    tuples_read: Vec<f64>,
    scan_total: Vec<f64>,
    scan: Vec<f64>,
    compressed_build: Vec<f64>,
    build: Vec<f64>,
    profile: Vec<f64>,
    replay_mismatches: u64,
}

/// Rows per second over one pass of every column, each column timed by
/// its median call — robust to the odd CVB call that needs one more
/// doubling round.
fn rows_per_s(rows: u64, per_column: &[Times], scaled: bool) -> f64 {
    let ns: f64 = per_column.iter().map(|times| median(times.get(scaled))).sum();
    (rows * per_column.len() as u64) as f64 / (ns * 1e-9)
}

impl AnalyzeRun {
    /// An empty accumulator for traced or untraced slices.
    pub fn new(world: &AnalyzeWorld, traced: bool) -> Self {
        let cols = world.columns.len();
        Self {
            traced,
            rows: world.rows,
            cvb_ns: vec![Times::default(); cols],
            scan_ns: vec![Times::default(); cols],
            ..Self::default()
        }
    }

    /// Rows covered per wall-second by adaptive CVB, at reference speed
    /// or as measured.
    pub fn cvb_rows_per_s(&self, scaled: bool) -> f64 {
        rows_per_s(self.rows, &self.cvb_ns, scaled)
    }

    /// Rows covered per wall-second by full scan + compressed, at
    /// reference speed or as measured.
    pub fn scan_rows_per_s(&self, scaled: bool) -> f64 {
        rows_per_s(self.rows, &self.scan_ns, scaled)
    }
}

/// Run cycles until `deadline` (at least one), appending to `out` the
/// call times with their factors to reference speed. A cycle ANALYZEs
/// every column once per mode; cycle `c` of column `i` draws from stream
/// `(seed, i, c)`, so traced and untraced slices see the same inputs in
/// the same order.
pub fn run(
    world: &AnalyzeWorld,
    seed: u64,
    deadline: Deadline,
    speed: &mut Speed,
    ledger: &mut Ledger,
    out: &mut AnalyzeRun,
) {
    let n = world.rows;
    let traced = out.traced;
    loop {
        let cycle = out.cycle;
        for (i, col) in world.columns.iter().enumerate() {
            let mut rng = stream(seed, "analyze.cvb", i as u64, cycle);
            let replay_rng = rng.clone();
            let (stats, ns, scale) =
                speed.time_shared(|| analyze(&world.table, col.name, &cvb_options(), &mut rng));
            ledger.ops(1, stats.is_err() as u64);
            if let Ok(stats) = stats {
                out.cvb_ns[i].push(ns, scale);
                check_stats(ledger, &stats, n);
                if traced {
                    replay_cvb(world, col, &stats, ns, replay_rng, &mut out.stages);
                }
            }

            let mut rng = stream(seed, "analyze.scan", i as u64, cycle);
            let (stats, ns, scale) =
                speed.time_shared(|| analyze(&world.table, col.name, &scan_options(), &mut rng));
            ledger.ops(1, stats.is_err() as u64);
            if let Ok(stats) = stats {
                out.scan_ns[i].push(ns, scale);
                check_stats(ledger, &stats, n);
                check_scan(ledger, col, &stats);
                if traced {
                    replay_scan(world, col, &stats, ns, &mut out.stages);
                }
            }
        }
        out.cycle += 1;
        if deadline.passed() {
            break;
        }
    }
}

fn check_stats(ledger: &mut Ledger, stats: &ColumnStatistics, n: u64) {
    let total = stats.histogram.total();
    ledger.check("histogram_total_equals_rows", total == n, || {
        format!("{}: histogram total {total} != {n} rows", stats.column)
    });
    if let Some(c) = &stats.compressed {
        ledger.check("histogram_total_equals_rows", c.total() == n, || {
            format!("{}: compressed total {} != {n} rows", stats.column, c.total())
        });
    }
    ledger.check_estimate(stats.distinct_estimate);
    ledger.check_estimate(stats.density);
}

/// A full scan must reproduce the exact histograms and distinct count.
fn check_scan(ledger: &mut Ledger, col: &ColumnData, stats: &ColumnStatistics) {
    ledger.check("scan_histogram_exact", stats.histogram == col.scan_histogram, || {
        format!("{}: full-scan histogram differs from the exact one", col.name)
    });
    ledger.check(
        "scan_histogram_exact",
        stats.compressed.as_ref() == Some(&col.scan_compressed),
        || format!("{}: full-scan compressed histogram differs from the exact one", col.name),
    );
    ledger.check("scan_distinct_exact", stats.distinct_estimate == col.distinct as f64, || {
        format!("{}: distinct {} != exact {}", col.name, stats.distinct_estimate, col.distinct)
    });
}

/// Time CVB's stages by calling them on the same input and stream the
/// timed ANALYZE used: the sampling loop, the sample histogram, the
/// frequency profile and the GEE estimate.
fn replay_cvb(
    world: &AnalyzeWorld,
    col: &ColumnData,
    stats: &ColumnStatistics,
    total_ns: f64,
    mut rng: StdRng,
    st: &mut Stages,
) {
    let file = world.table.column(col.name).expect("column exists").file();
    let n = file.num_tuples();
    let b = file.avg_tuples_per_block().max(1.0);
    let initial_blocks =
        (((5.0 * (n as f64).sqrt()) / b).ceil() as usize).clamp(1, file.num_pages());
    let config = CvbConfig {
        buckets: CVB_BUCKETS,
        target_f: TARGET_F,
        gamma: GAMMA,
        schedule: Schedule::Doubling { initial_blocks },
        validation: ValidationMode::AllTuples,
        max_block_fraction: 1.0,
    };
    let (result, run_ns) = timed(|| cvb::run(file, &config, &mut rng));
    let sample = &result.sample_sorted;
    let (histogram, build_ns) = timed(|| {
        if result.exhausted {
            EquiHeightHistogram::from_sorted(sample, CVB_BUCKETS)
        } else {
            EquiHeightHistogram::from_sorted_sample(sample, CVB_BUCKETS, n)
        }
    });
    let (profile, profile_ns) = timed(|| FrequencyProfile::from_sorted_sample(sample));
    let (distinct, gee_ns) = timed(|| {
        if result.exhausted {
            profile.distinct_in_sample() as f64
        } else {
            Gee.estimate(&profile, n)
        }
    });
    if histogram != stats.histogram || distinct != stats.distinct_estimate {
        st.replay_mismatches += 1;
    }
    st.cvb_total.push(total_ns);
    st.cvb_run.push(run_ns);
    st.cvb_rounds.push(result.rounds_executed as f64);
    st.cvb_oversampling.push(result.oversampling_factor(&config, n));
    st.sample_build.push(build_ns);
    st.sample_profile.push(profile_ns);
    st.gee.push(gee_ns);
    let exact = col.distinct as f64;
    st.gee_ratio_error.push((distinct / exact).max(exact / distinct.max(1.0)));
    st.pages_read.push(stats.io.pages_read as f64);
    st.tuples_read.push(stats.io.tuples_read as f64);
}

/// Time the full scan's stages: the page walk, the compressed and
/// equi-height builds, and the frequency profile, in ANALYZE's order.
fn replay_scan(
    world: &AnalyzeWorld,
    col: &ColumnData,
    stats: &ColumnStatistics,
    total_ns: f64,
    st: &mut Stages,
) {
    let file = world.table.column(col.name).expect("column exists").file();
    let (mut values, scan_ns) = timed(|| scan_pages(file));
    let sort_free = selection_profitable(values.len(), SCAN_BUCKETS);
    let mut sort_ns = 0.0;
    if !sort_free {
        sort_ns = timed(|| values.sort_unstable()).1;
    }
    let (compressed, compressed_ns) = timed(|| {
        if sort_free {
            CompressedHistogram::from_unsorted(&values, SCAN_BUCKETS)
        } else {
            CompressedHistogram::from_sorted(&values, SCAN_BUCKETS)
        }
    });
    let (histogram, build_ns) = timed(|| {
        if sort_free {
            EquiHeightHistogram::from_unsorted_in_place(&mut values, SCAN_BUCKETS)
        } else {
            EquiHeightHistogram::from_sorted(&values, SCAN_BUCKETS)
        }
    });
    let (profile, profile_ns) = timed(|| {
        if sort_free {
            FrequencyProfile::from_unsorted_sample(&values)
        } else {
            FrequencyProfile::from_sorted_sample(&values)
        }
    });
    if histogram != stats.histogram
        || stats.compressed.as_ref() != Some(&compressed)
        || profile.distinct_in_sample() as f64 != stats.distinct_estimate
    {
        st.replay_mismatches += 1;
    }
    st.scan_total.push(total_ns);
    st.scan.push(scan_ns);
    st.compressed_build.push(compressed_ns);
    st.build.push(build_ns + sort_ns);
    st.profile.push(profile_ns);
}

/// The full-scan page walk: every page of the heap file, in order.
fn scan_pages(file: &HeapFile) -> Vec<i64> {
    let mut values = Vec::with_capacity(file.num_tuples() as usize);
    for p in 0..file.num_pages() {
        values.extend_from_slice(file.page(PageId(p as u32)));
    }
    values
}

/// The per-layer metrics of a traced half, plus a printed breakdown of
/// each mode's ANALYZE time into stages and residual.
pub fn per_layer(run: &AnalyzeRun, metrics: &mut Metrics) -> Vec<String> {
    let st = &run.stages;
    let ms = |v: &[f64]| mean(v) * 1e-6;
    let cvb_stages = ms(&st.cvb_run) + ms(&st.sample_build) + ms(&st.sample_profile) + ms(&st.gee);
    let scan_stages = ms(&st.scan) + ms(&st.compressed_build) + ms(&st.build) + ms(&st.profile);
    let cvb_residual = ms(&st.cvb_total) - cvb_stages;
    let scan_residual = ms(&st.scan_total) - scan_stages;
    let calls = (st.cvb_total.len() + st.scan_total.len()).max(1) as f64;
    let residual = (cvb_residual * st.cvb_total.len() as f64
        + scan_residual * st.scan_total.len() as f64)
        / calls;
    put(metrics, "storage.scan_ms", ms(&st.scan), "ms");
    put(metrics, "storage.pages_read", mean(&st.pages_read), "count");
    put(metrics, "storage.tuples_read", mean(&st.tuples_read), "count");
    put(metrics, "cvb.run_ms", ms(&st.cvb_run), "ms");
    put(metrics, "cvb.rounds", mean(&st.cvb_rounds), "count");
    put(metrics, "cvb.oversampling", mean(&st.cvb_oversampling), "ratio");
    put(metrics, "histogram.build_ms", ms(&st.build), "ms");
    put(metrics, "histogram.compressed_build_ms", ms(&st.compressed_build), "ms");
    put(metrics, "histogram.sample_build_ms", ms(&st.sample_build), "ms");
    put(metrics, "distinct.profile_ms", ms(&st.profile), "ms");
    put(metrics, "distinct.sample_profile_ms", ms(&st.sample_profile), "ms");
    put(metrics, "distinct.gee_ms", ms(&st.gee), "ms");
    put(metrics, "distinct.gee_ratio_error", mean(&st.gee_ratio_error), "ratio");
    put(metrics, "analyze.cvb_residual_ms", cvb_residual, "ms");
    put(metrics, "analyze.scan_residual_ms", scan_residual, "ms");
    put(metrics, "analyze.residual_ms", residual, "ms");
    vec![
        format!(
            "analyze/cvb  per call {:.3} ms = stages {:.3} ms (cvb.run {:.3} + sample build {:.3} \
             + profile {:.3} + gee {:.3}) + residual {:.3} ms [{} calls]",
            ms(&st.cvb_total),
            cvb_stages,
            ms(&st.cvb_run),
            ms(&st.sample_build),
            ms(&st.sample_profile),
            ms(&st.gee),
            cvb_residual,
            st.cvb_total.len()
        ),
        format!(
            "analyze/scan per call {:.3} ms = stages {:.3} ms (scan {:.3} + compressed {:.3} \
             + build {:.3} + profile {:.3}) + residual {:.3} ms [{} calls]",
            ms(&st.scan_total),
            scan_stages,
            ms(&st.scan),
            ms(&st.compressed_build),
            ms(&st.build),
            ms(&st.profile),
            scan_residual,
            st.scan_total.len()
        ),
        format!(
            "analyze      stage replays that diverged from the timed ANALYZE: {}",
            st.replay_mismatches
        ),
    ]
}
