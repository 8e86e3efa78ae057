//! `ANALYZE` — building column statistics by scan or sample.

use rand::Rng;
use samplehist_obs::{Recorder, Span};

use samplehist_core::distinct::{DistinctEstimator, FrequencyProfile, Gee};
use samplehist_core::estimate::duplication_density_from_profile;
use samplehist_core::histogram::{sort_values, CompressedHistogram, EquiHeightHistogram};
use samplehist_core::sampling::{
    cvb, BlockDraw, CvbConfig, CvbError, DegradationPolicy, DegradationReport, Reliable, Schedule,
    TryBlockSource, ValidationMode,
};
use samplehist_storage::{read_pages, IoStats, PageReads, RecordSampler};

use crate::stats::ColumnStatistics;
use crate::table::Table;

/// How to gather the tuples that statistics are computed from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnalyzeMode {
    /// Read everything: exact histogram, exact density, exact distinct
    /// count. The expensive baseline.
    FullScan,
    /// Uniform tuple sample (with replacement) of `rate · n` tuples. Pays
    /// one page read per tuple — the cost model the paper's Section 4
    /// starts from.
    RowSample {
        /// Sampling fraction in (0, 1].
        rate: f64,
    },
    /// Whole-page sample of `rate · pages` pages, all tuples used,
    /// *without* adaptivity — the strawman CVB improves on.
    BlockSample {
        /// Page-sampling fraction in (0, 1].
        rate: f64,
    },
    /// The paper's CVB algorithm: adaptive block sampling with
    /// cross-validation, using the analyzed doubling schedule seeded at
    /// `5·√n` tuples (the prototype's base step, Section 7.1 — but grown
    /// geometrically so the validation sample can actually certify `f`;
    /// constant √n increments never can once `k` is large).
    Adaptive {
        /// Target relative max error `f`.
        target_f: f64,
        /// Failure probability γ.
        gamma: f64,
    },
}

/// Options for [`analyze`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyzeOptions {
    /// Histogram buckets (SQL Server 7.0 used up to 600 for an integer
    /// column — one page worth; Section 7.1).
    pub buckets: usize,
    /// Acquisition mode.
    pub mode: AnalyzeMode,
    /// Also build a compressed histogram (Section 5) from the same
    /// acquisition. Costs one extra pass over the (already gathered)
    /// sample; pays off on duplicate-heavy columns, where equality and
    /// heavy-value range estimates become exact.
    pub compressed: bool,
}

impl AnalyzeOptions {
    /// Full scan with `buckets` buckets.
    pub fn full_scan(buckets: usize) -> Self {
        Self { buckets, mode: AnalyzeMode::FullScan, compressed: false }
    }

    /// The paper's adaptive configuration with sensible defaults
    /// (f = 0.1, γ = 0.01).
    pub fn adaptive(buckets: usize) -> Self {
        Self {
            buckets,
            mode: AnalyzeMode::Adaptive { target_f: 0.1, gamma: 0.01 },
            compressed: false,
        }
    }

    /// Request a compressed histogram alongside the equi-height one.
    pub fn with_compressed(mut self) -> Self {
        self.compressed = true;
        self
    }
}

/// Why [`analyze`] or [`analyze_resilient`] can fail. (Statistics building
/// is deliberately infallible once the target exists and is readable — bad
/// rates and bucket counts are caller bugs and panic instead.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The named column does not exist in the table.
    UnknownColumn {
        /// Table searched.
        table: String,
        /// Column requested.
        column: String,
    },
    /// Not a single trustworthy page could be read: there is nothing to
    /// build statistics from, however degraded.
    TableUnreadable {
        /// Table analyzed.
        table: String,
        /// Column analyzed.
        column: String,
        /// How many page reads were attempted before giving up.
        blocks_tried: usize,
    },
    /// The requested mode cannot run against a fallible source (row
    /// sampling needs tuple addressing, which [`TryBlockSource`] does not
    /// model).
    UnsupportedMode {
        /// The rejected mode's name.
        mode: &'static str,
    },
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::UnknownColumn { table, column } => {
                write!(f, "no column {column:?} in table {table:?}")
            }
            AnalyzeError::TableUnreadable { table, column, blocks_tried } => {
                write!(
                    f,
                    "no readable pages in {table:?}.{column:?} ({blocks_tried} reads attempted)"
                )
            }
            AnalyzeError::UnsupportedMode { mode } => {
                write!(f, "mode {mode:?} is not supported on fallible storage")
            }
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Build [`ColumnStatistics`] for `table.column`, SQL Server style:
/// histogram + density + distinct-value estimate from one pass of data
/// acquisition.
///
/// # Panics
/// On invalid options (zero buckets, rates outside (0,1], bad f/γ).
pub fn analyze(
    table: &Table,
    column: &str,
    options: &AnalyzeOptions,
    rng: &mut impl Rng,
) -> Result<ColumnStatistics, AnalyzeError> {
    analyze_traced(table, column, options, rng, &samplehist_obs::global())
}

/// [`analyze`] with an explicit [`Recorder`]: the root `analyze` span
/// covers the whole call, with `analyze.acquire` / `analyze.sort` /
/// `analyze.build` / `analyze.estimate` children marking the phases.
/// Samplers and the CVB loop report through the same recorder, so one
/// trace shows the pipeline end to end. Pass [`Recorder::disabled`] (or
/// call [`analyze`]) for an untraced run — results are bit-identical
/// either way, since recording never touches the RNG stream.
///
/// The page-granular modes run [`analyze_resilient`]'s acquisition over
/// [`Reliable`]`(file)`, whose reads never fail; only row sampling, which
/// addresses single tuples of the heap file, is acquired here.
///
/// # Panics
/// On invalid options (zero buckets, rates outside (0,1], bad f/γ).
pub fn analyze_traced(
    table: &Table,
    column: &str,
    options: &AnalyzeOptions,
    rng: &mut impl Rng,
    recorder: &Recorder,
) -> Result<ColumnStatistics, AnalyzeError> {
    assert!(options.buckets > 0, "need at least one bucket");
    let col = table.column(column).ok_or_else(|| AnalyzeError::UnknownColumn {
        table: table.name().to_string(),
        column: column.to_string(),
    })?;
    let file = col.file();
    let n = file.num_tuples();
    let mut root = open_root(recorder, table.name(), column, n, file.num_pages(), options.buckets);
    let mut acquire = root.child("analyze.acquire");
    let acquisition = if let AnalyzeMode::RowSample { rate } = options.mode {
        acquire.field("mode", "row_sample");
        acquire.field("rate", rate);
        assert!(rate > 0.0 && rate <= 1.0, "row-sampling rate must be in (0,1]");
        let r = ((n as f64 * rate).ceil() as usize).max(1);
        let mut sampler = RecordSampler::with_recorder(recorder.clone());
        let sample = sampler.sample(file, r, rng);
        let method = format!("row sample {:.2}%", rate * 100.0);
        Acquisition { sample, io: sampler.io(), method, is_full: false, presorted: false }
    } else {
        let policy = DegradationPolicy::default();
        acquire_pages(&Reliable(file), options, &policy, rng, recorder, &mut acquire)
            .expect("a heap file's pages always read")
            .0
    };
    Ok(finish_statistics(table.name(), column, n, options, acquisition, acquire, &mut root))
}

/// Open the root `analyze` span, labelled with the target and its shape.
fn open_root(
    recorder: &Recorder,
    table: &str,
    column: &str,
    rows: u64,
    pages: usize,
    buckets: usize,
) -> Span {
    let mut root = recorder.span("analyze");
    root.field("table", table.to_string());
    root.field("column", column.to_string());
    root.field("rows", rows);
    root.field("pages", pages);
    root.field("buckets", buckets);
    root
}

/// What an acquisition phase hands to the statistics builder: the tuples
/// statistics are computed from, the I/O bill, whether they are the whole
/// column, and whether the acquisition already produced them sorted (CVB
/// merges sorted rounds; everything else yields storage order).
struct Acquisition {
    sample: Vec<i64>,
    io: IoStats,
    method: String,
    is_full: bool,
    presorted: bool,
}

/// The mode-independent back half of ANALYZE: closing the `acquire` span
/// with the I/O bill, then one sort (skipped for CVB's presorted sample),
/// histogram and compressed-histogram construction, density and distinct
/// estimation — shared by every mode, so a degraded acquisition builds
/// statistics exactly like a clean one.
fn finish_statistics(
    table: &str,
    column: &str,
    n: u64,
    options: &AnalyzeOptions,
    acquisition: Acquisition,
    mut acquire: Span,
    root: &mut Span,
) -> ColumnStatistics {
    let Acquisition { mut sample, io, method, is_full, presorted } = acquisition;
    acquire.field("pages_read", io.pages_read);
    acquire.field("tuples_read", io.tuples_read);
    acquire.field("sampling_rate", io.tuples_read as f64 / (n.max(1)) as f64);
    acquire.finish();

    // Every artifact below reads off one sorted sample, as the paper
    // builds them (Section 5's compressed histogram, Section 6's `f_j`):
    // CVB hands back an already-sorted sample, everything else is sorted
    // here. The `analyze.sort` span's `route` says which, and `counting`
    // whether `sort_values` took its counting sort (a narrow span).
    let mut sort_span = root.child("analyze.sort");
    sort_span.field("n", sample.len());
    sort_span.field("route", if presorted { "presorted" } else { "sorted" });
    let counting = !presorted && sort_values(&mut sample);
    sort_span.field("counting", counting);
    sort_span.finish();

    let mut build_span = root.child("analyze.build");
    build_span.field("buckets", options.buckets);
    build_span.field("route", if is_full { "exact" } else { "scaled_sample" });
    build_span.field("compressed", options.compressed);
    let compressed = options.compressed.then(|| {
        if is_full {
            CompressedHistogram::from_sorted(&sample, options.buckets)
        } else {
            CompressedHistogram::from_sorted_sample(&sample, options.buckets, n)
        }
    });
    let histogram = if is_full {
        EquiHeightHistogram::from_sorted(&sample, options.buckets)
    } else {
        EquiHeightHistogram::from_sorted_sample(&sample, options.buckets, n)
    };
    build_span.finish();

    let mut est_span = root.child("analyze.estimate");
    let profile = FrequencyProfile::from_sorted_sample(&sample);
    let distinct_in_sample = profile.distinct_in_sample();
    let distinct_estimate =
        if is_full { distinct_in_sample as f64 } else { Gee.estimate(&profile, n) };
    let density = duplication_density_from_profile(&profile);
    est_span.field("distinct_in_sample", distinct_in_sample);
    est_span.field("distinct_estimate", distinct_estimate);
    est_span.finish();

    root.field("method", method.clone());
    root.field("sample_size", sample.len());

    ColumnStatistics {
        table: table.to_string(),
        column: column.to_string(),
        num_rows: n,
        histogram,
        compressed,
        density,
        distinct_estimate,
        distinct_in_sample,
        sample_size: sample.len() as u64,
        method,
        io,
        index: crate::stats::CachedIndex::default(),
    }
}

/// The outcome of a resilient ANALYZE: the statistics plus a faithful
/// account of what was lost obtaining them.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientStatistics {
    /// The statistics, built from every tuple that survived.
    pub stats: ColumnStatistics,
    /// What failed, what was replaced, and what the cross-validation
    /// threshold degraded to (see [`DegradationReport`]).
    pub degradation: DegradationReport,
}

/// [`analyze`] against storage whose reads can fail.
///
/// Runs the page-granular acquisition modes over a [`TryBlockSource`] (a
/// fault-injecting wrapper, a retrying wrapper, or any future real I/O
/// backend), skipping pages that fail for good, replacing them from
/// undrawn pages up to `policy.replacement_budget`, and degrading
/// gracefully when replacements run out — in adaptive mode the
/// cross-validation threshold widens per Theorem 7 and the report says by
/// how much. Returns [`AnalyzeError::TableUnreadable`] instead of
/// panicking when not a single page can be read.
///
/// `AnalyzeMode::RowSample` is rejected ([`AnalyzeError::UnsupportedMode`]):
/// it needs tuple addressing, which page-granular fallible storage does
/// not model.
///
/// Determinism: with the same fault schedule and the same `rng` seed, the
/// result — and the emitted trace, timestamps aside — is bit-identical
/// across runs. [`analyze`] runs this same acquisition over a heap file
/// that never fails a read, so on fault-free storage the statistics equal
/// what [`analyze`] produces for the same seed in every page-granular
/// mode: full scan, block sample and adaptive.
///
/// # Panics
/// On invalid options (zero buckets, rates outside (0,1], bad f/γ).
pub fn analyze_resilient(
    table: &str,
    column: &str,
    source: &impl TryBlockSource,
    options: &AnalyzeOptions,
    policy: &DegradationPolicy,
    rng: &mut impl Rng,
) -> Result<ResilientStatistics, AnalyzeError> {
    analyze_resilient_traced(table, column, source, options, policy, rng, &samplehist_obs::global())
}

/// [`analyze_resilient`] with an explicit [`Recorder`]: the span tree of
/// [`analyze_traced`], a root-span `resilient` field, and the degradation
/// record — `analyze.blocks_failed` counters as pages are lost and, on a
/// run that lost any, root-span `degraded` / `blocks_failed` fields plus
/// one `analyze.degraded` counter, so fleets can alert on the rate of
/// lossy ANALYZE runs.
pub fn analyze_resilient_traced(
    table: &str,
    column: &str,
    source: &impl TryBlockSource,
    options: &AnalyzeOptions,
    policy: &DegradationPolicy,
    rng: &mut impl Rng,
    recorder: &Recorder,
) -> Result<ResilientStatistics, AnalyzeError> {
    assert!(options.buckets > 0, "need at least one bucket");
    if let AnalyzeMode::RowSample { .. } = options.mode {
        return Err(AnalyzeError::UnsupportedMode { mode: "row_sample" });
    }
    let n = source.num_tuples();
    let mut root = open_root(recorder, table, column, n, source.num_blocks(), options.buckets);
    root.field("resilient", true);
    let mut acquire = root.child("analyze.acquire");
    let (acquisition, degradation) =
        acquire_pages(source, options, policy, rng, recorder, &mut acquire).map_err(
            |blocks_tried| AnalyzeError::TableUnreadable {
                table: table.to_string(),
                column: column.to_string(),
                blocks_tried,
            },
        )?;
    if degradation.degraded {
        recorder.counter("analyze.degraded", 1);
        root.field("degraded", true);
        root.field("blocks_failed", degradation.blocks_failed);
    }
    let stats = finish_statistics(table, column, n, options, acquisition, acquire, &mut root);
    Ok(ResilientStatistics { stats, degradation })
}

/// The one page-granular acquisition behind [`analyze_traced`] (over a
/// heap file that never fails a read) and [`analyze_resilient_traced`]:
/// full scan, block sample or adaptive CVB over `source`. Fails with the
/// number of pages tried when not one of them was readable.
fn acquire_pages(
    source: &impl TryBlockSource,
    options: &AnalyzeOptions,
    policy: &DegradationPolicy,
    rng: &mut impl Rng,
    recorder: &Recorder,
    acquire: &mut Span,
) -> Result<(Acquisition, DegradationReport), usize> {
    let n = source.num_tuples();
    let pages = source.num_blocks();
    let budget = policy.replacement_budget;
    let (reads, method, is_full) = match options.mode {
        AnalyzeMode::RowSample { .. } => unreachable!("row sampling needs tuple addressing"),
        AnalyzeMode::FullScan => {
            acquire.field("mode", "full_scan");
            let span = acquire.child("storage.read");
            let reads = read_pages(source, 0..pages, pages, budget, recorder, span, "full_scan");
            let lost = reads.report.blocks_failed;
            let method = if lost == 0 {
                "full scan".to_string()
            } else {
                format!("degraded scan ({lost} of {pages} pages lost)")
            };
            (reads, method, lost == 0)
        }
        AnalyzeMode::BlockSample { rate } => {
            assert!(rate > 0.0 && rate <= 1.0, "block-sampling rate must be in (0,1]");
            acquire.field("mode", "block_sample");
            acquire.field("rate", rate);
            let g = ((pages as f64 * rate).ceil() as usize).clamp(1, pages);
            // `BlockSampler::sample`'s draw, continued for replacements.
            let mut draw = BlockDraw::new(pages);
            let candidates = std::iter::from_fn(|| draw.draw(rng));
            let span = acquire.child("storage.read");
            let reads = read_pages(source, candidates, g, budget, recorder, span, "block_sample");
            let (lost, replaced) = (reads.report.blocks_failed, reads.report.replacements_drawn);
            let method = if lost == 0 {
                format!("block sample {:.2}%", rate * 100.0)
            } else {
                format!(
                    "degraded block sample {:.2}% ({lost} pages lost, {replaced} replaced)",
                    rate * 100.0
                )
            };
            let is_full = reads.io.pages_read == pages as u64;
            (reads, method, is_full)
        }
        AnalyzeMode::Adaptive { target_f, gamma } => {
            acquire.field("mode", "adaptive");
            acquire.field("target_f", target_f);
            let b = source.avg_tuples_per_block().max(1.0);
            let initial_blocks =
                (((5.0 * (n as f64).sqrt()) / b).ceil() as usize).clamp(1, pages.max(1));
            let config = CvbConfig {
                buckets: options.buckets,
                target_f,
                gamma,
                schedule: Schedule::Doubling { initial_blocks },
                validation: ValidationMode::AllTuples,
                max_block_fraction: 1.0,
            };
            let (result, report) = cvb::try_run_traced(source, &config, policy, rng, recorder)
                .map_err(|CvbError::SourceUnreadable { blocks_tried, .. }| blocks_tried)?;
            let io = IoStats {
                pages_read: (result.blocks_sampled - report.blocks_failed) as u64,
                tuples_read: result.tuples_sampled,
            };
            let method = format!(
                "adaptive CVB (f={target_f}, {} rounds, {}{})",
                result.rounds.len(),
                if result.converged { "converged" } else { "exhausted" },
                if report.degraded {
                    format!(", degraded to f={:.3}", report.effective_target_f)
                } else {
                    String::new()
                }
            );
            // A degraded "full" walk read every page but lost some: the
            // sample is not the relation, so the histogram must stay scaled.
            let is_full = result.exhausted && !report.degraded;
            let sample = result.sample_sorted;
            let acquisition = Acquisition { sample, io, method, is_full, presorted: true };
            return Ok((acquisition, report));
        }
    };
    let PageReads { values: sample, io, report } = reads;
    if sample.is_empty() {
        return Err(io.pages_read as usize + report.blocks_failed);
    }
    Ok((Acquisition { sample, io, method, is_full, presorted: false }, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use samplehist_storage::Layout;

    fn orders_table(seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        // 20k rows: ids distinct, amounts with 100 duplicates each.
        Table::builder("orders")
            .column_with_blocking("id", (0..20_000).collect(), 100, Layout::Random, &mut rng)
            .column_with_blocking(
                "amount",
                (0..20_000).map(|i| i % 200).collect(),
                100,
                Layout::Random,
                &mut rng,
            )
            .build()
    }

    #[test]
    fn full_scan_is_exact() {
        let t = orders_table(1);
        let mut rng = StdRng::seed_from_u64(2);
        let s =
            analyze(&t, "amount", &AnalyzeOptions::full_scan(50), &mut rng).expect("column exists");
        assert_eq!(s.sample_size, 20_000);
        assert_eq!(s.distinct_estimate, 200.0);
        assert_eq!(s.distinct_in_sample, 200);
        assert_eq!(s.io.pages_read, 200); // 20k rows / 100 per page
        assert_eq!(s.histogram.total(), 20_000);
        assert!(s.method.contains("full scan"));
        // Each value 100 times: density = 99/19999.
        assert!((s.density - 99.0 / 19_999.0).abs() < 1e-12);
    }

    #[test]
    fn row_sample_meters_page_per_tuple() {
        let t = orders_table(3);
        let mut rng = StdRng::seed_from_u64(4);
        let opts = AnalyzeOptions {
            buckets: 20,
            mode: AnalyzeMode::RowSample { rate: 0.05 },
            compressed: false,
        };
        let s = analyze(&t, "id", &opts, &mut rng).expect("column exists");
        assert_eq!(s.sample_size, 1000);
        assert_eq!(s.io.pages_read, 1000, "a page fault per sampled row");
        assert_eq!(s.histogram.total(), 20_000, "counts scaled to the table");
        // All-distinct column: GEE must not underestimate catastrophically.
        assert!(s.distinct_estimate >= 1000.0);
    }

    #[test]
    fn block_sample_meters_pages() {
        let t = orders_table(5);
        let mut rng = StdRng::seed_from_u64(6);
        let opts = AnalyzeOptions {
            buckets: 20,
            mode: AnalyzeMode::BlockSample { rate: 0.1 },
            compressed: false,
        };
        let s = analyze(&t, "amount", &opts, &mut rng).expect("column exists");
        assert_eq!(s.io.pages_read, 20); // 10% of 200 pages
        assert_eq!(s.sample_size, 2000);
        assert!(s.sampling_rate() > 0.09 && s.sampling_rate() < 0.11);
    }

    #[test]
    fn adaptive_mode_runs_and_reports() {
        let t = orders_table(7);
        let mut rng = StdRng::seed_from_u64(8);
        let opts = AnalyzeOptions {
            buckets: 20,
            mode: AnalyzeMode::Adaptive { target_f: 0.2, gamma: 0.05 },
            compressed: false,
        };
        let s = analyze(&t, "amount", &opts, &mut rng).expect("column exists");
        assert!(s.method.contains("adaptive CVB"));
        assert!(s.io.pages_read > 0);
        assert!(s.sample_size > 0);
        assert_eq!(s.histogram.num_buckets(), 20);
    }

    #[test]
    fn scan_and_block_sample_match_sorted_references() {
        // Both acquisitions hand back storage order; every statistic must
        // equal the one built from the sorted tuples they read.
        let t = orders_table(13);
        let file = t.column("amount").expect("column exists").file();
        let n = file.num_tuples();
        let k = 50;
        let block = AnalyzeMode::BlockSample { rate: 0.5 };
        for mode in [AnalyzeMode::FullScan, block] {
            let opts = AnalyzeOptions { buckets: k, mode, compressed: true };
            let s = analyze(&t, "amount", &opts, &mut StdRng::seed_from_u64(14))
                .expect("column exists");
            let mut sorted = if mode == block {
                // `BlockSampler::sample` makes the same page draw.
                let mut rng = StdRng::seed_from_u64(14);
                samplehist_storage::BlockSampler::new().sample(file, 100, &mut rng)
            } else {
                (0..20_000).map(|i| i % 200).collect()
            };
            assert!(sorted.len() >= 8192, "{mode:?}: a sample of thousands of tuples");
            assert_eq!(s.sample_size, sorted.len() as u64, "{mode:?}");
            sorted.sort_unstable();
            let profile = FrequencyProfile::from_sorted_sample(&sorted);
            if mode == block {
                assert_eq!(s.histogram, EquiHeightHistogram::from_sorted_sample(&sorted, k, n));
                let compressed = CompressedHistogram::from_sorted_sample(&sorted, k, n);
                assert_eq!(s.compressed, Some(compressed));
                assert_eq!(s.distinct_estimate.to_bits(), Gee.estimate(&profile, n).to_bits());
            } else {
                assert_eq!(s.histogram, EquiHeightHistogram::from_sorted(&sorted, k));
                assert_eq!(s.compressed, Some(CompressedHistogram::from_sorted(&sorted, k)));
                assert_eq!(s.distinct_estimate, profile.distinct_in_sample() as f64);
            }
            assert_eq!(s.distinct_in_sample, profile.distinct_in_sample(), "{mode:?}");
            let density = samplehist_core::estimate::duplication_density(&sorted);
            assert_eq!(s.density.to_bits(), density.to_bits(), "{mode:?}: density bits");
        }
    }

    #[test]
    fn unknown_column_is_an_error() {
        let t = orders_table(9);
        let mut rng = StdRng::seed_from_u64(10);
        let err =
            analyze(&t, "nope", &AnalyzeOptions::full_scan(10), &mut rng).expect_err("must fail");
        assert_eq!(
            err,
            AnalyzeError::UnknownColumn { table: "orders".into(), column: "nope".into() }
        );
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    #[should_panic(expected = "rate must be in (0,1]")]
    fn bad_rate_panics() {
        let t = orders_table(11);
        let mut rng = StdRng::seed_from_u64(12);
        let opts = AnalyzeOptions {
            buckets: 10,
            mode: AnalyzeMode::RowSample { rate: 1.5 },
            compressed: false,
        };
        let _ = analyze(&t, "id", &opts, &mut rng);
    }
}
