//! Metered samplers over a heap file.
//!
//! These wrap the raw sampling primitives of `samplehist_core::sampling`
//! with I/O accounting, making the cost asymmetry that motivates the
//! paper's Section 4 measurable: a block sampler pays one page per `b`
//! tuples; a record sampler pays one page per *tuple* (each randomly
//! chosen tuple lives on its own page fetch, and at realistic sampling
//! rates almost every fetch is a distinct page).

use rand::Rng;
use samplehist_core::sampling::{BlockDraw, DegradationReport, Reliable, TryBlockSource};
use samplehist_obs::{Recorder, Span};

use crate::heap_file::HeapFile;
use crate::io::IoStats;
use crate::page::PageId;

/// Bytes one stored tuple occupies in the simulated heap file (`i64`
/// values throughout) — used for the `storage.bytes_read` counter.
const TUPLE_BYTES: u64 = 8;

/// Close `span`, the `storage.read` span opened before one batch of page
/// reads, labelled `kind`, and report the batch: totals plus the
/// sequential-vs-random split (a fetch is *sequential* when it hits the
/// page directly after the previous fetch — the distinction that decides
/// whether block sampling I/O behaves like a scan or like seeks). `pages`
/// lists the pages read, in read order; `tuples` is how many tuples they
/// held. Emits no counter when no page was read.
fn record_page_reads(
    recorder: &Recorder,
    mut span: Span,
    kind: &'static str,
    pages: &[usize],
    tuples: u64,
) {
    span.field("kind", kind);
    span.field("pages", pages.len());
    span.field("tuples", tuples);
    if !recorder.is_enabled() || pages.is_empty() {
        return;
    }
    let sequential = pages.windows(2).filter(|w| w[1] == w[0].wrapping_add(1)).count() as u64;
    recorder.counter("storage.pages_read", pages.len() as u64);
    recorder.counter("storage.tuples_read", tuples);
    recorder.counter("storage.bytes_read", tuples * TUPLE_BYTES);
    recorder.counter("storage.pages_sequential", sequential);
    recorder.counter("storage.pages_random", pages.len() as u64 - sequential);
}

/// The tuples one [`read_pages`] walk produced, its I/O bill, and what it
/// lost on the way.
#[derive(Debug, Clone, PartialEq)]
pub struct PageReads {
    /// The tuples of every page read, in read order.
    pub values: Vec<i64>,
    /// One page charge per page read.
    pub io: IoStats,
    /// Pages that failed and replacements drawn for them.
    pub report: DegradationReport,
}

/// The one fixed-size page walk: read pages from `candidates` until
/// `planned` of them were readable or the candidates run out; each lost
/// page buys one more candidate while `replacement_budget` lasts. Lost
/// pages are counted on `analyze.blocks_failed`. `span` is the
/// `storage.read` span the caller opened for the walk (where it nests is
/// the caller's choice); it is closed with the reads, labelled `kind`.
pub fn read_pages(
    source: &impl TryBlockSource,
    mut candidates: impl Iterator<Item = usize>,
    planned: usize,
    replacement_budget: usize,
    recorder: &Recorder,
    span: Span,
    kind: &'static str,
) -> PageReads {
    let mut values = Vec::with_capacity(planned * source.avg_tuples_per_block().ceil() as usize);
    let mut io = IoStats::new();
    // Pages read, kept only while tracing.
    let mut read = Vec::new();
    let mut report = DegradationReport::default();
    let (mut want, mut budget) = (planned, replacement_budget);
    while want > 0 {
        let Some(p) = candidates.next() else { break };
        want -= 1;
        match source.try_block(p) {
            Ok(page) => {
                io.charge_page(page.len());
                values.extend_from_slice(&page);
                if recorder.is_enabled() {
                    read.push(p);
                }
            }
            Err(err) => {
                report.blocks_failed += 1;
                report.last_error = Some(err);
                recorder.counter("analyze.blocks_failed", 1);
                if budget > 0 {
                    budget -= 1;
                    want += 1;
                }
            }
        }
    }
    record_page_reads(recorder, span, kind, &read, io.tuples_read);
    let tried = io.pages_read as usize + report.blocks_failed;
    report.replacements_drawn = tried - planned.min(tried);
    report.degraded = report.blocks_failed > 0;
    PageReads { values, io, report }
}

/// Page-grained sampler: draws whole pages without replacement and
/// charges one page read per page.
#[derive(Debug, Default)]
pub struct BlockSampler {
    io: IoStats,
    recorder: Recorder,
}

impl BlockSampler {
    /// New sampler with a zeroed meter, reporting to the process-global
    /// recorder (a no-op unless one is installed).
    pub fn new() -> Self {
        Self { io: IoStats::new(), recorder: samplehist_obs::global() }
    }

    /// Bernoulli (SYSTEM-style) page sampling: include each page
    /// independently with probability `fraction` — the sampling primitive
    /// SQL Server 7.0 exposed ("specifying the percentage of file to be
    /// sampled", Section 7.1) that the CVB prototype was built on. The
    /// returned sample size is random with mean `fraction · pages`.
    ///
    /// # Panics
    /// If `fraction ∉ [0, 1]`.
    pub fn sample_bernoulli(
        &mut self,
        file: &HeapFile,
        fraction: f64,
        rng: &mut impl Rng,
    ) -> Vec<i64> {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "sampling fraction must be in [0,1], got {fraction}"
        );
        // Expected yield is `fraction · pages` full pages; reserving it up
        // front avoids ~log₂(n) reallocation copies of the growing sample.
        let expected =
            (fraction * file.num_pages() as f64).ceil() as usize * file.blocking_factor();
        let mut out = Vec::with_capacity(expected);
        let mut pages = Vec::new();
        let span = self.recorder.span("storage.read");
        for p in 0..file.num_pages() {
            if rng.gen::<f64>() < fraction {
                let page = file.page(PageId(p as u32));
                self.io.charge_page(page.len());
                out.extend_from_slice(page);
                pages.push(p);
            }
        }
        record_page_reads(&self.recorder, span, "bernoulli_sample", &pages, out.len() as u64);
        out
    }

    /// Draw `g` distinct pages, returning all their tuples.
    ///
    /// # Panics
    /// If `g` exceeds the file's page count.
    pub fn sample(&mut self, file: &HeapFile, g: usize, rng: &mut impl Rng) -> Vec<i64> {
        assert!(
            g <= file.num_pages(),
            "cannot sample {g} of {} pages without replacement",
            file.num_pages()
        );
        let mut draw = BlockDraw::new(file.num_pages());
        let span = self.recorder.span("storage.read");
        let candidates = std::iter::from_fn(|| draw.draw(rng));
        let read =
            read_pages(&Reliable(file), candidates, g, 0, &self.recorder, span, "block_sample");
        self.io.merge(read.io);
        read.values
    }

    /// The accumulated I/O.
    pub fn io(&self) -> IoStats {
        self.io
    }
}

/// Tuple-grained sampler: draws tuples uniformly **with replacement** and
/// charges a page read for every draw (the paper's Section 4 premise:
/// "scanning one tuple off the disk is not much faster than scanning the
/// entire group of tuples that are stored in the same disk block" — i.e.
/// you still pay for the page).
#[derive(Debug, Default)]
pub struct RecordSampler {
    io: IoStats,
    recorder: Recorder,
}

impl RecordSampler {
    /// New sampler with a zeroed meter, reporting to the process-global
    /// recorder (a no-op unless one is installed).
    pub fn new() -> Self {
        Self { io: IoStats::new(), recorder: samplehist_obs::global() }
    }

    /// New sampler reporting to an explicit recorder.
    pub fn with_recorder(recorder: Recorder) -> Self {
        Self { io: IoStats::new(), recorder }
    }

    /// Draw `r` tuples with replacement.
    pub fn sample(&mut self, file: &HeapFile, r: usize, rng: &mut impl Rng) -> Vec<i64> {
        let n = file.num_tuples();
        let mut out = Vec::with_capacity(r);
        let mut pages = Vec::new();
        let track = self.recorder.is_enabled();
        let span = self.recorder.span("storage.read");
        for _ in 0..r {
            let idx = rng.gen_range(0..n);
            let (value, page) = file.tuple(idx);
            // One page fault per tuple: even if two draws hit the same
            // page, a tuple-at-a-time executor has no way to know in
            // advance and pays the fetch (no buffer-pool modeling here —
            // the paper's cost argument is about the no-cache worst case).
            self.io.pages_read += 1;
            self.io.tuples_read += 1;
            if track {
                pages.push(page.0 as usize);
            }
            out.push(value);
        }
        record_page_reads(&self.recorder, span, "record_sample", &pages, out.len() as u64);
        out
    }

    /// The accumulated I/O.
    pub fn io(&self) -> IoStats {
        self.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn file(n: i64, b: usize, seed: u64) -> HeapFile {
        let mut rng = StdRng::seed_from_u64(seed);
        HeapFile::with_layout((0..n).collect(), b, Layout::Random, &mut rng)
    }

    #[test]
    fn block_sampler_charges_per_page() {
        let f = file(1000, 50, 1);
        let mut s = BlockSampler::new();
        let mut rng = StdRng::seed_from_u64(2);
        let tuples = s.sample(&f, 4, &mut rng);
        assert_eq!(tuples.len(), 200);
        assert_eq!(s.io(), IoStats { pages_read: 4, tuples_read: 200 });
    }

    #[test]
    fn block_sampler_accumulates_across_calls() {
        let f = file(1000, 50, 3);
        let mut s = BlockSampler::new();
        let mut rng = StdRng::seed_from_u64(4);
        s.sample(&f, 2, &mut rng);
        s.sample(&f, 3, &mut rng);
        assert_eq!(s.io().pages_read, 5);
        assert_eq!(s.io().tuples_read, 250);
    }

    #[test]
    fn record_sampler_pays_a_page_per_tuple() {
        let f = file(1000, 50, 5);
        let mut s = RecordSampler::new();
        let mut rng = StdRng::seed_from_u64(6);
        let tuples = s.sample(&f, 300, &mut rng);
        assert_eq!(tuples.len(), 300);
        assert_eq!(s.io(), IoStats { pages_read: 300, tuples_read: 300 });
    }

    /// The asymmetry the paper exploits: for the same number of tuples,
    /// block sampling does b× less I/O.
    #[test]
    fn block_vs_record_io_asymmetry() {
        let f = file(10_000, 100, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let mut block = BlockSampler::new();
        let bt = block.sample(&f, 10, &mut rng); // 1000 tuples, 10 pages
        let mut record = RecordSampler::new();
        let rt = record.sample(&f, 1000, &mut rng); // 1000 tuples, 1000 pages
        assert_eq!(bt.len(), rt.len());
        assert_eq!(record.io().pages_read / block.io().pages_read, 100);
    }

    #[test]
    fn bernoulli_sampling_mean_and_metering() {
        let f = file(10_000, 100, 11);
        let mut total_pages = 0u64;
        let trials = 50;
        for seed in 0..trials {
            let mut s = BlockSampler::new();
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let tuples = s.sample_bernoulli(&f, 0.3, &mut rng);
            assert_eq!(tuples.len() as u64, s.io().tuples_read);
            assert_eq!(tuples.len() as u64, s.io().pages_read * 100);
            total_pages += s.io().pages_read;
        }
        // 100 pages at 30%: mean 30 pages per trial, sd ~4.6.
        let mean = total_pages as f64 / trials as f64;
        assert!((mean - 30.0).abs() < 4.0, "mean pages = {mean}");
    }

    #[test]
    fn bernoulli_extremes() {
        let f = file(1_000, 100, 12);
        let mut rng = StdRng::seed_from_u64(13);
        assert!(BlockSampler::new().sample_bernoulli(&f, 0.0, &mut rng).is_empty());
        let all = BlockSampler::new().sample_bernoulli(&f, 1.0, &mut rng);
        assert_eq!(all.len(), 1_000);
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0,1]")]
    fn bernoulli_bad_fraction_rejected() {
        let f = file(100, 10, 14);
        let mut rng = StdRng::seed_from_u64(15);
        let _ = BlockSampler::new().sample_bernoulli(&f, 1.5, &mut rng);
    }

    #[test]
    #[should_panic(expected = "without replacement")]
    fn block_oversample_rejected() {
        let f = file(100, 10, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let _ = BlockSampler::new().sample(&f, 11, &mut rng);
    }
}
