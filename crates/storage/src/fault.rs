//! Deterministic fault injection over a heap file, plus the retry policy
//! that absorbs the transient fraction of it.
//!
//! Production ANALYZE runs against disks that fail. To test the pipeline's
//! degradation behavior the failures must be (1) realistic — transient
//! errors, dead pages, torn writes — and (2) **reproducible**: the same
//! schedule every run, independent of access order, so a failing seed can
//! be replayed and traces diffed bit-for-bit.
//!
//! [`FaultInjectingStorage`] wraps a [`HeapFile`] behind
//! [`TryBlockSource`], the sampler-facing trait, and derives each page's
//! fate by hashing `(seed, page)` — not by consuming an RNG stream — so a
//! page is unreadable (or torn, or transiently flaky) regardless of when
//! or how often it is read. Torn pages are detected the way a real engine
//! detects them: the wrapper verifies every read against the page's
//! [`page_checksum`] and refuses to serve contents that do not match.
//!
//! Time is virtual: reads and backoff charge ticks to a counter instead of
//! sleeping, so latency-sensitive assertions stay deterministic and tests
//! run at full speed. [`Retrying`] layers the deterministic
//! retry-with-exponential-backoff policy over any fallible source.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};

use samplehist_core::sampling::{BlockError, TryBlockSource};

use crate::heap_file::HeapFile;
use crate::page::{page_checksum, PageId};

/// The fate of one page, fully determined by `(seed, page)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageFault {
    /// Reads succeed (and verify).
    None,
    /// The first `failures` read attempts fail; the page then recovers.
    Transient {
        /// How many consecutive attempts fail before the page reads clean.
        failures: u32,
    },
    /// Every read fails: a dead page (media error).
    Unreadable,
    /// Every read serves corrupted bytes; checksum verification rejects it.
    Torn,
}

/// A reproducible fault schedule: rates for each fault class plus the
/// virtual-clock cost of reads.
///
/// Rates are per page and drawn independently per page from the seeded
/// hash, so the *set* of faulty pages is a deterministic function of
/// `(seed, rates)` alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed of the schedule. Two wrappers with equal specs inject
    /// identical faults.
    pub seed: u64,
    /// Fraction of pages that fail transiently (in `[0,1]`).
    pub transient_rate: f64,
    /// Max consecutive failures a transiently faulty page serves (the
    /// actual count is hash-drawn from `1..=max_transient_failures`).
    pub max_transient_failures: u32,
    /// Fraction of pages that are permanently unreadable.
    pub unreadable_rate: f64,
    /// Fraction of pages whose contents are torn (checksum mismatch).
    pub torn_rate: f64,
    /// Virtual ticks a successful or failed read attempt costs.
    pub read_latency_ticks: u64,
    /// Extra virtual ticks a faulty attempt costs (error paths are slow —
    /// device timeouts, firmware retries).
    pub fault_latency_ticks: u64,
}

impl FaultSpec {
    /// A schedule with no faults: the wrapper is then a plain metered view.
    pub fn healthy(seed: u64) -> Self {
        Self {
            seed,
            transient_rate: 0.0,
            max_transient_failures: 3,
            unreadable_rate: 0.0,
            torn_rate: 0.0,
            read_latency_ticks: 1,
            fault_latency_ticks: 10,
        }
    }

    /// Set the transient-failure rate and per-page failure cap.
    pub fn with_transient(mut self, rate: f64, max_failures: u32) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        assert!(max_failures > 0, "a transient fault must fail at least once");
        self.transient_rate = rate;
        self.max_transient_failures = max_failures;
        self
    }

    /// Set the fraction of permanently unreadable pages.
    pub fn with_unreadable(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        self.unreadable_rate = rate;
        self
    }

    /// Set the fraction of torn (checksum-failing) pages.
    pub fn with_torn(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        self.torn_rate = rate;
        self
    }

    fn validate(&self) {
        let total = self.unreadable_rate + self.torn_rate + self.transient_rate;
        assert!(total <= 1.0, "fault rates sum to {total}, must be ≤ 1");
    }

    /// The fate of `page` under this schedule — pure function of the spec
    /// and the page number (access order can never perturb it).
    pub fn fault_of(&self, page: usize) -> PageFault {
        let h = splitmix64(self.seed ^ splitmix64(page as u64 + 1));
        // 53 high bits -> uniform in [0,1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.unreadable_rate {
            PageFault::Unreadable
        } else if u < self.unreadable_rate + self.torn_rate {
            PageFault::Torn
        } else if u < self.unreadable_rate + self.torn_rate + self.transient_rate {
            let failures = 1 + (splitmix64(h) % self.max_transient_failures as u64) as u32;
            PageFault::Transient { failures }
        } else {
            PageFault::None
        }
    }
}

/// SplitMix64: one multiply-xor-shift round per step — the standard seeded
/// hash for turning an index into an independent uniform word.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the wrapper observed: attempt counts by outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Reads that succeeded and verified.
    pub reads_ok: u64,
    /// Attempts that failed transiently.
    pub transient_errors: u64,
    /// Attempts against dead pages.
    pub unreadable_errors: u64,
    /// Attempts rejected by checksum verification.
    pub checksum_errors: u64,
}

impl FaultStats {
    /// Total read attempts, successful or not.
    pub fn attempts(&self) -> u64 {
        self.reads_ok + self.transient_errors + self.unreadable_errors + self.checksum_errors
    }
}

/// A [`HeapFile`] viewed through a seeded fault schedule.
///
/// Implements [`TryBlockSource`] — the sampler-facing trait — so CVB and
/// ANALYZE run against it unchanged: their one page-granular acquisition
/// (`cvb::try_run`, `analyze_resilient`) is the degradation-aware code,
/// which serves healthy heap files through `Reliable`. Every successful read is verified against the
/// per-page checksum captured at wrap time; torn pages therefore surface
/// as [`BlockError::Corrupted`] with both digests attached.
#[derive(Debug)]
pub struct FaultInjectingStorage<'a> {
    file: &'a HeapFile,
    spec: FaultSpec,
    checksums: Vec<u64>,
    attempts: RefCell<Vec<u32>>,
    clock: Cell<u64>,
    stats: RefCell<FaultStats>,
}

impl<'a> FaultInjectingStorage<'a> {
    /// Wrap `file` under `spec`, capturing each page's clean checksum.
    pub fn new(file: &'a HeapFile, spec: FaultSpec) -> Self {
        spec.validate();
        let pages = file.num_pages();
        let checksums = (0..pages).map(|p| file.page_checksum(PageId(p as u32))).collect();
        Self {
            file,
            spec,
            checksums,
            attempts: RefCell::new(vec![0; pages]),
            clock: Cell::new(0),
            stats: RefCell::new(FaultStats::default()),
        }
    }

    /// The schedule in force.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The fate of `page` under the schedule (for tests and reports).
    pub fn fault_of(&self, page: usize) -> PageFault {
        self.spec.fault_of(page)
    }

    /// Virtual ticks spent on reads so far (no wall-clock is ever sampled).
    pub fn virtual_now(&self) -> u64 {
        self.clock.get()
    }

    /// Attempt counts by outcome.
    pub fn stats(&self) -> FaultStats {
        *self.stats.borrow()
    }

    fn tick(&self, ticks: u64) {
        self.clock.set(self.clock.get() + ticks);
    }
}

impl TryBlockSource for FaultInjectingStorage<'_> {
    fn num_blocks(&self) -> usize {
        self.file.num_pages()
    }

    fn num_tuples(&self) -> u64 {
        self.file.num_tuples()
    }

    fn try_block(&self, index: usize) -> Result<Cow<'_, [i64]>, BlockError> {
        let page = self.file.page(PageId(index as u32));
        let attempt = {
            let mut attempts = self.attempts.borrow_mut();
            attempts[index] += 1;
            attempts[index]
        };
        match self.spec.fault_of(index) {
            PageFault::Unreadable => {
                self.tick(self.spec.read_latency_ticks + self.spec.fault_latency_ticks);
                self.stats.borrow_mut().unreadable_errors += 1;
                Err(BlockError::Unreadable { block: index })
            }
            PageFault::Torn => {
                self.tick(self.spec.read_latency_ticks + self.spec.fault_latency_ticks);
                self.stats.borrow_mut().checksum_errors += 1;
                // A torn write leaves real bytes on disk; model the served
                // (corrupt) contents and report what they hash to.
                let mut torn = page.to_vec();
                torn[0] ^= 1;
                Err(BlockError::Corrupted {
                    block: index,
                    expected: self.checksums[index],
                    actual: page_checksum(&torn),
                })
            }
            PageFault::Transient { failures } if attempt <= failures => {
                self.tick(self.spec.read_latency_ticks + self.spec.fault_latency_ticks);
                self.stats.borrow_mut().transient_errors += 1;
                Err(BlockError::Transient { block: index, attempts: attempt })
            }
            PageFault::Transient { .. } | PageFault::None => {
                self.tick(self.spec.read_latency_ticks);
                debug_assert_eq!(page_checksum(page), self.checksums[index]);
                self.stats.borrow_mut().reads_ok += 1;
                Ok(Cow::Borrowed(page))
            }
        }
    }

    fn avg_tuples_per_block(&self) -> f64 {
        self.file.num_tuples() as f64 / self.file.num_pages() as f64
    }
}

/// Deterministic retry-with-exponential-backoff policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per block (1 = no retries).
    pub max_attempts: u32,
    /// Virtual ticks of backoff before the first retry; doubles per retry.
    pub backoff_base_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 4, backoff_base_ticks: 2 }
    }
}

/// Retry wrapper over any fallible source: transient errors are retried up
/// to the policy's attempt cap with exponential backoff charged to a
/// virtual clock (never a wall-clock sleep); persistent errors — dead
/// pages, checksum failures — propagate immediately, since retrying them
/// only burns I/O.
#[derive(Debug)]
pub struct Retrying<S> {
    inner: S,
    policy: RetryPolicy,
    retries: Cell<u64>,
    backoff_ticks: Cell<u64>,
}

impl<S: TryBlockSource> Retrying<S> {
    /// Wrap `inner` under `policy`.
    pub fn new(inner: S, policy: RetryPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        Self { inner, policy, retries: Cell::new(0), backoff_ticks: Cell::new(0) }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Retries performed so far.
    pub fn retries(&self) -> u64 {
        self.retries.get()
    }

    /// Total virtual backoff ticks charged so far.
    pub fn backoff_ticks(&self) -> u64 {
        self.backoff_ticks.get()
    }
}

impl<S: TryBlockSource> TryBlockSource for Retrying<S> {
    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    fn num_tuples(&self) -> u64 {
        self.inner.num_tuples()
    }

    fn try_block(&self, index: usize) -> Result<Cow<'_, [i64]>, BlockError> {
        let mut attempt = 1;
        loop {
            match self.inner.try_block(index) {
                Ok(tuples) => return Ok(tuples),
                Err(err) if err.is_transient() && attempt < self.policy.max_attempts => {
                    self.retries.set(self.retries.get() + 1);
                    self.backoff_ticks.set(
                        self.backoff_ticks.get()
                            + (self.policy.backoff_base_ticks << (attempt - 1)),
                    );
                    attempt += 1;
                }
                Err(BlockError::Transient { block, .. }) => {
                    return Err(BlockError::Transient { block, attempts: attempt })
                }
                Err(err) => return Err(err),
            }
        }
    }

    fn avg_tuples_per_block(&self) -> f64 {
        self.inner.avg_tuples_per_block()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn file(n: i64, page: usize, seed: u64) -> HeapFile {
        let mut rng = StdRng::seed_from_u64(seed);
        HeapFile::with_layout((0..n).collect(), page, Layout::Random, &mut rng)
    }

    fn spec() -> FaultSpec {
        FaultSpec::healthy(42).with_transient(0.10, 3).with_unreadable(0.05).with_torn(0.03)
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_page() {
        let s = spec();
        for page in 0..500 {
            assert_eq!(s.fault_of(page), s.fault_of(page), "self-consistent");
        }
        // A different seed gives a different schedule somewhere.
        let other = FaultSpec { seed: 43, ..s };
        assert!((0..500).any(|p| s.fault_of(p) != other.fault_of(p)));
        // Rates are roughly honored over many pages.
        let dead = (0..10_000).filter(|&p| s.fault_of(p) == PageFault::Unreadable).count();
        assert!((300..700).contains(&dead), "~5% of 10k pages, got {dead}");
    }

    #[test]
    fn fault_independent_of_access_order() {
        let f = file(10_000, 100, 1);
        let a = FaultInjectingStorage::new(&f, spec());
        let b = FaultInjectingStorage::new(&f, spec());
        // Read in opposite orders; per-page outcomes on first touch differ
        // only via transient attempt counts, which both start at zero.
        let forward: Vec<bool> = (0..f.num_pages()).map(|p| a.try_block(p).is_ok()).collect();
        let backward: Vec<bool> =
            (0..f.num_pages()).rev().map(|p| b.try_block(p).is_ok()).collect();
        let backward_forward: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward_forward);
    }

    #[test]
    fn transient_pages_recover_after_their_failure_count() {
        let f = file(20_000, 100, 2);
        let storage = FaultInjectingStorage::new(&f, spec());
        let transient = (0..f.num_pages())
            .find(|&p| matches!(storage.fault_of(p), PageFault::Transient { .. }))
            .expect("10% transient rate over 200 pages");
        let PageFault::Transient { failures } = storage.fault_of(transient) else { unreachable!() };
        for attempt in 1..=failures {
            let err = storage.try_block(transient).expect_err("still failing");
            assert_eq!(err, BlockError::Transient { block: transient, attempts: attempt });
        }
        let page = storage.try_block(transient).expect("recovered");
        assert_eq!(page.as_ref(), f.page(PageId(transient as u32)));
    }

    #[test]
    fn torn_pages_report_both_checksums() {
        let f = file(20_000, 100, 3);
        let storage = FaultInjectingStorage::new(&f, FaultSpec::healthy(7).with_torn(0.2));
        let torn = (0..f.num_pages())
            .find(|&p| storage.fault_of(p) == PageFault::Torn)
            .expect("20% torn rate over 200 pages");
        let err = storage.try_block(torn).expect_err("checksum must reject");
        let BlockError::Corrupted { block, expected, actual } = err else {
            panic!("wrong taxonomy: {err:?}");
        };
        assert_eq!(block, torn);
        assert_eq!(expected, f.page_checksum(PageId(torn as u32)));
        assert_ne!(expected, actual);
        assert_eq!(storage.stats().checksum_errors, 1);
    }

    #[test]
    fn virtual_clock_charges_reads_and_fault_penalties() {
        let f = file(1_000, 100, 4);
        let storage = FaultInjectingStorage::new(&f, FaultSpec::healthy(1));
        assert_eq!(storage.virtual_now(), 0);
        let _ = storage.try_block(0);
        let _ = storage.try_block(1);
        assert_eq!(storage.virtual_now(), 2, "healthy reads cost read_latency_ticks each");

        let flaky = FaultInjectingStorage::new(&f, FaultSpec::healthy(1).with_unreadable(1.0));
        let _ = flaky.try_block(0);
        assert_eq!(flaky.virtual_now(), 11, "faulty attempt adds fault_latency_ticks");
    }

    #[test]
    fn retrying_masks_transients_and_charges_backoff() {
        let f = file(50_000, 100, 5);
        let spec = FaultSpec::healthy(11).with_transient(1.0, 3);
        let storage = Retrying::new(
            FaultInjectingStorage::new(&f, spec),
            RetryPolicy { max_attempts: 4, backoff_base_ticks: 2 },
        );
        // Every page is transient with ≤ 3 failures and we allow 4
        // attempts, so every read eventually succeeds.
        for p in 0..storage.num_blocks() {
            assert!(storage.try_block(p).is_ok(), "page {p} should recover within budget");
        }
        assert!(storage.retries() > 0);
        // Exponential backoff: a page needing 3 retries charges 2+4+8.
        assert!(storage.backoff_ticks() >= storage.retries() * 2);
        assert_eq!(storage.inner().stats().reads_ok, storage.num_blocks() as u64);
    }

    #[test]
    fn retrying_gives_up_with_attempt_count() {
        let f = file(10_000, 100, 6);
        let spec = FaultSpec::healthy(13).with_transient(1.0, 8);
        let storage = Retrying::new(
            FaultInjectingStorage::new(&f, spec),
            RetryPolicy { max_attempts: 2, backoff_base_ticks: 1 },
        );
        let err = storage.try_block(0).expect_err("8 failures > 2 attempts");
        assert_eq!(err, BlockError::Transient { block: 0, attempts: 2 });
    }

    #[test]
    fn retrying_does_not_retry_persistent_faults() {
        let f = file(10_000, 100, 7);
        let spec = FaultSpec::healthy(17).with_unreadable(1.0);
        let storage = Retrying::new(FaultInjectingStorage::new(&f, spec), RetryPolicy::default());
        let err = storage.try_block(3).expect_err("dead page");
        assert_eq!(err, BlockError::Unreadable { block: 3 });
        assert_eq!(storage.retries(), 0);
        assert_eq!(storage.inner().stats().unreadable_errors, 1, "exactly one attempt");
    }

    #[test]
    fn healthy_wrapper_serves_every_page_verbatim() {
        let f = file(5_000, 64, 8);
        let storage = FaultInjectingStorage::new(&f, FaultSpec::healthy(99));
        for p in 0..f.num_pages() {
            let got = storage.try_block(p).expect("healthy");
            assert_eq!(got.as_ref(), f.page(PageId(p as u32)));
        }
        let stats = storage.stats();
        assert_eq!(stats.reads_ok, f.num_pages() as u64);
        assert_eq!(stats.attempts(), stats.reads_ok);
    }
}
