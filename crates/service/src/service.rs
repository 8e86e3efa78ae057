//! [`StatsService`]: the estimation front door plus its refresh machinery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, Weak};
use std::thread::JoinHandle;

use samplehist_core::distinct::{DistinctEstimator, FrequencyProfile, Gee};
use samplehist_core::error::histogram_fractional_error;
use samplehist_core::estimate::duplication_density_from_profile;
use samplehist_core::histogram::{PatchPolicy, PatchableStats};
use samplehist_core::sampling::{DegradationPolicy, Reliable};
use samplehist_engine::hash::FxHashMap;
use samplehist_engine::{
    analyze_resilient, estimate_cardinality as cardinality_from_stats,
    estimate_cardinality_batch as cardinality_batch_from_stats,
    estimate_equijoin as equijoin_from_stats, nudge_counts, target_f_for_qerror, AnalyzeError,
    AnalyzeMode, AnalyzeOptions, CachedIndex, CardinalityEstimate, ColumnStatistics, Predicate,
    StatsCatalog, Table, VersionedStats, DEFAULT_STRIPES,
};
use samplehist_storage::{FaultInjectingStorage, FaultSpec, IoStats};

use crate::clock::Clock;
use crate::rng_stream::rng_stream;
use crate::scheduler::{RefreshJob, RefreshScheduler, SubmitOutcome};
use crate::staleness::{
    run_probe_with, AccuracyPolicy, ProbeOutcome, ProbeScratch, StalenessPolicy,
};

std::thread_local! {
    /// Per-thread probe buffers: each `samplehist-refresh-{i}` thread (and
    /// each of [`StatsService::drain`]'s helper threads) probes
    /// repeatedly, so the Fisher–Yates permutation and sample vectors
    /// are reused instead of reallocated per probe.
    /// Probe outcomes are scratch-independent ([`run_probe_with`]), so
    /// thread-locality never perturbs the deterministic mode.
    static PROBE_SCRATCH: std::cell::RefCell<ProbeScratch> =
        std::cell::RefCell::new(ProbeScratch::default());
}

/// Everything tunable about a [`StatsService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Master seed; every refresh action derives its private RNG stream
    /// from this (see [`rng_stream`]).
    pub seed: u64,
    /// Refresh threads (`samplehist-refresh-{i}`, clamped to ≥ 1) that
    /// [`StatsService::new`] spawns in concurrent mode, each looping on
    /// the one refresh queue until the service drops; none in
    /// deterministic mode, where [`StatsService::drain`] chooses the
    /// thread count per call.
    pub refresh_threads: usize,
    /// Deterministic mode: virtual clock, no refresh threads, refreshes
    /// run only when [`StatsService::drain`] is called — and the outcome
    /// is bit-identical whatever thread count the drain uses.
    pub deterministic: bool,
    /// How full refreshes acquire data (default: the paper's adaptive CVB).
    pub analyze: AnalyzeOptions,
    /// Staleness triggers and probe sizing.
    pub staleness: StalenessPolicy,
    /// Feedback-driven (q-error) staleness trigger.
    pub accuracy: AccuracyPolicy,
    /// First retry backoff in clock ticks; doubles per attempt.
    pub backoff_base_ticks: u64,
    /// Split/merge tuning for the patch rung (rung 2 of the ladder: a
    /// failed probe first tries to patch the stored histogram from its
    /// own sample). A policy no probe can satisfy, such as
    /// `min_sample_per_bucket: 1e6`, sends every failed probe to rung 3.
    pub patch: PatchPolicy,
    /// Target-q-error budget for full re-ANALYZE sizing: `Some(q)` makes
    /// every rebuild size its sample so the
    /// [`AccuracyPolicy::quantile`](crate::AccuracyPolicy) of range
    /// predicates stays within `q`× (via
    /// [`target_f_for_qerror`]), overriding the raw f/γ in
    /// [`analyze`](Self::analyze). `None` keeps the configured mode.
    pub qerror_budget: Option<f64>,
}

/// Refresh queue bound; beyond it submissions are rejected and counted.
const QUEUE_CAPACITY: usize = 1024;

/// Attempts per refresh before it is abandoned as failed.
const MAX_ATTEMPTS: u32 = 4;

/// ST-histogram learning rate for query-feedback tuning: the fraction of
/// the worst recorded predicate's estimation error folded into the
/// patched bucket counts. The nudge is applied *before* the patch's
/// held-out validation, so it is covered by the same error certificate.
const FEEDBACK_DAMPING: f64 = 0.5;

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            seed: 0x5a17_ab1e,
            refresh_threads: samplehist_parallel::num_threads(),
            deterministic: false,
            analyze: AnalyzeOptions::adaptive(100),
            staleness: StalenessPolicy::default(),
            accuracy: AccuracyPolicy::default(),
            backoff_base_ticks: 25,
            patch: PatchPolicy::default(),
            qerror_budget: None,
        }
    }
}

impl ServiceConfig {
    /// The replayable configuration: virtual clock, drain-driven
    /// refreshes, all randomness derived from `seed`.
    pub fn deterministic(seed: u64) -> Self {
        Self { seed, deterministic: true, ..Self::default() }
    }
}

/// Cumulative refresh outcomes (monotone counters, snapshot via
/// [`StatsService::tally`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RefreshTally {
    /// Refreshes that ended well (probe pass or successful re-ANALYZE).
    pub completed: u64,
    /// Refreshes abandoned after four failed attempts.
    pub failed: u64,
    /// Cross-validation probes run.
    pub probes: u64,
    /// Probes the stored histogram survived (no re-ANALYZE needed).
    pub probe_passes: u64,
    /// Full CVB re-ANALYZE runs performed.
    pub full_reanalyzes: u64,
    /// Probe-fed patches installed (the ladder's middle rung: probe
    /// failed, patch certificate within the widened Theorem 7 bound).
    pub patches: u64,
    /// Patch attempts whose certificate exceeded the bound (escalated to
    /// a full re-ANALYZE).
    pub patch_rejects: u64,
    /// Submissions dropped by the bounded queue.
    pub rejected: u64,
}

#[derive(Debug)]
struct TableEntry {
    table: Table,
    fault: Option<FaultSpec>,
}

/// A concurrent statistics service over a lock-striped [`StatsCatalog`].
///
/// Readers ([`estimate_cardinality`], [`estimate_equijoin`]) are served
/// from immutable `Arc` snapshots and never block on an in-flight
/// ANALYZE. Staleness (modification counters → probe → re-ANALYZE) feeds
/// a bounded priority queue drained by background workers — or by
/// explicit [`drain`] calls in deterministic mode.
///
/// Constructed as `Arc<StatsService>` ([`StatsService::new`]); refresh
/// threads hold only a `Weak` reference between jobs, so dropping the
/// last user `Arc` shuts the service down. A refresh still running then
/// stops at its next rung or before it installs (an ANALYZE in progress
/// runs to its end first), and the drop lands on its thread.
///
/// [`estimate_cardinality`]: StatsService::estimate_cardinality
/// [`estimate_equijoin`]: StatsService::estimate_equijoin
/// [`drain`]: StatsService::drain
#[derive(Debug)]
pub struct StatsService {
    config: ServiceConfig,
    /// Snapshots plus each registered column's access count and
    /// modification counter: the whole read path.
    catalog: StatsCatalog,
    /// Registered tables, for registration, [`Self::table`] and refresh
    /// jobs; reads never touch it. The unkeyed [`FxHashMap`] is safe
    /// because only [`Self::register_table`] fills it, so a name arriving
    /// from the wire can probe existing entries but never insert
    /// colliding ones.
    tables: RwLock<FxHashMap<String, Arc<TableEntry>>>,
    scheduler: Arc<RefreshScheduler>,
    clock: Arc<Clock>,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    probes: AtomicU64,
    probe_passes: AtomicU64,
    full_reanalyzes: AtomicU64,
    patches: AtomicU64,
    patch_rejects: AtomicU64,
    rejected: AtomicU64,
    accuracy_breaches: AtomicU64,
    /// The concurrent mode's refresh threads; empty in deterministic mode.
    workers: Vec<JoinHandle<()>>,
    /// This service's own handle: a refresh thread that finds itself
    /// holding the last strong reference abandons its job.
    this: Weak<Self>,
}

impl StatsService {
    /// Start a service. In concurrent mode this spawns
    /// `config.refresh_threads` refresh threads immediately.
    ///
    /// A `qerror_budget` is resolved here against *both* ends of the
    /// ladder: rung 3 already sizes its re-ANALYZE from it (see
    /// [`ServiceConfig::qerror_budget`]), and the stored
    /// [`StalenessPolicy`] is rewritten via
    /// [`StalenessPolicy::with_qerror_budget`] so rung 1's Theorem-7
    /// probe tests at the budget's fidelity too. [`Self::config`]
    /// reports the resolved policy.
    pub fn new(config: ServiceConfig) -> Arc<Self> {
        let mut config = config;
        if let Some(budget) = config.qerror_budget {
            config.staleness =
                config.staleness.with_qerror_budget(budget, config.accuracy.quantile);
        }
        let clock =
            Arc::new(if config.deterministic { Clock::virtual_at(0) } else { Clock::real() });
        let scheduler = Arc::new(RefreshScheduler::new(QUEUE_CAPACITY));
        let threads = if config.deterministic { 0 } else { config.refresh_threads.max(1) };
        Arc::new_cyclic(|weak: &Weak<Self>| {
            let workers = (0..threads)
                .map(|i| {
                    // A worker holds the scheduler and clock strongly but
                    // the service only weakly: between jobs no worker pins
                    // the service alive, so the user's last `drop` ends it.
                    let weak = weak.clone();
                    let scheduler = Arc::clone(&scheduler);
                    let clock = Arc::clone(&clock);
                    std::thread::Builder::new()
                        .name(format!("samplehist-refresh-{i}"))
                        .spawn(move || {
                            while let Some(job) = scheduler.pop_blocking(&clock) {
                                let live = weak.upgrade();
                                if let Some(svc) = &live {
                                    svc.process(job);
                                }
                                scheduler.job_done();
                                if live.is_none() {
                                    break;
                                }
                            }
                        })
                        .expect("spawn refresh thread")
                })
                .collect();
            Self {
                catalog: StatsCatalog::new(DEFAULT_STRIPES),
                tables: RwLock::default(),
                scheduler,
                clock,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                stale: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                probes: AtomicU64::new(0),
                probe_passes: AtomicU64::new(0),
                full_reanalyzes: AtomicU64::new(0),
                patches: AtomicU64::new(0),
                patch_rejects: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                accuracy_breaches: AtomicU64::new(0),
                workers,
                this: weak.clone(),
                config,
            }
        })
    }

    /// Register (or replace — data drift) a table, optionally behind a
    /// fault-injecting storage schedule. Statistics already in the
    /// catalog stay served until staleness catches up with the new data.
    ///
    /// Replacing a table restarts its columns' access counts at 0 and
    /// judges staleness by the new table's counters; a column the new
    /// table lacks becomes an unknown name, though its snapshot stays in
    /// the catalog.
    pub fn register_table(&self, table: Table, fault: Option<FaultSpec>) {
        let name = table.name().to_string();
        let entry = Arc::new(TableEntry { table, fault });
        // The catalog registers under the tables lock, so concurrent
        // registrations of one name leave both maps on the same table.
        let mut tables = self.tables.write().expect("tables lock");
        self.catalog.register(&entry.table);
        tables.insert(name, entry);
    }

    /// A handle to a registered table. The clone shares the original's
    /// modification counters, so workload threads can
    /// [`record_modifications`] through it and the service sees them.
    ///
    /// [`record_modifications`]: Table::record_modifications
    pub fn table(&self, name: &str) -> Option<Table> {
        self.tables.read().expect("tables lock").get(name).map(|e| e.table.clone())
    }

    /// Record data churn against a registered column (the staleness
    /// signal). Returns `false` if the table or column is unknown.
    pub fn record_modifications(&self, table: &str, column: &str, count: u64) -> bool {
        self.catalog.record_modifications(table, column, count)
    }

    /// Estimate the cardinality of `predicate` on a column, from the
    /// current snapshot. `None` means no statistics exist yet (a refresh
    /// has been queued; a stale snapshot, by contrast, is still served).
    pub fn estimate_cardinality(
        &self,
        table: &str,
        column: &str,
        predicate: &Predicate,
    ) -> Option<CardinalityEstimate> {
        let recorder = samplehist_obs::global();
        let mut span = recorder.span("service.query");
        if span.is_enabled() {
            span.field("op", "cardinality");
            span.field("table", table.to_string());
            span.field("column", column.to_string());
        }
        let snap = self.lookup(table, column);
        span.field("hit", snap.is_some());
        snap.map(|s| cardinality_from_stats(&s.stats, predicate))
    }

    /// Batched [`Self::estimate_cardinality`]: one snapshot lookup (one
    /// access bump, one staleness check, at most one queued refresh) for
    /// the whole predicate group, then the engine's eight-lane batch
    /// router. Every element is byte-identical to the scalar call
    /// against the same snapshot — this is the entry point the wire
    /// server's per-column request coalescing lands on, so a socketful
    /// of predicates on one column costs a handful of interleaved tree
    /// descents. `None` means no statistics exist yet (a refresh has
    /// been queued), exactly as in the scalar path.
    pub fn estimate_cardinality_batch(
        &self,
        table: &str,
        column: &str,
        predicates: &[Predicate],
    ) -> Option<Vec<CardinalityEstimate>> {
        let recorder = samplehist_obs::global();
        let mut span = recorder.span("service.query");
        if span.is_enabled() {
            span.field("op", "cardinality_batch");
            span.field("table", table.to_string());
            span.field("column", column.to_string());
            span.field("probes", predicates.len() as u64);
        }
        let snap = self.lookup(table, column);
        span.field("hit", snap.is_some());
        snap.map(|s| {
            let mut out =
                vec![CardinalityEstimate { rows: 0.0, selectivity: 0.0 }; predicates.len()];
            cardinality_batch_from_stats(&s.stats, predicates, &mut out);
            out
        })
    }

    /// Estimate the output cardinality of the equi-join
    /// `t1.c1 = t2.c2`. `None` while either side lacks statistics (both
    /// sides' refreshes get queued).
    pub fn estimate_equijoin(&self, t1: &str, c1: &str, t2: &str, c2: &str) -> Option<f64> {
        let recorder = samplehist_obs::global();
        let mut span = recorder.span("service.query");
        if span.is_enabled() {
            span.field("op", "equijoin");
            span.field("table", t1.to_string());
            span.field("column", c1.to_string());
        }
        let a = self.lookup(t1, c1);
        let b = self.lookup(t2, c2);
        span.field("hit", a.is_some() && b.is_some());
        Some(equijoin_from_stats(&a?.stats, &b?.stats))
    }

    /// Feed one executed predicate's observed cardinality back into the
    /// serving snapshot's accuracy ledger — the estimation feedback loop.
    ///
    /// Returns the observation's q-error, or `None` when the column has
    /// no snapshot to attribute it to (feedback about statistics that
    /// don't exist is meaningless; the read path already queued a build).
    ///
    /// Once the ledger holds [`AccuracyPolicy::min_observations`] pairs
    /// and the watched q-error quantile breaches
    /// [`AccuracyPolicy::qerror_threshold`], the column is escalated
    /// through the same machinery as mod-counter staleness: a refresh
    /// job that starts with a Theorem-7 probe and re-ANALYZEs only on
    /// probe failure. A passed probe resets the ledger (the statistics
    /// were vindicated — the rot was in the workload, not the
    /// histogram), so breaches re-arm instead of thrashing.
    pub fn record_actual(
        &self,
        table: &str,
        column: &str,
        predicate: &str,
        predicted: f64,
        actual: f64,
    ) -> Option<f64> {
        self.record_actual_inner(table, column, predicate, None, predicted, actual)
    }

    /// [`Self::record_actual`] with a structured [`Predicate`]: the
    /// predicate's inclusive value range rides along into the ledger, so
    /// if this observation becomes the epoch's worst, the patch rung can
    /// fold the error back into exactly the buckets the predicate
    /// crossed (query-feedback tuning). Prefer this entry point whenever
    /// the caller still holds the predicate it executed.
    pub fn record_actual_predicate(
        &self,
        table: &str,
        column: &str,
        predicate: &Predicate,
        predicted: f64,
        actual: f64,
    ) -> Option<f64> {
        self.record_actual_inner(
            table,
            column,
            &predicate.to_string(),
            predicate.as_range(),
            predicted,
            actual,
        )
    }

    fn record_actual_inner(
        &self,
        table: &str,
        column: &str,
        predicate: &str,
        range: Option<(i64, i64)>,
        predicted: f64,
        actual: f64,
    ) -> Option<f64> {
        let snap = self.catalog.get(table, column)?;
        let q = snap.accuracy.record_ranged(predicate, range, predicted, actual);
        let recorder = samplehist_obs::global();
        if recorder.is_enabled() {
            recorder.observe("service.qerror", &format!("{table}.{column}"), q);
        }
        let policy = &self.config.accuracy;
        let observations = snap.accuracy.observations();
        if observations >= policy.min_observations.max(1) {
            let watched = snap.accuracy.sketch().quantile(policy.quantile).unwrap_or(1.0);
            if policy.is_breach(observations, watched) {
                self.accuracy_breaches.fetch_add(1, Ordering::Relaxed);
                recorder.counter("service.accuracy.breach", 1);
                // Priority mirrors the stale-read path: how far past the
                // threshold the column has rotted.
                self.request_refresh(
                    table,
                    column,
                    watched / policy.qerror_threshold,
                    0,
                    self.clock.now(),
                );
            }
        }
        Some(q)
    }

    /// Build statistics for one column synchronously, bypassing the
    /// queue — the warm-up path. Uses the same RNG-stream derivation as
    /// background refreshes, so a deterministic run stays replayable.
    pub fn refresh_now(
        &self,
        table: &str,
        column: &str,
    ) -> Result<Arc<VersionedStats>, AnalyzeError> {
        let unknown =
            || AnalyzeError::UnknownColumn { table: table.to_string(), column: column.to_string() };
        let entry =
            self.tables.read().expect("tables lock").get(table).cloned().ok_or_else(unknown)?;
        if entry.table.column(column).is_none() {
            return Err(unknown());
        }
        let (stats, mods_at_build) = self.reanalyze(&entry, column)?;
        let snap = self.catalog.install(stats, mods_at_build, self.clock.now());
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.full_reanalyzes.fetch_add(1, Ordering::Relaxed);
        Ok(snap)
    }

    /// Process queued refreshes until none remain, on `threads` threads
    /// (deterministic mode only). The virtual clock advances past backoff
    /// deadlines, so retries resolve within the call. Coalescing
    /// guarantees at most one job per column per batch; jobs touch
    /// disjoint columns and derive private RNG streams, so the installed
    /// catalog is bit-identical for any `threads`.
    ///
    /// # Panics
    /// On a concurrent-mode service — its background workers own the
    /// queue.
    pub fn drain(&self, threads: usize) {
        assert!(
            self.config.deterministic,
            "drain() drives deterministic services; concurrent ones refresh in the background"
        );
        loop {
            let now = self.clock.now();
            let batch = self.scheduler.drain_ready(now);
            if batch.is_empty() {
                match self.scheduler.next_eligible_at() {
                    Some(next) => {
                        self.clock.advance(next.saturating_sub(now).max(1));
                        continue;
                    }
                    None => break,
                }
            }
            samplehist_parallel::par_map_threads(threads.max(1), &batch, |job| {
                self.process(job.clone())
            });
        }
    }

    /// Block until the refresh queue is empty and no refresh is running.
    /// In deterministic mode this drains on one thread instead.
    pub fn wait_idle(&self) {
        if self.config.deterministic {
            self.drain(1);
            return;
        }
        self.scheduler.wait_idle();
    }

    /// Reads answered from a snapshot.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Reads that found no statistics (refresh queued, `None` returned).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Reads that found a *suspect* snapshot (served anyway, refresh
    /// queued).
    pub fn stale_hits(&self) -> u64 {
        self.stale.load(Ordering::Relaxed)
    }

    /// Cumulative refresh outcomes.
    pub fn tally(&self) -> RefreshTally {
        RefreshTally {
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            probe_passes: self.probe_passes.load(Ordering::Relaxed),
            full_reanalyzes: self.full_reanalyzes.load(Ordering::Relaxed),
            patches: self.patches.load(Ordering::Relaxed),
            patch_rejects: self.patch_rejects.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// Accuracy-ledger breaches observed (each one queued a refresh;
    /// coalescing may fold several into one job).
    pub fn accuracy_breaches(&self) -> u64 {
        self.accuracy_breaches.load(Ordering::Relaxed)
    }

    /// Pending refresh jobs.
    pub fn queue_depth(&self) -> usize {
        self.scheduler.len()
    }

    /// The underlying catalog (snapshots, epochs).
    pub fn catalog(&self) -> &StatsCatalog {
        &self.catalog
    }

    /// The service clock (virtual in deterministic mode — advance it to
    /// drive backoff schedules).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Canonical text dump of every snapshot (sorted by table, column) —
    /// two runs are equivalent iff their dumps are byte-identical, which
    /// is exactly what the determinism tests compare.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for snap in self.catalog.snapshot() {
            let s = &snap.stats;
            let sketch = snap.accuracy.sketch();
            writeln!(
                out,
                "{}.{} epoch={} built_at={} mods_at_build={} rows={} sample={} method={} \
                 distinct={:?} density={:?} qerr_obs={} qerr_under={} qerr_over={} \
                 qerr_p95={:?} qerr_worst={:?} separators={:?} counts={:?}",
                s.table,
                s.column,
                snap.epoch,
                snap.built_at,
                snap.mods_at_build,
                s.num_rows,
                s.sample_size,
                s.method,
                s.distinct_estimate,
                s.density,
                snap.accuracy.observations(),
                snap.accuracy.underestimates(),
                snap.accuracy.overestimates(),
                sketch.quantile(0.95),
                snap.accuracy.worst().map(|w| (w.predicate, w.predicted, w.actual, w.qerror)),
                s.histogram.separators(),
                s.histogram.counts(),
            )
            .expect("write to String");
        }
        out
    }

    /// The read path shared by both estimators: one catalog read bumps
    /// access and yields the snapshot; queue a refresh on miss or
    /// suspicion.
    fn lookup(&self, table: &str, column: &str) -> Option<Arc<VersionedStats>> {
        let Some(read) = self.catalog.read(table, column) else {
            return self.unknown_name_miss();
        };
        let recorder = samplehist_obs::global();
        match read.snapshot {
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                recorder.counter("service.query.miss", 1);
                // Nothing to serve stale: a miss outranks any staleness.
                self.request_refresh(table, column, f64::INFINITY, 0, self.clock.now());
                None
            }
            Some(snap) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                recorder.counter("service.query.hit", 1);
                let mods_since = read.modifications.saturating_sub(snap.mods_validated());
                if self.config.staleness.is_suspect(read.num_rows, mods_since) {
                    self.stale.fetch_add(1, Ordering::Relaxed);
                    recorder.counter("service.query.stale", 1);
                    let staleness = mods_since as f64 / read.num_rows.max(1) as f64;
                    self.request_refresh(
                        table,
                        column,
                        staleness * (1.0 + read.accesses as f64),
                        0,
                        self.clock.now(),
                    );
                }
                Some(snap)
            }
        }
    }

    /// A read naming an unregistered table or column: a miss, with no
    /// refresh to queue.
    fn unknown_name_miss(&self) -> Option<Arc<VersionedStats>> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        samplehist_obs::global().counter("service.query.miss", 1);
        None
    }

    fn request_refresh(
        &self,
        table: &str,
        column: &str,
        priority: f64,
        attempt: u32,
        not_before: u64,
    ) {
        let outcome = self.scheduler.submit(RefreshJob {
            table: table.to_string(),
            column: column.to_string(),
            priority,
            not_before,
            attempt,
        });
        let recorder = samplehist_obs::global();
        if outcome == SubmitOutcome::Rejected {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            recorder.counter("service.refresh.rejected", 1);
        }
        recorder.gauge("service.queue_depth", self.scheduler.len() as f64);
    }

    /// Has every user dropped the service? True only on a refresh thread
    /// whose own upgraded handle is the last strong reference: nobody can
    /// read what the job would install, so it stops.
    fn abandoned(&self) -> bool {
        !self.config.deterministic && self.this.strong_count() == 1
    }

    /// One refresh, end to end: probe if a snapshot exists, re-ANALYZE on
    /// probe failure or miss, retry with backoff on errors. An abandoned
    /// service skips the remaining rungs and the install.
    fn process(&self, job: RefreshJob) {
        let recorder = samplehist_obs::global();
        let mut span = recorder.span("service.refresh");
        span.field("table", job.table.clone());
        span.field("column", job.column.clone());
        span.field("attempt", job.attempt as u64);
        let abandon = |span: &mut samplehist_obs::Span| {
            span.field("outcome", "abandoned");
            recorder.counter("service.refresh.abandoned", 1);
        };
        if self.abandoned() {
            abandon(&mut span);
            return;
        }
        let entry = self.tables.read().expect("tables lock").get(&job.table).cloned();
        let Some(entry) = entry else {
            span.field("outcome", "table_gone");
            return;
        };
        if entry.table.column(&job.column).is_none() {
            span.field("outcome", "column_gone");
            return;
        }

        if let Some(snap) = self.catalog.get(&job.table, &job.column) {
            let mods_now = entry.table.modifications(&job.column);
            self.probes.fetch_add(1, Ordering::Relaxed);
            recorder.counter("service.refresh.probe", 1);
            let mut rng = rng_stream(
                self.config.seed,
                &job.table,
                &job.column,
                "probe",
                snap.epoch,
                snap.mods_validated(),
            );
            let file = entry.table.column(&job.column).expect("checked above").file();
            let outcome = PROBE_SCRATCH.with(|cell| {
                let scratch = &mut *cell.borrow_mut();
                match &entry.fault {
                    Some(spec) => run_probe_with(
                        scratch,
                        &FaultInjectingStorage::new(file, *spec),
                        &snap.stats.histogram,
                        &self.config.staleness,
                        &mut rng,
                    ),
                    None => run_probe_with(
                        scratch,
                        &Reliable(file),
                        &snap.stats.histogram,
                        &self.config.staleness,
                        &mut rng,
                    ),
                }
            });
            match outcome {
                ProbeOutcome::Passed { observed, .. } => {
                    // Still good: re-arm staleness at today's counter and
                    // keep serving the stored histogram. The accuracy
                    // ledger resets too — the probe vindicated the
                    // statistics, so accumulated q-errors must not keep
                    // the column permanently in breach.
                    snap.record_probe_pass(mods_now);
                    snap.accuracy.reset();
                    self.probe_passes.fetch_add(1, Ordering::Relaxed);
                    self.completed.fetch_add(1, Ordering::Relaxed);
                    recorder.counter("service.refresh.probe.pass", 1);
                    recorder.counter("service.refresh.completed", 1);
                    span.field("outcome", "probe_pass");
                    span.field("probe_error", observed);
                    recorder.gauge("service.queue_depth", self.scheduler.len() as f64);
                    return;
                }
                ProbeOutcome::Failed { observed, threshold, .. } => {
                    recorder.counter("service.refresh.probe.fail", 1);
                    span.field("probe_error", observed);
                    span.field("probe_threshold", threshold);
                    // Rung 2 of the escalation ladder: the probe already
                    // paid for a Corollary-1-sized sample — try to patch
                    // the stored artifacts from it before paying for a
                    // full CVB re-ANALYZE.
                    if let Some(patched) = self.try_patch(&entry, &job, &snap, mods_now) {
                        self.completed.fetch_add(1, Ordering::Relaxed);
                        recorder.counter("service.refresh.completed", 1);
                        span.field("outcome", "patched");
                        span.field("epoch", patched.epoch);
                        recorder.gauge("service.queue_depth", self.scheduler.len() as f64);
                        return;
                    }
                    // Fall through: rung 3 — drifted beyond repair (or the
                    // patch certificate failed), pay for CVB.
                    if self.abandoned() {
                        abandon(&mut span);
                        return;
                    }
                }
                ProbeOutcome::Unreadable { blocks_tried } => {
                    span.field("outcome", "probe_unreadable");
                    span.field("blocks_tried", blocks_tried as u64);
                    self.retry_or_fail(job);
                    return;
                }
            }
        }

        match self.reanalyze(&entry, &job.column) {
            Ok(_) if self.abandoned() => abandon(&mut span),
            Ok((stats, mods_at_build)) => {
                let snap = self.catalog.install(stats, mods_at_build, self.clock.now());
                self.completed.fetch_add(1, Ordering::Relaxed);
                self.full_reanalyzes.fetch_add(1, Ordering::Relaxed);
                recorder.counter("service.refresh.completed", 1);
                span.field("outcome", "reanalyzed");
                span.field("epoch", snap.epoch);
                recorder.gauge("service.queue_depth", self.scheduler.len() as f64);
            }
            Err(err) => {
                span.field("outcome", "error");
                span.field("error", err.to_string());
                self.retry_or_fail(job);
            }
        }
    }

    /// Rung 2 of the escalation ladder: rebuild the stored artifacts from
    /// the failed probe's own sample — zero table reads beyond the probe.
    ///
    /// The probe left its sorted Corollary-1-sized sample in the
    /// thread-local [`ProbeScratch`]; this runs on the same worker thread,
    /// immediately after the probe, so the reuse is thread-count
    /// independent. The sample is split even/odd into a build half (new
    /// separators, recounted masses, refreshed compressed side table, a
    /// feedback nudge from the accuracy ledger's worst predicate) and a
    /// held-out validation half whose Definition-4 max error is the
    /// patch's certificate: only if it stays within the widened Theorem 7
    /// bound is the patched snapshot installed. Returns `None` when the
    /// patch is refused (sample too small) or rejected (certificate
    /// exceeds the bound) — the caller escalates to a full re-ANALYZE.
    fn try_patch(
        &self,
        entry: &TableEntry,
        job: &RefreshJob,
        snap: &VersionedStats,
        mods_now: u64,
    ) -> Option<Arc<VersionedStats>> {
        let recorder = samplehist_obs::global();
        let mut span = recorder.span("service.patch");
        span.field("table", job.table.clone());
        span.field("column", job.column.clone());
        let stats = &snap.stats;
        let k = stats.histogram.num_buckets();
        let n = entry.table.num_rows();
        let (build, validation) = PROBE_SCRATCH.with(|cell| {
            let scratch = cell.borrow();
            PatchableStats::split_sample(scratch.sample())
        });
        if build.is_empty() || validation.is_empty() {
            span.field("outcome", "refused");
            return None;
        }
        let mut rng = rng_stream(
            self.config.seed,
            &job.table,
            &job.column,
            "patch",
            snap.epoch,
            snap.mods_validated(),
        );
        let patchable = PatchableStats::new(&stats.histogram, stats.compressed.as_ref())
            .with_policy(self.config.patch);
        let draft = match patchable.patch_from(&build, n, &mut rng) {
            Ok(draft) => draft,
            Err(refusal) => {
                span.field("outcome", "refused");
                span.field("reason", refusal.to_string());
                recorder.counter("service.refresh.patch.refused", 1);
                return None;
            }
        };
        // Query-feedback tuning: fold the epoch's worst observed
        // estimation error back into the buckets its predicate crossed —
        // *before* validation, so the certificate covers the nudged
        // artifact and feedback can never smuggle it past the bound.
        let mut histogram = draft.histogram;
        let mut nudged = false;
        if let Some(worst) = snap.accuracy.worst() {
            if let Some((lo, hi)) = worst.range {
                histogram = nudge_counts(
                    &histogram,
                    lo,
                    hi,
                    worst.predicted,
                    worst.actual,
                    FEEDBACK_DAMPING,
                );
                nudged = true;
            }
        }
        let error = histogram_fractional_error(&histogram, &validation).max;
        let bound = self.config.staleness.pass_threshold(validation.len() as u64, k, n);
        span.field("patch_error", error);
        span.field("patch_bound", bound);
        span.field("splits", draft.splits as u64);
        span.field("merges", draft.merges as u64);
        span.field("nudged", nudged);
        if recorder.is_enabled() {
            recorder.observe(
                "service.patch_error",
                &format!("{}.{}", job.table, job.column),
                error,
            );
        }
        if error > bound {
            span.field("outcome", "rejected");
            recorder.counter("service.refresh.patch.reject", 1);
            self.patch_rejects.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // Summary statistics re-derived from the build half; I/O records
        // only what the probe actually read — that *is* the O(probe)
        // claim the refresh bench measures.
        let sample_size = (build.len() + validation.len()) as u64;
        let profile = FrequencyProfile::from_sorted_sample(&build);
        let distinct_in_sample = profile.distinct_in_sample();
        let distinct_estimate = Gee.estimate(&profile, n);
        let density = duplication_density_from_profile(&profile);
        let method = format!(
            "patched from probe ({} splits, {} merges{})",
            draft.splits,
            draft.merges,
            if nudged { ", nudged" } else { "" }
        );
        let stats = ColumnStatistics {
            table: job.table.clone(),
            column: job.column.clone(),
            num_rows: n,
            histogram,
            compressed: draft.compressed,
            density,
            distinct_estimate,
            distinct_in_sample,
            sample_size,
            method,
            io: IoStats { pages_read: 0, tuples_read: sample_size },
            index: CachedIndex::default(),
        };
        if self.abandoned() {
            span.field("outcome", "abandoned");
            return None;
        }
        span.field("outcome", "patched");
        self.patches.fetch_add(1, Ordering::Relaxed);
        recorder.counter("service.refresh.patch", 1);
        // `install` bumps the epoch, prebuilds the cached index, and
        // swaps in a fresh accuracy ledger — the re-arm comes for free.
        Some(self.catalog.install(stats, mods_now, self.clock.now()))
    }

    /// Full ANALYZE outside any catalog lock. Returns the statistics and
    /// the modification watermark taken before the scan, for the caller's
    /// `Arc`-swap install.
    fn reanalyze(
        &self,
        entry: &TableEntry,
        column: &str,
    ) -> Result<(ColumnStatistics, u64), AnalyzeError> {
        let table_name = entry.table.name();
        // Watermark *before* the scan: churn arriving mid-ANALYZE counts
        // as staleness against the new snapshot.
        let mods_at_build = entry.table.modifications(column);
        let next_epoch = self.catalog.get(table_name, column).map_or(0, |s| s.epoch) + 1;
        let mut rng = rng_stream(self.config.seed, table_name, column, "refresh", next_epoch, 0);
        let file = entry.table.column(column).expect("caller checked").file();
        // A target-q-error budget overrides the configured sampling mode:
        // the adaptive CVB loop is pointed at the fraction that Theorem 7
        // certifies for the requested q-error at the ledger's quantile.
        let mut options = self.config.analyze;
        if let Some(budget) = self.config.qerror_budget {
            options.mode = AnalyzeMode::Adaptive {
                target_f: target_f_for_qerror(budget),
                gamma: (1.0 - self.config.accuracy.quantile).clamp(1e-6, 0.5),
            };
        }
        let result = match &entry.fault {
            Some(spec) => analyze_resilient(
                table_name,
                column,
                &FaultInjectingStorage::new(file, *spec),
                &options,
                &DegradationPolicy::default(),
                &mut rng,
            )?,
            None => analyze_resilient(
                table_name,
                column,
                &Reliable(file),
                &options,
                &DegradationPolicy::default(),
                &mut rng,
            )?,
        };
        Ok((result.stats, mods_at_build))
    }

    fn retry_or_fail(&self, mut job: RefreshJob) {
        job.attempt += 1;
        if job.attempt >= MAX_ATTEMPTS {
            self.failed.fetch_add(1, Ordering::Relaxed);
            samplehist_obs::global().counter("service.refresh.failed", 1);
            return;
        }
        let backoff = self.config.backoff_base_ticks << (job.attempt - 1).min(16);
        let not_before = self.clock.now() + backoff;
        self.request_refresh(&job.table, &job.column, job.priority, job.attempt, not_before);
    }
}

impl Drop for StatsService {
    /// Wake the refresh threads with `None` and join them. When the last
    /// `Arc` goes at the end of a refresh, this runs on that refresh's
    /// thread, which is skipped: it exits on its next pop.
    fn drop(&mut self) {
        self.scheduler.shutdown();
        let me = std::thread::current().id();
        for worker in self.workers.drain(..) {
            if worker.thread().id() != me {
                // A worker that panicked has already been reported by the
                // panic hook; dropping must not panic a second time.
                let _ = worker.join();
            }
        }
    }
}
