//! The `churn` workload: reads beside writes on a concurrent
//! `StatsService` with one refresh worker.
//!
//! One generator thread runs a seeded script of read batches (90%
//! `estimate_cardinality`, 10% `estimate_equijoin`), feedback and
//! modification reports. Every round it reloads the `drifty` table with
//! a drifted population (alternating disjoint quarter windows of the
//! key range) and waits — still reading the other tables — until the
//! refresh ladder (probe → patch → re-ANALYZE → install) has made the
//! drifted column's next epoch visible. The `clean` control table's
//! data never changes; it is churned once per round after the refresh.
//!
//! The drifted column is not read while its refresh is in flight, and
//! it receives feedback only at a fixed point of each round, so no
//! second refresh job can queue behind the first and every install is a
//! function of the seed: `served_qerror_p95` repeats exactly.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use samplehist_core::histogram::PatchableStats;
use samplehist_core::sampling::Reliable;
use samplehist_engine::{
    analyze, estimate_cardinality, qerror, target_f_for_qerror, AnalyzeMode, AnalyzeOptions,
    Predicate, StatsCatalog, Table, VersionedStats, DEFAULT_STRIPES,
};
use samplehist_service::{
    rng_stream, run_probe_with, ProbeOutcome, ProbeScratch, ServiceConfig, StalenessPolicy,
    StatsService,
};
use samplehist_storage::Layout;

use crate::calib::Speed;
use crate::util::{median, put, quantile, stream, timed, Deadline, Ledger, Metrics, Times};

/// Histogram buckets of every churned column.
pub const CHURN_BUCKETS: usize = 20;
/// The service's q-error budget (sizes probes and re-ANALYZEs).
pub const QERROR_BUDGET: f64 = 1.05;
/// Refresh workers.
pub const REFRESH_THREADS: usize = 1;
/// Reads per timed batch.
pub const READ_BATCH: usize = 64;
/// Grid points of the fixed predicate set; four predicates each.
const GRID: u64 = 64;
/// Every this-many-th fixed predicate is reported back as feedback —
/// 32 observations per epoch, below the 64 an accuracy breach needs, so
/// feedback never queues a refresh of its own.
const FEEDBACK_EVERY: usize = 8;
/// Read batches after each refresh, before the round ends.
const TAIL_BATCHES: usize = 48;
/// Longest a refresh may take before the round counts as failed.
const REFRESH_TIMEOUT: Duration = Duration::from_secs(30);
/// Time a full re-ANALYZE in the traced half every this many rounds.
const FULL_EVERY: u64 = 8;

const DRIFT: &str = "drifty";
const CLEAN: &str = "clean";
const DIM: &str = "dim";
const COLUMN: &str = "amount";

/// How many `i in 0..rows` have `offset + i % width` in `[lo, hi]`: the
/// exact cardinality of a range on every table this workload builds.
fn cyclic_count(rows: u64, width: u64, offset: i64, lo: i64, hi: i64) -> u64 {
    let a = lo.max(offset) - offset;
    let b = hi.min(offset + width as i64 - 1) - offset;
    if a > b {
        return 0;
    }
    let (a, b) = (a as u64, b as u64);
    let full = rows / width;
    let extra = rows % width;
    let with_extra = if a < extra { b.min(extra - 1) - a + 1 } else { 0 };
    (b - a + 1) * full + with_extra
}

/// The exact-answer model of one table.
#[derive(Debug, Clone, Copy)]
struct Shape {
    rows: u64,
    width: u64,
    offset: i64,
}

impl Shape {
    fn count(&self, p: &Predicate) -> u64 {
        p.as_range().map_or(0, |(lo, hi)| cyclic_count(self.rows, self.width, self.offset, lo, hi))
    }

    fn values(&self) -> Vec<i64> {
        (0..self.rows).map(|i| self.offset + (i % self.width) as i64).collect()
    }
}

/// Round `round`'s drifted population: a quarter of the key range,
/// alternating between the first and the third quarter.
fn drift_shape(rows: u64, round: u64) -> Shape {
    Shape {
        rows,
        width: rows / 4,
        offset: if round.is_multiple_of(2) { 0 } else { (rows / 2) as i64 },
    }
}

fn build_table(name: &str, shape: Shape, rng: &mut StdRng) -> Table {
    Table::builder(name)
        .column_with_blocking(COLUMN, shape.values(), 50, Layout::Random, rng)
        .build()
}

/// The churn workload's service and script state.
pub struct ChurnWorld {
    svc: Arc<StatsService>,
    seed: u64,
    rows: u64,
    clean: Shape,
    dim: Shape,
    drift: Shape,
    round: u64,
    fixed: Vec<Predicate>,
    script: StdRng,
    reads: u64,
}

fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        seed,
        refresh_threads: REFRESH_THREADS,
        deterministic: false,
        analyze: AnalyzeOptions::adaptive(CHURN_BUCKETS),
        qerror_budget: Some(QERROR_BUDGET),
        staleness: StalenessPolicy {
            mod_fraction: 0.05,
            min_mods: 256,
            ..StalenessPolicy::default()
        },
        ..ServiceConfig::default()
    }
}

/// Register the three tables and ANALYZE them.
pub fn setup(seed: u64, rows: u64) -> ChurnWorld {
    let svc = StatsService::new(service_config(seed));
    let clean = Shape { rows, width: rows, offset: 0 };
    let dim = Shape { rows: rows / 5, width: 1000, offset: 0 };
    let drift = drift_shape(rows, 0);
    svc.register_table(build_table(DRIFT, drift, &mut stream(seed, "churn.drift", 0, 0)), None);
    svc.register_table(build_table(CLEAN, clean, &mut stream(seed, "churn.clean", 0, 0)), None);
    svc.register_table(build_table(DIM, dim, &mut stream(seed, "churn.dim", 0, 0)), None);
    for table in [DRIFT, CLEAN, DIM] {
        svc.refresh_now(table, COLUMN).expect("warm ANALYZE");
    }
    svc.wait_idle();
    let fixed = fixed_predicates(rows);
    ChurnWorld {
        svc,
        seed,
        rows,
        clean,
        dim,
        drift,
        round: 0,
        fixed,
        script: stream(seed, "churn.script", 0, 0),
        reads: 0,
    }
}

/// The predicate set `served_qerror_p95` is measured on: `<=`, `>=`, a
/// range of width `rows / 32` and `=` at each of `GRID` evenly spaced
/// points over the whole key range — the vacated windows included. It
/// is the same for every seed.
fn fixed_predicates(rows: u64) -> Vec<Predicate> {
    let step = rows / GRID;
    let half = (rows / 64) as i64;
    (0..GRID)
        .flat_map(|j| {
            let x = (j * step + step / 2) as i64;
            [
                Predicate::Le(x),
                Predicate::Ge(x),
                Predicate::Between { low: x - half, high: x + half },
                Predicate::Eq(x),
            ]
        })
        .collect()
}

fn predicate(rng: &mut StdRng, domain: i64) -> Predicate {
    let x = rng.gen_range(0..domain);
    match rng.gen_range(0..4) {
        0 => Predicate::Eq(x),
        1 => Predicate::Le(x),
        2 => Predicate::Ge(x),
        _ => Predicate::Between { low: x, high: x + rng.gen_range(domain / 200..domain / 8 + 1) },
    }
}

enum Read {
    Estimate(&'static str, Predicate),
    Join(&'static str, &'static str),
}

/// The measurements of one kind of slice (traced or untraced), summed
/// over every slice of the run.
#[derive(Debug, Default)]
pub struct ChurnRun {
    traced: bool,
    /// Per-read nanoseconds, one value per timed batch.
    read_ns: Times,
    /// Refresh wall times, ms.
    refresh_ms: Times,
    /// Served q-errors of the deterministic rounds.
    qerrors: Vec<f64>,
    stages: Stages,
}

#[derive(Debug, Default)]
struct Stages {
    service_ns: Vec<f64>,
    catalog_ns: Vec<f64>,
    selectivity_ns: Vec<f64>,
    probe_ms: Vec<f64>,
    probe_tuples: Vec<f64>,
    patch_ms: Vec<f64>,
    full_ms: Vec<f64>,
    install_us: Vec<f64>,
    wait_ms: Vec<f64>,
    replay_mismatches: u64,
}

impl ChurnRun {
    /// An empty accumulator for traced or untraced slices.
    pub fn new(traced: bool) -> Self {
        Self { traced, ..Self::default() }
    }

    /// Median per-read time over batches, ns, at reference speed or as
    /// measured.
    pub fn read_p50_ns(&self, scaled: bool) -> f64 {
        quantile(self.read_ns.get(scaled), 0.5)
    }

    /// 90th-percentile per-read time over batches, ns.
    pub fn read_p90_ns(&self, scaled: bool) -> f64 {
        quantile(self.read_ns.get(scaled), 0.9)
    }

    /// 99th-percentile per-read time over batches, ns.
    pub fn read_p99_ns(&self, scaled: bool) -> f64 {
        quantile(self.read_ns.get(scaled), 0.99)
    }

    /// Median refresh time, ms.
    pub fn refresh_ms_p50(&self, scaled: bool) -> f64 {
        median(self.refresh_ms.get(scaled))
    }

    /// 95th-percentile served q-error over the deterministic rounds.
    pub fn served_qerror_p95(&self) -> f64 {
        quantile(&self.qerrors, 0.95)
    }

    /// Deterministic rounds whose q-errors these slices collected.
    pub fn qerror_rounds(&self) -> usize {
        self.qerrors.len() / (GRID * 4) as usize
    }
}

/// Refresh-ladder counters at one point in time.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    tally: samplehist_service::RefreshTally,
    hits: u64,
    stale: u64,
    breaches: u64,
}

impl ChurnWorld {
    /// The service's counters now.
    pub fn counters(&self) -> Counters {
        Counters {
            tally: self.svc.tally(),
            hits: self.svc.hits(),
            stale: self.svc.stale_hits(),
            breaches: self.svc.accuracy_breaches(),
        }
    }

    fn shape(&self, table: &str) -> Shape {
        match table {
            DRIFT => self.drift,
            CLEAN => self.clean,
            _ => self.dim,
        }
    }

    /// The next scripted read batch; `drift_readable` says whether the
    /// drifted table may be read.
    fn next_batch(&mut self, drift_readable: bool) -> Vec<Read> {
        let tables: &[&'static str] =
            if drift_readable { &[DRIFT, CLEAN, DIM] } else { &[CLEAN, DIM] };
        (0..READ_BATCH)
            .map(|_| {
                self.reads += 1;
                let a = tables[self.script.gen_range(0..tables.len())];
                if self.reads.is_multiple_of(10) {
                    let b = if a == DIM { CLEAN } else { DIM };
                    Read::Join(a, b)
                } else {
                    let domain = if a == DIM { self.dim.width as i64 } else { self.rows as i64 };
                    Read::Estimate(a, predicate(&mut self.script, domain))
                }
            })
            .collect()
    }

    /// One timed batch of reads plus its scripted feedback report. The
    /// batch is scaled to reference speed by a measurement on this
    /// thread right before it.
    fn read_batch(
        &mut self,
        drift_readable: bool,
        speed: &mut Speed,
        out: &mut ChurnRun,
        ledger: &mut Ledger,
    ) {
        let batch = self.next_batch(drift_readable);
        let mut results: Vec<Option<f64>> = vec![None; batch.len()];
        let svc = &self.svc;
        let scale = speed.local();
        let (_, ns) = timed(|| {
            for (slot, read) in results.iter_mut().zip(&batch) {
                *slot = match read {
                    Read::Estimate(t, p) => svc.estimate_cardinality(t, COLUMN, p).map(|e| e.rows),
                    Read::Join(a, b) => svc.estimate_equijoin(a, COLUMN, b, COLUMN),
                };
            }
        });
        out.read_ns.push(ns / batch.len() as f64, scale);
        let missing = results.iter().filter(|r| r.is_none()).count() as u64;
        ledger.ops(batch.len() as u64, missing);
        for rows in results.iter().flatten() {
            ledger.check_estimate(*rows);
        }
        // Feedback: the first estimate of the batch on a table whose
        // data never drifts reports its exact cardinality.
        if let Some((Read::Estimate(t, p), Some(est))) = batch
            .iter()
            .zip(&results)
            .find(|(r, _)| matches!(r, Read::Estimate(t, _) if *t != DRIFT))
        {
            let actual = self.shape(t).count(p) as f64;
            let known = self.svc.record_actual_predicate(t, COLUMN, p, *est, actual).is_some();
            ledger.ops(1, !known as u64);
        }
        if out.traced {
            self.replay_reads(&batch, &mut out.stages);
        }
    }

    /// Time the read path's layers on the batch's estimates: the whole
    /// service call, the catalog lookup, and the selectivity estimate.
    fn replay_reads(&self, batch: &[Read], st: &mut Stages) {
        let reads: Vec<(&str, &Predicate)> = batch
            .iter()
            .filter_map(|r| match r {
                Read::Estimate(t, p) => Some((*t, p)),
                Read::Join(..) => None,
            })
            .collect();
        if reads.is_empty() {
            return;
        }
        let per = |ns: f64| ns / reads.len() as f64;
        let svc = &self.svc;
        st.service_ns.push(per(timed(|| {
            for (t, p) in &reads {
                std::hint::black_box(svc.estimate_cardinality(t, COLUMN, p));
            }
        })
        .1));
        let catalog = svc.catalog();
        let (snaps, get_ns) =
            timed(|| reads.iter().map(|(t, _)| catalog.get(t, COLUMN)).collect::<Vec<_>>());
        st.catalog_ns.push(per(get_ns));
        st.selectivity_ns.push(per(timed(|| {
            for (snap, (_, p)) in snaps.iter().zip(&reads) {
                if let Some(s) = snap {
                    std::hint::black_box(estimate_cardinality(&s.stats, p));
                }
            }
        })
        .1));
    }

    /// One drift round; see the module documentation. The refresh time
    /// is scaled to reference speed by a hand-off of the same shape made
    /// right before the stale read, while the service is idle.
    fn round(
        &mut self,
        qerror_rounds: u64,
        speed: &mut Speed,
        out: &mut ChurnRun,
        ledger: &mut Ledger,
    ) {
        let traced = out.traced;
        self.round += 1;
        let r = self.round;
        let shape = drift_shape(self.rows, r);
        let table = build_table(DRIFT, shape, &mut stream(self.seed, "churn.drift", r, 0));
        let replay_table = traced.then(|| table.clone());
        let old = self.svc.catalog().get(DRIFT, COLUMN).expect("drifted column has statistics");
        self.svc.register_table(table, None);
        self.drift = shape;
        let chunk = self.rows / 4;
        let known = self.svc.record_modifications(DRIFT, COLUMN, chunk * r);
        ledger.ops(1, !known as u64);

        // The first stale read queues the refresh; the clock starts here.
        let scale = speed.handoff();
        let stale_before = self.svc.stale_hits();
        let started = Instant::now();
        let first = self.svc.estimate_cardinality(DRIFT, COLUMN, &Predicate::Le(0));
        ledger.ops(1, first.is_none() as u64);
        ledger.check("drift_read_is_stale", self.svc.stale_hits() > stale_before, || {
            format!("round {r}: the read after the drift was not stale")
        });
        let refreshed = loop {
            if let Some(snap) =
                self.svc.catalog().get(DRIFT, COLUMN).filter(|s| s.epoch > old.epoch)
            {
                break Some(snap);
            }
            if started.elapsed() > REFRESH_TIMEOUT {
                break None;
            }
            self.read_batch(false, speed, out, ledger);
        };
        let refresh_ms = started.elapsed().as_secs_f64() * 1e3;
        let Some(new) = refreshed else {
            ledger.check("refresh_completes", false, || format!("round {r}: no new epoch"));
            return;
        };
        out.refresh_ms.push(refresh_ms, scale);
        ledger.check("refresh_single_install", new.epoch == old.epoch + 1, || {
            format!("round {r}: epoch {} -> {}", old.epoch, new.epoch)
        });
        ledger.check(
            "histogram_total_equals_rows",
            new.stats.histogram.total() == self.rows,
            || {
                format!(
                    "round {r}: histogram total {} != {}",
                    new.stats.histogram.total(),
                    self.rows
                )
            },
        );

        // The fixed predicate set on the new snapshot, and feedback.
        for (i, p) in self.fixed.iter().enumerate() {
            let est = estimate_cardinality(&new.stats, p).rows;
            let actual = shape.count(p) as f64;
            ledger.check_estimate(est);
            if r <= qerror_rounds {
                out.qerrors.push(qerror(est, actual));
            }
            if i % FEEDBACK_EVERY == 0 {
                let known = self.svc.record_actual_predicate(DRIFT, COLUMN, p, est, actual);
                ledger.ops(1, known.is_none() as u64);
            }
        }

        // The control table's churn, then reads on every table.
        let known = self.svc.record_modifications(CLEAN, COLUMN, chunk);
        ledger.ops(1, !known as u64);
        for _ in 0..TAIL_BATCHES {
            self.read_batch(true, speed, out, ledger);
        }
        self.svc.wait_idle();
        if let Some(table) = replay_table {
            self.replay_refresh(&table, &old, &new, refresh_ms, &mut out.stages);
        }
    }

    /// Time the ladder's rungs on the round's inputs and streams: the
    /// probe, the patch, a full re-ANALYZE (every `FULL_EVERY` rounds)
    /// and the install with its index build. What the refresh spent
    /// beyond them is queueing and wake-up.
    fn replay_refresh(
        &self,
        table: &Table,
        old: &VersionedStats,
        new: &VersionedStats,
        refresh_ms: f64,
        st: &mut Stages,
    ) {
        let config = self.svc.config();
        let file = table.column(COLUMN).expect("drifted column").file();
        let n = file.num_tuples();
        let watermark = old.mods_validated();
        let mut rng = rng_stream(config.seed, DRIFT, COLUMN, "probe", old.epoch, watermark);
        let mut buffers = ProbeScratch::default();
        let source = Reliable(file);
        let (outcome, probe_ns) = timed(|| {
            run_probe_with(&mut buffers, &source, &old.stats.histogram, &config.staleness, &mut rng)
        });
        let tuples = match outcome {
            ProbeOutcome::Passed { tuples, .. } | ProbeOutcome::Failed { tuples, .. } => tuples,
            ProbeOutcome::Unreadable { .. } => 0,
        };
        let mut rng = rng_stream(config.seed, DRIFT, COLUMN, "patch", old.epoch, watermark);
        let patchable = PatchableStats::new(&old.stats.histogram, old.stats.compressed.as_ref())
            .with_policy(config.patch);
        let (patch, patch_ns) = timed(|| patchable.patch(buffers.sample(), n, &mut rng));
        let patched = new.stats.method.starts_with("patched");
        if patched && patch.is_err() {
            st.replay_mismatches += 1;
        }
        let mut rung_ms = patch_ns * 1e-6;
        if !patched || st.full_ms.is_empty() || self.round.is_multiple_of(FULL_EVERY) {
            let mut options = config.analyze;
            options.mode = AnalyzeMode::Adaptive {
                target_f: target_f_for_qerror(QERROR_BUDGET),
                gamma: (1.0 - config.accuracy.quantile).clamp(1e-6, 0.5),
            };
            let mut rng = rng_stream(config.seed, DRIFT, COLUMN, "refresh", old.epoch + 1, 0);
            let (stats, full_ns) = timed(|| analyze(table, COLUMN, &options, &mut rng));
            if stats.is_err() {
                st.replay_mismatches += 1;
            }
            st.full_ms.push(full_ns * 1e-6);
            if !patched {
                rung_ms = full_ns * 1e-6;
            }
        }
        let catalog = StatsCatalog::new(DEFAULT_STRIPES);
        let stats = new.stats.clone();
        let (_, install_ns) = timed(|| catalog.install(stats, 0, 0));
        st.probe_ms.push(probe_ns * 1e-6);
        st.probe_tuples.push(tuples as f64);
        st.patch_ms.push(patch_ns * 1e-6);
        st.install_us.push(install_ns * 1e-3);
        st.wait_ms.push(refresh_ms - probe_ns * 1e-6 - rung_ms - install_ns * 1e-6);
    }
}

/// Run drift rounds until `deadline` (at least one), appending to `out`
/// the read and refresh times at reference speed. The q-errors of rounds
/// `1..=qerror_rounds` are collected whichever slice runs them.
pub fn run(
    world: &mut ChurnWorld,
    deadline: Deadline,
    qerror_rounds: u64,
    speed: &mut Speed,
    ledger: &mut Ledger,
    out: &mut ChurnRun,
) {
    loop {
        world.round(qerror_rounds, speed, out, ledger);
        if deadline.passed() {
            break;
        }
    }
}

/// Refresh outcomes between two counter readings count as operations:
/// failed and rejected refreshes are failures.
pub fn count_refreshes(before: Counters, after: Counters, ledger: &mut Ledger) {
    let (a, b) = (after.tally, before.tally);
    let failed = (a.failed - b.failed) + (a.rejected - b.rejected);
    ledger.ops((a.completed - b.completed) + failed, failed);
}

/// The per-layer metrics of the traced half and the phase's counters.
pub fn per_layer(
    traced: &ChurnRun,
    before: Counters,
    after: Counters,
    metrics: &mut Metrics,
) -> Vec<String> {
    let st = &traced.stages;
    let m = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let (service, get, sel) = (m(&st.service_ns), m(&st.catalog_ns), m(&st.selectivity_ns));
    put(metrics, "service.estimate_ns", service, "ns");
    put(metrics, "catalog.get_ns", get, "ns");
    put(metrics, "selectivity.ns", sel, "ns");
    put(metrics, "read.residual_ns", service - get - sel, "ns");
    put(metrics, "refresh.probe_ms", m(&st.probe_ms), "ms");
    put(metrics, "refresh.probe_tuples", m(&st.probe_tuples), "count");
    put(metrics, "refresh.patch_ms", m(&st.patch_ms), "ms");
    put(metrics, "refresh.full_ms", m(&st.full_ms), "ms");
    put(metrics, "catalog.install_us", m(&st.install_us), "us");
    put(metrics, "refresh.wait_ms", m(&st.wait_ms), "ms");
    let (a, b) = (after.tally, before.tally);
    let probes = a.probes - b.probes;
    let passes = a.probe_passes - b.probe_passes;
    let patches = a.patches - b.patches;
    put(metrics, "refresh.probes", probes as f64, "count");
    put(metrics, "refresh.probe_passes", passes as f64, "count");
    put(metrics, "refresh.patches", patches as f64, "count");
    put(metrics, "refresh.patch_rejects", (a.patch_rejects - b.patch_rejects) as f64, "count");
    put(
        metrics,
        "refresh.full_reanalyzes",
        (a.full_reanalyzes - b.full_reanalyzes) as f64,
        "count",
    );
    put(metrics, "refresh.failed", (a.failed - b.failed) as f64, "count");
    put(metrics, "refresh.rejected", (a.rejected - b.rejected) as f64, "count");
    put(metrics, "refresh.patch_rate", patches as f64 / (probes - passes).max(1) as f64, "ratio");
    let hits = (after.hits - before.hits).max(1);
    put(
        metrics,
        "service.stale_hit_rate",
        (after.stale - before.stale) as f64 / hits as f64,
        "ratio",
    );
    put(metrics, "accuracy.breaches", (after.breaches - before.breaches) as f64, "count");
    let rung = if st.patch_ms.is_empty() { 0.0 } else { m(&st.patch_ms) };
    vec![
        format!(
            "churn        read p50 {:.0} ns; service read {:.0} ns = catalog.get {:.0} + selectivity \
             {:.0} + residual {:.0} ns",
            traced.read_p50_ns(true),
            service,
            get,
            sel,
            service - get - sel
        ),
        format!(
            "churn        refresh p50 {:.3} ms = probe {:.3} + patch {:.3} + install {:.3} ms \
             + wait (residual) {:.3} ms [{} rounds; full re-ANALYZE {:.3} ms]",
            traced.refresh_ms_p50(true),
            m(&st.probe_ms),
            rung,
            m(&st.install_us) / 1e3,
            m(&st.wait_ms),
            st.probe_ms.len(),
            m(&st.full_ms)
        ),
        format!(
            "churn        ladder replays that diverged from the service: {}",
            st.replay_mismatches
        ),
    ]
}
