//! Open-loop workload against the concurrent statistics service, written
//! to `BENCH_service.json` at the repo root.
//!
//! ```text
//! cargo run --release -p samplehist-bench --bin statserve
//! SAMPLEHIST_N=1000000 cargo run --release -p samplehist-bench --bin statserve
//! SAMPLEHIST_SERVICE_MILLIS=5000 cargo run --release -p samplehist-bench --bin statserve
//! cargo run --release -p samplehist-bench --bin statserve -- --replay
//! cargo run --release -p samplehist-bench --bin statserve -- --check BENCH_service.json
//! cargo run --release -p samplehist-bench --bin statserve -- --check --require-replay
//! cargo run --release -p samplehist-bench --bin statserve -- --check-accuracy BENCH_accuracy.json
//! cargo run --release -p samplehist-bench --bin statserve -- --drift-replay
//! cargo run --release -p samplehist-bench --bin statserve -- --check-net BENCH_net.json
//! SAMPLEHIST_SIM_TENANTS=1000 cargo run --release -p samplehist-bench --bin statserve
//! ```
//!
//! Reader threads fire cardinality and equi-join estimates while mutator
//! threads churn modification counters, which drives the full staleness
//! pipeline in the background: suspicion → cross-validation probe →
//! (only on probe failure) full CVB re-ANALYZE. One table sits on
//! fault-injecting storage so the resilient path is load-bearing, not
//! decorative. Every reader asserts its answers come from internally
//! consistent snapshots — the "no partially-written entries" criterion
//! runs inside the benchmark itself.
//!
//! An **accuracy phase** then closes the feedback loop: analytic truths
//! for both column shapes are fed back through
//! [`StatsService::record_actual`], the telemetry HTTP responder is
//! started on an ephemeral port, `/metrics` is fetched and validated as
//! Prometheus text, and the `/accuracy` JSON body is archived to
//! `BENCH_accuracy.json` (schema-checked by `--check-accuracy`).
//!
//! A **write-heavy refresh phase** measures the escalation ladder: a
//! deterministic service rides repeated bulk drifts of a hot column
//! (probe fail → patch from the probe's own sample) while a clean
//! control table sees the same counter churn (probe pass), and the
//! `refresh` section of `BENCH_service.json` reports tuples touched and
//! wall-ns per refresh, patched vs the full CVB re-ANALYZE on the same
//! column. The phase asserts in-process that every drift is absorbed at
//! rung 2, that the clean table is never rebuilt, and that a patched
//! refresh touches >= 10x fewer tuples than a full rebuild.
//!
//! A **netbench phase** then exercises the network plane end to end:
//! client threads pipeline variable-width `EstimateBatch` calls over
//! real loopback sockets against a multi-tenant [`WireServer`], with
//! every 16th answer cross-checked bit-for-bit against the in-process
//! API; an admission sub-phase storms a capacity-1 server and requires
//! typed `Shed` responses. A socket-free **simulation phase** drives
//! `SAMPLEHIST_SIM_TENANTS` tenants (default 64; nightly CI uses 1000)
//! through the scenario packs on a virtual clock at 1 and 4 worker
//! threads and requires bit-identical reports — response digest and
//! end-state dump digest alike. Results land in `BENCH_net.json`
//! (schema-checked by `--check-net`).
//!
//! With `--drift-replay`, a **drift-replay phase** (nightly) feeds
//! [`ScenarioSpec::Drifting`] rounds through the refresh ladder and
//! archives per-round pre/post-refresh q-error plus the ladder work
//! (probes, patches, re-ANALYZEs) that absorbed each round; `--check-net
//! --require-drift` validates the archive.
//!
//! With `--replay`, a **replay phase** closes the stats-to-traffic loop:
//! a skewed column is ANALYZEd, a `HistogramSampler` is fitted to the
//! *stored* statistics (compressed side table when present, equi-height
//! otherwise), and the service's query mix is driven by constants drawn
//! from that sampler — the histogram's own model of the data — instead
//! of a synthetic uniform stream. q-error percentiles under replayed vs
//! synthetic constants land in the `replay` section of
//! `BENCH_service.json`, which `--check --require-replay` validates.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use samplehist_data::scenario::{PredicateSpec, ScenarioSpec};
use samplehist_data::{HistogramSampler, Zipf};
use samplehist_engine::{
    analyze, estimate_cardinality, estimate_cardinality_scan, AnalyzeOptions, CardinalityEstimate,
    Predicate, Table,
};
use samplehist_obs::json::{self, Json};
use samplehist_obs::prom::validate_exposition;
use samplehist_service::{
    run_simulation, MetricsServer, Request, Response, ServerOptions, ServiceConfig, SimConfig,
    StalenessPolicy, StatsService, TenantId, TenantRegistry, WireClient, WireError, WireServer,
};
use samplehist_storage::{FaultSpec, Layout};

/// Rows per table (service benches default smaller than the pipeline
/// bench — refreshes scan repeatedly). `SAMPLEHIST_N` overrides.
const DEFAULT_N: usize = 200_000;
/// Workload duration; `SAMPLEHIST_SERVICE_MILLIS` overrides.
const DEFAULT_MILLIS: u64 = 2_000;
/// Query threads.
const READERS: usize = 4;
/// Churn threads.
const MUTATORS: usize = 2;
/// Output / `--check` default path.
const OUT_PATH: &str = "BENCH_service.json";
/// Accuracy-ledger archive / `--check-accuracy` default path.
const ACCURACY_PATH: &str = "BENCH_accuracy.json";

fn build_table(name: &str, rows: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let uniform: Vec<i64> = (0..rows as i64).collect();
    let zipfish: Vec<i64> = (0..rows).map(|i| (i as i64) % 1009).collect();
    Table::builder(name)
        .column_with_blocking("uniform", uniform, 50, Layout::Random, &mut rng)
        .column_with_blocking("zipfish", zipfish, 50, Layout::Random, &mut rng)
        .build()
}

/// Merge-free percentile over an owned sorted sample, in microseconds.
fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Reader calls by kind. A scalar estimate and a batch call each look
/// up one column; an equijoin looks up two.
#[derive(Debug, Default, Clone, Copy)]
struct QueryCounts {
    estimates: u64,
    batches: u64,
    joins: u64,
}

impl QueryCounts {
    fn total(&self) -> u64 {
        self.estimates + self.batches + self.joins
    }

    fn add(&mut self, other: QueryCounts) {
        self.estimates += other.estimates;
        self.batches += other.batches;
        self.joins += other.joins;
    }
}

struct WorkloadResult {
    queries: QueryCounts,
    /// The service's hit, miss and stale-hit counters when the readers
    /// stopped: only the readers look columns up during the workload.
    hits: u64,
    misses: u64,
    stale: u64,
    latencies_us: Vec<u64>,
    mutations: u64,
}

fn run_workload(
    n: usize,
    millis: u64,
    refresh_threads: usize,
) -> (Arc<StatsService>, WorkloadResult, f64) {
    let svc = StatsService::new(ServiceConfig {
        refresh_threads,
        // Eager staleness so a short run still exercises probes and
        // re-ANALYZE; adaptive CVB is the refresh acquisition mode.
        staleness: StalenessPolicy {
            mod_fraction: 0.05,
            min_mods: 256,
            ..StalenessPolicy::default()
        },
        analyze: AnalyzeOptions::adaptive(100),
        backoff_base_ticks: 5,
        ..ServiceConfig::default()
    });
    svc.register_table(build_table("orders", n, 0xBEEF), None);
    svc.register_table(
        build_table("lineitem", n, 0xFEED),
        Some(FaultSpec::healthy(0xD1CE).with_transient(0.03, 2).with_unreadable(0.01)),
    );
    // Warm three of four columns so the run starts mid-life: hits, stale
    // hits and at least one cold miss all occur.
    for (t, c) in [("orders", "uniform"), ("orders", "zipfish"), ("lineitem", "uniform")] {
        svc.refresh_now(t, c).expect("warm-up ANALYZE");
    }

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let (queries, latencies_us, mutations) = std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for r in 0..READERS as u64 {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            readers.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xAB + r);
                let mut counts = QueryCounts::default();
                let mut lat = Vec::new();
                let sane = |est: &CardinalityEstimate| {
                    assert!(
                        est.rows.is_finite() && est.rows >= 0.0,
                        "torn snapshot produced {est:?}"
                    )
                };
                while !stop.load(Ordering::Relaxed) {
                    let table = if rng.gen_bool(0.5) { "orders" } else { "lineitem" };
                    let column = if rng.gen_bool(0.5) { "uniform" } else { "zipfish" };
                    let t = Instant::now();
                    // 80% scalar estimates, 10% four-predicate batches,
                    // 10% equijoins.
                    match rng.gen_range(0..10) {
                        0 => {
                            let _ = svc.estimate_equijoin("orders", column, "lineitem", column);
                            counts.joins += 1;
                        }
                        1 => {
                            let preds: [Predicate; 4] =
                                std::array::from_fn(|_| Predicate::Le(rng.gen_range(0..1009)));
                            if let Some(out) = svc.estimate_cardinality_batch(table, column, &preds)
                            {
                                out.iter().for_each(sane);
                            }
                            counts.batches += 1;
                        }
                        _ => {
                            let pred = Predicate::Le(rng.gen_range(0..1009));
                            if let Some(est) = svc.estimate_cardinality(table, column, &pred) {
                                sane(&est);
                            }
                            counts.estimates += 1;
                        }
                    }
                    lat.push(t.elapsed().as_micros() as u64);
                }
                (counts, lat)
            }));
        }
        let mut mutators = Vec::new();
        for m in 0..MUTATORS as u64 {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            mutators.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xCD + m);
                let mut mutated = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let table = if rng.gen_bool(0.5) { "orders" } else { "lineitem" };
                    let column = if rng.gen_bool(0.5) { "uniform" } else { "zipfish" };
                    let batch = rng.gen_range(1..200);
                    assert!(svc.record_modifications(table, column, batch));
                    mutated += batch;
                    std::thread::sleep(Duration::from_micros(200));
                }
                mutated
            }));
        }
        std::thread::sleep(Duration::from_millis(millis));
        stop.store(true, Ordering::Relaxed);
        let mut queries = QueryCounts::default();
        let mut latencies = Vec::new();
        for h in readers {
            let (counts, lat) = h.join().expect("reader thread");
            queries.add(counts);
            latencies.extend(lat);
        }
        let mutations = mutators.into_iter().map(|h| h.join().expect("mutator")).sum();
        (queries, latencies, mutations)
    });
    let elapsed = started.elapsed().as_secs_f64();
    let (hits, misses, stale) = (svc.hits(), svc.misses(), svc.stale_hits());
    svc.wait_idle();
    (svc, WorkloadResult { queries, hits, misses, stale, latencies_us, mutations }, elapsed)
}

// -- lookup-heavy phase -------------------------------------------------

/// Buckets for the lookup phase: wide enough that the scan path's
/// per-call `O(k)` cumulative rebuild is load-bearing.
const LOOKUP_BUCKETS: usize = 600;
/// Estimation calls per timed repetition.
const LOOKUP_PROBES: usize = 16_384;
/// Timed repetitions; the minimum is reported.
const LOOKUP_REPS: usize = 3;

struct LookupResult {
    indexed_ns_per_op: f64,
    scan_ns_per_op: f64,
    qerr: [f64; 4], // p50, p95, p99, max
}

/// q-error with the standard max(·, 1) clamp, so zero-row truths and
/// estimates do not blow the ratio up to infinity.
fn qerror(est: f64, truth: f64) -> f64 {
    let e = est.max(1.0);
    let t = truth.max(1.0);
    (e / t).max(t / e)
}

fn percentile_f64(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Serve-time lookup microbenchmark: the same `estimate_cardinality`
/// entry point the service routes through, once over the prebuilt
/// bucket index and once over the legacy bisect/rebuild path, on a
/// duplicate-heavy column analyzed at `LOOKUP_BUCKETS` buckets with a
/// compressed side table. Every probe is asserted bit-identical across
/// the two routes before anything is timed, and q-error percentiles
/// against exact cardinalities are reported alongside the ns/op.
fn run_lookup_phase(n: usize) -> LookupResult {
    let mut rng = StdRng::seed_from_u64(0x10CA);
    // One third heavy duplicates over a small domain (compressed side
    // table), two thirds scattered (residual interpolation).
    let values: Vec<i64> = (0..n as i64)
        .map(|i| if i % 3 == 0 { i % 601 } else { i.wrapping_mul(2_654_435_761) % 500_000 })
        .collect();
    let mut sorted = values.clone();
    sorted.sort_unstable();
    let table = Table::builder("lookup")
        .column_with_blocking("c", values, 50, Layout::Random, &mut rng)
        .build();
    let stats = analyze(
        &table,
        "c",
        &AnalyzeOptions::full_scan(LOOKUP_BUCKETS).with_compressed(),
        &mut rng,
    )
    .expect("lookup ANALYZE");
    // What `StatsCatalog::install` does before publishing: readers never
    // pay index construction.
    stats.index();

    let mut prng = StdRng::seed_from_u64(0x9E37);
    let predicates: Vec<Predicate> = (0..LOOKUP_PROBES)
        .map(|_| {
            let x: i64 = prng.gen_range(-100..500_100);
            match prng.gen_range(0..4) {
                0 => Predicate::Eq(x % 700),
                1 => Predicate::Le(x),
                2 => Predicate::Gt(x),
                _ => Predicate::Between { low: x, high: x + prng.gen_range(0..10_000i64) },
            }
        })
        .collect();

    // Correctness pass: the fast path must be bit-identical to the scan
    // path on every probe, and q-errors are collected against exact
    // cardinalities on the sorted data.
    let mut qs: Vec<f64> = predicates
        .iter()
        .map(|p| {
            let fast = estimate_cardinality(&stats, p);
            let scan = estimate_cardinality_scan(&stats, p);
            assert_eq!(
                fast.rows.to_bits(),
                scan.rows.to_bits(),
                "{p}: indexed {} vs scan {}",
                fast.rows,
                scan.rows
            );
            qerror(fast.rows, p.true_cardinality(&sorted) as f64)
        })
        .collect();
    qs.sort_by(|a, b| a.partial_cmp(b).expect("q-errors are finite"));

    let time_route = |f: &dyn Fn(&Predicate) -> f64| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..LOOKUP_REPS {
            let started = Instant::now();
            let mut acc = 0.0;
            for p in &predicates {
                acc += f(p);
            }
            let elapsed = started.elapsed().as_secs_f64();
            std::hint::black_box(acc);
            best = best.min(elapsed);
        }
        best * 1e9 / predicates.len() as f64
    };
    let indexed_ns_per_op = time_route(&|p| estimate_cardinality(&stats, p).rows);
    let scan_ns_per_op = time_route(&|p| estimate_cardinality_scan(&stats, p).rows);
    assert!(
        indexed_ns_per_op <= scan_ns_per_op,
        "indexed lookups ({indexed_ns_per_op:.1} ns/op) slower than scan \
         ({scan_ns_per_op:.1} ns/op) at k = {LOOKUP_BUCKETS}"
    );

    LookupResult {
        indexed_ns_per_op,
        scan_ns_per_op,
        qerr: [
            percentile_f64(&qs, 0.50),
            percentile_f64(&qs, 0.95),
            percentile_f64(&qs, 0.99),
            qs.last().copied().unwrap_or(0.0),
        ],
    }
}

// -- write-heavy refresh phase ------------------------------------------

/// Drift rounds driven through the escalation ladder.
const REFRESH_ROUNDS: usize = 6;
/// Histogram buckets for the refresh phase: small enough that the probe
/// budget can certify a sub-1.0 acceptance bound (Theorem 7 widened).
const REFRESH_BUCKETS: usize = 20;

/// Rows for the refresh phase, floored at 200k so the probe budget
/// (capped at 16,384 tuples by `StalenessPolicy`) stays an order of
/// magnitude below the table even when `SAMPLEHIST_N` shrinks the main
/// workload for a smoke run.
fn refresh_rows(n: usize) -> usize {
    n.max(200_000)
}

struct RefreshResult {
    rows: usize,
    patched: u64,
    probe_passes: u64,
    unexpected_rebuilds: u64,
    patched_tuples_avg: f64,
    full_tuples_avg: f64,
    tuples_ratio: f64,
    patched_wall_ns_avg: f64,
    full_wall_ns_avg: f64,
}

fn one_column_table(name: &str, values: Vec<i64>, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    Table::builder(name)
        .column_with_blocking("amount", values, 50, Layout::Random, &mut rng)
        .build()
}

/// Round `round`'s drifted population: alternating disjoint quarter-range
/// windows, so every round's distribution is far from the histogram the
/// previous round installed and the probe must fail.
fn drifted_values(rows: usize, round: usize) -> Vec<i64> {
    let width = (rows / 4) as i64;
    let offset = if round % 2 == 0 { 0 } else { (rows / 2) as i64 };
    (0..rows as i64).map(|i| offset + i % width).collect()
}

/// The write-heavy phase: a deterministic service rides the escalation
/// ladder over `REFRESH_ROUNDS` bulk drifts of a hot column while a
/// *clean* control table sees the same modification-counter churn with
/// unchanged data. Every drift must resolve as probe → patch (rung 2, no
/// table reads beyond the probe); every clean probe must pass (rung 1);
/// nothing may escalate to a rebuild. Tuples touched and wall time per
/// refresh are reported patched vs the full CVB warm-up on the same
/// column — the O(probe)-vs-O(table) claim, measured.
fn run_refresh_phase(n: usize) -> RefreshResult {
    let rows = refresh_rows(n);
    let svc = StatsService::new(ServiceConfig {
        analyze: AnalyzeOptions::adaptive(REFRESH_BUCKETS),
        // The auto-sizing knob, exercised end to end: a tight target
        // q-error budget makes every rung-3 rebuild size its CVB sample
        // for "worst range predicate within 5%" — which is exactly when
        // resolving drift at rung 2 for the cost of the probe pays off.
        qerror_budget: Some(1.05),
        staleness: StalenessPolicy {
            mod_fraction: 0.05,
            min_mods: 256,
            ..StalenessPolicy::default()
        },
        ..ServiceConfig::deterministic(0x0F5E)
    });
    svc.register_table(one_column_table("drifty", drifted_values(rows, 0), 0x0D0), None);
    svc.register_table(one_column_table("clean", (0..rows as i64).collect(), 0x0C0), None);

    // Warm-up: the full CVB re-ANALYZE each later drift round avoids.
    let started = Instant::now();
    svc.refresh_now("drifty", "amount").expect("refresh-phase warm-up");
    let full_wall_ns = started.elapsed().as_nanos() as f64;
    let full_tuples =
        svc.catalog().get("drifty", "amount").expect("warmed").stats.io.tuples_read as f64;
    svc.refresh_now("clean", "amount").expect("refresh-phase warm-up");

    let chunk = (rows / 4) as u64;
    let mut patched_tuples = 0.0f64;
    let mut patched_wall_ns = 0.0f64;
    let mut patched = 0u64;
    for round in 1..=REFRESH_ROUNDS {
        // Bulk drift: reload the table with a migrated distribution and
        // record the churn (counters are cumulative across reloads).
        svc.register_table(
            one_column_table("drifty", drifted_values(rows, round), 0x0D0 + round as u64),
            None,
        );
        svc.record_modifications("drifty", "amount", chunk * round as u64);
        let _ = svc.estimate_cardinality("drifty", "amount", &Predicate::Le(0));
        let started = Instant::now();
        svc.drain(1);
        patched_wall_ns += started.elapsed().as_nanos() as f64;
        let snap = svc.catalog().get("drifty", "amount").expect("drifty serves");
        if snap.stats.method.starts_with("patched from probe") {
            patched += 1;
            patched_tuples += snap.stats.io.tuples_read as f64;
        }

        // Control: the clean table sees the same counter churn with
        // unchanged data — its probes must pass and nothing may rebuild.
        svc.record_modifications("clean", "amount", chunk);
        let _ = svc.estimate_cardinality("clean", "amount", &Predicate::Le(0));
        svc.drain(1);
    }

    let tally = svc.tally();
    let clean_epoch = svc.catalog().get("clean", "amount").expect("clean serves").epoch;
    let unexpected_rebuilds = clean_epoch - 1;
    let patched_tuples_avg = patched_tuples / patched.max(1) as f64;
    let result = RefreshResult {
        rows,
        patched,
        probe_passes: tally.probe_passes,
        unexpected_rebuilds,
        patched_tuples_avg,
        full_tuples_avg: full_tuples,
        tuples_ratio: full_tuples / patched_tuples_avg.max(1.0),
        patched_wall_ns_avg: patched_wall_ns / patched.max(1) as f64,
        full_wall_ns_avg: full_wall_ns,
    };
    // The CI smoke contract runs in-process so a regression fails the
    // bench itself, not just the blessed JSON.
    assert!(result.patched >= 1, "no drift round was absorbed by a patch: {tally:?}");
    assert_eq!(
        result.unexpected_rebuilds, 0,
        "the clean control table was rebuilt {unexpected_rebuilds} time(s)"
    );
    assert_eq!(tally.patch_rejects, 0, "a drift round escaped the widened bound: {tally:?}");
    assert!(
        result.tuples_ratio >= 10.0,
        "patched refresh must touch >= 10x fewer tuples than full CVB: \
         {patched_tuples_avg:.0} vs {full_tuples:.0}"
    );
    result
}

// -- histogram-inverted replay phase ------------------------------------

/// Predicates per replay stream.
const REPLAY_QUERIES: usize = 4_096;
/// Buckets for the replayed column's ANALYZE.
const REPLAY_BUCKETS: usize = 100;

struct ReplayResult {
    queries: usize,
    source: &'static str,
    replayed_q: [f64; 4], // p50, p95, p99, max
    synthetic_q: [f64; 4],
}

/// Fire `constants` (two per query: Eq / Le / Between round-robin)
/// against the replay table and return sorted q-errors vs exact
/// cardinalities on the sorted population.
fn replay_qerrors(svc: &StatsService, sorted: &[i64], constants: &[i64]) -> Vec<f64> {
    let mut qs = Vec::with_capacity(constants.len() / 2);
    for (i, pair) in constants.chunks_exact(2).enumerate() {
        let (v, w) = (pair[0], pair[1]);
        let p = match i % 3 {
            0 => Predicate::Eq(v),
            1 => Predicate::Le(v),
            _ => Predicate::Between { low: v.min(w), high: v.max(w) },
        };
        let est = svc
            .estimate_cardinality("replaylog", "amount", &p)
            .expect("replay table is warm — estimates never miss");
        assert!(est.rows.is_finite() && est.rows >= 0.0, "replay estimate broke: {est:?}");
        qs.push(qerror(est.rows, p.true_cardinality(sorted) as f64));
    }
    qs.sort_by(|a, b| a.partial_cmp(b).expect("q-errors are finite"));
    qs
}

fn qerr_summary(sorted_qs: &[f64]) -> [f64; 4] {
    [
        percentile_f64(sorted_qs, 0.50),
        percentile_f64(sorted_qs, 0.95),
        percentile_f64(sorted_qs, 0.99),
        sorted_qs.last().copied().unwrap_or(0.0),
    ]
}

/// The replay phase: ANALYZE a skewed column, fit a `HistogramSampler`
/// to the statistics the service actually stores, and drive the query
/// mix once with sampler-drawn constants (replayed: traffic shaped
/// like the data) and once with uniform constants over the same value
/// range (synthetic: the pre-replay workload's shape). The heavy-value
/// concentration of the replayed stream is asserted in-process; the
/// q-error percentiles of both streams are reported for `--check`.
fn run_replay_phase(n: usize) -> ReplayResult {
    let rows = n.max(50_000);
    let mut rng = StdRng::seed_from_u64(0x5E1A);
    // Skewed enough that the ANALYZE stores a compressed side table —
    // the sampler then replays heavy values exactly by frequency.
    let values = Zipf::new(1.0, (rows / 8).max(512)).materialize_sampled(rows as u64, &mut rng);
    let mut sorted = values.clone();
    sorted.sort_unstable();
    let svc = StatsService::new(ServiceConfig {
        analyze: AnalyzeOptions::full_scan(REPLAY_BUCKETS).with_compressed(),
        ..ServiceConfig::deterministic(0x5E1B)
    });
    svc.register_table(one_column_table("replaylog", values, 0x5E1C), None);
    svc.refresh_now("replaylog", "amount").expect("replay ANALYZE");

    let entry = svc.catalog().get("replaylog", "amount").expect("replay stats installed");
    let (sampler, source) = match &entry.stats.compressed {
        Some(c) => (HistogramSampler::from_compressed(c), "compressed"),
        None => (HistogramSampler::from_equi_height(&entry.stats.histogram), "equi_height"),
    };

    let replayed_constants = sampler.materialize_seeded(2 * REPLAY_QUERIES, 0x5E1D);
    let (lo, hi) = sampler.value_bounds();
    let mut srng = StdRng::seed_from_u64(0x5E1E);
    let synthetic_constants: Vec<i64> =
        (0..2 * REPLAY_QUERIES).map(|_| srng.gen_range(lo..=hi)).collect();

    // In-process contract: replayed constants reproduce the stored
    // heavy-value frequencies. The heaviest side-table value must get
    // its mass share of draws within a 5σ binomial band.
    if let Some(c) = &entry.stats.compressed {
        if let Some(&(heavy, count)) =
            c.high_frequency_values().iter().max_by_key(|&&(_, count)| count)
        {
            let draws = replayed_constants.len() as f64;
            let p = count as f64 / c.total() as f64;
            let got = replayed_constants.iter().filter(|&&v| v == heavy).count() as f64;
            let margin = 5.0 * (draws * p * (1.0 - p)).sqrt();
            assert!(
                (got - draws * p).abs() <= margin,
                "replayed stream lost the heavy value {heavy}: {got} draws vs \
                 expected {:.0} ± {margin:.0}",
                draws * p
            );
        }
    }

    let replayed = replay_qerrors(&svc, &sorted, &replayed_constants);
    let synthetic = replay_qerrors(&svc, &sorted, &synthetic_constants);
    ReplayResult {
        queries: REPLAY_QUERIES,
        source,
        replayed_q: qerr_summary(&replayed),
        synthetic_q: qerr_summary(&synthetic),
    }
}

// -- networked multi-tenant phase ----------------------------------------

/// Network-plane archive / `--check-net` default path.
const NET_PATH: &str = "BENCH_net.json";
/// Tenant shards the netbench server hosts.
const NET_TENANTS: u64 = 4;
/// In-process wire clients driving real loopback sockets.
const NET_CLIENTS: usize = 4;
/// Rows per netbench tenant column. The phase measures the wire plane —
/// framing, coalescing, admission — not ANALYZE, so it stays small.
const NET_ROWS: usize = 20_000;
/// Loopback workload duration; `SAMPLEHIST_NET_MILLIS` overrides.
const NET_DEFAULT_MILLIS: u64 = 1_000;
/// Simulated tenants; `SAMPLEHIST_SIM_TENANTS` overrides (nightly CI
/// raises this to 1000).
const SIM_DEFAULT_TENANTS: usize = 64;
/// Shed-storm connection attempts against the capacity-1 server.
const NET_SHED_ATTEMPTS: u64 = 16;
/// Drift-replay rounds (`--drift-replay`), matching the refresh phase.
const DRIFT_ROUNDS: usize = 6;
/// Queries per drift-replay round.
const DRIFT_QUERIES: usize = 512;

#[derive(Default)]
struct NetClientTally {
    requests: u64,
    estimates: u64,
    latencies_us: Vec<u64>,
    batch_width_max: u64,
    byte_checked: u64,
}

struct NetbenchResult {
    elapsed: f64,
    requests: u64,
    estimates: u64,
    latency_us: [u64; 4], // p50, p95, p99, max
    batch_width_avg: f64,
    batch_width_max: u64,
    byte_checked: u64,
    shed_attempts: u64,
    sheds: u64,
    retry_after_ms: u32,
}

/// A warm multi-tenant registry: every tenant serves the same schema
/// over tenant-salted data, analyzed before the clock starts so the
/// loopback phase measures the wire, not first-touch ANALYZE.
fn net_registry() -> Arc<TenantRegistry> {
    let registry = TenantRegistry::new(ServiceConfig::deterministic(0x7E70));
    for t in 0..NET_TENANTS {
        let svc = registry.create(TenantId(t));
        let values: Vec<i64> =
            (0..NET_ROWS as i64).map(|i| (i * 7 + t as i64 * 13) % 1009).collect();
        svc.register_table(one_column_table("orders", values, 0x7E70 ^ t), None);
        svc.refresh_now("orders", "amount").expect("netbench warm ANALYZE");
    }
    registry
}

fn net_predicate(rng: &mut StdRng) -> Predicate {
    let x = rng.gen_range(-10..1100i64);
    match rng.gen_range(0..4) {
        0 => Predicate::Eq(x),
        1 => Predicate::Le(x),
        2 => Predicate::Ge(x),
        _ => Predicate::Between { low: x, high: x + rng.gen_range(0..200i64) },
    }
}

/// The loopback phase: `NET_CLIENTS` threads pipeline variable-width
/// `EstimateBatch` calls over real TCP sockets against a [`WireServer`],
/// measuring end-to-end latency and throughput. Every 16th call is
/// cross-checked bit-for-bit against the in-process API — the tentpole
/// contract (the wire adds transport, not arithmetic), enforced under
/// live concurrent load. An admission sub-phase then storms a
/// capacity-1 server and counts the typed sheds.
fn run_netbench_phase(millis: u64) -> NetbenchResult {
    let registry = net_registry();
    let server = WireServer::start(&registry, "127.0.0.1:0", ServerOptions::default())
        .expect("bind netbench server");
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let clients: Vec<_> = (0..NET_CLIENTS)
        .map(|c| {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let tenant = TenantId(c as u64 % NET_TENANTS);
                let svc = registry.get(tenant).expect("warm tenant");
                let mut client = WireClient::connect(addr).expect("netbench connect");
                let mut rng = StdRng::seed_from_u64(0xBE7 ^ c as u64);
                let mut tally = NetClientTally::default();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    let width = 1 + (i % 32) as usize;
                    let predicates: Vec<Predicate> =
                        (0..width).map(|_| net_predicate(&mut rng)).collect();
                    let call_started = Instant::now();
                    let resp = client
                        .call(&Request::EstimateBatch {
                            tenant,
                            table: "orders".into(),
                            column: "amount".into(),
                            predicates: predicates.clone(),
                        })
                        .expect("netbench call");
                    tally.latencies_us.push(call_started.elapsed().as_micros() as u64);
                    let Response::EstimateBatch(Some(ests)) = resp else {
                        panic!("warm tenant must answer estimates, got {resp:?}");
                    };
                    assert_eq!(ests.len(), width);
                    tally.requests += 1;
                    tally.estimates += width as u64;
                    tally.batch_width_max = tally.batch_width_max.max(width as u64);
                    if i % 16 == 0 {
                        // The tentpole contract under live load: wire
                        // answers byte-identical to the in-process API
                        // (no churn here, so estimates are stable).
                        for (est, p) in ests.iter().zip(&predicates) {
                            let want = svc
                                .estimate_cardinality("orders", "amount", p)
                                .expect("in-process estimate");
                            assert_eq!(
                                est.rows.to_bits(),
                                want.rows.to_bits(),
                                "wire diverged from in-process API on {p}"
                            );
                            assert_eq!(est.selectivity.to_bits(), want.selectivity.to_bits());
                            tally.byte_checked += 1;
                        }
                    }
                }
                tally
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(millis));
    stop.store(true, Ordering::Relaxed);
    let mut requests = 0u64;
    let mut estimates = 0u64;
    let mut byte_checked = 0u64;
    let mut batch_width_max = 0u64;
    let mut lat: Vec<u64> = Vec::new();
    for handle in clients {
        let t = handle.join().expect("netbench client");
        requests += t.requests;
        estimates += t.estimates;
        byte_checked += t.byte_checked;
        batch_width_max = batch_width_max.max(t.batch_width_max);
        lat.extend(t.latencies_us);
    }
    let elapsed = started.elapsed().as_secs_f64();
    server.stop();
    lat.sort_unstable();
    assert!(requests > 0 && byte_checked > 0, "loopback phase served nothing");

    // Admission sub-phase: a capacity-1 server over the same registry.
    // One held connection fills the cap; every further connect must be
    // answered with a typed `Shed` carrying the retry hint — never a
    // hang — and the held connection must ride out the storm untouched.
    let retry_after_ms = 25u32;
    let small = WireServer::start(
        &registry,
        "127.0.0.1:0",
        ServerOptions { max_connections: 1, retry_after_ms, ..ServerOptions::default() },
    )
    .expect("bind admission server");
    let mut held = WireClient::connect(small.addr()).expect("held connection");
    assert!(matches!(held.call(&Request::Ping), Ok(Response::Pong)));
    let mut sheds = 0u64;
    for _ in 0..NET_SHED_ATTEMPTS {
        let Ok(mut probe) = WireClient::connect(small.addr()) else { continue };
        if let Ok(resps) = probe.call_raw(&[], 1) {
            if matches!(resps[0], Response::Error(WireError::Shed { .. })) {
                sheds += 1;
            }
        }
    }
    assert!(sheds > 0, "no over-cap connection was shed with a typed error");
    assert!(
        matches!(held.call(&Request::Ping), Ok(Response::Pong)),
        "held connection must survive the shed storm"
    );
    small.stop();

    NetbenchResult {
        elapsed,
        requests,
        estimates,
        latency_us: [
            percentile_us(&lat, 0.50),
            percentile_us(&lat, 0.95),
            percentile_us(&lat, 0.99),
            lat.last().copied().unwrap_or(0),
        ],
        batch_width_avg: estimates as f64 / requests as f64,
        batch_width_max,
        byte_checked,
        shed_attempts: NET_SHED_ATTEMPTS,
        sheds,
        retry_after_ms,
    }
}

struct SimSection {
    tenants: usize,
    rounds: usize,
    requests: u64,
    estimates: u64,
    acks: u64,
    sheds: u64,
    response_digest: u64,
    state_digest: u64,
}

/// The socket-free determinism gate: the same multi-tenant simulation
/// runs single-threaded and at 4 worker threads, and the full reports —
/// response digest AND end-state dump digest — must be bit-identical.
fn run_sim_phase(tenants: usize) -> SimSection {
    let rounds = SimConfig::default().rounds;
    let one = run_simulation(&SimConfig { tenants, threads: 1, ..SimConfig::default() });
    let four = run_simulation(&SimConfig { tenants, threads: 4, ..SimConfig::default() });
    assert_eq!(one, four, "multi-tenant simulation must be bit-identical at any thread count");
    assert!(one.estimates > 0 && one.acks > 0, "simulation exercised nothing");
    SimSection {
        tenants,
        rounds,
        requests: one.requests,
        estimates: one.estimates,
        acks: one.acks,
        sheds: one.sheds,
        response_digest: one.response_digest,
        state_digest: one.state_digest,
    }
}

struct DriftRound {
    round: usize,
    pre_q: [f64; 2],  // p50, max before the ladder reacts
    post_q: [f64; 2], // p50, max after the deterministic drain
    probes: u64,
    patches: u64,
    reanalyzes: u64,
}

fn spec_predicate(spec: PredicateSpec) -> Predicate {
    match spec {
        PredicateSpec::Eq(v) => Predicate::Eq(v),
        PredicateSpec::Le(v) => Predicate::Le(v),
        PredicateSpec::Between(low, high) => Predicate::Between { low, high },
    }
}

/// q-error (p50, max) of the service's current answers for `preds`
/// against exact truths on the (sorted) fresh data.
fn drift_qerrors(svc: &StatsService, preds: &[Predicate], sorted: &[i64]) -> [f64; 2] {
    let mut qs: Vec<f64> = preds
        .iter()
        .map(|p| {
            let est = svc.estimate_cardinality("drift", "c0", p).expect("drift serves");
            qerror(est.rows, p.true_cardinality(sorted) as f64)
        })
        .collect();
    qs.sort_by(|a, b| a.partial_cmp(b).expect("finite q-errors"));
    [percentile_f64(&qs, 0.50), qs.last().copied().unwrap_or(0.0)]
}

/// The nightly drift-replay bench: each round of a
/// [`ScenarioSpec::Drifting`] stream reloads the table with a displaced
/// window and records the churn; q-error against the fresh data is
/// measured twice — *before* the ladder reacts (stale histogram) and
/// *after* a deterministic drain (probe → patch → only-if-needed
/// rebuild). Per-round ladder work (probes/patches/re-ANALYZEs) is
/// archived so a nightly diff shows exactly how each round was absorbed.
fn run_drift_replay_phase(n: usize) -> Vec<DriftRound> {
    let rows = refresh_rows(n);
    let spec = ScenarioSpec::Drifting {
        rows,
        domain: rows as u64 / 4,
        queries: DRIFT_QUERIES,
        shift_per_round: rows as i64 / 2,
    };
    let svc = StatsService::new(ServiceConfig {
        staleness: StalenessPolicy {
            mod_fraction: 0.05,
            min_mods: 256,
            ..StalenessPolicy::default()
        },
        ..ServiceConfig::deterministic(0xD21F)
    });
    let mut out = Vec::with_capacity(DRIFT_ROUNDS);
    let mut prev = svc.tally();
    for round in 0..DRIFT_ROUNDS {
        let data = spec.round(round, 0xD21F);
        let mut sorted = data.columns[0].clone();
        sorted.sort_unstable();
        let mut rng = StdRng::seed_from_u64(0xD21F ^ round as u64);
        svc.register_table(
            Table::builder("drift")
                .column_with_blocking("c0", data.columns[0].clone(), 50, Layout::Random, &mut rng)
                .build(),
            None,
        );
        if round == 0 {
            svc.refresh_now("drift", "c0").expect("drift-replay warm ANALYZE");
        } else {
            // Counters reset with each reload, so the churn recorded
            // must stay cumulative for the delta-since-refresh math.
            svc.record_modifications("drift", "c0", (rows * round) as u64);
        }
        let preds: Vec<Predicate> =
            data.queries.iter().map(|q| spec_predicate(q.predicate)).collect();
        // The pre-drain lookups double as the staleness trigger: they
        // mark the churned column suspect and queue its refresh.
        let pre_q = drift_qerrors(&svc, &preds, &sorted);
        svc.drain(1);
        let post_q = drift_qerrors(&svc, &preds, &sorted);
        let tally = svc.tally();
        out.push(DriftRound {
            round,
            pre_q,
            post_q,
            probes: tally.probes - prev.probes,
            patches: tally.patches - prev.patches,
            reanalyzes: tally.full_reanalyzes - prev.full_reanalyzes,
        });
        prev = tally;
    }
    for r in &out[1..] {
        assert!(r.probes >= 1, "drift round {} never reached the probe rung", r.round);
        assert!(r.patches + r.reanalyzes >= 1, "drift round {} was never refreshed", r.round);
        assert!(
            r.post_q[0] <= r.pre_q[0] && r.post_q[1] <= r.pre_q[1],
            "round {}: refresh did not improve q-error (pre {:?} -> post {:?})",
            r.round,
            r.pre_q,
            r.post_q
        );
    }
    out
}

// -- accuracy / telemetry-endpoint phase --------------------------------

/// Exact `v <= bound` cardinality for the `zipfish` column (`i % 1009`
/// over `n` rows): each residue `0..1009` appears `n / 1009` times, and
/// the first `n % 1009` residues once more.
fn zipfish_le(bound: i64, n: usize) -> f64 {
    if bound < 0 {
        return 0.0;
    }
    let hit = (bound + 1).min(1009) as u64;
    (hit * (n as u64 / 1009) + hit.min(n as u64 % 1009)) as f64
}

/// Exact `v <= bound` cardinality for the `uniform` column (`0..n`).
fn uniform_le(bound: i64, n: usize) -> f64 {
    (bound + 1).clamp(0, n as i64) as f64
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> Result<(String, String), String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(|e| format!("read: {e}"))?;
    let (head, body) =
        response.split_once("\r\n\r\n").ok_or_else(|| format!("malformed response: {response}"))?;
    Ok((head.to_string(), body.to_string()))
}

/// Close the loop: feed analytic truths back into the accuracy ledgers,
/// then scrape the live HTTP endpoints and return the `/accuracy` body
/// (archived as `BENCH_accuracy.json`).
fn run_accuracy_phase(svc: &Arc<StatsService>, n: usize) -> Result<String, String> {
    let columns = [
        ("orders", "uniform"),
        ("orders", "zipfish"),
        ("lineitem", "uniform"),
        ("lineitem", "zipfish"),
    ];
    let mut fed = 0u64;
    for (table, column) in columns {
        for i in 0..96i64 {
            let bound = i * 10 + 3;
            let Some(est) = svc.estimate_cardinality(table, column, &Predicate::Le(bound)) else {
                continue;
            };
            let truth = match column {
                "uniform" => uniform_le(bound, n),
                _ => zipfish_le(bound, n),
            };
            svc.record_actual(table, column, &format!("{column} <= {bound}"), est.rows, truth);
            fed += 1;
        }
    }
    // Any staleness- or breach-queued refreshes land before the scrape,
    // so the archived ledgers describe a quiesced service.
    svc.wait_idle();

    let server = MetricsServer::start(svc, "127.0.0.1:0")
        .map_err(|e| format!("bind metrics server: {e}"))?;
    let (head, metrics) = http_get(server.addr(), "/metrics")?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!("/metrics returned {head}"));
    }
    validate_exposition(&metrics).map_err(|e| format!("/metrics exposition invalid: {e}"))?;
    if !metrics.contains("samplehist_service_qerror{") {
        return Err("/metrics lacks per-column q-error quantiles".into());
    }
    let (head, accuracy) = http_get(server.addr(), "/accuracy")?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!("/accuracy returned {head}"));
    }
    json::parse(&accuracy).map_err(|e| format!("/accuracy JSON invalid: {e}"))?;
    server.stop();
    println!(
        "accuracy phase: fed {fed} observations, /metrics served {} bytes of valid \
         exposition, /accuracy {} bytes of valid JSON",
        metrics.len(),
        accuracy.len()
    );
    Ok(accuracy)
}

fn check_accuracy_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let obj = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if obj.get("breaches").and_then(Json::as_u64).is_none() {
        return Err("missing/non-integer \"breaches\"".into());
    }
    let Some(Json::Arr(columns)) = obj.get("columns") else {
        return Err("\"columns\" must be an array".into());
    };
    if columns.is_empty() {
        return Err("no columns in the accuracy ledger".into());
    }
    let mut observed_any = false;
    for col in columns {
        for key in ["table", "column"] {
            if col.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("column entry missing {key:?}"));
            }
        }
        for key in ["epoch", "observations", "underestimates", "overestimates"] {
            if col.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("column entry missing/non-integer {key:?}"));
            }
        }
        let observations = col.get("observations").and_then(Json::as_u64).unwrap_or(0);
        if observations == 0 {
            continue;
        }
        observed_any = true;
        let mut prev = 1.0;
        for key in ["p50", "p95", "p99"] {
            match col.get(key).and_then(Json::as_f64) {
                Some(v) if v >= prev => prev = v,
                Some(v) => return Err(format!("q-error {key} = {v} below {prev} (not monotone)")),
                None => return Err(format!("observed column missing q-error {key:?}")),
            }
        }
        // Sketch quantiles are capped at the exact tracked max.
        match col.get("max").and_then(Json::as_f64) {
            Some(m) if m >= 1.0 && prev <= m => {}
            Some(m) => return Err(format!("q-error max = {m} inconsistent with p99 = {prev}")),
            None => return Err("observed column missing q-error \"max\"".into()),
        }
        match col.get("worst").and_then(|w| w.get("qerror")).and_then(Json::as_f64) {
            Some(q) if q >= 1.0 => {}
            _ => return Err("observed column lacks a worst-predicate capture".into()),
        }
    }
    if !observed_any {
        return Err("no column recorded any accuracy observations".into());
    }
    println!("{path}: OK — {} columns in the accuracy ledger", columns.len());
    Ok(())
}

// -- `--check` ----------------------------------------------------------

fn require_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing/non-integer {key:?}"))
}

fn require_section<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing {key:?} section"))
}

/// Validate the monotone `p50 <= p95 <= p99 <= max` q-error quartet in
/// `section`, all clamped at >= 1.
fn check_qerror_quartet(section: &Json, what: &str) -> Result<(), String> {
    let mut prev = 1.0;
    for key in ["p50", "p95", "p99", "max"] {
        match section.get(key).and_then(Json::as_f64) {
            Some(v) if v >= prev => prev = v,
            Some(v) => {
                return Err(format!("{what} q-error {key} = {v} below {prev} (not monotone)"))
            }
            None => return Err(format!("missing {what} qerror {key:?}")),
        }
    }
    Ok(())
}

fn check_file(path: &str, require_replay: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let obj = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    for key in [
        "rows_per_table",
        "tables",
        "columns_per_table",
        "detected_cores",
        "refresh_threads",
        "reader_threads",
    ] {
        if require_u64(&obj, key)? == 0 {
            return Err(format!("{key:?} must be >= 1"));
        }
    }
    match obj.get("duration_seconds").and_then(Json::as_f64) {
        Some(v) if v > 0.0 => {}
        _ => return Err("missing/non-positive \"duration_seconds\"".into()),
    }

    let q = require_section(&obj, "queries")?;
    let total = require_u64(q, "total")?;
    let estimates = require_u64(q, "estimates")?;
    let batches = require_u64(q, "batches")?;
    let joins = require_u64(q, "joins")?;
    let hits = require_u64(q, "hits")?;
    let misses = require_u64(q, "misses")?;
    let stale = require_u64(q, "stale_hits")?;
    if total == 0 || hits == 0 {
        return Err("workload served no hits — the service never answered".into());
    }
    if estimates + batches + joins != total {
        return Err(format!(
            "query kinds do not add up: {estimates} estimates + {batches} batches + {joins} \
             joins vs total {total}"
        ));
    }
    // Scalar estimates and batch calls look up one column, equijoins two.
    if hits + misses != estimates + batches + 2 * joins {
        return Err(format!(
            "lookup accounting off: hits {hits} + misses {misses} vs {estimates} estimates + \
             {batches} batches + 2 x {joins} joins"
        ));
    }
    if stale > hits {
        return Err(format!("stale_hits {stale} cannot exceed hits {hits}"));
    }
    match q.get("throughput_per_sec").and_then(Json::as_f64) {
        Some(v) if v > 0.0 => {}
        _ => return Err("missing/non-positive \"throughput_per_sec\"".into()),
    }
    let lat = require_section(q, "latency_us")?;
    let p50 = require_u64(lat, "p50")?;
    let p95 = require_u64(lat, "p95")?;
    let p99 = require_u64(lat, "p99")?;
    let max = require_u64(lat, "max")?;
    if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
        return Err(format!("latency percentiles not monotone: {p50}/{p95}/{p99}/{max}"));
    }

    let m = require_section(&obj, "mutations")?;
    if require_u64(m, "total")? == 0 {
        return Err("workload recorded no mutations — staleness was never exercised".into());
    }

    let lk = require_section(&obj, "lookup")?;
    if require_u64(lk, "buckets")? == 0 || require_u64(lk, "probes")? == 0 {
        return Err("lookup phase ran no probes".into());
    }
    let require_pos = |key: &str| -> Result<f64, String> {
        match lk.get(key).and_then(Json::as_f64) {
            Some(v) if v > 0.0 => Ok(v),
            _ => Err(format!("missing/non-positive lookup {key:?}")),
        }
    };
    let indexed = require_pos("indexed_ns_per_op")?;
    let scan = require_pos("scan_ns_per_op")?;
    if indexed > scan {
        return Err(format!(
            "indexed lookups ({indexed:.1} ns/op) slower than scan ({scan:.1} ns/op)"
        ));
    }
    check_qerror_quartet(require_section(lk, "qerror")?, "lookup")?;

    let r = require_section(&obj, "refreshes")?;
    let completed = require_u64(r, "completed")?;
    let probes = require_u64(r, "probes")?;
    let probe_passes = require_u64(r, "probe_passes")?;
    let reanalyzes = require_u64(r, "full_reanalyzes")?;
    require_u64(r, "patches")?;
    require_u64(r, "patch_rejects")?;
    require_u64(r, "failed")?;
    require_u64(r, "rejected")?;
    if completed == 0 {
        return Err("no refresh ever completed".into());
    }
    if probe_passes > probes {
        return Err(format!("probe_passes {probe_passes} cannot exceed probes {probes}"));
    }
    if reanalyzes == 0 {
        return Err("no full re-ANALYZE ran (warm-up alone should produce several)".into());
    }

    let rf = require_section(&obj, "refresh")?;
    if require_u64(rf, "rows_per_table")? == 0 || require_u64(rf, "rounds")? == 0 {
        return Err("refresh phase ran no rounds".into());
    }
    let patched = require_u64(rf, "patched")?;
    if patched == 0 {
        return Err("refresh phase installed no patches — the ladder's rung 2 is dead".into());
    }
    if require_u64(rf, "probe_passes")? == 0 {
        return Err("refresh phase saw no clean-table probe passes".into());
    }
    if require_u64(rf, "unexpected_rebuilds")? != 0 {
        return Err("refresh phase rebuilt the clean control table".into());
    }
    let require_pos_in = |section: &Json, key: &str| -> Result<f64, String> {
        match section.get(key).and_then(Json::as_f64) {
            Some(v) if v > 0.0 => Ok(v),
            _ => Err(format!("missing/non-positive refresh {key:?}")),
        }
    };
    let patched_tuples = require_pos_in(rf, "patched_tuples_avg")?;
    let full_tuples = require_pos_in(rf, "full_tuples_avg")?;
    require_pos_in(rf, "patched_wall_ns_avg")?;
    require_pos_in(rf, "full_wall_ns_avg")?;
    let ratio = require_pos_in(rf, "tuples_ratio")?;
    if ratio < 10.0 {
        return Err(format!(
            "patched refresh must touch >= 10x fewer tuples than full CVB re-ANALYZE: \
             {patched_tuples:.0} patched vs {full_tuples:.0} full ({ratio:.1}x)"
        ));
    }
    match obj.get("replay") {
        Some(rp) => {
            if require_u64(rp, "queries")? == 0 || require_u64(rp, "buckets")? == 0 {
                return Err("replay phase fired no queries".into());
            }
            match rp.get("source").and_then(Json::as_str) {
                Some("compressed") | Some("equi_height") => {}
                Some(other) => return Err(format!("unknown replay source {other:?}")),
                None => return Err("replay section missing \"source\"".into()),
            }
            check_qerror_quartet(require_section(rp, "replayed_qerror")?, "replayed")?;
            check_qerror_quartet(require_section(rp, "synthetic_qerror")?, "synthetic")?;
        }
        None if require_replay => {
            return Err("missing \"replay\" section (--require-replay)".into())
        }
        None => {}
    }
    println!("{path}: OK — {total} queries, {completed} refreshes, {patched} patches");
    Ok(())
}

fn check_net_file(path: &str, require_drift: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let obj = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    for key in ["tenants", "clients", "rows_per_tenant"] {
        if require_u64(&obj, key)? == 0 {
            return Err(format!("{key:?} must be >= 1"));
        }
    }
    match obj.get("duration_seconds").and_then(Json::as_f64) {
        Some(v) if v > 0.0 => {}
        _ => return Err("missing/non-positive \"duration_seconds\"".into()),
    }

    let req = require_section(&obj, "requests")?;
    let total = require_u64(req, "total")?;
    let estimates = require_u64(req, "estimates")?;
    if total == 0 {
        return Err("loopback phase served no requests".into());
    }
    if estimates < total {
        return Err(format!("estimates {estimates} below requests {total} — batching broken"));
    }
    match req.get("throughput_per_sec").and_then(Json::as_f64) {
        Some(v) if v > 0.0 => {}
        _ => return Err("missing/non-positive net \"throughput_per_sec\"".into()),
    }
    let lat = require_section(req, "latency_us")?;
    let p50 = require_u64(lat, "p50")?;
    let p95 = require_u64(lat, "p95")?;
    let p99 = require_u64(lat, "p99")?;
    let max = require_u64(lat, "max")?;
    if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
        return Err(format!("net latency percentiles not monotone: {p50}/{p95}/{p99}/{max}"));
    }

    let batch = require_section(&obj, "batch")?;
    let width_max = require_u64(batch, "width_max")?;
    match batch.get("width_avg").and_then(Json::as_f64) {
        Some(v) if v >= 1.0 && v <= width_max as f64 => {}
        Some(v) => return Err(format!("batch width_avg {v} outside [1, width_max {width_max}]")),
        None => return Err("missing batch \"width_avg\"".into()),
    }

    let bi = require_section(&obj, "byte_identity")?;
    if require_u64(bi, "checked")? == 0 {
        return Err("no wire answer was cross-checked against the in-process API".into());
    }
    if bi.get("identical").and_then(Json::as_bool) != Some(true) {
        return Err("byte_identity.identical must be true".into());
    }

    let adm = require_section(&obj, "admission")?;
    let attempts = require_u64(adm, "attempts")?;
    let sheds = require_u64(adm, "sheds")?;
    if attempts == 0 || sheds == 0 || sheds > attempts {
        return Err(format!("admission sheds {sheds} out of range for {attempts} attempts"));
    }
    match adm.get("shed_rate").and_then(Json::as_f64) {
        Some(v) if v > 0.0 && v <= 1.0 => {}
        _ => return Err("missing/out-of-range admission \"shed_rate\"".into()),
    }
    if require_u64(adm, "retry_after_ms")? == 0 {
        return Err("shed responses must carry a positive retry hint".into());
    }

    let sim = require_section(&obj, "sim")?;
    let sim_tenants = require_u64(sim, "tenants")?;
    if sim_tenants == 0 || require_u64(sim, "rounds")? == 0 {
        return Err("simulation covered no tenants/rounds".into());
    }
    if require_u64(sim, "estimates")? == 0 || require_u64(sim, "acks")? == 0 {
        return Err("simulation exercised no estimates or feedback".into());
    }
    require_u64(sim, "requests")?;
    require_u64(sim, "sheds")?;
    for key in ["response_digest", "state_digest"] {
        match sim.get(key).and_then(Json::as_str) {
            Some(s) if s.len() == 18 && s.starts_with("0x") => {}
            Some(s) => return Err(format!("sim {key} {s:?} is not a 64-bit hex digest")),
            None => return Err(format!("missing sim {key:?}")),
        }
    }
    match sim.get("threads_compared") {
        Some(Json::Arr(ts)) if ts.len() >= 2 => {}
        _ => return Err("sim must compare at least two thread counts".into()),
    }

    let drift_rounds = match obj.get("drift_replay") {
        Some(dr) => {
            if require_u64(dr, "rows_per_round")? == 0 || require_u64(dr, "queries_per_round")? == 0
            {
                return Err("drift replay ran nothing".into());
            }
            let rounds = match dr.get("rounds") {
                Some(Json::Arr(rounds)) if rounds.len() >= 2 => rounds,
                _ => return Err("drift replay needs >= 2 archived rounds".into()),
            };
            for (i, r) in rounds.iter().enumerate() {
                require_u64(r, "round")?;
                require_u64(r, "probes")?;
                require_u64(r, "patches")?;
                require_u64(r, "full_reanalyzes")?;
                let q_of = |section: &str, key: &str| -> Result<f64, String> {
                    require_section(r, section)?
                        .get(key)
                        .and_then(Json::as_f64)
                        .filter(|v| *v >= 1.0)
                        .ok_or_else(|| format!("round {i}: missing/sub-1 {section}.{key}"))
                };
                let pre = [q_of("pre_qerror", "p50")?, q_of("pre_qerror", "max")?];
                let post = [q_of("post_qerror", "p50")?, q_of("post_qerror", "max")?];
                if pre[0] > pre[1] || post[0] > post[1] {
                    return Err(format!("round {i}: q-error p50 above max"));
                }
                if i > 0 && (post[0] > pre[0] || post[1] > pre[1]) {
                    return Err(format!(
                        "round {i}: post-refresh q-error above pre ({post:?} vs {pre:?})"
                    ));
                }
            }
            rounds.len()
        }
        None if require_drift => {
            return Err("missing \"drift_replay\" section (--require-drift)".into())
        }
        None => 0,
    };
    println!(
        "{path}: OK — {total} wire calls, {sim_tenants} simulated tenants, \
         {drift_rounds} drift rounds"
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut check: Option<String> = None;
    let mut check_accuracy: Option<String> = None;
    let mut check_net: Option<String> = None;
    let mut replay = false;
    let mut require_replay = false;
    let mut drift_replay = false;
    let mut require_drift = false;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => {
                let path = match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().expect("peeked"),
                    _ => OUT_PATH.to_string(),
                };
                check = Some(path);
            }
            "--check-accuracy" => {
                let path = match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().expect("peeked"),
                    _ => ACCURACY_PATH.to_string(),
                };
                check_accuracy = Some(path);
            }
            "--check-net" => {
                let path = match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().expect("peeked"),
                    _ => NET_PATH.to_string(),
                };
                check_net = Some(path);
            }
            "--replay" => replay = true,
            "--require-replay" => require_replay = true,
            "--drift-replay" => drift_replay = true,
            "--require-drift" => require_drift = true,
            other => {
                eprintln!("statserve: unknown argument {other:?}");
                eprintln!(
                    "usage: statserve [--replay] [--drift-replay] \
                     [--check [PATH] [--require-replay]] [--check-accuracy [PATH]] \
                     [--check-net [PATH] [--require-drift]]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if check.is_some() || check_accuracy.is_some() || check_net.is_some() {
        if let Some(path) = check {
            if let Err(e) = check_file(&path, require_replay) {
                eprintln!("statserve --check failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(path) = check_accuracy {
            if let Err(e) = check_accuracy_file(&path) {
                eprintln!("statserve --check-accuracy failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(path) = check_net {
            if let Err(e) = check_net_file(&path, require_drift) {
                eprintln!("statserve --check-net failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    let n: usize =
        std::env::var("SAMPLEHIST_N").ok().and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_N);
    let millis: u64 = std::env::var("SAMPLEHIST_SERVICE_MILLIS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_MILLIS);
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let refresh_threads = samplehist_parallel::num_threads();
    println!(
        "statserve: {n} rows/table, {millis} ms, {READERS} readers + {MUTATORS} mutators, \
         {refresh_threads} refresh workers on {cores} cores"
    );

    let (svc, result, elapsed) = run_workload(n, millis, refresh_threads);
    let accuracy_body = match run_accuracy_phase(&svc, n) {
        Ok(body) => body,
        Err(e) => {
            eprintln!("statserve: accuracy phase failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tally = svc.tally();
    let lookup = run_lookup_phase(n);
    let refresh = run_refresh_phase(n);
    let replay_result = if replay { Some(run_replay_phase(n)) } else { None };
    let net_millis: u64 = std::env::var("SAMPLEHIST_NET_MILLIS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(NET_DEFAULT_MILLIS);
    let sim_tenants: usize = std::env::var("SAMPLEHIST_SIM_TENANTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(SIM_DEFAULT_TENANTS);
    let net = run_netbench_phase(net_millis);
    let sim = run_sim_phase(sim_tenants);
    let drift_result = if drift_replay { Some(run_drift_replay_phase(n)) } else { None };
    println!(
        "netbench phase ({NET_TENANTS} tenants, {NET_CLIENTS} clients, {:.2}s): {} wire calls \
         ({:.0}/s, {} estimates), latency p50 {} us / p99 {} us, batch width avg {:.1} max {}, \
         {} byte-identity checks; admission: {}/{} connections shed",
        net.elapsed,
        net.requests,
        net.requests as f64 / net.elapsed,
        net.estimates,
        net.latency_us[0],
        net.latency_us[2],
        net.batch_width_avg,
        net.batch_width_max,
        net.byte_checked,
        net.sheds,
        net.shed_attempts,
    );
    println!(
        "sim phase ({} tenants x {} rounds, threads 1 vs 4): {} requests, {} estimates, \
         {} acks, {} sheds; response digest 0x{:016x}, state digest 0x{:016x} (bit-identical)",
        sim.tenants,
        sim.rounds,
        sim.requests,
        sim.estimates,
        sim.acks,
        sim.sheds,
        sim.response_digest,
        sim.state_digest,
    );
    if let Some(rounds) = &drift_result {
        for r in rounds {
            println!(
                "drift-replay round {}: q-error p50 {:.3} -> {:.3}, max {:.3} -> {:.3} \
                 ({} probes, {} patches, {} re-ANALYZEs)",
                r.round,
                r.pre_q[0],
                r.post_q[0],
                r.pre_q[1],
                r.post_q[1],
                r.probes,
                r.patches,
                r.reanalyzes,
            );
        }
    }
    if let Some(rp) = &replay_result {
        println!(
            "replay phase ({} queries x 2 streams, k = {REPLAY_BUCKETS}, source {}): \
             replayed q-error p50 {:.3}, p95 {:.3}, p99 {:.3}, max {:.3}; \
             synthetic p50 {:.3}, p95 {:.3}, p99 {:.3}, max {:.3}",
            rp.queries,
            rp.source,
            rp.replayed_q[0],
            rp.replayed_q[1],
            rp.replayed_q[2],
            rp.replayed_q[3],
            rp.synthetic_q[0],
            rp.synthetic_q[1],
            rp.synthetic_q[2],
            rp.synthetic_q[3],
        );
    }
    println!(
        "refresh phase ({} rows, {REFRESH_ROUNDS} drift rounds): {} patched, {} clean probe \
         passes, {} unexpected rebuilds; tuples/refresh {:.0} patched vs {:.0} full ({:.1}x \
         fewer); wall/refresh {:.2} ms patched vs {:.2} ms full",
        refresh.rows,
        refresh.patched,
        refresh.probe_passes,
        refresh.unexpected_rebuilds,
        refresh.patched_tuples_avg,
        refresh.full_tuples_avg,
        refresh.tuples_ratio,
        refresh.patched_wall_ns_avg / 1e6,
        refresh.full_wall_ns_avg / 1e6,
    );
    println!(
        "lookup phase (k = {LOOKUP_BUCKETS}, {LOOKUP_PROBES} probes): indexed {:.1} ns/op vs \
         scan {:.1} ns/op ({:.1}x); q-error p50 {:.3}, p95 {:.3}, p99 {:.3}, max {:.3}",
        lookup.indexed_ns_per_op,
        lookup.scan_ns_per_op,
        lookup.scan_ns_per_op / lookup.indexed_ns_per_op,
        lookup.qerr[0],
        lookup.qerr[1],
        lookup.qerr[2],
        lookup.qerr[3],
    );
    let mut lat = result.latencies_us;
    lat.sort_unstable();
    let queries = result.queries;
    let throughput = queries.total() as f64 / elapsed;
    println!(
        "served {} queries ({} estimates, {} batches, {} joins) in {elapsed:.2}s \
         ({throughput:.0}/s): {} hits, {} misses, {} stale; \
         refreshes: {} completed ({} probes, {} passes, {} re-ANALYZEs), {} failed, {} rejected",
        queries.total(),
        queries.estimates,
        queries.batches,
        queries.joins,
        result.hits,
        result.misses,
        result.stale,
        tally.completed,
        tally.probes,
        tally.probe_passes,
        tally.full_reanalyzes,
        tally.failed,
        tally.rejected,
    );

    // The `replay` section is optional (flag-gated), so it is spliced
    // into the fixed-shape document rather than formatted inline.
    let replay_json = match &replay_result {
        Some(rp) => format!(
            concat!(
                ",\n",
                "  \"replay\": {{\n",
                "    \"queries\": {q},\n",
                "    \"buckets\": {k},\n",
                "    \"source\": \"{src}\",\n",
                "    \"replayed_qerror\": {{\n",
                "      \"p50\": {rq50:.4},\n",
                "      \"p95\": {rq95:.4},\n",
                "      \"p99\": {rq99:.4},\n",
                "      \"max\": {rqmax:.4}\n",
                "    }},\n",
                "    \"synthetic_qerror\": {{\n",
                "      \"p50\": {sq50:.4},\n",
                "      \"p95\": {sq95:.4},\n",
                "      \"p99\": {sq99:.4},\n",
                "      \"max\": {sqmax:.4}\n",
                "    }}\n",
                "  }}",
            ),
            q = rp.queries,
            k = REPLAY_BUCKETS,
            src = rp.source,
            rq50 = rp.replayed_q[0],
            rq95 = rp.replayed_q[1],
            rq99 = rp.replayed_q[2],
            rqmax = rp.replayed_q[3],
            sq50 = rp.synthetic_q[0],
            sq95 = rp.synthetic_q[1],
            sq99 = rp.synthetic_q[2],
            sqmax = rp.synthetic_q[3],
        ),
        None => String::new(),
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"rows_per_table\": {n},\n",
            "  \"tables\": 2,\n",
            "  \"columns_per_table\": 2,\n",
            "  \"detected_cores\": {cores},\n",
            "  \"refresh_threads\": {rt},\n",
            "  \"reader_threads\": {readers},\n",
            "  \"mutator_threads\": {mutators},\n",
            "  \"duration_seconds\": {dur:.3},\n",
            "  \"queries\": {{\n",
            "    \"total\": {total},\n",
            "    \"estimates\": {estimates},\n",
            "    \"batches\": {batches},\n",
            "    \"joins\": {joins},\n",
            "    \"hits\": {hits},\n",
            "    \"misses\": {misses},\n",
            "    \"stale_hits\": {stale},\n",
            "    \"throughput_per_sec\": {tput:.1},\n",
            "    \"latency_us\": {{\n",
            "      \"p50\": {p50},\n",
            "      \"p95\": {p95},\n",
            "      \"p99\": {p99},\n",
            "      \"max\": {pmax}\n",
            "    }}\n",
            "  }},\n",
            "  \"mutations\": {{\n",
            "    \"total\": {muts}\n",
            "  }},\n",
            "  \"lookup\": {{\n",
            "    \"buckets\": {lk_k},\n",
            "    \"probes\": {lk_probes},\n",
            "    \"indexed_ns_per_op\": {lk_idx:.2},\n",
            "    \"scan_ns_per_op\": {lk_scan:.2},\n",
            "    \"speedup\": {lk_speedup:.2},\n",
            "    \"qerror\": {{\n",
            "      \"p50\": {lk_q50:.4},\n",
            "      \"p95\": {lk_q95:.4},\n",
            "      \"p99\": {lk_q99:.4},\n",
            "      \"max\": {lk_qmax:.4}\n",
            "    }}\n",
            "  }},\n",
            "  \"refreshes\": {{\n",
            "    \"completed\": {completed},\n",
            "    \"failed\": {failed},\n",
            "    \"probes\": {probes},\n",
            "    \"probe_passes\": {passes},\n",
            "    \"full_reanalyzes\": {reans},\n",
            "    \"patches\": {patches},\n",
            "    \"patch_rejects\": {patch_rejects},\n",
            "    \"rejected\": {rejected}\n",
            "  }},\n",
            "  \"refresh\": {{\n",
            "    \"rows_per_table\": {rf_rows},\n",
            "    \"rounds\": {rf_rounds},\n",
            "    \"patched\": {rf_patched},\n",
            "    \"probe_passes\": {rf_passes},\n",
            "    \"unexpected_rebuilds\": {rf_rebuilds},\n",
            "    \"patched_tuples_avg\": {rf_pt:.1},\n",
            "    \"full_tuples_avg\": {rf_ft:.1},\n",
            "    \"tuples_ratio\": {rf_ratio:.2},\n",
            "    \"patched_wall_ns_avg\": {rf_pw:.1},\n",
            "    \"full_wall_ns_avg\": {rf_fw:.1}\n",
            "  }}{replay}\n",
            "}}\n",
        ),
        replay = replay_json,
        n = n,
        cores = cores,
        rt = refresh_threads,
        readers = READERS,
        mutators = MUTATORS,
        dur = elapsed,
        total = queries.total(),
        estimates = queries.estimates,
        batches = queries.batches,
        joins = queries.joins,
        hits = result.hits,
        misses = result.misses,
        stale = result.stale,
        tput = throughput,
        p50 = percentile_us(&lat, 0.50),
        p95 = percentile_us(&lat, 0.95),
        p99 = percentile_us(&lat, 0.99),
        pmax = lat.last().copied().unwrap_or(0),
        muts = result.mutations,
        lk_k = LOOKUP_BUCKETS,
        lk_probes = LOOKUP_PROBES,
        lk_idx = lookup.indexed_ns_per_op,
        lk_scan = lookup.scan_ns_per_op,
        lk_speedup = lookup.scan_ns_per_op / lookup.indexed_ns_per_op,
        lk_q50 = lookup.qerr[0],
        lk_q95 = lookup.qerr[1],
        lk_q99 = lookup.qerr[2],
        lk_qmax = lookup.qerr[3],
        completed = tally.completed,
        failed = tally.failed,
        probes = tally.probes,
        passes = tally.probe_passes,
        reans = tally.full_reanalyzes,
        patches = tally.patches,
        patch_rejects = tally.patch_rejects,
        rejected = tally.rejected,
        rf_rows = refresh.rows,
        rf_rounds = REFRESH_ROUNDS,
        rf_patched = refresh.patched,
        rf_passes = refresh.probe_passes,
        rf_rebuilds = refresh.unexpected_rebuilds,
        rf_pt = refresh.patched_tuples_avg,
        rf_ft = refresh.full_tuples_avg,
        rf_ratio = refresh.tuples_ratio,
        rf_pw = refresh.patched_wall_ns_avg,
        rf_fw = refresh.full_wall_ns_avg,
    );
    std::fs::write(OUT_PATH, &json).expect("write BENCH_service.json");
    println!("wrote {OUT_PATH}");
    std::fs::write(ACCURACY_PATH, &accuracy_body).expect("write BENCH_accuracy.json");
    println!("wrote {ACCURACY_PATH}");

    // The `drift_replay` section is optional (flag-gated), spliced like
    // the `replay` section above.
    let drift_json = match &drift_result {
        Some(rounds) => {
            let mut items = String::new();
            for (i, r) in rounds.iter().enumerate() {
                if i > 0 {
                    items.push_str(",\n");
                }
                items.push_str(&format!(
                    concat!(
                        "      {{\n",
                        "        \"round\": {round},\n",
                        "        \"pre_qerror\": {{ \"p50\": {pq50:.4}, \"max\": {pqmax:.4} }},\n",
                        "        \"post_qerror\": {{ \"p50\": {oq50:.4}, \"max\": {oqmax:.4} }},\n",
                        "        \"probes\": {probes},\n",
                        "        \"patches\": {patches},\n",
                        "        \"full_reanalyzes\": {reans}\n",
                        "      }}",
                    ),
                    round = r.round,
                    pq50 = r.pre_q[0],
                    pqmax = r.pre_q[1],
                    oq50 = r.post_q[0],
                    oqmax = r.post_q[1],
                    probes = r.probes,
                    patches = r.patches,
                    reans = r.reanalyzes,
                ));
            }
            format!(
                concat!(
                    ",\n",
                    "  \"drift_replay\": {{\n",
                    "    \"rows_per_round\": {rows},\n",
                    "    \"queries_per_round\": {queries},\n",
                    "    \"rounds\": [\n{items}\n    ]\n",
                    "  }}",
                ),
                rows = refresh_rows(n),
                queries = DRIFT_QUERIES,
                items = items,
            )
        }
        None => String::new(),
    };
    let net_json = format!(
        concat!(
            "{{\n",
            "  \"tenants\": {tenants},\n",
            "  \"clients\": {clients},\n",
            "  \"rows_per_tenant\": {rows},\n",
            "  \"duration_seconds\": {dur:.3},\n",
            "  \"requests\": {{\n",
            "    \"total\": {total},\n",
            "    \"estimates\": {ests},\n",
            "    \"throughput_per_sec\": {tput:.1},\n",
            "    \"latency_us\": {{\n",
            "      \"p50\": {p50},\n",
            "      \"p95\": {p95},\n",
            "      \"p99\": {p99},\n",
            "      \"max\": {pmax}\n",
            "    }}\n",
            "  }},\n",
            "  \"batch\": {{\n",
            "    \"width_avg\": {wavg:.2},\n",
            "    \"width_max\": {wmax}\n",
            "  }},\n",
            "  \"byte_identity\": {{\n",
            "    \"checked\": {checked},\n",
            "    \"identical\": true\n",
            "  }},\n",
            "  \"admission\": {{\n",
            "    \"attempts\": {attempts},\n",
            "    \"sheds\": {sheds},\n",
            "    \"shed_rate\": {shed_rate:.3},\n",
            "    \"retry_after_ms\": {retry}\n",
            "  }},\n",
            "  \"sim\": {{\n",
            "    \"tenants\": {sim_tenants},\n",
            "    \"rounds\": {sim_rounds},\n",
            "    \"threads_compared\": [1, 4],\n",
            "    \"requests\": {sim_requests},\n",
            "    \"estimates\": {sim_estimates},\n",
            "    \"acks\": {sim_acks},\n",
            "    \"sheds\": {sim_sheds},\n",
            "    \"response_digest\": \"0x{rdig:016x}\",\n",
            "    \"state_digest\": \"0x{sdig:016x}\"\n",
            "  }}{drift}\n",
            "}}\n",
        ),
        tenants = NET_TENANTS,
        clients = NET_CLIENTS,
        rows = NET_ROWS,
        dur = net.elapsed,
        total = net.requests,
        ests = net.estimates,
        tput = net.requests as f64 / net.elapsed,
        p50 = net.latency_us[0],
        p95 = net.latency_us[1],
        p99 = net.latency_us[2],
        pmax = net.latency_us[3],
        wavg = net.batch_width_avg,
        wmax = net.batch_width_max,
        checked = net.byte_checked,
        attempts = net.shed_attempts,
        sheds = net.sheds,
        shed_rate = net.sheds as f64 / net.shed_attempts as f64,
        retry = net.retry_after_ms,
        sim_tenants = sim.tenants,
        sim_rounds = sim.rounds,
        sim_requests = sim.requests,
        sim_estimates = sim.estimates,
        sim_acks = sim.acks,
        sim_sheds = sim.sheds,
        rdig = sim.response_digest,
        sdig = sim.state_digest,
        drift = drift_json,
    );
    std::fs::write(NET_PATH, &net_json).expect("write BENCH_net.json");
    println!("wrote {NET_PATH}");
    // Self-validate so schema drift fails here, not in CI.
    match check_file(OUT_PATH, replay)
        .and_then(|()| check_accuracy_file(ACCURACY_PATH))
        .and_then(|()| check_net_file(NET_PATH, drift_replay))
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("statserve: self-check failed: {e}");
            ExitCode::FAILURE
        }
    }
}
