//! The service's two load-bearing guarantees, under fire:
//!
//! 1. **Torture** — many reader threads estimate continuously while
//!    mutator threads churn the data and background workers refresh over
//!    *fault-injecting* storage. No reader may ever observe a
//!    partially-written entry or a stale-epoch regression.
//! 2. **Determinism** — the same driven workload, drained on 1 vs 4
//!    threads, must install a bit-identical catalog.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use samplehist_engine::{AnalyzeOptions, Predicate, Table};
use samplehist_service::{ServiceConfig, StalenessPolicy, StatsService};
use samplehist_storage::{FaultSpec, Layout};

fn build_table(name: &str, rows: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let uniform: Vec<i64> = (0..rows as i64).collect();
    let skewed: Vec<i64> = (0..rows).map(|i| (i as i64) % 97).collect();
    Table::builder(name)
        .column_with_blocking("uniform", uniform, 50, Layout::Random, &mut rng)
        .column_with_blocking("skewed", skewed, 50, Layout::Random, &mut rng)
        .build()
}

/// An eager staleness policy so the torture run actually exercises the
/// probe → re-ANALYZE pipeline instead of idling.
fn eager_staleness() -> StalenessPolicy {
    StalenessPolicy { mod_fraction: 0.05, min_mods: 64, ..StalenessPolicy::default() }
}

#[test]
fn torture_readers_never_see_partial_or_stale_entries() {
    let config = ServiceConfig {
        refresh_threads: 2,
        analyze: AnalyzeOptions::full_scan(40),
        staleness: eager_staleness(),
        backoff_base_ticks: 2,
        ..ServiceConfig::default()
    };
    let svc = StatsService::new(config);
    let rows = 20_000;
    svc.register_table(
        build_table("hot", rows, 1),
        Some(FaultSpec::healthy(2).with_transient(0.05, 2).with_unreadable(0.02)),
    );
    svc.register_table(build_table("cold", rows, 3), None);
    for (t, c) in [("hot", "uniform"), ("hot", "skewed"), ("cold", "uniform"), ("cold", "skewed")] {
        svc.refresh_now(t, c).expect("warm-up ANALYZE succeeds");
    }

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        // Mutators: churn both tables so staleness keeps firing.
        for m in 0..2u64 {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + m);
                while !stop.load(Ordering::Relaxed) {
                    let table = if rng.gen_bool(0.5) { "hot" } else { "cold" };
                    let column = if rng.gen_bool(0.5) { "uniform" } else { "skewed" };
                    assert!(svc.record_modifications(table, column, rng.gen_range(1..500)));
                    std::thread::yield_now();
                }
            });
        }
        // Readers: every answer must come from an internally consistent
        // snapshot, and per-column epochs must never run backwards.
        let mut readers = Vec::new();
        for r in 0..4u64 {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            readers.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(200 + r);
                let mut last_epoch = std::collections::HashMap::new();
                let mut answered = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let table = if rng.gen_bool(0.5) { "hot" } else { "cold" };
                    let column = if rng.gen_bool(0.5) { "uniform" } else { "skewed" };
                    let est = svc
                        .estimate_cardinality(table, column, &Predicate::Le(rng.gen_range(0..97)))
                        .expect("warmed-up columns always serve, even mid-refresh");
                    assert!(
                        est.rows.is_finite() && est.rows >= 0.0,
                        "nonsense estimate {est:?} — partially-written entry?"
                    );
                    let snap = svc.catalog().get(table, column).expect("present");
                    // Snapshot internal consistency: a torn install would
                    // break histogram totals against its own row count.
                    assert_eq!(snap.stats.histogram.total(), rows as u64);
                    assert_eq!(snap.stats.num_rows, rows as u64);
                    assert!(snap.mods_validated() >= snap.mods_at_build);
                    let seen = last_epoch.entry((table, column)).or_insert(0u64);
                    assert!(snap.epoch >= *seen, "epoch ran backwards: {} < {seen}", snap.epoch);
                    *seen = snap.epoch;
                    answered += 1;
                }
                answered
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
        let answered: u64 = readers.into_iter().map(|h| h.join().expect("reader")).sum();
        assert!(answered > 0, "readers made progress");
    });

    svc.wait_idle();
    let tally = svc.tally();
    assert!(svc.hits() > 0);
    assert!(svc.stale_hits() > 0, "churn was heavy enough to trip staleness");
    assert!(tally.probes > 0, "suspect columns were probed");
    assert_eq!(svc.misses(), 0, "all columns were warmed up");
    // Every column still serves after the storm.
    for (t, c) in [("hot", "uniform"), ("hot", "skewed"), ("cold", "uniform"), ("cold", "skewed")] {
        assert!(svc.estimate_cardinality(t, c, &Predicate::Ge(0)).is_some());
    }
}

#[test]
fn equijoin_serves_during_refresh_and_counts_misses() {
    let svc = StatsService::new(ServiceConfig {
        refresh_threads: 1,
        analyze: AnalyzeOptions::full_scan(30),
        ..ServiceConfig::default()
    });
    svc.register_table(build_table("l", 5_000, 10), None);
    svc.register_table(build_table("r", 5_000, 11), None);
    assert!(svc.estimate_equijoin("l", "skewed", "r", "skewed").is_none(), "no statistics yet");
    assert!(svc.misses() >= 1);
    svc.wait_idle(); // the misses queued refreshes; let them land
    let join = svc.estimate_equijoin("l", "skewed", "r", "skewed").expect("both sides ready");
    // 97 distinct values each side, ~51.5 rows per value: the System-R
    // shape says about 5000·5000/97 ≈ 258k output rows.
    assert!(join > 50_000.0 && join < 1_000_000.0, "implausible join estimate {join}");
}

#[test]
fn every_read_counts_as_a_hit_or_a_miss() {
    let svc = StatsService::new(ServiceConfig::deterministic(5));
    svc.register_table(build_table("t", 5_000, 12), None);
    let (mut estimates, mut batches, mut joins) = (0u64, 0u64, 0u64);
    let mut read = |table: &str, column: &str| {
        let _ = svc.estimate_cardinality(table, column, &Predicate::Le(10));
        let _ =
            svc.estimate_cardinality_batch(table, column, &[Predicate::Eq(3), Predicate::Gt(7)]);
        let _ = svc.estimate_equijoin(table, column, "t", "skewed");
        estimates += 1;
        batches += 1;
        joins += 1;
    };
    // Unknown table and unknown column: misses, and nothing to refresh
    // (the join's registered side queues one build).
    read("nope", "skewed");
    read("t", "nope");
    assert_eq!(svc.misses(), 8);
    assert_eq!(svc.queue_depth(), 1, "only t.skewed is queued");
    svc.drain(1);
    read("t", "skewed");
    read("t", "uniform");
    read("nope", "uniform");
    assert!(svc.hits() > 0);
    assert_eq!(svc.hits() + svc.misses(), estimates + batches + 2 * joins);
}

/// One fully driven deterministic episode; returns the canonical dump.
fn deterministic_episode(threads: usize) -> String {
    let config = ServiceConfig {
        analyze: AnalyzeOptions::adaptive(50),
        staleness: eager_staleness(),
        backoff_base_ticks: 8,
        ..ServiceConfig::deterministic(42)
    };
    let svc = StatsService::new(config);
    svc.register_table(build_table("hot", 30_000, 7), None);
    svc.register_table(
        build_table("flaky", 30_000, 8),
        Some(FaultSpec::healthy(9).with_transient(0.05, 2).with_unreadable(0.02)),
    );

    // Episode: misses queue builds → drain; churn → stale reads queue
    // probes/re-ANALYZEs → drain; more churn, more reads → drain.
    for (t, c) in [("hot", "uniform"), ("hot", "skewed"), ("flaky", "uniform"), ("flaky", "skewed")]
    {
        let _ = svc.estimate_cardinality(t, c, &Predicate::Le(10));
    }
    svc.drain(threads);
    svc.clock().advance(100);
    for (t, c) in [("hot", "uniform"), ("flaky", "skewed")] {
        svc.record_modifications(t, c, 25_000);
        let _ = svc.estimate_cardinality(t, c, &Predicate::Gt(50));
    }
    svc.drain(threads);
    svc.clock().advance(100);
    svc.record_modifications("flaky", "uniform", 10_000);
    let _ = svc.estimate_equijoin("hot", "uniform", "flaky", "uniform");
    svc.drain(threads);
    svc.dump()
}

#[test]
fn deterministic_mode_is_bit_identical_across_thread_counts() {
    let one = deterministic_episode(1);
    let four = deterministic_episode(4);
    assert!(!one.is_empty());
    assert!(one.contains("flaky.uniform") && one.contains("hot.skewed"), "all columns analyzed");
    assert_eq!(one, four, "1-thread and 4-thread drains must install identical catalogs");
    // And replay is stable, not just thread-independent.
    assert_eq!(one, deterministic_episode(1));
}
