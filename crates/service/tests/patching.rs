//! The escalation ladder, rung by rung:
//!
//! 1. **Rung 2 absorbs drift** — a failed probe over genuinely drifted
//!    data is repaired by patching the stored artifacts from the probe's
//!    own sample: epoch bumps, zero table reads beyond the probe, no
//!    full re-ANALYZE is paid for.
//! 2. **Rung 3 still exists** — when the patch is refused (probe sample
//!    too small for the policy), the ladder falls through to the full
//!    CVB re-ANALYZE exactly as before.
//! 3. **Determinism** — the whole episode, patch decisions included, is
//!    bit-identical drained on 1 vs 4 threads.

use rand::rngs::StdRng;
use rand::SeedableRng;
use samplehist_engine::{AnalyzeOptions, Predicate, Table};
use samplehist_service::{PatchPolicy, ServiceConfig, StalenessPolicy, StatsService};
use samplehist_storage::Layout;

const ROWS: usize = 20_000;

fn table_of(name: &str, values: Vec<i64>, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    Table::builder(name)
        .column_with_blocking("amount", values, 50, Layout::Random, &mut rng)
        .build()
}

fn ladder_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        analyze: AnalyzeOptions::full_scan(40),
        staleness: StalenessPolicy { mod_fraction: 0.05, min_mods: 64, ..Default::default() },
        ..ServiceConfig::deterministic(seed)
    }
}

/// Warm up on uniform data, drift the table hard (10× range compression
/// — the probe must fail), record enough writes to trip staleness, and
/// drain. Returns the canonical dump for the determinism comparison.
fn drift_episode(threads: usize, config: ServiceConfig) -> (std::sync::Arc<StatsService>, String) {
    let svc = StatsService::new(config);
    svc.register_table(table_of("orders", (0..ROWS as i64).collect(), 1), None);
    svc.refresh_now("orders", "amount").expect("warm-up ANALYZE");

    // Reload with everything squeezed into 0..2000: the stored histogram
    // now claims only ~10% of the rows sit below 2000 when all of them do.
    let drifted: Vec<i64> = (0..ROWS as i64).map(|i| i % 2_000).collect();
    svc.register_table(table_of("orders", drifted.clone(), 2), None);
    svc.record_modifications("orders", "amount", 10_000);

    // Execution feedback with the predicate attached, so the epoch's
    // worst observation carries its value range into the patch's nudge.
    let predicate = Predicate::Le(500);
    let predicted = svc
        .estimate_cardinality("orders", "amount", &predicate)
        .expect("stale snapshot still serves")
        .rows;
    let actual = drifted.iter().filter(|&&v| v <= 500).count() as f64;
    svc.record_actual_predicate("orders", "amount", &predicate, predicted, actual);

    // The stale estimate above queued the refresh; run the ladder.
    svc.drain(threads);
    let dump = svc.dump();
    (svc, dump)
}

#[test]
fn failed_probe_is_absorbed_by_a_patch_not_a_rebuild() {
    let (svc, _) = drift_episode(1, ladder_config(42));
    let tally = svc.tally();
    assert!(tally.probes >= 1, "staleness escalated to a probe");
    assert!(tally.patches >= 1, "the failed probe was repaired by a patch: {tally:?}");
    // The warm-up ANALYZE is the only full rebuild; the drift itself cost
    // nothing beyond the probe.
    assert_eq!(tally.full_reanalyzes, 1, "no O(table) rebuild was paid for the drift: {tally:?}");
    assert_eq!(tally.patch_rejects, 0, "{tally:?}");

    let snap = svc.catalog().get("orders", "amount").expect("still served");
    assert_eq!(snap.epoch, 2, "the patch installed a new epoch");
    assert!(
        snap.stats.method.starts_with("patched from probe"),
        "method records the rung: {}",
        snap.stats.method
    );
    // O(probe): the install's metered I/O is the probe sample (block
    // sampling may overshoot the cap by up to one 50-tuple block), a
    // fraction of the table, not a scan.
    assert!(snap.stats.io.tuples_read <= svc.config().staleness.max_probe_tuples + 50);
    assert!(snap.stats.io.tuples_read < ROWS as u64);
    assert_eq!(snap.accuracy.observations(), 0, "install swapped in a fresh ledger");

    // The patched snapshot actually repaired the estimate: all rows now
    // sit below 2000 and the histogram knows it.
    let est = svc
        .estimate_cardinality("orders", "amount", &Predicate::Le(2_000))
        .expect("patched snapshot serves")
        .rows;
    assert!(
        (est - ROWS as f64).abs() / ROWS as f64 <= 0.15,
        "patched estimate tracks the drifted data: {est} vs {ROWS}"
    );
}

#[test]
fn refused_patch_escalates_to_full_reanalyze() {
    // A policy demanding more build tuples per bucket than any probe can
    // carry: rung 2 must refuse and rung 3 must pay for the rebuild.
    let config = ServiceConfig {
        patch: PatchPolicy { min_sample_per_bucket: 1e6, ..PatchPolicy::default() },
        ..ladder_config(42)
    };
    let (svc, _) = drift_episode(1, config);
    let tally = svc.tally();
    assert!(tally.probes >= 1);
    assert_eq!(tally.patches, 0, "an impossible policy never installs a patch: {tally:?}");
    assert!(tally.full_reanalyzes >= 2, "the ladder fell through to CVB: {tally:?}");
    let snap = svc.catalog().get("orders", "amount").expect("still served");
    assert!(!snap.stats.method.starts_with("patched"), "{}", snap.stats.method);
}

#[test]
fn patch_decisions_are_bit_identical_across_thread_counts() {
    let (_, dump_1) = drift_episode(1, ladder_config(7));
    let (_, dump_4) = drift_episode(4, ladder_config(7));
    assert!(dump_1.contains("patched from probe"), "the episode exercised the patch rung");
    assert_eq!(dump_1, dump_4, "1-thread and 4-thread drains must be bit-identical");
    // Replay-stable too, not just thread-independent.
    let (_, again) = drift_episode(1, ladder_config(7));
    assert_eq!(dump_1, again);
}
