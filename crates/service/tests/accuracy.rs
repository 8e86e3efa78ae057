//! The feedback-driven staleness path, end to end:
//!
//! 1. A **sustained q-error breach with zero table writes** must escalate
//!    to a Theorem-7 probe, and — when the data really drifted — a full
//!    re-ANALYZE. The whole episode is deterministic: `dump()` is
//!    bit-identical drained on 1 vs 4 threads, with global recording
//!    enabled.
//! 2. When the statistics still fit the data (the workload lied, not the
//!    histogram), the probe **passes** and the ledger resets, so the
//!    column doesn't thrash.
//! 3. The std-only HTTP responder serves valid Prometheus text at
//!    `/metrics` and well-formed JSON at `/accuracy`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Once};

use rand::rngs::StdRng;
use rand::SeedableRng;
use samplehist_engine::{AnalyzeOptions, Predicate, Table};
use samplehist_obs::json::{self, Json};
use samplehist_obs::prom::validate_exposition;
use samplehist_service::{
    accuracy_json, render_metrics, AccuracyPolicy, MetricsServer, PatchPolicy, ServiceConfig,
    StatsService,
};
use samplehist_storage::Layout;

/// The satellite requirement says the determinism episode must hold
/// *with recording enabled*: install an aggregating global sink once for
/// the whole test binary (first install wins process-wide).
fn enable_recording() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let sink = Arc::new(samplehist_obs::PromSink::new());
        samplehist_obs::set_global(samplehist_obs::Recorder::new(sink));
    });
}

fn table_of(name: &str, values: Vec<i64>, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    Table::builder(name)
        .column_with_blocking("amount", values, 50, Layout::Random, &mut rng)
        .build()
}

fn accuracy_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        analyze: AnalyzeOptions::full_scan(40),
        accuracy: AccuracyPolicy { min_observations: 32, ..AccuracyPolicy::default() },
        // This file exercises rung 3 (probe fail → full re-ANALYZE) in
        // isolation: no probe carries a million build tuples per bucket,
        // so rung 2 always refuses. The patch rung has its own episode
        // in patching.rs.
        patch: PatchPolicy { min_sample_per_bucket: 1e6, ..PatchPolicy::default() },
        ..ServiceConfig::deterministic(seed)
    }
}

/// Drive the drift episode and return the canonical dump.
///
/// Stats are built over uniform data, then the table is *reloaded* with
/// heavily duplicated values — and crucially, zero modifications are
/// ever recorded, so the mod-counter staleness path stays silent. Only
/// execution feedback can notice the rot.
fn drift_episode(threads: usize) -> (String, u64, u64, u64) {
    enable_recording();
    let rows = 20_000usize;
    let svc = StatsService::new(accuracy_config(7));
    svc.register_table(table_of("orders", (0..rows as i64).collect(), 1), None);
    svc.refresh_now("orders", "amount").expect("warm-up ANALYZE");
    let warm_epoch = svc.catalog().get("orders", "amount").expect("warmed").epoch;

    // Reload: every value now lands in 0..100, each duplicated 200×.
    let drifted: Vec<i64> = (0..rows as i64).map(|i| i % 100).collect();
    svc.register_table(table_of("orders", drifted.clone(), 2), None);

    // Execution feedback: predict from the (stale) snapshot, observe the
    // truth on the drifted data. Not a single write is recorded.
    for x in 0..40i64 {
        let bound = x * 2;
        let predicted = svc
            .estimate_cardinality("orders", "amount", &Predicate::Le(bound))
            .expect("snapshot serves")
            .rows;
        let actual = drifted.iter().filter(|&&v| v <= bound).count() as f64;
        let q = svc
            .record_actual("orders", "amount", &format!("amount <= {bound}"), predicted, actual)
            .expect("snapshot exists to attribute feedback to");
        assert!(q >= 1.0);
    }
    assert!(svc.accuracy_breaches() > 0, "sustained rot must register as breaches");
    assert!(svc.queue_depth() > 0, "a breach queues a refresh despite zero writes");

    let before = svc.tally();
    svc.drain(threads);
    let after = svc.tally();
    let new_epoch = svc.catalog().get("orders", "amount").expect("still served").epoch;
    assert_eq!(warm_epoch, 1);
    (
        svc.dump(),
        after.probes - before.probes,
        after.full_reanalyzes - before.full_reanalyzes,
        new_epoch,
    )
}

#[test]
fn qerror_breach_with_zero_writes_escalates_probe_then_reanalyze() {
    let (dump_1, probes, reanalyzes, epoch) = drift_episode(1);
    assert!(probes >= 1, "the breach must escalate to a Theorem-7 probe first");
    assert!(reanalyzes >= 1, "a probe over drifted data must fail into a full re-ANALYZE");
    assert_eq!(epoch, 2, "the re-ANALYZE installed a new snapshot");
    // The new epoch starts with a clean ledger (reset-on-install).
    assert!(dump_1.contains("qerr_obs=0"), "fresh ledger after install:\n{dump_1}");

    let (dump_4, ..) = drift_episode(4);
    assert_eq!(dump_1, dump_4, "1-thread and 4-thread drains must be bit-identical");
}

#[test]
fn breach_against_healthy_stats_passes_probe_and_rearms_ledger() {
    enable_recording();
    let rows = 20_000usize;
    let svc = StatsService::new(accuracy_config(11));
    svc.register_table(table_of("orders", (0..rows as i64).collect(), 3), None);
    svc.refresh_now("orders", "amount").expect("warm-up ANALYZE");

    // The data never changes; the workload reports wildly wrong actuals
    // (say, a correlated join the estimator can't see).
    for x in 0..40i64 {
        let predicted = svc
            .estimate_cardinality("orders", "amount", &Predicate::Le(x * 100))
            .expect("snapshot serves")
            .rows;
        svc.record_actual(
            "orders",
            "amount",
            &format!("amount <= {} AND region = 'EU'", x * 100),
            predicted,
            predicted * 8.0 + 100.0,
        );
    }
    assert!(svc.accuracy_breaches() > 0);
    let before = svc.tally();
    svc.drain(1);
    let after = svc.tally();
    assert!(after.probes > before.probes, "the breach was probed");
    assert_eq!(
        after.probe_passes - before.probe_passes,
        after.probes - before.probes,
        "healthy statistics survive the probe"
    );
    assert_eq!(after.full_reanalyzes, before.full_reanalyzes, "no re-ANALYZE was paid for");

    let snap = svc.catalog().get("orders", "amount").expect("served");
    assert_eq!(snap.epoch, 1, "the original snapshot is still serving");
    assert_eq!(snap.accuracy.observations(), 0, "a passed probe re-arms the ledger");
    assert!(snap.accuracy.worst().is_none());
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("response has a head and a body");
    (head.to_string(), body.to_string())
}

#[test]
fn metrics_endpoints_serve_valid_prometheus_and_json() {
    enable_recording();
    let svc = StatsService::new(accuracy_config(13));
    svc.register_table(table_of("orders", (0..5_000).collect(), 5), None);
    svc.refresh_now("orders", "amount").expect("warm-up ANALYZE");
    let _ = svc.estimate_cardinality("orders", "amount", &Predicate::Le(100));
    svc.record_actual("orders", "amount", "amount <= 100", 101.0, 101.0);

    let server = MetricsServer::start(&svc, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();

    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    validate_exposition(&body).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{body}"));
    for needle in [
        "samplehist_service_queries_total{outcome=\"hit\"}",
        "samplehist_service_refresh_total{event=\"completed\"}",
        "samplehist_service_queue_depth",
        "samplehist_service_qerror{table=\"orders\",column=\"amount\",quantile=\"0.5\"}",
        "samplehist_service_qerror{table=\"orders\",column=\"amount\",quantile=\"0.95\"}",
        "samplehist_service_qerror{table=\"orders\",column=\"amount\",quantile=\"0.99\"}",
        "samplehist_service_qerror_count{table=\"orders\",column=\"amount\"} 1",
    ] {
        assert!(body.contains(needle), "missing {needle:?} in:\n{body}");
    }
    // The socket serves exactly what the pure renderer produces.
    assert_eq!(body, render_metrics(&svc));

    let (head, body) = http_get(addr, "/accuracy");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.contains("application/json"), "{head}");
    assert_eq!(body, accuracy_json(&svc));
    let doc = json::parse(&body).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{body}"));
    assert!(doc.get("breaches").and_then(Json::as_u64).is_some());
    let Some(Json::Arr(columns)) = doc.get("columns") else {
        panic!("columns must be an array: {body}");
    };
    assert_eq!(columns.len(), 1);
    let col = &columns[0];
    assert_eq!(col.get("table").and_then(Json::as_str), Some("orders"));
    assert_eq!(col.get("column").and_then(Json::as_str), Some("amount"));
    assert_eq!(col.get("observations").and_then(Json::as_u64), Some(1));
    assert_eq!(col.get("worst").and_then(|w| w.get("qerror")).and_then(Json::as_f64), Some(1.0));

    let (head, _) = http_get(addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    server.stop();
}
