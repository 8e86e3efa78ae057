//! Fault-injected ANALYZE: graceful degradation, structured errors, and
//! bit-reproducibility of seeded runs (results *and* traces).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use samplehist_engine::{
    analyze, analyze_resilient, analyze_resilient_traced, AnalyzeError, AnalyzeMode,
    AnalyzeOptions, DegradationPolicy, ResilientStatistics, Table,
};
use samplehist_obs::{Event, MemorySink, Recorder};
use samplehist_storage::{
    FaultInjectingStorage, FaultSpec, HeapFile, Layout, RetryPolicy, Retrying,
};

fn orders_table(seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    Table::builder("orders")
        .column_with_blocking(
            "amount",
            (0..30_000).map(|i| i % 300).collect(),
            100,
            Layout::Random,
            &mut rng,
        )
        .build()
}

fn amount_file(table: &Table) -> &HeapFile {
    table.column("amount").expect("column exists").file()
}

fn flaky_spec(seed: u64) -> FaultSpec {
    FaultSpec::healthy(seed).with_transient(0.08, 3).with_unreadable(0.04).with_torn(0.02)
}

fn adaptive_opts() -> AnalyzeOptions {
    AnalyzeOptions {
        buckets: 20,
        mode: AnalyzeMode::Adaptive { target_f: 0.25, gamma: 0.05 },
        compressed: false,
    }
}

/// One run of the whole fault-injected pipeline with its own recorder.
fn traced_run(
    table_seed: u64,
    fault_seed: u64,
    rng_seed: u64,
) -> (ResilientStatistics, Vec<Event>) {
    let table = orders_table(table_seed);
    let storage = Retrying::new(
        FaultInjectingStorage::new(amount_file(&table), flaky_spec(fault_seed)),
        RetryPolicy::default(),
    );
    let sink = Arc::new(MemorySink::new());
    let recorder = Recorder::new(sink.clone());
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let result = analyze_resilient_traced(
        "orders",
        "amount",
        &storage,
        &adaptive_opts(),
        &DegradationPolicy::default(),
        &mut rng,
        &recorder,
    )
    .expect("storage is mostly healthy");
    recorder.flush();
    (result, sink.events())
}

/// An event with every wall-clock quantity erased: what must be identical
/// between two runs of the same seeded pipeline.
fn normalize(event: &Event) -> String {
    match event {
        Event::SpanStart { id, parent, name, .. } => format!("start {id} {parent:?} {name}"),
        Event::SpanEnd { id, name, fields, .. } => format!("end {id} {name} {fields:?}"),
        Event::Counter { name, delta, .. } => format!("counter {name} {delta}"),
        Event::Gauge { name, value, .. } => format!("gauge {name} {value}"),
        // Timings observe durations; only their presence is deterministic.
        Event::Timing { name, .. } => format!("timing {name}"),
        Event::Observation { name, label, value, .. } => {
            format!("observation {name} {label} {value}")
        }
    }
}

#[test]
fn seeded_fault_injection_is_bit_reproducible() {
    let (a, trace_a) = traced_run(1, 42, 7);
    let (b, trace_b) = traced_run(1, 42, 7);
    assert_eq!(a, b, "same fault schedule + same RNG seed must reproduce the result exactly");
    assert!(a.degradation.degraded, "the schedule injects real faults");
    let norm_a: Vec<String> = trace_a.iter().map(normalize).collect();
    let norm_b: Vec<String> = trace_b.iter().map(normalize).collect();
    assert_eq!(norm_a, norm_b, "traces must be identical, timestamps aside");

    // And a different fault seed really produces a different run.
    let (c, _) = traced_run(1, 43, 7);
    assert_ne!(a, c, "a different fault schedule must be observable");
}

/// `analyze` is the resilient acquisition over a heap file that never
/// fails a read, so on healthy storage the two agree in every
/// page-granular mode — statistics, I/O bill and method string.
#[test]
fn resilient_on_healthy_storage_matches_plain_analyze() {
    let table = orders_table(11);
    for mode in [
        AnalyzeMode::FullScan,
        AnalyzeMode::BlockSample { rate: 0.1 },
        AnalyzeMode::BlockSample { rate: 0.5 },
        AnalyzeMode::Adaptive { target_f: 0.25, gamma: 0.05 },
    ] {
        let opts = AnalyzeOptions { buckets: 20, mode, compressed: true };
        let mut rng = StdRng::seed_from_u64(13);
        let plain = analyze(&table, "amount", &opts, &mut rng).expect("column exists");

        let storage = FaultInjectingStorage::new(amount_file(&table), FaultSpec::healthy(5));
        let mut rng = StdRng::seed_from_u64(13);
        let resilient = analyze_resilient(
            "orders",
            "amount",
            &storage,
            &opts,
            &DegradationPolicy::default(),
            &mut rng,
        )
        .expect("healthy storage");

        assert!(!resilient.degradation.degraded, "{mode:?}");
        assert_eq!(
            resilient.stats, plain,
            "{mode:?}: no faults ⇒ the degraded path is the plain path"
        );
    }
}

#[test]
fn degraded_run_reports_losses_and_emits_counters() {
    let (result, events) = traced_run(17, 99, 19);
    let report = result.degradation;
    assert!(report.degraded);
    assert!(report.blocks_failed > 0);
    assert!(report.effective_target_f >= 0.25 || !result.stats.method.contains("degraded"));
    assert_eq!(result.stats.histogram.num_buckets(), 20);
    assert_eq!(result.stats.histogram.total(), 30_000, "histogram stays scaled to the relation");

    let counter_total = |wanted: &str| -> u64 {
        events
            .iter()
            .filter_map(|e| match e {
                Event::Counter { name, delta, .. } if *name == wanted => Some(*delta),
                _ => None,
            })
            .sum()
    };
    assert_eq!(counter_total("cvb.blocks_failed") as usize, report.blocks_failed);
    assert_eq!(counter_total("analyze.degraded"), 1);
    // The root span records the degradation for trace consumers.
    let root_degraded = events.iter().any(|e| {
        matches!(e, Event::SpanEnd { name: "analyze", fields, .. }
            if fields.iter().any(|(k, v)| *k == "degraded" && *v == samplehist_obs::Value::Bool(true)))
    });
    assert!(root_degraded, "analyze span must carry degraded=true");
}

#[test]
fn unreadable_table_is_a_structured_error_in_every_mode() {
    let table = orders_table(23);
    let dead =
        FaultInjectingStorage::new(amount_file(&table), FaultSpec::healthy(3).with_unreadable(1.0));
    for mode in [
        AnalyzeMode::FullScan,
        AnalyzeMode::BlockSample { rate: 0.2 },
        AnalyzeMode::Adaptive { target_f: 0.25, gamma: 0.05 },
    ] {
        let opts = AnalyzeOptions { buckets: 10, mode, compressed: false };
        let mut rng = StdRng::seed_from_u64(29);
        let err = analyze_resilient(
            "orders",
            "amount",
            &dead,
            &opts,
            &DegradationPolicy::default(),
            &mut rng,
        )
        .expect_err("nothing is readable");
        match err {
            AnalyzeError::TableUnreadable { table, column, blocks_tried } => {
                assert_eq!(table, "orders");
                assert_eq!(column, "amount");
                assert!(blocks_tried > 0);
            }
            other => panic!("wrong error for {mode:?}: {other:?}"),
        }
    }
}

#[test]
fn row_sampling_is_rejected_on_fallible_storage() {
    let table = orders_table(31);
    let storage = FaultInjectingStorage::new(amount_file(&table), FaultSpec::healthy(1));
    let opts = AnalyzeOptions {
        buckets: 10,
        mode: AnalyzeMode::RowSample { rate: 0.1 },
        compressed: false,
    };
    let mut rng = StdRng::seed_from_u64(37);
    let err = analyze_resilient(
        "orders",
        "amount",
        &storage,
        &opts,
        &DegradationPolicy::default(),
        &mut rng,
    )
    .expect_err("row sampling needs tuple addressing");
    assert_eq!(err, AnalyzeError::UnsupportedMode { mode: "row_sample" });
}

#[test]
fn degraded_full_scan_scales_to_the_relation() {
    let table = orders_table(41);
    let file = amount_file(&table);
    let spec = FaultSpec::healthy(8).with_unreadable(0.1);
    let dead_pages = (0..file.num_pages())
        .filter(|&p| spec.fault_of(p) != samplehist_storage::PageFault::None)
        .count();
    assert!(dead_pages > 0, "schedule must kill some of the 300 pages");

    let storage = FaultInjectingStorage::new(file, spec);
    let opts = AnalyzeOptions::full_scan(20);
    let mut rng = StdRng::seed_from_u64(43);
    let result = analyze_resilient(
        "orders",
        "amount",
        &storage,
        &opts,
        &DegradationPolicy::default(),
        &mut rng,
    )
    .expect("most pages survive");
    assert_eq!(result.degradation.blocks_failed, dead_pages);
    assert!(result.stats.method.contains("degraded scan"));
    assert_eq!(result.stats.histogram.total(), 30_000, "lost pages ⇒ scaled like a sample");
    assert_eq!(result.stats.sample_size as usize, (file.num_pages() - dead_pages) * 100);
}

/// The scan reports its page reads through the storage counters, so a
/// degraded scan's trace bills exactly the pages that survived.
#[test]
fn degraded_full_scan_trace_counts_the_pages_read() {
    let table = orders_table(41);
    let file = amount_file(&table);
    let spec = FaultSpec::healthy(8).with_unreadable(0.1);
    let dead_pages = (0..file.num_pages())
        .filter(|&p| spec.fault_of(p) != samplehist_storage::PageFault::None)
        .count();
    assert!(dead_pages > 0, "schedule must kill some of the 300 pages");

    let storage = FaultInjectingStorage::new(file, spec);
    let sink = Arc::new(MemorySink::new());
    let recorder = Recorder::new(sink.clone());
    let mut rng = StdRng::seed_from_u64(43);
    let result = analyze_resilient_traced(
        "orders",
        "amount",
        &storage,
        &AnalyzeOptions::full_scan(20),
        &DegradationPolicy::default(),
        &mut rng,
        &recorder,
    )
    .expect("most pages survive");
    recorder.flush();

    let counter_total = |wanted: &str| -> u64 {
        sink.events()
            .iter()
            .filter_map(|e| match e {
                Event::Counter { name, delta, .. } if *name == wanted => Some(*delta),
                _ => None,
            })
            .sum()
    };
    let live_pages = (file.num_pages() - dead_pages) as u64;
    assert_eq!(counter_total("storage.pages_read"), live_pages);
    assert_eq!(counter_total("storage.tuples_read"), result.stats.sample_size);
    assert_eq!(result.stats.io.pages_read, live_pages, "trace and I/O meter agree");
    assert_eq!(counter_total("analyze.blocks_failed") as usize, dead_pages);
}
