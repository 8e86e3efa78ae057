//! Trace-shape and determinism tests for `analyze_traced`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use samplehist_engine::{analyze, analyze_traced, AnalyzeMode, AnalyzeOptions, Table};
use samplehist_obs::{Event, MemorySink, Recorder, Value};
use samplehist_storage::Layout;

fn orders_table(seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    Table::builder("orders")
        .column_with_blocking(
            "amount",
            (0..20_000).map(|i| i % 200).collect(),
            100,
            Layout::Random,
            &mut rng,
        )
        .build()
}

fn span_end_names(events: &[Event]) -> Vec<&'static str> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::SpanEnd { name, .. } => Some(*name),
            _ => None,
        })
        .collect()
}

#[test]
fn analyze_trace_covers_every_phase() {
    let table = orders_table(1);
    let sink = Arc::new(MemorySink::new());
    let recorder = Recorder::new(sink.clone());
    let mut rng = StdRng::seed_from_u64(2);
    let opts = AnalyzeOptions {
        buckets: 20,
        mode: AnalyzeMode::BlockSample { rate: 0.1 },
        compressed: false,
    };
    analyze_traced(&table, "amount", &opts, &mut rng, &recorder).expect("column exists");

    let events = sink.events();
    let names = span_end_names(&events);
    for expected in
        ["analyze", "analyze.acquire", "analyze.sort", "analyze.build", "analyze.estimate"]
    {
        assert!(names.contains(&expected), "missing {expected:?} span in {names:?}");
    }
    // The block sampler reports its page reads into the same trace.
    assert!(names.contains(&"storage.read"), "sampler I/O missing from {names:?}");
    assert!(
        events.iter().any(
            |e| matches!(e, Event::Counter { name: "storage.pages_read", delta, .. } if *delta > 0)
        ),
        "storage counters missing"
    );

    // Phase spans are children of the analyze root.
    let root_id = events
        .iter()
        .find_map(|e| match e {
            Event::SpanStart { id, name: "analyze", .. } => Some(*id),
            _ => None,
        })
        .expect("root span present");
    for e in &events {
        if let Event::SpanStart { parent, name, .. } = e {
            if name.starts_with("analyze.") {
                assert_eq!(*parent, Some(root_id), "{name} must nest under analyze");
            }
        }
    }
    // The page reads nest under the phase that made them.
    let acquire_id = events
        .iter()
        .find_map(|e| match e {
            Event::SpanStart { id, name: "analyze.acquire", .. } => Some(*id),
            _ => None,
        })
        .expect("acquire span present");
    for e in &events {
        if let Event::SpanStart { parent, name: "storage.read", .. } = e {
            assert_eq!(*parent, Some(acquire_id), "storage.read must nest under analyze.acquire");
        }
    }
}

#[test]
fn adaptive_analyze_trace_contains_the_cvb_rounds() {
    let table = orders_table(3);
    let sink = Arc::new(MemorySink::new());
    let recorder = Recorder::new(sink.clone());
    let mut rng = StdRng::seed_from_u64(4);
    let opts = AnalyzeOptions {
        buckets: 20,
        mode: AnalyzeMode::Adaptive { target_f: 0.2, gamma: 0.05 },
        compressed: false,
    };
    let stats = analyze_traced(&table, "amount", &opts, &mut rng, &recorder).expect("ok");

    let names = span_end_names(&sink.events());
    assert!(names.contains(&"cvb.run"), "adaptive mode must trace the CVB loop: {names:?}");
    let rounds = names.iter().filter(|n| **n == "cvb.round").count();
    assert!(rounds > 0, "no cvb.round spans recorded");
    assert!(stats.method.contains("adaptive CVB"));
}

/// The `analyze.sort` span's `route` and `counting`: a full scan reads
/// storage order and sorts it, by counting when the column spans at most
/// eight times its length; CVB hands back its sample already sorted.
#[test]
fn analyze_sort_span_reports_its_route() {
    let wide = {
        let mut rng = StdRng::seed_from_u64(8);
        let values = (0..20_000).map(|i| i * 1_000).collect();
        Table::builder("orders")
            .column_with_blocking("amount", values, 100, Layout::Random, &mut rng)
            .build()
    };
    let adaptive = AnalyzeMode::Adaptive { target_f: 0.2, gamma: 0.05 };
    for (table, mode, route, counting) in [
        (orders_table(7), AnalyzeMode::FullScan, "sorted", true),
        (wide, AnalyzeMode::FullScan, "sorted", false),
        (orders_table(7), adaptive, "presorted", false),
    ] {
        let sink = Arc::new(MemorySink::new());
        let recorder = Recorder::new(sink.clone());
        let opts = AnalyzeOptions { buckets: 20, mode, compressed: false };
        let mut rng = StdRng::seed_from_u64(7);
        analyze_traced(&table, "amount", &opts, &mut rng, &recorder).expect("ok");
        let fields: Vec<(Value, Value)> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::SpanEnd { name: "analyze.sort", fields, .. } => {
                    let get =
                        |key: &str| fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v.clone());
                    Some((get("route")?, get("counting")?))
                }
                _ => None,
            })
            .collect();
        assert_eq!(fields, vec![(Value::from(route), Value::from(counting))], "{mode:?}");
    }
}

/// Tracing must not change the statistics: same table, same seed, with
/// and without a recorder → identical output.
#[test]
fn traced_analyze_matches_untraced_analyze() {
    for mode in [
        AnalyzeMode::FullScan,
        AnalyzeMode::RowSample { rate: 0.05 },
        AnalyzeMode::BlockSample { rate: 0.1 },
        AnalyzeMode::Adaptive { target_f: 0.2, gamma: 0.05 },
    ] {
        let table = orders_table(5);
        let opts = AnalyzeOptions { buckets: 20, mode, compressed: true };
        let mut rng = StdRng::seed_from_u64(6);
        let bare = analyze(&table, "amount", &opts, &mut rng).expect("ok");
        let recorder = Recorder::new(Arc::new(MemorySink::new()));
        let mut rng = StdRng::seed_from_u64(6);
        let traced = analyze_traced(&table, "amount", &opts, &mut rng, &recorder).expect("ok");

        assert_eq!(traced.histogram, bare.histogram, "{mode:?}");
        assert_eq!(traced.compressed, bare.compressed, "{mode:?}");
        assert_eq!(traced.sample_size, bare.sample_size, "{mode:?}");
        assert_eq!(traced.distinct_in_sample, bare.distinct_in_sample, "{mode:?}");
        assert_eq!(traced.distinct_estimate, bare.distinct_estimate, "{mode:?}");
        assert_eq!(traced.density, bare.density, "{mode:?}");
        assert_eq!(traced.io, bare.io, "{mode:?}");
        assert_eq!(traced.method, bare.method, "{mode:?}");
    }
}
