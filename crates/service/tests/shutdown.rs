//! Dropping the last `Arc<StatsService>` while a refresh is running.
//!
//! The refresh thread holds the service alive until its job ends, so the
//! service's `Drop` then runs on that refresh thread. It must shut the
//! queue down and join the *other* refresh threads without joining its
//! own, which would fail with a deadlock error and panic the worker. The
//! job itself must not install what nobody can read any more.
//!
//! A panic hook and the global recorder are process-wide, so this test
//! lives in its own binary.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use samplehist_engine::{AnalyzeOptions, Predicate, Table};
use samplehist_obs::{PromSink, Recorder};
use samplehist_service::{ServiceConfig, StatsService};
use samplehist_storage::Layout;

/// Panics seen on the service's own threads (named `samplehist-…`).
static SERVICE_PANICS: AtomicUsize = AtomicUsize::new(0);
static PANIC_MESSAGES: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn count_service_thread_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let thread = std::thread::current();
        let name = thread.name().unwrap_or("");
        if name.starts_with("samplehist-") {
            SERVICE_PANICS.fetch_add(1, Ordering::SeqCst);
            PANIC_MESSAGES.lock().expect("messages lock").push(format!("{name}: {info}"));
        }
        default_hook(info);
    }));
}

#[test]
fn dropping_the_service_mid_refresh_panics_no_refresh_thread() {
    count_service_thread_panics();
    let prom = Arc::new(PromSink::new());
    samplehist_obs::set_global(Recorder::with_sinks(vec![prom.clone()]));
    // Values 16 apart span about 16n, wider than `sort_values` counts
    // (8n): the full scan pays a comparison sort of 2M rows, which keeps
    // it running well past the 20 ms wait below.
    let rows = 2_000_000i64;
    let mut rng = StdRng::seed_from_u64(11);
    let table = Table::builder("orders")
        .column_with_blocking(
            "amount",
            (0..rows).map(|v| 16 * v).collect(),
            100,
            Layout::Random,
            &mut rng,
        )
        .build();
    let svc = StatsService::new(ServiceConfig {
        refresh_threads: 2,
        analyze: AnalyzeOptions::full_scan(100),
        ..ServiceConfig::default()
    });
    svc.register_table(table, None);

    // A miss queues the column's first ANALYZE; once a refresh thread has
    // popped it the queue is empty and the full scan is in flight.
    assert!(svc.estimate_cardinality("orders", "amount", &Predicate::Le(10)).is_none());
    let deadline = Instant::now() + Duration::from_secs(60);
    while svc.queue_depth() > 0 {
        assert!(Instant::now() < deadline, "no refresh thread picked the job up");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Let the refresh thread upgrade its handle on the service, so the
    // drop below lands on that thread when the scan ends.
    std::thread::sleep(Duration::from_millis(20));

    let weak = Arc::downgrade(&svc);
    drop(svc);
    assert!(weak.strong_count() > 0, "the refresh finished before the drop: nothing was tested");
    let deadline = Instant::now() + Duration::from_secs(120);
    while weak.strong_count() > 0 {
        assert!(Instant::now() < deadline, "the in-flight refresh never finished");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The service's `Drop` now runs on the refresh thread; give it time
    // to shut down and join its sibling.
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(
        SERVICE_PANICS.load(Ordering::SeqCst),
        0,
        "a refresh thread panicked during shutdown: {:?}",
        PANIC_MESSAGES.lock().expect("messages lock")
    );
    // The scan ended after the last user let go: its statistics were
    // dropped, not installed into the unreachable catalog.
    assert_eq!(prom.counter_value("service.refresh.completed"), None, "nothing was installed");
    assert_eq!(prom.counter_value("service.refresh.abandoned"), Some(1));
}
