//! # samplehist-parallel
//!
//! Dependency-free data-parallel map, built on [`std::thread::scope`].
//! The workspace builds with no external crates, so the one piece of
//! `rayon`'s API it needs — an order-preserving parallel map — is
//! implemented here directly. Its callers fan out independent work: the
//! bench harness's experiment trials, the seeded chunked materializers
//! of `samplehist-data`, and the statistics service's refresh batches
//! and simulated tenants. Histogram construction does not fork.
//!
//! ## Determinism policy
//!
//! [`par_map`] is **bit-deterministic regardless of thread count**: it
//! writes each result into the slot of its input index, so the output
//! order equals the input order no matter which thread ran which item;
//! callers reduce the returned vector sequentially.
//!
//! ## Thread-count policy
//!
//! [`num_threads`] reads `SAMPLEHIST_THREADS` once (then caches); when
//! unset it uses [`std::thread::available_parallelism`]. With one thread
//! the map degrades to the serial code path — no threads are spawned, no
//! overhead is paid — which also keeps single-core CI runs honest.
//! [`par_map_threads`] takes an explicit count so tests can exercise the
//! parallel path deterministically without touching global state.
//!
//! ## Observability
//!
//! The parallel branch reports its fan-out through the process-wide
//! [`samplehist_obs::global`] recorder: the `parallel.tasks_spawned` and
//! `parallel.par_map.calls` counters, a `parallel.threads` gauge, and
//! per-chunk `parallel.chunk_ns` timings.
//! With no recorder installed (the default) each check is one relaxed
//! atomic load; the serial fallback is never instrumented, so the
//! single-thread path stays exactly as cheap as before.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::OnceLock;
use std::time::Instant;

/// Worker-thread budget: `SAMPLEHIST_THREADS` if set and positive,
/// otherwise the machine's available parallelism. Cached after first read.
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("SAMPLEHIST_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

/// Order-preserving parallel map with the default thread budget.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_threads(num_threads(), items, f)
}

/// Order-preserving parallel map with an explicit thread count.
///
/// Results are returned in input order whatever the schedule; with
/// `threads <= 1` the map runs serially on the calling thread.
pub fn par_map_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let recorder = samplehist_obs::global();
    if recorder.is_enabled() {
        recorder.counter("parallel.par_map.calls", 1);
        recorder.counter("parallel.tasks_spawned", items.len().div_ceil(chunk) as u64);
        recorder.gauge("parallel.threads", threads as f64);
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    std::thread::scope(|s| {
        for (in_chunk, out_chunk) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let f = &f;
            let recorder = &recorder;
            s.spawn(move || {
                let start = recorder.is_enabled().then(Instant::now);
                for (slot, item) in out_chunk.iter_mut().zip(in_chunk) {
                    *slot = Some(f(item));
                }
                if let Some(start) = start {
                    recorder.timing("parallel.chunk_ns", start.elapsed().as_nanos() as u64);
                }
            });
        }
    });
    out.into_iter().map(|r| r.expect("every slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..103).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 200] {
            assert_eq!(par_map_threads(threads, &items, |&x| x * x), expect);
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u64> = vec![];
        assert!(par_map_threads(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map_threads(4, &[9u64], |&x| x + 1), vec![10]);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn panics_propagate() {
        let _ = par_map_threads(2, &[1u64, 2], |&x| if x == 2 { panic!("boom") } else { x });
    }

    #[test]
    fn fanout_is_reported_when_a_recorder_is_installed() {
        // Installs the process-global recorder: other tests in this
        // binary may also record into the sink, so assertions are
        // lower bounds on *our* traffic, checked via counter totals.
        use samplehist_obs::{MemorySink, PromSink, Recorder};
        use std::sync::Arc;
        let prom = Arc::new(PromSink::new());
        let mem = Arc::new(MemorySink::new());
        samplehist_obs::set_global(Recorder::with_sinks(vec![prom.clone(), mem.clone()]));

        let items: Vec<u64> = (0..1000).collect();
        let out = par_map_threads(4, &items, |&x| x + 1);
        assert_eq!(out.len(), 1000);
        assert!(prom.counter_value("parallel.tasks_spawned").unwrap_or(0) >= 4);
        assert!(prom.counter_value("parallel.par_map.calls").unwrap_or(0) >= 1);
        let chunk_timings = mem.events().iter().filter(|e| e.name() == "parallel.chunk_ns").count();
        assert!(chunk_timings >= 4, "per-chunk timings recorded, got {chunk_timings}");
    }
}
