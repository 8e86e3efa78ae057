//! # samplehist-parallel
//!
//! Dependency-free data-parallel primitives for the histogram pipeline,
//! built on [`std::thread::scope`]. The workspace builds with no external
//! crates, so the small slice of `rayon`'s API the pipeline needs — an
//! order-preserving parallel map (shared or mutable items) and chunked
//! map/reduce — is implemented here directly.
//!
//! ## Determinism policy
//!
//! Every primitive is **bit-deterministic regardless of thread count**:
//!
//! * [`par_map`] (and the in-place [`par_map_mut_threads`]) writes each
//!   result into the slot of its input index, so the output order equals
//!   the input order no matter which thread ran which item; callers
//!   reduce the returned vector sequentially.
//! * [`par_chunks_map`] splits a slice at positions that depend only on
//!   the requested chunk count, never on timing.
//!
//! ## Thread-count policy
//!
//! [`num_threads`] reads `SAMPLEHIST_THREADS` once (then caches); when
//! unset it uses [`std::thread::available_parallelism`]. With one thread
//! every primitive degrades to the serial code path — no threads are
//! spawned, no overhead is paid — which also keeps single-core CI runs
//! honest. The `*_threads` variants take an explicit count so tests can
//! exercise the parallel paths deterministically without touching global
//! state.
//!
//! ## Observability
//!
//! The parallel branches report their fan-out through the process-wide
//! [`samplehist_obs::global`] recorder: `parallel.tasks_spawned` /
//! `parallel.*.calls` counters, a `parallel.threads` gauge, and
//! per-chunk `parallel.chunk_ns` timings.
//! With no recorder installed (the default) each check is one relaxed
//! atomic load; serial fallbacks are never instrumented, so the
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

/// Fewest elements a radix rank-resolution pass (`min_max`, a counting
/// pass, or one level's per-slice job fan-out) must split before it
/// forks. Each worker of a counting pass zeroes and reduces its own
/// counter array of up to 2^21 entries, so the fork pays only on large
/// levels. Measured on a 2-vCPU host, 600 buckets, threads 1 vs 2, over
/// duplicate-heavy uniform, shuffled Zipf(1) and 2^40-wide columns, with
/// every pass forking: 2 threads ran 0.75–1.20× as fast at 2^19 values,
/// 0.98–1.38× at 2^20 (the wide column ties) and 1.11–1.81× at 2^21.
pub const RADIX_FORK_MIN_LEN: usize = 1 << 20;

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

/// Order-preserving parallel map over **mutable** items with an explicit
/// thread count: like [`par_map_threads`], but the mapper gets `&mut T`,
/// so work that rearranges its input in place (the radix resolver sorts
/// gathered slices this way) needs no defensive clone. Results land in
/// the slot of their input index; with `threads <= 1` the map runs
/// serially on the calling thread.
pub fn par_map_mut_threads<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter_mut().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let recorder = samplehist_obs::global();
    if recorder.is_enabled() {
        recorder.counter("parallel.par_map_mut.calls", 1);
        recorder.counter("parallel.tasks_spawned", items.len().div_ceil(chunk) as u64);
        recorder.gauge("parallel.threads", threads as f64);
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    std::thread::scope(|s| {
        for (in_chunk, out_chunk) in items.chunks_mut(chunk).zip(out.chunks_mut(chunk)) {
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

/// Split `data` into at most `chunks` contiguous pieces of near-equal
/// length and map each piece, in parallel, to one result. The piece
/// boundaries depend only on `chunks` and `data.len()`, so the output is
/// deterministic; reduce it sequentially for bit-stable aggregates.
pub fn par_chunks_map<T, R, F>(threads: usize, data: &[T], chunks: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    let chunks = chunks.clamp(1, data.len().max(1));
    let chunk_len = data.len().div_ceil(chunks);
    let pieces: Vec<&[T]> = data.chunks(chunk_len.max(1)).collect();
    par_map_threads(threads, &pieces, |piece| f(piece))
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
    fn par_map_mut_mutates_in_place_and_preserves_order() {
        let expect_results: Vec<u64> = (0..103).map(|x| x * x).collect();
        let expect_items: Vec<u64> = (0..103).map(|x| x + 1).collect();
        for threads in [1, 2, 3, 8, 200] {
            let mut items: Vec<u64> = (0..103).collect();
            let results = par_map_mut_threads(threads, &mut items, |x| {
                let sq = *x * *x;
                *x += 1;
                sq
            });
            assert_eq!(results, expect_results, "threads = {threads}");
            assert_eq!(items, expect_items, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_mut_empty_and_single() {
        let mut empty: Vec<u64> = vec![];
        assert!(par_map_mut_threads(4, &mut empty, |&mut x| x).is_empty());
        let mut one = [9u64];
        assert_eq!(par_map_mut_threads(4, &mut one, |&mut x| x + 1), vec![10]);
    }

    #[test]
    fn par_chunks_map_covers_everything_once() {
        let data: Vec<u64> = (0..1000).collect();
        for chunks in [1, 3, 7, 16] {
            let sums = par_chunks_map(4, &data, chunks, |c| c.iter().sum::<u64>());
            assert!(sums.len() <= chunks.max(1));
            assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
        }
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
