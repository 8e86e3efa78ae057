//! CVB's heap stays within 1.6× its final sample: the sample grows in one
//! vector and the union sort needs at most a copy of the last round's
//! tail, or the counting sort's array in its place, where merging into a
//! second buffer would hold the old sample, the fresh batch and the merged
//! copy at once (about 2.3×).
//!
//! A counting global allocator tracks this thread's live heap bytes and
//! their peak in `const` thread-locals. This file is its own test binary
//! because the allocator is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use samplehist_core::sampling::{cvb, CvbConfig, Schedule, SliceBlocks, ValidationMode};

std::thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn track(delta: isize) {
        // `try_with`: allocations during thread teardown go uncounted
        // rather than panicking inside the allocator.
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + delta);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
    }
}

// SAFETY: every method forwards to `System` unchanged; the only extra
// work is non-allocating thread-local bookkeeping.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::track(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::track(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::track(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `f`'s result and the most heap it held live at once beyond what was
/// live when it started.
fn peak_heap_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let result = f();
    (result, (PEAK.with(Cell::get) - start) as usize)
}

/// CVB over 200k rows on 100-tuple pages with a target strict enough
/// that it reads all of them, on columns whose final union sort counts
/// (each value on 100 rows; every value once; every other value once)
/// and one whose union sorts merge (values spread over 2^40).
///
/// The bound is 1.6× the final sample, or, when larger, the sample plus
/// the counting sort's `u32` array (4 bytes per value of the union's span,
/// at most the sample's own size) plus 5% for the histograms, block ids
/// and permutation.
#[test]
fn cvb_peak_heap_is_bounded_by_the_sample() {
    let rows = 200_000i64;
    let mut rng = StdRng::seed_from_u64(1);
    let mut narrow: Vec<i64> = (0..rows).map(|i| i / 100).collect();
    narrow.shuffle(&mut rng);
    let mut distinct: Vec<i64> = (0..rows).collect();
    distinct.shuffle(&mut rng);
    let mut spread: Vec<i64> = (0..rows).map(|i| 2 * i).collect();
    spread.shuffle(&mut rng);
    let wide: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..1i64 << 40)).collect();
    let config = CvbConfig {
        buckets: 200,
        target_f: 0.05,
        gamma: 0.05,
        schedule: Schedule::Doubling { initial_blocks: 20 },
        validation: ValidationMode::AllTuples,
        max_block_fraction: 1.0,
    };
    for (name, data) in
        [("narrow", &narrow), ("distinct", &distinct), ("spread", &spread), ("wide", &wide)]
    {
        let source = SliceBlocks::new(data, 100);
        let (result, peak) =
            peak_heap_of(|| cvb::run(&source, &config, &mut StdRng::seed_from_u64(2)));
        let sample = &result.sample_sorted;
        let sample_bytes = std::mem::size_of_val(sample.as_slice());
        let span = (sample[sample.len() - 1] - sample[0] + 1) as usize;
        let count_bytes = if span <= 2 * sample.len() { 4 * span } else { 0 };
        let limit =
            (1.6 * sample_bytes as f64).max(1.05 * sample_bytes as f64 + count_bytes as f64);
        let ratio = peak as f64 / sample_bytes as f64;
        eprintln!(
            "{name}: {} rounds, sample {} rows, peak heap {peak} B = {ratio:.3} × the sample \
             (limit {:.3} ×)",
            result.rounds_executed,
            sample.len(),
            limit / sample_bytes as f64
        );
        assert!(result.rounds_executed >= 4, "{name}: the sample grew over several rounds");
        assert!(peak as f64 <= limit, "{name}: peak heap {ratio:.3} × the final sample");
    }
}
