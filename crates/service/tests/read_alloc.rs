//! The read path allocates nothing: once a column's snapshot is
//! installed and its index built, a served `estimate_cardinality` or
//! `estimate_equijoin` performs zero heap allocations while the recorder
//! is disabled.
//!
//! A counting global allocator tallies allocations in a per-thread
//! `const` thread-local, so background refresh workers cannot add to the
//! reading thread's count. This file is its own test binary because the
//! allocator is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::SeedableRng;
use samplehist_engine::{AnalyzeOptions, Predicate, Table};
use samplehist_service::{ServiceConfig, StatsService};
use samplehist_storage::Layout as PageLayout;

std::thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn count() {
        // `try_with`: allocations during thread teardown go uncounted
        // rather than panicking inside the allocator.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` unchanged; the only extra
// work is a non-allocating thread-local counter bump.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations this thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn table(name: &str, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    Table::builder(name)
        .column_with_blocking("a", (0..20_000).collect(), 50, PageLayout::Random, &mut rng)
        .column_with_blocking(
            "b",
            (0..20_000).map(|i| i % 300).collect(),
            50,
            PageLayout::Random,
            &mut rng,
        )
        .build()
}

#[test]
fn served_reads_allocate_nothing() {
    assert!(!samplehist_obs::global().is_enabled(), "the recorder must be off by default");
    let svc = StatsService::new(ServiceConfig {
        analyze: AnalyzeOptions::full_scan(50),
        ..ServiceConfig::default()
    });
    svc.register_table(table("orders", 1), None);
    svc.register_table(table("lineitem", 2), None);
    for (t, c) in [("orders", "a"), ("orders", "b"), ("lineitem", "a"), ("lineitem", "b")] {
        svc.refresh_now(t, c).expect("warm-up ANALYZE");
    }
    let predicates = [
        Predicate::Le(700),
        Predicate::Eq(42),
        Predicate::Between { low: 100, high: 9_000 },
        Predicate::Gt(19_999),
    ];
    let estimates = || {
        for p in &predicates {
            for (t, c) in [("orders", "a"), ("lineitem", "b")] {
                assert!(std::hint::black_box(svc.estimate_cardinality(t, c, p)).is_some());
            }
        }
    };
    let joins = || {
        for (c1, c2) in [("a", "a"), ("b", "a"), ("b", "b")] {
            let rows = svc.estimate_equijoin("orders", c1, "lineitem", c2);
            assert!(std::hint::black_box(rows).is_some_and(|r| r > 0.0));
        }
    };
    // Warm-up: first touches may initialize lazily built state.
    estimates();
    joins();
    let hits = svc.hits();

    assert_eq!(allocations_in(estimates), 0, "estimate_cardinality hits must not allocate");
    assert_eq!(allocations_in(joins), 0, "estimate_equijoin hits must not allocate");
    // Every measured lookup was a hit: 8 estimates plus 3 joins × 2 sides.
    assert_eq!(svc.hits() - hits, 8 + 6);
    assert_eq!(svc.misses(), 0);
}
