//! # samplehist-obs
//!
//! Dependency-free observability for the sampling/ANALYZE pipeline:
//! hierarchical **spans** with monotonic timings, **counters** and
//! **gauges**, log-scale **timing histograms**, and a pluggable
//! [`Sink`] trait with three implementations —
//!
//! * [`MemorySink`] — in-memory event buffer for tests and summaries;
//! * [`JsonlSink`] — one structured JSON event per line (the trace
//!   format `histstat` dumps and CI validates);
//! * [`PromSink`] — aggregating Prometheus-style text exposition
//!   (hygiene helpers and a format validator live in [`prom`]).
//!
//! Value distributions (q-errors, ratios) are recorded with
//! [`Recorder::observe`] and aggregated into mergeable, fixed-size
//! [`QuantileSketch`]es (p50/p95/p99/max).
//!
//! The workspace builds offline, so there is no `tracing`/`metrics`
//! dependency; this crate is the small slice of that ecosystem the
//! pipeline needs, on `std` only.
//!
//! ## Recording model
//!
//! All call sites go through a [`Recorder`] — a cheap, cloneable,
//! thread-safe handle. The default handle is **disabled** and every
//! operation on it is a no-op costing one branch, so instrumentation
//! stays in the code unconditionally. Pipeline entry points take an
//! explicit `&Recorder` (`cvb::try_run_traced`, `engine::analyze_traced`);
//! library-internal layers (radix routing, the parallel primitives, the
//! storage samplers' default construction) fall back to the process-wide
//! [`global`] recorder, which a binary installs once with
//! [`set_global`].
//!
//! Recording is **passive**: it never touches an RNG stream and never
//! feeds back into any computation, so an instrumented run produces
//! bit-identical results to a bare one.
//!
//! ```
//! use std::sync::Arc;
//! use samplehist_obs::{MemorySink, Recorder};
//!
//! let sink = Arc::new(MemorySink::new());
//! let rec = Recorder::new(sink.clone());
//! {
//!     let mut span = rec.span("analyze");
//!     span.field("rows", 20_000u64);
//!     rec.counter("storage.pages_read", 200);
//!     let round = span.child("cvb.round");
//!     drop(round);
//! }
//! assert_eq!(sink.events().len(), 5); // 2 starts, 2 ends, 1 counter
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod json;
pub mod prom;
mod quantile;
mod recorder;
mod sink;
mod timing;

pub use event::{Event, FieldList, Value};
pub use quantile::QuantileSketch;
pub use recorder::{Recorder, Span};
pub use sink::{JsonlSink, MemorySink, PromSink, Sink};
pub use timing::LogHistogram;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// Install the process-wide recorder used by call sites that have no
/// natural place to thread a handle through (the parallel primitives,
/// radix route selection, …). Returns `false` if one was already
/// installed (the first installation wins, matching `log::set_logger`).
pub fn set_global(recorder: Recorder) -> bool {
    if GLOBAL.set(recorder).is_ok() {
        GLOBAL_ENABLED.store(true, Ordering::SeqCst);
        true
    } else {
        false
    }
}

/// The process-wide recorder: disabled until [`set_global`] installs
/// one. The disabled path is a single relaxed atomic load, so deep
/// library code can call this unconditionally.
#[inline]
pub fn global() -> Recorder {
    if !GLOBAL_ENABLED.load(Ordering::Relaxed) {
        Recorder::disabled()
    } else {
        GLOBAL.get().cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn global_starts_disabled_then_installs_once() {
        assert!(!global().is_enabled(), "default global must be a no-op");
        let sink = Arc::new(MemorySink::new());
        assert!(set_global(Recorder::new(sink.clone())));
        assert!(global().is_enabled());
        global().counter("after_install", 1);
        assert_eq!(sink.events().len(), 1);
        // Second installation is refused; the first recorder stays.
        assert!(!set_global(Recorder::disabled()));
        assert!(global().is_enabled());
    }
}
