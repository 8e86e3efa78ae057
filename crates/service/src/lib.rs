//! The concurrent statistics service: keeping histograms fresh while
//! queries keep running.
//!
//! The paper ends where production begins: Section 7 observes that its
//! adaptive sampling was built for SQL Server's `AUTO UPDATE STATISTICS`,
//! where statistics refresh happens *behind* a live workload, triggered
//! by data churn rather than on a timer. This crate is that deployment
//! surface for the workspace:
//!
//! * [`StatsService`] answers `estimate_cardinality` / `estimate_equijoin`
//!   from a lock-striped [`StatsCatalog`], never blocking a read on an
//!   in-flight ANALYZE (readers clone an `Arc` snapshot; refreshes build
//!   off-lock and swap the pointer). Registering a table registers its
//!   columns into their catalog slots, so a read is one stripe lookup.
//! * Staleness is driven by per-column modification counters
//!   ([`Table::record_modifications`]) through a three-rung escalation
//!   ladder ([`StalenessPolicy`]): enough churn makes a column *suspect*;
//!   a cheap Theorem-7-style cross-validation probe over a small fresh
//!   block sample then tests the stored histogram's error; a **failed**
//!   probe first tries to *patch* the stored artifacts from the probe's
//!   own sample ([`PatchableStats`](samplehist_core::histogram::PatchableStats),
//!   zero table reads beyond the probe), and only a patch whose held-out
//!   error certificate exceeds the widened Theorem 7 bound pays for a
//!   full CVB re-ANALYZE.
//! * Refreshes run on a [`RefreshScheduler`] (bounded queue, priority =
//!   staleness × access frequency, retry with backoff), the service's one
//!   queue and idle signal. In concurrent mode it is drained by
//!   `refresh_threads` plain named threads that the service spawns and
//!   joins on drop; in deterministic mode it is drained synchronously, on
//!   a virtual clock with RNG streams keyed by column state, and a run is
//!   bit-identical whatever the thread count.
//! * Estimation accuracy feeds back: execution reports observed
//!   cardinalities through [`StatsService::record_actual`], each
//!   snapshot keeps a per-column q-error ledger, and a sustained breach
//!   ([`AccuracyPolicy`]) escalates through the *same* probe-then-
//!   re-ANALYZE machinery — so estimate rot triggers refresh even with
//!   zero writes. The ledgers (plus service counters) are exported by a
//!   std-only HTTP responder ([`MetricsServer`]): Prometheus text at
//!   `/metrics`, JSON at `/accuracy`.
//!
//! [`StatsCatalog`]: samplehist_engine::StatsCatalog
//! [`Table::record_modifications`]: samplehist_engine::Table::record_modifications

#![warn(missing_docs)]

mod clock;
mod http;
mod rng_stream;
mod scheduler;
mod server;
mod service;
mod sim;
mod staleness;
mod tenant;
pub mod wire;

pub use clock::Clock;
pub use http::{accuracy_json, render_metrics, MetricsServer};
pub use rng_stream::rng_stream;
pub use samplehist_core::histogram::PatchPolicy;
pub use scheduler::{RefreshJob, RefreshScheduler, SubmitOutcome};
pub use server::{dispatch, AdmissionControl, ServerOptions, WireClient, WireServer};
pub use service::{RefreshTally, ServiceConfig, StatsService};
pub use sim::{run_simulation, SimConfig, SimReport};
pub use staleness::{
    run_probe, run_probe_with, AccuracyPolicy, ProbeOutcome, ProbeScratch, StalenessPolicy,
};
pub use tenant::{tenant_seed, TenantId, TenantRegistry};
pub use wire::{
    Frame, FrameDecoder, FrameError, PayloadError, Request, Response, WireError, WireEstimate,
};
