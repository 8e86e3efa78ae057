//! # samplehist-engine
//!
//! A miniature statistics subsystem in the style of the SQL Server 7.0
//! prototype the paper was evaluated on: the consumer-side substrate that
//! turns the core crate's algorithms into the artifacts a query optimizer
//! actually uses.
//!
//! * [`Table`] / [`Column`] — relations whose columns live in paged heap
//!   files ([`samplehist_storage::HeapFile`]) with explicit physical
//!   layouts.
//! * [`analyze`] — the `UPDATE STATISTICS` equivalent: builds
//!   [`ColumnStatistics`] (equi-height histogram + density + distinct
//!   estimate) by full scan, row sampling, block sampling, or the paper's
//!   adaptive cross-validated block sampling, with the I/O spent doing it
//!   metered.
//! * [`Catalog`] — where statistics live between queries.
//! * [`Predicate`] / [`estimate_cardinality`] — selectivity estimation
//!   for range and equality predicates from a histogram, the application
//!   that motivates the paper's max error metric (Theorems 1/3).
//! * [`optimizer`] — a toy index-seek vs table-scan chooser showing how
//!   histogram error propagates into plan quality.
//! * [`AccuracyLedger`] — per-epoch execution feedback: observed
//!   q-errors aggregated into mergeable quantile sketches, the signal
//!   the service's accuracy-driven refresh path watches.
//! * [`hash`] — the unkeyed name hasher behind the catalog's and the
//!   service's read-path maps.

//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use samplehist_engine::{analyze, estimate_cardinality, AnalyzeOptions, Predicate, Table};
//! use samplehist_storage::Layout;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let table = Table::builder("orders")
//!     .column("amount", (0..10_000).map(|i| i % 500).collect(), 64, Layout::Random, &mut rng)
//!     .build();
//!
//! // ANALYZE with the paper's adaptive CVB sampling...
//! let stats = analyze(&table, "amount", &AnalyzeOptions::adaptive(50), &mut rng).unwrap();
//! // ...and ask the optimizer-facing question.
//! let est = estimate_cardinality(&stats, &Predicate::Lt(100));
//! assert!((est.selectivity - 0.2).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

mod accuracy;
mod analyze;
mod catalog;
pub mod feedback;
pub mod hash;
pub mod optimizer;
mod predicate;
mod selectivity;
mod stats;
mod table;

pub use accuracy::{
    qerror, sample_size_for_target, target_f_for_qerror, AccuracyLedger, WorstPredicate,
};
pub use analyze::{
    analyze, analyze_resilient, analyze_resilient_traced, analyze_traced, AnalyzeError,
    AnalyzeMode, AnalyzeOptions, ResilientStatistics,
};
pub use catalog::{Catalog, ColumnKey, StatsCatalog, VersionedStats, DEFAULT_STRIPES};
pub use feedback::nudge_counts;
pub use predicate::Predicate;
pub use samplehist_core::sampling::{DegradationPolicy, DegradationReport};
pub use selectivity::{
    estimate_cardinality, estimate_cardinality_batch, estimate_equijoin, CardinalityEstimate,
};
pub use stats::{CachedIndex, ColumnStatistics, StatsIndex};
pub use table::{Column, Table, TableBuilder};
