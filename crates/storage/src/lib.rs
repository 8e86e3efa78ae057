//! # samplehist-storage
//!
//! The storage substrate for the histogram-sampling experiments: an
//! in-memory simulator of the paged heap files that the paper's SQL
//! Server 7.0 prototype sampled from.
//!
//! The sampling algorithms only care about two properties of a storage
//! engine: **which tuples share a page** (that is where intra-block
//! correlation, the whole subject of the paper's Section 4, comes from)
//! and **how many pages a plan touches** (the I/O cost being optimized).
//! This crate models exactly those two things and nothing else:
//!
//! * [`HeapFile`] — one column of a relation, laid out in fixed-capacity
//!   pages derived from a page size and a record size (the paper varies
//!   records from 16 to 128 bytes on 8 KB pages, Section 7.1).
//! * [`Layout`] — the physical placements studied in Section 7: random
//!   tuple order, fully clustered (value-sorted), and the partially
//!   clustered layout where a fraction of each value's duplicates are
//!   stored contiguously.
//! * [`BlockSampler`] / [`RecordSampler`] — page- and tuple-grained
//!   samplers that charge their I/O to an [`IoStats`] meter, so
//!   experiments can report "disk blocks read" like the paper's Figure 4.
//! * [`FaultInjectingStorage`] / [`Retrying`] — a seeded, reproducible
//!   fault schedule (transient, dead, and torn pages, the latter detected
//!   via [`page_checksum`]) plus a deterministic retry-with-backoff
//!   policy, for exercising the degradation-aware sampling paths.
//!
//! `HeapFile` implements [`samplehist_core::BlockSource`], so everything
//! in `samplehist_core::sampling` (including the adaptive CVB algorithm)
//! runs against it directly.

//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use samplehist_storage::{BlockSampler, HeapFile, Layout};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! // 10k tuples, 64-byte records on 8 KB pages, random placement.
//! let file = HeapFile::with_default_pages((0..10_000).collect(), 64, Layout::Random, &mut rng);
//! assert_eq!(file.blocking_factor(), 128);
//!
//! // Sample 5 whole pages and read the I/O meter.
//! let mut sampler = BlockSampler::new();
//! let tuples = sampler.sample(&file, 5, &mut rng);
//! assert_eq!(tuples.len(), 5 * 128);
//! assert_eq!(sampler.io().pages_read, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

mod fault;
mod heap_file;
mod io;
mod layout;
mod page;
mod sampler;

pub use fault::{FaultInjectingStorage, FaultSpec, FaultStats, PageFault, RetryPolicy, Retrying};
pub use heap_file::HeapFile;
pub use io::IoStats;
pub use layout::Layout;
pub use page::{page_checksum, tuples_per_page, PageId, DEFAULT_PAGE_BYTES};
pub use sampler::{read_pages, BlockSampler, PageReads, RecordSampler};
