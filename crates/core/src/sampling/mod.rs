//! Random-sampling machinery (paper Sections 3 and 4).
//!
//! Three layers, mirroring the paper's progression:
//!
//! 1. **Record-level sampling** ([`record`], [`reservoir`]) — uniform
//!    tuple samples with or without replacement. Theoretically clean
//!    (Theorem 4 speaks about this model) but wasteful on disk: fetching
//!    one tuple costs a whole page.
//! 2. **Block-level sampling** ([`block`]) — sample whole pages and use
//!    every tuple on them, over anything implementing [`BlockSource`].
//!    Cheap per tuple, but intra-page correlation can silently bias the
//!    histogram (Section 4.1's scenarios a/b/c).
//! 3. **Adaptive cross-validated block sampling** ([`cvb`], [`schedule`])
//!    — the paper's CVB algorithm: iteratively enlarge the block sample,
//!    using each new batch to cross-validate the histogram built so far
//!    (Theorem 7 makes the test sound), so the total I/O adapts to the
//!    clustering actually present in the data.
//!
//! [`double`] implements the classical two-phase alternative CVB is
//! positioned against (pilot → design effect → one-shot second phase);
//! the `ablations` bench compares the two head-to-head.

pub mod block;
pub mod cvb;
pub mod double;
pub mod fallible;
pub mod record;
pub mod reservoir;
pub mod schedule;

pub use block::{BlockDraw, BlockPermutation, BlockSource, SliceBlocks};
pub use cvb::{
    CvbConfig, CvbError, CvbResult, CvbRound, DegradationPolicy, DegradationReport, ValidationMode,
};
pub use double::{DoubleSamplingConfig, DoubleSamplingResult};
pub use fallible::{BlockError, Reliable, TryBlockSource};
pub use record::{with_replacement, without_replacement};
pub use reservoir::Reservoir;
pub use schedule::{Schedule, ScheduleContext};
