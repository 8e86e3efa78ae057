//! Fallible block access: the error taxonomy a real storage engine
//! surfaces, and the trait the degradation-aware sampling paths consume.
//!
//! [`super::block::BlockSource`] models the paper's idealized disk: every
//! page read succeeds. Production ANALYZE does not get that luxury — pages
//! go unreadable, reads fail transiently under load, and torn writes leave
//! pages whose checksum no longer matches their contents. [`TryBlockSource`]
//! is the same page-oriented contract with failure in the signature, and
//! [`BlockError`] is the taxonomy the pipeline's degradation policy
//! dispatches on:
//!
//! * **Transient** — worth retrying (the storage layer's retry wrapper
//!   handles these; by the time sampling sees one, retries are exhausted).
//! * **Unreadable** — a persistent media error; the page is lost.
//! * **Corrupted** — the page was served but its checksum mismatched; its
//!   contents cannot be trusted, so it is treated as lost.
//!
//! Fault-free sources are adapted via [`Reliable`], so every existing
//! [`BlockSource`] (heap files, slices) runs through the degradation-aware
//! paths unchanged. That is how the infallible entry points are built:
//! `cvb::run` and ANALYZE over a heap file are the degradation-aware code
//! over [`Reliable`], with no faults to degrade around.

use std::borrow::Cow;

use super::block::BlockSource;

/// Why reading one block failed for good.
///
/// Every variant names the block so degradation reports and traces can say
/// exactly what was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockError {
    /// A transient failure (I/O timeout, device busy) that persisted
    /// through `attempts` read attempts.
    Transient {
        /// The block that failed.
        block: usize,
        /// How many attempts were made before giving up.
        attempts: u32,
    },
    /// The device reports the page permanently unreadable (media error).
    Unreadable {
        /// The block that failed.
        block: usize,
    },
    /// The page was served but its checksum did not match its contents
    /// (torn write or bit rot); the data cannot be trusted.
    Corrupted {
        /// The block that failed.
        block: usize,
        /// The checksum the page should have had.
        expected: u64,
        /// The checksum its served contents actually hash to.
        actual: u64,
    },
}

impl BlockError {
    /// The block the error concerns.
    pub fn block(&self) -> usize {
        match *self {
            BlockError::Transient { block, .. }
            | BlockError::Unreadable { block }
            | BlockError::Corrupted { block, .. } => block,
        }
    }

    /// Whether another read attempt could plausibly succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, BlockError::Transient { .. })
    }
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::Transient { block, attempts } => {
                write!(f, "block {block}: transient read error after {attempts} attempts")
            }
            BlockError::Unreadable { block } => {
                write!(f, "block {block}: page unreadable (media error)")
            }
            BlockError::Corrupted { block, expected, actual } => {
                write!(
                    f,
                    "block {block}: checksum mismatch (expected {expected:#018x}, got {actual:#018x})"
                )
            }
        }
    }
}

impl std::error::Error for BlockError {}

/// A page-oriented view of one column whose reads can fail.
///
/// The fallible counterpart of [`BlockSource`]: same geometry contract
/// (stable block count and contents within one run), but [`try_block`]
/// returns a [`BlockError`] instead of panicking when the storage layer
/// cannot produce trustworthy bytes. Successful reads may be borrowed or
/// owned ([`Cow`]) so decoding / repairing storage layers can hand back
/// reconstructed pages without copying on the common path.
///
/// [`try_block`]: TryBlockSource::try_block
pub trait TryBlockSource {
    /// Number of blocks (disk pages).
    fn num_blocks(&self) -> usize;
    /// Total number of tuples across all blocks, counting unreadable ones
    /// (geometry is metadata; it stays known even when pages are lost).
    fn num_tuples(&self) -> u64;
    /// The attribute values of the tuples stored on block `index`, or why
    /// they cannot be produced.
    ///
    /// # Panics
    /// Implementations should panic on out-of-range indices — that is a
    /// caller bug, not a storage fault.
    fn try_block(&self, index: usize) -> Result<Cow<'_, [i64]>, BlockError>;

    /// Average tuples per block (the blocking factor `b` of Section 4.1).
    fn avg_tuples_per_block(&self) -> f64 {
        if self.num_blocks() == 0 {
            0.0
        } else {
            self.num_tuples() as f64 / self.num_blocks() as f64
        }
    }
}

/// Adapter viewing an infallible [`BlockSource`] as a [`TryBlockSource`]
/// whose reads always succeed.
///
/// (An adapter rather than a blanket impl so storage crates can implement
/// `TryBlockSource` directly for their own fault-aware types without
/// colliding with coherence rules.)
#[derive(Debug, Clone, Copy)]
pub struct Reliable<S>(pub S);

impl<S: BlockSource> TryBlockSource for Reliable<S> {
    fn num_blocks(&self) -> usize {
        self.0.num_blocks()
    }

    fn num_tuples(&self) -> u64 {
        self.0.num_tuples()
    }

    fn try_block(&self, index: usize) -> Result<Cow<'_, [i64]>, BlockError> {
        Ok(Cow::Borrowed(self.0.block(index)))
    }

    fn avg_tuples_per_block(&self) -> f64 {
        self.0.avg_tuples_per_block()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::SliceBlocks;

    #[test]
    fn reliable_adapter_delegates() {
        let data: Vec<i64> = (0..10).collect();
        let src = Reliable(SliceBlocks::new(&data, 4));
        assert_eq!(src.num_blocks(), 3);
        assert_eq!(src.num_tuples(), 10);
        assert_eq!(src.try_block(2).expect("never fails").as_ref(), &[8, 9]);
        assert!((src.avg_tuples_per_block() - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn error_accessors_and_display() {
        let e = BlockError::Transient { block: 3, attempts: 4 };
        assert_eq!(e.block(), 3);
        assert!(e.is_transient());
        assert!(e.to_string().contains("transient"));

        let e = BlockError::Unreadable { block: 7 };
        assert_eq!(e.block(), 7);
        assert!(!e.is_transient());
        assert!(e.to_string().contains("unreadable"));

        let e = BlockError::Corrupted { block: 1, expected: 0xAB, actual: 0xCD };
        assert_eq!(e.block(), 1);
        assert!(!e.is_transient());
        assert!(e.to_string().contains("checksum"));
    }
}
