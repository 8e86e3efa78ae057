//! Block-level sampling over an abstract page-oriented source.
//!
//! [`BlockSource`] is the only interface the sampling algorithms need from
//! a storage engine: how many blocks there are and the tuples on each.
//! `samplehist-storage`'s `HeapFile` implements it; [`SliceBlocks`] adapts
//! any in-memory slice for tests and for record-level comparisons.

use rand::Rng;

/// A page-oriented view of one column of a relation.
///
/// Blocks are numbered `0 .. num_blocks()`. Blocks may have different
/// sizes (the last page of a heap file is usually short); implementations
/// must return the same contents for the same index every time within one
/// sampling run.
pub trait BlockSource {
    /// Number of blocks (disk pages).
    fn num_blocks(&self) -> usize;
    /// Total number of tuples across all blocks.
    fn num_tuples(&self) -> u64;
    /// The attribute values of the tuples stored on block `index`.
    ///
    /// # Panics
    /// Implementations should panic on out-of-range indices.
    fn block(&self, index: usize) -> &[i64];

    /// Average tuples per block (the blocking factor `b` of Section 4.1).
    fn avg_tuples_per_block(&self) -> f64 {
        if self.num_blocks() == 0 {
            0.0
        } else {
            self.num_tuples() as f64 / self.num_blocks() as f64
        }
    }
}

impl<S: BlockSource + ?Sized> BlockSource for &S {
    fn num_blocks(&self) -> usize {
        (**self).num_blocks()
    }

    fn num_tuples(&self) -> u64 {
        (**self).num_tuples()
    }

    fn block(&self, index: usize) -> &[i64] {
        (**self).block(index)
    }

    fn avg_tuples_per_block(&self) -> f64 {
        (**self).avg_tuples_per_block()
    }
}

/// View a contiguous slice as fixed-size blocks (the last may be short).
#[derive(Debug, Clone, Copy)]
pub struct SliceBlocks<'a> {
    data: &'a [i64],
    block_size: usize,
}

impl<'a> SliceBlocks<'a> {
    /// Wrap `data` as blocks of `block_size` tuples.
    ///
    /// # Panics
    /// If `block_size == 0`.
    pub fn new(data: &'a [i64], block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self { data, block_size }
    }
}

impl BlockSource for SliceBlocks<'_> {
    fn num_blocks(&self) -> usize {
        self.data.len().div_ceil(self.block_size)
    }

    fn num_tuples(&self) -> u64 {
        self.data.len() as u64
    }

    fn block(&self, index: usize) -> &[i64] {
        let start = index * self.block_size;
        assert!(start < self.data.len(), "block {index} out of range");
        let end = (start + self.block_size).min(self.data.len());
        &self.data[start..end]
    }
}

/// Incremental without-replacement block sampling: a random permutation of
/// all block indices, consumed prefix by prefix. This is what the adaptive
/// CVB algorithm uses — each round's "fresh" blocks are simply the next
/// chunk of the permutation, which makes the union of all rounds a uniform
/// without-replacement sample at every point.
#[derive(Debug, Clone)]
pub struct BlockPermutation {
    order: Vec<usize>,
    cursor: usize,
}

impl BlockPermutation {
    /// Shuffle all block indices of `source`.
    pub fn new(source: &impl BlockSource, rng: &mut impl Rng) -> Self {
        Self::with_len(source.num_blocks(), rng)
    }

    /// Shuffle the block indices `0..num_blocks` — for sources that only
    /// expose their geometry (e.g. fallible sources whose reads are
    /// deferred until each block is actually needed).
    pub fn with_len(num_blocks: usize, rng: &mut impl Rng) -> Self {
        use rand::seq::SliceRandom;
        let mut order: Vec<usize> = (0..num_blocks).collect();
        order.shuffle(rng);
        Self { order, cursor: 0 }
    }

    /// How many blocks remain undrawn.
    pub fn remaining(&self) -> usize {
        self.order.len() - self.cursor
    }

    /// How many blocks have been drawn so far.
    pub fn drawn(&self) -> usize {
        self.cursor
    }

    /// Draw up to `g` further blocks (fewer if the permutation is nearly
    /// exhausted). Returns the drawn block indices.
    pub fn take(&mut self, g: usize) -> &[usize] {
        let take = g.min(self.remaining());
        let out = &self.order[self.cursor..self.cursor + take];
        self.cursor += take;
        out
    }
}

/// Incremental without-replacement block sampling by a forward partial
/// Fisher–Yates over `0..len`: draw `i` swaps position `i` of the pool
/// with position `gen_range(i..len)`. The first `g` draws are exactly
/// `rand::seq::index::sample(rng, len, g)`, and every further draw
/// continues that same sequence — so a fixed-size block sample can replace
/// pages that failed to read without disturbing the pages it already drew.
/// Unlike [`BlockPermutation`], it spends RNG draws only on blocks actually
/// drawn.
#[derive(Debug, Clone)]
pub struct BlockDraw {
    pool: Vec<usize>,
    drawn: usize,
}

impl BlockDraw {
    /// Prepare to draw from `0..len`.
    pub fn new(len: usize) -> Self {
        Self { pool: (0..len).collect(), drawn: 0 }
    }

    /// Draw one further block, or `None` once all `len` have been drawn.
    pub fn draw(&mut self, rng: &mut impl Rng) -> Option<usize> {
        let i = self.drawn;
        if i == self.pool.len() {
            return None;
        }
        let j = rng.gen_range(i..self.pool.len());
        self.pool.swap(i, j);
        self.drawn += 1;
        Some(self.pool[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn slice_blocks_shape() {
        let data: Vec<i64> = (0..10).collect();
        let src = SliceBlocks::new(&data, 4);
        assert_eq!(src.num_blocks(), 3);
        assert_eq!(src.num_tuples(), 10);
        assert_eq!(src.block(0), &[0, 1, 2, 3]);
        assert_eq!(src.block(2), &[8, 9], "last block is short");
        assert!((src.avg_tuples_per_block() - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_blocks_out_of_range() {
        let data: Vec<i64> = (0..10).collect();
        let src = SliceBlocks::new(&data, 4);
        let _ = src.block(3);
    }

    #[test]
    fn permutation_covers_everything_once() {
        let data: Vec<i64> = (0..100).collect();
        let src = SliceBlocks::new(&data, 5); // 20 blocks
        let mut rng = StdRng::seed_from_u64(3);
        let mut perm = BlockPermutation::new(&src, &mut rng);
        assert_eq!(perm.remaining(), 20);
        let mut seen: Vec<usize> = Vec::new();
        seen.extend_from_slice(perm.take(7));
        assert_eq!(perm.drawn(), 7);
        seen.extend_from_slice(perm.take(7));
        seen.extend_from_slice(perm.take(100)); // clamped to remaining 6
        assert_eq!(seen.len(), 20);
        assert_eq!(perm.remaining(), 0);
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
        assert!(perm.take(5).is_empty(), "exhausted permutation yields nothing");
    }

    #[test]
    fn block_draw_continues_index_sample() {
        // Pinned against the index sample on both sides of its dense/sparse
        // switch: every prefix matches one draw continued to the end.
        for (len, mid) in [(40usize, 40usize), (40, 5), (1000, 900), (1000, 30)] {
            let full = rand::seq::index::sample(&mut StdRng::seed_from_u64(9), len, len).into_vec();
            for g in [0, 1, mid / 2, mid, len] {
                let want = rand::seq::index::sample(&mut StdRng::seed_from_u64(9), len, g);
                assert_eq!(want.into_vec(), full[..g], "index sample prefix {g} of {len}");
            }
            let mut rng = StdRng::seed_from_u64(9);
            let mut draw = BlockDraw::new(len);
            let drawn: Vec<usize> = std::iter::from_fn(|| draw.draw(&mut rng)).collect();
            assert_eq!(drawn, full, "len {len}");
            assert_eq!(draw.draw(&mut rng), None, "an exhausted draw yields nothing");
        }
    }
}
