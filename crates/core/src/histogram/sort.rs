//! The one sort ANALYZE's statistics read off: counting sort for samples
//! whose value span is narrow, the standard library's unstable sort
//! otherwise. [`GrowingSample`] applies the same rule to a sorted sample
//! that grows by unsorted batches, as CVB's does each round, and keeps
//! the counts across batches so that each value is counted once.

use super::{count_le, EquiHeightHistogram};

/// Sort `values` ascending, returning `true` when the counting sort ran.
///
/// One min/max pass measures the span `hi − lo + 1`. When it is at most
/// `8n` the sort counts each value into one byte per value of the span
/// (never larger than the input itself) and writes the runs back in
/// order — O(n + span). Wider samples fall back to `sort_unstable`. The
/// output is the same either way: a sorted slice of `i64`s has one
/// representation.
pub fn sort_values(values: &mut [i64]) -> bool {
    if values.len() < 2 {
        return false;
    }
    let (lo, hi) = min_max(values);
    let Some(span) = counting_span(lo, hi, values.len()) else {
        values.sort_unstable();
        return false;
    };
    let mut counts = ValueCounts::new(lo, span);
    counts.add(values);
    counts.fill(values);
    true
}

/// A sorted multiset of `i64`s grown by unsorted batches: CVB's sample
/// across its rounds, and the figure harness's sample across its growth
/// steps.
///
/// While the union's span is within [`sort_values`]' rule the sample is
/// held as byte-wide counts, so a batch costs one counting pass over
/// itself and nothing over what came before; rank and `≤` queries are
/// range sums over the counts, and the sorted vector is written once, by
/// [`Self::into_sorted`]. A batch whose outlier widens the span past the
/// rule turns the counts back into a sorted vector; from then on each
/// batch is sorted on its own (by [`sort_values`]) and merged in from the
/// back, until the union is dense enough to count again.
#[derive(Debug, Default)]
pub struct GrowingSample {
    held: Held,
}

#[derive(Debug)]
enum Held {
    Sorted(Vec<i64>),
    Counted(ValueCounts),
}

impl Default for Held {
    fn default() -> Self {
        Held::Sorted(Vec::new())
    }
}

impl GrowingSample {
    /// A sample that starts as `sorted`, which must be sorted ascending.
    pub fn from_sorted(sorted: Vec<i64>) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
        Self { held: Held::Sorted(sorted) }
    }

    /// Number of values in the sample.
    pub fn len(&self) -> usize {
        match &self.held {
            Held::Sorted(sorted) => sorted.len(),
            Held::Counted(counts) => counts.len,
        }
    }

    /// Whether the sample holds no value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the sample is held as counts: its span is within
    /// [`sort_values`]' rule.
    pub fn is_counted(&self) -> bool {
        matches!(self.held, Held::Counted(_))
    }

    /// Fold the unsorted `batch` into the sample, leaving `batch` empty
    /// with its capacity kept for the next batch.
    pub fn append(&mut self, batch: &mut Vec<i64>) {
        if batch.is_empty() {
            return;
        }
        let (mut lo, mut hi) = min_max(batch);
        let len = self.len() + batch.len();
        match &self.held {
            Held::Sorted(sorted) if !sorted.is_empty() => {
                lo = lo.min(sorted[0]);
                hi = hi.max(sorted[sorted.len() - 1]);
            }
            Held::Sorted(_) => {}
            Held::Counted(counts) => {
                lo = lo.min(counts.lo);
                hi = hi.max(counts.hi());
            }
        }
        match (std::mem::take(&mut self.held), counting_span(lo, hi, len)) {
            (Held::Counted(mut counts), Some(span)) => {
                counts.widen(lo, span);
                counts.add(batch);
                self.held = Held::Counted(counts);
            }
            (Held::Sorted(sorted), Some(span)) => {
                let mut counts = ValueCounts::new(lo, span);
                counts.add(&sorted);
                drop(sorted);
                counts.add(batch);
                self.held = Held::Counted(counts);
            }
            (held, None) => {
                let mut sorted = match held {
                    Held::Sorted(sorted) => sorted,
                    Held::Counted(counts) => {
                        let mut sorted = Vec::with_capacity(len);
                        sorted.resize(counts.len, 0);
                        counts.fill(&mut sorted);
                        sorted
                    }
                };
                sort_values(batch);
                merge_from_back(&mut sorted, batch);
                self.held = Held::Sorted(sorted);
            }
        }
        batch.clear();
    }

    /// For each value of the ascending `values`, how many sample values
    /// are `≤` it, written to `out` (cleared first).
    pub fn count_le_each(&self, values: &[i64], out: &mut Vec<u64>) {
        debug_assert!(values.windows(2).all(|w| w[0] <= w[1]), "values must be ascending");
        out.clear();
        match &self.held {
            Held::Sorted(sorted) => out.extend(values.iter().map(|&v| count_le(sorted, v) as u64)),
            Held::Counted(counts) => {
                let mut cursor = counts.cursor();
                out.extend(values.iter().map(|&v| cursor.count_le(v)));
            }
        }
    }

    /// [`EquiHeightHistogram::from_sorted_sample`] of the sample, read off
    /// the counts when it is held as counts.
    ///
    /// # Panics
    /// If the sample is empty, `k == 0`, or
    /// `population_total < self.len()`.
    pub fn histogram(&self, k: usize, population_total: u64) -> EquiHeightHistogram {
        let counts = match &self.held {
            Held::Sorted(sorted) => {
                return EquiHeightHistogram::from_sorted_sample(sorted, k, population_total)
            }
            Held::Counted(counts) => counts,
        };
        assert!(k > 0, "a histogram needs at least one bucket");
        assert!(
            population_total >= counts.len as u64,
            "population ({population_total}) smaller than sample ({})",
            counts.len
        );
        let (mut ranks, mut les) = (counts.cursor(), counts.cursor());
        EquiHeightHistogram::from_rank_view(
            counts.len,
            k,
            |rank| ranks.value_at(rank as u64),
            |v| les.count_le(v),
        )
        .scaled_to(population_total)
    }

    /// The sample as a sorted vector.
    pub fn into_sorted(self) -> Vec<i64> {
        match self.held {
            Held::Sorted(sorted) => sorted,
            Held::Counted(counts) => {
                let mut sorted = vec![0; counts.len];
                counts.fill(&mut sorted);
                sorted
            }
        }
    }
}

/// Merge the sorted `tail` into the sorted `sorted`, growing it by
/// exactly `tail.len()`.
fn merge_from_back(sorted: &mut Vec<i64>, tail: &[i64]) {
    let prior = sorted.len();
    sorted.reserve_exact(tail.len());
    sorted.resize(prior + tail.len(), 0);
    // Fill from the back: the write position `at` never falls below the
    // prefix's unread end `i`, so no unread prefix element is overwritten.
    let (mut i, mut at) = (prior, sorted.len());
    for &v in tail.iter().rev() {
        while i > 0 && sorted[i - 1] > v {
            at -= 1;
            i -= 1;
            sorted[at] = sorted[i];
        }
        at -= 1;
        sorted[at] = v;
    }
}

/// The span `hi − lo + 1` of `len` values within `lo ..= hi` when it is
/// at most `8 · len`, so the counting sort's byte array is never larger
/// than the values themselves, and its offsets fit the `u32` wrap
/// record; `None` when they must be compared instead.
fn counting_span(lo: i64, hi: i64, len: usize) -> Option<usize> {
    let span = hi as i128 - lo as i128 + 1;
    (span <= 8 * len as i128 && span <= u32::MAX as i128).then_some(span as usize)
}

/// Smallest and largest element of `values` (`(i64::MAX, i64::MIN)` when
/// it is empty).
fn min_max(values: &[i64]) -> (i64, i64) {
    // Eight independent accumulator lanes break the fold's loop-carried
    // dependency, letting the compiler vectorize/pipeline the scan —
    // this runs once over the full column, so the scalar chain's ~4×
    // penalty is measurable at bench scale.
    let mut lo_lanes = [i64::MAX; 8];
    let mut hi_lanes = [i64::MIN; 8];
    let mut chunks = values.chunks_exact(8);
    for chunk in &mut chunks {
        for i in 0..8 {
            lo_lanes[i] = lo_lanes[i].min(chunk[i]);
            hi_lanes[i] = hi_lanes[i].max(chunk[i]);
        }
    }
    let (mut lo, mut hi) =
        chunks.remainder().iter().fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    for i in 0..8 {
        lo = lo.min(lo_lanes[i]);
        hi = hi.max(hi_lanes[i]);
    }
    (lo, hi)
}

/// A multiset of `len` values within `lo .. lo + span`, counted in one
/// byte per value of the span. A byte that wraps past 255 records its
/// offset in `wraps`, once per wrap, each entry adding 256 to that
/// value's count; `wraps` is kept ascending for the readers.
#[derive(Debug)]
struct ValueCounts {
    lo: i64,
    bytes: Vec<u8>,
    wraps: Vec<u32>,
    len: usize,
}

impl ValueCounts {
    fn new(lo: i64, span: usize) -> Self {
        debug_assert!(span <= u32::MAX as usize);
        Self { lo, bytes: vec![0; span], wraps: Vec::new(), len: 0 }
    }

    fn hi(&self) -> i64 {
        self.lo.wrapping_add(self.bytes.len() as i64 - 1)
    }

    /// Count `values`, all within `lo ..= hi`.
    fn add(&mut self, values: &[i64]) {
        let wrapped = self.wraps.len();
        for &v in values {
            let offset = v.wrapping_sub(self.lo) as u64 as usize;
            let count = &mut self.bytes[offset];
            *count = count.wrapping_add(1);
            if *count == 0 {
                self.wraps.push(offset as u32);
            }
        }
        if self.wraps.len() > wrapped {
            self.wraps.sort_unstable();
        }
        self.len += values.len();
    }

    /// Grow the array to `lo .. lo + span`, which covers the current one.
    fn widen(&mut self, lo: i64, span: usize) {
        let shift = self.lo.wrapping_sub(lo) as u64 as usize;
        if shift == 0 && span == self.bytes.len() {
            return;
        }
        let old_span = self.bytes.len();
        debug_assert!(shift + old_span <= span, "the new range covers the old one");
        // Exact: a doubled capacity would raise the caller's peak heap by
        // up to the array's own size.
        self.bytes.reserve_exact(span - old_span);
        self.bytes.resize(span, 0);
        if shift > 0 {
            self.bytes.copy_within(0..old_span, shift);
            self.bytes[..shift.min(old_span)].fill(0);
            for wrap in &mut self.wraps {
                *wrap += shift as u32;
            }
        }
        self.lo = lo;
    }

    fn cursor(&self) -> Cursor<'_> {
        Cursor { counts: self, pos: 0, below: 0, wrap: 0 }
    }

    /// Write the counted values to `out` (exactly `len` long) in order.
    fn fill(&self, out: &mut [i64]) {
        assert_eq!(out.len(), self.len, "fill writes every counted value");
        let span = self.bytes.len();
        let (mut at, mut start, mut w) = (0usize, 0usize, 0usize);
        loop {
            // Up to the next wrapped offset each count is its byte alone.
            let end = self.wraps.get(w).map_or(span, |&o| o as usize);
            at = write_runs(out, at, &self.bytes[start..end], self.lo.wrapping_add(start as i64));
            if end == span {
                break;
            }
            let wraps = self.wraps[w..].iter().take_while(|&&o| o as usize == end).count();
            w += wraps;
            let next = at + self.bytes[end] as usize + 256 * wraps;
            out[at..next].fill(self.lo.wrapping_add(end as i64));
            at = next;
            start = end + 1;
        }
    }
}

/// Write `first + i` into `out` from `at` on, `bytes[i]` times each, and
/// return where the writing stopped. Eight counts are read as one word:
/// a zero word (a sparse span) is skipped whole; a word of zeros and ones
/// (distinct values) writes each of its eight values and advances past
/// the ones that count, without a branch per value; other words jump
/// from one non-zero byte to the next.
fn write_runs(out: &mut [i64], mut at: usize, bytes: &[u8], first: i64) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let mut words = bytes.chunks_exact(8);
    let mut base = first;
    for word in &mut words {
        let mut counts = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        if counts & !ONES == 0 && at + 8 <= out.len() {
            // A value written past the new `at` is overwritten by the
            // values that follow it, which fill every slot up to the end.
            let slots = &mut out[at..at + 8];
            let mut k = 0;
            for i in 0..8 {
                slots[k & 7] = base.wrapping_add(i as i64);
                k += (counts >> (8 * i) & 1) as usize;
            }
            at += k;
        } else {
            while counts != 0 {
                let shift = counts.trailing_zeros() & !7;
                let next = at + (counts >> shift & 0xFF) as usize;
                out[at..next].fill(base.wrapping_add(i64::from(shift / 8)));
                at = next;
                counts &= !(0xFF << shift);
            }
        }
        base = base.wrapping_add(8);
    }
    for (i, &count) in words.remainder().iter().enumerate() {
        let next = at + count as usize;
        out[at..next].fill(base.wrapping_add(i as i64));
        at = next;
    }
    at
}

/// Values a rank search skips at once while their sum stays below the
/// rank: a stride's sum vectorises, a byte-by-byte walk would not.
const STRIDE: usize = 256;

/// A forward-only reader of cumulative counts: `below` values lie at
/// offsets under `pos`, and `wrap` is the first wrap entry at or past
/// `pos`.
struct Cursor<'a> {
    counts: &'a ValueCounts,
    pos: usize,
    below: u64,
    wrap: usize,
}

impl Cursor<'_> {
    /// The count at offsets `pos .. to`, and how many wrap entries those
    /// offsets hold.
    fn sum_to(&self, to: usize) -> (u64, usize) {
        let wraps = self.counts.wraps[self.wrap..].partition_point(|&o| (o as usize) < to);
        (byte_sum(&self.counts.bytes[self.pos..to]) + 256 * wraps as u64, wraps)
    }

    fn advance_to(&mut self, to: usize) {
        let (sum, wraps) = self.sum_to(to);
        self.below += sum;
        self.wrap += wraps;
        self.pos = to;
    }

    /// How many values are `≤ v`; `v` must not decrease between calls.
    fn count_le(&mut self, v: i64) -> u64 {
        let counts = self.counts;
        if v < counts.lo {
            return 0;
        }
        let offset = v.wrapping_sub(counts.lo) as u64;
        if offset >= counts.bytes.len() as u64 {
            return counts.len as u64;
        }
        debug_assert!(offset as usize + 1 >= self.pos, "queries must not decrease");
        self.advance_to(offset as usize + 1);
        self.below
    }

    /// The value of 0-based `rank` (below `len`); `rank` must not
    /// decrease between calls.
    fn value_at(&mut self, rank: u64) -> i64 {
        let counts = self.counts;
        debug_assert!(rank < counts.len as u64 && rank >= self.below);
        loop {
            let to = (self.pos + STRIDE).min(counts.bytes.len());
            let (sum, wraps) = self.sum_to(to);
            if self.below + sum > rank {
                break;
            }
            self.below += sum;
            self.wrap += wraps;
            self.pos = to;
        }
        loop {
            let wraps = counts.wraps[self.wrap..].iter().take_while(|&&o| o as usize == self.pos);
            let wraps = wraps.count();
            let here = counts.bytes[self.pos] as u64 + 256 * wraps as u64;
            if self.below + here > rank {
                return counts.lo.wrapping_add(self.pos as i64);
            }
            self.below += here;
            self.wrap += wraps;
            self.pos += 1;
        }
    }
}

/// Sum of `bytes`, in 32 lanes of `u16` that are folded into the total
/// every 256 rows, before any lane can overflow.
fn byte_sum(bytes: &[u8]) -> u64 {
    const LANES: usize = 32;
    bytes
        .chunks(LANES * 256)
        .map(|block| {
            let mut lanes = [0u16; LANES];
            let mut rows = block.chunks_exact(LANES);
            for row in &mut rows {
                for (lane, &b) in lanes.iter_mut().zip(row) {
                    *lane += u16::from(b);
                }
            }
            let rest: u64 = rows.remainder().iter().map(|&b| u64::from(b)).sum();
            lanes.iter().map(|&l| u64::from(l)).sum::<u64>() + rest
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_by_span() {
        let mut narrow = vec![5i64, 3, 4, 3];
        assert!(sort_values(&mut narrow), "span 3 <= 8n counts");
        assert_eq!(narrow, [3, 3, 4, 5]);
        let mut at_rule = vec![0i64, 15];
        assert!(sort_values(&mut at_rule), "span 16 = 8n counts");
        assert_eq!(at_rule, [0, 15]);
        let mut wide = vec![16i64, 0];
        assert!(!sort_values(&mut wide), "span 17 > 8n sorts");
        assert_eq!(wide, [0, 16]);
        let mut extremes = vec![i64::MAX, i64::MIN, 0];
        assert!(!sort_values(&mut extremes));
        assert_eq!(extremes, [i64::MIN, 0, i64::MAX]);
    }

    #[test]
    fn min_max_matches_iterators() {
        let mut x = 0x9E37_79B9u64;
        for n in [1usize, 2, 7, 8, 9, 999, 100_000] {
            let data: Vec<i64> = (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as i64
                })
                .collect();
            let expect = (*data.iter().min().unwrap(), *data.iter().max().unwrap());
            assert_eq!(min_max(&data), expect, "n={n}");
        }
    }

    #[test]
    fn byte_sum_matches_the_plain_sum() {
        // Lengths around the 32-lane rows and the 256-row fold, all bytes
        // at 255 so that an unfolded `u16` lane would overflow.
        for len in [0usize, 1, 31, 32, 33, 8191, 8192, 8193, 70_000] {
            let bytes = vec![255u8; len];
            assert_eq!(byte_sum(&bytes), 255 * len as u64, "len={len}");
        }
    }

    #[test]
    fn cursors_read_wrapped_counts() {
        // Offsets 0, 3 and 9 wrap (300, 512 and 256 copies); the others
        // hold their byte alone.
        let mut values = vec![10i64; 300];
        values.extend([13; 512]);
        values.extend([19; 256]);
        values.extend([11, 12, 12, 15]);
        let mut counts = ValueCounts::new(10, 10);
        counts.add(&values);
        assert_eq!(counts.wraps, [0, 3, 3, 9]);
        let mut cursor = counts.cursor();
        let le: Vec<u64> = (9..=20).map(|v| cursor.count_le(v)).collect();
        assert_eq!(le, [0, 300, 301, 303, 815, 815, 816, 816, 816, 816, 1072, 1072]);
        let mut cursor = counts.cursor();
        for (rank, want) in [(0, 10), (299, 10), (300, 11), (303, 13), (814, 13), (815, 15)] {
            assert_eq!(cursor.value_at(rank), want, "rank {rank}");
        }
        assert_eq!(cursor.value_at(1071), 19);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let mut filled = vec![0; values.len()];
        counts.fill(&mut filled);
        assert_eq!(filled, sorted);
    }
}
