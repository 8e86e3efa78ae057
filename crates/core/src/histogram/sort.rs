//! The one sort ANALYZE's statistics read off: counting sort for samples
//! whose value span is narrow, the standard library's unstable sort
//! otherwise. [`sort_appended`] applies the same rule to a sorted sample
//! that has grown by an unsorted tail, as CVB's does each round.

use super::radix::min_max_chunk;

/// Sort `values` ascending, returning `true` when the counting sort ran.
///
/// One min/max pass measures the span `hi − lo + 1`. When it is at most
/// `2n` the sort counts each value into a `u32` array of `span` entries
/// (never larger than the input itself) and writes the runs back in
/// order — O(n + span). Wider samples fall back to `sort_unstable`. The
/// output is the same either way: a sorted slice of `i64`s has one
/// representation.
pub fn sort_values(values: &mut [i64]) -> bool {
    if values.len() < 2 {
        return false;
    }
    let (lo, hi) = min_max_chunk(values);
    let Some(span) = counting_span(lo, hi, values.len()) else {
        values.sort_unstable();
        return false;
    };
    counting_sort(values, lo, span);
    true
}

/// Sort `values`, whose first `prior` elements are already sorted,
/// returning `true` when the counting sort ran.
///
/// The union's span comes from the prefix's ends and one min/max pass
/// over the tail. When it is at most `2n` — [`sort_values`]' rule — the
/// whole union is counting-sorted in O(n + span). Otherwise the tail is
/// sorted on its own (by [`sort_values`]) and merged into the prefix from
/// the back, through `scratch`, which holds a copy of the tail and keeps
/// its capacity for the next call; the counting route releases it.
pub fn sort_appended(values: &mut [i64], prior: usize, scratch: &mut Vec<i64>) -> bool {
    debug_assert!(values[..prior].windows(2).all(|w| w[0] <= w[1]), "prefix must be sorted");
    if prior == 0 {
        return sort_values(values);
    }
    if prior == values.len() {
        return false;
    }
    let (tail_lo, tail_hi) = min_max_chunk(&values[prior..]);
    let (lo, hi) = (values[0].min(tail_lo), values[prior - 1].max(tail_hi));
    if let Some(span) = counting_span(lo, hi, values.len()) {
        // The count array takes the place of the tail copy: holding both
        // would raise the caller's peak heap by the copy's size.
        *scratch = Vec::new();
        counting_sort(values, lo, span);
        return true;
    }
    sort_values(&mut values[prior..]);
    scratch.clear();
    scratch.reserve_exact(values.len() - prior);
    scratch.extend_from_slice(&values[prior..]);
    // Fill from the back: the write position `at` never falls below the
    // prefix's unread end `i`, so no unread prefix element is overwritten.
    let (mut i, mut at) = (prior, values.len());
    for &v in scratch.iter().rev() {
        while i > 0 && values[i - 1] > v {
            at -= 1;
            i -= 1;
            values[at] = values[i];
        }
        at -= 1;
        values[at] = v;
    }
    false
}

/// The span `hi − lo + 1` of `len` values within `lo ..= hi` when it is
/// at most `2 · len`, so the counting sort's `u32` array is never larger
/// than the values themselves; `None` when they must be compared instead.
fn counting_span(lo: i64, hi: i64, len: usize) -> Option<usize> {
    let span = hi as i128 - lo as i128 + 1;
    (span <= 2 * len as i128 && len <= u32::MAX as usize).then_some(span as usize)
}

/// Counting sort of `values`, all within `lo .. lo + span`.
fn counting_sort(values: &mut [i64], lo: i64, span: usize) {
    let mut counts = vec![0u32; span];
    for &v in values.iter() {
        counts[v.wrapping_sub(lo) as u64 as usize] += 1;
    }
    let mut at = 0;
    for (offset, &count) in counts.iter().enumerate() {
        let end = at + count as usize;
        values[at..end].fill(lo.wrapping_add(offset as i64));
        at = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_by_span() {
        let mut narrow = vec![5i64, 3, 4, 3];
        assert!(sort_values(&mut narrow), "span 3 <= 2n counts");
        assert_eq!(narrow, [3, 3, 4, 5]);
        let mut wide = vec![0i64, 100];
        assert!(!sort_values(&mut wide), "span 101 > 2n sorts");
        assert_eq!(wide, [0, 100]);
        let mut extremes = vec![i64::MAX, i64::MIN, 0];
        assert!(!sort_values(&mut extremes));
        assert_eq!(extremes, [i64::MIN, 0, i64::MAX]);
    }
}
