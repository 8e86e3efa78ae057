//! The one sort ANALYZE's statistics read off: counting sort for samples
//! whose value span is narrow, the standard library's unstable sort
//! otherwise.

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
    let span = hi as i128 - lo as i128 + 1;
    let counting = span <= 2 * values.len() as i128 && values.len() <= u32::MAX as usize;
    if counting {
        counting_sort(values, lo, span as usize);
    } else {
        values.sort_unstable();
    }
    counting
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
