//! Radix-count rank resolution: the order statistics (and their
//! `count_le`) of an unsorted multiset in O(n) counting passes.
//!
//! Equi-height construction needs exactly two things from the data: the
//! values at the `k−1` separator ranks, and for each such value the
//! global count of elements `≤` it (bucket counts are consecutive
//! differences of those counts). Comparison-based selection answers this
//! in O(n log k), but a counting argument does better: one pass
//! histograms the values into at most `2^RADIX_BITS` equal-width slices
//! of `[min, max]`, prefix sums locate the slice every target rank falls
//! in, and only the slices that actually contain a rank are gathered and
//! resolved further (small slices by sorting, oversized ones by
//! recursing with a narrower value range — the span shrinks by
//! `RADIX_BITS` bits per level, bounding the depth at ⌈64/RADIX_BITS⌉).
//! Everything outside those slices is never touched again, so the total
//! is ~3 linear passes plus work proportional to the gathered residue.
//!
//! When a (sub)range is narrow enough for one counter per value
//! (`shift == 0`, granted up to `2^DIRECT_EXACT_BITS` counters — u32
//! counters when `n` fits, halving the footprint), the counting
//! histogram *is* the exact value histogram and every rank resolves by
//! walking the running sum alone — duplicate-heavy columns, the paper's
//! main concern, finish in exactly two passes with no gather at all.
//!
//! ## Skew-aware slice refinement
//!
//! On skewed (Zipf-like) columns the quantile ranks land in the *heavy*
//! slices by construction, so the gathered residue can approach the
//! whole column and the route degrades toward the sort path. When the
//! rank-bearing slices that are big enough to recurse jointly hold a
//! large share of the level ([`REFINE_RESIDUE_DIV`]), a second,
//! *combined* counting pass refines all of them at once at a shift
//! [`RADIX_BITS`] narrower — and because the per-slice span is already
//! ≤ `2^shift`, that refinement usually reaches the exact
//! (one-counter-per-value) regime, resolving the heavy ranks from
//! prefix sums with **no gather at all**. Only rank-bearing sub-slices
//! of the refined blocks (plus the untouched light slices) are gathered.
//! The refinement fan-out and the residue that survives it are surfaced
//! as `radix.slices_split` / `radix.residue_tuples` counters.
//!
//! ## Level buffers
//!
//! Each recursion level needs a counter array, prefix sums, slice→slot
//! maps, and gather buffers. A resolver call owns one [`LevelScratch`]
//! per possible level and threads them through the recursion
//! (`split_first_mut` hands the current level its buffers and passes the
//! deeper ones down), so the serial jobs of one level reuse the deeper
//! level's buffers instead of reallocating them.
//!
//! ## Parallelism
//!
//! `min_max` and the counting passes are chunk-parallel with a
//! sequential reduce, and the per-slice resolutions fan out over
//! [`samplehist_parallel::par_map_mut_threads`], so results are
//! bit-identical at any thread count. Each of these forks only when it
//! splits at least [`samplehist_parallel::RADIX_FORK_MIN_LEN`] elements;
//! smaller levels and job sets run serially whatever the thread budget.

use samplehist_parallel as parallel;

/// Slice-index width per recursion level (2^16 = 65536 counters, 512 KB:
/// L2-resident, and narrow enough that a slice of a 10⁷-element column
/// holds only ~150 elements — the gathered residue rounds to nothing).
const RADIX_BITS: u32 = 16;

/// Spans up to 2^EXACT_BITS get one counter per value (shift == 0), so
/// every rank resolves from prefix sums with no gather pass. Worth 4×
/// the counter memory of the sliced path: on skewed data the quantile
/// ranks sit in heavy-mass slices, so the gather would touch most of
/// the column. This bar also decides when a *refined* block reaches the
/// exact regime (`sub_shift == 0`).
const EXACT_BITS: u32 = RADIX_BITS + 2;

/// A level whose whole span fits 2^DIRECT_EXACT_BITS counters skips
/// slicing entirely and counts one counter per value in a single pass —
/// no second refinement pass, no gather. Same memory ceiling as the
/// refinement budget ([`MAX_REFINE_COUNTERS`]), and the counters are
/// u32 whenever `n` fits, halving the footprint (2^21 × 4 B = 8 MB).
/// Realistic columns (e.g. n=10⁷ over a 10⁶ domain) resolve here in
/// two linear passes total.
const DIRECT_EXACT_BITS: u32 = 21;

/// Gathered slices at least this large recurse instead of sorting; the
/// same bar marks a rank-bearing slice as a refinement candidate.
const RECURSE_MIN: usize = 1 << 13;

/// Refinement fires when the candidate slices jointly hold at least
/// 1/REFINE_RESIDUE_DIV of the level's input — below that, the extra
/// counting pass costs more than the gather it avoids.
const REFINE_RESIDUE_DIV: usize = 8;

/// Cap on second-level refinement counters per level (2^21 × 8 B =
/// 16 MB). When the candidates would exceed it, the heaviest slices
/// keep their blocks and the rest fall back to gather/recurse.
const MAX_REFINE_COUNTERS: usize = 1 << 21;

/// Upper bound on recursion depth: the span shrinks by ≥ `RADIX_BITS`
/// bits per level (64 → ≤48 → ≤32 → ≤16, which is exact), so four
/// levels always suffice; one spare absorbs future knob changes.
const MAX_LEVELS: usize = 5;

/// `slot_of` tag bit: the slice was refined (low bits = block index)
/// rather than assigned a gather job.
const REFINED_TAG: u32 = 1 << 31;

/// Inputs shorter than this are cheaper to sort outright than to
/// resolve by radix counting (the fixed counting costs dominate).
const SORT_FREE_MIN_N: usize = 8 * 1024;

/// Rank resolution stops paying once the histogram wants a constant
/// fraction of the input as separators: require `(k−1) · 8 ≤ n`.
const SORT_FREE_MAX_K_FRACTION: usize = 8;

/// Should an input of `n` values and `k` buckets resolve its separators
/// by radix counting instead of sort-then-index? The routing rule behind
/// `EquiHeightHistogram::from_unsorted*` (see DESIGN.md "Performance
/// architecture").
pub fn selection_profitable(n: usize, k: usize) -> bool {
    k >= 2 && n >= SORT_FREE_MIN_N && (k - 1).saturating_mul(SORT_FREE_MAX_K_FRACTION) <= n
}

/// The 0-based ranks of the equi-height separators: `⌈j·n/k⌉ − 1` for
/// `j = 1 … k−1` (the same ranks `from_sorted` reads; non-decreasing and
/// possibly repeated when `k > n`).
pub(super) fn separator_ranks(n: usize, k: usize) -> Vec<usize> {
    let n = n as u64;
    (1..k as u64).map(|j| (crate::math::div_ceil_u64(j * n, k as u64) - 1) as usize).collect()
}

/// The thread budget for a parallel pass over `len` elements: `threads`
/// when the pass is large enough to pay for a fork, otherwise 1.
fn fork_threads(threads: usize, len: usize) -> usize {
    if len < parallel::RADIX_FORK_MIN_LEN {
        1
    } else {
        threads
    }
}

/// Smallest and largest element of a non-empty, arbitrarily ordered
/// slice (chunk-parallel for large inputs; min/max are associative and
/// commutative, so the result is schedule-independent).
fn min_max(threads: usize, values: &[i64]) -> (i64, i64) {
    assert!(!values.is_empty(), "min_max of an empty value set");
    let threads = fork_threads(threads, values.len());
    if threads <= 1 {
        return min_max_chunk(values);
    }
    parallel::par_chunks_map(threads, values, threads, min_max_chunk)
        .into_iter()
        .reduce(|(lo_a, hi_a), (lo_b, hi_b)| (lo_a.min(lo_b), hi_a.max(hi_b)))
        .expect("non-empty input yields at least one chunk")
}

fn min_max_chunk(values: &[i64]) -> (i64, i64) {
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

/// One recursion level's buffers: counter and prefix arrays, the
/// slice→slot maps, and a pool of gather buffers.
#[derive(Default)]
struct LevelScratch {
    /// First-pass slice counts, then reused as-is for prefix walking.
    counts: Vec<u64>,
    /// Narrow counters for the direct-exact path (`shift == 0`,
    /// `n < u32::MAX`): half the cache footprint of `counts`.
    counts32: Vec<u32>,
    /// Exclusive prefix sums over `counts` (`slices + 1` entries).
    prefix: Vec<u64>,
    /// Per slice: `u32::MAX` untouched, `REFINED_TAG | block` refined,
    /// otherwise a gather-job index.
    slot_of: Vec<u32>,
    /// Refinement counters, `blocks × sub_width`, block-major.
    sub_counts: Vec<u64>,
    /// Per refined sub-slice: gather-job index or `u32::MAX`.
    sub_slot: Vec<u32>,
    /// Pool of gather buffers (capacity preserved across calls).
    buffers: Vec<Vec<i64>>,
}

fn fresh_levels() -> Vec<LevelScratch> {
    (0..MAX_LEVELS).map(|_| LevelScratch::default()).collect()
}

/// Resolution of a batch of rank queries against one multiset.
#[derive(Debug)]
pub(super) struct RankResolution {
    /// Per requested rank, in request order: the value at that rank of
    /// the sorted multiset and the global `count_le` of that value.
    pub entries: Vec<(i64, u64)>,
    /// Smallest element (free by-product of the range pass).
    pub min: i64,
    /// Largest element.
    pub max: i64,
}

/// Resolve the values (and their global `count_le`) at the given
/// ascending 0-based `ranks` of unsorted `values`, forking up to
/// `threads` ways where a pass is large enough (results are
/// bit-identical at any thread count).
///
/// # Panics
/// If `values` is empty (ranks may be empty; they must be ascending and
/// in range, which debug asserts check).
pub(super) fn resolve_ranks(threads: usize, values: &[i64], ranks: &[usize]) -> RankResolution {
    assert!(!values.is_empty(), "cannot resolve ranks of an empty value set");
    debug_assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "ranks must be ascending");
    debug_assert!(ranks.iter().all(|&r| r < values.len()), "ranks must be in range");
    let mut span = samplehist_obs::global().span("radix.resolve");
    span.field("n", values.len());
    span.field("ranks", ranks.len());
    let (min, max) = min_max(threads, values);
    let entries = resolve_in_range(values, ranks, min, max, threads, &mut fresh_levels());
    span.field("span_bits", u64::BITS - max.abs_diff(min).leading_zeros());
    span.finish();
    RankResolution { entries, min, max }
}

/// A rank-bearing value range whose elements must be gathered: either a
/// whole light slice or one rank-bearing sub-slice of a refined block.
struct GatherJob {
    /// First slot of the output array this job fills (its ranks are
    /// consecutive in request order).
    out_start: usize,
    /// Global count of elements strictly below this job's value range;
    /// rebases the job-local `count_le`.
    base: u64,
    /// Ranks local to the job's value range, ascending.
    locals: Vec<usize>,
    /// Gathered elements (filled by the gather pass; the buffer comes
    /// from and returns to the level's pool).
    elems: Vec<i64>,
}

/// Recursive core: `values` are all within `[min, max]`; `levels` hands
/// this level its scratch buffers and the deeper ones to recursion.
fn resolve_in_range(
    values: &[i64],
    ranks: &[usize],
    min: i64,
    max: i64,
    threads: usize,
    levels: &mut [LevelScratch],
) -> Vec<(i64, u64)> {
    if ranks.is_empty() {
        return Vec::new();
    }
    if min == max {
        return vec![(min, values.len() as u64); ranks.len()];
    }
    let Some((level, deeper)) = levels.split_first_mut() else {
        // Unreachable with MAX_LEVELS sized to the span shrinkage, but
        // a fresh set keeps the resolver correct if knobs ever change.
        return resolve_in_range(values, ranks, min, max, threads, &mut fresh_levels());
    };
    let threads = fork_threads(threads, values.len());
    let recorder = samplehist_obs::global();
    recorder.counter("radix.levels", 1);
    let span = max.abs_diff(min);
    let bits = u64::BITS - span.leading_zeros();
    let shift = if bits <= DIRECT_EXACT_BITS { 0 } else { bits - RADIX_BITS };
    let slices = ((span >> shift) + 1) as usize;

    if shift == 0 {
        // One counter per distinct value: a single counting pass and the
        // ranks resolve by walking the running sum — no prefix array, no
        // gather. u32 counters whenever n fits (the common case): half
        // the cache footprint of the u64 path, which matters at up to
        // 2^DIRECT_EXACT_BITS counters.
        recorder.counter("radix.exact_levels", 1);
        return if values.len() < u32::MAX as usize {
            count_exact32_into(values, min, slices, threads, &mut level.counts32);
            resolve_exact(ranks, min, &level.counts32)
        } else {
            count_slices_into(values, min, 0, slices, threads, &mut level.counts);
            resolve_exact(ranks, min, &level.counts)
        };
    }

    // Counting pass (chunk-parallel, reduced in chunk order).
    count_slices_into(values, min, shift, slices, threads, &mut level.counts);
    // Exclusive prefix sums: slice s spans sorted positions
    // prefix[s] .. prefix[s] + counts[s].
    level.prefix.clear();
    level.prefix.reserve(slices + 1);
    let mut acc = 0u64;
    for &c in &level.counts {
        level.prefix.push(acc);
        acc += c;
    }
    level.prefix.push(acc);

    // Group the (ascending) ranks by the slice they fall in.
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut s = 0usize;
    for &r in ranks {
        while level.prefix[s + 1] <= r as u64 {
            s += 1;
        }
        let local = r - level.prefix[s] as usize;
        match groups.last_mut() {
            Some((slice, locals)) if *slice == s => locals.push(local),
            _ => groups.push((s, vec![local])),
        }
    }

    // Skew refinement decision: rank-bearing slices big enough to
    // recurse would each cost a gather plus another full pass over
    // their elements. When they jointly hold a large share of the
    // level, one combined second-level counting pass resolves them all
    // at a narrower shift first — which on duplicate-heavy columns is
    // usually the exact regime (sub_shift == 0), eliminating their
    // gather entirely.
    let sub_shift = if shift <= EXACT_BITS { 0 } else { shift - RADIX_BITS };
    let sub_width = 1usize << (shift - sub_shift);
    let heavy_mass: u64 = groups
        .iter()
        .map(|&(slice, _)| level.counts[slice])
        .filter(|&c| c as usize >= RECURSE_MIN)
        .sum();
    let refine = heavy_mass > 0 && heavy_mass as usize * REFINE_RESIDUE_DIV >= values.len();

    // Refined group indices, ascending; block b refines groups[refined[b]].
    // Once the heavy slices justify paying the second counting pass, it
    // covers *every* rank-bearing slice the counter budget allows (there
    // are at most k−1 of them) — at sub_shift == 0 that resolves the
    // light slices inline too, making the whole level gather-free.
    let mut refined: Vec<usize> = Vec::new();
    if refine {
        refined = (0..groups.len()).collect();
        let max_blocks = (MAX_REFINE_COUNTERS / sub_width).max(1);
        if refined.len() > max_blocks {
            // Counter budget: keep the heaviest slices (stable sort →
            // deterministic ties), leave the rest to gather/recurse.
            refined.sort_by_key(|&g| std::cmp::Reverse(level.counts[groups[g].0]));
            refined.truncate(max_blocks);
            refined.sort_unstable();
        }
    }
    let blocks = refined.len();

    level.slot_of.clear();
    level.slot_of.resize(slices, u32::MAX);
    if blocks > 0 {
        recorder.counter("radix.slices_split", blocks as u64);
        for (b, &g) in refined.iter().enumerate() {
            level.slot_of[groups[g].0] = REFINED_TAG | b as u32;
        }
        // Combined second-level counting pass over the whole level:
        // elements of refined slices tally into their block's counters.
        count_refined_into(
            values,
            min,
            shift,
            sub_shift,
            sub_width,
            &level.slot_of,
            threads,
            blocks * sub_width,
            &mut level.sub_counts,
        );
    }
    level.sub_slot.clear();
    level.sub_slot.resize(blocks * sub_width, u32::MAX);

    // Walk the groups in rank order, assembling the output skeleton:
    // refined blocks at sub_shift == 0 resolve inline from their
    // sub-prefix sums; everything else becomes a gather job addressed
    // through slot_of / sub_slot. `cursor` tracks the next output slot
    // since exact and gathered entries interleave.
    let mut out: Vec<(i64, u64)> = vec![(0, 0); ranks.len()];
    let mut jobs: Vec<GatherJob> = Vec::new();
    let mut cursor = 0usize;
    let mut next_refined = 0usize;
    let mut residue = 0u64;
    for (g, (slice, locals)) in groups.into_iter().enumerate() {
        if refined.get(next_refined) != Some(&g) {
            let expected = level.counts[slice] as usize;
            let rank_count = locals.len();
            residue += expected as u64;
            level.slot_of[slice] = jobs.len() as u32;
            jobs.push(GatherJob {
                out_start: cursor,
                base: level.prefix[slice],
                elems: take_buffer(&mut level.buffers, expected),
                locals,
            });
            cursor += rank_count;
            continue;
        }
        let block = next_refined;
        next_refined += 1;
        let base = level.prefix[slice];
        let lo = slice_lo(min, slice, shift);
        let sub_counts = &level.sub_counts[block * sub_width..(block + 1) * sub_width];
        debug_assert_eq!(sub_counts.iter().sum::<u64>(), level.counts[slice]);
        // Walk the block's implicit prefix sums and its ascending local
        // ranks together: `acc`/`end` bracket sub-slice `sub`.
        let mut sub = 0usize;
        let mut acc = 0u64;
        let mut end = sub_counts[0];
        let mut i = 0usize;
        while i < locals.len() {
            let r = locals[i] as u64;
            while end <= r {
                sub += 1;
                acc = end;
                end += sub_counts[sub];
            }
            if sub_shift == 0 {
                // One counter per value: the rank resolves exactly,
                // with no gather (the heavy-slice fast path).
                let value = lo.wrapping_add(sub as i64);
                out[cursor] = (value, base + end);
                cursor += 1;
                i += 1;
            } else {
                // Every local rank of this sub-slice joins one job.
                let mut j = i;
                while j < locals.len() && (locals[j] as u64) < end {
                    j += 1;
                }
                let expected = (end - acc) as usize;
                residue += expected as u64;
                level.sub_slot[block * sub_width + sub] = jobs.len() as u32;
                jobs.push(GatherJob {
                    out_start: cursor,
                    base: base + acc,
                    locals: locals[i..j].iter().map(|&l| l - acc as usize).collect(),
                    elems: take_buffer(&mut level.buffers, expected),
                });
                cursor += j - i;
                i = j;
            }
        }
    }
    debug_assert_eq!(cursor, ranks.len());
    if recorder.is_enabled() {
        // The residue — tuples gathered after refinement — is the
        // skew-sensitive cost of this route; surface it per level.
        recorder.counter("radix.slices_gathered", jobs.len() as u64);
        recorder.counter("radix.residue_tuples", residue);
    }

    // Gather pass: exact capacity was reserved from the counts above.
    if !jobs.is_empty() {
        for &v in values {
            let tag = level.slot_of[slice_of(v, min, shift)];
            if tag == u32::MAX {
                continue;
            }
            let job = if tag & REFINED_TAG == 0 {
                tag as usize
            } else {
                let block = (tag & !REFINED_TAG) as usize;
                let lo = slice_lo(min, slice_of(v, min, shift), shift);
                let sub = (v.abs_diff(lo) >> sub_shift) as usize;
                match level.sub_slot[block * sub_width + sub] {
                    u32::MAX => continue,
                    slot => slot as usize,
                }
            };
            jobs[job].elems.push(v);
        }
    }

    // Resolve each job independently (disjoint value ranges), then
    // rebase its local count_le with the precomputed base. Serially the
    // recursion reuses the deeper scratch levels; in parallel (only when
    // the gathered residue is large enough to pay for the fork) each job
    // runs single-threaded on its own fresh levels.
    let resolved: Vec<Vec<(i64, u64)>> =
        if fork_threads(threads, residue as usize) <= 1 || jobs.len() <= 1 {
            jobs.iter_mut().map(|job| resolve_job(job, threads, deeper)).collect()
        } else {
            parallel::par_map_mut_threads(threads, &mut jobs, |job| {
                resolve_job(job, 1, &mut fresh_levels())
            })
        };
    for (job, local) in jobs.iter().zip(resolved) {
        for (i, (v, le)) in local.into_iter().enumerate() {
            out[job.out_start + i] = (v, job.base + le);
        }
    }
    for job in jobs {
        level.buffers.push(job.elems);
    }
    out
}

/// Resolve one gather job's local ranks against its gathered elements.
fn resolve_job(
    job: &mut GatherJob,
    threads: usize,
    deeper: &mut [LevelScratch],
) -> Vec<(i64, u64)> {
    if job.elems.len() >= RECURSE_MIN {
        // Recurse with the job's *actual* value range (tighter than the
        // slice bounds), shrinking the span per level.
        samplehist_obs::global().counter("radix.slices_recursed", 1);
        let (lo, hi) = min_max(threads, &job.elems);
        resolve_in_range(&job.elems, &job.locals, lo, hi, threads, deeper)
    } else {
        samplehist_obs::global().counter("radix.slices_sorted", 1);
        job.elems.sort_unstable();
        job.locals
            .iter()
            .map(|&r| {
                let v = job.elems[r];
                (v, job.elems.partition_point(|&x| x <= v) as u64)
            })
            .collect()
    }
}

/// Lower bound of slice `s`: `min + s·2^shift`. For any non-empty slice
/// the true bound is ≤ some element ≤ `i64::MAX`, so two's-complement
/// wrapping arithmetic reproduces it exactly even when the intermediate
/// shift leaves the signed range.
#[inline]
fn slice_lo(min: i64, s: usize, shift: u32) -> i64 {
    min.wrapping_add(((s as u64) << shift) as i64)
}

#[inline]
fn slice_of(v: i64, min: i64, shift: u32) -> usize {
    (v.abs_diff(min) >> shift) as usize
}

fn take_buffer(pool: &mut Vec<Vec<i64>>, expected: usize) -> Vec<i64> {
    let mut buf = pool.pop().unwrap_or_default();
    buf.clear();
    buf.reserve(expected);
    buf
}

/// Walk an exact (one counter per value) histogram and the ascending
/// `ranks` together: `le` is the running `count_le` through counter `s`.
fn resolve_exact<C: Copy + Into<u64>>(ranks: &[usize], min: i64, counts: &[C]) -> Vec<(i64, u64)> {
    let mut out = Vec::with_capacity(ranks.len());
    let mut s = 0usize;
    let mut le: u64 = counts[0].into();
    for &r in ranks {
        while le <= r as u64 {
            s += 1;
            le += counts[s].into();
        }
        // s < slices ≤ 2^DIRECT_EXACT_BITS, and min + s ≤ max: no overflow.
        out.push((min + s as i64, le));
    }
    out
}

/// Lanes per unrolled step of the counting kernels, matching
/// [`min_max_chunk`]'s accumulator width.
const COUNT_LANES: usize = 8;

/// Eight-lane unrolled tally with u32 counters: the slice-index math
/// (`abs_diff` — pure data-parallel arithmetic) is lifted into a
/// fixed-width lane loop the compiler can vectorize, leaving only the
/// scatter increments scalar. Same template as [`min_max_chunk`].
#[inline]
fn count_exact32_chunk(values: &[i64], min: i64, counts: &mut [u32]) {
    let mut lanes = [0usize; COUNT_LANES];
    let mut chunks = values.chunks_exact(COUNT_LANES);
    for chunk in &mut chunks {
        for i in 0..COUNT_LANES {
            lanes[i] = chunk[i].abs_diff(min) as usize;
        }
        for &lane in &lanes {
            counts[lane] += 1;
        }
    }
    for &v in chunks.remainder() {
        counts[v.abs_diff(min) as usize] += 1;
    }
}

/// Eight-lane unrolled tally with u64 counters and a shifted slice index;
/// see [`count_exact32_chunk`] for the kernel shape.
#[inline]
fn count_slices_chunk(values: &[i64], min: i64, shift: u32, counts: &mut [u64]) {
    let mut lanes = [0usize; COUNT_LANES];
    let mut chunks = values.chunks_exact(COUNT_LANES);
    for chunk in &mut chunks {
        for i in 0..COUNT_LANES {
            lanes[i] = slice_of(chunk[i], min, shift);
        }
        for &lane in &lanes {
            counts[lane] += 1;
        }
    }
    for &v in chunks.remainder() {
        counts[slice_of(v, min, shift)] += 1;
    }
}

/// Exact counting pass with u32 counters (`shift == 0`, `n < u32::MAX`).
fn count_exact32_into(values: &[i64], min: i64, slices: usize, threads: usize, out: &mut Vec<u32>) {
    samplehist_obs::global().counter("radix.count.kernel_lanes8", 1);
    out.clear();
    out.resize(slices, 0);
    if threads <= 1 {
        count_exact32_chunk(values, min, out);
        return;
    }
    let partials = parallel::par_chunks_map(threads, values, threads, |chunk: &[i64]| {
        let mut counts = vec![0u32; slices];
        count_exact32_chunk(chunk, min, &mut counts);
        counts
    });
    for partial in partials {
        for (acc, c) in out.iter_mut().zip(partial) {
            *acc += c;
        }
    }
}

fn count_slices_into(
    values: &[i64],
    min: i64,
    shift: u32,
    slices: usize,
    threads: usize,
    out: &mut Vec<u64>,
) {
    samplehist_obs::global().counter("radix.count.kernel_lanes8", 1);
    out.clear();
    out.resize(slices, 0);
    if threads <= 1 {
        count_slices_chunk(values, min, shift, out);
        return;
    }
    let partials = parallel::par_chunks_map(threads, values, threads, |chunk: &[i64]| {
        let mut counts = vec![0u64; slices];
        count_slices_chunk(chunk, min, shift, &mut counts);
        counts
    });
    for partial in partials {
        for (acc, c) in out.iter_mut().zip(partial) {
            *acc += c;
        }
    }
}

/// Second-level counting pass: elements whose slice carries a
/// `REFINED_TAG` tally into `out[block · sub_width + sub]`.
#[allow(clippy::too_many_arguments)]
fn count_refined_into(
    values: &[i64],
    min: i64,
    shift: u32,
    sub_shift: u32,
    sub_width: usize,
    slot_of: &[u32],
    threads: usize,
    counters: usize,
    out: &mut Vec<u64>,
) {
    let tally_one = |counts: &mut [u64], v: i64| {
        let s = slice_of(v, min, shift);
        let tag = slot_of[s];
        if tag != u32::MAX && tag & REFINED_TAG != 0 {
            let block = (tag & !REFINED_TAG) as usize;
            let sub = (v.abs_diff(slice_lo(min, s, shift)) >> sub_shift) as usize;
            counts[block * sub_width + sub] += 1;
        }
    };
    out.clear();
    out.resize(counters, 0);
    if threads <= 1 {
        for &v in values {
            tally_one(out, v);
        }
        return;
    }
    let partials = parallel::par_chunks_map(threads, values, threads, |chunk: &[i64]| {
        let mut counts = vec![0u64; counters];
        for &v in chunk {
            tally_one(&mut counts, v);
        }
        counts
    });
    for partial in partials {
        for (acc, c) in out.iter_mut().zip(partial) {
            *acc += c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(values: &[i64], ranks: &[usize]) -> Vec<(i64, u64)> {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        ranks
            .iter()
            .map(|&r| {
                let v = sorted[r];
                (v, sorted.partition_point(|&x| x <= v) as u64)
            })
            .collect()
    }

    fn noisy(n: usize, domain: u64, seed: u64) -> Vec<i64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % domain) as i64 - (domain / 2) as i64
            })
            .collect()
    }

    /// Heavy runs (each ≥ RECURSE_MIN, triggering refinement) spread
    /// over `domain`, padded with a light noisy tail.
    fn skewed(domain: u64, heavy_runs: usize, seed: u64) -> Vec<i64> {
        let mut values = Vec::new();
        let mut x = seed | 1;
        for i in 0..heavy_runs {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = (x % domain) as i64 - (domain / 2) as i64;
            values.resize(values.len() + RECURSE_MIN + 500 * i, v);
        }
        values.extend(noisy(2000, domain, seed ^ 0xFF));
        values
    }

    #[test]
    fn matches_sorted_reference_across_shapes() {
        for (n, domain, k) in [
            (1usize, 3u64, 2usize),
            (10, 4, 5),
            (1000, 7, 10),               // shift == 0 fast path (tiny span)
            (5000, 1 << 20, 64),         // direct-exact (bits ≤ DIRECT_EXACT_BITS)
            (5000, 1 << 28, 64),         // one radix level
            (20_000, u64::MAX / 2, 100), // wide span, recursion possible
            (50_000, 65, 600),           // heavy duplicates, many equal separators
        ] {
            let values = noisy(n, domain, 0xABCD + n as u64);
            let ranks = separator_ranks(n, k);
            let got = resolve_ranks(1, &values, &ranks);
            assert_eq!(got.entries, reference(&values, &ranks), "n={n} domain={domain} k={k}");
            assert_eq!(got.min, *values.iter().min().expect("non-empty"));
            assert_eq!(got.max, *values.iter().max().expect("non-empty"));
        }
    }

    #[test]
    fn recursion_path_matches_reference() {
        // All mass in one slice forces the recursive branch: a huge run
        // of one value plus a far outlier stretches the top-level range
        // so the run's slice exceeds RECURSE_MIN.
        let mut values = vec![42i64; RECURSE_MIN * 2];
        values.extend(noisy(RECURSE_MIN, 1000, 0x77));
        values.push(i64::MAX / 2);
        let ranks = separator_ranks(values.len(), 50);
        let got = resolve_ranks(1, &values, &ranks);
        assert_eq!(got.entries, reference(&values, &ranks));
    }

    #[test]
    fn refinement_exact_path_matches_reference() {
        // Domain ≤ 2^33 ⇒ top shift ≤ EXACT_BITS ⇒ sub_shift == 0: the
        // heavy slices refine straight to one-counter-per-value and all
        // their ranks resolve with no gather.
        for heavy_runs in [1usize, 3, 8] {
            let values = skewed(1 << 32, heavy_runs, 0xBEEF);
            for k in [2usize, 17, 128] {
                let ranks = separator_ranks(values.len(), k);
                let got = resolve_ranks(1, &values, &ranks);
                assert_eq!(got.entries, reference(&values, &ranks), "runs={heavy_runs} k={k}");
            }
        }
    }

    #[test]
    fn refinement_subgather_path_matches_reference() {
        // Domain ~2^46 ⇒ sub_shift > 0: refined blocks still gather
        // their rank-bearing sub-slices (much smaller than the slice).
        for heavy_runs in [1usize, 4] {
            let values = skewed(1 << 45, heavy_runs, 0xD00D);
            for k in [5usize, 64] {
                let ranks = separator_ranks(values.len(), k);
                let got = resolve_ranks(1, &values, &ranks);
                assert_eq!(got.entries, reference(&values, &ranks), "runs={heavy_runs} k={k}");
            }
        }
    }

    #[test]
    fn threads_are_byte_identical() {
        for seed in [0x1111u64, 0x2222, 0x3333] {
            let values = skewed(1 << 32, 4, seed);
            let ranks = separator_ranks(values.len(), 40);
            let expect = reference(&values, &ranks);
            for threads in [1usize, 4] {
                let got = resolve_ranks(threads, &values, &ranks);
                assert_eq!(got.entries, expect, "seed={seed} threads={threads}");
            }
        }
    }

    /// Resolve `ranks` at threads 1, 2 and 4, check the three agree byte
    /// for byte and match the sort reference, and return by how much the
    /// multi-threaded runs raised the `counter` fork count.
    fn forks_at_threads_1_2_4(values: &[i64], ranks: &[usize], counter: &str) -> u64 {
        let prom = super::super::test_recording();
        let calls = || prom.counter_value(counter).unwrap_or(0);
        let serial = resolve_ranks(1, values, ranks);
        assert_eq!(serial.entries, reference(values, ranks));
        let before = calls();
        for threads in [2usize, 4] {
            let got = resolve_ranks(threads, values, ranks);
            assert_eq!(got.entries, serial.entries, "threads={threads}");
            assert_eq!((got.min, got.max), (serial.min, serial.max), "threads={threads}");
        }
        calls() - before
    }

    #[test]
    fn min_max_and_counting_fork_at_the_threshold() {
        // Exact counting (narrow span), sliced counting (wide span) and
        // the refinement pass (heavy runs over a 2^32 domain), each over
        // RADIX_FORK_MIN_LEN values so min/max and every counting kernel fork.
        let n = parallel::RADIX_FORK_MIN_LEN;
        let mut refined = skewed(1 << 32, 40, 0xF0C5);
        refined.extend(noisy(n.saturating_sub(refined.len()), 1 << 32, 0xF0C6));
        for (name, values) in [
            ("exact", noisy(n, 1 << 20, 0xF0C3)),
            ("sliced", noisy(n, 1 << 40, 0xF0C4)),
            ("refined", refined),
        ] {
            assert!(values.len() >= n, "{name}");
            let ranks = separator_ranks(values.len(), 600);
            let forks = forks_at_threads_1_2_4(&values, &ranks, "parallel.par_map.calls");
            assert!(forks >= 4, "{name}: min/max and counting must fork, got {forks}");
        }
    }

    #[test]
    fn job_fan_out_forks_at_the_threshold() {
        // Two heavy runs over a 2^45 domain: refinement cannot resolve
        // them exactly (sub_shift > 0), so each run's sub-slice becomes a
        // gather job, and together they hold RADIX_FORK_MIN_LEN values.
        let half = parallel::RADIX_FORK_MIN_LEN / 2 + 1;
        let mut values = vec![-(1i64 << 40); half];
        values.extend(vec![1i64 << 40; half]);
        values.extend(noisy(4000, 1 << 45, 0xFA17));
        let ranks = separator_ranks(values.len(), 64);
        let forks = forks_at_threads_1_2_4(&values, &ranks, "parallel.par_map_mut.calls");
        assert!(forks >= 2, "the job fan-out must fork at threads 2 and 4, got {forks}");
    }

    #[test]
    fn refinement_reports_split_and_residue_counters() {
        // Process-global recorder: other tests in this binary may also
        // record, so assertions are lower bounds on our own traffic.
        let prom = super::super::test_recording();
        let values = skewed(1 << 32, 4, 0xCAFE);
        let ranks = separator_ranks(values.len(), 64);
        let got = resolve_ranks(1, &values, &ranks);
        assert_eq!(got.entries, reference(&values, &ranks));
        assert!(prom.counter_value("radix.slices_split").unwrap_or(0) >= 1, "slices_split");
        // At the exact-refine domain every rank-bearing slice resolves
        // inline, so nothing is gathered; the wide domain's sub-gather
        // path is what leaves a residue.
        let wide = skewed(1 << 45, 4, 0xCAFE);
        let wide_ranks = separator_ranks(wide.len(), 64);
        let got_wide = resolve_ranks(1, &wide, &wide_ranks);
        assert_eq!(got_wide.entries, reference(&wide, &wide_ranks));
        assert!(prom.counter_value("radix.residue_tuples").unwrap_or(0) >= 1, "residue_tuples");
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let values = vec![i64::MIN, i64::MAX, 0, -1, 1, i64::MIN, i64::MAX];
        let ranks: Vec<usize> = (0..values.len()).collect();
        let got = resolve_ranks(1, &values, &ranks);
        assert_eq!(got.entries, reference(&values, &ranks));
        assert_eq!((got.min, got.max), (i64::MIN, i64::MAX));
    }

    #[test]
    fn extreme_span_with_heavy_runs_refines_without_overflow() {
        // Full i64 span + refinement-triggering heavy runs: exercises
        // slice_lo's wrapping arithmetic at both ends of the domain.
        let mut values = vec![i64::MIN; RECURSE_MIN * 2];
        values.extend(vec![i64::MAX; RECURSE_MIN * 2]);
        values.extend(noisy(4000, 1 << 40, 0x5EED));
        let ranks = separator_ranks(values.len(), 33);
        let got = resolve_ranks(1, &values, &ranks);
        assert_eq!(got.entries, reference(&values, &ranks));
    }

    #[test]
    fn repeated_ranks_allowed() {
        let values = noisy(500, 10, 0x11);
        let ranks = vec![0, 0, 250, 250, 499];
        let got = resolve_ranks(1, &values, &ranks);
        assert_eq!(got.entries, reference(&values, &ranks));
    }

    #[test]
    #[should_panic(expected = "empty value set")]
    fn empty_values_rejected() {
        let _ = resolve_ranks(1, &[], &[0]);
    }

    /// A noisy multiset whose span is *exactly* `span`: both endpoints
    /// are planted so min/max (and therefore the level's bit width) are
    /// pinned, with the interior filled pseudo-randomly.
    fn pinned_span(n: usize, min: i64, span: u64, seed: u64) -> Vec<i64> {
        let mut values = noisy(n, span + 1, seed)
            .into_iter()
            .map(|v| min + (v + (span / 2) as i64))
            .collect::<Vec<_>>();
        values.push(min);
        values.push(min + span as i64);
        values
    }

    #[test]
    fn spans_at_the_direct_exact_boundary_match_reference() {
        // bits = DIRECT_EXACT_BITS exactly (largest direct-exact span),
        // one below, and one above (the smallest span that takes the
        // sliced radix path, shift = DIRECT_EXACT_BITS + 1 − RADIX_BITS).
        let at = (1u64 << DIRECT_EXACT_BITS) - 1;
        for (span, name) in [(at - 1, "below"), (at, "at"), (at + 1, "above")] {
            let values = pinned_span(20_000, -37, span, 0xB0DA + span);
            for k in [2usize, 33, 600] {
                let ranks = separator_ranks(values.len(), k);
                let got = resolve_ranks(1, &values, &ranks);
                assert_eq!(got.entries, reference(&values, &ranks), "{name} boundary, k={k}");
            }
        }
    }

    #[test]
    fn all_equal_input_matches_reference() {
        for n in [1usize, 7, RECURSE_MIN * 2] {
            let values = vec![-42i64; n];
            let ranks = separator_ranks(n, 16);
            let got = resolve_ranks(1, &values, &ranks);
            assert_eq!(got.entries, reference(&values, &ranks), "n={n}");
            assert_eq!((got.min, got.max), (-42, -42));
        }
    }

    #[test]
    fn more_buckets_than_values_matches_reference() {
        // k > n: separator_ranks repeats ranks; every value is a
        // separator (possibly several times over).
        let values = noisy(9, 1 << 30, 0x99);
        for k in [10usize, 64, 1000] {
            let ranks = separator_ranks(values.len(), k);
            assert!(ranks.len() >= values.len(), "k={k} must over-request");
            let got = resolve_ranks(1, &values, &ranks);
            assert_eq!(got.entries, reference(&values, &ranks), "k={k}");
        }
    }

    #[test]
    fn empty_rank_set_still_reports_min_max() {
        let values = noisy(1000, 1 << 24, 0xE);
        let got = resolve_ranks(1, &values, &[]);
        assert!(got.entries.is_empty());
        assert_eq!(got.min, *values.iter().min().expect("non-empty"));
        assert_eq!(got.max, *values.iter().max().expect("non-empty"));
    }

    #[test]
    fn i64_extreme_singletons_and_full_span_match_reference() {
        // All-equal at each extreme: the min == max early return must not
        // offset anything.
        for v in [i64::MIN, i64::MAX] {
            let values = vec![v; 100];
            let got = resolve_ranks(1, &values, &separator_ranks(100, 8));
            assert_eq!(got.entries, reference(&values, &separator_ranks(100, 8)), "v={v}");
        }
        // Both extremes with heavy runs: span (as u64) is u64::MAX, the
        // widest expressible level.
        let mut values = vec![i64::MIN; 5_000];
        values.extend(vec![i64::MAX; 5_000]);
        values.extend(noisy(5_000, u64::MAX / 4, 0xFE));
        let ranks = separator_ranks(values.len(), 77);
        let got = resolve_ranks(1, &values, &ranks);
        assert_eq!(got.entries, reference(&values, &ranks));
        assert_eq!((got.min, got.max), (i64::MIN, i64::MAX));
    }

    /// The same edge cases through the histogram-level radix route,
    /// forced whatever the input shape: each must be byte-identical to
    /// sort + `from_sorted`.
    #[test]
    fn edge_case_histograms_match_sort_route() {
        use super::super::EquiHeightHistogram;
        let boundary_span = (1u64 << DIRECT_EXACT_BITS) - 1;
        let cases: Vec<(&str, Vec<i64>)> = vec![
            ("boundary span", pinned_span(10_000, -5, boundary_span, 0x10)),
            ("just above boundary", pinned_span(10_000, -5, boundary_span + 1, 0x11)),
            ("all equal", vec![13i64; 4_096]),
            ("k > n", noisy(5, 1 << 20, 0x12)),
            ("extremes", vec![i64::MIN, i64::MAX, 0, i64::MIN, i64::MAX]),
        ];
        for (name, data) in cases {
            let mut sorted = data.clone();
            sorted.sort_unstable();
            for k in [1usize, 3, 40] {
                let expect = EquiHeightHistogram::from_sorted(&sorted, k);
                let got = EquiHeightHistogram::from_unsorted_radix(1, &data, k);
                assert_eq!(got, expect, "{name}, k={k}");
            }
        }
    }

    #[test]
    fn ranks_match_from_sorted_rule() {
        // from_sorted reads rank ⌈j·n/k⌉ (1-based); we use the 0-based twin.
        assert_eq!(separator_ranks(12, 4), vec![2, 5, 8]); // ceil(12/4)=3, 6, 9 → 0-based
        assert_eq!(separator_ranks(10, 3), vec![3, 6]); // ceil(10/3)=4, ceil(20/3)=7 → 0-based 3, 6
        assert_eq!(separator_ranks(2, 5), vec![0, 0, 1, 1]); // k > n repeats ranks
        assert_eq!(separator_ranks(5, 1), Vec::<usize>::new());
    }

    #[test]
    fn min_max_matches_sort() {
        for n in [1usize, 2, 999, 100_000] {
            let data = noisy(n, 1_000_000, n as u64);
            let (lo, hi) = min_max(1, &data);
            assert_eq!(lo, *data.iter().min().unwrap());
            assert_eq!(hi, *data.iter().max().unwrap());
        }
    }

    #[test]
    fn profitability_routing_boundaries() {
        assert!(!selection_profitable(100, 10), "small inputs sort");
        assert!(selection_profitable(SORT_FREE_MIN_N, 10));
        assert!(!selection_profitable(SORT_FREE_MIN_N, 1), "single bucket never resolves");
        // 600 buckets want n ≥ 8·599.
        assert!(!selection_profitable(4000, 600));
        assert!(selection_profitable(10_000, 600));
    }
}
