//! Parallel LSD radix sort.
//!
//! The paper invokes "a parallel radix sort algorithm \[Ble96\]" to
//! order items by small integer keys. Keys here are `u64`, and the digit
//! loop stops after the significant bytes of the largest key. The
//! solver's caller is the symmetric-join sort in `pmc-mincut::two_respect`,
//! through the two-word [`radix_sort_by_key2_with`].
//!
//! The implementation is the textbook counting-sort-per-byte with
//! per-chunk histograms combined by a scan — `O(n)` work per digit and
//! logarithmic depth per digit modulo chunk granularity. Every entry
//! point is stable, and [`radix_sort_lsd`] carries a payload.
//!
//! Every entry point has a `_with` twin taking a [`SortScratch`]: the
//! double buffer, per-chunk histograms, and offset table live in the
//! scratch and are recycled call-to-call, so steady-state sorts of a
//! stable size perform no heap allocation (DESIGN.md §13).

// lint: hotpath-module
use rayon::prelude::*;

const RADIX_BITS: u32 = 8;
const BUCKETS: usize = 1 << RADIX_BITS;
const SEQ_CUTOFF: usize = 1 << 13;

/// Reusable workspace of the radix passes: the scatter double-buffer,
/// one histogram per chunk, and the chunk-major exclusive offsets.
/// `resize`d (never reallocated once warm) by the radix passes.
#[derive(Debug)]
pub struct SortScratch<T> {
    buf: Vec<T>,
    histograms: Vec<[u32; BUCKETS]>,
    offsets: Vec<u64>,
}

impl<T> Default for SortScratch<T> {
    fn default() -> Self {
        // HOTPATH: warmup — constructing a workspace is the one-time
        // cost its reuse amortizes away.
        SortScratch { buf: Vec::new(), histograms: Vec::new(), offsets: Vec::new() }
    }
}

impl<T> SortScratch<T> {
    pub fn new() -> Self {
        SortScratch::default()
    }
}

/// Stable parallel LSD radix sort: equal keys keep their input order at
/// *every* size (the small-`n` fallback is the stable `sort_by_key`).
///
/// This is the primitive the engine's symmetric join sorts with, and —
/// because LSD passes compose — the building block of
/// [`radix_sort_by_key2`] for keys wider than one word.
pub fn radix_sort_lsd<T, F>(items: &mut Vec<T>, key: F)
where
    T: Copy + Send + Sync + Default,
    F: Fn(&T) -> u64 + Sync + Send,
{
    radix_sort_lsd_with(items, key, &mut SortScratch::new());
}

/// [`radix_sort_lsd`] with a caller-owned workspace. Above the cutoff
/// the radix passes are allocation-free once the workspace is warm;
/// below it the stable std fallback still takes its own temp buffer.
///
/// The single size dispatch behind every entry point: trivial inputs
/// return as-is, inputs below `SEQ_CUTOFF` run the stable std sort,
/// larger inputs take the parallel pass loop. One guard, one boundary,
/// tested at `SEQ_CUTOFF ± 1` below.
pub fn radix_sort_lsd_with<T, F>(items: &mut Vec<T>, key: F, scratch: &mut SortScratch<T>)
where
    T: Copy + Send + Sync + Default,
    F: Fn(&T) -> u64 + Sync + Send,
{
    let n = items.len();
    if n <= 1 {
        return;
    }
    if n < SEQ_CUTOFF {
        items.sort_by_key(|it| key(it));
        return;
    }
    radix_passes(items, &key, scratch);
}

/// Sort ascending by the composite key `(hi(item), lo(item))` — a
/// 128-bit key as two stable LSD word passes: sorting by `lo` first and
/// then stably by `hi` yields the lexicographic `(hi, lo)` order.
pub fn radix_sort_by_key2<T, FH, FL>(items: &mut Vec<T>, hi: FH, lo: FL)
where
    T: Copy + Send + Sync + Default,
    FH: Fn(&T) -> u64 + Sync + Send,
    FL: Fn(&T) -> u64 + Sync + Send,
{
    radix_sort_by_key2_with(items, hi, lo, &mut SortScratch::new());
}

/// [`radix_sort_by_key2`] with a caller-owned workspace shared by both
/// passes.
pub fn radix_sort_by_key2_with<T, FH, FL>(
    items: &mut Vec<T>,
    hi: FH,
    lo: FL,
    scratch: &mut SortScratch<T>,
) where
    T: Copy + Send + Sync + Default,
    FH: Fn(&T) -> u64 + Sync + Send,
    FL: Fn(&T) -> u64 + Sync + Send,
{
    radix_sort_lsd_with(items, lo, scratch);
    radix_sort_lsd_with(items, hi, scratch);
}

/// The counting-sort-per-byte pass loop shared by the entry points.
/// Stable: within a pass, chunk-major exclusive offsets preserve input
/// order inside each bucket.
// The scatter phase below is this crate's only unsafe (audited at each
// site); the per-item allow keeps the workspace-level `unsafe_code`
// lint watching everywhere else.
#[allow(unsafe_code)]
fn radix_passes<T, F>(items: &mut Vec<T>, key: &F, scratch: &mut SortScratch<T>)
where
    T: Copy + Send + Sync + Default,
    F: Fn(&T) -> u64 + Sync + Send,
{
    let n = items.len();
    let max_key = items.par_iter().map(key).max().unwrap_or(0);
    let passes = if max_key == 0 {
        1
    } else {
        ((64 - max_key.leading_zeros()).div_ceil(RADIX_BITS)) as usize
    };

    let threads = rayon::current_num_threads().max(1);
    let chunk = n.div_ceil(4 * threads).max(1);
    let num_chunks = n.div_ceil(chunk);
    // All three workspaces resize in place: after the first sort at a
    // given (n, thread-count) profile the passes are allocation-free.
    scratch.buf.resize(n, T::default());
    scratch.histograms.resize(num_chunks, [0u32; BUCKETS]);
    scratch.offsets.resize(num_chunks * BUCKETS, 0);

    for pass in 0..passes {
        let shift = (pass as u32) * RADIX_BITS;
        // Per-chunk histograms, written into the recycled table.
        {
            let items_ref: &[T] = items;
            scratch.histograms.par_iter_mut().enumerate().for_each(|(c, h)| {
                *h = [0u32; BUCKETS];
                let start = c * chunk;
                let end = (start + chunk).min(n);
                for it in &items_ref[start..end] {
                    h[((key(it) >> shift) as usize) & (BUCKETS - 1)] += 1;
                }
            });
        }
        // Global bucket offsets: for stability, chunk c's bucket b region
        // starts at sum of all buckets < b plus bucket b of chunks < c.
        {
            let mut acc = 0u64;
            for b in 0..BUCKETS {
                for (c, h) in scratch.histograms.iter().enumerate() {
                    scratch.offsets[c * BUCKETS + b] = acc;
                    acc += h[b] as u64;
                }
            }
        }
        // Scatter.
        let offsets = &scratch.offsets;
        let buf_ptr = SendPtr(scratch.buf.as_mut_ptr());
        items.par_chunks(chunk).enumerate().for_each(|(c, chunk_items)| {
            let mut cursors = [0u64; BUCKETS];
            cursors.copy_from_slice(&offsets[c * BUCKETS..(c + 1) * BUCKETS]);
            let ptr = buf_ptr;
            for it in chunk_items {
                let b = ((key(it) >> shift) as usize) & (BUCKETS - 1);
                // SAFETY: every (chunk, bucket) writes a disjoint range of
                // `buf` as computed by the exclusive scan above.
                unsafe {
                    *ptr.0.add(cursors[b] as usize) = *it;
                }
                cursors[b] += 1;
            }
        });
        std::mem::swap(items, &mut scratch.buf);
    }
}

/// Sort a vector of `u64` keys ascending.
pub fn radix_sort(keys: &mut Vec<u64>) {
    radix_sort_lsd(keys, |&k| k);
}

#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
// SAFETY: the scatter phase partitions the output index space across
// threads; no two threads write the same element.
#[allow(unsafe_code)]
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: shared references to the wrapper only copy the pointer; all
// writes go through the partitioned-scatter argument above.
#[allow(unsafe_code)]
unsafe impl<T> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sorts_small() {
        let mut v = vec![5u64, 3, 9, 1, 1, 0];
        radix_sort(&mut v);
        assert_eq!(v, vec![0, 1, 1, 3, 5, 9]);
    }

    #[test]
    fn sorts_empty_and_single() {
        let mut v: Vec<u64> = vec![];
        radix_sort(&mut v);
        assert!(v.is_empty());
        let mut v = vec![42u64];
        radix_sort(&mut v);
        assert_eq!(v, vec![42]);
    }

    #[test]
    fn sorts_large_random() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut v: Vec<u64> = (0..200_000).map(|_| rng.random_range(0..u64::MAX)).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_pairs_stably_within_key() {
        // Payload order for equal keys must be preserved (LSD stability).
        let mut rng = StdRng::seed_from_u64(8);
        let mut v: Vec<(u64, u64)> =
            (0..50_000u64).map(|i| (rng.random_range(0..100), i)).collect();
        let expect = {
            let mut e = v.clone();
            e.sort_by_key(|&(k, _)| k);
            e
        };
        radix_sort_lsd(&mut v, |&(k, _)| k);
        assert_eq!(v, expect);
    }

    #[test]
    fn all_equal_keys() {
        let mut v: Vec<(u64, u64)> = (0..30_000u64).map(|i| (7, i)).collect();
        radix_sort_lsd(&mut v, |&(k, _)| k);
        // Stability: payloads remain in original order.
        assert!(v.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn lsd_is_stable_at_every_size() {
        // Below the sequential cutoff the fallback must be the *stable*
        // std sort — the property radix_sort_by_key2 composes on.
        for n in [0usize, 1, 5, 100, 5_000, 20_000] {
            let mut v: Vec<(u64, u64)> = (0..n as u64).map(|i| (i % 7, i)).collect();
            radix_sort_lsd(&mut v, |&(k, _)| k);
            assert!(
                v.windows(2).all(|w| w[0].0 < w[1].0
                    || (w[0].0 == w[1].0 && w[0].1 < w[1].1)),
                "n={n}: equal keys must keep input order"
            );
        }
    }

    #[test]
    fn dispatch_boundary_is_seamless() {
        // Differential coverage at the exact fallback/radix boundary:
        // SEQ_CUTOFF − 1 takes the std fallback, SEQ_CUTOFF and
        // SEQ_CUTOFF + 1 take the parallel pass loop. Both paths must
        // produce the same answer, stability included: radix_sort_by_key2
        // composes on it.
        let mut rng = StdRng::seed_from_u64(12);
        for n in [SEQ_CUTOFF - 1, SEQ_CUTOFF, SEQ_CUTOFF + 1] {
            // Heavy key collisions (keys in 0..7) so stability is load-
            // bearing, payload = input index so order is observable.
            let base: Vec<(u64, u64)> =
                (0..n as u64).map(|i| (rng.random_range(0..7), i)).collect();
            let stable_expect = {
                let mut e = base.clone();
                e.sort_by_key(|&(k, _)| k);
                e
            };
            let mut v = base.clone();
            radix_sort_lsd(&mut v, |&(k, _)| k);
            assert_eq!(v, stable_expect, "n={n}: lsd vs stable std sort");
        }
    }

    #[test]
    fn composite_key_boundary_matches_comparison_sort() {
        // The two-pass composite sort crosses the same boundary twice;
        // pin it against the std comparison sort at SEQ_CUTOFF ± 1.
        let mut rng = StdRng::seed_from_u64(13);
        for n in [SEQ_CUTOFF - 1, SEQ_CUTOFF, SEQ_CUTOFF + 1] {
            let mut v: Vec<(u64, u64, u64)> = (0..n as u64)
                .map(|i| (rng.random_range(0..5), rng.random_range(0..9), i))
                .collect();
            let mut expect = v.clone();
            expect.sort_by_key(|&(h, l, _)| (h, l));
            radix_sort_by_key2(&mut v, |&(h, _, _)| h, |&(_, l, _)| l);
            assert_eq!(v, expect, "n={n}: composite sort at the cutoff boundary");
        }
    }

    #[test]
    fn composite_key_matches_comparison_sort() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut v: Vec<(u64, u64, u64)> = (0..60_000u64)
            .map(|i| (rng.random_range(0..50), rng.random_range(0..u64::MAX), i))
            .collect();
        let mut expect = v.clone();
        expect.sort_by_key(|&(h, l, _)| (h, l));
        radix_sort_by_key2(&mut v, |&(h, _, _)| h, |&(_, l, _)| l);
        assert_eq!(v, expect);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_sizes() {
        // One workspace serving many sorts of different sizes (crossing
        // the cutoff both ways) must match the scratch-free entry point
        // exactly, stability included.
        let mut rng = StdRng::seed_from_u64(14);
        let mut scratch = SortScratch::new();
        for n in [100usize, 30_000, 500, SEQ_CUTOFF, 20_000, SEQ_CUTOFF - 1] {
            let base: Vec<(u64, u64)> =
                (0..n as u64).map(|i| (rng.random_range(0..9), i)).collect();
            let mut fresh = base.clone();
            radix_sort_lsd(&mut fresh, |&(k, _)| k);
            let mut reused = base.clone();
            radix_sort_lsd_with(&mut reused, |&(k, _)| k, &mut scratch);
            assert_eq!(fresh, reused, "n={n}");
        }
    }

    #[test]
    fn keys_spanning_many_bytes() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<u64> =
            (0..40_000).map(|_| rng.random_range(0..1u64 << 48)).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort(&mut v);
        assert_eq!(v, expect);
    }
}
