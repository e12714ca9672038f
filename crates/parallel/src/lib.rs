//! Deterministic work-partitioning executor for the compression hot path.
//!
//! Every parallel primitive in this crate is **bit-deterministic**: for any
//! input, the result is identical at every thread count, because work is
//! partitioned by *index ranges* (never by work stealing) and partial results
//! are merged in chunk order. The codec crates rely on this to guarantee
//! byte-identical bitstreams whether they run on one core or sixteen.
//!
//! The crate deliberately has no dependencies and builds on
//! [`std::thread::scope`], so borrowed slices can be fanned out without any
//! `'static` bounds or channel plumbing. The only `unsafe` in the workspace's
//! parallel path lives here, in the scatter phase of [`radix_sort_pairs`],
//! behind a safe API; all other helpers are safe code built on
//! `split_at_mut`.
//!
//! Thread-count resolution follows a three-step chain (see [`resolve`]):
//! explicit request → `PCC_THREADS` environment variable →
//! [`std::thread::available_parallelism`].
//!
//! Beyond the data-parallel primitives, [`queue`] provides the bounded
//! blocking queue that pipeline stages (encode → transmit in
//! `pcc-stream`) use for backpressure.

pub mod queue;

use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;

/// Environment variable consulted when no explicit thread count is configured.
pub const THREADS_ENV: &str = "PCC_THREADS";

/// Below this many items a stage runs inline; fan-out overhead would dominate.
pub const MIN_ITEMS_PER_THREAD: usize = 4096;

/// Hardware parallelism, falling back to 1 if the platform cannot report it.
pub fn available() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Thread count requested via the `PCC_THREADS` environment variable, if any.
///
/// Read once and cached for the process lifetime, so a stage mid-pipeline
/// cannot observe a different value than the stage before it. Unparseable or
/// zero values are ignored.
pub fn env_threads() -> Option<NonZeroUsize> {
    static CACHE: OnceLock<Option<NonZeroUsize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .and_then(NonZeroUsize::new)
    })
}

/// Resolves an optional explicit thread count through the configuration chain:
/// explicit value → `PCC_THREADS` → available hardware parallelism.
pub fn resolve(requested: Option<NonZeroUsize>) -> NonZeroUsize {
    requested
        .or_else(env_threads)
        .unwrap_or_else(available)
}

/// Effective fan-out for `len` items at a resolved thread count: enough
/// threads that each handles at least [`MIN_ITEMS_PER_THREAD`] items, and
/// never more threads than items.
pub fn effective_threads(threads: NonZeroUsize, len: usize) -> usize {
    let cap = len.div_ceil(MIN_ITEMS_PER_THREAD).max(1);
    threads.get().min(cap)
}

/// Splits `0..len` into at most `parts` contiguous near-equal ranges.
///
/// Ranges are non-empty and cover `0..len` in order; fewer than `parts`
/// ranges are returned when `len < parts`. `len == 0` yields no ranges.
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(len);
    if parts == 0 {
        return Vec::new();
    }
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Like [`chunk_ranges`], but each range start is advanced to the next index
/// `i` where `starts_run(i)` is true, so a run of equal keys never straddles
/// two chunks. Index 0 always starts a run. Ranges that become empty are
/// dropped; the returned ranges still cover `0..len` in order.
///
/// `starts_run(i)` must be pure (typically `key[i] != key[i - 1]`).
pub fn aligned_chunk_ranges(
    len: usize,
    parts: usize,
    starts_run: impl Fn(usize) -> bool,
) -> Vec<Range<usize>> {
    let raw = chunk_ranges(len, parts);
    let mut out: Vec<Range<usize>> = Vec::with_capacity(raw.len());
    for r in raw {
        let mut start = r.start;
        while start < len && start != 0 && !starts_run(start) {
            start += 1;
        }
        let start = start.min(len);
        match out.last_mut() {
            Some(prev) => prev.end = start,
            None => debug_assert_eq!(start, 0),
        }
        if start < r.end || out.is_empty() {
            out.push(start..r.end);
        }
    }
    if let Some(last) = out.last_mut() {
        last.end = len;
    }
    out.retain(|r| !r.is_empty());
    out
}

/// Runs `f(chunk_index, range)` for every range, fanning out across scoped
/// threads, and returns the results **in range order** (determinism does not
/// depend on completion order). With zero or one range no thread is spawned;
/// otherwise the first range runs on the calling thread while the rest run on
/// spawned threads, so `n` ranges use `n` threads total, not `n + 1`.
///
/// A panic in any closure propagates to the caller after all threads join.
pub fn scope_map<R, F>(ranges: &[Range<usize>], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    match ranges {
        [] => Vec::new(),
        [only] => vec![f(0, only.clone())],
        [first, rest @ ..] => std::thread::scope(|s| {
            let f = &f;
            let handles: Vec<_> = rest
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let r = r.clone();
                    s.spawn(move || f(i + 1, r))
                })
                .collect();
            let mut out = Vec::with_capacity(ranges.len());
            out.push(f(0, first.clone()));
            out.extend(handles.into_iter().map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            }));
            out
        }),
    }
}

/// Splits one mutable slice into the consecutive sub-slices delimited by
/// `cuts` (ascending interior cut positions, relative to the slice start).
/// Returns `cuts.len() + 1` sub-slices; a cut may equal a neighbour, yielding
/// an empty part. Panics if cuts are out of order or exceed the length.
pub fn split_at_many<'a, T>(mut slice: &'a mut [T], cuts: &[usize]) -> Vec<&'a mut [T]> {
    let mut parts = Vec::with_capacity(cuts.len() + 1);
    let mut consumed = 0;
    for &cut in cuts {
        let (head, tail) = slice.split_at_mut(cut - consumed);
        parts.push(head);
        slice = tail;
        consumed = cut;
    }
    parts.push(slice);
    parts
}

/// Fills disjoint regions of `out` in parallel: `out` is split at the range
/// boundaries and `f(chunk_index, range, part)` receives each input range
/// together with the matching output sub-slice. `ranges` must cover `0..out.len()`
/// contiguously (as produced by [`chunk_ranges`] / [`aligned_chunk_ranges`]).
pub fn par_fill<T, F>(out: &mut [T], ranges: &[Range<usize>], f: F)
where
    T: Send,
    F: Fn(usize, Range<usize>, &mut [T]) + Sync,
{
    if ranges.is_empty() {
        return;
    }
    debug_assert_eq!(ranges.first().map(|r| r.start), Some(0));
    debug_assert_eq!(ranges.last().map(|r| r.end), Some(out.len()));
    let cuts: Vec<usize> = ranges[1..].iter().map(|r| r.start).collect();
    let parts = split_at_many(out, &cuts);
    scope_run(parts, ranges.to_vec(), f);
}

/// Runs `f(part_index, ctx, part)` for pre-split disjoint mutable parts, each
/// paired with a per-part context value, one scoped thread per part beyond
/// the first (which runs on the calling thread).
///
/// This is the safe scatter primitive for outputs whose per-chunk regions are
/// contiguous but live in a *different* index space than the input chunks
/// (e.g. per-parent occupancy bytes written from per-child ranges): the
/// caller splits the output with [`split_at_many`] and passes whatever
/// context each part needs. Panics if `parts` and `ctxs` differ in length.
pub fn scope_run<T, C, F>(parts: Vec<&mut [T]>, ctxs: Vec<C>, f: F)
where
    T: Send,
    C: Send,
    F: Fn(usize, C, &mut [T]) + Sync,
{
    assert_eq!(parts.len(), ctxs.len(), "parts/ctxs length mismatch");
    let single = parts.len() == 1;
    let mut iter = parts.into_iter().zip(ctxs).enumerate();
    let Some((_, (first_part, first_ctx))) = iter.next() else {
        return;
    };
    if single {
        f(0, first_ctx, first_part);
        return;
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = iter
            .map(|(i, (part, ctx))| s.spawn(move || f(i, ctx, part)))
            .collect();
        f(0, first_ctx, first_part);
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Runs `f` behind a panic-isolation boundary, converting a panic into
/// `Err(message)` instead of unwinding into the caller.
///
/// This is the supervision primitive for streaming call sites: a worker
/// panic inside one frame's encode (including panics propagated out of
/// [`scope_map`] / [`scope_run`] fan-outs) becomes a recoverable
/// per-frame failure rather than a dead session. The closure is wrapped
/// in [`AssertUnwindSafe`](std::panic::AssertUnwindSafe), which is sound
/// here **only** under the supervision contract: on `Err` the caller
/// must treat every piece of state the closure could have touched as
/// poisoned — drop it, reset it, or re-anchor it — never resume using it
/// as if the call had succeeded.
///
/// The panic payload is flattened to its `&str`/`String` message when it
/// has one (the overwhelmingly common case), or a placeholder otherwise.
pub fn contain<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Raw-pointer wrapper letting scoped threads scatter-write disjoint indices
/// of one slice. Confined to this crate (the scatter phase of
/// [`radix_sort_pairs`]); every write target is provably unique because radix
/// offsets partition the output positions.
struct SharedSliceMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: threads only perform writes to disjoint indices (enforced by the
// caller contract of `write`), so sharing the pointer across scoped threads
// cannot race.
unsafe impl<T: Send> Sync for SharedSliceMut<'_, T> {}

impl<'a, T: Copy> SharedSliceMut<'a, T> {
    fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// # Safety
    /// Each index must be written by at most one thread while the wrapper is
    /// alive, and nothing may read the slice concurrently.
    unsafe fn write(&self, idx: usize, value: T) {
        debug_assert!(idx < self.len);
        // SAFETY: idx is in bounds (debug-asserted; callers derive it from
        // prefix sums over the slice length) and uniquely owned per contract.
        unsafe { self.ptr.add(idx).write(value) }
    }
}

const RADIX_BUCKETS: usize = 256;

/// Reusable buffers for [`radix_sort_pairs`], so repeated sorts (one per
/// frame in video mode) do not reallocate the ping-pong arrays or the
/// per-thread histograms. Buffers grow on demand and persist between calls.
#[derive(Debug, Default)]
pub struct SortScratch {
    keys_tmp: Vec<u64>,
    payload_tmp: Vec<u32>,
    /// Flattened `[thread][bucket]` histogram / offset matrix (sequential
    /// path: `[byte][bucket]`).
    counts: Vec<usize>,
    /// Spare key buffer loaned to callers via [`SortScratch::take_staging`],
    /// so call sites that must build a `u64` key array before sorting (e.g.
    /// Morton codes unwrapped to raw values) can reuse one allocation across
    /// frames.
    staging: Vec<u64>,
}

impl SortScratch {
    /// An empty scratch; buffers are grown by the first sort that uses it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Detaches the spare staging buffer (cleared, capacity preserved).
    ///
    /// Callers build their key array in it, sort, and hand it back with
    /// [`SortScratch::restore_staging`] so the capacity survives to the
    /// next frame. Taking twice without restoring simply yields a fresh
    /// empty buffer.
    pub fn take_staging(&mut self) -> Vec<u64> {
        let mut buf = std::mem::take(&mut self.staging);
        buf.clear();
        buf
    }

    /// Returns a buffer obtained from [`SortScratch::take_staging`],
    /// preserving its capacity for the next frame.
    pub fn restore_staging(&mut self, buf: Vec<u64>) {
        self.staging = buf;
    }
}

/// Stable LSD radix sort of `(key, payload)` pairs by ascending key,
/// parallelised over `threads` with bit-deterministic output.
///
/// Only the key bytes that actually vary are processed (a max-key scan skips
/// leading zero bytes). Each pass builds per-thread digit histograms over
/// contiguous chunks, merges them digit-major into global write offsets —
/// reproducing exactly the stable order of a sequential counting sort — and
/// scatters in parallel, each thread advancing its own private cursors.
///
/// `keys` and `payload` must have equal length. Sorts in place.
pub fn radix_sort_pairs(
    keys: &mut Vec<u64>,
    payload: &mut Vec<u32>,
    scratch: &mut SortScratch,
    threads: NonZeroUsize,
) -> usize {
    assert_eq!(keys.len(), payload.len(), "key/payload length mismatch");
    let n = keys.len();
    if n <= 1 {
        return 0;
    }
    let max_key = keys.iter().copied().max().unwrap_or(0);
    let used_bytes = (64 - max_key.leading_zeros() as usize).div_ceil(8);
    if used_bytes == 0 {
        return 0;
    }

    scratch.keys_tmp.resize(n, 0);
    scratch.payload_tmp.resize(n, 0);
    let fan = effective_threads(threads, n);
    if fan <= 1 {
        return radix_sort_pairs_seq(keys, payload, scratch, used_bytes);
    }
    let ranges = chunk_ranges(n, fan);
    let fan = ranges.len();
    scratch.counts.clear();
    scratch.counts.resize(fan * RADIX_BUCKETS, 0);

    let mut src_keys: &mut Vec<u64> = keys;
    let mut src_payload: &mut Vec<u32> = payload;
    let mut dst_keys: &mut Vec<u64> = &mut scratch.keys_tmp;
    let mut dst_payload: &mut Vec<u32> = &mut scratch.payload_tmp;

    for pass in 0..used_bytes {
        let shift = pass * 8;
        // Phase 1: per-thread digit histograms over contiguous chunks.
        let histograms: Vec<[usize; RADIX_BUCKETS]> = scope_map(&ranges, |_, r| {
            let mut hist = [0usize; RADIX_BUCKETS];
            for &k in &src_keys[r] {
                hist[(k >> shift) as usize & 0xff] += 1;
            }
            hist
        });
        // Phase 2: digit-major merge into per-thread global write offsets.
        // Bucket d of thread t starts after every thread's buckets < d and
        // after buckets d of threads < t — exactly the stable sequential
        // order, so the output is identical at any fan-out.
        let offsets = &mut scratch.counts;
        let mut acc = 0usize;
        for d in 0..RADIX_BUCKETS {
            for (t, hist) in histograms.iter().enumerate() {
                offsets[t * RADIX_BUCKETS + d] = acc;
                acc += hist[d];
            }
        }
        debug_assert_eq!(acc, n);
        // Phase 3: parallel scatter; each thread owns private cursors and a
        // provably disjoint set of destination indices.
        {
            let out_keys = SharedSliceMut::new(dst_keys.as_mut_slice());
            let out_payload = SharedSliceMut::new(dst_payload.as_mut_slice());
            let offsets = &*offsets;
            scope_map(&ranges, |t, r| {
                let mut cursors = [0usize; RADIX_BUCKETS];
                cursors.copy_from_slice(&offsets[t * RADIX_BUCKETS..(t + 1) * RADIX_BUCKETS]);
                for i in r {
                    let k = src_keys[i];
                    let d = (k >> shift) as usize & 0xff;
                    let dest = cursors[d];
                    cursors[d] += 1;
                    // SAFETY: dest values across all threads enumerate each
                    // output index exactly once (prefix-sum partition), and
                    // no thread reads dst during the scatter.
                    unsafe {
                        out_keys.write(dest, k);
                        out_payload.write(dest, src_payload[i]);
                    }
                }
            });
        }
        std::mem::swap(&mut src_keys, &mut dst_keys);
        std::mem::swap(&mut src_payload, &mut dst_payload);
    }

    // After an odd number of passes the sorted data lives in the scratch
    // buffers; O(1) pointer swaps hand it back while the scratch retains the
    // other allocation for reuse.
    if used_bytes % 2 == 1 {
        std::mem::swap(keys, &mut scratch.keys_tmp);
        std::mem::swap(payload, &mut scratch.payload_tmp);
    }
    used_bytes
}

/// Single-thread radix kernel: one read sweep builds the digit histograms
/// for *every* significant byte at once (digit frequencies are
/// permutation-invariant, so histograms computed on the unsorted input
/// stay valid for every later pass), then each pass prefix-sums its
/// histogram into stack cursors and scatters sequentially. Passes whose
/// digit is constant across all keys are skipped — a stable scatter on a
/// constant digit is the identity permutation, so the output is
/// byte-identical to performing it. Performs zero heap allocations once
/// the scratch buffers have warmed to the input size.
fn radix_sort_pairs_seq(
    keys: &mut Vec<u64>,
    payload: &mut Vec<u32>,
    scratch: &mut SortScratch,
    used_bytes: usize,
) -> usize {
    let n = keys.len();
    let SortScratch { keys_tmp, payload_tmp, counts, .. } = scratch;
    counts.clear();
    counts.resize(used_bytes * RADIX_BUCKETS, 0);
    for &k in keys.iter() {
        let bytes = k.to_le_bytes();
        for (b, &byte) in bytes.iter().take(used_bytes).enumerate() {
            counts[b * RADIX_BUCKETS + byte as usize] += 1;
        }
    }

    let mut flipped = false;
    {
        let mut src_k: &mut [u64] = keys;
        let mut src_p: &mut [u32] = payload;
        let mut dst_k: &mut [u64] = keys_tmp;
        let mut dst_p: &mut [u32] = payload_tmp;
        for pass in 0..used_bytes {
            let hist = &counts[pass * RADIX_BUCKETS..(pass + 1) * RADIX_BUCKETS];
            if hist.contains(&n) {
                continue; // constant digit: stable scatter is the identity
            }
            let mut cursors = [0usize; RADIX_BUCKETS];
            let mut acc = 0usize;
            for (cursor, &count) in cursors.iter_mut().zip(hist) {
                *cursor = acc;
                acc += count;
            }
            debug_assert_eq!(acc, n);
            let shift = pass * 8;
            for (&k, &p) in src_k.iter().zip(src_p.iter()) {
                let d = (k >> shift) as usize & 0xff;
                let dest = cursors[d];
                cursors[d] += 1;
                dst_k[dest] = k;
                dst_p[dest] = p;
            }
            std::mem::swap(&mut src_k, &mut dst_k);
            std::mem::swap(&mut src_p, &mut dst_p);
            flipped = !flipped;
        }
    }
    if flipped {
        std::mem::swap(keys, keys_tmp);
        std::mem::swap(payload, payload_tmp);
    }
    used_bytes
}

/// Compacts consecutive runs of equal *mapped* values in parallel, into
/// caller-owned buffers.
///
/// For a slice whose mapped values are non-decreasing under `map` (e.g.
/// sorted Morton codes mapped to their parent cell), fills:
/// - `unique` with the unique mapped values in order of first occurrence,
///   and
/// - `run_of` with, for every input element, the index of its run in that
///   unique list.
///
/// Deterministic at any thread count: chunks are aligned to run boundaries,
/// per-chunk unique counts are prefix-summed, and each chunk writes disjoint
/// contiguous regions of both outputs. Both buffers are cleared and
/// refilled; capacity persists across calls, so a steady-state caller (one
/// compaction per frame) performs no heap allocation once the buffers have
/// warmed to the working-set size. The single-thread path builds both
/// outputs in one sweep with no intermediate partitioning.
pub fn compact_runs_into<T, K, F>(
    items: &[T],
    map: F,
    threads: NonZeroUsize,
    unique: &mut Vec<K>,
    run_of: &mut Vec<u32>,
) where
    T: Sync,
    K: Copy + Default + Eq + Send + Sync,
    F: Fn(&T) -> K + Sync,
{
    unique.clear();
    run_of.clear();
    let n = items.len();
    if n == 0 {
        return;
    }
    let fan = effective_threads(threads, n);
    if fan <= 1 {
        run_of.reserve(n);
        let mut prev: Option<K> = None;
        for item in items {
            let k = map(item);
            if prev != Some(k) {
                unique.push(k);
                prev = Some(k);
            }
            run_of.push(unique.len() as u32 - 1);
        }
        return;
    }
    let ranges = aligned_chunk_ranges(n, fan, |i| map(&items[i]) != map(&items[i - 1]));

    // Pass A: count runs per chunk (chunks start at run boundaries, so runs
    // never straddle chunks and counts are independent).
    let run_counts: Vec<usize> = scope_map(&ranges, |_, r| {
        let mut count = 0usize;
        let mut prev: Option<K> = None;
        for item in &items[r] {
            let k = map(item);
            if prev != Some(k) {
                count += 1;
                prev = Some(k);
            }
        }
        count
    });
    let mut bases = Vec::with_capacity(ranges.len() + 1);
    let mut total = 0usize;
    for &c in &run_counts {
        bases.push(total);
        total += c;
    }
    bases.push(total);

    // Pass B: each chunk writes its contiguous region of both outputs.
    unique.resize(total, K::default());
    run_of.resize(n, 0);
    let unique_cuts: Vec<usize> = bases[1..ranges.len()].to_vec();
    let item_cuts: Vec<usize> = ranges[1..].iter().map(|r| r.start).collect();
    let unique_parts = split_at_many(unique.as_mut_slice(), &unique_cuts);
    let run_parts = split_at_many(run_of.as_mut_slice(), &item_cuts);

    let fill = |t: usize, range: Range<usize>, uniq: &mut [K], runs: &mut [u32]| {
        let base = bases[t] as u32;
        let mut local = u32::MAX; // wraps to 0 on the first run
        let mut prev: Option<K> = None;
        for (j, item) in items[range].iter().enumerate() {
            let k = map(item);
            if prev != Some(k) {
                local = local.wrapping_add(1);
                uniq[local as usize] = k;
                prev = Some(k);
            }
            runs[j] = base + local;
        }
    };

    std::thread::scope(|s| {
        let mut work: Vec<_> = ranges
            .iter()
            .cloned()
            .zip(unique_parts)
            .zip(run_parts)
            .enumerate()
            .map(|(t, ((range, uniq), runs))| (t, range, uniq, runs))
            .collect();
        let (t0, range0, uniq0, runs0) = work.remove(0);
        let fill = &fill;
        let handles: Vec<_> = work
            .into_iter()
            .map(|(t, range, uniq, runs)| s.spawn(move || fill(t, range, uniq, runs)))
            .collect();
        fill(t0, range0, uniq0, runs0);
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn contain_converts_panics_into_errors() {
        assert_eq!(contain(|| 41 + 1), Ok(42));
        let err = contain(|| -> u32 { panic!("frame 7 exploded") }).unwrap_err();
        assert!(err.contains("frame 7 exploded"), "got {err}");
        let msg = format!("formatted {}", 3);
        let err = contain(|| -> u32 { panic!("{msg}") }).unwrap_err();
        assert_eq!(err, "formatted 3");
    }

    #[test]
    fn contain_catches_panics_from_scoped_fanouts() {
        // A worker panic inside scope_map propagates via resume_unwind on
        // join; contain must stop it at the supervision boundary.
        let err = contain(|| {
            scope_map(&chunk_ranges(8, 2), |i, _r| {
                if i == 1 {
                    panic!("worker down");
                }
                i
            })
        })
        .unwrap_err();
        assert!(err.contains("worker down"), "got {err}");
    }

    #[test]
    fn chunk_ranges_cover_and_order() {
        for len in [0usize, 1, 5, 17, 4096, 10_000] {
            for parts in [1usize, 2, 3, 7, 16] {
                let ranges = chunk_ranges(len, parts);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    assert!(r.end > r.start);
                    expect = r.end;
                }
                assert_eq!(expect, len);
                assert!(ranges.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn aligned_ranges_never_split_runs() {
        // Keys with long runs crossing naive chunk boundaries.
        let keys: Vec<u32> = (0..1000).map(|i| (i / 170) as u32).collect();
        for parts in [1usize, 2, 3, 4, 8] {
            let ranges =
                aligned_chunk_ranges(keys.len(), parts, |i| keys[i] != keys[i - 1]);
            let mut expect = 0;
            for r in &ranges {
                assert_eq!(r.start, expect);
                if r.start > 0 {
                    assert_ne!(keys[r.start], keys[r.start - 1], "run split at {}", r.start);
                }
                expect = r.end;
            }
            assert_eq!(expect, keys.len());
        }
    }

    #[test]
    fn aligned_ranges_single_run() {
        let ranges = aligned_chunk_ranges(100, 4, |_| false);
        assert_eq!(ranges, vec![0..100]);
    }

    #[test]
    fn scope_map_results_in_range_order() {
        let ranges = chunk_ranges(100, 7);
        let sums = scope_map(&ranges, |_, r| r.sum::<usize>());
        let expect: Vec<usize> = ranges.iter().map(|r| r.clone().sum()).collect();
        assert_eq!(sums, expect);
    }

    #[test]
    fn par_fill_writes_every_slot() {
        let mut out = vec![0usize; 999];
        let ranges = chunk_ranges(out.len(), 5);
        par_fill(&mut out, &ranges, |_, range, part| {
            for (j, slot) in part.iter_mut().enumerate() {
                *slot = range.start + j;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn split_at_many_roundtrip() {
        let mut data: Vec<u32> = (0..10).collect();
        let parts = split_at_many(&mut data, &[2, 2, 7]);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0], &[0, 1]);
        assert!(parts[1].is_empty());
        assert_eq!(parts[2], &[2, 3, 4, 5, 6]);
        assert_eq!(parts[3], &[7, 8, 9]);
    }

    fn ref_sort(keys: &[u64], payload: &[u32]) -> (Vec<u64>, Vec<u32>) {
        let mut idx: Vec<usize> = (0..keys.len()).collect();
        idx.sort_by_key(|&i| keys[i]); // stable
        (
            idx.iter().map(|&i| keys[i]).collect(),
            idx.iter().map(|&i| payload[i]).collect(),
        )
    }

    #[test]
    fn radix_sort_matches_stable_reference_at_all_thread_counts() {
        // Pseudo-random keys with duplicates to exercise stability.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut step = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let keys: Vec<u64> = (0..20_000).map(|_| step() % 5000).collect();
        let payload: Vec<u32> = (0..20_000u32).collect();
        let (want_keys, want_payload) = ref_sort(&keys, &payload);
        for threads in [1usize, 2, 3, 8] {
            let mut k = keys.clone();
            let mut p = payload.clone();
            let mut scratch = SortScratch::new();
            radix_sort_pairs(&mut k, &mut p, &mut scratch, nz(threads));
            assert_eq!(k, want_keys, "threads={threads}");
            assert_eq!(p, want_payload, "threads={threads}");
        }
    }

    #[test]
    fn radix_sort_scratch_reuse_across_calls() {
        let mut scratch = SortScratch::new();
        for round in 0..3u64 {
            let keys_src: Vec<u64> = (0..10_000).map(|i| (i * 2654435761 + round) % 100_000).collect();
            let payload_src: Vec<u32> = (0..10_000u32).collect();
            let (want_k, want_p) = ref_sort(&keys_src, &payload_src);
            let mut k = keys_src;
            let mut p = payload_src;
            radix_sort_pairs(&mut k, &mut p, &mut scratch, nz(4));
            assert_eq!(k, want_k);
            assert_eq!(p, want_p);
        }
    }

    #[test]
    fn radix_sort_trivial_inputs() {
        let mut scratch = SortScratch::new();
        let mut k: Vec<u64> = vec![];
        let mut p: Vec<u32> = vec![];
        assert_eq!(radix_sort_pairs(&mut k, &mut p, &mut scratch, nz(4)), 0);
        let mut k = vec![7u64];
        let mut p = vec![0u32];
        assert_eq!(radix_sort_pairs(&mut k, &mut p, &mut scratch, nz(4)), 0);
        assert_eq!(k, [7]);
        // All-zero keys: no used bytes, no passes.
        let mut k = vec![0u64; 10];
        let mut p: Vec<u32> = (0..10).collect();
        assert_eq!(radix_sort_pairs(&mut k, &mut p, &mut scratch, nz(4)), 0);
        assert_eq!(p, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn radix_sort_skips_constant_digit_passes_correctly() {
        // Byte 1 is constant (0xAA) across all keys: the sequential kernel
        // skips that pass, and the result must still match the reference.
        let keys: Vec<u64> = (0..9000u64).map(|i| (i.wrapping_mul(2654435761) % 251) | 0xAA00).collect();
        let payload: Vec<u32> = (0..9000u32).collect();
        let (want_k, want_p) = ref_sort(&keys, &payload);
        for threads in [1usize, 4] {
            let mut k = keys.clone();
            let mut p = payload.clone();
            let mut scratch = SortScratch::new();
            radix_sort_pairs(&mut k, &mut p, &mut scratch, nz(threads));
            assert_eq!(k, want_k, "threads={threads}");
            assert_eq!(p, want_p, "threads={threads}");
        }
        // High-byte-only variation: three significant bytes with the low two
        // constant, so two passes are skipped and parity flips only once.
        let keys: Vec<u64> = (0..9000u64).map(|i| ((i % 100) << 16) | 0x5511).collect();
        let payload: Vec<u32> = (0..9000u32).collect();
        let (want_k, want_p) = ref_sort(&keys, &payload);
        let mut k = keys;
        let mut p = payload;
        let mut scratch = SortScratch::new();
        radix_sort_pairs(&mut k, &mut p, &mut scratch, nz(1));
        assert_eq!(k, want_k);
        assert_eq!(p, want_p);
    }

    #[test]
    fn staging_buffer_round_trips_with_capacity() {
        let mut scratch = SortScratch::new();
        let mut buf = scratch.take_staging();
        buf.extend(0..1000u64);
        let cap = buf.capacity();
        scratch.restore_staging(buf);
        let buf = scratch.take_staging();
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), cap, "staging capacity must survive the round trip");
        scratch.restore_staging(buf);
    }

    #[test]
    fn compact_runs_matches_sequential_at_all_thread_counts() {
        let items: Vec<u64> = (0..30_000u64).map(|i| i / 7).collect();
        let map = |v: &u64| *v >> 2;
        // Sequential reference.
        let mut want_unique = Vec::new();
        let mut want_runs = Vec::new();
        for item in &items {
            let k = map(item);
            if want_unique.last() != Some(&k) {
                want_unique.push(k);
            }
            want_runs.push(want_unique.len() as u32 - 1);
        }
        // Warm buffers first hold a larger, different compaction.
        let dirty: Vec<u64> = (0..40_000u64).map(|i| i / 3 + 11).collect();
        for threads in [1usize, 2, 3, 5, 8] {
            let (mut unique, mut runs) = (Vec::new(), Vec::new());
            compact_runs_into(&items, map, nz(threads), &mut unique, &mut runs);
            assert_eq!(unique, want_unique, "threads={threads}");
            assert_eq!(runs, want_runs, "threads={threads}");
            compact_runs_into(&dirty, |v| *v, nz(threads), &mut unique, &mut runs);
            compact_runs_into(&items, map, nz(threads), &mut unique, &mut runs);
            assert_eq!(unique, want_unique, "threads={threads} (warm buffers)");
            assert_eq!(runs, want_runs, "threads={threads} (warm buffers)");
        }
    }

    #[test]
    fn resolve_prefers_explicit_request() {
        assert_eq!(resolve(Some(nz(3))), nz(3));
        assert!(resolve(None).get() >= 1);
    }

    #[test]
    fn effective_threads_caps_small_inputs() {
        assert_eq!(effective_threads(nz(8), 100), 1);
        assert_eq!(effective_threads(nz(8), MIN_ITEMS_PER_THREAD * 3), 3);
        assert_eq!(effective_threads(nz(2), usize::MAX / 2), 2);
        assert_eq!(effective_threads(nz(4), 0), 1);
    }
}
