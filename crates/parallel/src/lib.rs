//! Deterministic work-partitioning executor for the compression hot path.
//!
//! Every parallel primitive in this crate is **bit-deterministic**: for any
//! input, the result is identical at every thread count, because work is
//! partitioned by *index ranges* (never by work stealing) and partial results
//! are merged in chunk order. The codec crates rely on this to guarantee
//! byte-identical bitstreams whether they run on one core or sixteen.
//!
//! Every kernel fans out through the same few pieces:
//! - [`chunks`] / [`aligned_chunks`] yield the chunk ranges of `0..len`
//!   (plain, or moved forward to run starts so a run never straddles two
//!   chunks);
//! - [`split_at_cuts`] splits an output slice lazily into the disjoint
//!   part each chunk writes, and [`slots`] lends each chunk its own
//!   scratch from the caller's arena;
//! - [`run`] executes one work item per chunk, the first on the calling
//!   thread and each other on a worker of one process-wide pool of parked
//!   threads, and hands the results back in item order. A single item runs
//!   inline, so the one-thread path of every kernel never touches the pool.
//!
//! [`chunks`] and [`split_at_cuts`] never allocate, and [`slots`] only
//! when a fan is wider than any before it. [`run`] allocates only while
//! its pool grows: a call spawns a worker only when every existing worker
//! is busy, so once the pool has grown to the process's peak fan-out,
//! calls spawn and allocate nothing.
//!
//! The pool's worker spawn is the crate's one spawn site. Items and results
//! are handed across by pointer, so borrowed slices can be fanned out
//! without any `'static` bounds or channel plumbing. The crate has no
//! dependencies. The only `unsafe` in the workspace's parallel path lives
//! here, behind safe APIs: the pool's hand-off of a borrowed item to a
//! worker, and the scatter phase of [`radix_sort_pairs`]; all other
//! helpers are safe code built on `split_at_mut`.
//!
//! Thread-count resolution follows a three-step chain (see [`resolve`]):
//! explicit request → `PCC_THREADS` environment variable →
//! [`std::thread::available_parallelism`].

mod pool;

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
/// ranges are yielded when `len < parts`. `len == 0` yields no ranges.
pub fn chunks(len: usize, parts: usize) -> Chunks<fn(usize) -> bool> {
    aligned_chunks(len, parts, |_| true)
}

/// Like [`chunks`], but each range start is advanced to the next index `i`
/// where `starts_run(i)` is true, so a run of equal keys never straddles
/// two chunks. Index 0 always starts a run. Ranges that become empty are
/// dropped; the yielded ranges still cover `0..len` in order.
///
/// `starts_run(i)` must be pure (typically `key[i] != key[i - 1]`); it is
/// only called for `0 < i < len`.
pub fn aligned_chunks<F: Fn(usize) -> bool>(len: usize, parts: usize, starts_run: F) -> Chunks<F> {
    Chunks { len, parts: parts.max(1).min(len), next: 0, start: 0, starts_run }
}

/// The ranges of [`chunks`] or [`aligned_chunks`], computed as they are
/// yielded.
#[derive(Clone)]
pub struct Chunks<F> {
    len: usize,
    parts: usize,
    /// Index of the next near-equal part whose start is still to be found.
    next: usize,
    /// Start of the next range to yield.
    start: usize,
    starts_run: F,
}

impl<F: Fn(usize) -> bool> Iterator for Chunks<F> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        while self.next < self.parts {
            self.next += 1;
            // Part `i` of `parts` near-equal parts starts at
            // `i * base + min(i, extra)`: the first `extra` are one longer.
            let (base, extra) = (self.len / self.parts, self.len % self.parts);
            let mut end = self.next * base + self.next.min(extra);
            while end < self.len && !(self.starts_run)(end) {
                end += 1;
            }
            let start = std::mem::replace(&mut self.start, end);
            if start < end {
                return Some(start..end);
            }
        }
        None
    }
}

/// Splits `slice` lazily into the consecutive parts delimited by `cuts`
/// (ascending cut positions, relative to the slice start): one part per
/// cut, then the rest of the slice. A cut may equal its neighbour, yielding
/// an empty part.
///
/// The iterator panics if a cut is below the one before it or past the end
/// of the slice.
pub fn split_at_cuts<T, I: IntoIterator<Item = usize>>(
    slice: &mut [T],
    cuts: I,
) -> SplitAtCuts<'_, T, I::IntoIter> {
    SplitAtCuts { rest: Some(slice), at: 0, cuts: cuts.into_iter() }
}

/// The parts of [`split_at_cuts`], split off as they are yielded.
pub struct SplitAtCuts<'a, T, I> {
    rest: Option<&'a mut [T]>,
    /// Position of `rest` in the original slice.
    at: usize,
    cuts: I,
}

impl<'a, T, I: Iterator<Item = usize>> Iterator for SplitAtCuts<'a, T, I> {
    type Item = &'a mut [T];

    fn next(&mut self) -> Option<&'a mut [T]> {
        let rest = self.rest.take()?;
        let Some(cut) = self.cuts.next() else { return Some(rest) };
        let (head, tail) = rest.split_at_mut(cut - self.at);
        self.at = cut;
        self.rest = Some(tail);
        Some(head)
    }
}

/// Per-chunk scratch slots kept in a caller's arena: grows `slots` to at
/// least `n` entries and yields them in order, so chunk `c` of a fan-out
/// borrows slot `c`. A fan is bounded by the thread count, so a
/// steady-state caller allocates only when a fan wider than any before
/// it appears (and then only the new slots), and each slot keeps its
/// capacity across calls.
pub fn slots<T: Default>(slots: &mut Vec<T>, n: usize) -> std::slice::IterMut<'_, T> {
    if slots.len() < n {
        slots.resize_with(n, T::default);
    }
    slots.iter_mut()
}

/// Runs `work` on every item and hands each result to `each` **in item
/// order** (determinism does not depend on completion order).
///
/// The first item runs on the calling thread and every other item on a
/// worker of its own from one process-wide pool of parked threads, so `n`
/// items use `n` threads in all, not `n + 1`. A call checks its workers
/// out of the pool's free list and spawns one only when the list is
/// short, so once the pool has grown to the process's peak fan-out a call
/// spawns nothing and allocates nothing. A single item runs inline.
/// Nested calls (from inside an item) and concurrent calls never
/// deadlock: a call never waits for a worker another call holds. A panic
/// in any item is re-raised on the caller after every item has finished;
/// the worker that caught it stays in the pool.
pub fn run<W, R>(
    items: impl IntoIterator<Item = W>,
    work: impl Fn(W) -> R + Sync,
    mut each: impl FnMut(R),
) where
    W: Send,
    R: Send,
{
    let mut items = items.into_iter();
    let Some(first) = items.next() else { return };
    let Some(second) = items.next() else { return each(work(first)) };
    pool::fan_out(&work, first, &mut std::iter::once(second).chain(items), &mut each);
}

/// Runs `f` behind a panic-isolation boundary, converting a panic into
/// `Err(message)` instead of unwinding into the caller.
///
/// This is the supervision primitive for streaming call sites: a worker
/// panic inside one frame's encode (including panics propagated out of
/// [`run`] fan-outs) becomes a recoverable
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

/// Raw-pointer wrapper letting pool workers scatter-write disjoint indices
/// of one slice. Confined to this crate (the scatter phase of
/// [`radix_sort_pairs`]); every write target is provably unique because radix
/// offsets partition the output positions.
struct SharedSliceMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: threads only perform writes to disjoint indices (enforced by the
// caller contract of `write`), so sharing the pointer across workers
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

/// A key [`radix_sort_pairs`] can sort: a plain value ordered by its
/// unsigned 64-bit image (Morton codes implement it in `pcc-morton`).
pub trait RadixKey: Copy + Default + Send + Sync {
    /// The key's sort order as an unsigned integer.
    fn radix(self) -> u64;
}

/// Reusable buffers for [`radix_sort_pairs`] over keys of type `K`, so
/// repeated sorts (one per frame in video mode) do not reallocate the
/// ping-pong arrays or the per-thread histograms. Buffers grow on demand
/// and persist between calls.
#[derive(Debug, Default)]
pub struct SortScratch<K> {
    keys_tmp: Vec<K>,
    payload_tmp: Vec<u32>,
    /// Flattened `[thread][bucket]` histogram / offset matrix (sequential
    /// path: `[byte][bucket]`).
    counts: Vec<usize>,
}

impl<K: RadixKey> SortScratch<K> {
    /// An empty scratch; buffers are grown by the first sort that uses it.
    pub fn new() -> Self {
        Self::default()
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
pub fn radix_sort_pairs<K: RadixKey>(
    keys: &mut Vec<K>,
    payload: &mut Vec<u32>,
    scratch: &mut SortScratch<K>,
    threads: NonZeroUsize,
) -> usize {
    assert_eq!(keys.len(), payload.len(), "key/payload length mismatch");
    let n = keys.len();
    if n <= 1 {
        return 0;
    }
    let max_key = keys.iter().map(|k| k.radix()).max().unwrap_or(0);
    let used_bytes = (64 - max_key.leading_zeros() as usize).div_ceil(8);
    if used_bytes == 0 {
        return 0;
    }

    scratch.keys_tmp.resize(n, K::default());
    scratch.payload_tmp.resize(n, 0);
    let fan = effective_threads(threads, n);
    if fan <= 1 {
        return radix_sort_pairs_seq(keys, payload, scratch, used_bytes);
    }
    let counts = &mut scratch.counts;
    counts.clear();
    counts.resize(fan * RADIX_BUCKETS, 0);

    let mut src_keys: &mut Vec<K> = keys;
    let mut src_payload: &mut Vec<u32> = payload;
    let mut dst_keys: &mut Vec<K> = &mut scratch.keys_tmp;
    let mut dst_payload: &mut Vec<u32> = &mut scratch.payload_tmp;

    for pass in 0..used_bytes {
        let shift = pass * 8;
        let (src_k, src_p) = (&**src_keys, &**src_payload);
        // Phase 1: per-chunk digit histograms over contiguous chunks, one
        // row of `counts` each.
        let rows = counts.chunks_exact_mut(RADIX_BUCKETS);
        run(
            chunks(n, fan).zip(rows),
            |(r, row)| {
                let mut hist = [0usize; RADIX_BUCKETS];
                for &k in &src_k[r] {
                    hist[(k.radix() >> shift) as usize & 0xff] += 1;
                }
                row.copy_from_slice(&hist);
            },
            drop,
        );
        // Phase 2: digit-major merge, in place, into per-chunk global write
        // offsets. Bucket d of chunk t starts after every chunk's buckets
        // < d and after buckets d of chunks < t — exactly the stable
        // sequential order, so the output is identical at any fan-out.
        let mut acc = 0usize;
        for d in 0..RADIX_BUCKETS {
            for t in 0..fan {
                let slot = &mut counts[t * RADIX_BUCKETS + d];
                acc += std::mem::replace(slot, acc);
            }
        }
        debug_assert_eq!(acc, n);
        // Phase 3: parallel scatter; each chunk owns private cursors and a
        // provably disjoint set of destination indices.
        {
            let out_keys = SharedSliceMut::new(dst_keys.as_mut_slice());
            let out_payload = SharedSliceMut::new(dst_payload.as_mut_slice());
            run(
                chunks(n, fan).zip(counts.chunks_exact(RADIX_BUCKETS)),
                |(r, offsets)| {
                    let mut cursors = [0usize; RADIX_BUCKETS];
                    cursors.copy_from_slice(offsets);
                    for i in r {
                        let k = src_k[i];
                        let d = (k.radix() >> shift) as usize & 0xff;
                        let dest = cursors[d];
                        cursors[d] += 1;
                        // SAFETY: dest values across all chunks enumerate
                        // each output index exactly once (prefix-sum
                        // partition), and no thread reads dst during the
                        // scatter.
                        unsafe {
                            out_keys.write(dest, k);
                            out_payload.write(dest, src_p[i]);
                        }
                    }
                },
                drop,
            );
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
fn radix_sort_pairs_seq<K: RadixKey>(
    keys: &mut Vec<K>,
    payload: &mut Vec<u32>,
    scratch: &mut SortScratch<K>,
    used_bytes: usize,
) -> usize {
    let n = keys.len();
    let SortScratch { keys_tmp, payload_tmp, counts } = scratch;
    counts.clear();
    counts.resize(used_bytes * RADIX_BUCKETS, 0);
    for &k in keys.iter() {
        let bytes = k.radix().to_le_bytes();
        for (b, &byte) in bytes.iter().take(used_bytes).enumerate() {
            counts[b * RADIX_BUCKETS + byte as usize] += 1;
        }
    }

    let mut flipped = false;
    {
        let mut src_k: &mut [K] = keys;
        let mut src_p: &mut [u32] = payload;
        let mut dst_k: &mut [K] = keys_tmp;
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
                let d = (k.radix() >> shift) as usize & 0xff;
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
/// per-chunk unique counts are prefix-summed into `bases` (each chunk's
/// first run index; scratch the caller keeps), and each chunk writes
/// disjoint contiguous regions of both outputs. All three buffers are
/// cleared and refilled; capacity persists across calls, so a
/// steady-state caller (one compaction per frame) performs no heap
/// allocation at any thread count once the buffers have warmed to the
/// working-set size. The single-thread path builds both outputs in one
/// sweep with no intermediate partitioning.
pub fn compact_runs_into<T, K, F>(
    items: &[T],
    map: F,
    threads: NonZeroUsize,
    unique: &mut Vec<K>,
    run_of: &mut Vec<u32>,
    bases: &mut Vec<usize>,
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
    let ranges = aligned_chunks(n, fan, |i| map(&items[i]) != map(&items[i - 1]));

    // Pass A: count runs per chunk (chunks start at run boundaries, so runs
    // never straddle chunks and counts are independent); `bases` gets each
    // chunk's first run index.
    bases.clear();
    let mut total = 0usize;
    run(
        ranges.clone(),
        |r| {
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
        },
        |count| {
            bases.push(total);
            total += count;
        },
    );

    // Pass B: each chunk writes its contiguous region of both outputs.
    unique.resize(total, K::default());
    run_of.resize(n, 0);
    let unique_parts = split_at_cuts(unique, bases.iter().skip(1).copied());
    let run_parts = split_at_cuts(run_of, ranges.clone().skip(1).map(|r| r.start));
    run(
        ranges.zip(bases.iter()).zip(unique_parts).zip(run_parts),
        |(((range, &base), uniq), runs)| {
            let base = base as u32;
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
        },
        drop,
    );
}

/// Reduces each run of equal keys to one value in parallel, into
/// caller-owned buffers: the sibling of [`compact_runs_into`] that carries
/// a value per item.
///
/// For `keys` whose equal keys are adjacent (e.g. sorted Morton codes),
/// fills `unique` with each run's key and `reduced` with `reduce` of the
/// run's slice of `values`. Chunks are aligned to run starts
/// ([`aligned_chunks`]), so each run is reduced whole by one chunk;
/// per-chunk run counts are prefix-summed into `bases` (the caller's
/// scratch) and each chunk writes its own part of both outputs, so they
/// are identical at every thread count. All three buffers are refilled,
/// so a warm caller allocates nothing.
///
/// # Panics
///
/// Panics if `keys` and `values` differ in length.
pub fn reduce_runs_into<K, V, R>(
    keys: &[K],
    values: &[V],
    threads: NonZeroUsize,
    reduce: impl Fn(&[V]) -> R + Sync,
    unique: &mut Vec<K>,
    reduced: &mut Vec<R>,
    bases: &mut Vec<usize>,
) where
    K: Copy + Default + Eq + Send + Sync,
    V: Sync,
    R: Copy + Default + Send,
{
    assert_eq!(keys.len(), values.len(), "key/value length mismatch");
    unique.clear();
    reduced.clear();
    let n = keys.len();
    let fan = effective_threads(threads, n);
    // The runs of `range`, in order, as index ranges.
    let runs = |range: Range<usize>| {
        let mut at = range.start;
        std::iter::from_fn(move || {
            let start = at;
            let &key = keys[..range.end].get(start)?;
            at += keys[start..range.end].iter().take_while(|&&k| k == key).count();
            Some(start..at)
        })
    };
    if fan <= 1 {
        for run in runs(0..n) {
            unique.push(keys[run.start]);
            reduced.push(reduce(&values[run]));
        }
        return;
    }
    let ranges = aligned_chunks(n, fan, |i| keys[i] != keys[i - 1]);

    // Pass A: count each chunk's runs; `bases` gets each chunk's first
    // run index.
    bases.clear();
    let mut total = 0usize;
    run(ranges.clone(), |r| runs(r).count(), |count| {
        bases.push(total);
        total += count;
    });

    // Pass B: each chunk reduces its runs into its part of both outputs.
    unique.resize(total, K::default());
    reduced.resize(total, R::default());
    let unique_parts = split_at_cuts(unique, bases.iter().skip(1).copied());
    let reduced_parts = split_at_cuts(reduced, bases.iter().skip(1).copied());
    run(
        ranges.zip(unique_parts).zip(reduced_parts),
        |((range, uniq), red)| {
            for ((run, u), r) in runs(range).zip(uniq).zip(red) {
                *u = keys[run.start];
                *r = reduce(&values[run]);
            }
        },
        drop,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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
        // A worker panic inside run propagates via resume_unwind on join;
        // contain must stop it at the supervision boundary.
        let err = contain(|| {
            run(
                0..2,
                |i| {
                    if i == 1 {
                        panic!("worker down");
                    }
                },
                drop,
            )
        })
        .unwrap_err();
        assert!(err.contains("worker down"), "got {err}");
    }

    /// `run(0..n)` over `i -> i * i + offset`, one thread, for comparison.
    fn squares(n: usize, offset: usize) -> Vec<usize> {
        (0..n).map(|i| i * i + offset).collect()
    }

    #[test]
    fn nested_run_inside_an_item_finishes_with_the_one_thread_result() {
        let mut got = Vec::new();
        run(
            0..3,
            |i| {
                let mut inner = Vec::new();
                run(0..4, |j| j * j + i, |r| inner.push(r));
                inner
            },
            |inner| got.push(inner),
        );
        assert_eq!(got, (0..3).map(|i| squares(4, i)).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_callers_each_get_the_one_thread_result() {
        // Four unrelated caller threads share the one pool, released
        // together so their fan-outs overlap.
        let start = std::sync::Barrier::new(4);
        #[allow(clippy::disallowed_methods)]
        std::thread::scope(|s| {
            for caller in 0..4 {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for _ in 0..25 {
                        let mut got = Vec::new();
                        run(0..5, |i| i * i + caller, |r| got.push(r));
                        assert_eq!(got, squares(5, caller));
                    }
                });
            }
        });
    }

    #[test]
    fn worker_spans_reach_take_report_when_run_returns() {
        pcc_probe::set_enabled(true);
        let caller = std::thread::current().id();
        let mut on_workers = 0;
        run(
            0..3,
            |_| {
                let _sp = pcc_probe::span("parallel_test/item");
                std::thread::current().id()
            },
            |thread| on_workers += usize::from(thread != caller),
        );
        let report = pcc_probe::take_report();
        pcc_probe::set_enabled(false);
        assert_eq!(on_workers, 2);
        // The two workers are parked, not exited: their spans must be
        // collected from live threads.
        assert_eq!(report.stage("parallel_test/item").map(|s| s.calls), Some(3));
    }

    /// Keys with runs of random length: a new run starts wherever `steps`
    /// holds a zero.
    fn run_keys(steps: &[u8]) -> Vec<usize> {
        steps
            .iter()
            .scan(0, |key, &step| {
                *key += usize::from(step == 0);
                Some(*key)
            })
            .collect()
    }

    proptest! {
        /// Plain and aligned chunks are non-empty, cover `0..len` in order
        /// and number at most `parts`; plain chunks are the near-equal
        /// split, and aligned chunks are the plain ones with each start
        /// moved forward to the next run start, empty ones dropped.
        #[test]
        fn chunks_cover_in_order_and_honour_run_starts(
            steps in prop::collection::vec(0u8..6, 0..600),
            parts in 1usize..12,
        ) {
            let keys = run_keys(&steps);
            let len = keys.len();
            let starts_run = |i: usize| keys[i] != keys[i - 1];
            let plain: Vec<_> = chunks(len, parts).collect();
            let aligned: Vec<_> = aligned_chunks(len, parts, starts_run).collect();
            for ranges in [&plain, &aligned] {
                prop_assert!(ranges.len() <= parts);
                prop_assert!(ranges.iter().all(|r| !r.is_empty()));
                prop_assert_eq!(ranges.first().map_or(0, |r| r.start), 0);
                prop_assert_eq!(ranges.last().map_or(0, |r| r.end), len);
                prop_assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
            }
            prop_assert_eq!(plain.len(), parts.min(len));
            let (small, large) = (len / parts.min(len).max(1), len.div_ceil(parts.min(len).max(1)));
            prop_assert!(plain.iter().all(|r| r.len() == small || r.len() == large));
            prop_assert!(plain.windows(2).all(|w| w[0].len() >= w[1].len()));
            prop_assert!(aligned.iter().all(|r| r.start == 0 || starts_run(r.start)));
            let advance = |mut i: usize| {
                while i < len && i != 0 && !starts_run(i) {
                    i += 1;
                }
                i
            };
            let mut cuts: Vec<usize> = plain.iter().map(|r| advance(r.start)).collect();
            cuts.push(len);
            cuts.dedup();
            let want: Vec<_> = cuts.windows(2).map(|w| w[0]..w[1]).collect();
            prop_assert_eq!(aligned, want);
        }

        /// `run` hands results over in item order for 0 to 8 items; the
        /// first item runs on the calling thread, and every other item on
        /// a thread of its own.
        #[test]
        fn run_yields_results_in_item_order(count in 0usize..9, work in 0u64..2000) {
            let caller = std::thread::current().id();
            let mut got = Vec::new();
            run(
                0..count,
                |i| {
                    // Later items finish first: item i spins longest at i == 0.
                    let spins = work * (count - i) as u64;
                    let mut acc = 0u64;
                    for k in 0..spins {
                        acc = std::hint::black_box(acc.wrapping_add(k));
                    }
                    (i, std::thread::current().id(), acc)
                },
                |(i, thread, _)| got.push((i, thread)),
            );
            prop_assert_eq!(got.len(), count);
            for (want, &(i, thread)) in got.iter().enumerate() {
                prop_assert_eq!(i, want);
                prop_assert_eq!(thread == caller, i == 0);
            }
            let threads: std::collections::BTreeSet<_> =
                got.iter().map(|&(_, t)| format!("{t:?}")).collect();
            prop_assert_eq!(threads.len(), count);
        }

        /// A panic in any item reaches the caller only after every other
        /// item has finished: the others wait until the panicking item has
        /// raised its flag, so an early re-raise would find them unfinished.
        #[test]
        fn run_reraises_a_worker_panic_after_every_thread_joined(
            count in 2usize..9,
            bad_pick in 0usize..8,
        ) {
            let bad = bad_pick % count;
            let raised = AtomicBool::new(false);
            let finished = AtomicUsize::new(0);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run(
                    0..count,
                    |i| {
                        if i == bad {
                            raised.store(true, Ordering::SeqCst);
                            panic!("item {i} failed");
                        }
                        while !raised.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    },
                    drop,
                )
            }));
            let payload = outcome.expect_err("the item panic must reach the caller");
            let message = payload.downcast_ref::<String>().cloned().unwrap_or_default();
            prop_assert_eq!(message, format!("item {bad} failed"));
            prop_assert_eq!(finished.load(Ordering::SeqCst), count - 1);
        }
    }

    #[test]
    fn aligned_chunks_of_a_single_run_are_one_chunk() {
        let ranges: Vec<_> = aligned_chunks(100, 4, |_| false).collect();
        assert_eq!(ranges, vec![0..100]);
    }

    #[test]
    fn split_at_cuts_yields_every_part_including_empty_ones() {
        let mut data: Vec<u32> = (0..10).collect();
        let parts: Vec<&mut [u32]> = split_at_cuts(&mut data, [2, 2, 7]).collect();
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0], &[0, 1]);
        assert!(parts[1].is_empty());
        assert_eq!(parts[2], &[2, 3, 4, 5, 6]);
        assert_eq!(parts[3], &[7, 8, 9]);
    }

    impl RadixKey for u64 {
        fn radix(self) -> u64 {
            self
        }
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
            let (mut unique, mut runs, mut bases) = (Vec::new(), Vec::new(), Vec::new());
            compact_runs_into(&items, map, nz(threads), &mut unique, &mut runs, &mut bases);
            assert_eq!(unique, want_unique, "threads={threads}");
            assert_eq!(runs, want_runs, "threads={threads}");
            compact_runs_into(&dirty, |v| *v, nz(threads), &mut unique, &mut runs, &mut bases);
            compact_runs_into(&items, map, nz(threads), &mut unique, &mut runs, &mut bases);
            assert_eq!(unique, want_unique, "threads={threads} (warm buffers)");
            assert_eq!(runs, want_runs, "threads={threads} (warm buffers)");
        }
    }

    #[test]
    fn reduce_runs_keeps_runs_that_straddle_the_even_cuts_whole() {
        // 3 threads split 36_000 items at 12_000 and 24_000; runs of 7
        // (plus a short first run) put both cuts inside a run, so the
        // aligned chunks must move each cut to that run's start.
        let n = 36_000u64;
        let keys: Vec<u64> = (0..n).map(|i| (i + 1) / 7).collect();
        assert!(keys[12_000] == keys[11_999] && keys[24_000] == keys[23_999]);
        let values: Vec<u64> = (0..n).map(|i| i * i % 1_009).collect();
        let sum = |run: &[u64]| run.iter().sum::<u64>() * 1_000 + run.len() as u64;
        // Sequential reference.
        let (mut want_unique, mut want_sums) = (Vec::new(), Vec::<u64>::new());
        for (&k, &v) in keys.iter().zip(&values) {
            if want_unique.last() == Some(&k) {
                *want_sums.last_mut().unwrap() += v * 1_000 + 1;
            } else {
                want_unique.push(k);
                want_sums.push(v * 1_000 + 1);
            }
        }
        let dirty: Vec<u64> = (0..50_000u64).map(|i| i / 2 + 5).collect();
        for threads in [1usize, 2, 3, 5] {
            let (mut unique, mut sums, mut bases) = (Vec::new(), Vec::new(), Vec::new());
            reduce_runs_into(&dirty, &dirty, nz(threads), sum, &mut unique, &mut sums, &mut bases);
            reduce_runs_into(&keys, &values, nz(threads), sum, &mut unique, &mut sums, &mut bases);
            assert_eq!(unique, want_unique, "threads={threads}");
            assert_eq!(sums, want_sums, "threads={threads}");
        }
        let (mut unique, mut sums, mut bases) = (vec![1u64], vec![1u64], Vec::new());
        reduce_runs_into(&[], &[], nz(3), sum, &mut unique, &mut sums, &mut bases);
        assert!(unique.is_empty() && sums.is_empty());
    }

    #[test]
    fn slots_grow_to_the_widest_fan_and_keep_their_contents() {
        let mut arena: Vec<Vec<u8>> = Vec::new();
        assert_eq!(slots(&mut arena, 3).count(), 3);
        slots(&mut arena, 1).for_each(|s| s.push(7));
        // A narrower fan lends the same slots; none is dropped.
        assert_eq!(slots(&mut arena, 2).count(), 3);
        assert_eq!(arena, [vec![7], vec![7], vec![7]]);
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
