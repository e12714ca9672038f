//! Deterministic work-partitioning executor for the compression hot path.
//!
//! Every parallel primitive in this crate is **bit-deterministic**: for any
//! input, the result is identical at every thread count, because work is
//! partitioned by *index ranges* (never by work stealing) and partial results
//! are merged in chunk order. The codec crates rely on this to guarantee
//! byte-identical bitstreams whether they run on one core or sixteen.
//!
//! Every kernel that fans out does so through the same few pieces:
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
//! dependencies. Its only `unsafe` is that hand-off of a borrowed item to
//! a worker, inside the pool module, behind [`run`]'s safe API; the crate
//! denies `unsafe_code` everywhere else, and every other helper is safe
//! code built on `split_at_mut`.
//!
//! The crate also holds two front-end kernels that run on the calling
//! thread, because a fan-out of them does more work than one thread does
//! (more histogram sweeps and scatters, every key scanned twice): the
//! stable radix sort ([`radix_sort_pairs`]) and run compaction
//! ([`compact_runs_into`]). Neither output depends on the thread count.
//!
//! Thread-count resolution follows a three-step chain (see [`resolve`]):
//! explicit request → `PCC_THREADS` environment variable →
//! [`std::thread::available_parallelism`].

#![deny(unsafe_code)]

#[allow(unsafe_code)]
mod pool;

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

/// Widest radix digit, in bits: keys of `bits` significant bits sort in
/// `ceil(bits / MAX_DIGIT_BITS)` passes. At 9, the workloads' 26-bit
/// (100k points, depth 9) and 23-bit (20k points, depth 8) codes sort in
/// three passes of 9 and of 8 bits, and 48-bit codes in six of 8, with
/// 6 KiB of counters. A 13-bit cap saves a pass on both frames and sorts
/// them about a fifth faster, but its counters take 64 KiB of every
/// session's scratch.
const MAX_DIGIT_BITS: u32 = 9;

/// Counters in one digit's row.
const MAX_BUCKETS: usize = 1 << MAX_DIGIT_BITS;

/// A key [`radix_sort_pairs`] can sort: a plain value ordered by its
/// unsigned 64-bit image (Morton codes implement it in `pcc-morton`).
pub trait RadixKey: Copy + Default {
    /// The key's sort order as an unsigned integer.
    fn radix(self) -> u64;
}

/// Reusable buffers for [`radix_sort_pairs`] over keys of type `K`, so
/// repeated sorts (one per frame in video mode) do not reallocate the
/// ping-pong arrays or the digit counters. Buffers grow on demand and
/// persist between calls.
#[derive(Debug, Default)]
pub struct SortScratch<K> {
    keys_tmp: Vec<K>,
    payload_tmp: Vec<u32>,
    /// One row of counts per digit, turned into that pass's write cursors
    /// in place.
    counts: Vec<[u32; MAX_BUCKETS]>,
}

impl<K: RadixKey> SortScratch<K> {
    /// An empty scratch; buffers are grown by the first sort that uses it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Stable LSD radix sort of `(key, payload)` pairs by ascending key, in
/// place, on the calling thread. Returns the number of scatter passes run.
///
/// The digit is sized from the key width: keys whose bitwise OR has `bits`
/// significant bits sort in `passes = ceil(bits / 9)` digits of
/// `ceil(bits / passes)` bits each. One read sweep counts every digit at
/// once (digit frequencies do not depend on the order, so counts taken on
/// the unsorted input hold for every pass). A pass whose digit is the same
/// in every key is skipped, since a stable scatter on it is the identity;
/// every other pass prefix-sums its counts into write cursors in place and
/// scatters once. Once `scratch` has warmed to the input size, a sort
/// allocates nothing.
///
/// # Panics
///
/// Panics if `keys` and `payload` differ in length or hold more than
/// `u32::MAX` pairs.
pub fn radix_sort_pairs<K: RadixKey>(
    keys: &mut Vec<K>,
    payload: &mut Vec<u32>,
    scratch: &mut SortScratch<K>,
) -> usize {
    let SortScratch { keys_tmp, payload_tmp, counts } = scratch;
    sort_pairs(keys, payload, keys_tmp, payload_tmp, counts)
}

/// [`radix_sort_pairs`] with the scratch buffers as parameters of their
/// own: passed as separate `&mut` arguments, the compiler knows the five
/// buffers are disjoint, and the scatter loop ran about a fifth faster
/// than with the buffers borrowed out of one struct inside the function.
fn sort_pairs<K: RadixKey>(
    keys: &mut Vec<K>,
    payload: &mut Vec<u32>,
    keys_tmp: &mut Vec<K>,
    payload_tmp: &mut Vec<u32>,
    counts: &mut Vec<[u32; MAX_BUCKETS]>,
) -> usize {
    assert_eq!(keys.len(), payload.len(), "key/payload length mismatch");
    let n = keys.len();
    let total = u32::try_from(n).expect("at most u32::MAX pairs");
    let bits = 64 - keys.iter().fold(0, |acc, k| acc | k.radix()).leading_zeros();
    if n <= 1 || bits == 0 {
        return 0;
    }
    let passes = bits.div_ceil(MAX_DIGIT_BITS);
    let width = bits.div_ceil(passes);
    let mask = (1 << width) - 1;

    counts.clear();
    counts.resize(passes as usize, [0; MAX_BUCKETS]);
    // The digit count is a constant in each arm, so the per-key loop over
    // the digits unrolls into independent increments: the sort ran about
    // 1.9 times as fast as with one loop over a runtime digit count.
    match passes {
        1 => count_digits::<K, 1>(keys, width, counts),
        2 => count_digits::<K, 2>(keys, width, counts),
        3 => count_digits::<K, 3>(keys, width, counts),
        4 => count_digits::<K, 4>(keys, width, counts),
        5 => count_digits::<K, 5>(keys, width, counts),
        6 => count_digits::<K, 6>(keys, width, counts),
        7 => count_digits::<K, 7>(keys, width, counts),
        _ => count_digits::<K, 8>(keys, width, counts),
    }

    keys_tmp.resize(n, K::default());
    payload_tmp.resize(n, 0);
    let mut scatters = 0;
    {
        let (mut src_k, mut dst_k): (&mut [K], &mut [K]) = (keys, keys_tmp);
        let (mut src_p, mut dst_p): (&mut [u32], &mut [u32]) = (payload, payload_tmp);
        for (pass, cursors) in (0..passes).zip(counts.iter_mut()) {
            if cursors.contains(&total) {
                continue;
            }
            let mut at = 0;
            for cursor in cursors.iter_mut() {
                at += std::mem::replace(cursor, at);
            }
            let shift = pass * width;
            for (&k, &p) in src_k.iter().zip(src_p.iter()) {
                // The mask keeps the digit below `MAX_BUCKETS`; the `%` is
                // there only so the compiler drops the bounds check.
                let cursor = &mut cursors[((k.radix() >> shift) & mask) as usize % MAX_BUCKETS];
                let dest = *cursor as usize;
                *cursor += 1;
                dst_k[dest] = k;
                dst_p[dest] = p;
            }
            std::mem::swap(&mut src_k, &mut dst_k);
            std::mem::swap(&mut src_p, &mut dst_p);
            scatters += 1;
        }
    }
    // After an odd number of scatters the sorted pairs live in the scratch
    // buffers; swapping the vectors hands them back and leaves the scratch
    // the other allocation.
    if scatters % 2 == 1 {
        std::mem::swap(keys, keys_tmp);
        std::mem::swap(payload, payload_tmp);
    }
    scatters
}

/// Adds every `width`-bit digit of every key to its row of `counts`, which
/// holds exactly `DIGITS` rows.
fn count_digits<K: RadixKey, const DIGITS: usize>(
    keys: &[K],
    width: u32,
    counts: &mut [[u32; MAX_BUCKETS]],
) {
    let rows: &mut [[u32; MAX_BUCKETS]; DIGITS] =
        counts.try_into().expect("one row of counts per digit");
    let mask = (1 << width) - 1;
    for k in keys {
        let mut digits = k.radix();
        for row in rows.iter_mut() {
            row[(digits & mask) as usize % MAX_BUCKETS] += 1;
            digits >>= width;
        }
    }
}

/// Compacts consecutive runs of equal *mapped* values into caller-owned
/// buffers, on the calling thread.
///
/// For a slice whose mapped values are non-decreasing under `map` (e.g.
/// sorted Morton codes mapped to their parent cell), fills:
/// - `unique` with the unique mapped values in order of first occurrence,
///   and
/// - `run_of` with, for every input element, the index of its run in that
///   unique list.
///
/// A compare-only sweep counts the runs and each output is sized to its
/// exact length. The fill is branch-free: every element bumps the run
/// index by whether it starts a run and writes its mapped value at that
/// index, so a run's last write is its value. Both buffers are cleared
/// and refilled; capacity persists across calls, so a steady-state caller
/// (one compaction per frame) performs no heap allocation once the
/// buffers have warmed to the working-set size.
pub fn compact_runs_into<T, K: Copy + Default + Eq>(
    items: &[T],
    map: impl Fn(&T) -> K,
    unique: &mut Vec<K>,
    run_of: &mut Vec<u32>,
) {
    unique.clear();
    run_of.clear();
    let Some(first) = items.first().map(&map) else { return };
    let mut prev = first;
    let mut runs = 1;
    for item in items {
        let k = map(item);
        runs += usize::from(k != prev);
        prev = k;
    }
    // `reserve_exact` first: growing through `resize` alone may double.
    unique.reserve_exact(runs);
    unique.resize(runs, K::default());
    run_of.reserve_exact(items.len());
    run_of.resize(items.len(), 0);
    let (mut prev, mut run) = (first, 0);
    for (item, slot) in items.iter().zip(run_of.iter_mut()) {
        let k = map(item);
        run += usize::from(k != prev);
        prev = k;
        unique[run] = k;
        *slot = run as u32;
    }
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

    /// A splitmix64 stream from `seed`.
    fn splitmix(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// The scatters the sort must run on `keys`: one per digit of the
    /// documented split that is not the same in every key.
    fn varying_digits(keys: &[u64]) -> usize {
        let bits = 64 - keys.iter().fold(0, |acc, &k| acc | k).leading_zeros();
        if keys.len() <= 1 || bits == 0 {
            return 0;
        }
        let passes = bits.div_ceil(MAX_DIGIT_BITS);
        let width = bits.div_ceil(passes);
        let digit = |k: u64, d: u32| (k >> (d * width)) & ((1 << width) - 1);
        (0..passes).filter(|&d| keys.iter().any(|&k| digit(k, d) != digit(keys[0], d))).count()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        /// The sort equals a stable index sort, payload included, for key
        /// widths 1 to 64 bits (every digit split, including widths the
        /// digit cap does not divide) and 0 to three digits' worth of
        /// pairs, with one digit held constant or all keys equal, through
        /// scratch first dirtied by a larger sort of full-width keys. It
        /// scatters once per digit that varies and skips the rest.
        #[test]
        fn radix_sort_matches_a_stable_index_sort(
            seed in any::<u64>(),
            len in 0usize..=3 * MAX_BUCKETS,
            bits in 1u32..=64,
            shape in 0u32..8,
            hold in 0u32..8,
        ) {
            let mut rng = splitmix(seed);
            let mask = u64::MAX >> (64 - bits);
            let mut keys: Vec<u64> = Vec::with_capacity(len);
            for i in 0..len {
                // Half the keys repeat an earlier one when shape is odd,
                // so equal keys far apart test stability.
                let repeat = shape % 2 == 1 && i > 0 && rng().is_multiple_of(2);
                let key = if repeat { keys[(rng() % i as u64) as usize] } else { rng() & mask };
                keys.push(key);
            }
            let passes = bits.div_ceil(MAX_DIGIT_BITS);
            let width = bits.div_ceil(passes);
            match shape {
                0 => {
                    let first = keys.first().copied().unwrap_or(0);
                    keys.fill(first);
                }
                1..=4 => {
                    // Hold one digit of the nominal split at one value.
                    let lo = (hold % passes) * width;
                    let field = (mask >> lo).min((1 << width) - 1) << lo;
                    let value = rng() & field;
                    keys.iter_mut().for_each(|k| *k = (*k & !field) | value);
                }
                _ => {}
            }
            let payload: Vec<u32> = (0..len as u32).collect();
            let (want_keys, want_payload) = ref_sort(&keys, &payload);

            let mut scratch = SortScratch::new();
            let mut dirty_k: Vec<u64> = (0..len + 100).map(|_| rng()).collect();
            let mut dirty_p: Vec<u32> = (0..len as u32 + 100).rev().collect();
            radix_sort_pairs(&mut dirty_k, &mut dirty_p, &mut scratch);
            prop_assert!(dirty_k.windows(2).all(|w| w[0] <= w[1]));

            let (mut k, mut p) = (keys.clone(), payload);
            let scatters = radix_sort_pairs(&mut k, &mut p, &mut scratch);
            prop_assert_eq!(&k, &want_keys);
            prop_assert_eq!(&p, &want_payload);
            prop_assert_eq!(scatters, varying_digits(&keys));
        }
    }

    #[test]
    fn radix_sort_trivial_inputs() {
        let mut scratch = SortScratch::new();
        let mut k: Vec<u64> = vec![];
        let mut p: Vec<u32> = vec![];
        assert_eq!(radix_sort_pairs(&mut k, &mut p, &mut scratch), 0);
        let mut k = vec![7u64];
        let mut p = vec![0u32];
        assert_eq!(radix_sort_pairs(&mut k, &mut p, &mut scratch), 0);
        assert_eq!(k, [7]);
        // All-zero keys: no significant bits, no passes.
        let mut k = vec![0u64; 10];
        let mut p: Vec<u32> = (0..10).collect();
        assert_eq!(radix_sort_pairs(&mut k, &mut p, &mut scratch), 0);
        assert_eq!(p, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn radix_sort_digits_follow_the_key_width() {
        // 26-bit keys sort in three 9-bit digits, 18-bit keys in two and
        // 48-bit keys in six 8-bit ones; low digits held constant are
        // skipped, and an odd number of scatters still hands the result
        // back in `keys`.
        let mut scratch = SortScratch::new();
        for (keys, scatters) in [
            ((0..9000u64).map(|i| ((i * 2654435761) % (1 << 26)) | (1 << 25)).collect::<Vec<_>>(), 3),
            ((0..9000u64).map(|i| ((i * 2654435761) % (1 << 18)) | (1 << 17)).collect(), 2),
            ((0..9000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16).collect(), 6),
            ((0..9000u64).map(|i| ((i % 100) << 18) | 0x2_5511 | (1 << 25)).collect(), 1),
        ] {
            let payload: Vec<u32> = (0..keys.len() as u32).collect();
            let (want_k, want_p) = ref_sort(&keys, &payload);
            let (mut k, mut p) = (keys, payload);
            assert_eq!(radix_sort_pairs(&mut k, &mut p, &mut scratch), scatters);
            assert_eq!(k, want_k);
            assert_eq!(p, want_p);
        }
    }

    /// The sequential reference of [`compact_runs_into`].
    fn ref_compact(items: &[u64], map: impl Fn(&u64) -> u64) -> (Vec<u64>, Vec<u32>) {
        let (mut unique, mut runs) = (Vec::new(), Vec::new());
        for item in items {
            let k = map(item);
            if unique.last() != Some(&k) {
                unique.push(k);
            }
            runs.push(unique.len() as u32 - 1);
        }
        (unique, runs)
    }

    proptest! {
        /// Run compaction equals its sequential reference. Outputs that
        /// grow from a shorter compaction's are allocated to exactly their
        /// length; outputs first filled by a larger, different compaction
        /// are cleared and refilled.
        #[test]
        fn compact_runs_matches_a_sequential_reference(
            steps in prop::collection::vec(0u8..6, 0..3_000),
            shift in 0u32..4,
        ) {
            let keys: Vec<u64> = run_keys(&steps).iter().map(|&k| k as u64).collect();
            let dirty: Vec<u64> = (0..keys.len() as u64 + 500).map(|i| i / 3 + 11).collect();
            let map = |v: &u64| *v >> shift;
            let (want_unique, want_runs) = ref_compact(&keys, map);
            let (mut unique, mut runs) = (Vec::new(), Vec::new());
            compact_runs_into(&keys[..keys.len() * 3 / 4], map, &mut unique, &mut runs);
            compact_runs_into(&keys, map, &mut unique, &mut runs);
            prop_assert_eq!(&unique, &want_unique);
            prop_assert_eq!(&runs, &want_runs);
            prop_assert_eq!((unique.capacity(), runs.capacity()), (unique.len(), runs.len()));
            compact_runs_into(&dirty, |v| *v, &mut unique, &mut runs);
            compact_runs_into(&keys, map, &mut unique, &mut runs);
            prop_assert_eq!(&unique, &want_unique);
            prop_assert_eq!(&runs, &want_runs);
        }
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
