//! Morton-code computation, radix sorting and the leaf pass.
//!
//! Sorting by Morton code is the first step of every proposed pipeline in
//! the paper: it is what turns an irregular point soup into a spatially
//! coherent sequence whose octree topology is known up front. The sort is
//! an LSD radix sort over the interleaved keys (8-bit digits) that sorts
//! the codes in place and carries one `u32` payload with each code. The
//! encoders carry each point's packed color ([`Rgb::pack`]), so the
//! attributes come out in Morton order with the codes (paper Sec. IV),
//! and one run pass over the sorted pairs ([`leaves_into`]) yields each
//! unique leaf with its voxel's color. [`sorted_permutation`] carries the
//! input index instead, for code that gathers a whole cloud.

use crate::{encode_slice, MortonCode};
use pcc_types::{Rgb, VoxelizedCloud};
use std::num::NonZeroUsize;

/// The radix sort's reusable buffers, typed for Morton keys.
pub type SortScratch = pcc_parallel::SortScratch<MortonCode>;

impl pcc_parallel::RadixKey for MortonCode {
    fn radix(self) -> u64 {
        self.value()
    }
}

/// Morton codes in ascending order, each with the `u32` payload that was
/// sorted with it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SortedCodes {
    /// Morton codes in ascending order (one per input voxel; duplicates
    /// preserved).
    pub codes: Vec<MortonCode>,
    /// `payload[i]` travels with `codes[i]`: a point's packed color in
    /// the encoders, its input index from [`sorted_permutation`].
    pub payload: Vec<u32>,
}

/// Computes the Morton code of every voxel of `cloud`, in input order,
/// into a caller-owned buffer.
///
/// This is the paper's *Morton Code Generation* kernel: each point is
/// independent, so on the modeled GPU it is one embarrassingly parallel
/// pass (≈0.5 ms for a full frame). On the host the coordinate array is
/// cut into contiguous chunks, one `pcc_parallel::run` item each, and the
/// codes come from the spread-table kernel [`crate::encode_slice`]. Chunking
/// is by index, so the output is byte-identical to the scalar reference
/// at every thread count.
///
/// `out` is cleared and refilled; its capacity persists across calls, so
/// a steady-state caller (one codegen per frame, buffer owned by the
/// frame arena) performs no heap allocation once the buffer has warmed
/// to the frame size. The encoders write straight into the
/// [`SortedCodes::codes`] they then sort.
pub fn codes_of_into(cloud: &VoxelizedCloud, threads: NonZeroUsize, out: &mut Vec<MortonCode>) {
    let _sp = pcc_probe::span("morton/codegen");
    let coords = cloud.coords();
    let n = coords.len();
    out.clear();
    out.resize(n, MortonCode::ZERO);
    let ranges = pcc_parallel::chunks(n, pcc_parallel::effective_threads(threads, n));
    let parts = pcc_parallel::split_at_cuts(out, ranges.clone().skip(1).map(|r| r.start));
    pcc_parallel::run(ranges.zip(parts), |(range, part)| encode_slice(&coords[range], part), drop);
}

/// Sorts `sorted.codes` ascending in place, carrying `payload`'s items
/// (one per code, in code order; `sorted.payload` is refilled) with them.
///
/// The sort is stable, so voxels with identical codes keep input order.
/// It runs as a parallel LSD radix sort
/// ([`pcc_parallel::radix_sort_pairs`]): per-thread digit histograms over
/// contiguous chunks are merged digit-major into global prefix offsets,
/// reproducing the exact stable order of the sequential counting sort, so
/// the output is byte-identical at every thread count. Once `scratch`
/// and `sorted` have warmed to the frame size, a sort allocates nothing
/// (`hotpath`'s `radix_sort_ns_per_point` times it with packed colors).
///
/// # Panics
///
/// Panics if `payload` does not yield one item per code.
pub fn sort_codes_into(
    sorted: &mut SortedCodes,
    payload: impl IntoIterator<Item = u32>,
    threads: NonZeroUsize,
    scratch: &mut SortScratch,
) {
    let _sp = pcc_probe::span("morton/radix_sort");
    sorted.payload.clear();
    sorted.payload.extend(payload);
    pcc_parallel::radix_sort_pairs(&mut sorted.codes, &mut sorted.payload, scratch, threads);
}

/// The leaf pass: one run pass over codes sorted with packed colors
/// ([`Rgb::pack`]) writes each unique leaf code into `leaf_codes` and
/// `reduce(sums, count)` into `leaf_values`, where `sums` are the integer
/// channel sums of the `count` points in that leaf.
///
/// Runs go through [`pcc_parallel::reduce_runs_into`], whose chunks never
/// split a run, and the sums are integers, so the outputs are identical
/// at every thread count. `bases` is the caller's run-offset scratch; all
/// three buffers are refilled, so a warm caller allocates nothing.
pub fn leaves_into<R: Copy + Default + Send>(
    sorted: &SortedCodes,
    threads: NonZeroUsize,
    reduce: impl Fn([u32; 3], u32) -> R + Sync,
    leaf_codes: &mut Vec<MortonCode>,
    leaf_values: &mut Vec<R>,
    bases: &mut Vec<usize>,
) {
    let by_sums = |run: &[u32]| {
        let mut sums = [0u32; 3];
        for &p in run {
            for (sum, v) in sums.iter_mut().zip(Rgb::unpack(p).to_array()) {
                *sum += u32::from(v);
            }
        }
        reduce(sums, run.len() as u32)
    };
    let (keys, values) = (&sorted.codes, &sorted.payload);
    pcc_parallel::reduce_runs_into(keys, values, threads, by_sums, leaf_codes, leaf_values, bases);
}

/// Computes codes for `cloud` and sorts them with each voxel's input
/// index as the payload, at the process default thread count
/// ([`pcc_parallel::resolve`]): `payload[rank]` is the input index of the
/// voxel holding sorted rank `rank`, the permutation
/// [`VoxelizedCloud::gather`] takes.
pub fn sorted_permutation(cloud: &VoxelizedCloud) -> SortedCodes {
    let threads = pcc_parallel::resolve(None);
    let mut sorted = SortedCodes::default();
    codes_of_into(cloud, threads, &mut sorted.codes);
    sort_codes_into(&mut sorted, 0..cloud.len() as u32, threads, &mut SortScratch::new());
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode;
    use pcc_types::VoxelCoord;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    fn cloud_from(coords: Vec<VoxelCoord>) -> VoxelizedCloud {
        let colors = vec![Rgb::BLACK; coords.len()];
        VoxelizedCloud::from_grid(coords, colors, 21).unwrap()
    }

    fn random_cloud(rng: &mut SmallRng, n: usize, bits: u32) -> VoxelizedCloud {
        let coords = (0..n)
            .map(|_| {
                VoxelCoord::new(
                    rng.random_range(0..1 << bits),
                    rng.random_range(0..1 << bits),
                    rng.random_range(0..1 << bits),
                )
            })
            .collect();
        cloud_from(coords)
    }

    /// Sorts `codes` with their input indices as the payload, in `out`.
    fn sort_in(codes: &[MortonCode], threads: usize, scratch: &mut SortScratch, out: &mut SortedCodes) {
        out.codes.clear();
        out.codes.extend_from_slice(codes);
        sort_codes_into(out, 0..codes.len() as u32, nz(threads), scratch);
    }

    /// One sort through fresh buffers.
    fn sort(codes: &[MortonCode], threads: usize) -> SortedCodes {
        let mut out = SortedCodes::default();
        sort_in(codes, threads, &mut SortScratch::new(), &mut out);
        out
    }

    #[test]
    fn empty_and_single() {
        let s = sort(&[], 1);
        assert!(s.codes.is_empty());
        let s = sort(&[MortonCode::from_raw(42)], 1);
        assert_eq!(s.codes[0].value(), 42);
        assert_eq!(s.payload, vec![0]);
    }

    #[test]
    fn sorts_and_permutes_consistently() {
        let coords = vec![
            VoxelCoord::new(7, 7, 7),
            VoxelCoord::new(0, 0, 0),
            VoxelCoord::new(3, 3, 3),
            VoxelCoord::new(1, 0, 0),
        ];
        let cloud = cloud_from(coords.clone());
        let sorted = sorted_permutation(&cloud);
        assert!(sorted.codes.windows(2).all(|w| w[0] <= w[1]));
        for (rank, &src) in sorted.payload.iter().enumerate() {
            assert_eq!(sorted.codes[rank], encode(coords[src as usize]));
        }
        // Expected Z-order: (0,0,0) < (1,0,0) < (3,3,3) < (7,7,7).
        assert_eq!(sorted.payload, vec![1, 3, 2, 0]);
    }

    #[test]
    fn stable_on_duplicate_codes() {
        let codes = vec![
            MortonCode::from_raw(5),
            MortonCode::from_raw(5),
            MortonCode::from_raw(1),
            MortonCode::from_raw(5),
        ];
        let s = sort(&codes, 1);
        assert_eq!(s.payload, vec![2, 0, 1, 3]);
    }

    #[test]
    fn leaves_reduce_each_code_run_by_its_integer_color_sums() {
        let codes = [5u64, 1, 5, 9, 5].map(MortonCode::from_raw);
        let colors = [Rgb::gray(10), Rgb::new(1, 2, 3), Rgb::gray(11), Rgb::WHITE, Rgb::gray(12)];
        let mut sorted = SortedCodes { codes: codes.to_vec(), payload: Vec::new() };
        sort_codes_into(&mut sorted, colors.map(Rgb::pack), nz(1), &mut SortScratch::new());
        let (mut leaves, mut sums) = (Vec::new(), Vec::new());
        leaves_into(&sorted, nz(1), |s, k| (s, k), &mut leaves, &mut sums, &mut Vec::new());
        assert_eq!(leaves, [1u64, 5, 9].map(MortonCode::from_raw));
        assert_eq!(sums, [([1, 2, 3], 1), ([33, 33, 33], 3), ([255, 255, 255], 1)]);
    }

    #[test]
    fn matches_std_sort_on_random_input() {
        let mut rng = SmallRng::seed_from_u64(7);
        let codes: Vec<MortonCode> = (0..10_000)
            .map(|_| MortonCode::from_raw(rng.random_range(0..1u64 << 63)))
            .collect();
        let s = sort(&codes, 2);
        let mut expected: Vec<u64> = codes.iter().map(|c| c.value()).collect();
        expected.sort_unstable();
        let got: Vec<u64> = s.codes.iter().map(|c| c.value()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn large_codes_use_all_bytes() {
        let codes = vec![
            MortonCode::from_raw(u64::MAX >> 1),
            MortonCode::from_raw(0),
            MortonCode::from_raw(1u64 << 62),
        ];
        let s = sort(&codes, 1);
        assert_eq!(s.payload, vec![1, 2, 0]);
    }

    #[test]
    fn parallel_sort_is_byte_identical_to_sequential() {
        // Large enough that effective_threads actually fans out (> 4096/thread).
        let mut rng = SmallRng::seed_from_u64(99);
        let codes: Vec<MortonCode> = (0..50_000)
            .map(|_| MortonCode::from_raw(rng.random_range(0..1u64 << 48)))
            .collect();
        let base = sort(&codes, 1);
        for threads in [2usize, 3, 7, 16] {
            let mut scratch = SortScratch::new();
            let mut s = SortedCodes::default();
            sort_in(&codes, threads, &mut scratch, &mut s);
            assert_eq!(s, base, "threads={threads}");
            // Scratch and output reuse must not change results either.
            sort_in(&codes, threads, &mut scratch, &mut s);
            assert_eq!(s, base, "threads={threads} (reused buffers)");
        }
    }

    #[test]
    fn codes_of_identical_across_threads_and_warm_buffers() {
        // The warm buffer first holds a larger, different cloud's codes;
        // the 1-thread fresh pass is the reference.
        let mut rng = SmallRng::seed_from_u64(3);
        let big = random_cloud(&mut rng, 30_000, 12);
        let cloud = random_cloud(&mut rng, 20_000, 10);
        let mut seq = Vec::new();
        codes_of_into(&cloud, nz(1), &mut seq);
        assert!(seq.iter().zip(cloud.coords()).all(|(&c, &v)| c == encode(v)));
        for threads in [1usize, 2, 3, 5, 8] {
            let mut warm = Vec::new();
            codes_of_into(&big, nz(threads), &mut warm);
            codes_of_into(&cloud, nz(threads), &mut warm);
            assert_eq!(warm, seq, "threads={threads}");
        }
    }

    proptest! {
        /// Every thread count, through fresh buffers and through buffers
        /// dirtied by a larger, different sort, yields the 1-thread order.
        #[test]
        fn parallel_sort_permutation_equals_sequential(
            values in prop::collection::vec(0u64..(1 << 63), 0..12_000),
        ) {
            let codes: Vec<MortonCode> = values.iter().map(|&v| MortonCode::from_raw(v)).collect();
            let dirty: Vec<MortonCode> = (0..codes.len() as u64 + 5_000)
                .map(|v| MortonCode::from_raw(v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 1))
                .collect();
            let base = sort(&codes, 1);
            for threads in [1usize, 2, 3, 7] {
                prop_assert_eq!(&sort(&codes, threads), &base);
                let mut scratch = SortScratch::new();
                let mut warm = SortedCodes::default();
                sort_in(&dirty, threads, &mut scratch, &mut warm);
                sort_in(&codes, threads, &mut scratch, &mut warm);
                prop_assert_eq!(&warm, &base);
            }
        }

        #[test]
        fn radix_sort_is_a_sorted_permutation(values in prop::collection::vec(0u64..(1 << 63), 0..200)) {
            let codes: Vec<MortonCode> = values.iter().map(|&v| MortonCode::from_raw(v)).collect();
            let s = sort(&codes, 2);
            prop_assert!(s.codes.windows(2).all(|w| w[0] <= w[1]));
            let mut seen = vec![false; codes.len()];
            for &i in &s.payload {
                prop_assert!(!std::mem::replace(&mut seen[i as usize], true));
            }
            for (rank, &src) in s.payload.iter().enumerate() {
                prop_assert_eq!(s.codes[rank], codes[src as usize]);
            }
        }
    }
}
