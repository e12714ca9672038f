//! Morton-code computation, radix sorting and the leaf pass.
//!
//! Sorting by Morton code is the first step of every proposed pipeline in
//! the paper: it is what turns an irregular point soup into a spatially
//! coherent sequence whose octree topology is known up front. The sort is
//! an LSD radix sort over the interleaved keys, its digits sized from the
//! codes' bit width (three 9-bit digits for a depth-9 frame's 26-bit
//! codes), that sorts the codes in place and carries one `u32` payload
//! with each code. The encoders carry each point's packed color
//! ([`Rgb::pack`]), so the attributes come out in Morton order with the
//! codes (paper Sec. IV), and one run pass over the sorted pairs
//! ([`leaves_into`]) yields each unique leaf with its voxel's color.
//! [`sorted_permutation`] carries the input index instead, for code that
//! gathers a whole cloud.

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
/// The sort is stable, so voxels with identical codes keep input order. It
/// is the one-thread LSD radix sort [`pcc_parallel::radix_sort_pairs`]:
/// one sweep counts every digit, digits are sized from the codes' bit
/// width, and a digit no code varies in costs no pass. A stable sort's
/// output is unique, so the order does not depend on the thread count.
/// Once `scratch` and `sorted` have warmed to the frame size, a sort
/// allocates nothing (`hotpath`'s `radix_sort_ns_per_point` times it with
/// packed colors).
///
/// # Panics
///
/// Panics if `payload` does not yield one item per code.
pub fn sort_codes_into(
    sorted: &mut SortedCodes,
    payload: impl IntoIterator<Item = u32>,
    scratch: &mut SortScratch,
) {
    let _sp = pcc_probe::span("morton/radix_sort");
    sorted.payload.clear();
    sorted.payload.extend(payload);
    pcc_parallel::radix_sort_pairs(&mut sorted.codes, &mut sorted.payload, scratch);
}

/// Leaves whose channel sums the leaf pass holds on the stack before
/// reducing them (16 KiB).
const LEAF_BLOCK: usize = 1024;

/// The leaf pass: one run pass over codes sorted with packed colors
/// ([`Rgb::pack`]) writes each unique leaf code into `leaf_codes` and
/// `reduce(sums, count)` into `leaf_values`, where `sums` are the integer
/// channel sums of the `count` points in that leaf.
///
/// A compare-only sweep counts the leaves, so both outputs are sized
/// exactly. The fill runs on the calling thread without a branch per
/// point: each point bumps the leaf index by whether its code is new and
/// adds its color to that leaf's slot in a block of on-stack sums (a new
/// leaf's slot is masked clear first). Each full block of leaves is then
/// reduced in one tight loop, free of the run-length branches a loop per
/// leaf would mispredict (it ran 20–28% faster than a loop that sums each
/// run and reduces it as it closes). Both buffers are refilled, so a warm
/// caller allocates nothing.
///
/// # Panics
///
/// Panics if `sorted.payload` and `sorted.codes` differ in length.
pub fn leaves_into<R: Copy + Default>(
    sorted: &SortedCodes,
    reduce: impl Fn([u32; 3], u32) -> R,
    leaf_codes: &mut Vec<MortonCode>,
    leaf_values: &mut Vec<R>,
) {
    let (codes, colors) = (&sorted.codes, &sorted.payload);
    assert_eq!(codes.len(), colors.len(), "code/payload length mismatch");
    leaf_codes.clear();
    leaf_values.clear();
    let Some(&first) = codes.first() else { return };
    let leaves = 1 + codes.windows(2).filter(|w| w[0] != w[1]).count();
    // `reserve_exact` first: growing through `resize` alone may double.
    leaf_codes.reserve_exact(leaves);
    leaf_codes.resize(leaves, MortonCode::ZERO);
    leaf_values.reserve_exact(leaves);
    leaf_values.resize(leaves, R::default());
    // `sums[leaf - base]`: channel sums and point count of a leaf of the
    // current block, whose first leaf is `base`.
    let mut sums = [[0u32; 4]; LEAF_BLOCK + 1];
    let reduce_block = |out: &mut [R], sums: &[[u32; 4]]| {
        for (value, &[r, g, b, count]) in out.iter_mut().zip(sums) {
            *value = reduce([r, g, b], count);
        }
    };
    let (mut prev, mut leaf, mut base) = (first, 0, 0);
    for (&code, &color) in codes.iter().zip(colors) {
        let new = code != prev;
        prev = code;
        leaf += usize::from(new);
        leaf_codes[leaf] = code;
        let keep = u32::from(new).wrapping_sub(1);
        let [r, g, b] = Rgb::unpack(color).to_array().map(u32::from);
        let slot = &mut sums[leaf - base];
        *slot = [
            (slot[0] & keep) + r,
            (slot[1] & keep) + g,
            (slot[2] & keep) + b,
            (slot[3] & keep) + 1,
        ];
        if leaf - base == LEAF_BLOCK {
            // Leaves `base..leaf` are complete; `leaf` may go on.
            reduce_block(&mut leaf_values[base..leaf], &sums[..LEAF_BLOCK]);
            sums[0] = sums[LEAF_BLOCK];
            base = leaf;
        }
    }
    reduce_block(&mut leaf_values[base..], &sums);
}

/// Computes codes for `cloud` and sorts them with each voxel's input
/// index as the payload, generating the codes at the process default
/// thread count ([`pcc_parallel::resolve`]): `payload[rank]` is the input index of the
/// voxel holding sorted rank `rank`, the permutation
/// [`VoxelizedCloud::gather`] takes.
pub fn sorted_permutation(cloud: &VoxelizedCloud) -> SortedCodes {
    let mut sorted = SortedCodes::default();
    codes_of_into(cloud, pcc_parallel::resolve(None), &mut sorted.codes);
    sort_codes_into(&mut sorted, 0..cloud.len() as u32, &mut SortScratch::new());
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
    fn sort_in(codes: &[MortonCode], scratch: &mut SortScratch, out: &mut SortedCodes) {
        out.codes.clear();
        out.codes.extend_from_slice(codes);
        sort_codes_into(out, 0..codes.len() as u32, scratch);
    }

    /// One sort through fresh buffers.
    fn sort(codes: &[MortonCode]) -> SortedCodes {
        let mut out = SortedCodes::default();
        sort_in(codes, &mut SortScratch::new(), &mut out);
        out
    }

    #[test]
    fn empty_and_single() {
        let s = sort(&[]);
        assert!(s.codes.is_empty());
        let s = sort(&[MortonCode::from_raw(42)]);
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
        let s = sort(&codes);
        assert_eq!(s.payload, vec![2, 0, 1, 3]);
    }

    #[test]
    fn leaves_reduce_each_code_run_by_its_integer_color_sums() {
        let codes = [5u64, 1, 5, 9, 5].map(MortonCode::from_raw);
        let colors = [Rgb::gray(10), Rgb::new(1, 2, 3), Rgb::gray(11), Rgb::WHITE, Rgb::gray(12)];
        let mut sorted = SortedCodes { codes: codes.to_vec(), payload: Vec::new() };
        sort_codes_into(&mut sorted, colors.map(Rgb::pack), &mut SortScratch::new());
        let (mut leaves, mut sums) = (Vec::new(), Vec::new());
        leaves_into(&sorted, |s, k| (s, k), &mut leaves, &mut sums);
        assert_eq!(leaves, [1u64, 5, 9].map(MortonCode::from_raw));
        assert_eq!(sums, [([1, 2, 3], 1), ([33, 33, 33], 3), ([255, 255, 255], 1)]);
    }

    #[test]
    fn matches_std_sort_on_random_input() {
        let mut rng = SmallRng::seed_from_u64(7);
        let codes: Vec<MortonCode> = (0..10_000)
            .map(|_| MortonCode::from_raw(rng.random_range(0..1u64 << 63)))
            .collect();
        let s = sort(&codes);
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
        let s = sort(&codes);
        assert_eq!(s.payload, vec![1, 2, 0]);
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

    /// A leaf's channel sums and point count.
    type LeafSums = ([u32; 3], u32);

    /// Sorted codes with `lens[i]` points in the `i`-th leaf, every point
    /// a color from `seed`, and the reference leaf pass over them: each
    /// leaf's code with its channel sums and point count.
    fn leaf_runs(lens: &[usize], seed: u64) -> (SortedCodes, Vec<MortonCode>, Vec<LeafSums>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut sorted, mut leaves, mut sums) = (SortedCodes::default(), Vec::new(), Vec::new());
        let mut code = 0u64;
        for &len in lens {
            code += rng.random_range(1..1_000u64);
            let mut sum = [0u32; 3];
            for _ in 0..len {
                let color = Rgb::new(rng.random(), rng.random(), rng.random());
                sum.iter_mut().zip(color.to_array()).for_each(|(s, v)| *s += u32::from(v));
                sorted.codes.push(MortonCode::from_raw(code));
                sorted.payload.push(color.pack());
            }
            leaves.push(MortonCode::from_raw(code));
            sums.push((sum, len as u32));
        }
        (sorted, leaves, sums)
    }

    proptest! {
        /// The leaf pass equals the reference over up to 3,000 leaves (so
        /// runs cross the pass's 1,024-leaf blocks anywhere), most of them
        /// single points and some of up to 35. Outputs that grow from a
        /// shorter pass's are sized exactly; outputs first filled by a
        /// larger pass are refilled.
        #[test]
        fn leaf_pass_matches_a_per_leaf_reference(
            shape in prop::collection::vec(0usize..6, 0..3_000),
            seed in any::<u64>(),
        ) {
            let lens: Vec<usize> = shape.iter().map(|&l| if l < 4 { 1 } else { 7 * l - 25 }).collect();
            let (sorted, want_leaves, want_sums) = leaf_runs(&lens, seed);
            let pair = |s: [u32; 3], k: u32| (s, k);
            let (mut leaves, mut sums) = (Vec::new(), Vec::new());
            let (shorter, _, _) = leaf_runs(&lens[..lens.len() * 3 / 4], seed);
            leaves_into(&shorter, pair, &mut leaves, &mut sums);
            leaves_into(&sorted, pair, &mut leaves, &mut sums);
            prop_assert_eq!(&leaves, &want_leaves);
            prop_assert_eq!(&sums, &want_sums);
            prop_assert_eq!((leaves.capacity(), sums.capacity()), (leaves.len(), sums.len()));
            let (dirty, _, _) = leaf_runs(&vec![2; lens.len() + 700], seed ^ 1);
            leaves_into(&dirty, pair, &mut leaves, &mut sums);
            leaves_into(&sorted, pair, &mut leaves, &mut sums);
            prop_assert_eq!(&leaves, &want_leaves);
            prop_assert_eq!(&sums, &want_sums);
        }

        /// A sort through buffers dirtied by a larger, different sort
        /// equals one through fresh buffers.
        #[test]
        fn sort_through_dirty_buffers_equals_a_fresh_sort(
            values in prop::collection::vec(0u64..(1 << 63), 0..12_000),
        ) {
            let codes: Vec<MortonCode> = values.iter().map(|&v| MortonCode::from_raw(v)).collect();
            let dirty: Vec<MortonCode> = (0..codes.len() as u64 + 5_000)
                .map(|v| MortonCode::from_raw(v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 1))
                .collect();
            let mut scratch = SortScratch::new();
            let mut warm = SortedCodes::default();
            sort_in(&dirty, &mut scratch, &mut warm);
            sort_in(&codes, &mut scratch, &mut warm);
            prop_assert_eq!(&warm, &sort(&codes));
        }

        #[test]
        fn radix_sort_is_a_sorted_permutation(values in prop::collection::vec(0u64..(1 << 63), 0..200)) {
            let codes: Vec<MortonCode> = values.iter().map(|&v| MortonCode::from_raw(v)).collect();
            let s = sort(&codes);
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
