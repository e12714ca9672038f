//! The proposed Morton-code-driven parallel octree builder.

// Builder side: every index walks structures this module just built
// (`levels` has at least depth+1 entries, parent links come from
// compact_runs_into over the same arrays). No wire-derived bytes are parsed here — that is
// serialize.rs, which stays index-free.
#![allow(clippy::indexing_slicing)]

use pcc_morton::MortonCode;
use pcc_types::VoxelCoord;
use std::num::NonZeroUsize;

/// The code/parent arrays of one octree level.
///
/// This is the array-of-relationships representation the paper's proposed
/// pipeline emits instead of a pointer tree (Fig. 5, lower pipeline): the
/// `codes` array holds every node's Morton prefix at this level, and
/// `parent[i]` is the index (in the next-shallower level's `codes`) of
/// node `i`'s parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelArrays {
    /// Morton prefixes of the occupied cells at this level, ascending.
    pub codes: Vec<MortonCode>,
    /// For each node, the index of its parent in the previous level
    /// (`u32::MAX` for the root level's single node).
    pub parent: Vec<u32>,
}

/// An octree represented as per-level code/parent arrays, built from
/// sorted Morton codes with data-parallel passes only.
///
/// Construction mirrors the GPU algorithm ([Karras 2012] as applied by the
/// paper): once the leaf codes are sorted, the set of occupied cells at
/// every shallower level is the compaction of `code >> 3`, and parent
/// links fall out of the compaction offsets. No insertion order, no
/// locks — every level is a map + prefix-scan over independent elements.
///
/// [Karras 2012]: https://doi.org/10.2312/EGGH/HPG12/033-037
///
/// # Examples
///
/// ```
/// use pcc_octree::ParallelOctree;
/// use pcc_types::VoxelCoord;
///
/// let tree = ParallelOctree::from_coords(
///     &[VoxelCoord::new(0, 0, 0), VoxelCoord::new(3, 3, 3)],
///     2,
/// );
/// assert_eq!(tree.leaf_count(), 2);
/// let mut occupancy = Vec::new();
/// tree.occupancy_into(std::num::NonZeroUsize::MIN, &mut occupancy);
/// assert_eq!(occupancy[0], 0b1000_0001); // root byte
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParallelOctree {
    depth: u8,
    /// `levels[0]` is the root level (1 node); `levels[depth]` the leaves.
    /// Levels past `depth` are spare buffers from a deeper earlier build,
    /// kept so a shallower build does not free them; they are not part of
    /// the tree.
    levels: Vec<LevelArrays>,
}

impl PartialEq for ParallelOctree {
    fn eq(&self, other: &Self) -> bool {
        self.depth == other.depth && self.live() == other.live()
    }
}

impl Eq for ParallelOctree {}

impl ParallelOctree {
    /// Builds this tree in place from *sorted, deduplicated* leaf Morton
    /// codes, reusing every per-level allocation from the previous build;
    /// start from [`ParallelOctree::default`] for a first build.
    ///
    /// This is the zero-copy entry point for pipelines that already sorted
    /// their codes (the intra-frame codec sorts once and reuses the order
    /// for attributes), and the frame-arena entry point: an encoder that
    /// keeps one `ParallelOctree` alive across a video session performs no
    /// heap allocation for tree construction once the level buffers have
    /// warmed to the working-set size.
    ///
    /// Each level is one run compaction of the level below
    /// ([`pcc_parallel::compact_runs_into`]) on the calling thread: a
    /// compare-only sweep counts the parents, and one pass writes the
    /// parent codes and the child→parent links into arrays sized exactly.
    /// The arrays equal a build into a fresh tree.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside `1..=21`, if the codes are not
    /// strictly ascending, or if any code exceeds the depth.
    pub fn rebuild_from_sorted_codes(&mut self, codes: &[MortonCode], depth: u8) {
        assert!((1..=21).contains(&depth), "octree depth {depth} outside 1..=21");
        assert!(
            codes.windows(2).all(|w| w[0] < w[1]),
            "leaf codes must be strictly ascending (sorted + deduplicated)"
        );
        if let Some(last) = codes.last() {
            assert!(
                last.value() < 1u64 << (3 * depth as u32),
                "leaf code {last} exceeds depth {depth}"
            );
        }

        self.depth = depth;
        let levels = self.levels.len().max(depth as usize + 1);
        self.levels.resize_with(levels, || LevelArrays { codes: Vec::new(), parent: Vec::new() });

        if codes.is_empty() {
            // Degenerate tree: an (empty) root node so the occupancy
            // stream still carries one root byte, matching the sequential
            // builder.
            for level in &mut self.levels[..=depth as usize] {
                level.codes.clear();
                level.parent.clear();
            }
            self.levels[0].codes.push(MortonCode::ZERO);
            self.levels[0].parent.push(u32::MAX);
            return;
        }

        let leaf = &mut self.levels[depth as usize];
        leaf.codes.clear();
        leaf.codes.extend_from_slice(codes);
        leaf.parent.clear();

        // Derive each shallower level by compacting `code >> 3`: a map
        // producing parent codes, then a run-compaction scan.
        let _sp = pcc_probe::span("octree/compact");
        for level in (0..depth as usize).rev() {
            let (upper, lower) = self.levels.split_at_mut(level + 1);
            let parent_level = &mut upper[level];
            let child_level = &mut lower[0];
            pcc_parallel::compact_runs_into(
                &child_level.codes,
                |c| c.parent(),
                &mut parent_level.codes,
                &mut child_level.parent,
            );
        }
        let root_len = self.levels[0].codes.len();
        self.levels[0].parent.clear();
        self.levels[0].parent.resize(root_len, u32::MAX);
    }

    /// Builds the tree from unsorted voxel coordinates (sorts and
    /// deduplicates internally).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is invalid or any coordinate does not fit it.
    pub fn from_coords(coords: &[VoxelCoord], depth: u8) -> Self {
        for c in coords {
            assert!(c.fits_depth(depth), "coordinate {c:?} exceeds depth {depth}");
        }
        let mut codes: Vec<MortonCode> = coords.iter().map(|&c| MortonCode::from_coord(c)).collect();
        codes.sort_unstable();
        codes.dedup();
        let mut tree = ParallelOctree::default();
        tree.rebuild_from_sorted_codes(&codes, depth);
        tree
    }

    /// The leaf depth.
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Number of occupied leaf voxels.
    pub fn leaf_count(&self) -> usize {
        self.levels[self.depth as usize].codes.len()
    }

    /// Total nodes across all levels below the root (matches
    /// [`SequentialOctree::node_count`](crate::SequentialOctree::node_count)).
    pub fn node_count(&self) -> usize {
        self.levels[1..=self.depth as usize].iter().map(|l| l.codes.len()).sum()
    }

    /// The code/parent arrays of one level (0 = root, `depth` = leaves).
    ///
    /// # Panics
    ///
    /// Panics if `level > depth`.
    pub fn level(&self, level: u8) -> &LevelArrays {
        &self.live()[level as usize]
    }

    /// The levels of the current tree, root to leaves (empty before the
    /// first build).
    fn live(&self) -> &[LevelArrays] {
        self.levels.get(..=self.depth as usize).unwrap_or(&[])
    }

    /// The sorted leaf codes.
    pub fn leaf_codes(&self) -> &[MortonCode] {
        &self.levels[self.depth as usize].codes
    }

    /// The occupied leaf coordinates in Morton order.
    pub fn leaves(&self) -> Vec<VoxelCoord> {
        self.leaf_codes().iter().map(|c| c.to_coord()).collect()
    }

    /// Computes the breadth-first occupancy bytes via the paper's
    /// Algorithm 1 into a caller-owned buffer: every child ORs
    /// `1 << (code % 8)` into its parent's byte — one independent
    /// operation per node, hence fully parallel. The result is
    /// bit-identical to
    /// [`SequentialOctree::occupancy`](crate::SequentialOctree::occupancy)
    /// for the same voxel set.
    ///
    /// Children are chunked with boundaries aligned to parent runs, so all
    /// children of one parent land in the same chunk; each chunk then owns
    /// a disjoint contiguous region of the level's bytes (safe
    /// `split_at_mut` partition, no atomics) and the output is
    /// byte-identical at every thread count.
    ///
    /// `out` is cleared, zero-filled to
    /// [`occupancy_len`](Self::occupancy_len) and each level's bytes are
    /// OR-ed directly into their final region — no per-level staging
    /// vector, and no heap allocation at all on the single-thread path
    /// once `out` has warmed to the frame size.
    pub fn occupancy_into(&self, threads: NonZeroUsize, out: &mut Vec<u8>) {
        let _sp = pcc_probe::span("octree/occupancy");
        out.clear();
        out.resize(self.occupancy_len(), 0);
        let mut rest: &mut [u8] = out.as_mut_slice();
        for level in 0..self.depth as usize {
            let child = &self.levels[level + 1];
            let n = child.codes.len();
            let (level_bytes, tail) =
                std::mem::take(&mut rest).split_at_mut(self.levels[level].codes.len());
            rest = tail;
            let fan = pcc_parallel::effective_threads(threads, n);
            let ranges = pcc_parallel::aligned_chunks(n, fan, |i| {
                child.parent[i] != child.parent[i - 1]
            });
            let cuts = ranges.clone().skip(1).map(|r| child.parent[r.start] as usize);
            let parts = pcc_parallel::split_at_cuts(level_bytes, cuts);
            pcc_parallel::run(
                ranges.zip(parts),
                |(range, part)| {
                    let base = child.parent[range.start] as usize;
                    let codes = &child.codes[range.clone()];
                    for (code, &parent) in codes.iter().zip(&child.parent[range]) {
                        part[parent as usize - base] |= 1 << code.child_slot();
                    }
                },
                drop,
            );
        }
    }

    /// Number of occupancy bytes [`occupancy_into`](Self::occupancy_into)
    /// produces (one per internal node, including the root).
    pub fn occupancy_len(&self) -> usize {
        self.levels[..self.depth as usize].iter().map(|l| l.codes.len()).sum()
    }

    /// Serializes the tree into a self-describing occupancy stream (an
    /// [`OccupancyHeader`](crate::OccupancyHeader), then the occupancy
    /// bytes).
    pub fn serialize(&self) -> Vec<u8> {
        let mut occupancy = Vec::new();
        self.occupancy_into(pcc_parallel::resolve(None), &mut occupancy);
        let mut out = Vec::with_capacity(occupancy.len() + 8);
        crate::serialize_occupancy_into(self.depth, self.leaf_count(), &occupancy, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SequentialOctree;
    use pcc_morton::encode;
    use proptest::prelude::*;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    /// A fresh build of `codes`, with its occupancy bytes at `threads`.
    fn build(codes: &[MortonCode], depth: u8, threads: usize) -> (ParallelOctree, Vec<u8>) {
        let mut tree = ParallelOctree::default();
        tree.rebuild_from_sorted_codes(codes, depth);
        let mut occ = Vec::new();
        tree.occupancy_into(nz(threads), &mut occ);
        (tree, occ)
    }

    fn coords_fig5() -> Vec<VoxelCoord> {
        vec![VoxelCoord::new(0, 0, 0), VoxelCoord::new(1, 0, 0), VoxelCoord::new(3, 3, 3)]
    }

    #[test]
    fn fig5_code_and_parent_arrays() {
        let tree = ParallelOctree::from_coords(&coords_fig5(), 2);
        // Leaves: codes 0, 1, 63; their parents at level 1: 0, 0, 7.
        let leaves = tree.level(2);
        assert_eq!(
            leaves.codes,
            vec![MortonCode::from_raw(0), MortonCode::from_raw(1), MortonCode::from_raw(63)]
        );
        assert_eq!(leaves.parent, vec![0, 0, 1]);
        let mid = tree.level(1);
        assert_eq!(mid.codes, vec![MortonCode::from_raw(0), MortonCode::from_raw(7)]);
        assert_eq!(mid.parent, vec![0, 0]);
        assert_eq!(tree.level(0).codes, vec![MortonCode::ZERO]);
    }

    #[test]
    fn fig5_occupancy_bytes() {
        let tree = ParallelOctree::from_coords(&coords_fig5(), 2);
        let (_, occ) = build(tree.leaf_codes(), 2, 1);
        // Root: children 0 and 7 -> 0b1000_0001.
        // Level-1 node 0: leaves 0 and 1 -> 0b0000_0011.
        // Level-1 node 7: leaf 63 (slot 7) -> 0b1000_0000.
        assert_eq!(occ, vec![0b1000_0001, 0b0000_0011, 0b1000_0000]);
    }

    #[test]
    fn empty_tree() {
        let tree = ParallelOctree::from_coords(&[], 3);
        assert_eq!(tree.leaf_count(), 0);
        assert_eq!(tree.node_count(), 0);
        // Root byte exists and is zero.
        assert_eq!(build(tree.leaf_codes(), 3, 1).1, vec![0]);
    }

    #[test]
    fn single_point_tree() {
        let tree = ParallelOctree::from_coords(&[VoxelCoord::new(5, 6, 7)], 3);
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.node_count(), 3);
        let (_, occ) = build(tree.leaf_codes(), 3, 1);
        assert_eq!(occ.len(), 3);
        assert_eq!(occ.iter().map(|b| b.count_ones()).sum::<u32>(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_codes_panic() {
        build(&[MortonCode::from_raw(5), MortonCode::from_raw(3)], 3, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds depth")]
    fn overflow_code_panics() {
        build(&[MortonCode::from_raw(512)], 3, 1);
    }

    #[test]
    fn duplicates_are_deduplicated() {
        let tree = ParallelOctree::from_coords(
            &[VoxelCoord::new(1, 1, 1), VoxelCoord::new(1, 1, 1)],
            2,
        );
        assert_eq!(tree.leaf_count(), 1);
    }

    proptest! {
        /// The headline structural invariant: the parallel builder matches
        /// the sequential baseline byte-for-byte.
        #[test]
        fn matches_sequential_occupancy(
            coords in prop::collection::vec((0u32..32, 0u32..32, 0u32..32), 1..200)
        ) {
            let coords: Vec<VoxelCoord> =
                coords.into_iter().map(|(x, y, z)| VoxelCoord::new(x, y, z)).collect();
            let par = ParallelOctree::from_coords(&coords, 5);
            let seq = SequentialOctree::from_coords(&coords, 5);
            prop_assert_eq!(build(par.leaf_codes(), 5, 1).1, seq.occupancy());
            prop_assert_eq!(par.leaves(), seq.leaves());
            prop_assert_eq!(par.node_count(), seq.node_count());
        }

        #[test]
        fn parent_links_are_consistent(
            coords in prop::collection::vec((0u32..64, 0u32..64, 0u32..64), 1..150)
        ) {
            let coords: Vec<VoxelCoord> =
                coords.into_iter().map(|(x, y, z)| VoxelCoord::new(x, y, z)).collect();
            let tree = ParallelOctree::from_coords(&coords, 6);
            for level in 1..=6u8 {
                let l = tree.level(level);
                let up = tree.level(level - 1);
                for (code, &p) in l.codes.iter().zip(&l.parent) {
                    prop_assert_eq!(up.codes[p as usize], code.parent());
                }
                // Codes strictly ascending at every level.
                prop_assert!(l.codes.windows(2).all(|w| w[0] < w[1]));
            }
        }

        #[test]
        fn leaf_codes_survive_round_trip(
            raw in prop::collection::btree_set(0u64..(1 << 15), 1..100)
        ) {
            let codes: Vec<MortonCode> =
                raw.iter().map(|&v| MortonCode::from_raw(v)).collect();
            let (tree, _) = build(&codes, 5, 1);
            prop_assert_eq!(tree.leaf_codes().to_vec(), codes);
        }
    }

    proptest! {
        /// Tentpole determinism invariant: building the tree and its
        /// occupancy bytes at thread counts 1, 2, 3 and 7 yields identical
        /// arrays — through fresh buffers and through a tree and byte
        /// buffer dirtied by a larger, deeper, different build.
        #[test]
        fn occupancy_identical_across_thread_counts(
            raw in prop::collection::btree_set(0u64..(1 << 18), 1..300)
        ) {
            let codes: Vec<MortonCode> =
                raw.iter().map(|&v| MortonCode::from_raw(v)).collect();
            let dirty: Vec<MortonCode> = (0..codes.len() as u64 + 500)
                .map(|i| MortonCode::from_raw(i * 5 + i % 3))
                .collect();
            let (base, base_occ) = build(&codes, 6, 1);
            for threads in [1usize, 2, 3, 7] {
                let (tree, occ) = build(&codes, 6, threads);
                prop_assert_eq!(&tree, &base);
                prop_assert_eq!(&occ, &base_occ);
                let (mut warm, mut warm_occ) = build(&dirty, 7, threads);
                warm.rebuild_from_sorted_codes(&codes, 6);
                warm.occupancy_into(nz(threads), &mut warm_occ);
                prop_assert_eq!(&warm, &base);
                prop_assert_eq!(&warm_occ, &base_occ);
            }
        }
    }

    #[test]
    fn large_tree_identical_across_thread_counts() {
        // Dense enough (> 4096 leaves) that the chunked paths really fan out.
        // `i*4 + i%3` is strictly ascending (consecutive deltas are 2 or 5)
        // and irregular enough to vary run lengths at every level.
        let codes: Vec<MortonCode> =
            (0..40_000u64).map(|i| MortonCode::from_raw(i * 4 + (i % 3))).collect();
        let (base, base_occ) = build(&codes, 7, 1);
        assert_eq!(base_occ, SequentialOctree::from_coords(&base.leaves(), 7).occupancy());
        for threads in [2usize, 3, 8] {
            let (tree, occ) = build(&codes, 7, threads);
            assert_eq!(tree, base, "threads={threads}");
            assert_eq!(occ, base_occ, "threads={threads}");
        }
    }

    #[test]
    fn rebuild_reuses_levels_and_matches_a_fresh_build() {
        let mut tree = ParallelOctree::default();
        let mut occ = Vec::new();
        // Alternate between a large tree, a smaller one and the empty one so
        // stale level arrays and occupancy bytes from a previous (bigger)
        // frame must not leak into the next build.
        let clouds: Vec<Vec<MortonCode>> = vec![
            (0..30_000u64).map(|i| MortonCode::from_raw(i * 4 + (i % 3))).collect(),
            (0..500u64).map(|i| MortonCode::from_raw(i * 9)).collect(),
            Vec::new(),
            (0..20_000u64).map(|i| MortonCode::from_raw(i * 7 + (i % 5))).collect(),
        ];
        for codes in &clouds {
            for threads in [1usize, 2, 8] {
                tree.rebuild_from_sorted_codes(codes, 7);
                tree.occupancy_into(nz(threads), &mut occ);
                let (fresh, fresh_occ) = build(codes, 7, threads);
                assert_eq!(tree, fresh, "threads={threads} n={}", codes.len());
                assert_eq!(occ, fresh_occ, "threads={threads}");
            }
        }
        // Depth changes must also be tracked by the reused tree, and a
        // shallower build keeps the deeper levels' buffers for the next
        // deep one.
        tree.rebuild_from_sorted_codes(&clouds[1], 5);
        assert_eq!(tree, build(&clouds[1], 5, 1).0);
        tree.occupancy_into(nz(1), &mut occ);
        assert_eq!(occ, build(&clouds[1], 5, 1).1);
        assert!(tree.levels[7].codes.capacity() >= 30_000, "level 7 was freed");
        tree.rebuild_from_sorted_codes(&clouds[3], 7);
        assert_eq!(tree, build(&clouds[3], 7, 1).0);
    }

    #[test]
    fn morton_order_agrees_with_encode() {
        let coords = vec![VoxelCoord::new(2, 3, 1), VoxelCoord::new(1, 1, 0)];
        let tree = ParallelOctree::from_coords(&coords, 3);
        let mut expect: Vec<u64> = coords.iter().map(|&c| encode(c).value()).collect();
        expect.sort_unstable();
        let got: Vec<u64> = tree.leaf_codes().iter().map(|c| c.value()).collect();
        assert_eq!(got, expect);
    }
}
