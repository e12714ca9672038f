//! The PCL/TMC13-style sequential octree builder.

// Builder side: `children` is a fixed [_; 8] array indexed by 3-bit
// Morton slots (always 0..8). No wire-derived bytes are parsed here.
#![allow(clippy::indexing_slicing)]

use pcc_morton::MortonCode;
use pcc_types::VoxelCoord;

/// A pointer-based octree built by point-by-point insertion.
///
/// This reproduces the baseline structure the paper profiles: every
/// insertion walks from the root to the leaf level, materializing missing
/// children as it goes — each step is an "update of the global result with
/// an intermediate local state", which is why the algorithm cannot be
/// parallelized without a tree-wide lock (paper Sec. III-A).
///
/// [`SequentialOctree::insert_ops`] counts the per-(point × level) update
/// steps so the edge-device model can charge the true sequential cost.
///
/// # Examples
///
/// ```
/// use pcc_octree::SequentialOctree;
/// use pcc_types::VoxelCoord;
///
/// let mut tree = SequentialOctree::new(2);
/// tree.insert(VoxelCoord::new(0, 0, 0));
/// tree.insert(VoxelCoord::new(3, 3, 3));
/// assert_eq!(tree.leaf_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SequentialOctree {
    depth: u8,
    root: Node,
    insert_ops: u64,
    leaf_count: usize,
}

#[derive(Debug, Clone, Default)]
struct Node {
    children: [Option<Box<Node>>; 8],
}

impl SequentialOctree {
    /// Creates an empty octree of the given leaf depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside `1..=21`.
    pub fn new(depth: u8) -> Self {
        assert!((1..=21).contains(&depth), "octree depth {depth} outside 1..=21");
        SequentialOctree { depth, root: Node::default(), insert_ops: 0, leaf_count: 0 }
    }

    /// Builds a tree by inserting every coordinate in order.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is invalid or any coordinate does not fit it.
    pub fn from_coords(coords: &[VoxelCoord], depth: u8) -> Self {
        let mut tree = SequentialOctree::new(depth);
        for &c in coords {
            tree.insert(c);
        }
        tree
    }

    /// The leaf depth.
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Inserts one voxel, returning `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate does not fit the tree's depth.
    pub fn insert(&mut self, coord: VoxelCoord) -> bool {
        assert!(coord.fits_depth(self.depth), "coordinate {coord:?} exceeds depth {}", self.depth);
        let code = MortonCode::from_coord(coord);
        let mut node = &mut self.root;
        let mut newly_created = false;
        for level in (0..self.depth).rev() {
            // Child slot: the 3 Morton bits for this level.
            let slot = ((code.value() >> (3 * level as u32)) & 7) as usize;
            self.insert_ops += 1;
            let child = &mut node.children[slot];
            if child.is_none() {
                *child = Some(Box::default());
                newly_created = true;
            }
            node = child.as_mut().expect("just materialized");
        }
        if newly_created {
            self.leaf_count += 1;
        }
        newly_created
    }

    /// Total per-(point × level) update steps performed so far — the
    /// quantity the device model charges for the sequential baseline.
    pub fn insert_ops(&self) -> u64 {
        self.insert_ops
    }

    /// Number of distinct occupied leaf voxels.
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// Total nodes in the tree (internal + leaves, excluding the root).
    pub fn node_count(&self) -> usize {
        fn count(node: &Node) -> usize {
            node.children
                .iter()
                .flatten()
                .map(|c| 1 + count(c))
                .sum()
        }
        count(&self.root)
    }

    /// Serializes the tree to breadth-first occupancy bytes (one byte per
    /// internal node, root first; level-by-level).
    ///
    /// The result is identical to
    /// [`ParallelOctree::occupancy_into`](crate::ParallelOctree::occupancy_into)
    /// for the same voxel set.
    pub fn occupancy(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut frontier: Vec<&Node> = vec![&self.root];
        for _level in 0..self.depth {
            let mut next = Vec::new();
            for node in &frontier {
                let mut byte = 0u8;
                for (slot, child) in node.children.iter().enumerate() {
                    if let Some(c) = child {
                        byte |= 1 << slot;
                        next.push(c.as_ref());
                    }
                }
                bytes.push(byte);
            }
            frontier = next;
        }
        bytes
    }

    /// The occupied leaf coordinates in Morton (Z-curve) order.
    pub fn leaves(&self) -> Vec<VoxelCoord> {
        fn walk(node: &Node, prefix: u64, level: u8, depth: u8, out: &mut Vec<VoxelCoord>) {
            for slot in 0..8u64 {
                if let Some(child) = &node.children[slot as usize] {
                    let code = (prefix << 3) | slot;
                    if level + 1 == depth {
                        out.push(MortonCode::from_raw(code).to_coord());
                    } else {
                        walk(child, code, level + 1, depth, out);
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(self.leaf_count);
        walk(&self.root, 0, 0, self.depth, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_morton::encode;
    use proptest::prelude::*;

    #[test]
    fn empty_tree() {
        let t = SequentialOctree::new(3);
        assert_eq!(t.leaf_count(), 0);
        assert_eq!(t.node_count(), 0);
        // An empty tree still serializes its (empty) root byte.
        assert_eq!(t.occupancy(), vec![0]);
        assert!(t.leaves().is_empty());
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut t = SequentialOctree::new(4);
        assert!(t.insert(VoxelCoord::new(1, 2, 3)));
        assert!(!t.insert(VoxelCoord::new(1, 2, 3)));
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.insert_ops(), 8); // 2 inserts x 4 levels
    }

    #[test]
    fn paper_fig5_three_points() {
        // Depth 3 (8x8x8 grid, bbox side 8 as in the paper's walkthrough,
        // with P1 shifted into the positive octant: the paper's bounding
        // box translation maps [-1,0,0] -> [0,...]; here we use the grid
        // coordinates directly).
        let coords =
            vec![VoxelCoord::new(1, 0, 0), VoxelCoord::new(0, 0, 0), VoxelCoord::new(3, 3, 3)];
        let t = SequentialOctree::from_coords(&coords, 2);
        assert_eq!(t.leaf_count(), 3);
        // Root: children 0 (P0,P1 at low octant) and ... level-1 cells:
        // (0,0,0)&(1,0,0) are in root child 0; (3,3,3) in root child 7
        // on a 4-wide grid (cells of side 2).
        let occ = t.occupancy();
        assert_eq!(occ[0], 0b1000_0001);
    }

    #[test]
    fn leaves_are_morton_sorted() {
        let coords = vec![
            VoxelCoord::new(7, 7, 7),
            VoxelCoord::new(0, 0, 0),
            VoxelCoord::new(5, 1, 2),
            VoxelCoord::new(1, 1, 1),
        ];
        let t = SequentialOctree::from_coords(&coords, 3);
        let leaves = t.leaves();
        let codes: Vec<_> = leaves.iter().map(|&c| encode(c)).collect();
        assert!(codes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(leaves.len(), 4);
    }

    #[test]
    #[should_panic(expected = "exceeds depth")]
    fn out_of_range_coord_panics() {
        let mut t = SequentialOctree::new(2);
        t.insert(VoxelCoord::new(4, 0, 0));
    }

    #[test]
    fn node_count_matches_structure() {
        let mut t = SequentialOctree::new(2);
        t.insert(VoxelCoord::new(0, 0, 0));
        // One level-1 node + one leaf.
        assert_eq!(t.node_count(), 2);
        t.insert(VoxelCoord::new(1, 0, 0)); // same level-1 cell, new leaf
        assert_eq!(t.node_count(), 3);
    }

    proptest! {
        #[test]
        fn leaves_round_trip_inserted_set(
            coords in prop::collection::vec((0u32..16, 0u32..16, 0u32..16), 0..100)
        ) {
            let coords: Vec<VoxelCoord> =
                coords.into_iter().map(|(x, y, z)| VoxelCoord::new(x, y, z)).collect();
            let t = SequentialOctree::from_coords(&coords, 4);
            let mut expected: Vec<u64> =
                coords.iter().map(|&c| encode(c).value()).collect();
            expected.sort_unstable();
            expected.dedup();
            let got: Vec<u64> = t.leaves().iter().map(|&c| encode(c).value()).collect();
            prop_assert_eq!(got, expected);
        }
    }
}
