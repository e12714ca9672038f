//! Octree geometry substrate: sequential and parallel construction.
//!
//! G-PCC-style geometry compression represents the set of occupied voxels
//! as an octree and serializes one *occupancy byte* per internal node
//! (bit *i* set ⇔ child *i* occupied). This crate provides both builders
//! the paper contrasts:
//!
//! - [`SequentialOctree`] — the PCL/TMC13-style baseline that inserts
//!   points one at a time, updating the tree (and, conceptually, a global
//!   lock) per point. It exposes its operation counts so the device model
//!   can charge the true sequential cost.
//! - [`ParallelOctree`] — the proposed Morton-code-driven builder
//!   (Karras-style): sort the codes once, then derive every tree level by
//!   a data-parallel map + compaction, producing the paper's
//!   code/parent arrays; occupancy bytes come from the paper's
//!   Algorithm 1 post-process.
//!
//! Both builders produce *bit-identical* occupancy streams for the same
//! voxel set (a key test invariant), serialized breadth-first by
//! [`serialize_occupancy_into`] and decoded by [`decode_occupancy_with`].
//!
//! # Examples
//!
//! ```
//! use pcc_octree::{decode_occupancy_with, ParallelOctree};
//! use pcc_types::{Limits, VoxelCoord};
//!
//! let coords = vec![
//!     VoxelCoord::new(0, 0, 0),
//!     VoxelCoord::new(1, 0, 0),
//!     VoxelCoord::new(3, 3, 3),
//! ];
//! let tree = ParallelOctree::from_coords(&coords, 2);
//! let stream = tree.serialize();
//! let decoded = decode_occupancy_with(&stream, &Limits::default()).unwrap();
//! let mut sorted = coords.clone();
//! sorted.sort_by_key(|c| pcc_morton::encode(*c));
//! assert_eq!(decoded, sorted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Wire-derived bytes reach this crate: a bare slice index is a latent
// panic on hostile input, so all indexing must be get()-style or carry
// a local, justified allow.
#![deny(clippy::indexing_slicing)]
// Unit tests may index freely: a panic there is a test failure, not a
// reachable fault on wire data.
#![cfg_attr(test, allow(clippy::indexing_slicing))]

mod parallel;
mod sequential;
mod serialize;

pub use parallel::{LevelArrays, ParallelOctree};
pub use sequential::SequentialOctree;
pub use serialize::{
    decode_occupancy_from, decode_occupancy_with, read_grid_header,
    serialize_occupancy_into, write_grid_header, GridHeader, OccupancyHeader,
};
