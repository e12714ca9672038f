//! Morton (Z-order) codes for voxelized point clouds.
//!
//! A Morton code interleaves the bits of a 3-D integer coordinate into a
//! single scalar, producing a space-filling curve that preserves spatial
//! locality: voxels with nearby codes are geometrically close. The paper
//! uses Morton codes as the backbone of *both* of its proposals —
//!
//! - parallel octree construction for geometry compression (the sorted
//!   code array fixes the global tree topology up front, removing the
//!   point-by-point sequential update), and
//! - attribute compression, where sorting by code gathers points with
//!   similar colors into contiguous segments (spatial locality) and aligns
//!   blocks across frames (temporal locality).
//!
//! This crate provides bit-interleaved [`encode`]/[`decode`] (up to 21 bits
//! per axis, 63-bit codes), tree-navigation helpers on [`MortonCode`], an
//! in-place LSD [radix sort](sort::sort_codes_into) that carries one `u32`
//! payload per code (a packed color in the encoders), and the
//! [leaf pass](sort::leaves_into) that turns the sorted pairs into unique
//! leaves with their voxels' colors.
//!
//! # Examples
//!
//! ```
//! use pcc_morton::{encode, decode};
//! use pcc_types::VoxelCoord;
//!
//! let code = encode(VoxelCoord::new(3, 5, 1));
//! assert_eq!(decode(code), VoxelCoord::new(3, 5, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod code;
pub mod sort;

pub use code::{decode, encode, encode_slice, MortonCode, MAX_BITS_PER_AXIS};
pub use sort::{
    codes_of_into, leaves_into, sort_codes_into, sorted_permutation, SortScratch, SortedCodes,
};
