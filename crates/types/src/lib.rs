//! Core data model for the `pcc` point-cloud compression workspace.
//!
//! This crate defines the vocabulary types every other crate builds on:
//!
//! - [`Point3`] — a raw 3-D position (floating point, as captured).
//! - [`Rgb`] — a per-point color attribute.
//! - [`PointCloud`] — a structure-of-arrays cloud of positions + colors.
//! - [`Aabb`] — axis-aligned bounding boxes, including the power-of-two
//!   "cubification" the octree codecs require.
//! - [`VoxelCoord`] / [`VoxelizedCloud`] — clouds quantized onto a
//!   `2^depth`-per-side integer grid (the paper uses 1024³, i.e. depth 10).
//! - [`Frame`] / [`Video`] — dynamic point-cloud sequences with the
//!   I/P frame structure used by inter-frame compression.
//! - [`Limits`] / [`DecodeError`] / [`wire::Cursor`] — the budget, the
//!   one error and the byte cursor every wire parser decodes through.
//!
//! # Examples
//!
//! ```
//! use pcc_types::{Point3, PointCloud, Rgb, VoxelizedCloud};
//!
//! let mut cloud = PointCloud::new();
//! cloud.push(Point3::new(0.0, 0.0, 0.0), Rgb::new(255, 0, 0));
//! cloud.push(Point3::new(1.0, 2.0, 3.0), Rgb::new(0, 255, 0));
//!
//! // Quantize onto a 1024^3 grid, exactly like the 8iVFB dataset.
//! let vox = VoxelizedCloud::from_cloud(&cloud, 10);
//! assert_eq!(vox.len(), 2);
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

mod bbox;
mod cloud;
pub mod crc;
mod error;
mod limits;
mod point;
mod video;
mod voxel;
pub mod wire;

pub use bbox::Aabb;
pub use cloud::{PointCloud, PointRef};
pub use error::{Error, Result};
pub use limits::{DecodeError, LimitExceeded, Limits};
pub use point::{Point3, Rgb};
pub use video::{Frame, FrameKind, GofPattern, Video};
pub use voxel::{VoxelCoord, VoxelizedCloud};

/// Bytes needed to store one raw (uncompressed) point:
/// three 4-byte float coordinates plus three 1-byte color components.
///
/// The paper's Sec. II-A uses the same accounting (15 bytes/point) to argue
/// a 10⁶-point frame needs ≈120 Mbit.
pub const RAW_BYTES_PER_POINT: usize = 4 * 3 + 3;
