//! The paper's proposed **intra-frame** point-cloud codec.
//!
//! Two Morton-code-driven pipelines (paper Sec. IV, Fig. 4c/4d):
//!
//! - **Geometry** ([`geometry`]): generate Morton codes in one parallel
//!   pass, radix-sort them, build the octree with the parallel
//!   (Karras-style) constructor, post-process code/parent arrays into
//!   occupancy bytes (Algorithm 1), and pack. There is no entropy
//!   coding stage: the paper measured it at ≈100 ms for ≈0.1× size and
//!   discards it ([`pcc_edge::calib::ENTROPY_GPU`] models that cost).
//! - **Attributes**: the geometry's sort carries each point's color with
//!   its Morton code, and one run pass over the sorted pairs writes each
//!   voxel's mean color in Morton order. That sequence is segmented into
//!   ~30 000 blocks, each stored as one median **base** plus quantized
//!   per-point **residuals**, applied twice (the evaluated "2-layer
//!   encoder").
//!
//! [`IntraCodec`] glues both into a frame codec, charging every stage to
//! the [`pcc_edge::Device`] model so latency/energy figures regenerate.
//! [`encode_geometry_into`] runs the geometry pipeline and its leaf pass
//! alone: the prefix a P-frame (`pcc-inter`) shares with an I-frame,
//! through the session's one [`FrameArena`].
//!
//! # Examples
//!
//! ```
//! use pcc_edge::{Device, PowerMode};
//! use pcc_intra::{IntraCodec, IntraConfig};
//! use pcc_types::{Point3, PointCloud, Rgb, VoxelizedCloud};
//!
//! let cloud: PointCloud = (0..100)
//!     .map(|i| (Point3::new(i as f32, (i % 7) as f32, 0.0), Rgb::gray(100 + (i % 5) as u8)))
//!     .collect();
//! let vox = VoxelizedCloud::from_cloud(&cloud, 7);
//!
//! let device = Device::jetson_agx_xavier(PowerMode::W15);
//! let codec = IntraCodec::new(IntraConfig::default());
//! let frame = codec.encode(&vox, &device);
//! let decoded = codec.decode(&frame, &device).unwrap();
//! assert_eq!(decoded.len(), frame.unique_voxels);
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

mod arena;
mod attribute;
pub mod brick;
mod config;
mod frame;
pub mod geometry;
mod layer;

pub use arena::FrameArena;
pub use attribute::encode_delta_layer_into;
pub use brick::{BrickDecode, BrickEntry, BrickIndex, BRICK_MAGIC, BRICK_VERSION};
pub use config::IntraConfig;
pub use frame::{encode_geometry_into, IntraCodec, IntraFrame};
pub use layer::{
    decode_layer_threaded, encode_layer_with_starts_into, segment_starts_into, write_layer,
    LayerEncoded,
};
