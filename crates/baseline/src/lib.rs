//! State-of-the-art comparator codecs.
//!
//! The paper measures its proposals against two baselines; both are
//! reimplemented here with the *algorithmic structure* the paper
//! profiles, wired to the same device model so latency/energy
//! comparisons are apples-to-apples:
//!
//! - [`Tmc13Codec`] — a G-PCC/TMC13-style **intra** codec: sequential
//!   point-by-point octree construction (lossless geometry), RAHT
//!   attribute transform, and adaptive arithmetic coding. Its two
//!   dominant stages (octree ≈1.5 s, RAHT ≈2.6 s per million-point
//!   frame) are the paper's Fig. 2/8a bottlenecks.
//! - [`CwipcCodec`] — a CWIPC-style **inter** codec: octree geometry,
//!   entropy-coded (quantized) raw attributes, and macro-block tree
//!   motion estimation on 4 CPU threads for P-frames.
//!
//! # Examples
//!
//! ```
//! use pcc_baseline::Tmc13Codec;
//! use pcc_edge::{Device, PowerMode};
//! use pcc_types::{Point3, PointCloud, Rgb, VoxelizedCloud};
//!
//! let cloud: PointCloud = (0..200)
//!     .map(|i| (Point3::new(i as f32, (i % 5) as f32, 0.0), Rgb::gray(90 + (i % 11) as u8)))
//!     .collect();
//! let vox = VoxelizedCloud::from_cloud(&cloud, 8);
//! let device = Device::jetson_agx_xavier(PowerMode::W15);
//!
//! let codec = Tmc13Codec::default();
//! let frame = codec.encode(&vox, &device);
//! let decoded = codec.decode(&frame, &device).unwrap();
//! assert_eq!(decoded.len(), frame.unique_voxels);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cwipc;
pub mod icp;
mod tmc13;

pub use cwipc::{CwipcCodec, CwipcConfig, CwipcFrame};
pub use icp::{icp, IcpResult, RigidTransform};
pub use tmc13::{AttributeMode, Tmc13Codec, Tmc13Frame};
