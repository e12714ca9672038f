//! The paper's proposed **inter-frame** attribute codec.
//!
//! P-frame attributes are compressed against the preceding I-frame
//! (paper Sec. V, Fig. 7):
//!
//! 1. **PC sorting** — the P-frame's geometry pipeline already sorted its
//!    voxels by Morton code; the reference frame is in the same order.
//! 2. **Segmentation** — both Morton-ordered sequences are split into
//!    ~50 000 blocks.
//! 3. **Block matching** — each P-block is compared against ≤100
//!    candidate I-blocks around its aligned position using the 2-norm
//!    attribute distance of Equ. 2 (`Diff_Squared` + `Squared_Sum`
//!    kernels; these dominate the energy budget, paper Fig. 9).
//! 4. **Reuse or delta** — blocks whose best match is within the
//!    threshold store only a pointer into the candidate window (**direct
//!    reuse**); the rest store per-point deltas, compressed with the
//!    intra codec's Base+Delta layer.
//!
//! The threshold is the paper's quality/compression knob: 300 for the
//!   quality-oriented **V1**, 1200 for the compression-oriented **V2**
//! (Sec. VI-B), swept in its Fig. 10b sensitivity study.
//!
//! # Examples
//!
//! ```
//! use pcc_edge::{Device, PowerMode};
//! use pcc_inter::{InterCodec, InterConfig};
//! use pcc_types::{Point3, PointCloud, Rgb, VoxelizedCloud};
//!
//! let frame = |shift: f32| -> VoxelizedCloud {
//!     let cloud: PointCloud = (0..200)
//!         .map(|i| (Point3::new(i as f32 + shift, 0.0, 0.0), Rgb::gray(100 + (i % 9) as u8)))
//!         .collect();
//!     let bb = pcc_types::Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(256.0, 1.0, 1.0));
//!     VoxelizedCloud::from_cloud_in_box(&cloud, 8, &bb)
//! };
//! let (i_frame, p_frame) = (frame(0.0), frame(1.0));
//!
//! let device = Device::jetson_agx_xavier(PowerMode::W15);
//! let codec = InterCodec::new(InterConfig::v1());
//! // The reference the decoder will hold: the decoded I-frame.
//! let intra = pcc_intra::IntraCodec::new(codec.config().intra);
//! let decoded_i = intra.decode(&intra.encode(&i_frame, &device), &device).unwrap();
//!
//! let encoded = codec.encode(&p_frame, decoded_i.colors(), &device);
//! let decoded_p = codec.decode(&encoded, decoded_i.colors(), &device).unwrap();
//! assert_eq!(decoded_p.len(), encoded.frame.unique_voxels);
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

mod codec;
mod config;
mod matching;

pub use codec::{InterArena, InterCodec, InterEncoded};
pub use config::InterConfig;
pub use matching::ReuseStats;
