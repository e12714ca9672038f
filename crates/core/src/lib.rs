//! `pcc-core` — the five-design point-cloud video codec facade.
//!
//! This crate ties the whole workspace together: it exposes the paper's
//! five evaluated designs ([`Design`]) behind one video codec
//! ([`PccCodec`]), schedules frames in the paper's IPP pattern, threads
//! the decoded-reference state that inter-frame compression needs, and
//! collects the latency / energy / size / quality reports every
//! experiment consumes ([`DesignReport`]).
//!
//! | Design | Paper role |
//! |---|---|
//! | [`Design::Tmc13`] | SOTA intra baseline (sequential octree + RAHT) |
//! | [`Design::Cwipc`] | SOTA inter baseline (macro-block motion estimation) |
//! | [`Design::IntraOnly`] | proposed Morton-parallel intra codec |
//! | [`Design::IntraInterV1`] | + inter reuse, quality-oriented (threshold 300) |
//! | [`Design::IntraInterV2`] | + inter reuse, compression-oriented (threshold 1200) |
//!
//! # Examples
//!
//! ```
//! use pcc_core::{Design, PccCodec};
//! use pcc_datasets::catalog;
//! use pcc_edge::{Device, PowerMode};
//!
//! let video = catalog::by_name("Loot").unwrap().generate_scaled(3, 2_000);
//! let device = Device::jetson_agx_xavier(PowerMode::W15);
//! let codec = PccCodec::new(Design::IntraInterV1);
//! let encoded = codec.encode_video(&video, 7, &device);
//! let decoded = codec.decode_video(&encoded, &device).unwrap();
//! assert_eq!(decoded.len(), video.len());
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
pub mod container;
mod design;
mod eval;
pub mod rate;
mod report;

pub use codec::{
    CodecError, EncodedFrame, EncodedVideo, FrameDecoder, FrameEncoder, PccCodec, RepairedIntra,
    SalvagedIntra,
};
// The brick index types travel up to the stream layer: the sender's
// frame history keeps per-brick payload ranges so a receiver can NACK and
// re-fetch individual damaged bricks.
pub use pcc_intra::{BrickEntry, BrickIndex};
pub use design::Design;
pub use eval::{evaluate, EvalOptions};
pub use report::{DesignReport, FrameReport};
