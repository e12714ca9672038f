//! # pcc — edge-oriented point cloud compression
//!
//! A full reproduction of *"Pushing Point Cloud Compression to the Edge"*
//! (MICRO 2022): Morton-code-driven **parallel intra-frame** compression
//! and block-reuse **inter-frame** compression for dynamic point-cloud
//! video, together with the TMC13-like and CWIPC-like baselines the paper
//! compares against, an analytic Jetson-AGX-Xavier device model, synthetic
//! 8iVFB/MVUB-style datasets, and the benchmark harness that regenerates
//! every table and figure of the paper's evaluation.
//!
//! This umbrella crate re-exports the member crates; most users want
//! [`core`] ([`Design`](pcc_core::Design),
//! [`PccCodec`](pcc_core::PccCodec)) plus [`datasets`] and [`edge`].
//!
//! # Quickstart
//!
//! ```
//! use pcc::core::{Design, PccCodec};
//! use pcc::datasets::catalog;
//! use pcc::edge::{Device, PowerMode};
//!
//! // A laptop-scale slice of the Redandblack sequence.
//! let video = catalog::by_name("Redandblack").unwrap().generate_scaled(3, 2_000);
//! let device = Device::jetson_agx_xavier(PowerMode::W15);
//!
//! let codec = PccCodec::new(Design::IntraOnly);
//! let encoded = codec.encode_video(&video, 7, &device);
//! let decoded = codec.decode_video(&encoded, &device)?;
//! assert_eq!(decoded.len(), video.len());
//!
//! // Modeled edge latency of the first frame:
//! let ms = encoded.encode_timelines[0].total_modeled_ms();
//! println!("frame 0 encodes in {ms} on the modeled Jetson");
//! # Ok::<(), pcc::types::DecodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pcc_adapt as adapt;
pub use pcc_baseline as baseline;
pub use pcc_core as core;
pub use pcc_datasets as datasets;
pub use pcc_edge as edge;
pub use pcc_entropy as entropy;
pub use pcc_fault as fault;
pub use pcc_inter as inter;
pub use pcc_intra as intra;
pub use pcc_metrics as metrics;
pub use pcc_morton as morton;
pub use pcc_octree as octree;
pub use pcc_parallel as parallel;
pub use pcc_probe as probe;
pub use pcc_raht as raht;
pub use pcc_serve as serve;
pub use pcc_sim as sim;
pub use pcc_stream as stream;
pub use pcc_types as types;
