//! Loss-resilient streaming transport for live point-cloud video.
//!
//! The offline pipeline ([`pcc_core::PccCodec`]) produces a whole-video
//! PCCV container; edge deployments need the opposite shape — frames
//! leaving the device as they are captured, over links that drop and
//! corrupt bytes. This crate layers a chunked wire format on the PCCV
//! frame records and runs sessions over any `std::io` byte transport:
//!
//! * [`chunk`] — the wire format: self-delimiting chunks with a sync
//!   marker, CRC-protected header, and CRC-protected payload, plus a
//!   [`ChunkReader`] that scans back to the next sync marker after
//!   corruption.
//! * [`session`] — [`Sender`] / [`Receiver`] state machines. The sender
//!   encodes incrementally and flushes the transport at I-frame (GOF)
//!   boundaries. The receiver decodes incrementally,
//!   drops frames it cannot trust (CRC failures, gaps, P-frames whose
//!   I-frame was lost), and resynchronizes at the next intact I-frame.
//! * [`source`] — the encode/transmit split behind broadcast fan-out:
//!   a [`FrameSource`] runs the codec once per frame and any number of
//!   [`Subscription`]s stamp the shared payload into their own wire
//!   sequence space (the `pcc-serve` crate composes these into
//!   multi-subscriber sessions; [`Sender`] is the 1:1 composition).
//! * [`supervise`] — the pipelined whole-video sender: [`stream_video`]
//!   overlaps a [`FrameSource`] encode thread and a [`Subscription`]
//!   transmit loop through a bounded channel, under a [`Supervisor`] that
//!   can walk a `pcc-adapt` quality ladder on live feedback, abandon
//!   over-deadline P-frames (deadline watchdog), and contain
//!   encode-worker panics as single dropped frames.
//! * [`recovery`] — the recovery plane: receiver-driven
//!   [`RecoveryRequest`]s (intra-refresh asks, per-brick repair NACKs)
//!   ride the feedback channel back to the sender, which re-anchors
//!   with an out-of-schedule I-frame or retransmits individual brick
//!   payloads from its [`FrameHistory`].
//! * [`history`] — the [`FrameHistory`] every [`FrameSource`] records
//!   into: one store of shared frame payloads that a broadcast replays
//!   late joiners from and that answers brick-repair NACKs.
//! * [`StreamStats`] — delivery accounting: frames sent / delivered /
//!   dropped, resyncs, wire bytes, corruption events. It and `pcc-serve`'s
//!   `ServeStats` are each one [`counters!`] table, which generates
//!   `merge` and the `name value` text export (`Display`).
//!
//! Everything is `std`-only — the loopback TCP example
//! (`examples/live_stream.rs`) runs in an offline sandbox.
//!
//! ```
//! use pcc_core::{Design, PccCodec};
//! use pcc_datasets::catalog;
//! use pcc_edge::{Device, PowerMode};
//! use pcc_stream::{stream_video, Receiver, StreamConfig, Supervisor};
//!
//! let video = catalog::by_name("Loot").unwrap().generate_scaled(6, 1_500);
//! let codec = PccCodec::new(Design::IntraInterV1);
//! let device = Device::jetson_agx_xavier(PowerMode::W15);
//!
//! let config = StreamConfig::default();
//! let mut supervisor = Supervisor::default();
//! let (wire, tx) =
//!     stream_video(&codec, &video, 7, &device, Vec::new(), &config, &mut supervisor).unwrap();
//!
//! let mut rx = Receiver::new(wire.as_slice(), &device);
//! let mut delivered = 0;
//! while let Some(frame) = rx.recv_frame().unwrap() {
//!     assert_eq!(frame.frame_index, delivered);
//!     delivered += 1;
//! }
//! assert_eq!(delivered, tx.frames_sent);
//! assert!(rx.stats().clean_shutdown);
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

pub mod arq;
pub mod chunk;
pub mod history;
pub mod recovery;
pub mod session;
pub mod source;
pub mod stats;
pub mod supervise;

pub use arq::{ArqConfig, Retransmit, SharedRing};
pub use history::{FrameHistory, SharedRepairRing};
pub use recovery::RecoveryRequest;
pub use chunk::{
    decode_chunk, encode_chunk, Chunk, ChunkKind, ChunkParts, ChunkReader, ChunkWriter,
    SharedBytes,
};
pub use session::{Delivered, Receiver, Sender, StreamConfig, STREAM_VERSION};
pub use source::{FramePayload, FrameSource, StampMemo, Subscription};
pub use stats::{SharedStats, StreamStats};
pub use supervise::{stream_video, Supervisor};
