//! The recovery plane: receiver-driven repair requests.
//!
//! The stream layer already degrades gracefully — ARQ re-fetches lost
//! chunks, damaged brick frames deliver partially, a broken reference
//! desynchronizes until the next scheduled I-frame — but nothing here
//! *recovers* proactively. This module adds the two missing verbs:
//!
//! * [`RecoveryRequest::IntraRefresh`] — a receiver whose reference
//!   picture is broken (lost or orphaned I-frame, drift past a group)
//!   publishes a refresh request over the existing feedback channel
//!   ([`SharedStats`](crate::SharedStats)); the sender re-anchors with an
//!   out-of-schedule I-frame at the next slot instead of letting the
//!   receiver wait out the rest of the group. This is the PLI/FIR idiom
//!   of mature video transports.
//! * [`RecoveryRequest::BrickRepair`] — a receiver holding a damaged
//!   brick-partitioned I-frame NACKs the specific damaged cells; the
//!   sender's [`FrameHistory`](crate::FrameHistory) answers with the
//!   original `geometry ++ attribute` payload of just that brick,
//!   re-verified against the frame's own index CRC before it is spliced
//!   back in.

/// A repair verb a receiver publishes toward its sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryRequest {
    /// The receiver's reference picture is broken: please re-anchor with
    /// an out-of-schedule I-frame at the next frame slot.
    IntraRefresh {
        /// The next frame index the receiver expects — the earliest slot
        /// the refresh could land on (diagnostic; the sender re-anchors
        /// at its own next slot regardless).
        at_frame: u32,
    },
    /// One brick of a delivered-but-damaged intra frame failed its CRC:
    /// please retransmit that brick's payload bytes.
    BrickRepair {
        /// Stream-order index of the damaged frame.
        frame_index: u32,
        /// Morton cell id of the damaged brick (the key the frame's own
        /// brick index files payload ranges under).
        cell: u64,
    },
}
