//! Bounded retransmission (ARQ) for lossy transports.
//!
//! The base session layer is purely feed-forward: a lost chunk is a lost
//! frame, and a lost I-frame costs its whole group. When the deployment
//! has *some* back channel — even a simulated one — a sender can park
//! recently sent chunks in a bounded [`SharedRing`] and a receiver can
//! NACK sequence gaps against it ([`Receiver::with_arq`]):
//!
//! ```text
//!   sender ──chunks──▶ lossy transport ──▶ receiver
//!     │                                       │ seq gap detected
//!     └────── SharedRing ◀─────── NACK(seq) ──┘
//!                │
//!                └──── retransmitted chunk ──▶ pending queue
//! ```
//!
//! A ring never copies a frame: it parks each chunk as its 26-byte
//! stamped header plus a reference to the frame payload the sender
//! already shares with every other subscriber and its frame history
//! ([`ChunkParts`]), and rebuilds the chunk bytes only when a NACK asks
//! for them. Ring memory is therefore headers plus shared payload
//! references, however many ARQ subscribers a broadcast serves.
//!
//! Recovery is bounded on every axis so a hostile or dead link can never
//! wedge the session: the ring holds the last `ring_chunks` encoded
//! chunks (older gaps are immediately *degraded*), each missing sequence
//! number gets at most `retry_budget` NACKs with exponential backoff
//! between attempts, and a per-gap `deadline` cuts retries off entirely.
//! Whatever stays missing falls back to the base skip-and-resync
//! behavior and is counted in
//! [`StreamStats::arq_degraded`](crate::StreamStats::arq_degraded).
//!
//! [`Receiver::with_arq`]: crate::Receiver::with_arq

use crate::chunk::ChunkParts;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A source the receiver can pull lost chunks back out of.
///
/// `retransmit` is the NACK: the receiver names the sequence number it
/// is missing and gets the encoded chunk bytes back, or `None` when the
/// source no longer has them (aged out of the ring, or the simulated
/// back channel lost the retransmission too).
pub trait Retransmit {
    /// Requests the encoded bytes of the chunk with wire sequence `seq`.
    fn retransmit(&mut self, seq: u32) -> Option<Vec<u8>>;
}

/// A clonable, thread-safe ring of the most recently sent chunks,
/// parked as [`ChunkParts`].
///
/// The sender half inserts every chunk as it hits the wire
/// ([`Sender::with_arq`](crate::Sender::with_arq)); a clone handed to
/// the receiver serves its NACKs. Sessions whose halves run on separate
/// threads (the loopback examples) share one ring this way. Capacity is
/// in chunks; inserting past it evicts the oldest entry, so memory stays
/// proportional to the configured window no matter how long the session
/// runs.
#[derive(Debug, Clone)]
pub struct SharedRing {
    capacity: usize,
    entries: Arc<Mutex<VecDeque<(u32, ChunkParts)>>>,
}

impl SharedRing {
    /// Creates a ring holding at most `capacity` chunks (minimum 1).
    pub fn new(capacity: usize) -> Self {
        SharedRing { capacity: capacity.max(1), entries: Arc::default() }
    }

    /// Parks chunk `seq`, evicting the oldest entry when full.
    pub fn insert(&self, seq: u32, chunk: ChunkParts) {
        let mut entries = self.lock();
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back((seq, chunk));
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<(u32, ChunkParts)>> {
        // A poisoned ring only means another thread panicked mid-insert;
        // the entries themselves are immutable parts, still safe to serve.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Retransmit for SharedRing {
    fn retransmit(&mut self, seq: u32) -> Option<Vec<u8>> {
        let entries = self.lock();
        entries.iter().rev().find(|(s, _)| *s == seq).map(|(_, c)| c.to_bytes())
    }
}

/// Recovery bounds for an ARQ-enabled receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArqConfig {
    /// Window (in chunks) the sender's ring is assumed to hold; gaps
    /// older than this behind the newest received chunk are degraded
    /// without being NACKed.
    pub ring_chunks: usize,
    /// NACK attempts per missing sequence number before giving up.
    pub retry_budget: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub backoff_base: Duration,
    /// Ceiling on the per-attempt backoff.
    pub backoff_cap: Duration,
    /// Wall-clock budget for recovering one gap. Once it has passed,
    /// every still-missing sequence number gets exactly one more attempt
    /// (never zero — a single NACK is cheaper than a resync) and the
    /// rest of the budget is forfeited: graceful degradation to
    /// skip-and-resync.
    pub deadline: Duration,
}

impl Default for ArqConfig {
    fn default() -> Self {
        ArqConfig {
            ring_chunks: 64,
            retry_budget: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            deadline: Duration::from_millis(200),
        }
    }
}

impl ArqConfig {
    /// The backoff to sleep after failed attempt number `attempt`
    /// (0-based): `backoff_base << attempt`, capped at `backoff_cap`.
    pub fn backoff_after(&self, attempt: u32) -> Duration {
        let shifted = self
            .backoff_base
            .checked_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .unwrap_or(self.backoff_cap);
        shifted.min(self.backoff_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{decode_chunk, encode_chunk, Chunk, ChunkKind};
    use pcc_types::FrameKind;

    fn chunk(seq: u32) -> Chunk {
        Chunk {
            kind: ChunkKind::Frame,
            frame_kind: Some(FrameKind::Predicted),
            stream_id: 1,
            seq,
            frame_index: seq,
            payload: vec![seq as u8; 5],
        }
    }

    #[test]
    fn ring_evicts_oldest_and_serves_newest() {
        let mut ring = SharedRing::new(3);
        assert_eq!(ring.retransmit(0), None);
        for seq in 0..5u32 {
            ring.insert(seq, ChunkParts::from_chunk(&chunk(seq)));
        }
        assert_eq!(ring.retransmit(0), None, "oldest must age out");
        assert_eq!(ring.retransmit(1), None);
        for seq in 2..5u32 {
            let bytes = ring.retransmit(seq).unwrap();
            assert_eq!(bytes, encode_chunk(&chunk(seq)), "rebuilt image must be the wire image");
            assert_eq!(decode_chunk(&bytes), Some(chunk(seq)));
        }
    }

    #[test]
    fn shared_ring_clones_see_each_others_inserts() {
        let ring = SharedRing::new(8);
        let mut reader = ring.clone();
        ring.insert(7, ChunkParts::from_chunk(&chunk(7)));
        assert_eq!(reader.retransmit(7), Some(encode_chunk(&chunk(7))));
        assert_eq!(reader.retransmit(8), None);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = ArqConfig {
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(10),
            ..ArqConfig::default()
        };
        assert_eq!(cfg.backoff_after(0), Duration::from_millis(2));
        assert_eq!(cfg.backoff_after(1), Duration::from_millis(4));
        assert_eq!(cfg.backoff_after(2), Duration::from_millis(8));
        assert_eq!(cfg.backoff_after(3), Duration::from_millis(10));
        assert_eq!(cfg.backoff_after(200), Duration::from_millis(10));
    }
}
