//! Delivery accounting for a streaming session.

use crate::recovery::RecoveryRequest;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

/// Cap on queued-but-undrained recovery requests in a [`SharedStats`]
/// feedback slot. A sender that never drains (or a receiver spamming
/// requests) must not grow the queue without bound; the oldest request
/// is dropped, which is safe because every recovery verb is re-issuable.
const RECOVERY_QUEUE_CAP: usize = 32;

/// Counters a streaming session exposes.
///
/// A [`Sender`](crate::Sender) fills the send-side fields and a
/// [`Receiver`](crate::Receiver) the delivery-side fields; for a
/// loopback view of a whole session, [`merge`](StreamStats::merge) the
/// two.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Frames encoded and handed to the transport.
    pub frames_sent: usize,
    /// Frames decoded and delivered to the application.
    pub frames_delivered: usize,
    /// Frames lost to corruption, reordering, or a broken reference
    /// chain (P-frames whose I-frame never arrived).
    pub frames_dropped: usize,
    /// Times the receiver recovered sync at an I-frame after loss.
    pub resyncs: usize,
    /// Chunks written to the wire.
    pub chunks_sent: usize,
    /// Intact chunks discarded by the receiver (stale, foreign stream
    /// id, duplicate, or otherwise unusable).
    pub chunks_dropped: usize,
    /// Corruption events the chunk layer survived (failed CRCs, resync
    /// scans).
    pub corrupt_events: usize,
    /// Bytes written to the wire.
    pub bytes_sent: u64,
    /// Bytes consumed from the wire.
    pub bytes_received: u64,
    /// Frames whose modeled encode latency exceeded the per-frame
    /// budget (when one was configured).
    pub frames_over_budget: usize,
    /// Whether an end-of-stream chunk was seen (receiver) or written
    /// (sender); `false` means the transport died mid-stream.
    pub clean_shutdown: bool,
    /// Retransmission requests (NACKs) issued for missing chunks when
    /// ARQ is enabled.
    pub arq_nacks: usize,
    /// Missing chunks recovered through retransmission.
    pub arq_recovered: usize,
    /// Missing chunks ARQ gave up on (retry budget or deadline spent,
    /// or aged out of the retransmit ring); these fall back to
    /// skip-and-resync loss handling.
    pub arq_degraded: usize,
    /// Frames encoded (or shed) below the quality ladder's top rung by
    /// the overload controller.
    pub frames_degraded: usize,
    /// Quality-ladder rung changes the controller applied (each lands on
    /// a GOF boundary).
    pub rung_changes: usize,
    /// Frames the deadline watchdog abandoned after encoding because
    /// they blew the frame budget (P-frames only; never transmitted).
    pub watchdog_skips: usize,
    /// Encode-worker panics converted into a single dropped frame by the
    /// supervision boundary instead of killing the session.
    pub panics_contained: usize,
    /// Damaged brick-partitioned I-frames delivered partially: at least
    /// one brick failed its CRC, the survivors were salvaged and handed
    /// to the application. Partial frames count as delivered, not
    /// dropped — but the reference chain never anchors on a partial
    /// picture, so the session stays desynchronized until a clean
    /// I-frame arrives.
    pub partial_frames: usize,
    /// Bricks discarded across all partially delivered frames — the
    /// per-subtree loss ledger behind
    /// [`partial_frames`](Self::partial_frames).
    pub bricks_dropped: usize,
    /// Intra-refresh requests published by a recovery-enabled receiver
    /// whose reference picture broke (at most one per desync episode).
    pub refresh_requests: usize,
    /// Out-of-schedule I-frames the sender emitted in answer to refresh
    /// requests.
    pub refresh_frames: usize,
    /// Wire bytes spent on those out-of-schedule I-frames — the
    /// bandwidth cost of re-anchoring early instead of waiting for the
    /// scheduled GOF boundary.
    pub refresh_bytes: u64,
    /// Brick-repair NACKs issued for individually damaged bricks of a
    /// delivered-but-broken I-frame.
    pub brick_nacks: usize,
    /// Damaged bricks made whole again from retransmitted payloads.
    pub bricks_repaired: usize,
    /// Frames fully repaired at brick granularity and delivered
    /// bit-exact; repaired frames re-anchor the reference chain like a
    /// clean I-frame.
    pub frames_repaired: usize,
    /// Repair attempts that could not make the frame whole (ring aged
    /// out, retransmitted bytes failed re-verification); these fall back
    /// to partial salvage.
    pub repairs_failed: usize,
    /// Recovery requests evicted from a full [`SharedStats`] feedback
    /// queue before the sender drained them (the oldest ask is dropped
    /// on overflow). Every verb is re-issuable, so a drop only delays
    /// repair — but a nonzero count means the sender is not keeping up
    /// with its receivers' asks.
    pub recovery_dropped: usize,
}

/// Compact per-session table: one row per counter family, fixed-width
/// labels. Examples print this instead of hand-formatting fields.
impl std::fmt::Display for StreamStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "frames    sent {:>8}  delivered {:>8}  dropped {:>6}  over-budget {:>4}  degraded {:>4}",
            self.frames_sent,
            self.frames_delivered,
            self.frames_dropped,
            self.frames_over_budget,
            self.frames_degraded,
        )?;
        writeln!(
            f,
            "chunks    sent {:>8}  dropped {:>6}  corrupt-events {:>6}",
            self.chunks_sent, self.chunks_dropped, self.corrupt_events,
        )?;
        writeln!(
            f,
            "bytes     sent {:>8}  received {:>8}",
            self.bytes_sent, self.bytes_received,
        )?;
        writeln!(
            f,
            "recovery  resyncs {:>5}  nacks {:>6}  recovered {:>6}  arq-degraded {:>4}  partial {:>4}  bricks-dropped {:>4}",
            self.resyncs,
            self.arq_nacks,
            self.arq_recovered,
            self.arq_degraded,
            self.partial_frames,
            self.bricks_dropped,
        )?;
        writeln!(
            f,
            "repair    refresh-req {:>4}  refresh-frames {:>4}  refresh-bytes {:>8}  brick-nacks {:>5}  repaired {:>5}/{:>4}  failed {:>4}  asks-dropped {:>4}",
            self.refresh_requests,
            self.refresh_frames,
            self.refresh_bytes,
            self.brick_nacks,
            self.bricks_repaired,
            self.frames_repaired,
            self.repairs_failed,
            self.recovery_dropped,
        )?;
        write!(
            f,
            "control   rung-changes {:>4}  watchdog-skips {:>4}  panics {:>4}  shutdown {}",
            self.rung_changes,
            self.watchdog_skips,
            self.panics_contained,
            if self.clean_shutdown { "clean" } else { "dirty" },
        )
    }
}

impl StreamStats {
    /// Folds another side's counters into this one (loopback sessions
    /// combine the sender's and receiver's views).
    pub fn merge(&mut self, other: &StreamStats) {
        self.frames_sent += other.frames_sent;
        self.frames_delivered += other.frames_delivered;
        self.frames_dropped += other.frames_dropped;
        self.resyncs += other.resyncs;
        self.chunks_sent += other.chunks_sent;
        self.chunks_dropped += other.chunks_dropped;
        self.corrupt_events += other.corrupt_events;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.frames_over_budget += other.frames_over_budget;
        self.clean_shutdown = self.clean_shutdown && other.clean_shutdown;
        self.arq_nacks += other.arq_nacks;
        self.arq_recovered += other.arq_recovered;
        self.arq_degraded += other.arq_degraded;
        self.frames_degraded += other.frames_degraded;
        self.rung_changes += other.rung_changes;
        self.watchdog_skips += other.watchdog_skips;
        self.panics_contained += other.panics_contained;
        self.partial_frames += other.partial_frames;
        self.bricks_dropped += other.bricks_dropped;
        self.refresh_requests += other.refresh_requests;
        self.refresh_frames += other.refresh_frames;
        self.refresh_bytes += other.refresh_bytes;
        self.brick_nacks += other.brick_nacks;
        self.bricks_repaired += other.bricks_repaired;
        self.frames_repaired += other.frames_repaired;
        self.repairs_failed += other.repairs_failed;
        self.recovery_dropped += other.recovery_dropped;
    }

    /// Fraction of sent frames that were delivered (1.0 when nothing
    /// was sent).
    pub fn delivery_ratio(&self) -> f64 {
        if self.frames_sent == 0 {
            1.0
        } else {
            self.frames_delivered as f64 / self.frames_sent as f64
        }
    }
}

/// What a [`SharedStats`] slot actually holds: the latest counter
/// snapshot plus the queue of recovery requests riding the same channel
/// back toward the sender.
#[derive(Debug, Default)]
struct FeedbackSlot {
    stats: StreamStats,
    recovery: VecDeque<RecoveryRequest>,
    /// Asks evicted on queue overflow. Lives on the slot (not the
    /// published snapshot) because the *queue* drops them — the receiver
    /// that published its stats never learns; snapshots overlay this
    /// count so the sender side still sees it.
    recovery_dropped: usize,
}

/// A cloneable, thread-safe [`StreamStats`] snapshot slot — the feedback
/// channel from a receiver to the sender-side overload controller.
///
/// A [`Receiver`](crate::Receiver) given a handle
/// ([`with_feedback`](crate::Receiver::with_feedback)) publishes its
/// counters after every `recv_frame`; a supervisor holding a clone
/// samples them per encoded frame. Snapshots are whole-struct copies, so
/// a sampled view is always internally consistent.
///
/// The slot also carries the recovery plane's upstream verbs: a
/// recovery-enabled receiver [`push_recovery`](Self::push_recovery)-es
/// [`RecoveryRequest`]s (e.g. an intra-refresh ask when its reference
/// breaks) and the sender [`take_recovery`](Self::take_recovery)-s them
/// before encoding the next frame. The queue is bounded; the oldest
/// request is dropped on overflow.
#[derive(Debug, Clone, Default)]
pub struct SharedStats(Arc<Mutex<FeedbackSlot>>);

impl SharedStats {
    /// An empty snapshot slot.
    pub fn new() -> Self {
        SharedStats::default()
    }

    /// Replaces the published snapshot.
    pub fn publish(&self, stats: &StreamStats) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).stats = stats.clone();
    }

    /// The latest published snapshot, with the slot's own overflow-drop
    /// count overlaid on [`StreamStats::recovery_dropped`] (the queue
    /// drops asks, not the receiver, so the receiver's published copy
    /// cannot carry the count itself).
    pub fn snapshot(&self) -> StreamStats {
        let slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let mut stats = slot.stats.clone();
        stats.recovery_dropped += slot.recovery_dropped;
        stats
    }

    /// Queues a recovery request for the sender to drain. Bounded: once
    /// the queue cap is reached, the oldest request is dropped and
    /// counted ([`recovery_dropped`](Self::recovery_dropped)) — every
    /// recovery verb is re-issuable, so this only delays repair, never
    /// corrupts it.
    pub fn push_recovery(&self, request: RecoveryRequest) {
        let mut slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.recovery.len() == RECOVERY_QUEUE_CAP {
            slot.recovery.pop_front();
            slot.recovery_dropped += 1;
        }
        slot.recovery.push_back(request);
    }

    /// Recovery requests evicted on queue overflow so far — asks the
    /// sender never saw. Also overlaid on every
    /// [`snapshot`](Self::snapshot) as `recovery_dropped`.
    pub fn recovery_dropped(&self) -> usize {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).recovery_dropped
    }

    /// Drains every pending recovery request, oldest first.
    pub fn take_recovery(&self) -> Vec<RecoveryRequest> {
        let mut slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        slot.recovery.drain(..).collect()
    }

    /// Number of recovery requests waiting to be drained.
    pub fn pending_recovery(&self) -> usize {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).recovery.len()
    }

    /// Number of pending [`RecoveryRequest::IntraRefresh`] asks — peeked
    /// without draining, so an external invariant checker (the
    /// simulation harness) can observe "a refresh is owed" while leaving
    /// the sender's drain untouched.
    pub fn pending_refresh(&self) -> usize {
        let slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        slot.recovery
            .iter()
            .filter(|r| matches!(r, RecoveryRequest::IntraRefresh { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_combines_both_sides() {
        let mut tx = StreamStats {
            frames_sent: 12,
            chunks_sent: 14,
            bytes_sent: 9000,
            clean_shutdown: true,
            ..StreamStats::default()
        };
        let rx = StreamStats {
            frames_delivered: 10,
            frames_dropped: 2,
            resyncs: 1,
            bytes_received: 9000,
            clean_shutdown: true,
            ..StreamStats::default()
        };
        tx.merge(&rx);
        assert_eq!(tx.frames_sent, 12);
        assert_eq!(tx.frames_delivered, 10);
        assert_eq!(tx.frames_dropped, 2);
        assert!(tx.clean_shutdown);
        assert!((tx.delivery_ratio() - 10.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn display_renders_every_counter_family() {
        let stats = StreamStats {
            frames_sent: 12,
            frames_delivered: 10,
            frames_dropped: 2,
            resyncs: 1,
            chunks_sent: 14,
            bytes_sent: 9000,
            clean_shutdown: true,
            ..StreamStats::default()
        };
        let plain = stats.to_string();
        for needle in [
            "frames",
            "chunks",
            "bytes",
            "recovery",
            "control",
            "12",
            "10",
            "9000",
            "shutdown clean",
        ] {
            assert!(plain.contains(needle), "missing {needle:?} in:\n{plain}");
        }
    }

    #[test]
    fn recovery_queue_is_ordered_bounded_and_drains_clean() {
        let fb = SharedStats::new();
        fb.push_recovery(RecoveryRequest::IntraRefresh { at_frame: 3 });
        fb.push_recovery(RecoveryRequest::BrickRepair { frame_index: 3, cell: 9 });
        assert_eq!(fb.pending_recovery(), 2);
        assert_eq!(
            fb.take_recovery(),
            vec![
                RecoveryRequest::IntraRefresh { at_frame: 3 },
                RecoveryRequest::BrickRepair { frame_index: 3, cell: 9 },
            ]
        );
        assert_eq!(fb.pending_recovery(), 0);
        assert!(fb.take_recovery().is_empty());

        // Overflow drops the oldest: the queue never grows past its cap,
        // and every evicted ask is counted instead of vanishing silently.
        assert_eq!(fb.recovery_dropped(), 0);
        for i in 0..(RECOVERY_QUEUE_CAP as u32 + 5) {
            fb.push_recovery(RecoveryRequest::IntraRefresh { at_frame: i });
        }
        let drained = fb.take_recovery();
        assert_eq!(drained.len(), RECOVERY_QUEUE_CAP);
        assert_eq!(drained.first(), Some(&RecoveryRequest::IntraRefresh { at_frame: 5 }));
        assert_eq!(fb.recovery_dropped(), 5, "each overflow eviction must be counted");
        // The count rides every snapshot, overlaid on whatever the
        // receiver last published (which cannot know about queue drops).
        fb.publish(&StreamStats { refresh_requests: 2, ..StreamStats::default() });
        let snap = fb.snapshot();
        assert_eq!(snap.recovery_dropped, 5);
        assert_eq!(snap.refresh_requests, 2);
        assert!(snap.to_string().contains("asks-dropped    5"), "{snap}");
    }
}
