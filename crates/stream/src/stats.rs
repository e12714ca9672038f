//! Delivery accounting for a streaming session.

use crate::recovery::RecoveryRequest;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

/// Cap on queued-but-undrained recovery requests in a [`SharedStats`]
/// feedback slot. A sender that never drains (or a receiver spamming
/// requests) must not grow the queue without bound; the oldest request
/// is dropped, which is safe because every recovery verb is re-issuable.
const RECOVERY_QUEUE_CAP: usize = 32;

/// Declares a counter struct from one table of `name: type => rule`
/// entries, each under its doc comment, and generates the struct (`pub`
/// fields; `Debug`, `Clone`, `Default`, `PartialEq`, `Eq`), `merge`,
/// `write_counters` and `Display` from it.
///
/// Rules: `sum` adds; `and` ANDs a flag, so one dirty side makes the
/// merged view dirty; `nested` merges a nested counter struct, exported
/// under `name.`. `Display` is the text export: one `name value` line per
/// counter, in declaration order. Derived figures stay methods and get no
/// line.
#[macro_export]
macro_rules! counters {
    (@merge sum, $a:ident, $b:ident, $f:ident) => { $a.$f += $b.$f; };
    (@merge and, $a:ident, $b:ident, $f:ident) => { $a.$f = $a.$f && $b.$f; };
    (@merge nested, $a:ident, $b:ident, $f:ident) => { $a.$f.merge(&$b.$f); };
    (@export nested, $v:expr, $prefix:ident, $name:expr, $out:ident) => {
        $v.write_counters(&format!("{}{}.", $prefix, $name), $out)?;
    };
    (@export $rule:ident, $v:expr, $prefix:ident, $name:expr, $out:ident) => {
        writeln!($out, "{}{} {}", $prefix, $name, $v)?;
    };
    (
        $(#[$attr:meta])*
        pub struct $name:ident {
            $(
                $(#[doc = $doc:literal])*
                $field:ident: $ty:ty => $rule:ident,
            )*
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct $name { $($(#[doc = $doc])* pub $field: $ty,)* }

        impl $name {
            /// Folds another view's counters into this one, each by its
            /// declared rule (counts add, flags AND).
            pub fn merge(&mut self, other: &Self) {
                $($crate::counters!(@merge $rule, self, other, $field);)*
            }

            /// Writes the text export, one `name value` line per counter
            /// in declaration order, each name preceded by `prefix`.
            pub fn write_counters(
                &self,
                prefix: &str,
                out: &mut dyn ::std::fmt::Write,
            ) -> ::std::fmt::Result {
                $($crate::counters!(@export $rule, self.$field, prefix, stringify!($field), out);)*
                Ok(())
            }
        }

        /// The text export: one `name value` line per counter.
        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                self.write_counters("", f)
            }
        }
    };
}

counters! {
    /// Counters a streaming session exposes.
    ///
    /// A [`Sender`](crate::Sender) fills the send-side fields and a
    /// [`Receiver`](crate::Receiver) the delivery-side fields; for a
    /// loopback view of a whole session, [`merge`](StreamStats::merge) the
    /// two.
    pub struct StreamStats {
        /// Frames encoded and handed to the transport.
        frames_sent: usize => sum,
        /// Frames decoded and delivered to the application.
        frames_delivered: usize => sum,
        /// Frames lost to corruption, reordering, or a broken reference
        /// chain (P-frames whose I-frame never arrived).
        frames_dropped: usize => sum,
        /// Times the receiver recovered sync at an I-frame after loss.
        resyncs: usize => sum,
        /// Chunks written to the wire.
        chunks_sent: usize => sum,
        /// Intact chunks discarded by the receiver (stale, foreign stream
        /// id, duplicate, or otherwise unusable).
        chunks_dropped: usize => sum,
        /// Corruption events the chunk layer survived (failed CRCs, resync
        /// scans).
        corrupt_events: usize => sum,
        /// Bytes written to the wire.
        bytes_sent: u64 => sum,
        /// Bytes consumed from the wire.
        bytes_received: u64 => sum,
        /// Frames whose modeled encode latency exceeded the per-frame
        /// budget (when one was configured).
        frames_over_budget: usize => sum,
        /// Whether an end-of-stream chunk was seen (receiver) or written
        /// (sender); `false` means the transport died mid-stream.
        clean_shutdown: bool => and,
        /// Retransmission requests (NACKs) issued for missing chunks when
        /// ARQ is enabled.
        arq_nacks: usize => sum,
        /// Missing chunks recovered through retransmission.
        arq_recovered: usize => sum,
        /// Missing chunks ARQ gave up on (retry budget or deadline spent,
        /// or aged out of the retransmit ring); these fall back to
        /// skip-and-resync loss handling.
        arq_degraded: usize => sum,
        /// Frames encoded (or shed) below the quality ladder's top rung by
        /// the overload controller.
        frames_degraded: usize => sum,
        /// Quality-ladder rung changes the controller applied (each lands on
        /// a GOF boundary).
        rung_changes: usize => sum,
        /// Frames the deadline watchdog abandoned after encoding because
        /// they blew the frame budget (P-frames only; never transmitted).
        watchdog_skips: usize => sum,
        /// Encode-worker panics converted into a single dropped frame by the
        /// supervision boundary instead of killing the session.
        panics_contained: usize => sum,
        /// Damaged brick-partitioned I-frames delivered partially: at least
        /// one brick failed its CRC, the survivors were salvaged and handed
        /// to the application. Partial frames count as delivered, not
        /// dropped — but the reference chain never anchors on a partial
        /// picture, so the session stays desynchronized until a clean
        /// I-frame arrives.
        partial_frames: usize => sum,
        /// Bricks discarded across all partially delivered frames — the
        /// per-subtree loss ledger behind
        /// [`partial_frames`](Self::partial_frames).
        bricks_dropped: usize => sum,
        /// Intra-refresh requests published by a recovery-enabled receiver
        /// whose reference picture broke (at most one per desync episode).
        refresh_requests: usize => sum,
        /// Out-of-schedule I-frames the sender emitted in answer to refresh
        /// requests.
        refresh_frames: usize => sum,
        /// Wire bytes spent on those out-of-schedule I-frames — the
        /// bandwidth cost of re-anchoring early instead of waiting for the
        /// scheduled GOF boundary.
        refresh_bytes: u64 => sum,
        /// Brick-repair NACKs issued for individually damaged bricks of a
        /// delivered-but-broken I-frame.
        brick_nacks: usize => sum,
        /// Damaged bricks made whole again from retransmitted payloads.
        bricks_repaired: usize => sum,
        /// Frames fully repaired at brick granularity and delivered
        /// bit-exact; repaired frames re-anchor the reference chain like a
        /// clean I-frame.
        frames_repaired: usize => sum,
        /// Repair attempts that could not make the frame whole (ring aged
        /// out, retransmitted bytes failed re-verification); these fall back
        /// to partial salvage.
        repairs_failed: usize => sum,
        /// Recovery requests evicted from a full [`SharedStats`] feedback
        /// queue before the sender drained them (the oldest ask is dropped
        /// on overflow). Every verb is re-issuable, so a drop only delays
        /// repair — but a nonzero count means the sender is not keeping up
        /// with its receivers' asks.
        recovery_dropped: usize => sum,
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

    /// A value with every counter nonzero and the flag set. The literal
    /// names every field, so a new counter must be added here too.
    fn every_counter_set() -> StreamStats {
        StreamStats {
            frames_sent: 1,
            frames_delivered: 2,
            frames_dropped: 3,
            resyncs: 4,
            chunks_sent: 5,
            chunks_dropped: 6,
            corrupt_events: 7,
            bytes_sent: 8,
            bytes_received: 9,
            frames_over_budget: 10,
            clean_shutdown: true,
            arq_nacks: 11,
            arq_recovered: 12,
            arq_degraded: 13,
            frames_degraded: 14,
            rung_changes: 15,
            watchdog_skips: 16,
            panics_contained: 17,
            partial_frames: 18,
            bricks_dropped: 19,
            refresh_requests: 20,
            refresh_frames: 21,
            refresh_bytes: 22,
            brick_nacks: 23,
            bricks_repaired: 24,
            frames_repaired: 25,
            repairs_failed: 26,
            recovery_dropped: 27,
        }
    }

    #[test]
    fn the_counter_table_drives_fields_merge_and_export() {
        let x = every_counter_set();
        let export = |s: &StreamStats| -> Vec<(String, String)> {
            let text = s.to_string();
            let pairs = text.lines().filter_map(|l| l.split_once(' '));
            pairs.map(|(k, v)| (k.into(), v.into())).collect()
        };
        let lines = export(&x);
        // The derived `Debug` lists the fields in declaration order,
        // independently of the export code.
        let debug = format!("{x:#?}");
        let fields: Vec<&str> = debug
            .lines()
            .filter_map(|l| Some(l.strip_prefix("    ")?.split_once(": ")?.0))
            .collect();
        let keys: Vec<&str> = lines.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, fields, "one export line per field, in declaration order");
        assert_eq!(keys.iter().collect::<std::collections::BTreeSet<_>>().len(), keys.len());
        assert!(lines.iter().all(|(_, v)| v != "0" && v != "false"), "{x}");

        let mut doubled = x.clone();
        doubled.merge(&x);
        for ((key, before), (_, after)) in lines.iter().zip(export(&doubled)) {
            let want = before.parse::<u64>().map_or("true".into(), |n| (2 * n).to_string());
            assert_eq!(after, want, "{key}: counts sum, the flag ANDs");
        }
        let mut dirty = x.clone();
        dirty.merge(&StreamStats { clean_shutdown: false, ..x.clone() });
        assert!(!dirty.clean_shutdown, "one dirty side makes the merged view dirty");

        // The feedback slot's overflow count overlays the published
        // snapshot and shows up in its export.
        let fb = SharedStats::new();
        fb.publish(&x);
        for at_frame in 0..(RECOVERY_QUEUE_CAP as u32 + 2) {
            fb.push_recovery(RecoveryRequest::IntraRefresh { at_frame });
        }
        let overlay = format!("recovery_dropped {}", x.recovery_dropped + 2);
        assert!(fb.snapshot().to_string().lines().any(|l| l == overlay), "{}", fb.snapshot());
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
    }
}
