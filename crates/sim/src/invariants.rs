//! The properties a simulated topology must hold at every step.
//!
//! Each check is a pure function over observable state; the harness
//! calls them continuously (after every event application, frame push,
//! and delivery) and stops the run at the first [`Violation`]. A
//! violation is data — invariant name, step, human-readable detail —
//! so the shrinker can ask "does this schedule still violate the same
//! invariant?" and the corpus can record what a reproducer proves.

use pcc_stream::Delivered;
use pcc_types::{FrameKind, PointCloud};

/// Byte conservation: every byte the broadcast booked as sent must be
/// accounted by some link's ingress ledger (across all link lives,
/// mirror included).
pub const BYTE_CONSERVATION: &str = "byte-conservation";
/// Every fully-delivered frame is bit-exact against the perfect-link
/// mirror's copy (repaired frames included); damaged frames must be
/// flagged partial, never silently wrong. Frames decoded from an anchor
/// the slot was sent refinement-shed must keep the mirror's geometry.
pub const DELIVERY_INTEGRITY: &str = "delivery-integrity";
/// A pending intra-refresh ask from a live subscriber is answered by
/// the very next successfully-encoded frame being an I-frame.
pub const REFRESH_ANSWERED: &str = "refresh-answered";
/// A live subscriber on a quiet link may not go frameless indefinitely
/// while the mirror keeps delivering.
pub const STARVATION: &str = "starvation";
/// A receiver's `bytes_received` matches what its pipe actually
/// delivered, with nothing left unread after a full poll.
pub const RECEIVER_LEDGER: &str = "receiver-ledger";

/// One invariant failure: which property broke, when, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the violated invariant (one of the module constants).
    pub invariant: &'static str,
    /// Virtual step the violation was detected at.
    pub step: u32,
    /// Human-readable specifics (counters, frame indices).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at step {}: {}", self.invariant, self.step, self.detail)
    }
}

/// Checks sender-side byte conservation: the broadcast's aggregate
/// `bytes_sent` equals the sum of every link's ingress ledger.
pub fn check_byte_conservation(step: u32, bytes_sent: u64, link_ingress: u64) -> Option<Violation> {
    (bytes_sent != link_ingress).then(|| Violation {
        invariant: BYTE_CONSERVATION,
        step,
        detail: format!("broadcast booked {bytes_sent} bytes sent, links ingested {link_ingress}"),
    })
}

/// Checks a fully-delivered (non-partial) frame against the mirror's
/// copy of the same frame index: bit-exact, or — when the frame decodes
/// from a refinement-shed anchor (`shed`) — the same positions and
/// point count, since shedding coarsens only colors.
pub fn check_delivery_integrity(
    step: u32,
    who: &str,
    delivered: &Delivered,
    mirror: Option<&(FrameKind, PointCloud)>,
    shed: bool,
) -> Option<Violation> {
    let Some((kind, cloud)) = mirror else {
        return Some(Violation {
            invariant: DELIVERY_INTEGRITY,
            step,
            detail: format!(
                "{who} delivered frame {} the mirror never saw",
                delivered.frame_index
            ),
        });
    };
    if delivered.kind != *kind {
        return Some(Violation {
            invariant: DELIVERY_INTEGRITY,
            step,
            detail: format!(
                "{who} frame {} kind {:?} != mirror {:?}",
                delivered.frame_index, delivered.kind, kind
            ),
        });
    }
    let intact = if shed {
        delivered.cloud.len() == cloud.len() && delivered.cloud.positions() == cloud.positions()
    } else {
        delivered.cloud == *cloud
    };
    (!intact).then(|| Violation {
        invariant: DELIVERY_INTEGRITY,
        step,
        detail: format!("{who} frame {} cloud diverged from mirror", delivered.frame_index),
    })
}

/// Checks a receiver's egress ledger after a full poll: everything the
/// pipe delivered was read, and the receiver booked exactly that many
/// bytes.
pub fn check_receiver_ledger(
    step: u32,
    who: &str,
    bytes_received: u64,
    pipe_total_in: u64,
    backlog: usize,
) -> Option<Violation> {
    if backlog != 0 {
        return Some(Violation {
            invariant: RECEIVER_LEDGER,
            step,
            detail: format!("{who} left {backlog} bytes unread after a full poll"),
        });
    }
    (bytes_received != pipe_total_in).then(|| Violation {
        invariant: RECEIVER_LEDGER,
        step,
        detail: format!("{who} booked {bytes_received} bytes received, pipe delivered {pipe_total_in}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_conservation_fires_only_on_mismatch() {
        assert!(check_byte_conservation(3, 100, 100).is_none());
        let v = check_byte_conservation(3, 100, 96).expect("mismatch fires");
        assert_eq!(v.invariant, BYTE_CONSERVATION);
        assert_eq!(v.step, 3);
        assert!(v.detail.contains("100") && v.detail.contains("96"));
    }

    #[test]
    fn receiver_ledger_flags_backlog_and_miscounts() {
        assert!(check_receiver_ledger(1, "rx0", 50, 50, 0).is_none());
        assert_eq!(check_receiver_ledger(1, "rx0", 50, 50, 7).unwrap().invariant, RECEIVER_LEDGER);
        assert_eq!(check_receiver_ledger(1, "rx0", 49, 50, 0).unwrap().invariant, RECEIVER_LEDGER);
    }
}
