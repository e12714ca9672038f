//! Broadcast-level accounting on top of per-subscriber [`StreamStats`].

use pcc_stream::StreamStats;

/// Counters for one broadcast session.
///
/// The encode-side facts (`frames_encoded`) are properties of the
/// shared source; the fan-out facts are sums over subscribers. The
/// `aggregate` field merges every subscriber's [`StreamStats`] — its
/// `frames_sent` is therefore the *fan-out* total (frames × reachable
/// subscribers), which is exactly the number the encode-once claim is
/// checked against: `frames_encoded` stays flat while `aggregate`
/// scales with the audience.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Frames the shared encoder coded — exactly one per pushed frame,
    /// no matter how many subscribers received it.
    pub frames_encoded: u64,
    /// Subscribers that ever attached to the session.
    pub subscribers_joined: usize,
    /// Subscribers detached cleanly via unsubscribe.
    pub subscribers_left: usize,
    /// Subscribers dropped after a transport error (the broadcast keeps
    /// serving everyone else).
    pub subscribers_failed: usize,
    /// Subscribers cut by the liveness policy after consecutive missed
    /// send deadlines.
    pub subscribers_evicted: usize,
    /// Dead slots resumed on a fresh transport
    /// ([`Broadcast::resubscribe`](crate::Broadcast::resubscribe)).
    pub resubscribes: usize,
    /// Subscribers that attached after the first frame and were
    /// resynced from the frame history.
    pub late_joins: usize,
    /// Frame payloads replayed to late joiners in total.
    pub replayed_frames: usize,
    /// I-frames sent with the refinement attribute layer stripped
    /// (counted per subscriber per frame).
    pub sheds_refinement: usize,
    /// P-frames withheld from strided subscribers (counted per
    /// subscriber per frame).
    pub sheds_p_stride: usize,
    /// Every subscriber's [`StreamStats`] merged (live subscribers
    /// included when sampled mid-session via
    /// [`Broadcast::serve_stats`](crate::Broadcast::serve_stats)).
    pub aggregate: StreamStats,
}

impl ServeStats {
    /// Subscribers currently being served: every join and resume, minus
    /// every way a slot stops being served.
    pub fn subscribers_active(&self) -> usize {
        (self.subscribers_joined + self.resubscribes).saturating_sub(
            self.subscribers_left + self.subscribers_failed + self.subscribers_evicted,
        )
    }

    /// Mean number of wires each encoded frame was stamped onto — the
    /// fan-out amplification the single encode bought.
    pub fn fanout_ratio(&self) -> f64 {
        if self.frames_encoded == 0 {
            0.0
        } else {
            self.aggregate.frames_sent as f64 / self.frames_encoded as f64
        }
    }
}

/// One row per concern — audience, resync, shed — then the merged
/// per-subscriber [`StreamStats`] block verbatim, so a whole session
/// reads as one report.
impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "encode    frames {:>6}  fanout {:>6.2}",
            self.frames_encoded,
            self.fanout_ratio()
        )?;
        writeln!(
            f,
            "audience  joined {:>4}  left {:>4}  failed {:>4}  evicted {:>4}  resubs {:>4}  active {:>4}",
            self.subscribers_joined,
            self.subscribers_left,
            self.subscribers_failed,
            self.subscribers_evicted,
            self.resubscribes,
            self.subscribers_active()
        )?;
        writeln!(
            f,
            "resync    late-joins {:>4}  replayed {:>5}",
            self.late_joins, self.replayed_frames
        )?;
        writeln!(
            f,
            "shed      refinement {:>5}  p-stride {:>5}",
            self.sheds_refinement, self.sheds_p_stride
        )?;
        write!(f, "{}", self.aggregate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_ratio_measures_amplification() {
        let mut stats = ServeStats::default();
        assert_eq!(stats.fanout_ratio(), 0.0);
        stats.frames_encoded = 10;
        stats.aggregate.frames_sent = 30;
        assert!((stats.fanout_ratio() - 3.0).abs() < 1e-12);
        stats.subscribers_joined = 5;
        stats.subscribers_failed = 1;
        stats.subscribers_left = 1;
        assert_eq!(stats.subscribers_active(), 3);
        stats.subscribers_evicted = 2;
        assert_eq!(stats.subscribers_active(), 1);
        stats.resubscribes = 3;
        assert_eq!(stats.subscribers_active(), 4, "resumes rejoin the audience");
    }

    #[test]
    fn display_reports_every_recovery_counter() {
        let mut stats = ServeStats::default();
        stats.frames_encoded = 12;
        stats.subscribers_joined = 3;
        stats.subscribers_failed = 1;
        stats.subscribers_evicted = 1;
        stats.resubscribes = 2;
        stats.late_joins = 1;
        stats.replayed_frames = 4;
        stats.aggregate.refresh_requests = 1;
        stats.aggregate.bricks_repaired = 5;
        let text = stats.to_string();
        for needle in
            ["audience", "failed    1", "evicted    1", "resubs    2", "active    3", "repair"]
        {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
