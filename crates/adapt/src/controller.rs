//! The hysteresis controller that walks the quality ladder.
//!
//! Every frame the supervisor feeds the controller one
//! [`FrameObservation`] — encode time against the frame deadline,
//! transmit-queue occupancy (backpressure), and the receiver's loss
//! counters as fed back through shared stats. The controller classifies
//! the frame:
//!
//! * **overloaded** — encode time blew the budget, the transmit queue is
//!   full, or the receiver reported new loss/degradation since the last
//!   frame;
//! * **comfortable** — encode time under `headroom × budget`, queue at
//!   most half full, no new receiver loss;
//! * otherwise neutral (both streaks reset, no movement).
//!
//! `degrade_after` consecutive overloaded frames step the *target* rung
//! down one; `upgrade_after` consecutive comfortable frames step it back
//! up. The asymmetry (degrade fast, climb slowly) is the hysteresis that
//! stops the controller oscillating across a rung boundary: a single
//! good frame right after a degradation must not bounce the session back
//! into the conditions that caused it.
//!
//! The target is *pending* until the supervisor asks for it at a GOF
//! boundary ([`Controller::take_rung_change`]): rung changes only land
//! on I-frames, so the encoder's reference state and the receiver's view
//! of it never diverge mid-group.

use crate::ladder::{QualityLadder, Rung};
use pcc_types::{FrameKind, GofPattern};

/// Tuning knobs for the [`Controller`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// The per-frame deadline in milliseconds (typically the frame
    /// period, 1000 / fps).
    pub frame_budget_ms: f64,
    /// Consecutive overloaded frames before the target rung steps down.
    pub degrade_after: u32,
    /// Consecutive comfortable frames before the target rung steps back
    /// up — deliberately larger than `degrade_after` (hysteresis).
    pub upgrade_after: u32,
    /// A frame only counts as comfortable below `headroom ×
    /// frame_budget_ms`, so the session climbs back only when there is
    /// real slack, not when it is skating on the deadline.
    pub headroom: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            frame_budget_ms: 1000.0 / 30.0,
            degrade_after: 2,
            upgrade_after: 6,
            headroom: 0.85,
        }
    }
}

/// One frame's worth of feedback signals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameObservation {
    /// Display index of the observed frame.
    pub frame_index: usize,
    /// Encode time charged against the deadline (wall-clock in
    /// production, a deterministic load model in tests).
    pub encode_ms: f64,
    /// Coded frames waiting in the transmit queue right after this one
    /// was enqueued.
    pub queue_depth: usize,
    /// Capacity of the transmit queue (0 when unknown — queue signals
    /// are then ignored).
    pub queue_capacity: usize,
    /// Receiver-side `frames_dropped` counter as last fed back (an
    /// absolute snapshot; the controller differences consecutive
    /// observations itself). 0 when no feedback channel exists.
    pub receiver_dropped: usize,
    /// Receiver-side `arq_degraded` counter snapshot (same convention).
    pub receiver_arq_degraded: usize,
    /// Receiver-side `refresh_requests` counter snapshot (same
    /// convention): each new intra-refresh ask means the receiver lost
    /// its reference, which is loss pressure like a drop.
    pub receiver_refresh_requests: usize,
}

impl FrameObservation {
    /// An observation carrying only the encode-time signal (no queue,
    /// no receiver feedback) — the common shape in unit tests.
    pub fn encode_only(frame_index: usize, encode_ms: f64) -> Self {
        FrameObservation {
            frame_index,
            encode_ms,
            queue_depth: 0,
            queue_capacity: 0,
            receiver_dropped: 0,
            receiver_arq_degraded: 0,
            receiver_refresh_requests: 0,
        }
    }
}

/// Closed-loop rung selector: feed it observations, ask it for rung
/// changes at GOF boundaries.
///
/// Decisions are a pure function of the observation sequence — the
/// controller never reads a clock — so a recorded session replays to an
/// identical rung trace.
#[derive(Debug, Clone)]
pub struct Controller {
    ladder: QualityLadder,
    config: ControllerConfig,
    /// Rung currently applied by the encoder.
    rung: usize,
    /// Rung the feedback wants; applied at the next GOF boundary.
    target: usize,
    overloaded_streak: u32,
    comfortable_streak: u32,
    last_receiver_dropped: usize,
    last_receiver_arq_degraded: usize,
    last_receiver_refresh: usize,
    rung_changes: usize,
    /// `(frame_index, rung)` at every applied change, for tests and
    /// post-mortems.
    trace: Vec<(usize, usize)>,
}

impl Controller {
    /// A controller starting at the top rung of `ladder`.
    pub fn new(ladder: QualityLadder, config: ControllerConfig) -> Self {
        assert!(config.frame_budget_ms > 0.0, "frame budget must be positive");
        assert!(config.headroom > 0.0 && config.headroom <= 1.0, "headroom must be in (0, 1]");
        Controller {
            ladder,
            config,
            rung: 0,
            target: 0,
            overloaded_streak: 0,
            comfortable_streak: 0,
            last_receiver_dropped: 0,
            last_receiver_arq_degraded: 0,
            last_receiver_refresh: 0,
            rung_changes: 0,
            trace: Vec::new(),
        }
    }

    /// The ladder being walked.
    pub fn ladder(&self) -> &QualityLadder {
        &self.ladder
    }

    /// The tuning knobs.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Index of the rung the encoder is currently applying.
    pub fn rung(&self) -> usize {
        self.rung
    }

    /// The rung the encoder is currently applying.
    pub fn current(&self) -> &Rung {
        self.ladder.rung(self.rung)
    }

    /// Rung index the feedback currently wants (lands at the next GOF
    /// boundary).
    pub fn target(&self) -> usize {
        self.target
    }

    /// Applied rung changes so far.
    pub fn rung_changes(&self) -> usize {
        self.rung_changes
    }

    /// `(frame_index, rung)` of every applied change, in order.
    pub fn trace(&self) -> &[(usize, usize)] {
        &self.trace
    }

    /// Feeds one frame's signals and updates the pending target rung.
    pub fn observe(&mut self, obs: &FrameObservation) {
        let rx_loss = obs.receiver_dropped.saturating_sub(self.last_receiver_dropped)
            + obs.receiver_arq_degraded.saturating_sub(self.last_receiver_arq_degraded)
            + obs.receiver_refresh_requests.saturating_sub(self.last_receiver_refresh);
        self.last_receiver_dropped = self.last_receiver_dropped.max(obs.receiver_dropped);
        self.last_receiver_arq_degraded =
            self.last_receiver_arq_degraded.max(obs.receiver_arq_degraded);
        self.last_receiver_refresh = self.last_receiver_refresh.max(obs.receiver_refresh_requests);

        let queue_full = obs.queue_capacity > 0 && obs.queue_depth >= obs.queue_capacity;
        let queue_calm = obs.queue_capacity == 0 || obs.queue_depth <= obs.queue_capacity / 2;
        let overloaded = obs.encode_ms > self.config.frame_budget_ms || queue_full || rx_loss > 0;
        let comfortable = obs.encode_ms <= self.config.frame_budget_ms * self.config.headroom
            && queue_calm
            && rx_loss == 0;

        if overloaded {
            self.comfortable_streak = 0;
            self.overloaded_streak += 1;
            if self.overloaded_streak >= self.config.degrade_after.max(1) {
                self.overloaded_streak = 0;
                if self.target + 1 < self.ladder.len() {
                    self.target += 1;
                }
            }
        } else if comfortable {
            self.overloaded_streak = 0;
            self.comfortable_streak += 1;
            if self.comfortable_streak >= self.config.upgrade_after.max(1) {
                self.comfortable_streak = 0;
                if self.target > 0 {
                    self.target -= 1;
                }
            }
        } else {
            // Neutral: no evidence either way; restart both streaks so a
            // borderline frame cannot complete a streak it did not earn.
            self.overloaded_streak = 0;
            self.comfortable_streak = 0;
        }
    }

    /// At a GOF boundary: applies the pending target, returning the new
    /// rung when it changed. The supervisor must only call this when the
    /// next frame to encode is an I-frame.
    pub fn take_rung_change(&mut self, frame_index: usize) -> Option<&Rung> {
        if self.target == self.rung {
            return None;
        }
        self.rung = self.target;
        self.rung_changes += 1;
        self.trace.push((frame_index, self.rung));
        Some(self.ladder.rung(self.rung))
    }

    /// Whether the current rung sheds frame `frame_index`.
    ///
    /// Only P-frames are ever shed (I-frames are the resync anchors the
    /// whole loss model leans on). With stride `s`, the first of every
    /// `s` P-positions in a group is kept.
    pub fn should_skip(&self, frame_index: usize, gof: &GofPattern) -> bool {
        let stride = self.current().p_keep_stride;
        if stride <= 1 || gof.kind_of(frame_index) == FrameKind::Intra {
            return false;
        }
        let pos_in_gof = frame_index % gof.period().max(1) as usize;
        // P positions are 1..period; keep position 1, 1+s, 1+2s, ...
        !(pos_in_gof - 1).is_multiple_of(stride as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_inter::InterConfig;

    fn controller(degrade_after: u32, upgrade_after: u32) -> Controller {
        Controller::new(
            QualityLadder::standard(InterConfig::v1()),
            ControllerConfig {
                frame_budget_ms: 30.0,
                degrade_after,
                upgrade_after,
                headroom: 0.85,
            },
        )
    }

    #[test]
    fn degradation_needs_a_streak_and_lands_on_gof_boundaries() {
        let mut ctl = controller(2, 4);
        ctl.observe(&FrameObservation::encode_only(0, 60.0));
        assert_eq!(ctl.target(), 0, "one bad frame is not a streak");
        ctl.observe(&FrameObservation::encode_only(1, 60.0));
        assert_eq!(ctl.target(), 1, "two consecutive bad frames request a step down");
        assert_eq!(ctl.rung(), 0, "the step is pending until a GOF boundary");
        let rung = ctl.take_rung_change(3).expect("pending change applies");
        assert_eq!(rung.name, "raised-threshold");
        assert_eq!(ctl.rung(), 1);
        assert_eq!(ctl.rung_changes(), 1);
        assert_eq!(ctl.trace(), &[(3, 1)]);
        assert!(ctl.take_rung_change(6).is_none(), "no pending change, no churn");
    }

    #[test]
    fn sustained_overload_walks_to_the_bottom_and_stays() {
        let mut ctl = controller(2, 4);
        for i in 0..20 {
            ctl.observe(&FrameObservation::encode_only(i, 100.0));
        }
        assert_eq!(ctl.target(), 3, "target clamps at the bottom rung");
        ctl.take_rung_change(21);
        assert_eq!(ctl.rung(), 3);
    }

    #[test]
    fn recovery_is_slower_than_degradation() {
        let mut ctl = controller(2, 4);
        for i in 0..4 {
            ctl.observe(&FrameObservation::encode_only(i, 100.0));
        }
        ctl.take_rung_change(6);
        assert_eq!(ctl.rung(), 2);
        // Three comfortable frames: not yet a climb.
        for i in 6..9 {
            ctl.observe(&FrameObservation::encode_only(i, 10.0));
        }
        assert_eq!(ctl.target(), 2);
        ctl.observe(&FrameObservation::encode_only(9, 10.0));
        assert_eq!(ctl.target(), 1, "four comfortable frames climb one rung");
        // A skating frame (inside budget but above headroom) resets the
        // streak instead of fueling a climb — the anti-oscillation rule.
        for i in 10..13 {
            ctl.observe(&FrameObservation::encode_only(i, 10.0));
        }
        ctl.observe(&FrameObservation::encode_only(13, 28.0)); // 28 > 0.85 * 30
        assert_eq!(ctl.target(), 1, "neutral frame resets the comfortable streak");
        for i in 14..18 {
            ctl.observe(&FrameObservation::encode_only(i, 10.0));
        }
        assert_eq!(ctl.target(), 0);
    }

    #[test]
    fn queue_and_receiver_signals_count_as_overload() {
        let mut ctl = controller(1, 4);
        // Full transmit queue: overload even with fast encodes.
        ctl.observe(&FrameObservation {
            queue_depth: 3,
            queue_capacity: 3,
            ..FrameObservation::encode_only(0, 5.0)
        });
        assert_eq!(ctl.target(), 1);
        // New receiver-side loss since the last observation: overload.
        ctl.observe(&FrameObservation {
            receiver_dropped: 2,
            ..FrameObservation::encode_only(1, 5.0)
        });
        assert_eq!(ctl.target(), 2);
        // The same absolute counter again is *not* new loss.
        ctl.observe(&FrameObservation {
            receiver_dropped: 2,
            ..FrameObservation::encode_only(2, 5.0)
        });
        assert_eq!(ctl.target(), 2);
        // A fresh intra-refresh ask is loss pressure too.
        ctl.observe(&FrameObservation {
            receiver_dropped: 2,
            receiver_refresh_requests: 1,
            ..FrameObservation::encode_only(3, 5.0)
        });
        assert_eq!(ctl.target(), 3);
    }

    #[test]
    fn deterministic_trace_replays_exactly() {
        let run = || {
            let mut ctl = controller(2, 3);
            for i in 0..30usize {
                if i % 3 == 0 {
                    ctl.take_rung_change(i);
                }
                let ms = if (4..14).contains(&i) { 90.0 } else { 8.0 };
                ctl.observe(&FrameObservation::encode_only(i, ms));
            }
            ctl.take_rung_change(30);
            (ctl.trace().to_vec(), ctl.rung_changes())
        };
        let (trace_a, changes_a) = run();
        let (trace_b, changes_b) = run();
        assert_eq!(trace_a, trace_b, "same observations, same trace");
        assert_eq!(changes_a, changes_b);
        assert!(trace_a.iter().any(|&(_, r)| r >= 2), "overload reaches at least rung 2");
        assert_eq!(trace_a.last().map(|&(_, r)| r), Some(0), "recovers to the top rung");
    }

    #[test]
    fn shedding_spares_intra_frames_and_strides_p_frames() {
        let mut ctl = controller(1, 1);
        let gof = GofPattern::ipp();
        // Drive to the bottom rung (stride 2).
        for i in 0..8 {
            ctl.observe(&FrameObservation::encode_only(i, 99.0));
        }
        ctl.take_rung_change(9);
        assert_eq!(ctl.current().p_keep_stride, 2);
        // IPP period 3: I at 0, P at 1 kept, P at 2 shed.
        assert!(!ctl.should_skip(9, &gof), "I-frames are never shed");
        assert!(!ctl.should_skip(10, &gof), "first P of the group is kept");
        assert!(ctl.should_skip(11, &gof), "second P of the group is shed");
        // Top rung sheds nothing.
        let top = controller(2, 4);
        assert!(!top.should_skip(11, &gof));
    }
}
