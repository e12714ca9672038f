//! One broadcast session: a shared encoder fanned out to N subscribers.

use crate::shed::shed_refinement;
use crate::stats::ServeStats;
use pcc_adapt::{Clock, Controller, FrameObservation, SystemClock};
use pcc_core::PccCodec;
use pcc_edge::Device;
use pcc_stream::{
    FrameHistory, FramePayload, FrameSource, RecoveryRequest, SharedRing, SharedStats, StampMemo,
    StreamConfig, StreamStats, Subscription,
};
use pcc_types::{Aabb, FrameKind, GofPattern, PointCloud};
use std::io::{self, Write};
use std::sync::Arc;
use std::time::Duration;

/// Opaque handle to one subscriber of a [`Broadcast`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriberId(u64);

/// The serving state of one subscriber slot.
///
/// A slot leaves `Live` but is **not** removed: its identity, ARQ ring,
/// and stream counters are retained so [`Broadcast::resubscribe`] can
/// resume the subscriber on a fresh transport with exact byte
/// accounting across lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotHealth {
    /// Being served on every push.
    Live,
    /// The transport errored at the recorded display index.
    Failed {
        /// Display index of the frame whose send failed.
        at_frame: u32,
    },
    /// The liveness policy evicted the slot at the recorded display
    /// index (too many missed send deadlines).
    Evicted {
        /// Display index of the frame whose send sealed the eviction.
        at_frame: u32,
    },
}

/// Missed-deadline eviction policy for [`Broadcast::with_liveness`].
///
/// Each live send is timed against the slot's injected clock; a send
/// slower than `send_deadline` is one miss, and `max_misses`
/// *consecutive* misses evict the slot (health
/// [`SlotHealth::Evicted`]). This replaces silently serving a stalled
/// consumer forever: a wedged transport that never errors still gets
/// detected and cut, and [`Broadcast::resubscribe`] lets it return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivenessPolicy {
    /// Longest acceptable per-frame send time.
    pub send_deadline: Duration,
    /// Consecutive misses tolerated before eviction (minimum 1).
    pub max_misses: u32,
}

/// Per-subscriber wiring handed to [`Broadcast::subscribe`].
///
/// Everything is optional: a bare default subscriber gets the full
/// shared stream with no ARQ, no degradation, and wall-clock send
/// timing.
#[derive(Default)]
pub struct SubscriberConfig {
    /// Retransmit ring shared with the subscriber's ARQ receiver.
    pub arq_ring: Option<SharedRing>,
    /// Per-subscriber degradation controller. Walks a `pcc-adapt`
    /// quality ladder on this subscriber's own send timing and
    /// feedback; only the transmit-side knobs of each rung apply
    /// (refinement-layer shedding and P-frame striding) — the shared
    /// encode never changes on a subscriber's behalf.
    pub controller: Option<Controller>,
    /// Receiver-published counters ([`pcc_stream::Receiver::with_feedback`])
    /// sampled per frame to drive the controller.
    pub feedback: Option<SharedStats>,
    /// Timebase for measuring this subscriber's send latency; a
    /// [`FakeClock`](pcc_adapt::FakeClock) shared with a throttled
    /// test transport makes degradation traces deterministic.
    pub clock: Option<Arc<dyn Clock>>,
}

impl std::fmt::Debug for SubscriberConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubscriberConfig")
            .field("arq", &self.arq_ring.is_some())
            .field("controller", &self.controller.is_some())
            .field("feedback", &self.feedback.is_some())
            .finish_non_exhaustive()
    }
}

struct Slot {
    id: SubscriberId,
    sub: Subscription<Box<dyn Write + Send>>,
    controller: Option<Controller>,
    feedback: Option<SharedStats>,
    clock: Arc<dyn Clock>,
    /// Frames this broadcast deliberately withheld from the subscriber
    /// (P-stride). Subtracted from receiver-reported loss so the
    /// controller does not read its own degradation as network loss.
    suppressed: usize,
    /// Retained across lives so a resubscribed receiver can still NACK
    /// chunks parked before the disconnect.
    arq_ring: Option<SharedRing>,
    /// Consecutive send-deadline misses under the liveness policy.
    misses: u32,
    health: SlotHealth,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot").field("id", &self.id).field("health", &self.health).finish_non_exhaustive()
    }
}

/// One live broadcast: a single [`FrameSource`] whose coded frames fan
/// out to any number of [`Subscription`]s.
///
/// Every [`push_frame`](Self::push_frame) enters the codec exactly
/// once, and each distinct chunk image is stamped once per seq group
/// (one [`StampMemo`] threads through the fan-out): a subscriber costs
/// a transport write and, with ARQ, one parked header. Per subscriber,
/// the broadcast optionally:
///
/// * replays the source's [`FrameHistory`] on subscribe, so a late
///   joiner is bit-exact from the current GOF's I-frame instead of
///   waiting a GOF;
/// * degrades the *transmission* under a `pcc-adapt`
///   [`Controller`] — stripping the refinement attribute layer from
///   I-frames ([`shed_refinement`]) and/or striding P-frames — while
///   the shared encode stays at full quality;
/// * contains transport failures: a dead subscriber is dropped and
///   counted, never propagated into the fan-out loop.
pub struct Broadcast<'d> {
    source: FrameSource<'d>,
    /// Whether the coded attribute payload is layered and entropy-free,
    /// i.e. [`shed_refinement`] can apply (fixed per session: these are
    /// decode-contract knobs no ladder may move).
    sheddable: bool,
    slots: Vec<Slot>,
    /// The chunk image stamped last, shared by every send of the same
    /// seq group (fan-out and replays alike).
    memo: StampMemo,
    stats: ServeStats,
    liveness: Option<LivenessPolicy>,
    next_id: u64,
}

impl std::fmt::Debug for Broadcast<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broadcast")
            .field("stream_id", &self.source.stream_id())
            .field("frame_index", &self.source.frame_index())
            .field("subscribers", &self.slots.len())
            .finish_non_exhaustive()
    }
}

impl<'d> Broadcast<'d> {
    /// Opens a broadcast session. No bytes move until a subscriber
    /// attaches; frames pushed before the first subscriber are still
    /// recorded in the source's history for late joiners.
    pub fn new(codec: &PccCodec, depth: u8, device: &'d Device, config: &StreamConfig) -> Self {
        let source = FrameSource::new(codec, depth, device, config);
        let intra = source.inter_config().intra;
        Broadcast {
            // Brick frames interleave per-brick attribute payloads behind
            // CRC-guarded index entries; stripping refinement would break
            // every offset and checksum, so they are never sheddable.
            sheddable: intra.two_layer && !intra.entropy && intra.brick_depth == 0,
            source,
            slots: Vec::new(),
            memo: StampMemo::new(),
            stats: ServeStats::default(),
            liveness: None,
            next_id: 0,
        }
    }

    /// Arms missed-deadline eviction: sends timed (per slot clock)
    /// against `policy.send_deadline`, with `policy.max_misses`
    /// consecutive misses evicting the subscriber.
    pub fn with_liveness(mut self, policy: LivenessPolicy) -> Self {
        self.liveness = Some(policy);
        self
    }

    /// Records every encoded frame in `history` so receivers holding a
    /// clone can NACK individual damaged bricks
    /// ([`pcc_stream::Receiver::with_repair`]) instead of waiting out a
    /// whole-frame refresh. Late joins replay from the same history.
    /// Call it before the first frame.
    pub fn with_repair(mut self, history: FrameHistory) -> Self {
        self.source = self.source.with_repair(history);
        self
    }

    /// Voxelizes every frame in a common bounding box (see
    /// [`pcc_core::FrameEncoder::with_bounding_box`]).
    pub fn with_bounding_box(mut self, bb: Aabb) -> Self {
        self.source = self.source.with_bounding_box(bb);
        self
    }

    /// The session's I/P cadence.
    pub fn gof_pattern(&self) -> GofPattern {
        self.source.gof_pattern()
    }

    /// Display index the next pushed frame will get.
    pub fn frame_index(&self) -> usize {
        self.source.frame_index()
    }

    /// Subscribers currently being served.
    pub fn subscriber_count(&self) -> usize {
        self.slots.iter().filter(|s| s.health == SlotHealth::Live).count()
    }

    /// Attaches a subscriber: writes its stream header and, when the
    /// session is already past its first frame, replays the history's
    /// resync run so the subscriber is bit-exact from the current GOF's
    /// I-frame. The header announces the join point, so the
    /// subscriber's [`Receiver`](pcc_stream::Receiver) books nothing
    /// before it as loss.
    ///
    /// # Errors
    ///
    /// Propagates transport errors from the header write or the replay
    /// (the subscriber is not registered on error).
    pub fn subscribe<W: Write + Send + 'static>(
        &mut self,
        transport: W,
        config: SubscriberConfig,
    ) -> io::Result<SubscriberId> {
        let frame_index = self.source.frame_index() as u32;
        let late = frame_index > 0;
        let replay = if late { self.source.history().resync() } else { Vec::new() };
        let join_at = replay.first().map_or(frame_index, |f| f.frame_index);
        let header = self.source.header_at(join_at);
        let boxed: Box<dyn Write + Send> = Box::new(transport);
        let mut sub = Subscription::attach(boxed, &header)?;
        let arq_ring = config.arq_ring;
        if let Some(ring) = arq_ring.clone() {
            sub = sub.with_arq(ring);
        }
        if late {
            let replay_sp = pcc_probe::span("serve/replay");
            for frame in &replay {
                sub.send_payload(frame, &mut self.memo)?;
                self.stats.replayed_frames += 1;
            }
            self.stats.aggregate.add_stage_ns("serve/replay", replay_sp.stop());
            self.stats.late_joins += 1;
            pcc_probe::add_count("serve/late_joins", 1);
        }
        let id = SubscriberId(self.next_id);
        self.next_id += 1;
        self.slots.push(Slot {
            id,
            sub,
            controller: config.controller,
            feedback: config.feedback,
            clock: config.clock.unwrap_or_else(|| Arc::new(SystemClock::default())),
            suppressed: 0,
            arq_ring,
            misses: 0,
            health: SlotHealth::Live,
        });
        self.stats.subscribers_joined += 1;
        Ok(id)
    }

    /// Resumes a dead (failed or evicted) subscriber on a fresh
    /// transport, keeping its identity, ARQ ring, and counters.
    ///
    /// The new transport gets a stream header at the history's join
    /// point and the current GOF replayed, exactly like a late join,
    /// then the slot's counters are carried over so `bytes_sent` /
    /// `frames_sent` keep counting across lives.
    /// Returns `Ok(false)` for unknown ids and for slots that are still
    /// live (resubscribing a healthy slot would fork its stream).
    ///
    /// # Errors
    ///
    /// Propagates transport errors from the header write or the replay;
    /// the slot then stays dead and can be retried.
    pub fn resubscribe<W: Write + Send + 'static>(
        &mut self,
        id: SubscriberId,
        transport: W,
    ) -> io::Result<bool> {
        let frame_index = self.source.frame_index() as u32;
        let replay = self.source.history().resync();
        let join_at = replay.first().map_or(frame_index, |f| f.frame_index);
        let header = self.source.header_at(join_at);
        let Some(at) = self
            .slots
            .iter()
            .position(|s| s.id == id && s.health != SlotHealth::Live)
        else {
            return Ok(false);
        };
        let boxed: Box<dyn Write + Send> = Box::new(transport);
        let mut sub = Subscription::attach(boxed, &header)?;
        if let Some(ring) = self.slots.get(at).and_then(|s| s.arq_ring.clone()) {
            sub = sub.with_arq(ring);
        }
        let replay_sp = pcc_probe::span("serve/replay");
        for frame in &replay {
            sub.send_payload(frame, &mut self.memo)?;
        }
        self.stats.aggregate.add_stage_ns("serve/replay", replay_sp.stop());
        let Some(slot) = self.slots.get_mut(at) else {
            return Ok(false);
        };
        // Checkpoint the dead life's counters, swap in the new
        // subscription, and carry the totals over; the dead transport's
        // parting flush error is exactly what killed the slot, so it is
        // deliberately ignored.
        let checkpoint = slot.sub.stats().clone();
        let old = std::mem::replace(&mut slot.sub, sub);
        let _ = old.into_parts();
        slot.sub.carry_over(&checkpoint);
        slot.health = SlotHealth::Live;
        slot.misses = 0;
        self.stats.replayed_frames += replay.len();
        self.stats.resubscribes += 1;
        pcc_probe::add_count("serve/resubscribes", 1);
        Ok(true)
    }

    /// Detaches a subscriber without an end chunk (its receiver sees a
    /// dirty shutdown, like a dropped connection), returning its final
    /// counters. `None` for unknown ids.
    pub fn unsubscribe(&mut self, id: SubscriberId) -> Option<StreamStats> {
        let at = self.slots.iter().position(|s| s.id == id)?;
        let slot = self.slots.remove(at);
        self.stats.subscribers_left += 1;
        let stats = match slot.sub.into_parts() {
            Ok((_, stats)) => stats,
            // The flush failed; the counters died with the transport.
            Err(_) => StreamStats::default(),
        };
        self.stats.aggregate.merge(&stats);
        Some(stats)
    }

    /// Encodes the next frame **once** and fans it out to every live
    /// subscriber, applying each subscriber's own degradation policy on
    /// the way. Transport failures drop the failing subscriber and
    /// never propagate; the session itself cannot error here.
    pub fn push_frame(&mut self, cloud: &PointCloud) -> FrameKind {
        self.drain_recovery_asks();
        let encode_sp = pcc_probe::span("serve/encode");
        let frame = self.source.encode_next(cloud);
        self.stats.aggregate.add_stage_ns("serve/encode", encode_sp.stop());
        self.fan_out(&frame);
        frame.kind
    }

    /// [`push_frame`](Self::push_frame) with an injected encode fault
    /// behind a supervision boundary (see
    /// [`FrameSource::encode_next_contained`]): a panic from `fault` or
    /// the codec is contained as one skipped frame — counted in the
    /// aggregate's `panics_contained`, fanned out to nobody, recorded
    /// in no history — and `None` is returned. Subscribers observe
    /// a frame-index gap exactly as if the frame was lost at the source.
    /// Deterministic simulation harnesses drive encode-panic schedules
    /// through this hook.
    pub fn push_frame_with_fault(
        &mut self,
        cloud: &PointCloud,
        fault: impl FnOnce(),
    ) -> Option<FrameKind> {
        self.drain_recovery_asks();
        let encode_sp = pcc_probe::span("serve/encode");
        let frame = self.source.encode_next_contained(cloud, fault);
        self.stats.aggregate.add_stage_ns("serve/encode", encode_sp.stop());
        let Some(frame) = frame else {
            self.stats.aggregate.panics_contained += 1;
            pcc_probe::add_count("serve/panics_contained", 1);
            return None;
        };
        self.fan_out(&frame);
        Some(frame.kind)
    }

    /// Drains receiver-driven recovery asks first so a refresh lands in
    /// *this* frame's encode. One shared encode serves every subscriber,
    /// so any single broken receiver re-anchors all of them (the intact
    /// ones just see an early I-frame).
    fn drain_recovery_asks(&mut self) {
        for slot in &mut self.slots {
            if slot.health != SlotHealth::Live {
                continue;
            }
            if let Some(fb) = &slot.feedback {
                for request in fb.take_recovery() {
                    if matches!(request, RecoveryRequest::IntraRefresh { .. }) {
                        self.source.request_refresh();
                    }
                }
            }
        }
    }

    /// Books one encoded frame and stamps it onto every live
    /// subscriber's wire under that subscriber's own degradation policy.
    fn fan_out(&mut self, frame: &FramePayload) {
        self.stats.frames_encoded += 1;
        if frame.over_budget {
            self.stats.aggregate.frames_over_budget += 1;
        }

        // The shed variant is shared too: computed at most once per
        // frame, however many subscribers are on a stripped rung, and
        // stamped once per seq group like the full payload.
        let mut shed: Option<Option<FramePayload>> = None;
        let sheddable = self.sheddable;
        let fanout_sp = pcc_probe::span("serve/fanout");
        for slot in &mut self.slots {
            if slot.health != SlotHealth::Live {
                continue;
            }
            let index = frame.frame_index as usize;
            let gof = self.source.gof_pattern();
            if let Some(ctl) = &mut slot.controller {
                if frame.kind == FrameKind::Intra && ctl.take_rung_change(index).is_some() {
                    slot.sub.stats_mut().rung_changes += 1;
                }
                if ctl.should_skip(index, &gof) {
                    slot.sub.stats_mut().frames_degraded += 1;
                    slot.suppressed += 1;
                    self.stats.sheds_p_stride += 1;
                    pcc_probe::add_count("serve/shed_p", 1);
                    continue;
                }
            }
            let strip = sheddable
                && frame.kind == FrameKind::Intra
                && slot
                    .controller
                    .as_ref()
                    .is_some_and(|c| !c.current().config.intra.two_layer);
            let outgoing = if strip {
                let variant = shed.get_or_insert_with(|| {
                    shed_refinement(&frame.payload)
                        .map(|bytes| FramePayload::from_bytes(frame.frame_index, frame.kind, bytes))
                });
                match variant {
                    Some(slim) => {
                        slot.sub.stats_mut().frames_degraded += 1;
                        self.stats.sheds_refinement += 1;
                        pcc_probe::add_count("serve/shed_refinement", 1);
                        &*slim
                    }
                    // The transform did not apply (e.g. an unexpectedly
                    // single-layer frame): fall back to full quality.
                    None => frame,
                }
            } else {
                frame
            };
            let sent_at = slot.clock.now();
            let result = slot.sub.send_payload(outgoing, &mut self.memo);
            let send_time = slot.clock.now().checked_sub(sent_at).unwrap_or_default();
            let send_ms = send_time.as_secs_f64() * 1000.0;
            match result {
                Ok(()) => {
                    if let Some(policy) = &self.liveness {
                        if send_time > policy.send_deadline {
                            slot.misses += 1;
                            if slot.misses >= policy.max_misses.max(1) {
                                slot.health = SlotHealth::Evicted { at_frame: frame.frame_index };
                                self.stats.subscribers_evicted += 1;
                                pcc_probe::add_count("serve/subscribers_evicted", 1);
                                continue;
                            }
                        } else {
                            slot.misses = 0;
                        }
                    }
                    if let Some(ctl) = &mut slot.controller {
                        let fb = slot.feedback.as_ref().map(SharedStats::snapshot);
                        ctl.observe(&FrameObservation {
                            frame_index: index,
                            // The subscriber's bottleneck is its wire,
                            // not the shared encoder: feed the measured
                            // send latency where a 1:1 supervisor feeds
                            // encode time.
                            encode_ms: send_ms,
                            queue_depth: 0,
                            queue_capacity: 0,
                            receiver_dropped: fb
                                .as_ref()
                                .map_or(0, |s| s.frames_dropped.saturating_sub(slot.suppressed)),
                            receiver_arq_degraded: fb.as_ref().map_or(0, |s| s.arq_degraded),
                            receiver_refresh_requests: fb
                                .as_ref()
                                .map_or(0, |s| s.refresh_requests),
                        });
                    }
                }
                Err(_) => {
                    slot.health = SlotHealth::Failed { at_frame: frame.frame_index };
                    self.stats.subscribers_failed += 1;
                    pcc_probe::add_count("serve/subscriber_failures", 1);
                }
            }
        }
        self.stats.aggregate.add_stage_ns("serve/fanout", fanout_sp.stop());
    }

    /// This subscriber's counters so far (`None` for unknown ids).
    pub fn subscriber_stats(&self, id: SubscriberId) -> Option<&StreamStats> {
        self.slots.iter().find(|s| s.id == id).map(|s| s.sub.stats())
    }

    /// This subscriber's rung trace, `(frame_index, rung)` per change
    /// (`None` for unknown ids or controller-less subscribers).
    pub fn controller_trace(&self, id: SubscriberId) -> Option<&[(usize, usize)]> {
        self.slots
            .iter()
            .find(|s| s.id == id)
            .and_then(|s| s.controller.as_ref())
            .map(|c| c.trace())
    }

    /// Whether this subscriber's transport is still being served.
    pub fn is_alive(&self, id: SubscriberId) -> bool {
        self.slots.iter().any(|s| s.id == id && s.health == SlotHealth::Live)
    }

    /// The serving state of this subscriber's slot — `Live`, or why and
    /// where it died (`None` for unknown or unsubscribed ids).
    pub fn subscriber_health(&self, id: SubscriberId) -> Option<SlotHealth> {
        self.slots.iter().find(|s| s.id == id).map(|s| s.health)
    }

    /// Session counters, with every live subscriber's stream counters
    /// merged into `aggregate` on top of those of subscribers that
    /// already left.
    pub fn serve_stats(&self) -> ServeStats {
        let mut stats = self.stats.clone();
        for slot in &self.slots {
            stats.aggregate.merge(slot.sub.stats());
        }
        stats
    }

    /// Seals every subscriber's stream with an end chunk carrying the
    /// true encoded total (degraded subscribers learn what they were
    /// not sent) and returns the final session counters.
    pub fn finish(mut self) -> ServeStats {
        let total = self.source.frames_encoded() as u32;
        for slot in self.slots.drain(..) {
            // Snapshot first: if the end-chunk write fails, the
            // counters up to that point still inform the aggregate.
            let snapshot = slot.sub.stats().clone();
            let was_alive = slot.health == SlotHealth::Live;
            match slot.sub.finish(total) {
                Ok((_, stats)) => self.stats.aggregate.merge(&stats),
                Err(_) => {
                    self.stats.aggregate.merge(&snapshot);
                    if was_alive {
                        self.stats.subscribers_failed += 1;
                    }
                }
            }
        }
        self.stats
    }
}
