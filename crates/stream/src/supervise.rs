//! The pipelined whole-video sender and its overload supervision.
//!
//! [`stream_video`] overlaps encode and transmit: an encode thread owns a
//! [`FrameSource`] and hands [`FramePayload`]s through a bounded queue to
//! a transmit loop that owns one [`Subscription`] — the same two
//! primitives the 1:1 [`Sender`](crate::Sender) composes, so with
//! [`Supervisor::default`] the wire and the [`StreamStats`] equal those
//! of a `Sender` given the video's shared bounding box and the same
//! frame budget.
//!
//! The pipeline keeps real time only as long as the encoder keeps up
//! with the frame rate; when it falls behind, the bounded queue fills
//! and the session silently turns into an offline encode with a growing
//! latency bubble. A [`Supervisor`] closes the loop:
//!
//! * it walks a [`QualityLadder`](pcc_adapt::QualityLadder) via a
//!   hysteresis [`Controller`] fed per-frame observations — encode time
//!   against the deadline, transmit-queue occupancy, and receiver loss
//!   counters fed back through [`SharedStats`] — applying rung changes
//!   only at GOF boundaries so the reference chain never breaks
//!   mid-group;
//! * it abandons over-deadline P-frames after the fact (the
//!   *watchdog*): an encode that blew `abandon_factor ×` the frame
//!   budget is dropped instead of queued, surfacing on the wire as an
//!   ordinary frame-index gap every receiver already survives;
//! * it contains encode-worker panics
//!   ([`FrameSource::encode_next_contained`]): a panic becomes one
//!   skipped frame plus a
//!   [`panics_contained`](crate::StreamStats::panics_contained) tick,
//!   and the session keeps running — an I-slot panic additionally
//!   invalidates the encoder reference so the following frames
//!   re-anchor as intra-coded pictures.
//!
//! Every decision is a pure function of the observation sequence: the
//! controller never reads a clock, and the supervisor reads time only
//! through an injected [`Clock`], so a session driven by a
//! [`FakeClock`](pcc_adapt::FakeClock) and a deterministic load model
//! replays to an identical rung trace and wire stream on any machine.

use crate::session::StreamConfig;
use crate::source::{FramePayload, FrameSource, StampMemo, Subscription};
use crate::stats::{SharedStats, StreamStats};
use pcc_adapt::{Clock, Controller, FrameObservation, SystemClock};
use pcc_core::PccCodec;
use pcc_edge::Device;
use pcc_types::{FrameKind, Video};
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// A deterministic stand-in for measured encode time: maps `(frame_index,
/// modeled_ms)` to the milliseconds charged against the deadline.
pub type LoadProfile = Box<dyn FnMut(usize, f64) -> f64 + Send>;

/// A fault hook run inside the supervision boundary just before each
/// frame encodes; panicking here exercises panic containment.
pub type EncodeFault = Box<dyn FnMut(usize) + Send>;

/// The supervision policy for one [`stream_video`] session.
///
/// [`default`](Supervisor::default) disables every control mechanism
/// except panic containment; [`new`](Supervisor::new) arms the overload
/// controller and the deadline watchdog. Builders inject the clock, the
/// receiver feedback channel, and the deterministic load / fault hooks
/// tests use.
pub struct Supervisor {
    controller: Option<Controller>,
    clock: Arc<dyn Clock>,
    load_profile: Option<LoadProfile>,
    encode_fault: Option<EncodeFault>,
    feedback: Option<SharedStats>,
    abandon_factor: f64,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("controller", &self.controller)
            .field("abandon_factor", &self.abandon_factor)
            .field("has_load_profile", &self.load_profile.is_some())
            .field("has_encode_fault", &self.encode_fault.is_some())
            .field("has_feedback", &self.feedback.is_some())
            .finish_non_exhaustive()
    }
}

/// No controller, hence no watchdog: only panic containment, which
/// changes nothing unless a worker actually panics.
impl Default for Supervisor {
    fn default() -> Self {
        Supervisor {
            controller: None,
            clock: Arc::new(SystemClock::default()),
            load_profile: None,
            encode_fault: None,
            feedback: None,
            abandon_factor: 2.0,
        }
    }
}

impl Supervisor {
    /// Arms overload control with `controller` and the deadline watchdog
    /// at its default threshold (2× the frame budget).
    pub fn new(controller: Controller) -> Self {
        Supervisor { controller: Some(controller), ..Default::default() }
    }

    /// Reads time through `clock` instead of the system clock.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Replaces measured encode wall time with a deterministic model:
    /// `profile(frame_index, modeled_ms)` is charged against the
    /// deadline instead of the wall clock. Tests use this to script an
    /// overload window that replays identically on any machine.
    pub fn with_load_profile(
        mut self,
        profile: impl FnMut(usize, f64) -> f64 + Send + 'static,
    ) -> Self {
        self.load_profile = Some(Box::new(profile));
        self
    }

    /// Runs `fault(frame_index)` inside the supervision boundary before
    /// each encode; a panic in the hook exercises containment end to end
    /// (`pcc-fault`'s `panic_on_frames` builds suitable hooks).
    pub fn with_encode_fault(mut self, fault: impl FnMut(usize) + Send + 'static) -> Self {
        self.encode_fault = Some(Box::new(fault));
        self
    }

    /// Samples receiver counters from `feedback` (published by
    /// [`Receiver::with_feedback`](crate::Receiver::with_feedback)) as
    /// the loss signal for the controller. Drops the supervisor itself
    /// caused — shed, watchdog-abandoned, or panic-skipped frames — are
    /// subtracted before the controller sees the counter, so degradation
    /// never reads as network loss and pins the session down-ladder.
    pub fn with_feedback(mut self, feedback: SharedStats) -> Self {
        self.feedback = Some(feedback);
        self
    }

    /// Sets the watchdog threshold: a P-frame whose (effective) encode
    /// time exceeds `factor ×` the frame budget is abandoned after the
    /// fact instead of queued. I-frames are never abandoned — they are
    /// the resync anchors the loss model leans on.
    pub fn with_abandon_factor(mut self, factor: f64) -> Self {
        assert!(factor > 1.0, "abandon factor must exceed 1");
        self.abandon_factor = factor;
        self
    }

    /// The controller, for post-session inspection of its rung trace.
    pub fn controller(&self) -> Option<&Controller> {
        self.controller.as_ref()
    }
}

/// Streams a whole video with the encode and transmit stages overlapped,
/// under `supervisor`.
///
/// The encode thread drives a [`FrameSource`] (whose codec hot path fans
/// out across `pcc-parallel` threads) and hands coded frames through a
/// bounded [`mpsc::sync_channel`] of `config.queue_depth` frames to the
/// transmit loop's [`Subscription`] — when the wire is slower than the
/// encoder, the channel fills and encoding blocks instead of buffering
/// the video. Every frame is voxelized in the video's shared bounding
/// box, and the transport is flushed at every I-frame.
///
/// The per-frame latency budget defaults to the video's frame period
/// (1000 / fps); frames whose modeled edge encode time exceeds it are
/// counted in [`StreamStats::frames_over_budget`], including frames the
/// watchdog then abandons.
///
/// Degradation artifacts are all wire-compatible: rung changes only vary
/// encode-side knobs (reuse threshold, single- vs two-layer intra) that
/// coded frames self-describe, and shed/abandoned frames surface as
/// frame-index gaps every receiver already treats as loss. A receiver
/// needs no notion of the supervisor's existence.
///
/// # Errors
///
/// Propagates transport errors (encoding stops early when the transport
/// dies).
// The encode → transmit pipeline is two long-lived stages joined by a
// bounded channel, not a data-parallel fan-out, so it spawns its encode
// stage itself rather than through `pcc_parallel::run`.
#[allow(clippy::disallowed_methods)]
pub fn stream_video<W: Write>(
    codec: &PccCodec,
    video: &Video,
    depth: u8,
    device: &Device,
    writer: W,
    config: &StreamConfig,
    supervisor: &mut Supervisor,
) -> io::Result<(W, StreamStats)> {
    let budget = config.frame_budget_ms.or_else(|| {
        let fps = f64::from(video.fps());
        (fps > 0.0).then_some(1000.0 / fps)
    });
    let source_config = StreamConfig { frame_budget_ms: budget, ..config.clone() };
    let mut source = FrameSource::new(codec, depth, device, &source_config);
    if let Some(bb) = video.bounding_box() {
        source = source.with_bounding_box(bb);
    }
    let mut sub = Subscription::attach(writer, &source.header())?;
    let capacity = config.queue_depth.max(1);
    let (tx, rx) = mpsc::sync_channel::<FramePayload>(capacity);
    // Frames sent but not yet taken by the transmit loop: the
    // controller's backpressure signal.
    let queued = AtomicUsize::new(0);
    let queued = &queued;

    let Supervisor { controller, clock, load_profile, encode_fault, feedback, abandon_factor } =
        supervisor;

    std::thread::scope(|s| {
        let encode = s.spawn(move || {
            // Encode-side counters, folded into the subscription's stats
            // once the session ends.
            let mut booked = StreamStats::default();
            let gof = source.gof_pattern();
            // Frames this supervisor withheld from the wire (shed,
            // abandoned, or panic-skipped): the receiver counts them as
            // dropped, but they are not network loss.
            let mut suppressed = 0usize;
            for frame in video.iter() {
                let idx = source.frame_index();
                if let Some(ctl) = controller.as_mut() {
                    if gof.is_gof_start(idx) {
                        if let Some(rung) = ctl.take_rung_change(idx) {
                            source.set_inter_config(rung.config);
                        }
                    }
                    if ctl.should_skip(idx, &gof) {
                        source.skip_frame();
                        booked.frames_degraded += 1;
                        suppressed += 1;
                        continue;
                    }
                }

                let t0 = clock.now();
                let encoded = source.encode_next_contained(&frame.cloud, || {
                    if let Some(fault) = encode_fault.as_mut() {
                        fault(idx);
                    }
                });
                let wall_ms = clock.now().saturating_sub(t0).as_secs_f64() * 1000.0;
                let Some(encoded) = encoded else {
                    // The source skipped the slot (an I-slot skip also
                    // invalidates the reference, forcing the group to
                    // re-anchor intra); keep the session up.
                    booked.panics_contained += 1;
                    suppressed += 1;
                    continue;
                };
                if encoded.over_budget {
                    booked.frames_over_budget += 1;
                }
                if let Some(ctl) = controller.as_mut() {
                    let effective_ms = match load_profile.as_mut() {
                        Some(profile) => profile(idx, encoded.modeled_ms),
                        None => wall_ms,
                    };
                    let fb = feedback.as_ref().map(|f| f.snapshot()).unwrap_or_default();
                    ctl.observe(&FrameObservation {
                        frame_index: idx,
                        encode_ms: effective_ms,
                        queue_depth: queued.load(Ordering::Relaxed),
                        queue_capacity: capacity,
                        receiver_dropped: fb.frames_dropped.saturating_sub(suppressed),
                        receiver_arq_degraded: fb.arq_degraded,
                        receiver_refresh_requests: fb.refresh_requests,
                    });
                    if encoded.kind == FrameKind::Predicted
                        && budget.is_some_and(|b| effective_ms > *abandon_factor * b)
                    {
                        // Watchdog: the frame is already encoded (state
                        // consistent, index advanced) but arrived too
                        // late to be worth transmitting. The source's
                        // history still holds it; nothing replays a
                        // whole-video session's history, so that is
                        // harmless.
                        booked.watchdog_skips += 1;
                        booked.frames_degraded += 1;
                        suppressed += 1;
                        continue;
                    }
                    if ctl.rung() > 0 {
                        booked.frames_degraded += 1;
                    }
                }
                queued.fetch_add(1, Ordering::Relaxed);
                if tx.send(encoded).is_err() {
                    // The transmit side died; encoding on would be wasted work.
                    break;
                }
            }
            booked.rung_changes = controller.as_ref().map_or(0, |c| c.rung_changes());
            booked
        });

        let mut memo = StampMemo::new();
        let mut sent = Ok(());
        while let Ok(frame) = rx.recv() {
            queued.fetch_sub(1, Ordering::Relaxed);
            sent = sub.send_payload(&frame, &mut memo);
            if sent.is_err() {
                break;
            }
        }
        // On a transport error the receiver half of the channel is dropped
        // here, which makes the encoder's next send fail and stop early.
        drop(rx);
        let booked = encode.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        sent?;
        sub.stats_mut().merge(&booked);
        sub.finish(video.len() as u32)
    })
}
