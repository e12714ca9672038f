//! The simulation harness: one whole topology on one virtual clock.
//!
//! [`run`] builds a [`Broadcast`] source, a perfect-link *mirror*
//! receiver (the bit-exactness reference), and `schedule.links`
//! heterogeneous fault-addressable receivers (recovery+repair, ARQ,
//! plain, and degrading roles, round-robin; a link with a `Join` event
//! subscribes only at that step), then drives `schedule.frames` virtual
//! steps. Each step applies the schedule's events, pushes one frame
//! through the shared encoder, advances the [`FakeClock`], pumps every
//! link's delivery queue, polls every unstalled receiver, and evaluates
//! the registered invariants ([`crate::invariants`]). The run stops at
//! the first [`Violation`].
//!
//! Everything — fault draws, jitter, delivery times, ARQ backoff,
//! liveness deadlines — derives from the schedule's seed and the shared
//! fake clock, so the same schedule always produces the same
//! [`SimReport`], byte for byte. That replay identity is itself an
//! invariant (checked by running twice and comparing reports) and is
//! what makes shrunk schedules committable as regression reproducers.

use std::sync::Arc;
use std::time::Duration;

use pcc_adapt::{Controller, ControllerConfig, FakeClock, QualityLadder};
use pcc_core::PccCodec;
use pcc_datasets::catalog;
use pcc_edge::{Device, PowerMode};
use pcc_inter::InterConfig;
use pcc_serve::{Broadcast, LivenessPolicy, ServeStats, SlotHealth, SubscriberConfig, SubscriberId};
use pcc_stream::{
    ArqConfig, Delivered, FrameHistory, Receiver, SharedRing, SharedStats, StreamConfig,
    StreamStats,
};
use pcc_types::{FrameKind, PointCloud};

use crate::invariants::{self, Violation};
use crate::link::{Sabotage, SimLink, SimPipe};
use crate::schedule::{FaultAction, FaultSchedule};

/// Knobs the schedule does not carry: workload scale and the test-only
/// sabotage hook. Two runs of the same schedule under the same config
/// must be identical.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Points per synthetic frame.
    pub points: usize,
    /// Virtual time between frame pushes.
    pub frame_interval: Duration,
    /// Deliberate ledger miscounting ([`Sabotage::None`] in real runs);
    /// applied to every fault-addressable link, never the mirror.
    pub sabotage: Sabotage,
    /// Octree depth of the I-frame brick cut. Bricks (the default 2)
    /// make damaged I-frames repairable; 0 makes I-frames sheddable, so
    /// degrading slots get their refinement layer stripped instead.
    pub brick_depth: u8,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            points: 500,
            frame_interval: Duration::from_millis(33),
            sabotage: Sabotage::None,
            brick_depth: 2,
        }
    }
}

/// Everything one simulated run produced: the step-by-step event
/// trace, the first invariant violation (if any), and every party's
/// final counters. Two runs of the same schedule must compare equal —
/// the replay-identity invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Deterministic line-per-event log of the whole run.
    pub trace: Vec<String>,
    /// The first invariant violation, or `None` for a green run.
    pub violation: Option<Violation>,
    /// The broadcast's final serve counters.
    pub serve: ServeStats,
    /// The perfect-link mirror receiver's counters.
    pub mirror: StreamStats,
    /// Final counters of each fault-addressable receiver's current
    /// life, in link order.
    pub receivers: Vec<StreamStats>,
    /// Counters of receiver lives retired by reconnects, in retirement
    /// order.
    pub retired: Vec<StreamStats>,
}

impl SimReport {
    /// True when no invariant fired.
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }

    /// A short human-readable summary.
    pub fn summary(&self) -> String {
        let delivered: usize =
            self.receivers.iter().map(|r| r.frames_delivered).sum::<usize>();
        match &self.violation {
            Some(v) => format!("VIOLATION {v} ({} trace lines)", self.trace.len()),
            None => format!(
                "ok: {} frames encoded, mirror delivered {}, receivers delivered {delivered}, {} trace lines",
                self.serve.frames_encoded, self.mirror.frames_delivered, self.trace.len()
            ),
        }
    }
}

/// What flavor of receiver rides a link (assigned round-robin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Recovery asks + brick repair from the shared frame history.
    Recovery,
    /// ARQ over a shared retransmit ring, plus recovery + repair.
    Arq,
    /// Streaming-only: no recovery, no repair — damage degrades.
    Plain,
    /// A plain receiver whose broadcast slot carries a standard-ladder
    /// degradation controller (refinement shedding, P-striding).
    Degrading,
}

fn role_of(r: u32) -> Role {
    match r % 4 {
        0 => Role::Recovery,
        1 => Role::Arq,
        2 => Role::Plain,
        _ => Role::Degrading,
    }
}

/// The degrading role's controller: any send slower than 1 ms
/// overloads, three in a row step one rung down, and the hysteresis
/// never climbs back within a run.
const DEGRADING: ControllerConfig =
    ControllerConfig { frame_budget_ms: 1.0, degrade_after: 3, upgrade_after: 100, headroom: 0.9 };

/// One fault-addressable receiver slot and all its moving parts.
struct Slot<'d> {
    /// `None` until a scheduled `Join` subscribes the slot.
    id: Option<SubscriberId>,
    role: Role,
    link: SimLink,
    pipe: SimPipe,
    rx: Receiver<'d, SimPipe>,
    fb: SharedStats,
    arq: Option<SharedRing>,
    /// Steps `< stall_until` skip polling (a wedged consumer).
    stall_until: u32,
    /// Consecutive quiet-link steps without a delivery while the
    /// mirror kept delivering.
    starve: u32,
    health_seen: Option<SlotHealth>,
    lives: u32,
    /// Controller rung changes already traced.
    rungs_seen: usize,
    /// The slot's `frames_degraded` after the previous push.
    degraded_seen: usize,
    /// I-frames this slot was sent refinement-shed.
    shed: Vec<usize>,
}

impl Slot<'_> {
    fn health(&self, session: &Broadcast<'_>) -> Option<SlotHealth> {
        self.id.and_then(|id| session.subscriber_health(id))
    }
}

/// Mutable observation state shared by the delivery handlers.
struct Observer {
    trace: Vec<String>,
    violation: Option<Violation>,
    mirror_clouds: Vec<Option<(FrameKind, PointCloud)>>,
}

impl Observer {
    fn note(&mut self, v: Option<Violation>) {
        if self.violation.is_none() {
            if let Some(v) = v {
                self.trace.push(format!("VIOLATION {v}"));
                self.violation = Some(v);
            }
        }
    }

    fn tripped(&self) -> bool {
        self.violation.is_some()
    }

    fn mirror_deliver(&mut self, step: u32, deliveries: &[Delivered]) {
        for d in deliveries {
            self.trace.push(format!("s{step} mirror deliver idx={} kind={:?}", d.frame_index, d.kind));
            if d.partial.is_some() {
                self.note(Some(Violation {
                    invariant: invariants::DELIVERY_INTEGRITY,
                    step,
                    detail: format!("mirror delivered frame {} partial", d.frame_index),
                }));
                continue;
            }
            if self.mirror_clouds.len() <= d.frame_index {
                self.mirror_clouds.resize(d.frame_index + 1, None);
            }
            if let Some(slot) = self.mirror_clouds.get_mut(d.frame_index) {
                *slot = Some((d.kind, d.cloud.clone()));
            }
        }
    }

    /// Whether frame `index` decodes from an anchor (the mirror's last
    /// I-frame at or before it) that `shed` says was refinement-shed.
    fn shed_anchor(&self, index: usize, shed: &[usize]) -> bool {
        let anchor = self
            .mirror_clouds
            .iter()
            .take(index + 1)
            .rposition(|f| matches!(f, Some((FrameKind::Intra, _))));
        anchor.is_some_and(|a| shed.contains(&a))
    }

    fn rx_deliver(&mut self, step: u32, who: u32, shed: &[usize], deliveries: &[Delivered]) {
        for d in deliveries {
            match d.partial {
                Some((dropped, total)) => self.trace.push(format!(
                    "s{step} rx{who} deliver idx={} kind={:?} partial={dropped}/{total}",
                    d.frame_index, d.kind
                )),
                None => {
                    self.trace.push(format!(
                        "s{step} rx{who} deliver idx={} kind={:?}",
                        d.frame_index, d.kind
                    ));
                    let mirror = self.mirror_clouds.get(d.frame_index).and_then(|o| o.as_ref());
                    let v = invariants::check_delivery_integrity(
                        step,
                        &format!("rx{who}"),
                        d,
                        mirror,
                        self.shed_anchor(d.frame_index, shed),
                    );
                    self.note(v);
                }
            }
        }
    }
}

fn poll(rx: &mut Receiver<'_, SimPipe>) -> Vec<Delivered> {
    let mut out = Vec::new();
    while let Some(d) = rx.recv_frame().expect("sim pipes cannot fail") {
        out.push(d);
    }
    out
}

fn build_receiver<'d>(
    pipe: SimPipe,
    device: &'d Device,
    role: Role,
    fb: &SharedStats,
    history: &FrameHistory,
    arq: Option<&SharedRing>,
    clock: &FakeClock,
) -> Receiver<'d, SimPipe> {
    let rx = Receiver::new(pipe, device).with_streaming().with_feedback(fb.clone());
    match role {
        Role::Plain | Role::Degrading => rx,
        Role::Recovery => rx.with_recovery().with_repair(history.clone()),
        Role::Arq => rx.with_recovery().with_repair(history.clone()).with_arq_clock(
            arq.cloned().expect("arq role carries a ring"),
            ArqConfig::default(),
            Arc::new(clock.clone()),
        ),
    }
}

/// Wiring for a slot's (re)subscription: feedback, ARQ ring, and the
/// degrading role's controller, all timed on the shared clock.
fn subscriber_config(
    role: Role,
    fb: &SharedStats,
    arq: Option<&SharedRing>,
    clock: &FakeClock,
    inter: InterConfig,
) -> SubscriberConfig {
    SubscriberConfig {
        arq_ring: arq.cloned(),
        controller: (role == Role::Degrading)
            .then(|| Controller::new(QualityLadder::standard(inter), DEGRADING)),
        feedback: Some(fb.clone()),
        clock: Some(Arc::new(clock.clone())),
    }
}

/// The write charge a stalled consumer's link levies per record —
/// comfortably past the liveness deadline so sustained stalls get the
/// slot evicted.
const STALL_CHARGE: Duration = Duration::from_millis(150);
const LIVENESS: LivenessPolicy =
    LivenessPolicy { send_deadline: Duration::from_millis(100), max_misses: 2 };

/// Runs `schedule` against a fresh topology under `config` and returns
/// the full report. Deterministic: same inputs, same report.
pub fn run(schedule: &FaultSchedule, config: &SimConfig) -> SimReport {
    let device = Device::jetson_agx_xavier(PowerMode::W15);
    let video = catalog::by_name("Loot")
        .expect("Loot is in the catalog")
        .generate_scaled(schedule.frames as usize, config.points);
    let mut inter = InterConfig::default();
    inter.intra.brick_depth = config.brick_depth;
    let codec = PccCodec::with_inter_config(inter);
    let clock = FakeClock::new();
    let history = FrameHistory::new(4);
    let bb = video.bounding_box().expect("synthetic clips have points");

    let mut session = Broadcast::new(&codec, 6, &device, &StreamConfig::default())
        .with_bounding_box(bb)
        .with_repair(history.clone())
        .with_liveness(LIVENESS);
    let period = session.gof_pattern().period().max(1);
    let starvation_limit = 2 * period + 2;

    // The mirror: a perfect, event-unaddressable link whose receiver
    // defines what every frame is supposed to decode to.
    let (mirror_link, mirror_pipe) =
        SimLink::new(schedule.seed ^ 0x0111_2203, clock.clone(), Sabotage::None);
    session
        .subscribe(
            mirror_link.transport(),
            SubscriberConfig { clock: Some(Arc::new(clock.clone())), ..Default::default() },
        )
        .expect("fresh link cannot fail");
    let mut mirror_rx = Receiver::new(mirror_pipe.clone(), &device).with_streaming();

    let mut slots: Vec<Slot<'_>> = Vec::new();
    for r in 0..schedule.links {
        let role = role_of(r);
        let (link, pipe) =
            SimLink::new(schedule.seed ^ (0xBEEF_0000 + u64::from(r)), clock.clone(), config.sabotage);
        let fb = SharedStats::new();
        let arq = (role == Role::Arq).then(|| SharedRing::new(64));
        let joins_later =
            schedule.events.iter().any(|e| e.link == r && e.action == FaultAction::Join);
        let id = (!joins_later).then(|| {
            session
                .subscribe(link.transport(), subscriber_config(role, &fb, arq.as_ref(), &clock, inter))
                .expect("fresh link cannot fail")
        });
        let rx = build_receiver(pipe.clone(), &device, role, &fb, &history, arq.as_ref(), &clock);
        slots.push(Slot {
            id,
            role,
            link,
            pipe,
            rx,
            fb,
            arq,
            stall_until: 0,
            starve: 0,
            health_seen: id.map(|_| SlotHealth::Live),
            lives: 1,
            rungs_seen: 0,
            degraded_seen: 0,
            shed: Vec::new(),
        });
    }

    let mut obs = Observer { trace: Vec::new(), violation: None, mirror_clouds: Vec::new() };
    let mut retired: Vec<StreamStats> = Vec::new();
    let mut graveyard_ingress: u64 = 0;
    let mut refresh_due = false;
    let mut panic_step = false;
    let mut pending_stall_ns: u64 = 0;

    'steps: for (step, frame) in (0u32..).zip(video.iter()) {
        // 1. Fire this step's events.
        for event in schedule.at(step) {
            let l = event.link;
            match event.action {
                FaultAction::EncodeStall { ns } => {
                    pending_stall_ns += ns;
                    obs.trace.push(format!("s{step} ev encode-stall {ns}ns"));
                    continue;
                }
                FaultAction::EncodePanic => {
                    panic_step = true;
                    obs.trace.push(format!("s{step} ev encode-panic"));
                    continue;
                }
                _ => {}
            }
            let Some(slot) = slots.get_mut(l as usize) else {
                obs.trace.push(format!("s{step} ev link{l} ignored (no such link)"));
                continue;
            };
            match event.action {
                FaultAction::Latency { ns, jitter_ns } => {
                    slot.link.set_latency(ns, jitter_ns);
                    obs.trace.push(format!("s{step} ev link{l} latency {ns}+{jitter_ns}ns"));
                }
                FaultAction::LossBurst { records } => {
                    slot.link.arm_loss(records);
                    obs.trace.push(format!("s{step} ev link{l} loss-burst {records}"));
                }
                FaultAction::CorruptBurst { records } => {
                    slot.link.arm_corrupt(records);
                    obs.trace.push(format!("s{step} ev link{l} corrupt-burst {records}"));
                }
                FaultAction::CorruptBrick { records } => {
                    slot.link.arm_corrupt_brick(records);
                    obs.trace.push(format!("s{step} ev link{l} corrupt-brick {records}"));
                }
                FaultAction::Throttle { ns_per_byte } => {
                    slot.link.set_throttle(ns_per_byte);
                    obs.trace.push(format!("s{step} ev link{l} throttle {ns_per_byte}ns/B"));
                }
                FaultAction::Join => {
                    if slot.id.is_some() {
                        obs.trace.push(format!("s{step} ev link{l} join (noop: attached)"));
                        continue;
                    }
                    let config = subscriber_config(slot.role, &slot.fb, slot.arq.as_ref(), &clock, inter);
                    match session.subscribe(slot.link.transport(), config) {
                        Ok(id) => {
                            slot.id = Some(id);
                            slot.health_seen = Some(SlotHealth::Live);
                            obs.trace.push(format!("s{step} ev link{l} join"));
                        }
                        Err(_) => obs.trace.push(format!("s{step} ev link{l} join failed")),
                    }
                }
                FaultAction::Partition { steps } => {
                    slot.link.partition_until(step + steps);
                    obs.trace.push(format!("s{step} ev link{l} partition {steps} steps"));
                }
                FaultAction::KillTransport => {
                    slot.link.kill();
                    obs.trace.push(format!("s{step} ev link{l} kill"));
                }
                FaultAction::Reconnect => {
                    let Some(id) = slot.id else {
                        obs.trace.push(format!("s{step} ev link{l} reconnect (noop: not joined)"));
                        continue;
                    };
                    if slot.health(&session) == Some(SlotHealth::Live) {
                        obs.trace.push(format!("s{step} ev link{l} reconnect (noop: live)"));
                        continue;
                    }
                    // Drain the old life's leftovers, retire it, and
                    // resume the slot on a fresh link + receiver.
                    let leftovers = poll(&mut slot.rx);
                    obs.rx_deliver(step, l, &slot.shed, &leftovers);
                    graveyard_ingress += slot.link.ingress_bytes();
                    slot.lives += 1;
                    let (link, pipe) = SimLink::new(
                        schedule.seed ^ (0xBEEF_0000 + u64::from(l)) ^ (u64::from(slot.lives) << 32),
                        clock.clone(),
                        config.sabotage,
                    );
                    let resumed = session
                        .resubscribe(id, link.transport())
                        .expect("fresh link cannot fail");
                    let rx = build_receiver(
                        pipe.clone(),
                        &device,
                        slot.role,
                        &slot.fb,
                        &history,
                        slot.arq.as_ref(),
                        &clock,
                    );
                    let old_rx = std::mem::replace(&mut slot.rx, rx);
                    retired.push(old_rx.into_stats());
                    slot.link = link;
                    slot.pipe = pipe;
                    slot.starve = 0;
                    obs.trace.push(format!("s{step} ev link{l} reconnect life={} resumed={resumed}", slot.lives));
                }
                FaultAction::ConsumerStall { steps } => {
                    slot.stall_until = slot.stall_until.max(step + steps);
                    slot.link.set_write_charge(STALL_CHARGE);
                    obs.trace.push(format!("s{step} ev link{l} consumer-stall {steps} steps"));
                }
                FaultAction::EncodeStall { .. } | FaultAction::EncodePanic => unreachable!(),
            }
        }

        // 2. Expire consumer stalls whose time has passed.
        for slot in &mut slots {
            if slot.stall_until <= step {
                slot.link.set_write_charge(Duration::ZERO);
            }
        }

        // 3. Observe owed refreshes *before* the push drains the asks.
        for slot in &slots {
            if slot.health(&session) == Some(SlotHealth::Live) && slot.fb.pending_refresh() > 0 {
                refresh_due = true;
            }
        }

        // 4. Encode and fan out (with any scheduled encoder faults).
        if pending_stall_ns > 0 {
            clock.advance(Duration::from_nanos(pending_stall_ns));
            pending_stall_ns = 0;
        }
        let kind = if panic_step {
            panic_step = false;
            session.push_frame_with_fault(&frame.cloud, || panic!("scheduled encode fault"))
        } else {
            session.push_frame_with_fault(&frame.cloud, || {})
        };
        match kind {
            None => obs.trace.push(format!("s{step} encode panic-contained")),
            Some(k) => {
                obs.trace.push(format!("s{step} encode idx={} kind={k:?}", step));
                if refresh_due && k == FrameKind::Predicted {
                    obs.note(Some(Violation {
                        invariant: invariants::REFRESH_ANSWERED,
                        step,
                        detail: "a live subscriber's pending intra-refresh ask was answered with a P-frame".into(),
                    }));
                }
                if k == FrameKind::Intra {
                    refresh_due = false;
                }
            }
        }

        // 5. Trace the liveness transitions and rung changes the push
        // produced, and note I-frames a slot was sent shed.
        for (r, slot) in (0u32..).zip(slots.iter_mut()) {
            let Some(id) = slot.id else { continue };
            let health = session.subscriber_health(id);
            if health != slot.health_seen {
                obs.trace.push(format!("s{step} rx{r} health {:?} -> {:?}", slot.health_seen, health));
                slot.health_seen = health;
            }
            let rungs = session.controller_trace(id).unwrap_or_default();
            for (idx, rung) in rungs.iter().skip(slot.rungs_seen) {
                obs.trace.push(format!("s{step} rx{r} rung {rung} from idx={idx}"));
            }
            slot.rungs_seen = rungs.len();
            let degraded = session.subscriber_stats(id).map_or(0, |s| s.frames_degraded);
            if kind == Some(FrameKind::Intra) && degraded > slot.degraded_seen {
                slot.shed.push(step as usize);
            }
            slot.degraded_seen = degraded;
        }

        // 6. Advance virtual time and release due records.
        clock.advance(config.frame_interval);
        mirror_link.pump(step);
        for slot in &slots {
            slot.link.pump(step);
        }

        // 7. Poll the mirror first (it defines the reference), then
        // every unstalled receiver, checking invariants on the way.
        let mirror_got = poll(&mut mirror_rx);
        let mirror_delivered = !mirror_got.is_empty();
        obs.mirror_deliver(step, &mirror_got);
        let mv = invariants::check_receiver_ledger(
            step,
            "mirror",
            mirror_rx.stats().bytes_received,
            mirror_pipe.total_in(),
            mirror_pipe.backlog(),
        );
        obs.note(mv);

        for (r, slot) in (0u32..).zip(slots.iter_mut()) {
            if slot.stall_until > step {
                slot.starve = 0;
                continue;
            }
            let got = poll(&mut slot.rx);
            obs.rx_deliver(step, r, &slot.shed, &got);
            let lv = invariants::check_receiver_ledger(
                step,
                &format!("rx{r}"),
                slot.rx.stats().bytes_received,
                slot.pipe.total_in(),
                slot.pipe.backlog(),
            );
            obs.note(lv);

            let live = slot.health(&session) == Some(SlotHealth::Live);
            if live && slot.link.is_quiet(step) && mirror_delivered {
                slot.starve = if got.is_empty() { slot.starve + 1 } else { 0 };
            } else {
                slot.starve = 0;
            }
            if slot.starve > starvation_limit {
                obs.note(Some(Violation {
                    invariant: invariants::STARVATION,
                    step,
                    detail: format!(
                        "rx{r} live on a quiet link got nothing for {} steps while the mirror kept delivering",
                        slot.starve
                    ),
                }));
            }
        }

        // 8. Byte conservation across the whole topology, every step.
        let serve_now = session.serve_stats();
        let ingress: u64 = mirror_link.ingress_bytes()
            + graveyard_ingress
            + slots.iter().map(|s| s.link.ingress_bytes()).sum::<u64>();
        let bv =
            invariants::check_byte_conservation(step, serve_now.aggregate.bytes_sent, ingress);
        obs.note(bv);

        if obs.tripped() {
            break 'steps;
        }
    }

    // Settle: clear stalls, let in-flight records land, drain everyone.
    let settle = schedule.frames + 8; // past any scheduled partition
    if !obs.tripped() {
        for slot in &slots {
            slot.link.set_write_charge(Duration::ZERO);
        }
        for _ in 0..3 {
            clock.advance(Duration::from_millis(150));
            mirror_link.pump(settle);
            let got = poll(&mut mirror_rx);
            obs.mirror_deliver(settle, &got);
            for (r, slot) in (0u32..).zip(slots.iter_mut()) {
                slot.link.pump(settle);
                let got = poll(&mut slot.rx);
                obs.rx_deliver(settle, r, &slot.shed, &got);
            }
        }
    }

    // Finish the broadcast (end-of-stream chunks), deliver them, and
    // run the final ledger checks.
    let serve = session.finish();
    let mut final_violation: Option<Violation> = None;
    if !obs.tripped() {
        clock.advance(Duration::from_millis(150));
        mirror_link.pump(settle);
        let got = poll(&mut mirror_rx);
        obs.mirror_deliver(settle, &got);
        for (r, slot) in (0u32..).zip(slots.iter_mut()) {
            slot.link.pump(settle);
            let got = poll(&mut slot.rx);
            obs.rx_deliver(settle, r, &slot.shed, &got);
        }

        let ingress: u64 = mirror_link.ingress_bytes()
            + graveyard_ingress
            + slots.iter().map(|s| s.link.ingress_bytes()).sum::<u64>();
        final_violation =
            invariants::check_byte_conservation(schedule.frames, serve.aggregate.bytes_sent, ingress)
                .or_else(|| {
                    invariants::check_receiver_ledger(
                        schedule.frames,
                        "mirror",
                        mirror_rx.stats().bytes_received,
                        mirror_pipe.total_in(),
                        mirror_pipe.backlog(),
                    )
                })
                .or_else(|| {
                    // The mirror must have seen every encoded frame.
                    (mirror_rx.stats().frames_delivered as u64 != serve.frames_encoded).then(
                        || Violation {
                            invariant: invariants::DELIVERY_INTEGRITY,
                            step: schedule.frames,
                            detail: format!(
                                "mirror delivered {} of {} encoded frames",
                                mirror_rx.stats().frames_delivered,
                                serve.frames_encoded
                            ),
                        },
                    )
                });
    }
    obs.note(final_violation);
    obs.trace.push(format!("finish frames_encoded={}", serve.frames_encoded));

    let mirror = mirror_rx.into_stats();
    let receivers: Vec<StreamStats> = slots.into_iter().map(|s| s.rx.into_stats()).collect();
    SimReport { trace: obs.trace, violation: obs.violation, serve, mirror, receivers, retired }
}
