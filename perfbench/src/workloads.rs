//! The three workloads, each a closed loop over the public pipeline API:
//! the next cloud is handed over only after every viewer has dealt with
//! the previous one, like one capture rig feeding its encoder.

use crate::alloc;
use crate::pipe::{derive_seed, CorruptionBursts, Pipe, Tee};
use crate::reference::{check_delivery, check_wire, Anchors, Inputs, Reference, Verdict};
use pcc_adapt::FakeClock;
use pcc_core::{Design, PccCodec};
use pcc_datasets::{BodyCoverage, Wardrobe};
use pcc_edge::Device;
use pcc_fault::{FaultConfig, FaultyTransport};
use pcc_inter::InterConfig;
use pcc_intra::IntraConfig;
use pcc_serve::{Broadcast, SubscriberConfig, SubscriberId};
use pcc_stream::{
    ArqConfig, Delivered, Receiver, Sender, SharedRepairRing, SharedRing, SharedStats,
    StreamConfig, StreamStats,
};
use pcc_types::{FrameKind, PointCloud};
use std::collections::VecDeque;
use std::io::{self, Read};
use std::sync::Arc;
use std::time::Duration;

/// Span around one closed-loop step; its self time is the unattributed
/// time of the frame.
pub const FRAME_SPAN: &str = "g2g/frame";
/// Spans the benchmark opens around calls into the program's public API.
pub const SEND_SPAN: &str = "g2g/send_frame";
pub const PUSH_SPAN: &str = "g2g/push_frame";
pub const RECV_SPAN: &str = "g2g/recv_frame";
pub const JOIN_SPAN: &str = "g2g/subscribe";
pub const CALL_SPANS: [&str; 4] = [SEND_SPAN, PUSH_SPAN, RECV_SPAN, JOIN_SPAN];

/// The workloads by name.
pub const NAMES: [&str; 3] = ["telepresence", "broadcast", "lossy-recovery"];

/// Virtual time between frames on the lossy workload's fake clock.
const FRAME_INTERVAL: Duration = Duration::from_millis(33);

/// Static description of one workload.
pub struct Spec {
    pub name: &'static str,
    points: usize,
    /// Distinct clouds handed over in a cycle (whole GOFs).
    cycle: usize,
    body: (&'static str, BodyCoverage, fn() -> Wardrobe),
    pub anchors: Anchors,
}

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        let spec = match name {
            "telepresence" => Spec {
                name: "telepresence",
                points: 100_000,
                cycle: 12,
                body: ("Longdress", BodyCoverage::FullBody, Wardrobe::long_dress),
                anchors: Anchors::Scheduled,
            },
            "broadcast" => Spec {
                name: "broadcast",
                points: 20_000,
                cycle: 12,
                body: ("Andrew10", BodyCoverage::UpperBody, || Wardrobe::casual(10)),
                anchors: Anchors::Scheduled,
            },
            "lossy-recovery" => Spec {
                name: "lossy-recovery",
                points: 20_000,
                cycle: 12,
                body: ("Loot", BodyCoverage::FullBody, Wardrobe::loot),
                anchors: Anchors::Any,
            },
            _ => return None,
        };
        Some(spec)
    }

    pub fn inputs(&self, seed: u64) -> Inputs {
        let (name, coverage, wardrobe) = self.body;
        Inputs::generate(
            name,
            coverage,
            wardrobe(),
            self.points,
            self.cycle,
            derive_seed(seed, 1),
        )
    }

    pub fn codec(&self) -> PccCodec {
        match self.name {
            "lossy-recovery" => PccCodec::with_inter_config(InterConfig {
                intra: IntraConfig::paper().with_bricks(3),
                ..InterConfig::v1()
            }),
            _ => PccCodec::new(Design::IntraInterV1),
        }
    }

    /// Timed frames a run needs at least, beyond the time budget: 240
    /// leave twelve samples above p95, and the broadcast run must reach
    /// its last late join.
    pub fn min_frames(&self) -> usize {
        match self.name {
            "broadcast" => 240.max(LATE_JOIN_START + LATE_JOIN_STRIDE * LATE_JOINERS + 2),
            _ => 240,
        }
    }

    /// Builds the session: codec, sender or broadcast, every on-time
    /// subscriber and receiver.
    pub fn build<'d>(&self, ctx: &Ctx<'d>) -> io::Result<Box<dyn Session + 'd>> {
        Ok(match self.name {
            "telepresence" => Box::new(Telepresence::build(ctx)?),
            "broadcast" => Box::new(Fanout::build(ctx)?),
            _ => Box::new(Lossy::build(ctx)?),
        })
    }
}

/// What every session is built from.
pub struct Ctx<'d> {
    pub codec: &'d PccCodec,
    pub device: &'d Device,
    pub inputs: &'d Inputs,
    pub seed: u64,
}

/// Per-step output of a session, consumed outside the timed region.
#[derive(Default)]
pub struct StepLog {
    /// Frames delivered by decoding viewers: (viewer, frame).
    pub deliveries: Vec<(usize, Delivered)>,
    /// How the sender coded each frame, by frame index.
    pub kinds: Vec<FrameKind>,
    /// Allocations inside `Sender::send_frame` / `Broadcast::push_frame`.
    pub call_allocs: u64,
    /// Verification failures found by the session's own checks.
    pub errors: Vec<String>,
}

/// Counters a session reports once it is finished.
pub struct Finished {
    /// Decoding viewers' counters, merged.
    pub rx: StreamStats,
    /// Out-of-schedule I-frames the sender emitted.
    pub refresh_frames: usize,
}

pub trait Session {
    /// Hands over the cloud of frame `index` and waits until every wire
    /// holds it and every decoding viewer has delivered it or given up.
    fn step(&mut self, index: usize, cloud: &PointCloud, log: &mut StepLog) -> io::Result<()>;
    /// Checks outside the timed region (sampled wires, late joiners).
    fn verify(&mut self, _reference: &Reference, _log: &mut StepLog) {}
    /// Bytes on the reference viewer's wire so far.
    fn wire_bytes(&self) -> u64;
    /// Viewers that decode every frame.
    fn viewers(&self) -> usize;
    /// Live heap freed per subscriber when the plain subscribers leave
    /// (broadcast only; called once, after the timed frames).
    fn resident_per_sub(&mut self) -> Option<f64> {
        None
    }
    /// Seals every stream, drains the viewers and runs the last checks.
    fn finish(self: Box<Self>, reference: &Reference, log: &mut StepLog) -> io::Result<Finished>;
}

/// Pulls everything a streaming receiver can deliver now, one span per
/// `recv_frame` call.
fn drain<R: Read>(viewer: usize, rx: &mut Receiver<'_, R>, log: &mut StepLog) -> io::Result<()> {
    loop {
        let sp = pcc_probe::span(RECV_SPAN);
        let got = rx.recv_frame()?;
        drop(sp);
        match got {
            Some(d) => log.deliveries.push((viewer, d)),
            None => return Ok(()),
        }
    }
}

// --- telepresence: one source, one viewer, clean pipe ---------------------

struct Telepresence<'d> {
    tx: Sender<'d, Pipe>,
    rx: Receiver<'d, Pipe>,
}

impl<'d> Telepresence<'d> {
    fn build(ctx: &Ctx<'d>) -> io::Result<Self> {
        let pipe = Pipe::default();
        let tx = Sender::new(
            ctx.codec,
            ctx.inputs.depth,
            ctx.device,
            pipe.clone(),
            &StreamConfig::default(),
        )?
        .with_bounding_box(ctx.inputs.bounding_box);
        let rx = Receiver::new(pipe, ctx.device).with_streaming();
        Ok(Telepresence { tx, rx })
    }
}

impl Session for Telepresence<'_> {
    fn step(&mut self, _index: usize, cloud: &PointCloud, log: &mut StepLog) -> io::Result<()> {
        let sp = pcc_probe::span(SEND_SPAN);
        let a0 = alloc::allocs();
        let kind = self.tx.send_frame(cloud)?;
        log.call_allocs += alloc::allocs() - a0;
        drop(sp);
        log.kinds.push(kind);
        drain(0, &mut self.rx, log)
    }

    fn wire_bytes(&self) -> u64 {
        self.tx.stats().bytes_sent
    }

    fn viewers(&self) -> usize {
        1
    }

    fn finish(self: Box<Self>, _reference: &Reference, log: &mut StepLog) -> io::Result<Finished> {
        let Telepresence { tx, mut rx } = *self;
        tx.finish()?;
        drain(0, &mut rx, log)?;
        if !rx.is_done() {
            log.errors
                .push("telepresence: the viewer never saw the end of the stream".into());
        }
        Ok(Finished {
            rx: rx.into_stats(),
            refresh_frames: 0,
        })
    }
}

// --- broadcast: one session, 2048 subscribers ------------------------------

const SUBSCRIBERS: usize = 2048;
/// Every eighth subscriber joins late, one every `LATE_JOIN_STRIDE`
/// timed frames from timed frame `LATE_JOIN_START` on. The stride is not
/// a multiple of the GOF period, so joins land on every GOF position.
const LATE_JOINERS: usize = SUBSCRIBERS / 8;
const LATE_JOIN_START: usize = 2;
const LATE_JOIN_STRIDE: usize = 1;
/// ARQ ring depth of the quarter of subscribers that carry one.
const BROADCAST_RING: usize = 16;

fn is_late(i: usize) -> bool {
    i % 8 == 7
}

fn has_arq(i: usize) -> bool {
    i % 4 == 3
}

/// Subscriber 0 decodes; 1 (plain) and 3 (ARQ) are on-time wires compared
/// byte for byte with it; `LATE_SAMPLE` is a late joiner decoded outside
/// the timed region. Everyone else writes to a sink that discards bytes.
const LATE_SAMPLE: usize = 263;

struct LateSample<'d> {
    rx: Receiver<'d, Pipe>,
    next: Option<usize>,
}

/// The broadcast wires checked outside the timed region.
struct Samples<'d> {
    /// Copy of the decoding viewer's wire.
    ref_tap: Pipe,
    /// On-time wires that must equal it byte for byte.
    wires: Vec<Pipe>,
    late: Option<LateSample<'d>>,
}

impl Samples<'_> {
    fn check(&mut self, reference: &Reference, log: &mut StepLog) {
        let wire = self.ref_tap.take_all();
        for sample in &self.wires {
            if let Err(e) = check_wire(&wire, &sample.take_all()) {
                log.errors.push(format!("broadcast: {e}"));
            }
        }
        let Some(late) = &mut self.late else { return };
        let mut got = StepLog::default();
        if let Err(e) = drain(0, &mut late.rx, &mut got) {
            log.errors.push(format!("broadcast: late joiner: {e}"));
        }
        for (_, d) in &got.deliveries {
            // A late joiner starts at the replayed I-frame and then
            // misses nothing.
            let expected = late.next.unwrap_or(d.frame_index);
            if d.frame_index != expected || (late.next.is_none() && d.kind != FrameKind::Intra) {
                log.errors.push(format!(
                    "broadcast: late joiner got frame {} expecting {expected}",
                    d.frame_index
                ));
            }
            match check_delivery(reference, &log.kinds, d) {
                Ok(Verdict::Whole { .. }) => {}
                Ok(Verdict::Partial) => log
                    .errors
                    .push("broadcast: late joiner got a partial frame".into()),
                Err(e) => log.errors.push(format!("broadcast: late joiner: {e}")),
            }
            late.next = Some(d.frame_index + 1);
        }
    }
}

struct Fanout<'d> {
    bc: Broadcast<'d>,
    rx: Receiver<'d, Pipe>,
    ref_id: SubscriberId,
    samples: Samples<'d>,
    /// Late joiners still to come: (frame index, subscriber number).
    joins: VecDeque<(usize, usize)>,
    device: &'d Device,
    /// Subscribers that neither decode nor are sampled.
    plain: Vec<SubscriberId>,
}

impl<'d> Fanout<'d> {
    fn build(ctx: &Ctx<'d>) -> io::Result<Self> {
        let mut bc = Broadcast::new(
            ctx.codec,
            ctx.inputs.depth,
            ctx.device,
            &StreamConfig::default(),
        )
        .with_bounding_box(ctx.inputs.bounding_box);
        let period = bc.gof_pattern().period() as usize;
        let ref_pipe = Pipe::default();
        let ref_tap = Pipe::default();
        let mut wires = Vec::new();
        let mut plain = Vec::new();
        let mut ref_id = None;
        let mut joins = VecDeque::new();
        for i in 0..SUBSCRIBERS {
            if is_late(i) {
                joins.push_back((period + LATE_JOIN_START + LATE_JOIN_STRIDE * (i / 8), i));
                continue;
            }
            let config = subscriber_config(i);
            match i {
                0 => {
                    ref_id = Some(bc.subscribe(
                        Tee {
                            wire: ref_pipe.clone(),
                            tap: ref_tap.clone(),
                        },
                        config,
                    )?)
                }
                1 | 3 => {
                    let pipe = Pipe::default();
                    bc.subscribe(pipe.clone(), config)?;
                    wires.push(pipe);
                }
                _ => plain.push(bc.subscribe(io::sink(), config)?),
            }
        }
        Ok(Fanout {
            bc,
            rx: Receiver::new(ref_pipe, ctx.device).with_streaming(),
            ref_id: ref_id.expect("subscriber 0 is on time"),
            samples: Samples {
                ref_tap,
                wires,
                late: None,
            },
            joins,
            device: ctx.device,
            plain,
        })
    }
}

fn subscriber_config(i: usize) -> SubscriberConfig {
    SubscriberConfig {
        arq_ring: has_arq(i).then(|| SharedRing::new(BROADCAST_RING)),
        ..Default::default()
    }
}

impl Session for Fanout<'_> {
    fn step(&mut self, index: usize, cloud: &PointCloud, log: &mut StepLog) -> io::Result<()> {
        while self.joins.front().is_some_and(|&(at, _)| at == index) {
            let Some((_, i)) = self.joins.pop_front() else {
                break;
            };
            let sp = pcc_probe::span(JOIN_SPAN);
            if i == LATE_SAMPLE {
                let pipe = Pipe::default();
                self.bc.subscribe(pipe.clone(), subscriber_config(i))?;
                self.samples.late = Some(LateSample {
                    rx: Receiver::new(pipe, self.device).with_streaming(),
                    next: None,
                });
            } else {
                let id = self.bc.subscribe(io::sink(), subscriber_config(i))?;
                self.plain.push(id);
            }
            drop(sp);
        }
        let sp = pcc_probe::span(PUSH_SPAN);
        let a0 = alloc::allocs();
        let kind = self.bc.push_frame(cloud);
        log.call_allocs += alloc::allocs() - a0;
        drop(sp);
        log.kinds.push(kind);
        drain(0, &mut self.rx, log)
    }

    fn verify(&mut self, reference: &Reference, log: &mut StepLog) {
        self.samples.check(reference, log);
    }

    fn wire_bytes(&self) -> u64 {
        self.bc
            .subscriber_stats(self.ref_id)
            .map_or(0, |s| s.bytes_sent)
    }

    fn viewers(&self) -> usize {
        1
    }

    fn resident_per_sub(&mut self) -> Option<f64> {
        let before = alloc::live();
        let leaving = std::mem::take(&mut self.plain);
        let n = leaving.len();
        for id in leaving {
            self.bc.unsubscribe(id);
        }
        let freed = before.saturating_sub(alloc::live());
        (n > 0).then(|| freed as f64 / n as f64)
    }

    fn finish(self: Box<Self>, reference: &Reference, log: &mut StepLog) -> io::Result<Finished> {
        let Fanout {
            bc,
            mut rx,
            mut samples,
            joins,
            ..
        } = *self;
        if !joins.is_empty() {
            log.errors.push(format!(
                "broadcast: {} late joiners never joined",
                joins.len()
            ));
        }
        let stats = bc.finish();
        if stats.subscribers_failed > 0 {
            log.errors.push(format!(
                "broadcast: {} subscriber transports failed",
                stats.subscribers_failed
            ));
        }
        drain(0, &mut rx, log)?;
        samples.check(reference, log);
        match &samples.late {
            Some(late) if late.rx.is_done() && late.rx.stats().frames_dropped == 0 => {}
            Some(_) => log
                .errors
                .push("broadcast: the late joiner lost frames or the end of stream".into()),
            None => log
                .errors
                .push("broadcast: the sampled late joiner never joined".into()),
        }
        if !rx.is_done() {
            log.errors
                .push("broadcast: the viewer never saw the end of the stream".into());
        }
        Ok(Finished {
            rx: rx.into_stats(),
            refresh_frames: 0,
        })
    }
}

// --- lossy-recovery: one broadcast, 8 decoding viewers on faulty links ----

const LOSSY_VIEWERS: usize = 8;
/// Per-chunk loss probability of every lossy link: the lossy subscriber
/// of `examples/broadcast.rs` and `tests/broadcast_soak.rs` (8%).
const CHUNK_LOSS: f64 = 0.08;
/// Chance per chunk that a corruption burst starts, and its longest run.
/// Bursts of 1–2 records are what `pcc_sim::FaultSchedule::generate`
/// draws; a start chance of 2.7% puts about 4% of the frame chunks in a
/// burst, the corruption rate of `examples/broadcast.rs`.
const BURST_START: f64 = 0.027;
const BURST_MAX: usize = 2;
const LOSSY_RING: usize = 16;

struct Lossy<'d> {
    bc: Broadcast<'d>,
    viewers: Vec<Receiver<'d, Pipe>>,
    ref_id: SubscriberId,
    clock: FakeClock,
}

impl<'d> Lossy<'d> {
    fn build(ctx: &Ctx<'d>) -> io::Result<Self> {
        let clock = FakeClock::new();
        let repair = SharedRepairRing::new(4);
        let mut bc = Broadcast::new(
            ctx.codec,
            ctx.inputs.depth,
            ctx.device,
            &StreamConfig::default(),
        )
        .with_bounding_box(ctx.inputs.bounding_box)
        .with_repair(repair.clone());
        let mut viewers = Vec::new();
        let mut ref_id = None;
        for v in 0..LOSSY_VIEWERS {
            let pipe = Pipe::default();
            let link = FaultyTransport::new(
                pipe.clone(),
                FaultConfig {
                    drop: CHUNK_LOSS,
                    immune_prefix: 1,
                    ..FaultConfig::default()
                },
                derive_seed(ctx.seed, 100 + v as u64),
            );
            let transport = CorruptionBursts::new(
                link,
                derive_seed(ctx.seed, 200 + v as u64),
                BURST_START,
                BURST_MAX,
            );
            let feedback = SharedStats::new();
            // Even viewers: ARQ plus recovery; odd: recovery only
            // (intra refresh plus brick repair).
            let arq = (v % 2 == 0).then(|| SharedRing::new(LOSSY_RING));
            let id = bc.subscribe(
                transport,
                SubscriberConfig {
                    arq_ring: arq.clone(),
                    feedback: Some(feedback.clone()),
                    clock: Some(Arc::new(clock.clone())),
                    ..Default::default()
                },
            )?;
            ref_id.get_or_insert(id);
            let rx = Receiver::new(pipe, ctx.device)
                .with_streaming()
                .with_feedback(feedback)
                .with_recovery()
                .with_repair(repair.clone());
            let rx = match arq {
                Some(ring) => rx.with_arq_clock(
                    ring,
                    ArqConfig {
                        ring_chunks: LOSSY_RING,
                        ..ArqConfig::default()
                    },
                    Arc::new(clock.clone()),
                ),
                None => rx,
            };
            viewers.push(rx);
        }
        Ok(Lossy {
            bc,
            viewers,
            ref_id: ref_id.expect("at least one viewer"),
            clock,
        })
    }
}

impl Session for Lossy<'_> {
    fn step(&mut self, _index: usize, cloud: &PointCloud, log: &mut StepLog) -> io::Result<()> {
        let sp = pcc_probe::span(PUSH_SPAN);
        let a0 = alloc::allocs();
        let kind = self.bc.push_frame(cloud);
        log.call_allocs += alloc::allocs() - a0;
        drop(sp);
        log.kinds.push(kind);
        self.clock.advance(FRAME_INTERVAL);
        for (v, rx) in self.viewers.iter_mut().enumerate() {
            drain(v, rx, log)?;
        }
        Ok(())
    }

    fn wire_bytes(&self) -> u64 {
        self.bc
            .subscriber_stats(self.ref_id)
            .map_or(0, |s| s.bytes_sent)
    }

    fn viewers(&self) -> usize {
        LOSSY_VIEWERS
    }

    fn finish(self: Box<Self>, _reference: &Reference, log: &mut StepLog) -> io::Result<Finished> {
        let Lossy {
            bc,
            mut viewers,
            ref_id,
            ..
        } = *self;
        let refresh_frames = bc.subscriber_stats(ref_id).map_or(0, |s| s.refresh_frames);
        let stats = bc.finish();
        if stats.subscribers_failed > 0 {
            log.errors.push(format!(
                "lossy-recovery: {} subscriber transports failed",
                stats.subscribers_failed
            ));
        }
        let mut rx = StreamStats::default();
        for (v, viewer) in viewers.iter_mut().enumerate() {
            drain(v, viewer, log)?;
        }
        for viewer in viewers {
            rx.merge(&viewer.into_stats());
        }
        Ok(Finished { rx, refresh_frames })
    }
}
