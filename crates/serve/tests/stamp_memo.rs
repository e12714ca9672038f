//! Stamp-memo correctness: a broadcast stamps each distinct chunk image
//! once per seq group and parks headers plus shared payloads in its ARQ
//! rings. Whatever mix of subscribers shares the fan-out loop — on
//! time, late (their own seq groups), resubscribed after a dead
//! transport, refinement-shed, P-strided, with or without ARQ — every
//! wire must carry exactly the bytes a fresh stamp per subscriber gives,
//! and every ring must serve exactly the chunk sent under each seq.

use pcc_adapt::{Controller, ControllerConfig, QualityLadder, Rung};
use pcc_core::{Design, PccCodec};
use pcc_datasets::catalog;
use pcc_edge::{Device, PowerMode};
use pcc_inter::InterConfig;
use pcc_serve::{shed_refinement, Broadcast, ServeStats, SubscriberConfig, SubscriberId};
use pcc_stream::{
    encode_chunk, Chunk, ChunkKind, FramePayload, FrameSource, Retransmit, Sender, SharedRing,
    StreamConfig,
};
use pcc_types::{FrameKind, GofPattern, PointCloud};
use proptest::prelude::*;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

const FRAMES: usize = 8;
const DEPTH: u8 = 6;
const RING: usize = 5;

/// A transport whose bytes outlive the broadcast. With a write budget it
/// accepts that many writes and fails every later one (a dead peer).
#[derive(Clone, Default)]
struct Wire(Arc<Mutex<(Vec<u8>, Option<usize>)>>);

impl Wire {
    fn dying_after(writes: usize) -> Self {
        Wire(Arc::new(Mutex::new((Vec::new(), Some(writes)))))
    }

    fn bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap().0.clone()
    }
}

impl Write for Wire {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.0.lock().unwrap();
        match &mut state.1 {
            Some(0) => return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone")),
            Some(left) => *left -= 1,
            None => {}
        }
        state.0.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    OnTime,
    /// Subscribes after `at` frames were pushed.
    Late {
        at: usize,
    },
    /// On time; its transport fails the send of frame `fail`, and it is
    /// resubscribed on a fresh transport after `back` frames were pushed.
    Resubscribed {
        fail: usize,
        back: usize,
    },
    /// On time on a single-layer rung: every I-frame is sent shed.
    Shed,
    /// On time on a stride-2 rung: every second P position is withheld.
    Strided,
}

fn role(sel: usize, a: usize, b: usize) -> Role {
    match sel {
        0 => Role::OnTime,
        1 => Role::Late { at: 1 + a % FRAMES },
        2 => {
            let fail = a % FRAMES;
            Role::Resubscribed { fail, back: fail + 1 + b % (FRAMES - fail) }
        }
        3 => Role::Shed,
        _ => Role::Strided,
    }
}

fn pinned_controller(config: InterConfig, p_keep_stride: u32) -> Controller {
    let rung = Rung { name: "pinned", config, p_keep_stride };
    Controller::new(QualityLadder::new(vec![rung]), ControllerConfig::default())
}

fn shed_controller() -> Controller {
    let mut single = InterConfig::v1();
    single.intra.two_layer = false;
    pinned_controller(single, 1)
}

fn stride_controller() -> Controller {
    pinned_controller(InterConfig::v1(), 2)
}

/// The session's frames as coded by a separate source: the broadcast's
/// encoder is deterministic, so these are its payloads byte for byte.
struct Reference {
    frames: Vec<FramePayload>,
    /// The stream header announcing each join point.
    headers: Vec<Chunk>,
    gof: GofPattern,
}

impl Reference {
    fn build(device: &Device, codec: &PccCodec, clouds: &[PointCloud]) -> Self {
        let mut source = FrameSource::new(codec, DEPTH, device, &StreamConfig::default());
        let frames = clouds.iter().map(|c| source.encode_next(c)).collect();
        let headers = (0..=FRAMES as u32).map(|j| source.header_at(j)).collect();
        Reference { frames, headers, gof: source.gof_pattern() }
    }

    /// Join point and replayed frames of a subscriber attached after
    /// `pushed` frames: the current GOF from its I-frame on.
    fn replay(&self, pushed: usize) -> (u32, &[FramePayload]) {
        if pushed == 0 {
            return (0, &[]);
        }
        let anchor = (0..pushed)
            .rev()
            .find(|&i| self.frames[i].kind == FrameKind::Intra)
            .expect("frame 0 is an I-frame");
        (anchor as u32, &self.frames[anchor..pushed])
    }
}

/// One life of one subscriber as a fresh stamp per chunk would send it:
/// the chunks it attempted, in order, and the wire the successful ones
/// make.
#[derive(Default)]
struct Life {
    attempted: Vec<(u32, Vec<u8>)>,
    wire: Vec<u8>,
    /// Writes the transport accepts (`None`: all of them).
    budget: Option<usize>,
}

impl Life {
    fn send(&mut self, chunk: Chunk) {
        let bytes = encode_chunk(&chunk);
        let writes = self.attempted.len();
        if self.budget.is_none_or(|b| writes < b) {
            self.wire.extend_from_slice(&bytes);
        }
        self.attempted.push((chunk.seq, bytes));
    }

    fn next_seq(&self) -> u32 {
        self.attempted.len() as u32
    }

    fn send_frame(&mut self, frame_index: u32, kind: FrameKind, payload: &[u8]) {
        let seq = self.next_seq();
        self.send(Chunk {
            kind: ChunkKind::Frame,
            frame_kind: Some(kind),
            anchor_lag: 0,
            stream_id: 1,
            seq,
            frame_index,
            payload: payload.to_vec(),
        });
    }

    fn open(reference: &Reference, pushed: usize, budget: Option<usize>) -> Self {
        let mut life = Life { budget, ..Life::default() };
        let (join_at, replay) = reference.replay(pushed);
        life.send(reference.headers[join_at as usize].clone());
        for f in replay {
            life.send_frame(f.frame_index, f.kind, &f.payload);
        }
        life
    }

    fn end(&mut self, total: u32) {
        let seq = self.next_seq();
        self.send(Chunk {
            kind: ChunkKind::End,
            frame_kind: None,
            anchor_lag: 0,
            stream_id: 1,
            seq,
            frame_index: total,
            payload: total.to_le_bytes().to_vec(),
        });
    }
}

/// Expected lives of a subscriber in `role` over the whole session.
fn model(role: Role, reference: &Reference) -> Vec<Life> {
    let live_from = match role {
        Role::Late { at } => at,
        _ => 0,
    };
    let budget = match role {
        Role::Resubscribed { fail, .. } => Some(1 + fail),
        _ => None,
    };
    let mut lives = vec![Life::open(reference, live_from, budget)];
    let strider = stride_controller();
    for (i, f) in reference.frames.iter().enumerate().skip(live_from) {
        if let Role::Resubscribed { fail, back } = role {
            if i == back {
                lives.push(Life::open(reference, back, None));
            } else if i > fail && i < back {
                continue;
            }
        }
        if role == Role::Strided && strider.should_skip(i, &reference.gof) {
            continue;
        }
        let shed = (role == Role::Shed && f.kind == FrameKind::Intra)
            .then(|| shed_refinement(&f.payload).expect("a two-layer I-frame sheds"));
        let payload = shed.as_deref().unwrap_or(&f.payload);
        lives.last_mut().expect("one life is open").send_frame(f.frame_index, f.kind, payload);
    }
    if let Role::Resubscribed { back: FRAMES, .. } = role {
        lives.push(Life::open(reference, FRAMES, None));
    }
    lives.last_mut().expect("one life is open").end(FRAMES as u32);
    lives
}

struct Subscriber {
    role: Role,
    ring: Option<SharedRing>,
    wires: Vec<Wire>,
    id: Option<SubscriberId>,
}

fn config(role: Role, ring: &Option<SharedRing>) -> SubscriberConfig {
    SubscriberConfig {
        arq_ring: ring.clone(),
        controller: match role {
            Role::Shed => Some(shed_controller()),
            Role::Strided => Some(stride_controller()),
            _ => None,
        },
        ..SubscriberConfig::default()
    }
}

/// Runs the broadcast: subscribers that are due attach (or come back)
/// before each push, in their listed order.
fn run(
    device: &Device,
    codec: &PccCodec,
    clouds: &[PointCloud],
    subs: &mut [Subscriber],
) -> ServeStats {
    let mut bc = Broadcast::new(codec, DEPTH, device, &StreamConfig::default());
    for pushed in 0..=FRAMES {
        for s in subs.iter_mut() {
            match s.role {
                Role::Late { at } if at == pushed => {
                    let wire = Wire::default();
                    s.id = Some(bc.subscribe(wire.clone(), config(s.role, &s.ring)).unwrap());
                    s.wires.push(wire);
                }
                Role::Resubscribed { fail, .. } if pushed == 0 => {
                    let wire = Wire::dying_after(1 + fail);
                    s.id = Some(bc.subscribe(wire.clone(), config(s.role, &s.ring)).unwrap());
                    s.wires.push(wire);
                }
                Role::Resubscribed { back, .. } if back == pushed => {
                    let wire = Wire::default();
                    let id = s.id.expect("subscribed at frame 0");
                    assert!(bc.resubscribe(id, wire.clone()).unwrap(), "the slot is dead");
                    s.wires.push(wire);
                }
                Role::OnTime | Role::Shed | Role::Strided if pushed == 0 => {
                    let wire = Wire::default();
                    s.id = Some(bc.subscribe(wire.clone(), config(s.role, &s.ring)).unwrap());
                    s.wires.push(wire);
                }
                _ => {}
            }
        }
        if let Some(cloud) = clouds.get(pushed) {
            bc.push_frame(cloud);
        }
    }
    let stats = bc.finish();
    assert_eq!(stats.frames_encoded, FRAMES as u64);
    stats
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn memoised_stamps_equal_a_fresh_stamp_per_subscriber(
        picks in prop::collection::vec((0usize..5, 0usize..2, 0usize..64, 0usize..64), 1..10),
    ) {
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let codec = PccCodec::new(Design::IntraInterV1);
        let video = catalog::by_name("Loot").unwrap().generate_scaled(FRAMES, 500);
        let clouds: Vec<PointCloud> = video.iter().map(|f| f.cloud.clone()).collect();
        let reference = Reference::build(&device, &codec, &clouds);
        let mut subs: Vec<Subscriber> = picks
            .iter()
            .map(|&(sel, arq, a, b)| Subscriber {
                role: role(sel, a, b),
                ring: (arq == 1).then(|| SharedRing::new(RING)),
                wires: Vec::new(),
                id: None,
            })
            .collect();
        let stats = run(&device, &codec, &clouds, &mut subs);
        // Every slot still dead at `finish` (left, failed and never
        // resubscribed, or evicted) dirties the aggregate; every other
        // slot was sealed with an end chunk.
        let dead = stats.subscribers_left + stats.subscribers_failed + stats.subscribers_evicted
            - stats.resubscribes;
        prop_assert_eq!(stats.aggregate.clean_shutdown, dead == 0, "stats: {:?}", stats);

        for (n, s) in subs.iter_mut().enumerate() {
            let lives = model(s.role, &reference);
            prop_assert_eq!(s.wires.len(), lives.len(), "subscriber {} ({:?}): lives", n, s.role);
            for (life, (wire, expected)) in s.wires.iter().zip(&lives).enumerate() {
                prop_assert!(
                    wire.bytes() == expected.wire,
                    "subscriber {} ({:?}) life {}: wire differs from fresh stamps",
                    n, s.role, life
                );
            }
            let Some(ring) = &mut s.ring else { continue };
            // The ring holds the last RING chunks attempted across every
            // life; a seq parked twice serves its newest chunk.
            let attempted: Vec<&(u32, Vec<u8>)> =
                lives.iter().flat_map(|l| &l.attempted).collect();
            let window = &attempted[attempted.len().saturating_sub(RING)..];
            let top = attempted.iter().map(|(seq, _)| *seq).max().unwrap_or(0);
            for seq in 0..=top + 1 {
                let expected =
                    window.iter().rev().find(|(at, _)| *at == seq).map(|(_, b)| b.clone());
                prop_assert_eq!(
                    ring.retransmit(seq),
                    expected,
                    "subscriber {} ({:?}): ring chunk seq {}", n, s.role, seq
                );
            }
        }
    }
}

/// The on-time model wire every broadcast subscriber above is held to is
/// exactly the 1:1 `Sender`'s wire for the same clip.
#[test]
fn on_time_model_wire_is_the_sender_wire() {
    let device = Device::jetson_agx_xavier(PowerMode::W15);
    let codec = PccCodec::new(Design::IntraInterV1);
    let video = catalog::by_name("Loot").unwrap().generate_scaled(FRAMES, 500);
    let clouds: Vec<PointCloud> = video.iter().map(|f| f.cloud.clone()).collect();
    let mut sender = Sender::new(&codec, DEPTH, &device, Vec::new(), &StreamConfig::default()).unwrap();
    for cloud in &clouds {
        sender.send_frame(cloud).unwrap();
    }
    let (wire, _) = sender.finish().unwrap();
    let reference = Reference::build(&device, &codec, &clouds);
    assert!(model(Role::OnTime, &reference)[0].wire == wire, "on-time wire differs from the Sender's");
}
