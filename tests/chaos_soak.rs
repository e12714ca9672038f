//! Deterministic chaos soak for the recovery plane.
//!
//! Every disruption here is scripted or seeded — record-indexed drops,
//! byte-exact brick corruption, a transport that dies after a fixed
//! number of records, a stall driven by a fake clock, and seeded
//! `FaultyTransport` damage — so every counter, every delivered frame,
//! and the whole composite soak replay identically from the same seed.
//!
//! The invariants under test:
//!
//! * a receiver that loses its reference re-anchors via an
//!   intra-refresh request within one feedback round trip;
//! * a damaged brick I-frame is mended bit-exact from per-brick NACKs
//!   without a desync or a refresh;
//! * a dead broadcast subscriber resumes on a fresh transport with no
//!   frame lost and exact cross-life accounting;
//! * a stalled consumer is evicted by the liveness policy instead of
//!   being served forever, and can come back;
//! * the composite soak replays bit-identically from its seed, with
//!   every transport queue drained (nothing accumulates unboundedly).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pcc::adapt::FakeClock;
use pcc::core::{BrickIndex, EncodedFrame, PccCodec};
use pcc::datasets::catalog;
use pcc::edge::{Device, PowerMode};
use pcc::fault::{FaultConfig, FaultyTransport, MortalTransport, ThrottledTransport};
use pcc::inter::InterConfig;
use pcc::serve::{Broadcast, LivenessPolicy, SlotHealth, SubscriberConfig};
use pcc::stream::{
    decode_chunk, encode_chunk, Delivered, FrameHistory, Receiver, Sender, SharedStats,
    StreamConfig,
};
use pcc::types::{FrameKind, Limits, Video};

fn device() -> Device {
    Device::jetson_agx_xavier(PowerMode::W15)
}

fn clip(frames: usize) -> Video {
    catalog::by_name("Loot").unwrap().generate_scaled(frames, 700)
}

fn brick_codec() -> PccCodec {
    let mut cfg = InterConfig::default();
    cfg.intra.brick_depth = 2;
    PccCodec::with_inter_config(cfg)
}

/// An in-memory duplex wire: writes append, reads drain, an empty queue
/// reads 0 bytes (the live-transport "no data yet" a streaming receiver
/// must tolerate). Clones share the queue.
#[derive(Clone, Default)]
struct Pipe(Arc<Mutex<VecDeque<u8>>>);

impl Pipe {
    fn backlog(&self) -> usize {
        self.0.lock().unwrap().len()
    }
}

impl Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend(buf.iter().copied());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for Pipe {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut q = self.0.lock().unwrap();
        let n = buf.len().min(q.len());
        for slot in buf.iter_mut().take(n) {
            *slot = q.pop_front().unwrap_or_default();
        }
        Ok(n)
    }
}

/// Drops exactly the write records whose 0-based index is listed
/// (record 0 is the stream header) — a scripted, replayable loss burst.
struct DropRecords<W: Write> {
    inner: W,
    drop: Vec<usize>,
    seen: usize,
}

impl<W: Write> DropRecords<W> {
    fn new(inner: W, drop: Vec<usize>) -> Self {
        DropRecords { inner, drop, seen: 0 }
    }
}

impl<W: Write> Write for DropRecords<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let idx = self.seen;
        self.seen += 1;
        if !self.drop.contains(&idx) {
            self.inner.write_all(buf)?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Flips one byte deep inside the payload of one chunk record, then
/// restamps the chunk's payload CRC — so the chunk still demuxes and
/// the damage is only caught by the per-brick CRC, exactly the failure
/// brick repair exists for.
struct CorruptDeep<W: Write> {
    inner: W,
    record: usize,
    payload_pos: usize,
    seen: usize,
}

impl<W: Write> Write for CorruptDeep<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let idx = self.seen;
        self.seen += 1;
        if idx == self.record {
            let mut chunk = decode_chunk(buf).expect("sender emits whole chunks");
            *chunk.payload.get_mut(self.payload_pos).expect("position inside payload") ^= 0xFF;
            self.inner.write_all(&encode_chunk(&chunk))?;
        } else {
            self.inner.write_all(buf)?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Drains everything the receiver can currently deliver (a streaming
/// receiver returns `None` when starved, not just when done).
fn poll<R: Read>(rx: &mut Receiver<R>, out: &mut Vec<Delivered>) {
    while let Some(frame) = rx.recv_frame().expect("in-memory wire cannot fail") {
        out.push(frame);
    }
}

#[test]
fn lost_anchor_triggers_refresh_and_re_anchors_at_the_next_slot() {
    let video = clip(9); // IPP period 3: I at 0, 3, 6.
    let d = device();
    let codec = PccCodec::new(pcc::core::Design::IntraInterV1);
    let pipe = Pipe::default();
    let feedback = SharedStats::new();

    // Record 0 is the header; frame f is record f + 1. Drop frame 3 —
    // the second GOF's scheduled I-frame.
    let wire = DropRecords::new(pipe.clone(), vec![4]);
    let mut tx = Sender::new(&codec, 6, &d, wire, &StreamConfig::default())
        .unwrap()
        .with_feedback(feedback.clone());
    let mut rx = Receiver::new(pipe, &d)
        .with_feedback(feedback)
        .with_recovery()
        .with_streaming();

    let mut delivered = Vec::new();
    for frame in video.iter() {
        tx.send_frame(&frame.cloud).unwrap();
        poll(&mut rx, &mut delivered);
    }
    let (_, tx_stats) = tx.finish().unwrap();
    poll(&mut rx, &mut delivered);

    let indices: Vec<usize> = delivered.iter().map(|f| f.frame_index).collect();
    // Frame 3 was dropped; frame 4 (a P without its anchor) is
    // undecodable; the refresh request published at the gap re-anchors
    // at the very next slot, 5 — one feedback round trip, not a wait
    // for the scheduled I at 6.
    assert_eq!(indices, vec![0, 1, 2, 5, 6, 7, 8]);
    let refreshed = delivered.iter().find(|f| f.frame_index == 5).unwrap();
    assert_eq!(refreshed.kind, FrameKind::Intra, "slot 5 re-anchors out of schedule");

    let rx_stats = rx.into_stats();
    assert_eq!(rx_stats.refresh_requests, 1, "one desync, one ask");
    assert_eq!(rx_stats.frames_dropped, 2);
    assert!(rx_stats.resyncs >= 1);
    assert!(rx_stats.clean_shutdown);
    assert_eq!(tx_stats.refresh_frames, 1, "the sender booked the forced I-frame");
    assert!(tx_stats.refresh_bytes > 0);
    assert!(tx_stats.refresh_bytes < tx_stats.bytes_sent);
}

#[test]
fn damaged_brick_is_repaired_bit_exact_without_a_refresh() {
    let video = clip(3);
    let d = device();
    let codec = brick_codec();

    // The reference run: same deterministic encode, clean wire.
    let mut clean_tx = Sender::new(&codec, 6, &d, Vec::new(), &StreamConfig::default()).unwrap();
    for frame in video.iter() {
        clean_tx.send_frame(&frame.cloud).unwrap();
    }
    let (clean_wire, _) = clean_tx.finish().unwrap();
    let mut clean_rx = Receiver::new(clean_wire.as_slice(), &d);
    let mut clean = Vec::new();
    poll(&mut clean_rx, &mut clean);
    assert_eq!(clean.len(), 3);

    // Find a byte that lives inside one brick's geometry slice of the
    // I-frame record, via the same deterministic encode.
    let reference = {
        let mut enc = codec.frame_encoder(6, &d);
        enc.encode_frame(&video.frame(0).unwrap().cloud).0
    };
    let EncodedFrame::Intra(rf) = &reference else { panic!("frame 0 is intra") };
    let bricks = BrickIndex::parse(&rf.geometry, &Limits::default()).unwrap();
    let victim = bricks
        .entries()
        .iter()
        .max_by_key(|e| e.geom.len())
        .expect("brick frames have entries");
    let geometry_at = find_subslice(&chunk_payload(&clean_wire, 1), &rf.geometry)
        .expect("record embeds the geometry stream verbatim");

    let ring = FrameHistory::new(4);
    let pipe = Pipe::default();
    let feedback = SharedStats::new();
    let wire = CorruptDeep {
        inner: pipe.clone(),
        record: 1, // the I-frame chunk
        payload_pos: geometry_at + victim.geom.start + victim.geom.len() / 2,
        seen: 0,
    };
    let mut tx = Sender::new(&codec, 6, &d, wire, &StreamConfig::default())
        .unwrap()
        .with_repair(ring.clone());
    let mut rx = Receiver::new(pipe, &d)
        .with_feedback(feedback)
        .with_recovery()
        .with_repair(ring)
        .with_streaming();

    let mut delivered = Vec::new();
    for frame in video.iter() {
        tx.send_frame(&frame.cloud).unwrap();
        poll(&mut rx, &mut delivered);
    }
    tx.finish().unwrap();
    poll(&mut rx, &mut delivered);

    assert_eq!(delivered.len(), 3, "repair saves the I-frame and both its P-frames");
    for (got, want) in delivered.iter().zip(&clean) {
        assert_eq!(got.frame_index, want.frame_index);
        assert!(got.partial.is_none(), "repair is whole, not salvage");
        assert_eq!(got.cloud, want.cloud, "frame {} must be bit-exact", got.frame_index);
    }
    let stats = rx.into_stats();
    assert!(stats.brick_nacks >= 1, "the damaged cell was NACKed");
    assert_eq!(stats.frames_repaired, 1);
    assert!(stats.bricks_repaired >= 1);
    assert_eq!(stats.frames_dropped, 0);
    assert_eq!(stats.refresh_requests, 0, "brick repair made a whole-frame refresh unnecessary");
    assert_eq!(stats.repairs_failed, 0);
}

#[test]
fn dead_subscriber_resumes_losslessly_on_a_fresh_transport() {
    let video = clip(9);
    let d = device();
    let codec = PccCodec::new(pcc::core::Design::IntraInterV1);
    let mut session = Broadcast::new(&codec, 6, &d, &StreamConfig::default());

    let healthy_pipe = Pipe::default();
    let _healthy = session.subscribe(healthy_pipe.clone(), SubscriberConfig::default()).unwrap();
    let mut healthy_rx = Receiver::new(healthy_pipe, &d).with_streaming();
    let mut healthy_frames = Vec::new();

    // Lives: header + frames 0..2; the write for frame 3 dies.
    let first_pipe = Pipe::default();
    let doomed =
        session.subscribe(MortalTransport::new(first_pipe.clone(), 4), SubscriberConfig::default())
            .unwrap();
    let mut first_rx = Receiver::new(first_pipe, &d).with_streaming();
    let mut first_frames = Vec::new();

    for frame in video.iter().take(4) {
        session.push_frame(&frame.cloud);
        poll(&mut healthy_rx, &mut healthy_frames);
        poll(&mut first_rx, &mut first_frames);
    }
    assert!(!session.is_alive(doomed));
    assert_eq!(
        session.subscriber_health(doomed),
        Some(SlotHealth::Failed { at_frame: 3 }),
        "the failure records which frame's send died"
    );

    let second_pipe = Pipe::default();
    assert!(session.resubscribe(doomed, second_pipe.clone()).unwrap());
    assert!(session.is_alive(doomed));
    assert_eq!(session.subscriber_health(doomed), Some(SlotHealth::Live));
    // Resubscribing a live slot would fork its stream: refused.
    assert!(!session.resubscribe(doomed, Pipe::default()).unwrap());
    let mut second_rx = Receiver::new(second_pipe, &d).with_streaming();
    let mut second_frames = Vec::new();

    for frame in video.iter().skip(4) {
        session.push_frame(&frame.cloud);
        poll(&mut healthy_rx, &mut healthy_frames);
        poll(&mut second_rx, &mut second_frames);
    }
    let doomed_total = session.subscriber_stats(doomed).unwrap().clone();
    let stats = session.finish();
    poll(&mut healthy_rx, &mut healthy_frames);
    poll(&mut second_rx, &mut second_frames);

    assert_eq!(stats.resubscribes, 1);
    assert_eq!(stats.subscribers_failed, 1);
    assert_eq!(stats.subscribers_active(), 2);

    // Across both lives the subscriber saw every frame exactly once:
    // 0..2 on the first wire, then the cached GOF anchor (frame 3, the
    // I-frame whose send died) replayed on the second wire, then 4..8.
    let first: Vec<usize> = first_frames.iter().map(|f| f.frame_index).collect();
    let second: Vec<usize> = second_frames.iter().map(|f| f.frame_index).collect();
    assert_eq!(first, vec![0, 1, 2]);
    assert_eq!(second, vec![3, 4, 5, 6, 7, 8]);
    assert!(healthy_rx.stats().clean_shutdown);
    assert!(second_rx.stats().clean_shutdown, "the resumed wire gets a real end chunk");

    // Bit-exact convergence: the resumed subscriber decodes exactly
    // what the survivor decodes.
    let all: Vec<usize> = healthy_frames.iter().map(|f| f.frame_index).collect();
    assert_eq!(all, (0..9).collect::<Vec<_>>());
    for frame in &second_frames {
        let twin = healthy_frames.iter().find(|f| f.frame_index == frame.frame_index).unwrap();
        assert_eq!(frame.cloud, twin.cloud);
    }

    // Cross-life accounting: counters carried over, frame 3 counted
    // once (its failed send was never booked, its replay was).
    assert_eq!(doomed_total.frames_sent, 9);
    assert!(doomed_total.bytes_sent > 0);
}

#[test]
fn stalled_consumer_is_evicted_by_liveness_and_can_return() {
    let video = clip(6);
    let d = device();
    let codec = PccCodec::new(pcc::core::Design::IntraInterV1);
    let policy = LivenessPolicy { send_deadline: Duration::from_millis(10), max_misses: 2 };
    let mut session = Broadcast::new(&codec, 6, &d, &StreamConfig::default()).with_liveness(policy);

    let fast_clock = FakeClock::new();
    let fast = session
        .subscribe(
            Pipe::default(),
            SubscriberConfig { clock: Some(Arc::new(fast_clock)), ..Default::default() },
        )
        .unwrap();

    // ~1 ms of fake-clock time per byte: every send blows the 10 ms
    // deadline by orders of magnitude, but only on this slot's clock.
    let slow_clock = FakeClock::new();
    let stalled_pipe = Pipe::default();
    let stalled = session
        .subscribe(
            ThrottledTransport::new(stalled_pipe, Arc::new(slow_clock.clone()), 1_000_000),
            SubscriberConfig { clock: Some(Arc::new(slow_clock)), ..Default::default() },
        )
        .unwrap();

    session.push_frame(&video.frame(0).unwrap().cloud);
    assert!(session.is_alive(stalled), "one miss is not an eviction");
    session.push_frame(&video.frame(1).unwrap().cloud);
    assert!(!session.is_alive(stalled));
    assert_eq!(
        session.subscriber_health(stalled),
        Some(SlotHealth::Evicted { at_frame: 1 }),
        "two consecutive misses evict, recording where"
    );
    assert!(session.is_alive(fast), "the deadline is per slot, not per session");
    assert_eq!(session.subscriber_count(), 1);

    // The wire got fixed: resume on an unthrottled transport. The
    // retained slot clock sees instant sends, so the slot stays live.
    assert!(session.resubscribe(stalled, Pipe::default()).unwrap());
    for frame in video.iter().skip(2) {
        session.push_frame(&frame.cloud);
    }
    assert!(session.is_alive(stalled));
    let stats = session.finish();
    assert_eq!(stats.subscribers_evicted, 1);
    assert_eq!(stats.resubscribes, 1);
    assert_eq!(stats.subscribers_failed, 0, "eviction is policy, not transport failure");
    assert_eq!(stats.subscribers_active(), 2);
}

/// One composite soak: brick codec, frame history, seeded lossy wire with
/// receiver-driven refresh, a mid-GOF transport death with resume, and
/// a fake-clock-stalled consumer that gets evicted. Returns a full
/// digest of everything observable: per-receiver delivery traces, both
/// recovery receivers' counters, and the session counters (timing
/// fields are excluded by `StreamStats`'s counters-only equality).
fn soak(seed: u64) -> (String, pcc::stream::StreamStats, pcc::stream::StreamStats, pcc::serve::ServeStats) {
    let video = clip(12);
    let d = device();
    let codec = brick_codec();
    let ring = FrameHistory::new(4);
    let policy = LivenessPolicy { send_deadline: Duration::from_millis(10), max_misses: 2 };
    let mut session = Broadcast::new(&codec, 6, &d, &StreamConfig::default())
        .with_repair(ring.clone())
        .with_liveness(policy);

    // Subscriber A: healthy wire, full recovery wiring.
    let a_pipe = Pipe::default();
    let a_fb = SharedStats::new();
    let _a = session
        .subscribe(
            a_pipe.clone(),
            SubscriberConfig { feedback: Some(a_fb.clone()), ..Default::default() },
        )
        .unwrap();
    let mut a_rx = Receiver::new(a_pipe.clone(), &d)
        .with_feedback(a_fb)
        .with_recovery()
        .with_repair(ring.clone())
        .with_streaming();
    let mut a_frames = Vec::new();

    // Subscriber B: seeded drop/corrupt damage; its receiver asks for
    // refreshes, which re-anchor the shared encode for everyone.
    let b_pipe = Pipe::default();
    let b_fb = SharedStats::new();
    let fault_cfg = FaultConfig {
        drop: 0.2,
        corrupt: 0.2,
        immune_prefix: 1,
        ..FaultConfig::default()
    };
    session
        .subscribe(
            FaultyTransport::new(b_pipe.clone(), fault_cfg, seed),
            SubscriberConfig { feedback: Some(b_fb.clone()), ..Default::default() },
        )
        .unwrap();
    let mut b_rx = Receiver::new(b_pipe.clone(), &d)
        .with_feedback(b_fb)
        .with_recovery()
        .with_repair(ring.clone())
        .with_streaming();
    let mut b_frames = Vec::new();

    // Subscriber C: dies mid-GOF (header + 4 frames), then resumes.
    let c_pipe = Pipe::default();
    let c = session
        .subscribe(MortalTransport::new(c_pipe.clone(), 5), SubscriberConfig::default())
        .unwrap();
    let mut c_rx = Receiver::new(c_pipe.clone(), &d).with_streaming();
    let mut c_frames = Vec::new();
    let mut c_second: Option<(Receiver<Pipe>, Pipe)> = None;

    // Subscriber D: stalled on its own fake clock until evicted.
    let d_clock = FakeClock::new();
    let d_id = session
        .subscribe(
            ThrottledTransport::new(Pipe::default(), Arc::new(d_clock.clone()), 1_000_000),
            SubscriberConfig { clock: Some(Arc::new(d_clock)), ..Default::default() },
        )
        .unwrap();

    for (i, frame) in video.iter().enumerate() {
        session.push_frame(&frame.cloud);
        poll(&mut a_rx, &mut a_frames);
        poll(&mut b_rx, &mut b_frames);
        if let Some((rx, _)) = c_second.as_mut() {
            poll(rx, &mut c_frames);
        } else {
            poll(&mut c_rx, &mut c_frames);
            if !session.is_alive(c) {
                // Reconnect storm survivor: one resume, same identity.
                let pipe = Pipe::default();
                assert!(session.resubscribe(c, pipe.clone()).unwrap());
                let rx = Receiver::new(pipe.clone(), &d).with_streaming();
                c_second = Some((rx, pipe));
            }
        }
        assert!(i < 2 || !session.is_alive(d_id), "the stalled slot must be evicted early");
    }
    let stats = session.finish();
    poll(&mut a_rx, &mut a_frames);
    poll(&mut b_rx, &mut b_frames);
    if let Some((rx, _)) = c_second.as_mut() {
        poll(rx, &mut c_frames);
    }

    // Invariants that must hold for any seed.
    assert_eq!(stats.frames_encoded, 12);
    assert_eq!(stats.subscribers_evicted, 1);
    assert!(stats.resubscribes <= 1);
    let a_indices: Vec<usize> = a_frames.iter().map(|f| f.frame_index).collect();
    assert_eq!(a_indices, (0..12).collect::<Vec<_>>(), "the healthy subscriber misses nothing");
    // Convergence: every whole frame B or C delivered decodes exactly
    // as A decoded it — one shared encode, bit-exact fan-out.
    for frame in b_frames.iter().chain(&c_frames) {
        if frame.partial.is_some() {
            continue;
        }
        let twin = a_frames.iter().find(|f| f.frame_index == frame.frame_index).unwrap();
        assert_eq!(frame.cloud, twin.cloud, "frame {} diverged", frame.frame_index);
    }
    // No unbounded queues: every wire was drained to its last byte.
    assert_eq!(a_pipe.backlog(), 0);
    assert_eq!(b_pipe.backlog(), 0);
    assert_eq!(c_pipe.backlog(), 0);
    if let Some((_, pipe)) = &c_second {
        assert_eq!(pipe.backlog(), 0);
    }
    // Stats arithmetic stays exact under chaos: C's death and resume
    // are record-scheduled, D's eviction is clock-scheduled, so the
    // audience ledger is fully determined for any seed.
    assert_eq!(stats.subscribers_failed, 1, "exactly C's transport died");
    assert_eq!(stats.resubscribes, 1);
    assert_eq!(stats.subscribers_active(), 3, "A, B, and the resumed C remain");

    let digest_frames = |frames: &[Delivered]| -> Vec<(usize, u8, usize, bool)> {
        frames
            .iter()
            .map(|f| {
                (
                    f.frame_index,
                    if f.kind == FrameKind::Intra { 0 } else { 1 },
                    f.cloud.len(),
                    f.partial.is_some(),
                )
            })
            .collect()
    };
    let trace = format!(
        "a={:?} b={:?} c={:?}",
        digest_frames(&a_frames),
        digest_frames(&b_frames),
        digest_frames(&c_frames),
    );
    (trace, a_rx.into_stats(), b_rx.into_stats(), stats)
}

#[test]
fn chaos_soak_replays_identically_from_its_seed() {
    let first = soak(0xC0FFEE);
    let second = soak(0xC0FFEE);
    assert_eq!(first.0, second.0, "same seed must replay the delivery traces bit-identically");
    assert_eq!(first.1, second.1, "healthy receiver counters must replay");
    assert_eq!(first.2, second.2, "lossy receiver counters must replay");
    assert_eq!(first.3, second.3, "session counters must replay");
}

/// Extracts the payload of the `n`-th chunk on a clean wire.
fn chunk_payload(wire: &[u8], n: usize) -> Vec<u8> {
    let mut reader = pcc::stream::ChunkReader::new(wire);
    for _ in 0..n {
        reader.next_chunk().expect("clean wire").expect("enough chunks");
    }
    reader.next_chunk().expect("clean wire").expect("enough chunks").payload
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    (0..=haystack.len() - needle.len()).find(|&i| &haystack[i..i + needle.len()] == needle)
}
