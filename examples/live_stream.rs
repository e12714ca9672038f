//! Live streaming over loopback TCP: a sender thread encodes a
//! telepresence capture frame by frame and pushes chunks down a real
//! `std::net` socket while a receiver thread decodes them as they
//! arrive — the edge-to-viewer pipeline of the paper's Fig. 1, with the
//! transport in the middle.
//!
//! After the clean run, the same clip is pushed through a seeded
//! [`FaultyTransport`] twice: once with a plain receiver (the damaged
//! wire costs whole GOFs) and once with an ARQ back channel (every
//! dropped chunk is retransmitted and the delivery is bit-exact).
//!
//! An *overload leg* runs a longer capture under a supervised
//! session: a scripted 2× encode overload with a throttled transport
//! and an injected worker panic. The session degrades down the quality
//! ladder instead of stalling, contains the panic as one dropped frame,
//! and climbs back to full quality when the load lifts.
//!
//! A final *reconnect leg* broadcasts one shared encode to two viewers
//! and kills one viewer's transport mid-stream. The dead slot keeps its
//! identity and counters; [`Broadcast::resubscribe`] resumes it on a
//! fresh transport with the cached GOF replayed, and the union of both
//! lives is a lossless, bit-exact copy of the healthy viewer's stream.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example live_stream
//! ```

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use pcc::adapt::{Controller, ControllerConfig, FakeClock, QualityLadder};
use pcc::core::{Design, PccCodec};
use pcc::datasets::catalog;
use pcc::edge::{Device, PowerMode};
use pcc::fault::{panic_on_frames, FaultConfig, FaultyTransport, MortalTransport, ThrottledTransport};
use pcc::serve::{Broadcast, SlotHealth};
use pcc::inter::InterConfig;
use pcc::metrics::attribute_psnr;
use pcc::stream::{stream_video, ArqConfig, Receiver, Sender, SharedRing, StreamConfig, Supervisor};
use pcc::types::{FrameKind, Video, VoxelizedCloud};

fn main() {
    // A 12-frame (4 IPP groups) clip of the MVUB-style "Andrew10"
    // upper-body capture.
    let spec = catalog::by_name("Andrew10").expect("Andrew10 is in Table I");
    let video = spec.generate_scaled(12, 2_000);
    let depth = pcc::datasets::density_matched_depth(video.mean_points_per_frame());
    let device = Device::jetson_agx_xavier(PowerMode::W15);
    let codec = PccCodec::new(Design::IntraInterV1);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    println!(
        "streaming {}: {} frames x ~{} points over tcp://{addr} (grid depth {depth})\n",
        video.name(),
        video.len(),
        video.mean_points_per_frame()
    );

    let bb = video.bounding_box().expect("non-empty video");
    // The sender and the receiver are two peers on either end of a TCP
    // socket, not a data-parallel fan-out, so they get threads of their own.
    #[allow(clippy::disallowed_methods)]
    let (tx_stats, delivered, rx_stats) = thread::scope(|s| {
        let sender = s.spawn(|| {
            let socket = TcpStream::connect(addr).expect("connect loopback");
            let config = StreamConfig::default();
            let mut supervisor = Supervisor::default();
            let (_socket, stats) =
                stream_video(&codec, &video, depth, &device, socket, &config, &mut supervisor)
                    .expect("stream over tcp");
            stats
        });

        let receiver = s.spawn(|| {
            let (socket, _peer) = listener.accept().expect("accept sender");
            let mut session = Receiver::new(socket, &device);
            let mut frames = Vec::new();
            println!("{:<6} {:<5} {:>8} {:>12} {:>10}", "frame", "kind", "points", "decode ms", "PSNR dB");
            while let Some(frame) = session.recv_frame().expect("recv over tcp") {
                // Quality against what the sender's voxel grid held.
                let reference = VoxelizedCloud::from_cloud_in_box(
                    &video.frame(frame.frame_index).expect("in range").cloud,
                    depth,
                    &bb,
                )
                .dedup_mean()
                .to_cloud();
                let psnr = attribute_psnr(&reference, &frame.cloud).expect("same grid");
                println!(
                    "{:<6} {:<5} {:>8} {:>12.2} {:>10.1}",
                    frame.frame_index,
                    if frame.kind == FrameKind::Intra { "I" } else { "P" },
                    frame.cloud.len(),
                    frame.modeled_decode_ms,
                    psnr
                );
                frames.push((frame, psnr));
            }
            let stats = session.into_stats();
            (frames, stats)
        });

        let tx = sender.join().expect("sender thread");
        let (frames, rx) = receiver.join().expect("receiver thread");
        (tx, frames, rx)
    });

    println!(
        "\nwire: {} chunks, {:.1} KiB for {} frames ({:.1} KiB/frame)",
        tx_stats.chunks_sent,
        tx_stats.bytes_sent as f64 / 1024.0,
        tx_stats.frames_sent,
        tx_stats.bytes_sent as f64 / 1024.0 / tx_stats.frames_sent.max(1) as f64,
    );
    println!(
        "delivered {}/{} frames, {} dropped, {} resyncs, clean shutdown: {}",
        delivered.len(),
        tx_stats.frames_sent,
        rx_stats.frames_dropped,
        rx_stats.resyncs,
        rx_stats.clean_shutdown
    );
    print!("\nsender counters:\n{tx_stats}");
    print!("receiver counters:\n{rx_stats}");

    // A lossless transport must deliver every frame, in order, watchable.
    assert_eq!(tx_stats.frames_sent, video.len());
    assert_eq!(delivered.len(), video.len(), "loopback TCP lost frames");
    assert!(delivered.iter().enumerate().all(|(i, (f, _))| f.frame_index == i));
    assert!(rx_stats.clean_shutdown, "end-of-stream chunk missing");
    assert_eq!(rx_stats.frames_dropped, 0);
    assert_eq!(rx_stats.resyncs, 0);
    let min_psnr = delivered.iter().map(|(_, p)| *p).fold(f64::INFINITY, f64::min);
    assert!(min_psnr > 25.0, "delivered quality collapsed: min {min_psnr:.1} dB");
    println!("minimum delivered PSNR: {min_psnr:.1} dB");

    lossy_legs(&codec, &video, depth, &device, &delivered);
    overload_leg(&device);
    reconnect_leg(&device);
}

/// A cloneable in-memory wire: writes land in a shared buffer that the
/// caller can read back after the broadcast consumed the writer half.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut self.0.lock().expect("buffer lock"))
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Replays the clip over a 10%-loss seeded transport, without and with
/// an ARQ back channel, and checks the contrast: plain receive drops
/// GOFs, ARQ recovers every frame bit-exact against the clean TCP run.
fn lossy_legs(
    codec: &PccCodec,
    video: &Video,
    depth: u8,
    device: &Device,
    clean: &[(pcc::stream::Delivered, f64)],
) {
    const SEED: u64 = 0xBAD_CAB1E;
    // 10% chunk loss; the stream-header chunk is immune so both runs
    // measure frame loss, not session-setup loss.
    let faults = FaultConfig { drop: 0.10, immune_prefix: 1, ..FaultConfig::default() };
    let bb = video.bounding_box().expect("non-empty video");

    // One damaged wire, every chunk parked in a retransmit ring.
    let ring = SharedRing::new(64);
    let transport = FaultyTransport::new(Vec::new(), faults, SEED);
    let mut sender = Sender::new(codec, depth, device, transport, &StreamConfig::default())
        .expect("header write")
        .with_bounding_box(bb)
        .with_arq(ring.clone());
    for frame in video.iter() {
        sender.send_frame(&frame.cloud).expect("send frame");
    }
    let (transport, _) = sender.finish().expect("end chunk");
    let (wire, fault_stats) = transport.into_inner();
    println!(
        "\nlossy leg (seed {SEED:#x}): {} of {} chunks dropped on the wire",
        fault_stats.dropped,
        fault_stats.records - 1, // minus the immune header chunk
    );
    assert!(fault_stats.dropped > 0, "this seed must actually lose chunks");

    // Plain receiver: the loss costs real frames.
    let mut plain = Receiver::new(wire.as_slice(), device);
    let mut plain_delivered = 0usize;
    while plain.recv_frame().expect("plain receive").is_some() {
        plain_delivered += 1;
    }
    let plain_stats = plain.into_stats();
    println!(
        "without ARQ: {}/{} frames delivered, {} dropped, {} resyncs",
        plain_delivered,
        video.len(),
        plain_stats.frames_dropped,
        plain_stats.resyncs
    );
    assert!(plain_stats.frames_dropped > 0, "10% loss must cost frames without ARQ");

    // ARQ receiver on the same wire: NACK each gap against the ring.
    let arq_cfg = ArqConfig {
        backoff_base: Duration::ZERO, // in-process back channel: no pacing
        ..ArqConfig::default()
    };
    let mut arq = Receiver::new(wire.as_slice(), device).with_arq(ring, arq_cfg);
    let mut recovered = Vec::new();
    while let Some(frame) = arq.recv_frame().expect("arq receive") {
        recovered.push(frame);
    }
    let arq_stats = arq.into_stats();
    println!(
        "with ARQ:    {}/{} frames delivered, {} NACKs, {} chunks recovered, {} degraded",
        recovered.len(),
        video.len(),
        arq_stats.arq_nacks,
        arq_stats.arq_recovered,
        arq_stats.arq_degraded
    );
    assert_eq!(recovered.len(), video.len(), "ARQ must recover every frame");
    assert_eq!(arq_stats.frames_dropped, 0);
    assert_eq!(arq_stats.arq_degraded, 0);
    for (i, frame) in recovered.iter().enumerate() {
        assert_eq!(frame.frame_index, i);
        let (clean_frame, _) = &clean[i];
        assert_eq!(
            frame.cloud, clean_frame.cloud,
            "frame {i} not bit-exact after ARQ recovery"
        );
    }
    println!("ARQ delivery is bit-exact against the clean TCP run");
}

/// A 36-frame session at a sustained 2× encode overload (scripted, so
/// the run is deterministic) over a throttled transport, with a worker
/// panic injected mid-stream. The supervisor walks the quality ladder
/// down and back, abandons nothing it should not, and the session
/// finishes cleanly with every I-frame delivered.
fn overload_leg(device: &Device) {
    const BUDGET_MS: f64 = 33.34;
    let spec = catalog::by_name("Andrew10").expect("Andrew10 is in Table I");
    let video = spec.generate_scaled(36, 1_500);
    let depth = pcc::datasets::density_matched_depth(video.mean_points_per_frame());
    let codec = PccCodec::new(Design::IntraInterV1);

    // The fake clock makes the throttled link and the deadline math
    // deterministic and instantaneous — the decisions are identical to
    // a wall-clock run under the same load.
    let clock = FakeClock::new();
    let transport = ThrottledTransport::new(Vec::new(), Arc::new(clock.clone()), 2_000);
    let controller = Controller::new(
        QualityLadder::standard(InterConfig::v1()),
        ControllerConfig {
            frame_budget_ms: BUDGET_MS,
            degrade_after: 2,
            upgrade_after: 2,
            headroom: 0.9,
        },
    );
    let mut supervisor = Supervisor::new(controller)
        .with_clock(Arc::new(clock.clone()))
        .with_abandon_factor(3.0)
        // Frames 6..18 model a 2× overload (70 ms against the 33 ms
        // budget); frame 31's worker panics outright.
        .with_load_profile(|idx, _| if (6..18).contains(&idx) { 70.0 } else { 15.0 })
        .with_encode_fault(panic_on_frames(&[31]));

    let config = StreamConfig {
        queue_depth: 128,
        frame_budget_ms: Some(BUDGET_MS),
        ..StreamConfig::default()
    };
    let (transport, tx) =
        stream_video(&codec, &video, depth, device, transport, &config, &mut supervisor)
            .expect("supervised stream");
    let wire = transport.into_inner();

    let trace = supervisor.controller().expect("armed controller").trace().to_vec();
    println!(
        "\noverload leg: 2x overload on frames 6..18, worker panic at frame 31 \
         ({} frames, {:.0} ms budget)",
        video.len(),
        BUDGET_MS
    );
    print!("sender counters:\n{tx}");
    println!("rung trace (frame -> rung): {trace:?}");
    assert!(
        trace.iter().any(|&(_, r)| r >= 2),
        "a sustained 2x overload must cost at least two rungs"
    );
    assert_eq!(trace.last().map(|&(_, r)| r), Some(0), "the session must recover to full quality");
    assert!(trace.iter().all(|&(i, _)| i % 3 == 0), "rung changes land on I-frames only");
    assert_eq!(tx.panics_contained, 1, "the injected panic must be contained, not fatal");
    assert!(tx.clean_shutdown, "overload must never kill the session");

    let mut rx = Receiver::new(wire.as_slice(), device);
    let mut delivered = Vec::new();
    while let Some(frame) = rx.recv_frame().expect("receive supervised wire") {
        delivered.push(frame.frame_index);
    }
    let rx_stats = rx.into_stats();
    println!(
        "receiver: {}/{} frames, {} dropped (shed + panicked), {} resyncs",
        delivered.len(),
        video.len(),
        rx_stats.frames_dropped,
        rx_stats.resyncs
    );
    assert_eq!(delivered.len(), tx.frames_sent, "every transmitted frame must decode");
    for gof_start in (0..video.len()).step_by(3) {
        assert!(delivered.contains(&gof_start), "I-frame {gof_start} must be delivered");
    }
    let max_gap = delivered.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(1);
    assert!(max_gap <= 2, "no stall may span more than one missing frame: {delivered:?}");
    assert!(rx_stats.clean_shutdown);
    println!("degraded gracefully and recovered; no stall exceeded one frame interval");
}

/// Broadcasts one shared encode to a healthy viewer and a doomed one
/// whose transport dies mid-stream, then resumes the dead slot on a
/// fresh transport. The resubscribed viewer re-anchors off the cached
/// GOF replay and the union of its two lives is bit-exact against the
/// healthy stream — the broadcast never re-encodes and never stalls.
fn reconnect_leg(device: &Device) {
    let spec = catalog::by_name("Andrew10").expect("Andrew10 is in Table I");
    let video = spec.generate_scaled(9, 1_200);
    let depth = pcc::datasets::density_matched_depth(video.mean_points_per_frame());
    let codec = PccCodec::new(Design::IntraInterV1);
    let bb = video.bounding_box().expect("non-empty video");

    let mut session =
        Broadcast::new(&codec, depth, device, &StreamConfig::default()).with_bounding_box(bb);
    let healthy_wire = SharedBuf::default();
    let first_life = SharedBuf::default();
    let _healthy = session.subscribe(healthy_wire.clone(), Default::default()).expect("subscribe");
    // The doomed transport survives exactly 4 writes — its stream
    // header plus frames 0..3 — then fails like a dropped socket.
    let doomed = session
        .subscribe(MortalTransport::new(first_life.clone(), 4), Default::default())
        .expect("subscribe");

    for frame in video.iter().take(4) {
        session.push_frame(&frame.cloud);
    }
    let health = session.subscriber_health(doomed).expect("known subscriber");
    assert_eq!(
        health,
        SlotHealth::Failed { at_frame: 3 },
        "the doomed transport must die sending frame 3"
    );
    println!("\nreconnect leg: one of two subscribers died mid-stream ({health:?})");

    // Resume the same slot on a fresh wire: header at the cached GOF's
    // I-frame, cache replayed, counters carried over.
    let second_life = SharedBuf::default();
    assert!(session.resubscribe(doomed, second_life.clone()).expect("resubscribe"));
    assert!(session.is_alive(doomed), "resubscribed slot must be served again");
    for frame in video.iter().skip(4) {
        session.push_frame(&frame.cloud);
    }
    let stats = session.finish();
    print!("serve counters:\n{stats}");
    assert_eq!(stats.frames_encoded as usize, video.len(), "one shared encode per frame");
    assert_eq!(stats.subscribers_failed, 1);
    assert_eq!(stats.resubscribes, 1);
    assert_eq!(stats.subscribers_active(), 2, "both viewers end the session live");

    fn drain(wire: &[u8], device: &Device) -> (Vec<pcc::stream::Delivered>, pcc::stream::StreamStats) {
        let mut rx = Receiver::new(wire, device);
        let mut frames = Vec::new();
        while let Some(frame) = rx.recv_frame().expect("decode broadcast wire") {
            frames.push(frame);
        }
        let stats = rx.into_stats();
        (frames, stats)
    }

    let (healthy_frames, healthy_stats) = drain(&healthy_wire.take(), device);
    let (first, first_stats) = drain(&first_life.take(), device);
    let (second, second_stats) = drain(&second_life.take(), device);
    println!(
        "healthy viewer: {} frames; doomed viewer: {} before the drop + {} after resume",
        healthy_frames.len(),
        first.len(),
        second.len()
    );

    assert_eq!(healthy_frames.len(), video.len());
    assert!(healthy_stats.clean_shutdown);
    let first_indices: Vec<usize> = first.iter().map(|f| f.frame_index).collect();
    let second_indices: Vec<usize> = second.iter().map(|f| f.frame_index).collect();
    assert_eq!(first_indices, vec![0, 1, 2], "the first life ends where the transport died");
    assert!(!first_stats.clean_shutdown, "a dropped connection is a dirty shutdown");
    assert_eq!(
        second_indices,
        (3..video.len()).collect::<Vec<_>>(),
        "the resume must restart at the cached GOF's I-frame"
    );
    assert!(second_stats.clean_shutdown, "the resumed life is sealed by finish()");
    for frame in first.iter().chain(second.iter()) {
        let reference = healthy_frames.get(frame.frame_index).expect("in range");
        assert_eq!(
            frame.cloud, reference.cloud,
            "frame {} not bit-exact across the reconnect",
            frame.frame_index
        );
    }
    println!("union of both lives is lossless and bit-exact against the healthy viewer");
}
