//! Overload-control acceptance: a supervised live session under a
//! scripted 2× encode overload must degrade down the quality ladder
//! instead of stalling, recover to the top rung when the load lifts,
//! keep every I-frame on the wire, and convert injected worker panics
//! into single dropped frames. The unsupervised wire is pinned
//! elsewhere: by a golden digest (`tests/golden.rs`) and by equality
//! with the push sender (`tests/stream_transport.rs`).
//!
//! Everything here is deterministic: encode times come from a scripted
//! load profile (not the wall clock), the throttled transport charges a
//! `FakeClock`, and the controller is a pure function of its
//! observations — so rung traces are asserted exactly.

use std::sync::Arc;

use pcc::adapt::{Controller, ControllerConfig, FakeClock, QualityLadder};
use pcc::core::{Design, PccCodec};
use pcc::datasets::catalog;
use pcc::edge::{Device, PowerMode};
use pcc::fault::{panic_on_frames, ThrottledTransport};
use pcc::inter::InterConfig;
use pcc::stream::{stream_video, Receiver, SharedStats, StreamConfig, StreamStats, Supervisor};
use pcc::types::{FrameKind, PointCloud, Video};

const BUDGET_MS: f64 = 33.34;

fn device() -> Device {
    Device::jetson_agx_xavier(PowerMode::W15)
}

fn clip(frames: usize) -> Video {
    catalog::by_name("Loot").unwrap().generate_scaled(frames, 1_200)
}

/// Queue deep enough that backpressure signals stay inert — the tests
/// script overload through the load profile, not thread scheduling.
fn config() -> StreamConfig {
    StreamConfig { queue_depth: 128, frame_budget_ms: Some(BUDGET_MS), ..StreamConfig::default() }
}

fn controller(degrade_after: u32, upgrade_after: u32) -> Controller {
    Controller::new(
        QualityLadder::standard(InterConfig::v1()),
        ControllerConfig {
            frame_budget_ms: BUDGET_MS,
            degrade_after,
            upgrade_after,
            headroom: 0.9,
        },
    )
}

/// Streams `video` under `supervisor` into a plain in-memory wire and
/// returns (wire, sender stats).
fn supervised_wire(
    video: &Video,
    supervisor: &mut Supervisor,
    cfg: &StreamConfig,
) -> (Vec<u8>, StreamStats) {
    let codec = PccCodec::new(Design::IntraInterV1);
    let d = device();
    stream_video(&codec, video, 7, &d, Vec::new(), cfg, supervisor).unwrap()
}

/// Receives everything off `wire`, returning the delivered frames and
/// the receiver's stats.
fn receive_all(wire: &[u8]) -> (Vec<(usize, FrameKind, PointCloud)>, StreamStats) {
    let d = device();
    let mut rx = Receiver::new(wire, &d);
    let mut out = Vec::new();
    while let Some(f) = rx.recv_frame().unwrap() {
        out.push((f.frame_index, f.kind, f.cloud));
    }
    (out, rx.into_stats())
}

fn clean_clouds(video: &Video) -> Vec<PointCloud> {
    let (wire, _) = supervised_wire(video, &mut Supervisor::default(), &config());
    let (frames, _) = receive_all(&wire);
    frames.into_iter().map(|(_, _, cloud)| cloud).collect()
}

#[test]
fn soak_degrades_under_overload_and_recovers_when_it_lifts() {
    // 36 frames at ~30 fps; frames 6..18 are a scripted 2× overload
    // (70 ms against a 33 ms budget), the rest run comfortably.
    let video = clip(36);
    let clock = FakeClock::new();
    // ~2 µs/byte on the shared fake clock: the wire is genuinely the
    // bottleneck in modeled time, yet the test runs instantly.
    let transport = ThrottledTransport::new(Vec::new(), Arc::new(clock.clone()), 2_000);

    let mut supervisor = Supervisor::new(controller(2, 2))
        .with_clock(Arc::new(clock.clone()))
        .with_abandon_factor(3.0)
        .with_load_profile(|idx, _modeled| if (6..18).contains(&idx) { 70.0 } else { 15.0 });

    let codec = PccCodec::new(Design::IntraInterV1);
    let d = device();
    let (transport, tx) =
        stream_video(&codec, &video, 7, &d, transport, &config(), &mut supervisor).unwrap();
    let wire = transport.into_inner();

    // The rung trace is a pure function of the scripted load: degrade
    // to the bottom rung inside the overload window, climb back to the
    // top within 9 frames of it lifting, every change on an I-frame.
    let trace = supervisor.controller().unwrap().trace().to_vec();
    assert_eq!(trace, vec![(9, 1), (12, 3), (21, 2), (24, 1), (27, 0)], "stats: {tx:?}");
    assert!(trace.iter().all(|&(i, _)| i % 3 == 0), "rung changes must land on I-frames");
    assert!(trace.iter().any(|&(_, r)| r >= 2), "2× overload must cost at least two rungs");
    assert_eq!(trace.last(), Some(&(27, 0)), "the session must recover to full quality");
    assert_eq!(tx.rung_changes, 5);

    // Bottom rung sheds every second P-frame: 14, 17, 20 never leave
    // the encoder. Everything else ships.
    assert_eq!(tx.frames_sent, 33);
    assert_eq!(tx.watchdog_skips, 0, "70 ms is under the 3× abandon threshold");
    assert_eq!(tx.panics_contained, 0);
    assert!(tx.frames_degraded >= 15, "stats: {tx:?}");
    assert!(tx.clean_shutdown);

    // Delivery: shed P-frames surface as ordinary single-frame gaps —
    // no stall ever spans more than one frame interval, every I-frame
    // arrives, and the receiver needs no resync.
    let (frames, rx) = receive_all(&wire);
    assert_eq!(frames.len(), 33);
    assert_eq!(rx.frames_dropped, 3, "stats: {rx:?}");
    assert_eq!(rx.resyncs, 0, "P-frame shedding must never desync the receiver");
    let delivered: Vec<usize> = frames.iter().map(|&(i, _, _)| i).collect();
    for gof_start in (0..36).step_by(3) {
        assert!(delivered.contains(&gof_start), "I-frame {gof_start} must be delivered");
    }
    let max_gap = delivered.windows(2).map(|w| w[1] - w[0]).max().unwrap();
    assert!(max_gap <= 2, "no gap may span more than one missing frame: {delivered:?}");
    assert!(rx.clean_shutdown);
}

#[test]
fn the_watchdog_abandons_blown_p_frames_but_never_i_frames() {
    let video = clip(9);
    let clean = clean_clouds(&video);

    // Frame 4 (a P-slot) blows 2× the budget; everything else is fast.
    let mut supervisor = Supervisor::new(controller(100, 100))
        .with_load_profile(|idx, _| if idx == 4 { 500.0 } else { 10.0 });
    let (wire, tx) = supervised_wire(&video, &mut supervisor, &config());
    assert_eq!(tx.watchdog_skips, 1, "stats: {tx:?}");
    assert_eq!(tx.frames_sent, video.len() - 1);
    assert_eq!(tx.rung_changes, 0);

    let (frames, rx) = receive_all(&wire);
    assert_eq!(frames.len(), video.len() - 1);
    assert_eq!(rx.frames_dropped, 1);
    assert_eq!(rx.resyncs, 0);
    for (idx, _, cloud) in &frames {
        assert_ne!(*idx, 4, "the abandoned frame must not reach the wire");
        assert_eq!(cloud, &clean[*idx], "frame {idx} must stay bit-exact");
    }

    // The same blowup on an I-slot (frame 3) must ship anyway: I-frames
    // are the resync anchors and are never abandoned.
    let mut supervisor = Supervisor::new(controller(100, 100))
        .with_load_profile(|idx, _| if idx == 3 { 500.0 } else { 10.0 });
    let (_, tx) = supervised_wire(&video, &mut supervisor, &config());
    assert_eq!(tx.watchdog_skips, 0);
    assert_eq!(tx.frames_sent, video.len());
}

#[test]
fn a_p_frame_panic_costs_one_frame_and_the_rest_stay_bit_exact() {
    let video = clip(9);
    let clean = clean_clouds(&video);

    let mut supervisor = Supervisor::default().with_encode_fault(panic_on_frames(&[4]));
    let (wire, tx) = supervised_wire(&video, &mut supervisor, &config());
    assert_eq!(tx.panics_contained, 1, "stats: {tx:?}");
    assert_eq!(tx.frames_sent, video.len() - 1);
    assert!(tx.clean_shutdown, "a contained panic must not kill the session");

    let (frames, rx) = receive_all(&wire);
    assert_eq!(frames.len(), video.len() - 1);
    assert_eq!(rx.frames_dropped, 1);
    assert_eq!(rx.resyncs, 0);
    for (idx, _, cloud) in &frames {
        assert_eq!(cloud, &clean[*idx], "frame {idx} must decode bit-exact after the panic");
    }
}

#[test]
fn an_i_frame_panic_reanchors_the_group_as_intra() {
    let video = clip(9);
    let clean = clean_clouds(&video);

    let mut supervisor = Supervisor::default().with_encode_fault(panic_on_frames(&[3]));
    let (wire, tx) = supervised_wire(&video, &mut supervisor, &config());
    assert_eq!(tx.panics_contained, 1, "stats: {tx:?}");
    assert_eq!(tx.frames_sent, video.len() - 1);

    let (frames, rx) = receive_all(&wire);
    assert_eq!(frames.len(), video.len() - 1, "stats: {rx:?}");
    assert_eq!(rx.frames_dropped, 1);
    assert_eq!(rx.resyncs, 1, "the lost I-frame must cost exactly one resync");
    // The orphaned slots of the broken group re-anchor as intra-coded
    // pictures, so the receiver recovers *within* the group instead of
    // waiting for the next one.
    let reanchored: Vec<FrameKind> = frames
        .iter()
        .filter(|&&(i, _, _)| i == 4 || i == 5)
        .map(|&(_, k, _)| k)
        .collect();
    assert_eq!(reanchored, vec![FrameKind::Intra, FrameKind::Intra]);
    // Frames outside the broken group stay bit-exact.
    for (idx, _, cloud) in frames.iter().filter(|&&(i, _, _)| !(3..=5).contains(&i)) {
        assert_eq!(cloud, &clean[*idx], "frame {idx} must stay bit-exact");
    }
}

#[test]
fn receiver_feedback_drives_degradation_without_receiver_changes() {
    let video = clip(6);
    // A feedback slot already reporting loss: the very first observation
    // sees it and requests a step down, which lands at the next GOF.
    let feedback = SharedStats::new();
    feedback.publish(&StreamStats { frames_dropped: 5, ..StreamStats::default() });

    let mut supervisor = Supervisor::new(controller(1, 100))
        .with_feedback(feedback)
        .with_load_profile(|_, _| 5.0);
    let (wire, tx) = supervised_wire(&video, &mut supervisor, &config());
    assert_eq!(supervisor.controller().unwrap().trace(), &[(3, 1)], "stats: {tx:?}");
    assert_eq!(tx.rung_changes, 1);
    assert_eq!(tx.frames_degraded, 3, "frames 3..6 encode one rung down");

    // Degraded rungs stay wire-compatible: everything still decodes.
    let (frames, rx) = receive_all(&wire);
    assert_eq!(frames.len(), video.len());
    assert_eq!(rx.frames_dropped, 0);
}
