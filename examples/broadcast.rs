//! One capture rig, three very different viewers: a broadcast session
//! encodes each frame **once** and fans the coded payload out to a
//! healthy subscriber, a lossy one (seeded chunk loss + corruption), and
//! a throttled one whose per-subscriber controller sheds quality on the
//! wire — stripping the refinement attribute layer from I-frames and
//! striding P-frames — without ever touching the shared encoder.
//!
//! A fourth viewer joins mid-stream and is replayed the current GOF from
//! the frame history, so it renders immediately instead of waiting for
//! the next I-frame.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example broadcast
//! ```

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use pcc::adapt::{Controller, ControllerConfig, FakeClock, QualityLadder};
use pcc::core::{Design, PccCodec};
use pcc::datasets::catalog;
use pcc::edge::{Device, PowerMode};
use pcc::fault::{FaultConfig, FaultyTransport, ThrottledTransport};
use pcc::inter::InterConfig;
use pcc::serve::{Broadcast, SubscriberConfig};
use pcc::stream::{Receiver, StreamConfig};

/// Write-capture that outlives the session (which consumes its writers).
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn take(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn main() {
    let spec = catalog::by_name("Andrew10").expect("Andrew10 is in Table I");
    let video = spec.generate_scaled(12, 2_000);
    let depth = pcc::datasets::density_matched_depth(video.mean_points_per_frame());
    let device = Device::jetson_agx_xavier(PowerMode::W15);
    let codec = PccCodec::new(Design::IntraInterV1);
    println!(
        "broadcasting {}: {} frames x ~{} points (grid depth {depth})\n",
        video.name(),
        video.len(),
        video.mean_points_per_frame()
    );

    let mut session = Broadcast::new(&codec, depth, &device, &StreamConfig::default())
        .with_bounding_box(video.bounding_box().expect("non-empty video"));

    // Subscriber 1: a healthy wire — gets the shared stream verbatim.
    let healthy = SharedBuf::default();
    let healthy_id = session.subscribe(healthy.clone(), SubscriberConfig::default()).unwrap();

    // Subscriber 2: a lossy wire — ~8% of chunks vanish, a few are
    // corrupted in flight. Its receiver drops what the CRCs reject; the
    // broadcast and the other subscribers never notice.
    let lossy = SharedBuf::default();
    let faults = FaultConfig { drop: 0.08, corrupt: 0.04, immune_prefix: 1, ..FaultConfig::default() };
    session.subscribe(FaultyTransport::new(lossy.clone(), faults, 0xCAFE), SubscriberConfig::default()).unwrap();

    // Subscriber 3: a throttled wire charged on a fake clock (~8 µs per
    // byte against a 4 ms budget) with its own degradation controller:
    // the broadcast strips coded layers for *this* subscriber only.
    let clock = FakeClock::new();
    let throttled = SharedBuf::default();
    let controller = Controller::new(
        QualityLadder::standard(InterConfig::v1()),
        ControllerConfig { frame_budget_ms: 4.0, degrade_after: 3, upgrade_after: 100, headroom: 0.9 },
    );
    let throttled_id = session
        .subscribe(
            ThrottledTransport::new(throttled.clone(), Arc::new(clock.clone()), 8_000),
            SubscriberConfig {
                controller: Some(controller),
                clock: Some(Arc::new(clock.clone())),
                ..SubscriberConfig::default()
            },
        )
        .unwrap();

    // First half of the clip goes out live...
    for frame in video.iter().take(6) {
        session.push_frame(&frame.cloud);
    }

    // ...then a fourth viewer arrives mid-GOF: the frame history replays
    // the current group's I-frame (and trailing P-frames) so it renders
    // now, not at the next GOF boundary.
    let joiner = SharedBuf::default();
    session.subscribe(joiner.clone(), SubscriberConfig::default()).unwrap();

    for frame in video.iter().skip(6) {
        session.push_frame(&frame.cloud);
    }

    if let Some(trace) = session.controller_trace(throttled_id) {
        println!("throttled subscriber rung trace (frame, rung): {trace:?}");
    }
    print!(
        "healthy subscriber counters so far:\n{}",
        session.subscriber_stats(healthy_id).expect("healthy subscriber is live")
    );

    let stats = session.finish();
    println!("session counters ({:.1}x fan-out per encode):", stats.fanout_ratio());
    println!("{stats}");

    // What each viewer actually saw:
    for (name, wire) in [
        ("healthy", healthy.take()),
        ("lossy", lossy.take()),
        ("throttled", throttled.take()),
        ("late join", joiner.take()),
    ] {
        let mut rx = Receiver::new(wire.as_slice(), &device);
        let mut first = None;
        let mut delivered = 0usize;
        while let Some(frame) = rx.recv_frame().expect("in-memory wire") {
            first = first.or(Some(frame.frame_index));
            delivered += 1;
        }
        let rx = rx.into_stats();
        println!(
            "{name:>9}: {delivered:>2} frames from frame {} ({} dropped, {} resyncs, clean: {})",
            first.map_or_else(|| "-".into(), |i| i.to_string()),
            rx.frames_dropped,
            rx.resyncs,
            rx.clean_shutdown,
        );
    }

    assert_eq!(stats.frames_encoded, video.len() as u64);
    assert_eq!(stats.late_joins, 1);
    assert!(stats.sheds_refinement > 0, "the throttled viewer should have been degraded");
}
