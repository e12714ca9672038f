//! Deterministic decode-surface fuzzing: seeded mutations of real
//! bitstreams (byte flips, truncations, splices, length-field inflation)
//! driven through every public decode entry point. The only acceptable
//! outcomes are `Ok` with a structurally valid result or a typed `Err` —
//! a panic, abort, or limit-busting allocation is a bug.
//!
//! Every mutation is drawn from a fixed-seed [`SmallRng`], so a failure
//! reproduces exactly from the printed iteration number; there is no
//! corpus directory and no time-dependent input.

use std::io::{self, Write};
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};

use pcc::core::{container, Design, PccCodec};
use pcc::datasets::catalog;
use pcc::edge::{Device, PowerMode};
use pcc::octree::{decode_occupancy_with, ParallelOctree};
use pcc::serve::{Broadcast, SubscriberConfig};
use pcc::stream::{encode_chunk, ChunkKind, ChunkReader, Receiver, Sender, StreamConfig};
use pcc::types::{Limits, Video, VoxelizedCloud};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0xFEED_5EED;

/// A small fixture keeps the happy-path decodes (mutations that land in
/// don't-care bytes) cheap enough for a 10k+ iteration debug-mode run.
fn clip() -> Video {
    catalog::by_name("Longdress").unwrap().generate_scaled(2, 600)
}

fn device(threads: usize) -> Device {
    Device::jetson_agx_xavier(PowerMode::W15).with_host_threads(NonZeroUsize::new(threads))
}

fn max_threads() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Applies one seeded mutation to a copy of `original`: a burst of bit
/// flips, a truncation, a self-splice (a window copied over another
/// offset — shifts every downstream field), or a length-field inflation
/// (a 4-byte little-endian run saturated to `0xFFFF_FFFF`, the classic
/// "allocate 4 GiB please" attack on wire-declared sizes).
fn mutate(rng: &mut SmallRng, original: &[u8]) -> Vec<u8> {
    let mut bytes = original.to_vec();
    if bytes.is_empty() {
        return bytes;
    }
    match rng.random_range(0..4u32) {
        0 => {
            for _ in 0..rng.random_range(1..=8usize) {
                let pos = rng.random_range(0..bytes.len());
                let bit = rng.random_range(0..8u32);
                if let Some(b) = bytes.get_mut(pos) {
                    *b ^= 1 << bit;
                }
            }
        }
        1 => {
            let keep = rng.random_range(0..bytes.len());
            bytes.truncate(keep);
        }
        2 => {
            let src = rng.random_range(0..bytes.len());
            let dst = rng.random_range(0..bytes.len());
            let len = rng.random_range(1..=32usize).min(bytes.len());
            let window: Vec<u8> = bytes.iter().copied().skip(src).take(len).collect();
            for (i, b) in window.into_iter().enumerate() {
                if let Some(slot) = bytes.get_mut(dst.saturating_add(i)) {
                    *slot = b;
                }
            }
        }
        _ => {
            let pos = rng.random_range(0..bytes.len());
            for i in 0..4usize {
                if let Some(b) = bytes.get_mut(pos.saturating_add(i)) {
                    *b = 0xFF;
                }
            }
        }
    }
    bytes
}

/// Demux + full frame-decode of a mutated container under explicit
/// limits. Success and typed errors are both fine; only panics fail.
fn drive_container(mutated: &[u8], codec: &PccCodec, d: &Device, limits: Limits) {
    let Ok(video) = container::demux_with(mutated, &limits) else {
        return;
    };
    let mut decoder = codec.frame_decoder(d).with_limits(limits);
    for frame in &video.frames {
        if decoder.decode_frame(frame).is_err() {
            break;
        }
    }
}

#[test]
fn mutated_containers_never_panic_demux_or_decode() {
    let video = clip();
    for design in Design::ALL {
        let codec = PccCodec::new(design);
        for threads in [1, max_threads()] {
            let d = device(threads);
            let original = container::mux(&codec.encode_video(&video, 7, &d));
            // Sanity: the unmutated bytes survive both limit regimes.
            drive_container(&original, &codec, &d, Limits::default());
            drive_container(&original, &codec, &d, Limits::strict());
            assert!(container::demux(&original).is_ok());

            let mut rng = SmallRng::seed_from_u64(SEED ^ (design as u64) << 8 ^ threads as u64);
            for _ in 0..650 {
                let mutated = mutate(&mut rng, &original);
                drive_container(&mutated, &codec, &d, Limits::default());
                drive_container(&mutated, &codec, &d, Limits::strict());
            }
        }
    }
}

#[test]
fn mutated_occupancy_streams_never_panic() {
    let video = clip();
    let vox = VoxelizedCloud::from_cloud(&video.frame(0).unwrap().cloud, 7);
    let original = ParallelOctree::from_coords(vox.coords(), 7).serialize();
    assert!(decode_occupancy_with(&original, &Limits::strict()).is_ok());

    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x0C7);
    for _ in 0..2_500 {
        let mutated = mutate(&mut rng, &original);
        // Strict limits also bound the frontier a hostile stream can
        // declare; both regimes must return, not panic.
        let _ = decode_occupancy_with(&mutated, &Limits::strict());
        let _ = decode_occupancy_with(&mutated, &Limits::default());
    }
}

#[test]
fn mutated_brick_frames_never_panic_any_decode_entry_point() {
    use pcc::intra::{IntraCodec, IntraConfig};

    let video = clip();
    let vox = VoxelizedCloud::from_cloud(&video.frame(0).unwrap().cloud, 7);
    let d = device(1);
    let codec = IntraCodec::new(IntraConfig::default().with_bricks(2).with_threads(1));
    let frame = codec.encode(&vox, &d);
    assert!(codec.decode(&frame, &d).is_ok(), "clean brick frame must decode");

    let viewport = vox.grid_box();
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0xB71C);
    for iter in 0..2_200u32 {
        let mut mutated = frame.clone();
        // Round-robin the target: the geometry stream (magic, CRC-guarded
        // brick index, per-brick geometry payloads) twice as often as the
        // attribute stream (per-brick attribute payloads).
        if iter % 3 == 2 {
            mutated.attribute = mutate(&mut rng, &frame.attribute);
        } else {
            mutated.geometry = mutate(&mut rng, &frame.geometry);
        }
        for limits in [Limits::default(), Limits::strict()] {
            let _ = codec.decode_with_limits(&mutated, &d, &limits);
            let _ = codec.brick_index(&mutated, &limits);
            let _ = codec.decode_viewport(&mutated, &d, &limits, &viewport);
            let _ = codec.decode_bricks_lossy(&mutated, &d, &limits);
        }
    }
}

#[test]
fn damaged_brick_payloads_never_corrupt_sibling_bricks() {
    use pcc::intra::{IntraCodec, IntraConfig};
    use pcc::types::{Rgb, VoxelCoord};

    let video = clip();
    let vox = VoxelizedCloud::from_cloud(&video.frame(0).unwrap().cloud, 7);
    let d = device(1);
    let limits = Limits::default();
    let codec = IntraCodec::new(IntraConfig::default().with_bricks(2).with_threads(1));
    let frame = codec.encode(&vox, &d);
    let index = codec.brick_index(&frame, &limits).expect("clean index parses");
    assert!(index.len() > 2, "fixture must span several bricks");

    // Clean per-brick reference decodes, in cell order.
    let clean: Vec<(Vec<VoxelCoord>, Vec<Rgb>)> = index
        .entries()
        .iter()
        .map(|entry| {
            let cell = entry.cell;
            let one = codec
                .decode_bricks(&frame, &d, &limits, |e, _| e.cell == cell)
                .expect("clean brick decodes");
            (one.coords().to_vec(), one.colors().to_vec())
        })
        .collect();

    // Payload bytes start where the first brick's geometry payload does;
    // everything before that is the CRC-guarded index (whose damage is
    // total loss by design, exercised in the panic-safety test above).
    let geom_payload_start =
        index.entries().iter().map(|e| e.geom.start).min().expect("non-empty index");

    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x51B1);
    for _ in 0..400 {
        let mut mutated = frame.clone();
        // Flip 1..=6 bits across the two payload regions, never the index.
        for _ in 0..rng.random_range(1..=6usize) {
            let (buf, base) = if rng.random_range(0..2u32) == 0 {
                (&mut mutated.geometry, geom_payload_start)
            } else {
                (&mut mutated.attribute, 0)
            };
            let pos = base + rng.random_range(0..buf.len() - base);
            let bit = rng.random_range(0..8u32);
            buf[pos] ^= 1 << bit;
        }

        let salvage = codec
            .decode_bricks_lossy(&mutated, &d, &limits)
            .expect("an intact index always salvages");
        assert_eq!(salvage.bricks_total, index.len());
        assert!(salvage.bricks_dropped >= 1, "a flipped payload bit must fail its brick CRC");

        // The salvaged cloud must be exactly the clean bricks minus the
        // dropped ones, in cell order: greedy-match each clean brick's
        // block against the remaining output. Blocks of distinct bricks
        // can never collide (their coords live in distinct cells), so a
        // failed match means that brick was dropped — anything left over
        // at the end would be corrupt sibling output.
        let (mut coords, mut colors) = (salvage.cloud.coords(), salvage.cloud.colors());
        let mut skipped = 0usize;
        for (c, k) in &clean {
            if coords.len() >= c.len()
                && &coords[..c.len()] == c.as_slice()
                && &colors[..k.len()] == k.as_slice()
            {
                coords = &coords[c.len()..];
                colors = &colors[k.len()..];
            } else {
                skipped += 1;
            }
        }
        assert!(coords.is_empty(), "salvage emitted bytes matching no clean brick");
        assert!(colors.is_empty());
        assert_eq!(skipped, salvage.bricks_dropped, "drop accounting must match the output");
    }
}

#[test]
fn mutated_chunk_streams_never_panic_the_receiver() {
    let video = clip();
    let d = device(1);
    let codec = PccCodec::new(Design::IntraInterV1);
    let mut tx = Sender::new(&codec, 7, &d, Vec::new(), &StreamConfig::default()).unwrap();
    for frame in video.iter() {
        tx.send_frame(&frame.cloud).unwrap();
    }
    let (original, _) = tx.finish().unwrap();

    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x5717);
    for _ in 0..1_600 {
        let mutated = mutate(&mut rng, &original);
        let mut rx = Receiver::new(mutated.as_slice(), &d);
        // A finite wire must always terminate: clean end, or an error.
        while let Ok(Some(_)) = rx.recv_frame() {}
    }
}

/// Write-capture that outlives the broadcast consuming its writers.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn mutated_resync_replays_never_panic_a_joiner_or_desync_the_room() {
    // A broadcast whose late joiner is served from the frame history:
    // its wire opens [extended header, cached I3, cached P4, live ...].
    // That replayed prefix is attacker-visible bytes like any other —
    // mutations must never panic the joiner's receiver, and since each
    // subscriber has its own wire, can never touch the rest of the room.
    let video = catalog::by_name("Longdress").unwrap().generate_scaled(5, 600);
    let d = device(1);
    let codec = PccCodec::new(Design::IntraInterV1);
    let mut session = Broadcast::new(&codec, 7, &d, &StreamConfig::default())
        .with_bounding_box(video.bounding_box().unwrap());
    let room = SharedBuf::default();
    session.subscribe(room.clone(), SubscriberConfig::default()).unwrap();
    for frame in video.iter().take(5) {
        session.push_frame(&frame.cloud);
    }
    let joiner = SharedBuf::default();
    session.subscribe(joiner.clone(), SubscriberConfig::default()).unwrap();
    let stats = session.finish();
    assert_eq!(stats.replayed_frames, 2, "the cache must hold [I3, P4]");

    let original = joiner.0.lock().unwrap().clone();
    let mut rx = Receiver::new(original.as_slice(), &d);
    let mut clean = Vec::new();
    while let Some(frame) = rx.recv_frame().unwrap() {
        clean.push(frame);
    }
    assert_eq!(rx.into_stats().frames_dropped, 0, "baseline replay must be lossless");
    assert_eq!(clean.first().map(|f| f.frame_index), Some(3));

    // Locate the replayed I-frame chunk's byte range on the wire so the
    // second loop can concentrate fire on the cached-then-corrupted-I
    // scenario specifically.
    let mut reader = ChunkReader::new(original.as_slice());
    let mut offset = 0usize;
    let mut i_chunk = None;
    while let Some(c) = reader.next_chunk().unwrap() {
        let len = encode_chunk(&c).len();
        if c.kind == ChunkKind::Frame && i_chunk.is_none() {
            i_chunk = Some((offset, len));
        }
        offset += len;
    }
    let (i_start, i_len) = i_chunk.expect("replay must contain the cached I-frame");

    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x10B5);
    for _ in 0..900 {
        // Whole-wire mutations: header, replay, live tail, end chunk.
        let mutated = mutate(&mut rng, &original);
        let mut rx = Receiver::new(mutated.as_slice(), &d);
        while let Ok(Some(_)) = rx.recv_frame() {}
    }
    for _ in 0..900 {
        // Bit flips inside the cached I-frame chunk only: the CRCs must
        // reject it, degrading the joiner (lost GOF) instead of feeding
        // the decoder a wrong picture — and never panicking.
        let mut mutated = original.clone();
        for _ in 0..rng.random_range(1..=4usize) {
            let pos = i_start + rng.random_range(0..i_len);
            let bit = rng.random_range(0..8u32);
            if let Some(b) = mutated.get_mut(pos) {
                *b ^= 1 << bit;
            }
        }
        let mut rx = Receiver::new(mutated.as_slice(), &d);
        let mut delivered = Vec::new();
        while let Ok(Some(frame)) = rx.recv_frame() {
            delivered.push(frame);
        }
        for frame in &delivered {
            let reference = clean
                .iter()
                .find(|c| c.frame_index == frame.frame_index)
                .expect("joiner can only ever see frames the broadcast sent it");
            assert_eq!(
                frame.cloud, reference.cloud,
                "corrupt replay delivered a wrong frame {}",
                frame.frame_index
            );
        }
    }

    // The rest of the room shares no bytes with the joiner's wire: its
    // capture still replays every frame losslessly.
    let room_wire = room.0.lock().unwrap().clone();
    let mut rx = Receiver::new(room_wire.as_slice(), &d);
    let mut seen = 0usize;
    while let Some(_frame) = rx.recv_frame().unwrap() {
        seen += 1;
    }
    assert_eq!(seen, 5);
    assert_eq!(rx.into_stats().frames_dropped, 0);
}
