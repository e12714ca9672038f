//! Streaming transport acceptance: incremental receive must match the
//! offline decoder bit for bit on clean wires, and degrade to dropped
//! frames — never panics or wrong pictures — on corrupted ones.

use std::num::NonZeroUsize;

use pcc::core::{Design, PccCodec};
use pcc::datasets::catalog;
use pcc::edge::{Device, PowerMode};
use pcc::stream::{
    encode_chunk, stream_video, Chunk, ChunkKind, ChunkReader, Delivered, Receiver, Sender,
    StreamConfig, StreamStats, Supervisor,
};
use pcc::types::{PointCloud, Video};

fn device() -> Device {
    Device::jetson_agx_xavier(PowerMode::W15)
}

fn clip(frames: usize) -> Video {
    catalog::by_name("Soldier").unwrap().generate_scaled(frames, 1_500)
}

fn receive_all(wire: &[u8], d: &Device) -> (Vec<Delivered>, StreamStats) {
    let mut rx = Receiver::new(wire, d);
    let mut out = Vec::new();
    while let Some(frame) = rx.recv_frame().expect("in-memory transport cannot fail") {
        out.push(frame);
    }
    (out, rx.into_stats())
}

/// Splits a wire capture back into its chunks (all intact here).
fn chunks_of(wire: &[u8]) -> Vec<Chunk> {
    let mut reader = ChunkReader::new(wire);
    let mut chunks = Vec::new();
    while let Some(c) = reader.next_chunk().unwrap() {
        chunks.push(c);
    }
    assert_eq!(reader.corrupt_events(), 0, "capture should be clean");
    chunks
}

fn reassemble(chunks: &[Chunk]) -> Vec<u8> {
    chunks.iter().flat_map(encode_chunk).collect()
}

#[test]
fn incremental_receive_matches_offline_decode_bit_for_bit() {
    let video = clip(8);
    for design in [Design::IntraInterV1, Design::IntraInterV2] {
        let codec = PccCodec::new(design);
        for threads in [NonZeroUsize::new(1), None] {
            let d = device().with_host_threads(threads);
            let offline: Vec<PointCloud> = {
                let enc = codec.encode_video(&video, 7, &d);
                codec.decode_video(&enc, &d).unwrap()
            };

            let (wire, tx) = pipelined(&codec, &video, &d, &StreamConfig::default());
            assert_eq!(tx.frames_sent, video.len(), "{design}");
            assert!(tx.clean_shutdown);

            let (delivered, rx) = receive_all(&wire, &d);
            assert_eq!(delivered.len(), offline.len(), "{design} lost frames");
            assert_eq!(rx.frames_dropped, 0);
            assert_eq!(rx.resyncs, 0);
            assert!(rx.clean_shutdown);
            assert_eq!(rx.bytes_received, tx.bytes_sent);
            for (i, frame) in delivered.iter().enumerate() {
                assert_eq!(frame.frame_index, i);
                assert_eq!(
                    frame.cloud, offline[i],
                    "{design} threads={threads:?}: frame {i} diverged from offline decode"
                );
            }
        }
    }
}

/// The unsupervised pipelined sender's wire and sender stats.
fn pipelined(
    codec: &PccCodec,
    video: &Video,
    d: &Device,
    config: &StreamConfig,
) -> (Vec<u8>, StreamStats) {
    stream_video(codec, video, 7, d, Vec::new(), config, &mut Supervisor::default()).unwrap()
}

/// `stream_video` is a `Sender` given the video's shared bounding box and
/// its frame period as the budget: same wire, same stats, for every
/// design, at the default budget and at one every frame blows.
#[test]
fn push_sender_wire_matches_pipelined_sender() {
    let video = clip(6);
    let d = device();
    let period_ms = 1000.0 / f64::from(video.fps());
    for design in Design::ALL {
        let codec = PccCodec::new(design);
        for budget in [None, Some(0.001)] {
            let config = StreamConfig { frame_budget_ms: budget, ..StreamConfig::default() };
            let (piped, piped_stats) = pipelined(&codec, &video, &d, &config);

            let push_budget = Some(budget.unwrap_or(period_ms));
            let push_config = StreamConfig { frame_budget_ms: push_budget, ..config };
            let mut sender = Sender::new(&codec, 7, &d, Vec::new(), &push_config)
                .unwrap()
                .with_bounding_box(video.bounding_box().unwrap());
            for frame in video.iter() {
                sender.send_frame(&frame.cloud).unwrap();
            }
            let (pushed, stats) = sender.finish().unwrap();
            assert_eq!(stats.frames_sent, video.len());
            assert_eq!(
                pushed, piped,
                "{design} budget {budget:?}: push and pipelined senders must emit identical wires"
            );
            assert_eq!(stats, piped_stats, "{design} budget {budget:?}");
            if budget.is_some() {
                // Every frame blows a 1 µs budget.
                assert_eq!(stats.frames_over_budget, video.len(), "{design}");
            }
        }
    }
}

#[test]
fn corrupting_a_full_gof_drops_it_and_resyncs_at_next_intra() {
    // 12 frames = 4 IPP groups; corrupt every chunk of GOF 1 (frames
    // 3..6) so both its I-frame and its P-frames are lost.
    let video = clip(12);
    let d = device();
    let codec = PccCodec::new(Design::IntraInterV1);
    let clean_wire = wire_clean(&codec, &video, &d);
    let (clean, _) = receive_all(&clean_wire, &d);
    assert_eq!(clean.len(), 12);

    // Corrupt *after* framing (re-encoding a mutated chunk would stamp a
    // fresh, valid CRC over the damage): flip one payload byte in every
    // chunk of GOF 1's frames.
    let mut wire = Vec::new();
    for chunk in chunks_of(&clean_wire) {
        let mut bytes = encode_chunk(&chunk);
        if chunk.kind == ChunkKind::Frame && (3..6).contains(&(chunk.frame_index as usize)) {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
        }
        wire.extend_from_slice(&bytes);
    }

    let (delivered, rx) = receive_all(&wire, &d);
    // Frames 3, 4, 5 are gone; everything else must survive.
    assert_eq!(rx.frames_dropped, 3, "stats: {rx:?}");
    assert_eq!(rx.resyncs, 1, "stats: {rx:?}");
    assert!(rx.corrupt_events >= 3);
    assert!(rx.clean_shutdown);
    let indices: Vec<usize> = delivered.iter().map(|f| f.frame_index).collect();
    assert_eq!(indices, vec![0, 1, 2, 6, 7, 8, 9, 10, 11]);
    for frame in &delivered {
        assert_eq!(
            frame.cloud, clean[frame.frame_index].cloud,
            "frame {} diverged after resync",
            frame.frame_index
        );
    }
}

fn wire_clean(codec: &PccCodec, video: &Video, d: &Device) -> Vec<u8> {
    pipelined(codec, video, d, &StreamConfig::default()).0
}

#[test]
fn losing_one_predicted_frame_costs_only_itself() {
    let video = clip(9);
    let d = device();
    let codec = PccCodec::new(Design::IntraInterV2);
    let wire = wire_clean(&codec, &video, &d);
    let (clean, _) = receive_all(&wire, &d);

    // Drop frame 4 (a P-frame mid-GOF) from the wire entirely.
    let chunks: Vec<Chunk> = chunks_of(&wire)
        .into_iter()
        .filter(|c| !(c.kind == ChunkKind::Frame && c.frame_index == 4))
        .collect();
    let (delivered, rx) = receive_all(&reassemble(&chunks), &d);

    // P-frames reference only their GOF's I-frame, so frame 5 still
    // decodes; no resync is needed because sync was never lost.
    assert_eq!(rx.frames_dropped, 1);
    assert_eq!(rx.resyncs, 0, "P loss must not count as a resync");
    let indices: Vec<usize> = delivered.iter().map(|f| f.frame_index).collect();
    assert_eq!(indices, vec![0, 1, 2, 3, 5, 6, 7, 8]);
    for frame in &delivered {
        assert_eq!(frame.cloud, clean[frame.frame_index].cloud, "frame {}", frame.frame_index);
    }
}

#[test]
fn losing_an_intra_frame_orphans_its_gof() {
    let video = clip(9);
    let d = device();
    let codec = PccCodec::new(Design::IntraInterV1);
    let wire = wire_clean(&codec, &video, &d);
    let (clean, _) = receive_all(&wire, &d);

    // Drop frame 3 — the I-frame of GOF 1. Its P-frames (4, 5) arrive
    // intact but must not be decoded against GOF 0's reference.
    let chunks: Vec<Chunk> = chunks_of(&wire)
        .into_iter()
        .filter(|c| !(c.kind == ChunkKind::Frame && c.frame_index == 3))
        .collect();
    let (delivered, rx) = receive_all(&reassemble(&chunks), &d);

    assert_eq!(rx.frames_dropped, 3, "I + its two orphaned Ps: {rx:?}");
    assert_eq!(rx.resyncs, 1);
    let indices: Vec<usize> = delivered.iter().map(|f| f.frame_index).collect();
    assert_eq!(indices, vec![0, 1, 2, 6, 7, 8]);
    for frame in &delivered {
        assert_eq!(frame.cloud, clean[frame.frame_index].cloud, "frame {}", frame.frame_index);
    }
}

#[test]
fn tail_loss_is_reported_via_the_end_chunk() {
    let video = clip(6);
    let d = device();
    let codec = PccCodec::new(Design::IntraInterV1);
    let wire = wire_clean(&codec, &video, &d);

    // Drop the last two frames but keep the end chunk.
    let chunks: Vec<Chunk> = chunks_of(&wire)
        .into_iter()
        .filter(|c| !(c.kind == ChunkKind::Frame && c.frame_index >= 4))
        .collect();
    let (delivered, rx) = receive_all(&reassemble(&chunks), &d);
    assert_eq!(delivered.len(), 4);
    assert_eq!(rx.frames_dropped, 2, "end chunk must reveal tail loss: {rx:?}");
    assert!(rx.clean_shutdown);

    // Without the end chunk the transport just ends: no clean shutdown.
    let chunks: Vec<Chunk> =
        chunks_of(&wire).into_iter().filter(|c| c.kind != ChunkKind::End).collect();
    let (delivered, rx) = receive_all(&reassemble(&chunks), &d);
    assert_eq!(delivered.len(), 6);
    assert!(!rx.clean_shutdown);
}

#[test]
fn headerless_streams_deliver_nothing_but_do_not_panic() {
    let video = clip(3);
    let d = device();
    let codec = PccCodec::new(Design::IntraInterV1);
    let wire = wire_clean(&codec, &video, &d);
    let chunks: Vec<Chunk> =
        chunks_of(&wire).into_iter().filter(|c| c.kind != ChunkKind::StreamHeader).collect();
    let (delivered, rx) = receive_all(&reassemble(&chunks), &d);
    assert!(delivered.is_empty(), "no design known, nothing decodable");
    assert_eq!(rx.frames_dropped, 3);
}

#[test]
fn announced_join_points_exclude_pre_join_frames_from_loss() {
    let video = clip(9);
    let d = device();
    let codec = PccCodec::new(Design::IntraInterV1);
    let wire = wire_clean(&codec, &video, &d);
    let (clean, _) = receive_all(&wire, &d);

    // A broadcast-style mid-stream tail: [header, I3, P4, ..., end].
    // Frames 0..3 were never sent to this subscriber.
    let chunks: Vec<Chunk> = chunks_of(&wire)
        .into_iter()
        .filter(|c| c.kind != ChunkKind::Frame || c.frame_index >= 3)
        .collect();
    let tail = reassemble(&chunks);

    // Without a declared join point, the receiver has no way to tell a
    // late join from loss: frames 0..3 are booked as dropped.
    let (_, rx) = receive_all(&tail, &d);
    assert_eq!(rx.frames_dropped, 3);

    // With the join point declared, nothing before it counts as loss —
    // not mid-stream and not in the end chunk's tail accounting.
    let mut rx = Receiver::new(tail.as_slice(), &d).with_join_at(3);
    let mut delivered = Vec::new();
    while let Some(frame) = rx.recv_frame().unwrap() {
        delivered.push(frame);
    }
    let stats = rx.into_stats();
    assert_eq!(stats.frames_dropped, 0, "pre-join frames booked as loss: {stats:?}");
    assert_eq!(stats.resyncs, 0);
    assert!(stats.clean_shutdown);
    let indices: Vec<usize> = delivered.iter().map(|f| f.frame_index).collect();
    assert_eq!(indices, vec![3, 4, 5, 6, 7, 8]);
    for frame in &delivered {
        assert_eq!(frame.cloud, clean[frame.frame_index].cloud, "frame {}", frame.frame_index);
    }

    // Loss *after* the join point still counts: drop P4 from the tail.
    let chunks: Vec<Chunk> = chunks_of(&tail)
        .into_iter()
        .filter(|c| !(c.kind == ChunkKind::Frame && c.frame_index == 4))
        .collect();
    let trimmed = reassemble(&chunks);
    let mut rx = Receiver::new(trimmed.as_slice(), &d).with_join_at(3);
    while rx.recv_frame().unwrap().is_some() {}
    let stats = rx.into_stats();
    assert_eq!(stats.frames_dropped, 1, "post-join loss must still be booked: {stats:?}");
}

#[test]
fn the_extended_stream_header_announces_the_join_point() {
    let video = clip(6);
    let d = device();
    let codec = PccCodec::new(Design::IntraInterV1);
    let wire = wire_clean(&codec, &video, &d);

    // Rewrite the header the way a broadcaster does for a late joiner:
    // append the join frame index to the header payload. Everything
    // else on the wire stays untouched.
    let chunks: Vec<Chunk> = chunks_of(&wire)
        .into_iter()
        .filter(|c| c.kind != ChunkKind::Frame || c.frame_index >= 3)
        .map(|mut c| {
            if c.kind == ChunkKind::StreamHeader {
                c.payload.extend_from_slice(&3u32.to_le_bytes());
            }
            c
        })
        .collect();

    // A plain receiver — no builder hint — honors the announced join
    // point: legacy receivers ignore the extra header bytes, extended
    // ones stop booking the pre-join range as loss.
    let (delivered, rx) = receive_all(&reassemble(&chunks), &d);
    assert_eq!(rx.frames_dropped, 0, "the header's join point was ignored: {rx:?}");
    assert!(rx.clean_shutdown);
    let indices: Vec<usize> = delivered.iter().map(|f| f.frame_index).collect();
    assert_eq!(indices, vec![3, 4, 5]);
}

#[test]
fn damaged_brick_frame_is_delivered_partially_and_booked_as_such() {
    use pcc::inter::InterConfig;
    use pcc::intra::IntraConfig;

    let video = clip(6);
    let d = device();
    let codec = PccCodec::with_inter_config(InterConfig {
        intra: IntraConfig::default().with_bricks(2),
        ..InterConfig::v1()
    });
    let clean_wire = wire_clean(&codec, &video, &d);
    let (clean, clean_rx) = receive_all(&clean_wire, &d);
    assert_eq!(clean.len(), 6, "brick frames must stream losslessly on a clean wire");
    assert_eq!(clean_rx.partial_frames, 0);

    // Flip one byte inside I-frame 3's attribute stream: it lands in
    // one brick's attribute payload, past the CRC-guarded brick index.
    // (The container record's tail is a few varints of metadata, so aim
    // well short of the end.) Re-encoding the chunk stamps a fresh chunk
    // CRC over the damage, modelling corruption the transport layer
    // cannot see (a bad sender buffer, a re-framing middlebox).
    let mut chunks = chunks_of(&clean_wire);
    let victim = chunks
        .iter_mut()
        .filter(|c| c.kind == ChunkKind::Frame && c.frame_index == 3)
        .last()
        .expect("frame 3 on the wire");
    let at = victim.payload.len() - 32;
    victim.payload[at] ^= 0x01;
    let (delivered, rx) = receive_all(&reassemble(&chunks), &d);

    // Frame 3 arrives partially; its orphaned P-frames (4, 5) are lost
    // because a partial picture never anchors the reference chain.
    let indices: Vec<usize> = delivered.iter().map(|f| f.frame_index).collect();
    assert_eq!(indices, vec![0, 1, 2, 3], "stats: {rx:?}");
    assert_eq!(rx.frames_delivered, 4);
    assert_eq!(rx.frames_dropped, 2, "orphaned P-frames: {rx:?}");
    assert_eq!(rx.partial_frames, 1);
    assert!(rx.bricks_dropped >= 1, "stats: {rx:?}");

    for frame in &delivered[..3] {
        assert_eq!(frame.partial, None);
        assert_eq!(frame.cloud, clean[frame.frame_index].cloud, "frame {}", frame.frame_index);
    }
    let partial = &delivered[3];
    let (dropped, total) = partial.partial.expect("frame 3 must be marked partial");
    assert_eq!(dropped, rx.bricks_dropped);
    assert!(dropped >= 1 && dropped < total, "{dropped}/{total}");

    // The survivors are byte-identical to the same bricks of a clean
    // decode: a strict subset, never a repaint.
    let full: std::collections::BTreeSet<_> = clean[3]
        .cloud
        .iter()
        .map(|(p, c)| ((p.x.to_bits(), p.y.to_bits(), p.z.to_bits()), c))
        .collect();
    let salvaged: Vec<_> = partial
        .cloud
        .iter()
        .map(|(p, c)| ((p.x.to_bits(), p.y.to_bits(), p.z.to_bits()), c))
        .collect();
    assert!(salvaged.len() < full.len(), "damage must cost points: {}", salvaged.len());
    assert!(!salvaged.is_empty(), "undamaged bricks must survive");
    for entry in &salvaged {
        assert!(full.contains(entry), "salvaged point absent from the clean decode");
    }
}

#[test]
fn chunk_payload_offsets_and_container_errors_are_stream_absolute() {
    let video = clip(3);
    let d = device();
    let codec = PccCodec::new(Design::IntraInterV1);
    let wire = wire_clean(&codec, &video, &d);

    // Every payload offset the reader reports must index into the
    // original wire — this is what lets the session pass stream-absolute
    // positions down to the container parser.
    let mut reader = ChunkReader::new(wire.as_slice());
    let mut seen = 0;
    while let Some(chunk) = reader.next_chunk().unwrap() {
        let off = reader.last_payload_offset().expect("offset recorded per chunk") as usize;
        assert_eq!(
            wire.get(off..off + chunk.payload.len()),
            Some(chunk.payload.as_slice()),
            "payload offset must be wire-absolute, not frame-relative"
        );
        seen += 1;
    }
    assert!(seen > 3, "header + frames + end expected");

    // demux errors are rebased by the caller-supplied stream offset, so
    // a diagnostic points at the wire position, not "offset 0 again".
    let mut input = &[][..];
    let err = pcc::core::container::demux_frame(&mut input, 1_000).unwrap_err();
    assert_eq!(err, pcc::types::DecodeError::Truncated { offset: 1_000 });
}

#[test]
fn foreign_stream_chunks_are_ignored() {
    let video = clip(3);
    let d = device();
    let codec = PccCodec::new(Design::IntraInterV1);
    let wire_a = wire_clean(&codec, &video, &d);
    let config_b = StreamConfig { stream_id: 7, ..StreamConfig::default() };
    let wire_b = pipelined(&codec, &video, &d, &config_b).0;

    // Interleave the two sessions chunk by chunk on one wire; end with
    // stream A's end chunk last so its tail accounting still runs.
    let a = chunks_of(&wire_a);
    let b = chunks_of(&wire_b);
    let mut mixed = Vec::new();
    for i in 0..a.len().max(b.len()) {
        if let Some(c) = b.get(i) {
            mixed.push(c.clone());
        }
        if let Some(c) = a.get(i) {
            mixed.push(c.clone());
        }
    }
    let (delivered, rx) = receive_all(&reassemble(&mixed), &d);
    // Stream B arrives first, so the receiver locks onto id 7 and drops
    // stream A's chunks; A's trailing end chunk is never read because
    // B's end chunk already closed the session.
    assert_eq!(delivered.len(), video.len());
    assert!(delivered.iter().all(|f| f.frame_index < video.len()));
    assert_eq!(rx.chunks_dropped, a.len() - 1, "stream A ignored: {rx:?}");
}
