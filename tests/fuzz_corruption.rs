//! Property-based corruption fuzzing: random byte mutations, truncations,
//! and splices against every decoder in the workspace — including the
//! streaming chunk layer. Decoders may reject input or produce garbage
//! values, but must never panic, and a streaming receiver must never
//! deliver a frame that differs from its clean-run counterpart.

use std::sync::OnceLock;

use pcc::core::{container, Design, PccCodec};
use pcc::datasets::catalog;
use pcc::edge::{Device, PowerMode};
use pcc::intra::{IntraCodec, IntraConfig, IntraFrame};
use pcc::stream::{
    encode_chunk, stream_video, Chunk, ChunkReader, Receiver, StreamConfig, Supervisor,
};
use pcc::types::{PointCloud, VoxelizedCloud};
use proptest::prelude::*;

fn device() -> Device {
    Device::jetson_agx_xavier(PowerMode::W15)
}

fn sample_frame() -> IntraFrame {
    let cloud = catalog::by_name("Loot").unwrap().generator_with_points(600).frame_cloud(0);
    let vox = VoxelizedCloud::from_cloud(&cloud, 6);
    IntraCodec::new(IntraConfig::paper()).encode(&vox, &device())
}

fn sample_container() -> Vec<u8> {
    let video = catalog::by_name("Loot").unwrap().generate_scaled(2, 400);
    let encoded = PccCodec::new(Design::IntraInterV1).encode_video(&video, 6, &device());
    container::mux(&encoded)
}

/// A clean captured wire plus the clouds a lossless receiver delivers
/// from it, built once (encoding is the expensive part of each case).
fn sample_stream() -> &'static (Vec<u8>, Vec<PointCloud>) {
    static SAMPLE: OnceLock<(Vec<u8>, Vec<PointCloud>)> = OnceLock::new();
    SAMPLE.get_or_init(|| {
        let video = catalog::by_name("Loot").unwrap().generate_scaled(6, 400);
        let codec = PccCodec::new(Design::IntraInterV1);
        let d = device();
        let config = StreamConfig::default();
        let (wire, _) =
            stream_video(&codec, &video, 6, &d, Vec::new(), &config, &mut Supervisor::default())
                .unwrap();
        let mut rx = Receiver::new(wire.as_slice(), &d);
        let mut clean = Vec::new();
        while let Some(frame) = rx.recv_frame().unwrap() {
            assert_eq!(frame.frame_index, clean.len());
            clean.push(frame.cloud);
        }
        assert_eq!(clean.len(), video.len());
        (wire, clean)
    })
}

/// The core streaming safety property: feeding `wire` (however mangled)
/// to a receiver never panics, delivers frames in strictly increasing
/// order, and never delivers a frame that differs from the clean run —
/// corruption may only *remove* frames.
fn assert_streaming_safety(wire: &[u8]) {
    let (_, clean) = sample_stream();
    let d = device();
    let mut rx = Receiver::new(wire, &d);
    let mut last: Option<usize> = None;
    while let Some(frame) = rx.recv_frame().expect("slice transports cannot fail") {
        assert!(last.is_none_or(|l| frame.frame_index > l), "out-of-order delivery");
        last = Some(frame.frame_index);
        let reference = clean.get(frame.frame_index).expect("invented frame index");
        assert_eq!(&frame.cloud, reference, "frame {} corrupted silently", frame.frame_index);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn intra_decoder_survives_random_mutations(
        positions in prop::collection::vec(0usize..4096, 1..12),
        xor in 1u8..=255,
    ) {
        let frame = sample_frame();
        let codec = IntraCodec::new(IntraConfig::paper());
        let d = device();
        let mut bad = frame.clone();
        for &p in &positions {
            if !bad.geometry.is_empty() {
                let len = bad.geometry.len();
                bad.geometry[p % len] ^= xor;
            }
            if !bad.attribute.is_empty() {
                let len = bad.attribute.len();
                bad.attribute[p % len] ^= xor;
            }
        }
        let _ = codec.decode(&bad, &d); // outcome irrelevant; no panic
    }

    #[test]
    fn container_demux_survives_random_mutations(
        positions in prop::collection::vec(0usize..8192, 1..16),
        xor in 1u8..=255,
    ) {
        let mut bytes = sample_container();
        for &p in &positions {
            let len = bytes.len();
            bytes[p % len] ^= xor;
        }
        if let Ok(video) = container::demux(&bytes) {
            // Even structurally valid mutations must decode without panic.
            let _ = PccCodec::new(video.design).decode_video(&video, &device());
        }
    }

    #[test]
    fn container_demux_survives_random_splices(
        cut_at in 0usize..4096,
        insert in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = sample_container();
        let at = cut_at % bytes.len();
        let tail = bytes.split_off(at);
        bytes.extend(insert);
        bytes.extend(tail);
        if let Ok(video) = container::demux(&bytes) {
            let _ = PccCodec::new(video.design).decode_video(&video, &device());
        }
    }

    #[test]
    fn occupancy_decoder_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = pcc::octree::decode_occupancy_with(&bytes, &pcc::types::Limits::default());
    }

    #[test]
    fn range_decoder_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..128),
        n in 0usize..64,
    ) {
        let mut model = pcc::entropy::ByteModel::new();
        let mut dec = pcc::entropy::RangeDecoder::new(&bytes);
        for _ in 0..n {
            let _ = dec.decode_byte(&mut model);
        }
    }

    #[test]
    fn chunk_stream_survives_random_bit_flips(
        positions in prop::collection::vec(0usize..(1 << 20), 1..24),
        bit in 0u8..8,
    ) {
        let (wire, _) = sample_stream();
        let mut bad = wire.clone();
        for &p in &positions {
            let len = bad.len();
            bad[p % len] ^= 1 << bit;
        }
        assert_streaming_safety(&bad);
    }

    #[test]
    fn chunk_stream_survives_truncation(cut in 0usize..(1 << 20)) {
        let (wire, _) = sample_stream();
        assert_streaming_safety(&wire[..cut % (wire.len() + 1)]);
    }

    #[test]
    fn chunk_stream_survives_splices(
        cut_at in 0usize..(1 << 20),
        insert in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let (wire, _) = sample_stream();
        let at = cut_at % wire.len();
        let mut bad = wire[..at].to_vec();
        bad.extend(&insert);
        bad.extend(&wire[at..]);
        assert_streaming_safety(&bad);
    }

    #[test]
    fn chunk_stream_survives_chunk_drops_and_reordering(
        keep in prop::collection::vec(any::<bool>(), 8),
        swaps in prop::collection::vec((0usize..32, 0usize..32), 0..6),
    ) {
        let (wire, _) = sample_stream();
        let mut reader = ChunkReader::new(wire.as_slice());
        let mut chunks: Vec<Chunk> = Vec::new();
        while let Some(c) = reader.next_chunk().unwrap() {
            chunks.push(c);
        }
        let mut chunks: Vec<Chunk> = chunks
            .into_iter()
            .enumerate()
            .filter(|(i, _)| keep[i % keep.len()])
            .map(|(_, c)| c)
            .collect();
        if !chunks.is_empty() {
            let len = chunks.len();
            for &(a, b) in &swaps {
                chunks.swap(a % len, b % len);
            }
        }
        let mangled: Vec<u8> = chunks.iter().flat_map(encode_chunk).collect();
        assert_streaming_safety(&mangled);
    }

    #[test]
    fn chunk_stream_resyncs_at_next_intact_intra(
        lost_gof in 0usize..2,
        bit in 0u8..8,
    ) {
        // Corrupt every chunk of one GOF (frames 3k..3k+3): the receiver
        // must still deliver every frame of every later GOF, bit-exact.
        let (wire, clean) = sample_stream();
        let first = lost_gof * 3;
        let mut reader = ChunkReader::new(wire.as_slice());
        let mut bad = Vec::new();
        while let Some(c) = reader.next_chunk().unwrap() {
            let mut bytes = encode_chunk(&c);
            if c.kind == pcc::stream::ChunkKind::Frame
                && (first..first + 3).contains(&(c.frame_index as usize))
            {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 1 << bit;
            }
            bad.extend(bytes);
        }

        let d = device();
        let mut rx = Receiver::new(bad.as_slice(), &d);
        let mut delivered = Vec::new();
        while let Some(frame) = rx.recv_frame().unwrap() {
            assert_eq!(&frame.cloud, &clean[frame.frame_index], "frame {}", frame.frame_index);
            delivered.push(frame.frame_index);
        }
        let expect: Vec<usize> =
            (0..clean.len()).filter(|i| !(first..first + 3).contains(i)).collect();
        assert_eq!(delivered, expect, "must resync at the next intact I-frame");
        assert_eq!(rx.stats().frames_dropped, 3);
        // Losing the final GOF leaves no I-frame to re-anchor at; the
        // loss then surfaces as tail drops, not a resync.
        let expect_resyncs = usize::from(first + 3 < clean.len());
        assert_eq!(rx.stats().resyncs, expect_resyncs);
    }
}
