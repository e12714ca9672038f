//! Golden-vector conformance suite: exact digests of encoded bitstreams
//! for every wire format in the workspace. These pin the *bytes*, not
//! just round-trip behaviour — any change to an encoder, a container
//! field, or a chunk header shows up here as a digest mismatch.
//!
//! If a test in this file fails and the format change is DELIBERATE,
//! re-run with the printed `actual` value and bump the expected digest
//! in this file (and say so in the commit message). If the change is
//! not deliberate, you have a silent format regression — fix the code,
//! not the vector.

use pcc::core::{container, Design, PccCodec};
use pcc::datasets::catalog;
use pcc::edge::{Device, PowerMode};
use pcc::inter::{InterCodec, InterConfig};
use pcc::intra::{IntraCodec, IntraConfig};
use pcc::stream::{stream_video, Sender, StreamConfig, Supervisor};
use pcc::types::{Video, VoxelizedCloud};
use std::num::NonZeroUsize;

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms.
fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn assert_digest(what: &str, chunks: &[&[u8]], expected: u64) {
    let actual = fnv1a(chunks);
    assert_eq!(
        actual, expected,
        "golden vector drift for {what}: actual digest {actual:#018x}, \
         expected {expected:#018x}. If this format change is deliberate, \
         bump the expected digest in tests/golden.rs; otherwise an encoder \
         or wire format silently changed."
    );
}

/// The modeled board at `threads` host threads (`0` = the process
/// default: `PCC_THREADS`, then available parallelism).
fn device(threads: usize) -> Device {
    Device::jetson_agx_xavier(PowerMode::W15).with_host_threads(NonZeroUsize::new(threads))
}

/// The fixed input every vector is derived from: a deterministic 2-frame
/// Longdress slice. Changing the synthetic dataset generator will — by
/// design — fail every vector below.
fn golden_video() -> Video {
    catalog::by_name("Longdress").expect("Table-I video").generate_scaled(2, 1_500)
}

fn golden_vox(frame: usize) -> VoxelizedCloud {
    let v = golden_video();
    VoxelizedCloud::from_cloud(&v.frame(frame).unwrap().cloud, 7)
}

#[test]
fn intra_single_layer_vector() {
    let cfg = IntraConfig { two_layer: false, ..IntraConfig::default() };
    let frame = IntraCodec::new(cfg).encode(&golden_vox(0), &device(1));
    assert_digest(
        "intra single-layer (geometry + attribute)",
        &[&frame.geometry, &frame.attribute],
        0x5e49_9ed1_4cca_7dea,
    );
}

#[test]
fn intra_two_layer_vector() {
    let cfg = IntraConfig { two_layer: true, ..IntraConfig::default() };
    let frame = IntraCodec::new(cfg).encode(&golden_vox(0), &device(1));
    assert_digest(
        "intra two-layer (geometry + attribute)",
        &[&frame.geometry, &frame.attribute],
        0xf01c_1fd4_8e07_df6c,
    );
}

/// Encodes the golden frame in the brick layout at a given thread count.
fn brick_frame(two_layer: bool, threads: usize) -> pcc::intra::IntraFrame {
    let cfg = IntraConfig { two_layer, ..IntraConfig::default() }.with_bricks(2);
    IntraCodec::new(cfg).encode(&golden_vox(0), &device(threads))
}

#[test]
fn brick_single_layer_vector() {
    let frame = brick_frame(false, 1);
    assert_eq!(frame.geometry.first(), Some(&pcc::intra::BRICK_MAGIC), "brick magic moved");
    assert_digest(
        "brick single-layer (geometry + attribute)",
        &[&frame.geometry, &frame.attribute],
        0xe99d_d50c_d748_270a,
    );
    // The brick wire format is thread-count invariant: per-brick stages
    // run single-threaded so parallelism never leaks into the bytes.
    for threads in [2, 0] {
        let other = brick_frame(false, threads);
        assert_eq!(other.geometry, frame.geometry, "geometry drifted at threads={threads}");
        assert_eq!(other.attribute, frame.attribute, "attribute drifted at threads={threads}");
    }
}

#[test]
fn brick_two_layer_vector() {
    let frame = brick_frame(true, 1);
    assert_digest(
        "brick two-layer (geometry + attribute)",
        &[&frame.geometry, &frame.attribute],
        0x5dd1_9d94_a1e9_8115,
    );
    for threads in [2, 0] {
        let other = brick_frame(true, threads);
        assert_eq!(other.geometry, frame.geometry, "geometry drifted at threads={threads}");
        assert_eq!(other.attribute, frame.attribute, "attribute drifted at threads={threads}");
    }
}

#[test]
fn inter_v1_vector() {
    let d = device(1);
    let (i_vox, p_vox) = (golden_vox(0), golden_vox(1));
    let intra = IntraCodec::new(IntraConfig::default());
    let reference =
        intra.decode(&intra.encode(&i_vox, &d), &d).expect("reference decodes").colors().to_vec();
    let enc = InterCodec::new(InterConfig::v1()).encode(&p_vox, &reference, &d);
    assert_digest(
        "inter V1 P-frame (geometry + attribute)",
        &[&enc.frame.geometry, &enc.frame.attribute],
        0x417e_db61_2ff0_9759,
    );
}

#[test]
fn inter_v2_vector() {
    let d = device(1);
    let (i_vox, p_vox) = (golden_vox(0), golden_vox(1));
    let intra = IntraCodec::new(IntraConfig::default());
    let reference =
        intra.decode(&intra.encode(&i_vox, &d), &d).expect("reference decodes").colors().to_vec();
    let enc = InterCodec::new(InterConfig::v2()).encode(&p_vox, &reference, &d);
    assert_digest(
        "inter V2 P-frame (geometry + attribute)",
        &[&enc.frame.geometry, &enc.frame.attribute],
        0xbdcf_73f6_a51a_48a4,
    );
}

#[test]
fn pccv_container_vector() {
    let d = device(0);
    let encoded = PccCodec::new(Design::IntraInterV1).encode_video(&golden_video(), 7, &d);
    let bytes = container::mux(&encoded);
    assert_eq!(&bytes[..4], b"PCCV", "container magic moved");
    assert_digest("PCCV container (2-frame IntraInterV1)", &[&bytes], 0x601b_aa1d_f072_1ec0);
}

#[test]
fn pcs1_chunk_stream_vector() {
    let d = device(0);
    let codec = PccCodec::new(Design::IntraInterV1);
    // StreamConfig::default() pins stream_id = 1; the wire is fully
    // deterministic (headers, CRCs, payloads).
    let mut tx = Sender::new(&codec, 7, &d, Vec::new(), &StreamConfig::default()).unwrap();
    for frame in golden_video().iter() {
        tx.send_frame(&frame.cloud).unwrap();
    }
    let (wire, stats) = tx.finish().unwrap();
    assert!(stats.clean_shutdown);
    assert_digest("PCS1 chunk stream (2-frame IntraInterV1)", &[&wire], 0x7988_ced3_8cfe_4086);
}

#[test]
fn pipelined_chunk_stream_vector() {
    let d = device(0);
    let codec = PccCodec::new(Design::IntraInterV1);
    let video = golden_video();
    // The pipelined sender voxelizes in the video's shared bounding box,
    // so its wire differs from the push sender's above.
    let mut supervisor = Supervisor::default();
    let (wire, stats) =
        stream_video(&codec, &video, 7, &d, Vec::new(), &StreamConfig::default(), &mut supervisor)
            .unwrap();
    assert!(stats.clean_shutdown);
    assert_digest("pipelined PCS1 stream (2-frame IntraInterV1)", &[&wire], 0x432d_97c3_8d65_b67f);
}
