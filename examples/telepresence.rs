//! Telepresence streaming: encode a dynamic point-cloud video in the
//! paper's IPP pattern with the combined intra+inter codec, printing
//! per-frame stream statistics as a live streamer would see them.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example telepresence
//! ```

use pcc::core::{Design, EncodedFrame, PccCodec};
use pcc::datasets::catalog;
use pcc::edge::{Device, PowerMode};
use pcc::inter::InterConfig;
use pcc::intra::{BrickIndex, IntraConfig};
use pcc::types::{Aabb, FrameKind, Limits};

fn main() {
    // A short clip of the MVUB-style "Andrew10" upper-body capture — the
    // telepresence scenario the dataset was built for.
    let spec = catalog::by_name("Andrew10").expect("Andrew10 is in Table I");
    let video = spec.generate_scaled(9, 10_000);
    let depth = pcc::datasets::density_matched_depth(video.mean_points_per_frame());
    println!(
        "streaming {}: {} frames x ~{} points (grid depth {depth})\n",
        video.name(),
        video.len(),
        video.mean_points_per_frame()
    );

    let device = Device::jetson_agx_xavier(PowerMode::W15);
    let codec = PccCodec::new(Design::IntraInterV1);
    let encoded = codec.encode_video(&video, depth, &device);

    println!(
        "{:<6} {:<5} {:>10} {:>12} {:>12} {:>10}",
        "frame", "kind", "KiB", "encode ms", "energy J", "reuse %"
    );
    let mut total_bytes = 0usize;
    for (i, (frame, timeline)) in
        encoded.frames.iter().zip(&encoded.encode_timelines).enumerate()
    {
        let kind = match frame.kind() {
            FrameKind::Intra => "I",
            FrameKind::Predicted => "P",
        };
        let size = frame.size().total_bytes();
        total_bytes += size;
        let reuse = frame
            .reuse_fraction()
            .map(|r| format!("{:.0}%", r * 100.0))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<6} {:<5} {:>10.1} {:>12.2} {:>12.4} {:>10}",
            i,
            kind,
            size as f64 / 1024.0,
            timeline.total_modeled_ms().as_f64(),
            timeline.total_energy_j().as_f64(),
            reuse
        );
    }

    let raw = encoded.total_raw_bytes();
    let fps = video.fps() as f64;
    let mbps = total_bytes as f64 * 8.0 * fps / video.len() as f64 / 1e6;
    println!("\nstream: {:.2} Mbit/s at {fps:.0} fps (raw would be {:.1} Mbit/s)", mbps, raw as f64 * 8.0 * fps / video.len() as f64 / 1e6);
    println!(
        "compression: {:.1}% of raw ({:.1}x ratio)",
        encoded.total_size().percent_of_raw(raw),
        encoded.total_size().compression_ratio(raw)
    );

    // The receiving side.
    let (decoded, decode_timelines) =
        codec.decode_video_with_timelines(&encoded, &device).expect("decode");
    let decode_ms: f64 = decode_timelines
        .iter()
        .map(|t| t.total_modeled_ms().as_f64())
        .sum::<f64>()
        / decoded.len() as f64;
    println!("decode: {decode_ms:.1} ms/frame modeled on the edge GPU");

    // Viewport (partial) decode on the brick-partitioned wire: a viewer
    // framing the speaker's upper half decodes only the bricks their
    // frustum intersects — the index tells the decoder which payload
    // bytes it never has to read.
    let brick_codec = PccCodec::with_inter_config(InterConfig {
        intra: IntraConfig::default().with_bricks(2),
        ..InterConfig::v1()
    });
    let brick_enc = brick_codec.encode_video(&video, depth, &device);
    let bb = video.bounding_box().expect("non-empty video");
    let viewport = Aabb::new(bb.min(), bb.center());
    let decoder = brick_codec.frame_decoder(&device);
    let i_frame = &brick_enc.frames[0];
    let (visible, _) = decoder.decode_viewport(i_frame, &viewport).expect("viewport decode");
    let full = decoded[0].len();

    let EncodedFrame::Intra(raw) = i_frame else { unreachable!("frame 0 is an I-frame") };
    let index =
        BrickIndex::parse(&raw.geometry, &Limits::default()).expect("brick frames carry an index");
    let total_bytes = index.total_payload_bytes();
    let read_bytes: usize = index
        .entries()
        .iter()
        .filter(|e| index.bounds(e).intersects(&viewport))
        .map(|e| e.payload_bytes())
        .sum();
    println!(
        "\nviewport decode (brick_depth 2, {} bricks): {} of {} voxels, \
         {} of {} payload KiB read ({:.0}% fewer decoded bytes)",
        index.len(),
        visible.len(),
        full,
        read_bytes / 1024,
        total_bytes / 1024,
        (1.0 - read_bytes as f64 / total_bytes as f64) * 100.0
    );
}
