//! Proposed intra-frame attribute compression (paper Fig. 4d):
//! sort → segment → Mid + Residual → quantize.

use crate::arena::{AttributeScratch, FrameArena};
use crate::config::IntraConfig;
use crate::layer::{
    decode_layer_threaded, dequantize, encode_layer_with_starts_into, segment_starts_into,
    write_layer, LayerEncoded,
};
use pcc_edge::{calib, Device};
use pcc_types::wire::{write_varint, Cursor};
use pcc_types::{DecodeError, Rgb};
use std::num::NonZeroUsize;

/// Encodes the attributes of a frame from the colors the shared prefix
/// ([`crate::encode_geometry_into`]) left in `scratch.voxel_colors`,
/// sorted with the geometry's Morton codes — the paper's headline reuse
/// — at the device's [`host_threads`](Device::host_threads).
///
/// This writes into arena-owned buffers: `scratch` carries the segment
/// starts and both layers' base/residual buffers across frames;
/// `payload` is cleared and refilled, and the decoder's colors are
/// appended to `reconstruction` when one is given. The path performs no
/// heap allocation once the buffers have warmed (asserted by
/// `tests/alloc_steady_state.rs`).
pub(crate) fn encode_in(
    config: &IntraConfig,
    device: &Device,
    scratch: &mut AttributeScratch,
    payload: &mut Vec<u8>,
    reconstruction: Option<&mut Vec<Rgb>>,
) {
    // 2-4. Segment + two-layer base/residual coding + packing over the
    //      per-voxel colors (shared with the per-brick encoder).
    scratch.values.clear();
    scratch.values.extend(scratch.voxel_colors.iter().map(|c| c.to_i32()));
    encode_values_in(config, device, device.host_threads(), scratch, payload, reconstruction);
    pcc_probe::add_bytes("intra/attribute", payload.len() as u64);
}

/// Steps 2–4 of the attribute pipeline over `scratch.values` (3-channel
/// i32 triples in sorted-voxel order): segmentation, per-segment median
/// bases, quantized residuals, the optional second layer, and payload
/// packing. The monolithic encoder runs it once per frame over every
/// voxel; the brick encoder runs it once per brick over that brick's
/// slice — same bytes for the same values.
///
/// With a `reconstruction`, the colors the decoder will produce from
/// this payload are appended to it: the outer layer dequantized with
/// the decoder's own [`dequantize`] and clamped. The inner layer is
/// lossless, so it hands the decoder exactly these residuals.
pub(crate) fn encode_values_in(
    config: &IntraConfig,
    device: &Device,
    threads: NonZeroUsize,
    scratch: &mut AttributeScratch,
    payload: &mut Vec<u8>,
    reconstruction: Option<&mut Vec<Rgb>>,
) {
    let q = config.quant_step();
    let m = scratch.values.len();
    let segments = config.segments_for(m);
    segment_starts_into(m, segments, &mut scratch.starts);
    encode_layer_with_starts_into(
        &scratch.values,
        &scratch.starts,
        q,
        threads,
        &mut scratch.bases,
        &mut scratch.residuals,
        &mut scratch.median,
    );
    device.charge_gpu("attribute/median", &calib::SEGMENT_MEDIAN, m.max(1));
    device.charge_gpu("attribute/delta", &calib::DELTA_QUANT, m.max(1));
    if let Some(out) = reconstruction {
        out.reserve_exact(m);
        let ends = scratch.starts.iter().skip(1).map(|&e| e as usize).chain([m]);
        for ((&start, end), &base) in scratch.starts.iter().zip(ends).zip(&scratch.bases) {
            let segment = scratch.residuals.get(start as usize..end).unwrap_or_default();
            out.extend(segment.iter().map(|&r| Rgb::from_i32_clamped(dequantize(base, r, q))));
        }
    }

    // Optional second layer: re-encode the residual stream as new
    // attributes (lossless inner layer).
    payload.clear();
    payload.push(config.two_layer as u8);
    if config.two_layer {
        encode_layer_with_starts_into(
            &scratch.residuals,
            &scratch.starts,
            1,
            threads,
            &mut scratch.bases2,
            &mut scratch.residuals2,
            &mut scratch.median,
        );
        device.charge_gpu("attribute/delta2", &calib::DELTA_QUANT, m.max(1));
        // The outer layer serializes with its residuals stripped (they
        // live on in the inner layer) — byte-identical to the old
        // `LayerEncoded { residuals: vec![], ..layer1 }.to_bytes()`.
        scratch.outer_bytes.clear();
        write_layer(&mut scratch.outer_bytes, q, &scratch.starts, &scratch.bases, &[]);
        write_varint(payload, scratch.outer_bytes.len() as u64);
        payload.extend_from_slice(&scratch.outer_bytes);
        write_layer(payload, 1, &scratch.starts, &scratch.bases2, &scratch.residuals2);
    } else {
        write_layer(payload, q, &scratch.starts, &scratch.bases, &scratch.residuals);
    }
    device.charge_gpu("attribute/pack", &calib::ATTR_PACK, m.max(1));
}

/// Runs a P-frame's delta layer in `arena`'s attribute scratch, which
/// sits idle while a P-frame encodes. `assemble` gets the frame's
/// per-voxel colors (what [`crate::encode_geometry_into`] returned) and
/// fills the delta values and the start of each delta block, both
/// cleared first. The values are then coded as one base+delta layer,
/// each block a segment, at `quant_step` on `threads`, and the layer is
/// appended to `payload`. Returns the number of delta values.
pub fn encode_delta_layer_into(
    arena: &mut FrameArena,
    quant_step: i32,
    threads: NonZeroUsize,
    assemble: impl FnOnce(&[Rgb], &mut Vec<[i32; 3]>, &mut Vec<u32>),
    payload: &mut Vec<u8>,
) -> usize {
    let AttributeScratch { voxel_colors, values, starts, bases, residuals, median, .. } =
        &mut arena.attr;
    values.clear();
    starts.clear();
    assemble(voxel_colors, values, starts);
    encode_layer_with_starts_into(values, starts, quant_step, threads, bases, residuals, median);
    write_layer(payload, quant_step, starts, bases, residuals);
    values.len()
}

/// Decodes an attribute payload back to per-voxel colors (Morton order,
/// one per unique voxel) at the device's
/// [`host_threads`](Device::host_threads), under explicit resource
/// [`pcc_types::Limits`]: the layer headers are bounded by
/// `max_points`/`max_blocks`. The payload carries its own layer count,
/// so decoding needs no configuration.
///
/// # Errors
///
/// A [`DecodeError`] with its offset in `payload` on malformed input,
/// and [`DecodeError::Limit`] when a limit is hit.
pub fn decode_with(
    payload: &[u8],
    device: &Device,
    limits: &pcc_types::Limits,
) -> Result<Vec<Rgb>, DecodeError> {
    let colors = decode_payload(&mut Cursor::new(payload, 0), device.host_threads(), limits)?;
    device.charge_gpu("attribute_decode", &calib::ATTR_DECODE, colors.len().max(1));
    Ok(colors)
}

/// The device-free core of [`decode_with`]: layer decode and clamp at
/// an explicit thread count, charging nothing. The brick decoder runs
/// this once per brick — possibly from a worker thread — and charges
/// the device model once for the merged frame.
pub(crate) fn decode_payload(
    c: &mut Cursor<'_>,
    threads: NonZeroUsize,
    limits: &pcc_types::Limits,
) -> Result<Vec<Rgb>, DecodeError> {
    let values = if c.u8()? != 0 {
        let outer_len = c.varint()? as usize;
        let at = c.offset();
        let mut outer = LayerEncoded::read(&mut Cursor::new(c.take(outer_len)?, at), limits)?;
        let layer2 = LayerEncoded::read(c, limits)?;
        outer.residuals = decode_layer_threaded(&layer2, threads);
        decode_layer_threaded(&outer, threads)
    } else {
        decode_layer_threaded(&LayerEncoded::read(c, limits)?, threads)
    };
    Ok(values.into_iter().map(Rgb::from_i32_clamped).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrameArena, IntraFrame};
    use pcc_edge::PowerMode;
    use pcc_types::{Limits, Point3, PointCloud, VoxelizedCloud};
    use proptest::prelude::*;

    fn device() -> Device {
        Device::jetson_agx_xavier(PowerMode::W15)
    }

    /// Geometry with the leaf pass and attribute encode through a fresh
    /// arena, then the attribute decode: `(payload, per-voxel colors,
    /// decoded colors)`.
    fn round_trip(vox: &VoxelizedCloud, config: &IntraConfig) -> (Vec<u8>, Vec<Rgb>, Vec<Rgb>) {
        let d = device();
        let mut arena = FrameArena::new();
        crate::encode_geometry_into(vox, &d, &mut arena, &mut IntraFrame::default());
        let mut payload = Vec::new();
        encode_in(config, &d, &mut arena.attr, &mut payload, None);
        let decoded = decode_with(&payload, &d, &Limits::default()).unwrap();
        (payload, arena.attr.voxel_colors, decoded)
    }

    fn gradient_cloud(n: usize) -> VoxelizedCloud {
        let cloud: PointCloud = (0..n)
            .map(|i| {
                (
                    Point3::new(i as f32, (i / 8) as f32, 0.0),
                    Rgb::new((i % 256) as u8, 128, (255 - i % 256) as u8),
                )
            })
            .collect();
        VoxelizedCloud::from_cloud(&cloud, 9)
    }

    #[test]
    fn lossless_config_round_trips_exactly() {
        let (_, original, decoded) = round_trip(&gradient_cloud(300), &IntraConfig::lossless());
        assert_eq!(original, decoded);
    }

    #[test]
    fn quantized_error_bounded_by_half_step() {
        let cfg = IntraConfig::paper();
        let (_, original, decoded) = round_trip(&gradient_cloud(300), &cfg);
        let half = cfg.quant_step() / 2;
        for (o, d) in original.iter().zip(&decoded) {
            for (oc, dc) in o.to_i32().iter().zip(d.to_i32()) {
                assert!((oc - dc).abs() <= half, "err {} > {half}", (oc - dc).abs());
            }
        }
    }

    #[test]
    fn single_layer_and_two_layer_agree_on_values() {
        let vox = gradient_cloud(200);
        let one = IntraConfig { two_layer: false, ..IntraConfig::lossless() };
        let two = IntraConfig::lossless();
        assert_eq!(round_trip(&vox, &one).2, round_trip(&vox, &two).2);
    }

    #[test]
    fn duplicate_points_average_per_voxel() {
        let cloud: PointCloud = [
            (Point3::ORIGIN, Rgb::gray(100)),
            (Point3::ORIGIN, Rgb::gray(104)),
            (Point3::new(40.0, 0.0, 0.0), Rgb::gray(200)),
        ]
        .into_iter()
        .collect();
        let vox = VoxelizedCloud::from_cloud(&cloud, 4);
        let (_, original, decoded) = round_trip(&vox, &IntraConfig::lossless());
        assert_eq!(original.len(), 2);
        assert_eq!(decoded[0], Rgb::gray(102));
    }

    #[test]
    fn empty_cloud_round_trips() {
        let vox = VoxelizedCloud::from_cloud(&PointCloud::new(), 6);
        let (_, _, decoded) = round_trip(&vox, &IntraConfig::paper());
        assert!(decoded.is_empty());
    }

    #[test]
    fn smooth_content_compresses_well() {
        // Smooth colors => residuals near zero => ~1 byte/channel.
        let cloud: PointCloud = (0..4096)
            .map(|i| {
                let x = (i % 16) as f32;
                let y = ((i / 16) % 16) as f32;
                let z = (i / 256) as f32;
                (Point3::new(x, y, z), Rgb::new((x * 4.0) as u8, (y * 4.0) as u8, (z * 4.0) as u8))
            })
            .collect();
        let vox = VoxelizedCloud::from_cloud(&cloud, 4);
        let (payload, colors, _) = round_trip(&vox, &IntraConfig::paper());
        let bytes_per_voxel = payload.len() as f64 / colors.len() as f64;
        assert!(bytes_per_voxel < 3.5, "{bytes_per_voxel} bytes/voxel");
    }

    #[test]
    fn malformed_payload_errors() {
        let d = device();
        assert!(decode_with(&[], &d, &Limits::default()).is_err());
        assert!(decode_with(&[1, 200], &d, &Limits::default()).is_err());
    }

    proptest! {
        /// Decoded colors stay within half a quantization step.
        #[test]
        fn decoded_colors_within_quant_bound(
            pts in prop::collection::vec((0u32..32, 0u32..32, 0u32..32, any::<u8>()), 1..100),
            shift in 0u8..3,
        ) {
            let cloud: PointCloud = pts
                .iter()
                .map(|&(x, y, z, c)| {
                    (Point3::new(x as f32, y as f32, z as f32), Rgb::new(c, c.wrapping_add(40), 255 - c))
                })
                .collect();
            let vox = VoxelizedCloud::from_cloud(&cloud, 5);
            let cfg = IntraConfig { quant_shift: shift, ..IntraConfig::paper() };
            let (_, original, decoded) = round_trip(&vox, &cfg);
            prop_assert_eq!(original.len(), decoded.len());
            let half = cfg.quant_step() / 2;
            for (o, d) in original.iter().zip(&decoded) {
                for (oc, dc) in o.to_i32().iter().zip(d.to_i32()) {
                    prop_assert!((oc - dc).abs() <= half);
                }
            }
        }
    }
}
