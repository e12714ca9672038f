//! The intra-frame codec facade.

use crate::arena::FrameArena;
use crate::brick::{self, BrickDecode, BrickEntry, BrickIndex};
use crate::config::IntraConfig;
use crate::{attribute, geometry};
use pcc_edge::{calib, Device};
use pcc_types::{Aabb, DecodeError, Point3, Rgb, VoxelizedCloud};

/// One intra-coded frame: independent geometry and attribute payloads.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IntraFrame {
    /// Compressed geometry stream.
    pub geometry: Vec<u8>,
    /// Compressed attribute payload.
    pub attribute: Vec<u8>,
    /// Unique occupied voxels in the frame.
    pub unique_voxels: usize,
    /// Raw points the frame was encoded from (before voxel dedup).
    pub raw_points: usize,
}

impl IntraFrame {
    /// Total compressed bytes (geometry + attribute).
    pub fn total_bytes(&self) -> usize {
        self.geometry.len() + self.attribute.len()
    }
}

/// The proposed intra-frame codec (geometry + attributes), wired to the
/// edge-device model.
///
/// See the [crate-level example](crate) for an end-to-end round trip.
#[derive(Debug, Clone, Default)]
pub struct IntraCodec {
    config: IntraConfig,
}

impl IntraCodec {
    /// Creates a codec with the given configuration.
    pub fn new(config: IntraConfig) -> Self {
        IntraCodec { config }
    }

    /// The codec's configuration.
    pub fn config(&self) -> &IntraConfig {
        &self.config
    }

    /// Encodes one voxelized frame, charging every stage to `device` and
    /// running the host kernels at its
    /// [`host_threads`](Device::host_threads). The bitstream is
    /// byte-identical at every thread count.
    pub fn encode(&self, cloud: &VoxelizedCloud, device: &Device) -> IntraFrame {
        let mut arena = FrameArena::new();
        let mut out = IntraFrame::default();
        self.encode_into(cloud, device, &mut arena, &mut out, None);
        out
    }

    /// [`encode`](Self::encode) writing into arena-owned buffers — the
    /// allocation-free per-frame entry point. `arena` carries every
    /// intermediate across frames (a session holds one, which its
    /// P-frames share); `out` is cleared and refilled. After a few
    /// warm-up frames the encode performs zero heap allocations at one
    /// host thread or at two (asserted by `tests/alloc_steady_state.rs`);
    /// the bitstream is byte-identical to [`encode`](Self::encode).
    ///
    /// A `reconstruction`, when given, is cleared and refilled with the
    /// colors [`decode`](Self::decode) returns for `out` (one per unique
    /// voxel, Morton order), computed as the layers quantize: the
    /// closed-loop reference of the P-frames that follow, without
    /// decoding the frame.
    pub fn encode_into(
        &self,
        cloud: &VoxelizedCloud,
        device: &Device,
        arena: &mut FrameArena,
        out: &mut IntraFrame,
        mut reconstruction: Option<&mut Vec<Rgb>>,
    ) {
        if let Some(colors) = reconstruction.as_deref_mut() {
            colors.clear();
        }
        if let Some(brick_depth) = self.config.effective_brick_depth(cloud.depth()) {
            brick::encode_in(cloud, &self.config, brick_depth, device, arena, out, reconstruction);
            return;
        }
        encode_geometry_into(cloud, device, arena, out);
        device.charge_gpu("attribute/gather", &calib::GATHER, cloud.len().max(1));
        attribute::encode_in(&self.config, device, &mut arena.attr, &mut out.attribute, reconstruction);
    }

    /// Decodes a frame back to a voxelized cloud (one color per unique
    /// voxel, Morton order, original world frame). Frames describe
    /// themselves: decoding reads no configuration, so any codec decodes
    /// any intra frame.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed payloads or mismatched
    /// geometry/attribute counts.
    pub fn decode(&self, frame: &IntraFrame, device: &Device) -> Result<VoxelizedCloud, DecodeError> {
        self.decode_with_limits(frame, device, &pcc_types::Limits::default())
    }

    /// [`decode`](Self::decode) under explicit resource
    /// [`pcc_types::Limits`]: wire-declared lengths in both payloads are
    /// bounded before they drive allocations.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed payloads, mismatched
    /// geometry/attribute counts ([`DecodeError::Mismatch`]), a rejected
    /// world frame, or an exceeded limit.
    pub fn decode_with_limits(
        &self,
        frame: &IntraFrame,
        device: &Device,
        limits: &pcc_types::Limits,
    ) -> Result<VoxelizedCloud, DecodeError> {
        if BrickIndex::detect(&frame.geometry) {
            return self
                .decode_bricks(frame, device, limits, |_, _| true)
                .and_then(|pass| pass.into_cloud(device));
        }
        let geo = geometry::decode_with(&frame.geometry, device, limits)?;
        let colors = attribute::decode_with(&frame.attribute, device, limits)?;
        if geo.coords.len() != colors.len() {
            return Err(DecodeError::Mismatch {
                what: "colors",
                declared: geo.coords.len(),
                decoded: colors.len(),
            });
        }
        let origin = Point3::new(geo.origin[0], geo.origin[1], geo.origin[2]);
        Ok(VoxelizedCloud::from_grid_with_frame(
            geo.coords,
            colors,
            geo.depth,
            origin,
            geo.voxel_size,
        )?)
    }

    /// Runs one [`BrickDecode`] pass over a brick frame: the index is
    /// parsed once, and only bricks `select` accepts (given the index
    /// entry and its world-space bounds) are CRC-checked and decoded, in
    /// parallel, into survivors in cell order — bit-identical to the
    /// corresponding subset of a full decode. Damage does not fail the
    /// pass; the caller finishes it strictly, repairs it, or salvages
    /// it.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] only when the frame is not
    /// brick-partitioned or its index is unusable (malformed, failed
    /// CRC, or a limit exceeded) — then no brick can be read.
    pub fn decode_bricks(
        &self,
        frame: &IntraFrame,
        device: &Device,
        limits: &pcc_types::Limits,
        mut select: impl FnMut(&BrickEntry, &Aabb) -> bool,
    ) -> Result<BrickDecode, DecodeError> {
        BrickDecode::run(frame, limits, device.host_threads(), &mut select)
    }
}

/// The prefix every monolithic encode shares, I-frame or P-frame: the
/// geometry pipeline at the device's
/// [`host_threads`](Device::host_threads), its stream written straight
/// into `out.geometry`, whose leaf pass also yields each voxel's mean
/// color in Morton order. Fills `out` except its attribute payload and
/// returns the per-voxel colors, which stay in `arena`.
///
/// The geometry kernels are charged to `device`; the leaf pass is
/// charged by the caller as the attribute gather, under its own label.
/// Like [`IntraCodec::encode_into`], the steady state allocates nothing.
pub fn encode_geometry_into<'a>(
    cloud: &VoxelizedCloud,
    device: &Device,
    arena: &'a mut FrameArena,
    out: &mut IntraFrame,
) -> &'a [Rgb] {
    let threads = device.host_threads();
    let colors = &mut arena.attr.voxel_colors;
    geometry::encode_in(cloud, device, threads, &mut arena.geom, colors, &mut out.geometry);
    out.unique_voxels = colors.len();
    out.raw_points = cloud.len();
    colors
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_edge::PowerMode;
    use pcc_types::{Point3, PointCloud, Rgb};
    use proptest::prelude::*;
    use std::num::NonZeroUsize;

    fn device() -> Device {
        Device::jetson_agx_xavier(PowerMode::W15)
    }

    fn cloud(n: usize) -> PointCloud {
        (0..n)
            .map(|i| {
                (
                    Point3::new((i % 31) as f32, ((i / 31) % 31) as f32, (i / 961) as f32),
                    Rgb::new((i % 200) as u8, 100, 50),
                )
            })
            .collect()
    }

    #[test]
    fn frame_round_trip_preserves_world_frame() {
        let c = cloud(500);
        let vox = VoxelizedCloud::from_cloud(&c, 6);
        let codec = IntraCodec::new(IntraConfig::lossless());
        let d = device();
        let frame = codec.encode(&vox, &d);
        let dec = codec.decode(&frame, &d).unwrap();
        assert_eq!(dec.depth(), vox.depth());
        assert_eq!(dec.origin(), vox.origin());
        assert_eq!(dec.voxel_size(), vox.voxel_size());
        assert_eq!(dec.len(), frame.unique_voxels);
    }

    #[test]
    fn compressed_is_much_smaller_than_raw() {
        let c = cloud(5000);
        let vox = VoxelizedCloud::from_cloud(&c, 6);
        let codec = IntraCodec::default();
        let d = device();
        let frame = codec.encode(&vox, &d);
        let raw = c.len() * pcc_types::RAW_BYTES_PER_POINT;
        assert!(
            frame.total_bytes() * 2 < raw,
            "compressed {} vs raw {raw}",
            frame.total_bytes()
        );
    }

    #[test]
    fn voxel_count_mismatch_detected() {
        let c = cloud(100);
        let vox = VoxelizedCloud::from_cloud(&c, 6);
        let codec = IntraCodec::new(IntraConfig::lossless());
        let d = device();
        let a = codec.encode(&vox, &d);
        let other: PointCloud =
            [(Point3::ORIGIN, Rgb::BLACK)].into_iter().collect();
        let b = codec.encode(&VoxelizedCloud::from_cloud(&other, 6), &d);
        let franken = IntraFrame {
            geometry: a.geometry.clone(),
            attribute: b.attribute,
            unique_voxels: a.unique_voxels,
            raw_points: a.raw_points,
        };
        let err = codec.decode(&franken, &d).unwrap_err();
        assert_eq!(err, DecodeError::Mismatch { what: "colors", declared: a.unique_voxels, decoded: 1 });
    }

    #[test]
    fn a_nan_voxel_size_is_a_rejected_world_frame() {
        let vox = VoxelizedCloud::from_cloud(&cloud(100), 6);
        let codec = IntraCodec::default();
        let d = device();
        let mut frame = codec.encode(&vox, &d);
        // Grid header: depth byte, origin 3×f32, then the voxel size.
        frame.geometry[13..17].copy_from_slice(&f32::NAN.to_le_bytes());
        assert_eq!(
            codec.decode(&frame, &d).unwrap_err(),
            DecodeError::Corrupt { what: "world frame", offset: 0 }
        );
    }

    #[test]
    fn every_layout_decodes_without_its_encoder_config() {
        let vox = VoxelizedCloud::from_cloud(&cloud(2_000), 6);
        let d = device();
        for two_layer in [false, true] {
            for brick_depth in [0, 2] {
                for quant_shift in [0, 2] {
                    let cfg = IntraConfig { two_layer, quant_shift, ..IntraConfig::paper() }
                        .with_bricks(brick_depth);
                    let own = IntraCodec::new(cfg);
                    let frame = own.encode(&vox, &d);
                    assert_eq!(BrickIndex::detect(&frame.geometry), brick_depth > 0, "{cfg:?}");
                    let want = own.decode(&frame, &d).unwrap();
                    let got = IntraCodec::default().decode(&frame, &d).unwrap();
                    assert_eq!(got, want, "{cfg:?}");
                }
            }
        }
    }

    #[test]
    fn encode_into_reused_arena_matches_encode() {
        // Three frames of different sizes through ONE arena must each be
        // byte-identical to a fresh encode — stale buffer contents from a
        // larger previous frame must never leak into a smaller one.
        let codec = IntraCodec::default();
        let d = device();
        let mut arena = FrameArena::new();
        let mut frame = IntraFrame::default();
        for n in [500usize, 120, 333] {
            let vox = VoxelizedCloud::from_cloud(&cloud(n), 6);
            codec.encode_into(&vox, &d, &mut arena, &mut frame, None);
            let fresh = codec.encode(&vox, &d);
            assert_eq!(frame, fresh, "n={n}");
        }
    }

    #[test]
    fn timeline_covers_encode_and_decode() {
        let c = cloud(100);
        let vox = VoxelizedCloud::from_cloud(&c, 6);
        let codec = IntraCodec::default();
        let d = device();
        let frame = codec.encode(&vox, &d);
        codec.decode(&frame, &d).unwrap();
        let t = d.timeline();
        assert!(t.stage_ms("geometry").as_f64() > 0.0);
        assert!(t.stage_ms("attribute").as_f64() > 0.0);
        assert!(t.stage_ms("geometry_decode").as_f64() > 0.0);
        assert!(t.stage_ms("attribute_decode").as_f64() > 0.0);
    }

    proptest! {
        /// The reconstruction an encode emits equals the colors a decode
        /// of its frame returns, for monolithic and brick frames, one and
        /// two layers, steps 1 to 16 and 1 and 2 host threads, through a
        /// buffer holding another frame's colors; the frame's bytes are
        /// those of a plain encode.
        #[test]
        fn reconstruction_equals_the_decoded_colors(
            pts in prop::collection::vec((0u32..64, 0u32..64, 0u32..64, any::<u8>()), 0..3000),
            (two_layer, quant_shift, bricks, threads) in
                (any::<bool>(), 0u8..5, any::<bool>(), 1usize..=2),
        ) {
            let cloud: PointCloud = pts
                .iter()
                .map(|&(x, y, z, c)| {
                    let at = Point3::new(x as f32, y as f32, z as f32);
                    (at, Rgb::new(c, c.wrapping_mul(7), 255 - c))
                })
                .collect();
            let vox = VoxelizedCloud::from_cloud(&cloud, 6);
            let cfg = IntraConfig { two_layer, quant_shift, ..IntraConfig::paper() }
                .with_bricks(if bricks { 3 } else { 0 });
            let codec = IntraCodec::new(cfg);
            let d = device().with_host_threads(NonZeroUsize::new(threads));
            let mut frame = IntraFrame::default();
            let mut reconstruction = vec![Rgb::WHITE; 7];
            let arena = &mut FrameArena::new();
            codec.encode_into(&vox, &d, arena, &mut frame, Some(&mut reconstruction));
            prop_assert_eq!(&frame, &codec.encode(&vox, &d));
            let decoded = codec.decode(&frame, &d).unwrap();
            prop_assert_eq!(&reconstruction[..], decoded.colors());
        }
    }
}
