//! The inter-frame (P-frame) codec facade.

use crate::config::InterConfig;
use crate::matching::{
    self, block_range, match_blocks_into, predicted, BlockMatch, MatchOutcome, MatchRows,
    ReuseStats,
};
use pcc_edge::{calib, Device};
use pcc_intra::{decode_layer_threaded, segment_starts_into, FrameArena, LayerEncoded};
use pcc_types::wire::{write_varint, Cursor};
use pcc_types::{DecodeError, Point3, Rgb, VoxelizedCloud};

/// The per-session encode arena of a stream of I- and P-frames. It wraps
/// the session's one intra [`FrameArena`] — every I-frame encodes through
/// it, and every P-frame runs its geometry, leaf pass and delta layer
/// through it ([`pcc_intra::encode_geometry_into`],
/// [`pcc_intra::encode_delta_layer_into`]) — and adds only what P-frames
/// alone need: block starts and the matcher's rows and block-match
/// table. Owned by session-long encoders (the `FrameEncoder` in
/// `pcc-core`), so the per-frame steady state is allocation-free at one
/// host thread and at two, whatever the order of frame kinds.
#[derive(Debug, Default)]
pub struct InterArena {
    intra: FrameArena,
    p_starts: Vec<u32>,
    i_starts: Vec<u32>,
    rows: MatchRows,
    matches: Vec<BlockMatch>,
}

impl InterArena {
    /// Creates an empty arena; buffers grow on first use and then stick.
    pub fn new() -> Self {
        Self::default()
    }

    /// The intra arena inside, for the session's I-frames: pass it to
    /// [`IntraCodec::encode_into`](pcc_intra::IntraCodec::encode_into).
    pub fn intra(&mut self) -> &mut FrameArena {
        &mut self.intra
    }
}

/// An encoded P-frame: intra-coded geometry plus inter-coded attributes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InterEncoded {
    /// The underlying frame payloads (geometry stream + inter attribute
    /// payload in `attribute`).
    pub frame: pcc_intra::IntraFrame,
    /// Reuse statistics of the block-matching pass.
    pub stats: ReuseStats,
}

/// The proposed inter-frame codec.
///
/// Encodes P-frames against a reference attribute sequence — the decoded
/// colors of the preceding I-frame, in Morton order, exactly what the
/// decoder holds. See the [crate-level example](crate).
#[derive(Debug, Clone, Default)]
pub struct InterCodec {
    config: InterConfig,
}

impl InterCodec {
    /// Creates a codec with the given configuration.
    pub fn new(config: InterConfig) -> Self {
        InterCodec { config }
    }

    /// The codec's configuration.
    pub fn config(&self) -> &InterConfig {
        &self.config
    }

    /// Encodes a P-frame: geometry via the intra pipeline, attributes via
    /// block matching against `reference` (the decoded I-frame's
    /// Morton-ordered voxel colors). Host kernels run at the device's
    /// [`host_threads`](Device::host_threads); the bitstream is
    /// byte-identical at every thread count.
    pub fn encode(
        &self,
        cloud: &VoxelizedCloud,
        reference: &[Rgb],
        device: &Device,
    ) -> InterEncoded {
        let mut arena = InterArena::new();
        let mut out = InterEncoded::default();
        self.encode_into(cloud, reference, device, &mut arena, &mut out);
        out
    }

    /// [`encode`](Self::encode) writing into arena-owned buffers — the
    /// allocation-free per-frame entry point. `arena` carries every
    /// intermediate across frames; `out` is cleared and refilled. The
    /// bitstream is byte-identical to [`encode`](Self::encode), and the
    /// steady state performs no heap allocation at one host thread or at
    /// two (asserted by `tests/alloc_steady_state.rs`).
    // Encoder side: block ranges come from segment_starts_into over the
    // same color arrays, so every slice below is in range by construction.
    #[allow(clippy::indexing_slicing)]
    pub fn encode_into(
        &self,
        cloud: &VoxelizedCloud,
        reference: &[Rgb],
        device: &Device,
        arena: &mut InterArena,
        out: &mut InterEncoded,
    ) {
        let threads = device.host_threads();
        let InterArena { intra, p_starts, i_starts, rows, matches } = arena;

        // Geometry and the per-voxel colors in Morton order (averaging
        // duplicate points) are the intra pipeline's own.
        let p_colors = pcc_intra::encode_geometry_into(cloud, device, intra, &mut out.frame);
        device.charge_gpu("inter_attr/gather", &calib::GATHER, cloud.len().max(1));

        let m = p_colors.len();
        let blocks = self.config.blocks_for(m);
        segment_starts_into(m, blocks, p_starts);
        segment_starts_into(reference.len(), self.config.blocks_for(reference.len()), i_starts);

        // Block matching (the Diff_Squared / Squared_Sum kernels).
        let match_sp = pcc_probe::span("inter/match");
        let (stats, charge) = match_blocks_into(
            p_colors,
            reference,
            p_starts,
            i_starts,
            self.config.candidates,
            self.config.reuse_threshold,
            threads,
            rows,
            matches,
        );
        device.charge_gpu("inter_attr/diff_squared", &calib::DIFF_SQUARED, charge.pair_items.max(1));
        device.charge_gpu("inter_attr/squared_sum", &calib::SQUARED_SUM, charge.block_pairs.max(1));
        match_sp.stop();

        // Serialize: counts, flags + pointers, then the delta layer.
        let _delta_sp = pcc_probe::span("inter/delta");
        let payload = &mut out.frame.attribute;
        payload.clear();
        write_varint(payload, m as u64);
        write_varint(payload, matches.len() as u64);
        for mt in matches.iter() {
            let reuse_bit = (mt.outcome == MatchOutcome::Reuse) as u64;
            write_varint(payload, (mt.window_offset as u64) << 1 | reuse_bit);
        }

        // Assemble deltas for non-reused blocks (address generation) and
        // compress them with the intra Base+Delta layer (segment = block),
        // in the intra arena's attribute buffers.
        let quant_step = self.config.intra.quant_step();
        let assemble = |p_colors: &[Rgb], values: &mut Vec<[i32; 3]>, starts: &mut Vec<u32>| {
            starts.push(0);
            for (p_idx, mt) in matches.iter().enumerate() {
                if mt.outcome == MatchOutcome::Delta {
                    let p_range = block_range(p_starts, m, p_idx);
                    let i_range = block_range(i_starts, reference.len(), mt.i_block as usize);
                    let p_block = &p_colors[p_range];
                    let refs = predicted(&reference[i_range], p_block.len());
                    for (&pc, base) in p_block.iter().zip(refs) {
                        values.push(pc.delta(base));
                    }
                    starts.push(values.len() as u32);
                }
            }
            starts.pop(); // starts, not ends
            if starts.is_empty() {
                starts.push(0);
            }
            device.charge_gpu("inter_attr/addr_gen", &calib::ADDR_GEN, m.max(1));
        };
        let deltas =
            pcc_intra::encode_delta_layer_into(intra, quant_step, threads, assemble, payload);
        device.charge_gpu("inter_attr/delta_encode", &calib::DELTA_QUANT, deltas.max(1));
        device.charge_gpu("inter_attr/reuse_encode", &calib::REUSE_ENCODE, matches.len());
        pcc_probe::add_bytes("inter/attribute", payload.len() as u64);
        out.stats = stats;
    }

    /// Decodes a P-frame against the same reference sequence the encoder
    /// used.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed payloads.
    pub fn decode(
        &self,
        encoded: &InterEncoded,
        reference: &[Rgb],
        device: &Device,
    ) -> Result<VoxelizedCloud, DecodeError> {
        self.decode_with_limits(encoded, reference, device, &pcc_types::Limits::default())
    }

    /// [`decode`](Self::decode) under explicit resource
    /// [`pcc_types::Limits`]: geometry expansion and the delta-layer
    /// header are both bounded before they drive
    /// allocations.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed payloads or an exceeded
    /// limit. Attribute-side offsets are positions in the attribute
    /// payload: the block table and the delta layer after it are read
    /// through one cursor.
    // `p_starts` is derived locally from the decoded voxel count (never
    // from wire bytes), so block ranges — and the `colors[slot]` writes
    // they drive — are bounded by `m`; wire-derived window offsets are
    // clamped before use.
    #[allow(clippy::indexing_slicing)]
    pub fn decode_with_limits(
        &self,
        encoded: &InterEncoded,
        reference: &[Rgb],
        device: &Device,
        limits: &pcc_types::Limits,
    ) -> Result<VoxelizedCloud, DecodeError> {
        let geo = pcc_intra::geometry::decode_with(&encoded.frame.geometry, device, limits)?;
        let m = geo.coords.len();

        let mut c = Cursor::new(&encoded.frame.attribute, 0);
        let declared_m = c.varint()? as usize;
        if declared_m != m {
            return Err(DecodeError::Mismatch { what: "voxels", declared: declared_m, decoded: m });
        }
        let n_blocks = c.varint()? as usize;
        let (mut p_starts, mut i_starts) = (Vec::new(), Vec::new());
        segment_starts_into(m, self.config.blocks_for(m), &mut p_starts);
        if n_blocks != p_starts.len() {
            return Err(DecodeError::Mismatch {
                what: "blocks",
                declared: n_blocks,
                decoded: p_starts.len(),
            });
        }
        let i_blocks = self.config.blocks_for(reference.len());
        segment_starts_into(reference.len(), i_blocks, &mut i_starts);

        let mut flags = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let v = c.varint()?;
            flags.push(((v >> 1) as usize, v & 1 == 1));
        }
        let delta_layer = LayerEncoded::read(&mut c, limits)?;
        let deltas = decode_layer_threaded(&delta_layer, device.host_threads());

        let mut colors = vec![Rgb::BLACK; m];
        let mut delta_pos = 0usize;
        for (p_idx, &(window_offset, reused)) in flags.iter().enumerate() {
            let (w_start, w_end) =
                matching::candidate_window(p_idx, n_blocks, i_starts.len(), self.config.candidates);
            let i_block_idx = (w_start + window_offset).min(w_end.saturating_sub(1));
            let i_range = block_range(&i_starts, reference.len(), i_block_idx);
            let i_block = reference.get(i_range).unwrap_or(&[]);
            let p_range = block_range(&p_starts, m, p_idx);
            let refs = predicted(i_block, p_range.len());
            for (slot, base) in p_range.zip(refs) {
                colors[slot] = if reused {
                    base
                } else {
                    let d = deltas
                        .get(delta_pos)
                        .copied()
                        .ok_or_else(|| c.corrupt("delta stream shorter than delta blocks"))?;
                    delta_pos += 1;
                    // `d` comes from the wire: wrap, as release builds do,
                    // rather than panic on a hostile delta.
                    let b = base.to_i32();
                    Rgb::from_i32_clamped([
                        b[0].wrapping_add(d[0]),
                        b[1].wrapping_add(d[1]),
                        b[2].wrapping_add(d[2]),
                    ])
                };
            }
        }
        device.charge_gpu("inter_attr_decode", &calib::ATTR_DECODE, m.max(1));

        let origin = Point3::new(geo.origin[0], geo.origin[1], geo.origin[2]);
        Ok(VoxelizedCloud::from_grid_with_frame(
            geo.coords,
            colors,
            geo.depth,
            origin,
            geo.voxel_size,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_edge::PowerMode;
    use pcc_intra::{IntraCodec, IntraFrame};
    use pcc_types::{Aabb, PointCloud};

    fn device() -> Device {
        Device::jetson_agx_xavier(PowerMode::W15)
    }

    fn frame(shift: f32, color_shift: i32) -> VoxelizedCloud {
        let cloud: PointCloud = (0..400)
            .map(|i| {
                let x = (i % 20) as f32 + shift;
                let y = (i / 20) as f32;
                let c = (60 + (i % 40) + color_shift).clamp(0, 255) as u8;
                (Point3::new(x, y, 0.0), Rgb::gray(c))
            })
            .collect();
        let bb = Aabb::new(Point3::ORIGIN, Point3::new(64.0, 64.0, 4.0));
        VoxelizedCloud::from_cloud_in_box(&cloud, 6, &bb)
    }

    fn reference_colors(vox: &VoxelizedCloud, d: &Device) -> Vec<Rgb> {
        let intra = IntraCodec::new(IntraConfig_lossless());
        let dec = intra.decode(&intra.encode(vox, d), d).unwrap();
        dec.colors().to_vec()
    }

    #[allow(non_snake_case)]
    fn IntraConfig_lossless() -> pcc_intra::IntraConfig {
        pcc_intra::IntraConfig::lossless()
    }

    #[test]
    fn identical_frames_reuse_everything() {
        let d = device();
        let f = frame(0.0, 0);
        let reference = reference_colors(&f, &d);
        let cfg = InterConfig { intra: IntraConfig_lossless(), ..InterConfig::v1() };
        let codec = InterCodec::new(cfg);
        let enc = codec.encode(&f, &reference, &d);
        assert_eq!(enc.stats.delta, 0);
        assert!(enc.stats.reuse_fraction() > 0.99);
        let dec = codec.decode(&enc, &reference, &d).unwrap();
        assert_eq!(dec.colors(), reference.as_slice());
    }

    #[test]
    fn similar_frames_mostly_reuse_and_round_trip() {
        let d = device();
        let i_frame = frame(0.0, 0);
        let p_frame = frame(0.3, 1);
        let reference = reference_colors(&i_frame, &d);
        let cfg = InterConfig { intra: IntraConfig_lossless(), ..InterConfig::v2() };
        let codec = InterCodec::new(cfg);
        let enc = codec.encode(&p_frame, &reference, &d);
        assert!(enc.stats.reuse_fraction() > 0.3, "reuse {}", enc.stats.reuse_fraction());
        let dec = codec.decode(&enc, &reference, &d).unwrap();
        assert_eq!(dec.len(), enc.frame.unique_voxels);
    }

    #[test]
    fn delta_blocks_reconstruct_losslessly_at_unit_step() {
        let d = device();
        let i_frame = frame(0.0, 0);
        let p_frame = frame(0.0, 90); // big color change: all delta blocks
        let reference = reference_colors(&i_frame, &d);
        let cfg = InterConfig {
            reuse_threshold: 0,
            intra: IntraConfig_lossless(),
            ..InterConfig::v1()
        };
        let codec = InterCodec::new(cfg);
        let enc = codec.encode(&p_frame, &reference, &d);
        assert_eq!(enc.stats.reused, 0);
        let dec = codec.decode(&enc, &reference, &d).unwrap();
        // With threshold 0 and unit quantization, reconstruction is exact.
        let intra = IntraCodec::new(IntraConfig_lossless());
        let expect = intra.decode(&intra.encode(&p_frame, &d), &d).unwrap();
        assert_eq!(dec.colors(), expect.colors());
    }

    #[test]
    fn v2_reuses_at_least_as_much_as_v1() {
        let d = device();
        let i_frame = frame(0.0, 0);
        let p_frame = frame(0.5, 2);
        let reference = reference_colors(&i_frame, &d);
        let e1 = InterCodec::new(InterConfig::v1()).encode(&p_frame, &reference, &d);
        let e2 = InterCodec::new(InterConfig::v2()).encode(&p_frame, &reference, &d);
        assert!(e2.stats.reuse_fraction() >= e1.stats.reuse_fraction());
        // More reuse => no larger attribute payload.
        assert!(e2.frame.attribute.len() <= e1.frame.attribute.len());
    }

    #[test]
    fn inter_payload_smaller_than_intra_for_similar_frames() {
        let d = device();
        let i_frame = frame(0.0, 0);
        let p_frame = frame(0.1, 0);
        let reference = reference_colors(&i_frame, &d);
        let codec = InterCodec::new(InterConfig::v2());
        let inter = codec.encode(&p_frame, &reference, &d);
        let intra = IntraCodec::new(codec.config().intra).encode(&p_frame, &d);
        assert!(
            inter.frame.attribute.len() < intra.attribute.len(),
            "inter {} vs intra {}",
            inter.frame.attribute.len(),
            intra.attribute.len()
        );
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let d = device();
        let f = frame(0.0, 0);
        let reference = reference_colors(&f, &d);
        let codec = InterCodec::new(InterConfig::v1());
        let mut enc = codec.encode(&f, &reference, &d);
        enc.frame.attribute.truncate(3);
        assert!(matches!(
            codec.decode(&enc, &reference, &d).unwrap_err(),
            DecodeError::Truncated { offset } if offset <= 3
        ));
        // Wrong declared voxel count.
        let mut enc2 = codec.encode(&f, &reference, &d);
        enc2.frame.attribute[0] ^= 0x7f;
        assert!(matches!(
            codec.decode(&enc2, &reference, &d).unwrap_err(),
            DecodeError::Mismatch { what: "voxels", decoded, .. } if decoded == enc2.frame.unique_voxels
        ));
    }

    #[test]
    fn timeline_records_matching_kernels() {
        let d = device();
        let f = frame(0.0, 0);
        let reference = reference_colors(&f, &d);
        d.reset();
        InterCodec::new(InterConfig::v1()).encode(&f, &reference, &d);
        let t = d.timeline();
        for op in ["diff_squared", "squared_sum", "addr_gen", "reuse_encode"] {
            assert!(t.by_op().contains_key(op), "missing kernel {op}");
        }
    }

    #[test]
    fn zero_candidates_code_like_one() {
        let d = device();
        let i_frame = frame(0.0, 0);
        let p_frame = frame(0.3, 40);
        let reference = reference_colors(&i_frame, &d);
        let codec_with =
            |candidates| InterCodec::new(InterConfig { candidates, ..InterConfig::v1() });
        let zero = codec_with(0).encode(&p_frame, &reference, &d);
        let one = codec_with(1).encode(&p_frame, &reference, &d);
        assert_eq!(zero, one);
        let dec = codec_with(0).decode(&zero, &reference, &d).unwrap();
        assert_eq!(dec.colors(), codec_with(1).decode(&one, &reference, &d).unwrap().colors());
    }

    /// A frame of about `n` points whose geometry and colors move with
    /// `phase`, in a depth-7 grid.
    fn varied_frame(n: usize, phase: usize) -> VoxelizedCloud {
        let cloud: PointCloud = (0..n)
            .map(|i| {
                let x = ((i + phase * 7) % 50) as f32;
                let (y, z) = (((i / 50) % 40) as f32, (i / 2000) as f32);
                let c = ((i * 3 + phase * 11) % 256) as u8;
                (Point3::new(x, y, z), Rgb::new(c, 255 - c, 128))
            })
            .collect();
        VoxelizedCloud::from_cloud(&cloud, 7)
    }

    #[test]
    fn one_dirty_arena_across_frame_kinds_matches_fresh_encodes() {
        // I P P I P P … through ONE arena, frames shrinking and growing:
        // every frame must equal its encode on a fresh arena, so no stale
        // geometry, gather or matcher buffer leaks from a frame of either
        // kind into the next (a P after a P, an I after a P).
        let sizes = [6_000usize, 9_000, 1_500, 12_000, 400, 5_000, 800, 10_000, 3_000, 7_000];
        for intra_cfg in [InterConfig::v1().intra, InterConfig::v1().intra.with_bricks(3)] {
            let codec = InterCodec::new(InterConfig { intra: intra_cfg, ..InterConfig::v1() });
            let intra = IntraCodec::new(intra_cfg);
            for threads in [1, 2] {
                let d = device().with_host_threads(std::num::NonZeroUsize::new(threads));
                let mut arena = InterArena::new();
                let (mut i_out, mut p_out) = (IntraFrame::default(), InterEncoded::default());
                let mut reference = Vec::new();
                for (k, &n) in sizes.iter().enumerate() {
                    let vox = varied_frame(n, k);
                    let at = format!("{intra_cfg:?}, {threads} threads, frame {k}");
                    if k % 3 == 0 {
                        intra.encode_into(&vox, &d, arena.intra(), &mut i_out, Some(&mut reference));
                        assert_eq!(i_out, intra.encode(&vox, &d), "I: {at}");
                        let decoded = intra.decode(&i_out, &d).unwrap();
                        assert_eq!(reference, decoded.colors(), "reference: {at}");
                    } else {
                        codec.encode_into(&vox, &reference, &d, &mut arena, &mut p_out);
                        assert_eq!(p_out, codec.encode(&vox, &reference, &d), "P: {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_reference_falls_back_to_deltas() {
        let d = device();
        let f = frame(0.0, 0);
        let codec = InterCodec::new(InterConfig {
            intra: IntraConfig_lossless(),
            ..InterConfig::v1()
        });
        let enc = codec.encode(&f, &[], &d);
        assert_eq!(enc.stats.reused, 0);
        let dec = codec.decode(&enc, &[], &d).unwrap();
        let intra = IntraCodec::new(IntraConfig_lossless());
        let expect = intra.decode(&intra.encode(&f, &d), &d).unwrap();
        assert_eq!(dec.colors(), expect.colors());
    }
}
