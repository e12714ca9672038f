//! CWIPC-style inter codec: octree geometry, entropy-coded quantized
//! attributes, and macro-block motion estimation for P-frames.

use crate::tmc13::leaf_attributes;
use pcc_edge::{calib, Device};
use pcc_entropy::{unwrap_stream, wrap_stream};
use pcc_morton::MortonCode;
use pcc_octree::{read_grid_header, write_grid_header, SequentialOctree};
use pcc_types::wire::{write_varint, write_zigzag_varint, Cursor};
use pcc_types::{DecodeError, Point3, Rgb, VoxelizedCloud};
use std::collections::HashMap;

/// CWIPC codec configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CwipcConfig {
    /// Octree levels that define one macro block (blocks are cubes of
    /// `2^mb_levels` voxels per side; the codec matches at this
    /// granularity).
    pub mb_levels: u8,
    /// Color quantization shift applied before entropy coding
    /// (the library's lossy attribute path).
    pub color_shift: u8,
    /// Mean per-voxel squared color distance (3 channels summed) below
    /// which a position-matched macro block is approximated by its
    /// motion-compensated reference block.
    pub mb_threshold: u32,
    /// CPU threads used for macro-block matching (the paper configures 4).
    pub threads: u32,
    /// Model the full exhaustive I-MB-tree traversal the paper profiles
    /// at ≈5.9 s/P-frame (Sec. V-A2) instead of the windowed search the
    /// shipped library uses.
    pub full_search: bool,
}

impl Default for CwipcConfig {
    fn default() -> Self {
        CwipcConfig {
            mb_levels: 3,
            color_shift: 0,
            mb_threshold: 150,
            threads: 4,
            full_search: false,
        }
    }
}

/// One CWIPC-coded frame (I or P).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CwipcFrame {
    /// Entropy-coded geometry stream.
    pub geometry: Vec<u8>,
    /// Entropy-coded attribute stream (raw quantized colors for I-frames;
    /// block table + residual colors for P-frames).
    pub attribute: Vec<u8>,
    /// `true` if this is a predicted frame.
    pub predicted: bool,
    /// Unique occupied voxels.
    pub unique_voxels: usize,
    /// Raw points encoded.
    pub raw_points: usize,
    /// Macro blocks approximated by their reference block (P-frames).
    pub matched_blocks: usize,
    /// Total macro blocks (P-frames).
    pub total_blocks: usize,
}

impl CwipcFrame {
    /// Total compressed bytes.
    pub fn total_bytes(&self) -> usize {
        self.geometry.len() + self.attribute.len()
    }
}

/// The CWIPC-like inter codec.
///
/// I-frames: sequential octree geometry + entropy-coded quantized colors.
/// P-frames: additionally match each macro block against the reference
/// frame's block at/near the same position; matched blocks are
/// approximated by the reference block's colors (the quality cost the
/// paper attributes to "macro block-based approximation").
#[derive(Debug, Clone, Default)]
pub struct CwipcCodec {
    config: CwipcConfig,
}

impl CwipcCodec {
    /// Creates a codec with the given configuration.
    pub fn new(config: CwipcConfig) -> Self {
        CwipcCodec { config }
    }

    /// The codec's configuration.
    pub fn config(&self) -> &CwipcConfig {
        &self.config
    }

    /// Encodes an I-frame.
    pub fn encode_intra(&self, cloud: &VoxelizedCloud, device: &Device) -> CwipcFrame {
        let (geometry, leaf_codes, colors) = self.encode_geometry(cloud, device);
        let mut payload = Vec::new();
        write_varint(&mut payload, colors.len() as u64);
        for c in &colors {
            for ch in c.to_array() {
                payload.push(ch >> self.config.color_shift);
            }
        }
        let attribute = wrap_stream(&payload);
        device.charge_cpu(
            "attribute/entropy",
            &calib::CWIPC_ENTROPY,
            payload.len().max(1),
            self.config.threads,
        );
        CwipcFrame {
            geometry,
            attribute,
            predicted: false,
            unique_voxels: leaf_codes.len(),
            raw_points: cloud.len(),
            matched_blocks: 0,
            total_blocks: 0,
        }
    }

    /// Encodes a P-frame against the decoded reference frame.
    pub fn encode_predicted(
        &self,
        cloud: &VoxelizedCloud,
        reference: &VoxelizedCloud,
        device: &Device,
    ) -> CwipcFrame {
        let (geometry, leaf_codes, colors) = self.encode_geometry(cloud, device);

        // Build macro-block tables for both frames (MB trees). P-blocks
        // stay in Morton order so the decoder can rebuild the color
        // sequence by concatenation.
        let p_blocks = macro_block_list(&leaf_codes, self.config.mb_levels);
        let ref_codes: Vec<MortonCode> =
            reference.coords().iter().map(|&c| MortonCode::from_coord(c)).collect();
        let i_blocks = macro_blocks(&ref_codes, reference.colors(), self.config.mb_levels);
        device.charge_cpu(
            "inter/mb_tree",
            &calib::MB_TREE_BUILD,
            (leaf_codes.len() + ref_codes.len()).max(1),
            self.config.threads,
        );

        // Match every P block against the I block at the same position.
        // Model charge: the library walks the I-MB tree per block; the
        // paper's profiled full search visits every I block.
        let visited_per_block = if self.config.full_search {
            i_blocks.len().max(1)
        } else {
            (4 * self.config.mb_levels as usize + 32).min(i_blocks.len().max(1))
        };
        device.charge_cpu(
            "inter/mb_match",
            &calib::MB_MATCH,
            p_blocks.len().max(1) * visited_per_block,
            self.config.threads,
        );

        let mut payload = Vec::new();
        write_varint(&mut payload, colors.len() as u64);
        write_varint(&mut payload, p_blocks.len() as u64);
        let mut matched = 0usize;
        for (prefix, range) in &p_blocks {
            // Motion-compensation decision: simulate the decoder's
            // reconstruction of this block from the reference and accept
            // the match only if the mean per-voxel error stays under the
            // threshold (otherwise the block is intra-coded).
            let hit = i_blocks.get(prefix).and_then(|i_range| {
                let i_codes = &ref_codes[i_range.clone()];
                let i_colors = &reference.colors()[i_range.clone()];
                if i_colors.is_empty() {
                    return None;
                }
                let p_mean = mean_color(&colors[range.clone()]);
                let i_mean = mean_color(i_colors);
                let delta = [
                    p_mean.r as i64 - i_mean.r as i64,
                    p_mean.g as i64 - i_mean.g as i64,
                    p_mean.b as i64 - i_mean.b as i64,
                ];
                let recon = reconstruct_block(
                    i_codes,
                    i_colors,
                    &leaf_codes[range.clone()],
                    delta,
                );
                let mse: u64 = colors[range.clone()]
                    .iter()
                    .zip(&recon)
                    .map(|(p, r)| p.distance_squared(*r) as u64)
                    .sum::<u64>()
                    / range.len().max(1) as u64;
                (mse <= self.config.mb_threshold as u64).then_some(delta)
            });
            write_varint(&mut payload, prefix.value());
            write_varint(&mut payload, range.len() as u64);
            match hit {
                Some(delta) => {
                    matched += 1;
                    payload.push(1);
                    for d in delta {
                        write_zigzag_varint(&mut payload, d);
                    }
                }
                None => {
                    payload.push(0);
                    for &c in &colors[range.clone()] {
                        for ch in c.to_array() {
                            payload.push(ch >> self.config.color_shift);
                        }
                    }
                }
            }
        }
        let attribute = wrap_stream(&payload);
        device.charge_cpu(
            "attribute/entropy",
            &calib::CWIPC_ENTROPY,
            payload.len().max(1),
            self.config.threads,
        );

        CwipcFrame {
            geometry,
            attribute,
            predicted: true,
            unique_voxels: leaf_codes.len(),
            raw_points: cloud.len(),
            matched_blocks: matched,
            total_blocks: p_blocks.len(),
        }
    }

    /// Decodes a frame (`reference` must be the decoded frame the encoder
    /// predicted from; ignored for I-frames).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed streams, and
    /// [`DecodeError::MissingReference`] (frame 0: this call's one frame)
    /// for a P-frame without `reference`.
    pub fn decode(
        &self,
        frame: &CwipcFrame,
        reference: Option<&VoxelizedCloud>,
        device: &Device,
    ) -> Result<VoxelizedCloud, DecodeError> {
        self.decode_with_limits(frame, reference, device, &pcc_types::Limits::default())
    }

    /// [`decode`](Self::decode) under explicit resource
    /// [`pcc_types::Limits`]: the entropy wrappers, declared voxel count,
    /// and per-block lengths are bounded before they drive allocations.
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode), or an exceeded limit. Offsets are
    /// positions in the unwrapped geometry or attribute bytes.
    pub fn decode_with_limits(
        &self,
        frame: &CwipcFrame,
        reference: Option<&VoxelizedCloud>,
        device: &Device,
        limits: &pcc_types::Limits,
    ) -> Result<VoxelizedCloud, DecodeError> {
        let geometry = unwrap_stream(&frame.geometry, limits)?;
        let mut c = Cursor::new(&geometry, 0);
        let header = read_grid_header(&mut c)?;
        let coords = pcc_octree::decode_occupancy_from(&mut c, limits)?;
        device.charge_cpu("geometry_decode", &calib::OCTREE_SERIALIZE, coords.len().max(1), 1);

        let payload = unwrap_stream(&frame.attribute, limits)?;
        let mut c = Cursor::new(&payload, 0);
        let n = c.varint()? as usize;
        limits.check_points(n as u64)?;

        // The decoded P voxel codes, in Morton order: matched blocks pull
        // each voxel's color from the *nearest* reference voxel in the
        // matched macro block (the motion-compensated reuse CWIPC does).
        let p_codes: Vec<MortonCode> =
            coords.iter().map(|&c| MortonCode::from_coord(c)).collect();

        let colors = if frame.predicted {
            let reference = reference.ok_or(DecodeError::MissingReference { frame: 0 })?;
            let ref_codes: Vec<MortonCode> =
                reference.coords().iter().map(|&c| MortonCode::from_coord(c)).collect();
            let i_blocks = macro_blocks(&ref_codes, reference.colors(), self.config.mb_levels);
            let n_blocks = c.varint()? as usize;
            limits.check_blocks(n_blocks as u64)?;
            let mut colors = Vec::with_capacity(n.min(c.rest().len()));
            for _ in 0..n_blocks {
                let prefix = MortonCode::from_raw(c.varint()?);
                let len = c.varint()? as usize;
                // Block lengths must stay inside the declared voxel count:
                // a matched block's padding would otherwise expand an
                // attacker-chosen varint straight into an allocation.
                if len > n - colors.len() {
                    return Err(c.corrupt("block past the declared voxel count"));
                }
                if c.u8()? == 1 {
                    let delta = [c.zigzag_varint()?, c.zigzag_varint()?, c.zigzag_varint()?];
                    let i_range = i_blocks.get(&prefix).cloned().unwrap_or(0..0);
                    let block_start = colors.len();
                    let block_end = (block_start + len).min(p_codes.len());
                    let recon = reconstruct_block(
                        &ref_codes[i_range.clone()],
                        &reference.colors()[i_range],
                        &p_codes[block_start..block_end],
                        delta,
                    );
                    colors.extend(recon);
                    // Pad if the stream declared more voxels than geometry
                    // holds (corrupt input is caught by the length check).
                    colors.extend(std::iter::repeat_n(Rgb::BLACK, len - (block_end - block_start)));
                } else {
                    for _ in 0..len {
                        colors.push(self.read_color(&mut c)?);
                    }
                }
            }
            colors
        } else {
            // Every intra color costs 3 input bytes, so the remaining
            // input bounds the pre-allocation even for in-limit counts.
            let mut colors = Vec::with_capacity(n.min(c.rest().len() / 3 + 1));
            for _ in 0..n {
                colors.push(self.read_color(&mut c)?);
            }
            colors
        };

        if colors.len() != coords.len() {
            return Err(DecodeError::Mismatch {
                what: "colors",
                declared: coords.len(),
                decoded: colors.len(),
            });
        }
        let origin = Point3::new(header.origin[0], header.origin[1], header.origin[2]);
        Ok(VoxelizedCloud::from_grid_with_frame(
            coords,
            colors,
            header.depth,
            origin,
            header.voxel_size,
        )?)
    }

    /// Reads one quantized color triple.
    fn read_color(&self, c: &mut Cursor<'_>) -> Result<Rgb, DecodeError> {
        let [r, g, b] = c.array()?;
        let shift = self.config.color_shift;
        Ok(Rgb::new(dequant_color(r, shift), dequant_color(g, shift), dequant_color(b, shift)))
    }

    /// Shared geometry path: sequential octree (CWIPC's own builder is
    /// charged at its heavier per-op cost) + entropy coding; returns the
    /// stream plus Morton-ordered leaf codes and per-voxel mean colors.
    fn encode_geometry(
        &self,
        cloud: &VoxelizedCloud,
        device: &Device,
    ) -> (Vec<u8>, Vec<MortonCode>, Vec<Rgb>) {
        let mut tree = SequentialOctree::new(cloud.depth());
        for &c in cloud.coords() {
            tree.insert(c);
        }
        device.charge_cpu(
            "geometry/octree",
            &calib::CWIPC_OCTREE,
            tree.insert_ops() as usize,
            self.config.threads,
        );
        let occupancy = tree.occupancy();
        device.charge_cpu(
            "geometry/serialize",
            &calib::CWIPC_SERIALIZE,
            tree.node_count().max(1),
            self.config.threads,
        );
        let mut geometry = Vec::new();
        write_grid_header(cloud, &mut geometry);
        pcc_octree::serialize_occupancy_into(
            cloud.depth(),
            tree.leaf_count(),
            &occupancy,
            &mut geometry,
        );
        let geometry = wrap_stream(&geometry);
        device.charge_cpu(
            "geometry/entropy",
            &calib::CWIPC_ENTROPY,
            geometry.len().max(1),
            self.config.threads,
        );

        let (leaf_codes, attrs) = leaf_attributes(cloud, device.host_threads());
        let colors = attrs
            .iter()
            .map(|a| {
                Rgb::from_i32_clamped([
                    a[0].round() as i32,
                    a[1].round() as i32,
                    a[2].round() as i32,
                ])
            })
            .collect();
        (geometry, leaf_codes, colors)
    }
}

/// Center-reconstructing dequantization of a shifted color byte.
fn dequant_color(b: u8, shift: u8) -> u8 {
    if shift == 0 {
        b
    } else {
        let up = (b as u16) << shift;
        (up + (1 << (shift - 1))).min(255) as u8
    }
}

/// Groups Morton-ordered leaves into macro blocks by their prefix at
/// `mb_levels` above the leaves, in Morton order (contiguous ranges).
fn macro_block_list(
    codes: &[MortonCode],
    mb_levels: u8,
) -> Vec<(MortonCode, std::ops::Range<usize>)> {
    let mut list = Vec::new();
    let mut start = 0usize;
    while start < codes.len() {
        let prefix = codes[start].ancestor(mb_levels);
        let mut end = start + 1;
        while end < codes.len() && codes[end].ancestor(mb_levels) == prefix {
            end += 1;
        }
        list.push((prefix, start..end));
        start = end;
    }
    list
}

/// Same grouping as a prefix → range lookup table (for the I-frame side).
fn macro_blocks(
    codes: &[MortonCode],
    _colors: &[Rgb],
    mb_levels: u8,
) -> HashMap<MortonCode, std::ops::Range<usize>> {
    macro_block_list(codes, mb_levels).into_iter().collect()
}

/// Reconstructs a matched P-block's colors from its reference block:
/// each P voxel takes the color of the reference voxel with the nearest
/// Morton code, shifted by the block's mean residual. Shared by the
/// encoder (match decision) and decoder (actual reconstruction) so both
/// sides agree exactly.
fn reconstruct_block(
    i_codes: &[MortonCode],
    i_colors: &[Rgb],
    p_codes: &[MortonCode],
    delta: [i64; 3],
) -> Vec<Rgb> {
    p_codes
        .iter()
        .map(|&code| {
            let base = if i_colors.is_empty() {
                Rgb::BLACK
            } else {
                i_colors[nearest_code_index(i_codes, code)]
            };
            Rgb::from_i32_clamped([
                base.r as i32 + delta[0] as i32,
                base.g as i32 + delta[1] as i32,
                base.b as i32 + delta[2] as i32,
            ])
        })
        .collect()
}

/// Index of the code in sorted `codes` numerically closest to `target`.
///
/// # Panics
///
/// Panics if `codes` is empty.
fn nearest_code_index(codes: &[MortonCode], target: MortonCode) -> usize {
    match codes.binary_search(&target) {
        Ok(i) => i,
        Err(i) => {
            if i == 0 {
                0
            } else if i >= codes.len() {
                codes.len() - 1
            } else {
                let below = target.value() - codes[i - 1].value();
                let above = codes[i].value() - target.value();
                if below <= above {
                    i - 1
                } else {
                    i
                }
            }
        }
    }
}

fn mean_color(colors: &[Rgb]) -> Rgb {
    if colors.is_empty() {
        return Rgb::BLACK;
    }
    let mut sum = [0u64; 3];
    for c in colors {
        sum[0] += c.r as u64;
        sum[1] += c.g as u64;
        sum[2] += c.b as u64;
    }
    let k = colors.len() as u64;
    Rgb::new(
        ((sum[0] + k / 2) / k) as u8,
        ((sum[1] + k / 2) / k) as u8,
        ((sum[2] + k / 2) / k) as u8,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_edge::PowerMode;
    use pcc_types::{Aabb, PointCloud};
    use std::num::NonZeroUsize;

    fn device() -> Device {
        Device::jetson_agx_xavier(PowerMode::W15)
    }

    fn frame(color_shift: i32) -> VoxelizedCloud {
        let cloud: PointCloud = (0..600)
            .map(|i| {
                let x = (i % 24) as f32;
                let y = ((i / 24) % 24) as f32;
                let c = (70 + (i % 30) + color_shift).clamp(0, 255) as u8;
                (Point3::new(x, y, (i / 576) as f32), Rgb::gray(c))
            })
            .collect();
        let bb = Aabb::new(Point3::ORIGIN, Point3::new(32.0, 32.0, 4.0));
        VoxelizedCloud::from_cloud_in_box(&cloud, 5, &bb)
    }

    #[test]
    fn intra_round_trip_within_color_quantization() {
        let vox = frame(0);
        let d = device();
        let codec = CwipcCodec::default();
        let enc = codec.encode_intra(&vox, &d);
        let dec = codec.decode(&enc, None, &d).unwrap();
        assert_eq!(dec.len(), enc.unique_voxels);
        let (_, attrs) = leaf_attributes(&vox, NonZeroUsize::MIN);
        let max_err = 1i32 << codec.config().color_shift;
        for (orig, got) in attrs.iter().zip(dec.colors()) {
            for (o, g) in orig.iter().zip(got.to_i32()) {
                assert!((*o as i32 - g).abs() <= max_err);
            }
        }
    }

    #[test]
    fn predicted_frame_matches_blocks_on_similar_content() {
        let d = device();
        let codec = CwipcCodec::default();
        let i_frame = frame(0);
        let p_frame = frame(1);
        let dec_i = codec.decode(&codec.encode_intra(&i_frame, &d), None, &d).unwrap();
        let enc_p = codec.encode_predicted(&p_frame, &dec_i, &d);
        assert!(enc_p.predicted);
        assert!(enc_p.total_blocks > 0);
        assert!(
            enc_p.matched_blocks * 2 > enc_p.total_blocks,
            "{}/{} matched",
            enc_p.matched_blocks,
            enc_p.total_blocks
        );
        let dec_p = codec.decode(&enc_p, Some(&dec_i), &d).unwrap();
        assert_eq!(dec_p.len(), enc_p.unique_voxels);
    }

    #[test]
    fn matched_blocks_shrink_the_stream() {
        let d = device();
        let codec = CwipcCodec::default();
        let i_frame = frame(0);
        let dec_i = codec.decode(&codec.encode_intra(&i_frame, &d), None, &d).unwrap();
        let p_same = codec.encode_predicted(&i_frame, &dec_i, &d);
        let intra = codec.encode_intra(&i_frame, &d);
        assert!(
            p_same.attribute.len() < intra.attribute.len(),
            "p {} vs i {}",
            p_same.attribute.len(),
            intra.attribute.len()
        );
    }

    #[test]
    fn block_approximation_loses_quality() {
        // Matched blocks reconstruct from the reference plus one mean
        // delta; a *nonuniform* color change inside a block therefore
        // cannot be recovered exactly — the quality cost the paper
        // attributes to macro-block approximation.
        let d = device();
        let codec = CwipcCodec::default();
        let i_frame = frame(0);
        // Alternate +6/0 per point: block means shift by ~3 (within the
        // match threshold) but per-voxel deltas of ±3 remain.
        let p_cloud: PointCloud = i_frame
            .to_cloud()
            .iter()
            .enumerate()
            .map(|(i, (p, c))| {
                let bump = if i % 2 == 0 { 6 } else { 0 };
                (p, Rgb::from_i32_clamped([c.r as i32 + bump, c.g as i32, c.b as i32]))
            })
            .collect();
        let bb = Aabb::new(Point3::ORIGIN, Point3::new(32.0, 32.0, 4.0));
        let p_frame = VoxelizedCloud::from_cloud_in_box(&p_cloud, 5, &bb);
        let dec_i = codec.decode(&codec.encode_intra(&i_frame, &d), None, &d).unwrap();
        let enc_p = codec.encode_predicted(&p_frame, &dec_i, &d);
        assert!(enc_p.matched_blocks > 0, "blocks should still match");
        let dec_p = codec.decode(&enc_p, Some(&dec_i), &d).unwrap();
        let (_, attrs) = leaf_attributes(&p_frame, NonZeroUsize::MIN);
        let mut total_err = 0f64;
        for (orig, got) in attrs.iter().zip(dec_p.colors()) {
            total_err += (orig[0] - got.r as f64).abs();
        }
        let mean_err = total_err / attrs.len() as f64;
        assert!(mean_err > 0.1, "approximation should not be lossless, err {mean_err}");
        assert!(mean_err < 40.0, "mean err {mean_err} too large");
    }

    #[test]
    fn decode_predicted_without_reference_fails() {
        let d = device();
        let codec = CwipcCodec::default();
        let i_frame = frame(0);
        let dec_i = codec.decode(&codec.encode_intra(&i_frame, &d), None, &d).unwrap();
        let enc_p = codec.encode_predicted(&i_frame, &dec_i, &d);
        assert!(codec.decode(&enc_p, None, &d).is_err());
    }

    #[test]
    fn full_search_charges_more_matching_work() {
        let d1 = device();
        let d2 = device();
        let codec = CwipcCodec::default();
        let full = CwipcCodec::new(CwipcConfig { full_search: true, ..CwipcConfig::default() });
        let i_frame = frame(0);
        let dec_i = codec.decode(&codec.encode_intra(&i_frame, &d1), None, &d1).unwrap();
        d1.reset();
        codec.encode_predicted(&i_frame, &dec_i, &d1);
        full.encode_predicted(&i_frame, &dec_i, &d2);
        let windowed = d1.timeline().by_op().get("mb_match").map(|v| v.0).unwrap();
        let exhaustive = d2.timeline().by_op().get("mb_match").map(|v| v.0).unwrap();
        assert!(exhaustive >= windowed);
    }

    #[test]
    fn mb_match_runs_on_four_threads() {
        let d = device();
        let codec = CwipcCodec::default();
        let i_frame = frame(0);
        let dec_i = codec.decode(&codec.encode_intra(&i_frame, &d), None, &d).unwrap();
        d.reset();
        codec.encode_predicted(&i_frame, &dec_i, &d);
        // The matching record exists and the config says 4 threads.
        assert_eq!(codec.config().threads, 4);
        assert!(d.timeline().by_op().contains_key("mb_match"));
    }
}
