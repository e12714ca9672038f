//! TMC13-like G-PCC intra codec (sequential octree + RAHT + arithmetic
//! coding).

use pcc_edge::{calib, Device};
use pcc_entropy::{unwrap_stream, wrap_stream};
use pcc_morton::{MortonCode, SortScratch, SortedCodes};
use pcc_octree::{read_grid_header, write_grid_header, OccupancyHeader, SequentialOctree};
use pcc_raht::{forward, inverse, transform_count, RahtEncoded};
use pcc_types::wire::{write_varint, write_zigzag_varint, Cursor};
use pcc_types::{DecodeError, Point3, Rgb, VoxelizedCloud};
use std::num::NonZeroUsize;

/// One TMC13-coded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tmc13Frame {
    /// Entropy-coded geometry stream (occupancy bytes + grid header).
    pub geometry: Vec<u8>,
    /// Entropy-coded RAHT coefficient stream.
    pub attribute: Vec<u8>,
    /// Unique occupied voxels.
    pub unique_voxels: usize,
    /// Raw points the frame was encoded from.
    pub raw_points: usize,
}

impl Tmc13Frame {
    /// Total compressed bytes.
    pub fn total_bytes(&self) -> usize {
        self.geometry.len() + self.attribute.len()
    }
}

/// Which of G-PCC's three attribute coding methods to use (the paper's
/// Sec. II-B3 lists RAHT, the Predicting Transform, and the Lifting
/// Transform; its evaluation configures RAHT).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttributeMode {
    /// Region-Adaptive Hierarchical Transform (the evaluated default).
    #[default]
    Raht,
    /// LOD + hierarchical nearest-neighbor prediction.
    Predicting,
    /// Prediction with a wavelet-style update step.
    Lifting,
}

impl AttributeMode {
    fn tag(self) -> u8 {
        match self {
            AttributeMode::Raht => 0,
            AttributeMode::Predicting => 1,
            AttributeMode::Lifting => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => AttributeMode::Raht,
            1 => AttributeMode::Predicting,
            2 => AttributeMode::Lifting,
            _ => return None,
        })
    }
}

/// The TMC13-like intra codec.
///
/// Geometry is lossless (at voxel precision); attributes go through one
/// of G-PCC's three transforms ([`AttributeMode`], RAHT by default at a
/// near-lossless quantization step), then everything is arithmetic-coded
/// — the configuration the paper uses for its TMC13 baseline
/// (Sec. VI-B). Every stage charges the device model with its
/// *sequential* operation counts.
#[derive(Debug, Clone)]
pub struct Tmc13Codec {
    /// Attribute coefficient quantization step.
    pub qstep: f64,
    /// Attribute transform selection.
    pub attribute_mode: AttributeMode,
}

impl Default for Tmc13Codec {
    fn default() -> Self {
        // Near-lossless attributes: the paper's TMC13 setting reaches
        // ≈55 dB attribute PSNR.
        Tmc13Codec { qstep: 2.0, attribute_mode: AttributeMode::Raht }
    }
}

impl Tmc13Codec {
    /// Creates a codec with an explicit RAHT quantization step.
    ///
    /// # Panics
    ///
    /// Panics if `qstep` is not positive.
    pub fn with_qstep(qstep: f64) -> Self {
        assert!(qstep > 0.0, "quantization step must be positive");
        Tmc13Codec { qstep, ..Tmc13Codec::default() }
    }

    /// This codec with a different attribute transform.
    pub fn with_attribute_mode(self, attribute_mode: AttributeMode) -> Self {
        Tmc13Codec { attribute_mode, ..self }
    }

    /// Encodes one frame, charging the sequential pipeline to `device`.
    pub fn encode(&self, cloud: &VoxelizedCloud, device: &Device) -> Tmc13Frame {
        let n = cloud.len();
        let depth = cloud.depth();

        // --- Geometry: point-by-point octree construction. ---
        let mut tree = SequentialOctree::new(depth);
        for &c in cloud.coords() {
            tree.insert(c);
        }
        device.charge_cpu("geometry/octree", &calib::OCTREE_INSERT, tree.insert_ops() as usize, 1);

        let occupancy = tree.occupancy();
        device.charge_cpu(
            "geometry/serialize",
            &calib::OCTREE_SERIALIZE,
            tree.node_count().max(1),
            1,
        );

        // Context-adaptive occupancy coding (parent-byte contexts), the
        // G-PCC geometry entropy scheme.
        let mut geometry = Vec::new();
        write_grid_header(cloud, &mut geometry);
        geometry.push(depth);
        write_varint(&mut geometry, tree.leaf_count() as u64);
        write_varint(&mut geometry, occupancy.len() as u64);
        geometry.extend_from_slice(&pcc_entropy::context::encode_occupancy(&occupancy));
        device.charge_cpu("geometry/entropy", &calib::ENTROPY_CPU, occupancy.len().max(1), 1);

        // --- Attributes: RAHT over the octree leaves. ---
        // After voxelization each occupied voxel is one unit-weight leaf
        // (weights must match the decoder, which cannot know the original
        // per-voxel point counts).
        let (leaf_codes, attrs) = leaf_attributes(cloud, device.host_threads());
        let coeffs: Vec<[i64; 3]> = match self.attribute_mode {
            AttributeMode::Raht => {
                let weights = vec![1.0; leaf_codes.len()];
                forward(&leaf_codes, &attrs, &weights, depth, self.qstep).coeffs
            }
            AttributeMode::Predicting => {
                pcc_raht::predicting_forward(&leaf_codes, &attrs, self.qstep).residuals
            }
            AttributeMode::Lifting => {
                pcc_raht::lifting_forward(&leaf_codes, &attrs, self.qstep).coefficients
            }
        };
        // All three transforms are sequential per-point pipelines on the
        // CPU; charge the same per-transform cost the paper profiles.
        device.charge_cpu(
            "attribute/raht",
            &calib::RAHT_TRANSFORM,
            transform_count(&leaf_codes, depth).max(1) * pcc_raht::CHANNELS,
            1,
        );

        let mut coeff_bytes = Vec::new();
        coeff_bytes.push(self.attribute_mode.tag());
        write_varint(&mut coeff_bytes, coeffs.len() as u64);
        write_varint(&mut coeff_bytes, (self.qstep * 1000.0).round() as u64);
        for c in &coeffs {
            for &v in c {
                write_zigzag_varint(&mut coeff_bytes, v);
            }
        }
        let attribute = wrap_stream(&coeff_bytes);
        device.charge_cpu("attribute/entropy", &calib::ENTROPY_CPU, attribute.len().max(1), 1);

        let _ = n;
        Tmc13Frame {
            geometry,
            attribute,
            unique_voxels: tree.leaf_count(),
            raw_points: cloud.len(),
        }
    }

    /// Decodes a frame back to a voxelized cloud (one color per voxel).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed streams.
    pub fn decode(
        &self,
        frame: &Tmc13Frame,
        device: &Device,
    ) -> Result<VoxelizedCloud, DecodeError> {
        self.decode_with_limits(frame, device, &pcc_types::Limits::default())
    }

    /// [`decode`](Self::decode) under explicit resource
    /// [`pcc_types::Limits`]: the declared leaf count, occupancy length,
    /// and coefficient count are bounded before they drive allocations.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed streams or an exceeded
    /// limit. Offsets are positions in the geometry stream's header, in
    /// its entropy-decoded occupancy bytes, or in the attribute stream's
    /// unwrapped coefficient bytes.
    pub fn decode_with_limits(
        &self,
        frame: &Tmc13Frame,
        device: &Device,
        limits: &pcc_types::Limits,
    ) -> Result<VoxelizedCloud, DecodeError> {
        let mut c = Cursor::new(&frame.geometry, 0);
        let header = read_grid_header(&mut c)?;
        let depth_at = c.offset();
        let depth = c.u8()?;
        let leaf_count = c.varint()? as usize;
        let occ_len = c.varint()? as usize;
        limits.check_points(leaf_count as u64)?;
        limits.check_alloc(occ_len as u64)?;
        let occupancy = pcc_entropy::context::decode_occupancy(c.rest(), occ_len);
        let mut coords = Vec::new();
        OccupancyHeader::new(depth, leaf_count, depth_at)?.expand(
            &mut Cursor::new(&occupancy, 0),
            limits,
            &mut coords,
        )?;
        device.charge_cpu("geometry_decode", &calib::OCTREE_SERIALIZE, coords.len().max(1), 1);

        let coeff_bytes = unwrap_stream(&frame.attribute, limits)?;
        let mut c = Cursor::new(&coeff_bytes, 0);
        let mode_tag = c.u8()?;
        let mode = AttributeMode::from_tag(mode_tag)
            .ok_or(DecodeError::BadTag { tag: mode_tag, offset: 0 })?;
        let n_coeffs = c.varint()? as usize;
        let qstep = c.varint()? as f64 / 1000.0;
        // A coefficient count past the point budget (or the 24 bytes per
        // coefficient it implies) is a decompression bomb, not a frame.
        limits.check_points(n_coeffs as u64)?;
        limits.check_alloc((n_coeffs as u64).saturating_mul(24))?;
        // Each serialized coefficient costs at least 3 input bytes, so the
        // remaining input also bounds the pre-allocation.
        let mut coeffs = Vec::with_capacity(n_coeffs.min(c.rest().len() / 3 + 1));
        for _ in 0..n_coeffs {
            coeffs.push([c.zigzag_varint()?, c.zigzag_varint()?, c.zigzag_varint()?]);
        }

        let leaf_codes: Vec<MortonCode> =
            coords.iter().map(|&c| MortonCode::from_coord(c)).collect();
        if mode != AttributeMode::Raht && coeffs.len() != leaf_codes.len() {
            return Err(DecodeError::Mismatch {
                what: "coefficients",
                declared: leaf_codes.len(),
                decoded: coeffs.len(),
            });
        }
        let attrs = match mode {
            AttributeMode::Raht => {
                let weights = vec![1.0; leaf_codes.len()];
                inverse(&leaf_codes, &weights, &RahtEncoded { coeffs, qstep }, header.depth)?
            }
            AttributeMode::Predicting => pcc_raht::predicting_inverse(
                &leaf_codes,
                &pcc_raht::PredictingEncoded { residuals: coeffs, qstep },
            ),
            AttributeMode::Lifting => pcc_raht::lifting_inverse(
                &leaf_codes,
                &pcc_raht::LiftingEncoded { coefficients: coeffs, qstep },
            ),
        };
        device.charge_cpu(
            "attribute_decode",
            &calib::RAHT_TRANSFORM,
            transform_count(&leaf_codes, header.depth).max(1) * pcc_raht::CHANNELS,
            1,
        );

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
        let origin = Point3::new(header.origin[0], header.origin[1], header.origin[2]);
        Ok(VoxelizedCloud::from_grid_with_frame(
            coords,
            colors,
            header.depth,
            origin,
            header.voxel_size,
        )?)
    }
}

/// Unique leaf codes (sorted) and their mean attributes, from the same
/// leaf pass as the proposed encoder ([`pcc_morton::leaves_into`] over
/// codes sorted with packed colors); the codegen fans out over `threads`
/// host threads. Each mean is an exact integer sum over an exact count,
/// both converted to `f64`.
pub(crate) fn leaf_attributes(
    cloud: &VoxelizedCloud,
    threads: NonZeroUsize,
) -> (Vec<MortonCode>, Vec<[f64; 3]>) {
    let mut sorted = SortedCodes::default();
    pcc_morton::codes_of_into(cloud, threads, &mut sorted.codes);
    let colors = cloud.colors().iter().map(|c| c.pack());
    pcc_morton::sort_codes_into(&mut sorted, colors, &mut SortScratch::new());
    let (mut leaf_codes, mut attrs) = (Vec::new(), Vec::new());
    let mean = |s: [u32; 3], k: u32| s.map(|v| f64::from(v) / f64::from(k));
    pcc_morton::leaves_into(&sorted, mean, &mut leaf_codes, &mut attrs);
    (leaf_codes, attrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_edge::PowerMode;
    use pcc_types::PointCloud;

    fn device() -> Device {
        Device::jetson_agx_xavier(PowerMode::W15)
    }

    fn smooth_cloud(n: usize) -> PointCloud {
        (0..n)
            .map(|i| {
                let x = (i % 32) as f32;
                let y = ((i / 32) % 32) as f32;
                (
                    Point3::new(x, y, (i / 1024) as f32),
                    Rgb::new((x * 8.0) as u8, (y * 8.0) as u8, 120),
                )
            })
            .collect()
    }

    #[test]
    fn truncated_occupancy_errors_inside_the_decoded_bytes() {
        let vox = VoxelizedCloud::from_cloud(&smooth_cloud(500), 6);
        let codec = Tmc13Codec::default();
        let d = device();
        let mut frame = codec.encode(&vox, &d);
        // Re-declare one occupancy byte fewer: the entropy decoder yields
        // that prefix, and the expansion runs out at its end.
        let mut c = Cursor::new(&frame.geometry, 0);
        read_grid_header(&mut c).unwrap();
        let depth = c.u8().unwrap();
        let leaf_count = c.varint().unwrap();
        let occ_len = c.varint().unwrap() as usize;
        let mut geometry = frame.geometry[..17].to_vec();
        geometry.push(depth);
        write_varint(&mut geometry, leaf_count);
        write_varint(&mut geometry, occ_len as u64 - 1);
        geometry.extend_from_slice(c.rest());
        frame.geometry = geometry;
        assert_eq!(
            codec.decode(&frame, &d).unwrap_err(),
            DecodeError::Truncated { offset: occ_len - 1 }
        );
    }

    #[test]
    fn geometry_is_lossless() {
        let c = smooth_cloud(500);
        let vox = VoxelizedCloud::from_cloud(&c, 6);
        let codec = Tmc13Codec::default();
        let d = device();
        let frame = codec.encode(&vox, &d);
        let dec = codec.decode(&frame, &d).unwrap();
        // Decoded voxel set == sorted unique input voxels.
        let mut expect: Vec<u64> =
            vox.coords().iter().map(|&c| pcc_morton::encode(c).value()).collect();
        expect.sort_unstable();
        expect.dedup();
        let got: Vec<u64> =
            dec.coords().iter().map(|&c| pcc_morton::encode(c).value()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn attributes_are_near_lossless_at_default_qstep() {
        let c = smooth_cloud(800);
        let vox = VoxelizedCloud::from_cloud(&c, 6);
        let codec = Tmc13Codec::default();
        let d = device();
        let frame = codec.encode(&vox, &d);
        let dec = codec.decode(&frame, &d).unwrap();
        let (_, attrs) = leaf_attributes(&vox, NonZeroUsize::MIN);
        for (orig, got) in attrs.iter().zip(dec.colors()) {
            let g = got.to_f64();
            for ch in 0..3 {
                assert!(
                    (orig[ch] - g[ch]).abs() <= 6.0,
                    "channel err {}",
                    (orig[ch] - g[ch]).abs()
                );
            }
        }
    }

    #[test]
    fn compresses_below_raw_size() {
        let c = smooth_cloud(4000);
        let vox = VoxelizedCloud::from_cloud(&c, 6);
        let codec = Tmc13Codec::default();
        let frame = codec.encode(&vox, &device());
        let raw = c.len() * pcc_types::RAW_BYTES_PER_POINT;
        assert!(frame.total_bytes() * 3 < raw, "{} vs {raw}", frame.total_bytes());
    }

    #[test]
    fn charges_sequential_cpu_stages() {
        let c = smooth_cloud(300);
        let vox = VoxelizedCloud::from_cloud(&c, 6);
        let d = device();
        Tmc13Codec::default().encode(&vox, &d);
        let t = d.timeline();
        assert!(t.stage_ms("geometry/octree").as_f64() > 0.0);
        assert!(t.stage_ms("attribute/raht").as_f64() > 0.0);
        // Everything runs on the CPU unit.
        assert!(t.records().iter().all(|r| r.unit == pcc_edge::ExecUnit::Cpu));
    }

    #[test]
    fn coarser_qstep_shrinks_attribute_stream() {
        let c = smooth_cloud(2000);
        let vox = VoxelizedCloud::from_cloud(&c, 6);
        let d = device();
        let fine = Tmc13Codec::with_qstep(1.0).encode(&vox, &d);
        let coarse = Tmc13Codec::with_qstep(8.0).encode(&vox, &d);
        assert!(coarse.attribute.len() < fine.attribute.len());
    }

    #[test]
    fn truncated_streams_error() {
        let c = smooth_cloud(100);
        let vox = VoxelizedCloud::from_cloud(&c, 6);
        let d = device();
        let codec = Tmc13Codec::default();
        let frame = codec.encode(&vox, &d);
        let bad = Tmc13Frame { geometry: frame.geometry[..2].to_vec(), ..frame.clone() };
        assert!(codec.decode(&bad, &d).is_err());
        let bad = Tmc13Frame { attribute: frame.attribute[..2].to_vec(), ..frame };
        assert!(codec.decode(&bad, &d).is_err());
    }

    #[test]
    fn empty_cloud_round_trips() {
        let vox = VoxelizedCloud::from_cloud(&PointCloud::new(), 6);
        let d = device();
        let codec = Tmc13Codec::default();
        let frame = codec.encode(&vox, &d);
        let dec = codec.decode(&frame, &d).unwrap();
        assert!(dec.is_empty());
    }
}

#[cfg(test)]
mod attribute_mode_tests {
    use super::*;
    use pcc_edge::PowerMode;
    use pcc_types::PointCloud;

    fn device() -> Device {
        Device::jetson_agx_xavier(PowerMode::W15)
    }

    fn cloud() -> VoxelizedCloud {
        let c: PointCloud = (0..900)
            .map(|i| {
                let x = (i % 30) as f32;
                let y = ((i / 30) % 30) as f32;
                (
                    Point3::new(x, y, (i / 900) as f32),
                    Rgb::new((x * 8.0) as u8, 90, (y * 8.0) as u8),
                )
            })
            .collect();
        VoxelizedCloud::from_cloud(&c, 6)
    }

    #[test]
    fn all_three_modes_round_trip() {
        let vox = cloud();
        let d = device();
        for mode in [AttributeMode::Raht, AttributeMode::Predicting, AttributeMode::Lifting] {
            let codec = Tmc13Codec::with_qstep(1.0).with_attribute_mode(mode);
            let frame = codec.encode(&vox, &d);
            let dec = codec.decode(&frame, &d).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
            assert_eq!(dec.len(), frame.unique_voxels, "{mode:?}");
            let (_, attrs) = leaf_attributes(&vox, NonZeroUsize::MIN);
            for (orig, got) in attrs.iter().zip(dec.colors()) {
                let g = got.to_f64();
                for ch in 0..3 {
                    assert!(
                        (orig[ch] - g[ch]).abs() <= 6.0,
                        "{mode:?}: channel err {}",
                        (orig[ch] - g[ch]).abs()
                    );
                }
            }
        }
    }

    #[test]
    fn decoder_reads_mode_from_the_stream() {
        // Encode with Lifting, decode with a default (RAHT) codec: the
        // stream's mode byte wins.
        let vox = cloud();
        let d = device();
        let enc_codec =
            Tmc13Codec::with_qstep(1.0).with_attribute_mode(AttributeMode::Lifting);
        let frame = enc_codec.encode(&vox, &d);
        let dec = Tmc13Codec::default().decode(&frame, &d).unwrap();
        assert_eq!(dec.len(), frame.unique_voxels);
    }

    #[test]
    fn unknown_mode_tag_is_rejected() {
        let vox = cloud();
        let d = device();
        let codec = Tmc13Codec::default();
        let frame = codec.encode(&vox, &d);
        // Corrupt the mode byte inside the entropy-coded attribute stream:
        // re-wrap a payload with a bad tag.
        let mut payload = unwrap_stream(&frame.attribute, &pcc_types::Limits::default()).unwrap();
        payload[0] = 9;
        let bad = Tmc13Frame { attribute: wrap_stream(&payload), ..frame };
        assert!(codec.decode(&bad, &d).is_err());
    }

    #[test]
    fn modes_produce_distinct_streams() {
        let vox = cloud();
        let d = device();
        let raht = Tmc13Codec::default().encode(&vox, &d);
        let pred = Tmc13Codec::default()
            .with_attribute_mode(AttributeMode::Predicting)
            .encode(&vox, &d);
        assert_ne!(raht.attribute, pred.attribute);
        assert_eq!(raht.geometry, pred.geometry, "geometry is mode-independent");
    }
}
