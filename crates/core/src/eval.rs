//! End-to-end evaluation of a design on a video.

use crate::codec::PccCodec;
use crate::report::{DesignReport, FrameReport};
use pcc_edge::Device;
use pcc_metrics::{attribute_psnr, geometry_psnr, CompressedSize};
use pcc_types::{DecodeError, Video, VoxelizedCloud};

/// Options controlling an evaluation run.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Voxel-grid depth; `None` picks the density-matched depth for the
    /// video's point count.
    pub depth: Option<u8>,
    /// Compute PSNR on at most this many frames (NN matching is the
    /// most expensive part of evaluation).
    pub psnr_frames: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions { depth: None, psnr_frames: usize::MAX }
    }
}

/// Encodes, decodes, and measures `codec` on `video`, producing the
/// aggregated [`DesignReport`] the experiment harness prints.
///
/// # Errors
///
/// Returns a [`DecodeError`] if any frame fails to decode.
pub fn evaluate(
    codec: &PccCodec,
    video: &Video,
    device: &Device,
    options: EvalOptions,
) -> Result<DesignReport, DecodeError> {
    let depth = options
        .depth
        .unwrap_or_else(|| pcc_datasets::density_matched_depth(video.mean_points_per_frame()));

    // Encode (modeled timelines per frame).
    let encoded = codec.encode_video(video, depth, device);

    // Decode everything, collecting per-frame decode timelines.
    let (decoded, decode_timelines) = codec.decode_video_with_timelines(&encoded, device)?;
    let decode_total: f64 =
        decode_timelines.iter().map(|t| t.total_modeled_ms().as_f64()).sum();
    let decode_ms = decode_total / video.len().max(1) as f64;

    // Quality: decoded frames vs the *deduplicated* voxelized originals —
    // one mean color per occupied voxel, the form the real (pre-voxelized)
    // captures ship in. Voxelization error, shared by every codec, is not
    // counted against any design.
    let bb = video.bounding_box();
    let peak = ((1u32 << depth) - 1) as f64;
    let mut geo_psnrs = Vec::new();
    let mut attr_psnrs = Vec::new();
    for (i, frame) in video.iter().enumerate().take(options.psnr_frames) {
        let vox = match &bb {
            Some(bb) => VoxelizedCloud::from_cloud_in_box(&frame.cloud, depth, bb),
            None => VoxelizedCloud::from_cloud(&frame.cloud, depth),
        };
        let reference = vox.dedup_mean().to_cloud();
        let Some(dec) = decoded.get(i) else { break };
        if let Some(p) = geometry_psnr(&reference, dec, peak) {
            geo_psnrs.push(p);
        }
        if let Some(p) = attribute_psnr(&reference, dec) {
            attr_psnrs.push(p);
        }
    }

    // Per-frame records.
    let mut per_frame = Vec::with_capacity(encoded.frames.len());
    for (i, (frame, timeline)) in
        encoded.frames.iter().zip(&encoded.encode_timelines).enumerate()
    {
        per_frame.push(FrameReport {
            index: i,
            predicted: frame.kind() == pcc_types::FrameKind::Predicted,
            encode_ms: timeline.total_modeled_ms().as_f64(),
            geometry_ms: timeline.stage_ms("geometry").as_f64(),
            attribute_ms: timeline.stage_ms("attribute").as_f64()
                + timeline.stage_ms("inter_attr").as_f64()
                + timeline.stage_ms("inter").as_f64(),
            energy_j: timeline.total_energy_j().as_f64(),
            decode_ms: decode_timelines
                .get(i)
                .map_or(decode_ms, |t| t.total_modeled_ms().as_f64()),
            size: frame.size(),
            raw_bytes: frame.raw_points() * pcc_types::RAW_BYTES_PER_POINT,
            reuse_fraction: frame.reuse_fraction(),
        });
    }

    let frames = per_frame.len().max(1) as f64;
    let size: CompressedSize = encoded.total_size();
    let raw = encoded.total_raw_bytes();
    let reuse: Vec<f64> = per_frame.iter().filter_map(|f| f.reuse_fraction).collect();

    Ok(DesignReport {
        design: codec.design(),
        video: video.name().to_owned(),
        frames: per_frame.len(),
        encode_ms: per_frame.iter().map(|f| f.encode_ms).sum::<f64>() / frames,
        geometry_ms: per_frame.iter().map(|f| f.geometry_ms).sum::<f64>() / frames,
        attribute_ms: per_frame.iter().map(|f| f.attribute_ms).sum::<f64>() / frames,
        energy_j: per_frame.iter().map(|f| f.energy_j).sum::<f64>() / frames,
        decode_ms,
        size,
        percent_of_raw: size.percent_of_raw(raw),
        compression_ratio: size.compression_ratio(raw),
        geometry_psnr_db: mean_psnr(&geo_psnrs),
        attribute_psnr_db: mean_psnr(&attr_psnrs),
        reuse_fraction: if reuse.is_empty() {
            None
        } else {
            Some(reuse.iter().sum::<f64>() / reuse.len() as f64)
        },
        per_frame,
    })
}

/// Mean of PSNR values; infinite values dominate only if all are infinite.
fn mean_psnr(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        f64::INFINITY
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Design;
    use pcc_datasets::catalog;
    use pcc_edge::PowerMode;

    #[test]
    fn evaluate_produces_consistent_report() {
        let video = catalog::by_name("Loot").unwrap().generate_scaled(3, 1_500);
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let codec = PccCodec::new(Design::IntraOnly);
        let report = evaluate(&codec, &video, &device, EvalOptions::default()).unwrap();
        assert_eq!(report.frames, 3);
        assert!(report.encode_ms > 0.0);
        assert!(report.geometry_ms > 0.0 && report.geometry_ms < report.encode_ms);
        assert!(report.energy_j > 0.0);
        assert!(report.decode_ms > 0.0);
        assert!(report.percent_of_raw > 0.0 && report.percent_of_raw < 100.0);
        assert!(report.compression_ratio > 1.0);
        // Proposed geometry is lossless at voxel precision.
        assert!(report.geometry_psnr_db.is_infinite());
        assert!(report.attribute_psnr_db > 30.0);
        assert_eq!(report.per_frame.len(), 3);
    }

    #[test]
    fn quality_ordering_matches_paper() {
        // TMC13 should have the best attribute quality; V2 the worst.
        let video = catalog::by_name("Redandblack").unwrap().generate_scaled(3, 1_500);
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let opts = EvalOptions::default();
        let psnr = |design: Design| {
            evaluate(&PccCodec::new(design), &video, &device, opts).unwrap().attribute_psnr_db
        };
        let tmc13 = psnr(Design::Tmc13);
        let intra = psnr(Design::IntraOnly);
        let v2 = psnr(Design::IntraInterV2);
        assert!(tmc13 > intra, "TMC13 {tmc13:.1} should beat Intra {intra:.1}");
        assert!(intra >= v2, "Intra {intra:.1} should beat V2 {v2:.1}");
    }

    #[test]
    fn mean_psnr_edge_cases() {
        assert!(mean_psnr(&[]).is_nan());
        assert!(mean_psnr(&[f64::INFINITY]).is_infinite());
        assert_eq!(mean_psnr(&[40.0, f64::INFINITY, 50.0]), 45.0);
    }
}
