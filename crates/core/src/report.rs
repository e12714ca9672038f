//! Evaluation report types.

use crate::design::Design;
use pcc_metrics::CompressedSize;
use serde::Serialize;

/// Per-frame measurement record.
#[derive(Debug, Clone, Serialize)]
pub struct FrameReport {
    /// Frame index in display order.
    pub index: usize,
    /// `true` if the frame was predicted.
    pub predicted: bool,
    /// Modeled encode latency, ms.
    pub encode_ms: f64,
    /// Modeled geometry-stage latency, ms.
    pub geometry_ms: f64,
    /// Modeled attribute-stage latency, ms (includes inter matching).
    pub attribute_ms: f64,
    /// Modeled encode energy, J.
    pub energy_j: f64,
    /// Modeled decode latency, ms.
    pub decode_ms: f64,
    /// Compressed size.
    pub size: CompressedSize,
    /// Raw (uncompressed) bytes.
    pub raw_bytes: usize,
    /// Direct-reuse block fraction (proposed inter frames only).
    pub reuse_fraction: Option<f64>,
}

/// Aggregated report for one design on one video — the row format of the
/// paper's Fig. 8 and the summary tables in `EXPERIMENTS.md`.
#[derive(Debug, Clone, Serialize)]
pub struct DesignReport {
    /// The evaluated design.
    pub design: Design,
    /// Video name.
    pub video: String,
    /// Frames measured.
    pub frames: usize,
    /// Mean modeled encode latency per frame, ms.
    pub encode_ms: f64,
    /// Mean modeled geometry-stage latency per frame, ms.
    pub geometry_ms: f64,
    /// Mean modeled attribute-stage latency per frame, ms.
    pub attribute_ms: f64,
    /// Mean modeled encode energy per frame, J.
    pub energy_j: f64,
    /// Mean modeled decode latency per frame, ms.
    pub decode_ms: f64,
    /// Total compressed size across frames.
    pub size: CompressedSize,
    /// Compressed size as % of raw.
    pub percent_of_raw: f64,
    /// Compression ratio (raw / compressed).
    pub compression_ratio: f64,
    /// Geometry PSNR vs the voxelized original, dB (∞ ⇒ lossless).
    pub geometry_psnr_db: f64,
    /// Attribute PSNR vs the voxelized original, dB.
    pub attribute_psnr_db: f64,
    /// Mean direct-reuse fraction over P-frames (proposed inter designs).
    pub reuse_fraction: Option<f64>,
    /// Per-frame records.
    pub per_frame: Vec<FrameReport>,
}

impl DesignReport {
    /// One formatted table row (design, latency split, energy, size %,
    /// PSNR) — the layout of the paper's Fig. 8 discussion.
    pub fn table_row(&self) -> String {
        format!(
            "{:<15} {:>10.1} {:>10.1} {:>10.1} {:>8.2} {:>8.1}% {:>7.1} dB",
            self.design.to_string(),
            self.geometry_ms,
            self.attribute_ms,
            self.encode_ms,
            self.energy_j,
            self.percent_of_raw,
            self.attribute_psnr_db,
        )
    }

    /// Table header matching [`table_row`](Self::table_row).
    pub fn table_header() -> String {
        format!(
            "{:<15} {:>10} {:>10} {:>10} {:>8} {:>9} {:>10}",
            "design", "geom ms", "attr ms", "total ms", "J/frame", "% raw", "attr PSNR"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_row_formats() {
        let r = DesignReport {
            design: Design::IntraOnly,
            video: "Loot".into(),
            frames: 3,
            encode_ms: 95.0,
            geometry_ms: 42.0,
            attribute_ms: 53.0,
            energy_j: 0.38,
            decode_ms: 70.0,
            size: CompressedSize::new(100, 400, 0),
            percent_of_raw: 17.0,
            compression_ratio: 5.9,
            geometry_psnr_db: f64::INFINITY,
            attribute_psnr_db: 48.5,
            reuse_fraction: None,
            per_frame: Vec::new(),
        };
        let row = r.table_row();
        assert!(row.contains("Intra-Only"));
        assert!(row.contains("48.5"));
        assert!(DesignReport::table_header().contains("attr PSNR"));
    }
}
