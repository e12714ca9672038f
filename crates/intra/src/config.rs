//! Intra-codec configuration.

/// Configuration of the intra-frame codec.
///
/// Defaults follow the paper's evaluated operating point (Sec. VI-B):
/// 30 000 segments per frame and a 2-layer residual encoder. Every knob
/// that shapes the bitstream is written into it, so a frame decodes
/// without its encoder's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntraConfig {
    /// Target number of attribute segments per frame.
    pub segments: usize,
    /// Residual quantization shift: residuals are quantized with step
    /// `1 << quant_shift` (0 = lossless residuals).
    pub quant_shift: u8,
    /// Re-encode the residual stream through a second base+delta layer.
    pub two_layer: bool,
    /// Octree depth at which the frame is cut into **bricks** — fixed-depth
    /// subtree partitions, each carrying its own geometry + attribute
    /// payload behind a CRC-guarded per-frame index, so bricks decode in
    /// parallel, a viewport decodes only the bricks it sees, and a corrupt
    /// brick loses one subtree instead of the frame.
    ///
    /// `0` (the default) selects the original monolithic layout — the
    /// golden-pinned compatibility mode. Non-zero values are clamped to
    /// `1..=depth-1` at encode time; grids too shallow to split
    /// (`depth < 2`) fall back to the monolithic layout. The decoder
    /// detects the layout per frame, so any receiver decodes both.
    pub brick_depth: u8,
}

impl IntraConfig {
    /// The paper's evaluated configuration.
    pub fn paper() -> Self {
        IntraConfig {
            segments: 30_000,
            quant_shift: 2,
            two_layer: true,
            brick_depth: 0,
        }
    }

    /// This configuration with the frame cut into bricks at `brick_depth`
    /// (see [`IntraConfig::brick_depth`]; `0` restores the monolithic
    /// layout).
    pub fn with_bricks(self, brick_depth: u8) -> Self {
        IntraConfig { brick_depth, ..self }
    }

    /// The brick cut depth the encoder actually uses for a grid of
    /// `depth`: the configured value clamped to a splittable range, or
    /// `None` when the frame stays monolithic (brick coding off, or the
    /// grid too shallow to split).
    pub fn effective_brick_depth(&self, depth: u8) -> Option<u8> {
        if self.brick_depth == 0 || depth < 2 {
            return None;
        }
        Some(self.brick_depth.min(depth - 1))
    }

    /// A lossless-residual configuration (for tests and ablations).
    pub fn lossless() -> Self {
        IntraConfig { quant_shift: 0, ..IntraConfig::paper() }
    }

    /// Segment count scaled to a frame of `points` points, preserving the
    /// configured full-scale density (`segments` per 10⁶ points; the
    /// paper's 30 000 ⇒ ~33 points per segment).
    pub fn segments_for(&self, points: usize) -> usize {
        let per_segment = 1_000_000.0 / self.segments.max(1) as f64;
        let scaled = (points as f64 / per_segment).round() as usize;
        scaled.clamp(1, self.segments.max(1))
    }

    /// The residual quantization step (`1 << quant_shift`).
    pub fn quant_step(&self) -> i32 {
        1 << self.quant_shift
    }
}

impl Default for IntraConfig {
    fn default() -> Self {
        IntraConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = IntraConfig::default();
        assert_eq!(c.segments, 30_000);
        assert_eq!(c.quant_step(), 4);
        assert!(c.two_layer);
    }

    #[test]
    fn segment_scaling_preserves_density() {
        let c = IntraConfig::default();
        assert_eq!(c.segments_for(1_000_000), 30_000);
        assert_eq!(c.segments_for(100_000), 3_000);
        assert_eq!(c.segments_for(10), 1); // tiny frames get one segment
        // Never exceeds the configured cap.
        assert_eq!(c.segments_for(10_000_000), 30_000);
    }

    #[test]
    fn lossless_config_has_unit_step() {
        assert_eq!(IntraConfig::lossless().quant_step(), 1);
    }

    #[test]
    fn brick_depth_clamps_to_splittable_grids() {
        let c = IntraConfig::default();
        assert_eq!(c.brick_depth, 0, "monolithic stays the default");
        assert_eq!(c.effective_brick_depth(7), None);
        let b = c.with_bricks(3);
        assert_eq!(b.effective_brick_depth(7), Some(3));
        assert_eq!(b.effective_brick_depth(3), Some(2), "cut must leave a subtree level");
        assert_eq!(b.effective_brick_depth(2), Some(1));
        assert_eq!(b.effective_brick_depth(1), None, "a 2^3 grid cannot split");
        assert_eq!(b.with_bricks(0).effective_brick_depth(7), None);
    }
}
