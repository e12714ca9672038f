//! The quality ladder: ordered operating points a live session can shed
//! quality through without breaking the wire format.
//!
//! Every rung must stay decodable by a receiver that only saw the
//! session's stream header, because degradation is an *encoder-side*
//! decision taken mid-stream with no signalling round-trip. The codec
//! makes three knobs safe to move live:
//!
//! * `reuse_threshold` — consulted only while encoding; the coded
//!   P-frame carries its reuse flags explicitly.
//! * `intra.two_layer` — the intra attribute payload self-describes its
//!   layer count in its first byte.
//! * P-frame shedding — a skipped frame is simply a frame-index gap,
//!   which the receiver's loss handling already charges as one dropped
//!   P-frame (never a desync, because I-frames are never shed).
//!
//! Everything else (block/candidate counts, segment density,
//! quantization) is part of the decode contract and is pinned across
//! rungs by [`QualityLadder::new`].

use pcc_inter::InterConfig;

/// One operating point on the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rung {
    /// Human-readable label (shows up in traces).
    pub name: &'static str,
    /// Inter/intra settings to encode with at this rung.
    pub config: InterConfig,
    /// Keep every `p_keep_stride`-th P-frame of a group (1 = keep all).
    /// I-frames are never shed regardless of this value.
    pub p_keep_stride: u32,
}

/// Ordered operating points, best quality first.
///
/// Index 0 is the top rung (full quality); higher indices trade quality
/// for encode time and bytes. The ladder never changes what a receiver
/// must be able to decode — see the module docs for which knobs may
/// move between rungs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QualityLadder {
    rungs: Vec<Rung>,
}

impl QualityLadder {
    /// Builds a ladder from explicit rungs (best quality first).
    ///
    /// # Panics
    ///
    /// Panics if `rungs` is empty, any stride is zero, or a rung moves a
    /// decode-contract knob (blocks, candidates, segment density,
    /// quantization, brick cut depth) away from rung 0 —
    /// such a ladder would desynchronize every receiver the moment it
    /// was used.
    pub fn new(rungs: Vec<Rung>) -> Self {
        assert!(!rungs.is_empty(), "a ladder needs at least one rung");
        let top = rungs.first().expect("non-empty").config;
        for rung in &rungs {
            assert!(rung.p_keep_stride >= 1, "rung {}: stride must be >= 1", rung.name);
            let c = rung.config;
            assert!(
                c.blocks == top.blocks
                    && c.candidates == top.candidates
                    && c.intra.segments == top.intra.segments
                    && c.intra.quant_shift == top.intra.quant_shift
                    && c.intra.brick_depth == top.intra.brick_depth,
                "rung {}: moves a decode-contract knob mid-stream",
                rung.name
            );
        }
        QualityLadder { rungs }
    }

    /// The standard four-rung ladder over a base configuration:
    ///
    /// 1. `full` — the base operating point (2-layer intra, base
    ///    threshold, every frame encoded);
    /// 2. `raised-threshold` — the V2-style compression-oriented
    ///    threshold (at least 4× the base), trading PSNR for bytes and
    ///    delta-coding work;
    /// 3. `single-layer` — additionally drops the second intra attribute
    ///    layer (the paper's optional refinement stage);
    /// 4. `p-shed` — additionally keeps only every second P-frame,
    ///    halving the P-frame rate while every GOF still anchors.
    pub fn standard(base: InterConfig) -> Self {
        let raised = base.reuse_threshold.saturating_mul(4).max(InterConfig::v2().reuse_threshold);
        let mut single = base.with_threshold(raised);
        single.intra.two_layer = false;
        QualityLadder::new(vec![
            Rung { name: "full", config: base, p_keep_stride: 1 },
            Rung {
                name: "raised-threshold",
                config: base.with_threshold(raised),
                p_keep_stride: 1,
            },
            Rung { name: "single-layer", config: single, p_keep_stride: 1 },
            Rung { name: "p-shed", config: single, p_keep_stride: 2 },
        ])
    }

    /// Number of rungs.
    #[allow(clippy::len_without_is_empty)] // a ladder is never empty
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// The rung at `index`, clamped to the bottom of the ladder.
    pub fn rung(&self, index: usize) -> &Rung {
        let last = self.rungs.len() - 1;
        self.rungs.get(index.min(last)).expect("clamped index is in range")
    }

    /// All rungs, best quality first.
    pub fn rungs(&self) -> &[Rung] {
        &self.rungs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_ladder_orders_quality_down() {
        let ladder = QualityLadder::standard(InterConfig::v1());
        assert_eq!(ladder.len(), 4);
        assert_eq!(ladder.rung(0).name, "full");
        assert!(ladder.rung(1).config.reuse_threshold > ladder.rung(0).config.reuse_threshold);
        assert!(ladder.rung(0).config.intra.two_layer);
        assert!(!ladder.rung(2).config.intra.two_layer);
        assert_eq!(ladder.rung(3).p_keep_stride, 2);
        // Out-of-range indices clamp to the bottom rung.
        assert_eq!(ladder.rung(99).name, "p-shed");
    }

    #[test]
    fn standard_ladder_raises_at_least_to_v2() {
        let ladder = QualityLadder::standard(InterConfig::v1());
        assert!(ladder.rung(1).config.reuse_threshold >= InterConfig::v2().reuse_threshold);
    }

    #[test]
    fn decode_contract_knobs_are_pinned_across_rungs() {
        let ladder = QualityLadder::standard(InterConfig::v1());
        let top = ladder.rung(0).config;
        for rung in ladder.rungs() {
            assert_eq!(rung.config.blocks, top.blocks);
            assert_eq!(rung.config.candidates, top.candidates);
            assert_eq!(rung.config.intra.segments, top.intra.segments);
        }
    }

    #[test]
    #[should_panic(expected = "decode-contract knob")]
    fn ladder_rejects_decode_contract_changes() {
        let base = InterConfig::v1();
        let mut hostile = base;
        hostile.candidates = 7; // decode-relevant: receiver would desync
        QualityLadder::new(vec![
            Rung { name: "full", config: base, p_keep_stride: 1 },
            Rung { name: "bad", config: hostile, p_keep_stride: 1 },
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one rung")]
    fn empty_ladder_is_rejected() {
        QualityLadder::new(Vec::new());
    }
}
