//! Rate control: pick the direct-reuse threshold for a target size.
//!
//! The paper proposes the percentage of direct-reuse blocks as "a tunable
//! design knob, for which users can choose the appropriate value based on
//! their preferences" (Sec. VI-E). This module turns the knob
//! automatically: given a target compression ratio, it binary-searches
//! the reuse threshold (whose effect on size is monotone — Fig. 10b) on a
//! short probe prefix of the video.

use crate::codec::PccCodec;
use pcc_edge::Device;
use pcc_inter::InterConfig;
use pcc_types::Video;

/// The outcome of a rate-control search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateChoice {
    /// The chosen reuse threshold.
    pub threshold: u32,
    /// Compression ratio achieved on the probe prefix at that threshold.
    pub achieved_ratio: f64,
    /// Encode probes spent searching.
    pub probes: u32,
}

/// Upper bound of the threshold search range (beyond this everything is
/// reused and the ratio saturates).
pub const MAX_THRESHOLD: u32 = 1 << 20;

/// Picks the smallest reuse threshold whose compression ratio on `video`
/// (encoded at `depth` with `base` settings) reaches `target_ratio`.
///
/// Quality falls as the threshold grows (Fig. 10b), so "smallest
/// sufficient threshold" is the quality-optimal choice for the size
/// budget. If even [`MAX_THRESHOLD`] cannot reach the target, the result
/// reports the saturated ratio so callers can decide what to trade.
///
/// Probe cost: `O(log MAX_THRESHOLD)` full encodes of `video` — pass a
/// short prefix (2–6 frames) of the stream you actually plan to send.
///
/// # Examples
///
/// ```
/// use pcc_core::rate::threshold_for_ratio;
/// use pcc_datasets::catalog;
/// use pcc_edge::{Device, PowerMode};
/// use pcc_inter::InterConfig;
///
/// let probe = catalog::by_name("Loot").unwrap().generate_scaled(3, 2_000);
/// let device = Device::jetson_agx_xavier(PowerMode::W15);
/// let choice = threshold_for_ratio(&probe, 7, InterConfig::v1(), 3.0, &device);
/// assert!(choice.achieved_ratio >= 3.0 || choice.threshold == 1 << 20);
/// ```
pub fn threshold_for_ratio(
    video: &Video,
    depth: u8,
    base: InterConfig,
    target_ratio: f64,
    device: &Device,
) -> RateChoice {
    let ratio_at = |threshold: u32, probes: &mut u32| -> f64 {
        *probes += 1;
        let codec = PccCodec::with_inter_config(base.with_threshold(threshold));
        let encoded = codec.encode_video(video, depth, device);
        encoded.total_size().compression_ratio(encoded.total_raw_bytes())
    };

    let mut probes = 0;
    // Fast paths: already enough at zero, or unreachable at max.
    if ratio_at(0, &mut probes) >= target_ratio {
        let achieved = ratio_at(0, &mut probes);
        return RateChoice { threshold: 0, achieved_ratio: achieved, probes };
    }
    let saturated = ratio_at(MAX_THRESHOLD, &mut probes);
    if saturated < target_ratio {
        return RateChoice { threshold: MAX_THRESHOLD, achieved_ratio: saturated, probes };
    }

    // Monotone bisection on the threshold (log-ish via plain bisection on
    // the integer range — 20 probes max).
    let (mut lo, mut hi) = (0u32, MAX_THRESHOLD);
    let mut best = (MAX_THRESHOLD, saturated);
    while hi - lo > 1 && probes < 24 {
        let mid = lo + (hi - lo) / 2;
        let r = ratio_at(mid, &mut probes);
        if r >= target_ratio {
            best = (mid, r);
            hi = mid;
        } else {
            lo = mid;
        }
    }
    RateChoice { threshold: best.0, achieved_ratio: best.1, probes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_datasets::catalog;
    use pcc_edge::PowerMode;

    fn probe_video() -> Video {
        catalog::by_name("Redandblack").unwrap().generate_scaled(3, 2_000)
    }

    #[test]
    fn meets_a_feasible_target() {
        let video = probe_video();
        let d = Device::jetson_agx_xavier(PowerMode::W15);
        // Ask for a ratio between the intra-only floor and the saturated
        // all-reuse ceiling.
        let choice = threshold_for_ratio(&video, 7, InterConfig::v1(), 3.6, &d);
        assert!(choice.achieved_ratio >= 3.6, "achieved {:.2}", choice.achieved_ratio);
        assert!(choice.threshold < MAX_THRESHOLD);
        assert!(choice.probes <= 24);
    }

    #[test]
    fn reports_saturation_for_impossible_targets() {
        let video = probe_video();
        let d = Device::jetson_agx_xavier(PowerMode::W15);
        let choice = threshold_for_ratio(&video, 7, InterConfig::v1(), 1_000.0, &d);
        assert_eq!(choice.threshold, MAX_THRESHOLD);
        assert!(choice.achieved_ratio < 1_000.0);
    }

    #[test]
    fn trivial_targets_need_no_reuse() {
        let video = probe_video();
        let d = Device::jetson_agx_xavier(PowerMode::W15);
        let choice = threshold_for_ratio(&video, 7, InterConfig::v1(), 1.01, &d);
        assert_eq!(choice.threshold, 0);
    }

    #[test]
    fn tighter_targets_need_larger_thresholds() {
        let video = probe_video();
        let d = Device::jetson_agx_xavier(PowerMode::W15);
        let loose = threshold_for_ratio(&video, 7, InterConfig::v1(), 3.4, &d);
        let tight = threshold_for_ratio(&video, 7, InterConfig::v1(), 4.0, &d);
        assert!(
            tight.threshold >= loose.threshold,
            "tight {} < loose {}",
            tight.threshold,
            loose.threshold
        );
    }
}
