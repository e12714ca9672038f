//! Pre-flight session planning: fit a stream to a link and a frame rate.
//!
//! Before going live, a sender can probe a short prefix of its capture
//! against the link budget: [`plan_session`] turns a link rate (kbit/s)
//! and frame rate into a target compression ratio, drives the rate
//! controller ([`pcc_core::rate::threshold_for_ratio`]) to pick the
//! direct-reuse threshold, and then re-encodes the probe at that
//! operating point to report the bytes-per-frame and modeled edge
//! latency the session should expect.

use pcc_core::{container, rate, PccCodec};
use pcc_edge::Device;
use pcc_inter::InterConfig;
use pcc_types::Video;

use crate::StreamConfig;

/// Conservative per-frame overhead of a muxed wire record over its codec
/// payload (design tag + varint section lengths — single digits in
/// practice; `tests/golden.rs` and the `measured_bytes_track_the_rate_search`
/// test both bound it well below this). Shared by [`plan_session`] and
/// [`SessionPlan::replan`] so pre-flight and mid-session budgeting agree.
pub const MUX_OVERHEAD_BYTES: f64 = 64.0;

/// The operating point chosen for a streaming session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionPlan {
    /// Inter-frame settings to stream with (base config plus the chosen
    /// reuse threshold).
    pub config: InterConfig,
    /// Compression ratio the link requires: raw bytes over the link
    /// budget left after per-frame wire-record overhead.
    pub target_ratio: f64,
    /// Ratio the chosen threshold achieved on the probe.
    pub achieved_ratio: f64,
    /// Mean coded wire bytes per frame measured on the probe.
    pub bytes_per_frame: f64,
    /// Bytes per frame the link affords at the given frame rate.
    pub link_bytes_per_frame: f64,
    /// Mean modeled edge encode latency per probe frame (ms).
    pub modeled_encode_ms_per_frame: f64,
    /// The frame period (ms) — the latency budget at the given rate.
    pub frame_budget_ms: f64,
    /// Encode probes the rate search spent.
    pub rate_probes: u32,
}

impl SessionPlan {
    /// Whether the probe's coded size fits the link budget.
    pub fn fits_bandwidth(&self) -> bool {
        self.bytes_per_frame <= self.link_bytes_per_frame
    }

    /// Whether the modeled encode latency keeps up with the frame rate.
    pub fn fits_latency(&self) -> bool {
        self.modeled_encode_ms_per_frame <= self.frame_budget_ms
    }

    /// A codec at the planned operating point.
    pub fn codec(&self) -> PccCodec {
        PccCodec::with_inter_config(self.config)
    }

    /// A [`StreamConfig`] carrying the plan's latency budget.
    pub fn stream_config(&self) -> StreamConfig {
        StreamConfig { frame_budget_ms: Some(self.frame_budget_ms), ..StreamConfig::default() }
    }

    /// Re-plans mid-session from live observations instead of re-running
    /// the rate search: scales the reuse threshold by how far the
    /// observed wire bytes per frame overshoot (or undershoot) the new
    /// link's coded budget.
    ///
    /// `observed_bytes_per_frame` is the mean wire bytes per frame the
    /// session actually produced (e.g. `bytes_sent / frames_sent` from
    /// [`StreamStats`](crate::StreamStats)); `link_kbps` is the revised
    /// link estimate. The frame rate is carried over from the original
    /// plan. Threshold scaling is a first-order estimate — reuse grows
    /// monotonically with the threshold (paper Fig. 10b) but not
    /// linearly, so treat the result as the next operating point to try,
    /// not a guarantee; probes are free (`rate_probes == 0`).
    ///
    /// The returned plan keeps `bytes_per_frame` at the observed value,
    /// so [`fits_bandwidth`](SessionPlan::fits_bandwidth) answers "does
    /// the stream as currently coded fit the new link" and turns `true`
    /// only after the session re-measures at the new threshold.
    pub fn replan(&self, observed_bytes_per_frame: f64, link_kbps: f64) -> SessionPlan {
        assert!(link_kbps > 0.0, "link rate must be positive");
        assert!(
            observed_bytes_per_frame > 0.0,
            "observed bytes per frame must be positive"
        );
        let fps = 1000.0 / self.frame_budget_ms;
        let link_bytes_per_frame = link_kbps * 1000.0 / 8.0 / fps;
        let coded_budget = (link_bytes_per_frame - MUX_OVERHEAD_BYTES).max(1.0);
        // Recover the raw-bytes-per-frame figure the original target was
        // derived from, then restate the target against the new budget.
        let raw_bytes_per_frame =
            self.target_ratio * (self.link_bytes_per_frame - MUX_OVERHEAD_BYTES).max(1.0);
        let target_ratio = raw_bytes_per_frame / coded_budget;

        // Scale the threshold by the overshoot factor. Tightening from a
        // zero threshold needs a seed value to scale, hence the max(64).
        let scale = observed_bytes_per_frame / coded_budget;
        let threshold = if scale <= 1.0 {
            (self.config.reuse_threshold as f64 * scale).round() as u32
        } else {
            ((self.config.reuse_threshold.max(64)) as f64 * scale).ceil() as u32
        }
        .min(rate::MAX_THRESHOLD);

        SessionPlan {
            config: self.config.with_threshold(threshold),
            target_ratio,
            achieved_ratio: raw_bytes_per_frame
                / (observed_bytes_per_frame - MUX_OVERHEAD_BYTES).max(1.0),
            bytes_per_frame: observed_bytes_per_frame,
            link_bytes_per_frame,
            modeled_encode_ms_per_frame: self.modeled_encode_ms_per_frame,
            frame_budget_ms: self.frame_budget_ms,
            rate_probes: 0,
        }
    }
}

/// Plans a session: picks the reuse threshold that squeezes `probe`
/// into `link_kbps` at `fps`, then measures the probe at that point.
///
/// The target ratio is raw bytes per frame over link bytes per frame; a
/// generous link yields a target below the intra-only floor and the
/// search settles on threshold 0 (maximum quality). An impossible link
/// saturates the threshold — check [`SessionPlan::fits_bandwidth`].
///
/// Probe cost is `O(log threshold_range)` encodes of `probe`, so pass a
/// short prefix (2–6 frames) of the capture, not the whole stream.
pub fn plan_session(
    probe: &Video,
    depth: u8,
    base: InterConfig,
    fps: f64,
    link_kbps: f64,
    device: &Device,
) -> SessionPlan {
    assert!(fps > 0.0, "frame rate must be positive");
    assert!(link_kbps > 0.0, "link rate must be positive");
    let frame_budget_ms = 1000.0 / fps;
    let link_bytes_per_frame = link_kbps * 1000.0 / 8.0 / fps;
    let raw_bytes_per_frame =
        (probe.mean_points_per_frame() * pcc_types::RAW_BYTES_PER_POINT) as f64;
    // The rate search measures codec payload bytes, but the wire carries
    // muxed frame records (tag + varint section lengths on top of the
    // payload). Budget that overhead up front so a plan whose achieved
    // ratio reaches the target fits the link in *wire* bytes too.
    let coded_budget = (link_bytes_per_frame - MUX_OVERHEAD_BYTES).max(1.0);
    let target_ratio = raw_bytes_per_frame / coded_budget;

    let choice = rate::threshold_for_ratio(probe, depth, base, target_ratio, device);
    let config = base.with_threshold(choice.threshold);

    // Measure the chosen operating point on the probe: actual wire bytes
    // (muxed frame records, exactly what the chunk layer carries) and
    // modeled per-frame edge latency.
    let codec = PccCodec::with_inter_config(config);
    let mut encoder = codec.frame_encoder(depth, device);
    if let Some(bb) = probe.bounding_box() {
        encoder = encoder.with_bounding_box(bb);
    }
    let mut wire_bytes = 0usize;
    let mut modeled_ms = 0.0f64;
    for frame in probe.iter() {
        let (encoded, timeline) = encoder.encode_frame(&frame.cloud);
        let mut record = Vec::new();
        container::mux_frame(&mut record, &encoded);
        wire_bytes += record.len();
        modeled_ms += timeline.total_modeled_ms().as_f64();
    }
    let frames = probe.len().max(1) as f64;

    SessionPlan {
        config,
        target_ratio,
        achieved_ratio: choice.achieved_ratio,
        bytes_per_frame: wire_bytes as f64 / frames,
        link_bytes_per_frame,
        modeled_encode_ms_per_frame: modeled_ms / frames,
        frame_budget_ms,
        rate_probes: choice.probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_datasets::catalog;
    use pcc_edge::PowerMode;

    fn probe() -> Video {
        catalog::by_name("Loot").unwrap().generate_scaled(3, 2_000)
    }

    #[test]
    fn generous_links_plan_for_maximum_quality() {
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        // A link that could carry the raw points needs no reuse at all.
        let plan = plan_session(&probe(), 7, InterConfig::v1(), 30.0, 1e9, &device);
        assert_eq!(plan.config.reuse_threshold, 0);
        assert!(plan.fits_bandwidth(), "plan: {plan:?}");
        assert!(plan.frame_budget_ms > 33.0 && plan.frame_budget_ms < 34.0);
    }

    #[test]
    fn tight_links_raise_the_threshold() {
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let video = probe();
        let generous = plan_session(&video, 7, InterConfig::v1(), 30.0, 1e9, &device);
        // Demand a ratio above the probe's intra-only floor (≈3.95 for
        // this Loot slice) but inside the all-reuse ceiling (≈7.7), so
        // the search has to spend reuse to get there.
        let raw_bpf = (video.mean_points_per_frame() * pcc_types::RAW_BYTES_PER_POINT) as f64;
        let kbps = raw_bpf * 8.0 * 30.0 / 1000.0 / 4.5;
        let tight = plan_session(&video, 7, InterConfig::v1(), 30.0, kbps, &device);
        assert!(tight.config.reuse_threshold > generous.config.reuse_threshold);
        assert!(tight.achieved_ratio >= 4.5, "achieved {:.2}", tight.achieved_ratio);
        assert!(tight.bytes_per_frame < generous.bytes_per_frame);
        // The wire-overhead headroom makes the achieved plan really fit.
        assert!(tight.fits_bandwidth(), "plan: {tight:?}");
    }

    #[test]
    fn measured_bytes_track_the_rate_search() {
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let video = probe();
        let plan = plan_session(&video, 7, InterConfig::v1(), 30.0, 1e9, &device);
        // The probe re-measure and the planned codec agree on coded size.
        let encoded = plan.codec().encode_video(&video, 7, &device);
        let per_frame = encoded.total_size().total_bytes() as f64 / video.len() as f64;
        // Wire records add a tag byte and varint lengths per frame.
        assert!(plan.bytes_per_frame >= per_frame, "{} < {}", plan.bytes_per_frame, per_frame);
        assert!(plan.bytes_per_frame < per_frame + MUX_OVERHEAD_BYTES);
        let sc = plan.stream_config();
        assert_eq!(sc.frame_budget_ms, Some(plan.frame_budget_ms));
    }

    #[test]
    fn replan_raises_the_threshold_when_the_link_tightens() {
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let video = probe();
        let raw_bpf = (video.mean_points_per_frame() * pcc_types::RAW_BYTES_PER_POINT) as f64;
        let kbps = raw_bpf * 8.0 * 30.0 / 1000.0 / 4.5;
        let plan = plan_session(&video, 7, InterConfig::v1(), 30.0, kbps, &device);

        // The link halves: the observed size now overshoots the budget.
        let tighter = plan.replan(plan.bytes_per_frame, kbps / 2.0);
        assert!(tighter.config.reuse_threshold > plan.config.reuse_threshold);
        assert!(tighter.target_ratio > plan.target_ratio);
        assert!(!tighter.fits_bandwidth(), "plan: {tighter:?}");
        assert_eq!(tighter.rate_probes, 0);
        assert_eq!(tighter.frame_budget_ms, plan.frame_budget_ms);
        // Non-threshold knobs are decode-contract and never change.
        assert_eq!(tighter.config.blocks, plan.config.blocks);
        assert_eq!(tighter.config.intra, plan.config.intra);
    }

    #[test]
    fn replan_relaxes_toward_quality_when_the_link_opens_up() {
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let video = probe();
        let raw_bpf = (video.mean_points_per_frame() * pcc_types::RAW_BYTES_PER_POINT) as f64;
        let kbps = raw_bpf * 8.0 * 30.0 / 1000.0 / 4.5;
        let plan = plan_session(&video, 7, InterConfig::v1(), 30.0, kbps, &device);
        assert!(plan.config.reuse_threshold > 0);

        let relaxed = plan.replan(plan.bytes_per_frame, kbps * 100.0);
        assert!(relaxed.config.reuse_threshold < plan.config.reuse_threshold);
        assert!(relaxed.target_ratio < plan.target_ratio);
        assert!(relaxed.fits_bandwidth(), "plan: {relaxed:?}");
    }

    #[test]
    fn replan_clamps_to_the_search_range() {
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let plan = plan_session(&probe(), 7, InterConfig::v1(), 30.0, 1e9, &device);
        // An absurdly tight link cannot push past the rate search's cap.
        let squeezed = plan.replan(plan.bytes_per_frame.max(1.0) * 1e9, 1.0);
        assert_eq!(squeezed.config.reuse_threshold, rate::MAX_THRESHOLD);
    }
}
