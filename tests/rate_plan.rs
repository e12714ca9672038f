//! Property-based coverage for the rate controller: the threshold search
//! must be monotone in the target ratio. Case counts are deliberately
//! tiny — every case costs a full bisection (≈22 probe encodes).

use pcc::core::rate;
use pcc::datasets::catalog;
use pcc::edge::{Device, PowerMode};
use pcc::inter::InterConfig;
use pcc::types::Video;
use proptest::prelude::*;

fn device() -> Device {
    Device::jetson_agx_xavier(PowerMode::W15)
}

/// A small deterministic probe clip (rate searches re-encode it ~22×
/// per case, so keep it cheap).
fn probe() -> Video {
    catalog::by_name("Loot").unwrap().generate_scaled(2, 600)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// A stricter size target can never be met by a *smaller* reuse
    /// threshold: `threshold_for_ratio` is monotone non-decreasing in the
    /// target ratio (the knob the paper calls tunable in Sec. VI-E).
    #[test]
    fn threshold_search_is_monotone_in_target(
        lo_target in 1.0f64..5.0,
        step in 0.25f64..2.5,
    ) {
        let video = probe();
        let d = device();
        let hi_target = lo_target + step;
        let lo = rate::threshold_for_ratio(&video, 6, InterConfig::v1(), lo_target, &d);
        let hi = rate::threshold_for_ratio(&video, 6, InterConfig::v1(), hi_target, &d);
        prop_assert!(
            lo.threshold <= hi.threshold,
            "target {lo_target:.2} chose threshold {} but stricter target {hi_target:.2} \
             chose smaller threshold {}",
            lo.threshold,
            hi.threshold,
        );
        // The search never reports an achieved ratio below the target
        // unless it saturated the knob entirely.
        prop_assert!(
            lo.achieved_ratio >= lo_target || lo.threshold == 1 << 20,
            "unsaturated search under-achieved: {lo:?}"
        );
    }
}
