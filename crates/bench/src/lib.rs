//! Experiment harness and host-measurement kit: scaled workload
//! construction and full-scale extrapolation of modeled numbers for the
//! `experiments` binary, and the process CPU [`clock`] and counting
//! [`alloc`]ator that the `hotpath` gate and the zero-allocation test
//! measure with.
//!
//! Every figure/table of the paper has a `fig*`/`table*` function here
//! that returns its data as printable text; the binary just dispatches.

// `clock` reads the process CPU clock through one FFI call, and `alloc`
// wraps the system allocator to count calls; everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod clock;
pub mod figures;
pub mod locality;

use pcc_datasets::{catalog, VideoSpec};
use pcc_types::Video;

/// Workload scale for experiment runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Points per frame to generate.
    pub points: usize,
    /// Frames per video.
    pub frames: usize,
}

impl Default for Scale {
    fn default() -> Self {
        // Laptop-scale: large enough for stable statistics, small enough
        // to sweep 5 designs × 6 videos in minutes.
        Scale { points: 8_000, frames: 6 }
    }
}

impl Scale {
    /// Reads `PCC_POINTS` / `PCC_FRAMES` from the environment, falling
    /// back to the defaults.
    pub fn from_env() -> Self {
        let mut s = Scale::default();
        if let Some(p) = std::env::var("PCC_POINTS").ok().and_then(|v| v.parse().ok()) {
            s.points = p;
        }
        if let Some(f) = std::env::var("PCC_FRAMES").ok().and_then(|v| v.parse().ok()) {
            s.frames = f;
        }
        s
    }

    /// Generates the scaled version of a Table-I video.
    pub fn video(&self, spec: &VideoSpec) -> Video {
        spec.generate_scaled(self.frames, self.points)
    }

    /// The voxel depth matching this scale's density.
    pub fn depth(&self) -> u8 {
        pcc_datasets::density_matched_depth(self.points)
    }

    /// Factor mapping scaled modeled latency/energy to the full-size
    /// capture (the device model is linear in work items).
    pub fn full_scale_factor(&self, spec: &VideoSpec) -> f64 {
        spec.points_per_frame as f64 / self.points as f64
    }
}

/// The six Table-I videos.
pub fn all_specs() -> &'static [VideoSpec] {
    &catalog::TABLE_I
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_sane() {
        let s = Scale::default();
        assert!(s.points >= 1_000);
        assert!(s.frames >= 3);
        assert!((4..=10).contains(&s.depth()));
    }

    #[test]
    fn full_scale_factor_matches_table1() {
        let s = Scale { points: 10_000, frames: 3 };
        let loot = catalog::by_name("Loot").unwrap();
        let f = s.full_scale_factor(loot);
        assert!((f - 79.3821).abs() < 1e-6);
    }

    #[test]
    fn scaled_video_generation() {
        let s = Scale { points: 1_000, frames: 2 };
        let v = s.video(catalog::by_name("Phil10").unwrap());
        assert_eq!(v.len(), 2);
        assert!(v.mean_points_per_frame() > 900);
    }
}
