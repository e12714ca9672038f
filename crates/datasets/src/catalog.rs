//! The six Table-I videos and their generators.

use crate::synthetic::{BodyCoverage, SyntheticVideo, Wardrobe};
use pcc_types::Video;

/// Which source dataset a video belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetFamily {
    /// 8i Voxelized Full Bodies (42 RGB cameras, full figures).
    EightIVfb,
    /// Microsoft Voxelized Upper Bodies (4 frontal RGBD cameras).
    Mvub,
}

/// One video of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VideoSpec {
    /// Video name as the paper spells it.
    pub name: &'static str,
    /// Source dataset.
    pub family: DatasetFamily,
    /// Frame count in the original capture.
    pub frames: usize,
    /// Points per frame in the original capture.
    pub points_per_frame: usize,
}

/// The paper's Table I: six videos, their frame counts, and points/frame.
pub const TABLE_I: [VideoSpec; 6] = [
    VideoSpec {
        name: "Redandblack",
        family: DatasetFamily::EightIVfb,
        frames: 300,
        points_per_frame: 727_070,
    },
    VideoSpec {
        name: "Longdress",
        family: DatasetFamily::EightIVfb,
        frames: 300,
        points_per_frame: 834_315,
    },
    VideoSpec {
        name: "Loot",
        family: DatasetFamily::EightIVfb,
        frames: 300,
        points_per_frame: 793_821,
    },
    VideoSpec {
        name: "Soldier",
        family: DatasetFamily::EightIVfb,
        frames: 300,
        points_per_frame: 1_075_299,
    },
    VideoSpec {
        name: "Andrew10",
        family: DatasetFamily::Mvub,
        frames: 318,
        points_per_frame: 1_298_699,
    },
    VideoSpec {
        name: "Phil10",
        family: DatasetFamily::Mvub,
        frames: 245,
        points_per_frame: 1_486_648,
    },
];

impl VideoSpec {
    /// Looks up a Table-I video by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<&'static VideoSpec> {
        TABLE_I.iter().find(|v| v.name.eq_ignore_ascii_case(name))
    }

    /// The synthetic generator configured to mimic this video.
    pub fn generator(&self) -> SyntheticVideo {
        self.generator_with_points(self.points_per_frame)
    }

    /// The generator, overriding points per frame (for laptop-scale runs).
    pub fn generator_with_points(&self, points_per_frame: usize) -> SyntheticVideo {
        let (coverage, wardrobe, seed) = match self.name {
            "Redandblack" => (BodyCoverage::FullBody, Wardrobe::red_and_black(), 0x8001),
            "Longdress" => (BodyCoverage::FullBody, Wardrobe::long_dress(), 0x8002),
            "Loot" => (BodyCoverage::FullBody, Wardrobe::loot(), 0x8003),
            "Soldier" => (BodyCoverage::FullBody, Wardrobe::soldier(), 0x8004),
            "Andrew10" => (BodyCoverage::UpperBody, Wardrobe::casual(10), 0x8005),
            _ => (BodyCoverage::UpperBody, Wardrobe::casual(60), 0x8006),
        };
        SyntheticVideo::new(self.name, points_per_frame, coverage, wardrobe, seed)
    }

    /// Generates a scaled-down version of this video: `frames` frames of
    /// roughly `points_per_frame` points.
    pub fn generate_scaled(&self, frames: usize, points_per_frame: usize) -> Video {
        self.generator_with_points(points_per_frame).generate(frames)
    }
}

/// Looks up a Table-I video by name (free-function convenience).
pub fn by_name(name: &str) -> Option<&'static VideoSpec> {
    VideoSpec::by_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_matches_paper() {
        assert_eq!(TABLE_I.len(), 6);
        let rb = by_name("redandblack").unwrap();
        assert_eq!(rb.frames, 300);
        assert_eq!(rb.points_per_frame, 727_070);
        let phil = by_name("Phil10").unwrap();
        assert_eq!(phil.frames, 245);
        assert_eq!(phil.points_per_frame, 1_486_648);
        assert_eq!(phil.family, DatasetFamily::Mvub);
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(by_name("Basketball").is_none());
    }

    #[test]
    fn each_video_has_distinct_seeded_generator() {
        let a = by_name("Loot").unwrap().generate_scaled(1, 2000);
        let b = by_name("Soldier").unwrap().generate_scaled(1, 2000);
        assert_ne!(a.frame(0).unwrap().cloud, b.frame(0).unwrap().cloud);
    }

    #[test]
    fn mvub_videos_are_upper_body() {
        let andrew = by_name("Andrew10").unwrap().generate_scaled(1, 3000);
        let soldier = by_name("Soldier").unwrap().generate_scaled(1, 3000);
        let ea = andrew.frame(0).unwrap().cloud.bounding_box().unwrap().extents();
        let es = soldier.frame(0).unwrap().cloud.bounding_box().unwrap().extents();
        assert!(ea.y < es.y);
    }

    #[test]
    fn scaled_generation_honors_budget() {
        let v = by_name("Longdress").unwrap().generate_scaled(2, 10_000);
        assert_eq!(v.len(), 2);
        let n = v.mean_points_per_frame();
        assert!((9_500..=10_500).contains(&n), "points {n}");
    }
}
