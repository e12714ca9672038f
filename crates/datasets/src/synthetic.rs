//! Deterministic synthetic human-figure video generation.

use pcc_types::{Frame, Point3, PointCloud, Rgb, Video};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which body region a video captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BodyCoverage {
    /// Full body, like the 8iVFB captures (head to feet).
    FullBody,
    /// Upper body only, like the MVUB captures (head, torso, arms).
    UpperBody,
}

/// Clothing/texture palette applied to the figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Wardrobe {
    /// Primary garment color.
    pub primary: Rgb,
    /// Secondary garment color (bands/patterns alternate with primary).
    pub secondary: Rgb,
    /// Trousers/skirt color (full-body figures only).
    pub lower: Rgb,
}

impl Wardrobe {
    /// The red-dress/black-top look of the Redandblack sequence.
    pub fn red_and_black() -> Self {
        Wardrobe {
            primary: Rgb::new(190, 30, 40),
            secondary: Rgb::new(25, 20, 25),
            lower: Rgb::new(160, 25, 35),
        }
    }

    /// A long patterned dress (Longdress).
    pub fn long_dress() -> Self {
        Wardrobe {
            primary: Rgb::new(170, 120, 60),
            secondary: Rgb::new(90, 60, 110),
            lower: Rgb::new(150, 100, 70),
        }
    }

    /// Tan jacket and dark trousers (Loot).
    pub fn loot() -> Self {
        Wardrobe {
            primary: Rgb::new(200, 170, 130),
            secondary: Rgb::new(180, 150, 110),
            lower: Rgb::new(60, 55, 70),
        }
    }

    /// Camouflage greens (Soldier).
    pub fn soldier() -> Self {
        Wardrobe {
            primary: Rgb::new(90, 110, 70),
            secondary: Rgb::new(60, 75, 45),
            lower: Rgb::new(70, 85, 55),
        }
    }

    /// Casual shirt (MVUB subjects).
    pub fn casual(shade: u8) -> Self {
        Wardrobe {
            primary: Rgb::new(60 + shade / 2, 70, 140),
            secondary: Rgb::new(200, 200, 195),
            lower: Rgb::new(50, 50, 60),
        }
    }
}

/// A deterministic synthetic dynamic point-cloud video.
///
/// The same `(seed, frame index)` pair always yields the same cloud, so
/// experiments are exactly reproducible. Construction is cheap; points
/// are sampled when [`SyntheticVideo::frame_cloud`] or
/// [`SyntheticVideo::generate`] runs.
#[derive(Debug, Clone)]
pub struct SyntheticVideo {
    name: String,
    points_per_frame: usize,
    coverage: BodyCoverage,
    wardrobe: Wardrobe,
    seed: u64,
    fps: f32,
}

/// Skin tone used for head and hands.
const SKIN: Rgb = Rgb::new(224, 172, 140);

impl SyntheticVideo {
    /// Creates a generator for a named figure.
    pub fn new(
        name: impl Into<String>,
        points_per_frame: usize,
        coverage: BodyCoverage,
        wardrobe: Wardrobe,
        seed: u64,
    ) -> Self {
        SyntheticVideo {
            name: name.into(),
            points_per_frame,
            coverage,
            wardrobe,
            seed,
            fps: 30.0,
        }
    }

    /// The generator's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Points sampled per frame.
    pub fn points_per_frame(&self) -> usize {
        self.points_per_frame
    }

    /// Generates frame `index` (deterministic).
    pub fn frame_cloud(&self, index: usize) -> PointCloud {
        let t = index as f32 / self.fps;
        // Same stream of surface samples every frame: temporal coherence
        // comes from re-posing identical samples, as a real capture of a
        // moving subject would.
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let pose = Pose::at(t);
        let parts = self.parts();
        let total_weight: f32 = parts.iter().map(|p| p.weight).sum();
        let mut cloud = PointCloud::with_capacity(self.points_per_frame);
        for part in &parts {
            let n = ((part.weight / total_weight) * self.points_per_frame as f32).round() as usize;
            for _ in 0..n {
                let (p, u, v) = part.shape.sample(&mut rng);
                let posed = pose.apply(part.joint, p);
                let color = part.paint(u, v, &mut rng);
                cloud.push(posed, color);
            }
        }
        cloud
    }

    /// Generates the full video with `frames` frames.
    pub fn generate(&self, frames: usize) -> Video {
        let frame_list = (0..frames)
            .map(|i| Frame::new(self.frame_cloud(i), i as f64 * 1000.0 / self.fps as f64))
            .collect();
        Video::new(self.name.clone(), frame_list, self.fps)
    }

    fn parts(&self) -> Vec<Part> {
        let w = self.wardrobe;
        let mut parts = vec![
            // Head: sphere at ~1.65 m.
            Part {
                shape: Shape::Ellipsoid {
                    center: Point3::new(0.0, 1.62, 0.0),
                    radii: Point3::new(0.095, 0.12, 0.105),
                },
                joint: Joint::Torso,
                paint_style: PaintStyle::Skin,
                weight: 1.2,
            },
            // Torso: ellipsoid chest-to-hip.
            Part {
                shape: Shape::Ellipsoid {
                    center: Point3::new(0.0, 1.22, 0.0),
                    radii: Point3::new(0.18, 0.30, 0.12),
                },
                joint: Joint::Torso,
                paint_style: PaintStyle::Garment { base: w.primary, band: w.secondary },
                weight: 3.2,
            },
            // Arms: capsules from shoulder to wrist.
            Part {
                shape: Shape::Capsule {
                    a: Point3::new(-0.22, 1.44, 0.0),
                    b: Point3::new(-0.26, 0.95, 0.0),
                    r: 0.05,
                },
                joint: Joint::LeftArm,
                paint_style: PaintStyle::Garment { base: w.primary, band: w.secondary },
                weight: 1.0,
            },
            Part {
                shape: Shape::Capsule {
                    a: Point3::new(0.22, 1.44, 0.0),
                    b: Point3::new(0.26, 0.95, 0.0),
                    r: 0.05,
                },
                joint: Joint::RightArm,
                paint_style: PaintStyle::Garment { base: w.primary, band: w.secondary },
                weight: 1.0,
            },
            // Hands.
            Part {
                shape: Shape::Ellipsoid {
                    center: Point3::new(-0.26, 0.88, 0.0),
                    radii: Point3::new(0.045, 0.07, 0.03),
                },
                joint: Joint::LeftArm,
                paint_style: PaintStyle::Skin,
                weight: 0.25,
            },
            Part {
                shape: Shape::Ellipsoid {
                    center: Point3::new(0.26, 0.88, 0.0),
                    radii: Point3::new(0.045, 0.07, 0.03),
                },
                joint: Joint::RightArm,
                paint_style: PaintStyle::Skin,
                weight: 0.25,
            },
        ];
        if self.coverage == BodyCoverage::FullBody {
            for side in [-1.0f32, 1.0] {
                parts.push(Part {
                    shape: Shape::Capsule {
                        a: Point3::new(side * 0.09, 0.92, 0.0),
                        b: Point3::new(side * 0.10, 0.08, 0.0),
                        r: 0.075,
                    },
                    joint: if side < 0.0 { Joint::LeftLeg } else { Joint::RightLeg },
                    paint_style: PaintStyle::Garment {
                        base: self.wardrobe.lower,
                        band: self.wardrobe.secondary,
                    },
                    weight: 1.7,
                });
            }
        }
        parts
    }
}

/// Skeletal joints the pose animates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Joint {
    Torso,
    LeftArm,
    RightArm,
    LeftLeg,
    RightLeg,
}

/// The figure's pose at a point in time: gentle sway + limb swing, the
/// kind of motion the capture subjects perform.
#[derive(Debug, Clone, Copy)]
struct Pose {
    sway_x: f32,
    bob_y: f32,
    arm_swing: f32,
    leg_swing: f32,
}

impl Pose {
    fn at(t: f32) -> Self {
        use std::f32::consts::TAU;
        Pose {
            sway_x: 0.02 * (TAU * 0.4 * t).sin(),
            bob_y: 0.01 * (TAU * 0.8 * t).sin(),
            arm_swing: 0.35 * (TAU * 0.5 * t).sin(),
            leg_swing: 0.20 * (TAU * 0.5 * t).sin(),
        }
    }

    fn apply(&self, joint: Joint, p: Point3) -> Point3 {
        let p = match joint {
            Joint::Torso => p,
            Joint::LeftArm => rotate_z_about(p, Point3::new(-0.22, 1.44, 0.0), self.arm_swing),
            Joint::RightArm => rotate_z_about(p, Point3::new(0.22, 1.44, 0.0), -self.arm_swing),
            Joint::LeftLeg => rotate_x_about(p, Point3::new(-0.09, 0.92, 0.0), self.leg_swing),
            Joint::RightLeg => rotate_x_about(p, Point3::new(0.09, 0.92, 0.0), -self.leg_swing),
        };
        p + Point3::new(self.sway_x, self.bob_y, 0.0)
    }
}

fn rotate_z_about(p: Point3, pivot: Point3, angle: f32) -> Point3 {
    let d = p - pivot;
    let (s, c) = angle.sin_cos();
    pivot + Point3::new(c * d.x - s * d.y, s * d.x + c * d.y, d.z)
}

fn rotate_x_about(p: Point3, pivot: Point3, angle: f32) -> Point3 {
    let d = p - pivot;
    let (s, c) = angle.sin_cos();
    pivot + Point3::new(d.x, c * d.y - s * d.z, s * d.y + c * d.z)
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Ellipsoid { center: Point3, radii: Point3 },
    Capsule { a: Point3, b: Point3, r: f32 },
}

impl Shape {
    /// Samples a surface point, returning `(point, u, v)` where `(u, v)`
    /// are surface parameters used for texturing.
    fn sample(&self, rng: &mut SmallRng) -> (Point3, f32, f32) {
        match *self {
            Shape::Ellipsoid { center, radii } => {
                let (dir, u, v) = random_unit(rng);
                (
                    center + Point3::new(dir.x * radii.x, dir.y * radii.y, dir.z * radii.z),
                    u,
                    v,
                )
            }
            Shape::Capsule { a, b, r } => {
                let t: f32 = rng.random();
                let axis_point = a + (b - a) * t;
                let theta: f32 = rng.random_range(0.0..std::f32::consts::TAU);
                // Radial offset in the plane ⊥ to the (mostly vertical) axis.
                let offset = Point3::new(r * theta.cos(), 0.0, r * theta.sin());
                (axis_point + offset, theta / std::f32::consts::TAU, t)
            }
        }
    }
}

fn random_unit(rng: &mut SmallRng) -> (Point3, f32, f32) {
    let u: f32 = rng.random(); // azimuth parameter
    let v: f32 = rng.random(); // polar parameter
    let theta = u * std::f32::consts::TAU;
    let phi = (2.0 * v - 1.0).acos();
    let (st, ct) = theta.sin_cos();
    let sp = phi.sin();
    (Point3::new(sp * ct, phi.cos(), sp * st), u, v)
}

#[derive(Debug, Clone, Copy)]
enum PaintStyle {
    Skin,
    Garment { base: Rgb, band: Rgb },
}

#[derive(Debug, Clone, Copy)]
struct Part {
    shape: Shape,
    joint: Joint,
    paint_style: PaintStyle,
    weight: f32,
}

impl Part {
    fn paint(&self, u: f32, v: f32, rng: &mut SmallRng) -> Rgb {
        let noise = |rng: &mut SmallRng| rng.random_range(-1i32..=1);
        match self.paint_style {
            PaintStyle::Skin => {
                // Smooth shading with latitude.
                let shade = 1.0 - 0.25 * v;
                let n = noise(rng);
                Rgb::from_i32_clamped([
                    (SKIN.r as f32 * shade) as i32 + n,
                    (SKIN.g as f32 * shade) as i32 + n,
                    (SKIN.b as f32 * shade) as i32 + n,
                ])
            }
            PaintStyle::Garment { base, band } => {
                // Horizontal bands (strong spatial locality within a band)
                // plus gentle azimuthal shading and sensor noise.
                let in_band = ((v * 7.0) as i32) % 2 == 0;
                let c = if in_band { base } else { band };
                let shade = 0.85 + 0.15 * (u * std::f32::consts::TAU).sin().abs();
                let n = noise(rng);
                Rgb::from_i32_clamped([
                    (c.r as f32 * shade) as i32 + n,
                    (c.g as f32 * shade) as i32 + n,
                    (c.b as f32 * shade) as i32 + n,
                ])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_types::VoxelizedCloud;

    fn small_video() -> SyntheticVideo {
        SyntheticVideo::new(
            "test",
            5_000,
            BodyCoverage::FullBody,
            Wardrobe::red_and_black(),
            42,
        )
    }

    #[test]
    fn frames_are_deterministic() {
        let v = small_video();
        let a = v.frame_cloud(3);
        let b = v.frame_cloud(3);
        assert_eq!(a, b);
    }

    #[test]
    fn point_budget_is_respected() {
        let v = small_video();
        let c = v.frame_cloud(0);
        let n = c.len() as f32;
        assert!((n - 5_000.0).abs() / 5_000.0 < 0.02, "got {n} points");
    }

    #[test]
    fn figure_has_human_extent() {
        let v = small_video();
        let bb = v.frame_cloud(0).bounding_box().unwrap();
        let e = bb.extents();
        // Height ~1.7 m, much taller than wide/deep.
        assert!(e.y > 1.4 && e.y < 2.0, "height {}", e.y);
        assert!(e.y > e.x && e.y > e.z);
    }

    #[test]
    fn upper_body_is_shorter() {
        let full = small_video().frame_cloud(0);
        let upper = SyntheticVideo::new(
            "mvub",
            5_000,
            BodyCoverage::UpperBody,
            Wardrobe::casual(0),
            42,
        )
        .frame_cloud(0);
        let ef = full.bounding_box().unwrap().extents();
        let eu = upper.bounding_box().unwrap().extents();
        assert!(eu.y < ef.y * 0.75, "upper {} vs full {}", eu.y, ef.y);
    }

    /// Voxelizes frames of one video onto a shared grid, as the codecs do.
    fn voxelize_common(v: &SyntheticVideo, indices: &[usize], depth: u8) -> Vec<VoxelizedCloud> {
        let clouds: Vec<_> = indices.iter().map(|&i| v.frame_cloud(i)).collect();
        let bb = clouds
            .iter()
            .filter_map(|c| c.bounding_box())
            .reduce(|a, b| a.union(&b))
            .unwrap();
        clouds
            .iter()
            .map(|c| VoxelizedCloud::from_cloud_in_box(c, depth, &bb))
            .collect()
    }

    #[test]
    fn consecutive_frames_overlap_heavily() {
        // Temporal locality: most voxels of frame 1 exist in frame 0 too
        // (on the shared grid).
        let v = small_video();
        let f = voxelize_common(&v, &[0, 1], 7);
        let set0: std::collections::HashSet<_> = f[0].coords().iter().copied().collect();
        let shared = f[1].coords().iter().filter(|c| set0.contains(c)).count();
        let frac = shared as f64 / f[1].len() as f64;
        assert!(frac > 0.5, "only {frac:.2} of voxels persist across frames");
    }

    #[test]
    fn distant_frames_differ_more_than_adjacent() {
        let v = small_video();
        let f = voxelize_common(&v, &[0, 1, 15], 7);
        let set0: std::collections::HashSet<_> = f[0].coords().iter().copied().collect();
        let near =
            f[1].coords().iter().filter(|c| set0.contains(c)).count() as f64 / f[1].len() as f64;
        let far =
            f[2].coords().iter().filter(|c| set0.contains(c)).count() as f64 / f[2].len() as f64;
        assert!(near > far, "near {near:.3} vs far {far:.3}");
    }

    #[test]
    fn colors_show_spatial_locality() {
        // The paper's Fig. 3a property: with fine Morton segments the
        // per-segment color range shrinks well below the global range.
        let v = SyntheticVideo::new(
            "locality",
            20_000,
            BodyCoverage::FullBody,
            Wardrobe::red_and_black(),
            7,
        );
        let cloud = v.frame_cloud(0);
        let depth = crate::density_matched_depth(cloud.len());
        let vox = VoxelizedCloud::from_cloud(&cloud, depth);
        let sorted = pcc_morton::sorted_permutation(&vox);
        let gathered = vox.gather(&sorted.payload);
        let colors = gathered.colors();
        // ~10 points per segment, the granularity of the paper's 10⁴–10⁵
        // segment operating points (tens of points per block at 727k).
        let chunk_len = colors.len() / 2048;
        let median_range_at = |chunk_len: usize| {
            let mut ranges: Vec<u8> = colors
                .chunks(chunk_len)
                .map(|chunk| {
                    let min = chunk.iter().map(|c| c.r).min().unwrap();
                    let max = chunk.iter().map(|c| c.r).max().unwrap();
                    max - min
                })
                .collect();
            ranges.sort_unstable();
            ranges[ranges.len() / 2]
        };
        let fine = median_range_at(chunk_len);
        let coarse = median_range_at(colors.len() / 8);
        // Finer segments -> left-shifted CDF (smaller deltas), and the
        // typical fine-segment range is far below the ~200 global range.
        assert!(fine < coarse, "fine {fine} vs coarse {coarse}");
        assert!(fine < 60, "median fine-segment red range {fine}");
    }

    #[test]
    fn video_generation_produces_frames() {
        let video = small_video().generate(4);
        assert_eq!(video.len(), 4);
        assert_eq!(video.fps(), 30.0);
        assert!(video.mean_points_per_frame() > 4_000);
    }
}
