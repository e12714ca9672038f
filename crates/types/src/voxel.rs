//! Voxelized (grid-quantized) point clouds.

use crate::{Aabb, Error, Point3, PointCloud, Result, Rgb};
use serde::{Deserialize, Serialize};

/// An integer voxel coordinate on a `2^depth`-per-side grid.
///
/// Each component fits in `depth` bits (≤ 21, the most that interleaves
/// into a 63-bit Morton code).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct VoxelCoord {
    /// Grid X index.
    pub x: u32,
    /// Grid Y index.
    pub y: u32,
    /// Grid Z index.
    pub z: u32,
}

impl VoxelCoord {
    /// Creates a coordinate from its three grid indices.
    #[inline]
    pub const fn new(x: u32, y: u32, z: u32) -> Self {
        VoxelCoord { x, y, z }
    }

    /// Returns the components as an array `[x, y, z]`.
    #[inline]
    pub const fn to_array(self) -> [u32; 3] {
        [self.x, self.y, self.z]
    }

    /// `true` if all components fit on a grid of the given depth.
    #[inline]
    pub fn fits_depth(self, depth: u8) -> bool {
        let limit = 1u32 << depth;
        self.x < limit && self.y < limit && self.z < limit
    }
}

impl From<[u32; 3]> for VoxelCoord {
    #[inline]
    fn from(a: [u32; 3]) -> Self {
        VoxelCoord::new(a[0], a[1], a[2])
    }
}

/// A point cloud quantized onto a voxel grid.
///
/// This is the representation every codec in the workspace consumes: the
/// cloud's (cubified) bounding box is divided into `2^depth` cells per
/// side, and each point is snapped to its cell. The original frame of
/// reference (`origin`, `voxel_size`) is retained so decoded clouds can be
/// mapped back to world coordinates.
///
/// # Examples
///
/// ```
/// use pcc_types::{Point3, PointCloud, Rgb, VoxelizedCloud};
///
/// let cloud: PointCloud =
///     [(Point3::new(0.25, 0.75, 0.5), Rgb::WHITE)].into_iter().collect();
/// let vox = VoxelizedCloud::from_cloud(&cloud, 10);
/// assert_eq!(vox.depth(), 10);
/// let back = vox.to_cloud();
/// // Quantization error is bounded by half a voxel per axis.
/// let err = back.positions()[0].distance(Point3::new(0.25, 0.75, 0.5));
/// assert!(err <= vox.voxel_size());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VoxelizedCloud {
    coords: Vec<VoxelCoord>,
    colors: Vec<Rgb>,
    depth: u8,
    origin: Point3,
    voxel_size: f32,
}

impl VoxelizedCloud {
    /// Quantizes `cloud` onto a `2^depth` grid spanning its cubified
    /// bounding box.
    ///
    /// An empty cloud yields an empty voxelized cloud with a unit grid.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside `1..=21`.
    pub fn from_cloud(cloud: &PointCloud, depth: u8) -> Self {
        let Some(bb) = cloud.bounding_box() else {
            assert!(
                (1..=21).contains(&depth),
                "voxel depth {depth} outside supported range 1..=21"
            );
            return VoxelizedCloud {
                coords: Vec::new(),
                colors: Vec::new(),
                depth,
                origin: Point3::ORIGIN,
                voxel_size: 1.0,
            };
        };
        VoxelizedCloud::from_cloud_in_box(cloud, depth, &bb)
    }

    /// Quantizes `cloud` onto a `2^depth` grid spanning the cubified
    /// `grid_box`.
    ///
    /// Frames of a video must share one grid for their voxel coordinates
    /// to be comparable (the inter-frame codec's block matching relies on
    /// this); pass the bounding box of the *whole video* here. Points
    /// outside the box are clamped onto its boundary cells.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside `1..=21`.
    pub fn from_cloud_in_box(cloud: &PointCloud, depth: u8, grid_box: &Aabb) -> Self {
        assert!(
            (1..=21).contains(&depth),
            "voxel depth {depth} outside supported range 1..=21"
        );
        let cube = grid_box.cubify_pow2();
        let side = cube.longest_side();
        let cells = (1u32 << depth) as f32;
        let voxel_size = side / cells;
        let origin = cube.min();
        let max_index = i64::from((1u32 << depth) - 1);
        // `as i64` truncates toward zero, saturating (NaN to 0); after
        // the clamp that equals `floor`: the two differ only on (-1, 0),
        // which both clamp to 0. It also avoids a libm call per axis.
        let cell = |v: f32| (v as i64).clamp(0, max_index) as u32;
        let coords = cloud
            .positions()
            .iter()
            .map(|p| {
                let rel = (*p - origin) / voxel_size;
                VoxelCoord::new(cell(rel.x), cell(rel.y), cell(rel.z))
            })
            .collect();
        VoxelizedCloud { coords, colors: cloud.colors().to_vec(), depth, origin, voxel_size }
    }

    /// Builds a voxelized cloud directly from grid coordinates (unit voxel
    /// size at the origin) — handy for datasets that are already voxelized,
    /// like 8iVFB.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MismatchedLengths`] if the arrays differ in length,
    /// or [`Error::InvalidDepth`] if `depth` is outside `1..=21` or any
    /// coordinate does not fit the grid.
    pub fn from_grid(coords: Vec<VoxelCoord>, colors: Vec<Rgb>, depth: u8) -> Result<Self> {
        if coords.len() != colors.len() {
            return Err(Error::MismatchedLengths {
                positions: coords.len(),
                colors: colors.len(),
            });
        }
        if !(1..=21).contains(&depth) || coords.iter().any(|c| !c.fits_depth(depth)) {
            return Err(Error::InvalidDepth { depth });
        }
        Ok(VoxelizedCloud { coords, colors, depth, origin: Point3::ORIGIN, voxel_size: 1.0 })
    }

    /// Like [`from_grid`](Self::from_grid), but restoring an explicit
    /// world frame (origin and voxel size) — the decoder-side constructor.
    ///
    /// # Errors
    ///
    /// Same as [`from_grid`](Self::from_grid), plus
    /// [`Error::InvalidWorldFrame`] when the frame came off the wire
    /// damaged: a NaN/∞ origin, a non-positive or non-finite voxel size,
    /// or a grid whose far corner overflows `f32` (every voxel center
    /// must dequantize to a finite position).
    pub fn from_grid_with_frame(
        coords: Vec<VoxelCoord>,
        colors: Vec<Rgb>,
        depth: u8,
        origin: Point3,
        voxel_size: f32,
    ) -> Result<Self> {
        let mut v = VoxelizedCloud::from_grid(coords, colors, depth)?;
        let side = voxel_size * (1u32 << depth) as f32;
        let far = origin + Point3::new(side, side, side);
        if !voxel_size.is_finite() || voxel_size <= 0.0 || !origin.is_finite() || !far.is_finite()
        {
            return Err(Error::InvalidWorldFrame);
        }
        v.origin = origin;
        v.voxel_size = voxel_size;
        Ok(v)
    }

    /// Number of (not necessarily distinct) voxels.
    #[inline]
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// `true` if there are no voxels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Grid depth (`2^depth` cells per side).
    #[inline]
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// World-space position of grid cell `(0,0,0)`'s min corner.
    #[inline]
    pub fn origin(&self) -> Point3 {
        self.origin
    }

    /// World-space side length of one voxel.
    #[inline]
    pub fn voxel_size(&self) -> f32 {
        self.voxel_size
    }

    /// The voxel coordinate array.
    #[inline]
    pub fn coords(&self) -> &[VoxelCoord] {
        &self.coords
    }

    /// The color array.
    #[inline]
    pub fn colors(&self) -> &[Rgb] {
        &self.colors
    }

    /// Mutable access to the color array.
    #[inline]
    pub fn colors_mut(&mut self) -> &mut [Rgb] {
        &mut self.colors
    }

    /// World-space center of the voxel holding point `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds (caller bug, not wire data).
    #[allow(clippy::indexing_slicing)]
    pub fn voxel_center(&self, index: usize) -> Point3 {
        let c = self.coords[index];
        self.origin
            + Point3::new(
                (c.x as f32 + 0.5) * self.voxel_size,
                (c.y as f32 + 0.5) * self.voxel_size,
                (c.z as f32 + 0.5) * self.voxel_size,
            )
    }

    /// Dequantizes back to a floating-point cloud (voxel centers).
    pub fn to_cloud(&self) -> PointCloud {
        let positions = (0..self.len()).map(|i| self.voxel_center(i)).collect();
        // Constructors reject mismatched lengths and world frames that
        // would dequantize to non-finite centers, so this cannot fail.
        PointCloud::from_parts(positions, self.colors.clone())
            .expect("lengths and finite frame guaranteed by construction")
    }

    /// Returns a new voxelized cloud with voxels reordered by `perm`
    /// (`perm[i]` is the source index of output voxel `i`).
    ///
    /// # Panics
    ///
    /// Panics if any index in `perm` is out of bounds.
    #[allow(clippy::indexing_slicing)]
    pub fn gather(&self, perm: &[u32]) -> VoxelizedCloud {
        VoxelizedCloud {
            coords: perm.iter().map(|&i| self.coords[i as usize]).collect(),
            colors: perm.iter().map(|&i| self.colors[i as usize]).collect(),
            depth: self.depth,
            origin: self.origin,
            voxel_size: self.voxel_size,
        }
    }

    /// The grid cube's bounding box in world space.
    pub fn grid_box(&self) -> Aabb {
        let side = self.voxel_size * (1u32 << self.depth) as f32;
        Aabb::new(self.origin, self.origin + Point3::splat(side))
    }

    /// Splits into coordinate and color arrays.
    pub fn into_parts(self) -> (Vec<VoxelCoord>, Vec<Rgb>) {
        (self.coords, self.colors)
    }

    /// Collapses points sharing a voxel into one entry with the mean
    /// color (ordered lexicographically by `(z, y, x)`) — the canonical
    /// form every codec in the workspace actually encodes. Real captures
    /// like 8iVFB ship in this form already: one point per occupied
    /// voxel.
    // `order` enumerates 0..len, so the index-backs are in range by
    // construction.
    #[allow(clippy::indexing_slicing)]
    pub fn dedup_mean(&self) -> VoxelizedCloud {
        let mut order: Vec<(u64, u32)> = self
            .coords
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                // A total order suffices for grouping; pack the depth-
                // bounded coords into one key (pcc-types stays free of a
                // Morton dependency).
                let k = ((c.z as u64) << 42) | ((c.y as u64) << 21) | c.x as u64;
                (k, i as u32)
            })
            .collect();
        order.sort_unstable();
        let mut coords = Vec::new();
        let mut colors = Vec::new();
        let mut sums = [0u64; 3];
        let mut count = 0u64;
        let flush = |coord: VoxelCoord, sums: &mut [u64; 3], count: &mut u64,
                         coords: &mut Vec<VoxelCoord>, colors: &mut Vec<Rgb>| {
            if let Some(n) = std::num::NonZeroU64::new(*count) {
                let n = n.get();
                coords.push(coord);
                colors.push(Rgb::new(
                    ((sums[0] + n / 2) / n) as u8,
                    ((sums[1] + n / 2) / n) as u8,
                    ((sums[2] + n / 2) / n) as u8,
                ));
                *sums = [0; 3];
                *count = 0;
            }
        };
        let mut current: Option<VoxelCoord> = None;
        for &(_, i) in &order {
            let c = self.coords[i as usize];
            if current != Some(c) {
                if let Some(prev) = current {
                    flush(prev, &mut sums, &mut count, &mut coords, &mut colors);
                }
                current = Some(c);
            }
            let rgb = self.colors[i as usize];
            sums[0] += rgb.r as u64;
            sums[1] += rgb.g as u64;
            sums[2] += rgb.b as u64;
            count += 1;
        }
        if let Some(prev) = current {
            flush(prev, &mut sums, &mut count, &mut coords, &mut colors);
        }
        VoxelizedCloud {
            coords,
            colors,
            depth: self.depth,
            origin: self.origin,
            voxel_size: self.voxel_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud3() -> PointCloud {
        [
            (Point3::new(0.0, 0.0, 0.0), Rgb::gray(50)),
            (Point3::new(-1.0, 0.0, 0.0), Rgb::gray(52)),
            (Point3::new(3.0, 3.0, 3.0), Rgb::gray(54)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn quantization_error_bounded() {
        let cloud = cloud3();
        let vox = VoxelizedCloud::from_cloud(&cloud, 8);
        let back = vox.to_cloud();
        for (orig, dec) in cloud.positions().iter().zip(back.positions()) {
            let d = orig.distance(*dec);
            // Half a voxel per axis => at most (sqrt(3)/2) * voxel_size.
            assert!(d <= vox.voxel_size() * 0.9, "err {d} vs voxel {}", vox.voxel_size());
        }
    }

    #[test]
    fn coords_fit_grid() {
        let vox = VoxelizedCloud::from_cloud(&cloud3(), 4);
        for c in vox.coords() {
            assert!(c.fits_depth(4));
        }
    }

    #[test]
    fn empty_cloud_voxelizes_empty() {
        let vox = VoxelizedCloud::from_cloud(&PointCloud::new(), 10);
        assert!(vox.is_empty());
        assert_eq!(vox.depth(), 10);
    }

    #[test]
    #[should_panic(expected = "voxel depth")]
    fn depth_zero_panics() {
        VoxelizedCloud::from_cloud(&PointCloud::new(), 0);
    }

    #[test]
    fn from_grid_validates() {
        let ok = VoxelizedCloud::from_grid(
            vec![VoxelCoord::new(1, 2, 3)],
            vec![Rgb::BLACK],
            4,
        );
        assert!(ok.is_ok());
        let err = VoxelizedCloud::from_grid(
            vec![VoxelCoord::new(16, 0, 0)],
            vec![Rgb::BLACK],
            4,
        )
        .unwrap_err();
        assert_eq!(err, Error::InvalidDepth { depth: 4 });
        let err = VoxelizedCloud::from_grid(vec![], vec![Rgb::BLACK], 4).unwrap_err();
        assert!(matches!(err, Error::MismatchedLengths { .. }));
    }

    #[test]
    fn from_grid_with_frame_rejects_hostile_world_frames() {
        let build = |origin: Point3, size: f32| {
            VoxelizedCloud::from_grid_with_frame(
                vec![VoxelCoord::new(1, 2, 3)],
                vec![Rgb::BLACK],
                4,
                origin,
                size,
            )
        };
        assert!(build(Point3::new(1.0, 2.0, 3.0), 0.5).is_ok());
        for (origin, size) in [
            (Point3::new(f32::NAN, 0.0, 0.0), 1.0),
            (Point3::new(0.0, f32::INFINITY, 0.0), 1.0),
            (Point3::ORIGIN, f32::NAN),
            (Point3::ORIGIN, 0.0),
            (Point3::ORIGIN, -1.0),
            // Finite but so large the grid's far corner overflows f32 —
            // dequantized voxel centers would be infinite.
            (Point3::ORIGIN, f32::MAX / 2.0),
        ] {
            assert_eq!(
                build(origin, size).unwrap_err(),
                Error::InvalidWorldFrame,
                "origin {origin:?} size {size} must be rejected"
            );
        }
        // A hostile frame must never survive to panic `to_cloud`.
    }

    #[test]
    fn gather_preserves_metadata() {
        let vox = VoxelizedCloud::from_cloud(&cloud3(), 6);
        let g = vox.gather(&[2, 1, 0]);
        assert_eq!(g.depth(), vox.depth());
        assert_eq!(g.voxel_size(), vox.voxel_size());
        assert_eq!(g.coords()[0], vox.coords()[2]);
        assert_eq!(g.colors()[2], vox.colors()[0]);
    }

    #[test]
    fn grid_box_contains_all_points() {
        let cloud = cloud3();
        let vox = VoxelizedCloud::from_cloud(&cloud, 5);
        let gb = vox.grid_box();
        for p in cloud.positions() {
            assert!(gb.contains(*p));
        }
    }

    #[test]
    fn identical_points_share_voxel() {
        let cloud: PointCloud = [
            (Point3::new(1.0, 1.0, 1.0), Rgb::BLACK),
            (Point3::new(1.0, 1.0, 1.0), Rgb::WHITE),
            (Point3::new(500.0, 0.0, 0.0), Rgb::BLACK),
        ]
        .into_iter()
        .collect();
        let vox = VoxelizedCloud::from_cloud(&cloud, 10);
        assert_eq!(vox.coords()[0], vox.coords()[1]);
        assert_ne!(vox.coords()[0], vox.coords()[2]);
    }

    /// One axis of a point in grid units relative to the box: inside,
    /// outside, on exact cell boundaries, just below 0, large enough to
    /// saturate the `i64` cast, and non-finite.
    fn axis() -> impl proptest::Strategy<Value = f32> {
        use proptest::Strategy;
        (0u8..8, -40.0f32..300.0, -2i32..260, 1u32..1000).prop_map(|(pick, v, k, e)| match pick {
            0 => v,
            1 => k as f32,
            2 => -(e as f32) * f32::EPSILON,
            3 => [-f32::MIN_POSITIVE, -0.0, 1.0 - f32::EPSILON / 2.0][e as usize % 3],
            4 => [1e19, -1e19, f32::MAX, f32::MIN][e as usize % 4],
            5 => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][e as usize % 3],
            _ => v.fract() + k as f32,
        })
    }

    proptest::proptest! {
        /// The truncating cast equals the `floor` formula it replaced on
        /// every input, in and out of the grid box.
        #[test]
        fn voxelize_equals_the_floor_formula(
            pts in proptest::prelude::prop::collection::vec((axis(), axis(), axis()), 0..64),
            min in (-50.0f32..50.0, -50.0f32..50.0, -50.0f32..50.0),
            side in 0.5f32..40.0,
            depth in 1u8..=21,
        ) {
            let lo = Point3::new(min.0, min.1, min.2);
            let grid_box = Aabb::new(lo, lo + Point3::splat(side));
            // Scale grid units back into world space, so boundary values
            // land on (or a rounding step off) real cell edges.
            let unit = grid_box.cubify_pow2().longest_side() / (1u32 << depth) as f32;
            let cloud: PointCloud = pts
                .iter()
                .map(|&(x, y, z)| (lo + Point3::new(x, y, z) * unit, Rgb::BLACK))
                .collect();
            let vox = VoxelizedCloud::from_cloud_in_box(&cloud, depth, &grid_box);
            let max_index = i64::from((1u32 << depth) - 1);
            let floor = |v: f32| (v.floor() as i64).clamp(0, max_index) as u32;
            for (p, c) in cloud.positions().iter().zip(vox.coords()) {
                let rel = (*p - vox.origin()) / vox.voxel_size();
                let expect = VoxelCoord::new(floor(rel.x), floor(rel.y), floor(rel.z));
                proptest::prop_assert_eq!(*c, expect, "point {:?}", p);
            }
        }
    }
}
