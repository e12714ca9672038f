//! Structure-of-arrays point clouds.

use crate::{Aabb, Error, Point3, Result, Rgb};
use serde::{Deserialize, Serialize};

/// A point cloud with per-point positions and RGB attributes.
///
/// Storage is structure-of-arrays: positions and colors live in separate
/// `Vec`s so geometry-only and attribute-only pipeline stages each touch
/// only the data they need — the same split the paper's Fig. 4 pipelines
/// rely on.
///
/// # Examples
///
/// ```
/// use pcc_types::{Point3, PointCloud, Rgb};
///
/// let cloud: PointCloud = [
///     (Point3::new(0.0, 0.0, 0.0), Rgb::gray(50)),
///     (Point3::new(-1.0, 0.0, 0.0), Rgb::gray(52)),
///     (Point3::new(3.0, 3.0, 3.0), Rgb::gray(54)),
/// ]
/// .into_iter()
/// .collect();
///
/// assert_eq!(cloud.len(), 3);
/// let bb = cloud.bounding_box().expect("non-empty");
/// assert_eq!(bb.extents(), Point3::new(4.0, 3.0, 3.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PointCloud {
    positions: Vec<Point3>,
    colors: Vec<Rgb>,
}

/// A borrowed view of one point of a [`PointCloud`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointRef<'a> {
    /// The point's position.
    pub position: &'a Point3,
    /// The point's color.
    pub color: &'a Rgb,
}

impl PointCloud {
    /// Creates an empty cloud.
    pub fn new() -> Self {
        PointCloud::default()
    }

    /// Creates an empty cloud with room for `n` points.
    pub fn with_capacity(n: usize) -> Self {
        PointCloud { positions: Vec::with_capacity(n), colors: Vec::with_capacity(n) }
    }

    /// Builds a cloud from parallel position/color arrays.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MismatchedLengths`] if the arrays differ in length,
    /// or [`Error::NonFinitePosition`] if any position has a NaN/∞
    /// coordinate.
    pub fn from_parts(positions: Vec<Point3>, colors: Vec<Rgb>) -> Result<Self> {
        if positions.len() != colors.len() {
            return Err(Error::MismatchedLengths {
                positions: positions.len(),
                colors: colors.len(),
            });
        }
        if let Some(index) = positions.iter().position(|p| !p.is_finite()) {
            return Err(Error::NonFinitePosition { index });
        }
        Ok(PointCloud { positions, colors })
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` if the cloud has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Appends one point.
    #[inline]
    pub fn push(&mut self, position: Point3, color: Rgb) {
        self.positions.push(position);
        self.colors.push(color);
    }

    /// The position array.
    #[inline]
    pub fn positions(&self) -> &[Point3] {
        &self.positions
    }

    /// The color array.
    #[inline]
    pub fn colors(&self) -> &[Rgb] {
        &self.colors
    }

    /// Mutable access to the color array (e.g. for attribute requantization).
    #[inline]
    pub fn colors_mut(&mut self) -> &mut [Rgb] {
        &mut self.colors
    }

    /// Returns the point at `index`, or `None` if out of bounds.
    pub fn get(&self, index: usize) -> Option<PointRef<'_>> {
        Some(PointRef { position: self.positions.get(index)?, color: self.colors.get(index)? })
    }

    /// Iterates over `(position, color)` pairs.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Point3, Rgb)> + '_ {
        self.positions.iter().copied().zip(self.colors.iter().copied())
    }

    /// The tight bounding box, or `None` for an empty cloud.
    pub fn bounding_box(&self) -> Option<Aabb> {
        Aabb::from_points(self.positions.iter().copied())
    }

    /// Size of the raw (uncompressed) representation in bytes
    /// (15 bytes per point; see [`crate::RAW_BYTES_PER_POINT`]).
    pub fn raw_size_bytes(&self) -> usize {
        self.len() * crate::RAW_BYTES_PER_POINT
    }

    /// Returns a new cloud with points reordered by `perm`, where `perm[i]`
    /// is the source index of output point `i`.
    ///
    /// This materializes a whole cloud in Morton order from the
    /// permutation `pcc_morton::sorted_permutation` returns (the encoders
    /// instead sort each point's color with its code, and gather nothing).
    ///
    /// # Panics
    ///
    /// Panics if any index in `perm` is out of bounds.
    // Out-of-bounds perm indices are a documented panic (caller bug, not
    // wire data): permutations come from sorts over 0..len.
    #[allow(clippy::indexing_slicing)]
    pub fn gather(&self, perm: &[u32]) -> PointCloud {
        let positions = perm.iter().map(|&i| self.positions[i as usize]).collect();
        let colors = perm.iter().map(|&i| self.colors[i as usize]).collect();
        PointCloud { positions, colors }
    }

    /// Splits the cloud into its position and color arrays.
    pub fn into_parts(self) -> (Vec<Point3>, Vec<Rgb>) {
        (self.positions, self.colors)
    }
}

impl FromIterator<(Point3, Rgb)> for PointCloud {
    fn from_iter<I: IntoIterator<Item = (Point3, Rgb)>>(iter: I) -> Self {
        let mut cloud = PointCloud::new();
        cloud.extend(iter);
        cloud
    }
}

impl Extend<(Point3, Rgb)> for PointCloud {
    fn extend<I: IntoIterator<Item = (Point3, Rgb)>>(&mut self, iter: I) {
        for (p, c) in iter {
            self.push(p, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PointCloud {
        [
            (Point3::new(0.0, 0.0, 0.0), Rgb::gray(50)),
            (Point3::new(-1.0, 0.0, 0.0), Rgb::gray(52)),
            (Point3::new(3.0, 3.0, 3.0), Rgb::gray(54)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn push_and_len() {
        let mut c = PointCloud::new();
        assert!(c.is_empty());
        c.push(Point3::ORIGIN, Rgb::BLACK);
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn from_parts_checks_lengths() {
        let err = PointCloud::from_parts(vec![Point3::ORIGIN], vec![]).unwrap_err();
        assert_eq!(err, Error::MismatchedLengths { positions: 1, colors: 0 });
    }

    #[test]
    fn from_parts_rejects_nan() {
        let err = PointCloud::from_parts(
            vec![Point3::ORIGIN, Point3::new(f32::NAN, 0.0, 0.0)],
            vec![Rgb::BLACK, Rgb::BLACK],
        )
        .unwrap_err();
        assert_eq!(err, Error::NonFinitePosition { index: 1 });
    }

    #[test]
    fn gather_reorders_both_arrays() {
        let c = sample();
        let g = c.gather(&[2, 0, 1]);
        assert_eq!(g.positions()[0], Point3::new(3.0, 3.0, 3.0));
        assert_eq!(g.colors()[0], Rgb::gray(54));
        assert_eq!(g.positions()[1], Point3::new(0.0, 0.0, 0.0));
        assert_eq!(g.colors()[2], Rgb::gray(52));
    }

    #[test]
    fn raw_size_matches_paper_accounting() {
        let c = sample();
        assert_eq!(c.raw_size_bytes(), 3 * 15);
    }

    #[test]
    fn iter_and_get_agree() {
        let c = sample();
        for (i, (p, col)) in c.iter().enumerate() {
            let r = c.get(i).unwrap();
            assert_eq!(*r.position, p);
            assert_eq!(*r.color, col);
        }
        assert!(c.get(3).is_none());
    }

    #[test]
    fn empty_cloud_has_no_bbox() {
        assert!(PointCloud::new().bounding_box().is_none());
    }

    #[test]
    fn into_parts_round_trip() {
        let c = sample();
        let (p, col) = c.clone().into_parts();
        let rebuilt = PointCloud::from_parts(p, col).unwrap();
        assert_eq!(rebuilt, c);
    }
}
