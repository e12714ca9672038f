//! Point positions and color attributes.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A position in 3-D space, as captured by a LiDAR/photogrammetry pipeline.
///
/// Coordinates are `f32` because the evaluated datasets store each
/// coordinate in 4 bytes (see [`crate::RAW_BYTES_PER_POINT`]).
///
/// # Examples
///
/// ```
/// use pcc_types::Point3;
/// let p = Point3::new(1.0, 2.0, 3.0);
/// let q = p + Point3::new(0.5, 0.5, 0.5);
/// assert_eq!(q, Point3::new(1.5, 2.5, 3.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point3 {
    /// X coordinate.
    pub x: f32,
    /// Y coordinate.
    pub y: f32,
    /// Z coordinate.
    pub z: f32,
}

impl Point3 {
    /// The origin, `(0, 0, 0)`.
    pub const ORIGIN: Point3 = Point3 { x: 0.0, y: 0.0, z: 0.0 };

    /// Creates a point from its three coordinates.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Point3 { x, y, z }
    }

    /// Creates a point with all three coordinates equal to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Point3::new(v, v, v)
    }

    /// Returns the coordinates as an array `[x, y, z]`.
    #[inline]
    pub const fn to_array(self) -> [f32; 3] {
        [self.x, self.y, self.z]
    }

    /// Component-wise minimum of two points.
    #[inline]
    pub fn min(self, other: Point3) -> Point3 {
        Point3::new(self.x.min(other.x), self.y.min(other.y), self.z.min(other.z))
    }

    /// Component-wise maximum of two points.
    #[inline]
    pub fn max(self, other: Point3) -> Point3 {
        Point3::new(self.x.max(other.x), self.y.max(other.y), self.z.max(other.z))
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Exposed (rather than only `distance`) so hot loops can avoid the
    /// square root, as the block-matching kernels do.
    #[inline]
    pub fn distance_squared(self, other: Point3) -> f32 {
        let d = self - other;
        d.x * d.x + d.y * d.y + d.z * d.z
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point3) -> f32 {
        self.distance_squared(other).sqrt()
    }

    /// `true` if every coordinate is finite (no NaN/∞).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl From<[f32; 3]> for Point3 {
    #[inline]
    fn from(a: [f32; 3]) -> Self {
        Point3::new(a[0], a[1], a[2])
    }
}

impl From<Point3> for [f32; 3] {
    #[inline]
    fn from(p: Point3) -> Self {
        p.to_array()
    }
}

impl Add for Point3 {
    type Output = Point3;
    #[inline]
    fn add(self, rhs: Point3) -> Point3 {
        Point3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl Sub for Point3 {
    type Output = Point3;
    #[inline]
    fn sub(self, rhs: Point3) -> Point3 {
        Point3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Mul<f32> for Point3 {
    type Output = Point3;
    #[inline]
    fn mul(self, s: f32) -> Point3 {
        Point3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Div<f32> for Point3 {
    type Output = Point3;
    #[inline]
    fn div(self, s: f32) -> Point3 {
        Point3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl fmt::Display for Point3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// An 8-bit-per-channel RGB color attribute.
///
/// The attribute codecs operate on colors as small integer vectors; the
/// squared distance between two colors ([`Rgb::distance_squared`]) is the
/// per-point term of the paper's 2-norm block difference (Equ. 2).
///
/// # Examples
///
/// ```
/// use pcc_types::Rgb;
/// let red = Rgb::new(200, 10, 10);
/// let dark_red = Rgb::new(180, 10, 10);
/// assert_eq!(red.distance_squared(dark_red), 400);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct Rgb {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Rgb {
    /// Pure black, `(0, 0, 0)`.
    pub const BLACK: Rgb = Rgb { r: 0, g: 0, b: 0 };
    /// Pure white, `(255, 255, 255)`.
    pub const WHITE: Rgb = Rgb { r: 255, g: 255, b: 255 };

    /// Creates a color from its three channels.
    #[inline]
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb { r, g, b }
    }

    /// Creates a gray color with all channels equal to `v`.
    #[inline]
    pub const fn gray(v: u8) -> Self {
        Rgb::new(v, v, v)
    }

    /// Returns the channels as an array `[r, g, b]`.
    #[inline]
    pub const fn to_array(self) -> [u8; 3] {
        [self.r, self.g, self.b]
    }

    /// Packs the channels into the low 24 bits of a `u32`
    /// (`r | g << 8 | b << 16`): the payload the encoder sorts with each
    /// point's Morton code.
    #[inline]
    pub const fn pack(self) -> u32 {
        self.r as u32 | (self.g as u32) << 8 | (self.b as u32) << 16
    }

    /// The inverse of [`pack`](Self::pack); bits above 23 are ignored.
    #[inline]
    pub const fn unpack(p: u32) -> Self {
        Rgb::new(p as u8, (p >> 8) as u8, (p >> 16) as u8)
    }

    /// Returns the channels widened to `i32`, for signed delta arithmetic.
    #[inline]
    pub const fn to_i32(self) -> [i32; 3] {
        [self.r as i32, self.g as i32, self.b as i32]
    }

    /// Returns the channels widened to `f64`, for transform arithmetic.
    #[inline]
    pub const fn to_f64(self) -> [f64; 3] {
        [self.r as f64, self.g as f64, self.b as f64]
    }

    /// Reconstructs a color from signed channel values, clamping each to
    /// the `0..=255` range (decoder-side saturation).
    #[inline]
    pub fn from_i32_clamped(c: [i32; 3]) -> Self {
        Rgb::new(
            c[0].clamp(0, 255) as u8,
            c[1].clamp(0, 255) as u8,
            c[2].clamp(0, 255) as u8,
        )
    }

    /// Squared Euclidean distance between two colors:
    /// `(r₁−r₂)² + (g₁−g₂)² + (b₁−b₂)²`.
    #[inline]
    pub fn distance_squared(self, other: Rgb) -> u32 {
        let a = self.to_i32();
        let b = other.to_i32();
        let dr = a[0] - b[0];
        let dg = a[1] - b[1];
        let db = a[2] - b[2];
        (dr * dr + dg * dg + db * db) as u32
    }

    /// Signed per-channel delta `self − other`.
    #[inline]
    pub fn delta(self, other: Rgb) -> [i32; 3] {
        let a = self.to_i32();
        let b = other.to_i32();
        [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
    }
}

impl From<[u8; 3]> for Rgb {
    #[inline]
    fn from(a: [u8; 3]) -> Self {
        Rgb::new(a[0], a[1], a[2])
    }
}

impl From<Rgb> for [u8; 3] {
    #[inline]
    fn from(c: Rgb) -> Self {
        c.to_array()
    }
}

impl fmt::Display for Rgb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:02x}{:02x}{:02x}", self.r, self.g, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic() {
        let p = Point3::new(1.0, 2.0, 3.0);
        let q = Point3::new(4.0, 6.0, 8.0);
        assert_eq!(q - p, Point3::new(3.0, 4.0, 5.0));
        assert_eq!(p + q, Point3::new(5.0, 8.0, 11.0));
        assert_eq!(p * 2.0, Point3::new(2.0, 4.0, 6.0));
        assert_eq!(q / 2.0, Point3::new(2.0, 3.0, 4.0));
    }

    #[test]
    fn point_min_max() {
        let p = Point3::new(1.0, 5.0, -2.0);
        let q = Point3::new(3.0, 2.0, 0.0);
        assert_eq!(p.min(q), Point3::new(1.0, 2.0, -2.0));
        assert_eq!(p.max(q), Point3::new(3.0, 5.0, 0.0));
    }

    #[test]
    fn point_distance() {
        let p = Point3::ORIGIN;
        let q = Point3::new(3.0, 4.0, 0.0);
        assert_eq!(p.distance_squared(q), 25.0);
        assert_eq!(p.distance(q), 5.0);
    }

    #[test]
    fn point_finite() {
        assert!(Point3::new(1.0, 2.0, 3.0).is_finite());
        assert!(!Point3::new(f32::NAN, 0.0, 0.0).is_finite());
        assert!(!Point3::new(0.0, f32::INFINITY, 0.0).is_finite());
    }

    #[test]
    fn point_array_round_trip() {
        let p = Point3::new(-1.5, 0.25, 9.0);
        let a: [f32; 3] = p.into();
        assert_eq!(Point3::from(a), p);
    }

    #[test]
    fn rgb_distance_is_symmetric() {
        let a = Rgb::new(10, 250, 3);
        let b = Rgb::new(200, 0, 90);
        assert_eq!(a.distance_squared(b), b.distance_squared(a));
        assert_eq!(a.distance_squared(a), 0);
    }

    #[test]
    fn rgb_delta_and_clamp_round_trip() {
        let a = Rgb::new(10, 200, 128);
        let base = Rgb::new(50, 180, 128);
        let d = a.delta(base);
        let restored = Rgb::from_i32_clamped([
            base.r as i32 + d[0],
            base.g as i32 + d[1],
            base.b as i32 + d[2],
        ]);
        assert_eq!(restored, a);
    }

    #[test]
    fn rgb_pack_round_trips_and_orders_channels() {
        let c = Rgb::new(0x12, 0x34, 0x56);
        assert_eq!(c.pack(), 0x56_3412);
        assert_eq!(Rgb::unpack(c.pack()), c);
        assert_eq!(Rgb::unpack(0xff00_0000 | c.pack()), c);
        assert_eq!(Rgb::WHITE.pack(), 0xff_ffff);
    }

    #[test]
    fn rgb_clamp_saturates() {
        assert_eq!(Rgb::from_i32_clamped([-5, 300, 128]), Rgb::new(0, 255, 128));
    }

    #[test]
    fn rgb_display() {
        assert_eq!(Rgb::new(255, 0, 16).to_string(), "#ff0010");
    }
}
