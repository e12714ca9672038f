//! Dynamic point-cloud videos and I/P frame structure.

use crate::PointCloud;
use serde::{Deserialize, Serialize};

/// How a frame is coded within a group of frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameKind {
    /// Intra-coded frame: compressed independently of other frames.
    Intra,
    /// Predicted frame: attributes compressed relative to the preceding
    /// intra frame.
    Predicted,
}

/// The I/P cadence of a coded stream.
///
/// The paper codes frames in an "IPP" pattern — each I-frame followed by
/// two P-frames (Sec. V-B). [`GofPattern::kind_of`] assigns a
/// [`FrameKind`] to every frame index.
///
/// # Examples
///
/// ```
/// use pcc_types::{FrameKind, GofPattern};
/// let ipp = GofPattern::ipp();
/// assert_eq!(ipp.kind_of(0), FrameKind::Intra);
/// assert_eq!(ipp.kind_of(1), FrameKind::Predicted);
/// assert_eq!(ipp.kind_of(2), FrameKind::Predicted);
/// assert_eq!(ipp.kind_of(3), FrameKind::Intra);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GofPattern {
    period: u32,
}

impl GofPattern {
    /// A pattern with one I-frame every `period` frames (the rest are
    /// P-frames).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn every(period: u32) -> Self {
        assert!(period > 0, "group-of-frames period must be positive");
        GofPattern { period }
    }

    /// The paper's IPP pattern: one I-frame followed by two P-frames.
    pub fn ipp() -> Self {
        GofPattern::every(3)
    }

    /// All-intra coding (no P-frames).
    pub fn all_intra() -> Self {
        GofPattern::every(1)
    }

    /// Frames between consecutive I-frames.
    pub fn period(&self) -> u32 {
        self.period
    }

    /// The kind assigned to frame `index`.
    pub fn kind_of(&self, index: usize) -> FrameKind {
        if (index as u32).is_multiple_of(self.period) {
            FrameKind::Intra
        } else {
            FrameKind::Predicted
        }
    }

    /// Index of the I-frame that frame `index` predicts from
    /// (its own index if it is an I-frame).
    pub fn reference_of(&self, index: usize) -> usize {
        index - (index % self.period as usize)
    }

    /// Ordinal of the group of frames that frame `index` belongs to.
    pub fn gof_index(&self, index: usize) -> usize {
        index / self.period as usize
    }

    /// Whether frame `index` opens a group of frames (is its I-frame).
    pub fn is_gof_start(&self, index: usize) -> bool {
        index.is_multiple_of(self.period as usize)
    }

    /// Whether any frame in `lost` (a half-open index range) is an
    /// I-frame. A lossy receiver uses this to decide if a gap broke the
    /// reference chain: losing only P-frames leaves the rest of their
    /// group decodable, losing an I-frame orphans every following
    /// P-frame until the next I-frame.
    pub fn range_contains_intra(&self, lost: core::ops::Range<usize>) -> bool {
        if lost.is_empty() {
            return false;
        }
        // The first GOF start at or after lost.start.
        let p = self.period as usize;
        let next_start = lost.start.div_ceil(p) * p;
        next_start < lost.end
    }
}

impl Default for GofPattern {
    fn default() -> Self {
        GofPattern::ipp()
    }
}

/// One frame of a dynamic point-cloud video.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// The frame's point cloud.
    pub cloud: PointCloud,
    /// Capture timestamp in milliseconds from the start of the video.
    pub timestamp_ms: f64,
}

impl Frame {
    /// Creates a frame from a cloud and its timestamp.
    pub fn new(cloud: PointCloud, timestamp_ms: f64) -> Self {
        Frame { cloud, timestamp_ms }
    }
}

/// A dynamic point-cloud video: an ordered sequence of frames captured at
/// a fixed rate (the evaluated datasets are 30 fps).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Video {
    name: String,
    frames: Vec<Frame>,
    fps: f32,
}

impl Video {
    /// Creates a video from its frames.
    pub fn new(name: impl Into<String>, frames: Vec<Frame>, fps: f32) -> Self {
        Video { name: name.into(), frames, fps }
    }

    /// The video's name (e.g. `"Redandblack"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` if the video has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Capture rate in frames per second.
    pub fn fps(&self) -> f32 {
        self.fps
    }

    /// The frame at `index`, or `None` if out of bounds.
    pub fn frame(&self, index: usize) -> Option<&Frame> {
        self.frames.get(index)
    }

    /// Iterates over the frames in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Frame> {
        self.frames.iter()
    }

    /// The union bounding box of every frame's cloud, or `None` if all
    /// frames are empty.
    ///
    /// Voxelizing all frames in this one box
    /// ([`VoxelizedCloud::from_cloud_in_box`](crate::VoxelizedCloud::from_cloud_in_box))
    /// gives the whole video a common grid, which inter-frame compression
    /// requires.
    pub fn bounding_box(&self) -> Option<crate::Aabb> {
        self.frames
            .iter()
            .filter_map(|f| f.cloud.bounding_box())
            .reduce(|a, b| a.union(&b))
    }

    /// Average points per frame (0 for an empty video).
    pub fn mean_points_per_frame(&self) -> usize {
        if self.frames.is_empty() {
            return 0;
        }
        self.frames.iter().map(|f| f.cloud.len()).sum::<usize>() / self.frames.len()
    }
}

impl<'a> IntoIterator for &'a Video {
    type Item = &'a Frame;
    type IntoIter = std::slice::Iter<'a, Frame>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Point3, Rgb};

    #[test]
    fn ipp_pattern_matches_paper() {
        let p = GofPattern::ipp();
        let kinds: Vec<_> = (0..6).map(|i| p.kind_of(i)).collect();
        use FrameKind::*;
        assert_eq!(kinds, vec![Intra, Predicted, Predicted, Intra, Predicted, Predicted]);
    }

    #[test]
    fn reference_points_to_latest_intra() {
        let p = GofPattern::ipp();
        assert_eq!(p.reference_of(0), 0);
        assert_eq!(p.reference_of(1), 0);
        assert_eq!(p.reference_of(2), 0);
        assert_eq!(p.reference_of(3), 3);
        assert_eq!(p.reference_of(5), 3);
    }

    #[test]
    fn gof_introspection() {
        let p = GofPattern::ipp();
        assert_eq!(p.gof_index(0), 0);
        assert_eq!(p.gof_index(2), 0);
        assert_eq!(p.gof_index(3), 1);
        assert_eq!(p.gof_index(7), 2);
        assert!(p.is_gof_start(0));
        assert!(!p.is_gof_start(2));
        assert!(p.is_gof_start(6));
    }

    #[test]
    fn intra_loss_detection_over_gaps() {
        let p = GofPattern::ipp();
        assert!(!p.range_contains_intra(4..4), "empty gap");
        assert!(!p.range_contains_intra(1..3), "P-only gap");
        assert!(p.range_contains_intra(0..1), "I-frame itself");
        assert!(p.range_contains_intra(2..4), "gap spanning I-frame 3");
        assert!(p.range_contains_intra(1..9), "multi-GOF gap");
        assert!(!p.range_contains_intra(4..6), "P-frames of one GOF");
        let all_intra = GofPattern::all_intra();
        assert!(all_intra.range_contains_intra(5..6));
    }

    #[test]
    fn all_intra_has_no_predicted() {
        let p = GofPattern::all_intra();
        assert!((0..10).all(|i| p.kind_of(i) == FrameKind::Intra));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_panics() {
        GofPattern::every(0);
    }

    #[test]
    fn video_accessors() {
        let mut cloud = PointCloud::new();
        cloud.push(Point3::ORIGIN, Rgb::BLACK);
        let frames = vec![Frame::new(cloud.clone(), 0.0), Frame::new(cloud, 33.3)];
        let v = Video::new("test", frames, 30.0);
        assert_eq!(v.len(), 2);
        assert_eq!(v.name(), "test");
        assert_eq!(v.fps(), 30.0);
        assert_eq!(v.mean_points_per_frame(), 1);
        assert!(v.frame(2).is_none());
        assert_eq!(v.iter().count(), 2);
    }

    #[test]
    fn empty_video_mean_is_zero() {
        let v = Video::new("empty", vec![], 30.0);
        assert!(v.is_empty());
        assert_eq!(v.mean_points_per_frame(), 0);
    }
}
