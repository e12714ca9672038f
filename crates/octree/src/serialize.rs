//! Self-describing occupancy streams and the geometry decoder.

use pcc_types::wire::{write_varint, Cursor};
use pcc_types::{DecodeError, Limits, VoxelCoord, VoxelizedCloud};

/// Magic byte identifying an occupancy stream.
const MAGIC: u8 = 0xa7;

/// The header of an occupancy stream: what expanding its occupancy bytes
/// needs besides the bytes themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyHeader {
    /// Leaf depth of the serialized octree (1..=21).
    pub depth: u8,
    /// Number of occupied leaf voxels.
    pub leaf_count: usize,
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
/// frontier spawns the child cells of its set bits. Because the stream is
/// breadth-first and children are emitted in slot order, the output is
/// exactly the sorted voxel set the encoder saw — geometry is *lossless
/// at voxel precision*.
///
/// Enforces `limits.max_depth` on the declared depth and
/// `limits.max_points` on both the declared leaf count and the expanding
/// frontier at every level, so a hostile stream can neither declare an
/// absurd leaf count nor grow the breadth-first frontier past the limit —
/// the check fires before the level is expanded.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input or when a limit is hit;
/// offsets are positions in `stream`.
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
/// # Ok::<(), pcc_types::DecodeError>(())
/// ```
pub fn decode_occupancy_with(
    stream: &[u8],
    limits: &Limits,
) -> Result<Vec<VoxelCoord>, DecodeError> {
    decode_occupancy_from(&mut Cursor::new(stream, 0), limits)
}

/// [`decode_occupancy_with`] reading the stream from `cursor`, so a
/// caller that parsed a header in front of it gets offsets in its own
/// buffer. Consumes the occupancy bytes the expansion read. A caller
/// that has a vector to append to reads the header with
/// [`OccupancyHeader::read`] and calls [`OccupancyHeader::expand`].
///
/// # Errors
///
/// As [`decode_occupancy_with`].
pub fn decode_occupancy_from(
    cursor: &mut Cursor<'_>,
    limits: &Limits,
) -> Result<Vec<VoxelCoord>, DecodeError> {
    let header = OccupancyHeader::read(cursor)?;
    let mut coords = Vec::new();
    header.expand(cursor, limits, &mut coords)?;
    Ok(coords)
}

impl OccupancyHeader {
    /// Reads an occupancy stream header — magic, depth, varint leaf count
    /// — leaving `cursor` at the first occupancy byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadMagic`], a depth outside 1..=21
    /// ([`DecodeError::Corrupt`]), or a truncated or overlong varint.
    pub fn read(cursor: &mut Cursor<'_>) -> Result<Self, DecodeError> {
        let at = cursor.offset();
        if cursor.u8()? != MAGIC {
            return Err(DecodeError::BadMagic { offset: at });
        }
        let depth = cursor.u8()?;
        check_depth_byte(depth, at + 1)?;
        Ok(OccupancyHeader { depth, leaf_count: cursor.varint()? as usize })
    }

    /// A header for occupancy bytes that another container frames (the
    /// TMC13 baseline entropy-codes them behind its own header).
    /// `depth_at` is where that container holds the depth byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Corrupt`] at `depth_at` when `depth` is outside
    /// 1..=21.
    pub fn new(depth: u8, leaf_count: usize, depth_at: usize) -> Result<Self, DecodeError> {
        check_depth_byte(depth, depth_at)?;
        Ok(OccupancyHeader { depth, leaf_count })
    }

    /// Expands the breadth-first occupancy bytes at `cursor` into this
    /// header's voxels, in Morton order, appending them to `out`, under
    /// `limits`; consumes the bytes it reads. Offsets in errors are the
    /// cursor's. On error `out` is left as it was.
    ///
    /// The frontier holds coordinates: a node's child in slot `s` is
    /// `(2x | s&1, 2y | s>>1&1, 2z | s>>2)`, emitted for each set bit of
    /// its byte in slot order, which is Morton order. Each level's width
    /// is the popcount of its bytes, so the points limit and, at the leaf
    /// level, the declared leaf count are checked before the level is
    /// expanded; the leaf level is written straight into `out`.
    ///
    /// # Errors
    ///
    /// As [`decode_occupancy_with`], after the header: the depth and
    /// leaf-count limits, truncated occupancy bytes (at the first missing
    /// byte), the points limit on every level's width, and a leaf count
    /// that disagrees with the expansion.
    pub fn expand(
        self,
        cursor: &mut Cursor<'_>,
        limits: &Limits,
        out: &mut Vec<VoxelCoord>,
    ) -> Result<(), DecodeError> {
        limits.check_depth(self.depth)?;
        limits.check_points(self.leaf_count as u64)?;
        let leaves = |decoded| DecodeError::Mismatch {
            what: "leaves",
            declared: self.leaf_count,
            decoded,
        };
        let mut frontier = vec![VoxelCoord::default()]; // the root cell
        let mut next = Vec::new();
        for level in 1..=self.depth {
            // One byte per frontier node. No level of a well-formed tree
            // is wider than its leaf level, so every width is held to the
            // leaf budget before it is expanded.
            let bytes = take_level(cursor, frontier.len())?;
            let width: usize = bytes.iter().map(|b| b.count_ones() as usize).sum();
            limits.check_points(width as u64)?;
            if level < self.depth {
                next.clear();
                expand_level(&frontier, bytes, width, &mut next);
                std::mem::swap(&mut frontier, &mut next);
            } else if width != self.leaf_count {
                return Err(leaves(width));
            } else {
                expand_level(&frontier, bytes, width, out);
                return Ok(());
            }
        }
        // A depth-0 header (only constructible field by field): the root
        // is the one leaf.
        if self.leaf_count != 1 {
            return Err(leaves(1));
        }
        out.push(VoxelCoord::default());
        Ok(())
    }
}

/// The next `n` occupancy bytes of `cursor`. When fewer are left, the
/// error is the one a byte-by-byte read reports: [`DecodeError::Truncated`]
/// at the first missing byte, the end of the input.
fn take_level<'a>(cursor: &mut Cursor<'a>, n: usize) -> Result<&'a [u8], DecodeError> {
    if cursor.rest().len() < n {
        cursor.take(cursor.rest().len())?;
    }
    cursor.take(n)
}

/// Appends the children of every `frontier` cell, whose occupancy bytes
/// are `bytes`, to `out`, in Morton order; `width` is their total.
fn expand_level(frontier: &[VoxelCoord], bytes: &[u8], width: usize, out: &mut Vec<VoxelCoord>) {
    out.reserve(width);
    for (parent, &byte) in frontier.iter().zip(bytes) {
        let (x, y, z) = (parent.x << 1, parent.y << 1, parent.z << 1);
        let mut rest = byte;
        while rest != 0 {
            let s = rest.trailing_zeros();
            rest &= rest - 1;
            out.push(VoxelCoord::new(x | (s & 1), y | (s >> 1 & 1), z | (s >> 2)));
        }
    }
}

/// Rejects a depth byte outside the octree's 1..=21 levels.
fn check_depth_byte(depth: u8, offset: usize) -> Result<(), DecodeError> {
    if (1..=21).contains(&depth) {
        Ok(())
    } else {
        Err(DecodeError::Corrupt { what: "octree depth", offset })
    }
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

/// Reads a [`GridHeader`] from `cursor`. The world frame is not checked
/// here: the decoders hand it to
/// [`VoxelizedCloud::from_grid_with_frame`], which rejects it.
///
/// # Errors
///
/// [`DecodeError::Truncated`] when the input is shorter than the header.
pub fn read_grid_header(cursor: &mut Cursor<'_>) -> Result<GridHeader, DecodeError> {
    let depth = cursor.u8()?;
    let origin = [cursor.f32_le()?, cursor.f32_le()?, cursor.f32_le()?];
    Ok(GridHeader { depth, origin, voxel_size: cursor.f32_le()? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParallelOctree, SequentialOctree};
    use proptest::prelude::*;

    fn decode(stream: &[u8]) -> Result<Vec<VoxelCoord>, DecodeError> {
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
        assert_eq!(decode(&[0x00, 4, 0]).unwrap_err(), DecodeError::BadMagic { offset: 0 });
    }

    #[test]
    fn bad_depth_rejected() {
        for depth in [22u8, 0] {
            let mut stream = Vec::new();
            serialize_occupancy_into(depth, 0, &[0], &mut stream);
            assert_eq!(
                decode(&stream).unwrap_err(),
                DecodeError::Corrupt { what: "octree depth", offset: 1 }
            );
        }
    }

    #[test]
    fn truncated_stream_rejected() {
        let tree =
            ParallelOctree::from_coords(&[VoxelCoord::new(1, 2, 3), VoxelCoord::new(7, 0, 2)], 3);
        let full = tree.serialize();
        for cut in 0..full.len() {
            // Every cut lands inside a field, so the error is a
            // truncation at or before the cut.
            match decode(&full[..cut]) {
                Err(DecodeError::Truncated { offset }) => assert!(offset <= cut, "cut {cut}"),
                other => panic!("prefix of len {cut}: {other:?}"),
            }
        }
        // The occupancy bytes run out at the cut itself.
        let cut = full.len() - 1;
        assert_eq!(decode(&full[..cut]), Err(DecodeError::Truncated { offset: cut }));
    }

    #[test]
    fn overlong_leaf_count_varint_is_rejected() {
        // Ten varint bytes whose last one sets bits above 63; the high
        // bits must not be dropped into a plausible leaf count of 5.
        let mut stream = vec![MAGIC, 4, 0x85];
        stream.extend_from_slice(&[0x80; 8]);
        stream.push(0x7e);
        let header = OccupancyHeader::read(&mut Cursor::new(&stream, 0));
        assert_eq!(header, Err(DecodeError::VarintOverflow { offset: 2 }));
        assert_eq!(decode(&stream), Err(DecodeError::VarintOverflow { offset: 2 }));
    }

    #[test]
    fn leaf_mismatch_detected() {
        let tree = ParallelOctree::from_coords(&[VoxelCoord::new(1, 1, 1)], 2);
        let serialized = tree.serialize();
        let mut stream = Vec::new();
        let mut c = Cursor::new(&serialized, 0);
        OccupancyHeader::read(&mut c).unwrap();
        serialize_occupancy_into(2, 99, c.rest(), &mut stream);
        let err = decode(&stream).unwrap_err();
        assert_eq!(err, DecodeError::Mismatch { what: "leaves", declared: 99, decoded: 1 });
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
            DecodeError::Limit(e) if e.what == "octree depth"
        ));
        // A header declaring 2^40 leaves is rejected before any expansion.
        let mut bomb = Vec::new();
        serialize_occupancy_into(6, 1 << 40, &[0xff; 6], &mut bomb);
        assert!(matches!(
            decode(&bomb).unwrap_err(),
            DecodeError::Limit(e) if e.what == "points"
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
        let mut c = Cursor::new(&stream, 0);
        let parsed = OccupancyHeader::read(&mut c).unwrap();
        assert_eq!(parsed, OccupancyHeader { depth: 7, leaf_count: 1 });
        assert_eq!(c.rest().len(), 7);
        // A framed header checks the same depths, at the caller's offset.
        assert_eq!(OccupancyHeader::new(7, 1, 40), Ok(parsed));
        assert_eq!(
            OccupancyHeader::new(22, 1, 40),
            Err(DecodeError::Corrupt { what: "octree depth", offset: 40 })
        );
        let mut appended = vec![VoxelCoord::new(9, 9, 9)];
        parsed.expand(&mut c, &Limits::default(), &mut appended).unwrap();
        assert_eq!(appended[1..], decode(&stream).unwrap()[..]);
        assert_eq!(appended[0], VoxelCoord::new(9, 9, 9));
    }

    /// The reference expansion, the oracle for
    /// [`OccupancyHeader::expand`]: Morton prefixes grown level by level
    /// through an 8-slot loop, decoded to coordinates at the end.
    fn expand_oracle(
        header: OccupancyHeader,
        cursor: &mut Cursor<'_>,
        limits: &Limits,
    ) -> Result<Vec<VoxelCoord>, DecodeError> {
        limits.check_depth(header.depth)?;
        limits.check_points(header.leaf_count as u64)?;
        let mut frontier: Vec<u64> = vec![0];
        for _level in 0..header.depth {
            let mut next = Vec::new();
            for &prefix in &frontier {
                let byte = cursor.u8()?;
                for slot in 0..8u64 {
                    if byte & (1 << slot) != 0 {
                        next.push((prefix << 3) | slot);
                    }
                }
            }
            limits.check_points(next.len() as u64)?;
            frontier = next;
        }
        if frontier.len() != header.leaf_count {
            return Err(DecodeError::Mismatch {
                what: "leaves",
                declared: header.leaf_count,
                decoded: frontier.len(),
            });
        }
        Ok(frontier
            .into_iter()
            .map(|c| pcc_morton::MortonCode::from_raw(c).to_coord())
            .collect())
    }

    /// Both expansions of `stream` under `limits`: the whole result and
    /// the offset each left its cursor at.
    #[allow(clippy::type_complexity)]
    fn both(
        stream: &[u8],
        limits: &Limits,
    ) -> ((Result<Vec<VoxelCoord>, DecodeError>, usize), (Result<Vec<VoxelCoord>, DecodeError>, usize))
    {
        let run = |oracle: bool| {
            let mut c = Cursor::new(stream, 0);
            let result = OccupancyHeader::read(&mut c).and_then(|h| {
                if oracle {
                    return expand_oracle(h, &mut c, limits);
                }
                let mut out = Vec::new();
                h.expand(&mut c, limits, &mut out).map(|()| out)
            });
            (result, c.offset())
        };
        (run(false), run(true))
    }

    #[test]
    fn depth_zero_header_expands_to_the_root() {
        for leaf_count in [0, 1, 2] {
            let header = OccupancyHeader { depth: 0, leaf_count };
            let mut out = Vec::new();
            let got = header.expand(&mut Cursor::new(&[], 0), &Limits::default(), &mut out);
            let oracle = expand_oracle(header, &mut Cursor::new(&[], 0), &Limits::default());
            assert_eq!(got.map(|()| out), oracle);
        }
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

        /// The coordinate expansion returns exactly the prefix
        /// expansion's `Result` — voxels, or error kind and offset — and
        /// consumes the same bytes, on random trees and on truncated,
        /// bit-flipped, length-inflated and leaf-count-deflated copies of
        /// them, under the default, strict and a tight points limit.
        #[test]
        fn expansion_equals_the_prefix_oracle(
            coords in prop::collection::vec((0u32..1 << 12, 0u32..1 << 12, 0u32..1 << 12), 0..200),
            depth in 1u8..=12,
            flips in prop::collection::vec((any::<usize>(), 0u32..8), 0..4),
            extra in prop::collection::vec(any::<u8>(), 0..24),
            (cut, inflate, tight) in (any::<usize>(), 0usize..5, 1u64..200),
        ) {
            let mask = (1u32 << depth) - 1;
            let coords: Vec<VoxelCoord> = coords
                .into_iter()
                .map(|(x, y, z)| VoxelCoord::new(x & mask, y & mask, z & mask))
                .collect();
            let tree = ParallelOctree::from_coords(&coords, depth);
            let clean = tree.serialize();
            let mut truncated = clean.clone();
            truncated.truncate(cut % (clean.len() + 1));
            let mut flipped = clean.clone();
            for &(at, bit) in &flips {
                let i = at % flipped.len();
                flipped[i] ^= 1 << bit;
            }
            // Trailing bytes behind the stream, and a leaf count that
            // overstates (or, at 0, restates) the tree or understates it,
            // so an inner level can outgrow a limit the header passed.
            let mut longer = clean.clone();
            longer.extend_from_slice(&extra);
            let mut occupancy = Cursor::new(&clean, 0);
            OccupancyHeader::read(&mut occupancy).unwrap();
            let (mut inflated, mut deflated) = (Vec::new(), Vec::new());
            let leaf_count = tree.leaf_count() + inflate;
            serialize_occupancy_into(depth, leaf_count, occupancy.rest(), &mut inflated);
            inflated.extend_from_slice(&extra);
            let leaf_count = tree.leaf_count() >> (inflate + 1);
            serialize_occupancy_into(depth, leaf_count, occupancy.rest(), &mut deflated);
            let tight = Limits { max_points: tight, ..Limits::default() };
            for limits in [Limits::default(), Limits::strict(), tight] {
                for stream in [&clean, &truncated, &flipped, &longer, &inflated, &deflated] {
                    let (got, oracle) = both(stream, &limits);
                    prop_assert_eq!(&got, &oracle, "stream {:?} under {:?}", stream, limits);
                }
            }
            prop_assert_eq!(both(&clean, &Limits::default()).0 .0.unwrap(), tree.leaves());
        }
    }
}
