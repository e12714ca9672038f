//! Bit-interleaved Morton encoding and tree navigation.

use pcc_types::VoxelCoord;
use std::fmt;

/// Maximum bits per axis that fit a 3-D Morton code in 63 bits.
pub const MAX_BITS_PER_AXIS: u8 = 21;

/// A 3-D Morton code: the bits of `(x, y, z)` interleaved as
/// `… z₂y₂x₂ z₁y₁x₁ z₀y₀x₀` (x in the least-significant lane).
///
/// Codes order voxels along a Z-curve; each group of 3 bits selects one of
/// the 8 children of an octree node, so [`MortonCode::parent`] /
/// [`MortonCode::child_slot`] navigate the implicit octree directly.
///
/// # Examples
///
/// ```
/// use pcc_morton::MortonCode;
/// use pcc_types::VoxelCoord;
///
/// let c = MortonCode::from_coord(VoxelCoord::new(1, 1, 1));
/// assert_eq!(c.value(), 0b111);
/// assert_eq!(c.child_slot(), 7);
/// assert_eq!(c.parent().value(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MortonCode(u64);

impl MortonCode {
    /// The root code (origin voxel).
    pub const ZERO: MortonCode = MortonCode(0);

    /// Wraps a raw interleaved value.
    #[inline]
    pub const fn from_raw(value: u64) -> Self {
        MortonCode(value)
    }

    /// Encodes a voxel coordinate.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any component exceeds
    /// [`MAX_BITS_PER_AXIS`] bits.
    #[inline]
    pub fn from_coord(c: VoxelCoord) -> Self {
        debug_assert!(
            c.x < (1 << MAX_BITS_PER_AXIS)
                && c.y < (1 << MAX_BITS_PER_AXIS)
                && c.z < (1 << MAX_BITS_PER_AXIS),
            "coordinate {c:?} exceeds {MAX_BITS_PER_AXIS} bits per axis"
        );
        MortonCode(part1by2(c.x) | (part1by2(c.y) << 1) | (part1by2(c.z) << 2))
    }

    /// The raw interleaved value.
    #[inline]
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Decodes back to a voxel coordinate.
    #[inline]
    pub fn to_coord(self) -> VoxelCoord {
        VoxelCoord::new(compact1by2(self.0), compact1by2(self.0 >> 1), compact1by2(self.0 >> 2))
    }

    /// The code of this voxel's parent octree cell (drops the last 3 bits).
    #[inline]
    pub const fn parent(self) -> MortonCode {
        MortonCode(self.0 >> 3)
    }

    /// Which of its parent's 8 children this cell is (`code % 8`), i.e. the
    /// occupancy-bit index the paper's Algorithm 1 uses (`C[j] % 8`).
    #[inline]
    pub const fn child_slot(self) -> u8 {
        (self.0 & 7) as u8
    }

    /// The code of this cell's `slot`-th child.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `slot >= 8`.
    #[inline]
    pub fn child(self, slot: u8) -> MortonCode {
        debug_assert!(slot < 8, "octree child slot must be < 8");
        MortonCode((self.0 << 3) | slot as u64)
    }

    /// The ancestor `levels` levels above this cell.
    #[inline]
    pub const fn ancestor(self, levels: u8) -> MortonCode {
        MortonCode(self.0 >> (3 * levels as u32))
    }

    /// Truncates a leaf code at `depth` to its prefix at `level`
    /// (level 0 = root).
    #[inline]
    pub fn prefix_at(self, depth: u8, level: u8) -> MortonCode {
        debug_assert!(level <= depth);
        self.ancestor(depth - level)
    }

    /// Number of leading octree levels (3-bit groups, at the given leaf
    /// depth) shared by two codes — the depth of their lowest common
    /// ancestor.
    pub fn common_prefix_levels(self, other: MortonCode, depth: u8) -> u8 {
        let x = self.0 ^ other.0;
        if x == 0 {
            return depth;
        }
        let highest = 63 - x.leading_zeros() as u8; // bit index of highest difference
        let differing_level = highest / 3; // 3-bit group index from the leaf
        depth.saturating_sub(differing_level + 1)
    }
}

impl From<VoxelCoord> for MortonCode {
    #[inline]
    fn from(c: VoxelCoord) -> Self {
        MortonCode::from_coord(c)
    }
}

impl From<MortonCode> for u64 {
    #[inline]
    fn from(c: MortonCode) -> Self {
        c.0
    }
}

impl fmt::Display for MortonCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Binary for MortonCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::LowerHex for MortonCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for MortonCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Octal for MortonCode {
    /// Octal is the natural radix for Morton codes: each digit is one
    /// octree level's child slot.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.0, f)
    }
}

/// Encodes a voxel coordinate to its Morton code.
///
/// Free-function convenience for [`MortonCode::from_coord`].
#[inline]
pub fn encode(c: VoxelCoord) -> MortonCode {
    MortonCode::from_coord(c)
}

/// Decodes a Morton code back to its voxel coordinate.
#[inline]
pub fn decode(code: MortonCode) -> VoxelCoord {
    code.to_coord()
}

/// Encodes a batch of coordinates, writing one code per input.
///
/// This is the hot-path form of [`encode`]: instead of running the
/// five-step magic-shift chain per axis, each axis is spread through
/// three lookups into a 256-entry table (one table per axis, 6 KiB in
/// all, so they stay in L1). The output is bit-identical to the scalar
/// [`encode`] reference for every input — pinned by an exhaustive test
/// and proptests in this module.
///
/// # Panics
///
/// Panics if `coords` and `out` differ in length; debug builds also
/// panic if any component exceeds [`MAX_BITS_PER_AXIS`] bits.
pub fn encode_slice(coords: &[VoxelCoord], out: &mut [MortonCode]) {
    assert_eq!(coords.len(), out.len(), "coords/out length mismatch");
    for (slot, c) in out.iter_mut().zip(coords) {
        debug_assert!(
            c.x < (1 << MAX_BITS_PER_AXIS)
                && c.y < (1 << MAX_BITS_PER_AXIS)
                && c.z < (1 << MAX_BITS_PER_AXIS),
            "coordinate {c:?} exceeds {MAX_BITS_PER_AXIS} bits per axis"
        );
        *slot = MortonCode(spread(&TX, c.x) | spread(&TY, c.y) | spread(&TZ, c.z));
    }
}

/// Spread tables: `TX[b]` moves bit `i` of byte `b` to bit `3i`; `TY`
/// and `TZ` are the same table pre-shifted into the y and z lanes.
static TX: [u64; 256] = spread_table(0);
static TY: [u64; 256] = spread_table(1);
static TZ: [u64; 256] = spread_table(2);

/// Builds the spread table for the lane at bit offset `lane`.
const fn spread_table(lane: u32) -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut bit = 0;
        while bit < 8 {
            table[b] |= ((b as u64 >> bit) & 1) << (3 * bit + lane);
            bit += 1;
        }
        b += 1;
    }
    table
}

/// [`part1by2`] (shifted into `t`'s lane) by table lookup: the low two
/// bytes of `v` and its next five bits, each spread and moved 24 bits
/// per input byte. The `0x1f` mask drops bits above 21 exactly as
/// [`part1by2`]'s `0x1f_ffff` does, and the masked indexes need no
/// bounds checks.
#[inline(always)]
fn spread(t: &[u64; 256], v: u32) -> u64 {
    t[(v & 0xff) as usize]
        | (t[((v >> 8) & 0xff) as usize] << 24)
        | (t[((v >> 16) & 0x1f) as usize] << 48)
}

/// Spreads the low 21 bits of `v` so each lands 3 positions apart
/// ("insert two zeros between every bit").
#[inline]
fn part1by2(v: u32) -> u64 {
    let mut x = v as u64 & 0x1f_ffff; // 21 bits
    x = (x | (x << 32)) & 0x001f_0000_0000_ffff;
    x = (x | (x << 16)) & 0x001f_0000_ff00_00ff;
    x = (x | (x << 8)) & 0x100f_00f0_0f00_f00f;
    x = (x | (x << 4)) & 0x10c3_0c30_c30c_30c3;
    x = (x | (x << 2)) & 0x1249_2492_4924_9249;
    x
}

/// Inverse of [`part1by2`]: gathers every third bit back together.
#[inline]
fn compact1by2(v: u64) -> u32 {
    let mut x = v & 0x1249_2492_4924_9249;
    x = (x | (x >> 2)) & 0x10c3_0c30_c30c_30c3;
    x = (x | (x >> 4)) & 0x100f_00f0_0f00_f00f;
    x = (x | (x >> 8)) & 0x001f_0000_ff00_00ff;
    x = (x | (x >> 16)) & 0x001f_0000_0000_ffff;
    x = (x | (x >> 32)) & 0x1f_ffff;
    x as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unit_axes_map_to_child_bits() {
        // x is the least-significant interleaved lane.
        assert_eq!(encode(VoxelCoord::new(1, 0, 0)).value(), 0b001);
        assert_eq!(encode(VoxelCoord::new(0, 1, 0)).value(), 0b010);
        assert_eq!(encode(VoxelCoord::new(0, 0, 1)).value(), 0b100);
        assert_eq!(encode(VoxelCoord::new(1, 1, 1)).value(), 0b111);
    }

    #[test]
    fn known_interleavings() {
        // (3,5,1): x=0b011, y=0b101, z=0b001.
        // level 2 bits: z=0,y=1,x=0 -> 0b010; level1: z=0,y=0,x=1 -> 0b001;
        // level0: z=1,y=1,x=1 -> 0b111 => 0o217? compute: 0b010_001_111 = 0x8F.
        assert_eq!(encode(VoxelCoord::new(3, 5, 1)).value(), 0b010_001_111);
    }

    #[test]
    fn paper_fig5_codes() {
        // Fig. 5: on the 8^3 grid, P2=[3,3,3] has code 0o77 = 63 and the
        // paper's code array stores 63 for node 4 and 511 for the deepest
        // resolution of P2 on a 8x8x8 grid at depth 3 (code 0b111_111_111).
        assert_eq!(encode(VoxelCoord::new(3, 3, 3)).value(), 63);
        assert_eq!(encode(VoxelCoord::new(7, 7, 7)).value(), 511);
    }

    #[test]
    fn max_coordinate_round_trips() {
        let max = (1u32 << MAX_BITS_PER_AXIS) - 1;
        let c = VoxelCoord::new(max, 0, max);
        assert_eq!(decode(encode(c)), c);
    }

    #[test]
    fn parent_child_navigation() {
        let c = encode(VoxelCoord::new(5, 2, 7));
        let slot = c.child_slot();
        assert_eq!(c.parent().child(slot), c);
        assert_eq!(c.ancestor(0), c);
        assert_eq!(c.ancestor(1), c.parent());
        assert_eq!(c.ancestor(2), c.parent().parent());
    }

    #[test]
    fn prefix_at_levels() {
        let c = MortonCode::from_raw(0b101_011_110);
        assert_eq!(c.prefix_at(3, 3), c);
        assert_eq!(c.prefix_at(3, 2).value(), 0b101_011);
        assert_eq!(c.prefix_at(3, 1).value(), 0b101);
        assert_eq!(c.prefix_at(3, 0).value(), 0);
    }

    #[test]
    fn common_prefix_levels_cases() {
        let a = MortonCode::from_raw(0b101_011_110);
        assert_eq!(a.common_prefix_levels(a, 3), 3);
        let sibling = MortonCode::from_raw(0b101_011_111);
        assert_eq!(a.common_prefix_levels(sibling, 3), 2);
        let cousin = MortonCode::from_raw(0b101_111_110);
        assert_eq!(a.common_prefix_levels(cousin, 3), 1);
        let distant = MortonCode::from_raw(0b001_011_110);
        assert_eq!(a.common_prefix_levels(distant, 3), 0);
    }

    #[test]
    fn locality_of_adjacent_voxels() {
        // Voxels adjacent along x differ only in low-level bits most of the
        // time; their codes must stay within the same parent when the
        // coordinates share all but the lowest bit.
        let a = encode(VoxelCoord::new(4, 4, 4));
        let b = encode(VoxelCoord::new(5, 4, 4));
        assert_eq!(a.parent(), b.parent());
    }

    #[test]
    fn formatting_impls() {
        let c = MortonCode::from_raw(0o17);
        assert_eq!(format!("{c}"), "15");
        assert_eq!(format!("{c:o}"), "17");
        assert_eq!(format!("{c:x}"), "f");
        assert_eq!(format!("{c:X}"), "F");
        assert_eq!(format!("{c:b}"), "1111");
    }

    #[test]
    fn spread_tables_match_part1by2_for_every_21_bit_value() {
        for v in 0u32..1 << MAX_BITS_PER_AXIS {
            let want = part1by2(v);
            assert_eq!(spread(&TX, v), want, "x lane, v={v:#x}");
            assert_eq!(spread(&TY, v), want << 1, "y lane, v={v:#x}");
            assert_eq!(spread(&TZ, v), want << 2, "z lane, v={v:#x}");
        }
    }

    #[test]
    fn encode_slice_matches_scalar_across_block_remainders() {
        // Every short length from empty up, including the max coordinate,
        // so no loop-unrolling remainder of the table kernel goes untested.
        let max = (1u32 << MAX_BITS_PER_AXIS) - 1;
        for n in 0usize..=33 {
            let coords: Vec<VoxelCoord> = (0..n)
                .map(|i| {
                    let i = i as u32;
                    VoxelCoord::new(
                        i.wrapping_mul(2654435761) % (max + 1),
                        i.wrapping_mul(40503) % (max + 1),
                        max - i.wrapping_mul(2246822519) % (max + 1),
                    )
                })
                .collect();
            let mut got = vec![MortonCode::ZERO; n];
            encode_slice(&coords, &mut got);
            let want: Vec<MortonCode> = coords.iter().map(|&c| encode(c)).collect();
            assert_eq!(got, want, "n={n}");
        }
    }

    proptest! {
        #[test]
        fn encode_decode_inverse(x in 0u32..1 << 21, y in 0u32..1 << 21, z in 0u32..1 << 21) {
            let c = VoxelCoord::new(x, y, z);
            prop_assert_eq!(decode(encode(c)), c);
        }

        #[test]
        fn encode_slice_matches_scalar_reference(
            coords in prop::collection::vec((0u32..1 << 21, 0u32..1 << 21, 0u32..1 << 21), 0..300)
        ) {
            // The spread-table kernel must be bit-identical to the scalar
            // magic-shift reference for arbitrary coordinates.
            let coords: Vec<VoxelCoord> =
                coords.into_iter().map(|(x, y, z)| VoxelCoord::new(x, y, z)).collect();
            let mut got = vec![MortonCode::ZERO; coords.len()];
            encode_slice(&coords, &mut got);
            let want: Vec<MortonCode> = coords.iter().map(|&c| encode(c)).collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn spread_matches_part1by2_above_21_bits(v in any::<u32>()) {
            // Bits above the 21st are dropped by both forms alike.
            prop_assert_eq!(spread(&TX, v), part1by2(v));
        }

        #[test]
        fn ordering_preserves_octant(x in 0u32..1024, y in 0u32..1024, z in 0u32..1024,
                                     dx in 0u32..2, dy in 0u32..2, dz in 0u32..2) {
            // Any voxel in the upper octant of a cell sorts after any voxel
            // in the lower octant of the same cell at that level.
            let lo = encode(VoxelCoord::new(2 * x, 2 * y, 2 * z));
            let hi = encode(VoxelCoord::new(2 * x + dx, 2 * y + dy, 2 * z + dz));
            prop_assert!(lo <= hi);
            prop_assert_eq!(lo.parent(), hi.parent());
        }

        #[test]
        fn parent_strictly_decreases(v in 1u64..(1 << 63)) {
            let c = MortonCode::from_raw(v);
            prop_assert!(c.parent().value() < c.value());
        }
    }
}
