//! Brick-partitioned intra frames: fixed-depth subtree partitions of the
//! octree, each carrying its own geometry + attribute payload behind a
//! CRC-guarded per-frame index.
//!
//! # Wire layout (geometry stream, version 1)
//!
//! ```text
//! [0xB7 magic][version u8][depth u8][origin 3×f32 LE][voxel f32 LE]
//! [brick_depth u8][varint brick_count]
//! brick_count × [varint cell][varint geom_len][varint attr_len]
//!               [varint leaf_count][u32 LE brick_crc]
//! [u32 LE index_crc]               ← CRC-32 of every byte above
//! [geom payload 0][geom payload 1]…
//! ```
//!
//! The attribute stream is the matching concatenation of per-brick
//! attribute payloads (each in the standard layered format), with no
//! framing of its own — the index carries both length columns. A brick's
//! `cell` is its Morton code at `brick_depth`; cells are strictly
//! ascending, and each payload codes the subtree below that cell at
//! `depth - brick_depth` levels with cell-relative coordinates. Because
//! the frame's leaf codes are Morton-sorted, bricks are contiguous runs,
//! so the concatenation of per-brick decodes — any subset, in cell
//! order — is exactly the corresponding subset of a full decode.
//!
//! `brick_crc` covers that brick's geometry ++ attribute payload;
//! `index_crc` covers the header and index. Every decode is one
//! [`BrickDecode`] pass: the index is parsed once, each selected brick
//! is CRC-gated and decoded once, and each failure is recorded as
//! repairable (it failed its CRC) or not (it failed its parse). The
//! decode modes finish that pass: *strict* requires no failure and the
//! declared attribute extent; *viewport* selects only bricks whose
//! bounding cell intersects a viewport; *repair* decodes re-fetched
//! payloads of the CRC-damaged bricks into their slots; *salvage* keeps
//! the survivors — one damaged brick costs one subtree, not the frame.
//!
//! The monolithic layout (first stream byte = grid depth, at most 21)
//! remains the golden-pinned compatibility mode; `0xB7` never collides
//! with it, so [`BrickIndex::detect`] routes frames per stream. See
//! `IntraConfig::brick_depth` for the encode-side knob.

use crate::arena::{FrameArena, GeometryScratch};
use crate::attribute;
use crate::config::IntraConfig;
use crate::frame::IntraFrame;
use crate::geometry;
use pcc_edge::{calib, Device};
use pcc_morton::MortonCode;
use pcc_types::crc::{crc32, Crc32};
use pcc_types::wire::{write_varint, Cursor};
use pcc_types::{Aabb, DecodeError, Limits, Point3, Rgb, VoxelCoord, VoxelizedCloud};
use std::num::NonZeroUsize;
use std::ops::Range;

/// First byte of a brick-partitioned geometry stream. Monolithic streams
/// start with the grid depth (1..=21), so the magic is unambiguous.
pub const BRICK_MAGIC: u8 = 0xB7;

/// Wire version of the brick layout this build reads and writes.
pub const BRICK_VERSION: u8 = 1;

/// One encoded index entry, staged in the arena while the frame
/// assembles (the wire form is varints; this keeps the raw numbers).
#[derive(Debug, Clone)]
pub(crate) struct EncodedEntry {
    pub(crate) cell: u64,
    pub(crate) geom_len: u64,
    pub(crate) attr_len: u64,
    pub(crate) leaves: u64,
    pub(crate) crc: u32,
}

/// One brick's row of the parsed per-frame index: where its payloads
/// live, what they claim to hold, and the checksum that guards them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrickEntry {
    /// Morton code of the brick's bounding cell at the cut depth.
    pub cell: u64,
    /// Byte range of the brick's geometry payload in the frame's
    /// geometry stream (absolute offsets).
    pub geom: Range<usize>,
    /// Byte range of the brick's attribute payload in the frame's
    /// attribute stream (absolute offsets).
    pub attr: Range<usize>,
    /// Unique voxels the brick decodes to.
    pub leaf_count: usize,
    /// CRC-32 over the brick's geometry ++ attribute payload bytes.
    pub crc: u32,
}

impl BrickEntry {
    /// Compressed bytes this brick contributes (geometry + attribute).
    pub fn payload_bytes(&self) -> usize {
        self.geom.len() + self.attr.len()
    }
}

/// The parsed, CRC-verified per-frame brick index: grid metadata plus
/// one [`BrickEntry`] per brick, in ascending cell order.
///
/// Parsing the index touches only the frame header — no payload bytes —
/// which is what makes viewport-partial decode a bandwidth win: a viewer
/// reads the index, intersects each brick's [`bounds`](Self::bounds)
/// with its viewport, and decodes only the payload ranges it needs.
#[derive(Debug, Clone)]
pub struct BrickIndex {
    /// Grid depth of the frame.
    pub depth: u8,
    /// World-space origin of the grid.
    pub origin: [f32; 3],
    /// World-space voxel side length.
    pub voxel_size: f32,
    /// Octree depth of the brick cut.
    pub brick_depth: u8,
    entries: Vec<BrickEntry>,
}

impl BrickIndex {
    /// Whether `geometry` looks like a brick-partitioned stream (magic +
    /// current version). Exact: a monolithic stream's first byte is a
    /// grid depth of at most 21.
    pub fn detect(geometry: &[u8]) -> bool {
        geometry.first() == Some(&BRICK_MAGIC) && geometry.get(1) == Some(&BRICK_VERSION)
    }

    /// Parses and CRC-verifies the header and index of a brick stream
    /// under explicit resource [`Limits`] (`max_depth` for the grid,
    /// `max_blocks` for the brick count, `max_points` for the summed
    /// declared leaves).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] with its offset in `geometry` on
    /// malformed input, an index checksum mismatch (a
    /// [`DecodeError::Corrupt`]: no NACK can mend an index), or an
    /// exceeded limit.
    pub fn parse(geometry: &[u8], limits: &Limits) -> Result<Self, DecodeError> {
        let mut c = Cursor::new(geometry, 0);
        if c.u8()? != BRICK_MAGIC {
            return Err(DecodeError::BadMagic { offset: 0 });
        }
        let version = c.u8()?;
        if version != BRICK_VERSION {
            return Err(DecodeError::BadVersion { version });
        }
        let header = pcc_octree::read_grid_header(&mut c)?;
        if !(1..=21).contains(&header.depth) {
            return Err(DecodeError::Corrupt { what: "grid depth", offset: 2 });
        }
        limits.check_depth(header.depth)?;
        let brick_depth = c.u8()?;
        if brick_depth == 0 || brick_depth >= header.depth {
            return Err(c.corrupt("brick depth outside 1..grid depth"));
        }
        let count64 = c.varint()?;
        limits.check_blocks(count64)?;
        let count = usize::try_from(count64).map_err(|_| c.corrupt("brick count overflow"))?;

        // brick_depth ≤ 20, so the cell space never exceeds 60 bits.
        let cell_limit = 1u64 << (3 * u32::from(brick_depth));
        // Every index entry costs at least 8 input bytes, so the input
        // length bounds the pre-allocation even before limits bite.
        let mut entries = Vec::with_capacity(count.min(c.rest().len() / 8));
        let mut prev_cell = None;
        let mut geom_off = 0usize;
        let mut attr_off = 0usize;
        let mut leaves = 0u64;
        for _ in 0..count {
            let cell = c.varint()?;
            if cell >= cell_limit {
                return Err(c.corrupt("cell outside the cut-depth grid"));
            }
            if prev_cell.is_some_and(|p| cell <= p) {
                return Err(c.corrupt("cells not strictly ascending"));
            }
            prev_cell = Some(cell);
            let geom_len =
                usize::try_from(c.varint()?).map_err(|_| c.corrupt("payload length overflow"))?;
            let attr_len =
                usize::try_from(c.varint()?).map_err(|_| c.corrupt("payload length overflow"))?;
            let leaf_count64 = c.varint()?;
            leaves = leaves.saturating_add(leaf_count64);
            limits.check_points(leaves)?;
            let leaf_count =
                usize::try_from(leaf_count64).map_err(|_| c.corrupt("leaf count overflow"))?;
            let crc = c.u32_le()?;
            let geom_end =
                geom_off.checked_add(geom_len).ok_or_else(|| c.corrupt("geometry offset overflow"))?;
            let attr_end = attr_off
                .checked_add(attr_len)
                .ok_or_else(|| c.corrupt("attribute offset overflow"))?;
            entries.push(BrickEntry {
                cell,
                geom: geom_off..geom_end,
                attr: attr_off..attr_end,
                leaf_count,
                crc,
            });
            geom_off = geom_end;
            attr_off = attr_end;
        }

        let hashed = geometry.get(..c.offset()).unwrap_or_default();
        let stored = c.u32_le()?;
        if crc32(hashed) != stored {
            return Err(DecodeError::Corrupt { what: "index CRC", offset: hashed.len() });
        }
        if geom_off != c.rest().len() {
            return Err(DecodeError::Mismatch {
                what: "geometry payload bytes",
                declared: geom_off,
                decoded: c.rest().len(),
            });
        }
        // Rebase geometry ranges to absolute stream offsets now that the
        // payload base (header + index + CRC) is known.
        let base = c.offset();
        for e in &mut entries {
            e.geom.start += base;
            e.geom.end += base;
        }
        Ok(BrickIndex {
            depth: header.depth,
            origin: header.origin,
            voxel_size: header.voxel_size,
            brick_depth,
            entries,
        })
    }

    /// The per-brick index rows, in ascending cell order.
    pub fn entries(&self) -> &[BrickEntry] {
        &self.entries
    }

    /// Number of bricks in the frame.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the frame holds no bricks (an empty cloud).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Levels below the brick cut (`depth - brick_depth`); each brick
    /// spans `2^sub_depth` voxels per axis.
    pub fn sub_depth(&self) -> u8 {
        self.depth - self.brick_depth
    }

    /// The world-space bounding box of `entry`'s cell — the box a viewer
    /// intersects with its viewport to decide whether to decode the
    /// brick.
    pub fn bounds(&self, entry: &BrickEntry) -> Aabb {
        let cell = MortonCode::from_raw(entry.cell).to_coord();
        let side = self.voxel_size * (1u64 << u32::from(self.sub_depth())) as f32;
        let min = Point3::new(
            self.origin[0] + cell.x as f32 * side,
            self.origin[1] + cell.y as f32 * side,
            self.origin[2] + cell.z as f32 * side,
        );
        Aabb::new(min, Point3::new(min.x + side, min.y + side, min.z + side))
    }

    /// Total compressed payload bytes across all bricks — the
    /// denominator of the partial-decode bandwidth win.
    pub fn total_payload_bytes(&self) -> usize {
        self.entries.iter().map(BrickEntry::payload_bytes).sum()
    }
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

/// Encodes `cloud` into the brick layout at `brick_depth` (already
/// clamped by the caller to `1..cloud.depth()`), writing into
/// arena-owned buffers. Shares the Morton codegen, sort and leaf pass
/// with the monolithic path, then codes each brick's subtree and
/// attribute slice independently, appending each brick's decoded colors
/// to `reconstruction` (in cell order, as the decoder concatenates them)
/// when one is given.
pub(crate) fn encode_in(
    cloud: &VoxelizedCloud,
    config: &IntraConfig,
    brick_depth: u8,
    device: &Device,
    arena: &mut FrameArena,
    out: &mut IntraFrame,
    mut reconstruction: Option<&mut Vec<Rgb>>,
) {
    let threads = device.host_threads();
    let depth = cloud.depth();
    debug_assert!(brick_depth >= 1 && brick_depth < depth);
    let sub = depth - brick_depth;
    let shift = 3 * u32::from(sub);
    let n = cloud.len();

    // The per-voxel colors leave the attribute scratch for the brick
    // loop, so each brick's layers run in that scratch's idle layer
    // buffers.
    let mut colors = std::mem::take(&mut arena.attr.voxel_colors);
    geometry::morton_products_in(cloud, device, threads, &mut arena.geom, &mut colors);
    device.charge_gpu("attribute/gather", &calib::GATHER, n.max(1));
    // Room for the whole frame up front: appending brick by brick would
    // grow the held reference geometrically past the frame's size.
    if let Some(reconstruction) = reconstruction.as_deref_mut() {
        reconstruction.reserve_exact(colors.len());
    }

    let GeometryScratch { leaf_codes, tree, occupancy, .. } = &mut arena.geom;
    let attr = &mut arena.attr;
    let bricks = &mut arena.brick;

    // Brick boundaries: sorted leaf codes make each brick a contiguous
    // run of codes sharing the top 3*brick_depth bits. The sentinel can
    // never be a real cell (cells use at most 60 bits).
    bricks.starts.clear();
    let mut prev = u64::MAX;
    for (i, c) in leaf_codes.iter().enumerate() {
        let cell = c.value() >> shift;
        if cell != prev {
            bricks.starts.push(i as u32);
            prev = cell;
        }
    }
    bricks.starts.push(leaf_codes.len() as u32);

    // Per-brick payloads. Each brick re-runs the octree + layer pipeline
    // over its slice at one thread — stages are thread-count invariant,
    // so the frame bytes stay deterministic, and the parallel win is
    // spent on the decode side where the paper's budget is tight.
    let starts = std::mem::take(&mut bricks.starts);
    bricks.geom_blob.clear();
    bricks.entries.clear();
    out.attribute.clear();
    let one = NonZeroUsize::MIN;
    let mask = (1u64 << shift) - 1;
    let mut nodes = 0usize;
    for (&s, &e) in starts.iter().zip(starts.iter().skip(1)) {
        let (s, e) = (s as usize, e as usize);
        let Some(codes) = leaf_codes.get(s..e) else { continue };
        let Some(first) = codes.first() else { continue };
        let cell = first.value() >> shift;

        bricks.rel_codes.clear();
        bricks.rel_codes.extend(codes.iter().map(|c| MortonCode::from_raw(c.value() & mask)));
        tree.rebuild_from_sorted_codes(&bricks.rel_codes, sub);
        tree.occupancy_into(one, occupancy);
        nodes += tree.node_count();
        bricks.geom_buf.clear();
        pcc_octree::serialize_occupancy_into(sub, tree.leaf_count(), occupancy, &mut bricks.geom_buf);

        attr.values.clear();
        if let Some(slice) = colors.get(s..e) {
            attr.values.extend(slice.iter().map(|c| c.to_i32()));
        }
        attribute::encode_values_in(
            config,
            device,
            one,
            attr,
            &mut bricks.attr_buf,
            reconstruction.as_deref_mut(),
        );

        let mut crc = Crc32::new();
        crc.update(&bricks.geom_buf);
        crc.update(&bricks.attr_buf);
        bricks.entries.push(EncodedEntry {
            cell,
            geom_len: bricks.geom_buf.len() as u64,
            attr_len: bricks.attr_buf.len() as u64,
            leaves: codes.len() as u64,
            crc: crc.finish(),
        });
        bricks.geom_blob.extend_from_slice(&bricks.geom_buf);
        out.attribute.extend_from_slice(&bricks.attr_buf);
    }
    bricks.starts = starts;
    attr.voxel_colors = colors;
    device.charge_gpu("geometry/octree", &calib::OCTREE_BUILD, nodes.max(1));
    device.charge_gpu("geometry/occupy", &calib::OCCUPY_POST, nodes.max(1));

    // Frame assembly: header, index, index CRC, payload blob.
    out.geometry.clear();
    out.geometry.push(BRICK_MAGIC);
    out.geometry.push(BRICK_VERSION);
    pcc_octree::write_grid_header(cloud, &mut out.geometry);
    out.geometry.push(brick_depth);
    write_varint(&mut out.geometry, bricks.entries.len() as u64);
    for entry in &bricks.entries {
        write_varint(&mut out.geometry, entry.cell);
        write_varint(&mut out.geometry, entry.geom_len);
        write_varint(&mut out.geometry, entry.attr_len);
        write_varint(&mut out.geometry, entry.leaves);
        out.geometry.extend_from_slice(&entry.crc.to_le_bytes());
    }
    let index_crc = crc32(&out.geometry);
    out.geometry.extend_from_slice(&index_crc.to_le_bytes());
    out.geometry.extend_from_slice(&bricks.geom_blob);
    device.charge_gpu("geometry/pack", &calib::STREAM_PACK, n);
    pcc_probe::add_bytes("intra/geometry", out.geometry.len() as u64);
    pcc_probe::add_bytes("intra/attribute", out.attribute.len() as u64);

    out.unique_voxels = leaf_codes.len();
    out.raw_points = n;
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

/// A selected brick the decode pass could not use.
#[derive(Debug)]
struct Failure {
    /// Position of the brick in the index.
    brick: usize,
    /// Where the brick's points belong among the survivors.
    at: usize,
    /// Why it failed; only a [`DecodeError::Crc`] is worth a NACK.
    error: DecodeError,
}

/// One pass over a brick frame: the index parsed once, every selected
/// brick CRC-gated and decoded once, the survivors concatenated in cell
/// order, and every failure recorded with the slot its points would
/// take.
///
/// Each decode mode finishes this pass. *Strict* is
/// [`into_cloud`](Self::into_cloud): no failure, and the attribute
/// stream is exactly the declared concatenation. *Repair* is
/// [`repair`](Self::repair): the CRC-damaged bricks are fetched again
/// and decoded into their slots. *Salvage* is [`salvage`](Self::salvage):
/// the survivors, whatever failed. A *viewport* decode is a pass that
/// selects fewer bricks.
#[derive(Debug)]
pub struct BrickDecode {
    index: BrickIndex,
    limits: Limits,
    coords: Vec<VoxelCoord>,
    colors: Vec<Rgb>,
    failures: Vec<Failure>,
    /// The attribute stream's declared extent and its actual length:
    /// they must agree, so no trailing bytes hide damage.
    attr_extent: (usize, usize),
    repaired: usize,
}

impl BrickDecode {
    /// Runs the pass over the bricks `select` accepts (given the entry
    /// and its world-space bounds), fanning out across `threads` by
    /// index ranges; the output is identical at any thread count.
    pub(crate) fn run(
        frame: &IntraFrame,
        limits: &Limits,
        threads: NonZeroUsize,
        select: &mut dyn FnMut(&BrickEntry, &Aabb) -> bool,
    ) -> Result<Self, DecodeError> {
        let index = BrickIndex::parse(&frame.geometry, limits)?;
        let declared = index.entries.last().map_or(0, |e| e.attr.end);
        let attr_extent = (declared, frame.attribute.len());
        let selected: Vec<usize> = index
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| select(e, &index.bounds(e)))
            .map(|(i, _)| i)
            .collect();
        let (coords, colors, failures) =
            decode_selected(frame, &index, &selected, limits, threads);
        Ok(BrickDecode {
            index,
            limits: *limits,
            coords,
            colors,
            failures,
            attr_extent,
            repaired: 0,
        })
    }

    /// Whether every selected brick decoded (or was repaired) and the
    /// attribute stream has its declared extent.
    pub fn is_whole(&self) -> bool {
        self.failures.is_empty() && self.attr_extent.0 == self.attr_extent.1
    }

    /// Bricks the frame's index declares.
    pub fn bricks_total(&self) -> usize {
        self.index.len()
    }

    /// Selected bricks missing from the output: failed their CRC or
    /// parse, and not repaired.
    pub fn bricks_dropped(&self) -> usize {
        self.failures.len()
    }

    /// Bricks [`repair`](Self::repair) decoded from fetched bytes.
    pub fn bricks_repaired(&self) -> usize {
        self.repaired
    }

    /// Mends the pass from retransmitted payloads. Every brick that
    /// failed its CRC is asked for in cell order: `fetch(cell)` returns
    /// the brick's original `geometry ++ attribute` bytes. The first
    /// answer that is missing or fails the index's length or CRC ends
    /// the repair. When every failure was a CRC failure, every answer
    /// checks out and decodes, and the attribute extent holds, the
    /// fetched bricks take their slots and the pass is whole. Otherwise
    /// the pass keeps exactly its on-arrival survivors and failures.
    pub fn repair(&mut self, fetch: &mut dyn FnMut(u64) -> Option<Vec<u8>>) {
        let mut coords = Vec::with_capacity(self.coords.len());
        let mut colors = Vec::with_capacity(self.colors.len());
        let mut whole = self.attr_extent.0 == self.attr_extent.1;
        let mut from = 0;
        for failure in &self.failures {
            if !matches!(failure.error, DecodeError::Crc { .. }) {
                whole = false;
                continue;
            }
            let Some(entry) = self.index.entries.get(failure.brick) else { return };
            let Some(bytes) = fetch(entry.cell)
                .filter(|b| b.len() == entry.payload_bytes() && crc32(b) == entry.crc)
            else {
                return;
            };
            if !whole {
                // Still NACKed, but a pass that cannot be whole decodes
                // nothing more.
                continue;
            }
            let Some(payload) = bytes.split_at_checked(entry.geom.len()) else { return };
            coords.extend_from_slice(self.coords.get(from..failure.at).unwrap_or_default());
            colors.extend_from_slice(self.colors.get(from..failure.at).unwrap_or_default());
            let decoded = decode_one(
                &self.index,
                entry,
                payload,
                &self.limits,
                &mut coords,
                &mut colors,
            );
            whole = decoded.is_ok();
            from = failure.at;
        }
        if !whole {
            return;
        }
        coords.extend_from_slice(self.coords.get(from..).unwrap_or_default());
        colors.extend_from_slice(self.colors.get(from..).unwrap_or_default());
        self.coords = coords;
        self.colors = colors;
        self.repaired = self.failures.len();
        self.failures.clear();
    }

    /// The strict finish: the decoded cloud when the pass is whole,
    /// otherwise the attribute extent error or the first failure in
    /// cell order.
    ///
    /// # Errors
    ///
    /// Returns the [`DecodeError`] that keeps the pass from being whole.
    pub fn into_cloud(mut self, device: &Device) -> Result<VoxelizedCloud, DecodeError> {
        let (declared, decoded) = self.attr_extent;
        if declared != decoded {
            return Err(DecodeError::Mismatch { what: "attribute payload bytes", declared, decoded });
        }
        if !self.failures.is_empty() {
            return Err(self.failures.swap_remove(0).error);
        }
        self.salvage(device)
    }

    /// The salvage finish: the surviving bricks concatenated in cell
    /// order — exactly the corresponding subset of a clean decode. Charges
    /// the decode stages once for the merged frame.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the survivors cannot form a cloud on
    /// the frame's grid (same mapping as the monolithic path).
    pub fn salvage(self, device: &Device) -> Result<VoxelizedCloud, DecodeError> {
        device.charge_gpu("geometry_decode", &calib::GEOM_DECODE, self.coords.len().max(1));
        device.charge_gpu("attribute_decode", &calib::ATTR_DECODE, self.colors.len().max(1));
        let index = &self.index;
        let origin = Point3::new(index.origin[0], index.origin[1], index.origin[2]);
        Ok(VoxelizedCloud::from_grid_with_frame(
            self.coords,
            self.colors,
            index.depth,
            origin,
            index.voxel_size,
        )?)
    }
}

/// Decodes the selected bricks, fanning out across threads by index
/// ranges (deterministic merge in cell order). A failing brick is
/// recorded with the survivor offset its points would take and skipped.
fn decode_selected(
    frame: &IntraFrame,
    index: &BrickIndex,
    selected: &[usize],
    limits: &Limits,
    threads: NonZeroUsize,
) -> (Vec<VoxelCoord>, Vec<Rgb>, Vec<Failure>) {
    let leaves = |picks: &[usize]| -> usize {
        picks.iter().filter_map(|&i| index.entries.get(i)).map(|e| e.leaf_count).sum()
    };
    let decode_range = |range: Range<usize>| {
        let picks = selected.get(range).unwrap_or_default();
        let mut coords = Vec::with_capacity(leaves(picks));
        let mut colors = Vec::with_capacity(coords.capacity());
        let mut failures = Vec::new();
        for &bi in picks {
            let Some(entry) = index.entries.get(bi) else { continue };
            let decoded = verified_payload(frame, entry)
                .ok_or(DecodeError::Crc { brick: bi })
                .and_then(|payload| {
                    decode_one(index, entry, payload, limits, &mut coords, &mut colors)
                });
            if let Err(error) = decoded {
                failures.push(Failure { brick: bi, at: coords.len(), error });
            }
        }
        (coords, colors, failures)
    };

    let total = leaves(selected);
    let fan = pcc_parallel::effective_threads(threads, total).min(selected.len().max(1));
    // The first range's output becomes the result and the later ranges
    // are appended to it in order, so a single range is returned as is.
    let mut merged: Option<(Vec<VoxelCoord>, Vec<Rgb>, Vec<Failure>)> = None;
    pcc_parallel::run(pcc_parallel::chunks(selected.len(), fan), decode_range, |(c, k, f)| {
        let Some((coords, colors, failures)) = &mut merged else {
            merged = Some((c, k, f));
            return;
        };
        let base = coords.len();
        coords.reserve(total.saturating_sub(base));
        colors.reserve(total.saturating_sub(base));
        failures.extend(f.into_iter().map(|f| Failure { at: base + f.at, ..f }));
        coords.extend_from_slice(&c);
        colors.extend_from_slice(&k);
    });
    merged.unwrap_or_default()
}

/// A brick's `(geometry, attribute)` payload when all of it is in the
/// frame and it passes its CRC. Bytes past the end of a stream cannot
/// pass it.
fn verified_payload<'f>(frame: &'f IntraFrame, entry: &BrickEntry) -> Option<(&'f [u8], &'f [u8])> {
    let geom = frame.geometry.get(entry.geom.clone())?;
    let attr = frame.attribute.get(entry.attr.clone())?;
    let mut crc = Crc32::new();
    crc.update(geom);
    crc.update(attr);
    (crc.finish() == entry.crc).then_some((geom, attr))
}

/// Decodes one CRC-verified brick payload and appends its points:
/// occupancy expansion at the sub-tree depth straight into `coords`, the
/// cell base ORed into those cell-relative leaves in place, then the
/// attribute layers. Appends nothing on error. Error offsets are positions in the frame's geometry and attribute
/// streams. Runs single-threaded — brick-level fan-out already
/// saturates the host.
fn decode_one(
    index: &BrickIndex,
    entry: &BrickEntry,
    (geom, attr): (&[u8], &[u8]),
    limits: &Limits,
    coords: &mut Vec<VoxelCoord>,
    colors: &mut Vec<Rgb>,
) -> Result<(), DecodeError> {
    let at = coords.len();
    let mut append = || {
        let mut g = Cursor::new(geom, entry.geom.start);
        let occupancy = pcc_octree::OccupancyHeader::read(&mut g)?;
        let sp = pcc_probe::span("geometry/decode");
        occupancy.expand(&mut g, limits, coords)?;
        sp.stop();
        let rel = coords.get_mut(at..).unwrap_or_default();
        if rel.len() != entry.leaf_count {
            return Err(DecodeError::Mismatch {
                what: "brick leaves",
                declared: entry.leaf_count,
                decoded: rel.len(),
            });
        }
        let sub = u32::from(index.sub_depth());
        // A forged (CRC-valid) payload could claim a deeper subtree than
        // the cut allows; keep every leaf inside its bounding cell.
        if rel.iter().any(|rc| (rc.x | rc.y | rc.z) >> sub != 0) {
            return Err(DecodeError::Corrupt {
                what: "leaf outside its bounding cell",
                offset: entry.geom.start,
            });
        }
        let cell = MortonCode::from_raw(entry.cell).to_coord();
        let (bx, by, bz) = (cell.x << sub, cell.y << sub, cell.z << sub);
        for c in rel.iter_mut() {
            *c = VoxelCoord::new(bx | c.x, by | c.y, bz | c.z);
        }
        let mut a = Cursor::new(attr, entry.attr.start);
        let brick_colors = attribute::decode_payload(&mut a, NonZeroUsize::MIN, limits)?;
        if brick_colors.len() != entry.leaf_count {
            return Err(DecodeError::Mismatch {
                what: "brick colors",
                declared: entry.leaf_count,
                decoded: brick_colors.len(),
            });
        }
        colors.extend_from_slice(&brick_colors);
        Ok(())
    };
    let decoded = append();
    if decoded.is_err() {
        coords.truncate(at);
    }
    decoded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IntraCodec;
    use pcc_edge::PowerMode;
    use pcc_types::PointCloud;

    fn device() -> Device {
        Device::jetson_agx_xavier(PowerMode::W15).with_host_threads(Some(NonZeroUsize::MIN))
    }

    fn cloud(n: usize) -> VoxelizedCloud {
        let pc: PointCloud = (0..n)
            .map(|i| {
                (
                    Point3::new((i % 61) as f32, ((i / 61) % 47) as f32, (i / 2867) as f32),
                    Rgb::new((i % 251) as u8, (i % 83) as u8, 200),
                )
            })
            .collect();
        VoxelizedCloud::from_cloud(&pc, 6)
    }

    fn brick_codec(brick_depth: u8) -> IntraCodec {
        IntraCodec::new(IntraConfig::default().with_bricks(brick_depth))
    }

    #[test]
    fn a_brick_failing_after_its_geometry_appends_nothing() {
        let d = device();
        let frame = brick_codec(2).encode(&cloud(3000), &d);
        let index = BrickIndex::parse(&frame.geometry, &Limits::default()).unwrap();
        let entry = &index.entries()[0];
        let geom = &frame.geometry[entry.geom.clone()];
        let attr = &frame.attribute[entry.attr.clone()];
        let kept = (vec![VoxelCoord::new(1, 2, 3)], vec![Rgb::WHITE]);
        let decode = |entry: &BrickEntry, payload| {
            let (mut coords, mut colors) = kept.clone();
            let limits = Limits::default();
            let result = decode_one(&index, entry, payload, &limits, &mut coords, &mut colors);
            (result, coords, colors)
        };
        let (ok, coords, _) = decode(entry, (geom, attr));
        assert!(ok.is_ok() && coords.len() == 1 + entry.leaf_count);
        // The geometry expands into the caller's vector, then the
        // attribute payload fails to parse.
        let (err, coords, colors) = decode(entry, (geom, &[0xff; 3]));
        assert!(err.is_err());
        assert_eq!((coords, colors), kept);
        // A deeper subtree expands to a leaf outside the brick's cell.
        let sub = index.sub_depth();
        let leaf = VoxelCoord::new(1 << sub, 0, 0);
        let deep = pcc_octree::ParallelOctree::from_coords(&[leaf], sub + 1).serialize();
        let forged = BrickEntry { leaf_count: 1, ..entry.clone() };
        let (err, coords, colors) = decode(&forged, (&deep, attr));
        let outside = DecodeError::Corrupt {
            what: "leaf outside its bounding cell",
            offset: entry.geom.start,
        };
        assert_eq!(err, Err(outside));
        assert_eq!((coords, colors), kept);
    }

    #[test]
    fn brick_frame_round_trips_and_matches_monolithic_decode() {
        // Lossless residuals: per-brick re-segmentation changes the
        // segment medians, so only the zero-quantization operating point
        // reconstructs bit-identical colors across layouts. Geometry is
        // layout-invariant at any quantization (checked below).
        let vox = cloud(2_000);
        let d = device();
        let mono = IntraCodec::new(IntraConfig::lossless());
        let brick = IntraCodec::new(IntraConfig::lossless().with_bricks(2));
        let mono_cloud = mono.decode(&mono.encode(&vox, &d), &d).unwrap();
        let frame = brick.encode(&vox, &d);
        assert!(BrickIndex::detect(&frame.geometry));
        let brick_cloud = brick.decode(&frame, &d).unwrap();
        // Same voxels, same colors, same order (both Morton-sorted).
        assert_eq!(brick_cloud, mono_cloud);
        // And a brick_depth: 0 receiver auto-detects the layout.
        assert_eq!(mono.decode(&frame, &d).unwrap(), mono_cloud);
        // At the paper's lossy quantization, geometry stays layout-invariant.
        let lossy_mono = IntraCodec::new(IntraConfig::default());
        let lossy_brick = brick_codec(2);
        let a = lossy_mono.decode(&lossy_mono.encode(&vox, &d), &d).unwrap();
        let b = lossy_brick.decode(&lossy_brick.encode(&vox, &d), &d).unwrap();
        assert_eq!(a.coords(), b.coords());
    }

    #[test]
    fn index_reports_every_brick_and_full_payload_extent() {
        let vox = cloud(2_000);
        let d = device();
        let codec = brick_codec(2);
        let frame = codec.encode(&vox, &d);
        let index = BrickIndex::parse(&frame.geometry, &Limits::default()).unwrap();
        assert!(index.len() > 1, "expected a multi-brick frame, got {}", index.len());
        assert_eq!(index.brick_depth, 2);
        let leaves: usize = index.entries().iter().map(|e| e.leaf_count).sum();
        assert_eq!(leaves, frame.unique_voxels);
        let attr_total: usize = index.entries().iter().map(|e| e.attr.len()).sum();
        assert_eq!(attr_total, frame.attribute.len());
        // Cells ascend and bounds lie inside the grid box.
        let grid = vox.grid_box();
        for pair in index.entries().windows(2) {
            assert!(pair[0].cell < pair[1].cell);
        }
        for e in index.entries() {
            let b = index.bounds(e);
            assert!(grid.intersects(&b), "brick box {b:?} outside grid {grid:?}");
        }
    }

    #[test]
    fn partial_decode_concatenation_equals_full_decode() {
        let vox = cloud(3_000);
        let d = device();
        let codec = brick_codec(2);
        let frame = codec.encode(&vox, &d);
        let full = codec.decode(&frame, &d).unwrap();
        let index = BrickIndex::parse(&frame.geometry, &Limits::default()).unwrap();

        let mut coords = Vec::new();
        let mut colors = Vec::new();
        for i in 0..index.len() {
            let one = codec
                .decode_bricks(&frame, &d, &Limits::default(), |e, _| {
                    index.entries().get(i).is_some_and(|want| want.cell == e.cell)
                })
                .unwrap()
                .into_cloud(&d)
                .unwrap();
            coords.extend_from_slice(one.coords());
            colors.extend_from_slice(one.colors());
        }
        assert_eq!(coords, full.coords());
        assert_eq!(colors, full.colors());
    }

    #[test]
    fn viewport_decode_returns_exactly_the_intersecting_bricks() {
        let vox = cloud(3_000);
        let d = device();
        let codec = brick_codec(2);
        let frame = codec.encode(&vox, &d);
        let full = codec.decode(&frame, &d).unwrap();
        let index = BrickIndex::parse(&frame.geometry, &Limits::default()).unwrap();
        let viewport = Aabb::new(Point3::ORIGIN, Point3::new(20.0, 20.0, 4.0));

        let partial = codec
            .decode_bricks(&frame, &d, &Limits::default(), |_, bounds| {
                bounds.intersects(&viewport)
            })
            .unwrap()
            .into_cloud(&d)
            .unwrap();
        assert!(!partial.is_empty() && partial.len() < full.len());

        // Expected subset: the full decode filtered by brick-cell membership.
        let sub = u32::from(index.sub_depth());
        let keep: std::collections::BTreeSet<u64> = index
            .entries()
            .iter()
            .filter(|e| index.bounds(e).intersects(&viewport))
            .map(|e| e.cell)
            .collect();
        let mut want_coords = Vec::new();
        let mut want_colors = Vec::new();
        for (c, k) in full.coords().iter().zip(full.colors()) {
            if keep.contains(&(pcc_morton::encode(*c).value() >> (3 * sub))) {
                want_coords.push(*c);
                want_colors.push(*k);
            }
        }
        assert_eq!(partial.coords(), want_coords.as_slice());
        assert_eq!(partial.colors(), want_colors.as_slice());
    }

    /// The full decode's points minus those of the bricks in `cells`.
    fn without_cells(full: &VoxelizedCloud, sub: u8, cells: &[u64]) -> Vec<(VoxelCoord, Rgb)> {
        let shift = 3 * u32::from(sub);
        points(full)
            .into_iter()
            .filter(|(c, _)| !cells.contains(&(pcc_morton::encode(*c).value() >> shift)))
            .collect()
    }

    fn points(cloud: &VoxelizedCloud) -> Vec<(VoxelCoord, Rgb)> {
        cloud.coords().iter().copied().zip(cloud.colors().iter().copied()).collect()
    }

    /// The original `geometry ++ attribute` bytes of `entry`.
    fn payload(frame: &IntraFrame, entry: &BrickEntry) -> Vec<u8> {
        let mut bytes = frame.geometry[entry.geom.clone()].to_vec();
        bytes.extend_from_slice(&frame.attribute[entry.attr.clone()]);
        bytes
    }

    #[test]
    fn salvage_drops_only_the_damaged_brick() {
        let vox = cloud(3_000);
        let d = device();
        let codec = brick_codec(2);
        let frame = codec.encode(&vox, &d);
        let index = BrickIndex::parse(&frame.geometry, &Limits::default()).unwrap();
        assert!(index.len() >= 3);
        let victim = index.entries()[1].clone();

        let mut damaged = frame.clone();
        damaged.geometry[victim.geom.start] ^= 0xFF;
        assert!(codec.decode(&damaged, &d).is_err(), "strict decode must reject damage");

        let pass = codec.decode_bricks(&damaged, &d, &Limits::default(), |_, _| true).unwrap();
        assert!(!pass.is_whole());
        assert_eq!(pass.bricks_dropped(), 1);
        assert_eq!(pass.bricks_total(), index.len());
        let salvage = pass.salvage(&d).unwrap();
        // Surviving bricks are bit-identical to the clean decode.
        let full = codec.decode(&frame, &d).unwrap();
        assert_eq!(points(&salvage), without_cells(&full, index.sub_depth(), &[victim.cell]));
    }

    #[test]
    fn repair_nacks_only_crc_damage_and_fills_the_slots_in_cell_order() {
        let vox = cloud(3_000);
        let d = device();
        let codec = brick_codec(2);
        let frame = codec.encode(&vox, &d);
        let full = codec.decode(&frame, &d).unwrap();
        let index = BrickIndex::parse(&frame.geometry, &Limits::default()).unwrap();
        assert!(index.len() >= 4);
        let (a, b) = (index.entries()[0].clone(), index.entries()[2].clone());
        let mut damaged = frame.clone();
        damaged.attribute[a.attr.start] ^= 0x10;
        damaged.geometry[b.geom.end - 1] ^= 0x01;

        let mut asked = Vec::new();
        let mut pass =
            codec.decode_bricks(&damaged, &d, &Limits::default(), |_, _| true).unwrap();
        assert_eq!(pass.bricks_dropped(), 2);
        pass.repair(&mut |cell| {
            asked.push(cell);
            index.entries().iter().find(|e| e.cell == cell).map(|e| payload(&frame, e))
        });
        assert_eq!(asked, [a.cell, b.cell], "one NACK per damaged brick, in cell order");
        assert!(pass.is_whole());
        assert_eq!((pass.bricks_repaired(), pass.bricks_dropped()), (2, 0));
        assert_eq!(pass.into_cloud(&d).unwrap(), full);
    }

    #[test]
    fn a_failed_repair_keeps_the_on_arrival_survivors() {
        let vox = cloud(3_000);
        let d = device();
        let codec = brick_codec(2);
        let frame = codec.encode(&vox, &d);
        let full = codec.decode(&frame, &d).unwrap();
        let index = BrickIndex::parse(&frame.geometry, &Limits::default()).unwrap();
        let (a, b) = (index.entries()[0].clone(), index.entries()[1].clone());
        let mut damaged = frame.clone();
        damaged.attribute[a.attr.start] ^= 0x10;
        damaged.attribute[b.attr.start] ^= 0x10;
        let want = without_cells(&full, index.sub_depth(), &[a.cell, b.cell]);

        // A missing answer ends the repair at the first NACK; a lying
        // one (right length, wrong bytes) too.
        let lie = |cell: u64| {
            let e = index.entries().iter().find(|e| e.cell == cell)?;
            let mut bytes = payload(&frame, e);
            bytes[0] ^= 1;
            Some(bytes)
        };
        let missing = |_| None;
        for mut fetch in [Box::new(missing) as Box<dyn FnMut(u64) -> Option<Vec<u8>>>, Box::new(lie)] {
            let mut asked = 0;
            let mut pass =
                codec.decode_bricks(&damaged, &d, &Limits::default(), |_, _| true).unwrap();
            pass.repair(&mut |cell| {
                asked += 1;
                fetch(cell)
            });
            assert_eq!(asked, 1);
            assert!(!pass.is_whole());
            assert_eq!((pass.bricks_repaired(), pass.bricks_dropped()), (0, 2));
            assert_eq!(points(&pass.salvage(&d).unwrap()), want);
        }
    }

    #[test]
    fn index_corruption_is_total_loss_even_for_salvage() {
        let vox = cloud(1_000);
        let d = device();
        let codec = brick_codec(2);
        let frame = codec.encode(&vox, &d);
        // Flip a byte inside the index region (before any payload).
        let mut damaged = frame.clone();
        damaged.geometry[21] ^= 0x10;
        assert!(matches!(
            codec.decode_bricks(&damaged, &d, &Limits::default(), |_, _| true).unwrap_err(),
            DecodeError::Corrupt { what: "cells not strictly ascending", .. }
        ));
        // A flipped brick CRC in the index parses, but fails the index
        // CRC: a Corrupt, not a repairable Crc, since no NACK mends it.
        let crc_at = BrickIndex::parse(&frame.geometry, &Limits::default()).unwrap().entries()[0]
            .geom
            .start
            - 4;
        let mut damaged = frame.clone();
        damaged.geometry[crc_at - 1] ^= 0x10;
        assert_eq!(
            codec.decode_bricks(&damaged, &d, &Limits::default(), |_, _| true).unwrap_err(),
            DecodeError::Corrupt { what: "index CRC", offset: crc_at }
        );
    }

    #[test]
    fn empty_cloud_encodes_zero_bricks() {
        let vox = VoxelizedCloud::from_cloud(&PointCloud::new(), 6);
        let d = device();
        let codec = brick_codec(3);
        let frame = codec.encode(&vox, &d);
        let index = BrickIndex::parse(&frame.geometry, &Limits::strict()).unwrap();
        assert!(index.is_empty());
        assert!(frame.attribute.is_empty());
        let dec = codec.decode(&frame, &d).unwrap();
        assert!(dec.is_empty());
        assert_eq!(dec.depth(), 6);
    }

    #[test]
    fn shallow_grids_fall_back_to_monolithic() {
        let pc: PointCloud =
            [(Point3::ORIGIN, Rgb::BLACK), (Point3::new(1.0, 1.0, 1.0), Rgb::gray(9))]
                .into_iter()
                .collect();
        let vox = VoxelizedCloud::from_cloud(&pc, 1);
        let d = device();
        let codec = brick_codec(4);
        let frame = codec.encode(&vox, &d);
        assert!(!BrickIndex::detect(&frame.geometry), "depth-1 grids cannot split");
        assert_eq!(codec.decode(&frame, &d).unwrap().len(), frame.unique_voxels);
    }

    #[test]
    fn oversized_brick_depth_clamps_to_depth_minus_one() {
        let vox = cloud(500);
        let d = device();
        let clamped = brick_codec(17).encode(&vox, &d);
        let explicit = brick_codec(5).encode(&vox, &d);
        assert_eq!(clamped.geometry, explicit.geometry);
        assert_eq!(clamped.attribute, explicit.attribute);
    }

    #[test]
    fn strict_limits_still_admit_real_brick_frames() {
        let vox = cloud(800);
        let d = device();
        let codec = brick_codec(2);
        let frame = codec.encode(&vox, &d);
        assert!(codec.decode_with_limits(&frame, &d, &Limits::strict()).is_ok());
    }
}
