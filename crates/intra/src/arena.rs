//! Per-session scratch arenas for the per-frame encode hot path.
//!
//! Every buffer the intra encoder touches per frame lives here, owned by
//! the session-long encoder object. A session holds one [`FrameArena`]:
//! `FrameEncoder` in `pcc-core` keeps it inside the inter codec's arena,
//! and P-frames run their geometry, leaf pass and delta layer through
//! it too ([`crate::encode_geometry_into`],
//! [`crate::encode_delta_layer_into`]). The first few frames grow the
//! vectors to the working-set size; after that warm-up, encoding a frame
//! performs **zero heap allocations** — asserted by the counting-allocator
//! test in `tests/alloc_steady_state.rs` at the workspace root (one and
//! two host threads, I- and P-frames interleaved) and tracked in
//! `BENCH_hotpath.json`. Kernels that fan out keep their per-chunk
//! scratch here too, one slot per chunk (`pcc_parallel::slots`).
//!
//! Only [`FrameArena`] is public, and it exposes no fields: the layout is
//! an implementation detail of the encode pipeline, and callers interact
//! with it solely through [`crate::IntraCodec::encode_into`],
//! [`crate::encode_geometry_into`] and [`crate::encode_delta_layer_into`].

use pcc_morton::{MortonCode, SortScratch, SortedCodes};
use pcc_octree::ParallelOctree;
use pcc_types::Rgb;

/// Reusable buffers for the geometry pipeline
/// ([`crate::geometry::encode_in`]): Morton codegen, radix sort, the leaf
/// pass, octree rebuild, and occupancy extraction.
#[derive(Debug, Default)]
pub(crate) struct GeometryScratch {
    /// Radix-sort ping-pong and histogram buffers.
    pub(crate) sort: SortScratch,
    /// The frame's Morton codes, generated here and sorted in place with
    /// each point's packed color.
    pub(crate) sorted: SortedCodes,
    /// Sorted unique leaf codes (the octree's leaf level), from the leaf
    /// pass.
    pub(crate) leaf_codes: Vec<MortonCode>,
    /// Octree rebuilt in place each frame.
    pub(crate) tree: ParallelOctree,
    /// Per-node occupancy bytes before packing.
    pub(crate) occupancy: Vec<u8>,
}

/// Reusable buffers for the attribute pipeline
/// ([`crate::attribute::encode_in`]): the per-voxel colors, segmentation,
/// and the two-layer base/residual quantization; a P-frame's delta layer
/// reuses the layer buffers ([`crate::encode_delta_layer_into`]).
#[derive(Debug, Default)]
pub(crate) struct AttributeScratch {
    /// Per-voxel mean colors in Morton order, written by the leaf pass.
    pub(crate) voxel_colors: Vec<Rgb>,
    /// Colors widened to i32 triples in sorted-voxel order.
    pub(crate) values: Vec<[i32; 3]>,
    /// Segment start indices.
    pub(crate) starts: Vec<u32>,
    /// Layer-1 per-segment median bases.
    pub(crate) bases: Vec<[i32; 3]>,
    /// Layer-1 quantized residuals.
    pub(crate) residuals: Vec<[i32; 3]>,
    /// Layer-2 bases (two-layer mode re-encodes layer-1 residuals).
    pub(crate) bases2: Vec<[i32; 3]>,
    /// Layer-2 residuals.
    pub(crate) residuals2: Vec<[i32; 3]>,
    /// Channel scratch for the per-segment median reduction, one slot
    /// per chunk.
    pub(crate) median: Vec<Vec<i32>>,
    /// Serialized outer layer (two-layer mode length-prefixes it).
    pub(crate) outer_bytes: Vec<u8>,
}

/// Reusable buffers for the brick encoder
/// ([`crate::brick`]): per-frame brick boundaries, per-brick relative
/// codes and payload staging, and the index under assembly. Like every
/// other arena, the buffers grow to the working-set size and then stick,
/// so steady-state brick encoding allocates nothing new per frame.
#[derive(Debug, Default)]
pub(crate) struct BrickScratch {
    /// Brick boundaries into the sorted leaf codes (`bricks + 1` cuts).
    pub(crate) starts: Vec<u32>,
    /// One brick's leaf codes relative to its bounding cell.
    pub(crate) rel_codes: Vec<MortonCode>,
    /// One brick's serialized geometry payload.
    pub(crate) geom_buf: Vec<u8>,
    /// One brick's serialized attribute payload.
    pub(crate) attr_buf: Vec<u8>,
    /// Concatenated per-brick geometry payloads (appended to the frame
    /// stream after the index).
    pub(crate) geom_blob: Vec<u8>,
    /// Index entries under assembly (cell, lengths, leaf count, CRC).
    pub(crate) entries: Vec<crate::brick::EncodedEntry>,
}

/// All per-frame scratch for one encode session: the whole of every
/// I-frame's encode, and a P-frame's geometry, leaf pass and delta
/// layer.
///
/// Construct once per encoder, pass to
/// [`crate::IntraCodec::encode_into`] or [`crate::encode_geometry_into`]
/// every frame.
#[derive(Debug, Default)]
pub struct FrameArena {
    /// Geometry-pipeline buffers; after the leaf pass,
    /// `geom.leaf_codes` holds the frame's unique voxels in Morton order.
    pub(crate) geom: GeometryScratch,
    /// Attribute-pipeline buffers; after the leaf pass,
    /// `attr.voxel_colors` holds the frame's per-voxel colors in Morton
    /// order. Brick I-frames code each brick's layers in the same
    /// buffers.
    pub(crate) attr: AttributeScratch,
    /// Brick-pipeline buffers (used only when
    /// [`crate::IntraConfig::brick_depth`] is non-zero).
    pub(crate) brick: BrickScratch,
}

impl FrameArena {
    /// Creates an empty arena; buffers grow on first use and then stick.
    pub fn new() -> Self {
        Self::default()
    }
}
