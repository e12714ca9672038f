//! Proposed intra-frame geometry compression (paper Fig. 4c).

use pcc_edge::{calib, Device};
use pcc_morton::MortonCode;
use pcc_types::wire::Cursor;
use pcc_types::{DecodeError, Limits, VoxelCoord, VoxelizedCloud};
use std::num::NonZeroUsize;

use crate::arena::GeometryScratch;

/// The by-products of geometry encoding the attribute pipeline reuses
/// for free (the stream itself goes straight to the caller's buffer).
#[derive(Debug, Clone, Default)]
pub(crate) struct GeometryEncoded {
    /// Permutation sorting the input points into Morton order
    /// (`perm[rank] = input index`).
    pub perm: Vec<u32>,
    /// For each sorted point, the index of its (deduplicated) voxel in
    /// the unique-leaf array.
    pub point_to_voxel: Vec<u32>,
    /// Number of unique occupied voxels.
    pub unique_voxels: usize,
    /// Sorted unique leaf codes (the octree's leaf level).
    pub leaf_codes: Vec<MortonCode>,
}

/// Encodes the geometry of a voxelized cloud with the Morton-parallel
/// pipeline at `threads` host threads, charging each kernel to `device`.
/// Every parallel stage partitions work by index ranges, so the stream is
/// byte-identical at every thread count.
///
/// This writes into arena-owned buffers: `scratch` carries every
/// intermediate (codes, sort staging, octree levels, occupancy bytes)
/// across frames; `out` and `stream` are cleared and refilled. After the
/// buffers warm to the working-set size, the path performs no heap
/// allocation (asserted by `tests/alloc_steady_state.rs`).
pub(crate) fn encode_in(
    cloud: &VoxelizedCloud,
    device: &Device,
    threads: NonZeroUsize,
    scratch: &mut GeometryScratch,
    out: &mut GeometryEncoded,
    stream: &mut Vec<u8>,
) {
    let n = cloud.len();

    morton_products_in(cloud, device, threads, scratch, out);

    // 4. Parallel octree construction over the sorted unique codes,
    //    rebuilt in place into the arena's level arrays.
    scratch.tree.rebuild_from_sorted_codes(&out.leaf_codes, cloud.depth(), threads);
    device.charge_gpu("geometry/octree", &calib::OCTREE_BUILD, scratch.tree.node_count().max(1));

    // 5. Occupancy-byte post-processing (Algorithm 1).
    scratch.tree.occupancy_into(threads, &mut scratch.occupancy);
    device.charge_gpu("geometry/occupy", &calib::OCCUPY_POST, scratch.tree.node_count().max(1));

    // 6. Stream packing (+ grid metadata so the decoder can restore world
    //    coordinates).
    // One reservation covers the grid header (17 bytes), the occupancy
    // header (at most 12) and the bytes, so a fresh caller buffer is
    // allocated once.
    stream.clear();
    stream.reserve(32 + scratch.occupancy.len());
    pcc_octree::write_grid_header(cloud, stream);
    pcc_octree::serialize_occupancy_into(
        cloud.depth(),
        scratch.tree.leaf_count(),
        &scratch.occupancy,
        stream,
    );
    device.charge_gpu("geometry/pack", &calib::STREAM_PACK, n);
    pcc_probe::add_bytes("intra/geometry", stream.len() as u64);
}

/// Steps 1–3 of the geometry pipeline — Morton codegen, radix sort, and
/// run compaction to unique leaves — shared verbatim by the monolithic
/// and brick encoders, so both produce the same sorted leaf codes,
/// permutation, and point→voxel map from the same input. Fills
/// `out.leaf_codes` / `out.perm` / `out.point_to_voxel` /
/// `out.unique_voxels`.
pub(crate) fn morton_products_in(
    cloud: &VoxelizedCloud,
    device: &Device,
    threads: NonZeroUsize,
    scratch: &mut GeometryScratch,
    out: &mut GeometryEncoded,
) {
    let n = cloud.len();

    // 1. Morton code generation — one independent item per point, run as
    //    a data-parallel kernel launch (chunked across host threads, each
    //    chunk through the spread-table kernel).
    pcc_morton::codes_of_into(cloud, threads, &mut scratch.codes);
    device.charge_gpu("geometry/morton", &calib::MORTON_GEN, n.max(1));

    // 2. Radix sort of the codes (parallel LSD passes, stable merge),
    //    reusing the arena's key/payload/count staging.
    pcc_morton::sort_codes_into(&scratch.codes, threads, &mut scratch.sort, &mut scratch.sorted);
    device.charge_gpu("geometry/sort", &calib::RADIX_SORT, n);

    // 3. Deduplicate to unique leaves, remembering each point's voxel —
    //    a run compaction over the sorted codes, chunk-parallel with
    //    run-aligned boundaries.
    pcc_parallel::compact_runs_into(
        &scratch.sorted.codes,
        |&c| c,
        threads,
        &mut out.leaf_codes,
        &mut out.point_to_voxel,
        &mut scratch.run_bases,
    );
    // The permutation moves to the output wholesale; the sort rebuilds
    // scratch.sorted.perm from scratch next frame, so handing back last
    // frame's buffer keeps both sides allocation-free.
    std::mem::swap(&mut out.perm, &mut scratch.sorted.perm);
    out.unique_voxels = out.leaf_codes.len();
}

/// The decoded geometry: unique voxels in Morton order plus the grid
/// metadata to interpret them.
#[derive(Debug, Clone, PartialEq)]
pub struct GeometryDecoded {
    /// Unique voxel coordinates, Morton-ordered.
    pub coords: Vec<VoxelCoord>,
    /// Grid depth.
    pub depth: u8,
    /// World-space origin of the grid.
    pub origin: [f32; 3],
    /// World-space voxel side length.
    pub voxel_size: f32,
}

/// Decodes a monolithic geometry stream (an I- or P-frame's
/// [`IntraFrame::geometry`](crate::IntraFrame::geometry)) under explicit
/// resource [`Limits`]: the occupancy expansion is bounded by
/// `max_depth`/`max_points`.
///
/// # Errors
///
/// Returns a [`DecodeError`] with its offset in `stream` on malformed
/// input or when a limit is hit.
pub fn decode_with(
    stream: &[u8],
    device: &Device,
    limits: &Limits,
) -> Result<GeometryDecoded, DecodeError> {
    let mut c = Cursor::new(stream, 0);
    let header = pcc_octree::read_grid_header(&mut c)?;
    let occupancy = pcc_octree::OccupancyHeader::read(&mut c)?;
    let mut coords = Vec::new();
    let sp = pcc_probe::span("geometry/decode");
    occupancy.expand(&mut c, limits, &mut coords)?;
    sp.stop();
    device.charge_gpu("geometry_decode", &calib::GEOM_DECODE, coords.len().max(1));
    Ok(GeometryDecoded {
        coords,
        depth: header.depth,
        origin: header.origin,
        voxel_size: header.voxel_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_edge::PowerMode;
    use pcc_types::{Point3, PointCloud, Rgb};
    use proptest::prelude::*;

    fn device() -> Device {
        Device::jetson_agx_xavier(PowerMode::W15)
    }

    /// One encode through a fresh arena at the device's thread count:
    /// the by-products and the stream.
    fn encoded(vox: &VoxelizedCloud, d: &Device) -> (GeometryEncoded, Vec<u8>) {
        let (mut out, mut stream) = (GeometryEncoded::default(), Vec::new());
        encode_in(vox, d, d.host_threads(), &mut GeometryScratch::default(), &mut out, &mut stream);
        (out, stream)
    }

    fn vox_from(coords: &[(f32, f32, f32)], depth: u8) -> VoxelizedCloud {
        let cloud: PointCloud = coords
            .iter()
            .map(|&(x, y, z)| (Point3::new(x, y, z), Rgb::gray(128)))
            .collect();
        VoxelizedCloud::from_cloud(&cloud, depth)
    }

    #[test]
    fn round_trip_preserves_voxels() {
        let vox = vox_from(&[(0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (7.0, 7.0, 7.0)], 5);
        let d = device();
        let (enc, stream) = encoded(&vox, &d);
        let dec = decode_with(&stream, &d, &Limits::default()).unwrap();
        assert_eq!(dec.coords.len(), enc.unique_voxels);
        assert_eq!(dec.depth, 5);
        // Decoded voxels are the sorted unique leaf codes.
        let expect: Vec<VoxelCoord> = enc.leaf_codes.iter().map(|c| c.to_coord()).collect();
        assert_eq!(dec.coords, expect);
    }

    #[test]
    fn perm_and_point_to_voxel_are_consistent() {
        let vox = vox_from(&[(3.0, 3.0, 3.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)], 4);
        let d = device();
        let (enc, _) = encoded(&vox, &d);
        assert_eq!(enc.perm.len(), 3);
        assert_eq!(enc.point_to_voxel.len(), 3);
        assert_eq!(enc.unique_voxels, 2);
        // The two duplicate points map to the same voxel index.
        let sorted_coords: Vec<VoxelCoord> =
            enc.perm.iter().map(|&i| vox.coords()[i as usize]).collect();
        for (rank, &v) in enc.point_to_voxel.iter().enumerate() {
            assert_eq!(
                pcc_morton::encode(sorted_coords[rank]),
                enc.leaf_codes[v as usize]
            );
        }
    }

    #[test]
    fn device_timeline_has_all_stages() {
        let vox = vox_from(&[(1.0, 1.0, 1.0)], 4);
        let d = device();
        encoded(&vox, &d);
        let t = d.timeline();
        for stage in ["geometry/morton", "geometry/sort", "geometry/octree", "geometry/occupy", "geometry/pack"]
        {
            assert!(t.stage_ms(stage).as_f64() > 0.0, "missing {stage}");
        }
    }

    #[test]
    fn sub_four_byte_streams_are_truncation_errors() {
        // A 0–3 byte stream must be a clean truncation error, never a
        // panic: the depth byte, or else the first origin `f32`, is cut.
        let d = device();
        let short = [0x11u8, 0x22, 0x33];
        for cut in 0..=short.len() {
            assert_eq!(
                decode_with(&short[..cut], &d, &Limits::default()).unwrap_err(),
                DecodeError::Truncated { offset: cut.min(1) },
                "len {cut}"
            );
        }
    }

    #[test]
    fn truncated_stream_errors() {
        let vox = vox_from(&[(1.0, 1.0, 1.0), (2.0, 2.0, 2.0)], 4);
        let d = device();
        let (_, stream) = encoded(&vox, &d);
        for cut in 0..stream.len() {
            match decode_with(&stream[..cut], &d, &Limits::default()) {
                Err(DecodeError::Truncated { offset }) => assert!(offset <= cut, "cut {cut}"),
                other => panic!("cut {cut}: {other:?}"),
            }
        }
    }

    proptest! {
        #[test]
        fn geometry_is_lossless_at_voxel_precision(
            pts in prop::collection::vec((0u32..64, 0u32..64, 0u32..64), 1..150)
        ) {
            let coords: Vec<VoxelCoord> =
                pts.iter().map(|&(x, y, z)| VoxelCoord::new(x, y, z)).collect();
            let colors = vec![Rgb::BLACK; coords.len()];
            let vox = VoxelizedCloud::from_grid(coords.clone(), colors, 6).unwrap();
            let d = device();
            let (_, stream) = encoded(&vox, &d);
            let dec = decode_with(&stream, &d, &Limits::default()).unwrap();
            let mut expect: Vec<u64> =
                coords.iter().map(|&c| pcc_morton::encode(c).value()).collect();
            expect.sort_unstable();
            expect.dedup();
            let got: Vec<u64> =
                dec.coords.iter().map(|&c| pcc_morton::encode(c).value()).collect();
            prop_assert_eq!(got, expect);
        }
    }
}
