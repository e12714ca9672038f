//! Proposed intra-frame geometry compression (paper Fig. 4c).

use pcc_edge::{calib, Device};
use pcc_types::wire::Cursor;
use pcc_types::{DecodeError, Limits, Rgb, VoxelCoord, VoxelizedCloud};
use std::num::NonZeroUsize;

use crate::arena::GeometryScratch;

/// Encodes the geometry of a voxelized cloud with the Morton-parallel
/// pipeline, fanning codegen and occupancy out over `threads` host
/// threads and charging each kernel to `device`. The fanned-out stages
/// partition work by index ranges and the rest run on one thread, so the
/// stream is byte-identical at every thread count. The leaf pass
/// ([`morton_products_in`]) also leaves the per-voxel colors in
/// `voxel_colors`.
///
/// This writes into arena-owned buffers: `scratch` carries every
/// intermediate (codes and colors, sort buffers, leaf codes, octree
/// levels, occupancy bytes) across frames; `voxel_colors` and `stream`
/// are cleared and refilled. After the buffers warm to the working-set
/// size, the path performs no heap allocation (asserted by
/// `tests/alloc_steady_state.rs`).
pub(crate) fn encode_in(
    cloud: &VoxelizedCloud,
    device: &Device,
    threads: NonZeroUsize,
    scratch: &mut GeometryScratch,
    voxel_colors: &mut Vec<Rgb>,
    stream: &mut Vec<u8>,
) {
    let n = cloud.len();

    morton_products_in(cloud, device, threads, scratch, voxel_colors);

    // 4. Octree construction over the sorted unique codes, rebuilt in
    //    place into the arena's level arrays.
    scratch.tree.rebuild_from_sorted_codes(&scratch.leaf_codes, cloud.depth());
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

/// Steps 1–3 of the geometry pipeline — Morton codegen, radix sort with
/// each point's packed color as the payload, and the leaf pass — shared
/// verbatim by the monolithic and brick encoders, so both produce the
/// same leaves from the same input. Fills `scratch.leaf_codes` with the
/// sorted unique leaf codes and `voxel_colors` with each leaf's mean
/// color (channel sums rounded half up over the points sharing it).
pub(crate) fn morton_products_in(
    cloud: &VoxelizedCloud,
    device: &Device,
    threads: NonZeroUsize,
    scratch: &mut GeometryScratch,
    voxel_colors: &mut Vec<Rgb>,
) {
    let n = cloud.len();

    // 1. Morton code generation — one independent item per point, run as
    //    a data-parallel kernel launch straight into the sort's key
    //    buffer.
    pcc_morton::codes_of_into(cloud, threads, &mut scratch.sorted.codes);
    device.charge_gpu("geometry/morton", &calib::MORTON_GEN, n.max(1));

    // 2. Radix sort of the codes in place (one-thread LSD passes), each
    //    carrying its point's packed color.
    let colors = cloud.colors().iter().map(|c| c.pack());
    pcc_morton::sort_codes_into(&mut scratch.sorted, colors, &mut scratch.sort);
    device.charge_gpu("geometry/sort", &calib::RADIX_SORT, n);

    // 3. The leaf pass: one run pass over the sorted (code, color) pairs
    //    writes each unique leaf and its voxel's mean color. The caller
    //    charges it as the attribute gather.
    let _sp = pcc_probe::span("intra/gather");
    let (sorted, leaf_codes) = (&scratch.sorted, &mut scratch.leaf_codes);
    pcc_morton::leaves_into(sorted, rounded_mean, leaf_codes, voxel_colors);
}

/// Leaves of fewer points than this divide by a reciprocal multiply. The
/// workload frames' leaves hold at most 8 points (Longdress 100k: 44,553
/// of 67,818 leaves single points, one of 8), so the table covers them
/// all; the three divisions per leaf it saves are about 0.3 ms of the
/// 100k-point frame's leaf pass.
const RECIPROCAL_COUNTS: usize = 64;

/// `RECIPROCALS[k] = ceil(2^32 / k)`. For `k < 64` and `x < 256 * k`,
/// `(x * RECIPROCALS[k]) >> 32` is exactly `x / k`: the multiplier exceeds
/// `2^32 / k` by under 1, so the quotient exceeds `x / k` by under
/// `x / 2^32`, which is below `1 / k` and cannot reach the next integer.
#[allow(clippy::indexing_slicing)] // `k` stays below the table's length
const RECIPROCALS: [u64; RECIPROCAL_COUNTS] = {
    let mut table = [0; RECIPROCAL_COUNTS];
    let mut k = 1;
    while k < RECIPROCAL_COUNTS {
        table[k] = (1u64 << 32).div_ceil(k as u64);
        k += 1;
    }
    table
};

/// A voxel's mean color from its `count` points' channel sums, each
/// rounded half up: `(sum + count / 2) / count`, by a reciprocal multiply
/// for the small counts most voxels have.
fn rounded_mean(sums: [u32; 3], count: u32) -> Rgb {
    let half = count / 2;
    let avg = |sum: u32| match RECIPROCALS.get(count as usize) {
        Some(&m) => ((u64::from(sum + half) * m) >> 32) as u8,
        None => ((sum + half) / count) as u8,
    };
    Rgb::new(avg(sums[0]), avg(sums[1]), avg(sums[2]))
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
    use pcc_morton::MortonCode;
    use pcc_types::{Point3, PointCloud};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn device() -> Device {
        Device::jetson_agx_xavier(PowerMode::W15)
    }

    /// One encode through a fresh arena at the device's thread count:
    /// the scratch (holding the leaf codes) and the stream.
    fn encoded(vox: &VoxelizedCloud, d: &Device) -> (GeometryScratch, Vec<u8>) {
        let (mut scratch, mut stream) = (GeometryScratch::default(), Vec::new());
        encode_in(vox, d, d.host_threads(), &mut scratch, &mut Vec::new(), &mut stream);
        (scratch, stream)
    }

    /// The leaf pass's oracle: an index sort by Morton code, the colors
    /// gathered through that permutation, and each voxel's mean rounded
    /// half up.
    fn reference_leaves(vox: &VoxelizedCloud) -> (Vec<MortonCode>, Vec<Rgb>) {
        let codes: Vec<MortonCode> = vox.coords().iter().map(|&c| pcc_morton::encode(c)).collect();
        let mut perm: Vec<usize> = (0..codes.len()).collect();
        perm.sort_by_key(|&i| codes[i]);
        let (mut leaves, mut sums) = (Vec::new(), Vec::<([u32; 3], u32)>::new());
        for &i in &perm {
            if leaves.last() != Some(&codes[i]) {
                leaves.push(codes[i]);
                sums.push(([0; 3], 0));
            }
            let (s, k) = sums.last_mut().unwrap();
            for (sum, v) in s.iter_mut().zip(vox.colors()[i].to_array()) {
                *sum += u32::from(v);
            }
            *k += 1;
        }
        let mean = |(s, k): &([u32; 3], u32)| s.map(|v| ((v + k / 2) / k) as u8);
        let colors = sums.iter().map(mean).map(|[r, g, b]| Rgb::new(r, g, b)).collect();
        (leaves, colors)
    }

    /// `n` random points on a `side`³ grid with random colors, `hot`
    /// percent of them piled into one voxel.
    fn crowded_cloud(seed: u64, n: usize, side: u32, hot: u32) -> VoxelizedCloud {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut coords, mut colors) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n {
            coords.push(if rng.random_range(0..100u32) < hot {
                VoxelCoord::new(side / 2, side / 2, side / 2)
            } else {
                VoxelCoord::new(
                    rng.random_range(0..side),
                    rng.random_range(0..side),
                    rng.random_range(0..side),
                )
            });
            colors.push(Rgb::new(rng.random(), rng.random(), rng.random()));
        }
        VoxelizedCloud::from_grid(coords, colors, 6).unwrap()
    }

    fn vox_from(coords: &[(f32, f32, f32)], depth: u8) -> VoxelizedCloud {
        let cloud: PointCloud = coords
            .iter()
            .map(|&(x, y, z)| (Point3::new(x, y, z), Rgb::gray(128)))
            .collect();
        VoxelizedCloud::from_cloud(&cloud, depth)
    }

    #[test]
    fn rounded_mean_divides_exactly_for_every_sum() {
        // Every channel sum of up to 255 per point, for every count the
        // reciprocal table covers and a few past it.
        for count in 1..RECIPROCAL_COUNTS as u32 + 8 {
            for sum in 0..=255 * count {
                let want = ((sum + count / 2) / count) as u8;
                let got = rounded_mean([sum, 255 * count - sum, sum / 2], count);
                let other = ((255 * count - sum + count / 2) / count) as u8;
                let half = ((sum / 2 + count / 2) / count) as u8;
                assert_eq!(got, Rgb::new(want, other, half), "sum {sum} count {count}");
            }
        }
    }

    #[test]
    fn round_trip_preserves_voxels() {
        let vox = vox_from(&[(0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (7.0, 7.0, 7.0)], 5);
        let d = device();
        let (enc, stream) = encoded(&vox, &d);
        let dec = decode_with(&stream, &d, &Limits::default()).unwrap();
        assert_eq!(dec.coords.len(), 3);
        assert_eq!(dec.depth, 5);
        // Decoded voxels are the sorted unique leaf codes.
        let expect: Vec<VoxelCoord> = enc.leaf_codes.iter().map(|c| c.to_coord()).collect();
        assert_eq!(dec.coords, expect);
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
        #![proptest_config(ProptestConfig { cases: 16 })]

        /// The leaf pass (codegen, the sort carrying packed colors, the
        /// run reduce) equals the index sort plus gather plus rounded mean
        /// on clouds averaging at least 4 points per voxel, at 1, 2 and 3
        /// threads, through buffers dirtied by a larger cloud.
        #[test]
        fn leaf_pass_matches_index_sort_gather_and_mean(
            seed in any::<u64>(),
            extra in 0usize..8_000,
            side_bits in 3u32..5,
            hot in 0u32..40,
        ) {
            let n = 4 * 4_096 + extra;
            let vox = crowded_cloud(seed, n, 1 << side_bits, hot);
            let dirty = crowded_cloud(seed ^ 1, n + 6_000, 32, 10);
            let (want_codes, want_colors) = reference_leaves(&vox);
            prop_assert!(n >= 4 * want_codes.len());
            let d = device();
            for t in [1usize, 2, 3] {
                let threads = NonZeroUsize::new(t).unwrap();
                let (mut scratch, mut colors) = (GeometryScratch::default(), Vec::new());
                morton_products_in(&dirty, &d, threads, &mut scratch, &mut colors);
                morton_products_in(&vox, &d, threads, &mut scratch, &mut colors);
                prop_assert_eq!(&scratch.leaf_codes, &want_codes, "threads={}", t);
                prop_assert_eq!(&colors, &want_colors, "threads={}", t);
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
