//! The paper's worked examples (Figs. 5, 6, 7) driven through the public
//! API: three points with coordinates [0,0,0], [−1,0,0], [3,3,3] and
//! scalar-ish attributes 50/52/54.

use pcc::edge::{Device, PowerMode};
use pcc::inter::{InterCodec, InterConfig};
use pcc::intra::{IntraCodec, IntraConfig};
use pcc::octree::{ParallelOctree, SequentialOctree};
use pcc::types::{Point3, PointCloud, Rgb, VoxelizedCloud};

fn device() -> Device {
    Device::jetson_agx_xavier(PowerMode::W15)
}

/// The Fig. 5 frame: P0=[0,0,0], P1=[−1,0,0], P2=[3,3,3].
fn fig5_cloud() -> PointCloud {
    [
        (Point3::new(0.0, 0.0, 0.0), Rgb::gray(50)),
        (Point3::new(-1.0, 0.0, 0.0), Rgb::gray(52)),
        (Point3::new(3.0, 3.0, 3.0), Rgb::gray(54)),
    ]
    .into_iter()
    .collect()
}

#[test]
fn fig5_bounding_box_is_4x3x3() {
    // "the final bounding box cuboid with side lengths 4x3x3
    //  (x-axis: 3-(-1)=4, y-axis: 3-0=3, and z-axis 3-0=3)"
    let bb = fig5_cloud().bounding_box().unwrap();
    assert_eq!(bb.extents(), Point3::new(4.0, 3.0, 3.0));
    // Cubified for the octree: a power-of-two cube of side 4.
    assert_eq!(bb.cubify_pow2().extents(), Point3::new(4.0, 4.0, 4.0));
}

#[test]
fn fig5_parallel_octree_arrays() {
    // On the paper's 8-wide grid (depth 3 after translation), the code
    // array ends with 63 for P2's level-2 cell and 511 for its leaf, and
    // parent[7] = 4 points at the node whose code is 63 — reproduced here
    // structurally: each leaf's parent code is its own code >> 3.
    let vox = VoxelizedCloud::from_cloud(&fig5_cloud(), 3);
    let tree = ParallelOctree::from_coords(vox.coords(), 3);
    assert_eq!(tree.leaf_count(), 3);
    for level in 1..=3u8 {
        let l = tree.level(level);
        let up = tree.level(level - 1);
        for (code, &p) in l.codes.iter().zip(&l.parent) {
            assert_eq!(up.codes[p as usize], code.parent());
        }
    }
    // P2 is the last leaf in Morton order; on the translated 8-grid its
    // voxel is (7,6,6) -> the paper's "511" corresponds to the
    // all-high-octant cell; structurally: strictly largest code.
    let leaves = tree.leaf_codes();
    assert!(leaves.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn fig5_sequential_and_parallel_agree() {
    // The two pipelines of Fig. 5 must describe the same occupied voxel
    // set (the parallel one is the paper's proposal).
    let vox = VoxelizedCloud::from_cloud(&fig5_cloud(), 3);
    let seq = SequentialOctree::from_coords(vox.coords(), 3);
    let par = ParallelOctree::from_coords(vox.coords(), 3);
    let mut par_occupancy = Vec::new();
    par.occupancy_into(device().host_threads(), &mut par_occupancy);
    assert_eq!(seq.occupancy(), par_occupancy);
    assert_eq!(seq.leaves(), par.leaves());
}

#[test]
fn fig5_quality_loss_is_bounded_by_a_voxel() {
    // "the P0 node now contains geometry information slightly different
    //  from the original" — voxel-precision loss only.
    let cloud = fig5_cloud();
    let vox = VoxelizedCloud::from_cloud(&cloud, 3);
    let codec = IntraCodec::new(IntraConfig::lossless());
    let d = device();
    let frame = codec.encode(&vox, &d);
    let dec = codec.decode(&frame, &d).unwrap().to_cloud();
    assert_eq!(dec.len(), 3);
    for (orig, _) in cloud.iter() {
        let nearest = dec
            .positions()
            .iter()
            .map(|p| p.distance(orig))
            .fold(f32::INFINITY, f32::min);
        assert!(nearest <= vox.voxel_size(), "error {nearest} > one voxel");
    }
}

#[test]
fn fig6_mid_plus_residual() {
    // "two vectors store the final data: Mid = 51, Delta = [0,0] for the
    //  first segment, and Mid = 54, Delta = [0] for the second" — the
    //  paper quantizes the ±1 residuals of segment one to zero. With the
    //  layer codec: medians 50-or-52 / 54 and residuals within one step.
    let threads = device().host_threads();
    // One segment (starts `[0]`) at quantization step 4.
    let mid_residual = |values: &[[i32; 3]]| {
        let (mut bases, mut residuals) = (Vec::new(), Vec::new());
        pcc::intra::encode_layer_with_starts_into(
            values, &[0], 4, threads, &mut bases, &mut residuals, &mut Vec::new(),
        );
        (bases, residuals)
    };
    let (bases, residuals) = mid_residual(&[[50; 3], [52; 3]]);
    assert_eq!(bases.len(), 1);
    let base = bases[0][0];
    assert!((50..=52).contains(&base), "base {base}");
    // Quantized residuals of a near-constant segment vanish.
    assert!(residuals.iter().all(|r| r[0] == 0));

    let (bases, residuals) = mid_residual(&[[54; 3]]);
    assert_eq!(bases[0], [54; 3]);
    assert_eq!(residuals, vec![[0; 3]]);
}

#[test]
fn fig7_inter_frame_reuse_and_delta() {
    // I-frame: P0=[0,0,0]/50, P1=[12,8,13]/52, P2=[19,26,58]/20.
    // P-frame: P0 identical, P1 moved one voxel with attr 51, P2 far off.
    let i_cloud: PointCloud = [
        (Point3::new(0.0, 0.0, 0.0), Rgb::gray(50)),
        (Point3::new(12.0, 8.0, 13.0), Rgb::gray(52)),
        (Point3::new(19.0, 26.0, 58.0), Rgb::gray(20)),
    ]
    .into_iter()
    .collect();
    let p_cloud: PointCloud = [
        (Point3::new(0.0, 0.0, 0.0), Rgb::gray(50)),
        (Point3::new(12.0, 8.0, 12.0), Rgb::gray(51)),
        (Point3::new(40.0, 55.0, 10.0), Rgb::gray(200)),
    ]
    .into_iter()
    .collect();
    let bb = pcc::types::Aabb::new(Point3::ORIGIN, Point3::new(64.0, 64.0, 64.0));
    let i_vox = VoxelizedCloud::from_cloud_in_box(&i_cloud, 6, &bb);
    let p_vox = VoxelizedCloud::from_cloud_in_box(&p_cloud, 6, &bb);

    let d = device();
    // Full-scale density chosen so this 3-voxel frame splits into the
    // paper's two segments (blocks_for keeps points-per-block constant).
    let cfg = InterConfig {
        blocks: 666_667,
        candidates: 4,
        reuse_threshold: 300,
        intra: IntraConfig::lossless(),
    };
    let codec = InterCodec::new(cfg);
    let intra = IntraCodec::new(cfg.intra);
    let dec_i = intra.decode(&intra.encode(&i_vox, &d), &d).unwrap();

    let enc = codec.encode(&p_vox, dec_i.colors(), &d);
    // The P0/P1 half of the frame reuses; the P2 half needs deltas.
    assert_eq!(enc.stats.reused + enc.stats.delta, 2, "two blocks in this tiny frame");
    assert!(enc.stats.reused >= 1, "the similar half must be reused");
    assert!(enc.stats.delta >= 1, "the dissimilar half must be delta-coded");

    // Decode and verify the reused points kept their I-frame colors and
    // the delta point reached its true value.
    let dec_p = codec.decode(&enc, dec_i.colors(), &d).unwrap();
    let dec_cloud = dec_p.to_cloud();
    let find = |target: Point3| -> Rgb {
        let (mut best, mut best_d) = (Rgb::BLACK, f32::INFINITY);
        for (p, c) in dec_cloud.iter() {
            let d2 = p.distance_squared(target);
            if d2 < best_d {
                best_d = d2;
                best = c;
            }
        }
        best
    };
    let c0 = find(Point3::new(0.0, 0.0, 0.0));
    assert!((c0.r as i32 - 50).abs() <= 2, "P0 color {c0}");
    let c2 = find(Point3::new(40.0, 55.0, 10.0));
    assert_eq!(c2, Rgb::gray(200), "P2 must be exactly delta-reconstructed");
}
