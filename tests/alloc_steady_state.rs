//! Zero-allocation steady-state guarantee for the per-frame encode hot
//! path (the PR-6 perf tentpole).
//!
//! `pcc_bench`'s counting global allocator wraps the system allocator;
//! after a few warm-up frames through a session arena, encoding further
//! frames must perform **zero** heap allocations (`alloc`,
//! `alloc_zeroed`, and `realloc` all count) — for the intra codec
//! (monolithic and brick-partitioned) and the inter codec, at one host
//! thread and at two on frames large enough that the inter kernels fan
//! out (per-chunk scratch lives in the arena), with probes off and on —
//! and for a session's real access pattern, I- and P-frames interleaved
//! through ONE arena on frames that shrink and grow, each I-frame
//! reconstructing the held reference its P-frames predict from.
//! The warm-up frames must count at least one allocation (a fresh arena
//! grows), so a test binary whose allocator counts nothing cannot pass.
//!
//! Everything lives in ONE `#[test]` function: the counter is global, so
//! a second test running on a sibling harness thread would pollute the
//! measurement window.

use std::num::NonZeroUsize;

use pcc_bench::alloc::{count as alloc_count, CountingAlloc};
use pcc_edge::{Device, PowerMode};
use pcc_inter::{InterArena, InterCodec, InterConfig, InterEncoded};
use pcc_intra::{FrameArena, IntraCodec, IntraConfig, IntraFrame};
use pcc_types::{Point3, PointCloud, Rgb, VoxelizedCloud};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WARMUP_FRAMES: usize = 8;
const MEASURED_FRAMES: usize = 4;

/// Points per frame of the one-thread legs.
const SMALL_POINTS: usize = 3000;
/// Points per frame of the two-thread legs: enough that every inter
/// kernel fans out (asserted below).
const FAN_POINTS: usize = 12_000;

/// The modeled board at `threads` host threads.
fn device(threads: usize) -> Device {
    Device::jetson_agx_xavier(PowerMode::W15).with_host_threads(NonZeroUsize::new(threads))
}

/// A deterministic synthetic frame of about `points` points; `phase`
/// varies geometry and colors so consecutive frames differ (stale-buffer
/// reuse would corrupt output and trip the byte-identity tests, and
/// varying sizes exercise resize paths).
fn frame(points: usize, phase: usize) -> VoxelizedCloud {
    let n = points + (phase % 3) * 500;
    let cloud: PointCloud = (0..n)
        .map(|i| {
            let x = ((i + phase * 7) % 50) as f32;
            let y = ((i / 50) % 40) as f32;
            let z = (i / 2000) as f32;
            let c = ((i * 3 + phase * 11) % 256) as u8;
            (Point3::new(x, y, z), Rgb::new(c, 255 - c, 128))
        })
        .collect();
    VoxelizedCloud::from_cloud(&cloud, 7)
}

/// Allocations counted while `encode` runs on each frame in order, as
/// `(warm-up frames, measured frames)`.
fn count_allocs(
    frames: &[VoxelizedCloud],
    d: &Device,
    mut encode: impl FnMut(&VoxelizedCloud),
) -> (u64, u64) {
    let (mut warmup, mut measured) = (0, 0);
    for (i, vox) in frames.iter().enumerate() {
        d.reset();
        let before = alloc_count();
        encode(vox);
        let allocs = alloc_count() - before;
        // Drain thread-local probe buffers without dropping their
        // capacity (take_report would mem::take them away).
        pcc_probe::discard_thread();
        if i < WARMUP_FRAMES {
            warmup += allocs;
        } else {
            measured += allocs;
        }
    }
    (warmup, measured)
}

/// Frames per group in the interleaved legs: I P P I P P …
const GOF: usize = 3;

/// Allocations counted while `frames` are encoded as I P P I P P …
/// through one session arena, as a session encoder runs them: each
/// I-frame by `intra`, reconstructing its colors into one held reference
/// buffer, and the P-frames by `inter` predicting from that reference.
fn count_session_allocs(
    frames: &[VoxelizedCloud],
    intra: &IntraCodec,
    inter: &InterCodec,
    d: &Device,
) -> (u64, u64) {
    let mut arena = InterArena::new();
    let (mut i_out, mut p_out) = (IntraFrame::default(), InterEncoded::default());
    let mut reference = Vec::new();
    let mut k = 0;
    count_allocs(frames, d, |vox| {
        if k % GOF == 0 {
            intra.encode_into(vox, d, arena.intra(), &mut i_out, Some(&mut reference));
        } else {
            inter.encode_into(vox, &reference, d, &mut arena, &mut p_out);
        }
        k += 1;
    })
}

/// The decoded I-frame of `vox`: the reference a session's decoder would
/// hold for the inter legs.
fn reference_of(intra: &IntraCodec, vox: &VoxelizedCloud, d: &Device) -> Vec<Rgb> {
    let f = intra.encode(vox, d);
    d.reset();
    intra.decode(&f, d).unwrap().colors().to_vec()
}

/// Asserts a leg's counts: the warm-up allocated, the steady state did not.
fn assert_steady(leg: &str, probes: bool, (warmup, measured): (u64, u64)) {
    // Positive control: a fresh arena must grow, so a warm-up that
    // counted nothing means the allocator is not counting.
    assert!(
        warmup > 0,
        "{leg} warm-up counted no allocation (probes={probes}): \
         CountingAlloc is not the global allocator"
    );
    assert_eq!(
        measured, 0,
        "{leg} encode allocated {measured} times across {MEASURED_FRAMES} \
         steady-state frames (probes={probes})"
    );
}

#[test]
fn encode_hot_path_is_allocation_free_after_warmup() {
    let intra_cfg = IntraConfig::paper();
    let (d1, d2) = (device(1), device(2));
    let two = NonZeroUsize::new(2).unwrap();

    // Pre-build every frame: voxelization allocates by design (it is
    // per-capture input conversion, not part of the encode hot path).
    let frames_of = |points| -> Vec<VoxelizedCloud> {
        (0..WARMUP_FRAMES + MEASURED_FRAMES).map(|phase| frame(points, phase)).collect()
    };
    let (small, large) = (frames_of(SMALL_POINTS), frames_of(FAN_POINTS));
    // The interleaved legs alternate large and small frames, so every
    // buffer shrinks and grows between frame kinds.
    let mixed: Vec<VoxelizedCloud> = (0..WARMUP_FRAMES + MEASURED_FRAMES)
        .map(|phase| frame(if phase % 2 == 0 { FAN_POINTS } else { SMALL_POINTS }, phase))
        .collect();

    let intra = IntraCodec::new(intra_cfg);
    let small_ref = reference_of(&intra, &small[0], &d1);
    let large_ref = reference_of(&intra, &large[0], &d1);
    let inter_cfg = InterConfig { intra: intra_cfg, ..InterConfig::v1() };
    let inter = InterCodec::new(inter_cfg);
    // The brick layout the lossy-recovery workload encodes.
    let bricks = IntraCodec::new(intra_cfg.with_bricks(3));

    // The two-thread legs must really fan out: the geometry and gather
    // kernels split the frame's points, the matcher its compared block
    // pairs, and the delta layer its values (every delta block holds at
    // least `m / blocks` of them). Frame 0 is the reference itself, so
    // its blocks are all reused.
    let mut out = InterEncoded::default();
    for vox in &large[1..] {
        inter.encode_into(vox, &large_ref, &d2, &mut InterArena::new(), &mut out);
        let m = out.frame.unique_voxels;
        assert!(pcc_parallel::effective_threads(two, m) > 1, "{m} voxels run on one thread");
        let blocks = inter_cfg.blocks_for(m);
        let pairs = blocks * inter_cfg.candidates.min(inter_cfg.blocks_for(large_ref.len()));
        assert!(pcc_parallel::effective_threads(two, pairs) > 1, "{pairs} pairs run on one thread");
        let delta_values = out.stats.delta * (m / blocks);
        assert!(
            pcc_parallel::effective_threads(two, delta_values) > 1,
            "{delta_values} delta values run on one thread"
        );
    }

    for probes in [false, true] {
        pcc_probe::set_enabled(probes);

        let mut arena = FrameArena::new();
        let mut out = IntraFrame::default();
        let intra_counts = count_allocs(&small, &d1, |vox| {
            intra.encode_into(vox, &d1, &mut arena, &mut out, None);
        });
        let mut arena = FrameArena::new();
        let mut out = IntraFrame::default();
        let brick_counts = count_allocs(&small, &d1, |vox| {
            bricks.encode_into(vox, &d1, &mut arena, &mut out, None);
        });
        let mut arena = InterArena::new();
        let mut out = InterEncoded::default();
        let inter_counts = count_allocs(&small, &d1, |vox| {
            inter.encode_into(vox, &small_ref, &d1, &mut arena, &mut out);
        });
        let mut arena = InterArena::new();
        let mut out = InterEncoded::default();
        let inter2_counts = count_allocs(&large, &d2, |vox| {
            inter.encode_into(vox, &large_ref, &d2, &mut arena, &mut out);
        });
        let mut arena = FrameArena::new();
        let mut out = IntraFrame::default();
        let intra2_counts = count_allocs(&large, &d2, |vox| {
            intra.encode_into(vox, &d2, &mut arena, &mut out, None);
        });
        let mut arena = FrameArena::new();
        let mut out = IntraFrame::default();
        let brick2_counts = count_allocs(&large, &d2, |vox| {
            bricks.encode_into(vox, &d2, &mut arena, &mut out, None);
        });

        let session_counts = count_session_allocs(&mixed, &intra, &inter, &d1);
        let brick_session_counts = count_session_allocs(&mixed, &bricks, &inter, &d1);
        let session2_counts = count_session_allocs(&mixed, &intra, &inter, &d2);
        let brick_session2_counts = count_session_allocs(&mixed, &bricks, &inter, &d2);

        assert_steady("intra", probes, intra_counts);
        assert_steady("brick", probes, brick_counts);
        assert_steady("inter", probes, inter_counts);
        assert_steady("inter at 2 threads", probes, inter2_counts);
        assert_steady("intra at 2 threads", probes, intra2_counts);
        assert_steady("brick at 2 threads", probes, brick2_counts);
        assert_steady("I/P session", probes, session_counts);
        assert_steady("brick I/P session", probes, brick_session_counts);
        assert_steady("I/P session at 2 threads", probes, session2_counts);
        assert_steady("brick I/P session at 2 threads", probes, brick_session2_counts);
    }
    pcc_probe::set_enabled(false);
}
