//! Zero-allocation steady-state guarantee for the per-frame encode hot
//! path (the PR-6 perf tentpole).
//!
//! `pcc_bench`'s counting global allocator wraps the system allocator;
//! after a few warm-up frames through a session arena, encoding further
//! frames on the single-threaded path must perform **zero** heap
//! allocations (`alloc`, `alloc_zeroed`, and `realloc` all count) — for
//! the intra codec (monolithic and brick-partitioned) and the inter
//! codec, with probes off and on. The warm-up frames must count at least
//! one allocation (a fresh arena grows), so a test binary whose
//! allocator counts nothing cannot pass.
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

/// The modeled board at one host thread.
fn device() -> Device {
    Device::jetson_agx_xavier(PowerMode::W15).with_host_threads(Some(NonZeroUsize::MIN))
}

/// A deterministic synthetic frame; `phase` varies geometry and colors so
/// consecutive frames differ (stale-buffer reuse would corrupt output and
/// trip the byte-identity tests, and varying sizes exercise resize paths).
fn frame(phase: usize) -> VoxelizedCloud {
    let n = 3000 + (phase % 3) * 500;
    let cloud: PointCloud = (0..n)
        .map(|i| {
            let x = ((i + phase * 7) % 50) as f32;
            let y = ((i / 50) % 40) as f32;
            let z = (i / 2000) as f32;
            let c = ((i * 3 + phase * 11) % 256) as u8;
            (Point3::new(x, y, z), Rgb::new(c, 255 - c, 128))
        })
        .collect();
    VoxelizedCloud::from_cloud(&cloud, 6)
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

#[test]
fn encode_hot_path_is_allocation_free_after_warmup() {
    // Single-threaded — the configuration the zero-alloc guarantee
    // covers. The fan-out itself (`pcc_parallel::run`) stops allocating
    // once its worker pool has grown, but some kernels' multi-thread
    // paths still allocate per call (per-chunk scratch and bases).
    let intra_cfg = IntraConfig::paper();
    let d = device();

    // Pre-build every frame: voxelization allocates by design (it is
    // per-capture input conversion, not part of the encode hot path).
    let frames: Vec<VoxelizedCloud> =
        (0..WARMUP_FRAMES + MEASURED_FRAMES).map(frame).collect();

    // Reference colors for the inter legs: the decoded I-frame, exactly
    // what a session's decoder would hold.
    let intra = IntraCodec::new(intra_cfg);
    let reference: Vec<Rgb> = {
        let f = intra.encode(&frames[0], &d);
        d.reset();
        intra.decode(&f, &d).unwrap().colors().to_vec()
    };

    let inter_cfg = InterConfig { intra: intra_cfg, ..InterConfig::v1() };
    let inter = InterCodec::new(inter_cfg);
    // The brick layout the lossy-recovery workload encodes.
    let bricks = IntraCodec::new(intra_cfg.with_bricks(3));

    for probes in [false, true] {
        pcc_probe::set_enabled(probes);

        let mut arena = FrameArena::new();
        let mut out = IntraFrame::default();
        let intra_counts = count_allocs(&frames, &d, |vox| {
            intra.encode_into(vox, &d, &mut arena, &mut out);
        });
        let mut arena = FrameArena::new();
        let mut out = IntraFrame::default();
        let brick_counts = count_allocs(&frames, &d, |vox| {
            bricks.encode_into(vox, &d, &mut arena, &mut out);
        });
        let mut arena = InterArena::new();
        let mut out = InterEncoded::default();
        let inter_counts = count_allocs(&frames, &d, |vox| {
            inter.encode_into(vox, &reference, &d, &mut arena, &mut out);
        });

        for (leg, (warmup, measured)) in
            [("intra", intra_counts), ("brick", brick_counts), ("inter", inter_counts)]
        {
            // Positive control: a fresh arena must grow, so a warm-up
            // that counted nothing means the allocator is not counting.
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
    }
    pcc_probe::set_enabled(false);
}
