//! Thread-count determinism: the parallel execution layer must produce
//! byte-identical bitstreams at every host thread count, for both the
//! intra and inter codecs. This is the contract that lets the `Device`
//! thread knob (and `PCC_THREADS`) be a pure performance control — and the
//! same contract holds for `pcc-probe`: recording spans must never
//! perturb a single output byte.

use pcc::core::{container, Design, PccCodec};
use pcc::datasets::catalog;
use pcc::edge::{Device, PowerMode};
use pcc::inter::{InterCodec, InterConfig};
use pcc::intra::{BrickIndex, IntraCodec, IntraConfig};
use pcc::types::{Video, VoxelizedCloud};
use proptest::prelude::*;
use std::num::NonZeroUsize;

/// The modeled board running its host kernels at `threads` threads.
fn device(threads: usize) -> Device {
    Device::jetson_agx_xavier(PowerMode::W15).with_host_threads(NonZeroUsize::new(threads))
}

fn video(frames: usize, points: usize) -> Video {
    catalog::by_name("Longdress").expect("Table-I video").generate_scaled(frames, points)
}

/// 1, 2, 3, 7 and the machine's available parallelism (deduplicated).
/// 3 and 7 split the work into uneven chunks and drop run-aligned chunks
/// that come out empty, whatever the host's core count; oversubscribing
/// a small host does not matter for byte identity.
fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1, 2, 3, 7, max];
    counts.sort_unstable();
    counts.dedup();
    counts
}

#[test]
fn intra_bitstream_identical_across_thread_counts() {
    let v = video(1, 20_000);
    let vox = VoxelizedCloud::from_cloud(&v.frame(0).unwrap().cloud, 8);
    let encode_at = |t: usize| {
        let frame = IntraCodec::default().encode(&vox, &device(t));
        (frame.geometry, frame.attribute)
    };
    let baseline = encode_at(1);
    for t in thread_counts() {
        assert_eq!(encode_at(t), baseline, "intra stream differs at {t} threads");
    }
}

#[test]
fn inter_bitstream_identical_across_thread_counts() {
    let v = video(2, 20_000);
    let i_vox = VoxelizedCloud::from_cloud(&v.frame(0).unwrap().cloud, 8);
    let p_vox = VoxelizedCloud::from_cloud(&v.frame(1).unwrap().cloud, 8);
    let d = device(1);

    // Reference colors must themselves be thread-independent; derive them
    // once at one thread so any divergence below is the inter codec's.
    let intra = IntraCodec::new(IntraConfig::default());
    let reference = intra
        .decode(&intra.encode(&i_vox, &d), &d)
        .expect("reference decodes")
        .colors()
        .to_vec();

    let mut baseline: Option<(Vec<u8>, Vec<u8>)> = None;
    for t in thread_counts() {
        let enc = InterCodec::new(InterConfig::v2()).encode(&p_vox, &reference, &device(t));
        let streams = (enc.frame.geometry.clone(), enc.frame.attribute.clone());
        match &baseline {
            None => baseline = Some(streams),
            Some(expect) => {
                assert_eq!(&streams, expect, "inter stream differs at {t} threads");
            }
        }
    }
}

#[test]
fn probes_never_perturb_bitstreams() {
    // Encode the full pipeline (morton → octree → intra → inter →
    // container) with probe recording off and on, at 1 thread and at the
    // machine's maximum, and require byte-identical wires throughout.
    // This is what makes `PCC_PROBE=1` safe to leave on in production.
    let v = video(2, 8_000);
    let codec = PccCodec::new(Design::IntraInterV1);
    let was_enabled = pcc::probe::enabled();

    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    for threads in [1, max] {
        let dev = device(threads);
        let encode = |probes: bool| {
            pcc::probe::set_enabled(probes);
            container::mux(&codec.encode_video(&v, 7, &dev))
        };
        let off = encode(false);
        let on = encode(true);
        assert_eq!(
            on, off,
            "bitstream differs probes-on vs probes-off at {threads} threads"
        );
    }

    pcc::probe::set_enabled(was_enabled);
    let _ = pcc::probe::take_report(); // drop the spans this test recorded
}

/// One brick-partitioned frame plus its full decode, built once: the
/// brick determinism properties below all interrogate the same bytes.
fn brick_fixture() -> &'static (pcc::intra::IntraFrame, VoxelizedCloud) {
    use std::sync::OnceLock;
    static FIX: OnceLock<(pcc::intra::IntraFrame, VoxelizedCloud)> = OnceLock::new();
    FIX.get_or_init(|| {
        let v = video(1, 20_000);
        let vox = VoxelizedCloud::from_cloud(&v.frame(0).unwrap().cloud, 8);
        let d = device(1);
        let codec = IntraCodec::new(IntraConfig::default().with_bricks(3));
        let frame = codec.encode(&vox, &d);
        let full = codec.decode(&frame, &d).expect("brick frame decodes");
        (frame, full)
    })
}

#[test]
fn brick_decode_is_identical_sequential_vs_parallel_and_under_probes() {
    let (frame, full) = brick_fixture();
    let codec = IntraCodec::new(IntraConfig::default().with_bricks(3));
    let was_enabled = pcc::probe::enabled();
    for probes in [false, true] {
        pcc::probe::set_enabled(probes);
        for t in thread_counts() {
            let decoded = codec.decode(frame, &device(t)).expect("brick frame decodes");
            assert_eq!(
                (decoded.coords(), decoded.colors()),
                (full.coords(), full.colors()),
                "brick decode differs at {t} threads (probes={probes})"
            );
        }
    }
    pcc::probe::set_enabled(was_enabled);
    let _ = pcc::probe::take_report();
}

#[test]
fn full_brick_decode_equals_concatenation_of_singleton_partial_decodes() {
    let (frame, full) = brick_fixture();
    let d = device(1);
    let limits = pcc::types::Limits::default();
    let codec = IntraCodec::new(IntraConfig::default().with_bricks(3));
    let index = BrickIndex::parse(&frame.geometry, &limits).expect("index parses");
    assert!(index.len() > 1, "fixture must span several bricks");

    let mut coords = Vec::new();
    let mut colors = Vec::new();
    for entry in index.entries() {
        let cell = entry.cell;
        let one = codec
            .decode_bricks(frame, &d, &limits, |e, _| e.cell == cell)
            .and_then(|pass| pass.into_cloud(&d))
            .expect("single-brick decode");
        coords.extend_from_slice(one.coords());
        colors.extend_from_slice(one.colors());
    }
    assert_eq!(coords.as_slice(), full.coords(), "geometry must concatenate in cell order");
    assert_eq!(colors.as_slice(), full.colors(), "attributes must concatenate in cell order");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]
    #[test]
    fn viewport_decode_matches_the_same_subset_of_a_full_decode(seed in 0u64..u64::MAX) {
        // A seed-derived random viewport box; the partial decode must be
        // bit-identical to concatenating exactly the bricks it selects.
        let (frame, _) = brick_fixture();
        let d = device(1);
        let limits = pcc::types::Limits::default();
        let codec = IntraCodec::new(IntraConfig::default().with_bricks(3));
        let index = BrickIndex::parse(&frame.geometry, &limits).expect("index parses");
        let world = index.bounds(index.entries().first().expect("non-empty"));
        let (mut lo, mut hi) = (world.min(), world.max());
        for entry in index.entries() {
            let b = index.bounds(entry);
            lo = pcc::types::Point3::new(lo.x.min(b.min().x), lo.y.min(b.min().y), lo.z.min(b.min().z));
            hi = pcc::types::Point3::new(hi.x.max(b.max().x), hi.y.max(b.max().y), hi.z.max(b.max().z));
        }

        // xorshift* keeps the shim dependency-free and the case replayable.
        let mut state = seed | 1;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        let axis = |a: f32, b: f32, u0: f32, u1: f32| {
            let (f0, f1) = if u0 <= u1 { (u0, u1) } else { (u1, u0) };
            (a + f0 * (b - a), a + f1 * (b - a))
        };
        let (x0, x1) = axis(lo.x, hi.x, unit(), unit());
        let (y0, y1) = axis(lo.y, hi.y, unit(), unit());
        let (z0, z1) = axis(lo.z, hi.z, unit(), unit());
        let viewport =
            pcc::types::Aabb::new(pcc::types::Point3::new(x0, y0, z0), pcc::types::Point3::new(x1, y1, z1));

        let selected: Vec<u64> = index
            .entries()
            .iter()
            .filter(|e| index.bounds(e).intersects(&viewport))
            .map(|e| e.cell)
            .collect();

        let partial = codec
            .decode_bricks(frame, &d, &limits, |_, bounds| bounds.intersects(&viewport))
            .and_then(|pass| pass.into_cloud(&d))
            .expect("partial decode");

        let mut coords = Vec::new();
        let mut colors = Vec::new();
        for &cell in &selected {
            let one = codec
                .decode_bricks(frame, &d, &limits, |e, _| e.cell == cell)
                .and_then(|pass| pass.into_cloud(&d))
                .expect("single-brick decode");
            coords.extend_from_slice(one.coords());
            colors.extend_from_slice(one.colors());
        }
        prop_assert_eq!(partial.coords(), coords.as_slice());
        prop_assert_eq!(partial.colors(), colors.as_slice());
    }
}
