//! Hot-path perf trajectory: per-kernel ns/point, steady-state
//! allocs/frame, and end-to-end frame latency at fixed seeds and sizes.
//!
//! The numbers land in `BENCH_hotpath.json` at the repo root, which is
//! committed; `scripts/verify.sh` re-runs this binary with `--check` and
//! fails if any timed metric regresses more than 15% (override with
//! `PCC_BENCH_TOLERANCE`) or if a steady-state frame starts allocating.
//! Re-baseline after an intentional change with `PCC_BENCH_REFRESH=1`
//! (or `--refresh`).
//!
//! Gated legs are timed on the process CPU clock
//! ([`pcc_bench::clock::process_cpu`]), so time the process spends
//! descheduled or stolen by other tenants does not count (their cache
//! and memory contention still does). Nine rows are informational and
//! never gated: `fanout_dispatch_cpu_us`, the process CPU one 2-item
//! `pcc_parallel::run` costs; the three parallel legs
//! (`brick_parallel_decode_speedup`, `decode_parallel_speedup` and
//! `intra_encode_parallel_speedup`) and `host_parallel_speedup`, the
//! parallelism the host gave the run, which are wall-clock ratios; and
//! four kernel costs on a workload frame, `inter_match_ns_per_pair` (the
//! block matcher, per compared point pair), `layer_parse_ns_per_value`
//! (reading and decoding a delta layer, per value triple),
//! `voxelize_ns_per_point` and `geometry_decode_ns_per_point` (quantizing
//! the captured cloud, and expanding its occupancy stream, per point).
//!
//! Everything is deterministic — a fixed xorshift seed generates the
//! kernel inputs and the scaling leg encodes a seeded `pcc-datasets`
//! frame, so two runs on the same machine measure the same work.

use std::hint::black_box;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

use pcc_bench::alloc::{count as alloc_count, CountingAlloc};
use pcc_bench::clock::process_cpu;
use pcc_bench::Scale;

use pcc_datasets::catalog;
use pcc_edge::{Device, PowerMode};
use pcc_inter::{InterArena, InterCodec, InterConfig, InterEncoded};
use pcc_intra::{
    decode_layer_threaded, encode_layer_with_starts_into, segment_starts_into, FrameArena,
    IntraCodec, IntraConfig, IntraFrame, LayerEncoded,
};
use pcc_morton::{encode, encode_slice, sort_codes_into, MortonCode, SortScratch, SortedCodes};
use pcc_stream::{Chunk, ChunkKind, FramePayload, SharedRing, StampMemo, Subscription};
use pcc_types::wire::Cursor;
use pcc_types::{FrameKind, Limits, Point3, PointCloud, Rgb, VoxelCoord, VoxelizedCloud};

/// Counts allocations for the `*_allocs_*` metrics.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// Deterministic inputs
// ---------------------------------------------------------------------------

/// Fixed sizes: `KERNEL_POINTS` is cache-resident on purpose — the point
/// of the per-kernel numbers is compute throughput, and at multi-megabyte
/// working sets every variant converges on memory bandwidth and the
/// comparison measures nothing. End-to-end frames use a realistic size.
const KERNEL_POINTS: usize = 1 << 14; // 16 384
const KERNEL_SEGMENTS: usize = 256;
const FRAME_POINTS: usize = 60_000;
const FRAME_DEPTH: u8 = 8;
const REPS: usize = 25;
/// Whole passes over every leg, each metric keeping its best pass: a
/// noisy neighbour that slows one stretch of the run rarely covers all
/// of them.
const ROUNDS: usize = 5;
const FRAMES: usize = 10;
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
/// Broadcast fan-out leg: subscribers stamping one shared coded payload
/// each, at a realistic chunk size (~8.5 KiB/frame, see live_stream).
/// Every `FANOUT_ARQ_STRIDE`-th subscriber parks its chunks in an ARQ
/// ring of `FANOUT_RING` chunks, the share and depth of the perfbench
/// `broadcast` workload.
const FANOUT_SUBSCRIBERS: usize = 64;
const FANOUT_PAYLOAD_BYTES: usize = 8_704;
const FANOUT_ARQ_STRIDE: usize = 4;
const FANOUT_RING: usize = 16;
/// Intra thread-scaling leg: one Longdress frame at this many points,
/// encoded at 1 thread and at the machine's full thread count.
const SCALING_POINTS: usize = 100_000;
/// Fan-out dispatch leg: 2-item `pcc_parallel::run` calls per timed rep.
const DISPATCH_CALLS: usize = 1_000;
/// Host parallelism leg: xorshift steps per compute-only item (about a
/// millisecond).
const HOST_SPIN_STEPS: u64 = 1 << 20;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn kernel_coords() -> Vec<VoxelCoord> {
    let mut rng = XorShift(SEED);
    (0..KERNEL_POINTS)
        .map(|_| {
            let r = rng.next();
            VoxelCoord::new(
                (r & 0xFFFF) as u32,
                ((r >> 16) & 0xFFFF) as u32,
                ((r >> 32) & 0xFFFF) as u32,
            )
        })
        .collect()
}

fn kernel_values() -> Vec<[i32; 3]> {
    let mut rng = XorShift(SEED ^ 0xDEAD_BEEF);
    (0..KERNEL_POINTS)
        .map(|_| {
            let r = rng.next();
            [
                (r & 0x7FF) as i32 - 1024,
                ((r >> 11) & 0x7FF) as i32 - 1024,
                ((r >> 22) & 0x7FF) as i32 - 1024,
            ]
        })
        .collect()
}

/// Same synthetic-frame family as tests/alloc_steady_state.rs, scaled up:
/// `phase` varies geometry and colors so consecutive frames differ.
fn frame(phase: usize) -> VoxelizedCloud {
    let n = FRAME_POINTS + (phase % 3) * 1000;
    let cloud: PointCloud = (0..n)
        .map(|i| {
            let x = ((i + phase * 7) % 256) as f32;
            let y = ((i / 256) % 128) as f32;
            let z = (i / 32768) as f32;
            let c = ((i * 3 + phase * 11) % 256) as u8;
            (Point3::new(x, y, z), Rgb::new(c, 255 - c, 128))
        })
        .collect();
    VoxelizedCloud::from_cloud(&cloud, FRAME_DEPTH)
}

// ---------------------------------------------------------------------------
// Timing
// ---------------------------------------------------------------------------

/// Minimum process CPU time of `REPS` runs of `f`, in nanoseconds, after
/// two untimed warm-up runs (buffer growth + icache). CPU time, not wall
/// time: a descheduled or stolen slice of a shared VM is not the code's
/// cost. Minimum, not median: the noise left (cache and frequency) is
/// strictly additive, and the gate compares ratios of two such
/// measurements — the min keeps both sides pinned to the undisturbed cost.
fn min_ns(f: impl FnMut()) -> f64 {
    min_on(process_cpu, f)
}

/// [`min_ns`] on the wall clock, for legs whose point is parallel
/// speedup (CPU time sums over threads and would hide it).
fn min_wall_ns(f: impl FnMut()) -> f64 {
    let epoch = Instant::now();
    min_on(|| epoch.elapsed(), f)
}

fn min_on(now: impl Fn() -> Duration, mut f: impl FnMut()) -> f64 {
    f();
    f();
    (0..REPS)
        .map(|_| {
            let t = now();
            f();
            (now() - t).as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// How the gate reads a metric.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Timed, lower is better; gated against the baseline's tolerance.
    Time,
    /// Steady-state allocations; gated at no increase.
    Allocs,
    /// A ratio, higher is better; informational.
    Speedup,
    /// A timed overhead, lower is better; informational.
    Overhead,
}

/// One reported figure: its baseline key, value, printed decimals and
/// kind.
struct Metric {
    key: &'static str,
    value: f64,
    decimals: usize,
    kind: Kind,
}

/// Every metric of one pass, in `BENCH_hotpath.json` order.
struct Report(Vec<Metric>);

impl Report {
    /// Per-metric best of two passes: the lower time or overhead and the
    /// higher speedup; allocation counts keep the worse (higher) pass.
    fn best(mut self, other: Report) -> Report {
        for (m, o) in self.0.iter_mut().zip(other.0) {
            m.value = match m.kind {
                Kind::Time | Kind::Overhead => m.value.min(o.value),
                Kind::Allocs | Kind::Speedup => m.value.max(o.value),
            };
        }
        self
    }

    fn get(&self, key: &str) -> f64 {
        self.0.iter().find(|m| m.key == key).map_or(f64::NAN, |m| m.value)
    }

    /// Hand-rolled writer: the workspace's serde is an offline no-op shim,
    /// so JSON is emitted (and parsed back) by hand. Flat keys on purpose —
    /// the `--check` parser is a string search, not a JSON parser.
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"schema\": 2,\n  \"clock\": \"process_cpu\",\n  \"nproc\": {},\n  \
             \"kernel_points\": {KERNEL_POINTS},\n  \"frame_points\": {FRAME_POINTS}",
            std::thread::available_parallelism().map_or(1, usize::from),
        );
        for m in &self.0 {
            out += &format!(",\n  \"{}\": {:.*}", m.key, m.decimals, m.value);
        }
        out + "\n}\n"
    }
}

/// Pulls the number following `"key":` out of the baseline file.
fn json_num(src: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = src.find(&pat)? + pat.len();
    let rest = src.get(start..)?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest.get(..end)?.parse().ok()
}

// ---------------------------------------------------------------------------
// Measurement legs
// ---------------------------------------------------------------------------

fn run() -> Report {
    let one = NonZeroUsize::new(1).expect("1 is non-zero");
    let allocs_at_start = alloc_count();

    // -- Morton codegen: scalar loop vs. the spread-table `encode_slice`.
    let coords = kernel_coords();
    // black_box on each input pins the reference to true point-at-a-time
    // encoding — without it LLVM vectorizes this loop too and the
    // comparison measures nothing.
    let scalar_ns = min_ns(|| {
        let mut acc = 0u64;
        for &c in &coords {
            acc ^= encode(black_box(c)).value();
        }
        black_box(acc);
    });
    let mut codes = vec![MortonCode::default(); coords.len()];
    let batch_ns = min_ns(|| {
        encode_slice(&coords, &mut codes);
        black_box(codes.last());
    });

    // -- Radix sort as the encoder runs it: the generated codes sorted in
    //    place with a packed color each (here the code's low 24 bits),
    //    scratch warm across reps. Each rep first copies the unsorted
    //    codes back into the key buffer.
    let colors: Vec<u32> = codes.iter().map(|c| c.value() as u32 & 0xFF_FFFF).collect();
    let mut sort_scratch = SortScratch::default();
    let mut sorted = SortedCodes::default();
    let sort_ns = min_ns(|| {
        sorted.codes.clear();
        sorted.codes.extend_from_slice(&codes);
        sort_codes_into(&mut sorted, colors.iter().copied(), &mut sort_scratch);
        black_box(sorted.codes.last());
    });

    // -- Base+Delta layer encode (median + batched quantize), q = 4.
    let values = kernel_values();
    let mut starts = Vec::new();
    segment_starts_into(values.len(), KERNEL_SEGMENTS, &mut starts);
    let (mut bases, mut residuals, mut median) = (Vec::new(), Vec::new(), Vec::new());
    let quant_ns = min_ns(|| {
        encode_layer_with_starts_into(
            &values,
            &starts,
            4,
            one,
            &mut bases,
            &mut residuals,
            &mut median,
        );
        black_box(residuals.last());
    });

    // -- End-to-end frames: steady-state latency and allocs per frame on
    //    the single-threaded path the zero-alloc guarantee covers (see
    //    tests/alloc_steady_state.rs).
    let intra_cfg = IntraConfig::paper();
    let device = Device::jetson_agx_xavier(PowerMode::W15).with_host_threads(Some(one));
    let frames: Vec<VoxelizedCloud> = (0..FRAMES).map(frame).collect();
    // Positive control for every allocation metric: building the inputs
    // allocates, so a count that has not moved means the counting
    // allocator is not installed and each `*_allocs_*` would read 0.
    assert!(
        alloc_count() > allocs_at_start,
        "building the inputs counted no allocation: CountingAlloc is not the global allocator"
    );

    let intra = IntraCodec::new(intra_cfg);
    let mut arena = FrameArena::new();
    let mut out = IntraFrame::default();
    let (intra_frame_ns, intra_allocs) = measure_leg(&frames, &device, |vox| {
        intra.encode_into(vox, &device, &mut arena, &mut out, None);
    });

    let reference: Vec<Rgb> = {
        let f = intra.encode(&frames[0], &device);
        device.reset();
        intra
            .decode(&f, &device)
            .expect("self-encoded frame decodes")
            .colors()
            .to_vec()
    };
    let inter = InterCodec::new(InterConfig { intra: intra_cfg, ..InterConfig::v1() });
    let mut inter_arena = InterArena::new();
    let mut inter_out = InterEncoded::default();
    let (inter_frame_ns, inter_allocs) = measure_leg(&frames, &device, |vox| {
        inter.encode_into(vox, &reference, &device, &mut inter_arena, &mut inter_out);
    });

    // -- Broadcast fan-out: one shared coded payload sent to many
    //    subscribers through the path `Broadcast::fan_out` takes — one
    //    StampMemo threaded through the loop, so the seq group stamps
    //    its chunk image once and every subscriber writes that image and
    //    (with ARQ) parks a header plus a payload reference. The payload
    //    CRC is computed once in FramePayload, outside the timed loop.
    let mut rng = XorShift(SEED ^ 0x0FA9);
    let payload: Vec<u8> = (0..FANOUT_PAYLOAD_BYTES).map(|_| rng.next() as u8).collect();
    let shared = FramePayload::from_bytes(0, FrameKind::Predicted, payload);
    let header = Chunk {
        kind: ChunkKind::StreamHeader,
        frame_kind: None,
        anchor_lag: 0,
        stream_id: 1,
        seq: 0,
        frame_index: 0,
        payload: vec![1, 3, FRAME_DEPTH],
    };
    let mut subs: Vec<Subscription<std::io::Sink>> = (0..FANOUT_SUBSCRIBERS)
        .map(|i| {
            let sub = Subscription::attach(std::io::sink(), &header).expect("sink cannot fail");
            if i % FANOUT_ARQ_STRIDE == FANOUT_ARQ_STRIDE - 1 {
                sub.with_arq(SharedRing::new(FANOUT_RING))
            } else {
                sub
            }
        })
        .collect();
    let mut memo = StampMemo::new();
    let mut frame_index = 0u32;
    let mut fan_out = || {
        // P-frame kind: the steady-state (non-flushing) fan-out cost.
        let frame = FramePayload { frame_index, ..shared.clone() };
        frame_index += 1;
        for sub in &mut subs {
            sub.send_payload(black_box(&frame), &mut memo).expect("sink cannot fail");
        }
        black_box(&subs);
    };
    let fanout_ns = min_ns(&mut fan_out);
    // min_ns warmed the memo's image buffer and filled every ring, so
    // these frames are the steady state the allocation gate pins.
    let before = alloc_count();
    for _ in 0..REPS {
        fan_out();
    }
    let fanout_allocs = (alloc_count() - before) as f64 / (REPS * FANOUT_SUBSCRIBERS) as f64;

    // -- Brick-partitioned decode: the per-point CPU cost of the parallel
    //    brick decoder at 1 thread (gated), and the wall-clock speedup of
    //    the same decode at the machine's full thread count
    //    (informational, never gated — it depends on the host's core
    //    count and load).
    let brick_codec = IntraCodec::new(IntraConfig::paper().with_bricks(3));
    let brick_vox = &frames[0];
    let brick_frame = brick_codec.encode(brick_vox, &device);
    device.reset();
    let decode_on = |device: &Device| {
        device.reset();
        let decoded = brick_codec.decode(&brick_frame, device).expect("self-encoded decodes");
        black_box(decoded.len());
    };
    let decode_1_ns = min_ns(|| decode_on(&device));
    let max_threads = std::thread::available_parallelism().unwrap_or(one);
    let wide_device =
        Device::jetson_agx_xavier(PowerMode::W15).with_host_threads(Some(max_threads));
    let speedup = min_wall_ns(|| decode_on(&device)) / min_wall_ns(|| decode_on(&wide_device));

    // -- Intra encode thread scaling: the wall-clock speedup of a whole
    //    frame encode at the machine's full thread count over 1 thread
    //    (informational, never gated). Every count produces the same
    //    bytes (tests/determinism.rs), so this is pure execution-layer
    //    scaling.
    let scale = Scale { points: SCALING_POINTS, frames: 1 };
    let video = scale.video(catalog::by_name("Longdress").expect("Table-I video"));
    let scaling_vox = VoxelizedCloud::from_cloud(
        &video.frame(0).expect("one frame generated").cloud,
        scale.depth(),
    );
    let scaling_codec = IntraCodec::new(IntraConfig::default());
    let encode_on = |device: &Device| {
        device.reset();
        black_box(scaling_codec.encode(&scaling_vox, device));
    };
    let encode_speedup =
        min_wall_ns(|| encode_on(&device)) / min_wall_ns(|| encode_on(&wide_device));

    // -- Plain (monolithic) decode thread scaling: the wall-clock speedup
    //    of decoding that same frame at the machine's full thread count
    //    over 1 thread (informational, never gated).
    let scaling_frame = scaling_codec.encode(&scaling_vox, &device);
    let plain_decode_on = |device: &Device| {
        device.reset();
        let decoded = scaling_codec.decode(&scaling_frame, device).expect("self-encoded decodes");
        black_box(decoded.len());
    };
    let decode_speedup =
        min_wall_ns(|| plain_decode_on(&device)) / min_wall_ns(|| plain_decode_on(&wide_device));

    // -- Host parallelism: the wall-clock ratio of two compute-only items
    //    run one after the other on the calling thread against the same
    //    two through `pcc_parallel::run` (informational, never gated). It
    //    reads about 2 on two free cores and about 1 when the host gives
    //    the process one core's worth, which bounds the three legs above.
    let spin = |seed: u64| {
        let mut rng = XorShift(black_box(seed));
        (0..HOST_SPIN_STEPS).fold(0, |acc, _| acc ^ rng.next())
    };
    let inline_ns = min_wall_ns(|| {
        black_box((spin(1), spin(2)));
    });
    let fanned_ns = min_wall_ns(|| {
        pcc_parallel::run([1, 2], spin, |r| {
            black_box(r);
        })
    });
    let host_speedup = inline_ns / fanned_ns;

    // -- Voxelize and geometry decode on that frame at 1 thread
    //    (informational, never gated): quantizing the captured cloud onto
    //    the grid, output vectors included, and expanding the frame's
    //    occupancy stream back to voxels, each per point of the frame.
    let scaling_cloud = &video.frame(0).expect("one frame generated").cloud;
    let voxelize_ns = min_ns(|| {
        black_box(VoxelizedCloud::from_cloud(scaling_cloud, scale.depth()));
    });
    let geometry_decode_ns = min_ns(|| {
        device.reset();
        let geo = pcc_intra::geometry::decode_with(
            &scaling_frame.geometry,
            &device,
            &Limits::default(),
        );
        black_box(geo.expect("self-encoded geometry decodes"));
    });

    // -- Block matching and delta-layer parse on a workload frame: the
    //    Longdress 100k-point, depth-9 P-frame (the telepresence input)
    //    against its decoded I-frame, at 1 thread (informational, never
    //    gated). The match leg is the `inter/match` probe span (wall
    //    clock) per (P-point, I-point) pair the encode charges; the parse
    //    leg reads the P-frame's delta layer and decodes it, per value.
    let pair_video = Scale { points: SCALING_POINTS, frames: 2 }
        .video(catalog::by_name("Longdress").expect("Table-I video"));
    let pair_vox: Vec<VoxelizedCloud> = (0..2)
        .map(|f| {
            let cloud = &pair_video.frame(f).expect("two frames generated").cloud;
            VoxelizedCloud::from_cloud(cloud, scale.depth())
        })
        .collect();
    let inter_v1 = InterCodec::new(InterConfig::v1());
    let pair_intra = IntraCodec::new(InterConfig::v1().intra);
    let pair_reference = pair_intra
        .decode(&pair_intra.encode(&pair_vox[0], &device), &device)
        .expect("self-encoded frame decodes")
        .colors()
        .to_vec();
    pcc_probe::set_enabled(true);
    let mut match_ns = f64::INFINITY;
    let mut match_pairs = 0;
    for _ in 0..REPS {
        device.reset();
        let (p_frame, arena, out) = (&pair_vox[1], &mut inter_arena, &mut inter_out);
        inter_v1.encode_into(p_frame, &pair_reference, &device, arena, out);
        let span = pcc_probe::take_report().stage("inter/match").expect("probes are on");
        match_ns = match_ns.min(span.total_ns as f64);
        match_pairs = device
            .timeline()
            .records()
            .iter()
            .find(|r| r.stage == "inter_attr/diff_squared")
            .expect("the encode charges its pairs")
            .items;
    }
    pcc_probe::set_enabled(false);
    let attribute = &inter_out.frame.attribute;
    let parse_layer = || {
        let mut c = Cursor::new(attribute, 0);
        c.varint().expect("voxel count");
        for _ in 0..c.varint().expect("block count") {
            c.varint().expect("block flag");
        }
        let layer = LayerEncoded::read(&mut c, &Limits::default()).expect("self-encoded layer");
        decode_layer_threaded(&layer, one)
    };
    let layer_values = parse_layer().len();
    let parse_ns = min_ns(|| {
        black_box(parse_layer());
    });

    // -- Fan-out dispatch: the process CPU (caller and worker together)
    //    of one 2-item `pcc_parallel::run` over trivial items — the
    //    overhead every parallel kernel call pays on top of its work
    //    (informational, never gated).
    let dispatch_ns = min_ns(|| {
        for i in 0..DISPATCH_CALLS {
            pcc_parallel::run([i, i + 1], black_box, drop);
        }
    }) / DISPATCH_CALLS as f64;

    let per_point = KERNEL_POINTS as f64;
    let metric = |key, value, decimals, kind| Metric { key, value, decimals, kind };
    use Kind::{Allocs, Overhead, Speedup, Time};
    Report(vec![
        metric("morton_scalar_ns_per_point", scalar_ns / per_point, 3, Time),
        metric("morton_batch_ns_per_point", batch_ns / per_point, 3, Time),
        metric("morton_speedup", scalar_ns / batch_ns, 2, Speedup),
        metric("radix_sort_ns_per_point", sort_ns / per_point, 3, Time),
        metric("layer_quantize_ns_per_point", quant_ns / per_point, 3, Time),
        metric("intra_frame_ms", intra_frame_ns / 1e6, 3, Time),
        metric("intra_allocs_per_frame", intra_allocs, 2, Allocs),
        metric("inter_frame_ms", inter_frame_ns / 1e6, 3, Time),
        metric("inter_allocs_per_frame", inter_allocs, 2, Allocs),
        metric("fanout_chunk_ns_per_subscriber", fanout_ns / FANOUT_SUBSCRIBERS as f64, 1, Time),
        metric("fanout_allocs_per_subscriber", fanout_allocs, 2, Allocs),
        metric("decode_brick_ns_per_point", decode_1_ns / brick_vox.len() as f64, 3, Time),
        metric("brick_parallel_decode_speedup", speedup, 2, Speedup),
        metric("decode_parallel_speedup", decode_speedup, 2, Speedup),
        metric("intra_encode_parallel_speedup", encode_speedup, 2, Speedup),
        metric("host_parallel_speedup", host_speedup, 2, Speedup),
        metric("fanout_dispatch_cpu_us", dispatch_ns / 1e3, 2, Overhead),
        metric("inter_match_ns_per_pair", match_ns / match_pairs as f64, 3, Overhead),
        metric("layer_parse_ns_per_value", parse_ns / layer_values as f64, 3, Overhead),
        metric("voxelize_ns_per_point", voxelize_ns / scaling_vox.len() as f64, 3, Overhead),
        metric(
            "geometry_decode_ns_per_point",
            geometry_decode_ns / scaling_vox.len() as f64,
            3,
            Overhead,
        ),
    ])
}

/// A warm-up pass over the frame set establishes every arena high-water
/// mark (frame content varies, so an unseen frame may still grow a buffer
/// past its previous maximum), then five measured passes re-encode the
/// same frames. Reported time is the *minimum* pass mean of process CPU
/// time — cache noise is strictly additive, so min-of-passes is the
/// robust estimator for a shared machine; allocs are the *maximum* pass total
/// (conservative). The stricter unseen-frame zero-alloc variant is pinned
/// by tests/alloc_steady_state.rs at its sizes; this reports the
/// session-warm number at benchmark scale.
fn measure_leg(
    frames: &[VoxelizedCloud],
    device: &Device,
    mut enc: impl FnMut(&VoxelizedCloud),
) -> (f64, f64) {
    const PASSES: usize = 5;
    for vox in frames {
        device.reset();
        enc(vox);
        // Drain thread-local probe buffers keeping capacity, as a
        // streaming session would (take_report would mem::take them).
        pcc_probe::discard_thread();
    }
    let mut best_ns = f64::INFINITY;
    let mut worst_allocs = 0u64;
    for _ in 0..PASSES {
        let mut ns = 0.0;
        let mut allocs = 0u64;
        for vox in frames {
            device.reset();
            let before = alloc_count();
            let t = process_cpu();
            enc(vox);
            ns += (process_cpu() - t).as_nanos() as f64;
            allocs += alloc_count() - before;
            pcc_probe::discard_thread();
        }
        best_ns = best_ns.min(ns);
        worst_allocs = worst_allocs.max(allocs);
    }
    let n = frames.len() as f64;
    (best_ns / n, worst_allocs as f64 / n)
}

// ---------------------------------------------------------------------------
// Driver: default prints, --refresh (or PCC_BENCH_REFRESH=1) re-baselines,
// --check gates against the committed baseline.
// ---------------------------------------------------------------------------

fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_hotpath.json")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let refresh = args.iter().any(|a| a == "--refresh")
        || std::env::var("PCC_BENCH_REFRESH").is_ok_and(|v| v == "1");

    let report = (1..ROUNDS).fold(run(), |best, _| best.best(run()));
    print!("{}", report.to_json());

    if refresh {
        let morton_speedup = report.get("morton_speedup");
        assert!(
            morton_speedup >= 1.5,
            "refusing to baseline: Morton batch speedup {morton_speedup:.2}x is below the 1.5x \
             floor the perf trajectory promises"
        );
        let path = baseline_path();
        std::fs::write(&path, report.to_json()).expect("write baseline");
        eprintln!("re-baselined {}", path.display());
        return;
    }

    if check {
        let path = baseline_path();
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("no committed baseline at {}: {e}", path.display()));
        let tolerance: f64 = std::env::var("PCC_BENCH_TOLERANCE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.15);
        let mut failed = false;
        for &Metric { key, value: now, kind, .. } in &report.0 {
            if matches!(kind, Kind::Speedup | Kind::Overhead) {
                continue;
            }
            let base = json_num(&baseline, key)
                .unwrap_or_else(|| panic!("baseline is missing \"{key}\""));
            if kind == Kind::Allocs {
                if now > base + 0.01 {
                    failed = true;
                    eprintln!(
                        "{key}: {base:.2} -> {now:.2}  REGRESSED (steady-state frames must not allocate more)"
                    );
                } else {
                    eprintln!("{key}: {base:.2} -> {now:.2}  ok");
                }
                continue;
            }
            let ratio = now / base;
            let verdict = if ratio > 1.0 + tolerance {
                failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            eprintln!("{key}: {base:.3} -> {now:.3}  ({ratio:+.1}% vs baseline)  {verdict}",
                ratio = (ratio - 1.0) * 100.0);
        }
        if failed {
            eprintln!(
                "hotpath --check FAILED: a metric regressed more than {:.0}% vs BENCH_hotpath.json; \
                 investigate, or re-baseline an intentional change with PCC_BENCH_REFRESH=1",
                tolerance * 100.0
            );
            std::process::exit(1);
        }
        eprintln!("hotpath --check passed (tolerance {:.0}%)", tolerance * 100.0);
    }
}
