//! Glass-to-glass pipeline benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload telepresence --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One closed-loop run of one workload (`telepresence`, `broadcast`,
//! `lossy-recovery`; see `workloads.rs` and `README.md`): inputs and the
//! reference decodes are generated from `--seed` before timing, the
//! session is set up several times (the median is `setup_s`), then frames
//! are handed over until `--seconds` of timed work and at least the
//! workload's minimum frame count have passed. Every delivered frame is
//! checked bit-exact against the reference. The last line of standard
//! output is one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A verification error prints
//! `"correct": false` and exits with code 1.

mod alloc;
mod measure;
mod pipe;
mod reference;
mod workloads;

use measure::{median, percentile, samples_beyond, process_cpu, Breakdown};
use pcc_edge::{Device, PowerMode};
use reference::{check_delivery, Reference, Verdict};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{
    Ctx, Finished, Spec, StepLog, CALL_SPANS, FRAME_SPAN, PUSH_SPAN, RECV_SPAN, SEND_SPAN,
};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Session set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if Spec::by_name(&workload).is_none() {
        return Err(format!(
            "unknown workload {workload}; one of {:?}",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One metric as printed.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Outcome {
    metrics: Vec<Metric>,
    attempted: usize,
    errors: Vec<String>,
    text: String,
}

/// Whole deliveries, losses and quality, accumulated outside timing.
#[derive(Default)]
struct Tally {
    whole: BTreeSet<(usize, usize)>,
    psnr_sum: f64,
    partial: usize,
    errors: Vec<String>,
}

impl Tally {
    /// Checks and books every delivery the step logged. Only timed frames
    /// (index `first_timed` on) count towards the delivery ratio and PSNR.
    fn book(&mut self, reference: &Reference, log: &mut StepLog, first_timed: usize) {
        for (viewer, d) in log.deliveries.drain(..) {
            match check_delivery(reference, &log.kinds, &d) {
                Ok(Verdict::Whole { psnr_db }) => {
                    if !self.whole.insert((viewer, d.frame_index)) {
                        self.errors
                            .push(format!("viewer {viewer} got frame {} twice", d.frame_index));
                    } else if d.frame_index >= first_timed {
                        self.psnr_sum += psnr_db;
                    }
                }
                Ok(Verdict::Partial) => self.partial += 1,
                Err(e) => self.errors.push(format!("viewer {viewer}: {e}")),
            }
        }
        self.errors.append(&mut log.errors);
    }

    fn timed_whole(&self, first_timed: usize) -> usize {
        self.whole
            .iter()
            .filter(|&&(_, i)| i >= first_timed)
            .count()
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    pcc_probe::set_enabled(false);
    let spec = Spec::by_name(&args.workload).ok_or("unknown workload")?;
    let device = Device::jetson_agx_xavier(PowerMode::W15);
    let codec = spec.codec();
    let inputs = spec.inputs(args.seed);
    let reference = Reference::build(&codec, &device, &inputs, spec.anchors)?;
    let ctx = Ctx {
        codec: &codec,
        device: &device,
        inputs: &inputs,
        seed: args.seed,
    };
    let period = codec
        .frame_encoder(inputs.depth, &device)
        .gof_pattern()
        .period() as usize;
    let io = |e: std::io::Error| format!("{}: transport error: {e}", spec.name);

    // Set-up: build the session and push the first GOF (warm-up), several
    // times; the last session is the one timed. The heap is sampled at
    // frame boundaries, where every executor thread has joined, so the
    // figure does not depend on how concurrent allocations interleaved.
    let (mut setup_cpu, mut setup_wall) = (Vec::new(), Vec::new());
    let mut built = None;
    let (mut heap_base, mut heap_peak) = (0, 0);
    let mut tally = Tally::default();
    for _ in 0..SETUPS {
        drop(built.take());
        tally = Tally::default();
        heap_base = alloc::live();
        heap_peak = heap_base;
        let mut log = StepLog::default();
        let (w0, c0) = (Instant::now(), process_cpu());
        let mut session = spec.build(&ctx).map_err(io)?;
        for index in 0..period {
            session
                .step(index, inputs.cloud(index), &mut log)
                .map_err(io)?;
            heap_peak = heap_peak.max(alloc::live());
        }
        setup_cpu.push((process_cpu() - c0).as_secs_f64());
        setup_wall.push(w0.elapsed().as_secs_f64());
        session.verify(&reference, &mut log);
        tally.book(&reference, &mut log, period);
        built = Some((session, log));
    }
    let (mut session, mut log) = built.ok_or("no set-up ran")?;

    // The timed closed loop. With tracing, every other GOF records spans,
    // so traced and untraced frames run under the same conditions.
    let budget = Duration::from_secs_f64(args.seconds);
    let (mut timed_wall, mut timed_cpu) = (Duration::ZERO, Duration::ZERO);
    let (mut frame_cpu_ms, mut frame_wall_ms) =
        (Vec::with_capacity(4096), Vec::with_capacity(4096));
    let mut traced_cpu_ms = Vec::with_capacity(4096);
    let mut breakdown = Breakdown::default();
    let (mut traced_deliveries, mut untraced_allocs, mut untraced_steps) = (0u64, 0u64, 0u64);
    let (steal0, loop_start) = (host_steal_ticks(), Instant::now());
    let wire0 = session.wire_bytes();
    let mut points = 0usize;
    let mut steps = 0usize;
    let _ = pcc_probe::take_report();
    while !(steps >= spec.min_frames()
        && timed_wall >= budget
        && steps.is_multiple_of(inputs.cycle()))
    {
        let index = period + steps;
        let cloud = inputs.cloud(index);
        let traced = args.trace && (steps / period).is_multiple_of(2);
        let allocs0 = log.call_allocs;
        pcc_probe::set_enabled(traced);
        let (w0, c0) = (Instant::now(), process_cpu());
        let root = pcc_probe::span(FRAME_SPAN);
        session.step(index, cloud, &mut log).map_err(io)?;
        drop(root);
        let (dc, dw) = (process_cpu() - c0, w0.elapsed());
        pcc_probe::set_enabled(false);
        timed_wall += dw;
        timed_cpu += dc;
        points += cloud.len();
        steps += 1;
        heap_peak = heap_peak.max(alloc::live());
        let cpu_ms = dc.as_secs_f64() * 1e3;
        if traced {
            traced_cpu_ms.push(cpu_ms);
            traced_deliveries += log.deliveries.len() as u64;
            breakdown.add(pcc_probe::take_report().spans(), FRAME_SPAN, &CALL_SPANS);
        } else {
            frame_cpu_ms.push(cpu_ms);
            frame_wall_ms.push(dw.as_secs_f64() * 1e3);
            untraced_allocs += log.call_allocs - allocs0;
            untraced_steps += 1;
        }
        session.verify(&reference, &mut log);
        tally.book(&reference, &mut log, period);
    }
    let wire_bytes = session.wire_bytes() - wire0;
    let resident = if args.trace {
        session.resident_per_sub()
    } else {
        None
    };
    let viewers = session.viewers();
    let (w0, c0) = (Instant::now(), process_cpu());
    let finished = session.finish(&reference, &mut log).map_err(io)?;
    timed_cpu += process_cpu() - c0;
    timed_wall += w0.elapsed();
    tally.book(&reference, &mut log, period);
    let steal = host_steal_ticks()
        .zip(steal0)
        .map(|(b, a)| b.saturating_sub(a));
    let loop_s = loop_start.elapsed().as_secs_f64();

    let whole = tally.timed_whole(period);
    let expected = steps * viewers;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "# {}: {} timed frames of ~{} points (depth {}), {} decoding viewer(s), {:.2} s timed",
        spec.name,
        steps,
        points / steps.max(1),
        inputs.depth,
        viewers,
        timed_wall.as_secs_f64()
    );
    let _ = writeln!(
        text,
        "# delivered whole {whole}/{expected}, partial {}, set-up CPU {:?} s",
        tally.partial,
        setup_cpu
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    let deliveries = ((period + steps) * viewers).max(1) as f64;
    let rx = &finished.rx;
    let _ = writeln!(
        text,
        "# recovery over {} frame-deliveries: ARQ recovered {} chunks ({:.1}% of deliveries), \
         brick repair made {} frames whole ({:.1}%), {} refresh I-frames ({:.1}% of {} frames pushed), \
         {} dropped ({:.1}%), {} partial",
        deliveries,
        rx.arq_recovered,
        100.0 * rx.arq_recovered as f64 / deliveries,
        rx.frames_repaired,
        100.0 * rx.frames_repaired as f64 / deliveries,
        finished.refresh_frames,
        100.0 * finished.refresh_frames as f64 / (period + steps) as f64,
        period + steps,
        rx.frames_dropped,
        100.0 * rx.frames_dropped as f64 / deliveries,
        rx.partial_frames
    );
    // Wall-clock figures, for reference: on a shared VM they move with the
    // time the hypervisor gives other guests (steal).
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let _ = writeln!(
        text,
        "# wall clock: frame p50 {:.3} ms, p95 {:.3} ms, {:.3} frames/s, set-up {:.4} s; host steal {}",
        median(&frame_wall_ms),
        percentile(&frame_wall_ms, 0.95).unwrap_or(0.0),
        steps as f64 / timed_wall.as_secs_f64(),
        median(&setup_wall),
        steal.map_or("unavailable".into(), |ticks| format!("{:.1}% of CPU time", ticks as f64 / (loop_s * cpus)))
    );

    let metrics = if args.trace {
        let m = per_layer(&PerLayerIn {
            spec: &spec,
            b: &breakdown,
            reference: &reference,
            fin: &finished,
            traced_steps: traced_cpu_ms.len() as u64,
            traced_deliveries,
            untraced_allocs,
            untraced_steps,
            resident,
            wire_bytes,
            steps,
            session_frames: period + steps,
            viewers,
            overhead: 100.0 * (median(&traced_cpu_ms) / median(&frame_cpu_ms) - 1.0),
        });
        breakdown_table(&mut text, &breakdown, spec.name);
        if spec.name == "telepresence" {
            modeled_vs_measured(&mut text, &breakdown, &reference);
        }
        m
    } else {
        let _ = writeln!(
            text,
            "# frame_cpu_ms over {} samples, {} above p95",
            frame_cpu_ms.len(),
            samples_beyond(&frame_cpu_ms, 0.95)
        );
        vec![
            metric("setup_s", median(&setup_cpu), "s"),
            metric("frame_cpu_ms_p50", median(&frame_cpu_ms), "ms"),
            metric(
                "frame_cpu_ms_p95",
                percentile(&frame_cpu_ms, 0.95).unwrap_or(0.0),
                "ms",
            ),
            metric(
                "frames_per_cpu_s",
                steps as f64 / timed_cpu.as_secs_f64(),
                "1/s",
            ),
            metric(
                "wire_bits_per_point",
                wire_bytes as f64 * 8.0 / points as f64,
                "bit",
            ),
            metric("attr_psnr_db", tally.psnr_sum / whole.max(1) as f64, "dB"),
            metric(
                "frames_delivered_ratio",
                whole as f64 / expected as f64,
                "ratio",
            ),
            metric(
                "heap_peak_mib",
                (heap_peak - heap_base) as f64 / (1 << 20) as f64,
                "MiB",
            ),
        ]
    };
    Ok(Outcome {
        metrics,
        attempted: steps,
        errors: tally.errors,
        text,
    })
}

struct PerLayerIn<'a> {
    spec: &'a Spec,
    b: &'a Breakdown,
    reference: &'a Reference,
    fin: &'a Finished,
    traced_steps: u64,
    traced_deliveries: u64,
    untraced_allocs: u64,
    untraced_steps: u64,
    resident: Option<f64>,
    wire_bytes: u64,
    steps: usize,
    /// Frames pushed over the session's life (set-up GOF included), the
    /// span the `StreamStats` counters cover.
    session_frames: usize,
    viewers: usize,
    overhead: f64,
}

fn per_layer(x: &PerLayerIn<'_>) -> Vec<Metric> {
    let b = x.b;
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let enc_ms = |stages: &[&str]| {
        per(
            stages.iter().map(|s| b.self_ns(s, None)).sum(),
            x.traced_steps,
        ) / 1e6
    };
    let dec_ms = |stage: &str| per(b.self_ns(stage, Some(RECV_SPAN)), x.traced_deliveries) / 1e6;
    let is_broadcast = x.spec.name != "telepresence";
    let allocs = per(x.untraced_allocs, x.untraced_steps);
    let rx = &x.fin.rx;
    // The counters cover the whole session, whose length follows the
    // host's speed; per frame they compare across runs.
    let per_delivery = |n: usize| n as f64 / (x.session_frames * x.viewers).max(1) as f64;
    vec![
        metric("morton.codegen_ms", enc_ms(&["morton/codegen"]), "ms"),
        metric("morton.sort_ms", enc_ms(&["morton/radix_sort"]), "ms"),
        metric(
            "octree.build_ms",
            enc_ms(&["octree/compact", "octree/occupancy"]),
            "ms",
        ),
        metric(
            "intra.encode_ms",
            enc_ms(&["intra/gather", "intra/layer_encode"]),
            "ms",
        ),
        metric("inter.match_ms", enc_ms(&["inter/match"]), "ms"),
        metric("inter.delta_ms", enc_ms(&["inter/delta"]), "ms"),
        metric("core.encode_ms", enc_ms(&["frame/encode"]), "ms"),
        metric("inter.reuse_ratio", x.reference.reuse_ratio, "ratio"),
        metric("intra.decode_ms", dec_ms("intra/layer_decode"), "ms"),
        metric("core.decode_ms", dec_ms("frame/decode"), "ms"),
        metric("stream.recv_ms", dec_ms(RECV_SPAN), "ms"),
        metric(
            "stream.send_us_per_sub",
            per(b.self_ns("stream/send", None), b.calls("stream/send")) / 1e3,
            "us",
        ),
        metric(
            "serve.fanout_ms",
            per(b.total_ns("serve/fanout"), x.traced_steps) / 1e6,
            "ms",
        ),
        metric(
            "serve.push_ms",
            per(b.total_ns(PUSH_SPAN), x.traced_steps) / 1e6,
            "ms",
        ),
        metric(
            "serve.push_allocs_per_frame",
            if is_broadcast { allocs } else { 0.0 },
            "count",
        ),
        metric(
            "stream.send_frame_allocs",
            if is_broadcast { 0.0 } else { allocs },
            "count",
        ),
        metric(
            "serve.resident_kib_per_sub",
            x.resident.unwrap_or(0.0) / 1024.0,
            "KiB",
        ),
        metric(
            "serve.replay_ms",
            per(b.total_ns("serve/replay"), b.calls("serve/replay")) / 1e6,
            "ms",
        ),
        metric(
            "stream.wire_bytes_per_frame",
            x.wire_bytes as f64 / x.steps.max(1) as f64,
            "B",
        ),
        metric("stream.arq_nacks", per_delivery(rx.arq_nacks), "1/frame"),
        metric(
            "stream.arq_recovery_ratio",
            if rx.arq_nacks == 0 {
                0.0
            } else {
                rx.arq_recovered as f64 / rx.arq_nacks as f64
            },
            "ratio",
        ),
        metric("stream.arq_degraded", per_delivery(rx.arq_degraded), "1/frame"),
        metric(
            "stream.refresh_frames",
            x.fin.refresh_frames as f64 / x.session_frames.max(1) as f64,
            "1/frame",
        ),
        metric("stream.bricks_repaired", per_delivery(rx.bricks_repaired), "1/frame"),
        metric("stream.repairs_failed", per_delivery(rx.repairs_failed), "1/frame"),
        metric("stream.partial_frames", per_delivery(rx.partial_frames), "1/frame"),
        metric(
            "trace.unattributed_share",
            per(b.unattributed_ns(FRAME_SPAN), b.frame_ns),
            "ratio",
        ),
        metric("trace.overhead_pct", x.overhead, "%"),
    ]
}

/// The layer a (call, stage) row belongs to, for the breakdown summary:
/// encode stages by crate, then the glass-to-glass legs around them.
fn layer_of(call: &str, stage: &str) -> &'static str {
    match (call, stage) {
        (_, FRAME_SPAN) => "unattributed",
        (workloads::JOIN_SPAN, _) => "late join",
        (_, "serve/fanout") | (PUSH_SPAN, "stream/send") => "fan-out",
        (_, "stream/send") => "wire",
        (_, "stream/demux") | (_, RECV_SPAN) => "receive",
        (RECV_SPAN, _) => "decode",
        _ => match stage.split('/').next() {
            Some("morton") => "morton",
            Some("octree") => "octree",
            Some("intra") => "intra",
            Some("inter") => "inter",
            Some("frame") => "core",
            _ => "session",
        },
    }
}

fn breakdown_table(text: &mut String, b: &Breakdown, workload: &str) {
    let frame = b.frame_ns.max(1) as f64;
    let _ = writeln!(
        text,
        "# {workload} traced self time per frame ({} traced frames, {:.3} ms/frame)",
        b.frames,
        frame / b.frames.max(1) as f64 / 1e6
    );
    let _ = writeln!(
        text,
        "# {:<16} {:<22} {:>8} {:>11} {:>7}",
        "call", "stage", "calls", "ms/frame", "share"
    );
    let mut rows: Vec<_> = b
        .rows
        .iter()
        .filter(|((_, s), _)| *s != FRAME_SPAN)
        .collect();
    rows.sort_by_key(|(_, r)| std::cmp::Reverse(r.self_ns));
    let per_frame = |ns: u64| ns as f64 / b.frames.max(1) as f64 / 1e6;
    for ((call, stage), row) in &rows {
        let _ = writeln!(
            text,
            "# {:<16} {:<22} {:>8} {:>11.3} {:>6.1}%",
            call,
            stage,
            row.calls,
            per_frame(row.self_ns),
            100.0 * row.self_ns as f64 / frame
        );
    }
    let unattributed = b.unattributed_ns(FRAME_SPAN);
    let _ = writeln!(
        text,
        "# {:<16} {:<22} {:>8} {:>11.3} {:>6.1}%",
        "-",
        "(unattributed)",
        b.frames,
        per_frame(unattributed),
        100.0 * unattributed as f64 / frame
    );
    let sum: u64 = b.rows.values().map(|r| r.self_ns).sum();
    let _ = writeln!(
        text,
        "# {:<39} {:>8} {:>11.3} {:>6.1}%",
        "(sum = traced frame time)",
        "",
        per_frame(sum),
        100.0 * sum as f64 / frame
    );
    for (stage, row) in &b.off_lane {
        let _ = writeln!(
            text,
            "# {:<16} {:<22} {:>8} {:>11.3}  (worker lanes, overlaps the rows above)",
            "-",
            stage,
            row.calls,
            per_frame(row.self_ns)
        );
    }
    let mut layers: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for ((call, stage), row) in &b.rows {
        *layers.entry(layer_of(call, stage)).or_default() += row.self_ns;
    }
    let mut layers: Vec<_> = layers.into_iter().collect();
    layers.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    let summary: Vec<String> = layers
        .iter()
        .map(|(l, ns)| format!("{l} {:.1}%", 100.0 * *ns as f64 / frame))
        .collect();
    let _ = writeln!(
        text,
        "# {workload} layers by self time: {}",
        summary.join(", ")
    );
}

/// The `pcc-edge` stage a modeled timeline record is charged to, named by
/// the probe span that measures it.
fn probe_stage_of_model(model: &str) -> &'static str {
    match model {
        "geometry/morton" => "morton/codegen",
        "geometry/sort" => "morton/radix_sort",
        "geometry/octree" => "octree/compact",
        "geometry/occupy" => "octree/occupancy",
        "attribute/gather" => "intra/gather",
        m if m.starts_with("attribute/") => "intra/layer_encode",
        "inter_attr/diff_squared" | "inter_attr/squared_sum" => "inter/match",
        m if m.starts_with("inter_attr/") && m != "inter_attr/gather" => "inter/delta",
        _ => "frame/encode",
    }
}

/// Paper Fig. 2 / 8a comparison: each encode stage's share of modeled
/// edge time next to its share of measured encode self time. Informational.
fn modeled_vs_measured(text: &mut String, b: &Breakdown, reference: &Reference) {
    const STAGES: [&str; 10] = [
        "morton/codegen",
        "morton/radix_sort",
        "octree/compact",
        "octree/occupancy",
        "intra/gather",
        "intra/layer_encode",
        "intra/layer_decode",
        "inter/match",
        "inter/delta",
        "frame/encode",
    ];
    let measured = |s: &str| b.self_ns(s, Some(SEND_SPAN)) + b.self_ns(s, Some(PUSH_SPAN));
    let measured_total: u64 = STAGES.iter().map(|s| measured(s)).sum();
    let mut modeled = std::collections::BTreeMap::<&str, f64>::new();
    for (stage, ms) in &reference.modeled_ms {
        *modeled.entry(probe_stage_of_model(stage)).or_default() += ms;
    }
    let modeled_total: f64 = modeled.values().sum();
    let _ = writeln!(
        text,
        "# encode stage shares: modeled (pcc-edge, Jetson AGX Xavier 15 W) vs measured (this host)"
    );
    let _ = writeln!(text, "# {:<22} {:>9} {:>9}", "stage", "modeled", "measured");
    for s in STAGES {
        let _ = writeln!(
            text,
            "# {:<22} {:>8.1}% {:>8.1}%",
            s,
            100.0 * modeled.get(s).copied().unwrap_or(0.0) / modeled_total.max(f64::MIN_POSITIVE),
            100.0 * measured(s) as f64 / measured_total.max(1) as f64
        );
    }
}

/// Cumulative steal time of all CPUs in clock ticks (`/proc/stat`; 100
/// ticks per second on Linux), where the host exposes it.
fn host_steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Host and build facts every result is reported with.
fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let codec_threads = pcc_parallel::resolve(None).get();
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    format!(
        "# host: nproc={nproc} codec_threads={codec_threads} simd=compiled(avx2 {}) probe=capture \
         rustc=\"{}\" commit={}",
        if avx2 { "detected" } else { "absent" },
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
    )
}

fn json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.errors.is_empty(),
        outcome.attempted.max(1),
        outcome.errors.len(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", host_line());
            println!(
                "# workload={} seed={} seconds={} trace={}",
                args.workload,
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            print!("{}", outcome.text);
            for m in &outcome.metrics {
                println!("# {:<30} {:>14.4} {}", m.name, m.value, m.unit);
            }
            for e in outcome.errors.iter().take(20) {
                eprintln!("perfbench: verification failed: {e}");
            }
            println!("{}", json(&outcome));
            if outcome.errors.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
