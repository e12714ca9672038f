#!/usr/bin/env bash
# Tier-1 verification gate plus a forced single-thread pass.
#
# The parallel execution layer promises byte-identical output at every
# thread count; running the whole suite twice — once at the machine's
# parallelism, once pinned to one thread via PCC_THREADS — exercises both
# the fan-out and the inline paths of every stage.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release --offline

echo "== tier-1: test suite (default threads) =="
cargo test -q --offline

echo "== single-thread pass (PCC_THREADS=1) =="
PCC_THREADS=1 cargo test -q --offline

echo "== probe-enabled pass (PCC_PROBE=1) =="
# Recording spans must not perturb a single test — same suite, probes on.
PCC_PROBE=1 cargo test -q --offline

echo "== golden vectors =="
cargo test -q --offline --test golden

echo "== probes compile out (no-default-features) =="
cargo check -q --offline -p pcc --no-default-features

echo "== bench targets compile =="
cargo check -q --offline -p pcc-bench --benches

echo "== simd feature matrix =="
# The AVX2 Morton lane path must keep compiling with the feature on and
# off (it is runtime-detected, so one binary serves both hosts), and its
# byte-identity proptests must hold with the lanes actually enabled.
cargo check -q --offline -p pcc-morton
cargo check -q --offline -p pcc-morton --features simd
cargo check -q --offline -p pcc-bench --features simd
cargo test -q --offline -p pcc-morton --features simd

echo "== perf trajectory: hot-path benchmark gate =="
# Re-measures the per-kernel ns/point, steady-state allocs/frame, and
# end-to-end frame latency of BENCH_hotpath.json; any timed metric more
# than 15% over the committed baseline (PCC_BENCH_TOLERANCE overrides),
# or a steady-state frame or fan-out send that starts allocating, fails
# the gate.
# Re-baseline an intentional change with PCC_BENCH_REFRESH=1.
cargo run -q --release --offline -p pcc-bench --features simd --bin hotpath -- --check

echo "== live streaming over loopback TCP + seeded-loss ARQ legs =="
# The example asserts 12/12 frames delivered in order, a clean shutdown,
# zero drops/resyncs, and a minimum delivered attribute PSNR — then
# replays the clip over a 10%-loss seeded transport and asserts the
# plain receiver drops frames while the ARQ receiver recovers all of
# them bit-exact. The final reconnect leg kills one broadcast
# subscriber's transport mid-stream and asserts resubscribe resumes it
# losslessly on a fresh wire.
cargo run -q --release --offline --example live_stream

echo "== overload soak: degradation ladder, watchdog, panic containment =="
# A supervised session under a scripted 2x encode overload on a
# throttled transport must degrade >=2 rungs, recover to the top rung
# when the load lifts, deliver every I-frame with no gap over one
# frame, and convert an injected worker panic into exactly one skipped
# frame — all on a FakeClock, so the rung traces are asserted exactly.
# With the controller off, output stays byte-identical to stream_video
# (the golden digests above already pin the wire). The ARQ timing suite
# rides along: backoff/deadline sequences replay on the same clock.
cargo test -q --offline --release --test overload_soak --test arq_timing

echo "== broadcast soak: encode-once fan-out to 100+ subscribers =="
# One shared encoder serving 112 heterogeneous subscribers (healthy,
# seeded-lossy, fake-clock-throttled under per-subscriber degradation,
# late joiners replayed from the frame history, dead transports): exactly
# one encode per frame, healthy wires byte-identical to the 1:1 sender,
# throttled rung traces asserted exactly, late joiners lossless from the
# replayed I-frame. The broadcast example (1 source -> 4 viewers) rides
# along with its own assertions.
cargo test -q --offline --release --test broadcast_soak
cargo run -q --release --offline --example broadcast

echo "== stream/serve/sim/fault crate suites: stamp memo, ARQ rings, frame history =="
# The crates' own suites are outside the root package's test run. The
# stamp-memo proptest drives random mixes of on-time, late, resubscribed,
# refinement-shed, P-strided, ARQ and plain subscribers through one
# broadcast: every wire must equal a fresh stamp per subscriber, and
# every ARQ ring must serve exactly the chunk sent under each seq. The
# frame-history proptest checks late-join replay and brick repair
# against a model of the separate resync cache and repair ring it
# replaced. The sim and fault suites cover ddmin, the corpus format,
# links, invariants, and LossyRetransmit over the ring trait.
cargo test -q --offline --release -p pcc-stream -p pcc-serve -p pcc-sim -p pcc-fault

echo "== chaos soak: recovery plane under seeded faults =="
# The recovery plane replayed deterministically: a dropped I-frame must
# trigger exactly one receiver-driven intra refresh and re-anchor at the
# next slot; a corrupted brick must repair bit-exact from the frame
# history with no refresh; a dead subscriber must resume losslessly via
# resubscribe with carried-over accounting; a stalled consumer must be
# evicted by the liveness policy and be able to return; and the full
# four-subscriber soak must replay identically from its seed (trace and
# all counters compared exactly).
cargo test -q --offline --release --test chaos_soak

echo "== sim soak: deterministic topology simulation + reproducer corpus =="
# Whole-topology simulation on one virtual clock: seeded fault schedules
# (latency/jitter, loss and corruption bursts, partitions, transport
# death + reconnect, encode stalls/panics, consumer stalls) run against
# a broadcast with a perfect-link mirror receiver while invariants are
# checked continuously — byte conservation across every link life,
# mirror-exact delivery, refresh asks answered at the next slot, no
# starvation on quiet links. The suite also proves the harness's teeth:
# a deliberately sabotaged byte ledger must be caught, ddmin-shrunk to a
# 1-minimal reproducer, and replayed through the corpus format to the
# same violation. Every committed tests/sim-corpus/*.sim entry must
# replay green — twice, identically. The simulate example (prints a
# trace and asserts replay identity) rides along.
cargo test -q --offline --release --test sim_soak
cargo run -q --release --offline --example simulate

echo "== fuzz smoke: seeded decode-surface mutations =="
# Fixed-seed corpus (no time, no randomness source beyond the seed):
# 10k+ mutated bitstreams through demux / decode_frame /
# decode_occupancy / the chunk receiver must return Ok-or-Err, never
# panic, at both Limits regimes. Run in release so the gate stays fast.
cargo test -q --offline --release --test fuzz_decode

echo "== brick conformance: goldens, determinism, partial decode, fuzz =="
# The brick-partitioned wire format is pinned four ways: golden digests
# (single- and two-layer, thread-count invariant), sequential-vs-parallel
# and probes-on/off decode identity, full decode == concatenation of
# per-brick partial decodes (proptest over random viewports), and 2k+
# seeded mutations of the brick index and payloads under both Limits
# regimes with damaged bricks never corrupting sibling output (the fuzz
# suite already ran in full above; the other binaries run here). The
# decode_brick_ns_per_point metric rides the hotpath gate above.
cargo test -q --offline --release --test golden --test determinism --test stream_transport

echo "== clippy: no unchecked indexing on the decode path =="
# Every crate that parses wire-derived bytes carries
# #![deny(clippy::indexing_slicing)] in its lib.rs — a bare slice index
# is a latent panic on hostile input, so access must be get()-style or
# carry a local, justified allow. This invocation makes the deny fire.
cargo clippy -q --offline \
    -p pcc-types -p pcc-entropy -p pcc-octree -p pcc-intra -p pcc-inter \
    -p pcc-core -p pcc-stream -p pcc-serve -p pcc-sim -p pcc-fault \
    -p pcc-adapt -p pcc-morton -p pcc-parallel

echo "verify: all gates passed"
