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

echo "== modeled figures: experiments all matches experiments_output.txt =="
# Every modeled number the paper tables report is pinned: a change that
# moves one must regenerate experiments_output.txt in the same commit.
cargo run -q --release --offline -p pcc-bench --bin experiments -- all 2>&1 \
    | diff -u experiments_output.txt -

echo "== glass-to-glass benchmark compiles against its lockfile =="
# perfbench is its own workspace with its own Cargo.lock. An API change
# that breaks it, or a dependency change that would rewrite its lockfile,
# fails here rather than in the benchmark run.
cargo check -q --offline --locked --manifest-path perfbench/Cargo.toml

echo "== perf trajectory: hot-path benchmark gate =="
# Re-measures the per-kernel ns/point, steady-state allocs/frame, and
# end-to-end frame latency of BENCH_hotpath.json on the process CPU
# clock; any timed metric more than 15% over the committed baseline
# (PCC_BENCH_TOLERANCE overrides), or a steady-state frame or fan-out
# send that starts allocating, fails the gate.
# Re-baseline an intentional change with PCC_BENCH_REFRESH=1.
cargo run -q --release --offline -p pcc-bench --bin hotpath -- --check

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
# With no controller, stream_video's wire and stats equal the push
# Sender's (tests/stream_transport.rs) and its digest is pinned in
# tests/golden.rs above. The ARQ timing suite rides along:
# backoff/deadline sequences replay on the same clock.
cargo test -q --offline --release --test overload_soak --test arq_timing

echo "== broadcast example: 1 source -> 4 viewers =="
# Healthy, lossy, throttled and late-joining viewers of one shared
# encode, with the example's own assertions. The 112-link broadcast
# pins (late joins, rung traces, sheds) run in the sim soak below.
cargo run -q --release --offline --example broadcast

echo "== codec crate suites: matcher oracle, thread identity, kernels =="
# The root package's run above covers none of the codec crates' own
# unit tests and proptests. Among them: the inter matcher's
# exhaustive-scan oracle (the dense matcher must return the same
# matches, stats and modeled charge over random block lengths, empty
# and >255-point blocks, edge thresholds, window sizes and 1-3 threads)
# and every crate's thread-count identity proptests.
cargo test -q --offline --release -p pcc-inter -p pcc-intra -p pcc-core -p pcc-morton \
    -p pcc-octree -p pcc-parallel -p pcc-types -p pcc-entropy

echo "== stream/serve/sim/fault crate suites: stamp memo, ARQ rings, frame history =="
# The crates' own suites are outside the root package's test run. The
# stamp-memo proptest drives random mixes of on-time, late, resubscribed,
# refinement-shed, P-strided, ARQ and plain subscribers through one
# broadcast: every wire must equal a fresh stamp per subscriber (and
# the on-time one the 1:1 Sender's wire), and every ARQ ring must serve
# exactly the chunk sent under each seq. The
# frame-history proptest checks late-join replay and brick repair
# against a model of the separate resync cache and repair ring it
# replaced. The sim and fault suites cover ddmin, the corpus format,
# links, invariants, and LossyRetransmit over the ring trait.
cargo test -q --offline --release -p pcc-stream -p pcc-serve -p pcc-sim -p pcc-fault

echo "== remaining crate suites: adapt, baselines, device model, datasets, metrics, raht, probe, bench =="
# The last crates whose own unit tests no other step runs: the rate
# ladder, the TMC13/CWIPC baselines, the edge device model, the dataset
# generators, quality metrics, the G-PCC attribute transforms, the probe
# recorder, and the bench crate's figure and locality helpers.
cargo test -q --offline --release -p pcc-adapt -p pcc-baseline -p pcc-edge -p pcc-datasets \
    -p pcc-metrics -p pcc-raht -p pcc-probe -p pcc-bench

echo "== sim soak: deterministic topology simulation + reproducer corpus =="
# Whole-topology simulation on one virtual clock: seeded fault schedules
# (latency/jitter, loss, corruption and brick-damage bursts, partitions,
# throttled wires, transport death + reconnect, late joins, encode
# stalls/panics, consumer stalls) run against a broadcast with a
# perfect-link mirror receiver while invariants are checked
# continuously — byte conservation across every link life, mirror-exact
# delivery, refresh asks answered at the next slot, no starvation on
# quiet links. A fixed budget of 64 generated schedules must stay
# invariant-clean and reach brick repair and partial salvage; a failure
# prints its ddmin-shrunk schedule. Hand-written schedules pin the
# recovery plane and broadcast fan-out exactly: a lost I-frame
# re-anchors at the next slot, a damaged brick repairs bit-exact with no
# refresh, a dead subscriber resumes losslessly, a stalled consumer is
# evicted and returns, and 112 links (throttled degrading slots, late
# joiners, lossy and dead wires) get exact rung traces, sheds and
# lossless late joins. The suite also proves the harness's teeth: a
# deliberately sabotaged byte ledger must be caught, ddmin-shrunk to a
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
# panic, at both Limits regimes. Mutated brick frames also go through
# the repair step (FrameDecoder::decode_with_repair) with NACKs answered
# by mutated, short, missing or original bytes: it never panics, and a
# frame it returns whole equals the clean decode. Run in release so the
# gate stays fast.
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

echo "== clippy: no unchecked indexing on the decode path, one spawn site =="
# Every crate that parses wire-derived bytes carries
# #![deny(clippy::indexing_slicing)] in its lib.rs — a bare slice index
# is a latent panic on hostile input, so access must be get()-style or
# carry a local, justified allow. This invocation makes the deny fire.
# It also denies the root clippy.toml's disallowed methods across the
# whole workspace: threads are spawned only by pcc_parallel::run's worker
# pool and stream_video's pipeline. --all-targets holds tests, examples
# and binaries to the same rule; one that needs a thread of its own
# carries a justified allow.
cargo clippy -q --offline --workspace --all-targets -- -D clippy::disallowed_methods
# The Morton crate holds the one codegen kernel, which every encode runs
# first; it stays free of every clippy warning, not only the two above.
cargo clippy -q --offline -p pcc-morton --all-targets -- -D warnings

echo "== rustdoc: no warnings =="
# Every rustdoc warning is an error here: a doc link to a renamed,
# deleted or private item fails, so API removals cannot leave stale
# references behind in the docs, and redundant links cannot pile up.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "verify: all gates passed"
