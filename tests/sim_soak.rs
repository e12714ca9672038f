//! Deterministic simulation soak: seeded whole-topology fault
//! schedules, continuous invariants, shrinking reproducers, the
//! committed regression corpus, and the pinned outcomes of the recovery
//! plane and of broadcast fan-out.
//!
//! Five layers of assurance:
//!
//! 1. **Exploration** — a fixed budget of seeded schedules over the
//!    full fault vocabulary runs invariant-clean (byte conservation,
//!    mirror-exact delivery, refresh-answered, no starvation) and
//!    reaches brick repair and partial salvage; a failure prints its
//!    ddmin-shrunk schedule.
//! 2. **Replay identity** — the same schedule produces the identical
//!    [`SimReport`] (trace and every counter) on every run.
//! 3. **Self-validation** — a deliberately broken byte ledger (the
//!    test-only [`Sabotage`] hook) is *caught* by the conservation
//!    invariant, *shrunk* by ddmin to a 1-minimal schedule, and the
//!    shrunk reproducer *replays* to the same violation through the
//!    corpus file format.
//! 4. **Regression corpus** — every committed `tests/sim-corpus/*.sim`
//!    entry replays green and replay-identically.
//! 5. **Pinned outcomes** — hand-written schedules pin the exact
//!    re-anchor slot of a lost I-frame, bit-exact brick repair, a dead
//!    subscriber's lossless resume, liveness eviction, and a 112-link
//!    broadcast's late joins, rung traces and sheds.

use std::path::PathBuf;

use pcc::sim::{
    corpus, invariants, run, shrink_schedule, FaultAction, FaultSchedule, Sabotage, SimConfig,
    SimReport,
};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("sim-corpus")
}

/// A lighter workload for shrink probes (ddmin runs the sim many
/// times).
fn probe_config(sabotage: Sabotage) -> SimConfig {
    SimConfig { points: 350, sabotage, ..SimConfig::default() }
}

/// Runs a schedule written in the corpus text format and asserts it
/// stays invariant-clean.
fn run_text(text: &str, config: &SimConfig) -> SimReport {
    let schedule = FaultSchedule::from_text(text).expect("schedule text parses");
    let report = run(&schedule, config);
    let tail: Vec<&String> = report.trace.iter().rev().take(8).collect();
    assert!(report.ok(), "{}\ntrace tail: {tail:?}", report.summary());
    report
}

/// Frame indices receiver `rx` delivered, in order, from the trace.
fn deliveries(trace: &[String], rx: u32) -> Vec<usize> {
    let who = format!("rx{rx}");
    trace
        .iter()
        .filter_map(|line| {
            let mut words = line.split_whitespace().skip(1);
            (words.next() == Some(who.as_str()) && words.next() == Some("deliver"))
                .then(|| words.next()?.strip_prefix("idx=")?.parse().ok())
                .flatten()
        })
        .collect()
}

#[test]
fn seeded_exploration_runs_invariant_clean() {
    let config = SimConfig::default();
    let (mut nacks, mut repaired, mut partial) = (0, 0, 0);
    for seed in 0..64u64 {
        let schedule = FaultSchedule::generate(seed, 12, 4);
        assert!(!schedule.events.is_empty(), "seed {seed} generated no events");
        let report = run(&schedule, &config);
        if let Some(v) = &report.violation {
            let shrunk = shrink_schedule(&schedule, |candidate| {
                run(candidate, &config).violation.is_some_and(|w| w.invariant == v.invariant)
            });
            panic!("seed {seed} violated {v}; shrunk reproducer:\n{}", shrunk.to_text());
        }
        assert_eq!(
            report.mirror.frames_delivered as u64, report.serve.frames_encoded,
            "seed {seed}: the mirror must see every encoded frame"
        );
        for rx in report.receivers.iter().chain(&report.retired) {
            nacks += rx.brick_nacks;
            repaired += rx.frames_repaired;
            partial += rx.partial_frames;
        }
    }
    assert!(nacks > 0, "the budget never NACKed a damaged brick");
    assert!(repaired > 0, "the budget never repaired a frame");
    assert!(partial > 0, "the budget never salvaged a partial frame");
}

#[test]
fn quiet_schedule_delivers_everything_everywhere() {
    let schedule = FaultSchedule::quiet(3, 10, 3);
    let report = run(&schedule, &SimConfig::default());
    assert!(report.ok(), "{}", report.summary());
    assert_eq!(report.serve.frames_encoded, 10);
    for (r, rx) in report.receivers.iter().enumerate() {
        assert_eq!(rx.frames_delivered, 10, "rx{r} missed frames on a fault-free run");
        assert_eq!(rx.frames_dropped, 0, "rx{r} booked loss on a fault-free run");
    }
    assert!(report.retired.is_empty(), "no reconnects happen on a quiet schedule");
}

#[test]
fn same_schedule_replays_the_identical_report() {
    let schedule = FaultSchedule::generate(7, 12, 3);
    let config = SimConfig::default();
    let first = run(&schedule, &config);
    let second = run(&schedule, &config);
    assert!(first.ok(), "{}", first.summary());
    assert_eq!(first, second, "same seed must replay trace- and counter-identically");

    // And a different seed actually diverges (the comparison has teeth).
    let other = run(&FaultSchedule::generate(8, 12, 3), &config);
    assert_ne!(first.trace, other.trace, "different schedules must produce different traces");
}

/// The acceptance path end to end: inject a byte-accounting bug via the
/// test-only sabotage hook, watch the conservation invariant catch it,
/// shrink the schedule to a minimal reproducer, and replay the
/// reproducer through the corpus file format to the same violation.
#[test]
fn injected_ledger_bug_is_caught_shrunk_and_replayed() {
    let sabotage = Sabotage::MiscountCorrupted;
    let config = probe_config(sabotage);

    // Find a seeded schedule whose corruption burst trips the sabotaged
    // ledger (most seeds carry one; scan a few to stay robust).
    let mut found = None;
    for seed in 0..32u64 {
        let schedule = FaultSchedule::generate(seed, 10, 3);
        if !schedule.events.iter().any(|e| matches!(e.action, FaultAction::CorruptBurst { .. })) {
            continue;
        }
        let report = run(&schedule, &config);
        if let Some(v) = &report.violation {
            assert_eq!(
                v.invariant,
                invariants::BYTE_CONSERVATION,
                "sabotaged ledger must surface as byte-conservation, got {v}"
            );
            found = Some((schedule, report.clone()));
            break;
        }
    }
    let (schedule, report) = found.expect("some seed in 0..32 must trip the sabotaged ledger");
    let original_events = schedule.events.len();
    assert!(original_events > 1, "shrinking needs something to delete");

    // Sanity: the same schedule with honest accounting is green — the
    // violation is the injected bug, not a real one.
    let honest = run(&schedule, &probe_config(Sabotage::None));
    assert!(honest.ok(), "schedule must be green without sabotage: {}", honest.summary());

    // Shrink: keep deleting events while the run still violates byte
    // conservation.
    let shrunk = shrink_schedule(&schedule, |candidate| {
        run(candidate, &config)
            .violation
            .is_some_and(|v| v.invariant == invariants::BYTE_CONSERVATION)
    });
    assert!(
        shrunk.events.len() < original_events,
        "ddmin made no progress on {original_events} events"
    );
    assert_eq!(
        shrunk.events.len(),
        1,
        "1-minimal reproducer expected, kept: {:?}",
        shrunk.events
    );
    assert!(
        matches!(shrunk.events.first().unwrap().action, FaultAction::CorruptBurst { .. }),
        "the surviving event must be the corruption burst the sabotage keys on"
    );

    // Write the reproducer through the corpus format and replay it: the
    // loaded schedule must reproduce the same violation, and the
    // original report's violation must match what the full schedule saw.
    let dir = std::env::temp_dir().join(format!("pcc-sim-repro-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = corpus::write_entry(
        &dir,
        "ledger-bug",
        &shrunk,
        &format!("shrunk from {original_events} events; proves {}", invariants::BYTE_CONSERVATION),
    )
    .expect("reproducer writes");
    let loaded = corpus::load_dir(&dir).expect("reproducer loads");
    assert_eq!(loaded.len(), 1);
    let (loaded_path, loaded_schedule) = loaded.into_iter().next().unwrap();
    assert_eq!(loaded_path, path);
    assert_eq!(loaded_schedule, shrunk, "corpus round trip must be lossless");

    let replayed = run(&loaded_schedule, &config);
    let violation = replayed.violation.expect("reproducer must still violate");
    assert_eq!(violation.invariant, invariants::BYTE_CONSERVATION);
    assert_eq!(
        violation.invariant,
        report.violation.as_ref().unwrap().invariant,
        "shrunk reproducer must violate the same invariant as the original run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every committed corpus entry replays green — twice, identically.
/// A red entry here is a regression with a ready-made minimal
/// reproducer attached.
#[test]
fn committed_corpus_replays_green_and_identically() {
    let entries = corpus::load_dir(&corpus_dir()).expect("corpus directory loads");
    assert!(
        entries.len() >= 2,
        "the committed corpus must hold at least two entries, found {}",
        entries.len()
    );
    let config = SimConfig::default();
    for (path, schedule) in entries {
        let first = run(&schedule, &config);
        assert!(
            first.ok(),
            "{}: corpus entry went red: {}\ntrace tail: {:?}",
            path.display(),
            first.violation.as_ref().unwrap(),
            first.trace.iter().rev().take(8).collect::<Vec<_>>(),
        );
        let second = run(&schedule, &config);
        assert_eq!(first, second, "{}: corpus replay must be identical", path.display());
    }
}

/// A lost I-frame on a recovery link: the receiver drops the orphaned
/// P4, asks for a refresh at the gap, and the shared encoder re-anchors
/// at the very next slot (5) instead of the scheduled I6.
#[test]
fn lost_anchor_triggers_refresh_and_re_anchors_at_the_next_slot() {
    let report = run_text(
        "seed 1\nframes 9\nlinks 1\n\
         event 3 0 loss 1\n",
        &SimConfig::default(),
    );
    assert_eq!(deliveries(&report.trace, 0), [0, 1, 2, 5, 6, 7, 8]);
    assert!(report.trace.iter().any(|l| l == "s5 encode idx=5 kind=Intra"), "slot 5 re-anchors");
    let rx = &report.receivers[0];
    assert_eq!(rx.refresh_requests, 1, "one desync, one ask");
    assert_eq!(rx.frames_dropped, 2);
    assert_eq!(rx.resyncs, 1);
    assert!(rx.clean_shutdown);
    // The mirror and the link each booked the forced I-frame.
    let sent = &report.serve.aggregate;
    assert_eq!(sent.refresh_frames, 2);
    assert!(sent.refresh_bytes > 0 && sent.refresh_bytes < sent.bytes_sent);
}

/// A byte flipped inside a brick behind a restamped payload CRC is
/// mended from the frame history: the I-frame and both its P-frames
/// deliver bit-exact (the integrity invariant), with no refresh.
#[test]
fn damaged_brick_is_repaired_bit_exact_without_a_refresh() {
    let report = run_text(
        "seed 1\nframes 3\nlinks 1\n\
         event 0 0 corrupt-brick 1\n",
        &SimConfig::default(),
    );
    assert_eq!(deliveries(&report.trace, 0), [0, 1, 2]);
    let rx = &report.receivers[0];
    assert!(rx.brick_nacks >= 1, "the damaged cell was NACKed");
    assert_eq!(rx.frames_repaired, 1);
    assert!(rx.bricks_repaired >= 1);
    assert_eq!(rx.partial_frames, 0, "repair is whole, not salvage");
    assert_eq!((rx.refresh_requests, rx.frames_dropped, rx.repairs_failed), (0, 0, 0));
}

/// A transport killed before frame 3 fails the slot there; a reconnect
/// resumes it on a fresh link from the replayed I3, so across both
/// lives every frame arrives exactly once. A reconnect on a live link
/// is refused.
#[test]
fn dead_subscriber_resumes_losslessly_on_a_fresh_transport() {
    let report = run_text(
        "seed 1\nframes 9\nlinks 2\n\
         event 3 0 kill\n\
         event 4 0 reconnect\n\
         event 4 1 reconnect\n",
        &SimConfig::default(),
    );
    let trace = &report.trace;
    assert!(trace.iter().any(|l| l == "s3 rx0 health Some(Live) -> Some(Failed { at_frame: 3 })"));
    assert!(trace.iter().any(|l| l == "s4 ev link1 reconnect (noop: live)"));
    let resumed = trace.iter().position(|l| l == "s4 ev link0 reconnect life=2 resumed=true").unwrap();
    assert_eq!(deliveries(&trace[..resumed], 0), [0, 1, 2]);
    assert_eq!(deliveries(&trace[resumed..], 0), [3, 4, 5, 6, 7, 8]);
    assert!(report.receivers[0].clean_shutdown, "the resumed wire gets a real end chunk");
    assert!(report.mirror.clean_shutdown && report.receivers[1].clean_shutdown);
    let serve = &report.serve;
    assert_eq!((serve.resubscribes, serve.subscribers_failed), (1, 1));
    assert_eq!(serve.subscribers_active(), 3);
    // Mirror, both lives of link 0, and link 1 each sent all 9 frames:
    // frame 3's failed send was never booked, its replay was.
    assert_eq!(serve.aggregate.frames_sent, 3 * 9);
}

/// A consumer that stops draining blows the 100 ms send deadline on
/// frames 0 and 1 and is evicted at the second miss; the liveness
/// policy is per slot, and the evicted slot can come back.
#[test]
fn stalled_consumer_is_evicted_by_liveness_and_can_return() {
    let report = run_text(
        "seed 1\nframes 6\nlinks 2\n\
         event 0 0 stall-consumer 2\n\
         event 2 0 reconnect\n",
        &SimConfig::default(),
    );
    let health: Vec<&String> = report.trace.iter().filter(|l| l.contains(" health ")).collect();
    assert_eq!(
        health,
        [
            "s1 rx0 health Some(Live) -> Some(Evicted { at_frame: 1 })",
            "s2 rx0 health Some(Evicted { at_frame: 1 }) -> Some(Live)",
        ]
    );
    let serve = &report.serve;
    assert_eq!(serve.subscribers_evicted, 1);
    assert_eq!(serve.resubscribes, 1);
    assert_eq!(serve.subscribers_failed, 0, "eviction is policy, not transport failure");
    assert_eq!(serve.subscribers_active(), 3);
}

/// One shared encode fanned out to 112 links plus the mirror: plain
/// links eat loss and corruption bursts, ten degrading links sit behind
/// throttled wires, ten links join at step 5, and two die before the
/// first frame. Without bricks, I-frames are sheddable, so the
/// throttled slots walk the ladder one rung per GOF (refinement shed
/// at I6 and I9, P11 strided).
#[test]
fn broadcast_serves_a_hundred_heterogeneous_subscribers_from_one_encode() {
    // Roles by link % 4: recovery, ARQ, plain, degrading.
    let report = run_text(
        "seed 9\nframes 12\nlinks 112\n\
         event 0 3 throttle 10000\nevent 0 7 throttle 10000\nevent 0 11 throttle 10000\n\
         event 0 15 throttle 10000\nevent 0 19 throttle 10000\nevent 0 23 throttle 10000\n\
         event 0 27 throttle 10000\nevent 0 31 throttle 10000\nevent 0 35 throttle 10000\n\
         event 0 39 throttle 10000\n\
         event 0 50 kill\nevent 0 51 kill\n\
         event 1 54 loss 1\nevent 3 58 loss 1\nevent 4 62 corrupt 1\n\
         event 7 70 loss 2\nevent 9 66 corrupt 1\nevent 11 74 loss 1\n\
         event 5 40 join\nevent 5 41 join\nevent 5 42 join\nevent 5 43 join\nevent 5 44 join\n\
         event 5 45 join\nevent 5 46 join\nevent 5 47 join\nevent 5 48 join\nevent 5 49 join\n",
        &SimConfig { brick_depth: 0, ..SimConfig::default() },
    );
    let throttled: Vec<u32> = (3..40).step_by(4).collect();
    let joiners: Vec<u32> = (40..50).collect();
    let lossy = [(54, 1), (58, 3), (62, 1), (66, 3), (70, 2), (74, 1)];

    let serve = &report.serve;
    assert_eq!(serve.frames_encoded, 12, "exactly one encode per pushed frame");
    assert_eq!(serve.subscribers_joined, 113);
    assert_eq!(serve.subscribers_failed, 2);
    assert_eq!(serve.late_joins, 10);
    assert_eq!(serve.replayed_frames, 20, "each late joiner replays [I3, P4]");
    assert_eq!(serve.sheds_refinement, 20, "I6 and I9 per throttled slot");
    assert_eq!(serve.sheds_p_stride, 10, "P11 per throttled slot");
    assert_eq!(serve.aggregate.rung_changes, 30);
    // Mirror and 90 full streams, throttled slots without P11, late
    // joiners' replayed [I3, P4] plus live 5..12.
    assert_eq!(serve.aggregate.frames_sent, 12 + 90 * 12 + 10 * 11 + 10 * (2 + 7));
    assert!(serve.fanout_ratio() > 100.0, "fan-out ratio: {}", serve.fanout_ratio());

    // Rung changes land on I-frames, only on the throttled slots.
    let mut rungs: Vec<String> =
        report.trace.iter().filter(|l| l.contains(" rung ")).cloned().collect();
    let mut expected: Vec<String> = throttled
        .iter()
        .flat_map(|r| [(3, 1), (6, 2), (9, 3)].map(|(i, n)| format!("s{i} rx{r} rung {n} from idx={i}")))
        .collect();
    rungs.sort();
    expected.sort();
    assert_eq!(rungs, expected);

    for (r, rx) in (0u32..).zip(&report.receivers) {
        if throttled.contains(&r) {
            let want: Vec<usize> = (0..12).filter(|&i| i != 11).collect();
            assert_eq!(deliveries(&report.trace, r), want, "rx{r}: the stride withholds exactly P11");
            assert_eq!((rx.frames_dropped, rx.resyncs), (1, 0), "rx{r}: degradation never desyncs");
            assert!(rx.clean_shutdown);
        } else if joiners.contains(&r) {
            assert_eq!(deliveries(&report.trace, r), (3..12).collect::<Vec<_>>(), "rx{r}");
            let first = format!("s5 rx{r} deliver idx=3 kind=Intra");
            assert!(report.trace.contains(&first), "rx{r} starts at the replayed I3");
            assert_eq!((rx.frames_dropped, rx.resyncs), (0, 0), "rx{r} booked pre-join frames as loss");
            assert!(rx.clean_shutdown);
        } else if let Some(&(_, lost)) = lossy.iter().find(|(l, _)| *l == r) {
            assert_eq!(rx.frames_dropped, lost, "rx{r}");
            assert_eq!(rx.frames_delivered, 12 - lost, "rx{r}");
        } else if r == 50 || r == 51 {
            assert_eq!(rx.frames_delivered, 0, "rx{r} died after its header");
        } else {
            assert_eq!((rx.frames_delivered, rx.frames_dropped), (12, 0), "rx{r}");
            assert!(rx.clean_shutdown);
        }
    }
}
