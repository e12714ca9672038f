//! Fault schedules: the explicit, replayable event lists a simulation
//! runs under.
//!
//! A [`FaultSchedule`] is *data*, not a generator closure: an ordered
//! list of [`FaultEvent`]s, each naming a virtual step, a link, and a
//! [`FaultAction`]. That representation is what makes the rest of the
//! harness possible — schedules can be generated from a seed
//! ([`FaultSchedule::generate`]), shrunk by deleting events
//! ([`crate::shrink`]), serialized to a line-oriented text format for
//! the committed reproducer corpus ([`FaultSchedule::to_text`] /
//! [`FaultSchedule::from_text`]), and replayed bit-identically forever.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One thing that goes wrong (or changes) on one link at one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Set the link's one-way latency and jitter (nanoseconds). Jitter
    /// is drawn per record from the link's seeded RNG; delivery stays
    /// order-preserving (a record never overtakes its predecessor).
    Latency {
        /// Base one-way delay in nanoseconds.
        ns: u64,
        /// Extra uniform random delay in `0..=jitter_ns`.
        jitter_ns: u64,
    },
    /// The next `records` records crossing the link are dropped.
    LossBurst {
        /// How many records the burst consumes.
        records: u32,
    },
    /// The next `records` records crossing the link get one byte
    /// flipped each.
    CorruptBurst {
        /// How many records the burst consumes.
        records: u32,
    },
    /// The next `records` brick-partitioned I-frame records crossing
    /// the link get one byte flipped inside a brick and their payload
    /// CRC restamped, so only the per-brick CRC sees the damage: the
    /// route into brick repair and partial salvage.
    CorruptBrick {
        /// How many brick I-frame records the burst consumes.
        records: u32,
    },
    /// The link holds every record for `steps` virtual steps, then
    /// releases the backlog in order (a routed-around outage, not
    /// loss).
    Partition {
        /// Steps the partition lasts.
        steps: u32,
    },
    /// The transport dies: in-flight records are destroyed and every
    /// later write fails with `BrokenPipe` until a
    /// [`Reconnect`](FaultAction::Reconnect) resumes the slot on a fresh
    /// link.
    KillTransport,
    /// If the subscriber's slot is dead (failed or evicted), resume it:
    /// a fresh link life, a fresh receiver, and a
    /// [`Broadcast::resubscribe`](pcc_serve::Broadcast::resubscribe)
    /// replaying the cached GOF anchor. A no-op on a live slot.
    Reconnect,
    /// The shared encoder stalls for `ns` virtual nanoseconds before
    /// coding this step's frame (a GC pause, a thermal throttle).
    EncodeStall {
        /// Stall length in nanoseconds.
        ns: u64,
    },
    /// The encode for this step's frame panics; containment must skip
    /// the frame and keep the session alive.
    EncodePanic,
    /// The link's subscriber joins at this step and is replayed from
    /// the frame history. A link with a `Join` event starts detached;
    /// invariants skip it until it joins.
    Join,
    /// Every byte written to the link charges the broadcast's send
    /// clock `ns_per_byte` virtual nanoseconds (a slow wire the
    /// subscriber's degradation controller and liveness policy see).
    Throttle {
        /// Per-byte write charge in nanoseconds (0 clears it).
        ns_per_byte: u64,
    },
    /// The receiver behind this link stops draining for `steps` steps;
    /// its link charges the broadcast's send clock so the liveness
    /// policy sees the backpressure.
    ConsumerStall {
        /// Steps the consumer is wedged.
        steps: u32,
    },
}

/// A [`FaultAction`] pinned to a virtual step and a link.
///
/// `link` indexes the schedule's fault-addressable links
/// (`0..links`); the mirror receiver the harness adds for reference
/// delivery rides a perfect link that no event can name. Encoder-side
/// actions (`EncodeStall`, `EncodePanic`) ignore `link`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual step (frame index) the action fires before.
    pub step: u32,
    /// Which link the action targets.
    pub link: u32,
    /// What happens.
    pub action: FaultAction,
}

/// A complete, replayable description of one simulated run's faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Seed the per-link RNGs (jitter, fault draws) derive from — part
    /// of the schedule so a reproducer pins *all* randomness, not just
    /// the event list.
    pub seed: u64,
    /// Virtual steps (= frames pushed) the simulation runs.
    pub frames: u32,
    /// Fault-addressable links (= subscribers, mirror excluded).
    pub links: u32,
    /// The ordered event list. Sorted by step; events sharing a step
    /// fire in list order.
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule: `frames` steps over `links` links with no
    /// faults at all (the baseline every invariant must hold under).
    pub fn quiet(seed: u64, frames: u32, links: u32) -> Self {
        FaultSchedule { seed, frames, links, events: Vec::new() }
    }

    /// Generates a pseudo-random schedule from `seed`: between 4 and 10
    /// events drawn from the action vocabulary (every action but
    /// `Join`, which only hand-written schedules use), each pinned to a
    /// step in `1..frames` and a random link. Every `KillTransport`
    /// gets a matching `Reconnect` a few steps later so kills exercise
    /// the resume path instead of just silencing a link. The same seed
    /// always yields the same schedule.
    pub fn generate(seed: u64, frames: u32, links: u32) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_FA17_5C4Eu64);
        let mut events = Vec::new();
        let count = rng.random_range(4..=10usize);
        let max_step = frames.max(2);
        for _ in 0..count {
            let step = rng.random_range(1..max_step);
            let link = rng.random_range(0..links.max(1));
            let action = match rng.random_range(0..14u32) {
                0 | 1 => FaultAction::Latency {
                    ns: rng.random_range(1_000_000..=60_000_000u64),
                    jitter_ns: rng.random_range(0..=10_000_000u64),
                },
                2 | 3 => FaultAction::LossBurst { records: rng.random_range(1..=3u32) },
                4 | 5 => FaultAction::CorruptBurst { records: rng.random_range(1..=2u32) },
                6 => FaultAction::Partition { steps: rng.random_range(1..=3u32) },
                7 => FaultAction::KillTransport,
                8 => FaultAction::EncodeStall { ns: rng.random_range(5_000_000..=50_000_000u64) },
                9 => FaultAction::EncodePanic,
                10 => FaultAction::ConsumerStall { steps: rng.random_range(1..=2u32) },
                11 => FaultAction::CorruptBrick { records: rng.random_range(1..=2u32) },
                12 => FaultAction::Throttle { ns_per_byte: rng.random_range(1_000..=20_000u64) },
                _ => FaultAction::Latency { ns: rng.random_range(0..=5_000_000u64), jitter_ns: 0 },
            };
            events.push(FaultEvent { step, link, action });
            if matches!(action, FaultAction::KillTransport) {
                let resume = (step + rng.random_range(1..=3u32)).min(max_step.saturating_sub(1));
                events.push(FaultEvent { step: resume, link, action: FaultAction::Reconnect });
            }
        }
        events.sort_by_key(|e| e.step);
        FaultSchedule { seed, frames, links, events }
    }

    /// Events scheduled to fire at `step`, in list order.
    pub fn at(&self, step: u32) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.step == step)
    }

    /// Serializes the schedule to the line-oriented corpus format:
    ///
    /// ```text
    /// # pcc-sim fault schedule v1
    /// seed 42
    /// frames 12
    /// links 3
    /// event 3 1 latency 20000000 2000000
    /// event 5 0 loss 2
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# pcc-sim fault schedule v1\n");
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("frames {}\n", self.frames));
        out.push_str(&format!("links {}\n", self.links));
        for e in &self.events {
            let body = match e.action {
                FaultAction::Latency { ns, jitter_ns } => format!("latency {ns} {jitter_ns}"),
                FaultAction::LossBurst { records } => format!("loss {records}"),
                FaultAction::CorruptBurst { records } => format!("corrupt {records}"),
                FaultAction::Partition { steps } => format!("partition {steps}"),
                FaultAction::KillTransport => "kill".to_string(),
                FaultAction::Reconnect => "reconnect".to_string(),
                FaultAction::EncodeStall { ns } => format!("stall-encode {ns}"),
                FaultAction::EncodePanic => "panic-encode".to_string(),
                FaultAction::ConsumerStall { steps } => format!("stall-consumer {steps}"),
                FaultAction::CorruptBrick { records } => format!("corrupt-brick {records}"),
                FaultAction::Join => "join".to_string(),
                FaultAction::Throttle { ns_per_byte } => format!("throttle {ns_per_byte}"),
            };
            out.push_str(&format!("event {} {} {body}\n", e.step, e.link));
        }
        out
    }

    /// Parses the format written by [`to_text`](Self::to_text).
    /// Blank lines and `#` comments are ignored. Returns a description
    /// of the first malformed line on error.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut seed = None;
        let mut frames = None;
        let mut links = None;
        let mut events = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_ascii_whitespace();
            let head = parts.next().unwrap_or_default();
            fn next_num<'a>(
                parts: &mut impl Iterator<Item = &'a str>,
                lineno: usize,
                what: &str,
            ) -> Result<u64, String> {
                parts
                    .next()
                    .ok_or_else(|| format!("line {}: missing {what}", lineno + 1))?
                    .parse::<u64>()
                    .map_err(|_| format!("line {}: bad {what}", lineno + 1))
            }
            match head {
                "seed" => seed = Some(next_num(&mut parts, lineno, "seed")?),
                "frames" => frames = Some(next_num(&mut parts, lineno, "frames")? as u32),
                "links" => links = Some(next_num(&mut parts, lineno, "links")? as u32),
                "event" => {
                    let step = next_num(&mut parts, lineno, "step")? as u32;
                    let link = next_num(&mut parts, lineno, "link")? as u32;
                    let verb = parts
                        .next()
                        .ok_or_else(|| format!("line {}: missing action", lineno + 1))?;
                    let action = match verb {
                        "latency" => FaultAction::Latency {
                            ns: next_num(&mut parts, lineno, "latency ns")?,
                            jitter_ns: next_num(&mut parts, lineno, "jitter ns")?,
                        },
                        "loss" => FaultAction::LossBurst { records: next_num(&mut parts, lineno, "records")? as u32 },
                        "corrupt" => FaultAction::CorruptBurst { records: next_num(&mut parts, lineno, "records")? as u32 },
                        "partition" => FaultAction::Partition { steps: next_num(&mut parts, lineno, "steps")? as u32 },
                        "kill" => FaultAction::KillTransport,
                        "reconnect" => FaultAction::Reconnect,
                        "stall-encode" => FaultAction::EncodeStall { ns: next_num(&mut parts, lineno, "stall ns")? },
                        "panic-encode" => FaultAction::EncodePanic,
                        "stall-consumer" => {
                            FaultAction::ConsumerStall { steps: next_num(&mut parts, lineno, "steps")? as u32 }
                        }
                        "corrupt-brick" => FaultAction::CorruptBrick {
                            records: next_num(&mut parts, lineno, "records")? as u32,
                        },
                        "join" => FaultAction::Join,
                        "throttle" => FaultAction::Throttle {
                            ns_per_byte: next_num(&mut parts, lineno, "ns per byte")?,
                        },
                        other => {
                            return Err(format!("line {}: unknown action {other:?}", lineno + 1))
                        }
                    };
                    events.push(FaultEvent { step, link, action });
                }
                other => return Err(format!("line {}: unknown directive {other:?}", lineno + 1)),
            }
        }
        Ok(FaultSchedule {
            seed: seed.ok_or("missing `seed` line")?,
            frames: frames.ok_or("missing `frames` line")?,
            links: links.ok_or("missing `links` line")?,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_in_bounds() {
        let a = FaultSchedule::generate(7, 12, 3);
        let b = FaultSchedule::generate(7, 12, 3);
        assert_eq!(a, b, "same seed must yield the same schedule");
        assert!(!a.events.is_empty());
        for e in &a.events {
            assert!(e.step >= 1 && e.step < 12);
            assert!(e.link < 3);
        }
        let c = FaultSchedule::generate(8, 12, 3);
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn every_generated_kill_has_a_reconnect() {
        for seed in 0..50 {
            let s = FaultSchedule::generate(seed, 12, 3);
            for e in &s.events {
                if matches!(e.action, FaultAction::KillTransport) {
                    assert!(
                        s.events.iter().any(|r| r.link == e.link
                            && r.step >= e.step
                            && matches!(r.action, FaultAction::Reconnect)),
                        "seed {seed}: kill on link {} at step {} has no reconnect",
                        e.link,
                        e.step
                    );
                }
            }
        }
    }

    #[test]
    fn text_round_trips_every_action() {
        let schedule = FaultSchedule {
            seed: 99,
            frames: 12,
            links: 3,
            events: vec![
                FaultEvent {
                    step: 1,
                    link: 0,
                    action: FaultAction::Latency { ns: 5_000_000, jitter_ns: 1_000 },
                },
                FaultEvent { step: 2, link: 1, action: FaultAction::LossBurst { records: 2 } },
                FaultEvent { step: 3, link: 2, action: FaultAction::CorruptBurst { records: 1 } },
                FaultEvent { step: 4, link: 0, action: FaultAction::Partition { steps: 2 } },
                FaultEvent { step: 5, link: 1, action: FaultAction::KillTransport },
                FaultEvent { step: 6, link: 1, action: FaultAction::Reconnect },
                FaultEvent { step: 7, link: 0, action: FaultAction::EncodeStall { ns: 9 } },
                FaultEvent { step: 8, link: 0, action: FaultAction::EncodePanic },
                FaultEvent { step: 9, link: 2, action: FaultAction::ConsumerStall { steps: 1 } },
                FaultEvent { step: 10, link: 0, action: FaultAction::CorruptBrick { records: 2 } },
                FaultEvent { step: 10, link: 1, action: FaultAction::Join },
                FaultEvent { step: 11, link: 2, action: FaultAction::Throttle { ns_per_byte: 700 } },
            ],
        };
        let text = schedule.to_text();
        let back = FaultSchedule::from_text(&text).expect("round trip parses");
        assert_eq!(schedule, back);
    }

    #[test]
    fn parser_rejects_garbage_with_line_numbers() {
        assert!(FaultSchedule::from_text("frames 3\nlinks 1").is_err(), "missing seed");
        let err = FaultSchedule::from_text("seed 1\nframes 2\nlinks 1\nevent 1 0 warp 9")
            .expect_err("unknown action");
        assert!(err.contains("line 4"), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header\n\nseed 5\nframes 4\nlinks 2\n# trailing\n";
        let s = FaultSchedule::from_text(text).unwrap();
        assert_eq!((s.seed, s.frames, s.links), (5, 4, 2));
        assert!(s.events.is_empty());
    }
}
