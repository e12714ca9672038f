//! Deterministic whole-topology simulation for the streaming stack.
//!
//! FoundationDB-style simulation testing for `pcc-serve` / `pcc-stream`
//! sessions: an entire topology — one [`Broadcast`](pcc_serve::Broadcast)
//! source plus N heterogeneous receivers with feedback and recovery
//! channels — runs on a single virtual clock under an explicit, seeded
//! [`FaultSchedule`], with invariants evaluated continuously and any
//! violation delta-debugged down to a minimal, committable reproducer.
//!
//! * [`schedule`] — the fault vocabulary ([`FaultAction`]: latency and
//!   jitter, loss, corruption and brick-damage bursts, partitions,
//!   throttled wires, transport death and reconnect, late joins, encode
//!   stalls and panics, consumer stalls), seeded schedule generation,
//!   and the line-oriented text format corpus entries use.
//! * [`link`] — [`SimLink`]: a discrete-event delivery queue between
//!   the broadcast and one receiver, applying latency on the virtual
//!   clock and bursts through [`pcc_fault::FaultyTransport`] at exact
//!   record boundaries, with byte ledgers at both ends.
//! * [`harness`] — [`run`]: builds the topology (mirror receiver on a
//!   perfect link as the bit-exactness reference; recovery / ARQ /
//!   plain / degrading receiver roles round-robin), drives the schedule
//!   step by step, and returns a [`SimReport`] that is identical across
//!   replays of the same schedule.
//! * [`invariants`] — the checked properties: byte conservation across
//!   every link life, delivered-frame integrity against the mirror
//!   (geometry-only for frames decoded from a refinement-shed anchor),
//!   refresh asks answered at the next encoded slot, no starvation on
//!   quiet links, and exact receiver-side ledgers.
//! * [`shrink`] — ddmin over the event list: a failing schedule is
//!   reduced to a 1-minimal reproducer that still violates the same
//!   invariant.
//! * [`corpus`] — reading and writing the committed `tests/sim-corpus`
//!   reproducer files replayed by the regression runner.
//!
//! The test-only [`Sabotage`] hook deliberately breaks a byte ledger so
//! the suite can prove the conservation invariant actually fires and
//! that shrinking converges — the harness validating itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::indexing_slicing)]
#![cfg_attr(test, allow(clippy::indexing_slicing))]

pub mod corpus;
pub mod harness;
pub mod invariants;
pub mod link;
pub mod schedule;
pub mod shrink;

pub use harness::{run, SimConfig, SimReport};
pub use invariants::Violation;
pub use link::{Sabotage, SimLink, SimPipe, SimTransport};
pub use schedule::{FaultAction, FaultEvent, FaultSchedule};
pub use shrink::shrink as shrink_schedule;
