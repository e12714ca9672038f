//! Closed-loop overload control for live point-cloud encoding.
//!
//! The paper's whole premise is meeting a real-time budget on a
//! constrained edge device, and its design space is a natural *quality
//! ladder*: two inter operating points (V1/V2 reuse thresholds), an
//! optional second intra attribute layer, and an IPP group-of-frames
//! cadence whose P-frames are individually expendable. This crate turns
//! that ladder into a feedback loop a streaming session can run live:
//!
//! * [`clock`] — a [`Clock`] abstraction with a real [`SystemClock`] and
//!   a seeded-test-friendly [`FakeClock`], so every degradation sequence
//!   is replayable without `sleep`-based flakiness.
//! * [`ladder`] — [`QualityLadder`]: ordered [`Rung`]s from full quality
//!   down to P-frame shedding, each wire-compatible with the stream's
//!   announced design (receivers need no signalling to follow along).
//! * [`controller`] — [`Controller`]: walks the ladder using per-frame
//!   encode time, transmit-queue depth, and receiver-side loss feedback,
//!   with streak hysteresis so it degrades fast and climbs back slowly
//!   instead of oscillating.
//!
//! The controller is a pure function of the observations fed to it —
//! time enters only through whatever [`Clock`] the caller samples — so
//! the same observation sequence always yields the same rung trace.
//! `pcc-stream` wires this into `stream_video` through its `Supervisor`;
//! nothing here depends on the transport.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Control decisions are driven by wire-fed counters; keep the same
// index-discipline as the decode-path crates.
#![deny(clippy::indexing_slicing)]
// Unit tests may index freely: a panic there is a test failure, not a
// reachable fault on live data.
#![cfg_attr(test, allow(clippy::indexing_slicing))]

pub mod clock;
pub mod controller;
pub mod ladder;

pub use clock::{Clock, FakeClock, SystemClock};
pub use controller::{Controller, ControllerConfig, FrameObservation};
pub use ladder::{QualityLadder, Rung};
