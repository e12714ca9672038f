//! Deterministic fault injection for byte transports.
//!
//! Robustness claims are only as good as the hostile conditions they were
//! tested under, and hostile conditions must be *reproducible* — a loss
//! pattern that breaks the receiver once is worthless if it can't be
//! replayed under a debugger. This crate wraps any `std::io::Write`
//! transport in a [`FaultyTransport`] that injects faults from a seeded
//! PRNG: the same seed, configuration, and write sequence always produce
//! the same damaged byte stream.
//!
//! Fault model — each `write` call is one *record* (the chunk layer in
//! `pcc-stream` issues exactly one write per chunk, so records line up
//! with chunks):
//!
//! * **drop** — the record never reaches the wire.
//! * **reorder** — the record is held back and released after the next
//!   record.
//! * **delay** — held back for 1..=`max_delay` later records.
//! * **corrupt** — one byte at a seeded position is flipped.
//! * **truncate** — the tail is cut at a seeded position.
//! * **duplicate** — the record is written twice.
//!
//! [`LossyRetransmit`] applies the same seeded-loss idea to an ARQ back
//! channel, so retransmission retry budgets can be exercised
//! deterministically too. [`ThrottledTransport`] models a
//! throughput-bound link by charging clock time per byte,
//! [`MortalTransport`] models a link that dies after a fixed number of
//! records (for reconnect/resume testing), and [`panic_on_frames`]
//! builds encode-fault hooks for exercising `pcc-stream`'s panic
//! containment.
//!
//! ```
//! use pcc_fault::{FaultConfig, FaultyTransport};
//! use std::io::Write;
//!
//! let cfg = FaultConfig { drop: 0.5, ..FaultConfig::default() };
//! let run = |seed| {
//!     let mut t = FaultyTransport::new(Vec::new(), cfg.clone(), seed);
//!     for i in 0..64u8 {
//!         t.write_all(&[i; 16]).unwrap();
//!     }
//!     t.flush().unwrap();
//!     let (wire, stats) = t.into_inner();
//!     (wire, stats.dropped)
//! };
//! assert_eq!(run(7), run(7), "same seed must replay exactly");
//! assert_ne!(run(7).0, run(8).0, "different seeds damage differently");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Wire-derived bytes reach this crate: a bare slice index is a latent
// panic on hostile input, so all indexing must be get()-style or carry
// a local, justified allow.
#![deny(clippy::indexing_slicing)]
// Unit tests may index freely: a panic there is a test failure, not a
// reachable fault on wire data.
#![cfg_attr(test, allow(clippy::indexing_slicing))]

use pcc_adapt::Clock;
use pcc_stream::Retransmit;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::Arc;
use std::time::Duration;

/// Per-record fault probabilities (each in `0.0..=1.0`) and bounds.
///
/// Faults are drawn per record in a fixed order — drop, reorder, delay,
/// corrupt, truncate, duplicate — and the first of drop/reorder/delay
/// that fires claims the record (a dropped record is never also
/// corrupted). Corrupt and truncate compose with duplicate.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability a record is silently discarded.
    pub drop: f64,
    /// Probability a record is released *after* the following record.
    pub reorder: f64,
    /// Probability a record is held back for 1..=`max_delay` records.
    pub delay: f64,
    /// Probability one byte of the record is flipped.
    pub corrupt: f64,
    /// Probability the record's tail is cut off.
    pub truncate: f64,
    /// Probability the record is written twice back to back.
    pub duplicate: f64,
    /// Longest hold (in later records) a delayed record can suffer.
    pub max_delay: usize,
    /// The first `immune_prefix` records pass through untouched — e.g.
    /// 1 protects a session's stream-header chunk so loss experiments
    /// measure frame loss, not setup loss.
    pub immune_prefix: usize,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop: 0.0,
            reorder: 0.0,
            delay: 0.0,
            corrupt: 0.0,
            truncate: 0.0,
            duplicate: 0.0,
            max_delay: 2,
            immune_prefix: 0,
        }
    }
}

/// What a [`FaultyTransport`] actually did to the stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Records offered by the writer.
    pub records: usize,
    /// Records discarded.
    pub dropped: usize,
    /// Records released behind a later record.
    pub reordered: usize,
    /// Records held for more than one later record.
    pub delayed: usize,
    /// Records with a flipped byte.
    pub corrupted: usize,
    /// Records with the tail cut off.
    pub truncated: usize,
    /// Records written twice.
    pub duplicated: usize,
}

impl FaultStats {
    /// Total records damaged or withheld in any way.
    pub fn faulted(&self) -> usize {
        self.dropped
            + self.reordered
            + self.delayed
            + self.corrupted
            + self.truncated
            + self.duplicated
    }
}

/// A `Write` combinator that injects seeded faults between a writer and
/// its transport.
///
/// Each `write` call is treated as one record; see the crate docs for
/// the fault model. Held (reordered/delayed) records are released as
/// later records arrive and flushed out by [`flush`](Write::flush), so a
/// cleanly finished session never loses records to the hold queue
/// itself.
#[derive(Debug)]
pub struct FaultyTransport<W: Write> {
    inner: W,
    cfg: FaultConfig,
    rng: SmallRng,
    stats: FaultStats,
    /// Held records: (records still to wait, bytes), in arrival order.
    held: VecDeque<(usize, Vec<u8>)>,
    seen: usize,
}

impl<W: Write> FaultyTransport<W> {
    /// Wraps `inner`, drawing faults from `seed`. Equal seeds, configs,
    /// and write sequences produce byte-identical output.
    pub fn new(inner: W, cfg: FaultConfig, seed: u64) -> Self {
        FaultyTransport {
            inner,
            cfg,
            rng: SmallRng::seed_from_u64(seed),
            stats: FaultStats::default(),
            held: VecDeque::new(),
            seen: 0,
        }
    }

    /// Counters of the damage done so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The fault probabilities currently armed.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Re-arms the transport with new fault probabilities mid-stream.
    ///
    /// The RNG state, record counter, and hold queue carry over — only
    /// the draw probabilities change — so a scripted schedule can switch
    /// between clean passage (`FaultConfig::default()`) and a
    /// deterministic burst (probability `1.0`) at exact record
    /// boundaries while the whole sequence stays replayable from the
    /// construction seed.
    pub fn set_config(&mut self, cfg: FaultConfig) {
        self.cfg = cfg;
    }

    /// Unwraps the transport and the final fault counters. Held records
    /// that were never flushed are discarded (a session that dies
    /// mid-flight loses its in-flight data — that is the point).
    pub fn into_inner(self) -> (W, FaultStats) {
        (self.inner, self.stats)
    }

    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.random::<f64>() < p
    }

    /// Ages the hold queue by one record and writes out everything whose
    /// hold has expired (in arrival order).
    fn tick_held(&mut self) -> io::Result<()> {
        for slot in self.held.iter_mut() {
            slot.0 = slot.0.saturating_sub(1);
        }
        self.release_expired()
    }

    fn release_expired(&mut self) -> io::Result<()> {
        while self.held.front().is_some_and(|(wait, _)| *wait == 0) {
            if let Some((_, bytes)) = self.held.pop_front() {
                self.inner.write_all(&bytes)?;
            }
        }
        Ok(())
    }

    fn process(&mut self, record: &[u8]) -> io::Result<()> {
        let idx = self.seen;
        self.seen += 1;
        self.stats.records += 1;
        if idx < self.cfg.immune_prefix {
            self.inner.write_all(record)?;
            return self.tick_held();
        }
        if self.roll(self.cfg.drop) {
            self.stats.dropped += 1;
            return self.tick_held();
        }
        if self.roll(self.cfg.reorder) {
            self.stats.reordered += 1;
            self.held.push_back((1, record.to_vec()));
            return Ok(());
        }
        if self.roll(self.cfg.delay) {
            self.stats.delayed += 1;
            let wait = self.rng.random_range(1..=self.cfg.max_delay.max(1));
            self.held.push_back((wait, record.to_vec()));
            return Ok(());
        }
        let mut bytes = record.to_vec();
        if !bytes.is_empty() && self.roll(self.cfg.corrupt) {
            self.stats.corrupted += 1;
            let pos = self.rng.random_range(0..bytes.len());
            if let Some(b) = bytes.get_mut(pos) {
                *b ^= 0x55;
            }
        }
        if !bytes.is_empty() && self.roll(self.cfg.truncate) {
            self.stats.truncated += 1;
            let keep = self.rng.random_range(0..bytes.len());
            bytes.truncate(keep);
        }
        let duplicate = self.roll(self.cfg.duplicate);
        if duplicate {
            self.stats.duplicated += 1;
        }
        self.inner.write_all(&bytes)?;
        if duplicate {
            self.inner.write_all(&bytes)?;
        }
        self.tick_held()
    }
}

impl<W: Write> Write for FaultyTransport<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.process(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        // A flush is a quiescent point: everything still held goes out
        // (in order), so hold-induced loss can only happen mid-stream.
        while let Some((_, bytes)) = self.held.pop_front() {
            self.inner.write_all(&bytes)?;
        }
        self.inner.flush()
    }
}

/// A rate-limited `Write` combinator: each record charges the link
/// `ns_per_byte × len` of clock time, modeling a throughput-bound
/// transport without touching the bytes.
///
/// The charge is taken through an injected [`Clock`], so a
/// [`FakeClock`](pcc_adapt::FakeClock) makes throttling deterministic
/// and instantaneous in tests while a
/// [`SystemClock`](pcc_adapt::SystemClock) makes it real. Overload-soak
/// tests combine this with a sender-side supervisor to prove the
/// session degrades instead of stalling when the wire is the
/// bottleneck.
pub struct ThrottledTransport<W: Write> {
    inner: W,
    clock: Arc<dyn Clock>,
    ns_per_byte: u64,
}

impl<W: Write> std::fmt::Debug for ThrottledTransport<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThrottledTransport")
            .field("ns_per_byte", &self.ns_per_byte)
            .finish_non_exhaustive()
    }
}

impl<W: Write> ThrottledTransport<W> {
    /// Wraps `inner`, charging `ns_per_byte` nanoseconds of `clock` time
    /// per byte written. `ns_per_byte = 8_000_000 / kbps` models a link
    /// of `kbps` kilobits per second.
    pub fn new(inner: W, clock: Arc<dyn Clock>, ns_per_byte: u64) -> Self {
        ThrottledTransport { inner, clock, ns_per_byte }
    }

    /// Unwraps the underlying transport.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for ThrottledTransport<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write_all(buf)?;
        let ns = (buf.len() as u64).saturating_mul(self.ns_per_byte);
        if ns > 0 {
            self.clock.sleep(Duration::from_nanos(ns));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A `Write` combinator that dies after a fixed number of records,
/// modeling a transport (socket, relay hop) that goes away mid-session.
///
/// The first `lives` write calls pass through untouched; every write or
/// flush after that fails with [`io::ErrorKind::BrokenPipe`]. Paired
/// with `pcc-serve`'s resubscribe path this exercises the
/// kill-and-reconnect story deterministically: the death point is a
/// record count, not a race.
#[derive(Debug)]
pub struct MortalTransport<W: Write> {
    inner: W,
    lives: usize,
    written: usize,
}

impl<W: Write> MortalTransport<W> {
    /// Wraps `inner`, allowing exactly `lives` successful writes before
    /// the transport starts failing.
    pub fn new(inner: W, lives: usize) -> Self {
        MortalTransport { inner, lives, written: 0 }
    }

    /// Records successfully written before (or instead of) death.
    pub fn written(&self) -> usize {
        self.written
    }

    /// True once the transport has started refusing writes.
    pub fn is_dead(&self) -> bool {
        self.written >= self.lives
    }

    /// Unwraps the underlying transport, keeping whatever bytes made it
    /// through before death.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for MortalTransport<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.written >= self.lives {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "transport died"));
        }
        self.inner.write_all(buf)?;
        self.written += 1;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.written >= self.lives {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "transport died"));
        }
        self.inner.flush()
    }
}

/// An encode-fault hook that panics on the listed frame indices —
/// plug it into `pcc_stream::Supervisor::with_encode_fault` and run
/// `stream_video` to prove a worker panic costs one frame, not the
/// session.
pub fn panic_on_frames(frames: &[usize]) -> impl FnMut(usize) + Send {
    let frames = frames.to_vec();
    move |idx: usize| {
        if frames.contains(&idx) {
            panic!("injected encode fault at frame {idx}");
        }
    }
}

/// A lossy ARQ back channel: forwards [`Retransmit`] requests to an
/// inner source, dropping each response with seeded probability.
///
/// Wrapping a [`pcc_stream::SharedRing`] in this exercises the
/// receiver's retry budget deterministically: a NACK that is "lost" on
/// one attempt may succeed on the next draw.
#[derive(Debug)]
pub struct LossyRetransmit<T: Retransmit> {
    inner: T,
    drop: f64,
    rng: SmallRng,
    /// Retransmissions swallowed by the simulated back channel.
    pub dropped: usize,
}

impl<T: Retransmit> LossyRetransmit<T> {
    /// Wraps `inner`, dropping each retransmission with probability
    /// `drop` drawn from `seed`.
    pub fn new(inner: T, drop: f64, seed: u64) -> Self {
        LossyRetransmit { inner, drop, rng: SmallRng::seed_from_u64(seed), dropped: 0 }
    }
}

impl<T: Retransmit> Retransmit for LossyRetransmit<T> {
    fn retransmit(&mut self, seq: u32) -> Option<Vec<u8>> {
        if self.drop > 0.0 && self.rng.random::<f64>() < self.drop {
            self.dropped += 1;
            return None;
        }
        self.inner.retransmit(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cfg: &FaultConfig, seed: u64, records: usize) -> (Vec<u8>, FaultStats) {
        let mut t = FaultyTransport::new(Vec::new(), cfg.clone(), seed);
        for i in 0..records {
            let record: Vec<u8> = (0..32).map(|b| (b + i) as u8).collect();
            t.write_all(&record).unwrap();
        }
        t.flush().unwrap();
        t.into_inner()
    }

    #[test]
    fn clean_config_is_a_passthrough() {
        let (wire, stats) = run(&FaultConfig::default(), 1, 10);
        assert_eq!(wire.len(), 10 * 32);
        assert_eq!(stats.faulted(), 0);
        assert_eq!(stats.records, 10);
    }

    #[test]
    fn same_seed_replays_exactly_and_seeds_differ() {
        let cfg = FaultConfig {
            drop: 0.2,
            reorder: 0.1,
            delay: 0.1,
            corrupt: 0.2,
            truncate: 0.1,
            duplicate: 0.1,
            ..FaultConfig::default()
        };
        let a = run(&cfg, 42, 200);
        let b = run(&cfg, 42, 200);
        assert_eq!(a, b);
        let c = run(&cfg, 43, 200);
        assert_ne!(a.0, c.0);
    }

    #[test]
    fn drop_one_discards_everything_after_the_immune_prefix() {
        let cfg = FaultConfig { drop: 1.0, immune_prefix: 2, ..FaultConfig::default() };
        let (wire, stats) = run(&cfg, 5, 10);
        assert_eq!(wire.len(), 2 * 32, "only the immune prefix survives");
        assert_eq!(stats.dropped, 8);
    }

    #[test]
    fn corruption_preserves_length_and_truncation_shortens() {
        let cfg = FaultConfig { corrupt: 1.0, ..FaultConfig::default() };
        let (wire, stats) = run(&cfg, 9, 4);
        assert_eq!(wire.len(), 4 * 32);
        assert_eq!(stats.corrupted, 4);
        let clean = run(&FaultConfig::default(), 9, 4).0;
        assert_ne!(wire, clean);

        let cfg = FaultConfig { truncate: 1.0, ..FaultConfig::default() };
        let (wire, stats) = run(&cfg, 9, 4);
        assert!(wire.len() < 4 * 32);
        assert_eq!(stats.truncated, 4);
    }

    #[test]
    fn reorder_swaps_and_flush_releases_holds() {
        // Force-reorder every record: each is held one record, so the
        // stream comes out shifted but nothing is lost once flushed.
        let cfg = FaultConfig { reorder: 1.0, ..FaultConfig::default() };
        let (wire, stats) = run(&cfg, 3, 5);
        assert_eq!(wire.len(), 5 * 32, "flush must release all held records");
        assert_eq!(stats.reordered, 5);
        let clean = run(&FaultConfig::default(), 3, 5).0;
        assert_eq!(
            {
                let mut sorted: Vec<&[u8]> = wire.chunks(32).collect();
                sorted.sort();
                sorted
            },
            {
                let mut sorted: Vec<&[u8]> = clean.chunks(32).collect();
                sorted.sort();
                sorted
            },
            "reordering permutes records, never alters them"
        );
    }

    #[test]
    fn duplicate_writes_twice() {
        let cfg = FaultConfig { duplicate: 1.0, ..FaultConfig::default() };
        let (wire, stats) = run(&cfg, 11, 3);
        assert_eq!(wire.len(), 2 * 3 * 32);
        assert_eq!(stats.duplicated, 3);
    }

    #[test]
    fn throttled_transport_charges_clock_time_per_byte() {
        let clock = pcc_adapt::FakeClock::new();
        let mut t = ThrottledTransport::new(Vec::new(), Arc::new(clock.clone()), 10);
        t.write_all(&[0u8; 100]).unwrap();
        assert_eq!(clock.now(), Duration::from_nanos(1_000));
        t.write_all(&[0u8; 50]).unwrap();
        t.flush().unwrap();
        assert_eq!(clock.now(), Duration::from_nanos(1_500));
        assert_eq!(t.into_inner().len(), 150, "throttling never touches the bytes");
    }

    #[test]
    fn mortal_transport_dies_exactly_on_schedule() {
        let mut t = MortalTransport::new(Vec::new(), 3);
        for i in 0..3u8 {
            t.write_all(&[i; 8]).unwrap();
        }
        assert!(!t.is_dead() || t.written() == 3);
        let err = t.write_all(&[9; 8]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(t.is_dead());
        assert_eq!(t.flush().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(t.written(), 3);
        assert_eq!(t.into_inner().len(), 3 * 8, "pre-death bytes survive");
    }

    #[test]
    fn panic_on_frames_fires_only_on_listed_indices() {
        let mut hook = panic_on_frames(&[3]);
        hook(0);
        hook(2);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook(3)));
        assert!(err.is_err(), "listed frame must panic");
    }

    #[test]
    fn set_config_rearms_mid_stream_without_touching_rng_state() {
        // A scripted burst: clean → drop-everything for 2 records →
        // clean again, switched at exact record boundaries.
        let mut t = FaultyTransport::new(Vec::new(), FaultConfig::default(), 9);
        t.write_all(b"aa").unwrap();
        assert_eq!(t.config(), &FaultConfig::default());
        t.set_config(FaultConfig { drop: 1.0, ..FaultConfig::default() });
        t.write_all(b"bb").unwrap();
        t.write_all(b"cc").unwrap();
        t.set_config(FaultConfig::default());
        t.write_all(b"dd").unwrap();
        t.flush().unwrap();
        let (wire, stats) = t.into_inner();
        assert_eq!(wire, b"aadd");
        assert_eq!(stats.records, 4);
        assert_eq!(stats.dropped, 2);
    }

    #[test]
    fn lossy_retransmit_is_seeded_and_bounded() {
        struct Always;
        impl Retransmit for Always {
            fn retransmit(&mut self, seq: u32) -> Option<Vec<u8>> {
                Some(vec![seq as u8])
            }
        }
        let mut never = LossyRetransmit::new(Always, 1.0, 1);
        assert_eq!(never.retransmit(3), None);
        assert_eq!(never.dropped, 1);
        let mut always = LossyRetransmit::new(Always, 0.0, 1);
        assert_eq!(always.retransmit(3), Some(vec![3]));

        let outcomes = |seed| {
            let mut ch = LossyRetransmit::new(Always, 0.5, seed);
            (0..64u32).map(|s| ch.retransmit(s).is_some()).collect::<Vec<_>>()
        };
        assert_eq!(outcomes(77), outcomes(77), "same seed, same loss pattern");
    }
}
