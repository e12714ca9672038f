//! Simulated links: virtual-latency, fault-injecting wires between the
//! broadcast and its receivers.
//!
//! A [`SimLink`] is one subscriber's wire, modeled as a discrete-event
//! delivery queue keyed on [`FakeClock`] nanoseconds. The broadcast
//! writes records (one write per chunk record, a granularity
//! [`pcc_stream::ChunkWriter`] guarantees) into the queue via the
//! [`SimTransport`] handle; [`SimLink::pump`] releases records whose
//! delivery time has come through a [`FaultyTransport`] — where armed
//! loss/corruption bursts fire with probability 1 at exact record
//! boundaries — into the receiver-facing [`SimPipe`]. Armed brick
//! damage rewrites a brick I-frame record on the way so that only its
//! per-brick CRC sees the flipped byte.
//!
//! Every byte is accounted at both ends (`ingress` at the write,
//! [`SimPipe::total_in`] at delivery) so the harness can check byte
//! conservation continuously. The deliberate exception is the
//! *sabotage* knob, a test-only miscounting hook the harness uses to
//! prove the conservation invariant actually fires.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use pcc_adapt::FakeClock;
use pcc_core::{container, BrickIndex, EncodedFrame};
use pcc_fault::{FaultConfig, FaultyTransport};
use pcc_stream::{decode_chunk, encode_chunk};
use pcc_types::{FrameKind, Limits};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Test-only ledger sabotage: deliberate miscounting of a link's
/// ingress byte ledger, used to prove the harness's byte-conservation
/// invariant actually fires (and that the shrinker can minimize the
/// schedule that exposes it). Production topologies use
/// [`Sabotage::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sabotage {
    /// Honest accounting.
    #[default]
    None,
    /// Every Nth record's bytes silently vanish from the ingress
    /// ledger — fires even on a fault-free schedule.
    SkipEveryNth(u64),
    /// Records hit by a corruption burst are subtracted from the
    /// ledger — fires only when a `CorruptBurst` event actually lands,
    /// so a shrunk reproducer must retain at least one such event.
    MiscountCorrupted,
}

/// The receiver-facing end of a link: an in-memory byte pipe that
/// counts everything ever delivered into it. Clones share the buffer.
#[derive(Clone, Default)]
pub struct SimPipe(Arc<Mutex<PipeState>>);

#[derive(Default)]
struct PipeState {
    buf: VecDeque<u8>,
    total_in: u64,
}

impl SimPipe {
    fn lock(&self) -> std::sync::MutexGuard<'_, PipeState> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Total bytes ever delivered into the pipe (read or not).
    pub fn total_in(&self) -> u64 {
        self.lock().total_in
    }

    /// Bytes delivered but not yet read by the receiver.
    pub fn backlog(&self) -> usize {
        self.lock().buf.len()
    }
}

impl Write for SimPipe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.lock();
        state.buf.extend(buf.iter().copied());
        state.total_in += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for SimPipe {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut state = self.lock();
        let mut n = 0;
        for slot in buf.iter_mut() {
            match state.buf.pop_front() {
                Some(b) => {
                    *slot = b;
                    n += 1;
                }
                None => break,
            }
        }
        Ok(n)
    }
}

struct LinkCore {
    clock: FakeClock,
    latency_ns: u64,
    jitter_ns: u64,
    jitter_rng: SmallRng,
    /// In-flight records: `(deliver_at_ns, bytes)`, delivery-ordered.
    queue: VecDeque<(u64, Vec<u8>)>,
    /// Latest delivery time handed out — later records never overtake.
    last_deliver_ns: u64,
    /// Records are held (not lost) while `step < partitioned_until`.
    partitioned_until: u32,
    dead: bool,
    /// Virtual time each write charges the sender's clock — models a
    /// consumer that stopped draining, so the broadcast's liveness
    /// policy sees the backpressure.
    write_charge: Duration,
    /// Virtual nanoseconds each written byte charges the sender's clock
    /// (a throttled wire).
    ns_per_byte: u64,
    drop_burst: u32,
    corrupt_burst: u32,
    /// Brick I-frame records still to damage behind their payload CRC.
    brick_burst: u32,
    wire: FaultyTransport<SimPipe>,
    ingress_records: u64,
    ingress_bytes: u64,
    sabotage: Sabotage,
}

impl LinkCore {
    fn send(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "simulated transport killed"));
        }
        let per_byte = Duration::from_nanos(self.ns_per_byte.saturating_mul(buf.len() as u64));
        let charge = self.write_charge.saturating_add(per_byte);
        if !charge.is_zero() {
            self.clock.advance(charge);
        }
        self.ingress_records += 1;
        let miscount =
            matches!(self.sabotage, Sabotage::SkipEveryNth(n) if n > 0 && self.ingress_records.is_multiple_of(n));
        if !miscount {
            self.ingress_bytes += buf.len() as u64;
        }
        let jitter =
            if self.jitter_ns > 0 { self.jitter_rng.random_range(0..=self.jitter_ns) } else { 0 };
        let at = (self.clock.now_ns() + self.latency_ns + jitter).max(self.last_deliver_ns);
        self.last_deliver_ns = at;
        self.queue.push_back((at, buf.to_vec()));
        Ok(buf.len())
    }

    fn pump(&mut self, step: u32) {
        if self.dead || step < self.partitioned_until {
            return;
        }
        let now = self.clock.now_ns();
        while matches!(self.queue.front(), Some((at, _)) if *at <= now) {
            let Some((_, mut record)) = self.queue.pop_front() else { break };
            if self.brick_burst > 0 {
                if let Some(damaged) = damage_brick(&record) {
                    self.brick_burst -= 1;
                    record = damaged;
                }
            }
            let mut cfg = FaultConfig::default();
            if self.drop_burst > 0 {
                self.drop_burst -= 1;
                cfg.drop = 1.0;
            } else if self.corrupt_burst > 0 {
                self.corrupt_burst -= 1;
                cfg.corrupt = 1.0;
                if self.sabotage == Sabotage::MiscountCorrupted {
                    self.ingress_bytes = self.ingress_bytes.saturating_sub(record.len() as u64);
                }
            }
            self.wire.set_config(cfg);
            // The inner pipe cannot fail; a dropped record is the fault
            // layer doing its job, not an error.
            let _ = self.wire.write_all(&record);
        }
    }
}

/// Flips one byte in the middle of the largest brick's geometry of a
/// brick-partitioned I-frame record and restamps the chunk's payload
/// CRC, so the chunk demuxes and only the per-brick CRC sees the damage.
/// `None` for every other record.
fn damage_brick(record: &[u8]) -> Option<Vec<u8>> {
    let mut chunk = decode_chunk(record).filter(|c| c.frame_kind == Some(FrameKind::Intra))?;
    let frame = container::demux_frame(&mut chunk.payload.as_slice(), 0).ok()?;
    let EncodedFrame::Intra(intra) = &frame else { return None };
    let bricks = BrickIndex::parse(&intra.geometry, &Limits::default()).ok()?;
    let victim = bricks.entries().iter().max_by_key(|e| e.geom.len()).filter(|e| !e.geom.is_empty())?;
    let [geometry, _] = container::mux_frame(&mut Vec::new(), &frame);
    *chunk.payload.get_mut(geometry.start + victim.geom.start + victim.geom.len() / 2)? ^= 0xFF;
    Some(encode_chunk(&chunk))
}

/// Control handle for one simulated link. Clones share state; the
/// write half handed to the broadcast is a [`SimTransport`] over the
/// same core.
#[derive(Clone)]
pub struct SimLink(Arc<Mutex<LinkCore>>);

impl SimLink {
    /// A fresh, perfect link (zero latency, no faults) delivering into
    /// a new [`SimPipe`]. `seed` drives the link's jitter and fault
    /// RNGs; `sabotage` is the test-only ledger-miscount hook.
    pub fn new(seed: u64, clock: FakeClock, sabotage: Sabotage) -> (Self, SimPipe) {
        let pipe = SimPipe::default();
        let core = LinkCore {
            clock,
            latency_ns: 0,
            jitter_ns: 0,
            jitter_rng: SmallRng::seed_from_u64(seed ^ 0x0011_77E4),
            queue: VecDeque::new(),
            last_deliver_ns: 0,
            partitioned_until: 0,
            dead: false,
            write_charge: Duration::ZERO,
            ns_per_byte: 0,
            drop_burst: 0,
            corrupt_burst: 0,
            brick_burst: 0,
            wire: FaultyTransport::new(pipe.clone(), FaultConfig::default(), seed ^ 0x00FA_0172),
            ingress_records: 0,
            ingress_bytes: 0,
            sabotage,
        };
        (SimLink(Arc::new(Mutex::new(core))), pipe)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LinkCore> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The `Write` half the broadcast subscribes with.
    pub fn transport(&self) -> SimTransport {
        SimTransport(Arc::clone(&self.0))
    }

    /// Sets one-way latency and per-record jitter (order-preserving).
    pub fn set_latency(&self, ns: u64, jitter_ns: u64) {
        let mut core = self.lock();
        core.latency_ns = ns;
        core.jitter_ns = jitter_ns;
    }

    /// Arms a loss burst: the next `records` pumped records vanish.
    pub fn arm_loss(&self, records: u32) {
        self.lock().drop_burst += records;
    }

    /// Arms a corruption burst: the next `records` pumped records each
    /// get one byte flipped.
    pub fn arm_corrupt(&self, records: u32) {
        self.lock().corrupt_burst += records;
    }

    /// Arms brick damage: the next `records` brick-partitioned I-frame
    /// records each get one byte flipped inside a brick, behind a
    /// restamped payload CRC. Other records pass untouched.
    pub fn arm_corrupt_brick(&self, records: u32) {
        self.lock().brick_burst += records;
    }

    /// Holds all delivery until the given step (records queue, none are
    /// lost).
    pub fn partition_until(&self, step: u32) {
        let mut core = self.lock();
        core.partitioned_until = core.partitioned_until.max(step);
    }

    /// Kills the transport: in-flight records are destroyed and every
    /// later write fails with `BrokenPipe`.
    pub fn kill(&self) {
        let mut core = self.lock();
        core.dead = true;
        core.queue.clear();
    }

    /// Sets the per-write sender-clock charge modeling a stalled
    /// consumer ([`Duration::ZERO`] to clear).
    pub fn set_write_charge(&self, d: Duration) {
        self.lock().write_charge = d;
    }

    /// Sets the per-byte sender-clock charge of a throttled wire (0 to
    /// clear).
    pub fn set_throttle(&self, ns_per_byte: u64) {
        self.lock().ns_per_byte = ns_per_byte;
    }

    /// Releases every record whose delivery time has arrived (unless
    /// dead or partitioned at `step`) through the fault layer into the
    /// receiver pipe.
    pub fn pump(&self, step: u32) {
        self.lock().pump(step);
    }

    /// True when nothing stands between a write and its delivery:
    /// alive, unpartitioned at `step`, no armed bursts, no stall
    /// charge, and no in-flight backlog. The starvation invariant only
    /// counts steps on quiet links.
    pub fn is_quiet(&self, step: u32) -> bool {
        let core = self.lock();
        !core.dead
            && step >= core.partitioned_until
            && core.drop_burst == 0
            && core.corrupt_burst == 0
            && core.brick_burst == 0
            && core.write_charge.is_zero()
            && core.queue.is_empty()
    }

    /// True once [`kill`](Self::kill) has fired.
    pub fn is_dead(&self) -> bool {
        self.lock().dead
    }

    /// Bytes accepted from the sender (the ledger the conservation
    /// invariant sums; the sabotage hook undercounts it on purpose).
    pub fn ingress_bytes(&self) -> u64 {
        self.lock().ingress_bytes
    }

    /// Records accepted from the sender.
    pub fn ingress_records(&self) -> u64 {
        self.lock().ingress_records
    }
}

/// The `Write` half of a [`SimLink`], handed to
/// [`Broadcast::subscribe`](pcc_serve::Broadcast::subscribe).
pub struct SimTransport(Arc<Mutex<LinkCore>>);

impl Write for SimTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).send(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_adapt::Clock;

    #[test]
    fn latency_holds_records_until_their_time_comes() {
        let clock = FakeClock::new();
        let (link, pipe) = SimLink::new(1, clock.clone(), Sabotage::None);
        link.set_latency(5_000_000, 0);
        link.transport().write_all(b"abc").unwrap();
        link.pump(0);
        assert_eq!(pipe.total_in(), 0, "record must wait out its latency");
        clock.advance(Duration::from_millis(5));
        link.pump(0);
        assert_eq!(pipe.total_in(), 3);
        assert_eq!(link.ingress_bytes(), 3);
    }

    #[test]
    fn jitter_never_reorders_records() {
        let clock = FakeClock::new();
        let (link, pipe) = SimLink::new(42, clock.clone(), Sabotage::None);
        link.set_latency(1_000_000, 8_000_000);
        let mut tx = link.transport();
        for b in [b"111", b"222", b"333", b"444"] {
            tx.write_all(b).unwrap();
        }
        clock.advance(Duration::from_millis(20));
        link.pump(0);
        let mut got = Vec::new();
        let mut reader = pipe.clone();
        reader.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"111222333444", "order-preserving despite jitter");
    }

    #[test]
    fn bursts_consume_exact_record_counts() {
        let clock = FakeClock::new();
        let (link, pipe) = SimLink::new(7, clock.clone(), Sabotage::None);
        let mut tx = link.transport();
        tx.write_all(b"aa").unwrap();
        link.pump(0);
        link.arm_loss(2);
        for b in [b"bb", b"cc", b"dd"] {
            tx.write_all(b).unwrap();
        }
        link.pump(0);
        let mut got = Vec::new();
        pipe.clone().read_to_end(&mut got).unwrap();
        assert_eq!(got, b"aadd", "burst eats exactly two records");
        assert!(link.is_quiet(0), "burst fully consumed");
    }

    #[test]
    fn partition_holds_then_releases_in_order() {
        let clock = FakeClock::new();
        let (link, pipe) = SimLink::new(3, clock.clone(), Sabotage::None);
        link.partition_until(2);
        let mut tx = link.transport();
        tx.write_all(b"xx").unwrap();
        tx.write_all(b"yy").unwrap();
        link.pump(0);
        link.pump(1);
        assert_eq!(pipe.total_in(), 0, "partition holds everything");
        assert!(!link.is_quiet(1));
        link.pump(2);
        let mut got = Vec::new();
        pipe.clone().read_to_end(&mut got).unwrap();
        assert_eq!(got, b"xxyy", "release preserves order; nothing lost");
    }

    #[test]
    fn kill_destroys_in_flight_and_fails_later_writes() {
        let clock = FakeClock::new();
        let (link, pipe) = SimLink::new(9, clock.clone(), Sabotage::None);
        link.set_latency(1_000_000, 0);
        let mut tx = link.transport();
        tx.write_all(b"doomed").unwrap();
        link.kill();
        clock.advance(Duration::from_millis(2));
        link.pump(0);
        assert_eq!(pipe.total_in(), 0, "in-flight records died with the link");
        assert_eq!(tx.write(b"more").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(link.ingress_bytes(), 6, "failed writes are not ingress");
    }

    #[test]
    fn write_charge_advances_the_shared_clock() {
        let clock = FakeClock::new();
        let (link, _pipe) = SimLink::new(5, clock.clone(), Sabotage::None);
        link.set_write_charge(Duration::from_millis(150));
        link.transport().write_all(b"slow").unwrap();
        assert_eq!(clock.now(), Duration::from_millis(150));
        link.set_write_charge(Duration::ZERO);
        link.transport().write_all(b"fast").unwrap();
        assert_eq!(clock.now(), Duration::from_millis(150));
    }

    #[test]
    fn throttle_charges_the_clock_per_byte() {
        let clock = FakeClock::new();
        let (link, _pipe) = SimLink::new(5, clock.clone(), Sabotage::None);
        link.set_throttle(1_000);
        link.transport().write_all(b"four").unwrap();
        assert_eq!(clock.now(), Duration::from_micros(4));
    }

    #[test]
    fn sabotage_undercounts_the_ingress_ledger() {
        let clock = FakeClock::new();
        let (link, pipe) = SimLink::new(11, clock.clone(), Sabotage::SkipEveryNth(3));
        let mut tx = link.transport();
        for _ in 0..3 {
            tx.write_all(b"zzzz").unwrap();
        }
        link.pump(0);
        assert_eq!(pipe.total_in(), 12, "delivery is untouched");
        assert_eq!(link.ingress_bytes(), 8, "every 3rd record's bytes vanish from the ledger");
    }
}
