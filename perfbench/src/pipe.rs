//! In-memory transports: the wires between the program's senders and
//! receivers, a tap that records a wire for comparison, and the seeded
//! corruption-burst stage of the lossy workload.

use pcc_stream::{decode_chunk, encode_chunk, ChunkKind};
use pcc_types::FrameKind;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A byte pipe shared by its writer and reader ends. A read of an empty
/// pipe returns 0 bytes, which a streaming `Receiver` takes as "nothing
/// buffered yet", not as end of stream.
#[derive(Clone, Default)]
pub struct Pipe(Arc<Mutex<VecDeque<u8>>>);

impl Pipe {
    fn lock(&self) -> MutexGuard<'_, VecDeque<u8>> {
        // Every update leaves the queue valid, so a poisoned lock is safe
        // to recover.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Removes and returns everything buffered.
    pub fn take_all(&self) -> Vec<u8> {
        self.lock().drain(..).collect()
    }
}

impl Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.lock().extend(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for Pipe {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.lock().read(buf)
    }
}

/// Writes every record to both `wire` and `tap`: the wire feeds a
/// receiver, the tap keeps a copy of the same bytes for comparison.
pub struct Tee {
    pub wire: Pipe,
    pub tap: Pipe,
}

impl Write for Tee {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.wire.write_all(buf)?;
        self.tap.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// SplitMix64: a seeded, dependency-free generator for the benchmark's
/// own draws (fault seeds, burst schedules).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0.0..1.0`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// Derives an independent seed for stream `tag` of workload seed `seed`.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Seeded corruption bursts in front of a link. Each record (one chunk)
/// may open a burst of `1..=max_len` records; inside a burst every frame
/// chunk is damaged:
///
/// * an I-frame chunk gets one payload byte flipped under a re-stamped
///   chunk CRC — damage from upstream of the framing, which only the
///   brick CRCs inside the frame can see (the brick-repair path);
/// * any other frame chunk gets one byte flipped in place, which the
///   chunk CRC rejects (a loss that ARQ or a refresh must cover).
pub struct CorruptionBursts<W: Write> {
    inner: W,
    rng: Rng,
    start_p: f64,
    max_len: usize,
    left: usize,
}

impl<W: Write> CorruptionBursts<W> {
    pub fn new(inner: W, seed: u64, start_p: f64, max_len: usize) -> Self {
        CorruptionBursts {
            inner,
            rng: Rng::new(seed),
            start_p,
            max_len,
            left: 0,
        }
    }
}

impl<W: Write> Write for CorruptionBursts<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.left == 0 && self.rng.unit() < self.start_p {
            self.left = self.rng.range(1, self.max_len + 1);
        }
        if self.left == 0 {
            return self.inner.write_all(buf).map(|()| buf.len());
        }
        match decode_chunk(buf).filter(|c| c.kind == ChunkKind::Frame && !c.payload.is_empty()) {
            Some(mut chunk) => {
                self.left -= 1;
                // The second half of the record holds brick payloads and
                // attributes, away from the container and brick-index
                // headers.
                let len = chunk.payload.len();
                let at = self.rng.range(len / 2, len);
                if chunk.frame_kind == Some(FrameKind::Intra) {
                    if let Some(b) = chunk.payload.get_mut(at) {
                        *b ^= 0x5A;
                    }
                    self.inner.write_all(&encode_chunk(&chunk))?;
                } else {
                    // Header, then payload: byte `at` of the payload.
                    let mut bytes = buf.to_vec();
                    if let Some(b) = bytes.get_mut(buf.len() - len - 4 + at) {
                        *b ^= 0x5A;
                    }
                    self.inner.write_all(&bytes)?;
                }
            }
            None => self.inner.write_all(buf)?,
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}
