//! The chunked wire format: CRC-framed records over any byte transport.
//!
//! Every chunk is self-delimiting and independently checksummed, so a
//! receiver can verify, skip, or re-synchronize without trusting any
//! earlier byte of the stream:
//!
//! ```text
//! sync  "PCS1"                      4 B   resynchronization marker
//! kind  u8                          1 B   0 = stream header, 1 = frame, 2 = end
//! fkind u8                          1 B   0 = I, 1 = P, 0xFF = not a frame
//! stream id       u32 LE            4 B   session identity
//! sequence number u32 LE            4 B   position of this chunk on the wire
//! frame index     u32 LE            4 B   display index (frames; 0 otherwise)
//! payload length  u32 LE            4 B
//! header CRC32    u32 LE            4 B   over the 22 bytes above
//! payload         len B                   frame record / header / end record
//! payload CRC32   u32 LE            4 B
//! ```
//!
//! The header carries its own CRC so a corrupted length field can never
//! send the parser off into the weeds: a reader that fails the header
//! check scans forward byte-by-byte for the next `PCS1` marker. A failed
//! *payload* check trusts the (verified) length and skips the whole
//! chunk, keeping framing alignment. Frame payloads are exactly the
//! per-frame records of [`pcc_core::container::mux_frame`], so the
//! chunked stream and the monolithic `.pccv` container share one frame
//! byte layout.

use pcc_types::crc::{crc32, Crc32};
use pcc_types::FrameKind;
use std::io::{self, Read, Write};
use std::ops::Deref;
use std::sync::Arc;

/// The four-byte chunk synchronization marker.
pub const SYNC: [u8; 4] = *b"PCS1";

/// Bytes in a chunk header, from the sync marker through the header CRC.
pub const HEADER_LEN: usize = 26;

/// Payloads larger than this are treated as corruption even when the
/// header CRC matches (a 2^-32 fluke must not allocate unbounded memory).
pub const MAX_PAYLOAD: usize = 1 << 28;

/// What a chunk carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkKind {
    /// Session metadata (design, depth); always the first chunk sent.
    StreamHeader,
    /// One coded frame.
    Frame,
    /// Clean end of stream; the payload records the total frame count.
    End,
}

impl ChunkKind {
    fn to_byte(self) -> u8 {
        match self {
            ChunkKind::StreamHeader => 0,
            ChunkKind::Frame => 1,
            ChunkKind::End => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0 => ChunkKind::StreamHeader,
            1 => ChunkKind::Frame,
            2 => ChunkKind::End,
            _ => return None,
        })
    }
}

fn frame_kind_byte(kind: Option<FrameKind>) -> u8 {
    match kind {
        Some(FrameKind::Intra) => 0,
        Some(FrameKind::Predicted) => 1,
        None => 0xFF,
    }
}

fn frame_kind_from_byte(b: u8) -> Option<Option<FrameKind>> {
    Some(match b {
        0 => Some(FrameKind::Intra),
        1 => Some(FrameKind::Predicted),
        0xFF => None,
        _ => return None,
    })
}

/// One wire chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// What the payload carries.
    pub kind: ChunkKind,
    /// The coded kind of a frame chunk (`None` for non-frame chunks).
    pub frame_kind: Option<FrameKind>,
    /// Session identity; receivers drop chunks from foreign streams.
    pub stream_id: u32,
    /// Monotonic position of this chunk on the wire.
    pub seq: u32,
    /// Display index of a frame chunk (0 for non-frame chunks).
    pub frame_index: u32,
    /// The chunk body.
    pub payload: Vec<u8>,
}

/// Serializes a chunk to its wire bytes.
pub fn encode_chunk(chunk: &Chunk) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + chunk.payload.len() + 4);
    write_image(&mut out, &header_of(chunk), &chunk.payload, crc32(&chunk.payload));
    out
}

fn header_of(chunk: &Chunk) -> [u8; HEADER_LEN] {
    chunk_header(
        chunk.kind,
        chunk.frame_kind,
        chunk.stream_id,
        chunk.seq,
        chunk.frame_index,
        chunk.payload.len(),
    )
}

/// The [`HEADER_LEN`]-byte header of a chunk carrying `payload_len`
/// payload bytes, header CRC included.
pub(crate) fn chunk_header(
    kind: ChunkKind,
    frame_kind: Option<FrameKind>,
    stream_id: u32,
    seq: u32,
    frame_index: u32,
    payload_len: usize,
) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    let fields = SYNC
        .into_iter()
        .chain([kind.to_byte(), frame_kind_byte(frame_kind)])
        .chain(stream_id.to_le_bytes())
        .chain(seq.to_le_bytes())
        .chain(frame_index.to_le_bytes())
        .chain((payload_len as u32).to_le_bytes());
    for (slot, byte) in header.iter_mut().zip(fields) {
        *slot = byte;
    }
    let (fields, crc) = header.split_at_mut(HEADER_LEN - 4);
    crc.copy_from_slice(&crc32(fields).to_le_bytes());
    header
}

/// Appends the wire image of a chunk — header, payload, payload CRC —
/// to `out`.
fn write_image(out: &mut Vec<u8>, header: &[u8; HEADER_LEN], payload: &[u8], payload_crc: u32) {
    out.extend_from_slice(header);
    out.extend_from_slice(payload);
    out.extend_from_slice(&payload_crc.to_le_bytes());
}

/// Immutable payload bytes shared by reference count.
///
/// One coded frame is written to many wires, parked in many ARQ rings,
/// and held by the sender's frame history; every holder clones this handle (a
/// reference-count bump) instead of the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedBytes(Arc<[u8]>);

impl SharedBytes {
    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Whether `self` and `other` are handles to the same allocation
    /// (not merely equal bytes).
    pub fn ptr_eq(&self, other: &SharedBytes) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for SharedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(bytes: Vec<u8>) -> Self {
        SharedBytes(bytes.into())
    }
}

/// A chunk held in parts: its stamped header and a shared payload with
/// its CRC. Its [`to_bytes`](Self::to_bytes) image is exactly what
/// [`encode_chunk`] produces, so a retransmit ring can park a chunk as
/// a few dozen bytes and rebuild it only when a NACK asks.
#[derive(Debug, Clone)]
pub struct ChunkParts {
    /// The header bytes, header CRC included.
    pub(crate) header: [u8; HEADER_LEN],
    /// The payload, shared with every other holder of the frame.
    pub(crate) payload: SharedBytes,
    /// CRC32 of `payload`.
    pub(crate) payload_crc: u32,
}

impl ChunkParts {
    /// The parts of `chunk`, its payload copied into a new shared
    /// buffer (for the small header and end chunks; frame chunks are
    /// stamped from a payload that is shared already).
    pub fn from_chunk(chunk: &Chunk) -> Self {
        ChunkParts {
            header: header_of(chunk),
            payload_crc: crc32(&chunk.payload),
            payload: chunk.payload.clone().into(),
        }
    }

    /// Appends the chunk's wire image to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        write_image(out, &self.header, &self.payload, self.payload_crc);
    }

    /// The chunk's wire image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len() + 4);
        self.write_to(&mut out);
        out
    }
}

/// Parses one standalone encoded chunk: the exact byte image produced by
/// [`encode_chunk`], nothing more and nothing less.
///
/// Returns `None` when the bytes are not a single intact chunk (bad sync
/// marker, failed header or payload CRC, wrong length). Retransmission
/// paths use this to validate a chunk pulled back out of a
/// [`SharedRing`](crate::arq::SharedRing) before trusting it.
pub fn decode_chunk(bytes: &[u8]) -> Option<Chunk> {
    let header = bytes.get(..HEADER_LEN)?;
    let (kind, frame_kind, stream_id, seq, frame_index, payload_len) = parse_header(header)?;
    if bytes.len() != HEADER_LEN + payload_len + 4 {
        return None;
    }
    let payload = bytes.get(HEADER_LEN..HEADER_LEN + payload_len)?;
    let stored = u32::from_le_bytes(
        bytes.get(HEADER_LEN + payload_len..)?.try_into().ok()?,
    );
    if crc32(payload) != stored {
        return None;
    }
    Some(Chunk { kind, frame_kind, stream_id, seq, frame_index, payload: payload.to_vec() })
}

/// Checked little-endian `u32` read at a fixed header offset: `None`
/// when `buf` is too short, never a panic. The decode path stays
/// uniformly `unwrap`-free this way — `deny(clippy::indexing_slicing)`
/// holds with no local allows.
fn read_u32_le(buf: &[u8], at: usize) -> Option<u32> {
    let bytes: [u8; 4] = buf.get(at..at.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

/// Parses the fixed-size header fields from `buf` (at least
/// [`HEADER_LEN`] bytes in every caller; shorter input parses as
/// corruption). Returns `None` when the sync marker, header CRC, field
/// encodings, or payload-length bound are invalid.
fn parse_header(buf: &[u8]) -> Option<(ChunkKind, Option<FrameKind>, u32, u32, u32, usize)> {
    if buf.get(..4)? != SYNC {
        return None;
    }
    let stored_crc = read_u32_le(buf, 22)?;
    if crc32(buf.get(..22)?) != stored_crc {
        return None;
    }
    let kind = ChunkKind::from_byte(*buf.get(4)?)?;
    let frame_kind = frame_kind_from_byte(*buf.get(5)?)?;
    let stream_id = read_u32_le(buf, 6)?;
    let seq = read_u32_le(buf, 10)?;
    let frame_index = read_u32_le(buf, 14)?;
    let payload_len = read_u32_le(buf, 18)? as usize;
    if payload_len > MAX_PAYLOAD {
        return None;
    }
    Some((kind, frame_kind, stream_id, seq, frame_index, payload_len))
}

/// Writes chunks to any [`Write`] transport, tracking wire bytes.
#[derive(Debug)]
pub struct ChunkWriter<W: Write> {
    inner: W,
    bytes_written: u64,
    chunks_written: u64,
}

impl<W: Write> ChunkWriter<W> {
    /// Wraps a transport.
    pub fn new(inner: W) -> Self {
        ChunkWriter { inner, bytes_written: 0, chunks_written: 0 }
    }

    /// Writes one chunk.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_chunk(&mut self, chunk: &Chunk) -> io::Result<()> {
        let bytes = encode_chunk(chunk);
        self.write_encoded(&bytes)
    }

    /// Writes one already-encoded chunk (the byte image of
    /// [`encode_chunk`]) without re-encoding it. Senders that also park
    /// the encoded bytes in a retransmit ring use this to serialize once.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_encoded(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_all(bytes)?;
        self.bytes_written += bytes.len() as u64;
        self.chunks_written += 1;
        Ok(())
    }

    /// Flushes the transport (the sender calls this at I-frame
    /// boundaries so resync points hit the wire immediately).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    /// Total wire bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Total chunks written so far.
    pub fn chunks_written(&self) -> u64 {
        self.chunks_written
    }

    /// Unwraps the transport.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// Reads chunks from any [`Read`] transport, scanning past corruption.
///
/// Structurally broken bytes (failed sync, bad header CRC, truncated
/// tail) are consumed byte-by-byte in search of the next marker; chunks
/// whose payload fails its CRC are skipped whole. Both are counted in
/// [`corrupt_events`](Self::corrupt_events) — the reader itself never
/// fails on corruption, only on transport errors.
#[derive(Debug)]
pub struct ChunkReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    start: usize,
    eof: bool,
    streaming: bool,
    bytes_read: u64,
    corrupt_events: u64,
    last_payload_offset: Option<u64>,
}

const READ_CHUNK: usize = 64 * 1024;

impl<R: Read> ChunkReader<R> {
    /// Wraps a transport.
    pub fn new(inner: R) -> Self {
        ChunkReader {
            inner,
            buf: Vec::with_capacity(READ_CHUNK),
            start: 0,
            eof: false,
            streaming: false,
            bytes_read: 0,
            corrupt_events: 0,
            last_payload_offset: None,
        }
    }

    /// Switches the reader between batch and live semantics for a
    /// zero-byte read.
    ///
    /// In the default batch mode a 0-byte read is end-of-stream: the
    /// reader latches EOF and trailing partial bytes count as
    /// corruption. On a live transport (a socket mid-session, a shared
    /// in-memory pipe the sender is still filling) a 0-byte read only
    /// means *nothing buffered yet* — in streaming mode
    /// [`next_chunk`](Self::next_chunk) returns `Ok(None)` without
    /// latching EOF or booking the partial chunk as corrupt, and a later
    /// call picks up exactly where the bytes ran out.
    ///
    /// Enabling streaming also clears an already-latched EOF: a reader
    /// that exhausted its transport in batch mode and was then switched
    /// live (e.g. handed a pipe the sender is still filling) resumes
    /// reading instead of staying wedged on the stale latch.
    pub fn set_streaming(&mut self, streaming: bool) {
        self.streaming = streaming;
        if streaming {
            self.eof = false;
        }
    }

    /// Whether the reader treats zero-byte reads as "no data yet".
    pub fn is_streaming(&self) -> bool {
        self.streaming
    }

    /// Total bytes consumed from the transport so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Corruption events survived: failed header scans and payload CRC
    /// mismatches.
    pub fn corrupt_events(&self) -> u64 {
        self.corrupt_events
    }

    /// Absolute transport offset of the first payload byte of the chunk
    /// most recently returned by [`next_chunk`](Self::next_chunk), or
    /// `None` before any chunk was returned. Receivers pass this to the
    /// container demuxer so corruption reports carry stream-absolute
    /// offsets instead of frame-relative ones.
    pub fn last_payload_offset(&self) -> Option<u64> {
        self.last_payload_offset
    }

    fn available(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Ensures at least `n` bytes are buffered past `self.start`, or hits
    /// EOF trying. Returns whether `n` bytes are available.
    // `old_len` is the buffer length before the resize, so the slice
    // start is always in range.
    #[allow(clippy::indexing_slicing)]
    fn fill_to(&mut self, n: usize) -> io::Result<bool> {
        while self.available() < n && !self.eof {
            // Compact before growing so corrupt prefixes cannot pin the
            // buffer forever.
            if self.start > READ_CHUNK {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let old_len = self.buf.len();
            self.buf.resize(old_len + READ_CHUNK, 0);
            let got = self.inner.read(&mut self.buf[old_len..])?;
            self.buf.truncate(old_len + got);
            if got == 0 {
                if self.streaming {
                    // Live transport with nothing buffered yet: report
                    // the shortfall without latching EOF, so a later
                    // call resumes once more bytes arrive.
                    break;
                }
                self.eof = true;
            }
            self.bytes_read += got as u64;
        }
        Ok(self.available() >= n)
    }

    /// Position of the next sync marker at or after `self.start`, if one
    /// is currently buffered.
    // `self.start <= self.buf.len()` is a struct invariant (start only
    // advances past consumed bytes).
    #[allow(clippy::indexing_slicing)]
    fn find_sync(&self) -> Option<usize> {
        let window = &self.buf[self.start..];
        window
            .windows(SYNC.len())
            .position(|w| w == SYNC)
            .map(|p| self.start + p)
    }

    /// Returns the next structurally intact chunk, or `None` at end of
    /// stream. Corruption is skipped, counted, and never returned.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    // Every slice below is guarded by a fill_to() that guarantees the
    // buffered range, so indexing cannot leave the buffer.
    #[allow(clippy::indexing_slicing)]
    pub fn next_chunk(&mut self) -> io::Result<Option<Chunk>> {
        loop {
            // Locate a sync marker, pulling more data as needed.
            let sync_at = loop {
                if let Some(p) = self.find_sync() {
                    break p;
                }
                // No marker in the buffer: all but the last 3 bytes can
                // be discarded (a marker could straddle the boundary).
                let keep = self.available().min(SYNC.len() - 1);
                let discard = self.available() - keep;
                if discard > 0 {
                    self.corrupt_events += 1;
                    self.start += discard;
                }
                if self.eof {
                    return Ok(None);
                }
                let want = self.available() + 1;
                if !self.fill_to(want)? {
                    return Ok(None);
                }
            };
            if sync_at > self.start {
                // Garbage before the marker.
                self.corrupt_events += 1;
                self.start = sync_at;
            }

            if !self.fill_to(HEADER_LEN)? {
                if self.streaming && !self.eof {
                    // Header still in flight; retry from this marker on
                    // the next call.
                    return Ok(None);
                }
                // Not enough bytes left for any chunk at this marker.
                self.corrupt_events += 1;
                return Ok(None);
            }
            let header = &self.buf[self.start..self.start + HEADER_LEN];
            let Some((kind, frame_kind, stream_id, seq, frame_index, payload_len)) =
                parse_header(header)
            else {
                // Broken header: resume scanning one byte later.
                self.corrupt_events += 1;
                self.start += 1;
                continue;
            };

            let total = HEADER_LEN + payload_len + 4;
            if !self.fill_to(total)? {
                if self.streaming && !self.eof {
                    // Payload still in flight; the header stays buffered
                    // and the next call resumes at the same chunk.
                    return Ok(None);
                }
                // The stream ends inside this chunk; a later marker may
                // still be buffered, so scan on.
                self.corrupt_events += 1;
                self.start += 1;
                continue;
            }
            let payload_start = self.start + HEADER_LEN;
            let payload = &self.buf[payload_start..payload_start + payload_len];
            let stored = u32::from_le_bytes(
                self.buf[payload_start + payload_len..payload_start + payload_len + 4]
                    .try_into()
                    .unwrap(),
            );
            if crc32(payload) != stored {
                // The header CRC vouched for the length, so skipping the
                // whole chunk keeps framing alignment (and avoids finding
                // false markers inside the bad payload).
                self.corrupt_events += 1;
                self.start += total;
                continue;
            }
            let chunk = Chunk {
                kind,
                frame_kind,
                stream_id,
                seq,
                frame_index,
                payload: payload.to_vec(),
            };
            // The buffer's first byte sits at absolute transport offset
            // `bytes_read - buf.len()` (everything before it was drained
            // after consumption), so buffer indices rebase directly.
            self.last_payload_offset =
                Some(self.bytes_read - self.buf.len() as u64 + payload_start as u64);
            self.start += total;
            return Ok(Some(chunk));
        }
    }
}

/// Incremental CRC over header fields, used by tests to cross-check the
/// layout documented above.
#[allow(dead_code)]
fn header_crc_of(fields: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(fields);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_chunk(seq: u32, frame_index: u32, kind: FrameKind, payload: Vec<u8>) -> Chunk {
        Chunk {
            kind: ChunkKind::Frame,
            frame_kind: Some(kind),
            stream_id: 7,
            seq,
            frame_index,
            payload,
        }
    }

    #[test]
    fn streaming_mode_pauses_on_partial_chunks_without_corruption() {
        use std::collections::VecDeque;
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Pipe(Arc<Mutex<VecDeque<u8>>>);
        impl Read for Pipe {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let mut q = self.0.lock().unwrap();
                let n = q.len().min(buf.len());
                for (slot, byte) in buf.iter_mut().zip(q.drain(..n)) {
                    *slot = byte;
                }
                Ok(n)
            }
        }

        let pipe = Pipe(Arc::new(Mutex::new(VecDeque::new())));
        let mut reader = ChunkReader::new(pipe.clone());
        reader.set_streaming(true);
        let bytes = encode_chunk(&frame_chunk(1, 0, FrameKind::Intra, vec![9; 64]));

        // Nothing buffered yet.
        assert!(reader.next_chunk().unwrap().is_none());
        // A partial header, then a partial payload: still no chunk, and
        // crucially no corruption booked and no EOF latched.
        pipe.0.lock().unwrap().extend(bytes[..10].iter());
        assert!(reader.next_chunk().unwrap().is_none());
        pipe.0.lock().unwrap().extend(bytes[10..40].iter());
        assert!(reader.next_chunk().unwrap().is_none());
        assert_eq!(reader.corrupt_events(), 0);
        // The tail arrives: the chunk parses whole on the next poll.
        pipe.0.lock().unwrap().extend(bytes[40..].iter());
        let got = reader.next_chunk().unwrap().expect("complete chunk once bytes land");
        assert_eq!(got.payload, vec![9; 64]);
        assert_eq!(reader.corrupt_events(), 0);
        // No EOF was latched: later traffic is still picked up.
        let more = encode_chunk(&frame_chunk(2, 1, FrameKind::Predicted, vec![3; 16]));
        pipe.0.lock().unwrap().extend(more.iter());
        assert_eq!(reader.next_chunk().unwrap().unwrap().seq, 2);
        assert!(reader.next_chunk().unwrap().is_none());
    }

    #[test]
    fn streaming_toggle_after_eof_latch_resumes_cleanly() {
        use std::collections::VecDeque;
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Pipe(Arc<Mutex<VecDeque<u8>>>);
        impl Read for Pipe {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let mut q = self.0.lock().unwrap();
                let n = q.len().min(buf.len());
                for (slot, byte) in buf.iter_mut().zip(q.drain(..n)) {
                    *slot = byte;
                }
                Ok(n)
            }
        }

        let pipe = Pipe(Arc::new(Mutex::new(VecDeque::new())));
        let first = encode_chunk(&frame_chunk(1, 0, FrameKind::Intra, vec![5; 32]));
        pipe.0.lock().unwrap().extend(first.iter());

        // Batch mode: the reader drains the pipe, then latches EOF on the
        // 0-byte read.
        let mut reader = ChunkReader::new(pipe.clone());
        assert_eq!(reader.next_chunk().unwrap().unwrap().seq, 1);
        assert!(reader.next_chunk().unwrap().is_none());

        // More bytes arrive after the latch; batch semantics stay wedged.
        let second = encode_chunk(&frame_chunk(2, 1, FrameKind::Predicted, vec![7; 16]));
        pipe.0.lock().unwrap().extend(second.iter());
        assert!(reader.next_chunk().unwrap().is_none(), "batch EOF is sticky");

        // Switching to streaming clears the latch: the buffered traffic
        // is picked up instead of the reader staying wedged forever.
        reader.set_streaming(true);
        let got = reader.next_chunk().unwrap().expect("streaming toggle must clear the EOF latch");
        assert_eq!(got.seq, 2);
        assert_eq!(got.payload, vec![7; 16]);
        assert!(reader.next_chunk().unwrap().is_none());

        // And the reader keeps being live afterwards.
        let third = encode_chunk(&frame_chunk(3, 2, FrameKind::Predicted, vec![1; 8]));
        pipe.0.lock().unwrap().extend(third.iter());
        assert_eq!(reader.next_chunk().unwrap().unwrap().seq, 3);
    }

    fn sample_chunks() -> Vec<Chunk> {
        (0..5u32)
            .map(|i| {
                let kind = if i % 3 == 0 { FrameKind::Intra } else { FrameKind::Predicted };
                let payload: Vec<u8> = (0..50 + i as u8).map(|b| b.wrapping_mul(31) ^ i as u8).collect();
                frame_chunk(i + 1, i, kind, payload)
            })
            .collect()
    }

    fn wire(chunks: &[Chunk]) -> Vec<u8> {
        let mut out = Vec::new();
        for c in chunks {
            out.extend(encode_chunk(c));
        }
        out
    }

    fn read_all(bytes: &[u8]) -> (Vec<Chunk>, u64) {
        let mut reader = ChunkReader::new(bytes);
        let mut got = Vec::new();
        while let Some(c) = reader.next_chunk().unwrap() {
            got.push(c);
        }
        (got, reader.corrupt_events())
    }

    #[test]
    fn clean_round_trip() {
        let chunks = sample_chunks();
        let (got, corrupt) = read_all(&wire(&chunks));
        assert_eq!(got, chunks);
        assert_eq!(corrupt, 0);
    }

    #[test]
    fn writer_accounts_bytes() {
        let chunks = sample_chunks();
        let mut w = ChunkWriter::new(Vec::new());
        for c in &chunks {
            w.write_chunk(c).unwrap();
        }
        assert_eq!(w.chunks_written(), chunks.len() as u64);
        assert_eq!(w.bytes_written(), wire(&chunks).len() as u64);
        assert_eq!(w.into_inner(), wire(&chunks));
    }

    #[test]
    fn payload_corruption_drops_only_that_chunk() {
        let chunks = sample_chunks();
        let mut bytes = wire(&chunks);
        // Flip a byte inside chunk 2's payload.
        let offset: usize = chunks[..2].iter().map(|c| encode_chunk(c).len()).sum();
        bytes[offset + HEADER_LEN + 10] ^= 0x40;
        let (got, corrupt) = read_all(&bytes);
        assert_eq!(got.len(), 4);
        assert!(corrupt >= 1);
        assert!(got.iter().all(|c| c.frame_index != 2));
    }

    #[test]
    fn header_corruption_resyncs_at_next_marker() {
        let chunks = sample_chunks();
        let mut bytes = wire(&chunks);
        let offset: usize = chunks[..1].iter().map(|c| encode_chunk(c).len()).sum();
        // Smash the length field of chunk 1 — without the header CRC this
        // would desynchronize the whole rest of the stream.
        bytes[offset + 18] = 0xFF;
        bytes[offset + 19] = 0xFF;
        let (got, corrupt) = read_all(&bytes);
        let indices: Vec<u32> = got.iter().map(|c| c.frame_index).collect();
        assert_eq!(indices, vec![0, 2, 3, 4]);
        assert!(corrupt >= 1);
    }

    #[test]
    fn garbage_between_chunks_is_skipped() {
        let chunks = sample_chunks();
        let mut bytes = Vec::new();
        for (i, c) in chunks.iter().enumerate() {
            bytes.extend(std::iter::repeat_n(0xA5u8, i * 3));
            bytes.extend(encode_chunk(c));
        }
        let (got, _) = read_all(&bytes);
        assert_eq!(got, chunks);
    }

    #[test]
    fn truncated_tail_never_hangs_or_panics() {
        let chunks = sample_chunks();
        let bytes = wire(&chunks);
        for cut in 0..bytes.len() {
            let (got, _) = read_all(&bytes[..cut]);
            assert!(got.len() <= chunks.len());
            for c in &got {
                assert_eq!(c, &chunks[c.frame_index as usize], "cut {cut}");
            }
        }
    }

    #[test]
    fn sync_marker_inside_payload_is_harmless() {
        // A payload that contains the sync marker must not confuse the
        // reader (alignment comes from lengths, not markers) — and must
        // still be recoverable as a scan target after corruption.
        let mut payload = b"xxPCS1yy".to_vec();
        payload.extend_from_slice(&SYNC);
        let chunks = vec![
            frame_chunk(1, 0, FrameKind::Intra, payload),
            frame_chunk(2, 1, FrameKind::Predicted, vec![9; 20]),
        ];
        let (got, corrupt) = read_all(&wire(&chunks));
        assert_eq!(got, chunks);
        assert_eq!(corrupt, 0);
    }

    #[test]
    fn oversized_payload_length_rejected() {
        let chunk = frame_chunk(1, 0, FrameKind::Intra, vec![1, 2, 3]);
        let mut bytes = encode_chunk(&chunk);
        // Claim a > MAX_PAYLOAD length and fix up the header CRC so only
        // the sanity bound can reject it.
        let huge = (MAX_PAYLOAD as u32) + 1;
        bytes[18..22].copy_from_slice(&huge.to_le_bytes());
        let crc = crc32(&bytes[..22]);
        bytes[22..26].copy_from_slice(&crc.to_le_bytes());
        let (got, corrupt) = read_all(&bytes);
        assert!(got.is_empty());
        assert!(corrupt >= 1);
    }

    #[test]
    fn decode_chunk_round_trips_and_rejects_damage() {
        let chunk = frame_chunk(9, 4, FrameKind::Predicted, vec![1, 2, 3, 4, 5]);
        let bytes = encode_chunk(&chunk);
        assert_eq!(decode_chunk(&bytes), Some(chunk.clone()));
        // Any single-byte damage or truncation must be rejected, not
        // panicked on.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert_ne!(decode_chunk(&bad), Some(chunk.clone()), "flip at {i} accepted");
            assert_eq!(decode_chunk(&bytes[..i]), None, "truncation at {i} accepted");
        }
        // Trailing garbage is not "one chunk".
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(decode_chunk(&long), None);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(read_all(&[]).0, Vec::<Chunk>::new());
        assert_eq!(read_all(b"PC").0, Vec::<Chunk>::new());
        assert_eq!(read_all(&SYNC).0, Vec::<Chunk>::new());
    }
}
