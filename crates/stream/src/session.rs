//! Sender/receiver session state machines over the chunk layer.
//!
//! A session is one coded video in flight: the sender emits a
//! stream-header chunk (design + depth), then one frame chunk per coded
//! picture, then an end chunk carrying the total frame count. The
//! receiver decodes incrementally — it never buffers the whole video —
//! and treats every chunk as untrusted: CRC failures, gaps, duplicates,
//! and reordering all degrade to dropped frames, never to a panic or a
//! wrongly-referenced picture.
//!
//! Loss handling follows the IPP dependency structure: P-frames
//! reference only their group's I-frame, so a lost P-frame costs exactly
//! itself, while a lost I-frame orphans the rest of its group — the
//! receiver invalidates the decoded reference and waits for the next
//! intact I-frame (a *resync*).

use crate::arq::{ArqConfig, Retransmit, SharedRing};
use crate::chunk::{decode_chunk, Chunk, ChunkKind, ChunkReader};
use crate::history::FrameHistory;
use crate::recovery::RecoveryRequest;
use crate::stats::{SharedStats, StreamStats};
use pcc_adapt::{Clock, SystemClock};
use pcc_core::{container, Decoded, Design, FrameDecoder, PccCodec};
use pcc_edge::Device;
use pcc_types::{Aabb, FrameKind, GofPattern, PointCloud};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Version byte of the stream-header chunk payload.
pub const STREAM_VERSION: u8 = 1;

/// Session knobs for a sender.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Session identity stamped on every chunk; receivers drop chunks
    /// from foreign streams.
    pub stream_id: u32,
    /// Coded frames buffered between the encode and transmit threads of
    /// [`stream_video`](crate::stream_video) — the backpressure bound.
    pub queue_depth: usize,
    /// Per-frame modeled encode latency budget in milliseconds; frames
    /// that exceed it are counted in
    /// [`StreamStats::frames_over_budget`].
    /// [`stream_video`](crate::stream_video) defaults to the video's
    /// frame period (1000 / fps) when unset.
    pub frame_budget_ms: Option<f64>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { stream_id: 1, queue_depth: 3, frame_budget_ms: None }
    }
}

pub(crate) fn header_chunk(stream_id: u32, design: Design, depth: u8) -> Chunk {
    Chunk {
        kind: ChunkKind::StreamHeader,
        frame_kind: None,
        anchor_lag: 0,
        stream_id,
        seq: 0,
        frame_index: 0,
        payload: vec![STREAM_VERSION, container::design_tag(design), depth],
    }
}

pub(crate) fn end_chunk(stream_id: u32, seq: u32, total_frames: u32) -> Chunk {
    Chunk {
        kind: ChunkKind::End,
        frame_kind: None,
        anchor_lag: 0,
        stream_id,
        seq,
        frame_index: total_frames,
        payload: total_frames.to_le_bytes().to_vec(),
    }
}

/// Push-style sending session: encode and emit one frame per call.
///
/// The trivial 1-subscriber composition of a
/// [`FrameSource`](crate::FrameSource) (encoder + frame/GOF tracking)
/// and a [`Subscription`](crate::Subscription) (writer, sequence space,
/// ARQ ring, stats): the stream header is written on construction, each
/// [`send_frame`](Self::send_frame) encodes once and emits one frame
/// chunk (flushing the transport at I-frames so resync points hit the
/// wire immediately), and [`finish`](Self::finish) seals the stream
/// with an end chunk. Broadcast fan-out composes one source with many
/// subscriptions instead (see the `pcc-serve` crate).
///
/// For whole-video sending with encode/transmit overlap, use
/// [`stream_video`](crate::stream_video).
#[derive(Debug)]
pub struct Sender<'d, W: Write> {
    source: crate::FrameSource<'d>,
    sub: crate::Subscription<W>,
    memo: crate::StampMemo,
    /// Receiver feedback slot; drained for recovery requests before each
    /// encode so an intra-refresh ask re-anchors at the next slot.
    feedback: Option<SharedStats>,
}

impl<'d, W: Write> Sender<'d, W> {
    /// Opens a session: writes and flushes the stream-header chunk.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn new(
        codec: &PccCodec,
        depth: u8,
        device: &'d Device,
        writer: W,
        config: &StreamConfig,
    ) -> io::Result<Self> {
        let source = crate::FrameSource::new(codec, depth, device, config);
        let sub = crate::Subscription::attach(writer, &source.header())?;
        Ok(Sender { source, sub, memo: crate::StampMemo::new(), feedback: None })
    }

    /// Voxelizes every frame in a common bounding box (see
    /// [`FrameEncoder::with_bounding_box`](pcc_core::FrameEncoder::with_bounding_box)).
    pub fn with_bounding_box(mut self, bb: Aabb) -> Self {
        self.source = self.source.with_bounding_box(bb);
        self
    }

    /// Parks every outgoing chunk (including the already-written stream
    /// header) in `ring` so an ARQ receiver holding a clone can NACK
    /// gaps against it. See [`crate::arq`].
    pub fn with_arq(mut self, ring: SharedRing) -> Self {
        self.sub = self.sub.with_arq(ring);
        self
    }

    /// Listens on the receiver's feedback slot for recovery requests: an
    /// [`RecoveryRequest::IntraRefresh`] published there (by a receiver
    /// built [`with_recovery`](Receiver::with_recovery) on the same
    /// [`SharedStats`] handle) makes the next
    /// [`send_frame`](Self::send_frame) re-anchor with an
    /// out-of-schedule I-frame.
    pub fn with_feedback(mut self, feedback: SharedStats) -> Self {
        self.feedback = Some(feedback);
        self
    }

    /// Records every frame in `history` so a receiver holding a clone
    /// can NACK individually damaged bricks (see
    /// [`Receiver::with_repair`]).
    pub fn with_repair(mut self, history: FrameHistory) -> Self {
        self.source = self.source.with_repair(history);
        self
    }

    /// Encodes and transmits the next frame, returning its coded kind.
    /// Pending recovery requests on the feedback slot are drained first,
    /// so a refresh ask published after the previous frame lands at this
    /// slot.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn send_frame(&mut self, cloud: &PointCloud) -> io::Result<FrameKind> {
        if let Some(feedback) = &self.feedback {
            self.source.take_refresh_asks(feedback);
        }
        let frame = self.source.encode_next(cloud);
        self.sub.record_encode(&frame);
        self.sub.send_payload(&frame, &mut self.memo)?;
        Ok(frame.kind)
    }

    /// Counters so far.
    pub fn stats(&self) -> &StreamStats {
        self.sub.stats()
    }

    /// Seals the stream with an end chunk and returns the transport.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn finish(self) -> io::Result<(W, StreamStats)> {
        let total = self.sub.stats().frames_sent as u32;
        self.sub.finish(total)
    }
}

/// One frame delivered by a [`Receiver`].
#[derive(Debug, Clone)]
pub struct Delivered {
    /// Display index of the frame within the video.
    pub frame_index: usize,
    /// How the frame was coded.
    pub kind: FrameKind,
    /// The decoded world-space cloud.
    pub cloud: PointCloud,
    /// Modeled edge decode latency of this frame in milliseconds.
    pub modeled_decode_ms: f64,
    /// `Some((bricks_dropped, bricks_total))` when this is a *partial*
    /// frame: a damaged brick-partitioned I-frame whose surviving
    /// bricks were salvaged. The cloud is missing the dropped subtrees,
    /// and the session stays desynchronized until a clean I-frame
    /// arrives (a partial picture never anchors P-frames). `None` for
    /// fully decoded frames.
    pub partial: Option<(usize, usize)>,
}

/// Incremental, loss-resilient receiving session.
///
/// Pull frames with [`recv_frame`](Self::recv_frame); the receiver
/// consumes chunks as needed and holds only the decoded reference state,
/// never the whole video. Corrupt, stale, foreign, and undecodable
/// chunks are dropped; gaps that cross an I-frame desynchronize the
/// session until the next intact I-frame re-anchors it.
pub struct Receiver<'d, R: Read> {
    chunks: ChunkReader<R>,
    device: &'d Device,
    decoder: Option<FrameDecoder<'d>>,
    gof: GofPattern,
    stream_id: Option<u32>,
    depth: u8,
    design: Option<Design>,
    /// Index the next in-order frame chunk should carry.
    next_frame: usize,
    /// First frame index this receiver was meant to see. Frames below it
    /// were produced before the subscriber joined — never sent, not
    /// lost — and are excluded from loss accounting. Set by
    /// [`with_join_at`](Self::with_join_at) or by the extended stream
    /// header a broadcast writes for late joiners; 0 for from-the-start
    /// sessions.
    join_at: usize,
    /// Wire sequence number the next chunk should carry (ARQ gap
    /// detection).
    next_seq: u32,
    /// Recovered chunks waiting to be processed before the transport is
    /// read again.
    pending: VecDeque<Chunk>,
    /// Absolute transport offset of the current chunk's payload, passed
    /// to the demuxer so corruption reports are stream-absolute. Zero
    /// for ARQ-recovered or deferred chunks, whose bytes did not come
    /// from the primary transport position — their errors report
    /// frame-relative offsets (documented on
    /// [`Receiver::recv_frame`]).
    payload_offset: u64,
    arq: Option<ArqState>,
    /// Counter snapshots published to the sender side after every frame.
    feedback: Option<SharedStats>,
    /// Where brick-repair NACKs go: the sender's history answers with
    /// the original `geometry ++ attribute` bytes of one damaged brick.
    repair: Option<FrameHistory>,
    /// Recovery mode: publish intra-refresh requests when the reference
    /// breaks, and treat any counted gap as a potential lost anchor
    /// (out-of-schedule refresh I-frames make the static GOF cadence an
    /// unreliable oracle).
    recovery: bool,
    /// An intra-refresh request is in flight; suppresses duplicates
    /// until the session re-anchors.
    refresh_outstanding: bool,
    /// Live-transport mode: a chunk-less poll means "no data yet", not
    /// end of stream.
    streaming: bool,
    /// Display index of the I-frame the decoder holds as its reference
    /// (`None` while desynchronized). A P-frame decodes only when this
    /// is the anchor its chunk names.
    anchor: Option<usize>,
    /// Whether any frame has been lost since the last resync point.
    loss_since_sync: bool,
    done: bool,
    stats: StreamStats,
}

/// The receiver half of an ARQ session: where NACKs go, and the bounds
/// recovery runs under.
struct ArqState {
    source: Box<dyn Retransmit + Send>,
    config: ArqConfig,
    /// Timebase for retry backoff and the recovery deadline. The system
    /// clock in production; a [`FakeClock`](pcc_adapt::FakeClock) in
    /// timing tests, which makes the NACK/degrade sequence deterministic.
    clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for ArqState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArqState").field("config", &self.config).finish_non_exhaustive()
    }
}

impl<'d, R: Read> std::fmt::Debug for Receiver<'d, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver")
            .field("stream_id", &self.stream_id)
            .field("design", &self.design)
            .field("next_frame", &self.next_frame)
            .field("next_seq", &self.next_seq)
            .field("arq", &self.arq)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<'d, R: Read> Receiver<'d, R> {
    /// Opens a receiving session over a transport.
    pub fn new(reader: R, device: &'d Device) -> Self {
        Receiver {
            chunks: ChunkReader::new(reader),
            device,
            decoder: None,
            gof: GofPattern::all_intra(),
            stream_id: None,
            depth: 0,
            design: None,
            next_frame: 0,
            join_at: 0,
            next_seq: 0,
            pending: VecDeque::new(),
            payload_offset: 0,
            arq: None,
            feedback: None,
            repair: None,
            recovery: false,
            refresh_outstanding: false,
            streaming: false,
            anchor: None,
            loss_since_sync: false,
            done: false,
            stats: StreamStats::default(),
        }
    }

    /// Enables ARQ: wire-sequence gaps are NACKed against `source`
    /// (typically a clone of the sender's [`SharedRing`]) under the
    /// bounds in `config`. Chunks that cannot be recovered fall back to
    /// the base skip-and-resync handling and are counted in
    /// [`StreamStats::arq_degraded`].
    pub fn with_arq<S: Retransmit + Send + 'static>(self, source: S, config: ArqConfig) -> Self {
        self.with_arq_clock(source, config, Arc::new(SystemClock::default()))
    }

    /// [`with_arq`](Self::with_arq) with an explicit timebase for retry
    /// backoff and the recovery deadline. Tests drive this with a
    /// [`FakeClock`](pcc_adapt::FakeClock) so ARQ timing decisions are
    /// deterministic and wall-clock-free.
    pub fn with_arq_clock<S: Retransmit + Send + 'static>(
        mut self,
        source: S,
        config: ArqConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        self.arq = Some(ArqState { source: Box::new(source), config, clock });
        self
    }

    /// Declares that this receiver joined the stream at display index
    /// `frame`: frames before it were produced before the subscription
    /// existed and must not be booked as loss. A broadcast replaying
    /// its frame history announces the same fact in the extended stream
    /// header, so explicit use of this builder is only needed when the
    /// join point is known out of band; the larger of the two wins.
    pub fn with_join_at(mut self, frame: usize) -> Self {
        self.join_at = self.join_at.max(frame);
        self
    }

    /// Publishes the receiver's counters into `feedback` after every
    /// [`recv_frame`](Self::recv_frame), so a sender-side overload
    /// controller (see [`Supervisor`](crate::Supervisor)) can react to
    /// drops and ARQ degradation it observes.
    pub fn with_feedback(mut self, feedback: SharedStats) -> Self {
        self.feedback = Some(feedback);
        self
    }

    /// Enables receiver-driven recovery: when the reference picture
    /// breaks (a lost or undecodable I-frame, a gap that may have
    /// swallowed one), the receiver publishes
    /// [`RecoveryRequest::IntraRefresh`] into its feedback slot — at
    /// most one per desync episode — and the sender re-anchors with an
    /// out-of-schedule I-frame. Requires
    /// [`with_feedback`](Self::with_feedback); without a feedback slot
    /// the request has nowhere to go and recovery mode only tightens the
    /// desync rule.
    ///
    /// Recovery receivers treat *any* counted gap as a potential lost
    /// anchor: once refresh I-frames can appear at arbitrary slots, the
    /// static GOF cadence no longer proves a gap was P-only, so the
    /// session desynchronizes and re-anchors instead of guessing. Do not
    /// combine with senders that deliberately stride P-frames (shedding
    /// controllers) — every shed would read as loss.
    pub fn with_recovery(mut self) -> Self {
        self.recovery = true;
        self
    }

    /// Enables brick-level repair: when a brick-partitioned I-frame
    /// arrives with individually damaged bricks, each broken cell is
    /// NACKed against `history` (a clone of the sender's
    /// [`FrameHistory`]) and the retransmitted payload is CRC
    /// re-verified and spliced back in. A fully mended frame is
    /// delivered bit-exact and re-anchors the reference chain; a repair
    /// that cannot complete falls back to partial salvage.
    pub fn with_repair(mut self, history: FrameHistory) -> Self {
        self.repair = Some(history);
        self
    }

    /// Switches the session to live-transport semantics: a poll that
    /// finds no complete chunk returns `Ok(None)` *without* ending the
    /// session, and the session is over only when an end chunk arrives
    /// (check [`is_done`](Self::is_done)). Use this when the sender is
    /// still writing — an interleaved in-process pipe, a nonblocking
    /// socket — where "no bytes buffered" must not read as EOF.
    pub fn with_streaming(mut self) -> Self {
        self.chunks.set_streaming(true);
        self.streaming = true;
        self
    }

    /// Whether the session has ended: an end chunk arrived, or (in
    /// batch mode) the transport ran out of bytes.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Whether a published intra-refresh ask is still unanswered (set
    /// when a recovery receiver publishes
    /// [`RecoveryRequest::IntraRefresh`], cleared when the session
    /// re-anchors). At most one ask is outstanding per desync episode.
    pub fn refresh_outstanding(&self) -> bool {
        self.refresh_outstanding
    }

    /// The stream's design, once the stream-header chunk has arrived.
    pub fn design(&self) -> Option<Design> {
        self.design
    }

    /// The stream's voxel-grid depth, once the header has arrived.
    pub fn depth(&self) -> Option<u8> {
        self.design.map(|_| self.depth)
    }

    /// Counters so far.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Consumes the session, returning its final counters.
    pub fn into_stats(self) -> StreamStats {
        self.stats
    }

    fn sync_chunk_counters(&mut self) {
        self.stats.bytes_received = self.chunks.bytes_read();
        self.stats.corrupt_events = self.chunks.corrupt_events() as usize;
    }

    /// Delivers the next decodable frame, or `None` at end of stream.
    ///
    /// Corruption and loss never surface as errors — they are dropped
    /// frames in [`stats`](Self::stats). Damaged brick-partitioned
    /// I-frames whose index survives are delivered *partially* instead
    /// (see [`Delivered::partial`]). Internally, demux errors carry
    /// stream-absolute byte offsets for chunks read straight from the
    /// transport; ARQ-recovered or deferred chunks fall back to
    /// frame-relative offsets (their bytes did not come from the
    /// transport's current position).
    ///
    /// # Errors
    ///
    /// Propagates transport errors only.
    pub fn recv_frame(&mut self) -> io::Result<Option<Delivered>> {
        let result = self.recv_frame_inner();
        if let Some(feedback) = &self.feedback {
            feedback.publish(&self.stats);
        }
        result
    }

    fn recv_frame_inner(&mut self) -> io::Result<Option<Delivered>> {
        if self.done {
            return Ok(None);
        }
        loop {
            let chunk = if let Some(recovered) = self.pending.pop_front() {
                // Recovered/deferred payloads were not read at the
                // transport's current position; their demux errors fall
                // back to frame-relative offsets.
                self.payload_offset = 0;
                recovered
            } else {
                let Some(chunk) = self.chunks.next_chunk()? else {
                    self.sync_chunk_counters();
                    if self.streaming {
                        // Live transport: no complete chunk buffered
                        // yet. The session ends only at an end chunk.
                        return Ok(None);
                    }
                    // Transport ended without an end chunk.
                    self.done = true;
                    return Ok(None);
                };
                self.sync_chunk_counters();
                self.payload_offset = self.chunks.last_payload_offset().unwrap_or(0);
                if self.arq.is_some() {
                    self.recover_seq_gap(&chunk);
                    if !self.pending.is_empty() {
                        // Process recovered chunks first, then this one.
                        self.pending.push_back(chunk);
                        continue;
                    }
                }
                chunk
            };
            self.note_seq(&chunk);
            match chunk.kind {
                ChunkKind::StreamHeader => self.handle_header(&chunk),
                ChunkKind::End => {
                    if self.stream_id.is_some_and(|id| id != chunk.stream_id) {
                        self.stats.chunks_dropped += 1;
                        continue;
                    }
                    self.handle_end(&chunk);
                    return Ok(None);
                }
                ChunkKind::Frame => {
                    if let Some(delivered) = self.handle_frame(chunk) {
                        return Ok(Some(delivered));
                    }
                }
            }
        }
    }

    /// Advances the expected wire sequence number past `chunk`, in
    /// serial order (see [`seq_after`]).
    fn note_seq(&mut self, chunk: &Chunk) {
        if self.stream_id.is_none() || self.stream_id == Some(chunk.stream_id) {
            let next = chunk.seq.wrapping_add(1);
            if seq_after(next, self.next_seq) {
                self.next_seq = next;
            }
        }
    }

    /// NACKs the wire-sequence gap `next_seq..chunk.seq` (if any) against
    /// the ARQ source, queueing recovered chunks onto `pending` in seq
    /// order. Unrecoverable sequence numbers are counted as degraded and
    /// left to the frame-level skip-and-resync path.
    fn recover_seq_gap(&mut self, chunk: &Chunk) {
        let Some(arq) = self.arq.as_mut() else { return };
        if self.stream_id.is_some_and(|id| id != chunk.stream_id) {
            // Foreign-stream chunks say nothing about our gaps.
            return;
        }
        if !seq_after(chunk.seq, self.next_seq) {
            return;
        }
        let gap_start = arq.clock.now();
        let gap = chunk.seq.wrapping_sub(self.next_seq) as usize;
        // Only the newest `ring_chunks` sequence numbers can still be in
        // the sender's ring; NACKing older ones is wasted round trips.
        let reachable = gap.min(arq.config.ring_chunks);
        let aged_out = gap - reachable;
        if aged_out > 0 {
            self.stats.arq_degraded += aged_out;
        }
        for back in (1..=reachable as u32).rev() {
            let seq = chunk.seq.wrapping_sub(back);
            let mut recovered = false;
            for attempt in 0..arq.config.retry_budget.max(1) {
                if attempt > 0 && arq.clock.now().saturating_sub(gap_start) >= arq.config.deadline {
                    // Deadline spent: degrade instead of stalling the
                    // playhead any longer.
                    break;
                }
                self.stats.arq_nacks += 1;
                let candidate = arq.source.retransmit(seq).and_then(|b| decode_chunk(&b));
                if let Some(c) = candidate {
                    if c.seq == seq && c.stream_id == chunk.stream_id {
                        self.pending.push_back(c);
                        recovered = true;
                        self.stats.arq_recovered += 1;
                        break;
                    }
                }
                if attempt + 1 < arq.config.retry_budget {
                    let backoff = arq.config.backoff_after(attempt);
                    if !backoff.is_zero() {
                        arq.clock.sleep(backoff);
                    }
                }
            }
            if !recovered {
                self.stats.arq_degraded += 1;
            }
        }
    }

    fn handle_header(&mut self, chunk: &Chunk) {
        if self.stream_id.is_some() {
            // Duplicate or foreign header.
            self.stats.chunks_dropped += 1;
            return;
        }
        let (version, design_byte, depth) = match chunk.payload.as_slice() {
            [v, d, depth, ..] => (*v, *d, *depth),
            _ => {
                self.stats.chunks_dropped += 1;
                return;
            }
        };
        let Some(design) = container::design_from_tag(design_byte) else {
            self.stats.chunks_dropped += 1;
            return;
        };
        if version != STREAM_VERSION {
            self.stats.chunks_dropped += 1;
            return;
        }
        let codec = PccCodec::new(design);
        self.decoder = Some(codec.frame_decoder(self.device));
        self.gof = design.gof_pattern();
        self.stream_id = Some(chunk.stream_id);
        self.design = Some(design);
        self.depth = depth;
        if let Some(bytes) = chunk.payload.get(3..7) {
            if let Ok(raw) = <[u8; 4]>::try_from(bytes) {
                // Extended header from a broadcast: the join point of a
                // late subscriber. An explicit `with_join_at` value wins
                // when larger (the application may know better).
                self.join_at = self.join_at.max(u32::from_le_bytes(raw) as usize);
            }
        }
    }

    fn handle_end(&mut self, chunk: &Chunk) {
        self.done = true;
        self.stats.clean_shutdown = true;
        if let Ok(total) = <[u8; 4]>::try_from(chunk.payload.as_slice()) {
            let total = u32::from_le_bytes(total) as usize;
            let baseline = self.loss_baseline(total);
            if total > baseline {
                // Frames lost at the very tail of the stream leave no
                // later chunk to reveal the gap; the end chunk does.
                self.stats.frames_dropped += total - baseline;
            }
        }
    }

    /// Where loss accounting starts for a gap that ends at `index`: the
    /// playhead, or the join point for frames that predate this
    /// receiver's subscription (never sent, so never lost).
    fn loss_baseline(&self, index: usize) -> usize {
        self.next_frame.max(self.join_at.min(index))
    }

    /// Processes one intact frame chunk; returns a frame when it decodes.
    fn handle_frame(&mut self, chunk: Chunk) -> Option<Delivered> {
        let Some(stream_id) = self.stream_id else {
            // No (usable) stream header arrived before this frame; with
            // the design unknown it can never be decoded. Track the
            // playhead anyway so the end chunk's tail accounting does
            // not count these frames twice.
            let index = chunk.frame_index as usize;
            if index < self.next_frame {
                self.stats.chunks_dropped += 1;
            } else {
                self.stats.frames_dropped += index - self.loss_baseline(index) + 1;
                self.next_frame = index + 1;
                self.loss_since_sync = true;
            }
            return None;
        };
        if chunk.stream_id != stream_id {
            self.stats.chunks_dropped += 1;
            return None;
        }
        let index = chunk.frame_index as usize;
        if index < self.next_frame {
            // Stale: duplicate or reordered behind the playhead.
            self.stats.chunks_dropped += 1;
            return None;
        }

        // A gap means the frames in between are gone. Losing P-frames
        // costs only themselves (they reference the GOF's I-frame, not
        // each other); losing an I-frame breaks the reference chain.
        // Frames below the join point were never sent to this receiver,
        // so they are skipped, not lost — but a skipped I-frame still
        // strands the reference chain, so the desync check runs over
        // the whole gap either way.
        let counted_gap = index - self.loss_baseline(index);
        if counted_gap > 0 {
            self.stats.frames_dropped += counted_gap;
            self.loss_since_sync = true;
        }
        let crossed_intra =
            index > self.next_frame && self.gof.range_contains_intra(self.next_frame..index);
        // With recovery on, any counted gap may have swallowed an
        // out-of-schedule refresh I-frame the GOF cadence knows nothing
        // about — desynchronize and re-anchor instead of guessing.
        if crossed_intra || (self.recovery && counted_gap > 0) {
            self.desync();
        }
        self.next_frame = index + 1;
        let Some(decoder) = self.decoder.as_mut() else {
            // Unreachable in practice (stream_id implies a parsed
            // header), but a hostile stream must get a dropped frame,
            // never a panic.
            return self.drop_frame(index);
        };
        decoder.skip_frames(index - decoder.next_index());

        let demux_sp = pcc_probe::span("stream/demux");
        let mut input = chunk.payload.as_slice();
        // Stream-absolute error offsets: the chunk layer knows where this
        // payload sat in the transport, so a corruption report points at
        // the broken byte of the *stream*, not of the frame.
        let demuxed = container::demux_frame(&mut input, self.payload_offset as usize);
        demux_sp.stop();
        let frame = match demuxed {
            Ok(frame) if input.is_empty() => frame,
            // CRC-intact but unparseable payload (a sender bug or a
            // 2^-32 CRC fluke): treat as a lost frame.
            _ => return self.drop_frame(index),
        };

        let kind = frame.kind();
        let anchor = match chunk.anchor_lag {
            0 => self.gof.reference_of(index),
            lag => index.saturating_sub(usize::from(lag)),
        };
        if kind == FrameKind::Predicted && self.anchor != Some(anchor) {
            // This frame's I-frame never made it; decoding against the
            // previous group's reference (or an earlier anchor than the
            // refresh it names) would show the wrong picture.
            return self.drop_frame(index);
        }
        let Some(decoder) = self.decoder.as_mut() else {
            return self.drop_frame(index);
        };
        // Brick-level repair runs inside the decode: NACK the damaged
        // cells and, if every one comes back verified, deliver the frame
        // bit-exact — it re-anchors like a clean I-frame, so no desync
        // and no refresh request.
        let repair = self.repair.as_ref();
        let frame_index = index as u32;
        let mut nacks = 0usize;
        let mut nack = |cell: u64| {
            nacks += 1;
            repair.and_then(|history| history.repair(frame_index, cell))
        };
        let fetch: Option<&mut dyn FnMut(u64) -> Option<Vec<u8>>> =
            if repair.is_some() { Some(&mut nack) } else { None };
        let decode_sp = pcc_probe::span("stream/decode");
        let decoded = decoder.decode_with_repair(&frame, fetch);
        decode_sp.stop();
        self.stats.brick_nacks += nacks;
        match decoded {
            Ok(d) if d.partial.is_none() => {
                if d.bricks_repaired > 0 {
                    self.stats.frames_repaired += 1;
                    self.stats.bricks_repaired += d.bricks_repaired;
                }
                if kind == FrameKind::Intra {
                    if self.anchor.is_none() {
                        if self.loss_since_sync {
                            self.stats.resyncs += 1;
                        }
                        self.loss_since_sync = false;
                    }
                    // Any intact anchor satisfies an in-flight refresh
                    // request.
                    self.refresh_outstanding = false;
                    self.anchor = Some(index);
                }
                self.stats.frames_delivered += 1;
                Some(Delivered {
                    frame_index: index,
                    kind,
                    cloud: d.cloud,
                    modeled_decode_ms: d.timeline.total_modeled_ms().as_f64(),
                    partial: None,
                })
            }
            outcome => {
                if nacks > 0 {
                    // Damage was found and NACKed but the frame could
                    // not be made whole (history aged out, bytes failed
                    // re-verification, damage a NACK cannot mend).
                    self.stats.repairs_failed += 1;
                }
                // The decoder consumed the frame slot but produced
                // nothing whole; its reference state is questionable
                // either way, so the session desynchronizes until the
                // next clean I-frame.
                self.desync();
                self.loss_since_sync = true;
                // A brick I-frame's surviving subtrees: a partial
                // picture instead of a lost frame.
                let Ok(Decoded { cloud, timeline, partial: Some((dropped, total)), .. }) = outcome
                else {
                    self.stats.frames_dropped += 1;
                    return None;
                };
                self.stats.partial_frames += 1;
                self.stats.bricks_dropped += dropped;
                self.stats.frames_delivered += 1;
                Some(Delivered {
                    frame_index: index,
                    kind,
                    cloud,
                    modeled_decode_ms: timeline.total_modeled_ms().as_f64(),
                    partial: Some((dropped, total)),
                })
            }
        }
    }

    fn drop_frame(&mut self, index: usize) -> Option<Delivered> {
        self.stats.frames_dropped += 1;
        self.loss_since_sync = true;
        // In recovery mode any dropped frame may have been an
        // out-of-schedule anchor, so the conservative move is always to
        // re-anchor; otherwise the static cadence decides.
        if self.recovery || self.gof.kind_of(index) == FrameKind::Intra {
            self.desync();
        }
        if let Some(decoder) = self.decoder.as_mut() {
            decoder.skip_frames(1);
        }
        None
    }

    fn desync(&mut self) {
        self.anchor = None;
        if let Some(decoder) = self.decoder.as_mut() {
            decoder.invalidate_reference();
        }
        if self.recovery && !self.refresh_outstanding {
            if let Some(feedback) = &self.feedback {
                feedback.push_recovery(RecoveryRequest::IntraRefresh {
                    at_frame: self.next_frame as u32,
                });
                self.stats.refresh_requests += 1;
                self.refresh_outstanding = true;
            }
        }
    }
}

/// RFC 1982 serial-number order on the 32-bit wire sequence: `a` comes
/// after `b` when the forward distance from `b` to `a` is nonzero and
/// under 2^31. For distances under 2^31 this is plain `a > b`; it keeps
/// gap detection working after the sender's sequence wraps past
/// `u32::MAX`.
fn seq_after(a: u32, b: u32) -> bool {
    a != b && a.wrapping_sub(b) < 1 << 31
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{encode_chunk, ChunkParts};
    use pcc_edge::PowerMode;

    fn chunk(seq: u32) -> Chunk {
        Chunk {
            kind: ChunkKind::Frame,
            frame_kind: Some(FrameKind::Predicted),
            anchor_lag: 0,
            stream_id: 1,
            seq,
            frame_index: 0,
            payload: Vec::new(),
        }
    }

    /// Feeds a header at `seqs[0]` and frames at the rest to an ARQ
    /// receiver whose ring holds `ring_seq`; returns `arq_recovered`.
    fn recovered(seqs: &[u32], ring_seq: u32) -> usize {
        let header = Chunk {
            kind: ChunkKind::StreamHeader,
            frame_kind: None,
            payload: vec![1, 3, 6],
            ..chunk(seqs[0])
        };
        let mut wire = encode_chunk(&header);
        for &seq in &seqs[1..] {
            wire.extend(encode_chunk(&chunk(seq)));
        }
        let ring = SharedRing::new(8);
        ring.insert(ring_seq, ChunkParts::from_chunk(&chunk(ring_seq)));
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let mut rx = Receiver::new(wire.as_slice(), &device).with_arq(ring, ArqConfig::default());
        while rx.recv_frame().unwrap().is_some() {}
        rx.stats().arq_recovered
    }

    #[test]
    fn arq_recovers_gaps_across_the_sequence_wrap() {
        assert_eq!(recovered(&[0, 1, 3], 2), 1);
        assert_eq!(recovered(&[u32::MAX - 1, u32::MAX, 0, 2], 1), 1);
    }

    #[test]
    fn serial_order_is_plain_order_below_half_the_space() {
        assert!(seq_after(3, 2) && !seq_after(2, 3) && !seq_after(5, 5));
        assert!(seq_after(0, u32::MAX) && !seq_after(u32::MAX, 0));
        assert!(seq_after(1 << 31, 1) && !seq_after(1 << 31, 0));
    }

    /// The repair fallback: a brick I-frame whose repair cannot complete
    /// is salvaged with its on-arrival damage and never anchors the
    /// P-frames after it.
    mod repair_fallback {
        use super::*;
        use crate::chunk::encode_chunk;
        use crate::source::FramePayload;
        use pcc_core::{BrickEntry, BrickIndex};
        use pcc_types::crc::{crc32, Crc32};
        use std::ops::Range;

        /// One muxed intra record of a clean wire, with the ranges of its
        /// geometry and attribute streams and its parsed brick index.
        struct Record {
            chunk: Chunk,
            ranges: [Range<usize>; 2],
            index: BrickIndex,
        }

        impl Record {
            fn entry(&self, b: usize) -> &BrickEntry {
                &self.index.entries()[b]
            }

            /// Brick `b`'s geometry payload within the chunk payload.
            fn geom(&self, b: usize) -> Range<usize> {
                let (base, r) = (self.ranges[0].start, &self.entry(b).geom);
                base + r.start..base + r.end
            }

            /// Brick `b`'s attribute payload within the chunk payload.
            fn attr(&self, b: usize) -> Range<usize> {
                let (base, r) = (self.ranges[1].start, &self.entry(b).attr);
                base + r.start..base + r.end
            }
        }

        /// A six-frame IPP brick wire (I-frames 0 and 3) whose sender
        /// records into `history`.
        fn brick_wire(device: &Device, history: &FrameHistory) -> Vec<u8> {
            let mut cfg = pcc_inter::InterConfig::v1();
            cfg.intra = cfg.intra.with_bricks(2);
            let codec = PccCodec::with_inter_config(cfg);
            let video = pcc_datasets::catalog::by_name("Soldier").unwrap().generate_scaled(6, 1_500);
            let mut tx = Sender::new(&codec, 7, device, Vec::new(), &StreamConfig::default())
                .unwrap()
                .with_bounding_box(video.bounding_box().unwrap())
                .with_repair(history.clone());
            for frame in video.iter() {
                tx.send_frame(&frame.cloud).unwrap();
            }
            tx.finish().unwrap().0
        }

        fn chunks_of(wire: &[u8]) -> Vec<Chunk> {
            let mut reader = ChunkReader::new(wire);
            let mut chunks = Vec::new();
            while let Some(c) = reader.next_chunk().unwrap() {
                chunks.push(c);
            }
            chunks
        }

        fn is_frame(c: &Chunk, frame_index: u32) -> bool {
            c.kind == ChunkKind::Frame && c.frame_index == frame_index
        }

        fn intra_record(chunks: &[Chunk], frame_index: u32) -> Record {
            let chunk = chunks.iter().find(|c| is_frame(c, frame_index)).unwrap().clone();
            let frame = container::demux_frame(&mut chunk.payload.as_slice(), 0).unwrap();
            let mut record = Vec::new();
            let ranges = container::mux_frame(&mut record, &frame);
            assert_eq!(record, chunk.payload, "muxing is deterministic");
            let index = BrickIndex::parse(&record[ranges[0].clone()], &Default::default()).unwrap();
            assert!(index.len() >= 3, "need a multi-brick frame, got {}", index.len());
            Record { chunk, ranges, index }
        }

        /// The wire with `record`'s chunk carrying `payload` instead,
        /// under a fresh chunk CRC (as a re-framing middlebox would
        /// stamp it).
        fn splice(chunks: &[Chunk], record: &Record, payload: Vec<u8>) -> Vec<u8> {
            let mut chunks = chunks.to_vec();
            for c in chunks.iter_mut().filter(|c| is_frame(c, record.chunk.frame_index)) {
                c.payload = payload.clone();
            }
            chunks.iter().flat_map(encode_chunk).collect()
        }

        /// Each delivered frame's index and partial ledger, and the
        /// receiver's counters.
        type Deliveries = Vec<(usize, Option<(usize, usize)>)>;

        fn receive(wire: &[u8], device: &Device, history: FrameHistory) -> (Deliveries, StreamStats) {
            let mut rx = Receiver::new(wire, device).with_repair(history);
            let mut delivered = Vec::new();
            while let Some(frame) = rx.recv_frame().unwrap() {
                delivered.push((frame.frame_index, frame.partial));
            }
            (delivered, rx.into_stats())
        }

        /// I0 partial with `dropped` bricks gone, P1 and P2 lost for want
        /// of an anchor, and I3 resyncing the rest.
        fn partial_i0(record: &Record, dropped: usize) -> Deliveries {
            vec![(0, Some((dropped, record.index.len()))), (3, None), (4, None), (5, None)]
        }

        #[test]
        fn an_aged_out_history_nacks_once_and_salvages_the_arrival() {
            let device = Device::jetson_agx_xavier(PowerMode::W15);
            // Capacity 1: by the time the receiver reads I0, the sender
            // has recorded I3 and I0 has left the repair window.
            let history = FrameHistory::new(1);
            let chunks = chunks_of(&brick_wire(&device, &history));
            let i0 = intra_record(&chunks, 0);
            let mut payload = i0.chunk.payload.clone();
            payload[i0.attr(0).start] ^= 0x40;
            payload[i0.attr(2).start] ^= 0x40;
            let (delivered, rx) = receive(&splice(&chunks, &i0, payload), &device, history);

            // The first missing fetch ends the repair: one NACK for two
            // damaged bricks.
            assert_eq!((rx.brick_nacks, rx.repairs_failed), (1, 1), "{rx:?}");
            assert_eq!((rx.frames_repaired, rx.bricks_repaired), (0, 0));
            assert_eq!((rx.partial_frames, rx.bricks_dropped), (1, 2));
            assert_eq!(delivered, partial_i0(&i0, 2));
            assert_eq!(rx.frames_dropped, 2);
        }

        #[test]
        fn a_lying_repair_source_never_installs_a_reference() {
            let device = Device::jetson_agx_xavier(PowerMode::W15);
            let chunks = chunks_of(&brick_wire(&device, &FrameHistory::new(4)));
            let i0 = intra_record(&chunks, 0);

            // The liar holds I0 with brick 1 altered at full length, so
            // its answer fails the index CRC, not the length check.
            let liar = FrameHistory::new(4);
            let mut lie = i0.chunk.payload.clone();
            lie[i0.attr(1).start + 1] ^= 0x08;
            let lie = FramePayload::from_bytes(0, FrameKind::Intra, lie);
            liar.record(&lie, Some(i0.ranges.clone()));
            let answer = liar.repair(0, i0.entry(1).cell).unwrap();
            assert_eq!(answer.len(), i0.entry(1).payload_bytes());
            assert_ne!(crc32(&answer), i0.entry(1).crc);

            let mut payload = i0.chunk.payload.clone();
            payload[i0.attr(1).start] ^= 0x40;
            let (delivered, rx) = receive(&splice(&chunks, &i0, payload), &device, liar);
            assert_eq!((rx.brick_nacks, rx.repairs_failed), (1, 1), "{rx:?}");
            assert_eq!((rx.frames_repaired, rx.partial_frames, rx.bricks_dropped), (0, 1, 1));
            assert_eq!(delivered, partial_i0(&i0, 1), "P1 and P2 must not decode");
        }

        #[test]
        fn a_crc_valid_malformed_brick_fails_repair_and_salvage_drops_both() {
            let device = Device::jetson_agx_xavier(PowerMode::W15);
            let history = FrameHistory::new(4);
            let chunks = chunks_of(&brick_wire(&device, &history));
            let i0 = intra_record(&chunks, 0);
            let mut payload = i0.chunk.payload.clone();

            // Brick 0: CRC damage a NACK can mend.
            payload[i0.attr(0).start] ^= 0x40;
            // Brick 2: garbage geometry under a restamped brick CRC and
            // index CRC, so only its parse can reject it.
            payload[i0.geom(2)].fill(0xFF);
            let mut crc = Crc32::new();
            crc.update(&payload[i0.geom(2)]);
            crc.update(&payload[i0.attr(2)]);
            // The index runs from the stream start to its CRC, which sits
            // just before brick 0's geometry payload.
            let index = i0.ranges[0].start..i0.geom(0).start - 4;
            let old = i0.entry(2).crc.to_le_bytes();
            let at: Vec<usize> =
                (index.start..index.end - 3).filter(|&i| payload[i..i + 4] == old).collect();
            assert_eq!(at.len(), 1, "the brick CRC field must be unambiguous");
            payload[at[0]..at[0] + 4].copy_from_slice(&crc.finish().to_le_bytes());
            let index_crc = crc32(&payload[index.clone()]);
            payload[index.end..index.end + 4].copy_from_slice(&index_crc.to_le_bytes());
            assert!(BrickIndex::parse(&payload[i0.ranges[0].clone()], &Default::default()).is_ok());

            let (delivered, rx) = receive(&splice(&chunks, &i0, payload), &device, history);
            assert_eq!((rx.brick_nacks, rx.repairs_failed), (1, 1), "{rx:?}");
            assert_eq!((rx.frames_repaired, rx.partial_frames, rx.bricks_dropped), (0, 1, 2));
            assert_eq!(delivered, partial_i0(&i0, 2));
        }
    }
}
