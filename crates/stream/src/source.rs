//! Encode-once frame production split from per-subscriber transmission.
//!
//! The 1:1 [`Sender`](crate::Sender) couples one [`FrameEncoder`] to one
//! transport; a broadcast server needs the same coded frames on N
//! transports without re-entering the codec. This module is that split:
//!
//! * [`FrameSource`] owns the encoder, the frame/GOF position, and the
//!   stream's [`FrameHistory`]. Each
//!   [`encode_next`](FrameSource::encode_next) runs the codec **once**
//!   and yields a [`FramePayload`] — the muxed wire record plus its
//!   payload CRC, both shareable across any number of subscribers — and
//!   records it in the history for late-join replay and brick repair.
//! * [`Subscription`] owns everything per-subscriber: the
//!   [`ChunkWriter`], the wire sequence space, the optional ARQ ring,
//!   and a private [`StreamStats`].
//! * [`StampMemo`] is the chunk image last stamped. The payload is a
//!   reference-counted [`SharedBytes`], and subscribers that joined at
//!   the same GOF share a sequence number, so their next chunks are
//!   byte-identical: the first one stamps the image (header, payload,
//!   CRC) and the rest of its seq group write that same image. A
//!   subscriber costs one transport write and, with ARQ, one parked
//!   header — no payload copy, no allocation.
//!
//! `Sender` is rebuilt as exactly one `FrameSource` plus one
//! `Subscription`, so every existing session test and golden PCS1
//! digest pins this refactor. The `pcc-serve` crate composes one source
//! with many subscriptions.

use crate::arq::SharedRing;
use crate::chunk::{chunk_header, Chunk, ChunkKind, ChunkParts, ChunkWriter, SharedBytes};
use crate::history::FrameHistory;
use crate::session::{end_chunk, header_chunk, StreamConfig};
use crate::stats::StreamStats;
use pcc_core::{container, Design, EncodedFrame, FrameEncoder, PccCodec};
use pcc_edge::{Device, Timeline};
use pcc_types::crc::crc32;
use pcc_types::{Aabb, FrameKind, GofPattern, PointCloud};
use std::io::{self, Write};

/// One coded frame ready to be stamped into any subscriber's stream.
///
/// The payload is the muxed wire record of
/// [`pcc_core::container::mux_frame`] — byte-identical to what the 1:1
/// [`Sender`](crate::Sender) puts in a frame chunk — and the CRC is
/// `crc32(payload)`, computed once so N subscribers share it. Cloning a
/// payload shares its bytes.
#[derive(Debug, Clone)]
pub struct FramePayload {
    /// Display index of the frame within the video.
    pub frame_index: u32,
    /// How the frame was coded.
    pub kind: FrameKind,
    /// The muxed frame record (chunk payload bytes).
    pub payload: SharedBytes,
    /// CRC32 of `payload`, precomputed for [`Subscription::send_payload`].
    pub payload_crc: u32,
    /// Measured encode wall-clock (0 when probes are off).
    pub encode_ns: u64,
    /// Whether the modeled encode latency blew the per-frame budget.
    pub over_budget: bool,
    /// Whether this frame is an out-of-schedule I-frame emitted in
    /// answer to a receiver's intra-refresh request. Subscriptions book
    /// its wire bytes under `refresh_bytes` so re-anchoring cost is
    /// visible in [`StreamStats`].
    pub refresh: bool,
}

impl FramePayload {
    /// Builds a payload record from raw muxed bytes, computing the CRC
    /// and moving the bytes into a shared buffer.
    ///
    /// The source's encode paths and degradation paths (e.g. a broadcast
    /// shedding the refinement layer) both wrap their records this way.
    pub fn from_bytes(frame_index: u32, kind: FrameKind, payload: Vec<u8>) -> Self {
        let payload_crc = crc32(&payload);
        FramePayload {
            frame_index,
            kind,
            payload: payload.into(),
            payload_crc,
            encode_ns: 0,
            over_budget: false,
            refresh: false,
        }
    }
}

/// The encode half of a streaming session: one codec, one frame
/// timeline, zero transports.
#[derive(Debug)]
pub struct FrameSource<'d> {
    encoder: FrameEncoder<'d>,
    stream_id: u32,
    design: Design,
    depth: u8,
    frame_budget_ms: Option<f64>,
    frames_encoded: u64,
    /// A receiver asked for an intra refresh; the next encoded frame
    /// re-anchors as an out-of-schedule I-frame.
    refresh_pending: bool,
    /// Every encoded frame is recorded here: late joiners replay its
    /// resync run and receivers NACK damaged bricks against it.
    history: FrameHistory,
}

impl<'d> FrameSource<'d> {
    /// Builds the encode half of a session. No bytes move until a
    /// [`Subscription`] attaches.
    pub fn new(codec: &PccCodec, depth: u8, device: &'d Device, config: &StreamConfig) -> Self {
        FrameSource {
            encoder: codec.frame_encoder(depth, device),
            stream_id: config.stream_id,
            design: codec.design(),
            depth,
            frame_budget_ms: config.frame_budget_ms,
            frames_encoded: 0,
            refresh_pending: false,
            history: FrameHistory::new(1),
        }
    }

    /// Records into `history` instead of the source's own one-anchor
    /// history, so receivers holding a clone can NACK individually
    /// damaged bricks of its last `capacity` brick I-frames
    /// ([`RecoveryRequest::BrickRepair`]
    /// (`crate::RecoveryRequest::BrickRepair`)) and get just those
    /// payload bytes back. Call it before the first frame: what the
    /// replaced history held is dropped.
    pub fn with_repair(mut self, history: FrameHistory) -> Self {
        self.history = history;
        self
    }

    /// The history this source records every encoded frame into.
    pub fn history(&self) -> &FrameHistory {
        &self.history
    }

    /// Stages an out-of-schedule intra refresh: the next
    /// [`encode_next`](Self::encode_next) re-anchors with an I-frame
    /// even if the GOF cursor says the slot is predicted. Called by the
    /// session layer when a receiver publishes
    /// [`RecoveryRequest::IntraRefresh`]
    /// (`crate::RecoveryRequest::IntraRefresh`) over the feedback
    /// channel. Idempotent; a refresh landing on a scheduled I-frame
    /// slot costs nothing extra.
    pub fn request_refresh(&mut self) {
        self.refresh_pending = true;
    }

    /// Whether an intra refresh is staged for the next frame.
    pub fn refresh_pending(&self) -> bool {
        self.refresh_pending
    }

    /// Voxelizes every frame in a common bounding box (see
    /// [`FrameEncoder::with_bounding_box`]).
    pub fn with_bounding_box(mut self, bb: Aabb) -> Self {
        self.encoder = self.encoder.with_bounding_box(bb);
        self
    }

    /// Session identity stamped on every chunk.
    pub fn stream_id(&self) -> u32 {
        self.stream_id
    }

    /// The pipeline design this source encodes with.
    pub fn design(&self) -> Design {
        self.design
    }

    /// Voxel-grid depth of the session.
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// The I/P cadence of the design.
    pub fn gof_pattern(&self) -> GofPattern {
        self.encoder.gof_pattern()
    }

    /// Display index the next [`encode_next`](Self::encode_next) will
    /// produce.
    pub fn frame_index(&self) -> usize {
        self.encoder.frame_index()
    }

    /// Coded kind the next frame will get.
    pub fn next_kind(&self) -> FrameKind {
        self.encoder.next_kind()
    }

    /// Frames encoded so far — exactly one codec entry per
    /// [`encode_next`](Self::encode_next), however many subscribers the
    /// payloads fanned out to.
    pub fn frames_encoded(&self) -> u64 {
        self.frames_encoded
    }

    /// The inter-frame settings the underlying encoder runs at. A
    /// broadcast consults this to decide whether the coded attribute
    /// payload is layered (and entropy-free) enough to shed per
    /// subscriber.
    pub fn inter_config(&self) -> pcc_inter::InterConfig {
        self.encoder.inter_config()
    }

    /// The stream-header chunk every subscriber's stream opens with.
    pub fn header(&self) -> Chunk {
        self.header_at(0)
    }

    /// A stream header that also announces the join point: a subscriber
    /// attached mid-stream starts at frame `join_at` (the replayed
    /// resync I-frame), and its [`Receiver`](crate::Receiver) must not
    /// book frames `0..join_at` as loss. `join_at == 0` produces the
    /// legacy 3-byte header, byte-identical to pre-broadcast streams.
    pub fn header_at(&self, join_at: u32) -> Chunk {
        let mut chunk = header_chunk(self.stream_id, self.design, self.depth);
        if join_at > 0 {
            chunk.payload.extend_from_slice(&join_at.to_le_bytes());
        }
        chunk
    }

    /// Encodes the next frame once, yielding a payload any number of
    /// subscriptions can transmit.
    pub fn encode_next(&mut self, cloud: &PointCloud) -> FramePayload {
        let frame_index = self.encoder.frame_index() as u32;
        // A staged refresh re-anchors at this slot; when the slot is a
        // scheduled I-frame anyway, the ask is satisfied for free and
        // the frame is not booked as refresh cost.
        let refresh = self.refresh_pending && self.encoder.next_kind() == FrameKind::Predicted;
        if refresh {
            self.encoder.force_intra_next();
        }
        self.refresh_pending = false;
        let encode_sp = pcc_probe::span("stream/encode");
        let (encoded, timeline) = self.encoder.encode_frame(cloud);
        self.package(frame_index, refresh, &encoded, &timeline, encode_sp)
    }

    /// [`encode_next`](Self::encode_next) behind a supervision boundary:
    /// `fault` runs just before the codec (a test/simulation hook for
    /// injected encode faults), and a panic from either is contained —
    /// the encoder skips the slot ([`FrameEncoder::skip_frame`]) and
    /// `None` is returned, so receivers see a frame-index gap instead of
    /// the whole session dying. A staged intra refresh survives a
    /// panicked slot and re-anchors at the next successful encode.
    pub fn encode_next_contained(
        &mut self,
        cloud: &PointCloud,
        fault: impl FnOnce(),
    ) -> Option<FramePayload> {
        let frame_index = self.encoder.frame_index() as u32;
        let refresh = self.refresh_pending && self.encoder.next_kind() == FrameKind::Predicted;
        if refresh {
            self.encoder.force_intra_next();
        }
        let encode_sp = pcc_probe::span("stream/encode");
        let encoder = &mut self.encoder;
        let contained = pcc_parallel::contain(move || {
            fault();
            encoder.encode_frame(cloud)
        });
        let Ok((encoded, timeline)) = contained else {
            // The slot is spent (skip_frame keeps the index timeline
            // honest) but refresh_pending is deliberately left staged:
            // the ask re-anchors at the next slot that does encode.
            self.encoder.skip_frame();
            return None;
        };
        self.refresh_pending = false;
        Some(self.package(frame_index, refresh, &encoded, &timeline, encode_sp))
    }

    /// The post-encode tail shared by both encode paths: muxes the
    /// record into a shared payload, computes its CRC once, books the
    /// encode against the frame budget, and records the frame in the
    /// history.
    fn package(
        &mut self,
        frame_index: u32,
        refresh: bool,
        encoded: &EncodedFrame,
        timeline: &Timeline,
        encode_sp: pcc_probe::Span,
    ) -> FramePayload {
        let mut record = Vec::new();
        let payloads = container::mux_frame(&mut record, encoded);
        let frame = FramePayload::from_bytes(frame_index, encoded.kind(), record);
        let encode_ns = encode_sp.stop();
        let modeled_ms = timeline.total_modeled_ms().as_f64();
        let over_budget = self.frame_budget_ms.is_some_and(|b| modeled_ms > b);
        self.frames_encoded += 1;
        let frame = FramePayload { encode_ns, over_budget, refresh, ..frame };
        // Only codec intra frames can be brick-partitioned.
        let intra = matches!(encoded, EncodedFrame::Intra(_)).then_some(payloads);
        self.history.record(&frame, intra);
        frame
    }
}

/// The frame chunk image stamped last, reused while the next
/// subscriber's chunk would be byte-identical.
///
/// A fan-out loop threads one memo through every
/// [`Subscription::send_payload`] of a frame. A subscription reuses the
/// image when its seq, stream id, frame index, and kind match and the
/// payload is the same [`SharedBytes`] allocation (not merely equal
/// bytes); otherwise it stamps a fresh image into the memo's buffer.
/// Subscribers that joined at the same GOF share a seq, so a whole seq
/// group writes one image. The buffer is kept across frames, so a warm
/// memo stamps without allocating.
#[derive(Debug, Default)]
pub struct StampMemo {
    stamped: Option<Stamped>,
    /// Wire image of `stamped`.
    image: Vec<u8>,
}

#[derive(Debug)]
struct Stamped {
    /// `(kind, stream id, seq, frame index)` of the chunk.
    key: (FrameKind, u32, u32, u32),
    parts: ChunkParts,
}

impl StampMemo {
    /// An empty memo: its first stamp always misses.
    pub fn new() -> Self {
        StampMemo::default()
    }

    /// The chunk of `frame` at `seq` on stream `stream_id`, stamped
    /// unless the memo already holds it, and its wire image.
    fn stamp(&mut self, stream_id: u32, seq: u32, frame: &FramePayload) -> (&ChunkParts, &[u8]) {
        let key = (frame.kind, stream_id, seq, frame.frame_index);
        let stale = self.stamped.as_ref().is_some_and(|held| {
            held.key != key
                || !held.parts.payload.ptr_eq(&frame.payload)
                || held.parts.payload_crc != frame.payload_crc
        });
        if stale {
            self.stamped = None;
        }
        let image = &mut self.image;
        let stamped = self.stamped.get_or_insert_with(|| {
            let parts = ChunkParts {
                header: chunk_header(
                    ChunkKind::Frame,
                    Some(frame.kind),
                    stream_id,
                    seq,
                    frame.frame_index,
                    frame.payload.len(),
                ),
                payload: frame.payload.clone(),
                payload_crc: frame.payload_crc,
            };
            image.clear();
            parts.write_to(image);
            Stamped { key, parts }
        });
        (&stamped.parts, &self.image)
    }
}

/// The transmit half of a streaming session: one subscriber's wire.
///
/// Each subscription has its own sequence space, ARQ ring, and
/// counters; it never touches the codec. Frame payloads come from a
/// shared [`FrameSource`] (or, in degraded fan-out, a transformed copy)
/// and are stamped with this subscriber's sequence number on the way
/// out.
#[derive(Debug)]
pub struct Subscription<W: Write> {
    writer: ChunkWriter<W>,
    stream_id: u32,
    seq: u32,
    stats: StreamStats,
    /// The stream header chunk, kept so a late `with_arq` can park it.
    header: ChunkParts,
    arq_ring: Option<SharedRing>,
    /// Wire bytes carried over from a previous life of this subscriber
    /// (reconnect/resume); `bytes_sent` is always `bytes_base` plus the
    /// current writer's count.
    bytes_base: u64,
}

impl<W: Write> Subscription<W> {
    /// Opens a subscriber's stream: writes and flushes `header` (from
    /// [`FrameSource::header`] or [`FrameSource::header_at`]).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn attach(writer: W, header: &Chunk) -> io::Result<Self> {
        let mut writer = ChunkWriter::new(writer);
        let parts = ChunkParts::from_chunk(header);
        writer.write_encoded(&parts.to_bytes())?;
        writer.flush()?;
        let stats = StreamStats {
            chunks_sent: 1,
            bytes_sent: writer.bytes_written(),
            ..StreamStats::default()
        };
        Ok(Subscription {
            writer,
            stream_id: header.stream_id,
            seq: 1,
            stats,
            header: parts,
            arq_ring: None,
            bytes_base: 0,
        })
    }

    /// Folds a previous life's counters into this subscription — the
    /// resume half of reconnect: a broadcast checkpoints a dead slot's
    /// stats, attaches a fresh subscription on the new transport, and
    /// carries the old life forward so the subscriber's ledger spans
    /// both. Byte accounting stays exact because future `bytes_sent`
    /// updates add the carried base to the new writer's count.
    pub fn carry_over(&mut self, prior: &StreamStats) {
        self.bytes_base += prior.bytes_sent;
        self.stats.merge(prior);
    }

    /// Parks every outgoing chunk (including the already-written stream
    /// header) in `ring` so an ARQ receiver holding a clone can NACK
    /// gaps against it. See [`crate::arq`].
    pub fn with_arq(mut self, ring: SharedRing) -> Self {
        ring.insert(0, self.header.clone());
        self.arq_ring = Some(ring);
        self
    }

    /// Folds a shared encode's timing and budget verdict into this
    /// subscriber's counters. The 1:1 [`Sender`](crate::Sender)
    /// attributes every encode to its only subscriber; a broadcast
    /// accounts the encode once at the source instead and skips this.
    pub fn record_encode(&mut self, frame: &FramePayload) {
        self.stats.add_stage_ns("stream/encode", frame.encode_ns);
        if frame.over_budget {
            self.stats.frames_over_budget += 1;
        }
    }

    /// Stamps one frame payload into this subscriber's stream under the
    /// local sequence number — reusing `memo`'s image when it already
    /// holds this exact chunk — parks the chunk's parts in the ARQ ring,
    /// writes the image in one write, and flushes at I-frames so resync
    /// points hit the wire immediately.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn send_payload(&mut self, frame: &FramePayload, memo: &mut StampMemo) -> io::Result<()> {
        let send_sp = pcc_probe::span("stream/send");
        let (parts, image) = memo.stamp(self.stream_id, self.seq, frame);
        if let Some(ring) = &self.arq_ring {
            ring.insert(self.seq, parts.clone());
        }
        self.writer.write_encoded(image)?;
        let wire_len = image.len() as u64;
        self.seq += 1;
        if frame.kind == FrameKind::Intra {
            // GOF boundary: the resync anchor must not sit in a buffer
            // while its group streams out behind it.
            self.writer.flush()?;
        }
        self.stats.add_stage_ns("stream/send", send_sp.stop());
        self.stats.frames_sent += 1;
        self.stats.chunks_sent += 1;
        self.stats.bytes_sent = self.bytes_base + self.writer.bytes_written();
        if frame.refresh {
            self.stats.refresh_frames += 1;
            self.stats.refresh_bytes += wire_len;
        }
        Ok(())
    }

    /// Counters so far.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Mutable counters. A broadcast books degradation it decided on
    /// this subscriber's behalf (shed frames, rung changes) against the
    /// subscriber it affected; the subscription itself only ever counts
    /// what it transmitted.
    pub fn stats_mut(&mut self) -> &mut StreamStats {
        &mut self.stats
    }

    /// Wire sequence number the next chunk will carry.
    pub fn next_seq(&self) -> u32 {
        self.seq
    }

    /// Seals this subscriber's stream with an end chunk carrying
    /// `total_frames` (the source's frame count — a degraded subscriber
    /// that was sent fewer frames must still learn the true total so
    /// its receiver can account the shed tail).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn finish(mut self, total_frames: u32) -> io::Result<(W, StreamStats)> {
        let parts = ChunkParts::from_chunk(&end_chunk(self.stream_id, self.seq, total_frames));
        if let Some(ring) = &self.arq_ring {
            ring.insert(self.seq, parts.clone());
        }
        self.writer.write_encoded(&parts.to_bytes())?;
        self.writer.flush()?;
        self.stats.chunks_sent += 1;
        self.stats.bytes_sent = self.bytes_base + self.writer.bytes_written();
        self.stats.clean_shutdown = true;
        Ok((self.writer.into_inner(), self.stats))
    }

    /// Detaches mid-stream without an end chunk (the subscriber left;
    /// its receiver will see a dirty shutdown, exactly like a dropped
    /// connection). Flushes buffered bytes first.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn into_parts(mut self) -> io::Result<(W, StreamStats)> {
        self.writer.flush()?;
        self.stats.bytes_sent = self.bytes_base + self.writer.bytes_written();
        Ok((self.writer.into_inner(), self.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkReader;
    use pcc_core::Design;
    use pcc_datasets::catalog;
    use pcc_edge::{Device, PowerMode};

    fn clip() -> pcc_types::Video {
        catalog::by_name("Loot").unwrap().generate_scaled(5, 800)
    }

    #[test]
    fn one_source_many_subscriptions_share_payload_bytes() {
        let video = clip();
        let codec = PccCodec::new(Design::IntraInterV1);
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let config = StreamConfig::default();
        let mut source = FrameSource::new(&codec, 6, &device, &config);
        let mut memo = StampMemo::new();
        let header = source.header();
        let mut subs: Vec<Subscription<Vec<u8>>> = (0..3)
            .map(|_| Subscription::attach(Vec::new(), &header).unwrap())
            .collect();
        for frame in video.iter() {
            let fp = source.encode_next(&frame.cloud);
            assert_eq!(fp.payload_crc, crc32(&fp.payload));
            for sub in &mut subs {
                sub.send_payload(&fp, &mut memo).unwrap();
            }
        }
        assert_eq!(source.frames_encoded(), video.len() as u64);
        let wires: Vec<Vec<u8>> = subs
            .into_iter()
            .map(|s| {
                let (w, stats) = s.finish(video.len() as u32).unwrap();
                assert_eq!(stats.frames_sent, video.len());
                assert!(stats.clean_shutdown);
                w
            })
            .collect();
        // Independent seq spaces over identical payloads: identical wires.
        assert_eq!(wires[0], wires[1]);
        assert_eq!(wires[0], wires[2]);
    }

    #[test]
    fn memo_reuses_an_image_only_for_the_same_payload_allocation() {
        let header = Chunk {
            kind: ChunkKind::StreamHeader,
            frame_kind: None,
            stream_id: 1,
            seq: 0,
            frame_index: 0,
            payload: vec![1, 3, 6],
        };
        let mut memo = StampMemo::new();
        let mut stamped = Vec::new();
        let a = FramePayload::from_bytes(0, FrameKind::Intra, vec![1; 64]);
        // Equal bytes in another allocation, and other bytes under a
        // forged equal CRC: every header field and the CRC match `a`,
        // so only the allocation tells the memo the images differ.
        let copy = FramePayload::from_bytes(0, FrameKind::Intra, vec![1; 64]);
        let forged = FramePayload { payload: vec![2; 64].into(), ..a.clone() };
        for frame in [&a, &a, &copy, &forged] {
            let mut sub = Subscription::attach(Vec::new(), &header).unwrap();
            sub.send_payload(frame, &mut memo).unwrap();
            let (wire, _) = sub.into_parts().unwrap();
            let mut fresh = Subscription::attach(Vec::new(), &header).unwrap();
            fresh.send_payload(frame, &mut StampMemo::new()).unwrap();
            assert_eq!(wire, fresh.into_parts().unwrap().0);
            stamped.push(wire);
        }
        assert_eq!(stamped[0], stamped[1]);
        assert_eq!(stamped[0], stamped[2]);
        assert_ne!(stamped[0], stamped[3], "a memoised image leaked onto another payload");
    }

    #[test]
    fn source_plus_subscription_matches_sender_bytes() {
        let video = clip();
        let codec = PccCodec::new(Design::IntraInterV1);
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let config = StreamConfig::default();

        let mut sender =
            crate::Sender::new(&codec, 6, &device, Vec::new(), &config).unwrap();
        for frame in video.iter() {
            sender.send_frame(&frame.cloud).unwrap();
        }
        let (sender_wire, sender_stats) = sender.finish().unwrap();

        let mut source = FrameSource::new(&codec, 6, &device, &config);

        let mut memo = StampMemo::new();
        let mut sub = Subscription::attach(Vec::new(), &source.header()).unwrap();
        for frame in video.iter() {
            let fp = source.encode_next(&frame.cloud);
            sub.record_encode(&fp);
            sub.send_payload(&fp, &mut memo).unwrap();
        }
        let (split_wire, split_stats) = sub.finish(video.len() as u32).unwrap();

        assert_eq!(sender_wire, split_wire);
        assert_eq!(sender_stats, split_stats);
    }

    #[test]
    fn header_at_zero_is_the_legacy_header() {
        let codec = PccCodec::new(Design::IntraInterV1);
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let source = FrameSource::new(&codec, 7, &device, &StreamConfig::default());
        let legacy = source.header();
        assert_eq!(legacy.payload.len(), 3);
        assert_eq!(source.header_at(0), legacy);
        let joined = source.header_at(9);
        assert_eq!(joined.payload.len(), 7);
        assert_eq!(joined.payload[..3], legacy.payload[..]);
        assert_eq!(joined.payload[3..7], 9u32.to_le_bytes());
    }

    #[test]
    fn refresh_request_re_anchors_at_the_next_slot() {
        let video = clip();
        let codec = PccCodec::new(Design::IntraInterV1);
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let mut source = FrameSource::new(&codec, 6, &device, &StreamConfig::default());
        let mut memo = StampMemo::new();
        let mut sub = Subscription::attach(Vec::new(), &source.header()).unwrap();

        let f0 = source.encode_next(&video.frame(0).unwrap().cloud);
        assert_eq!(f0.kind, FrameKind::Intra);
        let f1 = source.encode_next(&video.frame(1).unwrap().cloud);
        assert_eq!(f1.kind, FrameKind::Predicted);

        // Index 2 is a P slot in the IPP cadence; a staged refresh turns
        // it into an out-of-schedule anchor.
        source.request_refresh();
        assert!(source.refresh_pending());
        let f2 = source.encode_next(&video.frame(2).unwrap().cloud);
        assert_eq!(f2.kind, FrameKind::Intra);
        assert!(f2.refresh);
        assert!(!source.refresh_pending());

        // Index 3 is a scheduled I slot: a refresh ask there is free.
        source.request_refresh();
        let f3 = source.encode_next(&video.frame(3).unwrap().cloud);
        assert_eq!(f3.kind, FrameKind::Intra);
        assert!(!f3.refresh);

        for f in [&f0, &f1, &f2, &f3] {
            sub.send_payload(f, &mut memo).unwrap();
        }
        let (_, stats) = sub.finish(4).unwrap();
        assert_eq!(stats.refresh_frames, 1);
        assert!(stats.refresh_bytes > 0);
        assert!(stats.refresh_bytes < stats.bytes_sent);
    }

    #[test]
    fn carry_over_spans_two_lives_with_exact_byte_accounting() {
        let video = clip();
        let codec = PccCodec::new(Design::IntraInterV1);
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let mut source = FrameSource::new(&codec, 6, &device, &StreamConfig::default());
        let mut memo = StampMemo::new();

        let mut first = Subscription::attach(Vec::new(), &source.header()).unwrap();
        let f0 = source.encode_next(&video.frame(0).unwrap().cloud);
        first.send_payload(&f0, &mut memo).unwrap();
        let (wire1, prior) = first.into_parts().unwrap();
        assert_eq!(prior.bytes_sent, wire1.len() as u64);

        let mut second = Subscription::attach(Vec::new(), &source.header_at(1)).unwrap();
        second.carry_over(&prior);
        let f1 = source.encode_next(&video.frame(1).unwrap().cloud);
        second.send_payload(&f1, &mut memo).unwrap();
        let (wire2, total) = second.finish(2).unwrap();

        assert_eq!(total.frames_sent, 2, "both lives' frames count");
        assert_eq!(
            total.bytes_sent,
            (wire1.len() + wire2.len()) as u64,
            "byte ledger must span both transports exactly"
        );
        assert!(total.clean_shutdown, "finish() seals the resumed life");
    }

    #[test]
    fn detach_leaves_a_dirty_but_parseable_stream() {
        let video = clip();
        let codec = PccCodec::new(Design::IntraInterV1);
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let mut source = FrameSource::new(&codec, 6, &device, &StreamConfig::default());
        let mut memo = StampMemo::new();
        let mut sub = Subscription::attach(Vec::new(), &source.header()).unwrap();
        let fp = source.encode_next(&video.frame(0).unwrap().cloud);
        sub.send_payload(&fp, &mut memo).unwrap();
        let (wire, stats) = sub.into_parts().unwrap();
        assert!(!stats.clean_shutdown);
        assert_eq!(stats.frames_sent, 1);
        let mut reader = ChunkReader::new(wire.as_slice());
        let mut kinds = Vec::new();
        while let Some(c) = reader.next_chunk().unwrap() {
            kinds.push(c.kind);
        }
        assert_eq!(kinds, vec![ChunkKind::StreamHeader, ChunkKind::Frame]);
    }
}
