//! Video-level encoding/decoding across the five designs.

use crate::design::Design;
use pcc_baseline::{CwipcCodec, CwipcFrame, Tmc13Codec, Tmc13Frame};
use pcc_edge::{Device, Timeline};
use pcc_inter::{InterCodec, InterConfig, InterEncoded};
use pcc_intra::{BrickIndex, IntraCodec, IntraFrame};
use pcc_metrics::CompressedSize;
use pcc_types::{
    Aabb, DecodeError, FrameKind, GofPattern, Limits, PointCloud, Rgb, Video, VoxelizedCloud,
};

/// One encoded frame of any design.
#[derive(Debug, Clone)]
pub enum EncodedFrame {
    /// TMC13 baseline frame.
    Tmc13(Tmc13Frame),
    /// CWIPC baseline frame (I or P).
    Cwipc(CwipcFrame),
    /// Proposed intra frame.
    Intra(IntraFrame),
    /// Proposed inter (P) frame.
    Inter(InterEncoded),
}

impl EncodedFrame {
    /// Size accounting for this frame.
    pub fn size(&self) -> CompressedSize {
        let (g, a) = match self {
            EncodedFrame::Tmc13(f) => (f.geometry.len(), f.attribute.len()),
            EncodedFrame::Cwipc(f) => (f.geometry.len(), f.attribute.len()),
            EncodedFrame::Intra(f) => (f.geometry.len(), f.attribute.len()),
            EncodedFrame::Inter(f) => (f.frame.geometry.len(), f.frame.attribute.len()),
        };
        CompressedSize::new(g, a, 0)
    }

    /// Raw points the frame was encoded from.
    pub fn raw_points(&self) -> usize {
        match self {
            EncodedFrame::Tmc13(f) => f.raw_points,
            EncodedFrame::Cwipc(f) => f.raw_points,
            EncodedFrame::Intra(f) => f.raw_points,
            EncodedFrame::Inter(f) => f.frame.raw_points,
        }
    }

    /// Whether this frame was predicted from a reference.
    pub fn kind(&self) -> FrameKind {
        match self {
            EncodedFrame::Cwipc(f) if f.predicted => FrameKind::Predicted,
            EncodedFrame::Inter(_) => FrameKind::Predicted,
            _ => FrameKind::Intra,
        }
    }

    /// Direct-reuse fraction for proposed inter frames (`None` otherwise).
    pub fn reuse_fraction(&self) -> Option<f64> {
        match self {
            EncodedFrame::Inter(f) => Some(f.stats.reuse_fraction()),
            _ => None,
        }
    }
}

/// An encoded video: per-frame payloads plus per-frame encode timelines.
#[derive(Debug, Clone)]
pub struct EncodedVideo {
    /// The design that produced the stream.
    pub design: Design,
    /// Encoded frames in display order.
    pub frames: Vec<EncodedFrame>,
    /// Modeled encode timeline of each frame.
    pub encode_timelines: Vec<Timeline>,
    /// Voxel-grid depth used for every frame.
    pub depth: u8,
}

impl EncodedVideo {
    /// Total compressed size across frames.
    pub fn total_size(&self) -> CompressedSize {
        self.frames.iter().map(|f| f.size()).sum()
    }

    /// Total raw bytes across frames (15 bytes/point).
    pub fn total_raw_bytes(&self) -> usize {
        self.frames.iter().map(|f| f.raw_points() * pcc_types::RAW_BYTES_PER_POINT).sum()
    }
}

/// The top-level video codec for one [`Design`].
#[derive(Debug, Clone)]
pub struct PccCodec {
    design: Design,
    inter_config: Option<InterConfig>,
}

impl PccCodec {
    /// Creates a codec for a design with its paper configuration.
    pub fn new(design: Design) -> Self {
        PccCodec { design, inter_config: design.inter_config() }
    }

    /// Creates an intra+inter codec with a custom inter configuration
    /// (the Fig. 10b threshold-sweep entry point).
    pub fn with_inter_config(config: InterConfig) -> Self {
        PccCodec { design: Design::IntraInterV1, inter_config: Some(config) }
    }

    /// The codec's design.
    pub fn design(&self) -> Design {
        self.design
    }

    /// Encodes a whole video on a common voxel grid of the given depth,
    /// charging each frame's pipeline to `device` (its timeline is drained
    /// per frame into the result).
    ///
    /// This is a thin loop over [`FrameEncoder`]; live pipelines that need
    /// frames as they are produced drive [`frame_encoder`](Self::frame_encoder)
    /// directly and get bit-identical output.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside `1..=21`.
    pub fn encode_video(&self, video: &Video, depth: u8, device: &Device) -> EncodedVideo {
        let mut encoder = self.frame_encoder(depth, device);
        if let Some(bb) = video.bounding_box() {
            encoder = encoder.with_bounding_box(bb);
        }
        let mut frames = Vec::with_capacity(video.len());
        let mut timelines = Vec::with_capacity(video.len());
        for frame in video.iter() {
            let (encoded, timeline) = encoder.encode_frame(&frame.cloud);
            frames.push(encoded);
            timelines.push(timeline);
        }
        EncodedVideo { design: self.design, frames, encode_timelines: timelines, depth }
    }

    /// Creates a streaming frame-at-a-time encoder for this codec.
    ///
    /// The encoder owns the IPP reference state, so frames must be fed in
    /// display order; each call returns the coded frame immediately instead
    /// of buffering the whole video. Without an explicit bounding box
    /// ([`FrameEncoder::with_bounding_box`]) every frame is voxelized in
    /// its own box — a live capture cannot see the future; batch callers
    /// ([`encode_video`](Self::encode_video)) pass the whole video's box.
    pub fn frame_encoder<'d>(&self, depth: u8, device: &'d Device) -> FrameEncoder<'d> {
        // References held exactly as a real encoder would: the *decoded*
        // form of the last I-frame. The proposed designs reconstruct it
        // as the layers quantize; CWIPC's is rebuilt by a decode on an
        // uncharged scratch device.
        let scratch = Device::new(device.spec().clone(), device.mode())
            .with_host_threads(device.configured_host_threads());
        FrameEncoder {
            design: self.design,
            // Inter designs always carry a config (`PccCodec::new` installs
            // the paper defaults); intra-only designs never read it, so the
            // default is inert — resolving here keeps the hot loop
            // panic-free on any state.
            inter_config: self.inter_config.unwrap_or_default(),
            depth,
            device,
            scratch,
            gof: self.design.gof_pattern(),
            bounding_box: None,
            index: 0,
            pending_config: None,
            force_intra: false,
            reference_colors: None,
            reference_cloud: None,
            arena: pcc_inter::InterArena::new(),
        }
    }

    /// Creates a streaming frame-at-a-time decoder for this codec.
    ///
    /// The decoder owns the IPP reference state; feeding it every frame of
    /// an [`EncodedVideo`] in order reproduces
    /// [`decode_video`](Self::decode_video) exactly, while lossy transports
    /// ([`FrameDecoder::skip_frames`], [`FrameDecoder::invalidate_reference`])
    /// can drop frames and resynchronize at the next intra frame.
    pub fn frame_decoder<'d>(&self, device: &'d Device) -> FrameDecoder<'d> {
        device.reset();
        FrameDecoder {
            inter_config: self.inter_config,
            device,
            limits: Limits::default(),
            index: 0,
            reference_colors: None,
            reference_cloud: None,
        }
    }

    /// Decodes an encoded video back to world-space point clouds,
    /// charging decode kernels to `device`.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed frames or broken reference
    /// chains.
    pub fn decode_video(
        &self,
        encoded: &EncodedVideo,
        device: &Device,
    ) -> Result<Vec<PointCloud>, DecodeError> {
        Ok(self.decode_video_with_timelines(encoded, device)?.0)
    }

    /// Like [`decode_video`](Self::decode_video), but also returns each
    /// frame's modeled decode timeline (the device is drained per frame).
    ///
    /// # Errors
    ///
    /// Same as [`decode_video`](Self::decode_video).
    pub fn decode_video_with_timelines(
        &self,
        encoded: &EncodedVideo,
        device: &Device,
    ) -> Result<(Vec<PointCloud>, Vec<Timeline>), DecodeError> {
        let mut decoder = self.frame_decoder(device);
        let mut timelines = Vec::with_capacity(encoded.frames.len());
        let mut out = Vec::with_capacity(encoded.frames.len());
        for frame in &encoded.frames {
            let (cloud, timeline) = decoder.decode_frame(frame)?;
            out.push(cloud);
            timelines.push(timeline);
        }
        Ok((out, timelines))
    }
}

/// Streaming frame-at-a-time encoder: the IPP session state machine behind
/// [`PccCodec::encode_video`].
///
/// Holds the design's group-of-frames cadence and the decoded reference of
/// the last I-frame, so a live source can push clouds one by one and emit
/// each coded frame as soon as it exists.
#[derive(Debug)]
pub struct FrameEncoder<'d> {
    design: Design,
    inter_config: InterConfig,
    depth: u8,
    device: &'d Device,
    scratch: Device,
    gof: GofPattern,
    bounding_box: Option<Aabb>,
    index: usize,
    /// A live configuration change staged by [`set_inter_config`]
    /// (`Self::set_inter_config`), applied at the next I-frame slot.
    pending_config: Option<InterConfig>,
    /// An out-of-schedule intra refresh staged by
    /// [`force_intra_next`](Self::force_intra_next): the next encoded
    /// frame is coded as an I-frame regardless of the GOF cursor.
    force_intra: bool,
    reference_colors: Option<Vec<Rgb>>,
    reference_cloud: Option<VoxelizedCloud>,
    /// The session's one encode arena, for every design and frame kind:
    /// the intra pipeline's buffers (sort staging, octree levels, gather
    /// and layer buffers), which I-frames and the geometry of P-frames
    /// share, plus the matcher and delta-layer buffers only P-frames use.
    /// Every per-frame intermediate is reused, so the encode hot path
    /// stops allocating once the buffers warm to the working-set size.
    arena: pcc_inter::InterArena,
}

impl<'d> FrameEncoder<'d> {
    /// Voxelizes every frame in this common bounding box instead of each
    /// frame's own box (what batch encoding does with the whole video's
    /// box).
    pub fn with_bounding_box(mut self, bb: Aabb) -> Self {
        self.bounding_box = Some(bb);
        self
    }

    /// Index of the next frame to encode.
    pub fn frame_index(&self) -> usize {
        self.index
    }

    /// The kind ([`FrameKind::Intra`] / [`FrameKind::Predicted`]) the next
    /// frame will be coded as.
    pub fn next_kind(&self) -> FrameKind {
        if self.force_intra {
            FrameKind::Intra
        } else {
            self.gof.kind_of(self.index)
        }
    }

    /// Forces the next encoded frame to be an I-frame even if the GOF
    /// cursor says the slot is predicted.
    ///
    /// This is the sender half of receiver-driven intra refresh: a
    /// receiver whose reference picture is broken asks for a new anchor,
    /// and the encoder re-anchors at the next slot instead of letting the
    /// receiver wait out the rest of the group. The forced I-frame is a
    /// semantic GOF boundary — it installs fresh reference state and any
    /// staged configuration change lands there, exactly as at a scheduled
    /// boundary. The flag is consumed by the next
    /// [`encode_frame`](Self::encode_frame) call and is a no-op when the
    /// slot was already intra.
    pub fn force_intra_next(&mut self) {
        self.force_intra = true;
    }

    /// The design's group-of-frames cadence.
    pub fn gof_pattern(&self) -> GofPattern {
        self.gof
    }

    /// The inter configuration currently applied to encoded frames.
    pub fn inter_config(&self) -> InterConfig {
        self.inter_config
    }

    /// Stages a live configuration change, applied when the next I-frame
    /// slot is encoded.
    ///
    /// Deferring to a group-of-frames boundary keeps the reference chain
    /// consistent: every P-frame is encoded with the same configuration
    /// as the I-frame it references. Only knobs that do not change the
    /// decode contract may move mid-stream (the reuse threshold and the
    /// intra `two_layer` flag — see `pcc-adapt`'s ladder validation);
    /// this method does not re-validate, since the encoder cannot know
    /// what the receiver was told at session start.
    pub fn set_inter_config(&mut self, config: InterConfig) {
        self.pending_config = Some(config);
    }

    /// Whether a staged configuration change is waiting for an I-frame.
    pub fn has_pending_config(&self) -> bool {
        self.pending_config.is_some()
    }

    /// Skips the next frame slot without encoding anything.
    ///
    /// The frame-index gap this leaves on the wire is exactly the signal
    /// receivers already understand as one lost frame. Skipping a
    /// P-frame slot leaves the encoder's reference state untouched, so
    /// later frames are byte-identical to an unskipped session; skipping
    /// an I-frame slot invalidates the held reference, so the following
    /// P-slots are encoded as intra fallbacks that re-anchor the
    /// receiver instead of referencing a picture it never saw.
    pub fn skip_frame(&mut self) {
        if self.gof.kind_of(self.index) == FrameKind::Intra {
            self.invalidate_reference();
        }
        self.index += 1;
    }

    /// Forgets the held reference state. The next P-frame slot will be
    /// encoded as an intra fallback (the same fallback used for a
    /// session's very first frames), which re-anchors any receiver.
    /// Supervisors call this when an I-frame encode fails mid-flight and
    /// the reference can no longer be trusted.
    pub fn invalidate_reference(&mut self) {
        self.reference_colors = None;
        self.reference_cloud = None;
    }

    /// Encodes the next frame of the session, returning the coded frame
    /// and its modeled encode timeline (the device is drained per frame).
    pub fn encode_frame(&mut self, cloud: &PointCloud) -> (EncodedFrame, Timeline) {
        let mut sp = pcc_probe::span("frame/encode");
        let voxelize_sp = pcc_probe::span("frame/voxelize");
        let vox = match &self.bounding_box {
            Some(bb) => VoxelizedCloud::from_cloud_in_box(cloud, self.depth, bb),
            None => VoxelizedCloud::from_cloud(cloud, self.depth),
        };
        voxelize_sp.stop();
        let kind = if self.force_intra { FrameKind::Intra } else { self.gof.kind_of(self.index) };
        self.force_intra = false;
        if kind == FrameKind::Intra {
            // GOF boundary: a staged live configuration change lands
            // here, never mid-group.
            if let Some(cfg) = self.pending_config.take() {
                self.inter_config = cfg;
            }
        }
        let device = self.device;
        device.reset();
        let encoded = match (self.design, kind) {
            (Design::Tmc13, _) => EncodedFrame::Tmc13(Tmc13Codec::default().encode(&vox, device)),
            (Design::Cwipc, FrameKind::Intra) => {
                let codec = CwipcCodec::default();
                let f = codec.encode_intra(&vox, device);
                self.scratch.reset();
                self.reference_cloud = codec.decode(&f, None, &self.scratch).ok();
                EncodedFrame::Cwipc(f)
            }
            (Design::Cwipc, FrameKind::Predicted) => {
                let codec = CwipcCodec::default();
                match &self.reference_cloud {
                    Some(r) => EncodedFrame::Cwipc(codec.encode_predicted(&vox, r, device)),
                    None => EncodedFrame::Cwipc(codec.encode_intra(&vox, device)),
                }
            }
            (Design::IntraOnly, _) => {
                // The returned frame is owned by the caller, so its own
                // payload vectors are per-frame; every intermediate goes
                // through the session arena and is reused.
                let mut f = IntraFrame::default();
                IntraCodec::default().encode_into(&vox, device, self.arena.intra(), &mut f, None);
                EncodedFrame::Intra(f)
            }
            (Design::IntraInterV1 | Design::IntraInterV2, FrameKind::Intra) => {
                // The closed-loop reference is reconstructed as the
                // layers quantize, into the held buffer: the colors the
                // receiver decodes, without decoding the frame.
                let intra = IntraCodec::new(self.inter_config.intra);
                let mut f = IntraFrame::default();
                let mut reference = self.reference_colors.take().unwrap_or_default();
                let arena = self.arena.intra();
                intra.encode_into(&vox, device, arena, &mut f, Some(&mut reference));
                self.reference_colors = Some(reference);
                EncodedFrame::Intra(f)
            }
            (Design::IntraInterV1 | Design::IntraInterV2, FrameKind::Predicted) => {
                let cfg = self.inter_config;
                let arena = &mut self.arena;
                match &self.reference_colors {
                    Some(r) => {
                        let mut enc = InterEncoded::default();
                        InterCodec::new(cfg).encode_into(&vox, r, device, arena, &mut enc);
                        EncodedFrame::Inter(enc)
                    }
                    None => {
                        let mut f = IntraFrame::default();
                        let arena = arena.intra();
                        IntraCodec::new(cfg.intra).encode_into(&vox, device, arena, &mut f, None);
                        EncodedFrame::Intra(f)
                    }
                }
            }
        };
        self.index += 1;
        sp.add_bytes(encoded.size().total_bytes() as u64);
        (encoded, device.take_timeline())
    }
}

/// Streaming frame-at-a-time decoder: the IPP session state machine behind
/// [`PccCodec::decode_video`], with the loss-handling hooks a lossy
/// transport needs.
///
/// P-frames reference the decoded form of their GOF's I-frame only, so a
/// receiver that loses a P-frame keeps decoding the rest of the GOF; one
/// that loses an I-frame must [`invalidate_reference`](Self::invalidate_reference)
/// and drop P-frames until the next I-frame arrives.
#[derive(Debug)]
pub struct FrameDecoder<'d> {
    inter_config: Option<InterConfig>,
    device: &'d Device,
    limits: Limits,
    index: usize,
    reference_colors: Option<Vec<Rgb>>,
    reference_cloud: Option<VoxelizedCloud>,
}

impl<'d> FrameDecoder<'d> {
    /// Caps wire-declared sizes during decoding with explicit resource
    /// [`Limits`]; every payload decoder checks declared point, block,
    /// depth, and allocation budgets *before* allocating. Defaults to
    /// [`Limits::default`].
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// The resource limits frames are decoded under.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// Index of the next frame this decoder expects (used in
    /// [`DecodeError::MissingReference`] reports).
    pub fn next_index(&self) -> usize {
        self.index
    }

    /// Records `n` frames skipped by the transport so subsequent error
    /// reports keep absolute frame indices.
    pub fn skip_frames(&mut self, n: usize) {
        self.index += n;
    }

    /// Forgets the decoded reference state. A lossy receiver calls this
    /// when it detects that an I-frame was lost, so later P-frames of the
    /// broken group can never silently decode against a stale reference.
    pub fn invalidate_reference(&mut self) {
        self.reference_colors = None;
        self.reference_cloud = None;
    }

    /// Whether a decoded reference is currently held.
    pub fn has_reference(&self) -> bool {
        self.reference_colors.is_some() || self.reference_cloud.is_some()
    }

    /// Decodes the next frame of the session, returning the world-space
    /// cloud and its modeled decode timeline (the device is drained per
    /// frame).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed frames or when a predicted
    /// frame arrives without a decodable reference.
    pub fn decode_frame(&mut self, frame: &EncodedFrame) -> Result<(PointCloud, Timeline), DecodeError> {
        let decoded = self.decode_next(frame, None, false)?;
        Ok((decoded.cloud, decoded.timeline))
    }

    /// [`decode_frame`](Self::decode_frame) that tolerates brick damage.
    ///
    /// A brick-partitioned I-frame is decoded in one pass that records
    /// which bricks failed. If any failed their CRC and `fetch` is given,
    /// each damaged cell is asked for in cell order: `fetch(cell)`
    /// returns the brick's original `geometry ++ attribute` bytes (a NACK
    /// answered from the sender's frame history). The answer is checked
    /// against the index's length and CRC, so a lying repair source can
    /// never install a corrupt reference; the first missing or failing
    /// answer ends the repair. A frame made whole this way is bit-exact
    /// with an undamaged delivery and anchors reference state like one.
    ///
    /// A frame that stays damaged but has surviving bricks is delivered
    /// [`partial`](Decoded::partial): its survivors, never a reference —
    /// the held reference is dropped, since this frame replaced it.
    ///
    /// # Errors
    ///
    /// As [`decode_frame`](Self::decode_frame); a damaged brick frame
    /// fails only when its index is unusable or no brick survived.
    pub fn decode_with_repair(
        &mut self,
        frame: &EncodedFrame,
        fetch: Option<&mut dyn FnMut(u64) -> Option<Vec<u8>>>,
    ) -> Result<Decoded, DecodeError> {
        self.decode_next(frame, fetch, true)
    }

    fn decode_next(
        &mut self,
        frame: &EncodedFrame,
        fetch: Option<&mut dyn FnMut(u64) -> Option<Vec<u8>>>,
        salvage: bool,
    ) -> Result<Decoded, DecodeError> {
        let mut sp = pcc_probe::span("frame/decode");
        sp.add_bytes(frame.size().total_bytes() as u64);
        let i = self.index;
        self.index += 1;
        let device = self.device;
        // A decode that failed part-way leaves its charges on the device;
        // they must not land in this frame's timeline.
        device.reset();
        let limits = &self.limits;
        let mut bricks_repaired = 0;
        let vox = match frame {
            EncodedFrame::Tmc13(f) => Tmc13Codec::default().decode_with_limits(f, device, limits)?,
            EncodedFrame::Cwipc(f) => {
                let codec = CwipcCodec::default();
                let dec = if f.predicted {
                    let r = self
                        .reference_cloud
                        .as_ref()
                        .ok_or(DecodeError::MissingReference { frame: i })?;
                    codec.decode_with_limits(f, Some(r), device, limits)?
                } else {
                    codec.decode_with_limits(f, None, device, limits)?
                };
                if !f.predicted {
                    self.reference_cloud = Some(dec.clone());
                }
                dec
            }
            EncodedFrame::Intra(f) => {
                // Intra frames describe themselves, so the default codec
                // decodes every layout. An unreadable index leaves nothing
                // to repair or salvage; the strict route then decides.
                let codec = IntraCodec::default();
                let pass = if salvage && BrickIndex::detect(&f.geometry) {
                    codec.decode_bricks(f, device, limits, |_, _| true).ok()
                } else {
                    None
                };
                let dec = match pass {
                    Some(mut pass) => {
                        if let Some(fetch) = fetch.filter(|_| !pass.is_whole()) {
                            pass.repair(fetch);
                        }
                        let (dropped, total) = (pass.bricks_dropped(), pass.bricks_total());
                        if !pass.is_whole() && (dropped < total || total == 0) {
                            self.invalidate_reference();
                            return Ok(Decoded {
                                cloud: pass.salvage(device)?.to_cloud(),
                                timeline: device.take_timeline(),
                                bricks_repaired: 0,
                                partial: Some((dropped, total)),
                            });
                        }
                        bricks_repaired = pass.bricks_repaired();
                        pass.into_cloud(device)?
                    }
                    None => codec.decode_with_limits(f, device, limits)?,
                };
                self.reference_colors = Some(dec.colors().to_vec());
                dec
            }
            EncodedFrame::Inter(f) => {
                let Some(cfg) = self.inter_config else {
                    return Err(DecodeError::MissingInterConfig { frame: i });
                };
                let r = self
                    .reference_colors
                    .as_ref()
                    .ok_or(DecodeError::MissingReference { frame: i })?;
                InterCodec::new(cfg).decode_with_limits(f, r, device, limits)?
            }
        };
        Ok(Decoded {
            cloud: vox.to_cloud(),
            timeline: device.take_timeline(),
            bricks_repaired,
            partial: None,
        })
    }

    /// Partially decodes an intra frame to the bricks intersecting
    /// `viewport` (world space). A viewer pointed at part of the scene
    /// decodes only the payload bytes its viewport sees.
    ///
    /// Stateless: the decoder's frame index and reference state are
    /// untouched — a partial frame must never become the reference a
    /// P-frame decodes against. Monolithic intra frames (the golden
    /// compatibility mode) carry no brick index, so they fall back to a
    /// full decode: correct output, none of the bandwidth win.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError::Corrupt`] for non-intra frames (only
    /// proposed intra frames carry a brick index), or the intra decode's
    /// error on damage.
    pub fn decode_viewport(
        &self,
        frame: &EncodedFrame,
        viewport: &Aabb,
    ) -> Result<(PointCloud, Timeline), DecodeError> {
        let EncodedFrame::Intra(f) = frame else {
            return Err(DecodeError::Corrupt {
                what: "partial decode on a frame kind without a brick index",
                offset: 0,
            });
        };
        let (device, limits) = (self.device, &self.limits);
        device.reset();
        let codec = IntraCodec::default();
        let vox = if BrickIndex::detect(&f.geometry) {
            codec
                .decode_bricks(f, device, limits, |_, bounds| bounds.intersects(viewport))?
                .into_cloud(device)?
        } else {
            codec.decode_with_limits(f, device, limits)?
        };
        Ok((vox.to_cloud(), device.take_timeline()))
    }
}

/// A frame from [`FrameDecoder::decode_with_repair`]: its points, its
/// modeled decode timeline, and what brick damage cost it.
#[derive(Debug, Clone)]
pub struct Decoded {
    /// The decoded points — the whole frame, or with
    /// [`partial`](Self::partial) set only the surviving bricks', in cell
    /// order (bit-identical to the same subset of a clean decode).
    pub cloud: PointCloud,
    /// Modeled decode timeline of the frame.
    pub timeline: Timeline,
    /// Damaged bricks decoded from fetched bytes; nonzero only when the
    /// repair made the frame whole.
    pub bricks_repaired: usize,
    /// `Some((dropped, total))` for a damaged brick I-frame delivered
    /// without its `dropped` of `total` bricks.
    pub partial: Option<(usize, usize)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_datasets::catalog;
    use pcc_edge::PowerMode;
    use pcc_types::Point3;

    fn device() -> Device {
        Device::jetson_agx_xavier(PowerMode::W15)
    }

    fn tiny_video() -> Video {
        catalog::by_name("Redandblack").unwrap().generate_scaled(4, 1_200)
    }

    #[test]
    fn all_designs_round_trip() {
        let video = tiny_video();
        let d = device();
        for design in Design::ALL {
            let codec = PccCodec::new(design);
            let enc = codec.encode_video(&video, 7, &d);
            assert_eq!(enc.frames.len(), video.len());
            assert_eq!(enc.encode_timelines.len(), video.len());
            let dec = codec.decode_video(&enc, &d).unwrap_or_else(|e| {
                panic!("{design} failed to decode: {e}");
            });
            assert_eq!(dec.len(), video.len());
            for cloud in &dec {
                assert!(!cloud.is_empty(), "{design} decoded an empty frame");
            }
        }
    }

    #[test]
    fn ipp_designs_produce_predicted_frames() {
        let video = tiny_video();
        let d = device();
        for design in [Design::Cwipc, Design::IntraInterV1, Design::IntraInterV2] {
            let enc = PccCodec::new(design).encode_video(&video, 7, &d);
            assert_eq!(enc.frames[0].kind(), FrameKind::Intra, "{design}");
            assert_eq!(enc.frames[1].kind(), FrameKind::Predicted, "{design}");
            assert_eq!(enc.frames[3].kind(), FrameKind::Intra, "{design}");
        }
        let enc = PccCodec::new(Design::IntraOnly).encode_video(&video, 7, &d);
        assert!(enc.frames.iter().all(|f| f.kind() == FrameKind::Intra));
    }

    #[test]
    fn proposed_designs_are_modeled_much_faster_than_baselines() {
        let video = tiny_video();
        let d = device();
        let ms_of = |design: Design| {
            let enc = PccCodec::new(design).encode_video(&video, 7, &d);
            let total: f64 =
                enc.encode_timelines.iter().map(|t| t.total_modeled_ms().as_f64()).sum();
            total / video.len() as f64
        };
        let tmc13 = ms_of(Design::Tmc13);
        let intra = ms_of(Design::IntraOnly);
        let v1 = ms_of(Design::IntraInterV1);
        assert!(
            tmc13 > intra * 10.0,
            "TMC13 {tmc13:.1} ms should dwarf Intra-Only {intra:.1} ms"
        );
        assert!(v1 >= intra, "inter adds overhead: {v1:.1} vs {intra:.1}");
    }

    #[test]
    fn inter_designs_compress_better_than_intra_only() {
        let video = tiny_video();
        let d = device();
        let size_of = |design: Design| {
            PccCodec::new(design).encode_video(&video, 7, &d).total_size().total_bytes()
        };
        let intra = size_of(Design::IntraOnly);
        let v1 = size_of(Design::IntraInterV1);
        let v2 = size_of(Design::IntraInterV2);
        assert!(v1 < intra, "V1 {v1} >= intra {intra}");
        assert!(v2 <= v1, "V2 {v2} > V1 {v1}");
    }

    #[test]
    fn missing_reference_is_detected() {
        let video = tiny_video();
        let d = device();
        let codec = PccCodec::new(Design::IntraInterV1);
        let mut enc = codec.encode_video(&video, 7, &d);
        enc.frames.remove(0); // drop the I-frame
        let err = codec.decode_video(&enc, &d).unwrap_err();
        assert_eq!(err, DecodeError::MissingReference { frame: 0 });
    }

    #[test]
    fn streaming_encoder_matches_batch_encoding() {
        let video = tiny_video();
        let d = device();
        for design in [Design::IntraOnly, Design::IntraInterV1, Design::Cwipc] {
            let codec = PccCodec::new(design);
            let batch = codec.encode_video(&video, 7, &d);
            let mut enc = codec
                .frame_encoder(7, &d)
                .with_bounding_box(video.bounding_box().unwrap());
            for (i, frame) in video.iter().enumerate() {
                assert_eq!(enc.frame_index(), i);
                assert_eq!(enc.next_kind(), design.gof_pattern().kind_of(i), "{design} frame {i}");
                let (encoded, _) = enc.encode_frame(&frame.cloud);
                let want = crate::container::mux(&EncodedVideo {
                    design,
                    frames: vec![batch.frames[i].clone()],
                    encode_timelines: vec![pcc_edge::Timeline::default()],
                    depth: 7,
                });
                let got = crate::container::mux(&EncodedVideo {
                    design,
                    frames: vec![encoded],
                    encode_timelines: vec![pcc_edge::Timeline::default()],
                    depth: 7,
                });
                assert_eq!(got, want, "{design} frame {i} bitstream diverged");
            }
        }
    }

    #[test]
    fn streaming_decoder_matches_batch_decoding() {
        let video = tiny_video();
        let d = device();
        let codec = PccCodec::new(Design::IntraInterV2);
        let enc = codec.encode_video(&video, 7, &d);
        let batch = codec.decode_video(&enc, &d).unwrap();
        let mut dec = codec.frame_decoder(&d);
        for (i, frame) in enc.frames.iter().enumerate() {
            let (cloud, _) = dec.decode_frame(frame).unwrap();
            assert_eq!(cloud, batch[i], "frame {i} diverged");
        }
    }

    #[test]
    fn invalidated_reference_rejects_predicted_frames() {
        let video = catalog::by_name("Redandblack").unwrap().generate_scaled(6, 1_200);
        let d = device();
        let codec = PccCodec::new(Design::IntraInterV1);
        let enc = codec.encode_video(&video, 7, &d);
        let mut dec = codec.frame_decoder(&d);
        dec.decode_frame(&enc.frames[0]).unwrap();
        assert!(dec.has_reference());
        // Transport lost the next GOF's I-frame: frames 1..3 of this GOF
        // would still decode, but after invalidation P-frames must fail
        // loudly instead of using a stale reference.
        dec.invalidate_reference();
        dec.skip_frames(2); // pretend frames 1 and 2 were dropped
        assert_eq!(dec.next_index(), 3);
        let err = dec.decode_frame(&enc.frames[4]).unwrap_err();
        assert_eq!(err, DecodeError::MissingReference { frame: 3 });
    }

    #[test]
    fn inter_frame_in_intra_only_decoder_errors_cleanly() {
        let video = tiny_video();
        let d = device();
        let enc = PccCodec::new(Design::IntraInterV1).encode_video(&video, 7, &d);
        let p_frame = enc
            .frames
            .iter()
            .find(|f| matches!(f, EncodedFrame::Inter(_)))
            .expect("IPP encoding produces an inter frame");
        // An intra-only codec has no inter config; a hostile container can
        // still hand it a P-frame record. That must be a typed error, not
        // a panic.
        let mut dec = PccCodec::new(Design::IntraOnly).frame_decoder(&d);
        let err = dec.decode_frame(p_frame).unwrap_err();
        assert_eq!(err, DecodeError::MissingInterConfig { frame: 0 });
    }

    #[test]
    fn decoder_limits_bound_wire_declared_sizes() {
        let video = tiny_video();
        let d = device();
        let codec = PccCodec::new(Design::IntraOnly);
        let enc = codec.encode_video(&video, 7, &d);
        let tight = Limits { max_points: 4, ..Limits::default() };
        let mut dec = codec.frame_decoder(&d).with_limits(tight);
        assert_eq!(dec.limits().max_points, 4);
        let err = dec.decode_frame(&enc.frames[0]).unwrap_err();
        assert!(
            matches!(&err, DecodeError::Limit(e) if e.what == "points"),
            "limit breach should surface as a limit error, got {err}"
        );
        // Default limits decode the same frame fine.
        let mut dec = codec.frame_decoder(&d);
        dec.decode_frame(&enc.frames[0]).unwrap();
    }

    #[test]
    fn config_changes_land_on_gof_boundaries() {
        let video = catalog::by_name("Redandblack").unwrap().generate_scaled(6, 1_200);
        let d = device();
        let bb = video.bounding_box().unwrap();
        let codec = PccCodec::new(Design::IntraInterV1);
        let mux_one = |f: EncodedFrame| {
            let mut out = Vec::new();
            crate::container::mux_frame(&mut out, &f);
            out
        };

        // Run A: stage the V2 config mid-group (before frame 1, a P).
        let mut a = codec.frame_encoder(7, &d).with_bounding_box(bb);
        let mut a_frames = Vec::new();
        for (i, frame) in video.iter().enumerate() {
            if i == 1 {
                a.set_inter_config(pcc_inter::InterConfig::v2());
                assert!(a.has_pending_config());
                assert_eq!(a.inter_config(), pcc_inter::InterConfig::v1(), "not applied yet");
            }
            a_frames.push(mux_one(a.encode_frame(&frame.cloud).0));
        }
        assert_eq!(a.inter_config(), pcc_inter::InterConfig::v2(), "applied at frame 3");
        assert!(!a.has_pending_config());

        // Run B: stage the same change right at the GOF boundary.
        let mut b = codec.frame_encoder(7, &d).with_bounding_box(bb);
        let mut b_frames = Vec::new();
        for (i, frame) in video.iter().enumerate() {
            if i == 3 {
                b.set_inter_config(pcc_inter::InterConfig::v2());
            }
            b_frames.push(mux_one(b.encode_frame(&frame.cloud).0));
        }
        assert_eq!(a_frames, b_frames, "deferred change must land identically");

        // And frames 0..3 match a pure-V1 session (the change truly waited).
        let v1 = codec.encode_video(&video, 7, &d);
        for (i, a) in a_frames.iter().enumerate().take(3) {
            assert_eq!(a, &mux_one(v1.frames[i].clone()), "frame {i} diverged");
        }
    }

    #[test]
    fn skipping_p_slots_leaves_later_frames_byte_identical() {
        let video = catalog::by_name("Redandblack").unwrap().generate_scaled(6, 1_200);
        let d = device();
        let bb = video.bounding_box().unwrap();
        let codec = PccCodec::new(Design::IntraInterV1);
        let clean = codec.encode_video(&video, 7, &d);
        let mux_one = |f: &EncodedFrame| {
            let mut out = Vec::new();
            crate::container::mux_frame(&mut out, f);
            out
        };

        let mut enc = codec.frame_encoder(7, &d).with_bounding_box(bb);
        for (i, frame) in video.iter().enumerate() {
            if i == 2 {
                // Shed the second P of the first group.
                assert_eq!(enc.next_kind(), FrameKind::Predicted);
                enc.skip_frame();
                assert_eq!(enc.frame_index(), 3);
                continue;
            }
            let (encoded, _) = enc.encode_frame(&frame.cloud);
            assert_eq!(
                mux_one(&encoded),
                mux_one(&clean.frames[i]),
                "frame {i} diverged after a P-slot skip"
            );
        }
    }

    #[test]
    fn skipping_an_i_slot_forces_an_intra_reanchor() {
        let video = catalog::by_name("Redandblack").unwrap().generate_scaled(6, 1_200);
        let d = device();
        let codec = PccCodec::new(Design::IntraInterV1);
        let mut enc = codec
            .frame_encoder(7, &d)
            .with_bounding_box(video.bounding_box().unwrap());
        for frame in video.iter().take(3) {
            enc.encode_frame(&frame.cloud);
        }
        // Frame 3 is the next group's I-frame; skipping it must poison
        // the reference so frame 4 cannot silently use frame 0's.
        enc.skip_frame();
        let (encoded, _) = enc.encode_frame(&video.frame(4).unwrap().cloud);
        assert_eq!(encoded.kind(), FrameKind::Intra, "P-slot must fall back to intra");
    }

    #[test]
    fn viewport_decode_returns_a_subset_and_leaves_state_alone() {
        let video = tiny_video();
        let d = device();
        let brick_cfg = pcc_inter::InterConfig {
            intra: pcc_intra::IntraConfig::default().with_bricks(2),
            ..pcc_inter::InterConfig::v1()
        };
        let codec = PccCodec::with_inter_config(brick_cfg);
        let enc = codec.encode_video(&video, 7, &d);
        let mut dec = codec.frame_decoder(&d);
        let (full, _) = dec.decode_frame(&enc.frames[0]).unwrap();
        assert!(dec.has_reference());

        let bb = video.bounding_box().unwrap();
        let viewport = Aabb::new(bb.min(), bb.center());
        let (partial, _) = dec.decode_viewport(&enc.frames[0], &viewport).unwrap();
        assert!(!partial.is_empty() && partial.len() < full.len());
        // Every partial point exists in the full decode.
        let full_set: std::collections::HashSet<_> =
            full.iter().map(|(p, c)| (p.x.to_bits(), p.y.to_bits(), p.z.to_bits(), c)).collect();
        for (p, c) in partial.iter() {
            assert!(full_set.contains(&(p.x.to_bits(), p.y.to_bits(), p.z.to_bits(), c)));
        }
        // Stateless: the next P-frame still decodes against frame 0.
        assert_eq!(dec.next_index(), 1);
        dec.decode_frame(&enc.frames[1]).unwrap();
    }

    #[test]
    fn viewport_decode_on_monolithic_frames_falls_back_to_full() {
        let video = tiny_video();
        let d = device();
        let codec = PccCodec::new(Design::IntraOnly);
        let enc = codec.encode_video(&video, 7, &d);
        let mut dec = codec.frame_decoder(&d);
        let (full, _) = dec.decode_frame(&enc.frames[0]).unwrap();
        let tiny = Aabb::new(Point3::ORIGIN, Point3::new(0.1, 0.1, 0.1));
        let (got, _) = dec.decode_viewport(&enc.frames[0], &tiny).unwrap();
        assert_eq!(got, full, "compatibility mode has no partial decode");
    }

    #[test]
    fn viewport_decode_rejects_non_intra_frames() {
        let video = tiny_video();
        let d = device();
        let codec = PccCodec::new(Design::IntraInterV1);
        let enc = codec.encode_video(&video, 7, &d);
        let p = enc.frames.iter().find(|f| matches!(f, EncodedFrame::Inter(_))).unwrap();
        let dec = codec.frame_decoder(&d);
        let bb = video.bounding_box().unwrap();
        let err = dec.decode_viewport(p, &bb).unwrap_err();
        assert!(
            matches!(err, DecodeError::Corrupt { what, offset: 0 } if what.contains("brick index")),
            "got {err}"
        );
    }

    #[test]
    fn salvage_recovers_all_but_the_damaged_brick() {
        let video = tiny_video();
        let d = device();
        let brick_cfg = pcc_inter::InterConfig {
            intra: pcc_intra::IntraConfig::default().with_bricks(2),
            ..pcc_inter::InterConfig::v1()
        };
        let codec = PccCodec::with_inter_config(brick_cfg);
        let enc = codec.encode_video(&video, 7, &d);
        let mut dec = codec.frame_decoder(&d);
        let (full, _) = dec.decode_frame(&enc.frames[0]).unwrap();

        let EncodedFrame::Intra(f) = &enc.frames[0] else { panic!("frame 0 is intra") };
        let mut damaged = f.clone();
        let last = damaged.geometry.len() - 1;
        damaged.geometry[last] ^= 0xFF; // payload byte: index survives
        let damaged = EncodedFrame::Intra(damaged);
        assert!(matches!(dec.decode_frame(&damaged), Err(DecodeError::Crc { .. })));

        let s = dec.decode_with_repair(&damaged, None).expect("salvageable");
        let (dropped, total) = s.partial.expect("a damaged brick frame is partial");
        assert_eq!(dropped, 1);
        assert!(total > 1);
        assert!(!s.cloud.is_empty() && s.cloud.len() < full.len());
        assert!(!dec.has_reference(), "a partial frame never anchors");
        // Repair from the clean frame makes it whole and a reference.
        let EncodedFrame::Intra(clean) = &enc.frames[0] else { unreachable!() };
        let index = BrickIndex::parse(&clean.geometry, &Limits::default()).unwrap();
        let mut fetch = |cell: u64| {
            let e = index.entries().iter().find(|e| e.cell == cell)?;
            let mut bytes = clean.geometry[e.geom.clone()].to_vec();
            bytes.extend_from_slice(&clean.attribute[e.attr.clone()]);
            Some(bytes)
        };
        let r = dec.decode_with_repair(&damaged, Some(&mut fetch)).unwrap();
        assert_eq!((r.partial, r.bricks_repaired), (None, 1));
        assert_eq!(r.cloud, full);
        assert!(dec.has_reference());
        // Monolithic damage has no per-brick accounting to salvage.
        let mono = PccCodec::new(Design::IntraOnly);
        let mono_enc = mono.encode_video(&video, 7, &d);
        let EncodedFrame::Intra(f) = &mono_enc.frames[0] else { panic!("frame 0 is intra") };
        let mut broken = f.clone();
        broken.attribute.truncate(broken.attribute.len() / 2);
        let broken = EncodedFrame::Intra(broken);
        assert!(mono.frame_decoder(&d).decode_with_repair(&broken, None).is_err());
    }

    #[test]
    fn a_failed_decode_leaves_no_charges_for_the_next_frame() {
        let video = tiny_video();
        let d = device();
        let codec = PccCodec::new(Design::IntraOnly);
        let enc = codec.encode_video(&video, 7, &d);
        // Geometry decodes, then the attributes fail: the geometry
        // charge is already on the device.
        let EncodedFrame::Intra(f) = &enc.frames[0] else { panic!("frame 0 is intra") };
        let mut bad = f.clone();
        bad.attribute.truncate(bad.attribute.len() / 2);
        let bad = EncodedFrame::Intra(bad);
        let (_, fresh) = codec.frame_decoder(&d).decode_frame(&enc.frames[1]).unwrap();

        let mut dec = codec.frame_decoder(&d);
        assert!(dec.decode_frame(&bad).is_err());
        let (_, after) = dec.decode_frame(&enc.frames[1]).unwrap();
        assert_eq!(after, fresh);
        assert!(dec.decode_with_repair(&bad, None).is_err());
        assert_eq!(dec.decode_with_repair(&enc.frames[1], None).unwrap().timeline, fresh);
        assert!(dec.decode_frame(&bad).is_err());
        let (_, viewport) = dec.decode_viewport(&enc.frames[1], &video.bounding_box().unwrap()).unwrap();
        assert_eq!(viewport, fresh);
    }

    #[test]
    fn custom_threshold_codec_tracks_reuse() {
        let video = tiny_video();
        let d = device();
        let loose = PccCodec::with_inter_config(
            pcc_inter::InterConfig::v1().with_threshold(1_000_000),
        );
        let enc = loose.encode_video(&video, 7, &d);
        let reuse: Vec<f64> = enc.frames.iter().filter_map(|f| f.reuse_fraction()).collect();
        assert!(!reuse.is_empty());
        assert!(reuse.iter().all(|&r| r > 0.95), "loose threshold should reuse ~all: {reuse:?}");
    }
}
