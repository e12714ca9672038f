//! Video-level encoding/decoding across the five designs.

use crate::design::Design;
use pcc_baseline::{BaselineError, CwipcCodec, CwipcFrame, Tmc13Codec, Tmc13Frame};
use pcc_edge::{Device, Timeline};
use pcc_inter::{InterCodec, InterConfig, InterEncoded, InterError};
use pcc_intra::{IntraCodec, IntraError, IntraFrame};
use pcc_metrics::CompressedSize;
use pcc_types::crc::{crc32, Crc32};
use pcc_types::{Aabb, FrameKind, GofPattern, Limits, PointCloud, Rgb, Video, VoxelizedCloud};
use std::fmt;

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

/// Errors produced while decoding an [`EncodedVideo`].
#[derive(Debug)]
#[non_exhaustive]
pub enum CodecError {
    /// A baseline frame failed to decode.
    Baseline(BaselineError),
    /// A proposed intra frame failed to decode.
    Intra(IntraError),
    /// A proposed inter frame failed to decode.
    Inter(InterError),
    /// A P-frame appeared before any I-frame.
    MissingReference {
        /// Index of the orphaned frame.
        frame: usize,
    },
    /// An inter-coded frame reached a decoder whose design carries no
    /// inter configuration (e.g. a P-frame record in an intra-only
    /// container).
    MissingInterConfig {
        /// Index of the offending frame.
        frame: usize,
    },
    /// A partial (brick) decode was requested on a frame kind that
    /// cannot support it — only proposed intra frames carry a brick
    /// index.
    PartialDecodeUnsupported,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Baseline(e) => write!(f, "baseline frame error: {e}"),
            CodecError::Intra(e) => write!(f, "intra frame error: {e}"),
            CodecError::Inter(e) => write!(f, "inter frame error: {e}"),
            CodecError::MissingReference { frame } => {
                write!(f, "frame {frame} is predicted but no reference was decoded")
            }
            CodecError::MissingInterConfig { frame } => {
                write!(f, "frame {frame} is inter-coded but the decoder's design has no inter config")
            }
            CodecError::PartialDecodeUnsupported => {
                write!(f, "partial (brick) decode requested on a frame kind without a brick index")
            }
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Baseline(e) => Some(e),
            CodecError::Intra(e) => Some(e),
            CodecError::Inter(e) => Some(e),
            CodecError::MissingReference { .. }
            | CodecError::MissingInterConfig { .. }
            | CodecError::PartialDecodeUnsupported => None,
        }
    }
}

impl From<BaselineError> for CodecError {
    fn from(e: BaselineError) -> Self {
        CodecError::Baseline(e)
    }
}

impl From<IntraError> for CodecError {
    fn from(e: IntraError) -> Self {
        CodecError::Intra(e)
    }
}

impl From<InterError> for CodecError {
    fn from(e: InterError) -> Self {
        CodecError::Inter(e)
    }
}

impl From<CodecError> for pcc_types::DecodeError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Baseline(b) => b.into(),
            CodecError::Intra(i) => i.into(),
            CodecError::Inter(i) => i.into(),
            CodecError::MissingReference { frame } => {
                pcc_types::DecodeError::MissingReference { frame }
            }
            CodecError::MissingInterConfig { frame } => {
                pcc_types::DecodeError::MissingInterConfig { frame }
            }
            CodecError::PartialDecodeUnsupported => pcc_types::DecodeError::Corrupt {
                what: "partial decode on a frame kind without a brick index",
                offset: 0,
            },
        }
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
        // form of the last I-frame (reconstruction is a cheap by-product
        // of encoding; it is rebuilt here on an uncharged scratch device).
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
            intra_arena: pcc_intra::FrameArena::new(),
            inter_arena: pcc_inter::InterArena::new(),
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
    /// Returns a [`CodecError`] on malformed frames or broken reference
    /// chains.
    pub fn decode_video(
        &self,
        encoded: &EncodedVideo,
        device: &Device,
    ) -> Result<Vec<PointCloud>, CodecError> {
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
    ) -> Result<(Vec<PointCloud>, Vec<Timeline>), CodecError> {
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
    /// Per-session scratch for the intra pipeline: every per-frame
    /// intermediate (sort staging, octree levels, layer buffers) is
    /// reused across frames, so the encode hot path stops allocating
    /// once the buffers warm to the working-set size.
    intra_arena: pcc_intra::FrameArena,
    /// Per-session scratch for the inter pipeline (superset of the intra
    /// arena's role: adds the match table and delta-layer buffers).
    inter_arena: pcc_inter::InterArena,
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

    /// Whether an out-of-schedule intra refresh is staged.
    pub fn intra_forced(&self) -> bool {
        self.force_intra
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
        let vox = match &self.bounding_box {
            Some(bb) => VoxelizedCloud::from_cloud_in_box(cloud, self.depth, bb),
            None => VoxelizedCloud::from_cloud(cloud, self.depth),
        };
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
                IntraCodec::default().encode_into(&vox, device, &mut self.intra_arena, &mut f);
                EncodedFrame::Intra(f)
            }
            (Design::IntraInterV1 | Design::IntraInterV2, FrameKind::Intra) => {
                let cfg = self.inter_config;
                let intra = IntraCodec::new(cfg.intra);
                let mut f = IntraFrame::default();
                intra.encode_into(&vox, device, &mut self.intra_arena, &mut f);
                self.scratch.reset();
                self.reference_colors =
                    intra.decode(&f, &self.scratch).ok().map(|d| d.colors().to_vec());
                EncodedFrame::Intra(f)
            }
            (Design::IntraInterV1 | Design::IntraInterV2, FrameKind::Predicted) => {
                let cfg = self.inter_config;
                match &self.reference_colors {
                    Some(r) => {
                        let mut enc = InterEncoded::default();
                        InterCodec::new(cfg).encode_into(
                            &vox,
                            r,
                            device,
                            &mut self.inter_arena,
                            &mut enc,
                        );
                        EncodedFrame::Inter(enc)
                    }
                    None => {
                        let mut f = IntraFrame::default();
                        IntraCodec::new(cfg.intra).encode_into(
                            &vox,
                            device,
                            &mut self.intra_arena,
                            &mut f,
                        );
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
    /// [`CodecError::MissingReference`] reports).
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
    /// Returns a [`CodecError`] on malformed frames or when a predicted
    /// frame arrives without a decodable reference.
    pub fn decode_frame(&mut self, frame: &EncodedFrame) -> Result<(PointCloud, Timeline), CodecError> {
        let mut sp = pcc_probe::span("frame/decode");
        sp.add_bytes(frame.size().total_bytes() as u64);
        let i = self.index;
        self.index += 1;
        let device = self.device;
        let limits = &self.limits;
        let vox = match frame {
            EncodedFrame::Tmc13(f) => Tmc13Codec::default().decode_with_limits(f, device, limits)?,
            EncodedFrame::Cwipc(f) => {
                let codec = CwipcCodec::default();
                let dec = if f.predicted {
                    let r = self
                        .reference_cloud
                        .as_ref()
                        .ok_or(CodecError::MissingReference { frame: i })?;
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
                let cfg = self.inter_config.map(|c| c.intra).unwrap_or_default();
                let dec = IntraCodec::new(cfg).decode_with_limits(f, device, limits)?;
                self.reference_colors = Some(dec.colors().to_vec());
                dec
            }
            EncodedFrame::Inter(f) => {
                let Some(cfg) = self.inter_config else {
                    return Err(CodecError::MissingInterConfig { frame: i });
                };
                let r = self
                    .reference_colors
                    .as_ref()
                    .ok_or(CodecError::MissingReference { frame: i })?;
                InterCodec::new(cfg).decode_with_limits(f, r, device, limits)?
            }
        };
        Ok((vox.to_cloud(), device.take_timeline()))
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
    /// Returns [`CodecError::PartialDecodeUnsupported`] for non-intra
    /// frames, or the underlying [`CodecError::Intra`] on damage.
    pub fn decode_viewport(
        &self,
        frame: &EncodedFrame,
        viewport: &Aabb,
    ) -> Result<(PointCloud, Timeline), CodecError> {
        let EncodedFrame::Intra(f) = frame else {
            return Err(CodecError::PartialDecodeUnsupported);
        };
        let cfg = self.inter_config.map(|c| c.intra).unwrap_or_default();
        let codec = IntraCodec::new(cfg);
        let vox = if pcc_intra::BrickIndex::detect(&f.geometry) {
            codec.decode_viewport(f, self.device, &self.limits, viewport)?
        } else {
            codec.decode_with_limits(f, self.device, &self.limits)?
        };
        Ok((vox.to_cloud(), self.device.take_timeline()))
    }

    /// Tries to salvage a damaged brick-partitioned intra frame: decodes
    /// every brick that survives its CRC and returns the partial cloud
    /// with its loss accounting.
    ///
    /// Returns `None` when the frame is not a brick intra frame, its
    /// index is unusable, or no brick survived. Stateless like
    /// [`decode_viewport`](Self::decode_viewport): a salvaged frame is
    /// delivered to the viewer but never becomes reference state.
    pub fn salvage_intra(&self, frame: &EncodedFrame) -> Option<SalvagedIntra> {
        let EncodedFrame::Intra(f) = frame else { return None };
        if !pcc_intra::BrickIndex::detect(&f.geometry) {
            return None;
        }
        let cfg = self.inter_config.map(|c| c.intra).unwrap_or_default();
        let s = IntraCodec::new(cfg).decode_bricks_lossy(f, self.device, &self.limits).ok()?;
        let timeline = self.device.take_timeline();
        if s.bricks_total > 0 && s.bricks_dropped >= s.bricks_total {
            return None;
        }
        Some(SalvagedIntra {
            cloud: s.cloud.to_cloud(),
            bricks_dropped: s.bricks_dropped,
            bricks_total: s.bricks_total,
            timeline,
        })
    }

    /// Repairs a damaged brick-partitioned intra frame from retransmitted
    /// brick payloads and decodes the mended frame as the session's next
    /// reference.
    ///
    /// Call this immediately after a failed [`decode_frame`]
    /// (`Self::decode_frame`) for the same frame: the failed attempt
    /// already consumed the frame's slot, and this method rewinds the
    /// cursor so the repaired decode lands on the same index. For every
    /// brick whose payload fails its per-entry CRC, `fetch(cell)` is asked
    /// for the original `geometry ++ attribute` bytes (a NACK answered
    /// from the sender's frame history); the returned bytes are re-verified
    /// against the index's length and CRC before being spliced in, so a
    /// lying repair source can never install a corrupt reference.
    ///
    /// Returns `None` — leaving the decoder exactly as the failed decode
    /// left it — when the frame is not brick-partitioned, its index is
    /// unusable, any damaged brick cannot be fetched or fails
    /// re-verification, no brick was actually damaged (the failure is not
    /// brick-granular), or the mended frame still fails to decode. On
    /// success the decode is bit-exact with an undamaged delivery and the
    /// frame legitimately anchors reference state.
    pub fn repair_intra(
        &mut self,
        frame: &EncodedFrame,
        fetch: &mut dyn FnMut(u64) -> Option<Vec<u8>>,
    ) -> Option<RepairedIntra> {
        let EncodedFrame::Intra(f) = frame else { return None };
        if !pcc_intra::BrickIndex::detect(&f.geometry) {
            return None;
        }
        let index = pcc_intra::BrickIndex::parse(&f.geometry, &self.limits).ok()?;
        let mut geometry = f.geometry.clone();
        let mut attribute = f.attribute.clone();
        let mut repaired = 0usize;
        for entry in index.entries() {
            let intact = f
                .geometry
                .get(entry.geom.clone())
                .zip(f.attribute.get(entry.attr.clone()))
                .is_some_and(|(g, a)| {
                    let mut crc = Crc32::new();
                    crc.update(g);
                    crc.update(a);
                    crc.finish() == entry.crc
                });
            if intact {
                continue;
            }
            let bytes = fetch(entry.cell)?;
            let glen = entry.geom.len();
            if bytes.len() != glen + entry.attr.len() || crc32(&bytes) != entry.crc {
                return None;
            }
            let (g, a) = bytes.split_at(glen);
            geometry.get_mut(entry.geom.clone())?.copy_from_slice(g);
            attribute.get_mut(entry.attr.clone())?.copy_from_slice(a);
            repaired += 1;
        }
        if repaired == 0 {
            // Every brick payload checks out locally, so the decode
            // failure is in the frame structure itself — nothing a brick
            // retransmit can mend.
            return None;
        }
        let bricks_total = index.len();
        let mended = EncodedFrame::Intra(IntraFrame {
            geometry,
            attribute,
            unique_voxels: f.unique_voxels,
            raw_points: f.raw_points,
        });
        self.index = self.index.saturating_sub(1);
        match self.decode_frame(&mended) {
            Ok((cloud, timeline)) => {
                Some(RepairedIntra { cloud, timeline, bricks_repaired: repaired, bricks_total })
            }
            // decode_frame re-advanced the cursor, so the decoder is back
            // in the state the failed original decode left it in.
            Err(_) => None,
        }
    }
}

/// The result of [`FrameDecoder::salvage_intra`]: the partial picture a
/// damaged brick frame still yields, plus its loss ledger.
#[derive(Debug, Clone)]
pub struct SalvagedIntra {
    /// The surviving bricks' points, in cell order (bit-identical to the
    /// corresponding subset of a clean decode).
    pub cloud: PointCloud,
    /// Bricks discarded because their payload failed its CRC or parse.
    pub bricks_dropped: usize,
    /// Bricks the frame's index declared.
    pub bricks_total: usize,
    /// Modeled decode timeline of the salvage pass.
    pub timeline: Timeline,
}

/// The result of [`FrameDecoder::repair_intra`]: a damaged brick frame
/// made whole again from retransmitted brick payloads.
#[derive(Debug, Clone)]
pub struct RepairedIntra {
    /// The fully repaired frame's points — bit-exact with an undamaged
    /// delivery of the same frame.
    pub cloud: PointCloud,
    /// Modeled decode timeline of the repaired decode.
    pub timeline: Timeline,
    /// Bricks whose payloads were replaced from retransmission.
    pub bricks_repaired: usize,
    /// Bricks the frame's index declares.
    pub bricks_total: usize,
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
        assert!(matches!(err, CodecError::MissingReference { frame: 0 }), "got {err}");
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
        assert!(matches!(err, CodecError::MissingReference { frame: 3 }), "got {err}");
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
        assert!(matches!(err, CodecError::MissingInterConfig { frame: 0 }), "got {err}");
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
            matches!(&err, CodecError::Intra(_)),
            "limit breach should surface as a decode error, got {err}"
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
        assert!(matches!(err, CodecError::PartialDecodeUnsupported), "got {err}");
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
        assert!(matches!(dec.decode_frame(&damaged), Err(CodecError::Intra(_))));

        let s = dec.salvage_intra(&damaged).expect("salvageable");
        assert_eq!(s.bricks_dropped, 1);
        assert!(s.bricks_total > 1);
        assert!(!s.cloud.is_empty() && s.cloud.len() < full.len());
        // Monolithic damage has no per-brick accounting to salvage.
        let mono = PccCodec::new(Design::IntraOnly);
        let mono_enc = mono.encode_video(&video, 7, &d);
        assert!(mono.frame_decoder(&d).salvage_intra(&mono_enc.frames[0]).is_none());
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
