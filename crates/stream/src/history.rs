//! The sender's frame history: one store of coded frames that answers
//! both late-join replay and brick repair.
//!
//! A [`FrameSource`](crate::FrameSource) records every frame it encodes
//! here, as the same [`FramePayload`] it hands to the fan-out. Two
//! readers slice the one store:
//!
//! * **Resync** ([`FrameHistory::resync`]) — the newest I-frame plus the
//!   contiguous P-run recorded after it. A broadcast replays it to a
//!   late joiner or a resumed subscriber, who is then bit-exact from the
//!   group's anchor instead of waiting a GOF. A frame-index gap (a
//!   contained encode panic) empties it until the next I-frame, since a
//!   joiner could not decode across the gap.
//! * **Repair** ([`FrameHistory::repair`]) — the newest `capacity`
//!   brick-partitioned I-frames. Each keeps its parsed brick index and
//!   where its geometry and attribute payloads sit inside the muxed
//!   record, so a brick NACK is answered by slicing that record: no
//!   re-encode, no re-parse, and no private copy of the frame.
//!
//! A frame in neither set is evicted as soon as it falls out of both.
//! The history therefore holds at most one GOF plus `capacity` anchors,
//! all of them references to payloads the fan-out and the ARQ rings
//! already share.

use crate::source::FramePayload;
use pcc_core::BrickIndex;
use pcc_types::{FrameKind, Limits};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A clonable, thread-safe handle to one stream's recent coded frames.
///
/// The source records through one clone; a broadcast replays late
/// joins from it, and every receiver built with
/// [`Receiver::with_repair`](crate::Receiver::with_repair) NACKs damaged
/// bricks through its own clone.
#[derive(Debug, Clone)]
pub struct FrameHistory {
    /// Brick I-frames kept for repair (minimum 1).
    capacity: usize,
    inner: Arc<Mutex<History>>,
}

#[derive(Debug, Default)]
struct History {
    /// Recorded frames still in the resync set or the repair window,
    /// oldest first.
    entries: VecDeque<Entry>,
    /// Length of the trailing run of `entries` that forms the resync
    /// set (0 when it is empty).
    resync: usize,
}

#[derive(Debug)]
struct Entry {
    frame: FramePayload,
    /// Present for brick-partitioned I-frames only.
    bricks: Option<Bricks>,
}

/// A brick I-frame's parsed index and the byte ranges of its geometry
/// and attribute payloads within the frame's muxed record.
#[derive(Debug)]
struct Bricks {
    index: BrickIndex,
    geometry: Range<usize>,
    attribute: Range<usize>,
}

impl FrameHistory {
    /// An empty history that answers repairs from the last `capacity`
    /// brick I-frames (minimum 1).
    ///
    /// One or two is enough for the per-GOF repair window: P-frames
    /// reference only their group's I-frame, so a brick NACK always
    /// targets the current or previous anchor.
    pub fn new(capacity: usize) -> Self {
        FrameHistory { capacity: capacity.max(1), inner: Arc::default() }
    }

    /// Records one encoded frame. `intra` is where the frame's geometry
    /// and attribute payloads sit inside `frame.payload` when the codec
    /// produced an intra frame (the only kind that can be
    /// brick-partitioned); a monolithic one is recorded for resync only.
    pub(crate) fn record(&self, frame: &FramePayload, intra: Option<[Range<usize>; 2]>) {
        let bricks = intra.and_then(|[geometry, attribute]| {
            let bytes = frame.payload.get(geometry.clone())?;
            if !BrickIndex::detect(bytes) {
                return None;
            }
            // The sender parses its own just-encoded bytes: default
            // limits are exactly the regime they were produced under.
            let index = BrickIndex::parse(bytes, &Limits::default()).ok()?;
            Some(Bricks { index, geometry, attribute })
        });
        let mut history = self.lock();
        // While the resync run is non-empty it ends at the last frame
        // recorded, so a P-frame extends it only when it follows that
        // frame directly.
        let extends = history.resync > 0
            && history
                .entries
                .back()
                .is_some_and(|last| last.frame.frame_index + 1 == frame.frame_index);
        let resync = match frame.kind {
            FrameKind::Intra => 1,
            FrameKind::Predicted if extends => history.resync + 1,
            FrameKind::Predicted => 0,
        };
        history.entries.push_back(Entry { frame: frame.clone(), bricks });
        history.resync = resync;
        history.evict(self.capacity);
    }

    /// The replay a joining subscriber needs: the newest I-frame, then
    /// the P-frames recorded after it in display order. Empty before the
    /// first I-frame and after a gap, until the next I-frame.
    pub fn resync(&self) -> Vec<FramePayload> {
        let history = self.lock();
        let from = history.entries.len().saturating_sub(history.resync);
        history.entries.iter().skip(from).map(|e| e.frame.clone()).collect()
    }

    /// The original `geometry ++ attribute` payload of brick `cell` in
    /// brick I-frame `frame_index`, or `None` when the frame has left
    /// the repair window or has no such brick. A re-anchored session can
    /// record a refresh I-frame under the index of a still-held
    /// predecessor, so the newest frame with that index answers.
    pub fn repair(&self, frame_index: u32, cell: u64) -> Option<Vec<u8>> {
        let history = self.lock();
        let (payload, bricks) = history.entries.iter().rev().find_map(|e| {
            let bricks = e.bricks.as_ref().filter(|_| e.frame.frame_index == frame_index)?;
            Some((&e.frame.payload, bricks))
        })?;
        let entry = bricks.index.entries().iter().find(|e| e.cell == cell)?;
        let geometry = payload.get(bricks.geometry.clone())?.get(entry.geom.clone())?;
        let attribute = payload.get(bricks.attribute.clone())?.get(entry.attr.clone())?;
        let mut out = Vec::with_capacity(geometry.len() + attribute.len());
        out.extend_from_slice(geometry);
        out.extend_from_slice(attribute);
        Some(out)
    }

    fn lock(&self) -> MutexGuard<'_, History> {
        // A poisoned history only means a peer panicked mid-record;
        // recorded payloads are immutable, so reads stay safe.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl History {
    /// Drops every entry that is neither in the resync run nor among the
    /// newest `capacity` brick I-frames.
    fn evict(&mut self, capacity: usize) {
        let resync_from = self.entries.len().saturating_sub(self.resync);
        let mut newer_bricks = self.entries.iter().filter(|e| e.bricks.is_some()).count();
        let mut at = 0;
        self.entries.retain(|e| {
            let in_resync = at >= resync_from;
            at += 1;
            let in_repair = e.bricks.is_some() && {
                newer_bricks -= 1;
                newer_bricks < capacity
            };
            in_resync || in_repair
        });
    }
}

/// Former name of [`FrameHistory`], kept because the glass-to-glass
/// benchmark harness (`perfbench/`) builds its repair store with it.
pub type SharedRepairRing = FrameHistory;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrameSource, StreamConfig};
    use pcc_core::{container, EncodedFrame, PccCodec};
    use pcc_datasets::catalog;
    use pcc_edge::{Device, PowerMode};
    use pcc_inter::InterConfig;
    use pcc_types::crc::crc32;
    use pcc_types::Video;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// The late-join cache the history replaced: an I-frame restarts
    /// it, a contiguous P-frame extends it, anything else empties it.
    #[derive(Default)]
    struct ResyncModel(Vec<FramePayload>);

    impl ResyncModel {
        fn observe(&mut self, frame: &FramePayload) {
            match frame.kind {
                FrameKind::Intra => self.0 = vec![frame.clone()],
                FrameKind::Predicted => {
                    if self.0.last().is_some_and(|l| l.frame_index + 1 == frame.frame_index) {
                        self.0.push(frame.clone());
                    } else {
                        self.0.clear();
                    }
                }
            }
        }
    }

    /// One parked frame of the repair ring the history replaced: its
    /// own copies of the payload streams, demuxed back out of the record.
    struct Parked {
        frame: FramePayload,
        geometry: Vec<u8>,
        attribute: Vec<u8>,
        index: BrickIndex,
    }

    /// The repair ring the history replaced: the newest `capacity`
    /// brick I-frames, searched newest first.
    struct RepairModel {
        capacity: usize,
        parked: VecDeque<Parked>,
    }

    impl RepairModel {
        fn park(&mut self, frame: &FramePayload) {
            let Ok(EncodedFrame::Intra(f)) = container::demux_frame(&mut &frame.payload[..], 0)
            else {
                return;
            };
            if !BrickIndex::detect(&f.geometry) {
                return;
            }
            let Ok(index) = BrickIndex::parse(&f.geometry, &Limits::default()) else { return };
            if self.parked.len() == self.capacity {
                self.parked.pop_front();
            }
            let (geometry, attribute) = (f.geometry, f.attribute);
            self.parked.push_back(Parked { frame: frame.clone(), geometry, attribute, index });
        }

        fn repair(&self, frame_index: u32, cell: u64) -> Option<Vec<u8>> {
            let parked = self.parked.iter().rev().find(|p| p.frame.frame_index == frame_index)?;
            let entry = parked.index.entries().iter().find(|e| e.cell == cell)?;
            let mut out = parked.geometry.get(entry.geom.clone())?.to_vec();
            out.extend_from_slice(parked.attribute.get(entry.attr.clone())?);
            Some(out)
        }
    }

    fn clip() -> &'static Video {
        static CLIP: OnceLock<Video> = OnceLock::new();
        CLIP.get_or_init(|| catalog::by_name("Loot").unwrap().generate_scaled(4, 600))
    }

    fn payload(index: u32, kind: FrameKind) -> FramePayload {
        FramePayload::from_bytes(index, kind, vec![index as u8; 4])
    }

    fn assert_same_frames(held: &[FramePayload], model: &[FramePayload]) {
        assert_eq!(held.len(), model.len());
        for (h, m) in held.iter().zip(model) {
            assert!(h.payload.ptr_eq(&m.payload), "frame {} is not the shared payload", h.frame_index);
            assert_eq!((h.frame_index, h.kind, h.refresh), (m.frame_index, m.kind, m.refresh));
        }
    }

    #[test]
    fn resync_is_empty_until_the_first_i_frame() {
        let history = FrameHistory::new(1);
        history.record(&payload(0, FrameKind::Predicted), None);
        assert!(history.resync().is_empty());
        assert!(history.lock().entries.is_empty(), "a frame in neither set is evicted");
        history.record(&payload(1, FrameKind::Intra), None);
        assert_eq!(history.resync().len(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48 })]

        // A real source drives the history through scheduled I-frames,
        // refresh I-frames, P-frames and contained encode panics (index
        // gaps), on brick and monolithic codecs, at every capacity
        // 1..=4. After every step the history must replay exactly what
        // the resync cache would have, answer every (frame, cell) NACK
        // byte for byte as the repair ring would have, and hold exactly
        // the frames of those two sets, each the very payload allocation
        // `encode_next` returned.
        #[test]
        fn history_matches_the_resync_cache_and_repair_ring(
            bricks in any::<bool>(),
            capacity in 1usize..=4,
            ops in prop::collection::vec(0u8..4, 1..14),
        ) {
            let device = Device::jetson_agx_xavier(PowerMode::W15);
            let mut inter = InterConfig::default();
            inter.intra.brick_depth = if bricks { 2 } else { 0 };
            let codec = PccCodec::with_inter_config(inter);
            let history = FrameHistory::new(capacity);
            let mut source = FrameSource::new(&codec, 6, &device, &StreamConfig::default())
                .with_repair(history.clone());
            let mut resync = ResyncModel::default();
            let mut ring = RepairModel { capacity, parked: VecDeque::new() };
            // Cells of every parked brick frame, plus two no frame has.
            let mut cells = vec![0, u64::MAX];
            for op in ops {
                let cloud = &clip().frame(source.frame_index() % clip().len()).unwrap().cloud;
                let frame = match op {
                    // A panicked slot records nothing: the next frame
                    // follows a gap.
                    0 => source.encode_next_contained(cloud, || panic!("injected encode fault")),
                    1 => {
                        source.request_refresh();
                        Some(source.encode_next(cloud))
                    }
                    _ => Some(source.encode_next(cloud)),
                };
                if let Some(frame) = &frame {
                    resync.observe(frame);
                    ring.park(frame);
                }
                if let Some(parked) = ring.parked.back() {
                    cells.extend(parked.index.entries().iter().map(|e| e.cell));
                    cells.sort_unstable();
                    cells.dedup();
                }

                assert_same_frames(&history.resync(), &resync.0);
                for frame_index in 0..=source.frame_index() as u32 {
                    for &cell in &cells {
                        let answer = history.repair(frame_index, cell);
                        prop_assert_eq!(&answer, &ring.repair(frame_index, cell));
                        if let Some(bytes) = answer {
                            let parked =
                                ring.parked.iter().rev().find(|p| p.frame.frame_index == frame_index);
                            let entry = parked
                                .and_then(|p| p.index.entries().iter().find(|e| e.cell == cell));
                            prop_assert_eq!(Some(crc32(&bytes)), entry.map(|e| e.crc));
                        }
                    }
                }
                let held: Vec<FramePayload> =
                    history.lock().entries.iter().map(|e| e.frame.clone()).collect();
                let mut expected: Vec<FramePayload> =
                    ring.parked.iter().map(|p| p.frame.clone()).collect();
                for f in &resync.0 {
                    if !expected.iter().any(|e| e.payload.ptr_eq(&f.payload)) {
                        expected.push(f.clone());
                    }
                }
                expected.sort_by_key(|f| f.frame_index);
                assert_same_frames(&held, &expected);
            }
        }
    }

    proptest! {
        // The resync rule on arbitrary index orders, which no healthy
        // source produces: repeats, jumps back, P-frames before any
        // I-frame. The replay must still be the cache's answer, hence one
        // I-frame and its gapless P-run, the tail of what was recorded.
        #[test]
        fn resync_matches_the_cache_on_arbitrary_orders(
            ops in prop::collection::vec((0u32..24, any::<bool>()), 0..64),
        ) {
            let history = FrameHistory::new(1);
            let mut model = ResyncModel::default();
            for (index, intra) in ops {
                let kind = if intra { FrameKind::Intra } else { FrameKind::Predicted };
                let frame = payload(index, kind);
                history.record(&frame, None);
                model.observe(&frame);
                assert_same_frames(&history.resync(), &model.0);
            }
        }
    }
}
