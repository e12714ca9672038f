//! Inputs generated from the workload seed, and the reference every
//! delivered frame is checked against. Both are built before timing
//! starts.
//!
//! A run hands the program a cycle of `L` distinct clouds over and over
//! (`L` a multiple of the GOF period). An I-frame depends only on its own
//! cloud and a P-frame only on its cloud and its group's I-frame, so the
//! decoded picture of frame `k` is fixed by two cycle positions: its own
//! (`k mod L`) and its anchor's (the last I-frame the sender emitted at
//! or before `k`). The reference decodes every (anchor, frame) pair the
//! run can produce with the offline `FrameEncoder`/`FrameDecoder` —
//! including out-of-schedule refresh anchors for the lossy workload.

use pcc_core::PccCodec;
use pcc_datasets::{BodyCoverage, SyntheticVideo, Wardrobe};
use pcc_edge::Device;
use pcc_metrics::attribute_psnr;
use pcc_stream::Delivered;
use pcc_types::{Aabb, FrameKind, PointCloud, Video, VoxelizedCloud};
use std::collections::BTreeMap;

/// The clouds of one workload run.
pub struct Inputs {
    pub video: Video,
    pub bounding_box: Aabb,
    pub depth: u8,
}

impl Inputs {
    /// `cycle` frames of a synthetic figure of `points` points per frame;
    /// `seed` picks the surface samples.
    pub fn generate(
        name: &str,
        coverage: BodyCoverage,
        wardrobe: Wardrobe,
        points: usize,
        cycle: usize,
        seed: u64,
    ) -> Inputs {
        let video = SyntheticVideo::new(name, points, coverage, wardrobe, seed).generate(cycle);
        let bounding_box = video.bounding_box().expect("synthetic frames have points");
        let depth = pcc_datasets::density_matched_depth(video.mean_points_per_frame());
        Inputs {
            video,
            bounding_box,
            depth,
        }
    }

    /// Length of the input cycle.
    pub fn cycle(&self) -> usize {
        self.video.len()
    }

    /// The cloud handed over as frame `index`.
    pub fn cloud(&self, index: usize) -> &PointCloud {
        &self
            .video
            .frame(index % self.cycle())
            .expect("index is reduced mod the cycle")
            .cloud
    }
}

/// Which anchors the run can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anchors {
    /// Only the scheduled I-frames (GOF starts).
    Scheduled,
    /// Any slot may be re-anchored by an intra refresh.
    Any,
}

/// One expected picture and its quality against the voxelized input.
pub struct Expected {
    pub cloud: PointCloud,
    pub psnr_db: f64,
}

/// Expected decodes keyed by (anchor position, frame position).
pub struct Reference {
    cycle: usize,
    table: BTreeMap<(usize, usize), Expected>,
    /// Mean direct-reuse fraction of the scheduled P-frames.
    pub reuse_ratio: f64,
    /// Modeled `pcc-edge` milliseconds per stage, summed over one cycle
    /// of scheduled encodes.
    pub modeled_ms: BTreeMap<&'static str, f64>,
}

impl Reference {
    pub fn build(
        codec: &PccCodec,
        device: &Device,
        inputs: &Inputs,
        anchors: Anchors,
    ) -> Result<Reference, String> {
        let cycle = inputs.cycle();
        let gof = codec.frame_encoder(inputs.depth, device).gof_pattern();
        let period = gof.period() as usize;
        assert!(
            period > 0 && cycle.is_multiple_of(period),
            "the cycle must hold whole GOFs"
        );
        let mut table = BTreeMap::new();
        let mut reuse = Vec::new();
        let mut modeled_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
        for anchor in 0..cycle {
            let scheduled = anchor % period == 0;
            if anchors == Anchors::Scheduled && !scheduled {
                continue;
            }
            let mut enc = codec
                .frame_encoder(inputs.depth, device)
                .with_bounding_box(inputs.bounding_box);
            let mut dec = codec.frame_decoder(device);
            let next_gof = (anchor / period + 1) * period;
            for pos in anchor..next_gof {
                let (frame, timeline) = enc.encode_frame(inputs.cloud(pos));
                let want = if pos == anchor {
                    FrameKind::Intra
                } else {
                    FrameKind::Predicted
                };
                if frame.kind() != want {
                    return Err(format!(
                        "reference frame ({anchor}, {pos}) coded as {:?}",
                        frame.kind()
                    ));
                }
                if scheduled {
                    reuse.extend(frame.reuse_fraction());
                    for r in timeline.records() {
                        *modeled_ms.entry(r.stage).or_default() += r.modeled.as_f64();
                    }
                }
                let (cloud, _) = dec
                    .decode_frame(&frame)
                    .map_err(|e| format!("reference decode ({anchor}, {pos}): {e}"))?;
                let input = VoxelizedCloud::from_cloud_in_box(
                    inputs.cloud(pos),
                    inputs.depth,
                    &inputs.bounding_box,
                )
                .dedup_mean()
                .to_cloud();
                let psnr_db = attribute_psnr(&input, &cloud)
                    .ok_or_else(|| format!("reference ({anchor}, {pos}) decoded empty"))?;
                table.insert((anchor, pos), Expected { cloud, psnr_db });
            }
        }
        let reuse_ratio = if reuse.is_empty() {
            0.0
        } else {
            reuse.iter().sum::<f64>() / reuse.len() as f64
        };
        Ok(Reference {
            cycle,
            table,
            reuse_ratio,
            modeled_ms,
        })
    }

    /// The expected decode of frame `index`, given the kinds the sender
    /// coded frames `..=index` as.
    pub fn expected(&self, kinds: &[FrameKind], index: usize) -> Option<&Expected> {
        let anchor = kinds
            .get(..=index)?
            .iter()
            .rposition(|&k| k == FrameKind::Intra)?;
        self.table.get(&(anchor % self.cycle, index % self.cycle))
    }
}

/// What a delivery turned out to be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Bit-exact against the reference; carries the reference's PSNR.
    Whole { psnr_db: f64 },
    /// A brick-salvaged partial picture (counted as lost).
    Partial,
}

/// Checks one delivered frame against the reference. A whole frame that
/// is not bit-exact is an error, never a loss.
pub fn check_delivery(
    reference: &Reference,
    kinds: &[FrameKind],
    d: &Delivered,
) -> Result<Verdict, String> {
    if d.partial.is_some() {
        return Ok(Verdict::Partial);
    }
    let want = reference
        .expected(kinds, d.frame_index)
        .ok_or_else(|| format!("frame {} was delivered but never sent", d.frame_index))?;
    if kinds.get(d.frame_index) != Some(&d.kind) {
        return Err(format!(
            "frame {} delivered as {:?}, sent as {:?}",
            d.frame_index,
            d.kind,
            kinds.get(d.frame_index)
        ));
    }
    if !bit_exact(&d.cloud, &want.cloud) {
        return Err(format!(
            "frame {} is not bit-exact against the reference decode",
            d.frame_index
        ));
    }
    Ok(Verdict::Whole {
        psnr_db: want.psnr_db,
    })
}

fn bit_exact(a: &PointCloud, b: &PointCloud) -> bool {
    a.len() == b.len()
        && a.colors() == b.colors()
        && a.positions().iter().zip(b.positions()).all(|(p, q)| {
            p.x.to_bits() == q.x.to_bits()
                && p.y.to_bits() == q.y.to_bits()
                && p.z.to_bits() == q.z.to_bits()
        })
}

/// Checks a sampled wire against the reference viewer's wire, byte for
/// byte.
pub fn check_wire(reference: &[u8], sample: &[u8]) -> Result<(), String> {
    if let Some(at) = reference.iter().zip(sample).position(|(a, b)| a != b) {
        return Err(format!(
            "sampled wire differs from the reference wire at byte {at}"
        ));
    }
    if reference.len() != sample.len() {
        return Err(format!(
            "sampled wire holds {} bytes, the reference wire {}",
            sample.len(),
            reference.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_core::Design;
    use pcc_edge::PowerMode;
    use pcc_stream::{Receiver, Sender, StreamConfig};

    fn small_inputs() -> Inputs {
        Inputs::generate("Loot", BodyCoverage::FullBody, Wardrobe::loot(), 1500, 6, 7)
    }

    /// Streams two cycles through a clean `Sender` → `Receiver` pipe and
    /// returns the deliveries with the sender's kinds.
    fn stream(
        inputs: &Inputs,
        codec: &PccCodec,
        device: &Device,
    ) -> (Vec<Delivered>, Vec<FrameKind>) {
        let mut tx = Sender::new(
            codec,
            inputs.depth,
            device,
            Vec::new(),
            &StreamConfig::default(),
        )
        .unwrap()
        .with_bounding_box(inputs.bounding_box);
        let kinds: Vec<FrameKind> = (0..2 * inputs.cycle())
            .map(|i| tx.send_frame(inputs.cloud(i)).unwrap())
            .collect();
        let (wire, _) = tx.finish().unwrap();
        let mut rx = Receiver::new(wire.as_slice(), device);
        let mut out = Vec::new();
        while let Some(d) = rx.recv_frame().unwrap() {
            out.push(d);
        }
        (out, kinds)
    }

    #[test]
    fn clean_deliveries_verify_and_a_corrupted_frame_fails() {
        let inputs = small_inputs();
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let codec = PccCodec::new(Design::IntraInterV1);
        let reference = Reference::build(&codec, &device, &inputs, Anchors::Scheduled).unwrap();
        let (delivered, kinds) = stream(&inputs, &codec, &device);
        assert_eq!(delivered.len(), 12);
        for d in &delivered {
            assert!(matches!(
                check_delivery(&reference, &kinds, d),
                Ok(Verdict::Whole { .. })
            ));
        }
        // One flipped colour bit anywhere fails verification.
        let mut bad = delivered[4].clone();
        let colors = bad.cloud.colors_mut();
        let last = colors.len() - 1;
        colors[last].r ^= 1;
        assert!(check_delivery(&reference, &kinds, &bad).is_err());
        // So does a frame attributed to the wrong index.
        let mut moved = delivered[4].clone();
        moved.frame_index = 5;
        assert!(check_delivery(&reference, &kinds, &moved).is_err());
        // A partial (salvaged) frame is a loss, not an error.
        let mut partial = delivered[3].clone();
        partial.partial = Some((1, 8));
        assert_eq!(
            check_delivery(&reference, &kinds, &partial),
            Ok(Verdict::Partial)
        );
    }

    #[test]
    fn refresh_anchors_are_in_the_any_anchor_reference() {
        let inputs = small_inputs();
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let codec = PccCodec::new(Design::IntraInterV1);
        let reference = Reference::build(&codec, &device, &inputs, Anchors::Any).unwrap();
        // A sender that re-anchored at slot 1 (a P slot) and predicted
        // slot 2 from it.
        let mut src =
            pcc_stream::FrameSource::new(&codec, inputs.depth, &device, &StreamConfig::default())
                .with_bounding_box(inputs.bounding_box);
        let mut dec = codec.frame_decoder(&device);
        let mut kinds = Vec::new();
        for i in 0..3 {
            if i == 1 {
                src.request_refresh();
            }
            let fp = src.encode_next(inputs.cloud(i));
            kinds.push(fp.kind);
            let frame = pcc_core::container::demux_frame(&mut fp.payload.as_slice(), 0).unwrap();
            let (cloud, _) = dec.decode_frame(&frame).unwrap();
            let d = Delivered {
                frame_index: i,
                kind: fp.kind,
                cloud,
                modeled_decode_ms: 0.0,
                partial: None,
            };
            assert!(check_delivery(&reference, &kinds, &d).is_ok(), "frame {i}");
        }
        assert_eq!(
            kinds,
            [FrameKind::Intra, FrameKind::Intra, FrameKind::Predicted]
        );
    }

    #[test]
    fn a_corrupted_wire_sample_fails() {
        let wire = vec![1u8, 2, 3, 4, 5];
        assert!(check_wire(&wire, &wire).is_ok());
        let mut flipped = wire.clone();
        flipped[2] ^= 0x10;
        assert_eq!(
            check_wire(&wire, &flipped),
            Err("sampled wire differs from the reference wire at byte 2".into())
        );
        assert!(check_wire(&wire, &wire[..4]).is_err());
    }
}
