//! Bitstream-level degradation: drop coded layers without re-encoding.
//!
//! The intra attribute payload is layered (paper Sec. IV-A2): an outer
//! base layer of per-segment medians plus a refinement layer that
//! losslessly re-encodes the quantized residuals. A broadcaster serving
//! a slow subscriber can strip that refinement *from the encoded
//! record* — the outer layer's segment starts, bases, and quantization
//! step are kept verbatim, and the residual stream is replaced by one
//! zero run of the original length, so the slimmed payload decodes
//! through the unchanged decoder to per-segment median colors (coarse
//! but valid, same point count). No codec state is touched, which is
//! what lets one shared encode serve both full-quality and degraded
//! subscribers.

use pcc_core::{container, EncodedFrame};
use pcc_intra::{write_layer, IntraFrame, LayerEncoded};
use pcc_types::wire::Cursor;

/// Rewrites a muxed I-frame record with its refinement attribute layer
/// stripped, returning the slimmed record.
///
/// Returns `None` when the transform does not apply: the record is not
/// a proposed intra frame, its attribute payload is single-layer
/// already, or the frame is brick-partitioned. Malformed records also
/// yield `None`: the caller falls back to the full payload rather than
/// propagating a parse error into the fan-out path.
pub fn shed_refinement(record: &[u8]) -> Option<Vec<u8>> {
    let mut input = record;
    let frame = container::demux_frame(&mut input, 0).ok()?;
    if !input.is_empty() {
        return None;
    }
    let EncodedFrame::Intra(intra) = frame else {
        return None;
    };
    // Brick-partitioned frames concatenate per-brick attribute payloads
    // whose offsets and CRCs live in the geometry-side index; the layer
    // transform below would corrupt every brick after the first.
    if pcc_intra::BrickIndex::detect(&intra.geometry) {
        return None;
    }
    let attribute = strip_refinement_layer(&intra.attribute)?;
    let slim = EncodedFrame::Intra(IntraFrame { attribute, ..intra });
    let mut out = Vec::with_capacity(record.len());
    container::mux_frame(&mut out, &slim);
    Some(out)
}

/// Strips the refinement layer from a two-layer intra attribute
/// payload, producing a single-layer payload with the same decoded
/// length (all-zero residuals → per-segment median colors).
fn strip_refinement_layer(attr: &[u8]) -> Option<Vec<u8>> {
    let mut c = Cursor::new(attr, 0);
    if c.u8().ok()? != 1 {
        return None;
    }
    let outer_len = c.varint().ok()? as usize;
    let outer_bytes = c.take(outer_len).ok()?;
    let refinement_bytes = c.rest();
    // The outer layer carries starts/bases/quant but zero residuals (they
    // live in the refinement layer); the refinement layer's value count
    // is the voxel count the stripped payload must still decode to.
    // Parsing under default Limits bounds the allocations below even if
    // a hostile record reaches this path.
    let outer = LayerEncoded::from_bytes(outer_bytes).ok()?;
    if !outer.residuals.is_empty() {
        return None;
    }
    let refinement = LayerEncoded::from_bytes(refinement_bytes).ok()?;
    let voxels = refinement.residuals.len();

    let mut out = Vec::with_capacity(outer_bytes.len() + 8);
    out.push(0); // single-layer flag
    write_layer(&mut out, outer.quant_step, &outer.starts, &outer.bases, &vec![[0i32; 3]; voxels]);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_core::{Design, PccCodec};
    use pcc_datasets::catalog;
    use pcc_edge::{Device, PowerMode};
    use pcc_types::FrameKind;

    fn records(design: Design) -> Vec<Vec<u8>> {
        let video = catalog::by_name("Loot").unwrap().generate_scaled(3, 700);
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let codec = PccCodec::new(design);
        let mut encoder = codec.frame_encoder(6, &device);
        video
            .iter()
            .map(|f| {
                let (encoded, _) = encoder.encode_frame(&f.cloud);
                let mut record = Vec::new();
                container::mux_frame(&mut record, &encoded);
                record
            })
            .collect()
    }

    #[test]
    fn stripped_i_frame_decodes_to_the_same_point_count() {
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let codec = PccCodec::new(Design::IntraInterV1);
        let recs = records(Design::IntraInterV1);
        let full = &recs[0];
        let slim = shed_refinement(full).expect("two-layer I-frame must shed");
        assert!(slim.len() < full.len(), "shed grew the record: {} -> {}", full.len(), slim.len());

        let mut full_dec = codec.frame_decoder(&device);
        let mut slim_dec = codec.frame_decoder(&device);
        let mut input = full.as_slice();
        let full_frame = container::demux_frame(&mut input, 0).unwrap();
        let mut input = slim.as_slice();
        let slim_frame = container::demux_frame(&mut input, 0).unwrap();
        assert_eq!(slim_frame.kind(), FrameKind::Intra);
        let (full_cloud, _) = full_dec.decode_frame(&full_frame).unwrap();
        let (slim_cloud, _) = slim_dec.decode_frame(&slim_frame).unwrap();
        // Geometry is untouched; only attribute fidelity degrades.
        assert_eq!(full_cloud.len(), slim_cloud.len());
        assert_eq!(full_cloud.positions(), slim_cloud.positions());
    }

    #[test]
    fn degraded_reference_still_decodes_the_full_p_frame() {
        // A subscriber that got the stripped I-frame must still decode
        // the (full-quality, shared) P-frames of the group: the inter
        // payload uses the reference only for segmentation length and
        // base colors, so a same-length coarser reference shifts colors
        // but can never error or desync.
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let codec = PccCodec::new(Design::IntraInterV1);
        let recs = records(Design::IntraInterV1);
        let slim_i = shed_refinement(&recs[0]).unwrap();

        let mut decoder = codec.frame_decoder(&device);
        let mut input = slim_i.as_slice();
        let i_frame = container::demux_frame(&mut input, 0).unwrap();
        decoder.decode_frame(&i_frame).unwrap();
        for rec in &recs[1..] {
            let mut input = rec.as_slice();
            let p_frame = container::demux_frame(&mut input, 0).unwrap();
            assert_eq!(p_frame.kind(), FrameKind::Predicted);
            let (cloud, _) = decoder.decode_frame(&p_frame).unwrap();
            assert!(!cloud.is_empty());
        }
    }

    #[test]
    fn single_layer_and_p_frames_do_not_shed() {
        let mut config = pcc_inter::InterConfig::v1();
        config.intra.two_layer = false;
        let video = catalog::by_name("Loot").unwrap().generate_scaled(2, 500);
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let codec = PccCodec::with_inter_config(config);
        let mut encoder = codec.frame_encoder(6, &device);
        for f in video.iter() {
            let (encoded, _) = encoder.encode_frame(&f.cloud);
            let mut record = Vec::new();
            container::mux_frame(&mut record, &encoded);
            assert_eq!(shed_refinement(&record), None);
        }
        // P-frames of a two-layer stream carry a single delta layer.
        let recs = records(Design::IntraInterV1);
        assert_eq!(shed_refinement(&recs[1]), None);
    }

    #[test]
    fn garbage_records_shed_to_none_not_panic() {
        assert_eq!(shed_refinement(&[]), None);
        assert_eq!(shed_refinement(&[0x04]), None);
        let recs = records(Design::IntraInterV1);
        for cut in [1, 5, recs[0].len() / 2, recs[0].len() - 1] {
            let _ = shed_refinement(&recs[0][..cut]);
        }
        let mut flipped = recs[0].clone();
        for i in (0..flipped.len()).step_by(7) {
            flipped[i] ^= 0x5A;
        }
        let _ = shed_refinement(&flipped);
    }
}
