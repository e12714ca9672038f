//! Forward and inverse RAHT.

use pcc_morton::MortonCode;
use pcc_types::DecodeError;

/// Number of attribute channels (RGB).
pub const CHANNELS: usize = 3;

/// A RAHT-coded attribute block: quantized high-pass coefficients in merge
/// order, followed by the root DC coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct RahtEncoded {
    /// Quantized coefficients: one `[i64; 3]` per merge (high-pass), plus
    /// the final DC per root, in emission order.
    pub coeffs: Vec<[i64; CHANNELS]>,
    /// Quantization step used for the coefficients.
    pub qstep: f64,
}

impl RahtEncoded {
    /// Serialized payload size in bytes under simple varint packing
    /// (used for compressed-size accounting before entropy coding).
    pub fn payload_bytes(&self) -> usize {
        self.coeffs
            .iter()
            .flat_map(|c| c.iter())
            .map(|&v| {
                let z = ((v << 1) ^ (v >> 63)) as u64;
                (64 - z.leading_zeros()).div_ceil(7).max(1) as usize
            })
            .sum()
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    code: u64,
    weight: f64,
    attr: [f64; CHANNELS],
}

/// One merge step: the indices of the two nodes merged (in the current
/// node list) or a pass-through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Merge,
    Pass,
}

/// Computes the deterministic per-sub-level merge schedule implied by the
/// geometry. Shared by forward and inverse so both walk the same tree.
fn schedule(codes: &[MortonCode], depth: u8) -> Vec<Vec<Step>> {
    let mut current: Vec<u64> = codes.iter().map(|c| c.value()).collect();
    let sublevels = 3 * depth as usize;
    let mut plan = Vec::with_capacity(sublevels);
    for _ in 0..sublevels {
        let mut steps = Vec::new();
        let mut next = Vec::with_capacity(current.len());
        let mut i = 0;
        while i < current.len() {
            if i + 1 < current.len() && current[i] >> 1 == current[i + 1] >> 1 {
                steps.push(Step::Merge);
                next.push(current[i] >> 1);
                i += 2;
            } else {
                steps.push(Step::Pass);
                next.push(current[i] >> 1);
                i += 1;
            }
        }
        plan.push(steps);
        current = next;
    }
    plan
}

/// Number of butterfly transforms the geometry implies (per channel).
///
/// This is the operation count the device model charges for the
/// sequential RAHT baseline.
pub fn transform_count(codes: &[MortonCode], depth: u8) -> usize {
    schedule(codes, depth)
        .iter()
        .map(|l| l.iter().filter(|s| **s == Step::Merge).count())
        .sum()
}

/// Forward RAHT over sorted, deduplicated leaf codes.
///
/// `attrs[i]` are the attribute channels of leaf `i`; `weights[i]` its
/// point count (≥ 1). Coefficients are quantized with a uniform step
/// `qstep`.
///
/// # Panics
///
/// Panics if the input slices differ in length, codes are not strictly
/// ascending, or `qstep` is not positive.
pub fn forward(
    codes: &[MortonCode],
    attrs: &[[f64; CHANNELS]],
    weights: &[f64],
    depth: u8,
    qstep: f64,
) -> RahtEncoded {
    assert_eq!(codes.len(), attrs.len(), "one attribute vector per leaf");
    assert_eq!(codes.len(), weights.len(), "one weight per leaf");
    assert!(qstep > 0.0, "quantization step must be positive");
    assert!(codes.windows(2).all(|w| w[0] < w[1]), "leaf codes must be strictly ascending");

    let mut nodes: Vec<Node> = codes
        .iter()
        .zip(attrs)
        .zip(weights)
        .map(|((c, a), w)| Node { code: c.value(), weight: *w, attr: *a })
        .collect();

    let mut coeffs: Vec<[i64; CHANNELS]> = Vec::new();
    for _sublevel in 0..3 * depth as usize {
        let mut next = Vec::with_capacity(nodes.len());
        let mut i = 0;
        while i < nodes.len() {
            if i + 1 < nodes.len() && nodes[i].code >> 1 == nodes[i + 1].code >> 1 {
                let (lo, hi) = (nodes[i], nodes[i + 1]);
                let (lc, hc) = butterfly(lo, hi);
                coeffs.push(quantize(hc, qstep));
                next.push(Node { code: lo.code >> 1, weight: lo.weight + hi.weight, attr: lc });
                i += 2;
            } else {
                let n = nodes[i];
                next.push(Node { code: n.code >> 1, ..n });
                i += 1;
            }
        }
        nodes = next;
    }
    // Emit the root DC(s): the final low-pass is already in the
    // orthonormal basis (its magnitude is √weight × the mean attribute).
    for n in &nodes {
        coeffs.push(quantize(n.attr, qstep));
    }
    RahtEncoded { coeffs, qstep }
}

/// Inverse RAHT: reconstructs leaf attributes from the coefficients and
/// the geometry (sorted leaf codes + weights).
///
/// # Errors
///
/// Returns [`DecodeError::Mismatch`] (`declared`: coefficients in the
/// block, `decoded`: coefficients the geometry's merge schedule implies)
/// if the block does not match the geometry.
pub fn inverse(
    codes: &[MortonCode],
    weights: &[f64],
    encoded: &RahtEncoded,
    depth: u8,
) -> Result<Vec<[f64; CHANNELS]>, DecodeError> {
    assert_eq!(codes.len(), weights.len(), "one weight per leaf");
    let plan = schedule(codes, depth);
    let merges: usize = plan
        .iter()
        .map(|l| l.iter().filter(|s| **s == Step::Merge).count())
        .sum();
    let roots = if codes.is_empty() {
        0
    } else {
        plan.last().map_or(codes.len(), |l| l.len())
    };
    let expected = merges + roots;
    if encoded.coeffs.len() != expected {
        return Err(DecodeError::Mismatch {
            what: "coefficients",
            declared: expected,
            decoded: encoded.coeffs.len(),
        });
    }
    if codes.is_empty() {
        return Ok(Vec::new());
    }

    // Recompute per-sub-level weights bottom-up (needed to undo the
    // butterflies top-down).
    let mut weights_per_level: Vec<Vec<f64>> = Vec::with_capacity(plan.len() + 1);
    weights_per_level.push(weights.to_vec());
    for steps in &plan {
        let prev = weights_per_level.last().expect("seeded with leaf weights");
        let mut next = Vec::with_capacity(steps.len());
        let mut i = 0;
        for s in steps {
            match s {
                Step::Merge => {
                    next.push(prev[i] + prev[i + 1]);
                    i += 2;
                }
                Step::Pass => {
                    next.push(prev[i]);
                    i += 1;
                }
            }
        }
        weights_per_level.push(next);
    }

    // Seed the top with dequantized DCs, then walk sub-levels downward,
    // consuming high-pass coefficients from the tail of the list.
    let mut pos = encoded.coeffs.len();
    let root_weights = weights_per_level.last().expect("at least leaf level");
    let mut attrs: Vec<[f64; CHANNELS]> = root_weights
        .iter()
        .rev()
        .map(|_w| {
            pos -= 1;
            dequantize(encoded.coeffs[pos], encoded.qstep)
        })
        .collect();
    attrs.reverse();

    for (li, steps) in plan.iter().enumerate().rev() {
        let child_weights = &weights_per_level[li];
        let mut child_attrs = Vec::with_capacity(child_weights.len());
        // The forward pass consumed merges left-to-right within the
        // sub-level; replay right-to-left while popping coefficients.
        let mut merge_coeffs: Vec<[f64; CHANNELS]> = Vec::new();
        for s in steps.iter().rev() {
            if *s == Step::Merge {
                pos -= 1;
                merge_coeffs.push(dequantize(encoded.coeffs[pos], encoded.qstep));
            }
        }
        merge_coeffs.reverse();
        let mut mc = merge_coeffs.into_iter();
        let mut ci = 0;
        for (s, parent_attr) in steps.iter().zip(&attrs) {
            match s {
                Step::Merge => {
                    let w1 = child_weights[ci];
                    let w2 = child_weights[ci + 1];
                    let hc = mc.next().expect("one coefficient per merge");
                    let (a1, a2) = inverse_butterfly(*parent_attr, hc, w1, w2);
                    child_attrs.push(a1);
                    child_attrs.push(a2);
                    ci += 2;
                }
                Step::Pass => {
                    child_attrs.push(*parent_attr);
                    ci += 1;
                }
            }
        }
        attrs = child_attrs;
    }
    Ok(attrs)
}

fn butterfly(lo: Node, hi: Node) -> ([f64; CHANNELS], [f64; CHANNELS]) {
    let (w1, w2) = (lo.weight, hi.weight);
    let norm = (w1 + w2).sqrt();
    let (s1, s2) = (w1.sqrt() / norm, w2.sqrt() / norm);
    let mut lc = [0.0; CHANNELS];
    let mut hc = [0.0; CHANNELS];
    for ch in 0..CHANNELS {
        lc[ch] = s1 * lo.attr[ch] + s2 * hi.attr[ch];
        hc[ch] = -s2 * lo.attr[ch] + s1 * hi.attr[ch];
    }
    (lc, hc)
}

fn inverse_butterfly(
    lc: [f64; CHANNELS],
    hc: [f64; CHANNELS],
    w1: f64,
    w2: f64,
) -> ([f64; CHANNELS], [f64; CHANNELS]) {
    let norm = (w1 + w2).sqrt();
    let (s1, s2) = (w1.sqrt() / norm, w2.sqrt() / norm);
    let mut a1 = [0.0; CHANNELS];
    let mut a2 = [0.0; CHANNELS];
    for ch in 0..CHANNELS {
        a1[ch] = s1 * lc[ch] - s2 * hc[ch];
        a2[ch] = s2 * lc[ch] + s1 * hc[ch];
    }
    (a1, a2)
}

fn quantize(v: [f64; CHANNELS], qstep: f64) -> [i64; CHANNELS] {
    [
        (v[0] / qstep).round() as i64,
        (v[1] / qstep).round() as i64,
        (v[2] / qstep).round() as i64,
    ]
}

fn dequantize(v: [i64; CHANNELS], qstep: f64) -> [f64; CHANNELS] {
    [v[0] as f64 * qstep, v[1] as f64 * qstep, v[2] as f64 * qstep]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn codes(raw: &[u64]) -> Vec<MortonCode> {
        raw.iter().map(|&v| MortonCode::from_raw(v)).collect()
    }

    #[test]
    fn single_leaf_round_trips() {
        let c = codes(&[5]);
        let attrs = vec![[100.0, 50.0, 25.0]];
        let enc = forward(&c, &attrs, &[1.0], 2, 0.5);
        let dec = inverse(&c, &[1.0], &enc, 2).unwrap();
        for ch in 0..3 {
            assert!((dec[0][ch] - attrs[0][ch]).abs() <= 0.5);
        }
    }

    #[test]
    fn paper_fig6_example_structure() {
        // Three points with scalar-ish attrs 50/52/54 on the Fig. 5 tree.
        let c = codes(&[0, 1, 63]);
        let attrs = vec![[50.0; 3], [52.0; 3], [54.0; 3]];
        let enc = forward(&c, &attrs, &[1.0, 1.0, 1.0], 2, 1.0);
        // Two merges + one DC = 3 coefficient vectors.
        assert_eq!(enc.coeffs.len(), 3);
        // First HC: (52-50)/sqrt(2) ≈ 1.41 -> quantized 1 (paper reports 2
        // with its rounding); small either way.
        assert!(enc.coeffs[0][0].abs() <= 2);
        // DC ≈ sqrt(3) * mean-ish magnitude: ((sqrt2*72.12)+54)/sqrt3 * ...
        // must be the dominant coefficient (paper: 89).
        let dc = enc.coeffs[2][0];
        assert!((85..=95).contains(&dc), "dc = {dc}");
        let dec = inverse(&c, &[1.0, 1.0, 1.0], &enc, 2).unwrap();
        for (a, d) in attrs.iter().zip(&dec) {
            assert!((a[0] - d[0]).abs() <= 1.0, "decoded {d:?}");
        }
    }

    #[test]
    fn weights_shift_energy_toward_heavy_leaf() {
        let c = codes(&[0, 1]);
        let attrs = vec![[10.0; 3], [90.0; 3]];
        let enc_balanced = forward(&c, &attrs, &[1.0, 1.0], 1, 1e-6);
        let enc_heavy = forward(&c, &attrs, &[9.0, 1.0], 1, 1e-6);
        // DC = √(total weight) × weighted mean; with a heavy low leaf the
        // weighted mean moves toward the low attribute.
        let dc_b = enc_balanced.coeffs[1][0] as f64 * 1e-6;
        let dc_h = enc_heavy.coeffs[1][0] as f64 * 1e-6;
        let mean_b = dc_b / 2f64.sqrt();
        let mean_h = dc_h / 10f64.sqrt();
        assert!((mean_b - 50.0).abs() < 1.0, "balanced mean {mean_b}");
        assert!(mean_h < 40.0, "heavy mean {mean_h}");
    }

    #[test]
    fn coefficient_mismatch_detected() {
        let c = codes(&[0, 1]);
        let enc = forward(&c, &[[1.0; 3], [2.0; 3]], &[1.0, 1.0], 1, 1.0);
        let mut bad = enc.clone();
        bad.coeffs.pop();
        let err = inverse(&c, &[1.0, 1.0], &bad, 1).unwrap_err();
        assert_eq!(err, DecodeError::Mismatch { what: "coefficients", declared: 2, decoded: 1 });
    }

    #[test]
    fn empty_input() {
        let enc = forward(&[], &[], &[], 3, 1.0);
        assert!(enc.coeffs.is_empty());
        let dec = inverse(&[], &[], &enc, 3).unwrap();
        assert!(dec.is_empty());
    }

    #[test]
    fn transform_count_matches_emitted_coeffs() {
        let c = codes(&[0, 1, 8, 9, 63]);
        let n = transform_count(&c, 2);
        let enc = forward(&c, &[[1.0; 3]; 5], &[1.0; 5], 2, 1.0);
        assert_eq!(enc.coeffs.len(), n + 1); // merges + one DC
    }

    #[test]
    fn payload_bytes_positive_for_nonempty() {
        let c = codes(&[0, 7]);
        let enc = forward(&c, &[[200.0; 3], [10.0; 3]], &[1.0, 1.0], 1, 1.0);
        assert!(enc.payload_bytes() >= enc.coeffs.len() * 3);
    }

    proptest! {
        /// Forward∘inverse reproduces attributes within quantization error.
        #[test]
        fn round_trip_within_qstep(
            raw in prop::collection::btree_set(0u64..512, 1..60),
            seed_attrs in prop::collection::vec(0u8..=255, 60),
            qexp in 0u32..4,
        ) {
            let c: Vec<MortonCode> = raw.iter().map(|&v| MortonCode::from_raw(v)).collect();
            let attrs: Vec<[f64; 3]> = (0..c.len())
                .map(|i| {
                    let v = seed_attrs[i % seed_attrs.len()] as f64;
                    [v, 255.0 - v, v / 2.0]
                })
                .collect();
            let weights = vec![1.0; c.len()];
            let qstep = 0.5f64 * 2f64.powi(qexp as i32); // 0.5 .. 4
            let enc = forward(&c, &attrs, &weights, 3, qstep);
            let dec = inverse(&c, &weights, &enc, 3).unwrap();
            // Quantization noise accumulates along ~3·depth butterflies;
            // bound it loosely but meaningfully.
            let bound = qstep * 8.0;
            for (a, d) in attrs.iter().zip(&dec) {
                for ch in 0..3 {
                    prop_assert!((a[ch] - d[ch]).abs() <= bound,
                        "channel err {} vs bound {}", (a[ch] - d[ch]).abs(), bound);
                }
            }
        }

        /// With a tiny qstep the transform is numerically lossless.
        #[test]
        fn near_lossless_at_tiny_qstep(
            raw in prop::collection::btree_set(0u64..4096, 1..40),
        ) {
            let c: Vec<MortonCode> = raw.iter().map(|&v| MortonCode::from_raw(v)).collect();
            let attrs: Vec<[f64; 3]> =
                (0..c.len()).map(|i| [(i % 256) as f64, 128.0, 255.0 - (i % 256) as f64]).collect();
            let weights = vec![1.0; c.len()];
            let enc = forward(&c, &attrs, &weights, 4, 1e-6);
            let dec = inverse(&c, &weights, &enc, 4).unwrap();
            for (a, d) in attrs.iter().zip(&dec) {
                for ch in 0..3 {
                    prop_assert!((a[ch] - d[ch]).abs() < 1e-3);
                }
            }
        }
    }
}
