//! One base+delta coding layer: the "Mid + Residual" core of the proposed
//! attribute codec (paper Sec. IV-A2).

use pcc_types::wire::{write_varint, write_zigzag_varint, Cursor};
use pcc_types::{DecodeError, Limits};
use std::num::NonZeroUsize;

/// The output of one coding layer over a sequence of 3-channel values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerEncoded {
    /// Per-segment base values (the per-channel medians).
    pub bases: Vec<[i32; 3]>,
    /// Quantized residuals, one per input value, in input order.
    pub residuals: Vec<[i32; 3]>,
    /// Segment boundaries: `starts[s]` is the first index of segment `s`
    /// (a final implicit boundary is the sequence length).
    pub starts: Vec<u32>,
    /// Quantization step applied to residuals.
    pub quant_step: i32,
}

impl LayerEncoded {
    /// Serializes the layer payload: header varints, segment starts and
    /// bases, then the residual stream as `(zero-run length, nonzero
    /// triple)` pairs — locality makes most residual triples all-zero, so
    /// runs dominate and the stream approaches a fraction of a byte per
    /// point on smooth content.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        write_layer(&mut out, self.quant_step, &self.starts, &self.bases, &self.residuals);
        out
    }

    /// Parses a payload produced by [`to_bytes`](Self::to_bytes) under
    /// [`Limits::default`].
    ///
    /// # Errors
    ///
    /// As [`read`](Self::read).
    pub fn from_bytes(input: &[u8]) -> Result<Self, DecodeError> {
        Self::read(&mut Cursor::new(input, 0), &Limits::default())
    }

    /// Reads one layer payload from `c` under explicit resource
    /// [`Limits`]: the declared value count is bounded by `max_points`,
    /// the segment count by `max_blocks`, and the implied decode-side
    /// allocation (12 bytes per value and per base, 4 per start) by
    /// `max_alloc_bytes`. Pre-allocations are additionally capped by the
    /// input length, so even an in-limit header cannot reserve more
    /// memory than the payload could fill.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] with the cursor's offset on malformed input, and
    /// [`DecodeError::Limit`] when a limit is hit.
    pub fn read(c: &mut Cursor<'_>, limits: &Limits) -> Result<Self, DecodeError> {
        let quant_step = c.varint()? as i32;
        let n64 = c.varint()?;
        let segs64 = c.varint()?;
        // `segs` is not bounded by `n`: the two-layer encoder serializes
        // its outer layer with an empty residual list but real segments.
        limits.check_points(n64)?;
        limits.check_blocks(segs64)?;
        let (n, segs) = (n64 as usize, segs64 as usize);
        limits.check_alloc(n64.saturating_mul(12).saturating_add(segs64.saturating_mul(16)))?;
        if quant_step < 1 {
            return Err(c.corrupt("quantization step"));
        }
        // Every start and base costs at least one input byte, so the
        // input length bounds the pre-allocation even before limits bite.
        let mut starts = Vec::with_capacity(segs.min(c.rest().len()));
        for _ in 0..segs {
            starts.push(c.varint()? as u32);
        }
        let mut bases = Vec::with_capacity(segs.min(c.rest().len()));
        for _ in 0..segs {
            bases.push(read_triple(c)?);
        }
        let mode = c.u8()?;
        // `n` was already bounded by the check_alloc call above (12 bytes
        // per residual), so reserving it exactly is safe and avoids the
        // grow-by-doubling churn a capped reserve caused on large frames.
        let mut residuals = Vec::with_capacity(n);
        if mode != 0 {
            while residuals.len() < n {
                let zrun = c.varint()? as usize;
                if zrun > n - residuals.len() {
                    return Err(c.corrupt("zero run past the value count"));
                }
                residuals.extend(std::iter::repeat_n([0i32; 3], zrun));
                if residuals.len() < n {
                    residuals.push(read_triple(c)?);
                }
            }
        } else {
            for _ in 0..n {
                residuals.push(read_triple(c)?);
            }
        }
        Ok(LayerEncoded { bases, residuals, starts, quant_step })
    }
}

/// Reads one signed value triple (a base or a residual).
#[inline]
fn read_triple(c: &mut Cursor<'_>) -> Result<[i32; 3], DecodeError> {
    Ok([c.zigzag_varint()? as i32, c.zigzag_varint()? as i32, c.zigzag_varint()? as i32])
}

/// Serializes one layer payload (see [`LayerEncoded::to_bytes`] for the
/// wire layout), appending to `out`. This free-function form lets frame
/// arenas serialize straight from reused base/residual buffers without
/// materializing a `LayerEncoded`; `to_bytes` delegates here, so there is
/// exactly one serializer.
// Serializer over caller arrays; loop indices are bounded by the length
// checks in the while conditions.
#[allow(clippy::indexing_slicing)]
pub fn write_layer(
    out: &mut Vec<u8>,
    quant_step: i32,
    starts: &[u32],
    bases: &[[i32; 3]],
    residuals: &[[i32; 3]],
) {
    write_varint(out, quant_step as u64);
    write_varint(out, residuals.len() as u64);
    write_varint(out, bases.len() as u64);
    for s in starts {
        write_varint(out, *s as u64);
    }
    for b in bases {
        for &v in b {
            write_zigzag_varint(out, v as i64);
        }
    }
    // Pick the cheaper residual coding: zero-run pairs win when
    // locality zeroes out most triples; plain triples win on
    // gradient-heavy segments where runs would just add overhead.
    let zeros = residuals.iter().filter(|r| **r == [0; 3]).count();
    let zero_run_mode = zeros * 4 >= residuals.len();
    out.push(zero_run_mode as u8);
    if zero_run_mode {
        let mut i = 0;
        while i < residuals.len() {
            let mut zrun = 0u64;
            while i < residuals.len() && residuals[i] == [0; 3] {
                zrun += 1;
                i += 1;
            }
            write_varint(out, zrun);
            if i < residuals.len() {
                for &v in &residuals[i] {
                    write_zigzag_varint(out, v as i64);
                }
                i += 1;
            }
        }
    } else {
        for r in residuals {
            for &v in r {
                write_zigzag_varint(out, v as i64);
            }
        }
    }
}

/// Splits `len` values into `segments` near-equal contiguous ranges,
/// writing the start index of each into `out` (cleared first). The
/// segment count is clamped to `1..=len` (one segment for an empty
/// sequence), so every range but an empty sequence's is non-empty.
pub fn segment_starts_into(len: usize, segments: usize, out: &mut Vec<u32>) {
    out.clear();
    let segments = segments.clamp(1, len.max(1));
    out.extend((0..segments).map(|s| (s * len / segments) as u32));
}

/// Encodes one base+delta layer over caller-chosen segment boundaries
/// (from [`segment_starts_into`], or the inter-frame codec's matched
/// blocks): per segment, the per-channel median is the base, and every
/// value stores its residual against the base quantized at `quant_step`.
///
/// All per-point work is independent (the modeled GPU runs it as two
/// kernels); the per-segment median is a small local reduction. On the
/// host, segments are grouped into contiguous chunks, each writing a
/// disjoint slice of the base and residual arrays (every segment belongs
/// to exactly one chunk), so the output is byte-identical at every thread
/// count.
///
/// `bases`/`residuals` are cleared and refilled; `median_scratch` holds
/// one channel scratch per chunk ([`pcc_parallel::slots`]), reused across
/// that chunk's segments (each grows to the largest segment it sees and
/// then stays put). At every thread count this performs no heap
/// allocation once the buffers have warmed to the working-set size.
///
/// # Panics
///
/// Panics if `quant_step < 1`, `starts` is empty or does not begin at 0,
/// or boundaries are not ascending within the value range.
// Encoder side: the segment-start preconditions are asserted on entry,
// so every index below is in range.
#[allow(clippy::indexing_slicing)]
pub fn encode_layer_with_starts_into(
    values: &[[i32; 3]],
    starts: &[u32],
    quant_step: i32,
    threads: NonZeroUsize,
    bases: &mut Vec<[i32; 3]>,
    residuals: &mut Vec<[i32; 3]>,
    median_scratch: &mut Vec<Vec<i32>>,
) {
    let _sp = pcc_probe::span("intra/layer_encode");
    assert!(quant_step >= 1, "quantization step must be >= 1");
    assert!(!starts.is_empty() && starts[0] == 0, "segment starts must begin at 0");
    assert!(
        starts.windows(2).all(|w| w[0] <= w[1]) && *starts.last().expect("non-empty") as usize <= values.len(),
        "segment starts must ascend within the value range"
    );
    bases.clear();
    bases.resize(starts.len(), [0i32; 3]);
    residuals.clear();
    residuals.resize(values.len(), [0i32; 3]);

    // One chunk handles segments seg_range = [s0, s1): it owns
    // bases[s0..s1] and residuals[starts[s0]..starts[s1]] — disjoint
    // contiguous slices across chunks. Every segment runs median (a small
    // local reduction) then the batched quantize kernel over its whole
    // slice.
    let encode_group = |seg_range: std::ops::Range<usize>,
                        bases_part: &mut [[i32; 3]],
                        resid_part: &mut [[i32; 3]],
                        scratch: &mut Vec<i32>| {
        let value_base = starts[seg_range.start] as usize;
        for (local_s, s) in seg_range.enumerate() {
            let start = starts[s] as usize;
            let end = starts.get(s + 1).map_or(values.len(), |&e| e as usize);
            let seg = &values[start..end];
            let base = median3(seg, scratch);
            bases_part[local_s] = base;
            let lo = start - value_base;
            quantize_segment(seg, base, quant_step, &mut resid_part[lo..lo + seg.len()]);
        }
    };

    let fan = pcc_parallel::effective_threads(threads, values.len()).min(starts.len());
    let seg_ranges = pcc_parallel::chunks(starts.len(), fan);
    let bases_parts =
        pcc_parallel::split_at_cuts(bases, seg_ranges.clone().skip(1).map(|r| r.start));
    let resid_parts = pcc_parallel::split_at_cuts(
        residuals,
        seg_ranges.clone().skip(1).map(|r| starts[r.start] as usize),
    );
    let scratches = pcc_parallel::slots(median_scratch, fan);
    pcc_parallel::run(
        seg_ranges.zip(bases_parts).zip(resid_parts).zip(scratches),
        |(((seg_range, bases_part), resid_part), scratch)| {
            encode_group(seg_range, bases_part, resid_part, scratch)
        },
        drop,
    );
}

/// Quantizes one segment against its base in a single batched pass over
/// the slice, with the per-step branches hoisted out of the inner loop:
///
/// * `q == 1` — a pure subtract, which the compiler auto-vectorizes;
/// * `q` a power of two (the only steps [`crate::IntraConfig`] produces)
///   — a branch-free sign/shift sequence, also vectorizable;
/// * general `q` — the reference [`div_round`] with the rounding bias
///   hoisted.
///
/// All three produce results identical to `div_round(v - base, q)` per
/// channel (asserted by the `quantize_segment_matches_div_round`
/// proptest below).
// Fixed-size [i32; 3] lanes indexed by a 0..3 loop.
#[allow(clippy::indexing_slicing)]
fn quantize_segment(seg: &[[i32; 3]], base: [i32; 3], q: i32, out: &mut [[i32; 3]]) {
    debug_assert_eq!(seg.len(), out.len());
    if q == 1 {
        for (o, v) in out.iter_mut().zip(seg) {
            *o = [v[0] - base[0], v[1] - base[1], v[2] - base[2]];
        }
    } else if q.count_ones() == 1 {
        let shift = q.trailing_zeros();
        let half = (q - 1) / 2;
        for (o, v) in out.iter_mut().zip(seg) {
            let mut r = [0i32; 3];
            for ch in 0..3 {
                let d = v[ch] - base[ch];
                // Ties toward zero via sign-magnitude: m is 0 or -1, so
                // `(x ^ m) - m` is |x| going in and restores the sign
                // coming out — no data-dependent branch in the loop body.
                let m = d >> 31;
                let mag = (d ^ m) - m;
                r[ch] = (((mag + half) >> shift) ^ m) - m;
            }
            *o = r;
        }
    } else {
        let half = (q - 1) / 2;
        for (o, v) in out.iter_mut().zip(seg) {
            let mut r = [0i32; 3];
            for ch in 0..3 {
                let d = v[ch] - base[ch];
                r[ch] = if d >= 0 { (d + half) / q } else { -((-d + half) / q) };
            }
            *o = r;
        }
    }
}

/// Decodes one layer back to its (quantization-rounded) values.
///
/// Well-formed layers decode chunk-parallel over segment groups writing
/// disjoint output slices, byte-identical at every thread count.
/// Malformed segment boundaries (from corrupt payloads) take a clamping
/// sequential path instead of panicking; affected values decode as
/// zeros.
// Indices are validated by the `well_formed` guard below; malformed
// (wire-damaged) layers take the clamping sequential path instead.
#[allow(clippy::indexing_slicing)]
pub fn decode_layer_threaded(layer: &LayerEncoded, threads: NonZeroUsize) -> Vec<[i32; 3]> {
    let _sp = pcc_probe::span("intra/layer_decode");
    let n = layer.residuals.len();
    let starts = &layer.starts;
    let well_formed = layer.bases.len() >= starts.len()
        && starts.first() == Some(&0)
        && starts.windows(2).all(|w| w[0] <= w[1])
        && starts.last().is_none_or(|&s| (s as usize) <= n);
    if !well_formed {
        return decode_layer_sequential(layer);
    }
    let fan = pcc_parallel::effective_threads(threads, n).min(starts.len());
    let mut out = vec![[0i32; 3]; n];
    let seg_ranges = pcc_parallel::chunks(starts.len(), fan);
    let value_cuts = seg_ranges.clone().skip(1).map(|r| starts[r.start] as usize);
    let parts = pcc_parallel::split_at_cuts(&mut out, value_cuts);
    pcc_parallel::run(
        seg_ranges.zip(parts),
        |(seg_range, part)| {
            let value_base = starts[seg_range.start] as usize;
            for s in seg_range {
                let start = starts[s] as usize;
                let end = starts.get(s + 1).map_or(n, |&e| e as usize);
                let seg_out = &mut part[start - value_base..end - value_base];
                for (o, r) in seg_out.iter_mut().zip(&layer.residuals[start..end]) {
                    *o = dequantize(layer.bases[s], *r, layer.quant_step);
                }
            }
        },
        drop,
    );
    out
}

/// `base + r * q` per channel, wrapping: a hostile payload can carry
/// residuals and steps whose product overflows, and must not panic.
pub(crate) fn dequantize(base: [i32; 3], r: [i32; 3], q: i32) -> [i32; 3] {
    let ch = |b: i32, r: i32| b.wrapping_add(r.wrapping_mul(q));
    [ch(base[0], r[0]), ch(base[1], r[1]), ch(base[2], r[2])]
}

// Every index is clamped to `n` before use (hostile boundaries decode
// as zeros rather than panicking).
#[allow(clippy::indexing_slicing)]
fn decode_layer_sequential(layer: &LayerEncoded) -> Vec<[i32; 3]> {
    let n = layer.residuals.len();
    let mut out = vec![[0i32; 3]; n];
    for (s, &start) in layer.starts.iter().enumerate() {
        let end = layer.starts.get(s + 1).map_or(n, |&e| e as usize).min(n);
        let Some(&base) = layer.bases.get(s) else { break };
        let lo = (start as usize).min(n);
        for (o, r) in out.iter_mut().zip(&layer.residuals).take(end).skip(lo) {
            *o = dequantize(base, *r, layer.quant_step);
        }
    }
    out
}

/// Per-channel median of a non-empty slice (midpoint element of the sorted
/// channel values). Returns zeros for an empty slice. `scratch` is reused
/// across calls so the steady-state encode path never reallocates it.
// `ch` walks 0..3 into fixed [i32; 3] arrays.
#[allow(clippy::indexing_slicing)]
fn median3(seg: &[[i32; 3]], scratch: &mut Vec<i32>) -> [i32; 3] {
    if seg.is_empty() {
        return [0; 3];
    }
    let mut base = [0i32; 3];
    for ch in 0..3 {
        scratch.clear();
        scratch.extend(seg.iter().map(|v| v[ch]));
        let mid = scratch.len() / 2;
        let (_, m, _) = scratch.select_nth_unstable(mid);
        base[ch] = *m;
    }
    base
}

/// Rounds `v / q` to the nearest integer, ties toward zero (the paper's
/// Fig. 6 example quantizes a residual of −2 at step 4 to 0).
///
/// Kept as the scalar reference for [`quantize_segment`]'s batched
/// branches; the proptest pins them element-for-element to this.
#[cfg_attr(not(test), allow(dead_code))]
fn div_round(v: i32, q: i32) -> i32 {
    if q == 1 {
        return v;
    }
    let half = (q - 1) / 2;
    if v >= 0 {
        (v + half) / q
    } else {
        -((-v + half) / q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ONE: NonZeroUsize = NonZeroUsize::MIN;

    /// One layer over `segments` near-equal segments, through fresh
    /// buffers at one thread.
    fn layer_of(values: &[[i32; 3]], segments: usize, quant_step: i32) -> LayerEncoded {
        let mut starts = Vec::new();
        segment_starts_into(values.len(), segments, &mut starts);
        let (mut bases, mut residuals) = (Vec::new(), Vec::new());
        encode_layer_with_starts_into(
            values, &starts, quant_step, ONE, &mut bases, &mut residuals, &mut Vec::new(),
        );
        LayerEncoded { bases, residuals, starts, quant_step }
    }

    #[test]
    fn paper_fig6_example() {
        // Points sorted by Morton code carry attrs 50, 52 | 54 in two
        // segments; bases are the medians, residuals small.
        let values = [[50; 3], [52; 3], [54; 3]];
        // Two segments: [50, 52] and [54] (starts 0 and 2 - emulate by 2 segments over 3
        // values => starts [0, 1]; to match the paper exactly use explicit grouping).
        let enc = layer_of(&values[..2], 1, 1);
        assert_eq!(enc.bases, vec![[52; 3]]); // median of {50,52} = upper mid
        assert_eq!(enc.residuals, vec![[-2; 3], [0; 3]]);
        let enc2 = layer_of(&values[2..], 1, 1);
        assert_eq!(enc2.bases, vec![[54; 3]]);
        assert_eq!(enc2.residuals, vec![[0; 3]]);
    }

    #[test]
    fn lossless_round_trip() {
        let values: Vec<[i32; 3]> =
            (0..100).map(|i| [i % 17, 255 - (i % 31), (i * 7) % 256]).collect();
        let enc = layer_of(&values, 8, 1);
        assert_eq!(decode_layer_threaded(&enc, ONE), values);
    }

    #[test]
    fn quantized_error_is_bounded() {
        let values: Vec<[i32; 3]> = (0..200).map(|i| [(i * 13) % 256, i % 256, 128]).collect();
        for shift in 1..4u32 {
            let q = 1i32 << shift;
            let enc = layer_of(&values, 16, q);
            let dec = decode_layer_threaded(&enc, ONE);
            for (v, d) in values.iter().zip(&dec) {
                for ch in 0..3 {
                    assert!(
                        (v[ch] - d[ch]).abs() <= q / 2,
                        "err {} > {} at q={q}",
                        (v[ch] - d[ch]).abs(),
                        q / 2
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_single_value() {
        let enc = layer_of(&[], 5, 2);
        assert!(decode_layer_threaded(&enc, ONE).is_empty());
        let enc = layer_of(&[[7, 8, 9]], 5, 2);
        assert_eq!(decode_layer_threaded(&enc, ONE), vec![[7, 8, 9]]);
        // A single value is its own base: residual 0.
        assert_eq!(enc.residuals, vec![[0; 3]]);
    }

    #[test]
    fn more_segments_than_values_collapses() {
        let mut starts = vec![9; 20];
        segment_starts_into(3, 100, &mut starts);
        assert_eq!(starts, vec![0, 1, 2]);
        segment_starts_into(0, 10, &mut starts);
        assert_eq!(starts, vec![0]);
    }

    #[test]
    fn similar_values_give_tiny_residuals() {
        // The spatial-locality payoff: near-constant segments produce
        // near-zero residuals (1-byte varints).
        let values: Vec<[i32; 3]> = (0..64).map(|i| [100 + (i % 3), 50, 200]).collect();
        let enc = layer_of(&values, 2, 1);
        assert!(enc.residuals.iter().all(|r| r.iter().all(|c| c.abs() <= 2)));
        let bytes = enc.to_bytes();
        // ~1 byte per channel per residual + bases.
        assert!(bytes.len() <= 64 * 3 + 32, "packed {} bytes", bytes.len());
    }

    #[test]
    fn serialization_round_trips() {
        let values: Vec<[i32; 3]> = (0..50).map(|i| [i, -i, i * 3]).collect();
        let enc = layer_of(&values, 7, 2);
        let back = LayerEncoded::from_bytes(&enc.to_bytes()).unwrap();
        assert_eq!(back, enc);
    }

    #[test]
    fn declared_counts_are_bounded_by_limits() {
        // A header declaring 2^40 values must be rejected before any
        // allocation; same for segments.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 1); // quant_step
        write_varint(&mut bytes, 1 << 40); // n
        write_varint(&mut bytes, 0); // segs
        assert!(matches!(
            LayerEncoded::from_bytes(&bytes),
            Err(DecodeError::Limit(e)) if e.what == "points"
        ));
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 1);
        write_varint(&mut bytes, 0);
        write_varint(&mut bytes, 1 << 40);
        assert!(matches!(
            LayerEncoded::from_bytes(&bytes),
            Err(DecodeError::Limit(e)) if e.what == "blocks"
        ));
        // Tight limits reject an otherwise valid payload...
        let enc = layer_of(&[[1, 2, 3]; 64], 4, 1);
        let tight = Limits { max_points: 8, ..Limits::default() };
        let bytes = enc.to_bytes();
        assert!(matches!(
            LayerEncoded::read(&mut Cursor::new(&bytes, 0), &tight),
            Err(DecodeError::Limit(e)) if e.what == "points"
        ));
        // ...and generous ones decode it unchanged.
        assert_eq!(LayerEncoded::from_bytes(&enc.to_bytes()).unwrap(), enc);
    }

    #[test]
    fn truncated_payload_errors() {
        let enc = layer_of(&[[1, 2, 3], [4, 5, 6]], 1, 1);
        let bytes = enc.to_bytes();
        let cut = bytes.len() - 1;
        assert_eq!(
            LayerEncoded::from_bytes(&bytes[..cut]),
            Err(DecodeError::Truncated { offset: cut })
        );
        // Offsets are positions in the stream the cursor was based at.
        assert_eq!(
            LayerEncoded::read(&mut Cursor::new(&bytes[..cut], 500), &Limits::default()),
            Err(DecodeError::Truncated { offset: 500 + cut })
        );
    }

    proptest! {
        #[test]
        fn round_trip_any_sequence(
            values in prop::collection::vec((-300i32..300, -300i32..300, -300i32..300), 0..120),
            segments in 1usize..20,
            shift in 0u32..3,
        ) {
            let values: Vec<[i32; 3]> = values.into_iter().map(|(a, b, c)| [a, b, c]).collect();
            let q = 1i32 << shift;
            let enc = layer_of(&values, segments, q);
            let dec = decode_layer_threaded(&enc, ONE);
            prop_assert_eq!(dec.len(), values.len());
            for (v, d) in values.iter().zip(&dec) {
                for ch in 0..3 {
                    prop_assert!((v[ch] - d[ch]).abs() <= q / 2);
                }
            }
            // Bytes round-trip too.
            let back = LayerEncoded::from_bytes(&enc.to_bytes()).unwrap();
            prop_assert_eq!(back, enc);
        }

        // The batched kernel's three branches (q == 1, power-of-two shift,
        // generic divide) must all agree with the scalar reference
        // `div_round` on every channel.
        #[test]
        fn quantize_segment_matches_div_round(
            values in prop::collection::vec((-5000i32..5000, -5000i32..5000, -5000i32..5000), 1..80),
            base in (-500i32..500, -500i32..500, -500i32..500),
            qi in 0usize..9,
        ) {
            let q = [1i32, 2, 4, 8, 16, 3, 5, 7, 100][qi];
            let seg: Vec<[i32; 3]> = values.into_iter().map(|(a, b, c)| [a, b, c]).collect();
            let base = [base.0, base.1, base.2];
            let mut out = vec![[0i32; 3]; seg.len()];
            quantize_segment(&seg, base, q, &mut out);
            for (v, o) in seg.iter().zip(&out) {
                for ch in 0..3 {
                    prop_assert_eq!(o[ch], div_round(v[ch] - base[ch], q));
                }
            }
        }

        // Every thread count, through fresh buffers and through buffers
        // dirtied by a larger, different layer, must produce the exact
        // same segmentation and layer, and that layer must decode to the
        // same values at every thread count.
        #[test]
        fn encode_into_identical_across_threads(
            values in prop::collection::vec((-300i32..300, -300i32..300, -300i32..300), 1..200),
            segments in 1usize..12,
            qi in 0usize..4,
        ) {
            let q = [1i32, 2, 4, 8][qi];
            let values: Vec<[i32; 3]> = values.into_iter().map(|(a, b, c)| [a, b, c]).collect();
            let reference = layer_of(&values, segments, q);
            let decoded = decode_layer_threaded(&reference, ONE);
            let dirty: Vec<[i32; 3]> =
                (0..values.len() as i32 + 300).map(|i| [i * 7 % 256, -i, 3 * i]).collect();
            for t in [1usize, 2, 3, 8] {
                let threads = NonZeroUsize::new(t).unwrap();
                let mut starts = Vec::new();
                let (mut bases, mut residuals, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
                segment_starts_into(dirty.len(), segments + 7, &mut starts);
                encode_layer_with_starts_into(
                    &dirty, &starts, 2, threads, &mut bases, &mut residuals, &mut scratch,
                );
                segment_starts_into(values.len(), segments, &mut starts);
                encode_layer_with_starts_into(
                    &values, &starts, q, threads, &mut bases, &mut residuals, &mut scratch,
                );
                prop_assert_eq!(&starts, &reference.starts);
                prop_assert_eq!(&bases, &reference.bases);
                prop_assert_eq!(&residuals, &reference.residuals);
                prop_assert_eq!(&decode_layer_threaded(&reference, threads), &decoded);
            }
        }
    }
}
