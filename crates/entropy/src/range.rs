//! Adaptive binary range coder (LZMA-style).
//!
//! This is the arithmetic-coding stage of the TMC13-like baseline: an
//! 11-bit adaptive probability per binary context, a carry-propagating
//! 32-bit range encoder, and a 255-context bit-tree model for whole bytes.
//! [`wrap_stream`] / [`unwrap_stream`] frame a whole byte payload with it.

use pcc_types::wire::Cursor;
use pcc_types::{DecodeError, Limits};

const PROB_BITS: u32 = 11;
const PROB_ONE: u16 = 1 << PROB_BITS; // 2048
const MOVE_BITS: u32 = 5;
const TOP: u32 = 1 << 24;

/// An adaptive probability for one binary decision context.
///
/// Starts at ½ and adapts toward the observed bit distribution with an
/// exponential moving average (shift 5), exactly like the LZMA/CABAC
/// family of coders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitModel {
    prob: u16, // probability of a 0 bit, in [1, 2047]
}

impl BitModel {
    /// A fresh model with P(0) = ½.
    pub fn new() -> Self {
        BitModel { prob: PROB_ONE / 2 }
    }

    #[inline]
    fn update(&mut self, bit: bool) {
        if bit {
            self.prob -= self.prob >> MOVE_BITS;
        } else {
            self.prob += (PROB_ONE - self.prob) >> MOVE_BITS;
        }
    }
}

impl Default for BitModel {
    fn default() -> Self {
        BitModel::new()
    }
}

/// A bit-tree model over whole bytes: 255 binary contexts, one per
/// internal node of a depth-8 binary tree.
#[derive(Debug, Clone)]
pub struct ByteModel {
    nodes: [BitModel; 255],
}

impl ByteModel {
    /// A fresh model with every context at ½.
    pub fn new() -> Self {
        ByteModel { nodes: [BitModel::new(); 255] }
    }
}

impl Default for ByteModel {
    fn default() -> Self {
        ByteModel::new()
    }
}

/// The encoding half of the range coder.
///
/// See the [crate-level example](crate) for a round trip.
#[derive(Debug, Clone)]
pub struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl RangeEncoder {
    /// Creates an encoder with an empty output buffer.
    pub fn new() -> Self {
        RangeEncoder { low: 0, range: u32::MAX, cache: 0, cache_size: 1, out: Vec::new() }
    }

    /// Bytes emitted so far (the final [`finish`](Self::finish) adds ≤5 more).
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// `true` if nothing has been flushed yet.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Encodes one bit under an adaptive context.
    pub fn encode_bit(&mut self, model: &mut BitModel, bit: bool) {
        let bound = (self.range >> PROB_BITS) * model.prob as u32;
        if bit {
            self.low += bound as u64;
            self.range -= bound;
        } else {
            self.range = bound;
        }
        model.update(bit);
        while self.range < TOP {
            self.shift_low();
            self.range <<= 8;
        }
    }

    /// Encodes the low `count` bits of `value` at fixed probability ½
    /// (no context adaptation) — used for already-high-entropy payloads.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn encode_direct(&mut self, value: u32, count: u8) {
        assert!(count <= 32, "direct encoding is limited to 32 bits");
        for i in (0..count).rev() {
            let bit = (value >> i) & 1;
            self.range >>= 1;
            if bit == 1 {
                self.low += self.range as u64;
            }
            while self.range < TOP {
                self.shift_low();
                self.range <<= 8;
            }
        }
    }

    /// Encodes one byte through a bit-tree model.
    // The bit-tree walk keeps `ctx` in 1..=255, so `ctx - 1` always
    // lands inside the 255-node array.
    #[allow(clippy::indexing_slicing)]
    pub fn encode_byte(&mut self, model: &mut ByteModel, byte: u8) {
        let mut ctx = 1usize;
        for i in (0..8).rev() {
            let bit = (byte >> i) & 1 == 1;
            self.encode_bit(&mut model.nodes[ctx - 1], bit);
            ctx = (ctx << 1) | bit as usize;
        }
    }

    /// Flushes the coder state and returns the compressed bytes.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }

    fn shift_low(&mut self) {
        if (self.low as u32) < 0xff00_0000 || self.low > u32::MAX as u64 {
            let carry = (self.low >> 32) as u8;
            let mut first = true;
            while self.cache_size > 0 {
                let byte = if first { self.cache.wrapping_add(carry) } else { 0xffu8.wrapping_add(carry) };
                self.out.push(byte);
                first = false;
                self.cache_size -= 1;
            }
            self.cache = (self.low >> 24) as u8;
        }
        self.cache_size += 1;
        // Truncate to 32 bits *before* shifting: the top byte was either
        // emitted above or is pending carry resolution via `cache_size`.
        self.low = ((self.low as u32) << 8) as u64;
    }
}

impl Default for RangeEncoder {
    fn default() -> Self {
        RangeEncoder::new()
    }
}

/// The decoding half of the range coder.
///
/// Must be driven with the *same sequence of model contexts* as the
/// encoder. Reading past the end of the compressed buffer yields zero
/// bytes (the encoder's flush guarantees enough real bytes for all
/// encoded symbols).
#[derive(Debug, Clone)]
pub struct RangeDecoder<'a> {
    code: u32,
    range: u32,
    input: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    /// Creates a decoder over a buffer produced by [`RangeEncoder::finish`].
    pub fn new(input: &'a [u8]) -> Self {
        let mut d = RangeDecoder { code: 0, range: u32::MAX, input, pos: 0 };
        d.next_byte(); // skip the encoder's leading cache byte
        for _ in 0..4 {
            let b = d.next_byte();
            d.code = (d.code << 8) | b as u32;
        }
        d
    }

    fn next_byte(&mut self) -> u8 {
        let b = self.input.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// Decodes one bit under an adaptive context.
    pub fn decode_bit(&mut self, model: &mut BitModel) -> bool {
        let bound = (self.range >> PROB_BITS) * model.prob as u32;
        let bit = if self.code < bound {
            self.range = bound;
            false
        } else {
            self.code -= bound;
            self.range -= bound;
            true
        };
        model.update(bit);
        while self.range < TOP {
            let b = self.next_byte();
            self.code = (self.code << 8) | b as u32;
            self.range <<= 8;
        }
        bit
    }

    /// Decodes `count` fixed-probability bits written by
    /// [`RangeEncoder::encode_direct`].
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn decode_direct(&mut self, count: u8) -> u32 {
        assert!(count <= 32, "direct decoding is limited to 32 bits");
        let mut v = 0u32;
        for _ in 0..count {
            self.range >>= 1;
            let bit = if self.code >= self.range {
                self.code -= self.range;
                1
            } else {
                0
            };
            v = (v << 1) | bit;
            while self.range < TOP {
                let b = self.next_byte();
                self.code = (self.code << 8) | b as u32;
                self.range <<= 8;
            }
        }
        v
    }

    /// Decodes one byte through a bit-tree model.
    // The bit-tree walk keeps `ctx` in 1..=255, so `ctx - 1` always
    // lands inside the 255-node array.
    #[allow(clippy::indexing_slicing)]
    pub fn decode_byte(&mut self, model: &mut ByteModel) -> u8 {
        let mut ctx = 1usize;
        while ctx < 256 {
            let bit = self.decode_bit(&mut model.nodes[ctx - 1]);
            ctx = (ctx << 1) | bit as usize;
        }
        (ctx - 256) as u8
    }
}

/// Range-codes `payload` byte by byte under one fresh [`ByteModel`],
/// behind its length as a little-endian `u32`: the self-delimiting
/// stream every codec's optional entropy stage emits.
pub fn wrap_stream(payload: &[u8]) -> Vec<u8> {
    let mut model = ByteModel::new();
    let mut enc = RangeEncoder::new();
    for &b in payload {
        enc.encode_byte(&mut model, b);
    }
    let coded = enc.finish();
    let mut out = Vec::with_capacity(coded.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&coded);
    out
}

/// Decodes a [`wrap_stream`] stream.
///
/// # Errors
///
/// [`DecodeError::Truncated`] when the length prefix is cut short, and
/// [`DecodeError::Limit`] when it declares more than
/// `limits.max_alloc_bytes`: the prefix is attacker-controlled, so it
/// is bounded before the allocation it drives (a 12-byte stream could
/// otherwise demand 4 GiB).
pub fn unwrap_stream(stream: &[u8], limits: &Limits) -> Result<Vec<u8>, DecodeError> {
    let mut c = Cursor::new(stream, 0);
    let len = c.u32_le()? as usize;
    limits.check_alloc(len as u64)?;
    let mut model = ByteModel::new();
    let mut dec = RangeDecoder::new(c.rest());
    Ok((0..len).map(|_| dec.decode_byte(&mut model)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn round_trip_bytes(data: &[u8]) -> Vec<u8> {
        unwrap_stream(&wrap_stream(data), &Limits::default()).unwrap()
    }

    #[test]
    fn empty_stream() {
        assert!(round_trip_bytes(&[]).is_empty());
    }

    #[test]
    fn stream_length_prefix_is_bounded_by_limits() {
        // A tiny stream declaring a huge decoded length must be rejected
        // before the allocation happens.
        let mut bomb = u32::MAX.to_le_bytes().to_vec();
        bomb.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            unwrap_stream(&bomb, &Limits::default()),
            Err(DecodeError::Limit(e)) if e.what == "alloc bytes"
        ));
        // A cut-short prefix is a truncation, not a panic.
        for cut in 0..4 {
            assert_eq!(
                unwrap_stream(&bomb[..cut], &Limits::default()),
                Err(DecodeError::Truncated { offset: 0 })
            );
        }
        // And a legitimate stream still decodes under a budget that
        // admits it.
        let data = [7u8; 100];
        let limits = Limits { max_alloc_bytes: 1 << 16, ..Limits::default() };
        assert_eq!(unwrap_stream(&wrap_stream(&data), &limits).unwrap(), data);
    }

    #[test]
    fn skewed_bits_compress_well() {
        // 10_000 bits, 99% zero: should compress far below 1250 bytes.
        let mut model = BitModel::new();
        let mut enc = RangeEncoder::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let bits: Vec<bool> = (0..10_000).map(|_| rng.random_ratio(1, 100)).collect();
        for &b in &bits {
            enc.encode_bit(&mut model, b);
        }
        let bytes = enc.finish();
        assert!(bytes.len() < 200, "skewed stream took {} bytes", bytes.len());

        let mut model = BitModel::new();
        let mut dec = RangeDecoder::new(&bytes);
        for &b in &bits {
            assert_eq!(dec.decode_bit(&mut model), b);
        }
    }

    #[test]
    fn repetitive_bytes_compress() {
        let data = vec![0x42u8; 4096];
        let mut model = ByteModel::new();
        let mut enc = RangeEncoder::new();
        for &b in &data {
            enc.encode_byte(&mut model, b);
        }
        let bytes = enc.finish();
        assert!(bytes.len() < 200, "constant stream took {} bytes", bytes.len());
    }

    #[test]
    fn random_bytes_round_trip() {
        let mut rng = SmallRng::seed_from_u64(11);
        let data: Vec<u8> = (0..5000).map(|_| rng.random()).collect();
        assert_eq!(round_trip_bytes(&data), data);
    }

    #[test]
    fn direct_bits_round_trip() {
        let mut enc = RangeEncoder::new();
        enc.encode_direct(0xdead_beef, 32);
        enc.encode_direct(0b101, 3);
        enc.encode_direct(0, 1);
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes);
        assert_eq!(dec.decode_direct(32), 0xdead_beef);
        assert_eq!(dec.decode_direct(3), 0b101);
        assert_eq!(dec.decode_direct(1), 0);
    }

    #[test]
    fn mixed_adaptive_and_direct() {
        let mut m = BitModel::new();
        let mut bm = ByteModel::new();
        let mut enc = RangeEncoder::new();
        enc.encode_bit(&mut m, true);
        enc.encode_byte(&mut bm, 0x7f);
        enc.encode_direct(12345, 17);
        enc.encode_bit(&mut m, false);
        let bytes = enc.finish();

        let mut m = BitModel::new();
        let mut bm = ByteModel::new();
        let mut dec = RangeDecoder::new(&bytes);
        assert!(dec.decode_bit(&mut m));
        assert_eq!(dec.decode_byte(&mut bm), 0x7f);
        assert_eq!(dec.decode_direct(17), 12345);
        assert!(!dec.decode_bit(&mut m));
    }

    proptest! {
        #[test]
        fn bit_streams_round_trip(bits in prop::collection::vec(any::<bool>(), 0..2000)) {
            let mut model = BitModel::new();
            let mut enc = RangeEncoder::new();
            for &b in &bits {
                enc.encode_bit(&mut model, b);
            }
            let bytes = enc.finish();
            let mut model = BitModel::new();
            let mut dec = RangeDecoder::new(&bytes);
            for &b in &bits {
                prop_assert_eq!(dec.decode_bit(&mut model), b);
            }
        }

        #[test]
        fn byte_streams_round_trip(data in prop::collection::vec(any::<u8>(), 0..1000)) {
            prop_assert_eq!(round_trip_bytes(&data), data);
        }
    }
}
