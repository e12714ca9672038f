//! The byte cursor and LEB128 varints every wire parser reads through.
//!
//! [`Cursor`] hands out fields from the front of an untrusted buffer and
//! builds every [`DecodeError`] it reports with the byte offset of the
//! field that failed. It holds the start of its slice and the unread
//! rest; the offset is `base` plus the bytes consumed, computed only when
//! an error is built, so a successful read costs what a bare
//! `split_first` does.
//!
//! ```
//! use pcc_types::wire::{write_varint, Cursor};
//! use pcc_types::DecodeError;
//!
//! let mut buf = vec![7];
//! write_varint(&mut buf, 300);
//! let mut c = Cursor::new(&buf, 100);
//! assert_eq!(c.u8()?, 7);
//! assert_eq!(c.varint()?, 300);
//! // The buffer sat at byte 100 of its stream; it ends at 103.
//! assert_eq!(c.u8(), Err(DecodeError::Truncated { offset: 103 }));
//! # Ok::<(), DecodeError>(())
//! ```

use crate::DecodeError;

/// A reader over an untrusted byte buffer whose errors carry offsets.
#[derive(Debug)]
pub struct Cursor<'a> {
    start: &'a [u8],
    rest: &'a [u8],
    base: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over `input`, whose first byte sits at offset `base` of
    /// the stream errors are reported against (0 for a standalone
    /// buffer).
    pub fn new(input: &'a [u8], base: usize) -> Self {
        Cursor { start: input, rest: input, base }
    }

    /// Stream offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.base + (self.start.len() - self.rest.len())
    }

    /// The unread bytes.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// A [`DecodeError::Truncated`] at the next unread byte.
    #[cold]
    fn truncated(&self) -> DecodeError {
        DecodeError::Truncated { offset: self.offset() }
    }

    /// A [`DecodeError::Corrupt`] at the next unread byte.
    #[cold]
    pub fn corrupt(&self, what: &'static str) -> DecodeError {
        DecodeError::Corrupt { what, offset: self.offset() }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when no byte is left.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let (&b, rest) = self.rest.split_first().ok_or_else(|| self.truncated())?;
        self.rest = rest;
        Ok(b)
    }

    /// Reads the next `n` bytes. `n` is checked against the remaining
    /// input before anything is sliced, so a wire-declared length can
    /// never index past the buffer.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at the field's start when fewer than
    /// `n` bytes are left; nothing is consumed then.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or_else(|| self.truncated())?;
        self.rest = rest;
        Ok(head)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// As [`take`](Self::take).
    pub fn u32_le(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `f32`.
    ///
    /// # Errors
    ///
    /// As [`take`](Self::take).
    pub fn f32_le(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// Reads the next `N` bytes as an array.
    ///
    /// # Errors
    ///
    /// As [`take`](Self::take).
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self.rest.split_first_chunk::<N>().ok_or_else(|| self.truncated())?;
        self.rest = rest;
        Ok(*head)
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when the input ends inside the varint
    /// and [`DecodeError::VarintOverflow`] when its value needs more than
    /// 64 bits; both carry the varint's first byte and consume nothing.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        let mut rest = self.rest;
        loop {
            let Some((&byte, tail)) = rest.split_first() else {
                return Err(self.truncated());
            };
            rest = tail;
            // The tenth byte holds bit 63 only; anything above it (or a
            // continuation) cannot fit. `shift >= 64` never holds, but it
            // bounds the loop at ten bytes, so the compiler unrolls it.
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(DecodeError::VarintOverflow { offset: self.offset() });
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                self.rest = rest;
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Reads a ZigZag-mapped signed varint (see [`write_zigzag_varint`]).
    ///
    /// # Errors
    ///
    /// As [`varint`](Self::varint).
    #[inline]
    pub fn zigzag_varint(&mut self) -> Result<i64, DecodeError> {
        Ok(unzigzag(self.varint()?))
    }
}

/// Appends `value` to `out` as an unsigned LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a signed value as a ZigZag-mapped varint, so small absolute
/// values stay short.
pub fn write_zigzag_varint(out: &mut Vec<u8>, value: i64) {
    write_varint(out, zigzag(value));
}

/// Maps a signed integer to an unsigned one with small absolute values
/// staying small (`0 → 0, −1 → 1, 1 → 2, −2 → 3, …`).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn read(bytes: &[u8]) -> Result<u64, DecodeError> {
        Cursor::new(bytes, 0).varint()
    }

    #[test]
    fn known_encodings() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 0);
        write_varint(&mut buf, 127);
        write_varint(&mut buf, 128);
        assert_eq!(buf, vec![0x00, 0x7f, 0x80, 0x01]);
    }

    #[test]
    fn zigzag_small_values() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(zigzag(2), 4);
    }

    #[test]
    fn truncated_input_errors_at_the_varint_start() {
        assert_eq!(read(&[0x80]), Err(DecodeError::Truncated { offset: 0 }));
        assert_eq!(read(&[]), Err(DecodeError::Truncated { offset: 0 }));
        let mut c = Cursor::new(&[5, 0x80, 0x80], 40);
        assert_eq!(c.varint(), Ok(5));
        assert_eq!(c.varint(), Err(DecodeError::Truncated { offset: 41 }));
        // A failed read consumes nothing.
        assert_eq!(c.rest(), &[0x80, 0x80]);
    }

    #[test]
    fn overlong_input_errors() {
        assert_eq!(read(&[0xff; 11]), Err(DecodeError::VarintOverflow { offset: 0 }));
        // Ten bytes whose last one sets bits above 63.
        let mut ten = [0x80u8; 10];
        ten[9] = 0x02;
        assert_eq!(read(&ten), Err(DecodeError::VarintOverflow { offset: 0 }));
        ten[9] = 0x01;
        assert_eq!(read(&ten), Ok(1 << 63));
    }

    #[test]
    fn fixed_width_reads_and_take_check_the_remaining_length() {
        let mut bytes = 7u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&1.5f32.to_le_bytes());
        bytes.push(9);
        let mut c = Cursor::new(&bytes, 0);
        assert_eq!(c.u32_le(), Ok(7));
        assert_eq!(c.f32_le(), Ok(1.5));
        assert_eq!(c.take(2), Err(DecodeError::Truncated { offset: 8 }));
        assert_eq!(c.take(usize::MAX), Err(DecodeError::Truncated { offset: 8 }));
        assert_eq!(c.take(1), Ok(&[9][..]));
        assert_eq!(c.f32_le(), Err(DecodeError::Truncated { offset: 9 }));
        assert_eq!(c.offset(), 9);
    }

    #[test]
    fn extremes_round_trip() {
        for v in [u64::MAX, u64::MAX - 1, 0] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(read(&buf), Ok(v));
        }
        for v in [i64::MIN, i64::MAX, 0, -1] {
            let mut buf = Vec::new();
            write_zigzag_varint(&mut buf, v);
            assert_eq!(Cursor::new(&buf, 0).zigzag_varint(), Ok(v));
        }
    }

    proptest! {
        #[test]
        fn u64_round_trip(v in any::<u64>()) {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut c = Cursor::new(&buf, 0);
            prop_assert_eq!(c.varint(), Ok(v));
            prop_assert!(c.rest().is_empty());
        }

        #[test]
        fn sequences_round_trip(vs in prop::collection::vec(any::<i64>(), 0..50)) {
            prop_assert!(vs.iter().all(|&v| unzigzag(zigzag(v)) == v));
            let mut buf = Vec::new();
            for &v in &vs {
                write_zigzag_varint(&mut buf, v);
            }
            let mut c = Cursor::new(&buf, 0);
            for &v in &vs {
                prop_assert_eq!(c.zigzag_varint(), Ok(v));
            }
            prop_assert_eq!(c.offset(), buf.len());
        }
    }
}
