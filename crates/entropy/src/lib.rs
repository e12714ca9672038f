//! Entropy-coding substrate for the `pcc` workspace.
//!
//! The G-PCC-style baseline codecs (and, optionally, the proposed intra
//! codec) entropy-code their occupancy bytes and quantized coefficients.
//! This crate provides everything those stages need:
//!
//! - [`varint`] — LEB128 unsigned varints and ZigZag signed mapping.
//! - [`RangeEncoder`] / [`RangeDecoder`] with an adaptive binary
//!   probability model ([`BitModel`]) and a bit-tree byte model
//!   ([`ByteModel`]) — a compact arithmetic coder in the style the MPEG
//!   TMC13 reference software uses.
//!
//! # Examples
//!
//! ```
//! use pcc_entropy::{ByteModel, RangeDecoder, RangeEncoder};
//!
//! let data: Vec<u8> = b"abab".iter().copied().cycle().take(400).collect();
//! let mut model = ByteModel::new();
//! let mut enc = RangeEncoder::new();
//! for &b in &data {
//!     enc.encode_byte(&mut model, b);
//! }
//! let bytes = enc.finish();
//! assert!(bytes.len() < data.len()); // repetitive input compresses
//!
//! let mut model = ByteModel::new();
//! let mut dec = RangeDecoder::new(&bytes);
//! let decoded: Vec<u8> = (0..data.len()).map(|_| dec.decode_byte(&mut model)).collect();
//! assert_eq!(decoded, data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Wire-derived bytes reach this crate: a bare slice index is a latent
// panic on hostile input, so all indexing must be get()-style or carry
// a local, justified allow.
#![deny(clippy::indexing_slicing)]
// Unit tests may index freely: a panic there is a test failure, not a
// reachable fault on wire data.
#![cfg_attr(test, allow(clippy::indexing_slicing))]

pub mod context;
mod range;
pub mod varint;

pub use context::ContextByteModel;
pub use range::{unwrap_stream, wrap_stream, BitModel, ByteModel, RangeDecoder, RangeEncoder};

use pcc_types::{DecodeError, LimitExceeded};
use std::fmt;

/// Errors produced while decoding an entropy-coded stream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The stream ended before the requested data was decoded.
    UnexpectedEnd,
    /// A varint ran past its maximum encodable length.
    VarintOverflow,
    /// A run-length header was malformed.
    CorruptRun,
    /// The stream declared more output than [`pcc_types::Limits`] allow.
    LimitExceeded(LimitExceeded),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnexpectedEnd => write!(f, "unexpected end of compressed stream"),
            Error::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            Error::CorruptRun => write!(f, "malformed run-length header"),
            Error::LimitExceeded(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<LimitExceeded> for Error {
    fn from(e: LimitExceeded) -> Self {
        Error::LimitExceeded(e)
    }
}

impl From<Error> for DecodeError {
    fn from(e: Error) -> Self {
        match e {
            Error::UnexpectedEnd => DecodeError::Truncated { offset: 0 },
            Error::VarintOverflow => DecodeError::VarintOverflow { offset: 0 },
            Error::CorruptRun => DecodeError::Corrupt { what: "run-length header", offset: 0 },
            Error::LimitExceeded(l) => DecodeError::Limit(l),
        }
    }
}

/// A convenient `Result` alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
