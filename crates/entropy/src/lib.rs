//! Entropy-coding substrate for the `pcc` workspace.
//!
//! The G-PCC-style baseline codecs (and, optionally, the proposed intra
//! codec) entropy-code their occupancy bytes and quantized coefficients.
//! This crate provides [`RangeEncoder`] / [`RangeDecoder`] with an
//! adaptive binary probability model ([`BitModel`]) and a bit-tree byte
//! model ([`ByteModel`]) — a compact arithmetic coder in the style the
//! MPEG TMC13 reference software uses. Varints live in
//! [`pcc_types::wire`], next to the cursor every parser reads through.
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

pub use context::ContextByteModel;
pub use range::{unwrap_stream, wrap_stream, BitModel, ByteModel, RangeDecoder, RangeEncoder};
