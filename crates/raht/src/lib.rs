//! Region-Adaptive Hierarchical Transform (RAHT) for attribute compression.
//!
//! RAHT (de Queiroz & Chou, 2016) is the attribute transform of the
//! G-PCC/TMC13 baseline the paper compares against. Starting from the
//! octree's leaf voxels, sibling pairs are merged one dimension at a time
//! (x, then y, then z, per level); every merge applies the weighted
//! orthonormal butterfly of the paper's Equ. 1:
//!
//! ```text
//! [LC]   1          [ √w₁  √w₂] [a₁]
//! [HC] = ─────────  [-√w₂  √w₁] [a₂]
//!        √(w₁+w₂)
//! ```
//!
//! The high-pass coefficient is quantized and emitted; the low-pass
//! coefficient carries the merged weight up the tree, and the final root
//! DC is emitted last. The merge schedule is a pure function of the
//! geometry (the sorted leaf codes), which is why G-PCC must decode
//! geometry before attributes — and why the whole transform is
//! **sequential across levels**, the bottleneck the paper measures at
//! ≈2 s per million-point frame.
//!
//! # Examples
//!
//! ```
//! use pcc_morton::MortonCode;
//! use pcc_raht::{forward, inverse};
//!
//! let codes = vec![
//!     MortonCode::from_raw(0),
//!     MortonCode::from_raw(1),
//!     MortonCode::from_raw(63),
//! ];
//! let attrs = vec![[50.0; 3], [52.0; 3], [54.0; 3]];
//! let weights = vec![1.0, 1.0, 1.0];
//! let enc = forward(&codes, &attrs, &weights, 2, 1.0);
//! let dec = inverse(&codes, &weights, &enc, 2).unwrap();
//! for (a, d) in attrs.iter().zip(&dec) {
//!     assert!((a[0] - d[0]).abs() < 1.0); // within one quant step
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lifting;
mod predicting;
mod transform;

pub use lifting::{lifting_forward, lifting_inverse, LiftingEncoded};
pub use predicting::{predicting_forward, predicting_inverse, PredictingEncoded};
pub use transform::{forward, inverse, transform_count, RahtEncoded, CHANNELS};
