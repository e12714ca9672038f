//! Quality and efficiency metrics for point-cloud codecs.
//!
//! Reimplements the measurements the paper's evaluation relies on:
//!
//! - **geometry PSNR** (point-to-point / D1, like the MPEG `pc_error`
//!   tool): symmetric nearest-neighbor MSE between reference and decoded
//!   clouds over a grid-hash index, against the voxel-grid peak;
//! - **attribute PSNR**: per-channel color MSE between NN-matched points,
//!   peak 255 — the number plotted on Fig. 8c's secondary axis;
//! - **compressed-size accounting** ([`CompressedSize`]) with the
//!   compression-ratio and %-of-raw views used across Figs. 8c and 10b.
//!
//! # Examples
//!
//! ```
//! use pcc_metrics::attribute_psnr;
//! use pcc_types::{Point3, PointCloud, Rgb};
//!
//! let reference: PointCloud =
//!     [(Point3::ORIGIN, Rgb::new(100, 100, 100))].into_iter().collect();
//! let decoded: PointCloud =
//!     [(Point3::ORIGIN, Rgb::new(102, 100, 100))].into_iter().collect();
//! let psnr = attribute_psnr(&reference, &decoded).expect("non-empty clouds");
//! assert!(psnr > 40.0); // tiny error, high PSNR
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod nn;
mod psnr;
mod size;

pub use nn::GridIndex;
pub use psnr::{attribute_psnr, geometry_psnr, symmetric_color_mse, symmetric_point_mse};
pub use size::CompressedSize;
