//! Edge-device execution model for the `pcc` workspace.
//!
//! The paper evaluates on an NVIDIA Jetson AGX Xavier (512-core Volta GPU +
//! 8-core ARM CPU) and reports latency, energy, and power-rail numbers from
//! that board. This workspace runs on ordinary hosts without CUDA, so this
//! crate substitutes the board with an **analytic device model**:
//!
//! - Every data-parallel stage of the codecs *executes its real algorithm
//!   on the host*, then charges the model for the launch
//!   ([`Device::charge_gpu`]) with its true item count. Modeled time is a
//!   work/span formula — `items × cycles_per_item / (cores × clock)` plus a
//!   fixed launch overhead.
//! - Sequential baseline stages charge per-operation CPU costs
//!   ([`Device::charge_cpu`]).
//! - Energy is `time × rail power` using the rail structure the paper
//!   reports (CPU rail per thread count, a GPU rail, DRAM, and static
//!   power).
//!
//! Per-kernel cycle costs live in [`calib`] and are calibrated against the
//! stage latencies the paper itself reports (Figs. 2, 8a, 9), so modeled
//! numbers are *paper-comparable*; host wall-clock is measured by
//! `pcc-probe` spans.
//!
//! # Examples
//!
//! ```
//! use pcc_edge::{calib, Device, PowerMode};
//!
//! let device = Device::jetson_agx_xavier(PowerMode::W15);
//! device.charge_gpu("geometry/morton", &calib::MORTON_GEN, 800_000);
//! let t = device.timeline();
//! assert!(t.total_modeled_ms().as_f64() > 0.0);
//! assert!(t.total_energy_j().as_f64() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
mod device;
mod timeline;
pub mod trace;
mod units;

pub use device::{CpuOp, Device, DeviceSpec, KernelProfile, PowerMode};
pub use timeline::{ExecUnit, StageRecord, Timeline};
pub use units::{Joules, Millis};
