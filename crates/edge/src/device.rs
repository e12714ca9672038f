//! The device model: specs, kernels, and charge accounting.

use crate::timeline::{ExecUnit, StageRecord, Timeline};
use crate::units::{Joules, Millis};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Power/clock operating mode of the board.
///
/// The paper collects main results in the 15 W mode and validates the
/// smartphone scenario in the 10 W mode, observing a 1.29× latency ratio
/// (Sec. VI-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PowerMode {
    /// 15 W board mode (default evaluation mode).
    W15,
    /// 10 W board mode (smartphone-comparable power envelope).
    W10,
}

impl PowerMode {
    /// Clock multiplier relative to the 15 W mode.
    ///
    /// Chosen so the total-latency ratio between modes is the paper's
    /// measured 1.29×.
    pub fn clock_scale(self) -> f64 {
        match self {
            PowerMode::W15 => 1.0,
            PowerMode::W10 => 1.0 / 1.29,
        }
    }

    /// Rail-power multiplier relative to the 15 W mode.
    pub fn power_scale(self) -> f64 {
        match self {
            PowerMode::W15 => 1.0,
            PowerMode::W10 => 0.72,
        }
    }
}

/// Static description of an edge board.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human-readable board name.
    pub name: String,
    /// Number of GPU cores (CUDA-core equivalents).
    pub gpu_cores: u32,
    /// GPU clock in GHz at the 15 W mode.
    pub gpu_clock_ghz: f64,
    /// Number of CPU cores.
    pub cpu_cores: u32,
    /// CPU clock in GHz at the 15 W mode.
    pub cpu_clock_ghz: f64,
    /// Fixed per-kernel-launch overhead in microseconds.
    pub kernel_launch_us: f64,
    /// Board static/idle power in mW (always drawn).
    pub static_mw: f64,
    /// GPU rail power in mW while a kernel is resident.
    pub gpu_mw: f64,
    /// DRAM rail power in mW while the GPU pipeline streams data.
    pub dram_mw: f64,
    /// Host-CPU rail power in mW while orchestrating GPU work.
    pub gpu_host_cpu_mw: f64,
    /// CPU rail base power in mW when any core is active.
    pub cpu_base_mw: f64,
    /// Additional CPU rail power in mW per active thread.
    pub cpu_per_thread_mw: f64,
}

impl DeviceSpec {
    /// The NVIDIA Jetson AGX Xavier developer kit, with rail powers matched
    /// to the averages the paper reports in Sec. VI-C (TMC13 CPU 1687 mW,
    /// CWIPC 4-thread CPU 3622 mW, proposed-design CPU 1310 mW /
    /// GPU 1065 mW).
    pub fn jetson_agx_xavier() -> Self {
        DeviceSpec {
            name: "NVIDIA Jetson AGX Xavier".to_owned(),
            gpu_cores: 512,
            gpu_clock_ghz: 0.9,
            cpu_cores: 8,
            cpu_clock_ghz: 2.265,
            kernel_launch_us: 15.0,
            static_mw: 1000.0,
            gpu_mw: 1065.0,
            dram_mw: 600.0,
            gpu_host_cpu_mw: 1310.0,
            cpu_base_mw: 1040.0,
            cpu_per_thread_mw: 645.0,
        }
    }

    /// CPU rail power in mW for `threads` busy threads.
    pub fn cpu_mw(&self, threads: u32) -> f64 {
        self.cpu_base_mw + self.cpu_per_thread_mw * threads as f64
    }
}

/// Cost profile of one GPU kernel: amortized cycles per work item on the
/// reference device.
///
/// Profiles for every kernel in the codecs live in [`crate::calib`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Kernel name (appears in timelines and energy breakdowns).
    pub name: &'static str,
    /// Amortized GPU cycles per work item (includes memory stalls).
    pub cycles_per_item: f64,
}

/// Cost profile of one sequential CPU operation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuOp {
    /// Operation name (appears in timelines).
    pub name: &'static str,
    /// Amortized CPU cycles per operation (includes memory stalls).
    pub cycles_per_op: f64,
}

/// A modeled edge device accumulating a [`Timeline`] of charged work.
///
/// Cloning is cheap-ish (the record list is copied); most code shares one
/// device per encode run. All methods take `&self`; the record list is
/// behind a mutex so pipelines can charge from helper functions freely.
#[derive(Debug)]
pub struct Device {
    spec: DeviceSpec,
    mode: PowerMode,
    host_threads: Option<std::num::NonZeroUsize>,
    records: Mutex<Vec<StageRecord>>,
}

impl Device {
    /// Creates a device from a spec and power mode.
    pub fn new(spec: DeviceSpec, mode: PowerMode) -> Self {
        Device { spec, mode, host_threads: None, records: Mutex::new(Vec::new()) }
    }

    /// Sets the host thread count the codecs' data-parallel kernels run
    /// at — the one programmatic thread knob. `None` defers to the
    /// `PCC_THREADS` environment variable, then to the machine's available
    /// parallelism (see [`host_threads`](Self::host_threads)). Results are
    /// byte-identical at every thread count.
    pub fn with_host_threads(mut self, threads: Option<std::num::NonZeroUsize>) -> Self {
        self.host_threads = threads;
        self
    }

    /// The explicitly configured host thread count, if any (before the
    /// environment/hardware fallback chain).
    pub fn configured_host_threads(&self) -> Option<std::num::NonZeroUsize> {
        self.host_threads
    }

    /// The resolved host thread count (explicit → `PCC_THREADS` →
    /// available parallelism).
    pub fn host_threads(&self) -> std::num::NonZeroUsize {
        pcc_parallel::resolve(self.host_threads)
    }

    /// The Jetson AGX Xavier board the paper evaluates on.
    pub fn jetson_agx_xavier(mode: PowerMode) -> Self {
        Device::new(DeviceSpec::jetson_agx_xavier(), mode)
    }

    /// The device's static description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The active power mode.
    pub fn mode(&self) -> PowerMode {
        self.mode
    }

    /// Charges one GPU kernel launch over `items` work items under the
    /// given stage label, returning the modeled duration.
    ///
    /// Modeled time is `launch_overhead + items × cycles / (cores × clock)`;
    /// energy is that time times the GPU-pipeline rail power
    /// (static + GPU + DRAM + host CPU).
    pub fn charge_gpu(&self, stage: &'static str, kernel: &KernelProfile, items: usize) -> Millis {
        let clock_hz = self.spec.gpu_clock_ghz * 1e9 * self.mode.clock_scale();
        let throughput = self.spec.gpu_cores as f64 * clock_hz;
        let compute_s = items as f64 * kernel.cycles_per_item / throughput;
        // Launch overhead is driver/CPU work; DVFS slows it like compute.
        let launch = Millis::from_micros(self.spec.kernel_launch_us / self.mode.clock_scale());
        let time = Millis::from_seconds(compute_s) + launch;
        let power_mw = (self.spec.static_mw
            + self.spec.gpu_mw
            + self.spec.dram_mw
            + self.spec.gpu_host_cpu_mw)
            * self.mode.power_scale();
        let energy = Joules::from_power(power_mw, time);
        self.push(StageRecord {
            stage,
            op: kernel.name,
            unit: ExecUnit::Gpu,
            items,
            modeled: time,
            energy,
        });
        time
    }

    /// Charges `ops` sequential CPU operations across `threads` parallel
    /// threads under the given stage label, returning the modeled duration.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or exceeds the device's core count.
    pub fn charge_cpu(&self, stage: &'static str, op: &CpuOp, ops: usize, threads: u32) -> Millis {
        assert!(
            threads >= 1 && threads <= self.spec.cpu_cores,
            "thread count {threads} outside 1..={}",
            self.spec.cpu_cores
        );
        let clock_hz = self.spec.cpu_clock_ghz * 1e9 * self.mode.clock_scale();
        let compute_s = ops as f64 * op.cycles_per_op / (clock_hz * threads as f64);
        let time = Millis::from_seconds(compute_s);
        let power_mw = (self.spec.static_mw + self.spec.cpu_mw(threads)) * self.mode.power_scale();
        let energy = Joules::from_power(power_mw, time);
        self.push(StageRecord {
            stage,
            op: op.name,
            unit: ExecUnit::Cpu,
            items: ops,
            modeled: time,
            energy,
        });
        time
    }

    /// Snapshot of everything charged so far.
    pub fn timeline(&self) -> Timeline {
        Timeline::new(self.records.lock().clone())
    }

    /// Clears all charged records (e.g. between frames).
    pub fn reset(&self) {
        self.records.lock().clear();
    }

    /// Drains the charged records into a timeline, leaving the device
    /// empty — the per-frame pattern the video codec uses.
    pub fn take_timeline(&self) -> Timeline {
        Timeline::new(std::mem::take(&mut *self.records.lock()))
    }

    fn push(&self, record: StageRecord) {
        self.records.lock().push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib;

    #[test]
    fn gpu_charge_scales_with_items() {
        let d = Device::jetson_agx_xavier(PowerMode::W15);
        let t1 = d.charge_gpu("s", &calib::MORTON_GEN, 100_000);
        let t2 = d.charge_gpu("s", &calib::MORTON_GEN, 1_000_000);
        assert!(t2 > t1);
        // Launch overhead dominates tiny launches.
        let t0 = d.charge_gpu("s", &calib::MORTON_GEN, 1);
        assert!(t0.as_f64() >= Millis::from_micros(d.spec().kernel_launch_us).as_f64());
    }

    #[test]
    fn cpu_threads_divide_time_but_raise_power() {
        let d = Device::jetson_agx_xavier(PowerMode::W15);
        let t1 = d.charge_cpu("s", &calib::OCTREE_INSERT, 1_000_000, 1);
        let t4 = d.charge_cpu("s", &calib::OCTREE_INSERT, 1_000_000, 4);
        assert!((t1.as_f64() / t4.as_f64() - 4.0).abs() < 1e-9);
        let tl = d.timeline();
        let recs = tl.records();
        // 4 threads: less energy per op only if the power ratio < 4.
        assert!(recs[1].energy.as_f64() < recs[0].energy.as_f64());
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn too_many_threads_panics() {
        let d = Device::jetson_agx_xavier(PowerMode::W15);
        d.charge_cpu("s", &calib::OCTREE_INSERT, 1, 9);
    }

    #[test]
    fn w10_mode_is_1_29x_slower() {
        let d15 = Device::jetson_agx_xavier(PowerMode::W15);
        let d10 = Device::jetson_agx_xavier(PowerMode::W10);
        let t15 = d15.charge_gpu("s", &calib::MORTON_GEN, 1_000_000);
        let t10 = d10.charge_gpu("s", &calib::MORTON_GEN, 1_000_000);
        // Both compute and launch overhead scale with the DVFS clock, so
        // the end-to-end ratio is exactly 1.29 (paper Sec. VI-C).
        let ratio = t10.as_f64() / t15.as_f64();
        assert!((ratio - 1.29).abs() < 1e-6, "ratio {ratio}");
    }

    #[test]
    fn rail_powers_match_paper() {
        let spec = DeviceSpec::jetson_agx_xavier();
        assert!((spec.cpu_mw(1) - 1685.0).abs() < 5.0); // TMC13: 1687 mW
        assert!((spec.cpu_mw(4) - 3620.0).abs() < 5.0); // CWIPC: 3622 mW
        assert_eq!(spec.gpu_host_cpu_mw, 1310.0);
        assert_eq!(spec.gpu_mw, 1065.0);
    }

    #[test]
    fn reset_and_take() {
        let d = Device::jetson_agx_xavier(PowerMode::W15);
        d.charge_gpu("s", &calib::MORTON_GEN, 10);
        assert_eq!(d.timeline().records().len(), 1);
        let t = d.take_timeline();
        assert_eq!(t.records().len(), 1);
        assert!(d.timeline().records().is_empty());
        d.charge_gpu("s", &calib::MORTON_GEN, 10);
        d.reset();
        assert!(d.timeline().records().is_empty());
    }
}
