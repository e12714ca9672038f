//! The process CPU clock the benchmark gates time on.

use std::time::Duration;

/// CPU time the whole process has run so far, summed over all its
/// threads (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// Unlike wall-clock time it leaves out time the process sat
/// descheduled and time the hypervisor gave to other guests (steal), which
/// on a shared VM moves wall-clock minimums by tens of percent between
/// runs of the same code. It also hides parallel speedup: work spread over
/// N threads reads as the same CPU time, so parallel legs are timed on
/// the wall clock instead.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
pub fn process_cpu() -> Duration {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut t = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `t` is a valid, writable `struct timespec` (two C longs on
    // Linux) for the duration of the call, and the clock id is a constant
    // Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    Duration::new(t.tv_sec as u64, t.tv_nsec as u32)
}

/// Elsewhere, the wall clock since the first call stands in: the gate's
/// numbers are then as noisy as the wall clock makes them.
#[cfg(not(target_os = "linux"))]
pub fn process_cpu() -> Duration {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(std::time::Instant::now).elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_advances_with_work() {
        let start = process_cpu();
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu() > start, "spinning must burn CPU time ({acc})");
    }
}
