//! The counting global allocator the zero-allocation gates read.
//!
//! A binary or test installs it once and brackets the code under test
//! with [`count`]:
//!
//! ```
//! #[global_allocator]
//! static ALLOC: pcc_bench::alloc::CountingAlloc = pcc_bench::alloc::CountingAlloc;
//! # fn main() {
//! let before = pcc_bench::alloc::count();
//! let v = std::hint::black_box(vec![0u8; 64]);
//! assert!(pcc_bench::alloc::count() > before, "{v:?}");
//! # }
//! ```
//!
//! Without the `#[global_allocator]` line [`count`] reads 0 forever, so
//! every reader also checks that some allocation it knows must happen
//! was counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a process-wide count of `alloc`,
/// `alloc_zeroed` and `realloc` calls (frees are not counted).
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System`, only adding a relaxed
// counter bump — layout contracts are untouched.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls counted so far in this process, on every thread.
/// Stays 0 unless [`CountingAlloc`] is the `#[global_allocator]`.
pub fn count() -> u64 {
    CALLS.load(Ordering::Relaxed)
}
