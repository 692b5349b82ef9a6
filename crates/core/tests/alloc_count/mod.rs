//! A counting global allocator for the allocation pins: it wraps `System`
//! and sums the size of every block it hands out. Each pin binary holds
//! one test, so that no other test's allocations land in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting only touches two atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARMUP: u64 = 1_000;
const OPS: u64 = 10_000;

/// Allocations and allocated bytes per call of `op` after warm-up, each
/// rounded to the nearest whole number.
pub fn allocs_per_op(mut op: impl FnMut()) -> (u64, u64) {
    for _ in 0..WARMUP {
        op();
    }
    let before = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    for _ in 0..OPS {
        op();
    }
    let n = ALLOCS.load(Ordering::SeqCst) - before.0;
    let bytes = BYTES.load(Ordering::SeqCst) - before.1;
    ((n + OPS / 2) / OPS, (bytes + OPS / 2) / OPS)
}
