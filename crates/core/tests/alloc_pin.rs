//! Heap allocations and heap bytes per blocking off-node operation,
//! pinned.
//!
//! A counting global allocator wraps `System` and sums the size of every
//! block it hands out. On two nodes of one rank each, rank 0 issues
//! blocking `rput(..).wait()` and `rget(..).wait()` calls into rank 1's
//! memory while rank 1 sits in a barrier, and the steady-state
//! allocations and bytes are rounded per op. Each op allocates its
//! future's cell, its completion record (`RemoteDone`), its boxed delivery
//! action and its event-waiter closure. The token that wakes the waiter
//! travels by index, and the simulated conduit collects the deliveries a
//! poll pops into a reused per-thread buffer, so neither allocates. The
//! byte pin catches a record or closure that grows without allocating
//! more often. This binary holds one test so that no other test's
//! allocations land in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use upcr::{launch, RuntimeConfig};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

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
fn allocs_per_op(mut op: impl FnMut()) -> (u64, u64) {
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

#[test]
fn blocking_offnode_put_and_get_allocate_four_times_per_op() {
    launch(RuntimeConfig::udp(2, 1).with_segment_size(1 << 16), |u| {
        let word = u.broadcast(u.new_::<u64>(0), 1);
        u.barrier();
        if u.rank_me() == 0 {
            let (put, put_bytes) = allocs_per_op(|| u.rput(7, word).wait());
            let (get, get_bytes) = allocs_per_op(|| assert_eq!(u.rget(word).wait(), 7));
            assert_eq!(
                (put, get),
                (4, 4),
                "heap allocations per blocking off-node (rput, rget)"
            );
            assert_eq!(
                (put_bytes, get_bytes),
                (216, 200),
                "heap bytes per blocking off-node (rput, rget)"
            );
        }
        u.barrier();
    });
}
