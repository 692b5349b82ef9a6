//! Heap allocations and heap bytes per blocking off-node operation,
//! pinned.
//!
//! A counting global allocator (`alloc_count`) sums the size of every
//! block handed out. On two nodes of one rank each, rank 0 issues
//! blocking `rput(..).wait()` and `rget(..).wait()` calls into rank 1's
//! memory while rank 1 sits in a barrier, and the steady-state
//! allocations and bytes are rounded per op. Each op allocates its
//! future's cell, the write-once value slot its waiter shares with the
//! delivering thread, its boxed delivery action and its event-waiter
//! closure. The token that wakes the waiter travels by index, and the
//! simulated conduit collects the deliveries a poll pops into a reused
//! per-thread buffer, so neither allocates. The byte pin catches a slot
//! or closure that grows without allocating more often. This binary
//! holds one test so that no other test's allocations land in the count.

mod alloc_count;

use alloc_count::allocs_per_op;
use upcr::{launch, RuntimeConfig};

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
                (208, 192),
                "heap bytes per blocking off-node (rput, rget)"
            );
        }
        u.barrier();
    });
}
