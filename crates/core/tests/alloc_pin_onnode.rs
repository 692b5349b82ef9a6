//! Heap allocations and heap bytes per blocking on-node operation in the
//! 2021.3.6-defer build, pinned.
//!
//! On `smp(2)`, rank 0 issues blocking `rput(..).wait()`,
//! `rget(..).wait()` and `bit_xor(..).wait()` calls into rank 1's memory,
//! and a `conjoin` of two such puts plus its wait, while rank 1 sits in a
//! barrier; `alloc_count` rounds the steady-state allocations and bytes
//! per op. Each op completes synchronously and its deferred notification
//! is a typed deferred-queue entry on the future's cell, which already
//! holds the value, so the cell is the op's only allocation. A `conjoin`
//! node is readied by dependency edges from its inputs, so the node is
//! its only allocation: the conjoined pair costs two op cells and one
//! node. The byte pin catches a cell that grows without allocating more
//! often. This binary holds one test so that no other test's allocations
//! land in the count.

mod alloc_count;

use alloc_count::allocs_per_op;
use upcr::{conjoin, launch, LibVersion, RuntimeConfig};

#[test]
fn blocking_onnode_ops_allocate_only_their_cells_in_the_defer_build() {
    let cfg = RuntimeConfig::smp(2)
        .with_version(LibVersion::V2021_3_6Defer)
        .with_segment_size(1 << 16);
    launch(cfg, |u| {
        let word = u.broadcast(u.new_::<u64>(0), 1);
        let ad = u.atomic_domain::<u64>();
        u.barrier();
        if u.rank_me() == 0 {
            let put = allocs_per_op(|| u.rput(7, word).wait());
            let get = allocs_per_op(|| assert_eq!(u.rget(word).wait(), 7));
            let xor = allocs_per_op(|| ad.bit_xor(word, 1).wait());
            let pair = allocs_per_op(|| conjoin(u.rput(7, word), u.rput(7, word)).wait());
            assert_eq!(
                (put.0, get.0, xor.0, pair.0),
                (1, 1, 1, 3),
                "heap allocations per blocking on-node (rput, rget, bit_xor, conjoin of two rputs)"
            );
            assert_eq!(
                (put.1, get.1, xor.1, pair.1),
                (64, 72, 64, 192),
                "heap bytes per blocking on-node (rput, rget, bit_xor, conjoin of two rputs)"
            );
        }
        u.barrier();
    });
}
