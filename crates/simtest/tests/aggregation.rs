//! Aggregation-enabled differential tests.
//!
//! Per-target coalescing changes *how many wire messages* carry the same
//! logical operations — it must never change what the program computes.
//! Three invariants pin that down:
//!
//! 1. Degenerate batching (`flush_ops = 1`) is *observationally identical*
//!    to no batching at all: every push flushes a one-op batch, so the
//!    injected message sequence — and therefore the entire [`Outcome`],
//!    chaos counters included — matches the unaggregated run bit for bit.
//! 2. With real batching on, the eager/defer differential invariant still
//!    holds under every fault plan: batch boundaries derive from program
//!    order (size flushes) plus phase structure (the remainder flush at
//!    the first progress call), not from notification timing.
//! 3. Real batching actually batches: GUPS-small injects strictly fewer
//!    wire messages with an identical memory digest, and replays
//!    identically.

use simtest::{fault_plans, harness_agg, observe, run, Outcome, Setup, Workload, SEEDS};
use upcr::{launch, GlobalPtr, LibVersion, RuntimeConfig};

fn assert_equivalent(w: Workload, seed: u64, label: &str, a: Outcome, b: Outcome) {
    // Routed through the harness helper so a digest mismatch auto-dumps
    // every rank's quiesced introspection snapshot before panicking.
    simtest::assert_outcomes_match(
        &format!(
            "{} seed={seed} {label}: aggregation must preserve observational equivalence",
            w.name()
        ),
        a,
        b,
    );
}

/// The harness setup with per-target batching at `flush_ops`.
fn batching(flush_ops: usize) -> Setup {
    Setup {
        agg: Some(harness_agg(flush_ops)),
        ..Setup::default()
    }
}

/// Satellite: flush-size-1 aggregation is a semantic no-op. Every candidate
/// op becomes its own one-op batch injected at its original program point,
/// so even the reliability counters (pure functions of the message-id
/// sequence) are unchanged — across all eight seeds, both notification
/// modes, fault-free and under the combined adversary.
#[test]
fn flush_size_one_is_observationally_identical_to_no_aggregation() {
    for &seed in &SEEDS {
        for version in [LibVersion::V2021_3_6Defer, LibVersion::V2021_3_6Eager] {
            let combined = fault_plans(seed).pop().expect("combined plan").1;
            for (label, plan) in [("plan=none", None), ("plan=combined", Some(combined))] {
                for w in [Workload::AtomicStorm, Workload::GupsSmall] {
                    let base = run(w, version, seed, plan);
                    let o = observe(w, version, seed, plan, batching(1));
                    let (agg, stats) = (o.outcome, o.net);
                    assert_equivalent(w, seed, label, base, agg);
                    assert!(
                        stats.batches_injected > 0,
                        "{label}: candidate ops must still route through the coalescer"
                    );
                    assert_eq!(
                        stats.batches_injected, stats.ops_coalesced,
                        "{label}: flush_ops = 1 makes every batch a single op"
                    );
                }
            }
        }
    }
}

/// Acceptance: the eager/defer differential suite stays bit-identical
/// under every fault plan with real aggregation enabled. Faults act on
/// whole batches — a dropped batch retransmits all its constituents, a
/// duplicated batch dedups as one message — and none of that may depend
/// on the notification mode.
#[test]
fn eager_defer_equivalent_with_aggregation_under_every_plan() {
    for &seed in &SEEDS[..3] {
        for (name, plan) in fault_plans(seed) {
            for w in [
                Workload::PutGetStorm,
                Workload::AtomicStorm,
                Workload::GupsSmall,
            ] {
                let agg = batching(4);
                let defer = observe(w, LibVersion::V2021_3_6Defer, seed, Some(plan), agg).outcome;
                let eager = observe(w, LibVersion::V2021_3_6Eager, seed, Some(plan), agg).outcome;
                assert_equivalent(w, seed, name, defer, eager);
            }
        }
    }
}

/// Acceptance: on deterministic GUPS-small, aggregation coalesces for real
/// (`batches_injected < ops_coalesced`, strictly fewer wire messages) while
/// producing the identical outcome digest — and the aggregated run replays
/// bit-identically, batching counters included.
#[test]
fn gups_small_aggregation_reduces_messages_with_identical_digest() {
    let seed = 7;
    let base = run(Workload::GupsSmall, LibVersion::V2021_3_6Eager, seed, None);
    let agg_run = || {
        let o = observe(
            Workload::GupsSmall,
            LibVersion::V2021_3_6Eager,
            seed,
            None,
            batching(8),
        );
        (o.outcome, o.net)
    };
    let (agg, stats) = agg_run();
    assert_eq!(agg.digest, base.digest, "aggregation must not change state");
    assert_eq!(agg.completions, base.completions);
    assert!(stats.batches_injected > 0, "GUPS must exercise batching");
    assert!(
        stats.batches_injected < stats.ops_coalesced,
        "batches must carry more than one op on average: {} batches for {} ops",
        stats.batches_injected,
        stats.ops_coalesced
    );
    assert!(
        agg.injected < base.injected,
        "coalescing must reduce wire messages: {} aggregated vs {} direct",
        agg.injected,
        base.injected
    );
    let (agg2, stats2) = agg_run();
    assert_eq!(agg, agg2, "aggregated chaos-free run must replay");
    assert_eq!(
        (stats.batches_injected, stats.ops_coalesced, stats.injected),
        (
            stats2.batches_injected,
            stats2.ops_coalesced,
            stats2.injected
        ),
        "batching counters must replay"
    );
}

/// The explicit-flush surfaces: [`upcr::Upcr::agg_flush`] drains buffers on
/// demand, and entering a barrier flushes implicitly — buffered ops never
/// linger across a synchronization point. No progress call runs between
/// the pushes and their flush, and the size threshold is unreachable, so
/// any delivery here is attributable to an explicit flush.
#[test]
fn explicit_flush_api_and_barrier_drain_buffers() {
    let agg = gasnex::AggConfig::enabled(1024).with_max_inflight(64);
    let rt = RuntimeConfig::udp(2, 1)
        .with_segment_size(1 << 16)
        .with_net(simtest::net_for(None))
        .with_agg(agg);
    launch(rt, |u| {
        const WORDS: usize = 4;
        let n = u.rank_n();
        let me = u.rank_me();
        let target = (me + 1) % n;
        let base = u.new_array::<u64>(WORDS);
        let bases: Vec<GlobalPtr<u64>> = u
            .gather_all(base.encode())
            .into_iter()
            .map(GlobalPtr::decode)
            .collect();
        u.barrier();

        // Phase 1: buffer three cross-node puts, then flush by hand.
        let puts: Vec<_> = (0..3)
            .map(|j| u.rput((me as u64 + 1) * 100 + j as u64, bases[target].add(j)))
            .collect();
        assert_eq!(u.agg_flush(), 1, "three buffered puts form one batch");
        assert_eq!(u.agg_flush(), 0, "second flush finds nothing buffered");
        for f in &puts {
            f.wait();
        }

        // Phase 2: buffer one more put and let the barrier flush it.
        let f = u.rput(u64::MAX, bases[target].add(WORDS - 1));
        u.barrier();
        f.wait();

        u.barrier();
        while u.net_stats().pending > 0 {
            u.progress();
        }
        u.barrier();
        let s = u.net_stats();
        // Two ranks, each one hand flush + at least one barrier flush (a
        // barrier is also re-entered above, but empty buffers don't count).
        assert_eq!(s.flushes_explicit, 4, "explicit flushes: {s:?}");
        assert_eq!(s.flushes_size, 0);
        assert_eq!(s.flushes_age, 0, "no quantum ran with a buffered op");
        assert_eq!(s.ops_coalesced, 8, "3 + 1 buffered ops per rank");
        assert_eq!(s.batches_injected, 4);
        let slice = u.local_slice_u64(base, WORDS);
        let sent = (target as u64 + 1) * 100;
        for (j, w) in slice.iter().enumerate().take(3) {
            assert_eq!(
                w.load(std::sync::atomic::Ordering::Relaxed),
                sent + j as u64
            );
        }
        assert_eq!(
            slice[WORDS - 1].load(std::sync::atomic::Ordering::Relaxed),
            u64::MAX
        );
    });
}

/// The quantum flush rule: an op buffered below the size threshold leaves
/// its bucket at its owner's next progress call, as one `Age` batch. With
/// aggregation off nothing is buffered and the snapshot has no buckets.
#[test]
fn owners_next_progress_call_flushes_a_buffered_op() {
    for agg in [
        Some(gasnex::AggConfig::enabled(1024).with_max_inflight(64)),
        None,
    ] {
        let mut rt = RuntimeConfig::udp(2, 1)
            .with_segment_size(1 << 16)
            .with_net(simtest::net_for(None));
        if let Some(a) = agg {
            rt = rt.with_agg(a);
        }
        launch(rt, move |u| {
            let mine = u.new_::<u64>(0);
            let dst = u.broadcast(mine, 1);
            u.barrier();
            if u.rank_me() == 0 {
                // Rank 1 never pushes, so the world-global counters below
                // count rank 0's coalescer alone.
                let f = u.rput(7u64, dst);
                let buffered: usize = u.snapshot().agg_buckets.iter().map(|b| b.occupancy).sum();
                assert_eq!(buffered, usize::from(agg.is_some()));
                assert_eq!(u.net_stats().batches_injected, 0);
                u.progress();
                let s = u.net_stats();
                let snap = u.snapshot();
                if agg.is_some() {
                    assert_eq!(s.flushes_age, 1, "{s:?}");
                    assert_eq!(s.batches_injected, 1, "{s:?}");
                    assert!(
                        snap.agg_buckets.iter().all(|b| b.occupancy == 0),
                        "{:?}",
                        snap.agg_buckets
                    );
                } else {
                    assert_eq!((s.flushes_age, s.batches_injected), (0, 0));
                    assert!(snap.agg_buckets.is_empty());
                }
                f.wait();
            }
            u.barrier();
            if u.rank_me() == 1 {
                let v = u.local_slice_u64(mine, 1)[0].load(std::sync::atomic::Ordering::Relaxed);
                assert_eq!(v, 7);
            }
        });
    }
}
