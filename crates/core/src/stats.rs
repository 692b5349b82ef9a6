//! Per-rank runtime statistics.
//!
//! Counters for the internal events the paper's optimizations target —
//! promise-cell heap allocations, deferred-queue traffic, eager
//! notifications, dependency-graph nodes. Tests use them to prove that an
//! optimization *structurally* removed work (e.g. "an eager local `rput`
//! allocates zero cells"), independent of timing noise.
//!
//! These counters are per-rank. The simulated network's counters —
//! including the chaos-mode reliability layer (`retries`, `drops_injected`,
//! `dup_suppressed`, `max_backoff_ns`) — are world-global and live in
//! [`gasnex::NetStats`], reachable via `Upcr::net_stats`.
//!
//! The field set is declared exactly once, in the
//! [`gasnex::declare_stats!`] invocation below — the same macro that
//! declares [`gasnex::NetStats`]. It generates `Stats`, `StatsSnapshot`,
//! `snapshot()`, `store()`, and `since()` together, so adding a counter in
//! one place cannot silently skip any of them. Each field is classed as a
//! `counter` (monotonic; `since` subtracts) or a `gauge` (a level such as a
//! high-water mark; `since` reports the later sample unchanged).

use std::sync::atomic::{AtomicU64, Ordering};

pub use gasnex::FieldClass;

gasnex::declare_stats! {
    /// Mutable per-rank counters. Owned by the rank context but shared
    /// (behind an `Arc`) with the optional background progress thread,
    /// which attributes callback runs and its own poll/wakeup counts to
    /// the rank they belong to — hence atomics. All accesses are
    /// `Relaxed`: the counters are statistics, not synchronization.
    pub(crate) struct Stats(Relaxed);

    /// A point-in-time copy of one rank's runtime counters.
    pub struct StatsSnapshot {
        /// Internal promise cells heap-allocated (futures machinery).
        cell_allocs: counter,
        /// Extra per-operation allocations on the legacy 2021.3.0 RMA path.
        legacy_extra_allocs: counter,
        /// Notifications routed through the deferred progress queue.
        deferred_enqueued: counter,
        /// Notifications delivered eagerly at initiation.
        eager_notifications: counter,
        /// Operations injected into the simulated network (off-node traffic).
        net_injected: counter,
        /// RMA puts initiated.
        rputs: counter,
        /// RMA gets initiated.
        rgets: counter,
        /// Atomic operations initiated.
        amos: counter,
        /// RPCs initiated.
        rpcs: counter,
        /// `when_all`/conjoin calls resolved by the ready-input fast path.
        when_all_fast: counter,
        /// Dependency-graph nodes constructed by `when_all`/conjoin.
        when_all_nodes: counter,
        /// Progress-engine quanta executed.
        progress_calls: counter,
        /// Deferred notifications delivered via a ready-queue token (the
        /// signal-driven engine): each is one wakeup that replaced a poll scan.
        event_wakeups: counter,
        /// Event re-tests the signal-driven engine skipped: per quantum, the
        /// number of still-pending event waiters the poll-scan engine would
        /// have re-tested and re-queued.
        polls_elided: counter,
        /// High-water mark of simultaneously pending notifications (registered
        /// event waiters plus queued rank-local deferred entries).
        pending_highwater: gauge,
        /// Put/amo-with-signal operations initiated.
        signals_sent: counter,
        /// Signal badges that OR-coalesced into an already-Active notification
        /// word on this rank (delivery-side; attributed to the target rank).
        signals_coalesced: counter,
        /// Times a `wait_signal` park on this rank was woken by a badge.
        park_wakeups: counter,
        /// Progress polls performed by `wait_signal` while it *wanted* to park
        /// (refused reservation or virtual clock). A parked rank contributes
        /// zero — the idle-CPU guarantee the bench gate checks.
        polls_while_parked: counter,
        /// Wall-clock nanoseconds this rank spent parked on a condvar (zero
        /// CPU). Measured only under `ClockMode::Wall`; deterministic
        /// virtual-clock runs report zero so their exports stay replayable.
        parked_ns: counter,
        /// Wall-clock nanoseconds this rank spent in wait loops *between*
        /// progress quanta — burning CPU on re-tests rather than useful
        /// progress. Wall-clock only, like `parked_ns`.
        spinning_ns: counter,
        /// Wall-clock nanoseconds spent inside progress quanta (conduit polls,
        /// deferred drains, coalescer flushes). Wall-clock only.
        progress_ns: counter,
        /// Happens-before edges assembled by the causal tracer on this rank
        /// (rank 0 assembles; other ranks report zero).
        hb_edges: counter,
        /// Causality violations detected by causal assembly: a happens-before
        /// edge whose destination carries an earlier wall timestamp than its
        /// source. Pinned to zero under `ClockMode::Virtual`; nonzero flags
        /// cross-process clock skew on the UDP conduit.
        causal_violations: counter,
        /// High-water mark of the assembled causal chain depth (longest
        /// happens-before path, in hops).
        causal_chain_depth: gauge,
        /// Continuation callbacks (`operation_cx::as_callback`) executed on
        /// behalf of this rank — by its own progress quantum or by the
        /// background progress thread. Each registered callback runs exactly
        /// once, so at quiescence this equals the number of ops issued with a
        /// callback completion.
        callbacks_run: counter,
        /// Callbacks enqueued while a callback drain was already running on
        /// this rank's queue (i.e. from inside a user callback): they join the
        /// same FIFO and are delivered by the same drain, never reentrantly.
        callbacks_deferred: counter,
        /// Poll iterations executed by the background progress thread on this
        /// rank's node (attributed to the node's first rank; zero without
        /// `--progress-thread` and always zero under the virtual clock).
        progress_thread_polls: counter,
        /// Times the background progress thread was woken from its parked
        /// cadence by an injection or callback enqueue (vs. timing out).
        progress_thread_wakeups: counter,
    }
}

impl Stats {
    /// Zero every counter and gauge.
    pub fn reset(&self) {
        self.store(&StatsSnapshot::default());
    }
}

#[inline]
pub(crate) fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// Add `v` to a counter (time accounting and other bulk increments).
#[inline]
pub(crate) fn add(c: &AtomicU64, v: u64) {
    c.fetch_add(v, Ordering::Relaxed);
}

/// Raise a gauge to at least `v` (high-water marks).
#[inline]
pub(crate) fn raise(c: &AtomicU64, v: u64) {
    c.fetch_max(v, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let s = Stats::default();
        bump(&s.cell_allocs);
        bump(&s.cell_allocs);
        bump(&s.rputs);
        let snap = s.snapshot();
        assert_eq!(snap.cell_allocs, 2);
        assert_eq!(snap.rputs, 1);
        assert_eq!(snap.rgets, 0);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn since_subtracts() {
        let s = Stats::default();
        bump(&s.amos);
        let a = s.snapshot();
        bump(&s.amos);
        bump(&s.amos);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.amos, 2);
        assert_eq!(d.rputs, 0);
    }

    #[test]
    fn fields_and_values_align() {
        let s = Stats::default();
        bump(&s.rputs);
        s.pending_highwater.store(7, Ordering::Relaxed);
        let snap = s.snapshot();
        let fields = StatsSnapshot::FIELDS;
        let values = snap.values();
        assert_eq!(fields.len(), values.len());
        let idx = |name: &str| fields.iter().position(|(n, _)| *n == name).unwrap();
        assert_eq!(values[idx("rputs")], 1);
        assert_eq!(values[idx("pending_highwater")], 7);
        assert_eq!(fields[idx("rputs")].1, FieldClass::Counter);
        assert_eq!(fields[idx("pending_highwater")].1, FieldClass::Gauge);
    }

    #[test]
    fn since_passes_gauges_through() {
        // `pending_highwater` is a gauge: even when the earlier snapshot's
        // level exceeds the later one, `since` reports the later sample —
        // never a subtraction.
        let s = Stats::default();
        s.pending_highwater.store(10, Ordering::Relaxed);
        let a = s.snapshot();
        s.pending_highwater.store(4, Ordering::Relaxed);
        let b = s.snapshot();
        assert_eq!(b.since(&a).pending_highwater, 4);
        assert_eq!(a.since(&b).pending_highwater, 10);
    }

    #[test]
    fn add_and_raise_helpers() {
        let s = Stats::default();
        add(&s.parked_ns, 40);
        add(&s.parked_ns, 2);
        raise(&s.pending_highwater, 9);
        raise(&s.pending_highwater, 3);
        let snap = s.snapshot();
        assert_eq!(snap.parked_ns, 42);
        assert_eq!(snap.pending_highwater, 9, "raise never lowers a gauge");
    }

    #[test]
    fn continuation_counters_are_registered_and_reset() {
        // The four continuation/progress-thread counters ride the same
        // macro as everything else, so snapshot/reset/FIELDS must all see
        // them (the PR-4/PR-8 reset-coverage pattern).
        let s = Stats::default();
        bump(&s.callbacks_run);
        bump(&s.callbacks_deferred);
        bump(&s.progress_thread_polls);
        bump(&s.progress_thread_wakeups);
        let snap = s.snapshot();
        assert_eq!(snap.callbacks_run, 1);
        assert_eq!(snap.callbacks_deferred, 1);
        assert_eq!(snap.progress_thread_polls, 1);
        assert_eq!(snap.progress_thread_wakeups, 1);
        for name in [
            "callbacks_run",
            "callbacks_deferred",
            "progress_thread_polls",
            "progress_thread_wakeups",
        ] {
            let (_, class) = StatsSnapshot::FIELDS
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("missing field {name}"));
            assert_eq!(*class, FieldClass::Counter);
        }
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }
}
