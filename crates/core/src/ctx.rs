//! Per-rank runtime context, thread-local access, and the progress engine.
//!
//! Every SPMD rank thread owns a [`RankCtx`]: its gasnex identity, the
//! configured library version, the deferred-notification queue (the paper's
//! "internal queue to be readied later by the progress engine"), the
//! event-waiter slab, the shared ready unit cell, and statistics.
//!
//! The context is installed in thread-local storage for the duration of the
//! SPMD region so that futures (`wait`), free functions, and callbacks can
//! reach the progress engine without threading a handle everywhere.

use std::cell::{Cell as StdCell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use gasnex::net::NetAction;
use gasnex::{Batch, ClockMode, Coalescer, ConduitKind, FlushReason, Push, Rank, World};

use crate::continuation::{Callback, CallbackQueue, WorldShared};
use crate::future::cell::{shared_ready_unit_cell, Cell, Discharge};
use crate::metrics::{MetricSeries, MetricsConfig};
use crate::slab::Slab;
use crate::stats::{add, bump, raise, Stats};
use crate::trace::{CompletionPath, OpKind, RankTracer, TraceOp};
use crate::version::LibVersion;

/// The notification of one in-flight operation, filed in
/// [`RankCtx::event_waiters`] until its completion token surfaces.
pub(crate) struct Waiter {
    run: Box<dyn FnOnce()>,
    /// The token's trace id, from the rank's monotonic `next_token`.
    trace: u64,
    /// A later request on the same operation, woken by the same token.
    next: Option<usize>,
}

/// A rank-local notification waiting for delivery by the progress engine.
///
/// In-flight operations are *not* represented here: the signal-driven
/// engine files them as event waiters whose completion tokens arrive on
/// the rank's ready queue (see [`RankCtx::await_token`]), so the deferred
/// queue never holds anything that would need re-polling against an event.
pub(crate) enum Deferred {
    /// The operation already completed synchronously, but the requested
    /// semantics defer its notification to the next progress call (legacy
    /// behaviour, and the explicit `as_defer_*` factories). The future's or
    /// promise's cell already holds the op's value; delivery discharges the
    /// dependency the op holds on it, then closes the op's trace span
    /// ([`TraceOp::NONE`] for a source completion, which has none).
    Dep(Rc<dyn Discharge>, TraceOp),
    /// Run a closure at the next progress call: the deferred local
    /// procedure call of a synchronously completed op (`as_lpc`).
    Now(Box<dyn FnOnce()>),
    /// Deliver once an arbitrary condition holds (asynchronous collectives:
    /// the progress engine polls the predicate).
    OnCheck(Box<dyn Fn() -> bool>, Box<dyn FnOnce()>),
}

pub(crate) struct RankCtx {
    pub world: Arc<World>,
    pub me: Rank,
    pub version: LibVersion,
    /// `is_local` is compile-time-true: SMP conduit under a version with the
    /// constexpr optimization.
    pub assume_all_local: bool,
    pub deferred: RefCell<VecDeque<Deferred>>,
    /// Notifications of in-flight operations, filed under the slot their
    /// completion token carries through this rank's ready queue. A waiter
    /// is filed *before* its operation is injected, so a token surfacing
    /// from the ready queue always finds it.
    pub event_waiters: RefCell<Slab<Waiter>>,
    pub next_token: StdCell<u64>,
    /// Reusable drain buffer for ready-queue tokens (one allocation per
    /// rank, not per quantum).
    ready_buf: RefCell<Vec<u64>>,
    /// The pre-allocated ready cell shared by every ready `Future<()>`
    /// (when the version has the elision).
    pub ready_unit: Rc<Cell<()>>,
    /// This rank's statistics bank — shared with the background progress
    /// thread (which attributes callback runs it performs to the owning
    /// rank), hence the `Arc`. `stats` and `callbacks` are clones of this
    /// rank's [`WorldShared`] slot.
    pub stats: Arc<Stats>,
    /// Completed continuation callbacks awaiting execution on behalf of
    /// this rank.
    pub callbacks: Arc<CallbackQueue>,
    /// Whether the conduit clock is wall time. `wait_signal`'s idle-time
    /// accounting (`parked_ns`/`spinning_ns`/`progress_ns`) reads `Instant`
    /// only when this is set; virtual-clock runs keep the counters at zero
    /// so their exports stay byte-replayable. The progress quantum itself
    /// never reads a clock.
    pub wall_clock: bool,
    /// Stall-watchdog timeout for parked waits
    /// ([`crate::RuntimeConfig::watchdog_ms`]).
    pub watchdog_ms: u64,
    /// Re-entrancy guard: progress calls from inside progress are no-ops.
    in_progress: StdCell<bool>,
    /// Set while this thread is executing a user continuation callback
    /// (inside the quantum's drain). `wait_signal` checks it: a callback
    /// that cannot park must not fall back to polling — progress is not
    /// reentrant, so the poll could never deliver the badge.
    pub(crate) in_callback: StdCell<bool>,
    /// Lifecycle-trace gate: the single predictably-taken branch every
    /// instrumentation site checks. Off by default.
    pub trace_on: StdCell<bool>,
    /// The per-rank span recorder (only touched when `trace_on` is set).
    pub tracer: RefCell<RankTracer>,
    /// Metric-sampling gate: like `trace_on`, one predictably-taken branch
    /// per progress quantum when off.
    pub metrics_on: StdCell<bool>,
    /// The per-rank metric sampler (only touched when `metrics_on` is set).
    pub metrics: RefCell<MetricSeries>,
    /// Sender-side aggregation buffers (`None` when the knob is off, so
    /// the disabled path is one branch). The tag threaded through each
    /// buffered op is its trace span, so a batch flush can stamp every
    /// constituent's `NetInject` with the batch's wire message id. Only
    /// this rank pushes and flushes, hence no lock.
    pub agg: Option<RefCell<Coalescer<TraceOp>>>,
}

impl RankCtx {
    pub fn new(world: Arc<World>, me: Rank, version: LibVersion, watchdog_ms: u64) -> Rc<RankCtx> {
        let shared = WorldShared::new(&world);
        Self::with_shared(world, me, version, watchdog_ms, &shared)
    }

    /// Build a rank context over pre-built shared slots (`launch` creates
    /// one [`WorldShared`] and hands it to every rank and to the progress
    /// threads; [`RankCtx::new`] is the single-rank convenience that builds
    /// a private one).
    pub fn with_shared(
        world: Arc<World>,
        me: Rank,
        version: LibVersion,
        watchdog_ms: u64,
        shared: &WorldShared,
    ) -> Rc<RankCtx> {
        let assume_all_local =
            world.config().conduit == ConduitKind::Smp && version.has_constexpr_is_local();
        let agg_cfg = world.config().agg;
        let wall_clock = world.config().net.clock == ClockMode::Wall;
        let clocks = Arc::clone(world.clocks());
        let slot = &shared.slots[me.idx()];
        let agg = agg_cfg
            .enabled
            .then(|| RefCell::new(Coalescer::new(agg_cfg, world.ranks(), me)));
        Rc::new(RankCtx {
            world,
            me,
            version,
            assume_all_local,
            deferred: RefCell::new(VecDeque::new()),
            event_waiters: RefCell::new(Slab::new()),
            next_token: StdCell::new(0),
            ready_buf: RefCell::new(Vec::new()),
            ready_unit: shared_ready_unit_cell(),
            wall_clock,
            watchdog_ms,
            stats: Arc::clone(&slot.stats),
            callbacks: Arc::clone(&slot.callbacks),
            in_progress: StdCell::new(false),
            in_callback: StdCell::new(false),
            trace_on: StdCell::new(false),
            tracer: RefCell::new(RankTracer::new(me.0, clocks)),
            metrics_on: StdCell::new(false),
            metrics: RefCell::new(MetricSeries::new(MetricsConfig::default())),
            agg,
        })
    }

    /// Send `action` to `target`, through the aggregation layer when it is
    /// enabled (and the target's buffer is open), directly otherwise. The
    /// op's trace span gets its `NetInject` stamped with whichever wire
    /// message ends up carrying it — its own, or the flushed batch's.
    pub fn inject_routed(&self, target: Rank, top: TraceOp, action: NetAction) {
        let Some(agg) = &self.agg else {
            // Keep the routing hint: socket transports pick the node
            // sockets from it, and the conduit's Lamport stamp lands on the
            // initiating rank's clock slot instead of the shared unrouted
            // slot.
            let msg = self.world.net_inject_routed(self.me, target, action);
            self.trace_net_inject(top, msg);
            return;
        };
        let pushed = agg
            .borrow_mut()
            .push(target.0 as usize, action, top, self.world.net());
        match pushed {
            Push::Buffered => {}
            Push::Bypassed { msg } => self.trace_net_inject(top, msg),
            Push::Flushed(b) => self.trace_batch(&b),
        }
    }

    /// Stamp a flushed batch: every constituent op's `NetInject` carries
    /// the batch's wire message id, followed by one `BatchFlush` marker.
    fn trace_batch(&self, b: &Batch<TraceOp>) {
        if !self.trace_on.get() {
            return;
        }
        let ts = self.trace_now_ns();
        let mut tracer = self.tracer.borrow_mut();
        for &tag in &b.tags {
            tracer.net_inject(tag, b.msg, ts);
        }
        tracer.batch_flush(b.msg, b.ops, b.reason, ts);
    }

    fn trace_batches(&self, batches: &[Batch<TraceOp>]) -> usize {
        for b in batches {
            self.trace_batch(b);
        }
        batches.len()
    }

    /// Explicitly drain every aggregation buffer (barriers, quiescence,
    /// user-requested flush). Returns the number of batches injected.
    pub fn agg_flush_explicit(&self) -> usize {
        self.agg_flush(FlushReason::Explicit)
    }

    /// Drain every aggregation bucket for `reason` and trace the batches.
    fn agg_flush(&self, reason: FlushReason) -> usize {
        let Some(agg) = &self.agg else { return 0 };
        let batches = agg.borrow_mut().flush_all(self.world.net(), reason);
        self.trace_batches(&batches)
    }

    /// The trace clock: the simulated network's wall/virtual time, so core
    /// spans and wire-level events share one timeline.
    #[inline]
    pub fn trace_now_ns(&self) -> u64 {
        self.world.net().now_ns()
    }

    /// Stamp a new traced operation (no-op returning [`TraceOp::NONE`]
    /// when tracing is off). `expect_notify` is false for fire-and-forget
    /// operations that never deliver a completion notification.
    #[inline]
    pub fn trace_op_init(&self, kind: OpKind, expect_notify: bool) -> TraceOp {
        if !self.trace_on.get() {
            return TraceOp::NONE;
        }
        let ts = self.trace_now_ns();
        self.tracer.borrow_mut().op_init(kind, ts, expect_notify)
    }

    /// Record that traced op `op` went onto the wire as message `msg`.
    #[inline]
    pub fn trace_net_inject(&self, op: TraceOp, msg: u64) {
        if self.trace_on.get() {
            let ts = self.trace_now_ns();
            self.tracer.borrow_mut().net_inject(op, msg, ts);
        }
    }

    /// Record `op`'s completion notification on `path` (and its latency).
    #[inline]
    pub fn trace_notify(&self, op: TraceOp, path: CompletionPath) {
        if self.trace_on.get() && !op.is_none() {
            let ts = self.trace_now_ns();
            self.tracer.borrow_mut().notify(op, path, ts);
        }
    }

    /// Record a `wait_signal` badge consumption on this rank.
    #[inline]
    pub fn trace_signal(&self, word: usize, badge: u64) {
        if self.trace_on.get() {
            let ts = self.trace_now_ns();
            self.tracer.borrow_mut().signal(word as u32, badge, ts);
        }
    }

    /// Whether `target`'s segment is directly addressable from this rank.
    #[inline]
    pub fn addressable(&self, target: Rank) -> bool {
        if self.assume_all_local {
            return true;
        }
        self.world.directly_addressable(self.me, target)
    }

    /// Enqueue a rank-local deferred notification.
    pub fn push_deferred(&self, d: Deferred) {
        bump(&self.stats.deferred_enqueued);
        self.deferred.borrow_mut().push_back(d);
        self.note_pending_highwater();
    }

    /// File `f` to be delivered by this rank's progress engine once its
    /// operation's completion token surfaces from the ready queue, and
    /// return its waiter slot and the token's trace id (minted from the
    /// rank's monotonic `next_token`). The caller files both in the op's
    /// [`Completion`](crate::completion::Completion) before the op leaves,
    /// so the token always surfaces at a later quantum, never inline.
    ///
    /// `after` is the slot an earlier request on the same operation
    /// returned: the op carries one token, so `f` chains behind that
    /// waiter and wakes with its token, still counted as a notification
    /// of its own.
    pub fn await_token(&self, after: Option<usize>, f: Box<dyn FnOnce()>) -> (usize, u64) {
        bump(&self.stats.deferred_enqueued);
        let trace = self.next_token.get();
        self.next_token.set(trace + 1);
        let slot = {
            let mut waiters = self.event_waiters.borrow_mut();
            let slot = waiters.insert(Waiter {
                run: f,
                trace,
                next: None,
            });
            if let Some(prev) = after {
                let prev = waiters
                    .get_mut(prev)
                    .expect("chained to a waiter that already ran");
                prev.next = Some(slot);
            }
            slot
        };
        self.note_pending_highwater();
        (slot, trace)
    }

    /// Notifications pending on this rank: registered event waiters,
    /// queued deferred entries, and completed callbacks not yet run.
    fn pending_level(&self) -> u64 {
        (self.event_waiters.borrow().len() + self.deferred.borrow().len() + self.callbacks.len())
            as u64
    }

    fn note_pending_highwater(&self) {
        raise(&self.stats.pending_highwater, self.pending_level());
    }

    /// Enqueue a completed continuation for delivery by this rank's next
    /// callback drain (its own quantum, or the progress thread) — never
    /// inline on the caller.
    pub fn enqueue_callback(&self, cb: Callback, top: TraceOp) {
        let during_drain = self.callbacks.push(cb, top);
        if during_drain || self.in_callback.get() {
            bump(&self.stats.callbacks_deferred);
        }
        self.note_pending_highwater();
        self.world.wake_progress();
    }

    /// Drain this rank's callback FIFO (exclusive with the progress
    /// thread). Each callback is the completion notification of one op:
    /// it closes the op's trace span, feeds the latency histogram, and
    /// counts in `callbacks_run`.
    fn drain_callbacks(&self) -> usize {
        self.callbacks.drain(|cb, top| {
            bump(&self.stats.callbacks_run);
            if self.trace_on.get() && !top.is_none() {
                let ts = self.trace_now_ns();
                let mut tracer = self.tracer.borrow_mut();
                tracer.notify(top, CompletionPath::Deferred, ts);
                tracer.callback_run(top, ts);
            }
            self.in_callback.set(true);
            cb();
            self.in_callback.set(false);
        })
    }

    /// One progress quantum of the signal-driven engine:
    ///
    /// 1. Drain incoming AMs and network deliveries (whose delivery actions
    ///    deposit completion tokens — including into this rank's own ready
    ///    queue).
    /// 2. Drain the ready queue: each token wakes exactly the notification
    ///    of the op that completed, in deposit order — O(ready), not
    ///    O(pending).
    /// 3. Deliver rank-local deferred entries in FIFO order: `Dep` and
    ///    `Now` unconditionally, `OnCheck` when its predicate holds (the
    ///    only residual polling, used by asynchronous collectives).
    ///
    /// Returns the number of work items processed. Re-entrant calls (from
    /// callbacks running inside progress) return 0 immediately, mirroring
    /// UPC++'s non-re-entrant progress engine.
    ///
    /// A quantum with nothing to do bumps `progress_calls` and otherwise
    /// only loads: every queue it polls answers "empty" from an atomic
    /// length without locking, the simulated wire is skipped while nothing
    /// is pending on it, and no clock is read (idle time is accounted by
    /// `wait_signal`, the one loop that waits without a future).
    pub fn progress_quantum(&self) -> usize {
        if self.in_progress.get() {
            return 0;
        }
        if self.world.is_aborted() {
            panic!("another rank panicked; aborting rank {}", self.me);
        }
        self.in_progress.set(true);
        bump(&self.stats.progress_calls);
        let mut n = self.world.poll_rank(self.me, 64);

        // Ready-queue drain: bounded to the tokens present now (callbacks
        // may complete further operations, handled next quantum). A token
        // is a waiter slot; it wakes that waiter and any chained behind it.
        let mut tokens = self.ready_buf.take();
        self.world.drain_ready(self.me, &mut tokens);
        for t in tokens.drain(..) {
            let mut next = Some(t as usize);
            while let Some(slot) = next {
                let w = self.event_waiters.borrow_mut().remove(slot);
                let w = w.unwrap_or_else(|| panic!("ready token {slot} has no waiter"));
                next = w.next;
                bump(&self.stats.event_wakeups);
                if self.trace_on.get() {
                    let ts = self.trace_now_ns();
                    self.tracer.borrow_mut().wakeup(w.trace, ts);
                }
                (w.run)();
                n += 1;
            }
        }
        self.ready_buf.replace(tokens);
        // Every waiter still pending is one event the poll-scan engine
        // would have re-tested (and re-queued) this quantum.
        let residual = self.event_waiters.borrow().len() as u64;
        if residual > 0 {
            add(&self.stats.polls_elided, residual);
        }

        // Deliver rank-local deferred notifications. Process at most the
        // entries present at entry (callbacks may enqueue more, handled next
        // quantum); keep unsatisfied checks, preserving their order.
        let quota = self.deferred.borrow().len();
        let mut kept: Vec<Deferred> = Vec::new();
        for _ in 0..quota {
            let Some(item) = self.deferred.borrow_mut().pop_front() else {
                break;
            };
            match item {
                Deferred::Dep(cell, top) => {
                    cell.discharge();
                    self.trace_notify(top, CompletionPath::Deferred);
                    n += 1;
                }
                Deferred::Now(f) => {
                    f();
                    n += 1;
                }
                Deferred::OnCheck(pred, f) => {
                    if pred() {
                        f();
                        n += 1;
                    } else {
                        kept.push(Deferred::OnCheck(pred, f));
                    }
                }
            }
        }
        if !kept.is_empty() {
            let mut q = self.deferred.borrow_mut();
            for item in kept.into_iter().rev() {
                q.push_front(item);
            }
        }
        // Run completed continuation callbacks — a drain-until-empty FIFO,
        // so callbacks enqueued by callbacks still settle this quantum,
        // never reentrantly.
        n += self.drain_callbacks();
        // Drain the aggregation buffers: an op buffered below the size
        // threshold waits at most until its owner's next quantum. A flush
        // is work (n counts it), so quiescence keeps spinning until the
        // buffers and their in-flight batches drain.
        n += self.agg_flush(FlushReason::Age);
        // Record only productive quanta: quiesce spins through millions of
        // idle ones, which would flood the ring with noise.
        if n > 0 && self.trace_on.get() {
            let ts = self.trace_now_ns();
            self.tracer.borrow_mut().drain(n as u64, ts);
        }
        // Sample the metric time-series at quantum end, when the quantum's
        // effects (wakeups, drains, injections) are visible in the
        // counters. Off-path cost: one branch.
        if self.metrics_on.get() {
            let now = self.trace_now_ns();
            self.metrics
                .borrow_mut()
                .maybe_sample(now, || crate::metrics::collect_values(self));
        }
        self.in_progress.set(false);
        n
    }

    /// Re-prime the pending-notifications high-water gauge to the current
    /// level (used after a stats reset: a gauge is a level, not a count,
    /// so it restarts from "now", not from zero).
    pub fn reprime_pending_highwater(&self) {
        self.stats
            .pending_highwater
            .store(self.pending_level(), std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether this rank has locally visible outstanding work.
    pub fn locally_idle(&self) -> bool {
        self.deferred.borrow().is_empty()
            && self.event_waiters.borrow().is_empty()
            && self.callbacks.is_empty()
            && self.world.ready_queued(self.me) == 0
            && self.world.ams_queued(self.me) == 0
            && self.agg.as_ref().is_none_or(|a| a.borrow().buffered() == 0)
    }
}

thread_local! {
    static CTX: RefCell<Option<Rc<RankCtx>>> = const { RefCell::new(None) };
}

/// Install `ctx` as the thread's active rank context; restores the previous
/// one (normally `None`) on drop.
pub(crate) struct CtxGuard {
    prev: Option<Rc<RankCtx>>,
}

impl CtxGuard {
    pub fn install(ctx: Rc<RankCtx>) -> CtxGuard {
        let prev = CTX.with(|c| c.borrow_mut().replace(ctx));
        CtxGuard { prev }
    }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CTX.with(|c| *c.borrow_mut() = prev);
    }
}

/// Run `f` with the active context; panics if none (i.e. outside `launch`).
pub(crate) fn with_ctx<R>(f: impl FnOnce(&RankCtx) -> R) -> R {
    CTX.with(|c| {
        let b = c.borrow();
        let ctx = b
            .as_ref()
            .expect("this operation requires an active upcr runtime (inside Runtime::launch)");
        f(ctx)
    })
}

/// Run `f` with the active context if one exists.
pub(crate) fn try_with_ctx<R>(f: impl FnOnce(&RankCtx) -> R) -> Option<R> {
    CTX.with(|c| c.borrow().as_ref().map(|ctx| f(ctx)))
}

/// A clone of the active context handle; panics outside a `launch` region.
pub(crate) fn clone_current() -> Rc<RankCtx> {
    CTX.with(|c| {
        Rc::clone(
            c.borrow()
                .as_ref()
                .expect("this operation requires an active upcr runtime (inside Runtime::launch)"),
        )
    })
}

/// Drive one progress quantum on the active context. Returns `None` when no
/// runtime is active (so `Future::wait` can give a precise error), otherwise
/// the number of work items processed.
pub(crate) fn progress_with_work() -> Option<usize> {
    try_with_ctx(|ctx| ctx.progress_quantum())
}

/// Record an internal promise-cell allocation (no-op outside a runtime).
#[inline]
pub(crate) fn note_cell_alloc() {
    let _ = try_with_ctx(|ctx| bump(&ctx.stats.cell_allocs));
}

/// Whether the running version applies the `when_all` ready-input
/// optimization. Outside a runtime (pure future unit tests) the optimization
/// is on — the semantics are identical either way.
#[inline]
pub(crate) fn when_all_opt_enabled() -> bool {
    try_with_ctx(|ctx| ctx.version.has_when_all_opt()).unwrap_or(true)
}

#[inline]
pub(crate) fn note_when_all_fast() {
    let _ = try_with_ctx(|ctx| bump(&ctx.stats.when_all_fast));
}

#[inline]
pub(crate) fn note_when_all_node() {
    let _ = try_with_ctx(|ctx| bump(&ctx.stats.when_all_nodes));
}

/// Record a completion notification for `op` on the active rank, from
/// contexts (deferred closures and waiters, `when_all` fulfillment) that
/// don't hold a `RankCtx` reference. No-op outside a runtime, when tracing
/// is off, or for the `NONE` sentinel.
#[inline]
pub(crate) fn trace_notify(op: TraceOp, path: CompletionPath) {
    if !op.is_none() {
        let _ = try_with_ctx(|ctx| ctx.trace_notify(op, path));
    }
}

/// Stamp a traced op on the active rank (for call sites without a ctx
/// reference, e.g. `when_all`). Returns the `NONE` sentinel when tracing
/// is off or no runtime is active.
#[inline]
pub(crate) fn trace_op_init(kind: OpKind, expect_notify: bool) -> TraceOp {
    try_with_ctx(|ctx| ctx.trace_op_init(kind, expect_notify)).unwrap_or(TraceOp::NONE)
}

/// The cell behind a ready `Future<()>`: the shared pre-allocated cell when
/// the version elides the allocation, a fresh heap cell otherwise. Outside a
/// runtime, a fresh (uncounted) cell.
pub(crate) fn ready_unit_future_cell() -> Rc<Cell<()>> {
    try_with_ctx(|ctx| {
        if ctx.version.has_ready_cell_elision() {
            Rc::clone(&ctx.ready_unit)
        } else {
            crate::future::cell::new_ready_cell(())
        }
    })
    .unwrap_or_else(shared_ready_unit_cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gasnex::GasnexConfig;

    fn test_ctx() -> Rc<RankCtx> {
        let world = World::new(GasnexConfig::smp(1).with_segment_size(1 << 12));
        RankCtx::new(world, Rank(0), LibVersion::V2021_3_6Eager, 30_000)
    }

    #[test]
    fn guard_installs_and_restores() {
        assert!(try_with_ctx(|_| ()).is_none());
        {
            let _g = CtxGuard::install(test_ctx());
            assert!(try_with_ctx(|_| ()).is_some());
        }
        assert!(try_with_ctx(|_| ()).is_none());
    }

    #[test]
    fn deferred_now_runs_on_next_quantum() {
        let ctx = test_ctx();
        let _g = CtxGuard::install(Rc::clone(&ctx));
        let hit = Rc::new(StdCell::new(false));
        let h = Rc::clone(&hit);
        ctx.push_deferred(Deferred::Now(Box::new(move || h.set(true))));
        assert!(!hit.get());
        ctx.progress_quantum();
        assert!(hit.get());
        assert!(ctx.locally_idle());
    }

    /// File `f` as a lone request; returns its slot and token trace id.
    fn await_fn(ctx: &RankCtx, f: impl FnOnce() + 'static) -> (usize, u64) {
        ctx.await_token(None, Box::new(f))
    }

    /// Deposit the token of the waiter filed as `(slot, trace)`, as its
    /// operation's delivery action would.
    fn deposit(ctx: &RankCtx, (slot, trace): (usize, u64)) {
        ctx.world.deposit_token(ctx.me, slot as u64, trace);
    }

    #[test]
    fn filed_waiter_waits_for_its_token() {
        let ctx = test_ctx();
        let _g = CtxGuard::install(Rc::clone(&ctx));
        let hit = Rc::new(StdCell::new(false));
        let h = Rc::clone(&hit);
        let token = await_fn(&ctx, move || h.set(true));
        ctx.progress_quantum();
        assert!(!hit.get(), "notification before the token was deposited");
        assert!(!ctx.locally_idle(), "a pending waiter is outstanding work");
        deposit(&ctx, token);
        assert!(!hit.get(), "a deposit never runs the waiter inline");
        ctx.progress_quantum();
        assert!(hit.get());
        assert!(ctx.locally_idle());
    }

    #[test]
    fn notification_order_preserved_across_quanta() {
        let ctx = test_ctx();
        let _g = CtxGuard::install(Rc::clone(&ctx));
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut token = None;
        for i in 0..4 {
            let log = Rc::clone(&log);
            if i == 1 {
                token = Some(await_fn(&ctx, move || log.borrow_mut().push(i)));
            } else if i == 2 {
                let cell = crate::future::cell::new_cell_with_value(1, ());
                cell.add_cb(move |()| log.borrow_mut().push(i));
                ctx.push_deferred(Deferred::Dep(cell, TraceOp::NONE));
            } else {
                ctx.push_deferred(Deferred::Now(Box::new(move || log.borrow_mut().push(i))));
            }
        }
        ctx.progress_quantum();
        // 1 waits for its token; everything else (`Now` and `Dep` entries
        // alike) delivered in order.
        assert_eq!(*log.borrow(), vec![0, 2, 3]);
        deposit(&ctx, token.unwrap());
        ctx.progress_quantum();
        assert_eq!(*log.borrow(), vec![0, 2, 3, 1]);
    }

    #[test]
    fn wakeups_follow_deposit_order_not_filing_order() {
        let ctx = test_ctx();
        let _g = CtxGuard::install(Rc::clone(&ctx));
        let log = Rc::new(RefCell::new(Vec::new()));
        let tokens: Vec<_> = (0..4)
            .map(|i| {
                let log = Rc::clone(&log);
                await_fn(&ctx, move || log.borrow_mut().push(i))
            })
            .collect();
        deposit(&ctx, tokens[3]);
        deposit(&ctx, tokens[1]);
        ctx.progress_quantum();
        assert_eq!(*log.borrow(), vec![3, 1]);
        deposit(&ctx, tokens[0]);
        deposit(&ctx, tokens[2]);
        ctx.progress_quantum();
        assert_eq!(*log.borrow(), vec![3, 1, 0, 2]);
    }

    #[test]
    fn one_deposit_among_many_pending_wakes_exactly_one() {
        // The structural claim of the signal-driven engine: with K pending
        // operations and one completed, a quantum delivers that one
        // notification via a ready token — it does not re-test the other K.
        const K: usize = 64;
        let ctx = test_ctx();
        let _g = CtxGuard::install(Rc::clone(&ctx));
        let fired = Rc::new(StdCell::new(0usize));
        let tokens: Vec<_> = (0..=K)
            .map(|_| {
                let f = Rc::clone(&fired);
                await_fn(&ctx, move || f.set(f.get() + 1))
            })
            .collect();
        assert_eq!(ctx.stats.snapshot().pending_highwater, (K + 1) as u64);
        deposit(&ctx, tokens[7]);
        let before = ctx.stats.snapshot();
        ctx.progress_quantum();
        let d = ctx.stats.snapshot().since(&before);
        assert_eq!(fired.get(), 1);
        assert_eq!(d.event_wakeups, 1, "exactly the completed op woke");
        assert_eq!(
            d.polls_elided, K as u64,
            "the K pending ops were not re-tested"
        );
        // An idle quantum with K pending still tests nothing.
        let before = ctx.stats.snapshot();
        ctx.progress_quantum();
        let d = ctx.stats.snapshot().since(&before);
        assert_eq!(d.event_wakeups, 0);
        assert_eq!(d.polls_elided, K as u64);
        for (i, &token) in tokens.iter().enumerate() {
            if i != 7 {
                deposit(&ctx, token);
            }
        }
        ctx.progress_quantum();
        assert_eq!(fired.get(), K + 1);
        assert!(ctx.locally_idle());
    }

    #[test]
    fn chained_waiters_wake_with_one_token_and_count_apiece() {
        // A second request on one op chains behind the first: one token,
        // two notifications, in request order, each counted.
        let ctx = test_ctx();
        let _g = CtxGuard::install(Rc::clone(&ctx));
        let log = Rc::new(RefCell::new(Vec::new()));
        let (l1, l2) = (Rc::clone(&log), Rc::clone(&log));
        let first = await_fn(&ctx, move || l1.borrow_mut().push("first"));
        ctx.await_token(
            Some(first.0),
            Box::new(move || l2.borrow_mut().push("second")),
        );
        let before = ctx.stats.snapshot();
        deposit(&ctx, first);
        assert_eq!(ctx.world.ready_queued(ctx.me), 1, "one token for the op");
        ctx.progress_quantum();
        let d = ctx.stats.snapshot().since(&before);
        assert_eq!(*log.borrow(), vec!["first", "second"]);
        assert_eq!(d.event_wakeups, 2);
        assert_eq!(ctx.stats.snapshot().deferred_enqueued, 2);
        assert!(ctx.locally_idle());
    }

    #[test]
    fn progress_is_not_reentrant() {
        let ctx = test_ctx();
        let _g = CtxGuard::install(Rc::clone(&ctx));
        let ctx2 = Rc::clone(&ctx);
        let nested = Rc::new(StdCell::new(usize::MAX));
        let n2 = Rc::clone(&nested);
        ctx.push_deferred(Deferred::Now(Box::new(move || {
            n2.set(ctx2.progress_quantum());
        })));
        ctx.progress_quantum();
        assert_eq!(nested.get(), 0, "nested progress must be a no-op");
    }

    #[test]
    fn callback_enqueueing_deferred_is_deferred_to_next_quantum() {
        let ctx = test_ctx();
        let _g = CtxGuard::install(Rc::clone(&ctx));
        let ctx2 = Rc::clone(&ctx);
        let hit = Rc::new(StdCell::new(0));
        let h1 = Rc::clone(&hit);
        ctx.push_deferred(Deferred::Now(Box::new(move || {
            h1.set(1);
            let h2 = Rc::clone(&h1);
            ctx2.push_deferred(Deferred::Now(Box::new(move || h2.set(2))));
        })));
        ctx.progress_quantum();
        assert_eq!(hit.get(), 1);
        ctx.progress_quantum();
        assert_eq!(hit.get(), 2);
    }

    #[test]
    fn ready_unit_cell_shared_under_eager() {
        let ctx = test_ctx();
        let _g = CtxGuard::install(Rc::clone(&ctx));
        let a = ready_unit_future_cell();
        let b = ready_unit_future_cell();
        assert!(
            Rc::ptr_eq(&a, &b),
            "elided ready cells must be the shared singleton"
        );
        assert_eq!(ctx.stats.snapshot().cell_allocs, 0);
    }

    #[test]
    fn ready_unit_cell_fresh_under_legacy() {
        let world = World::new(GasnexConfig::smp(1).with_segment_size(1 << 12));
        let ctx = RankCtx::new(world, Rank(0), LibVersion::V2021_3_0, 30_000);
        let _g = CtxGuard::install(Rc::clone(&ctx));
        let a = ready_unit_future_cell();
        let b = ready_unit_future_cell();
        assert!(!Rc::ptr_eq(&a, &b), "2021.3.0 allocates each ready cell");
        assert_eq!(ctx.stats.snapshot().cell_allocs, 2);
    }

    #[test]
    fn assume_all_local_only_on_smp_with_new_version() {
        let smp = World::new(GasnexConfig::smp(2).with_segment_size(1 << 12));
        assert!(
            RankCtx::new(
                Arc::clone(&smp),
                Rank(0),
                LibVersion::V2021_3_6Eager,
                30_000
            )
            .assume_all_local
        );
        assert!(!RankCtx::new(smp, Rank(0), LibVersion::V2021_3_0, 30_000).assume_all_local);
        let udp = World::new(GasnexConfig::udp(2, 1).with_segment_size(1 << 12));
        assert!(!RankCtx::new(udp, Rank(0), LibVersion::V2021_3_6Eager, 30_000).assume_all_local);
    }
}
