//! The conduit abstraction: a transport the runtime injects delivery
//! actions into and polls for progress.
//!
//! Everything above this layer (the `World`, the aggregation coalescer,
//! the `upcr` runtime, the harnesses) speaks to the wire exclusively
//! through the [`Conduit`] trait. Two implementations exist:
//!
//! * [`SimNetwork`](crate::net::SimNetwork) — the simulated delay queue
//!   with the seeded chaos adversary and the deterministic virtual clock.
//! * [`UdpConduit`](crate::conduit::udp::UdpConduit) — real loopback
//!   `std::net::UdpSocket`s, one per simulated node, carrying a small
//!   data/ack frame protocol with retransmission and receiver-side dedup
//!   (the same reliability machinery the simulator models, run over an
//!   actually lossy wire).
//!
//! The trait contract mirrors what the quiescence protocol and the
//! observability stack already relied on:
//!
//! * [`Conduit::inject_to`] never executes the action synchronously —
//!   delivery always happens at a later [`Conduit::poll`], so off-node
//!   operations always take the deferred-notification path.
//! * `injected() == delivered() && pending() == 0` means no delivery
//!   action is buffered or mid-flight anywhere in the transport.
//! * Counters are monotonic and lock-free to read; [`Conduit::stats`]
//!   and [`Conduit::now_ns`] never contend with a delivery in progress.

pub mod udp;

use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::aggregate::FlushReason;
use crate::clock::LamportClocks;
use crate::net::{NetAction, NetCounters, NetEventKind, NetStats, NetTraceEvent};
use crate::rank::Rank;
use crate::world::World;

/// A point-in-time view of one message the transport still owes a
/// delivery for: queued, mid-retransmission, or a duplicate copy.
///
/// Produced by [`Conduit::inflight`] for the live-snapshot API. The
/// fields describe the *reliability* state — how many transmission
/// attempts have happened and when the transport will next act on the
/// message — not the payload, which is an opaque delivery action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InFlight {
    /// Logical message id (allocation order).
    pub msg: u64,
    /// Transmission attempts so far (0 = first attempt still pending).
    pub attempt: u32,
    /// Whether this entry is a retransmission timer for a dropped
    /// attempt (true) or a copy awaiting delivery (false).
    pub retransmit: bool,
    /// When the transport next acts on this entry, on the conduit clock:
    /// the delivery due time, or the retransmission backoff deadline.
    pub due_ns: u64,
    /// Routing hint recorded at injection, when the initiator supplied
    /// one: `(source rank, target rank)`.
    pub route: Option<(u32, u32)>,
}

/// A transport for cross-node delivery actions.
///
/// Implementations must be shareable across rank threads (`Send + Sync`);
/// every method takes `&self`. An implementation supplies only its
/// transport logic — injection, polling, its clock, its in-flight view —
/// plus [`Conduit::core`]; the counters, the wire trace, the Lamport
/// stamps and the progress waker are provided once, over the
/// [`ConduitCore`] every transport embeds.
pub trait Conduit: Send + Sync {
    /// Inject `action` for asynchronous delivery, optionally routed from an
    /// initiating rank to a target rank. Returns the logical message id.
    ///
    /// Routing is a hint: the simulated network keeps one global delay
    /// queue and ignores it, while the UDP conduit uses it to pick the
    /// source and destination node sockets. Injection must never run the
    /// action synchronously.
    fn inject_to(&self, route: Option<(Rank, Rank)>, action: NetAction) -> u64;

    /// Execute due deliveries. Returns the number of work items observed
    /// (deliveries, suppressed duplicates, retransmissions), or a busy hint
    /// of 1 when another rank is mid-drain while work is outstanding.
    fn poll(&self, world: &World) -> usize;

    /// The conduit's notion of "now", in nanoseconds. Lock-free: never
    /// contends with a delivery in progress.
    fn now_ns(&self) -> u64;

    /// Snapshot every message the transport still owes a delivery for, in
    /// deterministic `(msg, due_ns)` order.
    fn inflight(&self) -> Vec<InFlight>;

    /// The shared bookkeeping this transport records into.
    fn core(&self) -> &ConduitCore;

    /// Downcast hook for tests and impl-specific tooling.
    fn as_any(&self) -> &dyn Any;

    /// [`Conduit::inject_to`] without a routing hint.
    fn inject(&self, action: NetAction) -> u64 {
        self.inject_to(None, action)
    }

    /// Inject a *signal-bearing* delivery action (a put-with-signal or
    /// amo-with-signal). Semantically identical to [`Conduit::inject_to`]
    /// — same reliability machinery, same exactly-once delivery — but
    /// counted in `NetStats::signals`, and a transport may mark the
    /// traffic on the wire (the UDP conduit sends a SIGNAL frame kind).
    fn inject_signal_to(&self, route: Option<(Rank, Rank)>, action: NetAction) -> u64 {
        self.core().note_signal();
        self.inject_to(route, action)
    }

    /// Logical messages injected since creation (raw, ignoring any
    /// `reset_stats` baseline — quiescence detection depends on this).
    fn injected(&self) -> u64 {
        self.core().injected()
    }

    /// Logical messages delivered since creation (raw).
    fn delivered(&self) -> u64 {
        self.core().delivered()
    }

    /// Messages injected but not yet delivered (including retransmission
    /// timers and duplicate copies still in flight). Lock-free.
    fn pending(&self) -> usize {
        self.core().pending()
    }

    /// Snapshot every counter relative to the last [`Conduit::reset_stats`]
    /// (or creation). Lock-free: reads only atomics, so it never contends
    /// with delivery.
    fn stats(&self) -> NetStats {
        self.core().stats()
    }

    /// Re-baseline the observable counters; gauges re-prime rather than
    /// zero. Raw `injected`/`delivered` are untouched.
    fn reset_stats(&self) {
        self.core().reset_stats();
    }

    /// Enable or disable the wire-event sink.
    fn set_tracing(&self, on: bool) {
        self.core().set_tracing(on);
    }

    /// Whether the wire-event sink is recording.
    fn tracing(&self) -> bool {
        self.core().tracing()
    }

    /// Drain the recorded wire-level trace.
    fn take_trace(&self) -> Vec<NetTraceEvent> {
        self.core().take_trace()
    }

    /// Copy the recorded wire-level trace *without* draining it — the
    /// flight recorder reads the ring in place so a snapshot or watchdog
    /// diagnosis never perturbs a later `take_trace`.
    fn peek_trace(&self) -> Vec<NetTraceEvent> {
        self.core().peek_trace()
    }

    /// Record one wire event with its Lamport stamp, timestamped by
    /// [`Conduit::now_ns`] (no-op, and no clock read, unless tracing is
    /// on).
    #[inline]
    fn trace_event(&self, msg: u64, attempt: u32, kind: NetEventKind, lclock: u64) {
        self.core()
            .record(|| self.now_ns(), msg, attempt, kind, lclock);
    }

    /// The shared per-rank Lamport clock bank stamping this conduit's
    /// traffic.
    fn clocks(&self) -> &Arc<LamportClocks> {
        self.core().clocks()
    }

    /// Record one aggregation batch flush of `ops` constituent operations.
    fn note_batch(&self, ops: u64, reason: FlushReason) {
        self.core().note_batch(ops, reason);
    }

    /// Record a coalescer buffer depth for the occupancy high-water gauge.
    fn note_agg_occupancy(&self, depth: usize) {
        self.core().note_agg_occupancy(depth);
    }

    /// Arm (or, with `None`, disarm) the progress-thread waker: injections
    /// into this conduit call it so a parked background progress thread
    /// notices new traffic promptly. At most one waker is armed at a time;
    /// unarmed conduits pay one relaxed load per injection.
    fn set_progress_waker(&self, waker: Option<Arc<dyn Fn() + Send + Sync>>) {
        self.core().set_waker(waker);
    }

    /// Invoke the armed progress waker, if any (no-op otherwise). Exposed
    /// so layers above the conduit (callback enqueues, abort) can prod the
    /// progress thread through the same hook.
    fn wake_progress(&self) {
        self.core().wake();
    }
}

/// Counter, trace, Lamport, waker and poll-gate state shared by every
/// conduit implementation.
///
/// The stats baseline is a second bank of atomics rather than a mutex-held
/// [`NetStats`], so `stats()` and `reset_stats()` are lock-free and never
/// contend with the delivery path — the lock-granularity split: the clock
/// is atomic, the delivery queue has its own lock inside each impl, and
/// statistics touch neither.
///
/// Cache-line aligned: every rank writes the live counters on every
/// message and reads the trace and waker flags on every injection, so
/// they must not share a line with a transport's queue lock. Alignment
/// also makes the embedding transport cache-line aligned, so which lines
/// its fields share is fixed by the type, not by where the allocator
/// happens to place it.
#[repr(align(64))]
pub struct ConduitCore {
    /// Every [`NetStats`] field, live. The counters are never zeroed
    /// because quiescence relies on raw `injected == delivered`; the
    /// `pending` gauge mirrors the in-flight count lock-free. The live
    /// `lclock_ticks` is read from the clock bank, so that slot is unused.
    live: NetCounters,
    /// Raw counters captured by `reset_stats`; `stats()` reports live
    /// minus baseline.
    baseline: NetCounters,
    /// Wire-level trace gate: one relaxed load per recording site.
    trace_on: AtomicBool,
    /// Wire-level trace records, in recording order.
    trace: Mutex<Vec<NetTraceEvent>>,
    /// Shared per-rank Lamport clocks: ticked at injection, merged at
    /// delivery — only while tracing is on.
    clocks: Arc<LamportClocks>,
    /// Whether a progress-thread waker is armed — one relaxed load gates
    /// the injection hot path when no progress thread exists.
    waker_armed: AtomicBool,
    /// The armed waker (the background progress thread's condvar prod).
    waker: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl ConduitCore {
    pub(crate) fn new(clocks: Arc<LamportClocks>) -> Self {
        ConduitCore {
            live: NetCounters::default(),
            baseline: NetCounters::default(),
            trace_on: AtomicBool::new(false),
            trace: Mutex::new(Vec::new()),
            clocks,
            waker_armed: AtomicBool::new(false),
            waker: Mutex::new(None),
        }
    }

    /// The poll gate: one poller drains a transport at a time. A poller
    /// that finds `lock` held yields once and retries — the holder is
    /// usually mid-drain for a few microseconds. Losing twice counts a
    /// contended poll and returns `Err` with the busy hint: 1 while work
    /// is outstanding, so a rank that lost the race never concludes it is
    /// idle (that would make quiescence sampling transiently wrong), else 0.
    #[inline]
    pub(crate) fn enter_poll<'a, T>(&self, lock: &'a Mutex<T>) -> Result<MutexGuard<'a, T>, usize> {
        if let Ok(guard) = lock.try_lock() {
            return Ok(guard);
        }
        std::thread::yield_now();
        lock.try_lock().map_err(|_| {
            self.live.contended_polls.fetch_add(1, Ordering::SeqCst);
            usize::from(self.pending() > 0)
        })
    }

    /// Allocate the next logical message id and count the message as
    /// injected and in flight.
    pub(crate) fn inject_msg(&self) -> u64 {
        let msg = self.live.injected.fetch_add(1, Ordering::SeqCst);
        self.live.pending.fetch_add(1, Ordering::SeqCst);
        msg
    }

    /// A second wire copy of an in-flight message was queued (a duplicate
    /// the receiver will suppress); it stays pending until it is.
    pub(crate) fn copy_queued(&self) {
        self.live.pending.fetch_add(1, Ordering::SeqCst);
    }

    /// A queued wire copy was retired without delivering.
    pub(crate) fn copy_retired(&self) {
        self.live.pending.fetch_sub(1, Ordering::SeqCst);
    }

    /// A delivery action ran. Counted after the action, so `injected ==
    /// delivered` implies no action is mid-flight (quiescence detection).
    pub(crate) fn note_delivered(&self) {
        self.live.delivered.fetch_add(1, Ordering::SeqCst);
        self.live.pending.fetch_sub(1, Ordering::SeqCst);
    }

    pub(crate) fn injected(&self) -> u64 {
        self.live.injected.load(Ordering::SeqCst)
    }

    pub(crate) fn delivered(&self) -> u64 {
        self.live.delivered.load(Ordering::SeqCst)
    }

    pub(crate) fn pending(&self) -> usize {
        self.live.pending.load(Ordering::SeqCst) as usize
    }

    pub(crate) fn note_retry(&self) {
        self.live.retries.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn note_drop(&self, backoff_ns: u64) {
        self.live.drops_injected.fetch_add(1, Ordering::SeqCst);
        self.live
            .max_backoff_ns
            .fetch_max(backoff_ns, Ordering::SeqCst);
    }

    pub(crate) fn note_dup_suppressed(&self) {
        self.live.dup_suppressed.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn note_dup_promoted(&self) {
        self.live.dup_promoted.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn note_signal(&self) {
        self.live.signals.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn note_batch(&self, ops: u64, reason: FlushReason) {
        self.live.batches_injected.fetch_add(1, Ordering::SeqCst);
        self.live.ops_coalesced.fetch_add(ops, Ordering::SeqCst);
        let ctr = match reason {
            FlushReason::Size => &self.live.flushes_size,
            FlushReason::Age => &self.live.flushes_age,
            FlushReason::Explicit => &self.live.flushes_explicit,
        };
        ctr.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn note_agg_occupancy(&self, depth: usize) {
        self.live
            .agg_occupancy_highwater
            .fetch_max(depth as u64, Ordering::SeqCst);
    }

    /// All counters since creation, with live gauge levels.
    fn raw_stats(&self) -> NetStats {
        NetStats {
            lclock_ticks: self.clocks.ticks(),
            ..self.live.snapshot()
        }
    }

    /// Counters relative to the baseline; gauges report the live level.
    pub(crate) fn stats(&self) -> NetStats {
        self.raw_stats().since(&self.baseline.snapshot())
    }

    /// Capture the current raw counters as the new baseline and re-prime
    /// the peak gauges.
    pub(crate) fn reset_stats(&self) {
        self.baseline.store(&self.raw_stats());
        self.live.max_backoff_ns.store(0, Ordering::SeqCst);
        self.live.agg_occupancy_highwater.store(0, Ordering::SeqCst);
    }

    /// The shared per-rank Lamport clock bank.
    pub(crate) fn clocks(&self) -> &Arc<LamportClocks> {
        &self.clocks
    }

    /// Lamport tick for a local or send event on `rank`'s clock (the
    /// unrouted slot when `None`): returns the post-tick stamp, which a
    /// sent message carries unchanged through every retransmission. Zero
    /// while tracing is off, so untraced runs never touch the clock bank.
    #[inline]
    pub(crate) fn lamport_tick(&self, rank: Option<u32>) -> u64 {
        if self.tracing() {
            self.clocks.tick(self.clocks.slot_for(rank))
        } else {
            0
        }
    }

    /// Lamport receive: merge a delivered message's carried stamp into
    /// `rank`'s clock before its action runs, so every event the delivery
    /// causes is stamped after the wire hop. Zero while tracing is off.
    #[inline]
    pub(crate) fn lamport_merge(&self, rank: Option<u32>, carried: u64) -> u64 {
        if self.tracing() {
            self.clocks.merge(self.clocks.slot_for(rank), carried)
        } else {
            0
        }
    }

    pub(crate) fn set_tracing(&self, on: bool) {
        self.trace_on.store(on, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn tracing(&self) -> bool {
        self.trace_on.load(Ordering::Relaxed)
    }

    pub(crate) fn take_trace(&self) -> Vec<NetTraceEvent> {
        std::mem::take(&mut self.trace.lock().unwrap())
    }

    /// Clone the recorded wire events without draining the sink.
    pub(crate) fn peek_trace(&self) -> Vec<NetTraceEvent> {
        self.trace.lock().unwrap().clone()
    }

    /// Record one wire event stamped `now_ns()` (no-op, and no clock
    /// read, unless tracing is on).
    #[inline]
    pub(crate) fn record(
        &self,
        now_ns: impl FnOnce() -> u64,
        msg: u64,
        attempt: u32,
        kind: NetEventKind,
        lclock: u64,
    ) {
        if self.tracing() {
            let ts_ns = now_ns();
            self.trace.lock().unwrap().push(NetTraceEvent {
                ts_ns,
                msg,
                attempt,
                kind,
                lclock,
            });
        }
    }

    /// Arm or disarm the progress-thread waker.
    pub(crate) fn set_waker(&self, waker: Option<Arc<dyn Fn() + Send + Sync>>) {
        let armed = waker.is_some();
        *self.waker.lock().unwrap() = waker;
        self.waker_armed.store(armed, Ordering::Release);
    }

    /// Prod the armed waker, if any. One relaxed load when unarmed.
    #[inline]
    pub(crate) fn wake(&self) {
        if self.waker_armed.load(Ordering::Relaxed) {
            let w = self.waker.lock().unwrap().clone();
            if let Some(w) = w {
                w();
            }
        }
    }
}
