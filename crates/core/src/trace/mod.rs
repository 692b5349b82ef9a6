//! Operation-lifecycle tracing.
//!
//! The paper's argument is about *when* a completion is observed — eagerly
//! at initiation or deferred through the progress engine. The aggregate
//! counters ([`crate::StatsSnapshot`], [`gasnex::NetStats`]) prove this in
//! totals; this module proves it **per operation**: every RMA put/get,
//! atomic, RPC, and `when_all` conjoin gets an op id stamped at initiation,
//! and its lifecycle events — net-inject, chaos retries, delivery,
//! notification (tagged eager vs. deferred), event wakeup, progress drain —
//! are recorded into a per-rank fixed-capacity [`ring::Ring`].
//!
//! Timestamps come from the simulated network's clock
//! ([`gasnex::Conduit::now_ns`]): wall nanoseconds under
//! [`gasnex::ClockMode::Wall`], the logical time-warp counter under
//! [`gasnex::ClockMode::Virtual`] — so chaos traces are bit-replayable.
//!
//! On top of the raw spans, [`hist::Histograms`] maintains log2-bucketed
//! initiation→notification latency histograms keyed by (op kind ×
//! completion path), and [`export`] renders Chrome `trace_event` JSON
//! (loadable in `chrome://tracing` / Perfetto) or a plain-text summary.
//!
//! Recording is gated by a single per-rank flag checked once per
//! instrumentation site ([`crate::Upcr::trace_enabled`]); disabled-mode
//! overhead is one predictably-taken branch, and `figures latency` prints
//! what switching it on costs an eager local put.

pub mod causal;
pub mod export;
pub mod hist;
pub mod ring;

use std::collections::HashMap;
use std::sync::Arc;

pub use causal::{
    assemble, CausalAssembly, CausalEdge, CausalNode, EdgeKind, OpBreakdown, PathStep, Segment,
};
pub use export::{
    chrome_trace_json, chrome_trace_json_with_flows, count_notifications, parse_json,
    summary_table, Json, TraceBundle,
};
pub use gasnex::{LamportClocks, NetEventKind, NetTraceEvent};
pub use hist::{Histograms, LatencyHistogram, LatencyRow};

/// Default per-rank ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// What kind of operation a span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    Put = 0,
    Get = 1,
    Amo = 2,
    Rpc = 3,
    WhenAll = 4,
}

impl OpKind {
    pub const ALL: [OpKind; 5] = [
        OpKind::Put,
        OpKind::Get,
        OpKind::Amo,
        OpKind::Rpc,
        OpKind::WhenAll,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Put => "put",
            OpKind::Get => "get",
            OpKind::Amo => "amo",
            OpKind::Rpc => "rpc",
            OpKind::WhenAll => "when_all",
        }
    }
}

/// Which path delivered the completion notification — the distinction the
/// paper is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CompletionPath {
    /// Delivered synchronously at initiation (zero queue traversal).
    Eager = 0,
    /// Delivered later by the progress engine (deferred queue or
    /// signal-driven wakeup).
    Deferred = 1,
}

impl CompletionPath {
    pub const ALL: [CompletionPath; 2] = [CompletionPath::Eager, CompletionPath::Deferred];

    pub fn name(self) -> &'static str {
        match self {
            CompletionPath::Eager => "eager",
            CompletionPath::Deferred => "deferred",
        }
    }
}

/// A copyable handle to an open span: the per-rank op id plus the kind.
/// `TraceOp::NONE` (id 0) is the disabled-mode sentinel — every recording
/// helper ignores it, so untraced operations carry zero state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOp {
    pub id: u64,
    pub kind: OpKind,
}

impl TraceOp {
    pub const NONE: TraceOp = TraceOp {
        id: 0,
        kind: OpKind::Put,
    };

    #[inline]
    pub fn is_none(self) -> bool {
        self.id == 0
    }
}

/// One lifecycle event in a rank's trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Operation initiated (op id stamped).
    Init,
    /// Operation injected into the simulated network as message `msg`
    /// (correlates with the wire-level [`NetTraceEvent`]s for `msg`).
    NetInject { msg: u64 },
    /// Completion notification delivered, tagged with the path taken and
    /// the initiation→notification latency.
    Notify {
        path: CompletionPath,
        latency_ns: u64,
    },
    /// A ready-queue completion token woke an event waiter.
    Wakeup { token: u64 },
    /// A progress quantum drained `items` work items (only quanta that did
    /// work are recorded; idle spins are not).
    Drain { items: u64 },
    /// The aggregation layer flushed a batch of `ops` coalesced operations
    /// as wire message `msg`. Each constituent op records its own
    /// `NetInject { msg }` alongside, so spans still correlate with the
    /// wire.
    BatchFlush {
        msg: u64,
        ops: u32,
        reason: gasnex::FlushReason,
    },
    /// `wait_signal` consumed `badge` bits from notification word `word`
    /// (a rank-level event: the badges may have been coalesced from many
    /// signal ops, so no single span owns the consumption).
    Signal { word: u32, badge: u64 },
    /// A continuation callback (`operation_cx::as_callback`) for the owning
    /// span started executing (recorded only for drains on the rank's own
    /// thread; progress-thread runs are untraced — the tracer is
    /// thread-local).
    CallbackRun,
}

/// One recorded event. `seq` is a per-rank monotonic counter, so event
/// order is well-defined even when timestamps tie (common under the
/// virtual clock).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub ts_ns: u64,
    pub seq: u64,
    /// The owning span (`TraceOp::NONE` for rank-level events like
    /// `Wakeup`/`Drain`).
    pub op: TraceOp,
    pub kind: EventKind,
    /// Lamport stamp from the rank's logical clock, ticked per recorded
    /// event — strictly monotone within a rank, merged across ranks by the
    /// conduit piggyback, so the causal assembler can order events
    /// globally without trusting wall clocks.
    pub lclock: u64,
}

/// Everything one rank recorded: its events (most recent window) and how
/// many older events the ring displaced.
#[derive(Clone, Debug)]
pub struct RankTrace {
    pub rank: u32,
    pub events: Vec<TraceEvent>,
    pub dropped: u64,
}

/// One still-open (initiated, not yet notified) operation with its current
/// lifecycle phase, reconstructed from the trace ring by
/// [`RankTracer::open_spans`] for the live-snapshot API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpenSpan {
    /// Per-rank op id.
    pub id: u64,
    /// Operation kind, when its events are still in the ring window
    /// (`None` when they were displaced).
    pub kind: Option<OpKind>,
    /// Current phase: `"initiated"`, `"on-wire"`, or `"unknown"` (events
    /// displaced from the ring).
    pub phase: &'static str,
    /// Initiation timestamp on the conduit clock.
    pub init_ts_ns: u64,
    /// The wire message carrying the op, once injected.
    pub wire_msg: Option<u64>,
}

/// The per-rank span recorder. Lives in the rank context behind a
/// `RefCell`; all methods take `&mut self` and are only reached when the
/// rank's trace flag is set.
#[derive(Debug)]
pub struct RankTracer {
    rank: u32,
    ring: ring::Ring<TraceEvent>,
    next_op: u64,
    next_seq: u64,
    /// Open spans: op id → initiation timestamp (for latency on notify).
    open: HashMap<u64, u64>,
    hist: Histograms,
    /// The world's shared Lamport clock bank, so rank-side stamps
    /// interleave causally with the conduit's wire stamps.
    clocks: Arc<LamportClocks>,
}

impl RankTracer {
    /// A tracer for `rank` stamping events from `clocks`.
    pub fn new(rank: u32, clocks: Arc<LamportClocks>) -> Self {
        RankTracer {
            rank,
            ring: ring::Ring::new(DEFAULT_RING_CAPACITY),
            next_op: 0,
            next_seq: 0,
            open: HashMap::new(),
            hist: Histograms::new(),
            clocks,
        }
    }

    #[inline]
    fn push(&mut self, ts_ns: u64, op: TraceOp, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let lclock = self.clocks.tick(self.clocks.slot_for(Some(self.rank)));
        self.ring.push(TraceEvent {
            ts_ns,
            seq,
            op,
            kind,
            lclock,
        });
    }

    /// Stamp a new op id and record its `Init` event. `expect_notify`
    /// keeps the span open for latency measurement; fire-and-forget
    /// operations (e.g. `rpc_ff`) pass `false` so the open-span table
    /// cannot grow unboundedly.
    pub fn op_init(&mut self, kind: OpKind, ts_ns: u64, expect_notify: bool) -> TraceOp {
        self.next_op += 1;
        let op = TraceOp {
            id: self.next_op,
            kind,
        };
        if expect_notify {
            self.open.insert(op.id, ts_ns);
        }
        self.push(ts_ns, op, EventKind::Init);
        op
    }

    /// Record that `op` went onto the wire as message `msg`.
    pub fn net_inject(&mut self, op: TraceOp, msg: u64, ts_ns: u64) {
        if !op.is_none() {
            self.push(ts_ns, op, EventKind::NetInject { msg });
        }
    }

    /// Record `op`'s completion notification and feed the latency
    /// histogram for (kind, path). Spans initiated while tracing was off
    /// (or already closed) record the event with latency 0 and skip the
    /// histogram.
    pub fn notify(&mut self, op: TraceOp, path: CompletionPath, ts_ns: u64) {
        if op.is_none() {
            return;
        }
        let latency_ns = match self.open.remove(&op.id) {
            Some(t0) => {
                let l = ts_ns.saturating_sub(t0);
                self.hist.record(op.kind, path, l);
                l
            }
            None => 0,
        };
        self.push(ts_ns, op, EventKind::Notify { path, latency_ns });
    }

    /// Record a ready-queue wakeup.
    pub fn wakeup(&mut self, token: u64, ts_ns: u64) {
        self.push(ts_ns, TraceOp::NONE, EventKind::Wakeup { token });
    }

    /// Record a productive progress quantum.
    pub fn drain(&mut self, items: u64, ts_ns: u64) {
        self.push(ts_ns, TraceOp::NONE, EventKind::Drain { items });
    }

    /// Record a `wait_signal` badge consumption.
    pub fn signal(&mut self, word: u32, badge: u64, ts_ns: u64) {
        self.push(ts_ns, TraceOp::NONE, EventKind::Signal { word, badge });
    }

    /// Record that `op`'s continuation callback ran.
    pub fn callback_run(&mut self, op: TraceOp, ts_ns: u64) {
        if !op.is_none() {
            self.push(ts_ns, op, EventKind::CallbackRun);
        }
    }

    /// Record an aggregation batch flush (a rank-level event; the
    /// constituent ops record their own `NetInject`s).
    pub fn batch_flush(&mut self, msg: u64, ops: u32, reason: gasnex::FlushReason, ts_ns: u64) {
        self.push(
            ts_ns,
            TraceOp::NONE,
            EventKind::BatchFlush { msg, ops, reason },
        );
    }

    /// The lifecycle phase of one still-open operation, reconstructed from
    /// the ring for the live-snapshot API.
    pub fn open_spans(&self) -> Vec<OpenSpan> {
        let mut spans: Vec<OpenSpan> = self
            .open
            .iter()
            .map(|(&id, &init_ts)| OpenSpan {
                id,
                // Kind and phase are refined from the ring below; an op
                // whose events were displaced stays "unknown".
                kind: None,
                phase: "unknown",
                init_ts_ns: init_ts,
                wire_msg: None,
            })
            .collect();
        spans.sort_by_key(|s| s.id);
        for ev in self.ring.iter() {
            if ev.op.is_none() {
                continue;
            }
            let Ok(i) = spans.binary_search_by_key(&ev.op.id, |s| s.id) else {
                continue;
            };
            let s = &mut spans[i];
            s.kind = Some(ev.op.kind);
            // Events arrive in ring (= lifecycle) order, so the last one
            // seen for the op is its current phase.
            match ev.kind {
                EventKind::Init => s.phase = "initiated",
                EventKind::NetInject { msg } => {
                    s.phase = "on-wire";
                    s.wire_msg = Some(msg);
                }
                // An open span with a Notify event should not exist (notify
                // closes it), but render it honestly if it does.
                EventKind::Notify { .. } => s.phase = "notified",
                _ => {}
            }
        }
        spans
    }

    /// Drain the recorded events (histograms are kept).
    pub fn take(&mut self) -> RankTrace {
        let (events, dropped) = self.ring.take();
        RankTrace {
            rank: self.rank,
            events,
            dropped,
        }
    }

    /// Snapshot the latency histograms accumulated so far.
    pub fn histograms(&self) -> Histograms {
        self.hist.clone()
    }

    /// Reset the accumulated latency histograms (open spans and buffered
    /// events are untouched — a span straddling the reset still records
    /// its notify, into the fresh histograms).
    pub fn reset_histograms(&mut self) {
        self.hist.reset();
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_lifecycle_feeds_histogram() {
        let mut t = RankTracer::new(3, LamportClocks::new(1));
        let op = t.op_init(OpKind::Put, 100, true);
        assert_eq!(op.id, 1);
        t.net_inject(op, 7, 110);
        t.notify(op, CompletionPath::Deferred, 1100);
        let h = t.histograms();
        let hist = h.get(OpKind::Put, CompletionPath::Deferred);
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.max(), 1000);
        let trace = t.take();
        assert_eq!(trace.rank, 3);
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.events[0].kind, EventKind::Init);
        assert_eq!(trace.events[1].kind, EventKind::NetInject { msg: 7 });
        assert_eq!(
            trace.events[2].kind,
            EventKind::Notify {
                path: CompletionPath::Deferred,
                latency_ns: 1000
            }
        );
        // seq is monotonic.
        assert!(trace.events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn fire_and_forget_leaves_no_open_span() {
        let mut t = RankTracer::new(0, LamportClocks::new(1));
        let op = t.op_init(OpKind::Rpc, 5, false);
        assert!(t.open.is_empty());
        // A stray notify records latency 0 and no histogram sample.
        t.notify(op, CompletionPath::Deferred, 50);
        assert!(t
            .histograms()
            .get(OpKind::Rpc, CompletionPath::Deferred)
            .is_empty());
    }

    #[test]
    fn none_op_is_ignored() {
        let mut t = RankTracer::new(0, LamportClocks::new(1));
        t.net_inject(TraceOp::NONE, 1, 10);
        t.notify(TraceOp::NONE, CompletionPath::Eager, 10);
        assert!(t.is_empty());
    }
}
