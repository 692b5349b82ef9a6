//! Cross-rank causal assembly: happens-before DAG, distributed
//! critical-path profiles, and per-op latency breakdowns.
//!
//! [`assemble`] is a pure function over a [`TraceBundle`]: it merges the
//! per-rank span traces and the world-global wire trace into one causally
//! ordered timeline, keyed by the Lamport stamps the conduits piggyback on
//! every message (PR 9). On top of the merged node set it builds the
//! happens-before DAG from four edge families:
//!
//! * **Program** — adjacent events within one rank, in `seq` order;
//! * **Wire** — the per-message wire-event chain (inject → drop → retry →
//!   deliver → dup) in recorded order;
//! * **Inject** — a rank's `NetInject`/`BatchFlush` event → the first wire
//!   event of the injected message;
//! * **SignalWake** — a wire `Signal { rank, token }` → the earliest
//!   unmatched `Wakeup { token }` on that rank that outstamps the signal
//!   (token values recur across completion sources; the Lamport filter
//!   rejects wakeups that logically precede the signal).
//!
//! Wall-clock sanity is checked edge-by-edge on the **Wire** and
//! **SignalWake** families: there, the destination *outstamps* its source
//! on the Lamport clock by construction (deliveries merge the carried
//! stamp; wakeups are matched by outstamping their signal), so a
//! destination with an *earlier* wall timestamp is a **causality
//! violation** — impossible under [`gasnex::ClockMode::Virtual`] (the
//! virtual clock is the causal order), but a real hazard for the UDP
//! conduit, where each OS process stamps events from its own monotonic
//! clock and skew can reorder them. Program-order edges are exempt
//! wholesale (a rank's own clock cannot disagree with itself), and so are
//! Inject edges: they tie together two recordings of the same injection
//! by the same process, whose stamps may come from different clock slots
//! when the injection carried no routing hint.
//!
//! The **distributed critical path** is the longest (ns, then hops) path
//! through the DAG, found by a deterministic Kahn traversal (ready nodes
//! drained in `(lclock, lane, seq)` order). Each hop is attributed to a
//! rank (wire hops charge the injecting rank) and a pipeline [`Segment`].
//!
//! The **per-op breakdown** ([`CausalAssembly::op_breakdown`]) charges the
//! same [`Segment`] taxonomy per completed op, so the two profiles speak
//! one language. It walks each op's milestones init → inject → deliver →
//! signal → wakeup → notify, taking the delivery and the drop→retry
//! backoff from the message's wire chain and the signal from the
//! SignalWake edge into the wakeup that preceded the notify. Milestones
//! are clamped monotone into `[init, notify]` and every segment is the gap
//! between two consecutive ones, so the segments sum *exactly* to the
//! measured latency; a milestone the trace lacks is a zero-width segment,
//! and time no milestone explains lands in the segment after the last
//! recorded one rather than being hidden.
//!
//! Everything here is deterministic: canonical node order is
//! `(lclock, lane, seq)`, edges are built in a fixed sweep order, and the
//! text render uses only integer formatting — two assemblies of the same
//! bundle are byte-identical (`simtest/tests/causal.rs` locks this across
//! chaos plans).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write as _;

use super::export::TraceBundle;
use super::{CompletionPath, EventKind, NetEventKind, OpKind, RankTrace};

/// Synthetic lane id for wire-level events (no rank can be `u32::MAX`:
/// the conduits cap rank counts far below it).
pub const WIRE_LANE: u32 = u32::MAX;

/// What a timeline node is — enough structure for edge construction,
/// segment attribution, and the exporters, without re-embedding the full
/// event payloads (the `label` carries those for humans).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeClass {
    /// Rank-side: `Init`.
    Init,
    /// Rank-side: `NetInject`.
    Inject,
    /// Rank-side: `Notify`.
    Notify,
    /// Rank-side: `Wakeup`.
    Wakeup,
    /// Rank-side: `Drain`.
    Drain,
    /// Rank-side: `BatchFlush`.
    BatchFlush,
    /// Rank-side: `Signal` (badge consumption).
    RankSignal,
    /// Rank-side: `CallbackRun` (continuation executed).
    CallbackRun,
    /// Wire: `Inject`.
    WireInject,
    /// Wire: `Drop`.
    WireDrop,
    /// Wire: `Retry`.
    WireRetry,
    /// Wire: `Deliver`.
    WireDeliver,
    /// Wire: `DupDiscard`.
    WireDup,
    /// Wire: `Signal` (completion routed to the initiator).
    WireSignal,
}

/// One node of the assembled timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CausalNode {
    /// Source lane: a rank id, or [`WIRE_LANE`] for wire events.
    pub lane: u32,
    /// Per-lane recording order (rank `seq`, or wire trace index).
    pub seq: u64,
    pub ts_ns: u64,
    /// Lamport stamp — the canonical ordering key.
    pub lclock: u64,
    pub class: NodeClass,
    /// Wire message id, when the node concerns one.
    pub msg: Option<u64>,
    /// Deterministic human-readable description.
    pub label: String,
}

/// Happens-before edge family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// Adjacent events on one rank.
    Program,
    /// Consecutive wire events of one message.
    Wire,
    /// Rank injection event → first wire event of the message.
    Inject,
    /// Wire completion signal → the waiter's wakeup.
    SignalWake,
}

impl EdgeKind {
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::Program => "program",
            EdgeKind::Wire => "wire",
            EdgeKind::Inject => "inject",
            EdgeKind::SignalWake => "signal_wake",
        }
    }
}

/// One happens-before edge (indices into [`CausalAssembly::nodes`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CausalEdge {
    pub from: usize,
    pub to: usize,
    pub kind: EdgeKind,
}

/// A pipeline segment of one operation's completion latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Segment {
    /// Initiation bookkeeping: op init → network injection.
    Initiation = 0,
    /// Chaos retransmission waits: Σ (retry − drop) for the op's message.
    Backoff = 1,
    /// Wire time excluding backoff: injection → delivery minus backoff.
    Transit = 2,
    /// Delivery action → initiator-side completion signal routing.
    DeliverToSignal = 3,
    /// Signal deposited → the initiator's progress quantum drained it.
    SignalToWakeup = 4,
    /// Wakeup → the notification callback recorded the notify.
    WakeupToNotify = 5,
    /// Rank-local deferred delivery (ops that never touched the wire):
    /// init → notify via the deferred queue.
    QueueWait = 6,
}

impl Segment {
    pub const COUNT: usize = 7;

    pub const ALL: [Segment; Segment::COUNT] = [
        Segment::Initiation,
        Segment::Backoff,
        Segment::Transit,
        Segment::DeliverToSignal,
        Segment::SignalToWakeup,
        Segment::WakeupToNotify,
        Segment::QueueWait,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Segment::Initiation => "initiation",
            Segment::Backoff => "backoff",
            Segment::Transit => "transit",
            Segment::DeliverToSignal => "deliver_to_signal",
            Segment::SignalToWakeup => "signal_to_wakeup",
            Segment::WakeupToNotify => "wakeup_to_notify",
            Segment::QueueWait => "queue_wait",
        }
    }
}

/// One completed operation's latency, attributed to pipeline segments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpBreakdown {
    pub rank: u32,
    pub op_id: u64,
    pub kind: OpKind,
    pub path: CompletionPath,
    pub latency_ns: u64,
    /// Nanoseconds attributed to each [`Segment`] (indexed by the enum's
    /// discriminant); sums exactly to `latency_ns`.
    pub segments: [u64; Segment::COUNT],
}

impl OpBreakdown {
    pub fn segment_sum(&self) -> u64 {
        self.segments.iter().sum()
    }
}

/// One hop of the distributed critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathStep {
    /// Index into [`CausalAssembly::nodes`].
    pub node: usize,
    /// The edge that reached this node (`None` for the path source).
    pub via: Option<EdgeKind>,
    /// Wall nanoseconds this hop contributed.
    pub dt_ns: u64,
    /// Rank charged for the hop (wire hops charge the injecting rank;
    /// [`WIRE_LANE`] when no rank claimed the message).
    pub rank: u32,
    /// Pipeline segment charged for the hop (`None` for the source).
    pub segment: Option<Segment>,
}

/// Causal chain length of one completed operation: its own span events,
/// plus the wire events of every message it injected, plus one drain hop
/// when the completion was deferred. Eager local completions are the
/// 2-node floor (init → notify); every deferral or wire crossing grows
/// the chain — the quantity `BENCH_causal.json` pins eager < defer on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpChain {
    pub rank: u32,
    pub op_id: u64,
    pub path: CompletionPath,
    pub len: u64,
}

/// The assembled causal timeline, DAG, and critical-path profile.
#[derive(Clone, Debug, Default)]
pub struct CausalAssembly {
    /// Timeline in canonical `(lclock, lane, seq)` order.
    pub nodes: Vec<CausalNode>,
    /// Happens-before edges, in deterministic construction order.
    pub edges: Vec<CausalEdge>,
    /// Wire/SignalWake edges whose destination outstamps the source on
    /// the Lamport clock yet carries an earlier wall timestamp. Always 0
    /// when one clock stamps every event (virtual clock, or any
    /// single-process run); nonzero flags cross-process clock skew on the
    /// UDP conduit.
    pub violations: u64,
    /// Longest path length in hops — the depth of the causal chain.
    pub chain_depth: u64,
    /// The longest (ns, hops) root-to-sink path, source first.
    pub critical_path: Vec<PathStep>,
    /// Per completed op: causal chain length (see [`OpChain`]).
    pub op_chains: Vec<OpChain>,
    /// Per completed op: latency attributed to pipeline segments (see the
    /// module docs), in the same `(rank, op_id)` order as `op_chains`.
    pub op_breakdown: Vec<OpBreakdown>,
}

impl CausalAssembly {
    /// Total happens-before edges.
    pub fn hb_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Wall-ns span of the critical path.
    pub fn critical_span_ns(&self) -> u64 {
        self.critical_path.iter().map(|s| s.dt_ns).sum()
    }

    /// Mean causal chain length over completed ops on `path`, in
    /// milli-hops (integer math; `None` when no op completed on `path`).
    pub fn mean_chain_len_milli(&self, path: CompletionPath) -> Option<u64> {
        let mut n = 0u64;
        let mut sum = 0u64;
        for c in self.op_chains.iter().filter(|c| c.path == path) {
            n += 1;
            sum += c.len;
        }
        (sum * 1000).checked_div(n)
    }

    /// Critical-path time charged per (rank, segment), sorted by rank then
    /// segment discriminant. [`WIRE_LANE`] collects hops no rank claimed.
    pub fn profile(&self) -> Vec<(u32, Segment, u64)> {
        let mut acc: Vec<(u32, Segment, u64)> = Vec::new();
        for step in &self.critical_path {
            let Some(seg) = step.segment else { continue };
            match acc
                .iter_mut()
                .find(|(r, s, _)| *r == step.rank && *s == seg)
            {
                Some((_, _, ns)) => *ns += step.dt_ns,
                None => acc.push((step.rank, seg, step.dt_ns)),
            }
        }
        acc.sort_by_key(|&(r, s, _)| (r, s as usize));
        acc
    }

    fn lane_name(lane: u32) -> String {
        if lane == WIRE_LANE {
            "wire".to_string()
        } else {
            format!("rank {lane}")
        }
    }

    /// Deterministic plain-text render: the merged timeline, the critical
    /// path, and the per-rank segment profile.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "causal timeline v1: nodes={} hb_edges={} violations={} chain_depth={}",
            self.nodes.len(),
            self.hb_edges(),
            self.violations,
            self.chain_depth
        );
        let _ = writeln!(
            out,
            "  {:<8} {:>8} {:>12}  event",
            "lane", "lclock", "ts(ns)"
        );
        for n in &self.nodes {
            let _ = writeln!(
                out,
                "  {:<8} {:>8} {:>12}  {}",
                Self::lane_name(n.lane),
                n.lclock,
                n.ts_ns,
                n.label
            );
        }
        let _ = writeln!(
            out,
            "critical path: hops={} span={}ns",
            self.chain_depth,
            self.critical_span_ns()
        );
        for step in &self.critical_path {
            let n = &self.nodes[step.node];
            match (step.via, step.segment) {
                (Some(via), Some(seg)) => {
                    let _ = writeln!(
                        out,
                        "  +{}ns via {} [{}] -> {} lclock={} {}",
                        step.dt_ns,
                        via.name(),
                        seg.name(),
                        Self::lane_name(n.lane),
                        n.lclock,
                        n.label
                    );
                }
                _ => {
                    let _ = writeln!(
                        out,
                        "  start {} lclock={} {}",
                        Self::lane_name(n.lane),
                        n.lclock,
                        n.label
                    );
                }
            }
        }
        let profile = self.profile();
        let _ = writeln!(out, "profile (rank x segment):");
        if profile.is_empty() {
            let _ = writeln!(out, "  (empty)");
        }
        for (rank, seg, ns) in profile {
            let _ = writeln!(out, "  {}: {}={}ns", Self::lane_name(rank), seg.name(), ns);
        }
        let _ = write!(out, "chain length (milli-hops):");
        for path in CompletionPath::ALL {
            match self.mean_chain_len_milli(path) {
                Some(m) => {
                    let _ = write!(out, " {}={}", path.name(), m);
                }
                None => {
                    let _ = write!(out, " {}=-", path.name());
                }
            }
        }
        out.push('\n');
        out
    }
}

/// Which pipeline segment a hop into `dst` via `kind` charges.
fn hop_segment(kind: EdgeKind, dst: &CausalNode) -> Segment {
    match kind {
        EdgeKind::Inject => Segment::Initiation,
        EdgeKind::SignalWake => Segment::SignalToWakeup,
        EdgeKind::Wire => match dst.class {
            NodeClass::WireRetry => Segment::Backoff,
            NodeClass::WireSignal => Segment::DeliverToSignal,
            _ => Segment::Transit,
        },
        EdgeKind::Program => match dst.class {
            NodeClass::Inject | NodeClass::BatchFlush => Segment::Initiation,
            NodeClass::Notify => Segment::WakeupToNotify,
            _ => Segment::QueueWait,
        },
    }
}

fn rank_node(rank: u32, e: &super::TraceEvent) -> CausalNode {
    let (class, msg, label) = match e.kind {
        EventKind::Init => (
            NodeClass::Init,
            None,
            format!("init {}#{}", e.op.kind.name(), e.op.id),
        ),
        EventKind::NetInject { msg } => (
            NodeClass::Inject,
            Some(msg),
            format!("inject {}#{} msg={}", e.op.kind.name(), e.op.id, msg),
        ),
        EventKind::Notify { path, latency_ns } => (
            NodeClass::Notify,
            None,
            format!(
                "notify {}#{} {} latency={}ns",
                e.op.kind.name(),
                e.op.id,
                path.name(),
                latency_ns
            ),
        ),
        EventKind::Wakeup { token } => (NodeClass::Wakeup, None, format!("wakeup token={token}")),
        EventKind::Drain { items } => (NodeClass::Drain, None, format!("drain items={items}")),
        EventKind::BatchFlush { msg, ops, reason } => (
            NodeClass::BatchFlush,
            Some(msg),
            format!(
                "batch_flush msg={} ops={} reason={}",
                msg,
                ops,
                reason.name()
            ),
        ),
        EventKind::Signal { word, badge } => (
            NodeClass::RankSignal,
            None,
            format!("signal word={word} badge={badge}"),
        ),
        EventKind::CallbackRun => (
            NodeClass::CallbackRun,
            None,
            format!("callback {}#{}", e.op.kind.name(), e.op.id),
        ),
    };
    CausalNode {
        lane: rank,
        seq: e.seq,
        ts_ns: e.ts_ns,
        lclock: e.lclock,
        class,
        msg,
        label,
    }
}

fn wire_node(idx: usize, e: &super::NetTraceEvent) -> CausalNode {
    let (class, msg, label) = match e.kind {
        NetEventKind::Inject => (
            NodeClass::WireInject,
            Some(e.msg),
            format!("net:inject msg={}", e.msg),
        ),
        NetEventKind::Drop { backoff_ns } => (
            NodeClass::WireDrop,
            Some(e.msg),
            format!(
                "net:drop msg={} attempt={} backoff={}ns",
                e.msg, e.attempt, backoff_ns
            ),
        ),
        NetEventKind::Retry => (
            NodeClass::WireRetry,
            Some(e.msg),
            format!("net:retry msg={} attempt={}", e.msg, e.attempt),
        ),
        NetEventKind::Deliver => (
            NodeClass::WireDeliver,
            Some(e.msg),
            format!("net:deliver msg={} attempt={}", e.msg, e.attempt),
        ),
        NetEventKind::DupDiscard => (
            NodeClass::WireDup,
            Some(e.msg),
            format!("net:dup msg={}", e.msg),
        ),
        NetEventKind::Signal { rank, token } => (
            NodeClass::WireSignal,
            None,
            format!("net:signal rank={rank} token={token}"),
        ),
    };
    CausalNode {
        lane: WIRE_LANE,
        seq: idx as u64,
        ts_ns: e.ts_ns,
        lclock: e.lclock,
        class,
        msg,
        label,
    }
}

/// What one message's wire chain contributes to its op's latency: when it
/// was delivered, and how long it sat on retransmission timers (the sum of
/// each drop → retry gap).
#[derive(Clone, Copy, Default)]
struct WireTimes {
    deliver_ts: Option<u64>,
    backoff_ns: u64,
}

fn wire_times(chain: &[usize], nodes: &[CausalNode]) -> WireTimes {
    let mut w = WireTimes::default();
    let mut open_drop = None;
    for n in chain.iter().map(|&i| &nodes[i]) {
        match n.class {
            NodeClass::WireDrop => open_drop = Some(n.ts_ns),
            NodeClass::WireRetry => {
                if let Some(d) = open_drop.take() {
                    w.backoff_ns += n.ts_ns.saturating_sub(d);
                }
            }
            NodeClass::WireDeliver => w.deliver_ts = Some(n.ts_ns),
            _ => {}
        }
    }
    w
}

/// Advance a milestone: clamp `t` (if recorded) into `[prev, end]`,
/// otherwise stay at `prev` (zero-width segment).
fn step(prev: u64, t: Option<u64>, end: u64) -> u64 {
    t.map_or(prev, |t| t.clamp(prev, end))
}

/// Per completed op, from one sweep over each rank's events: its causal
/// chain length, and its latency attributed along the milestone chain
/// (see the module docs). `woken_by` maps a wakeup node to the signal
/// node its SignalWake edge comes from.
fn per_op(
    ranks: &[&RankTrace],
    nodes: &[CausalNode],
    by_id: &HashMap<(u32, u64), usize>,
    msg_chain: &HashMap<u64, Vec<usize>>,
    woken_by: &HashMap<usize, usize>,
) -> (Vec<OpChain>, Vec<OpBreakdown>) {
    let mut chains = Vec::new();
    let mut breakdowns = Vec::new();
    for trace in ranks {
        // op id → (own event count, wire event count of injected msgs,
        // last injection as (ts, msg)).
        type Acc = (u64, u64, Option<(u64, u64)>);
        let mut acc: HashMap<u64, Acc> = HashMap::new();
        // The nearest preceding wakeup: the engine records `Wakeup` and
        // then runs the callback whose notify follows it in seq order.
        let mut last_wakeup: Option<usize> = None;
        for e in &trace.events {
            if let EventKind::Wakeup { .. } = e.kind {
                last_wakeup = Some(by_id[&(trace.rank, e.seq)]);
            }
            if e.op.is_none() {
                continue;
            }
            let slot = acc.entry(e.op.id).or_default();
            slot.0 += 1;
            if let EventKind::NetInject { msg } = e.kind {
                slot.1 += msg_chain.get(&msg).map_or(0, |c| c.len() as u64);
                slot.2 = Some((e.ts_ns, msg));
            }
            let EventKind::Notify { path, latency_ns } = e.kind else {
                continue;
            };
            let (own, wire, injected) = acc.remove(&e.op.id).unwrap_or_default();
            let drain_hop = u64::from(path == CompletionPath::Deferred);
            chains.push(OpChain {
                rank: trace.rank,
                op_id: e.op.id,
                path,
                len: own + wire + drain_hop,
            });

            let notify_ts = e.ts_ns;
            let init_ts = notify_ts.saturating_sub(latency_ns);
            let mut segments = [0u64; Segment::COUNT];
            match injected {
                Some((inject_ts, msg)) => {
                    let wire = msg_chain
                        .get(&msg)
                        .map(|c| wire_times(c, nodes))
                        .unwrap_or_default();
                    let signal_ts = last_wakeup
                        .and_then(|w| woken_by.get(&w))
                        .map(|&s| nodes[s].ts_ns);
                    let wakeup_ts = last_wakeup.map(|w| nodes[w].ts_ns);
                    let m1 = step(init_ts, Some(inject_ts), notify_ts);
                    let m2 = step(m1, wire.deliver_ts, notify_ts);
                    let m3 = step(m2, signal_ts, notify_ts);
                    let m4 = step(m3, wakeup_ts, notify_ts);
                    let backoff = wire.backoff_ns.min(m2 - m1);
                    segments[Segment::Initiation as usize] = m1 - init_ts;
                    segments[Segment::Backoff as usize] = backoff;
                    segments[Segment::Transit as usize] = (m2 - m1) - backoff;
                    segments[Segment::DeliverToSignal as usize] = m3 - m2;
                    segments[Segment::SignalToWakeup as usize] = m4 - m3;
                    segments[Segment::WakeupToNotify as usize] = notify_ts - m4;
                }
                // Never touched the wire: a local op delivered eagerly
                // (latency 0) or via the deferred queue.
                None => segments[Segment::QueueWait as usize] = latency_ns,
            }
            breakdowns.push(OpBreakdown {
                rank: trace.rank,
                op_id: e.op.id,
                kind: e.op.kind,
                path,
                latency_ns,
                segments,
            });
        }
    }
    chains.sort_by_key(|c| (c.rank, c.op_id));
    breakdowns.sort_by_key(|b| (b.rank, b.op_id));
    (chains, breakdowns)
}

/// Merge a bundle's rank and wire traces into a causal timeline, build
/// the happens-before DAG, and profile the distributed critical path.
/// Pure and deterministic; see the module docs.
pub fn assemble(bundle: &TraceBundle) -> CausalAssembly {
    let mut ranks: Vec<&RankTrace> = bundle.ranks.iter().collect();
    ranks.sort_by_key(|r| r.rank);

    // --- Nodes, then canonical (lclock, lane, seq) order. ---
    let mut nodes: Vec<CausalNode> = Vec::new();
    for r in &ranks {
        for e in &r.events {
            nodes.push(rank_node(r.rank, e));
        }
    }
    for (i, e) in bundle.net.iter().enumerate() {
        nodes.push(wire_node(i, e));
    }
    nodes.sort_by(|a, b| {
        (a.lclock, a.lane, a.seq)
            .cmp(&(b.lclock, b.lane, b.seq))
            .then_with(|| a.label.cmp(&b.label))
    });
    // (lane, seq) → canonical index.
    let by_id: HashMap<(u32, u64), usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| ((n.lane, n.seq), i))
        .collect();

    // --- Edges, in a fixed sweep order. ---
    let mut edges: Vec<CausalEdge> = Vec::new();

    // Program order: adjacent events per rank.
    for r in &ranks {
        for w in r.events.windows(2) {
            edges.push(CausalEdge {
                from: by_id[&(r.rank, w[0].seq)],
                to: by_id[&(r.rank, w[1].seq)],
                kind: EdgeKind::Program,
            });
        }
    }

    // Wire chains: consecutive wire events of each message, in recorded
    // order (signals are not message events and stay out of the chains).
    let mut msg_chain: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut msg_order: Vec<u64> = Vec::new();
    for (i, e) in bundle.net.iter().enumerate() {
        if matches!(e.kind, NetEventKind::Signal { .. }) {
            continue;
        }
        let chain = msg_chain.entry(e.msg).or_insert_with(|| {
            msg_order.push(e.msg);
            Vec::new()
        });
        chain.push(by_id[&(WIRE_LANE, i as u64)]);
    }
    for m in &msg_order {
        for w in msg_chain[m].windows(2) {
            edges.push(CausalEdge {
                from: w[0],
                to: w[1],
                kind: EdgeKind::Wire,
            });
        }
    }

    // Inject fan-in: rank injection event → first wire event of the
    // message. Also remember which rank injected each message, for
    // critical-path attribution of wire hops.
    let mut msg_rank: HashMap<u64, u32> = HashMap::new();
    for r in &ranks {
        for e in &r.events {
            let msg = match e.kind {
                EventKind::NetInject { msg } => msg,
                EventKind::BatchFlush { msg, .. } => msg,
                _ => continue,
            };
            msg_rank.entry(msg).or_insert(r.rank);
            if let Some(chain) = msg_chain.get(&msg) {
                edges.push(CausalEdge {
                    from: by_id[&(r.rank, e.seq)],
                    to: chain[0],
                    kind: EdgeKind::Inject,
                });
            }
        }
    }

    // Signal → wakeup: each wire Signal{rank, token} wakes the earliest
    // unmatched Wakeup{token} on that rank whose Lamport stamp *follows*
    // the signal's. Token values are only unique per completion source, so
    // an unrelated wakeup (say, a local deferred op) can carry the same
    // token; the stamp filter keeps it from mispairing — the signal routing
    // and the waiter's tracer tick the same per-rank clock slot, so the
    // caused wakeup always outstamps its signal.
    let mut wakeups: HashMap<(u32, u64), Vec<usize>> = HashMap::new();
    for r in &ranks {
        for e in &r.events {
            if let EventKind::Wakeup { token } = e.kind {
                wakeups
                    .entry((r.rank, token))
                    .or_default()
                    .push(by_id[&(r.rank, e.seq)]);
            }
        }
    }
    for (i, e) in bundle.net.iter().enumerate() {
        if let NetEventKind::Signal { rank, token } = e.kind {
            if let Some(q) = wakeups.get_mut(&(rank, token)) {
                // Recorded in seq (= lclock) order, so the first stamp
                // match is the earliest eligible wakeup.
                if let Some(pos) = q.iter().position(|&w| nodes[w].lclock > e.lclock) {
                    let w = q.remove(pos);
                    edges.push(CausalEdge {
                        from: by_id[&(WIRE_LANE, i as u64)],
                        to: w,
                        kind: EdgeKind::SignalWake,
                    });
                }
            }
        }
    }

    // --- Causality violations: wall time contradicting Lamport order. ---
    // Only Wire and SignalWake edges are eligible. Those are the edges
    // whose endpoint stamps are ordered by the Lamport discipline itself —
    // a delivery *merges* the carried stamp into the receiver's clock, and
    // a wakeup is matched to its signal by outstamping it — so a
    // destination with an earlier wall timestamp can only mean the two
    // recording clocks disagree (cross-process skew). Program-order edges
    // are exempt wholesale: one rank's clock cannot skew against itself.
    // Inject edges are exempt too: they connect two recordings of the
    // *same* injection by the same process (the op-layer span event and
    // the conduit's wire event), whose stamps may come from different
    // clock slots when the injection carried no routing hint — the pair
    // makes neither a Lamport-order nor a wall-order claim.
    let violations = edges
        .iter()
        .filter(|e| matches!(e.kind, EdgeKind::Wire | EdgeKind::SignalWake))
        .filter(|e| nodes[e.to].lclock > nodes[e.from].lclock)
        .filter(|e| nodes[e.to].ts_ns < nodes[e.from].ts_ns)
        .count() as u64;

    // --- Longest-path DP: deterministic Kahn order. ---
    let n = nodes.len();
    let mut out_adj: Vec<Vec<(usize, EdgeKind)>> = vec![Vec::new(); n];
    let mut indeg: Vec<usize> = vec![0; n];
    for e in &edges {
        out_adj[e.from].push((e.to, e.kind));
        indeg[e.to] += 1;
    }
    // dist = (wall ns along the path, hops); parent = arriving edge.
    let mut dist: Vec<(u64, u64)> = vec![(0, 0); n];
    let mut parent: Vec<Option<(usize, EdgeKind)>> = vec![None; n];
    let mut done: Vec<bool> = vec![false; n];
    let key = |i: usize, nodes: &[CausalNode]| (nodes[i].lclock, nodes[i].lane, nodes[i].seq, i);
    let mut heap: BinaryHeap<Reverse<(u64, u32, u64, usize)>> = BinaryHeap::new();
    for (i, &d) in indeg.iter().enumerate() {
        if d == 0 {
            heap.push(Reverse(key(i, &nodes)));
        }
    }
    while let Some(Reverse((_, _, _, u))) = heap.pop() {
        done[u] = true;
        for &(v, kind) in &out_adj[u] {
            let dt = nodes[v].ts_ns.saturating_sub(nodes[u].ts_ns);
            let cand = (dist[u].0 + dt, dist[u].1 + 1);
            // Strictly-greater update + fixed edge order = deterministic
            // parent choice.
            if cand > dist[v] {
                dist[v] = cand;
                parent[v] = Some((u, kind));
            }
            indeg[v] -= 1;
            if indeg[v] == 0 {
                heap.push(Reverse(key(v, &nodes)));
            }
        }
    }
    // A cycle (possible only with hand-corrupted traces) leaves nodes
    // unprocessed; they are simply not path candidates.
    let chain_depth = (0..n)
        .filter(|&i| done[i])
        .map(|i| dist[i].1)
        .max()
        .unwrap_or(0);
    let sink = (0..n).filter(|&i| done[i]).max_by(|&a, &b| {
        dist[a]
            .cmp(&dist[b])
            .then_with(|| key(b, &nodes).cmp(&key(a, &nodes)))
    });

    // --- Backtrack the critical path and attribute each hop. ---
    let mut critical_path = Vec::new();
    if let Some(sink) = sink {
        let mut rev: Vec<(usize, Option<EdgeKind>)> = Vec::new();
        let mut cur = sink;
        loop {
            match parent[cur] {
                Some((p, kind)) => {
                    rev.push((cur, Some(kind)));
                    cur = p;
                }
                None => {
                    rev.push((cur, None));
                    break;
                }
            }
        }
        rev.reverse();
        let mut prev_ts: Option<u64> = None;
        for (node, via) in rev {
            let nref = &nodes[node];
            let dt_ns = prev_ts.map_or(0, |p| nref.ts_ns.saturating_sub(p));
            prev_ts = Some(nref.ts_ns);
            let rank = if nref.lane != WIRE_LANE {
                nref.lane
            } else {
                nref.msg
                    .and_then(|m| msg_rank.get(&m).copied())
                    .unwrap_or(WIRE_LANE)
            };
            let segment = via.map(|k| hop_segment(k, nref));
            critical_path.push(PathStep {
                node,
                via,
                dt_ns,
                rank,
                segment,
            });
        }
    }

    // --- Per-op chain lengths and latency breakdowns. ---
    let woken_by: HashMap<usize, usize> = edges
        .iter()
        .filter(|e| e.kind == EdgeKind::SignalWake)
        .map(|e| (e.to, e.from))
        .collect();
    let (op_chains, op_breakdown) = per_op(&ranks, &nodes, &by_id, &msg_chain, &woken_by);

    CausalAssembly {
        nodes,
        edges,
        violations,
        chain_depth,
        critical_path,
        op_chains,
        op_breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::super::{LamportClocks, NetTraceEvent, OpKind, RankTracer};
    use super::*;

    fn net(ts: u64, lclock: u64, msg: u64, attempt: u32, kind: NetEventKind) -> NetTraceEvent {
        NetTraceEvent {
            ts_ns: ts,
            msg,
            attempt,
            kind,
            lclock,
        }
    }

    /// Rank 0 puts to rank 1 over the wire; the completion signal wakes
    /// rank 0's waiter. Covers all four edge families.
    fn remote_put_bundle() -> TraceBundle {
        let mut t0 = RankTracer::new(0, LamportClocks::new(1));
        let op = t0.op_init(OpKind::Put, 100, true); // lclock 1
        t0.net_inject(op, 7, 120); // lclock 2
        t0.wakeup(3, 900); // lclock 3
        t0.notify(op, CompletionPath::Deferred, 950); // lclock 4
        TraceBundle {
            ranks: vec![t0.take()],
            net: vec![
                // Wire stamps carry the sender's post-tick (2 = the
                // inject); the completion signal ticks the initiator
                // rank's slot *before* the waiter's wakeup records, so it
                // must stamp below the wakeup's 3.
                net(130, 2, 7, 0, NetEventKind::Inject),
                net(600, 2, 7, 0, NetEventKind::Deliver),
                net(
                    700,
                    2,
                    u64::MAX,
                    0,
                    NetEventKind::Signal { rank: 0, token: 3 },
                ),
            ],
        }
    }

    #[test]
    fn assembles_all_edge_families() {
        let a = assemble(&remote_put_bundle());
        assert_eq!(a.nodes.len(), 7);
        let count = |k: EdgeKind| a.edges.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(EdgeKind::Program), 3);
        assert_eq!(count(EdgeKind::Wire), 1); // inject → deliver
        assert_eq!(count(EdgeKind::Inject), 1);
        assert_eq!(count(EdgeKind::SignalWake), 1);
        assert_eq!(a.violations, 0);
        // Longest chain: init → inject → wire-inject → deliver … signal →
        // wakeup → notify is cut at deliver (no deliver→signal edge), so
        // the deepest path runs through the signal wake: signal → wakeup
        // → notify after init → inject → wire chain. Depth ≥ 3 regardless.
        assert!(a.chain_depth >= 3, "depth {}", a.chain_depth);
        assert!(!a.critical_path.is_empty());
        let span: u64 = a.critical_path.iter().map(|s| s.dt_ns).sum();
        assert_eq!(span, a.critical_span_ns());
        // Every hop after the source carries a segment and a rank.
        for s in &a.critical_path[1..] {
            assert!(s.segment.is_some());
        }
    }

    #[test]
    fn assembly_is_deterministic() {
        let a = assemble(&remote_put_bundle());
        let b = assemble(&remote_put_bundle());
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.edges, b.edges);
    }

    #[test]
    fn canonical_order_is_lclock_major() {
        let a = assemble(&remote_put_bundle());
        for w in a.nodes.windows(2) {
            assert!(
                (w[0].lclock, w[0].lane, w[0].seq) <= (w[1].lclock, w[1].lane, w[1].seq),
                "canonical order broken: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn skewed_wall_clocks_trip_violations() {
        // Deliver stamped *earlier* than inject on the wall clock — the
        // UDP cross-process skew hazard. Lamport order still holds.
        let mut t0 = RankTracer::new(0, LamportClocks::new(1));
        let op = t0.op_init(OpKind::Put, 1_000, true);
        t0.net_inject(op, 7, 1_010);
        let bundle = TraceBundle {
            ranks: vec![t0.take()],
            net: vec![
                net(1_020, 3, 7, 0, NetEventKind::Inject),
                net(400, 4, 7, 0, NetEventKind::Deliver), // skewed backwards
            ],
        };
        let a = assemble(&bundle);
        assert_eq!(a.violations, 1);
        // Program edges are exempt even if a rank trace were weird.
        assert!(a.edges.iter().any(|e| e.kind == EdgeKind::Wire));
    }

    #[test]
    fn virtual_clock_style_bundle_has_zero_violations() {
        let a = assemble(&remote_put_bundle());
        assert_eq!(a.violations, 0);
    }

    #[test]
    fn op_chain_lengths_separate_eager_from_deferred() {
        let mut t = RankTracer::new(0, LamportClocks::new(1));
        let e = t.op_init(OpKind::Amo, 10, true);
        t.notify(e, CompletionPath::Eager, 10); // chain: 2
        let d = t.op_init(OpKind::Put, 20, true);
        t.notify(d, CompletionPath::Deferred, 500); // chain: 3
        let bundle = TraceBundle {
            ranks: vec![t.take()],
            net: vec![],
        };
        let a = assemble(&bundle);
        assert_eq!(a.op_chains.len(), 2);
        assert_eq!(a.mean_chain_len_milli(CompletionPath::Eager), Some(2_000));
        assert_eq!(
            a.mean_chain_len_milli(CompletionPath::Deferred),
            Some(3_000)
        );
    }

    #[test]
    fn wire_crossing_lengthens_the_chain() {
        let a = assemble(&remote_put_bundle());
        // init + inject + notify (3) + wire inject/deliver (2) + drain hop
        // (1) = 6.
        assert_eq!(a.op_chains.len(), 1);
        assert_eq!(a.op_chains[0].len, 6);
    }

    /// A remote put with one drop/retry cycle: every wire segment is
    /// populated, and the signal comes from the SignalWake edge.
    #[test]
    fn breakdown_of_remote_op_with_retry_fills_every_segment() {
        let mut t = RankTracer::new(0, LamportClocks::new(1));
        let op = t.op_init(OpKind::Put, 100, true); // lclock 1
        t.net_inject(op, 7, 110); // lclock 2
        t.wakeup(3, 2_450); // lclock 3
        t.notify(op, CompletionPath::Deferred, 2_500); // lclock 4
        let bundle = TraceBundle {
            ranks: vec![t.take()],
            net: vec![
                net(110, 2, 7, 0, NetEventKind::Inject),
                net(500, 2, 7, 0, NetEventKind::Drop { backoff_ns: 700 }),
                net(1_200, 2, 7, 1, NetEventKind::Retry),
                net(2_000, 3, 7, 1, NetEventKind::Deliver),
                net(
                    2_100,
                    2,
                    u64::MAX,
                    0,
                    NetEventKind::Signal { rank: 0, token: 3 },
                ),
            ],
        };
        let a = assemble(&bundle);
        assert_eq!(a.op_breakdown.len(), 1);
        let o = &a.op_breakdown[0];
        assert_eq!(o.latency_ns, 2_400);
        assert_eq!(o.segment_sum(), o.latency_ns, "segments must sum exactly");
        assert_eq!(o.segments[Segment::Initiation as usize], 10);
        assert_eq!(o.segments[Segment::Backoff as usize], 700);
        assert_eq!(o.segments[Segment::Transit as usize], 1_890 - 700);
        assert_eq!(o.segments[Segment::DeliverToSignal as usize], 100);
        assert_eq!(o.segments[Segment::SignalToWakeup as usize], 350);
        assert_eq!(o.segments[Segment::WakeupToNotify as usize], 50);
        assert_eq!(o.segments[Segment::QueueWait as usize], 0);
    }

    #[test]
    fn breakdown_of_local_deferred_op_is_queue_wait() {
        let mut t = RankTracer::new(1, LamportClocks::new(1));
        let op = t.op_init(OpKind::Amo, 50, true);
        t.notify(op, CompletionPath::Deferred, 950);
        let a = assemble(&TraceBundle {
            ranks: vec![t.take()],
            net: vec![],
        });
        let o = &a.op_breakdown[0];
        assert_eq!(o.segments[Segment::QueueWait as usize], 900);
        assert_eq!(o.segment_sum(), 900);
    }

    #[test]
    fn breakdown_of_eager_op_is_zero_width() {
        let mut t = RankTracer::new(0, LamportClocks::new(1));
        let op = t.op_init(OpKind::Put, 10, true);
        t.notify(op, CompletionPath::Eager, 10);
        let a = assemble(&TraceBundle {
            ranks: vec![t.take()],
            net: vec![],
        });
        assert_eq!(a.op_breakdown.len(), 1);
        assert_eq!(a.op_breakdown[0].path, CompletionPath::Eager);
        assert_eq!(a.op_breakdown[0].latency_ns, 0);
        assert_eq!(a.op_breakdown[0].segment_sum(), 0);
    }

    #[test]
    fn breakdown_without_wire_trace_still_sums_exactly() {
        // Wire trace lost (e.g. net tracing off): everything after inject
        // collapses into the trailing segment, but the sum invariant holds.
        let mut t = RankTracer::new(0, LamportClocks::new(1));
        let op = t.op_init(OpKind::Get, 0, true);
        t.net_inject(op, 9, 40);
        t.notify(op, CompletionPath::Deferred, 5_000);
        let a = assemble(&TraceBundle {
            ranks: vec![t.take()],
            net: vec![],
        });
        let o = &a.op_breakdown[0];
        assert_eq!(o.segment_sum(), 5_000);
        assert_eq!(o.segments[Segment::Initiation as usize], 40);
        assert_eq!(o.segments[Segment::WakeupToNotify as usize], 4_960);
    }

    #[test]
    fn render_text_is_stable_and_complete() {
        let a = assemble(&remote_put_bundle());
        let text = a.render_text();
        assert!(text.starts_with("causal timeline v1:"));
        assert!(text.contains("rank 0"));
        assert!(text.contains("wire"));
        assert!(text.contains("critical path:"));
        assert!(text.contains("profile (rank x segment):"));
        assert!(text.contains("chain length (milli-hops):"));
    }

    #[test]
    fn empty_bundle_assembles_cleanly() {
        let a = assemble(&TraceBundle::default());
        assert_eq!(a.nodes.len(), 0);
        assert_eq!(a.hb_edges(), 0);
        assert_eq!(a.violations, 0);
        assert_eq!(a.chain_depth, 0);
        assert!(a.critical_path.is_empty());
        assert!(a.render_text().contains("nodes=0"));
    }
}
