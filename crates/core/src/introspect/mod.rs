//! Runtime introspection: live snapshots, the wait-for graph, and the
//! stall watchdog's diagnosis builder.
//!
//! Three consumers share this module:
//!
//! * **Live snapshots** ([`Upcr::snapshot`](crate::Upcr::snapshot)) — a
//!   point-in-time dump of everything currently *pending* on a rank: open
//!   operation spans with their reconstructed lifecycle phase, aggregation
//!   buckets with occupancy and age, in-flight conduit messages with retry
//!   state, and the world's notification words with waiter masks and
//!   posted-but-unconsumed badge bits. Rendered as deterministic text and
//!   JSON (fixed field order, no map iteration), so two same-seed runs
//!   produce byte-identical snapshots at quiescence.
//! * **The wait-for graph** ([`wait_graph`]) — the blocking structure of
//!   the job right now: who is parked on which notification word, and
//!   which wire messages would satisfy whom. Edges follow the taxonomy in
//!   [`WaitEdgeKind`] (see `DESIGN.md` §16).
//! * **The stall watchdog** ([`diagnose_stall`]) — when a parked
//!   `wait_signal` outlives the configured watchdog
//!   ([`RuntimeConfig::with_watchdog_ms`](crate::RuntimeConfig::with_watchdog_ms)),
//!   it walks the wait graph and the conduit's retained wire trace (the
//!   "flight recorder") to produce a diagnosis naming the blocked rank,
//!   the edge it waits on, the candidate carrier messages still on the
//!   wire, and the last wire event touching that edge — instead of the
//!   bare "deadlock" panic of earlier revisions.

use std::fmt::Write as _;

use gasnex::net::NetEventKind;
use gasnex::{BucketSnapshot, InFlight, NetTraceEvent, NotifyWordSnapshot, World};

use crate::ctx::RankCtx;
use crate::trace::OpenSpan;

/// A point-in-time dump of one rank's pending work plus the world-global
/// wire and notification state, captured by [`crate::Upcr::snapshot`].
///
/// Dynamic sections (`pending_ops`, `agg_buckets`, `inflight`) are empty at
/// quiescence; `notify_words` retains posted-but-unconsumed badge bits, so
/// a quiesced snapshot is a pure function of the program's communication
/// pattern — the property the snapshot-determinism tests pin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The capturing rank.
    pub rank: u32,
    /// Total ranks in the world.
    pub ranks: u32,
    /// The rank's Lamport clock at capture time (PR 9). Zero on untraced
    /// runs — the clocks only tick while tracing — so quiesced-snapshot
    /// byte-identity is unaffected by the causal subsystem existing.
    pub lclock: u64,
    /// Open (initiated but not yet notified) operation spans, with the
    /// lifecycle phase reconstructed from the trace ring. Empty when
    /// tracing is off (spans are only recorded while tracing).
    pub pending_ops: Vec<OpenSpan>,
    /// Occupied or in-flight aggregation buckets on this rank.
    pub agg_buckets: Vec<BucketSnapshot>,
    /// Messages currently inside the conduit (scheduled deliveries and
    /// retransmission timers), world-global.
    pub inflight: Vec<InFlight>,
    /// Non-idle notification words across all ranks: badge bits present
    /// and/or a waiter registered.
    pub notify_words: Vec<NotifyWordSnapshot>,
}

impl Snapshot {
    /// Capture the current state from a rank context. `pending_ops` and
    /// `agg_buckets` are rank-local; `inflight` and `notify_words` are
    /// world-global.
    pub(crate) fn capture(ctx: &RankCtx) -> Snapshot {
        let now = ctx.trace_now_ns();
        let clocks = ctx.world.clocks();
        Snapshot {
            rank: ctx.me.0,
            ranks: ctx.world.ranks() as u32,
            lclock: clocks.peek(clocks.slot_for(Some(ctx.me.0))),
            pending_ops: ctx.tracer.borrow().open_spans(),
            agg_buckets: ctx
                .agg
                .as_ref()
                .map(|a| a.borrow().snapshot_buckets(now))
                .unwrap_or_default(),
            inflight: ctx.world.net().inflight(),
            notify_words: ctx.world.notify().snapshot(),
        }
    }

    /// Deterministic human-readable rendering: fixed section order, one
    /// line per item, no absolute "now" timestamp.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "=== upcr snapshot: rank {}/{} ===",
            self.rank, self.ranks
        );
        let _ = writeln!(s, "lamport clock: {}", self.lclock);
        let _ = writeln!(s, "pending ops: {}", self.pending_ops.len());
        for op in &self.pending_ops {
            let kind = op.kind.map_or("?", |k| k.name());
            let _ = write!(s, "  op {} kind {} phase {}", op.id, kind, op.phase);
            match op.wire_msg {
                Some(m) => {
                    let _ = writeln!(s, " wire-msg {m}");
                }
                None => {
                    let _ = writeln!(s);
                }
            }
        }
        let _ = writeln!(s, "agg buckets: {}", self.agg_buckets.len());
        for b in &self.agg_buckets {
            let _ = writeln!(
                s,
                "  target {} occupancy {} age-ns {} inflight {}",
                b.target, b.occupancy, b.age_ns, b.inflight
            );
        }
        let _ = writeln!(s, "in-flight messages: {}", self.inflight.len());
        for f in &self.inflight {
            let _ = write!(
                s,
                "  msg {} attempt {}{}",
                f.msg,
                f.attempt,
                if f.retransmit { " (retransmit)" } else { "" }
            );
            match f.route {
                Some((src, dst)) => {
                    let _ = writeln!(s, " route {src}->{dst}");
                }
                None => {
                    let _ = writeln!(s);
                }
            }
        }
        let _ = writeln!(s, "notify words: {}", self.notify_words.len());
        for w in &self.notify_words {
            let _ = write!(s, "  rank {} word {} bits {:#x}", w.rank, w.word, w.bits);
            match w.waiter_mask {
                Some(m) => {
                    let _ = writeln!(s, " waiter-mask {m:#x}");
                }
                None => {
                    let _ = writeln!(s, " (no waiter)");
                }
            }
        }
        s
    }

    /// Deterministic JSON rendering (`snapshot.v1`): hand-built with fixed
    /// field order, parseable by [`crate::trace::parse_json`].
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"schema\":\"snapshot.v1\",\"rank\":{},\"ranks\":{},\"lclock\":{},\"pending_ops\":[",
            self.rank, self.ranks, self.lclock
        );
        for (i, op) in self.pending_ops.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"id\":{},\"kind\":", op.id);
            match op.kind {
                Some(k) => {
                    let _ = write!(s, "\"{}\"", k.name());
                }
                None => s.push_str("null"),
            }
            let _ = write!(s, ",\"phase\":\"{}\",\"wire_msg\":", op.phase);
            match op.wire_msg {
                Some(m) => {
                    let _ = write!(s, "{m}");
                }
                None => s.push_str("null"),
            }
            s.push('}');
        }
        s.push_str("],\"agg_buckets\":[");
        for (i, b) in self.agg_buckets.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"target\":{},\"occupancy\":{},\"age_ns\":{},\"inflight\":{}}}",
                b.target, b.occupancy, b.age_ns, b.inflight
            );
        }
        s.push_str("],\"inflight\":[");
        for (i, f) in self.inflight.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"msg\":{},\"attempt\":{},\"retransmit\":{},\"route\":",
                f.msg, f.attempt, f.retransmit
            );
            match f.route {
                Some((src, dst)) => {
                    let _ = write!(s, "[{src},{dst}]");
                }
                None => s.push_str("null"),
            }
            s.push('}');
        }
        s.push_str("],\"notify_words\":[");
        for (i, w) in self.notify_words.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"rank\":{},\"word\":{},\"bits\":{},\"waiter_mask\":",
                w.rank, w.word, w.bits
            );
            match w.waiter_mask {
                Some(m) => {
                    let _ = write!(s, "{m}");
                }
                None => s.push_str("null"),
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

/// What a wait-graph edge waits *on* — the edge taxonomy of DESIGN.md §16.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitEdgeKind {
    /// A rank blocked in `wait_signal` on one of its notification words:
    /// satisfied by any badge post intersecting `mask`. `posted` is the
    /// subset of `mask` already in the word but not yet consumed (non-zero
    /// means the waiter is about to wake — not a stall).
    NotifyWait { word: usize, mask: u64, posted: u64 },
    /// A message inside the conduit whose delivery action runs on arrival
    /// at the destination rank — the only thing that can still post a
    /// badge there from off-node.
    WireDelivery {
        msg: u64,
        attempt: u32,
        retransmit: bool,
    },
}

/// One edge of the wait-for graph: `waiter` blocks until `source` (when
/// known) acts through `kind`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitEdge {
    /// The rank that cannot make progress until this edge resolves.
    pub waiter: u32,
    /// The rank expected to resolve it: the message's source for wire
    /// edges, unknown (`None`) for a notify wait — any rank may post.
    pub source: Option<u32>,
    pub kind: WaitEdgeKind,
}

/// Build the current wait-for graph: one `NotifyWait` edge per registered
/// notification waiter, one `WireDelivery` edge per in-flight conduit
/// message with a known route. Deterministic order: notify edges by
/// (rank, word), wire edges in the conduit's canonical in-flight order.
pub fn wait_graph(world: &World) -> Vec<WaitEdge> {
    let mut edges = Vec::new();
    for w in world.notify().snapshot() {
        if let Some(mask) = w.waiter_mask {
            edges.push(WaitEdge {
                waiter: w.rank,
                source: None,
                kind: WaitEdgeKind::NotifyWait {
                    word: w.word,
                    mask,
                    posted: w.bits & mask,
                },
            });
        }
    }
    for f in world.net().inflight() {
        if let Some((src, dst)) = f.route {
            edges.push(WaitEdge {
                waiter: dst,
                source: Some(src),
                kind: WaitEdgeKind::WireDelivery {
                    msg: f.msg,
                    attempt: f.attempt,
                    retransmit: f.retransmit,
                },
            });
        }
    }
    edges
}

fn describe_wire_event(ev: &NetTraceEvent) -> String {
    let what = match ev.kind {
        NetEventKind::Inject => "injected".to_string(),
        NetEventKind::Drop { backoff_ns } => {
            format!("dropped by the fault plan (backoff {backoff_ns}ns)")
        }
        NetEventKind::Retry => "retransmission timer fired".to_string(),
        NetEventKind::Deliver => "delivered".to_string(),
        NetEventKind::DupDiscard => "duplicate copy discarded".to_string(),
        NetEventKind::Signal { rank, token } => {
            format!("completion signal routed to rank {rank} (token {token})")
        }
    };
    format!("msg {} attempt {}: {}", ev.msg, ev.attempt, what)
}

/// Build the watchdog's stall diagnosis for a rank that outlived its park
/// timeout in `wait_signal` on (`word`, `mask`).
///
/// The text names, in order: the blocked rank and the exact wait-graph
/// edge it sits on; the full wait graph (who else is blocked, what is
/// still on the wire); the candidate carrier messages routed *to* the
/// blocked rank; and the last flight-recorder event touching one of those
/// carriers (or, when nothing is in flight toward the rank, the last wire
/// event at all). Apart from flight-recorder timestamps being omitted, the
/// text is a pure function of the stalled state — a seeded stall yields
/// the same diagnosis every run.
pub fn diagnose_stall(world: &World, rank: u32, word: usize, mask: u64, waited_ms: u64) -> String {
    let posted = world
        .notify()
        .snapshot()
        .iter()
        .find(|w| w.rank == rank && w.word == word)
        .map_or(0, |w| w.bits & mask);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "wait-graph stall: rank {rank} blocked {waited_ms}ms in wait_signal on \
         notify word {word} mask {mask:#x} (posted-but-unconsumed bits of mask: {posted:#x})"
    );
    let edges = wait_graph(world);
    let _ = writeln!(s, "wait-graph edges ({}):", edges.len());
    for e in &edges {
        match e.kind {
            WaitEdgeKind::NotifyWait { word, mask, posted } => {
                let _ = writeln!(
                    s,
                    "  rank {} --[notify word {} mask {:#x}]--> {}",
                    e.waiter,
                    word,
                    mask,
                    if posted != 0 {
                        format!("satisfied (posted {posted:#x})")
                    } else {
                        "unsatisfied (no badge posted)".to_string()
                    }
                );
            }
            WaitEdgeKind::WireDelivery {
                msg,
                attempt,
                retransmit,
            } => {
                let _ = writeln!(
                    s,
                    "  rank {} --[wire msg {} attempt {}{}]--> rank {}",
                    e.source.map_or("?".to_string(), |r| r.to_string()),
                    msg,
                    attempt,
                    if retransmit { " retransmit" } else { "" },
                    e.waiter
                );
            }
        }
    }
    // Carriers: in-flight messages routed to the blocked rank — the only
    // traffic that can still satisfy the wait from off-node.
    let inflight = world.net().inflight();
    let carriers: Vec<&InFlight> = inflight
        .iter()
        .filter(|f| f.route.is_some_and(|(_, dst)| dst == rank))
        .collect();
    if carriers.is_empty() {
        let _ = writeln!(
            s,
            "no message in flight toward rank {rank}: nothing on the wire can satisfy this wait"
        );
    } else {
        let _ = writeln!(s, "candidate carriers in flight toward rank {rank}:");
        for f in &carriers {
            let (src, _) = f.route.unwrap();
            let _ = writeln!(
                s,
                "  msg {} from rank {} (attempt {}{})",
                f.msg,
                src,
                f.attempt,
                if f.retransmit {
                    ", retransmit pending"
                } else {
                    ""
                }
            );
        }
    }
    // Flight recorder: the last wire event touching a carrier (preferred),
    // else the last wire event at all. Empty when wire tracing is off.
    let trace = world.net().peek_trace();
    let last = trace
        .iter()
        .rev()
        .find(|ev| carriers.iter().any(|f| f.msg == ev.msg))
        .or_else(|| trace.last());
    match last {
        Some(ev) => {
            let _ = writeln!(
                s,
                "flight recorder: last wire event touching this edge: {}",
                describe_wire_event(ev)
            );
        }
        None => {
            let _ = writeln!(
                s,
                "flight recorder: empty (enable tracing to retain wire events)"
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{launch, RuntimeConfig};
    use crate::trace::parse_json;

    #[test]
    fn quiesced_snapshot_has_empty_dynamic_sections() {
        let snaps = launch(RuntimeConfig::smp(2).with_segment_size(1 << 14), |u| {
            let p = u.new_::<u64>(0);
            u.rput(7u64, p).wait();
            u.barrier();
            u.snapshot()
        });
        for (r, snap) in snaps.iter().enumerate() {
            assert_eq!(snap.rank, r as u32);
            assert_eq!(snap.ranks, 2);
            assert!(snap.pending_ops.is_empty(), "no open spans after wait");
            assert!(snap.agg_buckets.is_empty(), "agg off by default");
            assert!(snap.inflight.is_empty(), "smp bypass never hits the wire");
        }
    }

    #[test]
    fn snapshot_sees_unconsumed_badge_and_renders_it() {
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 14), |u| {
            let p = u.new_::<u64>(0);
            u.put_signal(1u64, p, 2, 0b101).wait();
            let snap = u.snapshot();
            assert_eq!(snap.notify_words.len(), 1);
            let w = snap.notify_words[0];
            assert_eq!((w.rank, w.word, w.bits, w.waiter_mask), (0, 2, 0b101, None));
            let text = snap.render_text();
            assert!(
                text.contains("rank 0 word 2 bits 0x5 (no waiter)"),
                "{text}"
            );
            let json = snap.render_json();
            let v = parse_json(&json).expect("snapshot JSON parses");
            assert_eq!(
                v.get("schema").and_then(|s| s.as_str()),
                Some("snapshot.v1")
            );
            let words = v.get("notify_words").and_then(|w| w.as_arr()).unwrap();
            assert_eq!(words.len(), 1);
            assert_eq!(words[0].get("bits").and_then(|b| b.as_num()), Some(5.0));
            // Drain the badge so quiesce-side state is clean.
            assert_eq!(u.wait_signal(2, u64::MAX), 0b101);
            u.barrier();
        });
    }

    #[test]
    fn wait_graph_is_empty_when_nothing_blocks() {
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 14), |u| {
            assert!(wait_graph(u.world()).is_empty());
            u.barrier();
        });
    }
}
