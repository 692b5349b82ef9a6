//! Real-socket conduit: loopback UDP datagrams between per-node sockets.
//!
//! One nonblocking `std::net::UdpSocket` is bound per simulated node
//! (127.0.0.1, ephemeral port); ranks stay threads, but every cross-node
//! delivery is carried by an actual datagram through the kernel's loopback
//! path. The reliability machinery is the same design the simulator
//! models — sender-side retransmission with bounded exponential backoff,
//! receiver-side dedup — run over a wire that can genuinely drop (socket
//! buffer overflow) and reorder, so delivering the same digests as the
//! simulator is evidence the runtime above is transport-independent.
//!
//! # Wire protocol
//!
//! A 26-byte frame, little-endian fields:
//!
//! ```text
//! [0]      magic      0xC7
//! [1]      kind       1 = DATA, 2 = ACK, 3 = SIGNAL
//! [2..10]  msg  u64   logical message id (Conduit::inject_to return)
//! [10..14] attempt u32 transmission attempt, 0-based
//! [14..18] src_node u32 sender's node index (ACK destination)
//! [18..26] lclock u64 sender's Lamport stamp (causal tracing; 0 untraced)
//! ```
//!
//! The `lclock` field (the PR-9 frame-format bump from 18 to 26 bytes) is
//! the sender's logical clock at injection, constant across
//! retransmissions — the resend is the same logical send. The receiver
//! merges it into the destination rank's clock (`max(local, remote) + 1`)
//! before executing the parked action, so causal stamps cross the real
//! wire the same way they cross the simulator.
//!
//! A SIGNAL frame is a DATA frame whose parked action carries a
//! notification badge (put/amo-with-signal): it rides the identical
//! ack/retransmit/dedup flights, so badge coalescing at the target happens
//! exactly once per signal op no matter what the wire did to the frame.
//!
//! A DATA frame carries no payload bytes: delivery actions are closures and
//! cannot cross the wire, so the action is parked in a shared table keyed by
//! `msg` before the datagram is sent, and the frame's arrival is what
//! triggers its execution. What the wire proves is therefore the *control*
//! path — which messages complete, when, in what order, after how many
//! retries — which is exactly the part the eager-vs-deferred comparison is
//! about. (The multi-process runner in `simtest` complements this with a
//! protocol whose payloads really do cross process boundaries.)
//!
//! # Reliability
//!
//! * The sender records every transmission in `unacked` with a
//!   retransmission deadline. Deadline passes without an ACK → resend with
//!   `attempt + 1` and a backoff doubled up to the plan's cap (counted in
//!   `retries`).
//! * The receiver executes a DATA frame's action iff `msg` is still in the
//!   payload table; taking the entry out *is* the dedup — a retransmitted
//!   or duplicated frame finds the table empty, is counted as
//!   `dup_suppressed`, and is re-ACKed (the original ACK may have been the
//!   lost packet). No unbounded seen-set is needed.
//! * Every DATA or SIGNAL frame is ACKed after its action ran (or its
//!   duplicate was recorded), never before: the ACK is a `send_to` of its
//!   own, and the op's completion should not wait behind it. An ACK that
//!   arrives later than the retransmission deadline only costs a
//!   suppressed duplicate.
//! * An ACK removes the `unacked` entry. ACKs are not themselves acked;
//!   a lost ACK surfaces as a retransmission plus a suppressed dup.
//!
//! # Fault injection on a real wire
//!
//! Only the fates that real packet handling can express are supported:
//! deliberate **drops** (skip the `send_to`; the retransmission path
//! recovers, same as the simulator's timer) and **duplicates** (send the
//! frame twice; receiver dedup suppresses one). Both use the same seeded
//! `mix(msg, attempt, salt)` fates as `SimNetwork`. Reorder/burst/partition
//! schedules and the virtual clock require owning time, which a kernel
//! socket does not allow — [`crate::config::GasnexConfig::validate`]
//! rejects those knobs for this transport, and the constructor enforces the
//! same contract for direct users.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Mutex;
use std::time::Instant;

use crate::clock::LamportClocks;
use crate::conduit::{Conduit, ConduitCore, InFlight};
use crate::config::{ClockMode, FaultPlan, NetConfig};
use crate::net::{ppm, splitmix64, NetAction, NetEventKind};
use crate::rank::Rank;
use crate::world::World;

const MAGIC: u8 = 0xC7;
const KIND_DATA: u8 = 1;
const KIND_ACK: u8 = 2;
const KIND_SIGNAL: u8 = 3;
const FRAME_LEN: usize = 26;

/// Retransmission timer when no fault plan supplies one: loopback RTT is
/// tens of microseconds, so 2 ms only fires on genuine kernel-level loss.
const DEFAULT_RTO_NS: u64 = 2_000_000;
const DEFAULT_MAX_BACKOFF_NS: u64 = 64_000_000;

#[derive(Clone, Copy)]
struct Frame {
    kind: u8,
    msg: u64,
    attempt: u32,
    src_node: u32,
    /// Sender's Lamport stamp, piggybacked on every frame (0 untraced).
    lclock: u64,
}

impl Frame {
    fn encode(&self) -> [u8; FRAME_LEN] {
        let mut b = [0u8; FRAME_LEN];
        b[0] = MAGIC;
        b[1] = self.kind;
        b[2..10].copy_from_slice(&self.msg.to_le_bytes());
        b[10..14].copy_from_slice(&self.attempt.to_le_bytes());
        b[14..18].copy_from_slice(&self.src_node.to_le_bytes());
        b[18..26].copy_from_slice(&self.lclock.to_le_bytes());
        b
    }

    fn decode(b: &[u8]) -> Option<Frame> {
        if b.len() != FRAME_LEN || b[0] != MAGIC {
            return None;
        }
        let kind = b[1];
        if kind != KIND_DATA && kind != KIND_ACK && kind != KIND_SIGNAL {
            return None;
        }
        Some(Frame {
            kind,
            msg: u64::from_le_bytes(b[2..10].try_into().ok()?),
            attempt: u32::from_le_bytes(b[10..14].try_into().ok()?),
            src_node: u32::from_le_bytes(b[14..18].try_into().ok()?),
            lclock: u64::from_le_bytes(b[18..26].try_into().ok()?),
        })
    }
}

/// A sent-but-unacked transmission awaiting its retransmission deadline.
/// `kind` is preserved across retransmissions so a resent SIGNAL frame
/// stays a SIGNAL frame.
#[derive(Clone, Copy)]
struct Flight {
    from_node: usize,
    to_node: usize,
    attempt: u32,
    due_ns: u64,
    kind: u8,
    /// Rank route recorded at injection (when the initiator supplied one),
    /// surfaced by `inflight()` for stall diagnosis.
    route: Option<(u32, u32)>,
    /// Lamport stamp from injection, resent unchanged on every attempt.
    lclock: u64,
}

/// A delivery action parked until its DATA frame arrives, together with
/// the destination rank the receiver-side Lamport merge targets.
struct Parked {
    dst_rank: Option<u32>,
    action: NetAction,
}

/// The loopback-UDP [`Conduit`].
pub struct UdpConduit {
    cfg: NetConfig,
    epoch: Instant,
    ranks_per_node: u32,
    /// One socket per simulated node, all nonblocking, plus each socket's
    /// bound address (ACK and DATA destinations).
    sockets: Vec<UdpSocket>,
    addrs: Vec<SocketAddr>,
    /// Delivery actions parked before their DATA frame is sent; removal on
    /// arrival doubles as receiver-side dedup.
    payloads: Mutex<HashMap<u64, Parked>>,
    /// Transmissions awaiting an ACK, keyed by message id.
    unacked: Mutex<HashMap<u64, Flight>>,
    /// One rank drains sockets at a time (through
    /// [`ConduitCore::enter_poll`]); losers take the busy-hint path.
    poll_gate: Mutex<()>,
    core: ConduitCore,
}

impl UdpConduit {
    /// Bind one loopback socket per simulated node.
    ///
    /// # Panics
    ///
    /// Panics if the config asks for [`ClockMode::Virtual`] or for fault
    /// fates a real socket cannot express (reorder, burst, partition) —
    /// the same contract `GasnexConfig::validate` enforces — or if binding
    /// a loopback socket fails.
    pub fn new(
        cfg: NetConfig,
        ranks: u32,
        ranks_per_node: u32,
        clocks: std::sync::Arc<LamportClocks>,
    ) -> Self {
        assert!(
            cfg.clock == ClockMode::Wall,
            "UDP conduit: real sockets cannot be time-warped; use ClockMode::Wall \
             (virtual-clock chaos replay is simulator-only)"
        );
        if let Some(plan) = &cfg.faults {
            plan.validate();
            assert!(
                plan.reorder_ppm == 0 && plan.burst_period_ns == 0 && plan.partition_until_ns == 0,
                "UDP conduit: only drop/dup fault fates are expressible on a real wire; \
                 reorder/burst/partition schedules require the simulated transport"
            );
        }
        let nodes = ranks.div_ceil(ranks_per_node).max(1) as usize;
        let mut sockets = Vec::with_capacity(nodes);
        let mut addrs = Vec::with_capacity(nodes);
        for node in 0..nodes {
            let s = UdpSocket::bind("127.0.0.1:0")
                .unwrap_or_else(|e| panic!("UDP conduit: bind node {node} socket: {e}"));
            s.set_nonblocking(true)
                .expect("UDP conduit: set_nonblocking");
            addrs.push(s.local_addr().expect("UDP conduit: local_addr"));
            sockets.push(s);
        }
        UdpConduit {
            cfg,
            epoch: Instant::now(),
            ranks_per_node,
            sockets,
            addrs,
            payloads: Mutex::new(HashMap::new()),
            unacked: Mutex::new(HashMap::new()),
            poll_gate: Mutex::new(()),
            core: ConduitCore::new(clocks),
        }
    }

    fn node_of(&self, r: Rank) -> usize {
        (r.0 / self.ranks_per_node) as usize % self.sockets.len()
    }

    /// Same deterministic fate hash as the simulator.
    fn mix(&self, msg: u64, attempt: u32, salt: u64) -> u64 {
        let seed = self.cfg.faults.map_or(0, |f| f.seed);
        splitmix64(splitmix64(splitmix64(seed ^ msg) ^ u64::from(attempt)) ^ salt)
    }

    fn rto_ns(&self, attempt: u32) -> u64 {
        let (rto, cap) = self
            .cfg
            .faults
            .map_or((DEFAULT_RTO_NS, DEFAULT_MAX_BACKOFF_NS), |p| {
                (p.rto_ns, p.max_backoff_ns)
            });
        rto.saturating_mul(1u64 << attempt.min(32)).min(cap).max(1)
    }

    /// Transmit attempt `attempt` of `msg` from `from_node` to `to_node`,
    /// applying the deliberate drop/dup fates, and arm (or re-arm) its
    /// retransmission deadline.
    #[allow(clippy::too_many_arguments)]
    fn send_attempt(
        &self,
        msg: u64,
        attempt: u32,
        from_node: usize,
        to_node: usize,
        kind: u8,
        route: Option<(u32, u32)>,
        lclock: u64,
    ) {
        let plan: Option<&FaultPlan> = self.cfg.faults.as_ref();
        let drop_this = plan.is_some_and(|p| {
            attempt + 1 < p.max_attempts && ppm(self.mix(msg, attempt, 1)) < p.drop_ppm
        });
        let backoff = self.rto_ns(attempt);
        if drop_this {
            // Deliberate loss: never hand the frame to the kernel; the
            // retransmission deadline recovers it, just like the
            // simulator's drop-to-timer conversion.
            self.core.note_drop(backoff);
            self.trace_event(
                msg,
                attempt,
                NetEventKind::Drop {
                    backoff_ns: backoff,
                },
                lclock,
            );
        } else {
            let frame = Frame {
                kind,
                msg,
                attempt,
                src_node: from_node as u32,
                lclock,
            }
            .encode();
            let copies = if plan.is_some_and(|p| ppm(self.mix(msg, attempt, 4)) < p.dup_ppm) {
                2
            } else {
                1
            };
            for _ in 0..copies {
                // WouldBlock = the destination's socket buffer is full;
                // treat it as wire loss and let retransmission recover.
                let _ = self.sockets[from_node].send_to(&frame, self.addrs[to_node]);
            }
        }
        self.unacked.lock().unwrap().insert(
            msg,
            Flight {
                from_node,
                to_node,
                attempt,
                due_ns: self.now_ns() + backoff,
                kind,
                route,
                lclock,
            },
        );
    }

    /// Drain one node socket, executing DATA deliveries and retiring ACKs.
    fn drain_socket(&self, node: usize, world: &World) -> usize {
        let mut work = 0;
        let mut buf = [0u8; 64];
        loop {
            let (len, _peer) = match self.sockets[node].recv_from(&mut buf) {
                Ok(r) => r,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            };
            let Some(frame) = Frame::decode(&buf[..len]) else {
                continue;
            };
            match frame.kind {
                // A SIGNAL frame is handled exactly like DATA — the badge
                // post lives inside the parked action, and the
                // take-from-table dedup is what makes it coalesce once.
                KIND_DATA | KIND_SIGNAL => {
                    work += 1;
                    let parked = self.payloads.lock().unwrap().remove(&frame.msg);
                    // Deliver (or record the duplicate) first, so the ACK's
                    // send_to does not sit between the frame's arrival and
                    // the op's completion.
                    match parked {
                        Some(parked) => {
                            // Lamport receive of the stamp the frame
                            // actually carried across the kernel.
                            let merged = self.core.lamport_merge(parked.dst_rank, frame.lclock);
                            self.trace_event(
                                frame.msg,
                                frame.attempt,
                                NetEventKind::Deliver,
                                merged,
                            );
                            (parked.action)(world);
                            self.core.note_delivered();
                        }
                        None => {
                            // Absent from the table = already executed: a
                            // duplicated frame or a retransmission whose
                            // original got through.
                            self.trace_event(
                                frame.msg,
                                frame.attempt,
                                NetEventKind::DupDiscard,
                                frame.lclock,
                            );
                            self.core.note_dup_suppressed();
                        }
                    }
                    // Then ACK, either way: if our earlier ACK was lost the
                    // sender is still retransmitting and needs another.
                    let ack = Frame {
                        kind: KIND_ACK,
                        msg: frame.msg,
                        attempt: frame.attempt,
                        src_node: node as u32,
                        lclock: 0,
                    }
                    .encode();
                    let _ = self.sockets[node]
                        .send_to(&ack, self.addrs[frame.src_node as usize % self.addrs.len()]);
                }
                KIND_ACK => {
                    self.unacked.lock().unwrap().remove(&frame.msg);
                }
                _ => {}
            }
        }
        work
    }

    /// Resend every flight whose retransmission deadline has passed.
    fn retransmit_due(&self) -> usize {
        let now = self.now_ns();
        let due: Vec<(u64, Flight)> = {
            let unacked = self.unacked.lock().unwrap();
            unacked
                .iter()
                .filter(|(_, f)| f.due_ns <= now)
                .map(|(&msg, f)| (msg, *f))
                .collect()
        };
        let n = due.len();
        for (msg, f) in due {
            self.core.note_retry();
            self.trace_event(msg, f.attempt + 1, NetEventKind::Retry, f.lclock);
            self.send_attempt(
                msg,
                f.attempt + 1,
                f.from_node,
                f.to_node,
                f.kind,
                f.route,
                f.lclock,
            );
        }
        n
    }

    /// Shared injection path: park the payload, then put attempt 0 of a
    /// `kind` frame on the wire.
    fn inject_kind(&self, route: Option<(Rank, Rank)>, action: NetAction, kind: u8) -> u64 {
        let msg = self.core.inject_msg();
        let route = route.map(|(s, t)| (s.0, t.0));
        // Lamport send event: the stamp rides every frame of this message.
        let lclock = self.core.lamport_tick(route.map(|(s, _)| s));
        self.trace_event(msg, 0, NetEventKind::Inject, lclock);
        let nodes = self.sockets.len() as u64;
        let (from_node, to_node) = match route {
            Some((from, to)) => (self.node_of(Rank(from)), self.node_of(Rank(to))),
            // No hint: spread deterministically so unrouted traffic still
            // exercises the wire between distinct sockets.
            None => ((msg % nodes) as usize, ((msg + 1) % nodes) as usize),
        };
        // Park the payload (and the merge target) before the frame can
        // possibly arrive.
        self.payloads.lock().unwrap().insert(
            msg,
            Parked {
                dst_rank: route.map(|(_, t)| t),
                action,
            },
        );
        self.send_attempt(msg, 0, from_node, to_node, kind, route, lclock);
        // New traffic: prod a parked progress thread (no-op when unarmed).
        self.core.wake();
        msg
    }
}

impl Conduit for UdpConduit {
    fn inject_to(&self, route: Option<(Rank, Rank)>, action: NetAction) -> u64 {
        self.inject_kind(route, action, KIND_DATA)
    }

    /// Signal-carrying injection: a SIGNAL frame on the same
    /// ack/retransmit/dedup flights as DATA, plus the signal counter.
    fn inject_signal_to(&self, route: Option<(Rank, Rank)>, action: NetAction) -> u64 {
        self.core.note_signal();
        self.inject_kind(route, action, KIND_SIGNAL)
    }

    fn poll(&self, world: &World) -> usize {
        let _gate = match self.core.enter_poll(&self.poll_gate) {
            Ok(g) => g,
            Err(busy) => return busy,
        };
        let mut work = 0;
        for node in 0..self.sockets.len() {
            work += self.drain_socket(node, world);
        }
        work += self.retransmit_due();
        work
    }

    /// Wall clock only: a kernel socket cannot be time-warped.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every sent-but-unacked flight, in ascending `msg` order. An entry's
    /// `retransmit` flag is true once at least one resend happened.
    fn inflight(&self) -> Vec<InFlight> {
        let unacked = self.unacked.lock().unwrap();
        let mut out: Vec<InFlight> = unacked
            .iter()
            .map(|(&msg, f)| InFlight {
                msg,
                attempt: f.attempt,
                retransmit: f.attempt > 0,
                due_ns: f.due_ns,
                route: f.route,
            })
            .collect();
        out.sort_by_key(|f| (f.msg, f.due_ns));
        out
    }

    fn core(&self) -> &ConduitCore {
        &self.core
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GasnexConfig, Transport};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn udp_world(faults: Option<FaultPlan>) -> Arc<World> {
        let net = NetConfig {
            faults,
            ..NetConfig::default()
        };
        World::new(
            GasnexConfig::udp(4, 2)
                .with_segment_size(1 << 12)
                .with_net(net)
                .with_transport(Transport::UdpSocket),
        )
    }

    fn drain(w: &World, n: u64) {
        let start = Instant::now();
        while w.net().delivered() < n || w.net().pending() > 0 {
            w.net().poll(w);
            assert!(
                start.elapsed().as_secs() < 10,
                "UDP conduit failed to drain: delivered {}/{n}, pending {}",
                w.net().delivered(),
                w.net().pending()
            );
        }
    }

    #[test]
    fn datagrams_deliver_actions_exactly_once() {
        let w = udp_world(None);
        let hits = Arc::new(AtomicU64::new(0));
        for i in 0..64u64 {
            let h = Arc::clone(&hits);
            w.net().inject_to(
                Some((Rank(i as u32 % 4), Rank((i as u32 + 1) % 4))),
                Box::new(move |_| {
                    h.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        assert_eq!(
            hits.load(Ordering::Relaxed),
            0,
            "injection must never deliver synchronously"
        );
        drain(&w, 64);
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        assert_eq!(w.net().delivered(), 64);
        assert_eq!(w.net().pending(), 0);
    }

    #[test]
    fn deliberate_drops_recover_via_retransmission() {
        let plan = FaultPlan::seeded(9)
            .with_drops(300_000)
            .with_retry(50_000, 400_000, 6);
        let w = udp_world(Some(plan));
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..128u64 {
            let h = Arc::clone(&hits);
            w.net().inject(Box::new(move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            }));
        }
        drain(&w, 128);
        assert_eq!(hits.load(Ordering::Relaxed), 128);
        let s = w.net().stats();
        assert!(s.drops_injected > 0, "plan should have dropped frames");
        assert!(
            s.retries >= s.drops_injected,
            "every deliberate drop needs at least one retransmission"
        );
        assert!(s.max_backoff_ns >= 50_000 && s.max_backoff_ns <= 400_000);
    }

    #[test]
    fn duplicated_frames_are_suppressed() {
        let plan = FaultPlan::seeded(13).with_dups(400_000);
        let w = udp_world(Some(plan));
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..128u64 {
            let h = Arc::clone(&hits);
            w.net().inject(Box::new(move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            }));
        }
        drain(&w, 128);
        assert_eq!(
            hits.load(Ordering::Relaxed),
            128,
            "dedup must keep exactly-once execution"
        );
        assert!(
            w.net().stats().dup_suppressed > 0,
            "plan should have duplicated frames"
        );
    }

    #[test]
    fn virtual_clock_is_rejected() {
        let r = std::panic::catch_unwind(|| {
            UdpConduit::new(
                NetConfig::default().with_virtual_clock(),
                2,
                1,
                LamportClocks::new(2),
            )
        });
        assert!(r.is_err(), "virtual clock must be rejected");
    }

    #[test]
    fn unexpressible_fault_fates_are_rejected() {
        let plan = FaultPlan::seeded(1).with_reorder(100_000, 5_000);
        let r = std::panic::catch_unwind(|| {
            UdpConduit::new(
                NetConfig::default().with_faults(plan),
                2,
                1,
                LamportClocks::new(2),
            )
        });
        assert!(r.is_err(), "reorder fate must be rejected on a real wire");
    }

    #[test]
    fn signal_frames_survive_wire_faults_exactly_once() {
        // SIGNAL frames ride the same ack/retransmit/dedup flights as
        // DATA: under drops + dups every signal action still runs exactly
        // once, and the signal counter sees every injection.
        let plan = FaultPlan::seeded(29)
            .with_drops(250_000)
            .with_dups(300_000)
            .with_retry(50_000, 400_000, 6);
        let w = udp_world(Some(plan));
        let hits = Arc::new(AtomicU64::new(0));
        for i in 0..96u64 {
            let h = Arc::clone(&hits);
            w.net().inject_signal_to(
                Some((Rank(i as u32 % 4), Rank((i as u32 + 1) % 4))),
                Box::new(move |_| {
                    h.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        drain(&w, 96);
        assert_eq!(
            hits.load(Ordering::Relaxed),
            96,
            "signal delivery must stay exactly-once under wire faults"
        );
        let s = w.net().stats();
        assert_eq!(s.signals, 96);
        assert!(s.drops_injected > 0, "plan should have dropped frames");
    }

    #[test]
    fn frame_roundtrip() {
        let f = Frame {
            kind: KIND_DATA,
            msg: 0xDEAD_BEEF_0123,
            attempt: 7,
            src_node: 3,
            lclock: 0x0123_4567_89AB_CDEF,
        };
        let d = Frame::decode(&f.encode()).expect("roundtrip");
        assert_eq!(d.kind, KIND_DATA);
        assert_eq!(d.msg, 0xDEAD_BEEF_0123);
        assert_eq!(d.attempt, 7);
        assert_eq!(d.src_node, 3);
        assert_eq!(d.lclock, 0x0123_4567_89AB_CDEF);
        let sig = Frame {
            kind: KIND_SIGNAL,
            ..f
        };
        let d = Frame::decode(&sig.encode()).expect("signal roundtrip");
        assert_eq!(d.kind, KIND_SIGNAL);
        assert!(Frame::decode(&[0u8; FRAME_LEN]).is_none(), "bad magic");
        assert!(Frame::decode(&[MAGIC; 4]).is_none(), "short frame");
    }
}
