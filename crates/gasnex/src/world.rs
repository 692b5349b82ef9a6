//! The `World`: all shared state of a `gasnex` job, plus per-rank progress.

use std::sync::Arc;

use crate::alloc::SegAlloc;
use crate::am::{AmCtx, AmMsg, AmQueues};
use crate::clock::LamportClocks;
use crate::conduit::udp::UdpConduit;
use crate::conduit::Conduit;
use crate::config::{GasnexConfig, Transport, NOTIFY_WORDS};
use crate::mailbox::ReadyQueue;
use crate::net::{NetAction, SimNetwork};
use crate::notify::NotifyTable;
use crate::rank::{Rank, Team, Topology};
use crate::segment::Segment;

/// All state shared by the ranks of one job: segments, allocators, AM
/// mailboxes, the conduit, and collective state.
///
/// Created once and shared via `Arc` by every rank thread.
pub struct World {
    cfg: GasnexConfig,
    topo: Topology,
    segments: Box<[Segment]>,
    allocs: Box<[SegAlloc]>,
    am: AmQueues,
    net: Box<dyn Conduit>,
    /// Per-rank ready-notification queues: completion tokens deposited by
    /// delivery actions ([`World::deposit_token`]), drained FIFO by the
    /// owning rank during its progress quantum.
    ready: Box<[ReadyQueue]>,
    /// The team of all ranks.
    world_team: Team,
    /// Per-node local teams.
    local_teams: Box<[Team]>,
    /// Registry of split-created teams, keyed by (parent uid, split epoch,
    /// color) so every member resolves the same Team instance.
    splits: std::sync::Mutex<std::collections::HashMap<(u64, u64, u64), Team>>,
    /// Uid source for split-created teams.
    next_team_uid: std::sync::atomic::AtomicU64,
    /// Per-rank notification words for put-with-signal badges and their
    /// parked waiters.
    notify: NotifyTable,
    /// Shared per-rank Lamport clocks for causal tracing: one slot per
    /// rank plus the unrouted/wire slot, ticked only while tracing is on.
    clocks: Arc<LamportClocks>,
    /// Opaque per-rank deposits for cross-layer collection: the runtime's
    /// causal assembler parks each rank's drained trace here (as a boxed
    /// `Any`, since this crate cannot name the runtime's trace types) and
    /// one rank drains them all after a barrier.
    deposits: std::sync::Mutex<Vec<(u32, Box<dyn std::any::Any + Send>)>>,
    /// Set when a rank dies abnormally, so peers spinning in barriers or
    /// waits bail out instead of deadlocking.
    aborted: std::sync::atomic::AtomicBool,
}

impl World {
    /// Build a world from a validated configuration.
    pub fn new(cfg: GasnexConfig) -> Arc<World> {
        cfg.validate();
        let topo = Topology::new(cfg.ranks, cfg.ranks_per_node);
        let segments: Box<[Segment]> = (0..cfg.ranks)
            .map(|_| Segment::new(cfg.segment_size))
            .collect();
        let allocs: Box<[SegAlloc]> = (0..cfg.ranks)
            .map(|_| SegAlloc::new(cfg.segment_size))
            .collect();
        let world_team = Team::from_members((0..cfg.ranks as u32).map(Rank).collect(), 0);
        let local_teams: Box<[Team]> = (0..topo.nodes())
            .map(|node| {
                Team::from_members(topo.node_ranks(node).map(Rank).collect(), 1 + node as u64)
            })
            .collect();
        let clocks = LamportClocks::new(cfg.ranks);
        let net: Box<dyn Conduit> = match cfg.transport {
            Transport::Sim => Box::new(SimNetwork::new(cfg.net, Arc::clone(&clocks))),
            Transport::UdpSocket => Box::new(UdpConduit::new(
                cfg.net,
                cfg.ranks as u32,
                cfg.ranks_per_node as u32,
                Arc::clone(&clocks),
            )),
        };
        Arc::new(World {
            am: AmQueues::new(cfg.ranks),
            net,
            ready: (0..cfg.ranks).map(|_| ReadyQueue::new()).collect(),
            segments,
            allocs,
            world_team,
            local_teams,
            splits: std::sync::Mutex::new(std::collections::HashMap::new()),
            next_team_uid: std::sync::atomic::AtomicU64::new(1_000),
            notify: NotifyTable::new(cfg.ranks, NOTIFY_WORDS),
            clocks,
            deposits: std::sync::Mutex::new(Vec::new()),
            topo,
            cfg,
            aborted: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Mark the job as dying abnormally (a rank panicked). Peers observe
    /// this via [`is_aborted`](Self::is_aborted) from their progress loops.
    pub fn abort(&self) {
        self.aborted
            .store(true, std::sync::atomic::Ordering::SeqCst);
        // Parked waiters cannot poll the abort flag; wake them so they
        // observe it and unwind instead of hanging on their condvar.
        self.notify.wake_all();
        // Same for a parked background progress thread.
        self.net.wake_progress();
    }

    /// Whether a rank has died abnormally.
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// The configuration this world was built from.
    pub fn config(&self) -> &GasnexConfig {
        &self.cfg
    }

    /// The rank-to-node topology.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Number of ranks.
    #[inline]
    pub fn ranks(&self) -> usize {
        self.cfg.ranks
    }

    /// The shared segment owned by `r`.
    #[inline]
    pub fn segment(&self, r: Rank) -> &Segment {
        &self.segments[r.idx()]
    }

    /// The segment allocator for `r`'s segment.
    #[inline]
    pub fn seg_alloc(&self, r: Rank) -> &SegAlloc {
        &self.allocs[r.idx()]
    }

    /// The conduit carrying cross-node deliveries.
    #[inline]
    pub fn net(&self) -> &dyn Conduit {
        &*self.net
    }

    /// Whether `from` can directly address `to`'s segment (same simulated
    /// node — the process-shared-memory case).
    #[inline]
    pub fn directly_addressable(&self, from: Rank, to: Rank) -> bool {
        self.topo.same_node(from, to)
    }

    /// The team containing every rank.
    pub fn world_team(&self) -> Team {
        self.world_team.clone()
    }

    /// The team of ranks sharing `me`'s node.
    pub fn local_team(&self, me: Rank) -> Team {
        self.local_teams[self.topo.node_of(me)].clone()
    }

    /// Enqueue an active message for `target`, recorded as sent by `src`.
    pub fn send_am(
        &self,
        target: Rank,
        src: Rank,
        handler: impl FnOnce(&AmCtx<'_>) + Send + 'static,
    ) {
        self.am.push(
            target,
            AmMsg {
                src,
                handler: Box::new(handler),
            },
        );
    }

    /// Inject an operation into the conduit with no routing hint.
    pub fn net_inject(&self, action: NetAction) -> u64 {
        self.net.inject(action)
    }

    /// Inject an operation into the conduit, routed from the initiating
    /// rank to the target rank (socket transports use the hint to pick
    /// source and destination node sockets; the simulator ignores it).
    pub fn net_inject_routed(&self, from: Rank, to: Rank, action: NetAction) -> u64 {
        self.net.inject_to(Some((from, to)), action)
    }

    /// Inject a *signal-bearing* operation (a put-with-signal delivery),
    /// routed like [`net_inject_routed`](Self::net_inject_routed) but
    /// carried as signal traffic: the UDP conduit stamps a SIGNAL frame
    /// kind on the wire and both conduits count it in `NetStats::signals`.
    pub fn net_inject_signal(&self, from: Rank, to: Rank, action: NetAction) -> u64 {
        self.net.inject_signal_to(Some((from, to)), action)
    }

    /// Prod the background progress thread's waker, if one is armed (a
    /// no-op otherwise). Called on completion-callback enqueues so a
    /// parked thread notices new runnable work.
    #[inline]
    pub fn wake_progress(&self) {
        self.net.wake_progress();
    }

    /// The notification-word table (badge coalescing + parked waiters).
    #[inline]
    pub fn notify(&self) -> &NotifyTable {
        &self.notify
    }

    /// The shared per-rank Lamport clock bank for causal tracing.
    #[inline]
    pub fn clocks(&self) -> &Arc<LamportClocks> {
        &self.clocks
    }

    /// Park an opaque per-rank item for later collection by one rank (see
    /// [`drain_deposits`](Self::drain_deposits)). The causal assembler
    /// uses this to ship every rank's trace to rank 0 without the
    /// substrate knowing the runtime's trace types.
    pub fn deposit(&self, rank: u32, item: Box<dyn std::any::Any + Send>) {
        self.deposits.lock().unwrap().push((rank, item));
    }

    /// Drain every parked deposit, sorted by depositing rank (stable for
    /// multiple deposits from one rank).
    pub fn drain_deposits(&self) -> Vec<(u32, Box<dyn std::any::Any + Send>)> {
        let mut out = std::mem::take(&mut *self.deposits.lock().unwrap());
        out.sort_by_key(|(r, _)| *r);
        out
    }

    /// Deposit the completion token `slot` in `initiator`'s ready queue.
    /// An off-node operation's delivery action does this, on whichever
    /// thread delivers it; `slot` names the waiter the initiator filed
    /// before injecting the operation. Tokens surface at the initiator's
    /// next ready-queue drain in deposit order. The deposit is traced as a
    /// `Signal` event carrying `trace`, the token's trace id.
    pub fn deposit_token(&self, initiator: Rank, slot: u64, trace: u64) {
        // Lamport stamp for the signal routing: a local event on the
        // initiator's clock (the rank whose ready queue receives the
        // token), ordered before the Wakeup the drain will record.
        let lclock = self.net.core().lamport_tick(Some(initiator.0));
        self.net.trace_event(
            u64::MAX,
            0,
            crate::net::NetEventKind::Signal {
                rank: initiator.0,
                token: trace,
            },
            lclock,
        );
        self.ready[initiator.idx()].push(slot)
    }

    /// Drain `me`'s ready queue into `out` (FIFO, bounded to the tokens
    /// present at the start of the drain). Returns the number drained.
    pub fn drain_ready(&self, me: Rank, out: &mut Vec<u64>) -> usize {
        self.ready[me.idx()].drain_into(out)
    }

    /// Number of completion tokens queued for `me` (approximate under
    /// concurrency; exact when quiescent).
    pub fn ready_queued(&self, me: Rank) -> usize {
        self.ready[me.idx()].len()
    }

    /// Run one progress quantum for rank `me`: execute up to `max_ams`
    /// queued active messages, then poll the network. Returns the number of
    /// work items processed (0 means fully idle).
    pub fn poll_rank(&self, me: Rank, max_ams: usize) -> usize {
        let mut n = 0;
        while n < max_ams {
            let Some(msg) = self.am.pop(me) else { break };
            let ctx = AmCtx {
                world: self,
                src: msg.src,
                me,
            };
            (msg.handler)(&ctx);
            self.am.note_executed();
            n += 1;
        }
        n + self.net.poll(self)
    }

    /// Whether the substrate is globally quiescent: every sent AM has been
    /// executed and every injected network operation delivered. Counter
    /// samples race with ongoing activity; callers combine this with
    /// repeated checks (see `upcr`'s quiesce).
    pub fn substrate_quiet(&self) -> bool {
        let (sent, executed) = self.am.counters();
        sent == executed
            && self.net.injected() == self.net.delivered()
            && self.net.pending() == 0
            && self.ready.iter().all(|q| q.is_empty())
    }

    /// Number of AMs queued for `me` (approximate).
    pub fn ams_queued(&self, me: Rank) -> usize {
        self.am.queued(me)
    }

    /// Barrier over `team`; `poll` runs while waiting (callers pass their
    /// full progress function so dependent work keeps draining).
    pub fn barrier(&self, team: &Team, poll: &mut dyn FnMut()) {
        team.coll.barrier(team.size(), poll);
    }

    /// Broadcast from the member that passes `Some`.
    pub fn broadcast<T: Clone + Send + 'static>(
        &self,
        team: &Team,
        root_val: Option<T>,
        poll: &mut dyn FnMut(),
    ) -> T {
        team.coll.broadcast(team.size(), root_val, poll)
    }

    /// All-reduce of 64-bit patterns over `team` with fold `f`.
    pub fn allreduce(
        &self,
        team: &Team,
        me: Rank,
        bits: u64,
        f: &dyn Fn(u64, u64) -> u64,
        poll: &mut dyn FnMut(),
    ) -> u64 {
        let idx = team
            .rank_of(me)
            .expect("allreduce caller must be a team member");
        team.coll.allreduce(team.size(), idx, bits, f, poll)
    }

    /// Gather every member's 64-bit contribution, indexed by team rank.
    pub fn gather_all(&self, team: &Team, me: Rank, bits: u64, poll: &mut dyn FnMut()) -> Vec<u64> {
        let idx = team
            .rank_of(me)
            .expect("gather caller must be a team member");
        team.coll.exchange(team.size(), idx, bits, poll)
    }

    /// Collectively split `team` by `color`: members sharing a color form a
    /// new team, ordered by `(key, world rank)` — the `upcxx::team::split`
    /// semantics. Every member of `team` must call this the same number of
    /// times (with whatever color/key it chooses).
    pub fn split_team(
        &self,
        team: &Team,
        me: Rank,
        color: u64,
        key: u64,
        poll: &mut dyn FnMut(),
    ) -> Team {
        let idx = team
            .rank_of(me)
            .expect("split caller must be a team member");
        // The epoch is read by every member before anyone advances it, and
        // advanced exactly once (by team rank 0) after the exchange below —
        // barrier-separated on both sides.
        let epoch = team.coll.split_epoch();
        let colors = team.coll.exchange(team.size(), idx, color, poll);
        let keys = team.coll.exchange(team.size(), idx, key, poll);
        // Build my color group deterministically.
        let mut group: Vec<(u64, u32)> = (0..team.size())
            .filter(|&i| colors[i] == color)
            .map(|i| (keys[i], team.member(i).0))
            .collect();
        group.sort_unstable();
        let members: Vec<Rank> = group.into_iter().map(|(_, r)| Rank(r)).collect();
        // Resolve or create the shared Team object for this (team, epoch,
        // color) triple.
        let registry_key = (team.uid(), epoch, color);
        let new_team = {
            let mut reg = self.splits.lock().unwrap();
            reg.entry(registry_key)
                .or_insert_with(|| {
                    let uid = self
                        .next_team_uid
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    Team::from_members(members, uid)
                })
                .clone()
        };
        // One member advances the epoch once all members have resolved
        // their new team; the trailing barrier orders it.
        self.barrier(team, poll);
        if idx == 0 {
            team.coll.advance_split_epoch();
        }
        self.barrier(team, poll);
        new_team
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn construction_and_accessors() {
        let w = World::new(GasnexConfig::udp(6, 2).with_segment_size(1 << 12));
        assert_eq!(w.ranks(), 6);
        assert_eq!(w.topology().nodes(), 3);
        assert!(w.directly_addressable(Rank(0), Rank(1)));
        assert!(!w.directly_addressable(Rank(1), Rank(2)));
        assert_eq!(w.world_team().size(), 6);
        assert_eq!(w.local_team(Rank(3)).size(), 2);
        assert_eq!(w.local_team(Rank(3)).member(0), Rank(2));
        assert!(w.segment(Rank(5)).len() >= 1 << 12);
    }

    #[test]
    fn am_roundtrip_request_reply() {
        let w = World::new(GasnexConfig::smp(2).with_segment_size(1 << 12));
        static HITS: AtomicUsize = AtomicUsize::new(0);
        // Rank 0 sends a request to rank 1; rank 1's handler replies; rank 0
        // executes the reply.
        w.send_am(Rank(1), Rank(0), |ctx| {
            assert_eq!(ctx.src, Rank(0));
            assert_eq!(ctx.me, Rank(1));
            HITS.fetch_add(1, Ordering::SeqCst);
            ctx.reply(|ctx2| {
                assert_eq!(ctx2.src, Rank(1));
                assert_eq!(ctx2.me, Rank(0));
                HITS.fetch_add(10, Ordering::SeqCst);
            });
        });
        assert_eq!(w.poll_rank(Rank(1), 64), 1);
        assert_eq!(w.poll_rank(Rank(0), 64), 1);
        assert_eq!(HITS.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn poll_rank_bounds_am_drain() {
        let w = World::new(GasnexConfig::smp(1).with_segment_size(1 << 12));
        for _ in 0..10 {
            w.send_am(Rank(0), Rank(0), |_| {});
        }
        assert_eq!(w.poll_rank(Rank(0), 3), 3);
        assert_eq!(w.ams_queued(Rank(0)), 7);
        while w.poll_rank(Rank(0), 64) > 0 {}
        assert_eq!(w.ams_queued(Rank(0)), 0);
    }

    #[test]
    fn net_inject_delivers_via_poll() {
        let w = World::new(GasnexConfig::udp(2, 1).with_segment_size(1 << 12).with_net(
            NetConfig {
                latency_ns: 0,
                jitter_ns: 0,
                ..NetConfig::default()
            },
        ));
        w.net_inject(Box::new(|world| {
            world.segment(Rank(1)).write_u64(0, 123);
        }));
        w.poll_rank(Rank(0), 0);
        assert_eq!(w.segment(Rank(1)).read_u64(0), 123);
    }

    #[test]
    fn tokens_surface_at_their_rank_in_deposit_order() {
        let w = World::new(GasnexConfig::smp(2).with_segment_size(1 << 12));
        // Deposit out of slot order; slots must surface in deposit order.
        for slot in [2, 0, 3] {
            w.deposit_token(Rank(0), slot, 100 + slot);
        }
        w.deposit_token(Rank(1), 99, 7);
        let mut out = Vec::new();
        assert_eq!(w.drain_ready(Rank(0), &mut out), 3);
        assert_eq!(out, vec![2, 0, 3]);
        assert_eq!(w.ready_queued(Rank(0)), 0);
        w.deposit_token(Rank(0), 1, 101);
        assert_eq!(w.ready_queued(Rank(0)), 1);
        // Another rank's deposit lands in its own queue only.
        out.clear();
        assert_eq!(w.drain_ready(Rank(1), &mut out), 1);
        assert_eq!(out, vec![99]);
    }

    #[test]
    fn multithreaded_world_barrier_and_reduce() {
        let w = World::new(GasnexConfig::smp(4).with_segment_size(1 << 12));
        let mut handles = Vec::new();
        for r in 0..4u32 {
            let w = Arc::clone(&w);
            handles.push(std::thread::spawn(move || {
                let me = Rank(r);
                let team = w.world_team();

                w.allreduce(&team, me, r as u64, &|a, b| a + b, &mut || {
                    w.poll_rank(me, 8);
                })
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 6);
        }
    }
}
