//! Runtime launch and the per-rank handle.
//!
//! [`launch`] runs an SPMD closure on `ranks` threads, each modelling one
//! UPC++ process. The closure receives an [`Upcr`] handle carrying that
//! rank's identity and configuration; communication operations are methods
//! on it (see [`crate::rma`], [`crate::atomics`], [`crate::rpc`]).

use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use gasnex::{ClockMode, GasnexConfig, NetConfig, Rank, Team, World};

use crate::continuation::{ProgressWaker, WorldShared};
use crate::ctx::{CtxGuard, RankCtx};
use crate::future::Future;
use crate::global_ptr::{GlobalPtr, LocalRef, SegValue};
use crate::stats::{add, bump, raise, StatsSnapshot};
use crate::version::LibVersion;

/// Configuration of a `upcr` runtime: substrate layout plus which UPC++
/// build semantics to follow.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Substrate (conduit, ranks, nodes, segments, network).
    pub gasnex: GasnexConfig,
    /// Library version semantics (defaults to "2021.3.6 eager").
    pub version: LibVersion,
    /// Stall-watchdog timeout in milliseconds: how long a parked
    /// `wait_signal` sleeps before the watchdog walks the wait graph and
    /// panics with a stall diagnosis (see [`crate::introspect`]). Only
    /// wall-clock parks arm the watchdog; virtual-clock waits poll
    /// deterministically and are bounded by quiescence instead.
    pub watchdog_ms: u64,
    /// Spawn one background progress thread per simulated node, driving
    /// `Conduit::poll` and continuation-callback drains on a
    /// parked-condvar cadence (woken by injections and callback
    /// enqueues). Strict no-op — not even spawned — under
    /// [`gasnex::ClockMode::Virtual`], so every chaos/differential
    /// schedule stays byte-replayable.
    pub progress_thread: bool,
}

/// Default [`RuntimeConfig::watchdog_ms`]: generous — a healthy signal
/// crosses the loopback wire in microseconds, so 30s means nobody will
/// ever post the badge.
pub const DEFAULT_WATCHDOG_MS: u64 = 30_000;

impl RuntimeConfig {
    /// Single-node SMP runtime with `ranks` ranks.
    pub fn smp(ranks: usize) -> Self {
        RuntimeConfig {
            gasnex: GasnexConfig::smp(ranks),
            version: LibVersion::V2021_3_6Eager,
            watchdog_ms: DEFAULT_WATCHDOG_MS,
            progress_thread: false,
        }
    }

    /// Multi-node UDP-conduit runtime.
    pub fn udp(ranks: usize, ranks_per_node: usize) -> Self {
        RuntimeConfig {
            gasnex: GasnexConfig::udp(ranks, ranks_per_node),
            version: LibVersion::V2021_3_6Eager,
            watchdog_ms: DEFAULT_WATCHDOG_MS,
            progress_thread: false,
        }
    }

    /// Select the library version semantics.
    pub fn with_version(mut self, v: LibVersion) -> Self {
        self.version = v;
        self
    }

    /// Override the stall-watchdog timeout (milliseconds). Tests and the
    /// watchdog smoke job set this low to turn a would-be hang into a
    /// prompt, diagnosable failure.
    pub fn with_watchdog_ms(mut self, ms: u64) -> Self {
        self.watchdog_ms = ms;
        self
    }

    /// Override the per-rank segment size in bytes.
    pub fn with_segment_size(mut self, bytes: usize) -> Self {
        self.gasnex = self.gasnex.with_segment_size(bytes);
        self
    }

    /// Override the simulated network parameters.
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.gasnex = self.gasnex.with_net(net);
        self
    }

    /// Configure per-target message aggregation (see [`gasnex::AggConfig`]).
    pub fn with_agg(mut self, agg: gasnex::AggConfig) -> Self {
        self.gasnex = self.gasnex.with_agg(agg);
        self
    }

    /// Select the wire implementation (see [`gasnex::Transport`]).
    pub fn with_transport(mut self, transport: gasnex::Transport) -> Self {
        self.gasnex = self.gasnex.with_transport(transport);
        self
    }

    /// Enable the per-node background progress thread (see
    /// [`RuntimeConfig::progress_thread`]). Wall-clock only: under
    /// [`gasnex::ClockMode::Virtual`] the flag is accepted but no thread
    /// is spawned, keeping deterministic runs byte-replayable.
    pub fn with_progress_thread(mut self, on: bool) -> Self {
        self.progress_thread = on;
        self
    }
}

/// The per-rank runtime handle. Not `Send`: it belongs to its rank's thread,
/// like a UPC++ persona.
pub struct Upcr {
    pub(crate) ctx: Rc<RankCtx>,
}

/// Run `f` as an SPMD program over the configured ranks and return every
/// rank's result, indexed by rank.
///
/// Ranks synchronize on entry; on exit the runtime quiesces (drains all
/// outstanding AMs, network deliveries, and deferred notifications) before
/// tearing down, so fire-and-forget traffic cannot be lost.
///
/// Panics in any rank propagate out of `launch`.
pub fn launch<F, R>(cfg: RuntimeConfig, f: F) -> Vec<R>
where
    F: Fn(&Upcr) -> R + Sync,
    R: Send,
{
    cfg.gasnex.validate();
    let world = World::new(cfg.gasnex.clone());
    let shared = WorldShared::new(&world);
    let version = cfg.version;
    let watchdog_ms = cfg.watchdog_ms;
    let ranks = cfg.gasnex.ranks;
    // The background progress thread exists only on the wall clock: under
    // the virtual clock it is a strict no-op (never spawned), so every
    // seeded chaos/differential schedule stays byte-replayable.
    let progress_threads_on = cfg.progress_thread && cfg.gasnex.net.clock == ClockMode::Wall;
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let waker = Arc::new(ProgressWaker::default());
    if progress_threads_on {
        let w = Arc::clone(&waker);
        world
            .net()
            .set_progress_waker(Some(Arc::new(move || w.wake())));
    }
    std::thread::scope(|s| {
        let mut pthreads = Vec::new();
        if progress_threads_on {
            let topo = world.topology();
            for node in 0..topo.nodes() {
                let node_ranks: Vec<usize> = topo.node_ranks(node).map(|r| r as usize).collect();
                let world = Arc::clone(&world);
                let shared = &shared;
                let stop = Arc::clone(&stop);
                let waker = Arc::clone(&waker);
                pthreads.push(s.spawn(move || {
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        progress_thread_loop(&world, shared, &node_ranks, &stop, &waker);
                    }));
                    if run.is_err() {
                        // A panicking user callback on this thread must not
                        // leave the ranks hanging in barriers.
                        world.abort();
                    }
                }));
            }
        }
        let mut handles = Vec::with_capacity(ranks);
        for r in 0..ranks {
            let world = Arc::clone(&world);
            let shared = &shared;
            let f = &f;
            handles.push(s.spawn(move || {
                let ctx = RankCtx::with_shared(
                    Arc::clone(&world),
                    Rank::from_idx(r),
                    version,
                    watchdog_ms,
                    shared,
                );
                let _guard = CtxGuard::install(Rc::clone(&ctx));
                let u = Upcr { ctx };
                u.barrier();
                // A panicking rank marks the world aborted so peers bail out
                // of barriers and waits instead of deadlocking.
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&u))) {
                    Ok(out) => {
                        u.quiesce();
                        crate::dist_object::reset_registry();
                        out
                    }
                    Err(payload) => {
                        world.abort();
                        crate::dist_object::reset_registry();
                        std::panic::resume_unwind(payload);
                    }
                }
            }));
        }
        // Collect every rank's result BEFORE re-raising any panic: the
        // progress threads must be stopped and joined first, or an early
        // resume_unwind would leave them running and hang the scope.
        let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        stop.store(true, std::sync::atomic::Ordering::Release);
        waker.wake();
        for t in pthreads {
            let _ = t.join();
        }
        if progress_threads_on {
            world.net().set_progress_waker(None);
        }
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Body of one per-node background progress thread: poll the conduit,
/// drain the node's continuation callbacks, then park on the waker until
/// the cadence elapses or an injection/enqueue wakes it. Poll and wakeup
/// counts are attributed to the node's first rank. Aggregation buffers
/// are not touched: they belong to their rank, whose own progress, barrier
/// or quiescence flushes them.
fn progress_thread_loop(
    world: &Arc<World>,
    shared: &WorldShared,
    node_ranks: &[usize],
    stop: &std::sync::atomic::AtomicBool,
    waker: &ProgressWaker,
) {
    use std::sync::atomic::Ordering;
    let home = &shared.slots[node_ranks[0]].stats;
    while !stop.load(Ordering::Acquire) && !world.is_aborted() {
        bump(&home.progress_thread_polls);
        let mut did = world.net().poll(world);
        for &r in node_ranks {
            let slot = &shared.slots[r];
            // Untraced drain: the rank's tracer belongs to its own thread.
            did += slot.callbacks.drain(|cb, _top| {
                bump(&slot.stats.callbacks_run);
                cb();
            });
        }
        if did == 0 && waker.wait(std::time::Duration::from_micros(100)) {
            bump(&home.progress_thread_wakeups);
        }
    }
}

impl Upcr {
    // ---- identity -----------------------------------------------------------

    /// This rank's index in the world.
    #[inline]
    pub fn rank_me(&self) -> usize {
        self.ctx.me.idx()
    }

    /// This rank as a [`Rank`].
    #[inline]
    pub fn me(&self) -> Rank {
        self.ctx.me
    }

    /// Total number of ranks.
    #[inline]
    pub fn rank_n(&self) -> usize {
        self.ctx.world.ranks()
    }

    /// The library version semantics in force.
    pub fn version(&self) -> LibVersion {
        self.ctx.version
    }

    /// The underlying substrate world (topology, network, segments).
    pub fn world(&self) -> &Arc<World> {
        &self.ctx.world
    }

    /// The team of all ranks.
    pub fn world_team(&self) -> Team {
        self.ctx.world.world_team()
    }

    /// The team of ranks sharing this rank's simulated node.
    pub fn local_team(&self) -> Team {
        self.ctx.world.local_team(self.ctx.me)
    }

    // ---- progress and synchronization ----------------------------------------

    /// Run one user-level progress quantum: execute incoming RPCs, poll the
    /// network, and deliver due deferred notifications.
    pub fn progress(&self) {
        self.ctx.progress_quantum();
    }

    /// Explicitly flush this rank's aggregation buffers, injecting every
    /// buffered batch immediately. Returns the number of batches flushed
    /// (0 when aggregation is disabled or nothing was buffered). Barriers
    /// and runtime teardown flush implicitly; call this to bound latency
    /// of fire-and-forget fine-grained traffic between synchronizations.
    pub fn agg_flush(&self) -> usize {
        self.ctx.agg_flush_explicit()
    }

    /// Barrier over all ranks (drives progress while waiting).
    pub fn barrier(&self) {
        let team = self.world_team();
        self.barrier_team(&team);
    }

    /// Barrier over `team`.
    ///
    /// Entering a barrier is a synchronization point: any operations this
    /// rank buffered in the aggregation layer are flushed first, so peers
    /// observing the barrier's completion also observe this rank's writes.
    pub fn barrier_team(&self, team: &Team) {
        self.ctx.agg_flush_explicit();
        let ctx = Rc::clone(&self.ctx);
        self.ctx.world.barrier(team, &mut || {
            ctx.progress_quantum();
        });
    }

    /// Asynchronous barrier over all ranks (`upcxx::barrier_async`):
    /// returns a future readied — during a later progress call — once every
    /// rank has entered the same barrier epoch. Unlike [`barrier`], the
    /// caller keeps running and may overlap work with the synchronization.
    pub fn barrier_async(&self) -> Future<()> {
        let team = self.world_team();
        self.barrier_async_team(&team)
    }

    /// Asynchronous barrier over `team`.
    pub fn barrier_async_team(&self, team: &Team) -> Future<()> {
        let idx = team
            .rank_of(self.ctx.me)
            .expect("barrier_async caller must be a team member");
        let epoch = team.async_arrive(idx);
        let team2 = team.clone();
        // Completion is inherently asynchronous (it depends on other
        // ranks), so it always routes through the progress engine —
        // matching UPC++, where collectives never complete eagerly.
        let cell = crate::future::cell::new_cell_with_value(1, ());
        let c2 = Rc::clone(&cell);
        self.ctx.push_deferred(crate::ctx::Deferred::OnCheck(
            Box::new(move || team2.async_epoch_complete(epoch)),
            Box::new(move || c2.fulfill(1)),
        ));
        Future::from_cell(cell)
    }

    /// Collectively split the world team by `color`, ordering members by
    /// `(key, rank)` — `upcxx::team::split`.
    pub fn split(&self, color: u64, key: u64) -> Team {
        let team = self.world_team();
        self.split_team(&team, color, key)
    }

    /// Collectively split `team` by `color`.
    pub fn split_team(&self, team: &Team, color: u64, key: u64) -> Team {
        let ctx = Rc::clone(&self.ctx);
        self.ctx
            .world
            .split_team(team, self.ctx.me, color, key, &mut || {
                ctx.progress_quantum();
            })
    }

    /// All-gather of one `u64` per member of `team`, indexed by team rank.
    pub fn gather_all_team(&self, team: &Team, v: u64) -> Vec<u64> {
        let ctx = Rc::clone(&self.ctx);
        self.ctx.world.gather_all(team, self.ctx.me, v, &mut || {
            ctx.progress_quantum();
        })
    }

    /// All-gather of one `u64` per rank, indexed by rank.
    pub fn gather_all(&self, v: u64) -> Vec<u64> {
        let team = self.world_team();
        self.gather_all_team(&team, v)
    }

    /// Broadcast over `team` from team-member index `root`.
    pub fn broadcast_team<T: Clone + Send + 'static>(&self, team: &Team, val: T, root: usize) -> T {
        let ctx = Rc::clone(&self.ctx);
        let me_idx = team
            .rank_of(self.ctx.me)
            .expect("broadcast caller must be a team member");
        let root_val = (me_idx == root).then_some(val);
        self.ctx.world.broadcast(team, root_val, &mut || {
            ctx.progress_quantum();
        })
    }

    /// Team-scoped sum reduction.
    pub fn allreduce_sum_u64_team(&self, team: &Team, v: u64) -> u64 {
        let ctx = Rc::clone(&self.ctx);
        self.ctx
            .world
            .allreduce(team, self.ctx.me, v, &|a, b| a.wrapping_add(b), &mut || {
                ctx.progress_quantum();
            })
    }

    /// Broadcast `val` from `root` to every rank (synchronous collective).
    pub fn broadcast<T: Clone + Send + 'static>(&self, val: T, root: usize) -> T {
        let team = self.world_team();
        let ctx = Rc::clone(&self.ctx);
        let root_val = (self.rank_me() == root).then_some(val);
        self.ctx.world.broadcast(&team, root_val, &mut || {
            ctx.progress_quantum();
        })
    }

    fn allreduce_bits(&self, bits: u64, f: &dyn Fn(u64, u64) -> u64) -> u64 {
        let team = self.world_team();
        let ctx = Rc::clone(&self.ctx);
        self.ctx
            .world
            .allreduce(&team, self.ctx.me, bits, f, &mut || {
                ctx.progress_quantum();
            })
    }

    /// Sum of `v` across all ranks.
    pub fn allreduce_sum_u64(&self, v: u64) -> u64 {
        self.allreduce_bits(v, &|a, b| a.wrapping_add(b))
    }

    /// Maximum of `v` across all ranks.
    pub fn allreduce_max_u64(&self, v: u64) -> u64 {
        self.allreduce_bits(v, &|a, b| a.max(b))
    }

    /// Minimum of `v` across all ranks.
    pub fn allreduce_min_u64(&self, v: u64) -> u64 {
        self.allreduce_bits(v, &|a, b| a.min(b))
    }

    /// Sum of `v` across all ranks (floating point).
    pub fn allreduce_sum_f64(&self, v: f64) -> f64 {
        f64::from_bits(self.allreduce_bits(v.to_bits(), &|a, b| {
            (f64::from_bits(a) + f64::from_bits(b)).to_bits()
        }))
    }

    /// Drain all globally outstanding work, then barrier. Called
    /// automatically at the end of `launch` so fire-and-forget traffic is
    /// never lost.
    ///
    /// Termination detection: a round is *clean* when this rank is locally
    /// idle, the global sent/executed and injected/delivered counters agree,
    /// and every rank reports the same. Two consecutive clean rounds
    /// (separated by the allreduce, which acts as a barrier) rule out
    /// in-flight work racing the counter samples.
    pub(crate) fn quiesce(&self) {
        const MAX_ROUNDS: usize = 1_000_000;
        let mut clean_rounds = 0;
        // Flush aggregation buffers up front; the drain loop below also
        // flushes (buffered batches count as progress work), so this is
        // belt-and-braces for the first round.
        self.ctx.agg_flush_explicit();
        for _ in 0..MAX_ROUNDS {
            while self.ctx.progress_quantum() > 0 {}
            let busy = u64::from(!self.ctx.locally_idle() || !self.ctx.world.substrate_quiet());
            if self.allreduce_sum_u64(busy) == 0 {
                clean_rounds += 1;
                if clean_rounds >= 2 {
                    self.barrier();
                    return;
                }
            } else {
                clean_rounds = 0;
            }
        }
        panic!("quiesce: outstanding work failed to drain (deadlocked notification?)");
    }

    // ---- shared-memory management ---------------------------------------------

    /// Allocate one `T` in this rank's shared segment, initialized to `v`
    /// (the `upcxx::new_<T>(v)` idiom).
    pub fn new_<T: SegValue>(&self, v: T) -> GlobalPtr<T> {
        let p = self.new_array::<T>(1);
        self.ctx
            .world
            .segment(p.rank())
            .write_scalar(p.offset(), T::SIZE, v.to_bits());
        p
    }

    /// Allocate `n` zero-initialized `T`s in this rank's shared segment.
    pub fn new_array<T: SegValue>(&self, n: usize) -> GlobalPtr<T> {
        let bytes = n * T::SIZE;
        let off = self
            .ctx
            .world
            .seg_alloc(self.ctx.me)
            .alloc(bytes, T::SIZE.max(8))
            .unwrap_or_else(|e| panic!("shared allocation of {bytes} bytes failed: {e}"));
        // Allocator may return recycled memory; fresh allocations are
        // expected zeroed (matching `upcxx::new_array`'s value-init of
        // scalars in this reproduction).
        let seg = self.ctx.world.segment(self.ctx.me);
        for i in 0..bytes.div_ceil(8) {
            seg.write_u64(off + i * 8, 0);
        }
        GlobalPtr::from_parts(self.ctx.me, off)
    }

    /// Free a shared object allocated by [`new_`](Self::new_) or
    /// [`new_array`](Self::new_array). May be called by any rank that can
    /// address the owner's segment.
    pub fn delete_<T: SegValue>(&self, p: GlobalPtr<T>) {
        assert!(!p.is_null(), "delete_ of null global pointer");
        self.ctx.world.seg_alloc(p.rank()).dealloc(p.offset());
    }

    // ---- locality -----------------------------------------------------------

    /// Whether `p` can be downcast to a direct reference from this rank.
    /// Compile-time-true on the SMP conduit under 2021.3.6 semantics (the
    /// constexpr `is_local` optimization).
    #[inline]
    pub fn is_local<T: SegValue>(&self, p: GlobalPtr<T>) -> bool {
        self.ctx.addressable(p.rank())
    }

    /// Downcast a local global pointer to a direct reference (the
    /// `global_ptr::local()` idiom). Panics if `p` is not local.
    #[inline]
    pub fn local<T: SegValue>(&self, p: GlobalPtr<T>) -> LocalRef<'_, T> {
        assert!(
            self.is_local(p),
            "local() downcast of non-local pointer {p:?}"
        );
        LocalRef {
            seg: self.ctx.world.segment(p.rank()),
            off: p.offset(),
            _marker: PhantomData,
        }
    }

    /// Direct view of `len` 64-bit words behind a local pointer, for
    /// manually-localized bulk access (the raw-GUPS table).
    pub fn local_slice_u64(&self, p: GlobalPtr<u64>, len: usize) -> &[AtomicU64] {
        assert!(
            self.is_local(p),
            "local_slice_u64 of non-local pointer {p:?}"
        );
        self.ctx
            .world
            .segment(p.rank())
            .atomic_slice_u64(p.offset(), len)
    }

    // ---- misc ----------------------------------------------------------------

    /// A ready value-less future (`upcxx::make_future()`), using the shared
    /// pre-allocated cell when the version elides the allocation.
    pub fn make_future(&self) -> Future<()> {
        Future::ready_unit()
    }

    /// Snapshot of this rank's runtime statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.ctx.stats.snapshot()
    }

    /// Reset this rank's runtime statistics to zero.
    pub fn reset_stats(&self) {
        self.ctx.stats.reset();
    }

    /// Snapshot of the shared simulated-network counters — unlike
    /// [`stats`](Self::stats) these are world-global, not per-rank. Includes
    /// the chaos-mode reliability layer: `retries`, `drops_injected`,
    /// `dup_suppressed`, and the largest retransmission backoff applied.
    pub fn net_stats(&self) -> gasnex::NetStats {
        self.ctx.world.net().stats()
    }

    // ---- runtime introspection ------------------------------------------------

    /// Capture a live snapshot of everything pending right now: this
    /// rank's open operation spans (with their lifecycle phase) and
    /// aggregation buckets, plus the world-global in-flight conduit
    /// messages and notification words. Render with
    /// [`render_text`](crate::introspect::Snapshot::render_text) /
    /// [`render_json`](crate::introspect::Snapshot::render_json) — both
    /// deterministic, so a quiesced snapshot is byte-identical across
    /// same-seed runs.
    pub fn snapshot(&self) -> crate::introspect::Snapshot {
        crate::introspect::Snapshot::capture(&self.ctx)
    }

    /// The current wait-for graph (parked notification waiters plus
    /// in-flight wire deliveries) — the structure the stall watchdog walks.
    pub fn wait_graph(&self) -> Vec<crate::introspect::WaitEdge> {
        crate::introspect::wait_graph(&self.ctx.world)
    }

    // ---- operation-lifecycle tracing ------------------------------------------

    /// Enable or disable operation-lifecycle tracing on this rank.
    ///
    /// While enabled, every RMA put/get, atomic, RPC, and `when_all`
    /// conjoin records lifecycle events (initiation, network injection,
    /// completion notification tagged eager vs. deferred, event wakeups,
    /// progress drains) into a per-rank fixed-capacity ring buffer, and
    /// completion latencies feed the (op kind × completion path) histograms
    /// behind [`latency_report`](Self::latency_report). Timestamps come from
    /// the simulated network's clock, so virtual-clock chaos traces are
    /// bit-replayable.
    ///
    /// Also flips the shared network-level event sink on the first enable
    /// (wire inject/drop/retry/deliver events, drained world-globally via
    /// [`take_net_trace`](Self::take_net_trace)). Disabled-mode overhead is
    /// one predictably-taken branch per instrumentation site.
    pub fn trace_enabled(&self, on: bool) {
        self.ctx.trace_on.set(on);
        // The net sink is world-global: enable is sticky across ranks, and
        // disable only happens when *this* rank turns tracing off — other
        // ranks still tracing will simply re-enable on their next call.
        self.ctx.world.net().set_tracing(on);
    }

    /// Whether operation-lifecycle tracing is currently enabled on this rank.
    pub fn is_tracing(&self) -> bool {
        self.ctx.trace_on.get()
    }

    /// Drain this rank's recorded trace events (ring-buffer contents plus
    /// the count of events dropped to the ring's displacement policy).
    /// Recording continues if tracing is still enabled.
    pub fn take_trace(&self) -> crate::trace::RankTrace {
        self.ctx.tracer.borrow_mut().take()
    }

    /// Drain the world-global network event sink (wire-level inject, chaos
    /// drop, retry, deliver, duplicate-discard, and signal events). Shared
    /// by all ranks — drain from one rank, typically after a barrier.
    pub fn take_net_trace(&self) -> Vec<gasnex::NetTraceEvent> {
        self.ctx.world.net().take_trace()
    }

    /// Snapshot of this rank's completion-latency histograms, keyed by
    /// (op kind × completion path), with `p50`/`p99`/`max` accessors and a
    /// cross-rank [`merge`](crate::trace::Histograms::merge).
    pub fn latency_report(&self) -> crate::trace::Histograms {
        self.ctx.tracer.borrow().histograms()
    }

    // ---- cross-rank causal tracing --------------------------------------------

    /// Collectively assemble the cross-rank causal timeline (PR 9).
    ///
    /// Every rank must call this (it contains barriers). Each rank drains
    /// its span trace and deposits it with the world; after a barrier,
    /// rank 0 collects the deposits plus the world-global wire trace into
    /// a [`crate::trace::TraceBundle`] and runs [`crate::trace::assemble`]
    /// over it — merging the per-rank rings by Lamport stamp, building the
    /// happens-before DAG, checking for causality violations, and
    /// profiling the distributed critical path. Returns
    /// `Some((bundle, assembly))` on rank 0, `None` elsewhere.
    ///
    /// Rank 0's `hb_edges` / `causal_violations` counters and the
    /// `causal_chain_depth` high-water gauge are updated from the result.
    pub fn take_causal(&self) -> Option<(crate::trace::TraceBundle, crate::trace::CausalAssembly)> {
        let trace = self.ctx.tracer.borrow_mut().take();
        self.ctx.world.deposit(self.ctx.me.0, Box::new(trace));
        self.barrier();
        if self.ctx.me.0 != 0 {
            // Hold everyone until rank 0 has drained the deposit bin, so a
            // subsequent take_causal cannot interleave deposits.
            self.barrier();
            return None;
        }
        let mut bundle = crate::trace::TraceBundle::default();
        for (_, item) in self.ctx.world.drain_deposits() {
            if let Ok(rt) = item.downcast::<crate::trace::RankTrace>() {
                bundle.ranks.push(*rt);
            }
        }
        bundle.net = self.ctx.world.net().take_trace();
        let asm = crate::trace::assemble(&bundle);
        let s = &self.ctx.stats;
        add(&s.hb_edges, asm.hb_edges());
        add(&s.causal_violations, asm.violations);
        raise(&s.causal_chain_depth, asm.chain_depth);
        self.barrier();
        Some((bundle, asm))
    }

    /// Collective convenience over [`take_causal`](Self::take_causal):
    /// returns the deterministic text rendering of the assembled causal
    /// timeline on rank 0, `None` elsewhere.
    pub fn causal_report(&self) -> Option<String> {
        self.take_causal().map(|(_, asm)| asm.render_text())
    }

    // ---- metric time-series ---------------------------------------------------

    /// Enable or disable fixed-interval metric sampling on this rank.
    ///
    /// While enabled, the end of each progress quantum records — at most
    /// once per sampling interval of the simulated clock — a snapshot of
    /// every registered metric (the `per_rank_stats!` counters, live
    /// queue-depth gauges, and the shared network counters) into a bounded
    /// ring. Under [`gasnex::ClockMode::Virtual`] the series is
    /// deterministic for a single-threaded drive. Disabled-mode overhead
    /// is one predictably-taken branch per quantum.
    pub fn metrics_enabled(&self, on: bool) {
        self.ctx.metrics_on.set(on);
    }

    /// Whether metric sampling is currently enabled on this rank.
    pub fn is_metrics_enabled(&self) -> bool {
        self.ctx.metrics_on.get()
    }

    /// Replace the sampler configuration (interval, ring capacity). Drops
    /// any buffered samples.
    pub fn metrics_config(&self, cfg: crate::metrics::MetricsConfig) {
        self.ctx
            .metrics
            .replace(crate::metrics::MetricSeries::new(cfg));
    }

    /// Drain this rank's sampled metric series, recording one final
    /// unconditional sample first so the end-of-run state is always
    /// present. Sampling continues if still enabled.
    pub fn take_metrics(&self) -> crate::metrics::RankSeries {
        let now = self.ctx.trace_now_ns();
        let mut m = self.ctx.metrics.borrow_mut();
        let interval_ns = m.interval_ns();
        m.force_sample(now, || crate::metrics::collect_values(&self.ctx));
        let (samples, dropped) = m.take();
        crate::metrics::RankSeries {
            rank: self.ctx.me.0,
            interval_ns,
            samples,
            dropped,
        }
    }

    /// Reset every observability surface at once: the per-rank stats
    /// counters ([`reset_stats`](Self::reset_stats) semantics, with the
    /// pending-notifications high-water gauge re-primed to the *current*
    /// pending level rather than zero — gauges are levels, not counts),
    /// the completion-latency histograms, the shared network counters
    /// (re-baselined; the raw quiescence counters are untouched), and any
    /// buffered metric samples.
    pub fn reset_observability(&self) {
        self.ctx.stats.reset();
        self.ctx.reprime_pending_highwater();
        self.ctx.tracer.borrow_mut().reset_histograms();
        self.ctx.world.net().reset_stats();
        let _ = self.ctx.metrics.borrow_mut().take();
    }
}

/// Free-function conveniences mirroring the UPC++ global API; usable from
/// anywhere inside a `launch` region on the calling rank's context —
/// including from `then` continuations and RPC bodies, where no borrowed
/// [`Upcr`] handle can be captured.
pub mod api {
    use super::Upcr;
    use crate::completion::CxValue;
    use crate::ctx::with_ctx;
    use crate::future::Future;
    use crate::global_ptr::{GlobalPtr, SegValue};

    /// Build an ephemeral handle for the calling rank.
    fn current() -> Upcr {
        Upcr {
            ctx: crate::ctx::clone_current(),
        }
    }

    /// The calling rank's index.
    pub fn rank_me() -> usize {
        with_ctx(|c| c.me.idx())
    }

    /// Total number of ranks.
    pub fn rank_n() -> usize {
        with_ctx(|c| c.world.ranks())
    }

    /// One user-level progress quantum.
    pub fn progress() {
        with_ctx(|c| {
            c.progress_quantum();
        });
    }

    /// Blocking signal wait on the calling rank's context
    /// ([`Upcr::wait_signal`]) — usable inside continuation callbacks and
    /// RPC bodies, where no borrowed handle is available.
    pub fn wait_signal(word: usize, mask: u64) -> u64 {
        current().wait_signal(word, mask)
    }

    /// Asynchronous scalar put on the calling rank's context
    /// ([`Upcr::rput`]).
    pub fn rput<T: SegValue>(val: T, dst: GlobalPtr<T>) -> Future<()> {
        current().rput(val, dst)
    }

    /// Asynchronous scalar get on the calling rank's context
    /// ([`Upcr::rget`]).
    pub fn rget<T: SegValue + CxValue>(src: GlobalPtr<T>) -> Future<T> {
        current().rget(src)
    }

    /// Scalar put with a continuation callback on the calling rank's
    /// context — shorthand for `rput_with(val, dst,
    /// operation_cx::as_callback(f))`, usable inside callbacks and RPC
    /// bodies where no borrowed handle is available. The callback is
    /// enqueued, never run inline; an enqueue made from inside a drain is
    /// delivered by that same drain (see
    /// [`crate::completion::operation_cx::as_callback`]).
    pub fn rput_with_callback<T: SegValue, F: FnOnce(()) + Send + 'static>(
        val: T,
        dst: GlobalPtr<T>,
        f: F,
    ) {
        current().rput_with(val, dst, crate::completion::operation_cx::as_callback(f));
    }

    /// RPC from the calling rank's context ([`Upcr::rpc`]).
    pub fn rpc<F, R>(target: gasnex::Rank, f: F) -> Future<R>
    where
        F: FnOnce() -> R + Send + 'static,
        R: CxValue,
    {
        current().rpc(target, f)
    }

    /// Direct load through a local (directly addressable) global pointer —
    /// the downcast-and-read idiom, usable inside RPC bodies where no
    /// borrowed handle is available. Panics if `p` is not local.
    pub fn local_load<T: SegValue>(p: GlobalPtr<T>) -> T {
        with_ctx(|c| {
            assert!(
                c.addressable(p.rank()),
                "local_load of non-local pointer {p:?}"
            );
            T::from_bits(c.world.segment(p.rank()).read_scalar(p.offset(), T::SIZE))
        })
    }

    /// Direct store through a local global pointer (see [`local_load`]).
    pub fn local_store<T: SegValue>(p: GlobalPtr<T>, v: T) {
        with_ctx(|c| {
            assert!(
                c.addressable(p.rank()),
                "local_store of non-local pointer {p:?}"
            );
            c.world
                .segment(p.rank())
                .write_scalar(p.offset(), T::SIZE, v.to_bits());
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders_compose() {
        let c = RuntimeConfig::udp(8, 4)
            .with_version(LibVersion::V2021_3_0)
            .with_segment_size(1 << 14)
            .with_net(NetConfig {
                latency_ns: 9,
                jitter_ns: 1,
                ..NetConfig::default()
            });
        assert_eq!(c.version, LibVersion::V2021_3_0);
        assert_eq!(c.gasnex.ranks, 8);
        assert_eq!(c.gasnex.ranks_per_node, 4);
        assert_eq!(c.gasnex.segment_size, 1 << 14);
        assert_eq!(c.gasnex.net.latency_ns, 9);
        assert!(matches!(
            RuntimeConfig::smp(2).gasnex.conduit,
            gasnex::ConduitKind::Smp
        ));
        assert!(matches!(
            RuntimeConfig::udp(2, 2).gasnex.conduit,
            gasnex::ConduitKind::Udp
        ));
    }

    #[test]
    fn default_version_is_eager() {
        assert_eq!(RuntimeConfig::smp(1).version, LibVersion::V2021_3_6Eager);
    }

    #[test]
    fn launch_installs_identity_and_free_functions() {
        let out = launch(RuntimeConfig::smp(3).with_segment_size(1 << 16), |u| {
            assert_eq!(api::rank_me(), u.rank_me());
            assert_eq!(api::rank_n(), 3);
            api::progress();
            (u.rank_me(), u.rank_n(), u.version())
        });
        assert_eq!(out.len(), 3);
        for (r, (me, n, v)) in out.into_iter().enumerate() {
            assert_eq!(me, r);
            assert_eq!(n, 3);
            assert_eq!(v, LibVersion::V2021_3_6Eager);
        }
    }

    #[test]
    fn local_load_store_free_functions() {
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 16), |u| {
            let p = u.new_::<u64>(0);
            api::local_store(p, 31);
            assert_eq!(api::local_load::<u64>(p), 31);
        });
    }
}
