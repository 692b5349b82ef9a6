//! # simtest — differential eager/defer correctness harness
//!
//! The paper's central claim is that eager notification changes only *when*
//! a completion is signalled, never *what* the program computes. This crate
//! turns that claim into an executable invariant: it runs the same seeded
//! workload under every [`LibVersion`] on a multi-node world whose network
//! is a deterministic adversary (the chaos mode of `gasnex::SimNetwork` —
//! seeded drops, duplicates, reordering, burst delays, and partition
//! windows over a virtual clock), and reduces each run to an [`Outcome`]:
//! a digest of the final shared-memory state, the number of completed
//! operations, and the reliability-layer counters. Two runs are
//! *observationally equivalent* exactly when their outcomes are equal.
//!
//! Workload state is constructed so the final memory image is independent
//! of thread scheduling: every shared word has a single writer (put/get
//! storms, `when_all` fan-ins) or only commutative updates (atomic storms,
//! GUPS xor), so any divergence between library versions is a real
//! semantics change, not a race artifact.

use std::sync::Mutex;

use gasnex::{AggConfig, FaultPlan, NetConfig, NetStats, Transport};
use graphgen::SeededRng;
use gups::{GupsConfig, Variant};
use upcr::{conjoin, launch, GlobalPtr, LibVersion, RuntimeConfig, Upcr};

/// Ranks per differential run.
pub const RANKS: usize = 4;
/// Ranks per simulated node (two nodes, so half the traffic crosses the
/// simulated network).
pub const RANKS_PER_NODE: usize = 2;
/// The eight fixed seeds every chaos sweep runs (`./ci.sh chaos` runs the
/// sweeps in release mode).
pub const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];
/// Callback-carrying ops [`Workload::CallbackStorm`] issues across the
/// world: every rank puts to and gets from each of its `RANKS - 1` peers.
pub const CALLBACK_OPS: u64 = (RANKS * 2 * (RANKS - 1)) as u64;

/// The seeded workloads the harness sweeps. Each is deterministic in final
/// memory state for a fixed `(workload, seed)` regardless of scheduling or
/// library version.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Disjoint-slot RMA put storm followed by a read-back get storm.
    PutGetStorm,
    /// Fetching and non-fetching atomics with per-counter commutative op
    /// classes (add counters, xor counters).
    AtomicStorm,
    /// Rounds of `when_all`-conjoined local + remote puts per rank.
    WhenAllFanIn,
    /// A small GUPS run (atomic-xor variant, exact) over the faulted
    /// network, verified against the race-free table.
    GupsSmall,
    /// Notifiable-RMA storm: every rank put-signals a private slot on every
    /// peer and amo-signals a shared counter, then blocks in `wait_signal`
    /// for the full badge mask. The counter proves exactly-once delivery
    /// (`Add` is duplicate-sensitive where the badge OR is duplicate-blind).
    SignalStorm,
    /// Continuation-callback storm: every rank issues a put and a get to
    /// every peer with `operation_cx::as_callback` completions, folding
    /// each callback's observation into a commutative accumulator, and
    /// asserts every callback ran exactly once (`callbacks_run` equals the
    /// number of callback-carrying ops).
    CallbackStorm,
}

impl Workload {
    /// The original golden-pinned workloads, in sweep order. Deliberately
    /// excludes [`Workload::SignalStorm`] and [`Workload::CallbackStorm`]:
    /// their own differential sweeps cover them explicitly, and keeping
    /// this list stable proves the pre-existing workloads' wire schedules
    /// (and digests) did not move.
    pub const ALL: [Workload; 4] = [
        Workload::PutGetStorm,
        Workload::AtomicStorm,
        Workload::WhenAllFanIn,
        Workload::GupsSmall,
    ];

    /// Human-readable name for assertion messages.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PutGetStorm => "put-get-storm",
            Workload::AtomicStorm => "atomic-storm",
            Workload::WhenAllFanIn => "when-all-fan-in",
            Workload::GupsSmall => "gups-small",
            Workload::SignalStorm => "signal-storm",
            Workload::CallbackStorm => "callback-storm",
        }
    }
}

/// Everything observable about one run. Two semantically equivalent runs
/// must agree on every field: the memory digest and completion count by the
/// paper's claim, and the network counters because fault fates are a pure
/// function of `(plan seed, message id, attempt)` and both runs inject the
/// same logical messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Order-insensitive-free digest of the final shared state, folded in
    /// rank order (identical on every rank, asserted inside the run).
    pub digest: u64,
    /// Completed communication operations summed over ranks
    /// (`rputs + rgets + amos + rpcs`; every one was waited on).
    pub completions: u64,
    /// Logical messages injected into the simulated network.
    pub injected: u64,
    /// Logical messages delivered (equals `injected` after the drain).
    pub delivered: u64,
    /// Retransmissions performed by the reliability layer.
    pub retries: u64,
    /// Transmission attempts the fault plan dropped.
    pub drops_injected: u64,
    /// Duplicate copies suppressed by receiver dedup.
    pub dup_suppressed: u64,
    /// Largest retransmission backoff applied, bounded by the plan.
    pub max_backoff_ns: u64,
}

/// Per-rank quiesced snapshots (rendered text) from the most recent
/// harness run in this process, retained so a digest mismatch — inside a
/// run or across the two runs of a differential pair — can dump the
/// runtime's introspection state before the panic unwinds. Diagnostics
/// only: parallel tests may interleave runs, so on a failure the dump is
/// best-effort about *which* run it shows, but every line it prints is a
/// real quiesced snapshot.
static LAST_RUN_SNAPSHOTS: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn record_snapshots(snaps: &[(String, String)]) {
    *LAST_RUN_SNAPSHOTS.lock().unwrap() = snaps.iter().map(|(text, _)| text.clone()).collect();
}

/// Dump every rank's quiesced snapshot from the most recent harness run to
/// stderr. Called automatically on any differential mismatch; public so
/// ad-hoc tests can dump too.
pub fn dump_last_snapshots(context: &str) {
    let snaps = LAST_RUN_SNAPSHOTS.lock().unwrap();
    eprintln!("--- per-rank quiesced snapshots ({context}) ---");
    if snaps.is_empty() {
        eprintln!("(none recorded: no harness run completed in this process)");
    }
    for s in snaps.iter() {
        eprint!("{s}");
    }
    eprintln!("--- end snapshots ---");
}

/// Assert two runs of a differential pair produced the same [`Outcome`],
/// auto-dumping the most recent run's per-rank snapshots before panicking
/// on a divergence. Every equivalence sweep routes through this so a
/// digest mismatch always arrives with runtime state attached.
#[track_caller]
pub fn assert_outcomes_match(context: &str, a: Outcome, b: Outcome) {
    if a != b {
        dump_last_snapshots(context);
        panic!("{context}: runs are not observationally equivalent:\n  a = {a:?}\n  b = {b:?}");
    }
}

/// The named fault plans the harness sweeps for a given seed. Includes the
/// combined drop+duplicate+reorder adversary the acceptance criteria call
/// for, plus burst and partition windows.
pub fn fault_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "drop-heavy",
            FaultPlan::seeded(seed)
                .with_drops(250_000)
                .with_retry(4_000, 64_000, 6),
        ),
        (
            "dup-reorder",
            FaultPlan::seeded(seed.wrapping_mul(0x9E37_79B9) ^ 0xA5A5)
                .with_dups(200_000)
                .with_reorder(300_000, 6_000),
        ),
        (
            "combined",
            FaultPlan::seeded(seed.wrapping_mul(0x85EB_CA6B) ^ 0x5A5A)
                .with_drops(150_000)
                .with_dups(120_000)
                .with_reorder(200_000, 5_000)
                .with_burst(20_000, 4_000, 8_000)
                .with_partition(10_000, 40_000)
                .with_retry(4_000, 64_000, 6),
        ),
    ]
}

/// Network configuration for a run: virtual clock (replayable schedules),
/// non-zero latency and jitter, and optionally a fault plan.
pub fn net_for(plan: Option<FaultPlan>) -> NetConfig {
    let base = NetConfig {
        latency_ns: 800,
        jitter_ns: 300,
        ..NetConfig::default()
    }
    .with_virtual_clock();
    match plan {
        Some(p) => base.with_faults(p),
        None => base,
    }
}

/// Run `workload` under `version` with the given seed and optional fault
/// plan on the default [`Setup`], reducing the run to its [`Outcome`].
pub fn run(workload: Workload, version: LibVersion, seed: u64, plan: Option<FaultPlan>) -> Outcome {
    observe(workload, version, seed, plan, Setup::default()).outcome
}

/// The named fault plans a real-socket run can honour: only deliberate
/// drops (skip the `send_to`) and duplicates (send the frame twice) are
/// expressible on a kernel wire, and the retransmission timers are scaled
/// to loopback RTTs rather than the simulator's nanosecond latencies.
pub fn udp_fault_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "drop-heavy",
            FaultPlan::seeded(seed)
                .with_drops(250_000)
                .with_retry(300_000, 4_800_000, 6),
        ),
        (
            "dup-heavy",
            FaultPlan::seeded(seed.wrapping_mul(0x9E37_79B9) ^ 0xA5A5).with_dups(200_000),
        ),
    ]
}

/// Network configuration for a real-socket run: wall clock (kernel sockets
/// cannot be time-warped) and optionally a drop/dup-only fault plan. The
/// latency knobs are irrelevant — the loopback path sets the real latency.
pub fn net_for_udp(plan: Option<FaultPlan>) -> NetConfig {
    let base = NetConfig::default();
    match plan {
        Some(p) => base.with_faults(p),
        None => base,
    }
}

/// How [`observe`] configures a run. `Setup::default()` is the plain chaos
/// harness [`run`] uses: the simulated conduit, no aggregation, no
/// progress thread, tracing and metric sampling off.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// The wire: [`Transport::Sim`] gets the harness's virtual-clock chaos
    /// network ([`net_for`]), [`Transport::UdpSocket`] the wall-clock
    /// socket network ([`net_for_udp`]), where every cross-node delivery
    /// travels as a kernel datagram. The digest and completion count must
    /// not depend on it; the reliability counters do, because real-wire
    /// retransmission races (an ACK arriving just after a timer fires)
    /// are schedule-dependent.
    pub transport: Transport,
    /// Per-target aggregation; [`harness_agg`] is the configuration the
    /// differential tests sweep.
    pub agg: Option<AggConfig>,
    /// The background progress thread
    /// ([`upcr::RuntimeConfig::with_progress_thread`]). It is a strict
    /// no-op on the virtual clock, so a thread-on sim run must be
    /// byte-identical to a thread-off one.
    pub progress_thread: bool,
    /// Operation-lifecycle tracing on every rank; fills
    /// [`Observed::bundle`] and [`Observed::hists`].
    pub trace: bool,
    /// Fixed-interval metric sampling on every rank; fills
    /// [`Observed::per_rank`].
    pub metrics: Option<upcr::MetricsConfig>,
}

/// Everything one [`observe`] run produced.
pub struct Observed {
    pub outcome: Outcome,
    /// The world's network counters after the drain, including the
    /// batching counters (`batches_injected`, `ops_coalesced`, flush
    /// reasons) and `dup_promoted`, which are deliberately *not* part of
    /// the differential [`Outcome`].
    pub net: NetStats,
    /// Continuation callbacks run, summed over every rank's stats, so a
    /// callback lost or run twice anywhere in the world shows up against
    /// [`CALLBACK_OPS`].
    pub callbacks_run: u64,
    /// Every rank's span events and the world-global wire events (empty
    /// unless [`Setup::trace`]).
    pub bundle: upcr::TraceBundle,
    /// The cross-rank merged latency histograms (empty unless
    /// [`Setup::trace`]).
    pub hists: upcr::Histograms,
    /// With [`Setup::metrics`], each rank's sampled time-series paired with
    /// that rank's own histograms (the exporters label series by rank, so
    /// per-rank histograms keep the labels honest).
    pub per_rank: Vec<(upcr::RankSeries, upcr::Histograms)>,
    /// Each rank's quiesced introspection snapshot as `(text, json)`
    /// renderings, in rank order. Taken at quiesce, so they are a pure
    /// function of the program — byte-identical across library versions
    /// and conduits for the same `(workload, seed)`.
    pub snapshots: Vec<(String, String)>,
}

/// What one rank hands back from an [`observe`] run.
struct RankRun {
    digest: u64,
    completions: u64,
    callbacks_run: u64,
    net: NetStats,
    trace: Option<upcr::RankTrace>,
    hist: upcr::Histograms,
    net_trace: Vec<gasnex::NetTraceEvent>,
    series: Option<upcr::RankSeries>,
    snapshot: (String, String),
}

/// Run `workload` under `version` with the given seed and optional fault
/// plan, configured by `setup`: the harness's one workload launch, behind
/// [`run`], the `simtest` binary, `udprun`'s in-process leg and the bench
/// documents. Every rank drains the wire after the workload so the
/// reliability counters are final, and must agree with rank 0 on the
/// digest and completion count.
pub fn observe(
    workload: Workload,
    version: LibVersion,
    seed: u64,
    plan: Option<FaultPlan>,
    setup: Setup,
) -> Observed {
    let net = match setup.transport {
        Transport::Sim => net_for(plan),
        Transport::UdpSocket => net_for_udp(plan),
    };
    let mut rt = RuntimeConfig::udp(RANKS, RANKS_PER_NODE)
        .with_version(version)
        .with_segment_size(1 << 18)
        .with_net(net)
        .with_transport(setup.transport)
        .with_progress_thread(setup.progress_thread);
    if let Some(a) = setup.agg {
        rt = rt.with_agg(a);
    }
    let results = launch(rt, move |u| {
        if setup.trace {
            u.trace_enabled(true);
        }
        if let Some(cfg) = setup.metrics {
            u.metrics_config(cfg);
            u.metrics_enabled(true);
        }
        let digest = run_workload(u, workload, seed);
        // Drain duplicate echoes so the reliability counters are final and
        // deterministic, then snapshot everything.
        u.barrier();
        while u.net_stats().pending > 0 {
            u.progress();
        }
        u.barrier();
        let s = u.stats();
        let completions = u.allreduce_sum_u64(s.rputs + s.rgets + s.amos + s.rpcs);
        let net = u.net_stats();
        // The wire-event sink is world-global; rank 0 drains it after the
        // final barrier so every delivery has been recorded.
        let net_trace = if setup.trace && u.rank_me() == 0 {
            u.take_net_trace()
        } else {
            Vec::new()
        };
        let series = setup.metrics.map(|_| u.take_metrics());
        RankRun {
            digest,
            completions,
            callbacks_run: s.callbacks_run,
            net,
            trace: setup.trace.then(|| u.take_trace()),
            hist: u.latency_report(),
            net_trace,
            series,
            snapshot: quiesced_snapshot(u),
        }
    });
    let agreement: Vec<(u64, u64)> = results.iter().map(|r| (r.digest, r.completions)).collect();
    let snapshots: Vec<(String, String)> = results.iter().map(|r| r.snapshot.clone()).collect();
    check_rank_agreement(&agreement, &snapshots);
    let net = results[0].net;
    let callbacks_run = results.iter().map(|r| r.callbacks_run).sum();
    let mut bundle = upcr::TraceBundle {
        ranks: Vec::new(),
        net: Vec::new(),
    };
    let mut hists = upcr::Histograms::new();
    let mut per_rank = Vec::new();
    for r in results {
        bundle.ranks.extend(r.trace);
        hists.merge(&r.hist);
        if !r.net_trace.is_empty() {
            bundle.net = r.net_trace;
        }
        if let Some(s) = r.series {
            per_rank.push((s, r.hist));
        }
    }
    Observed {
        outcome: outcome_from(agreement[0].0, agreement[0].1, net),
        net,
        callbacks_run,
        bundle,
        hists,
        per_rank,
        snapshots,
    }
}

/// Dispatch one workload body on the calling rank.
fn run_workload(u: &Upcr, workload: Workload, seed: u64) -> u64 {
    match workload {
        Workload::PutGetStorm => put_get_storm(u, seed),
        Workload::AtomicStorm => atomic_storm(u, seed),
        Workload::WhenAllFanIn => when_all_fan_in(u, seed),
        Workload::GupsSmall => gups_small(u),
        Workload::SignalStorm => signal_storm(u, seed),
        Workload::CallbackStorm => callback_storm(u, seed),
    }
}

/// Hash a wire-level trace into one word (order-sensitive over every field
/// of every event) — the compact form the conduit-swap golden tests pin.
pub fn wire_trace_hash(events: &[gasnex::NetTraceEvent]) -> u64 {
    let mut h = 0u64;
    for e in events {
        h = fold(h, e.ts_ns);
        h = fold(h, e.msg);
        h = fold(h, u64::from(e.attempt));
        h = fold(
            h,
            match e.kind {
                gasnex::NetEventKind::Inject => 1,
                gasnex::NetEventKind::Drop { backoff_ns } => fold(2, backoff_ns),
                gasnex::NetEventKind::Retry => 3,
                gasnex::NetEventKind::Deliver => 4,
                gasnex::NetEventKind::DupDiscard => 5,
                gasnex::NetEventKind::Signal { rank, token } => {
                    fold(fold(6, u64::from(rank)), token)
                }
            },
        );
    }
    h
}

/// Drive a fresh 2-rank world single-threadedly under `plan` with wire
/// tracing on: inject `n` empty deliveries, drain, and return the traced
/// event count and [`wire_trace_hash`]. With the virtual clock the result
/// is a pure function of the plan, which makes it a golden-testable probe
/// of the conduit's whole drop/retry/dup/dedup schedule.
pub fn wire_trace_probe(plan: FaultPlan, n: u64) -> (usize, u64) {
    let w = gasnex::World::new(
        gasnex::GasnexConfig::udp(2, 1)
            .with_segment_size(1 << 12)
            .with_net(net_for(Some(plan))),
    );
    w.net().set_tracing(true);
    for _ in 0..n {
        w.net().inject(Box::new(|_| {}));
    }
    while w.net().pending() > 0 {
        w.net().poll(&w);
    }
    let events = w.net().take_trace();
    (events.len(), wire_trace_hash(&events))
}

/// The aggregation configuration the differential harness sweeps when a
/// test wants batching on: buckets flush on size and at the owner's next
/// progress quantum, so batch boundaries depend purely on program order,
/// not clock readings, with enough in-flight headroom that backpressure
/// bypass never triggers. Both properties keep eager and deferred runs
/// injecting identical wire messages.
pub fn harness_agg(flush_ops: usize) -> AggConfig {
    AggConfig::enabled(flush_ops).with_max_inflight(64)
}

/// Capture this rank's quiesced introspection snapshot as
/// `(text, json)` — the closure tail of every harness runner. Taken after
/// the final barrier, so the dynamic sections (pending ops, buckets,
/// in-flight messages) are empty and the rendering is a pure function of
/// the program: byte-identical across library versions and conduits.
fn quiesced_snapshot(u: &Upcr) -> (String, String) {
    let s = u.snapshot();
    (s.render_text(), s.render_json())
}

/// Verify every rank agreed with rank 0 on `(digest, completions)`,
/// auto-dumping all ranks' quiesced snapshots before panicking on a
/// divergence.
fn check_rank_agreement(per_rank: &[(u64, u64)], snaps: &[(String, String)]) {
    record_snapshots(snaps);
    let (digest, completions) = per_rank[0];
    for (r, &(d, c)) in per_rank.iter().enumerate() {
        if (d, c) != (digest, completions) {
            dump_last_snapshots("ranks disagree on outcome");
            panic!(
                "rank {r} disagrees on outcome: digest {d:#018x} completions {c} \
                 vs rank 0's digest {digest:#018x} completions {completions}"
            );
        }
    }
}

fn outcome_from(digest: u64, completions: u64, net: NetStats) -> Outcome {
    assert_eq!(
        net.injected, net.delivered,
        "drained run must have delivered every injected message"
    );
    assert_eq!(net.pending, 0, "drained run must leave nothing pending");
    Outcome {
        digest,
        completions,
        injected: net.injected,
        delivered: net.delivered,
        retries: net.retries,
        drops_injected: net.drops_injected,
        dup_suppressed: net.dup_suppressed,
        max_backoff_ns: net.max_backoff_ns,
    }
}

/// Digest fold: order-sensitive splitmix chaining (state is always folded
/// in a canonical order — slot order within a rank, rank order globally).
pub fn fold(h: u64, v: u64) -> u64 {
    graphgen::splitmix64(h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Words per rank in [`Workload::PutGetStorm`]'s array. Public because the
/// multi-process UDP runner reproduces the same final image out of real
/// datagrams and folds it with [`storm_slot_val`]/[`fold`].
pub const STORM_WORDS: usize = 48;

/// The value [`Workload::PutGetStorm`] leaves in slot `slot` of rank
/// `target`'s array (round 0) — the analytic final image the multi-process
/// runner checks its datagram-built state against.
pub fn storm_slot_val(seed: u64, target: usize, slot: usize) -> u64 {
    slot_val(seed, target, slot, 0)
}

/// Deterministic per-slot value, independent of which rank computes it.
fn slot_val(seed: u64, target: usize, slot: usize, round: usize) -> u64 {
    fold(
        fold(fold(seed, target as u64), slot as u64),
        round as u64 + 1,
    )
}

/// Broadcast every rank's base pointer (encoded) so any rank can address
/// any rank's array.
fn gather_ptrs(u: &Upcr, base: GlobalPtr<u64>) -> Vec<GlobalPtr<u64>> {
    u.gather_all(base.encode())
        .into_iter()
        .map(GlobalPtr::decode)
        .collect()
}

/// Digest this rank's local array, then fold all ranks' digests in rank
/// order. Identical on every rank.
fn digest_arrays(u: &Upcr, base: GlobalPtr<u64>, words: usize) -> u64 {
    let slice = u.local_slice_u64(base, words);
    let mut h = 0x9E37_79B9_7F4A_7C15;
    for w in slice {
        h = fold(h, w.load(std::sync::atomic::Ordering::Relaxed));
    }
    let all = u.gather_all(h);
    let mut d = 0;
    for x in all {
        d = fold(d, x);
    }
    d
}

/// RMA storm: every slot `j` of every rank's array is written by exactly
/// one rank (`j % rank_n`), so the final image is race-free; afterwards the
/// writer reads every slot back and checks the value survived the faulted
/// network intact.
fn put_get_storm(u: &Upcr, seed: u64) -> u64 {
    const WORDS: usize = STORM_WORDS;
    let n = u.rank_n();
    let me = u.rank_me();
    let base = u.new_array::<u64>(WORDS);
    let bases = gather_ptrs(u, base);
    u.barrier();
    let mut puts = Vec::new();
    for (t, b) in bases.iter().enumerate().take(n) {
        for j in (me..WORDS).step_by(n) {
            puts.push(u.rput(slot_val(seed, t, j, 0), b.add(j)));
        }
    }
    for f in &puts {
        f.wait();
    }
    u.barrier();
    let mut gets = Vec::new();
    for (t, b) in bases.iter().enumerate().take(n) {
        for j in (me..WORDS).step_by(n) {
            gets.push((t, j, u.rget(b.add(j))));
        }
    }
    for (t, j, f) in gets {
        assert_eq!(
            f.wait(),
            slot_val(seed, t, j, 0),
            "slot ({t},{j}) corrupted by the faulted network"
        );
    }
    u.barrier();
    digest_arrays(u, base, WORDS)
}

/// Atomic storm: counters 0..4 take only (fetching and non-fetching) adds,
/// counters 4..8 only xors, so every counter's final value is a commutative
/// fold of all ranks' operands — deterministic despite racing updates.
fn atomic_storm(u: &Upcr, seed: u64) -> u64 {
    const COUNTERS: usize = 8;
    const OPS: usize = 64;
    let n = u.rank_n();
    let me = u.rank_me();
    let base = u.new_array::<u64>(COUNTERS);
    let bases = gather_ptrs(u, base);
    let ad = u.atomic_domain::<u64>();
    let mut rng = SeededRng::seed_from_u64(fold(seed, me as u64));
    u.barrier();
    let mut unit = Vec::new();
    let mut fetched = Vec::new();
    for _ in 0..OPS {
        let t = rng.below(n);
        let c = rng.below(COUNTERS);
        let v = rng.next_u64();
        let p = bases[t].add(c);
        match (c < COUNTERS / 2, rng.below(2) == 0) {
            (true, true) => unit.push(ad.add(p, v)),
            (true, false) => fetched.push(ad.fetch_add(p, v)),
            (false, true) => unit.push(ad.bit_xor(p, v)),
            (false, false) => fetched.push(ad.fetch_bit_xor(p, v)),
        }
    }
    for f in &unit {
        f.wait();
    }
    for f in &fetched {
        // Fetched values depend on interleaving; only completion matters.
        f.wait();
    }
    u.barrier();
    digest_arrays(u, base, COUNTERS)
}

/// `when_all` fan-in: each round conjoins a ready base future with puts to
/// this rank's own slots (addressable — the eager path) and to the next
/// rank's slots (cross-node for half the ranks), then waits on the single
/// conjoined future. Slot writers stay disjoint: rank r writes the low half
/// of its own array and the high half of its successor's.
fn when_all_fan_in(u: &Upcr, seed: u64) -> u64 {
    const WORDS: usize = 32;
    const ROUNDS: usize = 6;
    let n = u.rank_n();
    let me = u.rank_me();
    let next = (me + 1) % n;
    let base = u.new_array::<u64>(WORDS);
    let bases = gather_ptrs(u, base);
    u.barrier();
    for round in 0..ROUNDS {
        let mut f = u.make_future();
        for j in 0..WORDS / 2 {
            f = conjoin(f, u.rput(slot_val(seed, me, j, round), bases[me].add(j)));
        }
        for j in WORDS / 2..WORDS {
            f = conjoin(
                f,
                u.rput(slot_val(seed, next, j, round), bases[next].add(j)),
            );
        }
        f.wait();
    }
    u.barrier();
    digest_arrays(u, base, WORDS)
}

/// Notifiable-RMA storm. Each rank owns an array of `rank_n + 1` words:
/// slots `0..n` are put-signal landing pads (slot `r` written only by rank
/// `r`, so the image is race-free) and slot `n` is a counter taking only
/// commutative `Add`s. Every rank `r` sends every peer `t`:
///
/// * `put_signal(slot_val, t.slot[r], word 0, badge 1 << r)`
/// * `amo_signal(Add 1, t.slot[n], word 0, badge 1 << (r + n))`
///
/// then blocks in `wait_signal` until the full mask (both badges from all
/// `n - 1` peers) has arrived, and checks the counter equals `n - 1`.
/// `Add` is duplicate-sensitive where the badge OR is duplicate-blind: a
/// replayed signal message would leave the badge mask unchanged but push
/// the counter past `n - 1`, so the equality is an exactly-once proof for
/// the whole signal path under drops, dups, and reordering.
fn signal_storm(u: &Upcr, seed: u64) -> u64 {
    let n = u.rank_n();
    let me = u.rank_me();
    let words = n + 1;
    let base = u.new_array::<u64>(words);
    let bases = gather_ptrs(u, base);
    u.barrier();
    let mut pending = Vec::new();
    for (t, b) in bases.iter().enumerate().take(n) {
        if t == me {
            continue;
        }
        pending.push(u.put_signal(slot_val(seed, t, me, 0), b.add(me), 0, 1 << me));
        pending.push(u.amo_signal(b.add(n), upcr::AmoOp::Add, 1u64, 0, 1 << (me + n)));
    }
    for f in &pending {
        f.wait();
    }
    // Full badge mask: every peer's put badge and amo badge.
    let expected: u64 = (0..n)
        .filter(|&r| r != me)
        .map(|r| (1u64 << r) | (1u64 << (r + n)))
        .fold(0, |m, b| m | b);
    let mut seen = 0u64;
    while seen != expected {
        seen |= u.wait_signal(0, expected & !seen);
    }
    // Badges are observed-exactly-once: the word is now empty.
    assert_eq!(u.test_signal(0, u64::MAX), 0, "badge observed twice");
    // Every peer's put landed before (or with) its badge...
    let slice = u.local_slice_u64(base, words);
    for r in (0..n).filter(|&r| r != me) {
        assert_eq!(
            slice[r].load(std::sync::atomic::Ordering::Relaxed),
            slot_val(seed, me, r, 0),
            "peer {r}'s put-with-signal payload lost or corrupted"
        );
    }
    // ...and the counter took each peer's Add exactly once.
    assert_eq!(
        slice[n].load(std::sync::atomic::Ordering::Relaxed),
        (n - 1) as u64,
        "amo-with-signal applied a duplicate or lost an update"
    );
    u.barrier();
    // `seen` is rank-specific (each rank waits on a different mask), so it
    // must not enter the cross-rank digest; the loop exit already proved
    // `seen == expected`.
    digest_arrays(u, base, words)
}

/// Continuation-callback storm. Each rank owns an array of `rank_n` words
/// (slot `r` written only by rank `r`, so the image is race-free). Two
/// waves, both completed through [`upcr::operation_cx::as_callback`]:
///
/// * **Put wave** — rank `r` writes `slot_val` into its slot on every
///   peer; each put's callback XORs a per-op token into a local
///   accumulator (XOR is commutative, so drain order — rank thread,
///   signalling thread, or background progress thread — cannot change the
///   result).
/// * **Get wave** — after a barrier, rank `r` reads its own slot back
///   from every peer with a value-carrying callback that XORs the fetched
///   word into the same accumulator, proving the callback observed the
///   landed data.
///
/// The rank drives `progress` until a shared counter shows every callback
/// ran, then asserts `callbacks_run == ops_with_callbacks` — the
/// exactly-once claim of the callback completion mode — and folds the
/// accumulator into the digest. Callbacks touch only plain `Arc`-shared
/// state (no runtime calls), so the workload is valid under the background
/// progress thread, where a foreign thread may execute them.
fn callback_storm(u: &Upcr, seed: u64) -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let n = u.rank_n();
    let me = u.rank_me();
    let base = u.new_array::<u64>(n);
    let bases = gather_ptrs(u, base);
    u.barrier();
    let ran = Arc::new(AtomicU64::new(0));
    let acc = Arc::new(AtomicU64::new(0));
    let expected_ops = 2 * (n - 1) as u64;
    // Put wave: single-writer slots, callback folds a deterministic token.
    for (t, b) in bases.iter().enumerate().take(n) {
        if t == me {
            continue;
        }
        let token = fold(fold(seed, 0xCA11), (t * n + me) as u64);
        let (ran, acc) = (Arc::clone(&ran), Arc::clone(&acc));
        u.rput_with(
            slot_val(seed, t, me, 0),
            b.add(me),
            upcr::operation_cx::as_callback(move |_: ()| {
                acc.fetch_xor(token, Ordering::Relaxed);
                ran.fetch_add(1, Ordering::Relaxed);
            }),
        );
    }
    while ran.load(Ordering::Relaxed) < (n - 1) as u64 {
        u.progress();
    }
    u.barrier();
    // Get wave: value-carrying callbacks observe the landed puts.
    for (t, b) in bases.iter().enumerate().take(n) {
        if t == me {
            continue;
        }
        let (ran, acc) = (Arc::clone(&ran), Arc::clone(&acc));
        u.rget_with(
            b.add(me),
            upcr::operation_cx::as_callback(move |v: u64| {
                acc.fetch_xor(v, Ordering::Relaxed);
                ran.fetch_add(1, Ordering::Relaxed);
            }),
        );
    }
    while ran.load(Ordering::Relaxed) < expected_ops {
        u.progress();
    }
    // Exactly-once: every callback-carrying op ran its continuation once.
    assert_eq!(
        u.stats().callbacks_run,
        expected_ops,
        "callbacks_run must equal the number of callback-carrying ops"
    );
    // The accumulator is a commutative fold of known values: each peer's
    // token plus this rank's own slot value fetched back from each peer.
    let mut want = 0u64;
    for t in (0..n).filter(|&t| t != me) {
        want ^= fold(fold(seed, 0xCA11), (t * n + me) as u64);
        want ^= slot_val(seed, t, me, 0);
    }
    assert_eq!(
        acc.load(Ordering::Relaxed),
        want,
        "callback-observed values diverged from the race-free image"
    );
    u.barrier();
    // Fold the *global* accumulator image — the XOR over every rank's
    // pinned `want` — so all ranks digest the same value (the per-rank
    // assert above already ties each local accumulator to its share).
    let mut all = 0u64;
    for r in 0..n {
        for t in (0..n).filter(|&t| t != r) {
            all ^= fold(fold(seed, 0xCA11), (t * n + r) as u64);
            all ^= slot_val(seed, t, r, 0);
        }
    }
    fold(digest_arrays(u, base, n), all)
}

/// Small GUPS (atomic-xor variant — exact by construction): the digest is
/// the verified error count folded with the update count, so any lost or
/// double-applied update under the faulted network shows up.
fn gups_small(u: &Upcr) -> u64 {
    let cfg = GupsConfig {
        log2_table: 10,
        updates_per_word: 1,
        batch: 16,
        verify: true,
    };
    let r = gups::run(u, &cfg, Variant::AmoFuture);
    assert_eq!(r.errors, 0, "atomic GUPS must stay exact under chaos");
    fold(fold(0, r.updates as u64), r.errors as u64)
}

/// Wall-clock nanoseconds after the epoch of this run at which the
/// partition window opens in [`watchdog_stall_demo`]. Setup (allocation,
/// pointer gather, one barrier) finishes orders of magnitude earlier, so
/// only the deliberately-delayed signal lands inside the window.
const STALL_PARTITION_AT_NS: u64 = 100_000_000;

/// Deliberately provoke a wait-graph stall and return the watchdog's
/// diagnosis text — the CI smoke path for the stall watchdog.
///
/// Two single-rank nodes on the *simulated* conduit under the wall clock
/// (partition windows are expressible there; the kernel-socket conduit
/// rejects them), with a partition lasting an hour: after a 100 ms grace
/// window for setup traffic, rank 1's put-with-signal is injected inside
/// the partition and its delivery shifted to the window's end, while rank
/// 0 parks in `wait_signal` on the never-arriving badge. The watchdog
/// (armed at `watchdog_ms`, which must exceed the ~250 ms injection
/// delay for the carrier edge to be visible) trips and panics with a
/// diagnosis naming the blocked rank, its notify-word edge, the stuck
/// in-flight carrier from rank 1, and the last wire event touching it.
pub fn watchdog_stall_demo(watchdog_ms: u64) -> String {
    let plan = FaultPlan::seeded(1).with_partition(STALL_PARTITION_AT_NS, 3_600_000_000_000);
    let rt = RuntimeConfig::udp(2, 1)
        .with_segment_size(1 << 14)
        .with_net(NetConfig::default().with_faults(plan))
        .with_watchdog_ms(watchdog_ms);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        launch(rt, |u| {
            u.trace_enabled(true);
            let base = u.new_array::<u64>(1);
            let bases = gather_ptrs(u, base);
            u.barrier();
            if u.rank_me() == 1 {
                // Inject well inside the partition window: the carrier
                // enters the wire but its delivery is shifted an hour out,
                // far past rank 0's watchdog.
                std::thread::sleep(std::time::Duration::from_millis(250));
                let _pending = u.put_signal(7u64, bases[0], 0, 0b10);
                // Never waited: rank 0's watchdog aborts the world first.
            } else {
                u.wait_signal(0, 0b10);
            }
            u.barrier();
        });
    }));
    let payload = result.expect_err("partition stall must trip the watchdog");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(other) => std::panic::resume_unwind(other),
    }
}
