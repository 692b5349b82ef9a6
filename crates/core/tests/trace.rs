//! Operation-lifecycle trace tests: byte-replayability of chaos traces
//! under the virtual clock, and the eager-vs-deferred differential — the
//! two runs must agree on every data-movement event and disagree only in
//! how notifications were delivered.

use gasnex::World;
use upcr::trace::{
    chrome_trace_json, count_notifications, parse_json, EventKind, NetEventKind, OpKind,
    TraceBundle,
};
use upcr::{
    conjoin, launch, CompletionPath, FaultPlan, GasnexConfig, LibVersion, NetConfig, RuntimeConfig,
};

/// Drive a 2-node world to completion on one thread with network tracing
/// on, and export the wire-level trace as Chrome JSON. Single-threaded so
/// the virtual clock's advance order is a pure function of the seed.
fn chaos_trace_json(seed: u64, msgs: u64) -> String {
    let plan = FaultPlan::seeded(seed)
        .with_drops(150_000)
        .with_dups(80_000)
        .with_reorder(250_000, 9_000);
    let net = NetConfig {
        latency_ns: 1_000,
        jitter_ns: 700,
        ..NetConfig::default()
    }
    .with_virtual_clock()
    .with_faults(plan);
    let w = World::new(
        GasnexConfig::udp(2, 1)
            .with_segment_size(1 << 12)
            .with_net(net),
    );
    w.net().set_tracing(true);
    for _ in 0..msgs {
        w.net().inject(Box::new(|_| {}));
    }
    let mut spins = 0u64;
    while w.net().delivered() < msgs || w.net().pending() > 0 {
        w.net().poll(&w);
        spins += 1;
        assert!(spins < 1_000_000, "chaos run failed to terminate");
    }
    let bundle = TraceBundle {
        ranks: vec![],
        net: w.net().take_trace(),
    };
    chrome_trace_json(&bundle)
}

#[test]
fn chaos_trace_is_byte_replayable() {
    let a = chaos_trace_json(7, 48);
    let b = chaos_trace_json(7, 48);
    assert_eq!(a, b, "same seed must export byte-identical trace JSON");
    let c = chaos_trace_json(8, 48);
    assert_ne!(a, c, "a different seed should produce a different trace");
    // The chaos plan must actually have exercised the fault paths, or the
    // byte-identity above proves nothing interesting.
    parse_json(&a).expect("chaos trace must be valid JSON");
    assert!(a.contains("net:retry") || a.contains("net:dup") || a.contains("net:drop"));
}

/// Run the GUPS accumulation idiom (`f = conjoin(f, rput(..))`) on one SMP
/// rank with tracing on, returning the recorded events.
fn traced_smp_run(version: LibVersion) -> upcr::RankTrace {
    let cfg = RuntimeConfig::smp(1)
        .with_segment_size(1 << 16)
        .with_version(version);
    let mut out = launch(cfg, |u| {
        u.trace_enabled(true);
        let arr = u.new_array::<u64>(16);
        let mut f = u.make_future();
        for i in 0..16 {
            f = conjoin(f, u.rput(i as u64, arr.add(i as usize)));
        }
        f.wait();
        // Deferred-mode notifications resolve during progress; drain before
        // snapshotting so both versions capture the full lifecycle.
        u.barrier();
        u.take_trace()
    });
    out.pop().unwrap()
}

/// Data-movement projection: everything that is not a notification or a
/// progress-engine event. These must be identical across library versions.
fn data_movement(t: &upcr::RankTrace) -> Vec<(u64, OpKind, Option<u64>)> {
    t.events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Init => Some((e.op.id, e.op.kind, None)),
            EventKind::NetInject { msg } => Some((e.op.id, e.op.kind, Some(msg))),
            _ => None,
        })
        .collect()
}

/// Notification projection: (op id, path) per completion notification.
fn notifications(t: &upcr::RankTrace) -> Vec<(u64, CompletionPath)> {
    t.events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Notify { path, .. } => Some((e.op.id, path)),
            _ => None,
        })
        .collect()
}

#[test]
fn eager_vs_defer_differ_only_in_notifications() {
    let eager = traced_smp_run(LibVersion::V2021_3_6Eager);
    let defer = traced_smp_run(LibVersion::V2021_3_0);

    // Identical operation structure: same op ids, same kinds, same wire
    // messages (none here — all local), in the same initiation order.
    assert_eq!(
        data_movement(&eager),
        data_movement(&defer),
        "library version must not change data-movement events"
    );

    // Same set of completed operations...
    let mut e_ops: Vec<u64> = notifications(&eager).iter().map(|&(id, _)| id).collect();
    let mut d_ops: Vec<u64> = notifications(&defer).iter().map(|&(id, _)| id).collect();
    e_ops.sort_unstable();
    d_ops.sort_unstable();
    assert_eq!(e_ops, d_ops, "both versions must complete the same ops");

    // ...but via opposite paths: the eager build notifies local puts (and
    // ready-elided conjoins) synchronously, 2021.3.0 defers every one.
    assert!(
        notifications(&eager)
            .iter()
            .all(|&(_, p)| p == CompletionPath::Eager),
        "eager build must notify local operations eagerly"
    );
    assert!(
        notifications(&defer)
            .iter()
            .all(|&(_, p)| p == CompletionPath::Deferred),
        "2021.3.0 build must defer every notification"
    );
    assert!(!notifications(&eager).is_empty());
}

#[test]
fn traced_multinode_run_exports_both_paths() {
    // 4 ranks over 2 nodes: same-node operations notify eagerly, cross-node
    // ones defer through the signal-driven engine. The merged export must
    // show both paths and parse as Chrome trace JSON.
    let cfg = RuntimeConfig::udp(4, 2).with_segment_size(1 << 16);
    let results = launch(cfg, |u| {
        u.trace_enabled(true);
        let arr = u.new_array::<u64>(8);
        let all: Vec<_> = (0..u.rank_n()).map(|r| u.broadcast(arr, r)).collect();
        let mut futs = Vec::new();
        for (r, a) in all.iter().enumerate() {
            futs.push(u.rput((r * 10 + u.rank_me()) as u64, a.add(u.rank_me())));
        }
        for f in futs {
            f.wait();
        }
        u.barrier();
        let net = if u.rank_me() == 0 {
            u.take_net_trace()
        } else {
            Vec::new()
        };
        (u.take_trace(), u.latency_report(), net)
    });

    let mut bundle = TraceBundle {
        ranks: Vec::new(),
        net: Vec::new(),
    };
    let mut merged = upcr::Histograms::new();
    for (trace, hist, net) in results {
        bundle.ranks.push(trace);
        merged.merge(&hist);
        if !net.is_empty() {
            bundle.net = net;
        }
    }

    let json = chrome_trace_json(&bundle);
    parse_json(&json).expect("export must be valid JSON");
    let (eager, deferred) = count_notifications(&json).unwrap();
    assert!(eager >= 1, "same-node puts should notify eagerly");
    assert!(deferred >= 1, "cross-node puts should defer");
    assert!(
        !bundle.net.is_empty(),
        "cross-node traffic must hit the wire"
    );

    // The histograms agree with the events: samples exist on both paths.
    let rows = merged.rows();
    assert!(rows
        .iter()
        .any(|r| r.path == CompletionPath::Eager && r.count > 0));
    assert!(rows
        .iter()
        .any(|r| r.path == CompletionPath::Deferred && r.count > 0));
}

#[test]
fn tracing_disabled_records_nothing() {
    let mut out = launch(RuntimeConfig::smp(1).with_segment_size(1 << 16), |u| {
        let arr = u.new_array::<u64>(4);
        u.rput(9u64, arr).wait();
        assert!(!u.is_tracing());
        u.take_trace()
    });
    let t = out.pop().unwrap();
    assert!(t.events.is_empty(), "disabled tracing must record nothing");
    assert_eq!(t.dropped, 0);
}

#[test]
fn traced_offnode_rpc_notifies_through_its_token() {
    // A cross-node RPC's reply completes it like any in-flight op: the
    // reply deposits a token (a wire-trace `Signal`), the token wakes the
    // waiter (`Wakeup`), and the waiter records the deferred `Notify`.
    let cfg = RuntimeConfig::udp(2, 1).with_segment_size(1 << 16);
    let results = launch(cfg, |u| {
        u.trace_enabled(true);
        u.barrier();
        if u.rank_me() == 0 {
            assert_eq!(u.rpc(upcr::Rank(1), || 5u64).wait(), 5);
        }
        u.barrier();
        u.take_causal()
    });
    let (bundle, asm) = results[0].clone().expect("rank 0 assembles");
    assert_eq!(asm.violations, 0, "causality violations");
    let rank0 = bundle.ranks.iter().find(|t| t.rank == 0).expect("rank 0");
    let notify = rank0
        .events
        .iter()
        .find(|e| e.op.kind == OpKind::Rpc && matches!(e.kind, EventKind::Notify { .. }))
        .expect("the RPC recorded its notification");
    assert!(matches!(
        notify.kind,
        EventKind::Notify {
            path: CompletionPath::Deferred,
            ..
        }
    ));
    let wakeups: Vec<_> = rank0
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Wakeup { token } => Some((token, e.seq)),
            _ => None,
        })
        .collect();
    let signals: Vec<_> = bundle
        .net
        .iter()
        .filter_map(|e| match e.kind {
            NetEventKind::Signal { rank: 0, token } => Some(token),
            _ => None,
        })
        .collect();
    assert_eq!(wakeups.len(), 1, "one token woke the RPC's waiter");
    assert_eq!(
        signals,
        vec![wakeups[0].0],
        "the token's deposit was traced"
    );
    assert!(wakeups[0].1 < notify.seq, "the wakeup precedes the notify");
}
