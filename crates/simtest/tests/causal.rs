//! Cross-rank causal tracing, end to end.
//!
//! Four properties of the Lamport-stamped tracing pipeline are pinned:
//!
//! * **Monotonicity** — every rank's recorded Lamport stamps are strictly
//!   increasing, and every traced wire inject carries a nonzero stamp.
//! * **Determinism** — the assembled causal timeline (text rendering and
//!   all) is byte-identical across repeats under every differential fault
//!   plan, for the single-threaded probe drive on the virtual clock.
//! * **The paper's claim in hops** — the eager build's mean
//!   initiation→notification happens-before chain is strictly shorter
//!   than the defer build's, and the defer build never completes anything
//!   on the eager path.
//! * **Violation detection** — virtual-clock runs report exactly zero
//!   causality violations across every workload, while a hand-skewed
//!   bundle (wall timestamps contradicting a happens-before edge) trips
//!   the counter.

use simtest::{fault_plans, net_for, observe, Setup, Workload};
use upcr::metrics::probe::{run as probe_run, run_with_net, ProbeConfig};
use upcr::trace::{
    assemble, chrome_trace_json_with_flows, parse_json, CausalAssembly, CompletionPath, EventKind,
    NetEventKind, NetTraceEvent, OpKind, RankTrace, TraceBundle, TraceEvent, TraceOp,
};
use upcr::{launch, LibVersion, RuntimeConfig};

fn combined_plan(seed: u64) -> gasnex::FaultPlan {
    fault_plans(seed)
        .into_iter()
        .find(|(n, _)| *n == "combined")
        .expect("combined plan exists")
        .1
}

/// The harness setup with lifecycle tracing on.
const TRACED: Setup = Setup {
    transport: gasnex::Transport::Sim,
    agg: None,
    progress_thread: false,
    trace: true,
    metrics: None,
};

fn overall_mean_milli(asm: &CausalAssembly) -> u64 {
    let n = asm.op_chains.len() as u64;
    assert!(n > 0, "assembly has completed op chains");
    asm.op_chains.iter().map(|c| c.len).sum::<u64>() * 1000 / n
}

#[test]
fn lamport_stamps_strictly_monotone_per_rank() {
    let o = observe(
        Workload::GupsSmall,
        LibVersion::V2021_3_6Eager,
        42,
        Some(combined_plan(42)),
        TRACED,
    );
    assert_eq!(o.bundle.ranks.len(), simtest::RANKS);
    for rt in &o.bundle.ranks {
        assert!(!rt.events.is_empty(), "rank {} recorded nothing", rt.rank);
        for w in rt.events.windows(2) {
            assert!(
                w[1].lclock > w[0].lclock,
                "rank {}: lclock not strictly increasing ({} -> {})",
                rt.rank,
                w[0].lclock,
                w[1].lclock
            );
        }
    }
    // Every traced wire event carries a real stamp (zero is the
    // tracing-off sentinel and must never appear in a traced run).
    assert!(!o.bundle.net.is_empty());
    for e in &o.bundle.net {
        assert!(e.lclock > 0, "untraced stamp on wire event {e:?}");
    }
}

#[test]
fn assembled_timeline_byte_identical_across_repeats_under_all_plans() {
    for (name, plan) in fault_plans(7) {
        let cfg = ProbeConfig {
            iters: 12,
            seed: 7,
            trace: true,
            ..ProbeConfig::default()
        };
        let run = || {
            let r = run_with_net(&cfg, net_for(Some(plan)));
            let bundle = r.bundle.expect("probe ran with tracing on");
            assemble(&bundle)
        };
        let (a, b) = (run(), run());
        assert_eq!(
            a.render_text(),
            b.render_text(),
            "plan {name}: assembled timeline must replay byte-identically"
        );
        assert_eq!(a.violations, 0, "plan {name}: virtual clock cannot skew");
        assert!(a.hb_edges() > 0, "plan {name}: empty happens-before DAG");
        assert!(a.chain_depth > 0, "plan {name}: empty critical path");
    }
}

#[test]
fn eager_vs_defer_differ_only_in_notification_placement() {
    // Same seed, same plan, same single-threaded drive: the wire schedule
    // is identical across builds, so the assemblies differ only where the
    // notification edges sit — the defer build's chains are longer by the
    // drain hop, and its eager path is empty.
    let probe = |version| {
        let r = probe_run(&ProbeConfig {
            version,
            iters: 12,
            seed: 7,
            chaos: true,
            trace: true,
            ..ProbeConfig::default()
        });
        assemble(&r.bundle.expect("probe ran with tracing on"))
    };
    let eager = probe(LibVersion::V2021_3_6Eager);
    let defer = probe(LibVersion::V2021_3_6Defer);
    assert!(
        defer.mean_chain_len_milli(CompletionPath::Eager).is_none(),
        "defer build completed something on the eager path"
    );
    // A local eager put notifies at initiation: a two-hop chain, exactly.
    assert_eq!(
        eager.mean_chain_len_milli(CompletionPath::Eager),
        Some(2000)
    );
    assert!(
        overall_mean_milli(&eager) < overall_mean_milli(&defer),
        "eager notification must shorten the mean causal chain ({} vs {})",
        overall_mean_milli(&eager),
        overall_mean_milli(&defer)
    );
    // The same number of ops completed either way.
    assert_eq!(eager.op_chains.len(), defer.op_chains.len());
}

#[test]
fn skewed_wall_clocks_trip_the_violation_counter() {
    // One op, one message — but the delivery's wall timestamp (stamped by
    // the receiving process) predates the inject that caused it (stamped
    // by the sender), the signature of cross-process clock skew. Lamport
    // order is intact — the delivery merged the sender's stamp — so only
    // wall time lies.
    let op = TraceOp {
        id: 1,
        kind: OpKind::Put,
    };
    let bundle = TraceBundle {
        ranks: vec![RankTrace {
            rank: 0,
            events: vec![
                TraceEvent {
                    ts_ns: 100,
                    seq: 0,
                    op,
                    kind: EventKind::Init,
                    lclock: 1,
                },
                TraceEvent {
                    ts_ns: 1_000,
                    seq: 1,
                    op,
                    kind: EventKind::NetInject { msg: 0 },
                    lclock: 2,
                },
            ],
            dropped: 0,
        }],
        net: vec![
            NetTraceEvent {
                ts_ns: 1_100,
                msg: 0,
                attempt: 0,
                kind: NetEventKind::Inject,
                lclock: 3,
            },
            NetTraceEvent {
                ts_ns: 700, // skewed: before the inject that caused it
                msg: 0,
                attempt: 0,
                kind: NetEventKind::Deliver,
                lclock: 4,
            },
        ],
    };
    let asm = assemble(&bundle);
    assert_eq!(asm.violations, 1, "skewed wire edge must be flagged");
    // Straightening the clock clears the count.
    let mut fixed = bundle;
    fixed.net[1].ts_ns = 1_500;
    assert_eq!(assemble(&fixed).violations, 0);
}

#[test]
fn take_causal_updates_stats_and_report_renders() {
    let results = launch(
        RuntimeConfig::udp(simtest::RANKS, simtest::RANKS_PER_NODE).with_segment_size(1 << 16),
        |u| {
            u.trace_enabled(true);
            let mine = u.new_::<u64>(0);
            let target = u.broadcast(mine, 0);
            u.barrier();
            let me = u.rank_me();
            if me != 0 {
                u.rput(me as u64, target).wait();
            }
            u.barrier();
            let report = u.causal_report();
            (report, u.stats())
        },
    );
    for (rank, (report, stats)) in results.iter().enumerate() {
        if rank == 0 {
            let text = report.as_ref().expect("rank 0 assembles");
            assert!(
                text.starts_with("causal timeline v1:"),
                "unexpected report header: {text}"
            );
            assert!(stats.hb_edges > 0, "assembly must update the edge counter");
            assert_eq!(stats.causal_violations, 0, "in-process clocks agree");
            assert!(stats.causal_chain_depth > 0);
        } else {
            assert!(report.is_none(), "only rank 0 renders");
            assert_eq!(stats.hb_edges, 0);
        }
    }
}

#[test]
fn flow_export_parses_and_carries_flow_events() {
    let r = probe_run(&ProbeConfig {
        iters: 8,
        seed: 3,
        chaos: true,
        trace: true,
        ..ProbeConfig::default()
    });
    let bundle = r.bundle.expect("probe ran with tracing on");
    let asm = assemble(&bundle);
    let json = chrome_trace_json_with_flows(&bundle, &asm);
    parse_json(&json).expect("flow export must be valid JSON");
    assert!(
        json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""),
        "flow start/finish events missing from the export"
    );
    assert!(
        json.contains("process_name"),
        "row-naming metadata missing from the export"
    );
}

#[test]
fn virtual_clock_runs_report_zero_violations_across_workloads() {
    for w in Workload::ALL.into_iter().chain([Workload::SignalStorm]) {
        for version in [LibVersion::V2021_3_6Eager, LibVersion::V2021_3_6Defer] {
            let o = observe(w, version, 42, Some(combined_plan(42)), TRACED);
            let asm = assemble(&o.bundle);
            assert_eq!(
                asm.violations,
                0,
                "{} / {version:?}: Lamport order disagreed with the virtual clock",
                w.name()
            );
            assert!(asm.hb_edges() > 0);
        }
    }
}
