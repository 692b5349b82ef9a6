//! Conduit-swap regression suite.
//!
//! Two invariants, one per half of the conduit refactor:
//!
//! 1. **Trait-extraction is behaviour-free**: `SimNetwork` behind the
//!    `Conduit` trait must reproduce the pre-refactor outcomes *exactly* —
//!    digests, completion counts, reliability counters, and the full wire
//!    trace. The golden values below were captured from the pre-trait
//!    code (verified stable across repeated runs) by
//!    `examples/golden_capture.rs`; any drift means the refactor changed
//!    scheduling, fate hashing, or counter accounting.
//!
//! 2. **Transport independence**: the same seeded workload run over real
//!    loopback UDP sockets must produce the same digest and completion
//!    count as the simulated network, for both eager and deferred
//!    notification builds — the paper's claim is about the runtime, not
//!    the wire. Reliability counters are excluded: real-wire
//!    retransmission races make them schedule-dependent.

use simtest::{
    fault_plans, observe, run, udp_fault_plans, wire_trace_probe, Outcome, Setup, Workload,
};
use upcr::LibVersion;

/// The harness setup on the real loopback-UDP socket conduit.
const UDP: Setup = Setup {
    transport: gasnex::Transport::UdpSocket,
    agg: None,
    progress_thread: false,
    trace: false,
    metrics: None,
};

/// Pre-refactor PutGetStorm digests, one per harness seed 0..8. The digest
/// is a pure function of `(workload, seed)` — identical across versions
/// and fault plans — because workload memory images are schedule-free.
const GOLDEN_DIGESTS: [u64; 8] = [
    0xf028_8bf7_319f_d508,
    0x6f28_e824_ce78_362b,
    0xbf08_6d82_1278_b9d0,
    0xfec3_14d6_a3fd_8ea6,
    0x6ce0_5589_c3fd_e29f,
    0xdedf_d7f9_04ff_d232,
    0x9858_b78f_86f8_f3d8,
    0xa807_19e2_5cf1_c85f,
];

/// Pre-refactor reliability counters per seed:
/// `(retries, drops, dups, max_backoff_ns)`.
const GOLDEN_DROP_HEAVY: [(u64, u64, u64, u64); 8] = [(62, 62, 0, 64_000); 8];
const GOLDEN_DUP_REORDER: [(u64, u64, u64, u64); 8] = [
    (0, 0, 45, 0),
    (0, 0, 31, 0),
    (0, 0, 36, 0),
    (0, 0, 33, 0),
    (0, 0, 32, 0),
    (0, 0, 38, 0),
    (0, 0, 21, 0),
    (0, 0, 48, 0),
];
const GOLDEN_COMBINED: [(u64, u64, u64, u64); 8] = [
    (41, 41, 26, 16_000),
    (40, 40, 28, 64_000),
    (26, 26, 30, 16_000),
    (42, 42, 19, 16_000),
    (37, 37, 28, 8_000),
    (35, 35, 27, 16_000),
    (32, 32, 20, 8_000),
    (46, 46, 19, 64_000),
];

/// PutGetStorm on 4 ranks: 192 puts + 192 gets waited on, of which the 192
/// cross-rank writes/reads to non-self targets inject 192 wire messages.
const GOLDEN_COMPLETIONS: u64 = 384;
const GOLDEN_INJECTED: u64 = 192;

fn check_golden(seed: u64, plan_idx: usize, table: &[(u64, u64, u64, u64); 8]) {
    let (plan_name, plan) = fault_plans(seed).swap_remove(plan_idx);
    let (retries, drops, dups, backoff) = table[seed as usize];
    for version in [LibVersion::V2021_3_6Eager, LibVersion::V2021_3_6Defer] {
        let o = run(Workload::PutGetStorm, version, seed, Some(plan));
        let want = Outcome {
            digest: GOLDEN_DIGESTS[seed as usize],
            completions: GOLDEN_COMPLETIONS,
            injected: GOLDEN_INJECTED,
            delivered: GOLDEN_INJECTED,
            retries,
            drops_injected: drops,
            dup_suppressed: dups,
            max_backoff_ns: backoff,
        };
        assert_eq!(
            o, want,
            "seed {seed} plan {plan_name} {version:?}: outcome drifted from the \
             pre-refactor golden"
        );
    }
}

#[test]
fn sim_behind_trait_matches_prerefactor_drop_heavy_goldens() {
    for seed in 0..8 {
        check_golden(seed, 0, &GOLDEN_DROP_HEAVY);
    }
}

#[test]
fn sim_behind_trait_matches_prerefactor_dup_reorder_goldens() {
    for seed in 0..8 {
        check_golden(seed, 1, &GOLDEN_DUP_REORDER);
    }
}

#[test]
fn sim_behind_trait_matches_prerefactor_combined_goldens() {
    for seed in 0..8 {
        check_golden(seed, 2, &GOLDEN_COMBINED);
    }
}

#[test]
fn sim_behind_trait_matches_prerefactor_wire_traces() {
    // Full wire-event streams (every inject/drop/retry/deliver/dup-discard
    // with its virtual-clock timestamp), pinned as (event count, hash).
    let golden = [
        ("drop-heavy", 182, 0x6178_6154_3355_0865_u64),
        ("dup-reorder", 138, 0x891a_bc65_7b58_478c),
        ("combined", 172, 0x8489_5f56_6be3_2026),
    ];
    for ((plan_name, plan), (want_name, want_events, want_hash)) in
        fault_plans(3).into_iter().zip(golden)
    {
        assert_eq!(plan_name, want_name);
        let (events, hash) = wire_trace_probe(plan, 64);
        assert_eq!(
            (events, hash),
            (want_events, want_hash),
            "plan {plan_name}: wire trace drifted from the pre-refactor golden"
        );
    }
}

/// Pre-signal fault-free digests for the remaining three workloads,
/// captured before the notifiable-RMA (put/amo-with-signal) layer was
/// added. The signal machinery rides the same conduits, injection paths,
/// and message IDs as ordinary traffic — so workloads that never issue a
/// signal op must reproduce these values bit-for-bit. Each entry is
/// `(digest per seed 0..8, completions, injected)`.
const GOLDEN_PRESIGNAL_ATOMIC_STORM: ([u64; 8], u64, [u64; 8]) = (
    [
        0x9851_ac3a_b163_ac05,
        0x4a76_229b_ff73_b8c3,
        0xc470_7263_7fbd_a8a9,
        0x326c_8b8c_ff5a_2663,
        0x2e1d_3647_d788_a36a,
        0x2832_592e_c291_a113,
        0xf6dc_d153_3de5_0c47,
        0xefa4_0d1c_2e1b_e985,
    ],
    256,
    [127, 132, 128, 134, 129, 132, 129, 138],
);
const GOLDEN_PRESIGNAL_WHEN_ALL: ([u64; 8], u64, u64) = (
    [
        0xe40f_ceb3_cb6f_ff7e,
        0x3951_fc33_39f1_05f4,
        0xc453_9ac5_13e0_a8cf,
        0xe981_2fb3_c119_795e,
        0x1d0d_0e16_ffd0_1c43,
        0x2ab8_7788_2a5c_404a,
        0xb517_414e_ff16_4d77,
        0x5b96_6874_9b25_bcd2,
    ],
    768,
    192,
);
/// GUPS folds (updates, errors), both seed-independent: one value.
const GOLDEN_PRESIGNAL_GUPS: (u64, u64, u64) = (0x1b38_a3dc_4e0d_1752, 1024, 464);

#[test]
fn signal_free_workloads_match_presignal_goldens() {
    // The no-behaviour-change proof for the signal PR: on fault-free runs
    // of every pre-existing workload, digests, completion counts, and
    // injection counts are unchanged from before the signal layer existed.
    for version in [LibVersion::V2021_3_6Eager, LibVersion::V2021_3_6Defer] {
        for seed in 0..8u64 {
            let o = run(Workload::AtomicStorm, version, seed, None);
            let (digests, completions, injected) = GOLDEN_PRESIGNAL_ATOMIC_STORM;
            assert_eq!(
                (o.digest, o.completions, o.injected),
                (digests[seed as usize], completions, injected[seed as usize]),
                "atomic-storm seed {seed} {version:?} drifted from the pre-signal golden"
            );
            let o = run(Workload::WhenAllFanIn, version, seed, None);
            let (digests, completions, injected) = GOLDEN_PRESIGNAL_WHEN_ALL;
            assert_eq!(
                (o.digest, o.completions, o.injected),
                (digests[seed as usize], completions, injected),
                "when-all-fan-in seed {seed} {version:?} drifted from the pre-signal golden"
            );
            let o = run(Workload::GupsSmall, version, seed, None);
            assert_eq!(
                (o.digest, o.completions, o.injected),
                GOLDEN_PRESIGNAL_GUPS,
                "gups-small seed {seed} {version:?} drifted from the pre-signal golden"
            );
        }
    }
}

/// The differential the tentpole exists for: same seed, same workload,
/// identical digests and completion counts on the simulated conduit and
/// the real UDP socket conduit — eager and deferred builds.
fn assert_transport_independent(workload: Workload, seed: u64) {
    for version in [LibVersion::V2021_3_6Eager, LibVersion::V2021_3_6Defer] {
        let sim = run(workload, version, seed, None);
        let udp = observe(workload, version, seed, None, UDP).outcome;
        assert_eq!(
            (sim.digest, sim.completions),
            (udp.digest, udp.completions),
            "{} seed {seed} {version:?}: real-socket run diverged from the simulator",
            workload.name()
        );
    }
}

#[test]
fn udp_socket_matches_sim_put_get_storm() {
    for seed in [0, 3] {
        assert_transport_independent(Workload::PutGetStorm, seed);
    }
}

#[test]
fn udp_socket_matches_sim_atomic_storm() {
    assert_transport_independent(Workload::AtomicStorm, 1);
}

#[test]
fn udp_socket_matches_sim_when_all_fan_in() {
    assert_transport_independent(Workload::WhenAllFanIn, 2);
}

#[test]
fn udp_socket_matches_sim_gups_small() {
    assert_transport_independent(Workload::GupsSmall, 5);
}

#[test]
fn udp_socket_matches_sim_signal_storm() {
    // Signal frames on a real kernel wire (KIND_SIGNAL datagrams with
    // retransmission and dedup) versus the simulator's delivery heap: the
    // badge masks, payloads, and amo counter must agree exactly. The UDP
    // run uses a wall clock, so ranks genuinely park in `wait_signal` and
    // are woken by the conduit-polling rank.
    for seed in [0, 7] {
        assert_transport_independent(Workload::SignalStorm, seed);
    }
}

#[test]
fn udp_socket_signal_storm_survives_wire_faults() {
    // Deliberately dropped and duplicated SIGNAL datagrams: retransmission
    // must re-carry the badge and receiver dedup must keep the amo counter
    // exact (the workload asserts counter == ranks-1 internally).
    for (plan_name, plan) in udp_fault_plans(9) {
        let sim = run(Workload::SignalStorm, LibVersion::V2021_3_6Eager, 9, None);
        let udp = observe(
            Workload::SignalStorm,
            LibVersion::V2021_3_6Eager,
            9,
            Some(plan),
            UDP,
        )
        .outcome;
        assert_eq!(
            (sim.digest, sim.completions),
            (udp.digest, udp.completions),
            "plan {plan_name}: faulted signal-storm socket run diverged"
        );
    }
}

#[test]
fn udp_socket_survives_wire_faults_with_identical_digests() {
    // Deliberate drops and duplicates on the real wire: the reliability
    // layer must still converge to the simulator's digest.
    for (plan_name, plan) in udp_fault_plans(4) {
        for version in [LibVersion::V2021_3_6Eager, LibVersion::V2021_3_6Defer] {
            let sim = run(Workload::PutGetStorm, version, 4, None);
            let udp = observe(Workload::PutGetStorm, version, 4, Some(plan), UDP).outcome;
            assert_eq!(
                (sim.digest, sim.completions),
                (udp.digest, udp.completions),
                "plan {plan_name} {version:?}: faulted socket run diverged"
            );
            if plan_name == "drop-heavy" {
                assert!(
                    udp.drops_injected > 0,
                    "plan {plan_name}: fault plan should have dropped frames"
                );
            } else {
                assert!(
                    udp.dup_suppressed > 0,
                    "plan {plan_name}: fault plan should have duplicated frames"
                );
            }
        }
    }
}

#[test]
fn eager_and_defer_agree_on_every_conduit() {
    // The paper's claim, quantified over transports: notification timing
    // never changes program results, whichever wire carries the traffic.
    let eager_sim = run(Workload::PutGetStorm, LibVersion::V2021_3_6Eager, 6, None);
    let defer_sim = run(Workload::PutGetStorm, LibVersion::V2021_3_6Defer, 6, None);
    let run_udp = |version| observe(Workload::PutGetStorm, version, 6, None, UDP).outcome;
    let eager_udp = run_udp(LibVersion::V2021_3_6Eager);
    let defer_udp = run_udp(LibVersion::V2021_3_6Defer);
    assert_eq!(eager_sim.digest, defer_sim.digest);
    assert_eq!(eager_udp.digest, defer_udp.digest);
    assert_eq!(eager_sim.digest, eager_udp.digest);
    assert_eq!(
        (eager_sim.completions, defer_sim.completions),
        (eager_udp.completions, defer_udp.completions)
    );
}
