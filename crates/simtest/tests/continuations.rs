//! Differential and regression coverage for the continuation-callback
//! completion mode and the background progress thread.
//!
//! The acceptance bar: the callback-storm workload must be observationally
//! equivalent across eager/defer builds under every chaos plan, and a
//! thread-on simulated run must be **byte-identical** to a thread-off one
//! (the progress thread is a strict no-op under the virtual clock, so
//! seeded schedules stay replayable).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gasnex::Transport;
use simtest::{fault_plans, observe, run, Outcome, Setup, Workload, SEEDS};
use upcr::{launch, LibVersion, RuntimeConfig};

/// The background progress thread requested, on the simulated conduit.
const THREAD_ON: Setup = Setup {
    transport: Transport::Sim,
    agg: None,
    progress_thread: true,
    trace: false,
    metrics: None,
};

fn assert_equivalent(seed: u64, plan_name: &str, a: Outcome, b: Outcome) {
    simtest::assert_outcomes_match(
        &format!("callback-storm seed={seed} plan={plan_name}"),
        a,
        b,
    );
}

#[test]
fn callback_storm_equivalent_under_chaos_with_and_without_thread() {
    // Full sweep: 8 seeds × 3 plans. For each cell the defer and eager
    // builds must agree, and requesting the progress thread on the
    // virtual-clock conduit must change nothing at all (no-op rule).
    for &seed in &SEEDS {
        for (name, plan) in fault_plans(seed) {
            let defer = run(
                Workload::CallbackStorm,
                LibVersion::V2021_3_6Defer,
                seed,
                Some(plan),
            );
            let eager = run(
                Workload::CallbackStorm,
                LibVersion::V2021_3_6Eager,
                seed,
                Some(plan),
            );
            assert_equivalent(seed, name, defer, eager);
            let threaded = observe(
                Workload::CallbackStorm,
                LibVersion::V2021_3_6Eager,
                seed,
                Some(plan),
                THREAD_ON,
            )
            .outcome;
            assert_equivalent(seed, &format!("{name}+thread"), eager, threaded);
            assert!(eager.injected > 0, "callback storm must use the network");
        }
    }
}

#[test]
fn progress_thread_is_noop_under_virtual_clock_to_the_byte() {
    // Beyond outcome equality: the per-rank quiesced snapshots — every
    // counter the runtime exposes — must be byte-identical with the
    // thread flag on and off, because under ClockMode::Virtual the thread
    // is never spawned.
    let (_, plan) = fault_plans(5).pop().expect("combined plan");
    let run = |setup| {
        observe(
            Workload::CallbackStorm,
            LibVersion::V2021_3_6Eager,
            5,
            Some(plan),
            setup,
        )
    };
    let (off, on) = (run(Setup::default()), run(THREAD_ON));
    assert_eq!(off.outcome, on.outcome);
    for (r, (a, b)) in off.snapshots.iter().zip(&on.snapshots).enumerate() {
        assert_eq!(
            a, b,
            "rank {r}: thread-on snapshot diverged from thread-off under the virtual clock"
        );
    }
}

#[test]
fn callback_storm_replays_identically() {
    let (_, plan) = fault_plans(21).pop().expect("combined plan");
    let a = run(
        Workload::CallbackStorm,
        LibVersion::V2021_3_6Eager,
        21,
        Some(plan),
    );
    let b = run(
        Workload::CallbackStorm,
        LibVersion::V2021_3_6Eager,
        21,
        Some(plan),
    );
    assert_eq!(a, b, "callback-storm chaos run must replay identically");
}

#[test]
fn callback_storm_agrees_across_sim_and_udp_with_progress_thread() {
    // The Sim-vs-UDP smoke: the same workload carried by real loopback
    // datagrams with the background progress thread actually running
    // (wall clock) must compute the same digest and completion count as
    // the simulated thread-off run. Reliability counters are not
    // comparable across conduits (real-wire retransmission races).
    let sim = run(Workload::CallbackStorm, LibVersion::V2021_3_6Eager, 3, None);
    let udp = observe(
        Workload::CallbackStorm,
        LibVersion::V2021_3_6Eager,
        3,
        None,
        Setup {
            transport: Transport::UdpSocket,
            ..THREAD_ON
        },
    )
    .outcome;
    assert_eq!(sim.digest, udp.digest, "digest must be conduit-independent");
    assert_eq!(
        sim.completions, udp.completions,
        "completion count must be conduit-independent"
    );
}

#[test]
fn callbacks_drain_on_the_progress_thread_without_rank_polls() {
    // A rank that issues a callback-carrying local op and then sleeps
    // (zero progress calls) still sees the callback run: the background
    // progress thread drains the queue.
    let rt = RuntimeConfig::smp(1)
        .with_segment_size(1 << 14)
        .with_progress_thread(true);
    launch(rt, move |u| {
        let hit = Arc::new(AtomicBool::new(false));
        let p = u.new_::<u64>(0);
        let h = Arc::clone(&hit);
        u.rput_with(
            9u64,
            p,
            upcr::operation_cx::as_callback(move |_: ()| {
                h.store(true, Ordering::Release);
            }),
        );
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !hit.load(Ordering::Acquire) {
            assert!(
                std::time::Instant::now() < deadline,
                "progress thread never drained the callback queue"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let s = u.stats();
        assert_eq!(s.callbacks_run, 1);
        assert!(s.progress_thread_polls > 0);
        u.barrier();
    });
}

#[test]
fn offnode_callback_runs_on_the_progress_thread_without_rank_polls() {
    // The off-node counterpart of the drain test above: the callback of
    // an op whose delivery runs on another thread is enqueued by the
    // delivery action itself, on the initiator's behalf, and the progress
    // thread runs it while the initiator sleeps without one progress call.
    let rt = RuntimeConfig::udp(2, 1)
        .with_segment_size(1 << 14)
        .with_progress_thread(true);
    launch(rt, move |u| {
        let word = u.broadcast(u.new_::<u64>(0), 1);
        u.barrier();
        if u.rank_me() == 0 {
            let hit = Arc::new(AtomicBool::new(false));
            let h = Arc::clone(&hit);
            let before = u.stats();
            u.rput_with(
                9u64,
                word,
                upcr::operation_cx::as_callback(move |_: ()| {
                    h.store(true, Ordering::Release);
                }),
            );
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while !hit.load(Ordering::Acquire) {
                assert!(
                    std::time::Instant::now() < deadline,
                    "the off-node callback never ran"
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let d = u.stats().since(&before);
            assert_eq!(d.progress_calls, 0, "rank 0 made no progress call");
            assert_eq!(d.callbacks_run, 1, "the progress thread ran the callback");
        }
        u.barrier();
    });
}
