//! Chaos differential for the notifiable-RMA signal path.
//!
//! [`Workload::SignalStorm`] sends *only* signal-carrying messages
//! (put-with-signal and amo-with-signal), so this sweep exercises the
//! SIGNAL delivery path — badge coalescing after receiver dedup — under
//! the full fault matrix: for every seed × plan, an eager run and a defer
//! run must produce bit-identical [`Outcome`]s, and the workload's own
//! internal asserts (counter == `ranks - 1`, payloads intact, badge word
//! empty after consumption) prove every signal was delivered exactly once
//! no matter how often the wire dropped, duplicated, or reordered it.

use simtest::{fault_plans, observe, run, Outcome, Setup, Workload, RANKS, SEEDS};
use upcr::LibVersion;

fn assert_equivalent(seed: u64, plan_name: &str, a: Outcome, b: Outcome) {
    // Routed through the harness helper so a digest mismatch auto-dumps
    // every rank's quiesced introspection snapshot before panicking.
    simtest::assert_outcomes_match(&format!("signal-storm seed={seed} plan={plan_name}"), a, b);
}

#[test]
fn signal_storm_equivalent_under_chaos() {
    // The storm injects only ~16 messages per run, so any individual
    // (seed, plan) cell may dodge a probabilistic fault; the sweep-wide
    // totals must show every fault class actually hit signal messages.
    let (mut total_drops, mut total_dups) = (0u64, 0u64);
    for &seed in &SEEDS {
        for (name, plan) in fault_plans(seed) {
            let defer = run(
                Workload::SignalStorm,
                LibVersion::V2021_3_6Defer,
                seed,
                Some(plan),
            );
            let eager = run(
                Workload::SignalStorm,
                LibVersion::V2021_3_6Eager,
                seed,
                Some(plan),
            );
            assert_equivalent(seed, name, defer, eager);
            assert!(
                eager.injected > 0,
                "signal storm must put signal messages on the wire"
            );
            if plan.drop_ppm > 0 {
                assert_eq!(
                    eager.retries, eager.drops_injected,
                    "every dropped signal fires exactly one retransmission"
                );
                total_drops += eager.drops_injected;
            }
            if plan.dup_ppm > 0 {
                total_dups += eager.dup_suppressed;
            }
        }
    }
    assert!(total_drops > 0, "no plan ever dropped a signal message");
    assert!(total_dups > 0, "no plan ever duplicated a signal message");
}

#[test]
fn signal_storm_exact_message_counts_fault_free() {
    // 4 ranks × 3 peers × 2 signal ops (put_signal + amo_signal) = 24
    // completed operations; only the 2-peers-off-node share injects, so
    // 4 ranks × 2 off-node peers × 2 ops = 16 wire messages — all signals.
    for version in [LibVersion::V2021_3_6Defer, LibVersion::V2021_3_6Eager] {
        let o = run(Workload::SignalStorm, version, 7, None);
        assert_eq!(o.completions, (RANKS * (RANKS - 1) * 2) as u64);
        assert_eq!(o.injected, (RANKS * 2 * 2) as u64);
        assert_eq!(o.retries, 0, "fault-free run must not retry");
    }
}

#[test]
fn duplicated_signal_racing_its_reordered_original_is_promoted_not_reapplied() {
    // Under the dup+reorder plan a duplicated copy can overtake its
    // reordered original; the conduit *promotes* the trailing copy to be
    // the real delivery (`dup_promoted`) rather than swallowing it. Every
    // message in this workload is a signal, so a promotion here IS a
    // promoted signal — and the workload's counter assert proves the race
    // still applied the amo (and OR-ed the badge) exactly once. The plan
    // seeds are fixed, so at least one sweep seed must exhibit the race.
    // An aggressive duplicate+reorder plan: the storm only injects ~16
    // messages per run, so the sweep plans' 20% dup rate rarely lines a
    // duplicate up ahead of its reordered original. Crank both knobs and
    // let every duplicate race.
    let mut promoted = 0u64;
    for &seed in &SEEDS {
        let plan = upcr::FaultPlan::seeded(seed.wrapping_mul(0xD135_87A9) ^ 0x3C3C)
            .with_dups(600_000)
            .with_reorder(600_000, 12_000);
        let observed = observe(
            Workload::SignalStorm,
            LibVersion::V2021_3_6Eager,
            seed,
            Some(plan),
            Setup::default(),
        );
        let (o, net) = (observed.outcome, observed.net);
        assert!(o.dup_suppressed + net.dup_promoted > 0, "seed {seed} inert");
        promoted += net.dup_promoted;
    }
    assert!(
        promoted > 0,
        "no sweep seed promoted a duplicated signal over its reordered \
         original — the race this test exists to cover never happened"
    );
}

#[test]
fn signal_storm_replays_identically() {
    // Virtual clock + seeded plan: the whole outcome, including the
    // signal-delivery schedule, is a pure function of (seed, plan).
    let (_, plan) = fault_plans(13).pop().expect("combined plan");
    let a = run(
        Workload::SignalStorm,
        LibVersion::V2021_3_6Eager,
        13,
        Some(plan),
    );
    let b = run(
        Workload::SignalStorm,
        LibVersion::V2021_3_6Eager,
        13,
        Some(plan),
    );
    assert_eq!(a, b, "signal chaos run must replay identically");
}

#[test]
fn legacy_2021_3_0_agrees_on_signals() {
    for &seed in &SEEDS[..2] {
        let (name, plan) = fault_plans(seed).pop().expect("combined plan");
        let legacy = run(
            Workload::SignalStorm,
            LibVersion::V2021_3_0,
            seed,
            Some(plan),
        );
        let eager = run(
            Workload::SignalStorm,
            LibVersion::V2021_3_6Eager,
            seed,
            Some(plan),
        );
        assert_equivalent(seed, name, legacy, eager);
    }
}
