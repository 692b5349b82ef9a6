//! The differential eager/defer equivalence sweep.
//!
//! For every workload × seed × fault plan, a defer-mode run and an
//! eager-mode run must produce identical [`Outcome`]s: the same final
//! shared-memory digest, the same completion count, and the same
//! reliability-layer counters — the paper's "semantics unchanged" claim as
//! an executable invariant, exercised under an adversarial network. Every
//! faulted run must also terminate (the retry layer guarantees delivery)
//! with its backoff bounded by the plan.

use gasnex::FaultPlan;
use simtest::{fault_plans, run, Outcome, Workload, SEEDS};
use upcr::LibVersion;

fn assert_equivalent(w: Workload, seed: u64, plan_name: &str, a: Outcome, b: Outcome) {
    // Routed through the harness helper so a digest mismatch auto-dumps
    // every rank's quiesced introspection snapshot before panicking.
    simtest::assert_outcomes_match(&format!("{} seed={seed} plan={plan_name}", w.name()), a, b);
}

fn assert_faults_exercised(w: Workload, seed: u64, name: &str, plan: &FaultPlan, o: &Outcome) {
    assert!(
        o.injected > 0,
        "{}: workload must use the network",
        w.name()
    );
    if plan.drop_ppm > 0 {
        assert!(
            o.drops_injected > 0,
            "{} seed={} plan={}: drop plan never dropped ({} messages)",
            w.name(),
            seed,
            name,
            o.injected
        );
        assert_eq!(
            o.retries, o.drops_injected,
            "every drop fires exactly one retransmission"
        );
        assert!(
            o.max_backoff_ns >= plan.rto_ns && o.max_backoff_ns <= plan.max_backoff_ns,
            "{} seed={} plan={}: backoff {} outside [{}, {}]",
            w.name(),
            seed,
            name,
            o.max_backoff_ns,
            plan.rto_ns,
            plan.max_backoff_ns
        );
    }
    if plan.dup_ppm > 0 {
        assert!(
            o.dup_suppressed > 0,
            "{} seed={} plan={}: dup plan never duplicated",
            w.name(),
            seed,
            name
        );
    }
}

/// Sweep one workload through every seed × plan, asserting eager/defer
/// equivalence and that the plan's faults actually fired and stayed
/// bounded.
fn sweep(w: Workload) {
    for &seed in &SEEDS {
        for (name, plan) in fault_plans(seed) {
            let defer = run(w, LibVersion::V2021_3_6Defer, seed, Some(plan));
            let eager = run(w, LibVersion::V2021_3_6Eager, seed, Some(plan));
            assert_equivalent(w, seed, name, defer, eager);
            assert_faults_exercised(w, seed, name, &plan, &eager);
        }
    }
}

#[test]
fn put_get_storm_equivalent_under_chaos() {
    sweep(Workload::PutGetStorm);
}

#[test]
fn atomic_storm_equivalent_under_chaos() {
    sweep(Workload::AtomicStorm);
}

#[test]
fn when_all_fan_in_equivalent_under_chaos() {
    sweep(Workload::WhenAllFanIn);
}

#[test]
fn gups_small_equivalent_under_chaos() {
    sweep(Workload::GupsSmall);
}

#[test]
fn legacy_2021_3_0_agrees_on_combined_plan() {
    // The all-deferred 2021.3.0 build must compute the same thing too — a
    // smaller matrix, since the full sweep above already covers the
    // defer/eager pair the paper's optimization distinguishes.
    for &seed in &SEEDS[..2] {
        let (name, plan) = fault_plans(seed).pop().expect("combined plan");
        for w in Workload::ALL {
            let legacy = run(w, LibVersion::V2021_3_0, seed, Some(plan));
            let eager = run(w, LibVersion::V2021_3_6Eager, seed, Some(plan));
            assert_equivalent(w, seed, name, legacy, eager);
        }
    }
}

#[test]
fn fault_free_baseline_agrees_across_all_versions() {
    for &seed in &SEEDS[..2] {
        for w in Workload::ALL {
            let outcomes: Vec<Outcome> = LibVersion::ALL
                .iter()
                .map(|&v| run(w, v, seed, None))
                .collect();
            for o in &outcomes[1..] {
                assert_equivalent(w, seed, "none", outcomes[0], *o);
            }
            let o = outcomes[0];
            assert_eq!(o.retries, 0, "fault-free run must not retry");
            assert_eq!(o.drops_injected, 0);
            assert_eq!(o.dup_suppressed, 0);
            assert_eq!(o.max_backoff_ns, 0);
        }
    }
}

#[test]
fn chaos_runs_replay_identically() {
    // Same (workload, seed, plan, version) twice: the virtual clock plus
    // the seeded fault plan make the whole outcome reproducible.
    let (_, plan) = fault_plans(13).pop().expect("combined plan");
    for w in [Workload::PutGetStorm, Workload::AtomicStorm] {
        let a = run(w, LibVersion::V2021_3_6Eager, 13, Some(plan));
        let b = run(w, LibVersion::V2021_3_6Eager, 13, Some(plan));
        assert_eq!(a, b, "{}: chaos run must replay identically", w.name());
    }
}

#[test]
fn gups_benchmark_entry_survives_chaos() {
    // The public multi-node GUPS entry point on a faulted network: the
    // atomic variant must stay exact and the run must terminate.
    let cfg = gups::GupsConfig {
        log2_table: 10,
        updates_per_word: 1,
        batch: 16,
        verify: true,
    };
    let plan = fault_plans(21)
        .into_iter()
        .find(|(n, _)| *n == "combined")
        .expect("combined plan")
        .1;
    let rt = upcr::RuntimeConfig::udp(4, 2)
        .with_version(LibVersion::V2021_3_6Defer)
        .with_net(simtest::net_for(Some(plan)));
    let r = gups::benchmark_on(rt, &cfg, gups::Variant::AmoFuture);
    assert_eq!(r.errors, 0, "chaos GUPS must stay exact");
    assert_eq!(r.updates, cfg.total_updates());
}
