//! Benchmark result emission (`bench.v2` documents).
//!
//! Two gated suites, both produced by *deterministic* drives so every
//! committed baseline row is exact:
//!
//! * **micro** — the single-threaded virtual-clock probe
//!   ([`upcr::metrics::probe`]) per library version under a seeded chaos
//!   plan: latency quantiles per (op kind × completion path) plus the
//!   notification-path and reliability counters. Timestamps are logical,
//!   so every quantile is a pure function of the configuration.
//! * **gups** — the differential chaos harness ([`simtest`]) per
//!   (workload × version): state digest, completion count, and
//!   reliability counters. Multi-threaded, but each field is
//!   schedule-independent by construction (single-writer/commutative
//!   state, fault fates a pure hash of `(seed, msg, attempt)` over a
//!   fixed message-id set).

use simtest::{Outcome, Setup, Workload};
use upcr::metrics::probe::{run as probe_run, ProbeConfig};
use upcr::LibVersion;

use crate::regress::BENCH_SCHEMA;
use crate::VERSIONS;

/// Stable identifier for a library version inside metric names.
pub fn version_slug(v: LibVersion) -> &'static str {
    match v {
        LibVersion::V2021_3_0 => "v2021_3_0",
        LibVersion::V2021_3_6Defer => "v2021_3_6_defer",
        LibVersion::V2021_3_6Eager => "v2021_3_6_eager",
    }
}

fn mode_name(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}

/// Format a value with the shortest round-trip representation, rendering
/// integral values without a fraction — deterministic output for the
/// byte-identity gate.
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Incremental `bench.v2` document writer with fixed field order.
pub struct DocBuilder {
    head: String,
    metrics: Vec<String>,
}

impl DocBuilder {
    pub fn new(suite: &str, mode: &str, seed: u64, ranks: u64, samples: u64) -> Self {
        DocBuilder {
            head: format!(
                "{{\"schema\":\"{BENCH_SCHEMA}\",\"suite\":\"{suite}\",\"mode\":\"{mode}\",\
                 \"seed\":{seed},\"ranks\":{ranks},\"samples\":{samples}"
            ),
            metrics: Vec::new(),
        }
    }

    /// Add an exactly-reproducible metric.
    pub fn exact(&mut self, name: &str, unit: &str, value: f64) {
        self.metrics.push(format!(
            "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"value\":{}}}",
            fmt_num(value)
        ));
    }

    pub fn finish(self) -> String {
        let mut out = self.head;
        out.push_str(",\"metrics\":[\n");
        out.push_str(&self.metrics.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}

/// The seven schedule-independent rows of one harness [`Outcome`] under
/// `key`: the digest (split so both halves stay exact in the JSON number
/// space), the completion count and the reliability counters.
fn outcome_rows(b: &mut DocBuilder, key: &str, o: &Outcome) {
    b.exact(&format!("{key}.digest_hi"), "hash", (o.digest >> 32) as f64);
    b.exact(
        &format!("{key}.digest_lo"),
        "hash",
        (o.digest & 0xFFFF_FFFF) as f64,
    );
    b.exact(&format!("{key}.completions"), "ops", o.completions as f64);
    b.exact(&format!("{key}.injected"), "msgs", o.injected as f64);
    b.exact(&format!("{key}.retries"), "msgs", o.retries as f64);
    b.exact(
        &format!("{key}.drops_injected"),
        "msgs",
        o.drops_injected as f64,
    );
    b.exact(
        &format!("{key}.dup_suppressed"),
        "msgs",
        o.dup_suppressed as f64,
    );
}

/// `BENCH_micro.json`: probe every library version under one seeded chaos
/// plan and record latency quantiles + path counters. Byte-identical
/// across runs and machines (virtual clock, single-threaded drive).
pub fn bench_micro_doc(quick: bool) -> String {
    let iters: u64 = if quick { 24 } else { 96 };
    let seed = 1u64;
    let mut b = DocBuilder::new("micro", mode_name(quick), seed, 2, iters);
    for &version in &VERSIONS {
        let r = probe_run(&ProbeConfig {
            version,
            iters,
            seed,
            chaos: true,
            trace: true,
            metrics: false,
            ..ProbeConfig::default()
        });
        let slug = version_slug(version);
        for row in r.hist.rows() {
            let op = format!("{slug}.{}_{}", row.kind.name(), row.path.name());
            b.exact(&format!("{op}_count"), "ops", row.count as f64);
            b.exact(&format!("{op}_p50_ns"), "ns", row.p50_ns as f64);
            b.exact(&format!("{op}_p99_ns"), "ns", row.p99_ns as f64);
        }
        b.exact(
            &format!("{slug}.eager_notifications"),
            "ops",
            r.stats.eager_notifications as f64,
        );
        b.exact(
            &format!("{slug}.deferred_enqueued"),
            "ops",
            r.stats.deferred_enqueued as f64,
        );
        b.exact(
            &format!("{slug}.net_injected"),
            "msgs",
            r.net.injected as f64,
        );
        b.exact(&format!("{slug}.net_retries"), "msgs", r.net.retries as f64);
    }
    b.finish()
}

/// `BENCH_gups.json`: sweep differential-harness workloads per library
/// version under the `combined` chaos plan and record each run's
/// schedule-independent outcome fields.
pub fn bench_gups_doc(quick: bool) -> String {
    let seed = 42u64;
    let workloads: &[Workload] = if quick {
        &[Workload::PutGetStorm, Workload::AtomicStorm]
    } else {
        &Workload::ALL
    };
    let plan = simtest::fault_plans(seed)
        .into_iter()
        .find(|(n, _)| *n == "combined")
        .expect("combined plan exists")
        .1;
    let mut b = DocBuilder::new(
        "gups",
        mode_name(quick),
        seed,
        simtest::RANKS as u64,
        workloads.len() as u64,
    );
    for &w in workloads {
        for &version in &VERSIONS {
            let o = simtest::run(w, version, seed, Some(plan));
            outcome_rows(
                &mut b,
                &format!("{}.{}", w.name(), version_slug(version)),
                &o,
            );
        }
    }
    // Aggregation variant: deterministic GUPS-small on the eager build,
    // without and with per-target batching, under the same chaos plan.
    // Both digests are emitted (the gate pins them equal via the
    // committed baseline), and `agg_speedup` — the wire-message reduction
    // factor — carries a hard >= 1.0 floor in the regression gate:
    // aggregated GUPS must never inject more messages than unaggregated.
    let eager = LibVersion::V2021_3_6Eager;
    let off = simtest::run(Workload::GupsSmall, eager, seed, Some(plan));
    let batching = Setup {
        agg: Some(simtest::harness_agg(8)),
        ..Setup::default()
    };
    let on = simtest::observe(Workload::GupsSmall, eager, seed, Some(plan), batching);
    let (on, stats) = (on.outcome, on.net);
    for (key, o) in [("agg_off", off), ("agg_on", on)] {
        b.exact(
            &format!("gups-small.{key}.digest_hi"),
            "hash",
            (o.digest >> 32) as f64,
        );
        b.exact(
            &format!("gups-small.{key}.digest_lo"),
            "hash",
            (o.digest & 0xFFFF_FFFF) as f64,
        );
        b.exact(
            &format!("gups-small.{key}.injected"),
            "msgs",
            o.injected as f64,
        );
    }
    b.exact(
        "gups-small.agg_on.batches",
        "msgs",
        stats.batches_injected as f64,
    );
    b.exact(
        "gups-small.agg_on.ops_coalesced",
        "ops",
        stats.ops_coalesced as f64,
    );
    b.exact(
        "gups-small.agg_speedup",
        "ratio",
        off.injected as f64 / on.injected as f64,
    );
    b.finish()
}

/// `BENCH_signals.json`: the notifiable-RMA + continuation suite, in
/// three parts:
///
/// * **park** — a wall-clock 4-rank world (2 ranks per node) where rank 0
///   blocks in `wait_signal` while ranks 1..3 `put_signal` distinct
///   badges. Emits only schedule-independent fields: the number of signal
///   ops, how many rode the conduit (exactly the two off-node senders),
///   the badge mask rank 0 woke with — and `polls_while_parked`, which the
///   committed baseline pins at **zero**: a parked waiter must burn no
///   progress polls. The derived `idle_fraction` (pinned 1.0, hard `[0,1]`
///   range in the gate) and `polls_per_op` (pinned 0) rows are computed
///   from the same pinned counts. (`park_wakeups` and `signals_coalesced`
///   depend on arrival timing and are deliberately excluded.)
/// * **signal-storm** — the virtual-clock chaos workload per library
///   version under the `combined` fault plan: digest, completions, and
///   reliability counters, all pure functions of `(seed, plan)`.
/// * **callback-storm / continuations** — the continuation-callback chaos
///   workload per library version (same deterministic outcome fields),
///   plus the world-summed continuation counters from the eager run:
///   `continuations.callbacks_run`, the analytic
///   `continuations.ops_with_callbacks`, and their difference
///   `continuations.callback_loss`, which carries a hard ==0 rule in the
///   regression gate regardless of the committed baseline — every
///   callback-carrying op must run its continuation exactly once.
pub fn bench_signals_doc(quick: bool) -> String {
    let seed = 42u64;
    let mut b = DocBuilder::new("signals", mode_name(quick), seed, simtest::RANKS as u64, 1);

    // Park half: wall clock, so rank 0 genuinely parks on a condvar.
    let results = upcr::launch(
        upcr::RuntimeConfig::udp(simtest::RANKS, simtest::RANKS_PER_NODE)
            .with_segment_size(1 << 16),
        |u| {
            let mine = u.new_::<u64>(0);
            let target = u.broadcast(mine, 0);
            u.barrier();
            u.reset_stats();
            let me = u.rank_me();
            let mask = if me == 0 {
                let want = 0b1110u64;
                let mut seen = 0u64;
                while seen != want {
                    seen |= u.wait_signal(0, want & !seen);
                }
                seen
            } else {
                std::thread::sleep(std::time::Duration::from_millis(5));
                u.put_signal(me as u64, target, 0, 1 << me).wait();
                0
            };
            u.barrier();
            (u.stats(), u.net_stats(), mask)
        },
    );
    let signals_sent: u64 = results.iter().map(|(s, _, _)| s.signals_sent).sum();
    let polls_parked: u64 = results.iter().map(|(s, _, _)| s.polls_while_parked).sum();
    b.exact("park.signals_sent", "ops", signals_sent as f64);
    b.exact("park.net_signals", "msgs", results[0].1.signals as f64);
    b.exact("park.woken_mask", "bits", results[0].2 as f64);
    b.exact("park.polls_while_parked", "polls", polls_parked as f64);
    // Idle-efficiency gate rows, count-based so they stay exact (the
    // wall-clock `parked_ns`/`spinning_ns` counters are real time and
    // cannot be pinned): a parked waiter's idle fraction is
    // wakeups/(wakeups + polls) — pinned at 1.0 since polls_while_parked
    // is pinned at zero — and its polls per signal op is pinned at 0. The
    // regression gate additionally enforces a hard [0, 1] range on every
    // `*.idle_fraction` metric, baseline or not.
    let park_wakeups: u64 = results.iter().map(|(s, _, _)| s.park_wakeups).sum();
    let idle_fraction = if park_wakeups + polls_parked == 0 {
        1.0
    } else {
        park_wakeups as f64 / (park_wakeups + polls_parked) as f64
    };
    b.exact("park.idle_fraction", "ratio", idle_fraction);
    b.exact(
        "park.polls_per_op",
        "polls",
        polls_parked as f64 / signals_sent as f64,
    );

    // Chaos half: deterministic outcomes for the signal workload.
    let plan = simtest::fault_plans(seed)
        .into_iter()
        .find(|(n, _)| *n == "combined")
        .expect("combined plan exists")
        .1;
    for &version in &VERSIONS {
        let o = simtest::run(Workload::SignalStorm, version, seed, Some(plan));
        outcome_rows(
            &mut b,
            &format!("signal-storm.{}", version_slug(version)),
            &o,
        );
    }

    // Continuations half: deterministic callback-storm outcomes per
    // version under the same chaos plan, plus the measured world-summed
    // continuation counters from the eager run.
    let mut eager_callbacks_run = None;
    for &version in &VERSIONS {
        let o = simtest::observe(
            Workload::CallbackStorm,
            version,
            seed,
            Some(plan),
            Setup::default(),
        );
        let key = format!("callback-storm.{}", version_slug(version));
        outcome_rows(&mut b, &key, &o.outcome);
        if version == LibVersion::V2021_3_6Eager {
            eager_callbacks_run = Some(o.callbacks_run);
        }
    }
    let callbacks_run = eager_callbacks_run.expect("eager version is swept");
    let ops_with_callbacks = simtest::CALLBACK_OPS as f64;
    b.exact("continuations.callbacks_run", "ops", callbacks_run as f64);
    b.exact(
        "continuations.ops_with_callbacks",
        "ops",
        ops_with_callbacks,
    );
    // Exactly-once, as a gated metric: ops minus runs. The regression gate
    // hard-pins every `*.callback_loss` at exactly zero.
    b.exact(
        "continuations.callback_loss",
        "ops",
        ops_with_callbacks - callbacks_run as f64,
    );
    b.finish()
}

/// `BENCH_causal.json`: the cross-rank causal-tracing suite. Probes every
/// library version under the seeded chaos plan with tracing on, feeds the
/// bundle through the happens-before assembler, and emits the assembly's
/// shape: node/edge counts, the causal chain depth, the virtual-clock
/// critical span, the violation count, and the per-completion-path mean
/// chain lengths (milli-hops). All byte-identical across runs (virtual
/// clock, single-threaded drive, deterministic assembly).
///
/// Two rows carry hard rules in the regression gate regardless of the
/// committed baseline: every `*.causal_violations` must be exactly zero
/// (Lamport order cannot disagree with a virtual clock), and
/// `probe.causal_len_advantage` — the defer-build mean chain length minus
/// the eager-build mean, in milli-hops — must stay strictly positive: the
/// paper's claim, in happens-before hops, is that eager notification
/// shortens the initiation→notification causal chain.
pub fn bench_causal_doc(quick: bool) -> String {
    let iters: u64 = if quick { 24 } else { 96 };
    let seed = 1u64;
    let mut b = DocBuilder::new("causal", mode_name(quick), seed, 2, iters);
    let mut mean_by_version = Vec::new();
    for &version in &VERSIONS {
        let r = probe_run(&ProbeConfig {
            version,
            iters,
            seed,
            chaos: true,
            trace: true,
            metrics: false,
            ..ProbeConfig::default()
        });
        let bundle = r.bundle.as_ref().expect("probe ran with tracing on");
        let asm = upcr::trace::assemble(bundle);
        let slug = version_slug(version);
        b.exact(
            &format!("{slug}.causal_nodes"),
            "events",
            asm.nodes.len() as f64,
        );
        b.exact(&format!("{slug}.hb_edges"), "edges", asm.hb_edges() as f64);
        b.exact(
            &format!("{slug}.causal_violations"),
            "events",
            asm.violations as f64,
        );
        b.exact(
            &format!("{slug}.chain_depth"),
            "hops",
            asm.chain_depth as f64,
        );
        b.exact(
            &format!("{slug}.critical_span_ns"),
            "ns",
            asm.critical_span_ns() as f64,
        );
        for path in upcr::trace::CompletionPath::ALL {
            if let Some(m) = asm.mean_chain_len_milli(path) {
                b.exact(
                    &format!("{slug}.mean_chain_{}_milli", path.name()),
                    "milli-hops",
                    m as f64,
                );
            }
        }
        // Overall mean across both paths — the cross-version comparand.
        let n = asm.op_chains.len() as u64;
        let mean_milli = (asm.op_chains.iter().map(|c| c.len).sum::<u64>() * 1000)
            .checked_div(n)
            .unwrap_or(0);
        b.exact(
            &format!("{slug}.mean_chain_milli"),
            "milli-hops",
            mean_milli as f64,
        );
        mean_by_version.push((version, mean_milli));
    }
    let mean_of = |v: LibVersion| {
        mean_by_version
            .iter()
            .find(|(mv, _)| *mv == v)
            .expect("version probed")
            .1 as f64
    };
    b.exact(
        "probe.causal_len_advantage",
        "milli-hops",
        mean_of(LibVersion::V2021_3_6Defer) - mean_of(LibVersion::V2021_3_6Eager),
    );
    b.finish()
}

/// `BENCH_matching.json`: the Figure-8 application — distributed maximal
/// weighted matching over every paper preset, per library version. Only
/// schedule-independent fields are emitted: the graph shape and the solve
/// *result* (matched-edge count, total weight in milli-units so it stays
/// exact in the JSON number space). Solve time and round/read counters
/// are schedule-dependent and excluded. The per-version rows let the gate
/// pin the paper's correctness claim: notification timing never changes
/// the matching.
pub fn bench_matching_doc(quick: bool) -> String {
    let ranks = 4usize;
    let scale = if quick { 0.02 } else { 0.05 };
    let presets = graphgen::Preset::ALL;
    let mut b = DocBuilder::new(
        "matching",
        mode_name(quick),
        0,
        ranks as u64,
        presets.len() as u64,
    );
    for preset in presets {
        let g = preset.generate(scale);
        b.exact(&format!("{}.vertices", preset.name()), "n", g.n as f64);
        b.exact(&format!("{}.edges", preset.name()), "m", g.edges() as f64);
        for &version in &VERSIONS {
            let r = matching::benchmark(ranks, version, &g);
            let key = format!("{}.{}", preset.name(), version_slug(version));
            b.exact(&format!("{key}.matched"), "edges", r.matched as f64);
            b.exact(
                &format!("{key}.weight_milli"),
                "milli",
                (r.weight * 1e3).round(),
            );
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regress::parse_bench;

    #[test]
    fn micro_doc_is_deterministic_and_parses() {
        let a = bench_micro_doc(true);
        assert_eq!(a, bench_micro_doc(true), "probe doc must be replayable");
        let d = parse_bench(&a).expect("emitted doc must parse");
        assert_eq!(d.suite, "micro");
        assert_eq!(d.mode, "quick");
        assert!(
            d.metrics.len() > 3 * VERSIONS.len(),
            "every version contributes quantile + counter metrics"
        );
        // Both completion paths appear for the eager build.
        assert!(d
            .metrics
            .iter()
            .any(|m| m.name == "v2021_3_6_eager.put_eager_count" && m.value > 0.0));
        assert!(d
            .metrics
            .iter()
            .any(|m| m.name == "v2021_3_6_eager.put_deferred_count" && m.value > 0.0));
    }

    #[test]
    fn matching_doc_is_deterministic_and_parses() {
        let a = bench_matching_doc(true);
        assert_eq!(
            a,
            bench_matching_doc(true),
            "matching doc must be replayable"
        );
        let d = parse_bench(&a).expect("emitted doc must parse");
        assert_eq!(d.suite, "matching");
        // Every version matches the same edges at the same weight — the
        // paper's correctness claim, pinned per preset.
        for preset in graphgen::Preset::ALL {
            let row = |v: &str, f: &str| {
                let name = format!("{}.{v}.{f}", preset.name());
                d.metrics
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("missing metric {name}"))
                    .value
            };
            for field in ["matched", "weight_milli"] {
                let eager = row("v2021_3_6_eager", field);
                assert!(eager > 0.0, "{}: empty matching", preset.name());
                assert_eq!(eager, row("v2021_3_6_defer", field));
                assert_eq!(eager, row("v2021_3_0", field));
            }
        }
    }

    #[test]
    fn signals_doc_is_deterministic_and_pins_zero_parked_polls() {
        let a = bench_signals_doc(true);
        assert_eq!(a, bench_signals_doc(true), "signals doc must be replayable");
        let d = parse_bench(&a).expect("emitted doc must parse");
        assert_eq!(d.suite, "signals");
        let val = |name: &str| {
            d.metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("missing metric {name}"))
                .value
        };
        // The acceptance criterion: a parked rank performs zero progress
        // polls; and exactly the two off-node signals rode the conduit.
        assert_eq!(val("park.polls_while_parked"), 0.0);
        assert_eq!(val("park.signals_sent"), 3.0);
        assert_eq!(val("park.net_signals"), 2.0);
        assert_eq!(val("park.woken_mask"), 14.0);
        // The derived idle-efficiency rows those pins imply.
        assert_eq!(val("park.idle_fraction"), 1.0);
        assert_eq!(val("park.polls_per_op"), 0.0);
        // Eager and defer agree on both chaos halves, field for field.
        for storm in ["signal-storm", "callback-storm"] {
            for field in ["digest_hi", "digest_lo", "completions", "injected"] {
                assert_eq!(
                    val(&format!("{storm}.v2021_3_6_eager.{field}")),
                    val(&format!("{storm}.v2021_3_6_defer.{field}"))
                );
            }
        }
        assert_eq!(val("signal-storm.v2021_3_6_eager.completions"), 24.0);
        // The exactly-once pin: every callback-carrying op ran its
        // continuation, so the loss row is exactly zero.
        assert_eq!(val("continuations.ops_with_callbacks"), 24.0);
        assert_eq!(val("continuations.callbacks_run"), 24.0);
        assert_eq!(val("continuations.callback_loss"), 0.0);
    }

    #[test]
    fn causal_doc_is_deterministic_and_pins_eager_advantage() {
        let a = bench_causal_doc(true);
        assert_eq!(a, bench_causal_doc(true), "causal doc must be replayable");
        let d = parse_bench(&a).expect("emitted doc must parse");
        assert_eq!(d.suite, "causal");
        let val = |name: &str| {
            d.metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("missing metric {name}"))
                .value
        };
        // Virtual clock: Lamport order and wall order can never disagree.
        for v in &VERSIONS {
            assert_eq!(val(&format!("{}.causal_violations", version_slug(*v))), 0.0);
        }
        // The paper's claim in happens-before hops: the eager build's mean
        // causal chain is strictly shorter than the defer build's.
        assert!(val("probe.causal_len_advantage") > 0.0);
        // The defer build never completes anything on the eager path, so
        // its per-path eager row is absent from the document.
        assert!(!d
            .metrics
            .iter()
            .any(|m| m.name == "v2021_3_6_defer.mean_chain_eager_milli"));
        assert!(val("v2021_3_6_eager.mean_chain_eager_milli") > 0.0);
    }
}
