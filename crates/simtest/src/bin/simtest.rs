//! Command-line driver for the differential harness with trace export.
//!
//! Runs one seeded workload on the 4-rank / 2-node chaos world and
//! optionally exports the operation-lifecycle trace as Chrome
//! `trace_event` JSON (load in `chrome://tracing` or Perfetto):
//!
//! ```text
//! simtest --workload gups-small --seed 42 --plan combined \
//!         --version eager --trace-out trace.json --check-notify
//! ```
//!
//! `--check-notify` re-parses the exported JSON and fails unless it
//! contains at least one eager and one deferred notification event — the
//! CI trace-smoke job's acceptance check.
//!
//! `--causal-out PATH` assembles the cross-rank causal timeline (the
//! Lamport-merged rank rings plus the wire trace) and writes the Chrome
//! trace JSON *with flow arrows* (`"ph":"s"/"f"`), so Perfetto draws the
//! inject→deliver and signal→wakeup edges across rank rows. The bin fails
//! if the assembly reports any causality violation — impossible under the
//! sim conduit's virtual clock, so a nonzero count is a tracing bug.
//!
//! `--snapshot-out PATH` writes every rank's quiesced introspection
//! snapshot (`snapshot.v1` JSON, one document per rank in a top-level
//! array). `--watchdog-demo` runs no workload: it deliberately provokes a
//! partition stall, prints the watchdog's wait-graph diagnosis, and fails
//! unless the diagnosis names the blocked rank — the CI watchdog-smoke
//! job's acceptance check. `--watchdog-ms N` sets the demo's stall
//! watchdog (default 700 ms; must exceed the demo's ~250 ms injection
//! delay so the stuck carrier is on the wire when the watchdog trips).

use std::process::ExitCode;

use simtest::{fault_plans, harness_agg, observe, watchdog_stall_demo, Setup, Workload};
use upcr::metrics::{metrics_json_multi, prometheus_text_multi};
use upcr::trace::{count_notifications, parse_json, summary_table};
use upcr::{LibVersion, MetricsConfig};

struct Args {
    workload: Workload,
    seed: u64,
    plan: Option<String>,
    version: LibVersion,
    agg_flush: Option<usize>,
    trace_out: Option<String>,
    causal_out: Option<String>,
    metrics_out: Option<String>,
    prom_out: Option<String>,
    snapshot_out: Option<String>,
    check_notify: bool,
    watchdog_demo: bool,
    watchdog_ms: u64,
    progress_thread: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: simtest [--workload put-get-storm|atomic-storm|when-all-fan-in|gups-small|signal-storm|callback-storm]\n\
         \x20              [--seed N] [--plan none|drop-heavy|dup-reorder|combined]\n\
         \x20              [--version eager|2021.3.0|2021.3.6-defer] [--agg] [--agg-flush N]\n\
         \x20              [--progress-thread]\n\
         \x20              [--trace-out PATH] [--causal-out PATH]\n\
         \x20              [--metrics-out PATH] [--prom-out PATH]\n\
         \x20              [--snapshot-out PATH] [--check-notify]\n\
         \x20              [--watchdog-demo] [--watchdog-ms N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: Workload::GupsSmall,
        seed: 42,
        plan: Some("combined".to_string()),
        version: LibVersion::V2021_3_6Eager,
        agg_flush: None,
        trace_out: None,
        causal_out: None,
        metrics_out: None,
        prom_out: None,
        snapshot_out: None,
        check_notify: false,
        watchdog_demo: false,
        watchdog_ms: 700,
        progress_thread: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => {
                let v = val();
                // `Workload::ALL` deliberately excludes SignalStorm and
                // CallbackStorm (its stability pins the pre-existing wire
                // schedules); the bin still drives them for the smoke jobs.
                args.workload = Workload::ALL
                    .into_iter()
                    .chain([Workload::SignalStorm, Workload::CallbackStorm])
                    .find(|w| w.name() == v)
                    .unwrap_or_else(|| usage());
            }
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--plan" => {
                let v = val();
                args.plan = (v != "none").then_some(v);
            }
            "--version" => {
                args.version = match val().as_str() {
                    "eager" | "2021.3.6" => LibVersion::V2021_3_6Eager,
                    "2021.3.0" => LibVersion::V2021_3_0,
                    "2021.3.6-defer" | "defer" => LibVersion::V2021_3_6Defer,
                    _ => usage(),
                };
            }
            // --agg enables batching at the harness flush threshold;
            // --agg-flush N picks the size threshold explicitly.
            "--agg" => args.agg_flush = args.agg_flush.or(Some(4)),
            "--agg-flush" => args.agg_flush = Some(val().parse().unwrap_or_else(|_| usage())),
            "--trace-out" => args.trace_out = Some(val()),
            "--causal-out" => args.causal_out = Some(val()),
            "--metrics-out" => args.metrics_out = Some(val()),
            "--prom-out" => args.prom_out = Some(val()),
            "--snapshot-out" => args.snapshot_out = Some(val()),
            "--check-notify" => args.check_notify = true,
            // A no-op on the sim conduit's virtual clock by design; accepted
            // so scripted sweeps can pass one flag set to both runners.
            "--progress-thread" => args.progress_thread = true,
            "--watchdog-demo" => args.watchdog_demo = true,
            "--watchdog-ms" => args.watchdog_ms = val().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.watchdog_demo {
        let diagnosis = watchdog_stall_demo(args.watchdog_ms);
        print!("{diagnosis}");
        if diagnosis.starts_with("wait-graph stall: rank 0 blocked") {
            println!("watchdog-demo: ok (diagnosis names the blocked rank)");
            return ExitCode::SUCCESS;
        }
        eprintln!("error: diagnosis does not name the blocked rank");
        return ExitCode::FAILURE;
    }
    let plan = args.plan.as_deref().map(|name| {
        fault_plans(args.seed)
            .into_iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| usage())
            .1
    });

    let setup = Setup {
        agg: args.agg_flush.map(harness_agg),
        progress_thread: args.progress_thread,
        trace: true,
        metrics: (args.metrics_out.is_some() || args.prom_out.is_some())
            .then(MetricsConfig::default),
        ..Setup::default()
    };
    let observed = observe(args.workload, args.version, args.seed, plan, setup);
    let (outcome, bundle, hists) = (observed.outcome, &observed.bundle, &observed.hists);
    println!(
        "workload={} seed={} version={:?} digest={:#018x} completions={} injected={} retries={} drops={} dups={}",
        args.workload.name(),
        args.seed,
        args.version,
        outcome.digest,
        outcome.completions,
        outcome.injected,
        outcome.retries,
        outcome.drops_injected,
        outcome.dup_suppressed,
    );
    print!("{}", summary_table(hists));

    let parts: Vec<_> = observed.per_rank.iter().map(|(s, h)| (s, h)).collect();
    if let Some(path) = &args.metrics_out {
        if let Err(e) = std::fs::write(path, metrics_json_multi(&parts)) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics: {} rank series -> {path}", parts.len());
    }
    if let Some(path) = &args.prom_out {
        if let Err(e) = std::fs::write(path, prometheus_text_multi(&parts)) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("prometheus exposition: {} ranks -> {path}", parts.len());
    }

    if let Some(path) = &args.snapshot_out {
        let docs: Vec<&str> = observed.snapshots.iter().map(|(_, j)| j.as_str()).collect();
        let body = format!("[\n{}\n]\n", docs.join(",\n"));
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "snapshots: {} quiesced rank snapshots -> {path}",
            observed.snapshots.len()
        );
    }

    let json = upcr::trace::chrome_trace_json(bundle);
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        let events: usize = bundle.ranks.iter().map(|r| r.events.len()).sum();
        println!(
            "trace: {} rank events + {} wire events -> {path}",
            events,
            bundle.net.len()
        );
    }

    if let Some(path) = &args.causal_out {
        // The sim conduit runs the virtual clock, where Lamport order and
        // wall order cannot disagree — a nonzero violation count here is a
        // bug in the assembler or the clock piggyback, so the bin fails.
        let asm = upcr::trace::assemble(bundle);
        let flows = upcr::trace::chrome_trace_json_with_flows(bundle, &asm);
        if let Err(e) = std::fs::write(path, &flows) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "causal: nodes={} hb_edges={} violations={} chain_depth={} span={}ns -> {path}",
            asm.nodes.len(),
            asm.hb_edges(),
            asm.violations,
            asm.chain_depth,
            asm.critical_span_ns()
        );
        if asm.violations != 0 {
            eprintln!(
                "error: {} causality violations on a virtual-clock run",
                asm.violations
            );
            return ExitCode::FAILURE;
        }
    }

    if args.check_notify {
        if let Err(e) = parse_json(&json) {
            eprintln!("error: exported trace is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
        match count_notifications(&json) {
            Ok((eager, deferred)) if eager >= 1 && deferred >= 1 => {
                println!("check-notify: ok ({eager} eager, {deferred} deferred)");
            }
            Ok((eager, deferred)) => {
                eprintln!(
                    "error: expected >=1 eager and >=1 deferred notification, \
                     got {eager} eager / {deferred} deferred"
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
