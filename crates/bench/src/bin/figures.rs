//! Regenerate every table/figure of the paper as text output.
//!
//! Usage:
//!
//! ```text
//! figures [micro] [gups] [matching] [offnode] [ablation] [latency]
//!         [causal] [matching-mp] [all]
//!         [--quick]            # reduced iteration counts / sizes
//!         [--ranks N]          # GUPS / matching rank count (default 16)
//!         [--scale X]          # matching graph scale (default 0.25)
//!         [--samples N]        # samples per data point (default 5)
//!         [--json]             # emit deterministic BENCH_*.json instead;
//!                              # sections: micro gups matching signals
//!                              # causal all
//!         [--out-dir DIR]      # where --json writes (default ".")
//! ```
//!
//! An unknown section prints this usage and exits with status 2.
//!
//! `--json` switches to benchmark-pipeline mode: instead of regenerating
//! the wall-clock figures it writes one `BENCH_<section>.json` per section
//! (e.g. `BENCH_micro.json`, the virtual-clock probe per library version)
//! — the `bench.v1` documents the `regress` binary gates against
//! `ci/baseline/`. Every one is byte-deterministic for a fixed mode, so CI
//! commits them as zero-tolerance baselines.
//!
//! Output sections correspond to: Figures 2–4 (microbenchmarks), Figures
//! 5–7 (GUPS), Figure 8 (graph matching), the §IV-A off-node validation
//! with the callback notify latency, the DESIGN.md ablations, and the
//! completion-path latency histograms from the operation-lifecycle trace
//! subsystem with what each instrument costs.

use bench::micro::MicroOp;
use bench::{ablation, fmt_row, micro, offnode, VERSIONS};
use graphgen::{LocalityStats, Preset};
use gups::{GupsConfig, Variant};
use upcr::LibVersion;

const USAGE: &str = "\
Usage: figures [micro] [gups] [matching] [offnode] [ablation] [latency]
               [causal] [matching-mp] [all]
               [--quick] [--ranks N] [--scale X] [--samples N]
               [--json] [--out-dir DIR]
With --json the sections are: micro gups matching signals causal all";

/// Sections of the figure-regeneration mode and of `--json` mode.
const TEXT_SECTIONS: [&str; 9] = [
    "micro",
    "gups",
    "matching",
    "offnode",
    "ablation",
    "latency",
    "causal",
    "matching-mp",
    "all",
];
const JSON_SECTIONS: [&str; 6] = ["micro", "gups", "matching", "signals", "causal", "all"];

struct Args {
    sections: Vec<String>,
    quick: bool,
    ranks: usize,
    scale: f64,
    samples: usize,
    json: bool,
    out_dir: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        sections: Vec::new(),
        quick: false,
        ranks: 16,
        scale: 0.25,
        samples: 5,
        json: false,
        out_dir: ".".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--json" => args.json = true,
            "--out-dir" => args.out_dir = it.next().expect("--out-dir needs a value"),
            "--ranks" => {
                args.ranks = it
                    .next()
                    .expect("--ranks needs a value")
                    .parse()
                    .expect("--ranks")
            }
            "--scale" => {
                args.scale = it
                    .next()
                    .expect("--scale needs a value")
                    .parse()
                    .expect("--scale")
            }
            "--samples" => {
                args.samples = it
                    .next()
                    .expect("--samples needs a value")
                    .parse()
                    .expect("--samples")
            }
            s => args.sections.push(s.to_string()),
        }
    }
    if args.sections.is_empty() {
        args.sections.push("all".to_string());
    }
    let known: &[&str] = if args.json {
        &JSON_SECTIONS
    } else {
        &TEXT_SECTIONS
    };
    if let Some(bad) = args.sections.iter().find(|s| !known.contains(&s.as_str())) {
        eprintln!("figures: unknown section `{bad}`\n{USAGE}");
        std::process::exit(2);
    }
    args
}

fn want(args: &Args, s: &str) -> bool {
    args.sections.iter().any(|x| x == s || x == "all")
}

/// The paper's methodology: several samples, average of the best half
/// ("running twenty samples, taking the average of the top ten").
fn best_half_mean(samples: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..samples.max(1)).map(|_| f()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let half = &v[..v.len().div_ceil(2)];
    half.iter().sum::<f64>() / half.len() as f64
}

fn main() {
    let args = parse_args();
    if args.json {
        emit_bench_json(&args);
        return;
    }
    println!("eager-notify reproduction — paper figure regeneration");
    println!("(single x86-64 host; compare series shapes, not absolute values)\n");
    if want(&args, "micro") {
        fig_2_3_4_micro(&args);
    }
    if want(&args, "gups") {
        fig_5_6_7_gups(&args);
    }
    if want(&args, "matching") {
        fig_8_matching(&args);
    }
    if want(&args, "offnode") {
        offnode_validation(&args);
    }
    if want(&args, "ablation") {
        ablations(&args);
    }
    if want(&args, "latency") {
        latency_histograms(&args);
    }
    if want(&args, "causal") {
        causal_profiles(&args);
    }
    if want(&args, "matching-mp") || args.sections.iter().any(|x| x == "all") {
        matching_mp_comparison(&args);
    }
}

/// Benchmark-pipeline mode: write the deterministic `bench.v1` documents
/// the regression gate compares against `ci/baseline/`.
fn emit_bench_json(args: &Args) {
    std::fs::create_dir_all(&args.out_dir)
        .unwrap_or_else(|e| panic!("creating {}: {e}", args.out_dir));
    type SuiteEmit = fn(bool) -> String;
    let suites: [(&str, SuiteEmit); 5] = [
        ("micro", bench::emit::bench_micro_doc),
        ("gups", bench::emit::bench_gups_doc),
        ("matching", bench::emit::bench_matching_doc),
        ("signals", bench::emit::bench_signals_doc),
        ("causal", bench::emit::bench_causal_doc),
    ];
    for (suite, emit) in suites {
        if !want(args, suite) {
            continue;
        }
        let path = format!("{}/BENCH_{suite}.json", args.out_dir);
        let doc = emit(args.quick);
        std::fs::write(&path, &doc).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path} ({} bytes)", doc.len());
    }
}

/// Extension: the RMA solver vs. the message-passing (MPI-style) solver —
/// the paper reports the application's UPC++ RMA version performs
/// comparably to the best MPI version.
fn matching_mp_comparison(args: &Args) {
    let ranks = args.ranks.min(8);
    let scale = if args.quick { 0.05 } else { 0.1 };
    println!(
        "== Extension: RMA solver vs message-passing solver (eager build, {ranks} ranks) ==\n"
    );
    for preset in Preset::ALL {
        let g = preset.generate(scale);
        let rma = matching::benchmark(ranks, LibVersion::V2021_3_6Eager, &g);
        let rt = upcr::RuntimeConfig::udp(ranks, ranks).with_segment_size(1 << 22);
        let mp = upcr::launch(rt, |u| {
            u.barrier();
            let t0 = std::time::Instant::now();
            let (m, stats) = matching::solve_mp(u, &g);
            let secs = f64::from_bits(u.allreduce_max_u64(t0.elapsed().as_secs_f64().to_bits()));
            (secs, m.weight, stats.messages)
        });
        let (mp_secs, mp_weight, msgs) = mp[0];
        assert!((mp_weight - rma.weight).abs() < 1e-9, "solvers disagree");
        println!(
            "  {:<10} RMA {:>9.2}ms ({} RMA reads)   MP {:>9.2}ms ({} msgs)   same matching: yes",
            preset.name(),
            rma.seconds * 1e3,
            rma.stats.rma_reads,
            mp_secs * 1e3,
            msgs
        );
    }
    println!();
}

/// Completion-path latency distribution, from the lifecycle tracer: a
/// traced small GUPS run (atomics w/futures) per library version, p50/p99
/// per (op kind × completion path) merged across ranks. The eager build
/// should show its completions concentrated on the eager path at ~0
/// latency; the defer builds push everything through the progress engine.
/// Then what the instruments cost: the Figure 2 eager local put with
/// every instrument off (the default) and with tracing on, and the
/// deferred local put, which runs one progress quantum per op and so
/// reaches the metric sampler, with every instrument off and with metric
/// sampling on.
fn latency_histograms(args: &Args) {
    let ranks = args.ranks.clamp(2, 8);
    let cfg = GupsConfig {
        log2_table: if args.quick { 12 } else { 16 },
        updates_per_word: 1,
        batch: 64,
        verify: false,
    };
    println!(
        "== Completion-path latency (traced GUPS, atomics w/futures, {ranks} ranks over 2 nodes) ==\n"
    );
    for &version in &VERSIONS {
        let rt = upcr::RuntimeConfig::udp(ranks, ranks / 2)
            .with_version(version)
            .with_segment_size((cfg.table_size() / ranks * 8 + (1 << 16)).next_power_of_two());
        let hists = upcr::launch(rt, |u| {
            u.trace_enabled(true);
            gups::run(u, &cfg, Variant::AmoFuture);
            u.barrier();
            u.latency_report()
        })
        .into_iter()
        .fold(upcr::Histograms::new(), |mut acc, h| {
            acc.merge(&h);
            acc
        });
        println!("  {version}:");
        for row in hists.rows() {
            println!(
                "    {:<9} {:<9} count {:>8}  p50 <= {:>10} ns  p99 <= {:>10} ns  max {:>10} ns",
                row.kind.name(),
                row.path.name(),
                row.count,
                row.p50_ns,
                row.p99_ns,
                row.max_ns
            );
        }
    }
    let iters: u64 = if args.quick { 200_000 } else { 2_000_000 };
    let samples = if args.quick { 1 } else { args.samples };
    println!(
        "\n  instrument cost, local put (best-half mean of {samples} x {iters} ops; \
         eager put 2021.3.6 eager, deferred put 2021.3.6 defer):"
    );
    let put = |version, setup: fn(&upcr::Upcr)| {
        best_half_mean(samples, || {
            micro::ns_per_op(version, MicroOp::Put, iters, setup)
        })
    };
    let off = put(LibVersion::V2021_3_6Eager, |_| {});
    let tracing = put(LibVersion::V2021_3_6Eager, |u| u.trace_enabled(true));
    let defer = put(LibVersion::V2021_3_6Defer, |_| {});
    let metrics = put(LibVersion::V2021_3_6Defer, |u| u.metrics_enabled(true));
    let pct = |on: f64, base: f64| 100.0 * (on / base - 1.0);
    println!("    instruments off {off:>8.1} ns/op  eager put");
    println!(
        "    tracing on      {tracing:>8.1} ns/op  eager put ({:+.0}%)",
        pct(tracing, off)
    );
    println!("    deferred put    {defer:>8.1} ns/op  no instrument");
    println!(
        "    metrics on      {metrics:>8.1} ns/op  deferred put ({:+.0}%)",
        pct(metrics, defer)
    );
    println!();
}

/// Cross-rank causal timelines from the seeded chaos probe: the paper's
/// eager-vs-defer claim restated as happens-before chain lengths, plus
/// the distributed critical-path header per library version.
fn causal_profiles(args: &Args) {
    let iters: u64 = if args.quick { 24 } else { 96 };
    println!("== Causal timelines (chaos probe, virtual clock, seed 1) ==\n");
    for &version in &VERSIONS {
        let r = upcr::metrics::probe::run(&upcr::metrics::probe::ProbeConfig {
            version,
            iters,
            seed: 1,
            chaos: true,
            trace: true,
            metrics: false,
            ..Default::default()
        });
        let bundle = r.bundle.as_ref().expect("probe ran with tracing on");
        let asm = upcr::trace::assemble(bundle);
        println!("  {version}:");
        println!(
            "    nodes {:>5}  hb_edges {:>5}  violations {}  chain_depth {:>4}  span {:>8} ns",
            asm.nodes.len(),
            asm.hb_edges(),
            asm.violations,
            asm.chain_depth,
            asm.critical_span_ns()
        );
        for path in upcr::trace::CompletionPath::ALL {
            match asm.mean_chain_len_milli(path) {
                Some(m) => println!(
                    "    mean chain ({:<8}) {:>3}.{:03} hops",
                    path.name(),
                    m / 1000,
                    m % 1000
                ),
                None => println!("    mean chain ({:<8})    (no ops)", path.name()),
            }
        }
    }
    println!();
}

fn fig_2_3_4_micro(args: &Args) {
    let iters: u64 = if args.quick { 200_000 } else { 2_000_000 };
    let samples = if args.quick { 1 } else { args.samples };
    println!("== Figures 2-4: microbenchmarks (ns per operation, on-node target) ==");
    println!("   paper loop: `op(gp).wait()` x {iters}, best-half mean of {samples} per cell\n");
    println!(
        "{}",
        fmt_row(
            "operation",
            &VERSIONS.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        )
    );
    let mut measured: Vec<(MicroOp, LibVersion, f64)> = Vec::new();
    for op in MicroOp::ALL {
        let cells: Vec<String> = VERSIONS
            .iter()
            .map(|&v| {
                if !op.available_in(v) {
                    return "n/a".to_string();
                }
                let ns = best_half_mean(samples, || micro::ns_per_op(v, op, iters, |_| {}));
                measured.push((op, v, ns));
                format!("{ns:.1} ns")
            })
            .collect();
        println!("{}", fmt_row(op.name(), &cells));
    }
    // Headline ratios the paper reports, from the table's own cells.
    let cell = |op, v| {
        let m = measured.iter().find(|m| m.0 == op && m.1 == v);
        m.expect("the op exists under the version").2
    };
    let put_defer = cell(MicroOp::Put, LibVersion::V2021_3_6Defer);
    let put_eager = cell(MicroOp::Put, LibVersion::V2021_3_6Eager);
    let fa_v = cell(MicroOp::AmoFetchAdd, LibVersion::V2021_3_6Eager);
    let fa_m = cell(MicroOp::AmoFetchAddInto, LibVersion::V2021_3_6Eager);
    println!(
        "\n  eager vs defer put speedup: {:.0}%  (paper: 92-95%)",
        100.0 * (put_defer / put_eager - 1.0)
    );
    println!(
        "  non-value vs value fetch-add (eager): {:.0}%  (paper: 66-90%)\n",
        100.0 * (fa_v / fa_m - 1.0)
    );
}

fn fig_5_6_7_gups(args: &Args) {
    let ranks = args.ranks;
    let samples = if args.quick { 1 } else { args.samples };
    let cfg = if args.quick {
        GupsConfig {
            log2_table: 18,
            updates_per_word: 4,
            batch: 256,
            verify: false,
        }
    } else {
        GupsConfig {
            log2_table: 22,
            updates_per_word: 4,
            batch: 256,
            verify: false,
        }
    };
    println!(
        "== Figures 5-7: GUPS / HPCC RandomAccess ({} ranks, table 2^{} words, MUPS higher=better) ==\n",
        ranks, cfg.log2_table
    );
    println!(
        "{}",
        fmt_row(
            "variant",
            &VERSIONS.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        )
    );
    let mut table: Vec<(Variant, Vec<f64>)> = Vec::new();
    for variant in Variant::ALL {
        let mups: Vec<f64> = VERSIONS
            .iter()
            .map(|&v| {
                let secs =
                    best_half_mean(samples, || gups::benchmark(ranks, v, &cfg, variant).seconds);
                cfg.total_updates() as f64 / secs / 1e6
            })
            .collect();
        let cells: Vec<String> = mups.iter().map(|m| format!("{m:.1}")).collect();
        println!("{}", fmt_row(variant.name(), &cells));
        table.push((variant, mups));
    }
    let get = |v: Variant| table.iter().find(|(x, _)| *x == v).unwrap().1.clone();
    let rp = get(Variant::RmaPromise);
    let rf = get(Variant::RmaFuture);
    let af = get(Variant::AmoFuture);
    let ap = get(Variant::AmoPromise);
    println!(
        "\n  RMA w/promises eager/defer: {:.2}x  (paper: 1.09-1.25x)",
        rp[2] / rp[1]
    );
    println!(
        "  RMA w/futures  eager/defer: {:.2}x  (paper: 2.4-13.5x)",
        rf[2] / rf[1]
    );
    println!(
        "  AMO w/futures  eager/defer: {:.2}x  (paper: 1.5-7.1x)",
        af[2] / af[1]
    );
    println!(
        "  AMO w/promises eager/defer: {:.2}x  (paper: 1.01-1.04x)",
        ap[2] / ap[1]
    );
    let manual = get(Variant::ManualLocalization);
    println!(
        "  manual-localization / RMA-promise-eager: {:.2}x  (paper: 1.25-1.36x)\n",
        manual[2] / rp[2]
    );
}

fn fig_8_matching(args: &Args) {
    let ranks = args.ranks;
    let scale = if args.quick {
        args.scale.min(0.1)
    } else {
        args.scale
    };
    let samples = if args.quick { 1 } else { args.samples };
    println!(
        "== Figure 8: graph matching solve time ({} ranks, scale {scale}, seconds lower=better) ==\n",
        ranks
    );
    println!(
        "{}",
        fmt_row(
            "input (locality same-rank%)",
            &VERSIONS.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        )
    );
    for preset in Preset::ALL {
        let g = preset.generate(scale);
        let loc = LocalityStats::measure(&g, ranks, ranks);
        let secs: Vec<f64> = VERSIONS
            .iter()
            .map(|&v| best_half_mean(samples, || matching::benchmark(ranks, v, &g).seconds))
            .collect();
        let cells: Vec<String> = secs.iter().map(|s| format!("{s:.4}s")).collect();
        let label = format!("{} ({:.0}%)", preset.name(), 100.0 * loc.same_rank);
        println!(
            "{}  eager speedup {:+.1}%",
            fmt_row(&label, &cells),
            100.0 * (secs[1] / secs[2] - 1.0)
        );
    }
    println!("\n  (paper: channel ~0%, venturi 2%, random 5%, delaunay 6%, youtube 11%)\n");
}

fn offnode_validation(args: &Args) {
    let iters: u64 = if args.quick { 20_000 } else { 100_000 };
    println!("== §IV-A validation: off-node RMA latency (2 simulated nodes, EDR-like 1.5us) ==\n");
    let samples = if args.quick { 1 } else { args.samples };
    for latency in [1_500u64, 5_000] {
        let defer = best_half_mean(samples, || {
            offnode::rput_ns(LibVersion::V2021_3_6Defer, iters, latency)
        });
        let eager = best_half_mean(samples, || {
            offnode::rput_ns(LibVersion::V2021_3_6Eager, iters, latency)
        });
        println!(
            "  network latency {:>5} ns: defer {defer:.0} ns/op, eager {eager:.0} ns/op, delta {:+.2}%",
            latency,
            100.0 * (eager / defer - 1.0)
        );
    }
    println!("  (paper: no statistically significant difference)\n");
    println!("  callback notify, cross-node rput_with(as_callback), 64 puts:");
    for (label, thread) in [("off", false), ("on", true)] {
        let (p50, p99) = offnode::callback_notify_ns(thread);
        println!("    progress thread {label:<3}  p50 {p50:>7} ns  p99 {p99:>7} ns");
    }
    println!();
}

fn ablations(args: &Args) {
    let n: u64 = if args.quick { 100_000 } else { 1_000_000 };
    let samples = if args.quick { 1 } else { args.samples };
    println!("== Ablations: conjoining-loop cost per op (ns), isolating each optimization ==");
    println!("   best-half mean of {samples} x {n} ops per cell\n");
    for &v in &VERSIONS {
        let cell = |f: fn(LibVersion, u64) -> f64| best_half_mean(samples, || f(v, n));
        println!(
            "  {v:<18} conjoin loop {:>8.1}  forced-defer {:>8.1}  promise loop {:>8.1}",
            cell(ablation::conjoin_loop_ns),
            cell(ablation::conjoin_loop_forced_defer_ns),
            cell(ablation::promise_loop_ns)
        );
    }
    println!("\n  conjoin(eager) vs forced-defer isolates eager notification + ready-cell reuse;");
    println!("  2021.3.6-defer vs 2021.3.0 isolates the extra-allocation removal.\n");
}
