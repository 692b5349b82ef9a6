//! Running one workload and turning its launches into named metrics.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Duration;

use crate::floors::{gups_raw, Floors};
use crate::inputs::Inputs;
use crate::spans::{LayerAgg, Span};
use crate::stats::{median, quantile, ratio, rss_peak_mib, Thinned};
use crate::workloads::{launch_once, LaunchOut};
use crate::{Build, Workload};

/// A metric's name and unit.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, measured untraced (`--trace 0`).
pub const END_TO_END: [MetricDef; 6] = [
    ("ns_per_op", "ns"),
    ("ns_per_op_p90", "ns"),
    ("defer_ns_per_op", "ns"),
    ("defer_ns_per_op_p90", "ns"),
    ("setup_s", "s"),
    ("rss_peak_mib", "MiB"),
];

/// Per-layer metrics measured for each build; the defer build's carry the
/// `defer.` prefix. A time is 0 where the workload makes no such call.
pub const PER_BUILD: [MetricDef; 24] = [
    ("rma.init_ns", "ns"),
    ("atomics.init_ns", "ns"),
    ("completion.eager_share", "share"),
    ("completion.deferred_per_op", "1/op"),
    ("future.cells_per_op", "1/op"),
    ("future.conjoin_ns", "ns"),
    ("future.when_all_nodes_per_op", "1/op"),
    ("ctx.quantum_ns", "ns"),
    ("ctx.empty_quantum_ns", "ns"),
    ("ctx.quanta_per_op", "1/op"),
    ("ctx.useful_quantum_share", "share"),
    ("ctx.pending_highwater", "count"),
    ("ctx.wait_ns", "ns"),
    ("ctx.progress_share", "share"),
    ("net.contended_poll_share", "share"),
    ("net.injected_per_op", "1/op"),
    ("net.delivered_per_quantum", "1/quantum"),
    ("conduit.udp.retries_per_op", "1/op"),
    ("conduit.udp.dup_suppressed_per_op", "1/op"),
    ("sum.ns_per_op", "ns"),
    ("sum.unexplained_share", "share"),
    ("trace.overhead_ratio", "ratio"),
    ("gups.mups", "MUPS"),
    ("samples", "count"),
];

/// Per-layer metrics measured once per traced run.
pub const PER_RUN: [MetricDef; 13] = [
    ("gups.raw_ns_per_op", "ns"),
    ("gups.runtime_share", "share"),
    ("paper.defer_over_eager", "ratio"),
    ("failed_op_ratio", "share"),
    ("ctx.empty_progress_floor_ns", "ns"),
    ("ctx.empty_progress_peer_floor_ns", "ns"),
    ("future.promise_floor_ns", "ns"),
    ("event.signal_floor_ns", "ns"),
    ("mailbox.push_drain_floor_ns", "ns"),
    ("net.inject_poll_floor_ns", "ns"),
    ("conduit.udp.inject_poll_floor_ns", "ns"),
    ("segment.write_floor_ns", "ns"),
    ("bench.clock_ns", "ns"),
];

/// Every per-layer metric (`--trace 1`), in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    Build::ALL
        .iter()
        .flat_map(|b| {
            PER_BUILD
                .iter()
                .map(move |(n, u)| (format!("{}{n}", b.prefix()), *u))
        })
        .chain(PER_RUN.iter().map(|(n, u)| (n.to_string(), *u)))
        .collect()
}

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Launches per build; a traced run spends half of them untraced and
    /// half traced.
    pub launches: usize,
    /// Corrupt one expected value in the first launch: the self-test of
    /// failure accounting.
    pub corrupt_expected: bool,
}

impl RunConfig {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> RunConfig {
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            launches: workload.launches(),
            corrupt_expected: false,
        }
    }
}

/// A run's outcome.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Name, unit and value of every metric of the run's mode, in output
    /// order.
    pub metrics: Vec<(String, &'static str, f64)>,
    /// Human-readable lines printed before the metrics.
    pub lines: Vec<String>,
    /// Verbatim spans of each build's first traced launch, with the rank
    /// that recorded them.
    pub spans: Vec<(Build, usize, Span)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The launches of one phase of a run, by build.
struct Phase {
    launches: [Vec<LaunchOut>; 2],
}

impl Phase {
    /// Alternate the builds launch by launch, in ABBA order so neither
    /// always runs first, issuing for `seconds` in total.
    fn run(cfg: &RunConfig, inputs: &Inputs, seconds: f64, traced: bool, first: u64) -> Phase {
        let n = cfg.launches.max(1);
        let window = Duration::from_secs_f64(seconds / (2 * n) as f64);
        let mut launches = [Vec::new(), Vec::new()];
        let mut idx = first;
        for i in 0..n {
            let order = if i % 2 == 0 {
                Build::ALL
            } else {
                [Build::Defer, Build::Eager]
            };
            for b in order {
                let corrupt = cfg.corrupt_expected && idx == 0;
                let out = launch_once(cfg.workload, inputs, b, window, idx, traced, corrupt);
                launches[b as usize].push(out);
                idx += 1;
            }
        }
        Phase { launches }
    }

    fn of(&self, b: Build) -> &[LaunchOut] {
        &self.launches[b as usize]
    }

    fn all(&self) -> impl Iterator<Item = &LaunchOut> {
        self.launches.iter().flatten()
    }

    fn samples(&self, b: Build) -> Vec<f64> {
        let mut all = Vec::with_capacity(self.of(b).iter().map(|l| l.ns_per_op.len()).sum());
        for l in self.of(b) {
            all.extend_from_slice(&l.ns_per_op);
        }
        all
    }
}

/// `ns_per_op` from a build's samples: their upper quartile. On a shared
/// 2-vCPU KVM guest the same code runs at two speeds, in phases lasting
/// seconds to minutes that set in for every launch and both builds at once:
/// in the fast phase atomics and clock reads cost about 0.7 of their
/// slow-phase cost and a `local-ops` op runs about 1.45 times faster. A run
/// catches a random share of fast phases, and the median and lower
/// quantiles follow that share (their IQR/median over five seeds reached
/// 0.28 to 0.30 on `local-ops` and `gups`, also when taken per launch and
/// then the median over launches). The upper quartile of all samples stays
/// on the slow phase unless fast phases fill three quarters of the run.
fn ns_per_op(samples: &[f64]) -> f64 {
    quantile(samples, 0.75)
}

/// `ns_per_op_p90` of build `b`: the median over its launches of each
/// launch's 90th percentile. A disturbance that covers a tenth of a run's
/// samples moves their joint 90th percentile (one run's read 2.7 times the
/// others'); taken launch by launch, it moves only the launches it covers.
fn ns_per_op_p90(phase: &Phase, b: Build) -> f64 {
    let per_launch: Vec<f64> = phase
        .of(b)
        .iter()
        .filter(|l| !l.ns_per_op.is_empty())
        .map(|l| quantile(&l.ns_per_op, 0.9))
        .collect();
    median(&per_launch)
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// Run `cfg` and report every metric of its mode.
pub fn run(cfg: &RunConfig) -> Report {
    let inputs = Inputs::new(cfg.workload, cfg.seed);
    let mut values = BTreeMap::new();
    let mut lines = Vec::new();
    let mut spans = Vec::new();
    let (phases, [eager, defer]) = if cfg.trace {
        traced_run(cfg, &inputs, &mut values, &mut lines, &mut spans)
    } else {
        untraced_run(cfg, &inputs, &mut values, &mut lines)
    };
    let launches = || phases.iter().flat_map(Phase::all);
    let attempted: u64 = launches().map(|l| l.attempted).sum();
    let failed: u64 = launches().map(|l| l.failed).sum();
    let failed_ratio = ratio(failed as f64, attempted as f64);
    lines.push(format!(
        "failed_op_ratio {failed_ratio} ({failed} of {attempted} ops failed verification or \
         never completed)"
    ));
    lines.push(format!(
        "paper.defer_over_eager {:.3} ({})",
        ratio(defer, eager),
        paper_band(cfg.workload)
    ));
    if cfg.workload == Workload::Gups {
        lines.push(format!(
            "gups.mups {:.3}, defer.gups.mups {:.3}",
            ratio(1e3, eager),
            ratio(1e3, defer)
        ));
    }
    if cfg.trace {
        values.insert("failed_op_ratio".into(), failed_ratio);
    }
    let defs: Vec<(String, &'static str)> = if cfg.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let metrics = defs
        .into_iter()
        .map(|(n, u)| {
            let v = values
                .remove(&n)
                .unwrap_or_else(|| panic!("metric {n} was not measured"));
            (n, u, v)
        })
        .collect();
    assert!(values.is_empty(), "undeclared metrics: {values:?}");
    Report {
        attempted,
        failed,
        metrics,
        lines,
        spans,
    }
}

/// Write `spans` to `path` as JSON lines, creating its directory. All spans
/// of one op (one parent span and its children) share build, rank and `op`.
pub fn write_spans(path: &Path, spans: &[(Build, usize, Span)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    for (b, rank, s) in spans {
        writeln!(
            out,
            "{{\"build\": \"{}\", \"rank\": {rank}, \"op\": {}, \"layer\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            b.name(),
            s.op,
            s.layer.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// The paper's band for `paper.defer_over_eager` on `w`.
fn paper_band(w: Workload) -> &'static str {
    match w {
        Workload::LocalOps => "paper Figs 2-4: an eager on-node put is 92-95% faster than deferred",
        Workload::Gups => "paper Figs 5-7: eager notification gains atomics w/futures 1.5-7.1x",
        Workload::RemoteBatch | Workload::RemoteUdp => {
            "paper sec. IV-A: off-node ops complete through progress on both builds, so about 1"
        }
    }
}

fn untraced_run(
    cfg: &RunConfig,
    inputs: &Inputs,
    values: &mut BTreeMap<String, f64>,
    lines: &mut Vec<String>,
) -> (Vec<Phase>, [f64; 2]) {
    let phase = Phase::run(cfg, inputs, cfg.seconds, false, 0);
    let per_op = end_to_end(&phase, values, lines);
    (vec![phase], per_op)
}

/// Insert the end-to-end metrics of an untraced phase and its sample
/// counts; return `ns_per_op` and `defer_ns_per_op`.
fn end_to_end(
    phase: &Phase,
    values: &mut BTreeMap<String, f64>,
    lines: &mut Vec<String>,
) -> [f64; 2] {
    let mut per_op = [0.0; 2];
    for b in Build::ALL {
        let s = phase.samples(b);
        let key = match b {
            Build::Eager => "ns_per_op",
            Build::Defer => "defer_ns_per_op",
        };
        per_op[b as usize] = ns_per_op(&s);
        values.insert(key.to_string(), per_op[b as usize]);
        values.insert(format!("{key}_p90"), ns_per_op_p90(phase, b));
        let fewest = phase.of(b).iter().map(|l| l.ns_per_op.len()).min();
        lines.push(format!(
            "{}: {} samples over {} launches, at least {} per launch{}; all samples: median \
             {:.1} ns, p90 {:.1} ns",
            b.name(),
            s.len(),
            phase.of(b).len(),
            fewest.unwrap_or(0),
            if fewest < Some(100) {
                " (fewer than 100: a launch's p90 has under ten samples beyond it)"
            } else {
                ""
            },
            median(&s),
            quantile(&s, 0.9)
        ));
    }
    let setups: Vec<f64> = phase
        .all()
        .map(|l| l.setup_s)
        .filter(|s| s.is_finite())
        .collect();
    values.insert("setup_s".into(), median(&setups));
    values.insert("rss_peak_mib".into(), rss_peak_mib());
    per_op
}

fn traced_run(
    cfg: &RunConfig,
    inputs: &Inputs,
    values: &mut BTreeMap<String, f64>,
    lines: &mut Vec<String>,
    spans: &mut Vec<(Build, usize, Span)>,
) -> (Vec<Phase>, [f64; 2]) {
    let floors = Floors::measure();
    let raw = match inputs {
        Inputs::Gups(start) => gups_raw(start),
        _ => 0.0,
    };
    let half = RunConfig {
        launches: (cfg.launches / 2).max(1),
        ..cfg.clone()
    };
    let untraced = Phase::run(&half, inputs, cfg.seconds / 2.0, false, 0);
    // The untraced half's end-to-end metrics, taken before any traced
    // launch, for reading beside the layers (the reported end-to-end
    // metrics come from `--trace 0` runs).
    let mut plain = BTreeMap::new();
    end_to_end(&untraced, &mut plain, lines);
    for (name, unit) in END_TO_END {
        lines.push(format!("untraced half: {name} {:.4} {unit}", plain[name]));
    }
    let traced = Phase::run(
        &half,
        inputs,
        cfg.seconds / 2.0,
        true,
        2 * half.launches as u64,
    );
    let mut per_op = [0.0; 2];
    for b in Build::ALL {
        per_op[b as usize] = build_layers(cfg.workload, b, &untraced, &traced, values, lines);
        if let Some(first) = traced.of(b).first() {
            for (rank, r) in first.ranks.iter().enumerate() {
                if let Some((_, log)) = &r.spans {
                    spans.extend(log.iter().map(|s| (b, rank, *s)));
                }
            }
        }
    }
    let [eager, defer] = per_op;
    let gups = cfg.workload == Workload::Gups;
    for (name, v) in [
        ("gups.raw_ns_per_op", raw),
        (
            "gups.runtime_share",
            if gups { 1.0 - ratio(raw, eager) } else { 0.0 },
        ),
        ("paper.defer_over_eager", ratio(defer, eager)),
        ("ctx.empty_progress_floor_ns", floors.empty_progress),
        (
            "ctx.empty_progress_peer_floor_ns",
            floors.empty_progress_peer,
        ),
        ("future.promise_floor_ns", floors.promise),
        ("event.signal_floor_ns", floors.event_signal),
        ("mailbox.push_drain_floor_ns", floors.mailbox_push_drain),
        ("net.inject_poll_floor_ns", floors.net_inject_poll),
        ("conduit.udp.inject_poll_floor_ns", floors.udp_inject_poll),
        ("segment.write_floor_ns", floors.segment_write),
        ("bench.clock_ns", floors.clock),
    ] {
        values.insert(name.to_string(), v);
    }
    (vec![untraced, traced], per_op)
}

/// Counter deltas summed over a build's traced launches.
#[derive(Default)]
struct Counts {
    eager: u64,
    deferred: u64,
    cells: u64,
    nodes: u64,
    progress_ns: u64,
    wall_ns: f64,
    highwater: u64,
    /// `progress()` calls of every rank, each of which polls the conduit.
    polls: u64,
    injected: u64,
    delivered: u64,
    contended: u64,
    retries: u64,
    dup_suppressed: u64,
    /// Ranks that issue ops.
    issuing: usize,
}

/// Insert build `b`'s per-layer metrics and its layer-sum line; return
/// its untraced `ns_per_op`.
fn build_layers(
    w: Workload,
    b: Build,
    untraced: &Phase,
    traced: &Phase,
    values: &mut BTreeMap<String, f64>,
    lines: &mut Vec<String>,
) -> f64 {
    let samples = untraced.samples(b);
    let untraced_ns = ns_per_op(&samples);
    let traced_ns = ns_per_op(&traced.samples(b));
    let mut agg = LayerAgg::default();
    let mut k = Counts::default();
    for l in traced.of(b) {
        if let Some(r0) = l.ranks.first() {
            k.injected += r0.net.injected;
            k.delivered += r0.net.delivered;
            k.contended += r0.net.contended_polls;
            k.retries += r0.net.retries;
            k.dup_suppressed += r0.net.dup_suppressed;
        }
        for r in &l.ranks {
            k.polls += r.stats.progress_calls;
            if !r.issues() {
                continue;
            }
            if let Some((a, _)) = &r.spans {
                agg.merge(a);
            }
            k.eager += r.stats.eager_notifications;
            k.deferred += r.stats.deferred_enqueued;
            k.cells += r.stats.cell_allocs;
            k.nodes += r.stats.when_all_nodes;
            k.progress_ns += r.stats.progress_ns;
            k.wall_ns += r.wall_ns;
            k.highwater = k.highwater.max(r.stats.pending_highwater);
        }
        k.issuing = k.issuing.max(l.ranks.iter().filter(|r| r.issues()).count());
    }
    let ops = agg.ops as f64;
    // Every span's duration includes about one clock read, the closing one.
    let read_ns = agg.read_ns.median();
    // Self time of a child layer: its spans less the closing clock read.
    let self_ns = |t: &Thinned| t.sum() - t.count() as f64 * read_ns;
    let median_ns = |t: &Thinned| {
        if t.count() == 0 {
            0.0
        } else {
            t.median() - read_ns
        }
    };
    let quanta = (agg.quantum.count() + agg.empty_quantum.count()) as f64;
    let init = ratio(self_ns(&agg.rma) + self_ns(&agg.atomics), ops);
    let conjoin = ratio(self_ns(&agg.future), ops);
    let quantum = ratio(self_ns(&agg.quantum) + self_ns(&agg.empty_quantum), quanta);
    let quanta_per_op = ratio(quanta, ops);
    // Waiting: from the last initiating call's return to readiness, less
    // the conjoin and quanta spans inside it.
    let waiting = ratio(agg.wait_self_ns - agg.wait_reads as f64 * read_ns, ops);
    let measured = init + conjoin + quanta_per_op * quantum + waiting;
    // The parent span also holds what no layer span covers: the loop's own
    // work before the last initiation (operand and address generation).
    let parent = ratio(agg.parent.sum() - agg.inner_reads as f64 * read_ns, ops);
    let sum = ratio(measured, k.issuing as f64);
    // Means add up where quantiles do not: the layer sum is set against
    // the untraced mean.
    let plain_mean = mean(&samples);
    let unexplained = 1.0 - ratio(sum, plain_mean);
    lines.push(format!(
        "layer sum, {}: init {init:.1} + conjoin {conjoin:.1} + quanta {quanta_per_op:.3} x \
         {quantum:.1} + waiting {waiting:.1} = {measured:.1} ns per rank-op (traced parent \
         span {parent:.1}, {:.1} outside every layer span); over {} issuing rank(s) {sum:.1} \
         vs untraced mean {plain_mean:.1} ns/op: unexplained {:.1}%",
        b.name(),
        parent - measured,
        k.issuing,
        unexplained * 100.0
    ));
    let gups_mups = if w == Workload::Gups {
        ratio(1e3, untraced_ns)
    } else {
        0.0
    };
    for (name, v) in [
        ("rma.init_ns", median_ns(&agg.rma)),
        ("atomics.init_ns", median_ns(&agg.atomics)),
        ("completion.eager_share", ratio(k.eager as f64, ops)),
        ("completion.deferred_per_op", ratio(k.deferred as f64, ops)),
        ("future.cells_per_op", ratio(k.cells as f64, ops)),
        ("future.conjoin_ns", median_ns(&agg.future)),
        ("future.when_all_nodes_per_op", ratio(k.nodes as f64, ops)),
        ("ctx.quantum_ns", median_ns(&agg.quantum)),
        ("ctx.empty_quantum_ns", median_ns(&agg.empty_quantum)),
        ("ctx.quanta_per_op", quanta_per_op),
        (
            "ctx.useful_quantum_share",
            ratio(agg.quantum.count() as f64, quanta),
        ),
        ("ctx.pending_highwater", k.highwater as f64),
        ("ctx.wait_ns", median_ns(&agg.wait)),
        ("ctx.progress_share", ratio(k.progress_ns as f64, k.wall_ns)),
        (
            "net.contended_poll_share",
            ratio(k.contended as f64, k.polls as f64),
        ),
        ("net.injected_per_op", ratio(k.injected as f64, ops)),
        (
            "net.delivered_per_quantum",
            ratio(k.delivered as f64, k.polls as f64),
        ),
        ("conduit.udp.retries_per_op", ratio(k.retries as f64, ops)),
        (
            "conduit.udp.dup_suppressed_per_op",
            ratio(k.dup_suppressed as f64, ops),
        ),
        ("sum.ns_per_op", sum),
        ("sum.unexplained_share", unexplained),
        ("trace.overhead_ratio", ratio(traced_ns, untraced_ns)),
        ("gups.mups", gups_mups),
        ("samples", samples.len() as f64),
    ] {
        values.insert(format!("{}{name}", b.prefix()), v);
    }
    untraced_ns
}
