//! Benchmark regression checking against committed baselines.
//!
//! A benchmark result file (`BENCH_*.json`, schema [`BENCH_SCHEMA`])
//! carries a flat list of named metrics, each with a unit and a value.
//! Every document is produced by deterministic drives (the virtual-clock
//! probe, the chaos differential harness, and schedule-independent
//! outcomes of real runs), so [`compare`] holds a current run to its
//! baseline exactly: a row whose value differs is a regression, a metric
//! present in the baseline but missing from the current run is a failure
//! (silently dropping a measurement must not pass), and identification
//! fields (`suite`/`mode`/`seed`/`ranks`/`samples`) must match exactly so
//! apples are compared to apples.

use upcr::trace::{parse_json, Json};

/// Schema tag stamped into every benchmark result document.
pub const BENCH_SCHEMA: &str = "bench.v2";

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchMetric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// A parsed benchmark result document.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchDoc {
    pub suite: String,
    /// `quick` or `full` — the iteration-count regime the values were
    /// measured under.
    pub mode: String,
    pub seed: u64,
    pub ranks: u64,
    /// Per-suite sample count (probe iterations / workloads swept).
    pub samples: u64,
    pub metrics: Vec<BenchMetric>,
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(|x| x.as_num())
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(|x| x.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// Parse a `bench.v2` document, rejecting unknown schemas.
pub fn parse_bench(json: &str) -> Result<BenchDoc, String> {
    let doc = parse_json(json).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema = text(&doc, "schema")?;
    if schema != BENCH_SCHEMA {
        return Err(format!(
            "unsupported schema {schema:?} (expected {BENCH_SCHEMA:?})"
        ));
    }
    let mut metrics = Vec::new();
    for (i, m) in doc
        .get("metrics")
        .and_then(|v| v.as_arr())
        .ok_or("missing \"metrics\" array")?
        .iter()
        .enumerate()
    {
        metrics.push(BenchMetric {
            name: text(m, "name").map_err(|e| format!("metric {i}: {e}"))?,
            unit: text(m, "unit").map_err(|e| format!("metric {i}: {e}"))?,
            value: num(m, "value").map_err(|e| format!("metric {i}: {e}"))?,
        });
    }
    Ok(BenchDoc {
        suite: text(&doc, "suite")?,
        mode: text(&doc, "mode")?,
        seed: num(&doc, "seed")? as u64,
        ranks: num(&doc, "ranks")? as u64,
        samples: num(&doc, "samples")? as u64,
        metrics,
    })
}

/// The verdict of one baseline/current comparison.
#[derive(Clone, Debug)]
pub struct Report {
    pub suite: String,
    /// Metrics compared (present in both documents).
    pub checked: usize,
    /// Human-readable failure lines; empty means the gate passed.
    pub failures: Vec<String>,
}

impl Report {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// A hard rule: `(name suffix, violated, message)`, where the message's
/// `{}` takes the value.
type HardRule = (&'static str, fn(f64) -> bool, &'static str);

/// The hard rules [`compare`] applies to every current metric whatever
/// the baseline says.
const HARD_RULES: [HardRule; 5] = [
    (
        ".agg_speedup",
        |v| v < 1.0,
        "aggregation speedup {} below the hard 1.0 floor \
         (batching must not inflate wire traffic)",
    ),
    (
        ".idle_fraction",
        |v| !(0.0..=1.0).contains(&v),
        "idle fraction {} outside the hard [0, 1] range \
         (parked time cannot exceed total accounted wait time)",
    ),
    (
        ".causal_violations",
        |v| v != 0.0,
        "{} causality violations on a virtual-clock run \
         (Lamport order must agree with the virtual clock)",
    ),
    (
        ".causal_len_advantage",
        |v| v <= 0.0,
        "eager causal-chain advantage {} not strictly positive \
         (eager notification must shorten the mean happens-before chain)",
    ),
    (
        ".callback_loss",
        |v| v != 0.0,
        "callback loss {} is not exactly zero \
         (every callback-carrying op must run its continuation exactly once)",
    ),
];

/// Compare a current run against a baseline: every baseline row must be
/// present and equal in the current run. Metrics only the current run has
/// are ignored (new measurements start gating once they land in the
/// baseline), except under five hard rules that gate a current metric
/// whether or not the baseline has it, so a regression cannot hide behind
/// a stale baseline, and that no committed row may excuse:
///
/// * `*.agg_speedup >= 1.0`: a message-count "speedup" below one means
///   aggregation made the wire traffic *worse*;
/// * `*.idle_fraction` in `[0, 1]`: it is a fraction of accounted wait
///   time, so a value outside the unit interval means the idle-time
///   accounting itself is broken;
/// * `*.causal_violations == 0`: the gated suites run the virtual clock,
///   where Lamport order and wall order cannot disagree, so a violation is
///   a tracer bug, not a measurement;
/// * `*.causal_len_advantage > 0`: the paper's claim in happens-before
///   hops, that eager notification shortens the mean causal chain;
/// * `*.callback_loss == 0`: it is `ops_with_callbacks - callbacks_run`,
///   so a nonzero value in either direction means a completion callback
///   was lost or ran more than once.
pub fn compare(baseline: &BenchDoc, current: &BenchDoc) -> Report {
    let mut failures = Vec::new();
    for (field, b, c) in [
        ("suite", &baseline.suite, &current.suite),
        ("mode", &baseline.mode, &current.mode),
    ] {
        if b != c {
            failures.push(format!("{field} mismatch: baseline {b:?}, current {c:?}"));
        }
    }
    for (field, b, c) in [
        ("seed", baseline.seed, current.seed),
        ("ranks", baseline.ranks, current.ranks),
        ("samples", baseline.samples, current.samples),
    ] {
        if b != c {
            failures.push(format!("{field} mismatch: baseline {b}, current {c}"));
        }
    }
    let mut checked = 0;
    for bm in &baseline.metrics {
        match current.metrics.iter().find(|m| m.name == bm.name) {
            None => failures.push(format!("{}: missing from current run", bm.name)),
            Some(cm) => {
                checked += 1;
                if cm.value != bm.value {
                    failures.push(format!(
                        "{}: baseline {} {u}, current {} {u}",
                        bm.name,
                        bm.value,
                        cm.value,
                        u = bm.unit,
                    ));
                }
            }
        }
    }
    for (suffix, violated, message) in HARD_RULES {
        for cm in current.metrics.iter().filter(|m| m.name.ends_with(suffix)) {
            if baseline.metrics.iter().all(|m| m.name != cm.name) {
                checked += 1;
            }
            if violated(cm.value) {
                let message = message.replacen("{}", &cm.value.to_string(), 1);
                failures.push(format!("{}: {message}", cm.name));
            }
        }
    }
    Report {
        suite: baseline.suite.clone(),
        checked,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(metrics: Vec<BenchMetric>) -> BenchDoc {
        BenchDoc {
            suite: "micro".into(),
            mode: "quick".into(),
            seed: 1,
            ranks: 2,
            samples: 24,
            metrics,
        }
    }

    fn metric(name: &str, value: f64) -> BenchMetric {
        BenchMetric {
            name: name.into(),
            unit: "ns".into(),
            value,
        }
    }

    #[test]
    fn equal_rows_pass_and_any_drift_fails() {
        let base = doc(vec![metric("a.p50_ns", 100.0), metric("b.count", 7.0)]);
        let r = compare(&base, &base.clone());
        assert!(r.passed(), "unexpected failures: {:?}", r.failures);
        assert_eq!(r.checked, 2);
        let cur = doc(vec![metric("a.p50_ns", 100.5), metric("b.count", 7.0)]);
        let r = compare(&base, &cur);
        assert_eq!(r.checked, 2);
        assert_eq!(
            r.failures,
            ["a.p50_ns: baseline 100 ns, current 100.5 ns"],
            "a drift fails with the baseline and current values"
        );
    }

    #[test]
    fn missing_metric_fails_and_extra_metric_is_ignored() {
        let base = doc(vec![metric("gone", 1.0)]);
        let cur = doc(vec![metric("new", 1.0)]);
        let r = compare(&base, &cur);
        assert_eq!(r.checked, 0);
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].contains("missing from current run"));
    }

    #[test]
    fn agg_speedup_floor_gates_even_without_baseline_entry() {
        // The hard floor applies to current metrics the baseline has never
        // seen — a regression cannot hide behind a stale baseline.
        let base = doc(vec![]);
        let cur = doc(vec![metric("gups-small.agg_speedup", 0.9)]);
        let r = compare(&base, &cur);
        assert_eq!(r.checked, 1);
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].contains("hard 1.0 floor"), "{:?}", r.failures);
        let ok = doc(vec![metric("gups-small.agg_speedup", 1.8)]);
        assert!(compare(&base, &ok).passed());
    }

    #[test]
    fn agg_speedup_floor_gates_a_metric_equal_to_its_baseline() {
        // A sub-1.0 value fails the floor even when the committed baseline
        // row carries the same value.
        let base = doc(vec![metric("gups-small.agg_speedup", 0.9)]);
        let cur = doc(vec![metric("gups-small.agg_speedup", 0.9)]);
        let r = compare(&base, &cur);
        assert_eq!(r.checked, 1, "in-baseline metric is not double counted");
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].contains("hard 1.0 floor"));
    }

    #[test]
    fn idle_fraction_range_gates_even_without_baseline_entry() {
        let base = doc(vec![]);
        for bad in [-0.1, 1.5] {
            let cur = doc(vec![metric("park.idle_fraction", bad)]);
            let r = compare(&base, &cur);
            assert_eq!(r.checked, 1);
            assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
            assert!(
                r.failures[0].contains("hard [0, 1] range"),
                "{:?}",
                r.failures
            );
        }
        for ok_val in [0.0, 0.5, 1.0] {
            let ok = doc(vec![metric("park.idle_fraction", ok_val)]);
            assert!(compare(&base, &ok).passed());
        }
    }

    #[test]
    fn causal_violations_zero_pin_gates_even_without_baseline_entry() {
        let base = doc(vec![]);
        let cur = doc(vec![metric("v2021_3_6_eager.causal_violations", 2.0)]);
        let r = compare(&base, &cur);
        assert_eq!(r.checked, 1);
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(
            r.failures[0].contains("causality violations"),
            "{:?}",
            r.failures
        );
        let ok = doc(vec![metric("v2021_3_6_eager.causal_violations", 0.0)]);
        assert!(compare(&base, &ok).passed());
    }

    #[test]
    fn causal_len_advantage_floor_gates_even_without_baseline_entry() {
        let base = doc(vec![]);
        for bad in [0.0, -250.0] {
            let cur = doc(vec![metric("probe.causal_len_advantage", bad)]);
            let r = compare(&base, &cur);
            assert_eq!(r.checked, 1);
            assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
            assert!(
                r.failures[0].contains("not strictly positive"),
                "{:?}",
                r.failures
            );
        }
        let ok = doc(vec![metric("probe.causal_len_advantage", 333.0)]);
        assert!(compare(&base, &ok).passed());
    }

    #[test]
    fn callback_loss_zero_pin_gates_even_without_baseline_entry() {
        let base = doc(vec![]);
        // Loss in either direction fails: a lost callback (positive) and a
        // double-run callback (negative) are both exactly-once violations.
        for bad in [1.0, -2.0] {
            let cur = doc(vec![metric("continuations.callback_loss", bad)]);
            let r = compare(&base, &cur);
            assert_eq!(r.checked, 1);
            assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
            assert!(r.failures[0].contains("exactly once"), "{:?}", r.failures);
        }
        let ok = doc(vec![metric("continuations.callback_loss", 0.0)]);
        assert!(compare(&base, &ok).passed());
    }

    #[test]
    fn identification_mismatch_fails() {
        let base = doc(vec![]);
        let mut cur = doc(vec![]);
        cur.mode = "full".into();
        cur.seed = 2;
        let r = compare(&base, &cur);
        assert_eq!(r.failures.len(), 2, "{:?}", r.failures);
    }

    #[test]
    fn parse_round_trip_and_schema_gate() {
        let json = r#"{"schema":"bench.v2","suite":"micro","mode":"quick",
            "seed":1,"ranks":2,"samples":24,"metrics":[
            {"name":"a","unit":"ns","value":3}]}"#;
        let d = parse_bench(json).expect("well-formed doc must parse");
        assert_eq!(d.metrics.len(), 1);
        assert_eq!(d.metrics[0].name, "a");
        assert!(parse_bench(&json.replace("bench.v2", "bench.v1"))
            .unwrap_err()
            .contains("unsupported schema"));
        assert!(parse_bench("{}").is_err());
    }
}
