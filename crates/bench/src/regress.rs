//! Benchmark regression checking against committed baselines.
//!
//! A benchmark result file (`BENCH_*.json`, schema [`BENCH_SCHEMA`])
//! carries a flat list of named metrics, each with a value and a
//! per-metric tolerance band. [`compare`] checks a current run against a
//! baseline: the *baseline's* bands are authoritative (the baseline is
//! what CI committed and reviewed; a current run cannot loosen its own
//! gate), a metric present in the baseline but missing from the current
//! run is a failure (silently dropping a measurement must not pass), and
//! identification fields (`suite`/`mode`/`seed`/`ranks`/`samples`) must
//! match exactly so apples are compared to apples.
//!
//! Every document is produced by deterministic drives (the virtual-clock
//! probe, the chaos differential harness, and schedule-independent
//! outcomes of real runs), so every band is zero: any byte of drift is a
//! regression.

use upcr::trace::{parse_json, Json};

/// Schema tag stamped into every benchmark result document.
pub const BENCH_SCHEMA: &str = "bench.v1";

/// One named measurement with its tolerance band.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchMetric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Relative tolerance (fraction of the baseline value's magnitude).
    pub tol_rel: f64,
    /// Absolute tolerance (same unit as `value`).
    pub tol_abs: f64,
}

impl BenchMetric {
    /// The acceptance band when this metric is the baseline: the wider of
    /// the relative and absolute tolerances.
    pub fn band(&self) -> f64 {
        self.tol_abs.max(self.tol_rel * self.value.abs())
    }
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

/// Parse a `bench.v1` document, rejecting unknown schemas.
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
            tol_rel: num(m, "tol_rel").map_err(|e| format!("metric {i}: {e}"))?,
            tol_abs: num(m, "tol_abs").map_err(|e| format!("metric {i}: {e}"))?,
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

/// Compare a current run against a baseline using the baseline's
/// tolerance bands. Metrics only the current run has are ignored (new
/// measurements start gating once they land in the baseline) — with two
/// exceptions that gate regardless of the baseline, because no committed
/// band may excuse them: any current metric named `*.agg_speedup` carries
/// a hard `>= 1.0` floor (a message-count "speedup" below one means
/// aggregation made the wire traffic *worse*), and any current metric
/// named `*.idle_fraction` carries a hard `[0, 1]` range (it is a
/// fraction of accounted wait time; a value outside the unit interval
/// means the idle-time accounting itself is broken). Two more hard rules
/// guard the causal-tracing suite the same way: any `*.causal_violations`
/// must be exactly zero (the gated suites run the virtual clock, where
/// Lamport order and wall order cannot disagree — a violation is a tracer
/// bug, not a measurement), and any `*.causal_len_advantage` must be
/// strictly positive (the paper's claim in happens-before hops: eager
/// notification shortens the mean causal chain; zero or negative means
/// the optimization stopped optimizing). A fifth hard rule guards the
/// continuation suite: any current `*.callback_loss` must be exactly zero
/// — it is `ops_with_callbacks - callbacks_run`, so a nonzero value in
/// either direction means a completion callback was lost or ran more than
/// once, and no committed band may excuse that.
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
                let band = bm.band();
                let delta = (cm.value - bm.value).abs();
                if delta > band {
                    failures.push(format!(
                        "{}: baseline {} {u}, current {} {u} (|delta| {} > band {})",
                        bm.name,
                        bm.value,
                        cm.value,
                        delta,
                        band,
                        u = bm.unit,
                    ));
                }
            }
        }
    }
    for cm in &current.metrics {
        if !cm.name.ends_with(".agg_speedup") {
            continue;
        }
        if baseline.metrics.iter().all(|m| m.name != cm.name) {
            checked += 1;
        }
        if cm.value < 1.0 {
            failures.push(format!(
                "{}: aggregation speedup {} below the hard 1.0 floor \
                 (batching must not inflate wire traffic)",
                cm.name, cm.value,
            ));
        }
    }
    for cm in &current.metrics {
        if !cm.name.ends_with(".idle_fraction") {
            continue;
        }
        if baseline.metrics.iter().all(|m| m.name != cm.name) {
            checked += 1;
        }
        if !(0.0..=1.0).contains(&cm.value) {
            failures.push(format!(
                "{}: idle fraction {} outside the hard [0, 1] range \
                 (parked time cannot exceed total accounted wait time)",
                cm.name, cm.value,
            ));
        }
    }
    for cm in &current.metrics {
        if !cm.name.ends_with(".causal_violations") {
            continue;
        }
        if baseline.metrics.iter().all(|m| m.name != cm.name) {
            checked += 1;
        }
        if cm.value != 0.0 {
            failures.push(format!(
                "{}: {} causality violations on a virtual-clock run \
                 (Lamport order must agree with the virtual clock)",
                cm.name, cm.value,
            ));
        }
    }
    for cm in &current.metrics {
        if !cm.name.ends_with(".causal_len_advantage") {
            continue;
        }
        if baseline.metrics.iter().all(|m| m.name != cm.name) {
            checked += 1;
        }
        if cm.value <= 0.0 {
            failures.push(format!(
                "{}: eager causal-chain advantage {} not strictly positive \
                 (eager notification must shorten the mean happens-before chain)",
                cm.name, cm.value,
            ));
        }
    }
    for cm in &current.metrics {
        if !cm.name.ends_with(".callback_loss") {
            continue;
        }
        if baseline.metrics.iter().all(|m| m.name != cm.name) {
            checked += 1;
        }
        if cm.value != 0.0 {
            failures.push(format!(
                "{}: callback loss {} is not exactly zero \
                 (every callback-carrying op must run its continuation exactly once)",
                cm.name, cm.value,
            ));
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

    fn metric(name: &str, value: f64, tol_rel: f64, tol_abs: f64) -> BenchMetric {
        BenchMetric {
            name: name.into(),
            unit: "ns".into(),
            value,
            tol_rel,
            tol_abs,
        }
    }

    #[test]
    fn within_band_passes() {
        let base = doc(vec![
            metric("a.p50_ns", 100.0, 0.05, 0.0),
            metric("b.count", 7.0, 0.0, 0.0),
        ]);
        let cur = doc(vec![
            metric("a.p50_ns", 104.0, 0.0, 0.0),
            metric("b.count", 7.0, 0.0, 0.0),
        ]);
        let r = compare(&base, &cur);
        assert!(r.passed(), "unexpected failures: {:?}", r.failures);
        assert_eq!(r.checked, 2);
    }

    #[test]
    fn outside_band_fails_with_baseline_band() {
        // The current run's own (loose) tolerance must not widen the gate.
        let base = doc(vec![metric("a.p50_ns", 100.0, 0.05, 0.0)]);
        let cur = doc(vec![metric("a.p50_ns", 110.0, 0.5, 1000.0)]);
        let r = compare(&base, &cur);
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].contains("a.p50_ns"), "{:?}", r.failures);
    }

    #[test]
    fn missing_metric_fails_and_extra_metric_is_ignored() {
        let base = doc(vec![metric("gone", 1.0, 0.0, 0.0)]);
        let cur = doc(vec![metric("new", 1.0, 0.0, 0.0)]);
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
        let cur = doc(vec![metric("gups-small.agg_speedup", 0.9, 0.0, 0.0)]);
        let r = compare(&base, &cur);
        assert_eq!(r.checked, 1);
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].contains("hard 1.0 floor"), "{:?}", r.failures);
        let ok = doc(vec![metric("gups-small.agg_speedup", 1.8, 0.0, 0.0)]);
        assert!(compare(&base, &ok).passed());
    }

    #[test]
    fn agg_speedup_floor_stacks_with_baseline_band() {
        // In the baseline with a zero band: drifting fails the band, and a
        // sub-1.0 value fails the floor even if the band would allow it.
        let base = doc(vec![metric("gups-small.agg_speedup", 0.9, 0.5, 0.0)]);
        let cur = doc(vec![metric("gups-small.agg_speedup", 0.9, 0.0, 0.0)]);
        let r = compare(&base, &cur);
        assert_eq!(r.checked, 1, "in-baseline metric is not double counted");
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].contains("hard 1.0 floor"));
    }

    #[test]
    fn idle_fraction_range_gates_even_without_baseline_entry() {
        let base = doc(vec![]);
        for bad in [-0.1, 1.5] {
            let cur = doc(vec![metric("park.idle_fraction", bad, 0.0, 0.0)]);
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
            let ok = doc(vec![metric("park.idle_fraction", ok_val, 0.0, 0.0)]);
            assert!(compare(&base, &ok).passed());
        }
    }

    #[test]
    fn causal_violations_zero_pin_gates_even_without_baseline_entry() {
        let base = doc(vec![]);
        let cur = doc(vec![metric(
            "v2021_3_6_eager.causal_violations",
            2.0,
            0.0,
            0.0,
        )]);
        let r = compare(&base, &cur);
        assert_eq!(r.checked, 1);
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(
            r.failures[0].contains("causality violations"),
            "{:?}",
            r.failures
        );
        let ok = doc(vec![metric(
            "v2021_3_6_eager.causal_violations",
            0.0,
            0.0,
            0.0,
        )]);
        assert!(compare(&base, &ok).passed());
    }

    #[test]
    fn causal_len_advantage_floor_gates_even_without_baseline_entry() {
        let base = doc(vec![]);
        for bad in [0.0, -250.0] {
            let cur = doc(vec![metric("probe.causal_len_advantage", bad, 0.0, 0.0)]);
            let r = compare(&base, &cur);
            assert_eq!(r.checked, 1);
            assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
            assert!(
                r.failures[0].contains("not strictly positive"),
                "{:?}",
                r.failures
            );
        }
        let ok = doc(vec![metric("probe.causal_len_advantage", 333.0, 0.0, 0.0)]);
        assert!(compare(&base, &ok).passed());
    }

    #[test]
    fn callback_loss_zero_pin_gates_even_without_baseline_entry() {
        let base = doc(vec![]);
        // Loss in either direction fails: a lost callback (positive) and a
        // double-run callback (negative) are both exactly-once violations.
        for bad in [1.0, -2.0] {
            let cur = doc(vec![metric("continuations.callback_loss", bad, 0.0, 0.0)]);
            let r = compare(&base, &cur);
            assert_eq!(r.checked, 1);
            assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
            assert!(r.failures[0].contains("exactly once"), "{:?}", r.failures);
        }
        let ok = doc(vec![metric("continuations.callback_loss", 0.0, 0.0, 0.0)]);
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
        let json = r#"{"schema":"bench.v1","suite":"micro","mode":"quick",
            "seed":1,"ranks":2,"samples":24,"metrics":[
            {"name":"a","unit":"ns","value":3,"tol_rel":0,"tol_abs":0}]}"#;
        let d = parse_bench(json).expect("well-formed doc must parse");
        assert_eq!(d.metrics.len(), 1);
        assert_eq!(d.metrics[0].name, "a");
        assert!(parse_bench(&json.replace("bench.v1", "bench.v9"))
            .unwrap_err()
            .contains("unsupported schema"));
        assert!(parse_bench("{}").is_err());
    }
}
