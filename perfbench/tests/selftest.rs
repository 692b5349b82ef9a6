//! Self-tests of the benchmark: seeded inputs, metric names and units,
//! short smoke runs of every workload, failure accounting, and the reason
//! recorded for each workload.

use std::collections::{HashMap, HashSet};
use std::path::Path;

use perfbench::inputs::Inputs;
use perfbench::report::{per_layer, write_spans, END_TO_END};
use perfbench::{run, Report, RunConfig, Workload};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn valid_name(n: &str) -> bool {
    n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// A short run: one launch per build and phase, long enough for a few
/// samples in an unoptimized build too.
fn smoke(w: Workload, trace: bool) -> Report {
    let mut cfg = RunConfig::new(w, 1, 1.0, trace);
    cfg.launches = 1;
    run(&cfg)
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for w in Workload::ALL {
        assert_eq!(Inputs::new(w, 7), Inputs::new(w, 7), "{}", w.name());
        assert_ne!(Inputs::new(w, 7), Inputs::new(w, 8), "{}", w.name());
    }
}

#[test]
fn metric_names_are_well_formed_carry_units_and_are_declared() {
    let json = benchmark_json();
    let mut seen = HashSet::new();
    let all = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .chain(per_layer());
    for (name, unit) in all {
        assert!(valid_name(&name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "{name}: bad unit {unit:?}");
        let declared = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(
            json.contains(&declared),
            "{name} ({unit}) not in BENCHMARK.json"
        );
        assert!(seen.insert(name.clone()), "{name} declared twice");
    }
}

#[test]
fn each_workload_records_why_it_was_chosen() {
    let json = benchmark_json();
    for w in Workload::ALL {
        let why = w.why();
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        let declared = format!("{{\"name\": \"{}\", \"why\": \"{why}\"}}", w.name());
        assert!(
            json.contains(&declared),
            "{} not in BENCHMARK.json",
            w.name()
        );
    }
}

#[test]
fn smoke_runs_emit_every_end_to_end_metric_without_failures() {
    for w in Workload::ALL {
        let r = smoke(w, false);
        assert!(r.attempted > 0, "{}", w.name());
        assert_eq!(r.failed, 0, "{}: failed_op_ratio must be 0", w.name());
        let names: Vec<&str> = r.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n), "{}", w.name());
        for (name, _, v) in &r.metrics {
            assert!(v.is_finite() && *v > 0.0, "{}: {name} = {v}", w.name());
        }
    }
}

#[test]
fn traced_smoke_run_emits_every_per_layer_metric() {
    let r = smoke(Workload::LocalOps, true);
    let names: Vec<String> = r.metrics.iter().map(|(n, _, _)| n.clone()).collect();
    let declared: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, declared);
    assert_eq!(r.get("failed_op_ratio"), Some(0.0));
    assert_eq!(r.get("completion.eager_share"), Some(1.0));
    assert_eq!(r.get("defer.completion.deferred_per_op"), Some(1.0));
    assert!(!r.spans.is_empty());

    // The span log round-trips, and every child span lies inside the
    // parent span that shares its build, rank and op id.
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest_spans.jsonl");
    write_spans(&path, &r.spans).expect("span log written");
    let text = std::fs::read_to_string(&path).expect("span log read back");
    let mut parents = HashMap::new();
    let mut children = Vec::new();
    for line in text.lines() {
        let field = |key: &str| {
            let rest = &line[line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4..];
            rest[..rest.find([',', '}']).unwrap()]
                .trim_matches('"')
                .to_string()
        };
        let id = (field("build"), field("rank"), field("op"));
        let range: (u64, u64) = (
            field("start_ns").parse().unwrap(),
            field("end_ns").parse().unwrap(),
        );
        assert!(range.0 <= range.1, "{line}");
        if field("layer") == "op" {
            assert!(parents.insert(id, range).is_none(), "two parents: {line}");
        } else {
            children.push((id, range, line.to_string()));
        }
    }
    assert_eq!(parents.len() + children.len(), r.spans.len());
    assert!(!children.is_empty());
    for (id, (start, end), line) in children {
        let Some(&(p_start, p_end)) = parents.get(&id) else {
            // The log's capacity can end between a parent's children and
            // the parent itself.
            continue;
        };
        assert!(
            p_start <= start && end <= p_end,
            "{line} outside its parent"
        );
    }
}

#[test]
fn corrupted_expectation_turns_failed_op_ratio_nonzero() {
    let mut cfg = RunConfig::new(Workload::LocalOps, 1, 0.2, true);
    cfg.launches = 1;
    cfg.corrupt_expected = true;
    let r = run(&cfg);
    assert_eq!(r.failed, 1);
    assert!(!r.correct());
    assert!(r.get("failed_op_ratio").expect("declared") > 0.0);
}
