//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! run one workload and print a human-readable report followed, on the
//! last line, by one JSON object with the run's metrics. A traced run also
//! writes its span log to `perfbench/target/spans.jsonl`.

use std::path::Path;
use std::process::ExitCode;

use perfbench::report::write_spans;
use perfbench::{run, RunConfig, Workload};

const USAGE: &str = "usage: perfbench --workload <local-ops|gups|remote-batch|remote-udp> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where a traced run writes its span log.
const SPANS_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/target/spans.jsonl");

fn parse() -> Result<RunConfig, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], not {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let missing = |flag: &str| format!("missing {flag}");
    Ok(RunConfig::new(
        workload.ok_or_else(|| missing("--workload"))?,
        seed.ok_or_else(|| missing("--seed"))?,
        seconds.ok_or_else(|| missing("--seconds"))?,
        trace.ok_or_else(|| missing("--trace"))?,
    ))
}

fn main() -> ExitCode {
    let cfg = &match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed {} seconds {} trace {} (available parallelism {})",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let report = run(cfg);
    for line in &report.lines {
        println!("{line}");
    }
    for (name, unit, value) in &report.metrics {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    if cfg.trace {
        match write_spans(Path::new(SPANS_OUT), &report.spans) {
            Ok(()) => println!("{} spans written to {SPANS_OUT}", report.spans.len()),
            Err(e) => {
                eprintln!("perfbench: writing {SPANS_OUT}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
