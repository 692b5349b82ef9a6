//! Benchmark regression gate.
//!
//! ```text
//! regress --baseline ci/baseline --current out/
//! ```
//!
//! Every `BENCH_*.json` in the baseline directory must exist in the
//! current directory and pass [`bench::regress::compare`] under the
//! baseline's tolerance bands; any regression, missing file, or missing
//! metric exits nonzero. Files only the current directory has are
//! reported but not gated.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::regress::{compare, parse_bench};

struct Args {
    baseline: PathBuf,
    current: PathBuf,
}

fn usage() -> ! {
    eprintln!("usage: regress --baseline DIR --current DIR");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut baseline = None;
    let mut current = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--baseline" => baseline = Some(PathBuf::from(val())),
            "--current" => current = Some(PathBuf::from(val())),
            _ => usage(),
        }
    }
    match (baseline, current) {
        (Some(baseline), Some(current)) => Args { baseline, current },
        _ => usage(),
    }
}

/// `BENCH_*.json` file names in `dir`, sorted for stable output.
fn bench_files(dir: &Path) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

fn load(path: &Path) -> Result<bench::regress::BenchDoc, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    parse_bench(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = parse_args();
    let base_files = match bench_files(&args.baseline) {
        Ok(f) if !f.is_empty() => f,
        Ok(_) => {
            eprintln!(
                "error: no BENCH_*.json files in baseline dir {}",
                args.baseline.display()
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut failed = false;
    for name in &base_files {
        let base = match load(&args.baseline.join(name)) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
                continue;
            }
        };
        let cur_path = args.current.join(name);
        if !cur_path.exists() {
            eprintln!("FAIL {name}: missing from current run dir");
            failed = true;
            continue;
        }
        let cur = match load(&cur_path) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
                continue;
            }
        };
        let report = compare(&base, &cur);
        if report.passed() {
            println!(
                "PASS {name}: {} metrics within the baseline bands",
                report.checked
            );
        } else {
            failed = true;
            eprintln!("FAIL {name} ({} metrics checked):", report.checked);
            for f in &report.failures {
                eprintln!("  {f}");
            }
        }
    }

    if let Ok(cur_files) = bench_files(&args.current) {
        for name in cur_files {
            if !base_files.contains(&name) {
                println!("note {name}: no committed baseline, not gated");
            }
        }
    }

    if failed {
        eprintln!("bench regression gate: FAIL");
        ExitCode::FAILURE
    } else {
        println!("bench regression gate: pass ({} suites)", base_files.len());
        ExitCode::SUCCESS
    }
}
