//! The `figures` binary rejects section names it does not know, instead
//! of printing its banner, running nothing, and exiting 0.

use std::process::Command;

fn figures(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs")
}

#[test]
fn misspelt_section_prints_usage_and_exits_2() {
    let out = figures(&["mirco"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown section `mirco`"), "{stderr}");
    assert!(stderr.contains("Usage: figures"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "nothing may run before the rejection"
    );
}

#[test]
fn json_mode_rejects_text_only_sections() {
    let out = figures(&["--json", "--out-dir", "unused", "offnode"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown section `offnode`"));
}
