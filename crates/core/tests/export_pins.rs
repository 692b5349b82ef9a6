//! Export byte pins. The determinism suites compare two runs of the same
//! build, so they cannot see an export that changed the same way in both.
//! These pins fold-hash the four exports of one fixed chaos probe run —
//! the Chrome trace with flow arrows, the causal text render, the metrics
//! JSON, and the Prometheus text — and compare them against constants
//! captured from an earlier revision, so a refactor that changes a single
//! exported byte fails here.
//!
//! A deliberate format change updates the constants: run this test, and
//! copy the `got` values from the failure message.

use upcr::metrics::probe::{run, ProbeConfig};
use upcr::metrics::{metrics_json, prometheus_text, MetricsConfig};
use upcr::trace::{assemble, chrome_trace_json_with_flows};

/// FNV-1a over the bytes, then folded with the length.
fn fold_hash(text: &str) -> u64 {
    let h = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    h ^ (text.len() as u64).rotate_left(32)
}

#[test]
fn chaos_probe_exports_match_pinned_hashes() {
    let r = run(&ProbeConfig {
        iters: 48,
        seed: 7,
        chaos: true,
        trace: true,
        metrics: true,
        metrics_cfg: MetricsConfig {
            interval_ns: 5_000,
            capacity: 4096,
        },
        ..ProbeConfig::default()
    });
    let bundle = r.bundle.as_ref().expect("probe traced");
    let series = r.series.as_ref().expect("probe sampled metrics");
    let asm = assemble(bundle);
    let got = [
        (
            "chrome_flows",
            fold_hash(&chrome_trace_json_with_flows(bundle, &asm)),
        ),
        ("causal_text", fold_hash(&asm.render_text())),
        ("metrics_json", fold_hash(&metrics_json(series, &r.hist))),
        ("prometheus", fold_hash(&prometheus_text(series, &r.hist))),
    ];
    let want: [(&str, u64); 4] = [
        ("chrome_flows", 0x52cf_e743_d7eb_510d),
        ("causal_text", 0xfc60_5886_e65d_f3d0),
        ("metrics_json", 0xbb97_2f1d_9248_bf05),
        ("prometheus", 0x4041_96f3_72f5_c497),
    ];
    assert_eq!(
        got.map(|(n, h)| format!("{n}={h:#018x}")),
        want.map(|(n, h)| format!("{n}={h:#018x}")),
        "an export changed byte-for-byte"
    );
}
