//! Integration tests for the metrics subsystem: export determinism under
//! the virtual clock, the per-op breakdown's segment-sum invariant, and
//! the reset-observability gauge semantics.

use upcr::metrics::probe::{run, ProbeConfig};
use upcr::metrics::{metrics_json, prometheus_text, MetricsConfig};
use upcr::trace::{assemble, parse_json, Segment};
use upcr::{launch, LibVersion, RuntimeConfig};

fn chaos_cfg(seed: u64) -> ProbeConfig {
    ProbeConfig {
        iters: 48,
        seed,
        chaos: true,
        trace: true,
        metrics: true,
        metrics_cfg: MetricsConfig {
            interval_ns: 5_000,
            capacity: 4096,
        },
        ..ProbeConfig::default()
    }
}

/// Two same-seed virtual-clock chaos runs export byte-identical metrics
/// JSON and Prometheus text; a different seed diverges.
#[test]
fn chaos_metrics_exports_are_byte_identical() {
    let a = run(&chaos_cfg(42));
    let b = run(&chaos_cfg(42));
    let ja = metrics_json(a.series.as_ref().unwrap(), &a.hist);
    let jb = metrics_json(b.series.as_ref().unwrap(), &b.hist);
    assert_eq!(ja, jb, "same seed must replay byte-identical metrics JSON");
    let pa = prometheus_text(a.series.as_ref().unwrap(), &a.hist);
    let pb = prometheus_text(b.series.as_ref().unwrap(), &b.hist);
    assert_eq!(pa, pb, "same seed must replay byte-identical exposition");
    // The export is valid JSON with a multi-sample series.
    let doc = parse_json(&ja).expect("metrics export must parse");
    let samples = doc.get("samples").unwrap().as_arr().unwrap();
    assert!(
        samples.len() >= 2,
        "chaos run should span several sampling intervals, got {}",
        samples.len()
    );
    let c = run(&chaos_cfg(43));
    let jc = metrics_json(c.series.as_ref().unwrap(), &c.hist);
    assert_ne!(ja, jc, "a different seed should produce a different series");
}

/// The causal assembler's per-op breakdown is exact: on a seeded chaos
/// run, every op's segments sum to precisely its measured completion
/// latency (well within the 1% acceptance band), and the deferred remote
/// ops actually spread across the pipeline segments.
#[test]
fn critical_path_segments_sum_to_measured_latency() {
    let r = run(&chaos_cfg(7));
    let ops = assemble(r.bundle.as_ref().unwrap()).op_breakdown;
    assert!(!ops.is_empty());
    for o in &ops {
        assert_eq!(
            o.segment_sum(),
            o.latency_ns,
            "op {}#{} segments must sum to its latency",
            o.kind.name(),
            o.op_id
        );
    }
    // Chaos dropped packets, so some deferred op carries backoff time, and
    // remote ops show wire transit.
    let total = |seg: Segment| ops.iter().map(|o| o.segments[seg as usize]).sum::<u64>();
    assert!(
        total(Segment::Backoff) > 0,
        "chaos retries should surface as backoff time"
    );
    assert!(
        total(Segment::Transit) > 0,
        "remote ops should surface wire transit time"
    );
}

/// `reset_observability` re-baselines counters and histograms but keeps
/// gauge *level* semantics: with operations still pending, the high-water
/// gauge re-primes to the current pending level, not to zero.
#[test]
fn reset_observability_keeps_gauge_level_semantics() {
    launch(
        RuntimeConfig::udp(2, 1).with_version(LibVersion::V2021_3_6Eager),
        |u| {
            u.trace_enabled(true);
            let target = u.broadcast(u.new_::<u64>(0), 1);
            if u.rank_me() == 0 {
                // Complete some ops so counters and histograms have data.
                for i in 0..8u64 {
                    u.rput(i, target).wait();
                }
                let before = u.stats();
                assert!(before.rputs >= 8);
                assert!(before.pending_highwater > 0);
                assert!(u.net_stats().injected > 0);
                assert!(u.latency_report().rows().iter().any(|r| r.count > 0));

                // Leave several operations in flight, then reset.
                let pending: Vec<_> = (0..5u64).map(|i| u.rput(i, target)).collect();
                u.reset_observability();

                let after = u.stats();
                assert_eq!(after.rputs, 0, "counters reset to zero");
                assert_eq!(after.deferred_enqueued, 0);
                assert!(
                    after.pending_highwater > 0,
                    "gauge re-primes to the live pending level, not zero"
                );
                assert!(
                    after.pending_highwater <= 5,
                    "re-primed level reflects only the in-flight ops"
                );
                assert_eq!(
                    u.net_stats().injected,
                    0,
                    "net counters re-baseline (pending wire traffic may \
                     still show as the live gauge)"
                );
                assert!(
                    u.latency_report().rows().is_empty(),
                    "histograms reset to empty"
                );
                for f in pending {
                    f.wait();
                }
                // Post-reset traffic counts from the new baseline.
                assert_eq!(u.stats().rputs, 0, "waits complete old ops, no new ones");
                assert!(u.net_stats().delivered > 0 || u.net_stats().injected == 0);
            }
            u.barrier();
        },
    );
}
