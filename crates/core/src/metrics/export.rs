//! Metric exporters: deterministic JSON and Prometheus text exposition.
//!
//! Both outputs are pure functions of their inputs — fixed field order, no
//! floating point, no map iteration — so a virtual-clock single-threaded
//! run exports byte-identical files across same-seed runs (the property
//! `tests/metrics.rs` locks in).
//!
//! The Prometheus exposition follows the text format: counters get a
//! `_total` suffix, histograms emit cumulative `_bucket{le=...}` series
//! plus `_sum`/`_count`, and every series carries a `rank` label so
//! multi-rank scrapes coexist in one corpus.

use std::fmt::Write as _;

use super::series::RankSeries;
use super::{descs, MetricDesc};
use crate::stats::FieldClass;
use crate::trace::hist::{bucket_index, bucket_upper_bound, Histograms};
use crate::trace::{CompletionPath, OpKind};

/// Schema tag stamped into every metrics JSON document.
pub const METRICS_SCHEMA: &str = "metrics.v1";

/// Render one rank's sampled series plus its latency histograms as
/// deterministic JSON (`metrics.v1` schema).
pub fn metrics_json(series: &RankSeries, hists: &Histograms) -> String {
    let regs = descs();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"{METRICS_SCHEMA}\",\"rank\":{},\"interval_ns\":{},\"dropped\":{}",
        series.rank, series.interval_ns, series.dropped
    );
    out.push_str(",\"metrics\":[");
    for (i, d) in regs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"class\":\"{}\"}}",
            d.name,
            d.class.name()
        );
    }
    out.push_str("],\"samples\":[");
    for (i, s) in series.samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"ts_ns\":{},\"values\":[", s.ts_ns);
        for (j, v) in s.values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push_str("]}");
    }
    out.push_str("],\"histograms\":[");
    let mut first = true;
    for kind in OpKind::ALL {
        for path in CompletionPath::ALL {
            let h = hists.get(kind, path);
            if h.is_empty() {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"op\":\"{}\",\"path\":\"{}\",\"count\":{},\"sum_ns\":{},\
                 \"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"buckets\":[",
                kind.name(),
                path.name(),
                h.count(),
                h.sum(),
                h.p50(),
                h.p99(),
                h.max()
            );
            let mut bfirst = true;
            for (i, &n) in h.buckets().iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !bfirst {
                    out.push(',');
                }
                bfirst = false;
                let _ = write!(out, "[{i},{n}]");
            }
            out.push_str("]}");
        }
    }
    out.push_str("]}");
    out
}

/// Render several ranks' series + histograms as one JSON array of
/// `metrics.v1` documents (one element per rank, in slice order).
pub fn metrics_json_multi(parts: &[(&RankSeries, &Histograms)]) -> String {
    let mut out = String::from("[");
    for (i, (s, h)) in parts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&metrics_json(s, h));
    }
    out.push_str("\n]");
    out
}

fn prom_name(d: &MetricDesc) -> String {
    match d.class {
        FieldClass::Counter => format!("{}_total", d.name),
        FieldClass::Gauge => d.name.clone(),
    }
}

/// Render the *latest* sample of one rank's series plus its latency
/// histograms in Prometheus text exposition format. An empty series emits
/// only the histogram families.
pub fn prometheus_text(series: &RankSeries, hists: &Histograms) -> String {
    prometheus_text_multi(&[(series, hists)])
}

/// Multi-rank Prometheus exposition: one `# TYPE` header per family, then
/// every rank's latest sample under its `rank` label — a valid single
/// scrape corpus for an N-rank run.
pub fn prometheus_text_multi(parts: &[(&RankSeries, &Histograms)]) -> String {
    let regs = descs();
    let mut out = String::new();
    for (i, d) in regs.iter().enumerate() {
        let name = prom_name(d);
        let mut typed = false;
        for (s, _) in parts {
            let Some(v) = s.samples.last().and_then(|last| last.values.get(i)) else {
                continue;
            };
            if !typed {
                let _ = writeln!(out, "# TYPE {name} {}", d.class.name());
                typed = true;
            }
            let _ = writeln!(out, "{name}{{rank=\"{}\"}} {v}", s.rank);
        }
    }
    let mut typed = false;
    for (s, hists) in parts {
        for kind in OpKind::ALL {
            for path in CompletionPath::ALL {
                let h = hists.get(kind, path);
                if h.is_empty() {
                    continue;
                }
                if !typed {
                    let _ = writeln!(out, "# TYPE upcr_latency_ns histogram");
                    typed = true;
                }
                let labels = format!(
                    "rank=\"{}\",op=\"{}\",path=\"{}\"",
                    s.rank,
                    kind.name(),
                    path.name()
                );
                // Cumulative buckets up to the one containing the max
                // sample, then +Inf — bounded, deterministic output.
                let top = bucket_index(h.max());
                let mut cum = 0u64;
                for (i, &n) in h.buckets().iter().take(top + 1).enumerate() {
                    cum += n;
                    let _ = writeln!(
                        out,
                        "upcr_latency_ns_bucket{{{labels},le=\"{}\"}} {cum}",
                        bucket_upper_bound(i)
                    );
                }
                let _ = writeln!(
                    out,
                    "upcr_latency_ns_bucket{{{labels},le=\"+Inf\"}} {}",
                    h.count()
                );
                let _ = writeln!(out, "upcr_latency_ns_sum{{{labels}}} {}", h.sum());
                let _ = writeln!(out, "upcr_latency_ns_count{{{labels}}} {}", h.count());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::series::Sample;
    use super::*;
    use crate::trace::parse_json;

    fn sample_series() -> RankSeries {
        let n = descs().len();
        RankSeries {
            rank: 2,
            interval_ns: 100,
            samples: vec![
                Sample {
                    ts_ns: 0,
                    values: vec![0; n],
                },
                Sample {
                    ts_ns: 100,
                    values: (0..n as u64).collect(),
                },
            ],
            dropped: 1,
        }
    }

    fn sample_hists() -> Histograms {
        let mut h = Histograms::new();
        h.record(OpKind::Put, CompletionPath::Eager, 0);
        h.record(OpKind::Put, CompletionPath::Deferred, 900);
        h.record(OpKind::Put, CompletionPath::Deferred, 1_500);
        h
    }

    #[test]
    fn json_parses_and_is_deterministic() {
        let s = sample_series();
        let h = sample_hists();
        let a = metrics_json(&s, &h);
        assert_eq!(a, metrics_json(&s, &h));
        let doc = parse_json(&a).expect("metrics export must be valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(METRICS_SCHEMA)
        );
        let metrics = doc.get("metrics").unwrap().as_arr().unwrap();
        let samples = doc.get("samples").unwrap().as_arr().unwrap();
        assert_eq!(metrics.len(), descs().len());
        assert_eq!(samples.len(), 2);
        assert_eq!(
            samples[1].get("values").unwrap().as_arr().unwrap().len(),
            metrics.len()
        );
        let hists = doc.get("histograms").unwrap().as_arr().unwrap();
        assert_eq!(hists.len(), 2, "one row per non-empty (op, path)");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = prometheus_text(&sample_series(), &sample_hists());
        // Counters carry _total, gauges don't.
        assert!(text.contains("# TYPE upcr_rputs_total counter"));
        assert!(text.contains("upcr_rputs_total{rank=\"2\"} "));
        assert!(text.contains("# TYPE upcr_pending_highwater gauge"));
        assert!(!text.contains("pending_highwater_total"));
        // Histogram family with cumulative buckets and +Inf.
        assert!(text.contains("# TYPE upcr_latency_ns histogram"));
        assert!(text.contains(
            "upcr_latency_ns_bucket{rank=\"2\",op=\"put\",path=\"deferred\",le=\"+Inf\"} 2"
        ));
        assert!(text.contains("upcr_latency_ns_sum{rank=\"2\",op=\"put\",path=\"deferred\"} 2400"));
        assert!(text.contains("upcr_latency_ns_count{rank=\"2\",op=\"put\",path=\"eager\"} 1"));
        // Cumulative: the le="+Inf" count equals the _count series.
        assert_eq!(text, prometheus_text(&sample_series(), &sample_hists()));
    }

    #[test]
    fn multi_rank_exposition_emits_each_type_header_once() {
        let mut s1 = sample_series();
        s1.rank = 5;
        let s2 = sample_series();
        let h = sample_hists();
        let text = prometheus_text_multi(&[(&s1, &h), (&s2, &h)]);
        assert_eq!(text.matches("# TYPE upcr_rputs_total counter").count(), 1);
        assert_eq!(text.matches("# TYPE upcr_latency_ns histogram").count(), 1);
        assert!(text.contains("upcr_rputs_total{rank=\"5\"} "));
        assert!(text.contains("upcr_rputs_total{rank=\"2\"} "));
        let json = metrics_json_multi(&[(&s1, &h), (&s2, &h)]);
        let doc = parse_json(&json).expect("multi export must be valid JSON");
        let arr = doc.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("rank").and_then(|v| v.as_num()), Some(5.0));
        assert_eq!(arr[1].get("rank").and_then(|v| v.as_num()), Some(2.0));
    }

    #[test]
    fn empty_series_emits_histograms_only() {
        let s = RankSeries {
            rank: 0,
            interval_ns: 100,
            samples: vec![],
            dropped: 0,
        };
        let text = prometheus_text(&s, &sample_hists());
        assert!(!text.contains("upcr_rputs_total"));
        assert!(text.contains("upcr_latency_ns_count"));
    }
}
