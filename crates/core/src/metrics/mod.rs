//! Continuous performance observability: metric registry, sampled
//! time-series, and exporters.
//!
//! Lifecycle tracing ([`crate::trace`]) answers "what happened to one
//! operation", and the causal assembler's per-op breakdown
//! ([`crate::trace::causal`]) "where did its time go"; this module answers
//! "how is the runtime doing *over time*":
//!
//! * **Registry** — every observable scalar registers here with a name and
//!   a class. The set is not hand-maintained: [`descs`] derives it from
//!   [`StatsSnapshot::FIELDS`] (generated by `gasnex::declare_stats!`),
//!   [`gasnex::NetStats::FIELDS`], and a small list of live queue-depth
//!   gauges, so adding a counter in either source automatically registers
//!   it. Latency histograms register alongside at export time (they are
//!   keyed by op kind × completion path, not by a scalar name).
//! * **Time-series** ([`series`]) — a sampler driven by the simulated
//!   clock records fixed-interval snapshots of every registered scalar
//!   into a bounded ring. Under [`gasnex::ClockMode::Virtual`] the sample
//!   timestamps are logical, so two same-seed runs produce byte-identical
//!   series.
//! * **Exporters** ([`export`]) — deterministic JSON (`metrics.v1`
//!   schema) and Prometheus text exposition format.
//! * **Probe** ([`probe`]) — a single-threaded deterministic driver used
//!   by the benchmark pipeline to produce replayable latency quantiles
//!   (multi-threaded virtual-clock runs have deterministic final counters
//!   but racy timestamps; the probe removes the race).
//!
//! Sampling is gated per rank by one `Cell<bool>` checked at the end of
//! each progress quantum ([`crate::Upcr::metrics_enabled`]); disabled-mode
//! overhead is a single predictably-taken branch.

pub mod export;
pub mod probe;
pub mod series;

pub use export::{metrics_json, metrics_json_multi, prometheus_text, prometheus_text_multi};
pub use probe::{ProbeConfig, ProbeReport};
pub use series::{MetricSeries, MetricsConfig, RankSeries, Sample};

use crate::ctx::RankCtx;
use crate::stats::{FieldClass, StatsSnapshot};
use gasnex::NetStats;

/// One registered metric: its exported name and class. The position of a
/// desc in [`descs`] is the position of its value in every
/// [`series::Sample`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricDesc {
    pub name: String,
    pub class: FieldClass,
}

/// Live queue-depth gauges sampled directly from the rank context (they
/// have no backing counter — they *are* the current level).
const LIVE_GAUGES: &[&str] = &["deferred_queue_depth", "event_waiters", "ready_queue_depth"];

/// Idle-efficiency gauges derived from the raw counters at sample time
/// (scaled to integers: parts-per-million and milli-units, since the
/// registry carries `u64`s). See [`idle_fraction_ppm`] /
/// [`polls_per_op_milli`] for the formulas.
const DERIVED_GAUGES: &[&str] = &["idle_fraction_ppm", "polls_per_op_milli"];

/// Fraction of a rank's `wait_signal` time spent parked (zero CPU), in
/// parts per million: `parked_ns / (parked_ns + spinning_ns +
/// progress_ns)`, the three counters that partition that time. Zero when
/// nothing was accounted yet — including every virtual-clock run, where
/// the time counters stay zero by design.
pub fn idle_fraction_ppm(s: &StatsSnapshot) -> u64 {
    let total = s.parked_ns + s.spinning_ns + s.progress_ns;
    if total == 0 {
        return 0;
    }
    s.parked_ns * 1_000_000 / total
}

/// Progress-engine polls per initiated operation, in milli-polls:
/// `progress_calls * 1000 / (rputs + rgets + amos + rpcs)`. Zero before
/// any operation was initiated.
pub fn polls_per_op_milli(s: &StatsSnapshot) -> u64 {
    let ops = s.rputs + s.rgets + s.amos + s.rpcs;
    if ops == 0 {
        return 0;
    }
    s.progress_calls * 1000 / ops
}

/// The full registry, in sampling order: per-rank stats fields (prefix
/// `upcr_`), live queue-depth gauges, derived idle-efficiency gauges
/// (both prefix `upcr_`), then the shared network counters (prefix
/// `net_`). Deterministic: derived from the two `FIELDS` consts, never
/// from map iteration.
pub fn descs() -> Vec<MetricDesc> {
    let mut out = Vec::new();
    for (name, class) in StatsSnapshot::FIELDS {
        out.push(MetricDesc {
            name: format!("upcr_{name}"),
            class: *class,
        });
    }
    for name in LIVE_GAUGES.iter().chain(DERIVED_GAUGES) {
        out.push(MetricDesc {
            name: format!("upcr_{name}"),
            class: FieldClass::Gauge,
        });
    }
    for (name, class) in NetStats::FIELDS {
        out.push(MetricDesc {
            name: format!("net_{name}"),
            class: *class,
        });
    }
    out
}

/// Sample every registered metric from `ctx`, in [`descs`] order.
pub(crate) fn collect_values(ctx: &RankCtx) -> Vec<u64> {
    let snap = ctx.stats.snapshot();
    let mut v = snap.values();
    v.push(ctx.deferred.borrow().len() as u64);
    v.push(ctx.event_waiters.borrow().len() as u64);
    v.push(ctx.world.ready_queued(ctx.me) as u64);
    v.push(idle_fraction_ppm(&snap));
    v.push(polls_per_op_milli(&snap));
    v.extend(ctx.world.net().stats().values());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_both_field_sources_in_order() {
        let d = descs();
        assert_eq!(
            d.len(),
            StatsSnapshot::FIELDS.len()
                + LIVE_GAUGES.len()
                + DERIVED_GAUGES.len()
                + NetStats::FIELDS.len()
        );
        assert_eq!(d[0].name, format!("upcr_{}", StatsSnapshot::FIELDS[0].0));
        let net_start = StatsSnapshot::FIELDS.len() + LIVE_GAUGES.len() + DERIVED_GAUGES.len();
        assert_eq!(d[net_start].name, "net_injected");
        assert_eq!(d[net_start].class, FieldClass::Counter);
        assert!(d
            .iter()
            .any(|m| m.name == "upcr_pending_highwater" && m.class == FieldClass::Gauge));
        assert!(d
            .iter()
            .any(|m| m.name == "upcr_ready_queue_depth" && m.class == FieldClass::Gauge));
        assert!(d
            .iter()
            .any(|m| m.name == "upcr_idle_fraction_ppm" && m.class == FieldClass::Gauge));
        assert!(d
            .iter()
            .any(|m| m.name == "upcr_polls_per_op_milli" && m.class == FieldClass::Gauge));
        // The notifiable-RMA and idle-time counters ride the macro-derived
        // registry into both exporters; pin their registration so a field
        // rename cannot silently drop them from the exposition.
        // The causal-tracing chain-depth high-water mark is a gauge.
        assert!(d
            .iter()
            .any(|m| m.name == "upcr_causal_chain_depth" && m.class == FieldClass::Gauge));
        for name in [
            "upcr_signals_sent",
            "upcr_signals_coalesced",
            "upcr_park_wakeups",
            "upcr_polls_while_parked",
            "upcr_parked_ns",
            "upcr_spinning_ns",
            "upcr_progress_ns",
            "upcr_hb_edges",
            "upcr_causal_violations",
            "upcr_callbacks_run",
            "upcr_callbacks_deferred",
            "upcr_progress_thread_polls",
            "upcr_progress_thread_wakeups",
            "net_signals",
            "net_lclock_ticks",
        ] {
            assert!(
                d.iter()
                    .any(|m| m.name == name && m.class == FieldClass::Counter),
                "missing registered counter {name}"
            );
        }
        // Names are unique (a duplicate would corrupt the exposition).
        let mut names: Vec<_> = d.iter().map(|m| m.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), d.len());
    }

    #[test]
    fn collect_matches_registry_arity() {
        use crate::ctx::RankCtx;
        use crate::version::LibVersion;
        use gasnex::{GasnexConfig, Rank, World};
        let world = World::new(GasnexConfig::smp(1).with_segment_size(1 << 12));
        let ctx = RankCtx::new(world, Rank(0), LibVersion::V2021_3_6Eager, 30_000);
        assert_eq!(collect_values(&ctx).len(), descs().len());
    }
}
