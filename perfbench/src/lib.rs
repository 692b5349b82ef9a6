//! Wall-clock benchmark of the eager-notify runtime.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload for `s` seconds on inputs generated from the seed.
//! With `--trace 0` it reports the end-to-end metrics, measured untraced.
//! With `--trace 1` it reports per-layer times and counts from spans the
//! benchmark records around its own calls into each layer, an untraced
//! reference of the same length, the isolated layer floors, and derived
//! rows. The last line of output is one JSON object.
//!
//! The benchmark touches the program only through its public API:
//! `launch`, the `Upcr` ops, `progress()`, `stats()`, `net_stats()`, the
//! `gups` table and stream, and the public `gasnex` layer types.

pub mod floors;
pub mod inputs;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

pub use report::{run, Report, RunConfig};

use upcr::LibVersion;

/// A workload: one set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LocalOps,
    Gups,
    RemoteBatch,
    RemoteUdp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LocalOps,
        Workload::Gups,
        Workload::RemoteBatch,
        Workload::RemoteUdp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalOps => "local-ops",
            Workload::Gups => "gups",
            Workload::RemoteBatch => "remote-batch",
            Workload::RemoteUdp => "remote-udp",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (`BENCHMARK.json` records the
    /// same line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::LocalOps => {
                "Figs 2-4 on-node ops, one in flight, eager vs defer: eager time is rma/atomics \
                 initiation, defer adds one ctx progress quantum per op"
            }
            Workload::Gups => {
                "Figs 5-7 HPCC RandomAccess, atomic XOR with conjoined futures on a 32 MiB table: \
                 the future layer and memory traffic, on both builds"
            }
            Workload::RemoteBatch => {
                "256 off-node ops in flight over the simulated conduit: each pays an EventCore, \
                 a boxed action and a mailbox wakeup through the progress engine"
            }
            Workload::RemoteUdp => {
                "Off-node round trips over real loopback UDP, one in flight: the only real wire, \
                 where latency is the paper's off-node round trip"
            }
        }
    }

    /// Launches per build in an untraced run. Set-up, memory placement and
    /// which core each rank lands on differ from launch to launch, so a run
    /// spreads its time over many launches.
    pub fn launches(self) -> usize {
        match self {
            Workload::LocalOps => 24,
            Workload::Gups => 48,
            Workload::RemoteBatch | Workload::RemoteUdp => 16,
        }
    }
}

/// A library build the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Build {
    /// 2021.3.6 eager: the default build.
    Eager,
    /// 2021.3.6 defer.
    Defer,
}

impl Build {
    pub const ALL: [Build; 2] = [Build::Eager, Build::Defer];

    pub fn version(self) -> LibVersion {
        match self {
            Build::Eager => LibVersion::V2021_3_6Eager,
            Build::Defer => LibVersion::V2021_3_6Defer,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Build::Eager => "eager",
            Build::Defer => "defer",
        }
    }

    /// Prefix of this build's per-layer metric names: none for the
    /// default build.
    pub fn prefix(self) -> &'static str {
        match self {
            Build::Eager => "",
            Build::Defer => "defer.",
        }
    }
}
