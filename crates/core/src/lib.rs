//! # upcr — a UPC++-like APGAS runtime with eager completion notifications
//!
//! This crate reproduces the primary contribution of *"Optimization of
//! Asynchronous Communication Operations through Eager Notifications"*
//! (Kamil & Bonachea, SC 2021): a C++-library-style Asynchronous
//! Partitioned Global Address Space runtime whose communication operations
//! may deliver completion notifications **eagerly** when their data
//! movement completes synchronously (e.g. via shared-memory bypass),
//! instead of universally deferring them to the progress engine.
//!
//! ## The model
//!
//! An SPMD program runs one closure per rank via [`launch`]. Each rank owns
//! a shared segment; [`GlobalPtr<T>`] addresses any rank's segment. One-
//! sided [`Upcr::rput`]/[`Upcr::rget`] and [`AtomicDomain`] operations are
//! asynchronous, returning [`Future`]s by default; the full [`completion`]
//! mechanism supports futures, promises, local procedure calls, and
//! remote-completion RPCs, composed with `|`.
//!
//! ## The paper's knobs
//!
//! * [`LibVersion`] selects the semantics of one of the three builds the
//!   paper benchmarks (2021.3.0 / 2021.3.6 defer / 2021.3.6 eager).
//! * [`completion::operation_cx::as_eager_future`] and friends request
//!   eager delivery explicitly; the plain factories follow the build's
//!   default.
//! * [`future::conjoin`]/[`future::when_all_value`] implement `when_all`
//!   with the ready-input optimization (§III-C); ready `Future<()>`s share
//!   a pre-allocated cell (§III-B); `fetch_*_into` atomics write fetched
//!   values to memory instead of notifications (§III-B).
//!
//! ## Quick example
//!
//! ```
//! use upcr::{launch, RuntimeConfig};
//!
//! let totals = launch(RuntimeConfig::smp(4), |u| {
//!     // Every rank allocates a counter; rank 0's pointer is broadcast.
//!     let mine = u.new_::<u64>(0);
//!     let target = u.broadcast(mine, 0);
//!     let ad = u.atomic_domain::<u64>();
//!     ad.add(target, 1 + u.rank_me() as u64).wait();
//!     u.barrier();
//!     u.rget(target).wait()
//! });
//! assert!(totals.iter().all(|&t| t == 1 + 2 + 3 + 4));
//! ```

pub mod atomics;
pub mod completion;
mod continuation;
mod ctx;
pub mod dist_object;
pub mod future;
pub mod global_ptr;
pub mod introspect;
pub mod metrics;
pub mod reduce;
pub mod rma;
pub mod rpc;
pub mod runtime;
pub mod ser;
pub mod signal;
mod slab;
pub mod stats;
pub mod trace;
pub mod version;
pub mod vis;

pub use atomics::{AtomicDomain, AtomicValue};
pub use completion::{operation_cx, remote_cx, source_cx, Completions, CxValue, Mode};
pub use dist_object::DistObject;
pub use future::{
    conjoin, conjoin_all, join2, join3, join4, make_future, make_future_with, when_all_value,
    Future, Promise,
};
pub use global_ptr::{GlobalPtr, LocalRef, SegValue};
pub use introspect::{diagnose_stall, wait_graph, Snapshot, WaitEdge, WaitEdgeKind};
pub use metrics::{MetricDesc, MetricsConfig, RankSeries};
pub use reduce::{ReduceOp, ReduceVal};
pub use runtime::{api, launch, RuntimeConfig, Upcr, DEFAULT_WATCHDOG_MS};
pub use ser::{SerDe, SerError};
pub use stats::StatsSnapshot;
pub use trace::{
    CompletionPath, Histograms, OpBreakdown, OpKind, OpenSpan, RankTrace, Segment, TraceBundle,
};
pub use version::LibVersion;
pub use vis::Strided;

// Re-export the substrate types that appear in public signatures.
pub use gasnex::{
    AggConfig, AmoOp, ClockMode, ConduitKind, FaultPlan, GasnexConfig, NetConfig, NetStats,
    NotifyTable, Rank, Team,
};
