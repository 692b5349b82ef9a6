//! # gasnex — a GASNet-EX-like communication substrate
//!
//! This crate is the from-scratch stand-in for GASNet-EX in the
//! reproduction of *"Optimization of Asynchronous Communication Operations
//! through Eager Notifications"* (Kamil & Bonachea, SC 2021). It provides
//! the substrate layers the UPC++-like runtime (`upcr`) is built on:
//!
//! * **Shared segments** ([`segment::Segment`]) — one per rank, addressable
//!   by every rank, with race-tolerant word-atomic storage and a free-list
//!   offset allocator ([`alloc::SegAlloc`]).
//! * **Conduits & topology** ([`config`], [`rank`]) — SMP / UDP conduit
//!   flavors; ranks grouped into simulated nodes, where same-node
//!   access is direct (process-shared memory) and cross-node operations go
//!   through the network.
//! * **Events** ([`event::EventCore`]) — a one-shot completion flag a
//!   thread can park on, used by parked `wait_signal` waiters. Off-node
//!   operations need none: their delivery action deposits a completion
//!   token in the initiator's ready queue ([`World::deposit_token`]).
//! * **Active messages** ([`am`]) — handlers executed on the target rank
//!   during its progress calls, used for RPC and remote completions.
//! * **Ready queues** ([`mailbox`]) — per-rank multi-producer queues; the
//!   signal-driven completion engine routes completion tokens through them
//!   so an initiator discovers finished operations in O(ready) instead of
//!   re-polling every pending event.
//! * **Notification objects** ([`notify::NotifyTable`]) — seL4-style
//!   badge-coalescing notification words with parked waiters, the
//!   target-side half of put-with-signal RMA.
//! * **Conduit transports** ([`conduit::Conduit`]) — the wire abstraction
//!   cross-node operations travel through; injected operations never
//!   complete synchronously. Two impls: the simulated delay queue
//!   ([`net::SimNetwork`], with the chaos adversary and virtual-clock
//!   replay) and real loopback UDP sockets
//!   ([`conduit::udp::UdpConduit`]).
//! * **Remote atomics** ([`amo`]) — the `gex_AD`-style atomic operation set
//!   over 64-bit words, including the fetching/non-fetching split the paper
//!   exploits.
//! * **Collectives** ([`collectives`], surfaced via [`world::World`]) —
//!   progress-polling barrier, broadcast, and reductions.
//!
//! Everything is deliberately single-process: SPMD ranks are threads, which
//! reproduces the addressability and synchronization structure of the
//! paper's single-node runs (GASNet process-shared memory) while remaining
//! runnable anywhere. See `DESIGN.md` at the repository root for the full
//! substitution argument.

pub mod aggregate;
pub mod alloc;
pub mod am;
pub mod amo;
pub mod clock;
pub mod collectives;
pub mod conduit;
pub mod config;
pub mod event;
pub mod mailbox;
pub mod net;
pub mod notify;
pub mod rank;
pub mod segment;
pub mod world;

pub use aggregate::{AggConfig, Batch, BucketSnapshot, Coalescer, FlushReason, Push};
pub use alloc::{OutOfSegmentMemory, SegAlloc};
pub use am::AmCtx;
pub use amo::AmoOp;
pub use clock::LamportClocks;
pub use conduit::{udp::UdpConduit, Conduit, ConduitCore, InFlight};
pub use config::{ClockMode, ConduitKind, FaultPlan, GasnexConfig, NetConfig, Transport};
pub use event::EventCore;
pub use mailbox::{MpQueue, ReadyQueue};
pub use net::{FieldClass, NetEventKind, NetStats, NetTraceEvent, SimNetwork};
pub use notify::{NotifyTable, NotifyWordSnapshot};
pub use rank::{Rank, Team, Topology};
pub use segment::Segment;
pub use world::World;
