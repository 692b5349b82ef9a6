//! Isolated layer floors: each layer's public entry point timed on its own,
//! outside any workload, so an in-situ number far above its floor points at
//! contention rather than at the layer's code.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gasnex::{EventCore, GasnexConfig, NetConfig, Rank, ReadyQueue, Segment, Transport, World};
use gups::{GupsTable, Variant};
use upcr::{launch, Promise, RuntimeConfig};

use crate::inputs::GupsStart;
use crate::stats::median;
use crate::workloads::{gups_config, runtime_config};
use crate::{Build, Workload};

/// Each floor, in ns per call.
#[derive(Clone, Copy, Debug)]
pub struct Floors {
    /// One clock-read pair (`Instant::now` + `elapsed`).
    pub clock: f64,
    /// Empty `Upcr::progress()` on one rank.
    pub empty_progress: f64,
    /// Empty `Upcr::progress()` with a peer waiting in the barrier.
    pub empty_progress_peer: f64,
    /// `Promise` cell allocate + fulfil.
    pub promise: f64,
    /// `EventCore::new` + `signal`.
    pub event_signal: f64,
    /// `ReadyQueue` push + `drain_into`.
    pub mailbox_push_drain: f64,
    /// Simulated-wire inject + poll at latency 0.
    pub net_inject_poll: f64,
    /// Loopback-UDP inject + poll until delivered.
    pub udp_inject_poll: f64,
    /// `Segment` scalar write.
    pub segment_write: f64,
}

/// Median over five repetitions of the mean ns per call of `f`, called
/// `iters` times per repetition.
fn per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&reps)
}

impl Floors {
    pub fn measure() -> Floors {
        let queue = ReadyQueue::new();
        let mut drained = Vec::with_capacity(1);
        let segment = Segment::new(1 << 16);
        Floors {
            clock: per_call(200_000, |_| {
                black_box(Instant::now().elapsed());
            }),
            empty_progress: empty_progress(1),
            empty_progress_peer: empty_progress(2),
            promise: launch(RuntimeConfig::smp(1).with_segment_size(1 << 16), |_| {
                per_call(100_000, |_| {
                    black_box(Promise::new().finalize());
                })
            })[0],
            event_signal: per_call(100_000, |_| {
                let ev = EventCore::new();
                ev.signal();
                black_box(ev);
            }),
            mailbox_push_drain: per_call(100_000, |i| {
                queue.push(i);
                queue.drain_into(&mut drained);
                drained.clear();
            }),
            net_inject_poll: inject_poll(Transport::Sim, 20_000),
            udp_inject_poll: inject_poll(Transport::UdpSocket, 2_000),
            segment_write: per_call(1 << 20, |i| {
                segment.write_scalar((i as usize % 8192) * 8, 8, i)
            }),
        }
    }
}

/// `progress()` with nothing to do, on rank 0 of `ranks`; a peer, if any,
/// waits in the barrier and polls the same queues.
fn empty_progress(ranks: usize) -> f64 {
    launch(RuntimeConfig::smp(ranks).with_segment_size(1 << 16), |u| {
        let floor = if u.rank_me() == 0 {
            per_call(50_000, |_| u.progress())
        } else {
            0.0
        };
        u.barrier();
        floor
    })[0]
}

/// One off-node delivery through `transport`: inject an action from rank 0
/// to rank 1 and poll until it has run.
fn inject_poll(transport: Transport, iters: u64) -> f64 {
    let world = World::new(
        GasnexConfig::udp(2, 1)
            .with_transport(transport)
            .with_net(NetConfig {
                latency_ns: 0,
                ..NetConfig::default()
            }),
    );
    let net = world.net();
    let delivered = Arc::new(AtomicU64::new(0));
    per_call(iters, |i| {
        let d = Arc::clone(&delivered);
        net.inject_to(
            Some((Rank(0), Rank(1))),
            Box::new(move |_| {
                d.store(i + 1, Ordering::Release);
            }),
        );
        while delivered.load(Ordering::Acquire) != i + 1 {
            net.poll(&world);
        }
    })
}

/// `gups.raw_ns_per_op`: the `gups` table and stream run through
/// `Variant::Raw` (plain loads and stores, no runtime calls) on both ranks:
/// the slowest rank's time over both ranks' updates, median of three.
pub fn gups_raw(start: &GupsStart) -> f64 {
    let cfg = gups_config();
    launch(runtime_config(Workload::Gups, Build::Eager), |u| {
        let table = GupsTable::setup(u, &cfg);
        let updates = table.local_size;
        let reps: Vec<f64> = (0..3)
            .map(|rep| {
                u.barrier();
                let t = Instant::now();
                let from = start.start(u.rank_me(), rep);
                gups::variants::run_updates(u, &table, &cfg, Variant::Raw, from, updates);
                let secs = t.elapsed().as_secs_f64();
                let slowest = f64::from_bits(u.allreduce_max_u64(secs.to_bits()));
                slowest * 1e9 / (u.rank_n() * updates) as f64
            })
            .collect();
        table.free(u);
        median(&reps)
    })[0]
}
