//! Shared measurement harness for the paper's figures.
//!
//! Each figure has a module that produces its data series; the `figures`
//! binary drives them and prints the tables EXPERIMENTS.md records.

use std::time::{Duration, Instant};

use upcr::{launch, LibVersion, NetConfig, RuntimeConfig, Upcr};

pub mod emit;
pub mod regress;

/// Figures 2–4: single-operation latency microbenchmarks.
pub mod micro {
    use super::*;

    /// The operations measured in the microbenchmark figures.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum MicroOp {
        /// 64-bit `rput` (value-less completion).
        Put,
        /// 64-bit `rget` (value-carrying completion).
        Get,
        /// 64-bit get written to memory (`copy`, value-less completion).
        GetInto,
        /// Non-fetching atomic add (existed in all versions).
        AmoAdd,
        /// Fetching atomic add, value in the completion.
        AmoFetchAdd,
        /// Fetching atomic add, value written to memory (§III-B; absent in
        /// 2021.3.0).
        AmoFetchAddInto,
    }

    impl MicroOp {
        /// All ops in figure order.
        pub const ALL: [MicroOp; 6] = [
            MicroOp::Put,
            MicroOp::Get,
            MicroOp::GetInto,
            MicroOp::AmoAdd,
            MicroOp::AmoFetchAdd,
            MicroOp::AmoFetchAddInto,
        ];

        /// Figure label.
        pub fn name(self) -> &'static str {
            match self {
                MicroOp::Put => "put",
                MicroOp::Get => "get",
                MicroOp::GetInto => "get->memory",
                MicroOp::AmoAdd => "atomic add",
                MicroOp::AmoFetchAdd => "fetch-add->value",
                MicroOp::AmoFetchAddInto => "fetch-add->memory",
            }
        }

        /// Whether the op exists under the given version semantics.
        pub fn available_in(self, version: LibVersion) -> bool {
            self != MicroOp::AmoFetchAddInto || version.has_nonfetching_fetch_amos()
        }
    }

    /// Time `iters` back-to-back `op().wait()` operations targeting
    /// co-located on-node memory (the paper's loop), returning the total
    /// wall time on the initiating rank.
    ///
    /// Runs 2 SMP ranks: rank 0 initiates against rank 1's segment (a
    /// co-located process, reached via shared-memory bypass); rank 1 sits in
    /// the exit barrier. `setup` runs on every rank before anything else,
    /// e.g. to switch an instrument on.
    pub fn run(version: LibVersion, op: MicroOp, iters: u64, setup: fn(&Upcr)) -> Duration {
        assert!(op.available_in(version), "{op:?} unavailable in {version}");
        let rt = RuntimeConfig::smp(2)
            .with_version(version)
            .with_segment_size(1 << 16);
        let out = launch(rt, move |u| {
            setup(u);
            let mine = u.new_::<u64>(0);
            let result = u.new_::<u64>(0);
            let targets: Vec<_> = (0..2).map(|r| u.broadcast(mine, r)).collect();
            let target = targets[1 - u.rank_me()];
            u.barrier();
            let mut elapsed = Duration::ZERO;
            if u.rank_me() == 0 {
                let ad = u.atomic_domain::<u64>();
                let t0 = Instant::now();
                match op {
                    MicroOp::Put => {
                        for i in 0..iters {
                            u.rput(i, target).wait();
                        }
                    }
                    MicroOp::Get => {
                        for _ in 0..iters {
                            std::hint::black_box(u.rget(target).wait());
                        }
                    }
                    MicroOp::GetInto => {
                        for _ in 0..iters {
                            u.copy(target, result, 1).wait();
                        }
                    }
                    MicroOp::AmoAdd => {
                        for _ in 0..iters {
                            ad.add(target, 1).wait();
                        }
                    }
                    MicroOp::AmoFetchAdd => {
                        for _ in 0..iters {
                            std::hint::black_box(ad.fetch_add(target, 1).wait());
                        }
                    }
                    MicroOp::AmoFetchAddInto => {
                        for _ in 0..iters {
                            ad.fetch_add_into(target, 1, result).wait();
                        }
                    }
                }
                elapsed = t0.elapsed();
            }
            u.barrier();
            u.delete_(mine);
            u.delete_(result);
            elapsed
        });
        out[0]
    }

    /// Nanoseconds per operation, averaged over `iters`.
    pub fn ns_per_op(version: LibVersion, op: MicroOp, iters: u64, setup: fn(&Upcr)) -> f64 {
        run(version, op, iters, setup).as_nanos() as f64 / iters as f64
    }
}

/// §IV-A's off-node claim: the extra locality branch does not slow down
/// operations that cross the (simulated) network.
pub mod offnode {
    use super::*;

    /// Measure off-node round-trip `rput().wait()` latency between two
    /// simulated nodes under the given version. Returns ns/op.
    pub fn rput_ns(version: LibVersion, iters: u64, latency_ns: u64) -> f64 {
        let rt = RuntimeConfig::udp(2, 1)
            .with_version(version)
            .with_segment_size(1 << 16)
            .with_net(NetConfig {
                latency_ns,
                jitter_ns: 0,
                ..NetConfig::default()
            });
        let out = launch(rt, move |u| {
            let mine = u.new_::<u64>(0);
            let targets: Vec<_> = (0..2).map(|r| u.broadcast(mine, r)).collect();
            let target = targets[1 - u.rank_me()];
            u.barrier();
            let mut elapsed = Duration::ZERO;
            if u.rank_me() == 0 {
                assert!(!u.is_local(target));
                let t0 = Instant::now();
                for i in 0..iters {
                    u.rput(i, target).wait();
                }
                elapsed = t0.elapsed();
            }
            u.barrier();
            elapsed
        });
        out[0].as_nanos() as f64 / iters as f64
    }

    /// Measure wall-clock issue→continuation latency for a cross-node
    /// `rput_with(as_callback)`, without or with the background progress
    /// thread. Rank 0 of 4 ranks on 2 simulated nodes issues one put at a
    /// time to a rank on the other node and waits for its continuation to
    /// fire: by spinning in `progress` when the rank itself must drive
    /// completion, or by spinning on the flag with `yield_now` and no
    /// progress call when the progress thread is responsible, so no
    /// rank-side polling helps it and the series times the thread's
    /// delivery, enqueue and drain. The remaining ranks sit in the closing
    /// barrier, which drives progress while waiting. Returns `(p50, p99)`
    /// in nanoseconds over 64 puts.
    pub fn callback_notify_ns(progress_thread: bool) -> (u64, u64) {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        const SAMPLES: usize = 64;
        let results = launch(
            RuntimeConfig::udp(4, 2)
                .with_segment_size(1 << 16)
                .with_progress_thread(progress_thread),
            move |u| {
                let mine = u.new_array::<u64>(SAMPLES);
                // Rank 2 lives on the other node: every put rides the conduit.
                let target = u.broadcast(mine, 2);
                u.barrier();
                let mut lat = Vec::new();
                if u.rank_me() == 0 {
                    for i in 0..SAMPLES {
                        let done = Arc::new(AtomicU64::new(0));
                        let d = Arc::clone(&done);
                        let t0 = Instant::now();
                        u.rput_with(
                            i as u64,
                            target.add(i),
                            upcr::operation_cx::as_callback(move |_: ()| {
                                d.store(1, Ordering::Release);
                            }),
                        );
                        while done.load(Ordering::Acquire) == 0 {
                            if progress_thread {
                                std::thread::yield_now();
                            } else {
                                u.progress();
                            }
                        }
                        lat.push(t0.elapsed().as_nanos() as u64);
                    }
                }
                u.barrier();
                lat
            },
        );
        let mut lat = results
            .into_iter()
            .find(|l| !l.is_empty())
            .expect("rank 0 measured");
        lat.sort_unstable();
        (lat[lat.len() / 2], lat[lat.len() * 99 / 100])
    }
}

/// A convenient latency-measurement harness for ad-hoc experiments: runs
/// `f` on rank 0 of a fresh SMP runtime and returns its duration.
pub fn time_on_rank0<F>(ranks: usize, version: LibVersion, f: F) -> Duration
where
    F: Fn(&Upcr) + Sync,
{
    let rt = RuntimeConfig::smp(ranks)
        .with_version(version)
        .with_segment_size(1 << 20);
    let out = launch(rt, move |u| {
        u.barrier();
        let t0 = Instant::now();
        if u.rank_me() == 0 {
            f(u);
        }
        let d = t0.elapsed();
        u.barrier();
        d
    });
    out[0]
}

/// Ablation knobs (DESIGN.md): measure the conjoining loop with individual
/// optimizations isolated by version choice and completion factory.
pub mod ablation {
    use super::*;
    use upcr::{conjoin, make_future, operation_cx};

    /// Synchronization batch: operations conjoined/registered before each
    /// wait. Mirrors the GUPS batching and keeps the dependency graph's
    /// live working set bounded (an unbatched million-node chain measures
    /// allocator pressure, not the notification mechanism).
    pub const BATCH: u64 = 1024;

    /// Conjoin `n` eager local rputs in [`BATCH`]-sized waves and wait per
    /// wave; returns ns/op. Under the eager version this exercises both the
    /// `when_all` fast path and the shared ready cell; under defer, the
    /// full graph construction.
    pub fn conjoin_loop_ns(version: LibVersion, n: u64) -> f64 {
        let d = time_on_rank0(2, version, |u| {
            let p = u.new_::<u64>(0);
            let mut left = n;
            while left > 0 {
                let b = left.min(BATCH);
                let mut f = make_future();
                for i in 0..b {
                    f = conjoin(f, u.rput(i, p));
                }
                f.wait();
                left -= b;
            }
        });
        d.as_nanos() as f64 / n as f64
    }

    /// Same loop but with explicitly deferred completion requests —
    /// isolates the notification mode from the other 2021.3.6
    /// optimizations.
    pub fn conjoin_loop_forced_defer_ns(version: LibVersion, n: u64) -> f64 {
        let d = time_on_rank0(2, version, |u| {
            let p = u.new_::<u64>(0);
            let mut left = n;
            while left > 0 {
                let b = left.min(BATCH);
                let mut f = make_future();
                for i in 0..b {
                    f = conjoin(f, u.rput_with(i, p, operation_cx::as_defer_future()));
                }
                f.wait();
                left -= b;
            }
        });
        d.as_nanos() as f64 / n as f64
    }

    /// Promise-tracked eager/defer loop: isolates promise-registration
    /// elision.
    pub fn promise_loop_ns(version: LibVersion, n: u64) -> f64 {
        let d = time_on_rank0(2, version, |u| {
            let p = u.new_::<u64>(0);
            let mut left = n;
            while left > 0 {
                let b = left.min(BATCH);
                let pr = upcr::Promise::new();
                for i in 0..b {
                    u.rput_with(i, p, operation_cx::as_promise(&pr));
                }
                pr.finalize().wait();
                left -= b;
            }
        });
        d.as_nanos() as f64 / n as f64
    }
}

/// Human-readable series formatting shared by the `figures` binary.
pub fn fmt_row(label: &str, cells: &[String]) -> String {
    let mut s = format!("{label:<28}");
    for c in cells {
        s.push_str(&format!("{c:>16}"));
    }
    s
}

/// The version list in figure order.
pub const VERSIONS: [LibVersion; 3] = [
    LibVersion::V2021_3_0,
    LibVersion::V2021_3_6Defer,
    LibVersion::V2021_3_6Eager,
];

#[cfg(test)]
mod tests {
    #[test]
    fn callback_notify_quantiles_are_real_latencies() {
        for thread in [false, true] {
            let (p50, p99) = super::offnode::callback_notify_ns(thread);
            assert!(
                p50 > 0 && p50 <= p99,
                "thread {thread}: p50 {p50} p99 {p99}"
            );
        }
    }
}
