//! Substrate stress tests: concurrent AM storms, mixed atomics and copies,
//! collectives under oversubscription, and network saturation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gasnex::{AmoOp, GasnexConfig, NetConfig, Rank, World};

fn run_ranks(world: &Arc<World>, f: impl Fn(&World, Rank) + Sync) {
    std::thread::scope(|s| {
        for r in 0..world.ranks() {
            let world = Arc::clone(world);
            let f = &f;
            s.spawn(move || f(&world, Rank::from_idx(r)));
        }
    });
}

#[test]
fn am_storm_all_to_all() {
    let w = World::new(GasnexConfig::smp(8).with_segment_size(1 << 12));
    static HITS: AtomicU64 = AtomicU64::new(0);
    const PER_PAIR: u64 = 500;
    run_ranks(&w, |w, me| {
        for _ in 0..PER_PAIR {
            for t in 0..8u32 {
                w.send_am(Rank(t), me, |_| {
                    HITS.fetch_add(1, Ordering::Relaxed);
                });
            }
            w.poll_rank(me, 16);
        }
        // Drain until globally quiet.
        let team = w.world_team();
        w.barrier(&team, &mut || {
            w.poll_rank(me, 64);
        });
        while w.poll_rank(me, 64) > 0 {}
        w.barrier(&team, &mut || {
            w.poll_rank(me, 64);
        });
        while w.poll_rank(me, 64) > 0 {}
        w.barrier(&team, &mut || {
            w.poll_rank(me, 64);
        });
    });
    assert_eq!(HITS.load(Ordering::Relaxed), 8 * 8 * PER_PAIR);
    assert!(w.substrate_quiet());
}

#[test]
fn reply_chains_terminate() {
    // Each request triggers a reply which triggers a counter bump; chains
    // of depth 3.
    let w = World::new(GasnexConfig::smp(4).with_segment_size(1 << 12));
    static DEPTH3: AtomicU64 = AtomicU64::new(0);
    run_ranks(&w, |w, me| {
        for t in 0..4u32 {
            w.send_am(Rank(t), me, move |ctx| {
                ctx.reply(move |ctx2| {
                    ctx2.reply(move |_| {
                        DEPTH3.fetch_add(1, Ordering::Relaxed);
                    });
                });
            });
        }
        let team = w.world_team();
        for _ in 0..3 {
            w.barrier(&team, &mut || {
                w.poll_rank(me, 64);
            });
            while w.poll_rank(me, 64) > 0 {}
        }
    });
    assert_eq!(DEPTH3.load(Ordering::Relaxed), 16);
}

#[test]
fn mixed_amo_and_raw_access_remain_coherent() {
    // Hardware atomics through the AMO engine and direct word access from
    // other threads target the same segment words.
    let w = World::new(GasnexConfig::smp(4).with_segment_size(1 << 12));
    run_ranks(&w, |w, me| {
        let seg = w.segment(Rank(0));
        for i in 0..10_000u64 {
            gasnex::amo::execute(seg, 0, AmoOp::Add, 1, 0, false);
            if i % 1000 == 0 {
                // Concurrent raw read must observe a value within range.
                let v = seg.read_u64(0);
                assert!(v <= 40_000);
            }
        }
        let team = w.world_team();
        w.barrier(&team, &mut || {
            w.poll_rank(me, 8);
        });
        assert_eq!(seg.read_u64(0), 40_000);
    });
}

#[test]
fn network_saturation_delivers_everything() {
    let w = World::new(
        GasnexConfig::udp(4, 2)
            .with_segment_size(1 << 16)
            .with_net(NetConfig {
                latency_ns: 500,
                jitter_ns: 1500,
                ..NetConfig::default()
            }),
    );
    const N: u64 = 2_000;
    static DELIVERED: AtomicU64 = AtomicU64::new(0);
    run_ranks(&w, |w, me| {
        if me == Rank(0) {
            for _ in 0..N {
                w.net_inject(Box::new(|_| {
                    DELIVERED.fetch_add(1, Ordering::Relaxed);
                }));
            }
        }
        let team = w.world_team();
        w.barrier(&team, &mut || {
            w.poll_rank(me, 64);
        });
        while w.net().pending() > 0 {
            w.poll_rank(me, 64);
            std::thread::yield_now();
        }
        w.barrier(&team, &mut || {
            w.poll_rank(me, 64);
        });
    });
    assert_eq!(DELIVERED.load(Ordering::Relaxed), N);
    assert_eq!(w.net().delivered(), N);
    assert_eq!(w.net().injected(), N);
}

#[test]
fn collectives_oversubscribed_stress() {
    // 16 ranks on (likely) far fewer cores: the yield-based waits must keep
    // hundreds of collectives cheap and correct.
    let w = World::new(GasnexConfig::smp(16).with_segment_size(1 << 12));
    run_ranks(&w, |w, me| {
        let team = w.world_team();
        for round in 0..100u64 {
            let sum = w.allreduce(
                &team,
                me,
                me.idx() as u64 + round,
                &|a, b| a + b,
                &mut || {
                    w.poll_rank(me, 8);
                },
            );
            assert_eq!(sum, (0..16).sum::<u64>() + 16 * round);
        }
        let local = w.local_team(me);
        for _ in 0..50 {
            w.barrier(&local, &mut || {
                w.poll_rank(me, 8);
            });
        }
    });
}

#[test]
fn token_deposits_racing_across_threads_never_lose_or_duplicate_tokens() {
    // The ready-queue MPSC every off-node delivery action feeds: K
    // producer threads each deposit a run of completion tokens into the
    // per-rank ReadyQueues with `World::deposit_token`, in order and under
    // seeded yield schedules, while one drainer per rank empties its queue
    // concurrently. Every token must surface exactly once, at its
    // designated rank, with each producer's per-rank subsequence in
    // deposit order, and the drainers must end with nothing queued.
    use graphgen::SeededRng;
    use std::sync::Mutex;

    const PRODUCERS: u64 = 4;
    const PER: u64 = 400;
    const RANKS: usize = 4;
    let w = World::new(GasnexConfig::smp(RANKS).with_segment_size(1 << 12));
    let rank_of = |token: u64| Rank((token % RANKS as u64) as u32);
    let producers_done = AtomicU64::new(0);
    let drained: Vec<Mutex<Vec<u64>>> = (0..RANKS).map(|_| Mutex::new(Vec::new())).collect();

    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let (w, producers_done) = (&w, &producers_done);
            s.spawn(move || {
                let mut yields = SeededRng::seed_from_u64(0x5EED ^ p);
                for token in p * PER..(p + 1) * PER {
                    w.deposit_token(rank_of(token), token, token);
                    if yields.below(4) == 0 {
                        std::thread::yield_now();
                    }
                }
                producers_done.fetch_add(1, Ordering::SeqCst);
            });
        }
        for rk in 0..RANKS {
            let (w, producers_done, drained) = (&w, &producers_done, &drained);
            s.spawn(move || {
                let me = Rank(rk as u32);
                let mut got = Vec::new();
                let mut buf = Vec::new();
                loop {
                    w.drain_ready(me, &mut buf);
                    got.append(&mut buf);
                    // Every deposit happens-before its producer's done
                    // bump, so once all producers are done an empty queue
                    // is final.
                    if producers_done.load(Ordering::SeqCst) == PRODUCERS && w.ready_queued(me) == 0
                    {
                        break;
                    }
                    std::thread::yield_now();
                }
                *drained[rk].lock().unwrap() = got;
            });
        }
    });

    let mut seen = std::collections::HashSet::new();
    let mut total = 0u64;
    for (rk, per_rank) in drained.iter().enumerate() {
        let got = per_rank.lock().unwrap();
        total += got.len() as u64;
        let mut last_per_producer = vec![None::<u64>; PRODUCERS as usize];
        for &token in got.iter() {
            assert_eq!(
                rank_of(token).idx(),
                rk,
                "token {token} surfaced at the wrong rank"
            );
            assert!(seen.insert(token), "token {token} delivered twice");
            let p = (token / PER) as usize;
            assert!(
                last_per_producer[p].is_none_or(|prev| prev < token),
                "producer {p}'s tokens out of deposit order at rank {rk}"
            );
            last_per_producer[p] = Some(token);
        }
    }
    assert_eq!(total, PRODUCERS * PER, "no token may be lost");
    for rk in 0..RANKS {
        assert_eq!(w.ready_queued(Rank(rk as u32)), 0);
    }
}

#[test]
fn per_rank_allocators_are_independent() {
    let w = World::new(GasnexConfig::smp(4).with_segment_size(1 << 14));
    run_ranks(&w, |w, me| {
        let alloc = w.seg_alloc(me);
        let mut offs = Vec::new();
        for _ in 0..100 {
            offs.push(alloc.alloc(64, 8).unwrap());
        }
        for o in offs {
            alloc.dealloc(o);
        }
        assert_eq!(alloc.live_blocks(), 0);
    });
    for r in 0..4 {
        assert_eq!(
            w.seg_alloc(Rank(r)).free_bytes(),
            w.seg_alloc(Rank(r)).capacity()
        );
    }
}
