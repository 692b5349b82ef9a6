//! Cross-crate integration: the full stack (gasnex → upcr → applications)
//! exercised through the public API, the way the benchmarks use it.

use graphgen::{LocalityStats, Preset};
use gups::{GupsConfig, Variant};
use upcr::{launch, LibVersion, RuntimeConfig};

#[test]
fn gups_all_variants_all_versions_smoke() {
    let cfg = GupsConfig {
        log2_table: 12,
        updates_per_word: 2,
        batch: 32,
        verify: true,
    };
    for variant in Variant::ALL {
        for version in LibVersion::ALL {
            let r = gups::benchmark(2, version, &cfg, variant);
            assert!(r.seconds > 0.0);
            assert_eq!(r.updates, cfg.total_updates());
            // Atomics exact; racy variants bounded.
            match variant {
                Variant::AmoPromise | Variant::AmoFuture => {
                    assert_eq!(r.errors, 0, "{version} {}", variant.name())
                }
                _ => assert!(r.error_rate() < 0.25, "{version} {}", variant.name()),
            }
        }
    }
}

#[test]
fn matching_presets_equal_greedy_end_to_end() {
    for preset in Preset::ALL {
        let g = preset.generate(0.02);
        let seq = matching::greedy(&g);
        let r = matching::benchmark(4, LibVersion::V2021_3_6Eager, &g);
        assert_eq!(r.matched, seq.edges(), "{}", preset.name());
        assert!((r.weight - seq.weight).abs() < 1e-9, "{}", preset.name());
    }
}

#[test]
fn matching_rma_read_mix_tracks_locality() {
    // The fraction of RMA (vs manually-localized) reads in the solver must
    // follow the input's locality profile — this is the mechanism behind
    // the Figure 8 speedup ordering.
    let mut fractions = Vec::new();
    for preset in [Preset::Channel, Preset::Youtube] {
        let g = preset.generate(0.05);
        let rt = RuntimeConfig::udp(4, 4).with_segment_size(1 << 22);
        let stats = launch(rt, |u| matching::run(u, &g).0.stats);
        let s = stats[0];
        let frac = s.rma_reads as f64 / (s.rma_reads + s.local_reads).max(1) as f64;
        fractions.push((preset, frac));
    }
    let channel = fractions[0].1;
    let youtube = fractions[1].1;
    assert!(
        youtube > channel + 0.3,
        "youtube RMA fraction {youtube:.2} must far exceed channel {channel:.2}"
    );
}

#[test]
fn locality_stats_consistent_with_simulated_topology() {
    // graphgen's static locality measurement and the runtime's dynamic
    // addressability must agree.
    let g = Preset::Random.generate(0.02);
    let ranks = 4;
    let stats = LocalityStats::measure(&g, ranks, 2);
    assert!(
        stats.cross_node > 0.0,
        "two simulated nodes must split some edges"
    );
    let single = LocalityStats::measure(&g, ranks, ranks);
    assert_eq!(single.cross_node, 0.0);
    assert!(
        (single.same_rank - stats.same_rank).abs() < 1e-12,
        "rank split independent of nodes"
    );
}

#[test]
fn paper_claims_hold_structurally() {
    // The paper's qualitative claims, checked via runtime statistics
    // rather than timing (timing shapes are the bench harness's job).
    let cfg_ranks = 2;
    // 1. Eager local RMA: no cell allocation, no deferred traffic.
    launch(
        RuntimeConfig::smp(cfg_ranks).with_version(LibVersion::V2021_3_6Eager),
        |u| {
            let p = u.new_::<u64>(0);
            u.reset_stats();
            for i in 0..100 {
                u.rput(i, p).wait();
            }
            let s = u.stats();
            assert_eq!(s.cell_allocs, 0);
            assert_eq!(s.deferred_enqueued, 0);
            assert_eq!(s.eager_notifications, 100);
            u.barrier();
        },
    );
    // 2. Deferred local RMA: one cell + one queue entry per op.
    launch(
        RuntimeConfig::smp(cfg_ranks).with_version(LibVersion::V2021_3_6Defer),
        |u| {
            let p = u.new_::<u64>(0);
            u.reset_stats();
            for i in 0..100 {
                u.rput(i, p).wait();
            }
            let s = u.stats();
            assert_eq!(s.cell_allocs, 100);
            assert_eq!(s.deferred_enqueued, 100);
            u.barrier();
        },
    );
    // 3. 2021.3.0 adds the extra allocation on top.
    launch(
        RuntimeConfig::smp(cfg_ranks).with_version(LibVersion::V2021_3_0),
        |u| {
            let p = u.new_::<u64>(0);
            u.reset_stats();
            for i in 0..100 {
                u.rput(i, p).wait();
            }
            assert_eq!(u.stats().legacy_extra_allocs, 100);
            u.barrier();
        },
    );
    // 4. Off-node operations never notify eagerly, in any version.
    launch(
        RuntimeConfig::udp(2, 1).with_version(LibVersion::V2021_3_6Eager),
        |u| {
            let mine = u.new_::<u64>(0);
            let ptrs: Vec<_> = (0..2).map(|r| u.broadcast(mine, r)).collect();
            u.reset_stats();
            if u.rank_me() == 0 {
                let f = u.rput(1, ptrs[1]);
                assert!(!f.is_ready());
                f.wait();
                let s = u.stats();
                assert_eq!(s.eager_notifications, 0);
                assert_eq!(s.net_injected, 1);
            }
            u.barrier();
        },
    );
}

#[test]
fn hpcc_rng_is_the_specified_stream() {
    // Spot values from the recurrence itself plus positional consistency.
    use gups::rng::{next, starts};
    let mut v = 1u64;
    for _ in 0..64 {
        v = next(v);
    }
    assert_eq!(starts(64), v);
    // The stream visits both halves of the index space quickly.
    let mask = (1u64 << 20) - 1;
    let mut high = false;
    let mut low = false;
    let mut r = starts(0);
    for _ in 0..1000 {
        r = next(r);
        if r & mask > mask / 2 {
            high = true;
        } else {
            low = true;
        }
    }
    assert!(high && low);
}

#[test]
fn umbrella_reexports_work() {
    // The root crate exposes the full stack.
    let _ = eager_notify::upcr::LibVersion::ALL;
    let g = eager_notify::graphgen::mesh3d(3, 3, 3);
    assert_eq!(g.n, 27);
    let _ = eager_notify::gups::GupsConfig::default();
}
