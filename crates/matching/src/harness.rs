//! Timed solve runs over the runtime, for the Figure 8 reproduction.

use std::time::Instant;

use graphgen::{Graph, Preset};
use upcr::{launch, LibVersion, RuntimeConfig, Upcr};

use crate::dist::{DistMatcher, SolveStats};

/// Result of one distributed matching run.
#[derive(Clone, Copy, Debug)]
pub struct MatchRun {
    /// Wall time of the solve step (slowest rank), seconds — the paper's
    /// Figure 8 metric.
    pub seconds: f64,
    /// Total matched edge weight.
    pub weight: f64,
    /// Number of matched edges.
    pub matched: usize,
    /// Solve statistics from rank 0.
    pub stats: SolveStats,
}

/// Run the distributed solve inside an active SPMD region; returns the
/// timing (identical on every rank) and this rank's gathered matching.
pub fn run(u: &Upcr, g: &Graph) -> (MatchRun, crate::sequential::Matching) {
    let mut matcher = DistMatcher::new(u, g);
    u.barrier();
    let t0 = Instant::now();
    let stats = matcher.solve(u);
    u.barrier();
    let seconds = f64::from_bits(u.allreduce_max_u64(t0.elapsed().as_secs_f64().to_bits()));
    let m = matcher.gather(u);
    matcher.free(u);
    (
        MatchRun {
            seconds,
            weight: m.weight,
            matched: m.edges(),
            stats,
        },
        m,
    )
}

/// Launch a fresh single-node runtime over the UDP conduit (the paper ran
/// this application on the MPI conduit; no code here depends on which)
/// and solve `g` under the given version.
pub fn benchmark(ranks: usize, version: LibVersion, g: &Graph) -> MatchRun {
    // Segment: two u64 words per owned vertex, plus scratch and slack.
    let per_rank_vertices = g.n.div_ceil(ranks);
    let seg = ((per_rank_vertices * 16 + 64 * 1024).next_power_of_two()).max(1 << 16);
    let rt = RuntimeConfig::udp(ranks, ranks)
        .with_version(version)
        .with_segment_size(seg);
    let results = launch(rt, |u| run(u, g).0);
    results[0]
}

/// Convenience: benchmark a paper preset at the given scale.
pub fn benchmark_preset(ranks: usize, version: LibVersion, preset: Preset, scale: f64) -> MatchRun {
    let g = preset.generate(scale);
    benchmark(ranks, version, &g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::greedy;

    #[test]
    fn distributed_equals_greedy_on_presets() {
        for preset in [Preset::Channel, Preset::Youtube] {
            let g = preset.generate(0.02);
            let seq = greedy(&g);
            let rt = RuntimeConfig::udp(4, 4).with_segment_size(1 << 20);
            let runs = launch(rt, |u| {
                let (_, m) = run(u, &g);
                m.validate(&g);
                m.assert_maximal(&g);
                m
            });
            for m in runs {
                assert_eq!(m.mate, seq.mate, "{}: distributed != greedy", preset.name());
                assert!((m.weight - seq.weight).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn distributed_equals_greedy_small_graphs() {
        for seed in 0..5 {
            let g = graphgen::powerlaw(200, 3, seed);
            let seq = greedy(&g);
            let rt = RuntimeConfig::udp(8, 8).with_segment_size(1 << 18);
            let m = launch(rt, |u| run(u, &g).1);
            assert_eq!(m[0].mate, seq.mate, "seed {seed}");
        }
    }

    #[test]
    fn works_across_simulated_nodes() {
        let g = graphgen::mesh2d_irregular(20, 20, 0.1, 3);
        let seq = greedy(&g);
        // 4 ranks on 2 simulated nodes: cross-node reads take the network.
        let rt = RuntimeConfig::udp(4, 2).with_segment_size(1 << 18);
        let m = launch(rt, |u| run(u, &g).1);
        assert_eq!(m[0].mate, seq.mate);
    }

    #[test]
    fn all_versions_agree() {
        let g = graphgen::knn(400, 4, 11);
        let seq = greedy(&g);
        for version in LibVersion::ALL {
            let r = benchmark(4, version, &g);
            assert!(
                (r.weight - seq.weight).abs() < 1e-9,
                "{version}: weight mismatch"
            );
            assert_eq!(r.matched, seq.edges());
            assert!(r.stats.rounds > 0);
        }
    }

    #[test]
    fn single_rank_matches() {
        let g = graphgen::geometric(500, 8.0, 10, 2);
        let seq = greedy(&g);
        let r = benchmark(1, LibVersion::V2021_3_6Eager, &g);
        assert!((r.weight - seq.weight).abs() < 1e-9);
    }
}
