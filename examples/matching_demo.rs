//! Graph-matching demo: generate each of the paper's five input stand-ins,
//! print its locality profile, solve distributed, and check the result
//! against the sequential greedy reference.
//!
//! Run with: `cargo run --release --example matching_demo`

use graphgen::{LocalityStats, Preset};
use matching::greedy;
use upcr::{launch, LibVersion, RuntimeConfig};

fn main() {
    let ranks = 4;
    let scale = 0.1;
    println!("half-approximate maximum-weight matching, {ranks} ranks, scale {scale}\n");
    for preset in Preset::ALL {
        let g = preset.generate(scale);
        let loc = LocalityStats::measure(&g, ranks, ranks);
        let seq = greedy(&g);

        let rt = RuntimeConfig::udp(ranks, ranks)
            .with_version(LibVersion::V2021_3_6Eager)
            .with_segment_size(1 << 22);
        let (run, m) = {
            let out = launch(rt, |u| matching::run(u, &g));
            out.into_iter().next().unwrap()
        };
        m.validate(&g);
        m.assert_maximal(&g);
        assert_eq!(m.mate, seq.mate, "distributed result must equal greedy");

        println!(
            "{:<10} |V|={:>7} |E|={:>8}  [{loc}]",
            preset.name(),
            g.n,
            g.edges()
        );
        println!(
            "           matched {} edges, weight {:.2} (== greedy), {} rounds, {:.1}ms solve, \
             {} local reads, {} RMA reads\n",
            run.matched,
            run.weight,
            run.stats.rounds,
            run.seconds * 1e3,
            run.stats.local_reads,
            run.stats.rma_reads
        );
    }
}
