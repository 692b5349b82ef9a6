//! Seeded workload inputs.
//!
//! The seed is the only source of variation: it picks the op sequence, the
//! target words and their initial values, and the HPCC stream position.
//! The program under test receives only the generated inputs.

use crate::Workload;

/// One step of the splitmix64 generator: the benchmark's only randomness.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded stream of `u64`s.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, salt: u64) -> Rng {
        Rng(splitmix64(seed ^ splitmix64(salt)))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The operations the workloads issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `rput` of a value (value-less completion).
    Put,
    /// `rget` (value-carrying completion).
    Get,
    /// One-word `copy` from the target into a local result word (value-less).
    GetInto,
    /// Non-fetching atomic add (value-less).
    Add,
    /// Fetching atomic add, prior value in the completion.
    FetchAdd,
    /// Fetching atomic add, prior value written to a local result word.
    FetchAddInto,
    /// Non-fetching atomic XOR (value-less).
    Xor,
}

/// The six ops of Figs 2–4: four value-less kinds to two value-carrying.
const FIG2_KINDS: [Kind; 6] = [
    Kind::Put,
    Kind::Get,
    Kind::GetInto,
    Kind::Add,
    Kind::FetchAdd,
    Kind::FetchAddInto,
];

/// The off-node round-trip mix of `remote-udp`.
const UDP_KINDS: [Kind; 4] = [Kind::Put, Kind::Get, Kind::Add, Kind::FetchAdd];

/// The `remote-batch` mix: puts and XORs into one region, gets from words
/// fixed at setup.
const BATCH_KINDS: [Kind; 3] = [Kind::Put, Kind::Xor, Kind::GetInto];

/// One operation: its kind, target word index, and operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub word: u32,
    pub val: u64,
}

/// Inputs of the one-in-flight workloads (`local-ops`, `remote-udp`):
/// rank 0 cycles through `ops` against rank 1's `init.len()` words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SingleFlight {
    pub init: Vec<u64>,
    pub ops: Vec<Op>,
}

/// Inputs of `gups`: the HPCC stream position each rank starts from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GupsStart {
    pub base: i64,
}

/// Spacing between the stream slices of consecutive (launch, rank) pairs,
/// far beyond the updates one rank performs in a launch.
const GUPS_SLICE: i64 = 1 << 36;

impl GupsStart {
    /// Stream position of `rank` in launch `launch` (each launch starts a
    /// fresh table, so each gets a fresh slice of the stream).
    pub fn start(&self, rank: usize, launch: u64) -> i64 {
        self.base + (launch as i64 * 2 + rank as i64) * GUPS_SLICE
    }
}

/// Inputs of `remote-batch`: per rank, a cycle of 256-op batches into the
/// peer's write region (distinct words within a batch, so the final image
/// does not depend on delivery order) and the peer's read-only words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchSet {
    pub seed: u64,
    pub batches: [Vec<Vec<Op>>; 2],
}

/// Words each rank exposes for its peer's puts and XORs.
pub const WRITE_WORDS: usize = 4096;
/// Words each rank fixes at setup for its peer's gets.
pub const READ_WORDS: usize = 1024;
/// Ops per batch (`gups` and `remote-batch`), as in the paper's GUPS.
pub const BATCH: usize = 256;

impl BatchSet {
    /// The value `rank` stores in read-only word `i` at setup.
    pub fn ro_value(&self, rank: usize, i: usize) -> u64 {
        splitmix64(self.seed ^ ((rank as u64) << 40) ^ (i as u64) ^ 0x5EED_0F2E_AD00)
    }
}

/// Every workload's generated inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inputs {
    Single(SingleFlight),
    Gups(GupsStart),
    Batch(BatchSet),
}

/// Words of rank 1 the one-in-flight workloads target.
const TARGET_WORDS: usize = 64;
/// Length of the cycled op sequence of the one-in-flight workloads.
const SEQ_LEN: usize = 4096;
/// Batches in one rank's `remote-batch` cycle.
const BATCH_CYCLE: usize = 32;

impl Inputs {
    /// Generate `w`'s inputs from `seed`.
    pub fn new(w: Workload, seed: u64) -> Inputs {
        match w {
            Workload::LocalOps => Inputs::Single(single(seed, &FIG2_KINDS)),
            Workload::RemoteUdp => Inputs::Single(single(seed, &UDP_KINDS)),
            Workload::Gups => Inputs::Gups(GupsStart {
                base: (Rng::new(seed, 3).next() >> 24) as i64,
            }),
            Workload::RemoteBatch => Inputs::Batch(BatchSet {
                seed,
                batches: [batches(seed, 0), batches(seed, 1)],
            }),
        }
    }
}

fn operand(rng: &mut Rng, kind: Kind) -> u64 {
    match kind {
        Kind::Add | Kind::FetchAdd | Kind::FetchAddInto => 1 + rng.below(1000) as u64,
        _ => rng.next(),
    }
}

fn single(seed: u64, kinds: &[Kind]) -> SingleFlight {
    let mut rng = Rng::new(seed, 1);
    let init = (0..TARGET_WORDS).map(|_| rng.next()).collect();
    let ops = (0..SEQ_LEN)
        .map(|_| {
            let kind = kinds[rng.below(kinds.len())];
            Op {
                kind,
                word: rng.below(TARGET_WORDS) as u32,
                val: operand(&mut rng, kind),
            }
        })
        .collect();
    SingleFlight { init, ops }
}

fn batches(seed: u64, rank: u64) -> Vec<Vec<Op>> {
    let mut rng = Rng::new(seed, 2 + (rank << 8));
    let mut perm: Vec<u32> = (0..WRITE_WORDS as u32).collect();
    (0..BATCH_CYCLE)
        .map(|_| {
            // Partial Fisher-Yates: the batch's write targets are distinct.
            for i in 0..BATCH {
                let j = i + rng.below(WRITE_WORDS - i);
                perm.swap(i, j);
            }
            (0..BATCH)
                .map(|i| {
                    let kind = BATCH_KINDS[rng.below(BATCH_KINDS.len())];
                    let word = match kind {
                        Kind::GetInto => rng.below(READ_WORDS) as u32,
                        _ => perm[i],
                    };
                    Op {
                        kind,
                        word,
                        val: operand(&mut rng, kind),
                    }
                })
                .collect()
        })
        .collect()
}
