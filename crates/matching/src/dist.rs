//! Distributed locally-dominant half-approximate maximum-weight matching.
//!
//! The algorithm of the ExaGraph application (Manne–Bisseling pointer
//! matching, as in Ghosh et al.'s MPI/UPC++ implementations): vertices are
//! block-partitioned over ranks; each round every active vertex proposes to
//! its best *available* neighbor under the global edge order, and mutual
//! proposals become matches. Availability and proposals live in shared
//! segments; reading a non-owned vertex's state is a one-sided RMA
//! operation. As in the application, **same-rank targets are manually
//! optimized** (direct segment access) while targets on other ranks —
//! co-located or not — go through the runtime's RMA path, the path the
//! paper's eager notifications accelerate (§IV-C).
//!
//! With the strict edge order of
//! [`crate::sequential::edge_beats`], the result equals the
//! sequential greedy matching exactly.

use std::sync::atomic::Ordering;

use graphgen::{BlockPartition, Graph};
use upcr::{operation_cx, GlobalPtr, Promise, Upcr};

use crate::sequential::{edge_beats, Matching, UNMATCHED};

/// Shared-state encoding: vertex is unmatched and available.
const AVAILABLE: u64 = u64::MAX;
/// Vertex can never be matched (all neighbors taken).
const DEAD: u64 = u64::MAX - 1;
/// No current proposal.
const NO_CAND: u64 = u64::MAX;

/// How many remote reads are batched on one promise per round.
const READ_BATCH: usize = 512;

/// Statistics from a distributed solve, per rank.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    /// Rounds until global quiescence.
    pub rounds: usize,
    /// Vertex-state reads answered by direct (same-rank) access.
    pub local_reads: u64,
    /// Vertex-state reads issued as RMA operations.
    pub rma_reads: u64,
}

/// The per-rank distributed matcher state.
pub struct DistMatcher<'g> {
    g: &'g Graph,
    part: BlockPartition,
    me: usize,
    range: std::ops::Range<usize>,
    /// All ranks' mate arrays (shared segments).
    mate_bases: Vec<GlobalPtr<u64>>,
    /// All ranks' proposal arrays.
    cand_bases: Vec<GlobalPtr<u64>>,
    /// Scratch block for batched remote reads.
    scratch: GlobalPtr<u64>,
    /// Per owned vertex: neighbors sorted best-first under the edge order.
    nbrs: Vec<Vec<(u32, f64)>>,
    /// Per owned vertex: position in its neighbor list.
    cursor: Vec<usize>,
    /// Local knowledge: vertex known matched/dead (never un-dies).
    known_dead: Vec<bool>,
}

impl<'g> DistMatcher<'g> {
    /// Collectively set up shared state for `g` on the current runtime.
    pub fn new(u: &Upcr, g: &'g Graph) -> Self {
        let part = BlockPartition::new(g.n, u.rank_n());
        let me = u.rank_me();
        let range = part.range(me);
        let local_len = range.len().max(1);
        let mate = u.new_array::<u64>(local_len);
        let cand = u.new_array::<u64>(local_len);
        let mate_words = u.local_slice_u64(mate, local_len);
        let cand_words = u.local_slice_u64(cand, local_len);
        for w in mate_words {
            w.store(AVAILABLE, Ordering::Relaxed);
        }
        for w in cand_words {
            w.store(NO_CAND, Ordering::Relaxed);
        }
        let mate_bases = (0..u.rank_n()).map(|r| u.broadcast(mate, r)).collect();
        let cand_bases = (0..u.rank_n()).map(|r| u.broadcast(cand, r)).collect();
        let scratch = u.new_array::<u64>(READ_BATCH);

        // Sort each owned vertex's neighbors best-first under the global
        // edge order (descending edge_beats).
        let mut nbrs = Vec::with_capacity(range.len());
        for v in range.clone() {
            let mut list: Vec<(u32, f64)> = g.neighbors(v).collect();
            let v32 = v as u32;
            list.sort_by(|&(a, wa), &(b, wb)| {
                if edge_beats(wa, v32, a, wb, v32, b) {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Greater
                }
            });
            nbrs.push(list);
        }
        u.barrier();
        DistMatcher {
            g,
            part,
            me,
            range: range.clone(),
            mate_bases,
            cand_bases,
            scratch,
            nbrs,
            cursor: vec![0; range.len()],
            known_dead: vec![false; g.n],
        }
    }

    #[inline]
    fn mate_gptr(&self, v: usize) -> GlobalPtr<u64> {
        self.mate_bases[self.part.owner(v)].add(self.part.local_index(v))
    }

    #[inline]
    fn cand_gptr(&self, v: usize) -> GlobalPtr<u64> {
        self.cand_bases[self.part.owner(v)].add(self.part.local_index(v))
    }

    /// Read a batch of shared words; same-rank words directly, others via
    /// one-sided copies into scratch tracked by a single promise. The
    /// results land in `out`, aligned with `targets`.
    fn read_words(
        &self,
        u: &Upcr,
        targets: &[GlobalPtr<u64>],
        out: &mut Vec<u64>,
        stats: &mut SolveStats,
    ) {
        out.clear();
        out.resize(targets.len(), 0);
        let scratch_words = u.local_slice_u64(self.scratch, READ_BATCH);
        let mut base = 0;
        while base < targets.len() {
            let chunk = (targets.len() - base).min(READ_BATCH);
            let p = Promise::new();
            let mut remote_slots: Vec<usize> = Vec::new();
            for (k, &t) in targets[base..base + chunk].iter().enumerate() {
                if t.rank().idx() == self.me {
                    // The application's manual same-process optimization.
                    stats.local_reads += 1;
                    out[base + k] = u.local(t).get();
                } else {
                    // Co-located or remote process: RMA.
                    stats.rma_reads += 1;
                    u.copy_with(
                        t,
                        self.scratch.add(remote_slots.len()),
                        1,
                        operation_cx::as_promise(&p),
                    );
                    remote_slots.push(base + k);
                }
            }
            p.finalize().wait();
            for (slot, &idx) in remote_slots.iter().enumerate() {
                out[idx] = scratch_words[slot].load(Ordering::Relaxed);
            }
            base += chunk;
        }
    }

    /// Run the solve loop to global quiescence; returns per-rank stats.
    pub fn solve(&mut self, u: &Upcr) -> SolveStats {
        let mut stats = SolveStats::default();
        let mate_words = u.local_slice_u64(self.mate_bases[self.me], self.range.len().max(1));
        let cand_words = u.local_slice_u64(self.cand_bases[self.me], self.range.len().max(1));
        // Active = owned, unmatched, not dead.
        let mut active: Vec<usize> = (0..self.range.len()).collect();
        let mut targets: Vec<GlobalPtr<u64>> = Vec::new();
        let mut owners: Vec<usize> = Vec::new();
        let mut results: Vec<u64> = Vec::new();
        loop {
            stats.rounds += 1;

            // ---- Phase A: propose to the best available neighbor --------
            // Iterate until every active vertex has an apparently-available
            // candidate or is dead (availability knowledge may lag a round;
            // that only costs an extra round, never correctness).
            let mut unsettled: Vec<usize> = active.clone();
            while !unsettled.is_empty() {
                targets.clear();
                owners.clear();
                let mut next_unsettled = Vec::new();
                for &lv in &unsettled {
                    // Advance past neighbors known to be taken.
                    loop {
                        match self.nbrs[lv].get(self.cursor[lv]).copied() {
                            None => {
                                // No available neighbor can exist: retire.
                                mate_words[lv].store(DEAD, Ordering::Relaxed);
                                self.known_dead[self.range.start + lv] = true;
                                break;
                            }
                            Some((nb, _)) if self.known_dead[nb as usize] => {
                                self.cursor[lv] += 1;
                            }
                            Some((nb, _)) => {
                                let nb = nb as usize;
                                if self.part.owner(nb) == self.me {
                                    stats.local_reads += 1;
                                    let state = u.local(self.mate_gptr(nb)).get();
                                    if state == AVAILABLE {
                                        cand_words[lv].store(nb as u64, Ordering::Relaxed);
                                        break;
                                    }
                                    self.known_dead[nb] = true;
                                    self.cursor[lv] += 1;
                                } else {
                                    targets.push(self.mate_gptr(nb));
                                    owners.push(lv);
                                    break;
                                }
                            }
                        }
                    }
                }
                if targets.is_empty() {
                    break;
                }
                // Batched RMA reads of candidate availability.
                let mut remote_out = Vec::new();
                self.read_remote_only(u, &targets, &mut remote_out, &mut stats);
                for (i, &lv) in owners.iter().enumerate() {
                    let nb = self.nbrs[lv][self.cursor[lv]].0 as usize;
                    if remote_out[i] == AVAILABLE {
                        cand_words[lv].store(nb as u64, Ordering::Relaxed);
                    } else {
                        self.known_dead[nb] = true;
                        self.cursor[lv] += 1;
                        next_unsettled.push(lv);
                    }
                }
                unsettled = next_unsettled;
            }
            // Drop vertices that died in phase A.
            active.retain(|&lv| mate_words[lv].load(Ordering::Relaxed) == AVAILABLE);
            u.barrier();

            // ---- Phase B: mutual proposals become matches ----------------
            targets.clear();
            owners.clear();
            for &lv in &active {
                let cand = cand_words[lv].load(Ordering::Relaxed);
                debug_assert_ne!(cand, NO_CAND);
                targets.push(self.cand_gptr(cand as usize));
                owners.push(lv);
            }
            self.read_words(u, &targets, &mut results, &mut stats);
            let mut matched_now = 0u64;
            for (i, &lv) in owners.iter().enumerate() {
                let v = self.range.start + lv;
                let cand = cand_words[lv].load(Ordering::Relaxed);
                if results[i] == v as u64 {
                    // Mutual: both owners record the match for their side.
                    mate_words[lv].store(cand, Ordering::Relaxed);
                    self.known_dead[v] = true;
                    self.known_dead[cand as usize] = true;
                    matched_now += 1;
                }
            }
            u.barrier();
            active.retain(|&lv| mate_words[lv].load(Ordering::Relaxed) == AVAILABLE);

            let global_active = u.allreduce_sum_u64(active.len() as u64);
            let _ = matched_now;
            if global_active == 0 {
                break;
            }
        }
        stats
    }

    /// Batched RMA-only reads (callers pre-filtered same-rank targets).
    fn read_remote_only(
        &self,
        u: &Upcr,
        targets: &[GlobalPtr<u64>],
        out: &mut Vec<u64>,
        stats: &mut SolveStats,
    ) {
        out.clear();
        out.resize(targets.len(), 0);
        let scratch_words = u.local_slice_u64(self.scratch, READ_BATCH);
        let mut base = 0;
        while base < targets.len() {
            let chunk = (targets.len() - base).min(READ_BATCH);
            let p = Promise::new();
            for (k, &t) in targets[base..base + chunk].iter().enumerate() {
                stats.rma_reads += 1;
                u.copy_with(t, self.scratch.add(k), 1, operation_cx::as_promise(&p));
            }
            p.finalize().wait();
            for k in 0..chunk {
                out[base + k] = scratch_words[k].load(Ordering::Relaxed);
            }
            base += chunk;
        }
    }

    /// Gather the complete matching onto the calling rank. Call after
    /// [`solve`](Self::solve); identical on every rank. Uses direct access
    /// for addressable segments (single-node runs) and RMA otherwise.
    pub fn gather(&self, u: &Upcr) -> Matching {
        let mut mate = vec![UNMATCHED; self.g.n];
        let mut weight = 0.0;
        #[allow(clippy::needless_range_loop)]
        for v in 0..self.g.n {
            let gp = self.mate_gptr(v);
            let state = if u.is_local(gp) {
                u.local(gp).get()
            } else {
                u.rget(gp).wait()
            };
            if state != AVAILABLE && state != DEAD {
                mate[v] = state as u32;
                if v < state as usize {
                    weight += self
                        .g
                        .edge_weight(v, state as usize)
                        .expect("matched pair is not an edge");
                }
            }
        }
        Matching { mate, weight }
    }

    /// Collectively release the shared arrays.
    pub fn free(&self, u: &Upcr) {
        u.barrier();
        u.delete_(self.mate_bases[self.me]);
        u.delete_(self.cand_bases[self.me]);
        u.delete_(self.scratch);
        u.barrier();
    }
}
