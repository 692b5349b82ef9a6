//! Message-driven distributed matching — the "MPI-style" baseline.
//!
//! The ExaGraph application began as an MPI code (Ghosh et al. \[15\] in the
//! paper) whose UPC++ RMA port the paper measures; the paper notes the two
//! perform comparably. This module implements the message-passing flavor:
//! instead of *reading* neighbor state with one-sided operations, ranks
//! exchange explicit protocol messages (via `rpc_ff` active messages) —
//! REQUEST (I propose to you), MATCH (mutual, we are paired), and REJECT
//! (I am taken; advance your pointer).
//!
//! Both implementations compute exactly the greedy matching under the same
//! edge order, which the tests assert; the benchmark harness can compare
//! their communication profiles.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use graphgen::{BlockPartition, Graph};
use upcr::{Rank, Upcr};

use crate::sequential::{edge_beats, Matching, UNMATCHED};

/// Protocol messages between vertex owners.
#[derive(Clone, Copy, Debug)]
enum Msg {
    /// `from` proposes to `to` (both global vertex ids).
    Request { from: u32, to: u32 },
    /// `from` accepts `to`'s proposal: the edge is matched.
    Accept { from: u32, to: u32 },
    /// `from` is no longer available; `to` must re-propose elsewhere.
    Reject { from: u32, to: u32 },
}

thread_local! {
    /// Per-rank inbox, filled by incoming active messages.
    static INBOX: RefCell<VecDeque<Msg>> = const { RefCell::new(VecDeque::new()) };
    /// Messages consumed on this rank (for termination detection).
    static CONSUMED: AtomicU64 = const { AtomicU64::new(0) };
}

/// Per-rank matcher state for the message-passing algorithm.
struct MpState {
    part: BlockPartition,
    me: usize,
    range: std::ops::Range<usize>,
    /// Sorted candidate lists (best-first), as in the RMA matcher.
    nbrs: Vec<Vec<(u32, f64)>>,
    cursor: Vec<usize>,
    /// mate[global vertex] for owned vertices only (indexed locally).
    mate: Vec<u32>,
    /// Vertices that proposed to an owned vertex and await a verdict.
    pending_in: Vec<Vec<u32>>,
    /// Messages sent by this rank (termination detection).
    sent: u64,
}

/// Statistics from a message-passing solve.
#[derive(Clone, Copy, Debug, Default)]
pub struct MpStats {
    /// Protocol messages sent by this rank.
    pub messages: u64,
    /// Progress rounds until quiescence.
    pub rounds: usize,
}

impl MpState {
    fn new(u: &Upcr, g: &Graph) -> Self {
        let part = BlockPartition::new(g.n, u.rank_n());
        let me = u.rank_me();
        let range = part.range(me);
        let mut nbrs = Vec::with_capacity(range.len());
        for v in range.clone() {
            let v32 = v as u32;
            let mut list: Vec<(u32, f64)> = g.neighbors(v).collect();
            list.sort_by(|&(a, wa), &(b, wb)| {
                if edge_beats(wa, v32, a, wb, v32, b) {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Greater
                }
            });
            nbrs.push(list);
        }
        MpState {
            part,
            me,
            range: range.clone(),
            nbrs,
            cursor: vec![0; range.len()],
            mate: vec![UNMATCHED; range.len()],
            pending_in: vec![Vec::new(); range.len()],
            sent: 0,
        }
    }

    #[inline]
    fn local(&self, v: u32) -> usize {
        v as usize - self.range.start
    }

    /// The current best-candidate of an owned vertex, if any.
    fn candidate(&self, v: u32) -> Option<u32> {
        self.nbrs[self.local(v)]
            .get(self.cursor[self.local(v)])
            .map(|&(u, _)| u)
    }

    fn send(&mut self, u: &Upcr, msg: Msg) {
        let to = match msg {
            Msg::Request { to, .. } | Msg::Accept { to, .. } | Msg::Reject { to, .. } => to,
        };
        let owner = self.part.owner(to as usize);
        self.sent += 1;
        if owner == self.me {
            INBOX.with(|q| q.borrow_mut().push_back(msg));
        } else {
            u.rpc_ff(Rank(owner as u32), move || {
                INBOX.with(|q| q.borrow_mut().push_back(msg));
            });
        }
    }

    /// Send the initial (or re-) proposal of owned vertex `v`.
    fn propose(&mut self, u: &Upcr, v: u32) {
        if let Some(c) = self.candidate(v) {
            self.send(u, Msg::Request { from: v, to: c });
        }
        // A vertex with an exhausted list is dead; nothing to do — any
        // pending proposals to it are rejected when processed.
    }

    /// Record a match for owned vertex `v` with partner `p`, rejecting all
    /// other suitors.
    fn set_mate(&mut self, u: &Upcr, v: u32, p: u32) {
        let lv = self.local(v);
        self.mate[lv] = p;
        let suitors = std::mem::take(&mut self.pending_in[lv]);
        for s in suitors {
            if s != p {
                self.send(u, Msg::Reject { from: v, to: s });
            }
        }
    }

    /// Process one message addressed to an owned vertex.
    fn handle(&mut self, u: &Upcr, msg: Msg) {
        match msg {
            Msg::Request { from, to } => {
                let lv = self.local(to);
                if self.mate[lv] != UNMATCHED {
                    self.send(u, Msg::Reject { from: to, to: from });
                    return;
                }
                if self.candidate(to) == Some(from) {
                    // Mutual preference: accept and match.
                    self.set_mate(u, to, from);
                    self.send(u, Msg::Accept { from: to, to: from });
                } else {
                    // Remember the suitor; if our preferred choices fall
                    // through we may come back to it (when our cursor
                    // reaches `from` we will propose to it ourselves).
                    self.pending_in[lv].push(from);
                }
            }
            Msg::Accept { from, to } => {
                // Our proposal was accepted. Crossing accepts (both sides
                // matched via each other's Request) make this a no-op.
                if self.mate[self.local(to)] == UNMATCHED {
                    debug_assert_eq!(self.candidate(to), Some(from));
                    self.set_mate(u, to, from);
                }
            }
            Msg::Reject { from, to } => {
                let lv = self.local(to);
                if self.mate[lv] != UNMATCHED {
                    return; // already matched elsewhere; stale reject
                }
                // Advance past `from` and re-propose. A reject for a
                // non-current candidate is stale (our proposal to it was
                // answered already and we moved on); ignore it — our
                // outstanding proposal to the current candidate still has a
                // pending verdict, so no progress is lost.
                if self.candidate(to) != Some(from) {
                    return;
                }
                self.cursor[lv] += 1;
                // If the new candidate already proposed to us, the edge is
                // mutually preferred right now: match on the spot.
                if let Some(c) = self.candidate(to) {
                    if self.pending_in[lv].contains(&c) {
                        self.set_mate(u, to, c);
                        self.send(u, Msg::Accept { from: to, to: c });
                        return;
                    }
                }
                self.propose(u, to);
            }
        }
    }
}

/// Solve by message passing; returns the gathered matching (identical on
/// every rank) and this rank's statistics.
pub fn solve_mp(u: &Upcr, g: &Graph) -> (Matching, MpStats) {
    INBOX.with(|q| q.borrow_mut().clear());
    CONSUMED.with(|c| c.store(0, Ordering::Relaxed));
    let mut st = MpState::new(u, g);
    u.barrier();

    // Initial proposals.
    for v in st.range.clone() {
        st.propose(u, v as u32);
    }

    // Drive to quiescence: drain inbox, then check global message balance.
    let mut stats = MpStats::default();
    loop {
        stats.rounds += 1;
        loop {
            u.progress(); // moves rpc_ff payloads into INBOX
            let Some(msg) = INBOX.with(|q| q.borrow_mut().pop_front()) else {
                break;
            };
            st.handle(u, msg);
            CONSUMED.with(|c| c.fetch_add(1, Ordering::Relaxed));
        }
        let sent = u.allreduce_sum_u64(st.sent);
        let consumed = u.allreduce_sum_u64(CONSUMED.with(|c| c.load(Ordering::Relaxed)));
        if sent == consumed {
            break;
        }
        std::thread::yield_now();
    }
    stats.messages = st.sent;

    // Publish results into shared memory for gathering.
    let local_len = st.range.len().max(1);
    let arr = u.new_array::<u64>(local_len);
    for (i, &m) in st.mate.iter().enumerate() {
        u.local(arr.add(i))
            .set(if m == UNMATCHED { u64::MAX } else { m as u64 });
    }
    let bases: Vec<_> = (0..u.rank_n()).map(|r| u.broadcast(arr, r)).collect();
    u.barrier();
    let mut mate = vec![UNMATCHED; g.n];
    let mut weight = 0.0;
    let part = BlockPartition::new(g.n, u.rank_n());
    #[allow(clippy::needless_range_loop)]
    for v in 0..g.n {
        let owner = part.owner(v);
        let gp = bases[owner].add(part.local_index(v));
        let raw = if u.is_local(gp) {
            u.local(gp).get()
        } else {
            u.rget(gp).wait()
        };
        if raw != u64::MAX {
            mate[v] = raw as u32;
            if v < raw as usize {
                weight += g.edge_weight(v, raw as usize).expect("matched non-edge");
            }
        }
    }
    u.barrier();
    u.delete_(arr);
    u.barrier();
    (Matching { mate, weight }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::greedy;
    use upcr::{launch, RuntimeConfig};

    fn check(g: &Graph, ranks: usize) {
        let seq = greedy(g);
        let rt = RuntimeConfig::udp(ranks, ranks).with_segment_size(1 << 20);
        let out = launch(rt, |u| solve_mp(u, g).0);
        for m in out {
            assert_eq!(m.mate, seq.mate, "message-passing result must equal greedy");
            assert!((m.weight - seq.weight).abs() < 1e-9);
        }
    }

    #[test]
    fn mp_equals_greedy_small() {
        for seed in 0..4 {
            check(&graphgen::powerlaw(120, 2, seed), 4);
        }
    }

    #[test]
    fn mp_equals_greedy_mesh() {
        check(&graphgen::mesh3d(6, 6, 6), 4);
        check(&graphgen::mesh2d_irregular(15, 15, 0.1, 3), 2);
    }

    #[test]
    fn mp_equals_greedy_single_rank() {
        check(&graphgen::knn(200, 4, 9), 1);
    }

    #[test]
    fn mp_and_rma_agree() {
        let g = graphgen::geometric(400, 8.0, 10, 7);
        let rt = RuntimeConfig::udp(4, 4).with_segment_size(1 << 22);
        let mp = launch(rt, |u| solve_mp(u, &g).0);
        let rma = crate::benchmark(4, upcr::LibVersion::V2021_3_6Eager, &g);
        assert_eq!(mp[0].edges(), rma.matched);
        assert!((mp[0].weight - rma.weight).abs() < 1e-9);
    }
}
