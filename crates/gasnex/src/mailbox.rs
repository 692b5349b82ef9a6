//! Multi-producer queues for rank-directed traffic.
//!
//! Users: the per-rank active-message mailboxes ([`MpQueue<AmMsg>`]),
//! the per-rank **ready-notification queues** ([`ReadyQueue`]) that the
//! signal-driven completion engine routes completion tokens through, and
//! `upcr`'s continuation-callback queues. Any thread may push; one thread
//! at a time drains (the owning rank during its progress quantum, or the
//! progress thread holding a callback queue's drain flag), so push order
//! — which for ready tokens is delivery order — is exactly the order the
//! drainer observes.
//!
//! A `Mutex<VecDeque>` is deliberately chosen over a lock-free list: the
//! critical sections are a handful of instructions, the queue must be
//! drainable in FIFO order, and the workspace builds offline with `std`
//! only. The length is mirrored in an atomic that is written only under
//! the lock, so it is exact whenever no push or drain is in flight
//! (quiescence accounting) and reading it never locks: `len`, `is_empty`,
//! and a `pop` or `drain_into` on an empty queue cost one load. The
//! owner's idle progress poll therefore never contends with a producer.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// An unbounded multi-producer FIFO queue drained by one thread at a time.
#[derive(Debug)]
pub struct MpQueue<T> {
    q: Mutex<VecDeque<T>>,
    /// `q.len()` as of the last critical section.
    len: AtomicUsize,
}

impl<T> MpQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        MpQueue {
            q: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Append `v` (any thread).
    pub fn push(&self, v: T) {
        let mut q = self.q.lock().unwrap();
        q.push_back(v);
        self.len.store(q.len(), Ordering::Release);
    }

    /// Remove and return the oldest entry (`None` without locking when
    /// the queue is empty).
    pub fn pop(&self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let mut q = self.q.lock().unwrap();
        let v = q.pop_front();
        self.len.store(q.len(), Ordering::Release);
        v
    }

    /// Move every entry present *now* into `out`, preserving FIFO order.
    /// Entries pushed while the drained batch is being processed are left
    /// for the next drain — the property that bounds one progress quantum.
    /// An empty queue returns 0 without locking.
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        if self.is_empty() {
            return 0;
        }
        let mut q = self.q.lock().unwrap();
        let n = q.len();
        out.extend(q.drain(..));
        self.len.store(0, Ordering::Release);
        n
    }

    /// Number of queued entries (exact at quiescence, approximate under
    /// concurrent pushes). Lock-free.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the queue is empty (same caveat as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hold the queue lock and run `f` (test hook for simulating a
    /// producer mid-push).
    pub fn while_locked<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.q.lock().unwrap();
        f()
    }
}

impl<T> Default for MpQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A per-rank ready-notification queue: completion tokens deposited by
/// delivery actions ([`World::deposit_token`](crate::world::World::deposit_token)),
/// drained FIFO by the owning rank.
///
/// The token is the slot of the waiter the initiating rank filed before
/// it injected the operation; the rank runs that waiter when the token
/// surfaces here.
pub type ReadyQueue = MpQueue<u64>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    #[test]
    fn fifo_order_preserved() {
        let q = MpQueue::new();
        for i in 0..10u64 {
            q.push(i);
        }
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out), 10);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn drain_is_bounded_to_present_entries() {
        let q = MpQueue::new();
        q.push(1u64);
        q.push(2);
        let mut out = Vec::new();
        q.drain_into(&mut out);
        q.push(3); // arrives "during processing"
        assert_eq!(out, vec![1, 2]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn concurrent_pushes_all_arrive() {
        let q = Arc::new(MpQueue::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    q.push(t * 1000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut out = Vec::new();
        q.drain_into(&mut out);
        out.sort_unstable();
        assert_eq!(out, (0..4000).collect::<Vec<_>>());
    }

    #[test]
    fn idle_reads_take_no_lock() {
        // A producer mid-push holds the queue lock; the owner's idle poll
        // must not wait for it. Bounded, so a locking read fails the test
        // instead of hanging it.
        let q = &MpQueue::<u64>::new();
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            let got = q.while_locked(|| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let _ = tx.send((q.len(), q.is_empty(), q.pop(), q.drain_into(&mut out)));
                });
                rx.recv_timeout(Duration::from_secs(5))
            });
            assert_eq!(
                got,
                Ok((0, true, None, 0)),
                "len, is_empty, pop and drain_into on an empty queue must not lock"
            );
        });
    }

    #[test]
    fn owner_drains_while_producers_push() {
        // The lock-free early-outs race real pushes: every item arrives
        // exactly once, in per-producer FIFO order, and the mirrored
        // length settles at 0.
        const K: u64 = 4;
        const N: u64 = 5000;
        let q = MpQueue::new();
        let done = AtomicU64::new(0);
        let mut out = Vec::new();
        std::thread::scope(|s| {
            for t in 0..K {
                let (q, done) = (&q, &done);
                s.spawn(move || {
                    for i in 0..N {
                        q.push(t * N + i);
                    }
                    done.fetch_add(1, Ordering::Release);
                });
            }
            loop {
                // Sampled before draining: once every producer has
                // finished, this pass drains whatever is left.
                let finished = done.load(Ordering::Acquire) == K;
                if let Some(v) = q.pop() {
                    out.push(v);
                }
                q.drain_into(&mut out);
                if finished {
                    break;
                }
            }
        });
        assert_eq!(out.len() as u64, K * N, "every push arrives exactly once");
        let mut next = [0u64; K as usize];
        for v in out {
            let (t, i) = ((v / N) as usize, v % N);
            assert_eq!(i, next[t], "producer {t} out of order");
            next[t] += 1;
        }
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }
}
