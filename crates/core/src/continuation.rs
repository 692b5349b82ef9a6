//! Continuation-callback machinery and the state shared with the
//! background progress thread.
//!
//! `operation_cx::as_callback` is the third completion mode (alongside
//! futures/promises and notification signals): the closure is executed
//! exactly once when the operation completes — from the owning rank's
//! progress quantum, or from the background progress thread — and **never**
//! inline on the injecting call, so user code can never observe reentrancy
//! (the MPI Continuations model of Schuchart et al.). Callbacks enqueued
//! while a drain is running (i.e. from inside another callback) join the
//! same FIFO and are delivered by the same drain.
//!
//! Because a callback may be executed by a foreign thread, everything it
//! needs lives here in [`WorldShared`]: one [`RankShared`] slot per rank
//! holding the rank's statistics bank and its callback queue. The rank's
//! own `RankCtx` holds clones of its slot; the progress thread walks the
//! slots of its node.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use gasnex::{MpQueue, World};

use crate::stats::Stats;
use crate::trace::TraceOp;

/// A ready-to-run continuation: the user closure already bound to its
/// completion value.
pub(crate) type Callback = Box<dyn FnOnce() + Send>;

/// A per-rank FIFO of completed-but-not-yet-run continuation callbacks.
///
/// Enqueued by whichever thread completes the operation (the initiating
/// rank for synchronous completions, a delivering peer or the progress
/// thread for asynchronous ones); drained by the owning rank's progress
/// quantum or by the progress thread — exclusively, via the `draining`
/// flag, so a callback never runs twice and never runs reentrantly inside
/// another callback. The queue is an [`MpQueue`], so `len`/`is_empty` never
/// lock, and a drain of an empty queue returns before it touches the lock
/// or the `draining` flag.
#[derive(Default)]
pub(crate) struct CallbackQueue {
    q: MpQueue<(Callback, TraceOp)>,
    draining: AtomicBool,
}

impl CallbackQueue {
    /// Enqueue a callback. Returns `true` when a drain was running at
    /// enqueue time — the callback was *deferred into* that drain's FIFO
    /// rather than opening a new one (the caller counts it).
    pub fn push(&self, cb: Callback, top: TraceOp) -> bool {
        self.q.push((cb, top));
        self.draining.load(Ordering::Acquire)
    }

    pub fn len(&self) -> usize {
        self.q.len()
    }

    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Become the exclusive drainer and run callbacks until the queue is
    /// empty — including ones enqueued *during* the drain, so a callback
    /// chain settles within one quantum. Returns the number run; returns 0
    /// immediately when the queue is empty or another thread is already
    /// draining (their drain will pick up everything enqueued so far).
    ///
    /// The queue lock is never held while a callback runs, so callbacks
    /// may freely enqueue more callbacks.
    pub fn drain(&self, mut run: impl FnMut(Callback, TraceOp)) -> usize {
        if self.is_empty() || self.draining.swap(true, Ordering::AcqRel) {
            return 0;
        }
        let mut n = 0;
        while let Some((cb, top)) = self.q.pop() {
            run(cb, top);
            n += 1;
        }
        self.draining.store(false, Ordering::Release);
        n
    }
}

/// The cross-thread-visible state of one rank.
pub(crate) struct RankShared {
    /// The rank's statistics bank (the progress thread attributes callback
    /// runs and its own poll counts here).
    pub stats: Arc<Stats>,
    /// Completed continuations awaiting execution.
    pub callbacks: Arc<CallbackQueue>,
}

/// One slot per rank; built by `launch` before the rank threads start and
/// handed to each `RankCtx` and to the progress threads.
pub(crate) struct WorldShared {
    pub slots: Vec<RankShared>,
}

impl WorldShared {
    pub fn new(world: &World) -> WorldShared {
        let slots = (0..world.ranks())
            .map(|_| RankShared {
                stats: Arc::new(Stats::default()),
                callbacks: Arc::new(CallbackQueue::default()),
            })
            .collect();
        WorldShared { slots }
    }
}

/// The parked-condvar cadence gate the progress thread sleeps on between
/// polls. Woken by the conduits' injection hooks and by callback enqueues,
/// so a completion is noticed promptly even on a fully idle node.
#[derive(Default)]
pub(crate) struct ProgressWaker {
    pending: Mutex<bool>,
    cv: Condvar,
}

impl ProgressWaker {
    pub fn wake(&self) {
        *self.pending.lock().unwrap() = true;
        self.cv.notify_all();
    }

    /// Park until woken or until `cadence` elapses. Returns `true` when an
    /// explicit wake arrived (vs. a cadence timeout).
    pub fn wait(&self, cadence: Duration) -> bool {
        let mut pending = self.pending.lock().unwrap();
        if !*pending {
            let (g, _) = self.cv.wait_timeout(pending, cadence).unwrap();
            pending = g;
        }
        std::mem::take(&mut *pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU8, AtomicUsize};
    use std::sync::mpsc;

    #[test]
    fn drain_runs_fifo_including_nested_enqueues() {
        let q = Arc::new(CallbackQueue::default());
        let log = Arc::new(Mutex::new(Vec::new()));
        let (q2, l2) = (Arc::clone(&q), Arc::clone(&log));
        q.push(
            Box::new(move || {
                l2.lock().unwrap().push(1);
                let l3 = Arc::clone(&l2);
                // Enqueued mid-drain: same FIFO, same drain.
                let deferred = q2.push(Box::new(move || l3.lock().unwrap().push(3)), TraceOp::NONE);
                assert!(deferred, "a drain is running");
            }),
            TraceOp::NONE,
        );
        let l4 = Arc::clone(&log);
        q.push(Box::new(move || l4.lock().unwrap().push(2)), TraceOp::NONE);
        let n = q.drain(|cb, _| cb());
        assert_eq!(n, 3, "the nested callback ran in the same drain");
        assert_eq!(*log.lock().unwrap(), vec![1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn concurrent_drain_is_exclusive() {
        // Many threads race to drain a large queue: every callback runs
        // exactly once in total.
        let q = Arc::new(CallbackQueue::default());
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..1000 {
            let h = Arc::clone(&hits);
            q.push(
                Box::new(move || {
                    h.fetch_add(1, Ordering::SeqCst);
                }),
                TraceOp::NONE,
            );
        }
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.drain(|cb, _| cb()))
            })
            .collect();
        let total: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(total, 1000);
        assert_eq!(hits.load(Ordering::SeqCst), 1000);
    }

    #[test]
    fn idle_reads_take_no_lock() {
        // A thread mid-enqueue holds the queue lock; an idle quantum's
        // length checks and empty drain must not wait for it. Bounded, so
        // a locking read fails the test instead of hanging it.
        let q = &CallbackQueue::default();
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            let got = q.q.while_locked(|| {
                s.spawn(move || {
                    let _ = tx.send((q.len(), q.is_empty(), q.drain(|cb, _| cb())));
                });
                rx.recv_timeout(Duration::from_secs(5))
            });
            assert_eq!(
                got,
                Ok((0, true, 0)),
                "len, is_empty and drain on an empty queue must not lock"
            );
        });
        assert!(!q.draining.load(Ordering::Acquire));
    }

    #[test]
    fn racing_drainers_run_concurrent_pushes_exactly_once() {
        // Producers enqueue while two drainers (a rank's quantum and the
        // progress thread) race through the empty-queue early-out and the
        // `draining` flag: every callback runs exactly once.
        const K: usize = 3;
        const N: usize = 2000;
        let q = CallbackQueue::default();
        let runs: Arc<Vec<AtomicU8>> = Arc::new((0..K * N).map(|_| AtomicU8::new(0)).collect());
        let done = AtomicUsize::new(0);
        let drained = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..K {
                let (q, done, runs) = (&q, &done, &runs);
                s.spawn(move || {
                    for i in 0..N {
                        let runs = Arc::clone(runs);
                        q.push(
                            Box::new(move || {
                                runs[t * N + i].fetch_add(1, Ordering::Relaxed);
                            }),
                            TraceOp::NONE,
                        );
                    }
                    done.fetch_add(1, Ordering::Release);
                });
            }
            for _ in 0..2 {
                let (q, done, drained) = (&q, &done, &drained);
                s.spawn(move || loop {
                    // Sampled before draining: once every producer has
                    // finished, a drainer leaves only after it sees the
                    // queue empty.
                    let finished = done.load(Ordering::Acquire) == K;
                    drained.fetch_add(q.drain(|cb, _| cb()), Ordering::Relaxed);
                    if finished && q.is_empty() {
                        break;
                    }
                    std::thread::yield_now();
                });
            }
        });
        assert_eq!(drained.load(Ordering::Relaxed), K * N);
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.load(Ordering::Relaxed), 1, "callback {i} ran once");
        }
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn waker_wake_then_wait_does_not_block() {
        let w = ProgressWaker::default();
        w.wake();
        assert!(w.wait(Duration::from_secs(5)), "wake already pending");
        // Consumed: the next wait times out.
        assert!(!w.wait(Duration::from_millis(1)));
    }
}
