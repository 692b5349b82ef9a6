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

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use gasnex::World;

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
/// another callback.
#[derive(Default)]
pub(crate) struct CallbackQueue {
    q: Mutex<VecDeque<(Callback, TraceOp)>>,
    draining: AtomicBool,
}

impl CallbackQueue {
    /// Enqueue a callback. Returns `true` when a drain was running at
    /// enqueue time — the callback was *deferred into* that drain's FIFO
    /// rather than opening a new one (the caller counts it).
    pub fn push(&self, cb: Callback, top: TraceOp) -> bool {
        self.q.lock().unwrap().push_back((cb, top));
        self.draining.load(Ordering::Acquire)
    }

    pub fn len(&self) -> usize {
        self.q.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.q.lock().unwrap().is_empty()
    }

    /// Become the exclusive drainer and run callbacks until the queue is
    /// empty — including ones enqueued *during* the drain, so a callback
    /// chain settles within one quantum. Returns the number run; returns 0
    /// immediately when another thread is already draining (their drain
    /// will pick up everything enqueued so far).
    ///
    /// The queue lock is never held while a callback runs, so callbacks
    /// may freely enqueue more callbacks.
    pub fn drain(&self, mut run: impl FnMut(Callback, TraceOp)) -> usize {
        if self.draining.swap(true, Ordering::AcqRel) {
            return 0;
        }
        let mut n = 0;
        loop {
            // Pop in its own statement so the queue guard drops before the
            // callback runs (a `while let` scrutinee guard would live for
            // the whole body and deadlock nested enqueues).
            let next = self.q.lock().unwrap().pop_front();
            let Some((cb, top)) = next else { break };
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
    use std::sync::atomic::AtomicUsize;

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
    fn waker_wake_then_wait_does_not_block() {
        let w = ProgressWaker::default();
        w.wake();
        assert!(w.wait(Duration::from_secs(5)), "wake already pending");
        // Consumed: the next wait times out.
        assert!(!w.wait(Duration::from_millis(1)));
    }
}
