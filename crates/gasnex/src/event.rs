//! Completion events, modelled on the core of `gex_Event_t`.
//!
//! An [`EventCore`] is the shared completion flag of one in-flight
//! operation: the network (or the target rank) signals it when the
//! operation finishes. Whether an operation completed synchronously at
//! initiation, the case eager notification exploits, is decided by the
//! runtime before any event exists, so only asynchronous operations carry
//! one. The core supports **signal-driven completion**: the initiator may
//! register a one-shot waiter with [`EventCore::on_signal`], and whichever
//! thread signals the event runs the waiter, so nobody has to rediscover
//! the flag by polling. Continuation callbacks and parked waiters use it.
//!
//! A [`TokenRoute`] is the lighter path the progress engine takes: a
//! completion token routed by index. The initiator arms it with the slot
//! of its waiter, the operation's delivery action fires it, and the slot
//! lands in the initiator's ready queue. Nothing is boxed or locked on the
//! way beyond the queue push.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::rank::Rank;
use crate::world::World;

/// A one-shot callback run by the signalling thread.
type Waiter = Box<dyn FnOnce() + Send>;

/// Shared completion flag for an in-flight operation.
///
/// Signalled (with release ordering) by whichever thread finishes the
/// operation; observed (with acquire ordering) by the initiator, so any data
/// written before the signal — e.g. an `rget` result landing in its slot —
/// is visible after a successful test. Registered waiters run exactly once
/// each, after the flag is set: either by the signalling thread (in
/// registration order), or immediately at registration when the signal
/// already happened. Multiple waiters may be registered on one event — an
/// operation can carry two continuation callbacks
/// (`operation_cx::as_callback | as_callback`).
#[derive(Default)]
pub struct EventCore {
    done: AtomicBool,
    waiters: Mutex<Vec<Waiter>>,
}

impl std::fmt::Debug for EventCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventCore")
            .field("done", &self.is_done())
            .field("has_waiter", &self.has_waiter())
            .finish()
    }
}

impl EventCore {
    /// A fresh, unsignalled event.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Mark the operation complete and run the registered waiters, if any,
    /// in registration order. May be called from any thread; calling it
    /// more than once is idempotent (waiters run only on the first call
    /// that takes them).
    pub fn signal(&self) {
        // The flag is published while the lock is held; on_signal checks
        // it under the same lock, so a waiter is never lost: every waiter
        // is either taken here or run by the registering thread.
        let taken = {
            let mut slot = self.waiters.lock().unwrap();
            self.done.store(true, Ordering::Release);
            std::mem::take(&mut *slot)
        };
        for w in taken {
            w();
        }
    }

    /// Whether the operation has completed.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Register a one-shot completion waiter.
    ///
    /// If the event has already been signalled, `w` runs immediately on the
    /// calling thread; otherwise it runs on whichever thread signals, in
    /// registration order after any earlier waiters. Any number of waiters
    /// may be registered.
    pub fn on_signal(&self, w: impl FnOnce() + Send + 'static) {
        {
            let mut slot = self.waiters.lock().unwrap();
            // Checked under the same lock signal() publishes under, so a
            // waiter registered after the signal fired always runs (below,
            // immediately) and one registered before is always taken by
            // signal() — no interleaving loses it.
            if !self.done.load(Ordering::Acquire) {
                slot.push(Box::new(w));
                return;
            }
        }
        w();
    }

    /// Whether any waiter is currently registered and unsignalled (test
    /// and quiescence diagnostics).
    pub fn has_waiter(&self) -> bool {
        !self.waiters.lock().unwrap().is_empty()
    }

    /// Block the calling thread — zero CPU — until the event is signalled,
    /// or until `timeout` elapses. Returns `true` when the event fired.
    ///
    /// This extends the signal-driven wakeup engine from intra-rank token
    /// routing to cross-rank blocking: the condvar bridge is registered
    /// through [`EventCore::on_signal`], so whichever thread signals the
    /// event (typically a peer rank delivering a notification badge) wakes
    /// the parked thread directly. The caller is responsible for ensuring
    /// some other thread still drives conduit progress while this one is
    /// parked — see `NotifyTable::try_reserve_park`.
    pub fn park(&self, timeout: std::time::Duration) -> bool {
        let gate = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
        let g2 = Arc::clone(&gate);
        self.on_signal(move || {
            let (lock, cv) = &*g2;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        });
        let (lock, cv) = &*gate;
        let deadline = std::time::Instant::now() + timeout;
        let mut fired = lock.lock().unwrap();
        while !*fired {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return false;
            }
            let (g, _) = cv.wait_timeout(fired, left).unwrap();
            fired = g;
        }
        true
    }
}

/// [`TokenRoute`] state: neither armed nor fired.
const IDLE: u64 = u64::MAX;
/// [`TokenRoute`] state: fired (any other value is the armed slot).
const FIRED: u64 = u64::MAX - 1;

/// The route of one in-flight operation's completion token into its
/// initiator's ready queue.
///
/// The initiating rank [`arm`](Self::arm)s it once with the slot of the
/// waiter it filed, and the operation's delivery action
/// [`fire`](Self::fire)s it once. Whichever of the two comes second
/// deposits the slot: a fire after the arm deposits it on the delivering
/// thread, an arm after the fire deposits it on the arming thread. Either
/// way the initiator's next ready-queue drain surfaces it, so the waiter
/// never runs inline at arming. The arm is a compare-exchange from idle
/// and the fire a swap to fired, so exactly one of them sees the other's
/// write: the slot is deposited exactly once.
#[derive(Debug)]
pub struct TokenRoute {
    initiator: Rank,
    /// [`IDLE`], [`FIRED`], or the armed slot.
    state: AtomicU64,
    /// The armed token's trace id, written before the arming exchange.
    trace: AtomicU64,
}

impl TokenRoute {
    /// An unarmed route into `initiator`'s ready queue.
    pub fn new(initiator: Rank) -> Self {
        TokenRoute {
            initiator,
            state: AtomicU64::new(IDLE),
            trace: AtomicU64::new(0),
        }
    }

    /// Arm the route with `slot`, traced as `trace` in the `Signal` event
    /// of the deposit. If the route already fired, the token is deposited
    /// now, on this thread.
    pub fn arm(&self, world: &World, slot: u64, trace: u64) {
        assert!(slot < FIRED, "token slot {slot} is out of range");
        // Relaxed: the arming exchange (Release) publishes it to the swap
        // in `fire` (Acquire) that finds the slot.
        self.trace.store(trace, Ordering::Relaxed);
        if self
            .state
            .compare_exchange(IDLE, slot, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            world.deposit_token(self.initiator, slot, trace);
        }
    }

    /// Fire the route: deposit the armed token, if any. An unarmed route
    /// leaves the deposit to its arming thread. The delivery action calls
    /// this exactly once.
    pub fn fire(&self, world: &World) {
        match self.state.swap(FIRED, Ordering::AcqRel) {
            IDLE => {}
            FIRED => panic!("a token route fired twice"),
            slot => world.deposit_token(self.initiator, slot, self.trace.load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn signal_is_idempotent_and_visible_across_threads() {
        let core = EventCore::new();
        assert!(!core.is_done());
        let c2 = Arc::clone(&core);
        std::thread::spawn(move || c2.signal()).join().unwrap();
        assert!(core.is_done(), "a signal on another thread is observed");
        core.signal();
        assert!(core.is_done(), "a second signal is a no-op");
    }

    #[test]
    fn waiter_runs_on_signal() {
        let core = EventCore::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        core.on_signal(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert!(core.has_waiter());
        assert_eq!(
            hits.load(Ordering::SeqCst),
            0,
            "waiter must not run before the signal"
        );
        core.signal();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert!(!core.has_waiter());
        // A second signal must not re-run the one-shot waiter.
        core.signal();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn waiter_registered_after_signal_runs_immediately() {
        let core = EventCore::new();
        core.signal();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        core.on_signal(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert!(!core.has_waiter());
    }

    #[test]
    fn park_blocks_until_cross_thread_signal() {
        let core = EventCore::new();
        let c2 = Arc::clone(&core);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            c2.signal();
        });
        assert!(core.park(std::time::Duration::from_secs(5)));
        t.join().unwrap();
    }

    #[test]
    fn park_after_signal_returns_immediately() {
        let core = EventCore::new();
        core.signal();
        assert!(core.park(std::time::Duration::from_secs(5)));
    }

    #[test]
    fn park_times_out_without_signal() {
        let core = EventCore::new();
        assert!(!core.park(std::time::Duration::from_millis(5)));
    }

    #[test]
    fn waiter_never_lost_under_races() {
        // Registration and signalling race from two threads; the waiter
        // must run exactly once whichever side wins.
        for _ in 0..200 {
            let core = EventCore::new();
            let hits = Arc::new(AtomicUsize::new(0));
            let h = Arc::clone(&hits);
            let c2 = Arc::clone(&core);
            let t = std::thread::spawn(move || c2.signal());
            core.on_signal(move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
            t.join().unwrap();
            // The signalling thread may still be inside signal(); joining
            // above guarantees it finished, so the waiter has run.
            assert_eq!(hits.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn multiple_waiters_run_in_registration_order() {
        let core = EventCore::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let l = Arc::clone(&log);
            core.on_signal(move || l.lock().unwrap().push(i));
        }
        assert!(core.has_waiter());
        core.signal();
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2]);
        assert!(!core.has_waiter());
        // A waiter registered after the signal still runs immediately —
        // alongside, not instead of, the earlier ones.
        let l = Arc::clone(&log);
        core.on_signal(move || l.lock().unwrap().push(99));
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 99]);
    }

    #[test]
    fn no_lost_wakeup_across_register_post_interleavings() {
        // Property test for the registration/signal race: k waiters are
        // registered from one thread while another signals at every
        // possible point of the sequence (before, interleaved, after). In
        // every interleaving each waiter must run exactly once — none lost
        // (registered-after-signal must run immediately), none doubled.
        const K: usize = 4;
        for signal_at in 0..=K {
            for _ in 0..100 {
                let core = EventCore::new();
                let hits: Arc<Vec<AtomicUsize>> =
                    Arc::new((0..K).map(|_| AtomicUsize::new(0)).collect());
                let c2 = Arc::clone(&core);
                let gate = Arc::new(AtomicBool::new(false));
                let g2 = Arc::clone(&gate);
                let t = std::thread::spawn(move || {
                    // Wait for the registering thread to reach signal_at.
                    while !g2.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    c2.signal();
                });
                for i in 0..K {
                    if i == signal_at {
                        gate.store(true, Ordering::Release);
                    }
                    let h = Arc::clone(&hits);
                    core.on_signal(move || {
                        h[i].fetch_add(1, Ordering::SeqCst);
                    });
                }
                if signal_at == K {
                    gate.store(true, Ordering::Release);
                }
                t.join().unwrap();
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::SeqCst),
                        1,
                        "waiter {i} (signal raced at registration {signal_at}) \
                         must run exactly once"
                    );
                }
            }
        }
    }
}
