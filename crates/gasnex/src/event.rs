//! Completion events, modelled on the core of `gex_Event_t`.
//!
//! An [`EventCore`] is a one-shot completion flag a thread can park on:
//! whichever thread finishes the awaited operation signals it, and a
//! thread blocked in [`EventCore::park`] wakes without having spent CPU in
//! between. `wait_signal`'s parked waiters use it, registered on a
//! notification word of the [`NotifyTable`](crate::notify::NotifyTable).
//!
//! Off-node operations carry no event. Their initiator files every
//! notification before the operation goes on the wire, so the delivery
//! action deposits the op's completion token straight into the
//! initiator's ready queue ([`World::deposit_token`](crate::world::World::deposit_token)),
//! and nothing waits on a flag.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const POISONED: &str = "a thread panicked while holding an event's flag";

/// A one-shot completion flag with a condvar for a parked thread.
///
/// Signalled by whichever thread finishes the operation; observed by the
/// waiting thread. The flag is written and read under one lock, so any
/// data written before the signal is visible after a successful test, and
/// a signal racing [`park`](Self::park) is never lost: either the parked
/// thread finds the flag set before it sleeps, or the signal's notify
/// wakes it.
#[derive(Debug, Default)]
pub struct EventCore {
    done: Mutex<bool>,
    cv: Condvar,
}

impl EventCore {
    /// A fresh, unsignalled event.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Mark the operation complete and wake a parked thread, if any. May
    /// be called from any thread; a second call is a no-op.
    pub fn signal(&self) {
        *self.done.lock().expect(POISONED) = true;
        self.cv.notify_all();
    }

    /// Whether the operation has completed.
    pub fn is_done(&self) -> bool {
        *self.done.lock().expect(POISONED)
    }

    /// Block the calling thread — zero CPU — until the event is signalled,
    /// or until `timeout` elapses. Returns `true` when the event fired.
    ///
    /// Whichever thread signals the event (typically a peer rank
    /// delivering a notification badge) wakes the parked thread directly.
    /// The caller is responsible for ensuring some other thread still
    /// drives conduit progress while this one is parked — see
    /// `NotifyTable::try_reserve_park`.
    pub fn park(&self, timeout: Duration) -> bool {
        let done = self.done.lock().expect(POISONED);
        let (done, _) = self
            .cv
            .wait_timeout_while(done, timeout, |done| !*done)
            .expect(POISONED);
        *done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU8, Ordering};

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
    fn park_blocks_until_cross_thread_signal() {
        let core = EventCore::new();
        let c2 = Arc::clone(&core);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            c2.signal();
        });
        assert!(core.park(Duration::from_secs(5)));
        t.join().unwrap();
    }

    #[test]
    fn park_after_signal_returns_immediately() {
        let core = EventCore::new();
        core.signal();
        assert!(core.park(Duration::from_secs(5)));
    }

    #[test]
    fn park_times_out_without_signal() {
        let core = EventCore::new();
        assert!(!core.park(Duration::from_millis(5)));
    }

    #[test]
    fn no_lost_wakeup_across_signal_park_interleavings() {
        // Property test for the signal/park race. Once both threads are
        // running, the signaller spins `spins` times and signals while the
        // parker calls `park`, so across the sweep the signal lands before
        // `park` takes the lock, between its flag check and its sleep, and
        // after it sleeps. In every interleaving `park` must return
        // promptly with the signal: a lost wakeup sleeps out the 10 s
        // timeout. (A signal before `park` is called is
        // `park_after_signal_returns_immediately`.)
        let prompt = |core: &EventCore| {
            let t0 = std::time::Instant::now();
            core.park(Duration::from_secs(10)) && t0.elapsed() < Duration::from_secs(5)
        };
        for spins in [0u32, 1, 4, 16, 64, 256, 1024, 4096, 16384] {
            for _ in 0..100 {
                let core = EventCore::new();
                let stage = Arc::new(AtomicU8::new(0));
                let (c2, s2) = (Arc::clone(&core), Arc::clone(&stage));
                let t = std::thread::spawn(move || {
                    s2.store(1, Ordering::Release);
                    while s2.load(Ordering::Acquire) != 2 {
                        std::hint::spin_loop();
                    }
                    for _ in 0..spins {
                        std::hint::spin_loop();
                    }
                    c2.signal();
                });
                while stage.load(Ordering::Acquire) != 1 {
                    std::hint::spin_loop();
                }
                stage.store(2, Ordering::Release);
                assert!(prompt(&core), "a signal {spins} spins into park was lost");
                t.join().unwrap();
            }
        }
    }
}
