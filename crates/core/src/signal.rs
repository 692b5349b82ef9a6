//! Notifiable RMA: put-with-signal, amo-with-signal, and `wait_signal`.
//!
//! The seL4/UNR-style notification layer over [`gasnex::NotifyTable`]:
//! every rank owns a small array of 64-bit *notification words*
//! ([`gasnex::config::NOTIFY_WORDS`] of them). A signal-carrying
//! operation performs its data movement and then OR-coalesces a caller-
//! chosen *badge* into one of the target's words — Idle words turn Active,
//! Active words coalesce, and a rank blocked in [`Upcr::wait_signal`] on a
//! matching mask is woken directly by the delivering thread.
//!
//! `wait_signal` extends the signal-driven wakeup engine from intra-rank
//! completion tokens to **cross-rank blocking**: under a wall clock the
//! waiting rank parks its thread on a condvar — zero CPU, zero `progress`
//! polls — until the badge post signals its [`gasnex::EventCore`].
//! Parking is bounded by a reservation counter (at most `ranks - 1` parked
//! at once) so at least one rank always stays awake to drive conduit
//! progress; a refused reservation, or a virtual-clock world
//! (where parking would stall the time-warp and break single-threaded
//! byte-replayability), falls back to polling and counts each poll in
//! `polls_while_parked`.
//!
//! **Delivery exactness.** The badge post happens inside the operation's
//! delivery action, and both conduits execute each delivery action exactly
//! once (the simulator's dedup heap, the UDP conduit's take-from-table
//! dedup) — so a badge is OR-ed exactly once per signal op no matter how
//! often the wire dropped, duplicated, or reordered the message. The OR
//! itself is idempotent, commutative, and associative, so *which* copy of
//! a duplicated frame wins the race is unobservable.
//!
//! **Ordering.** A signal operation is a release edge for this rank's
//! buffered traffic: it explicitly flushes the sender-side aggregation
//! buffers before injecting, so a waiter woken by the badge observes every
//! operation this rank issued before the signal (point-to-point ordering
//! under uniform latency, acks/retries otherwise).

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use gasnex::{AmoOp, EventCore, Rank, World};

use crate::completion::{operation_cx, Completions, Notifier, Wire};
use crate::ctx::RankCtx;
use crate::future::Future;
use crate::global_ptr::{GlobalPtr, SegValue};
use crate::runtime::Upcr;
use crate::stats::{add, bump};
use crate::trace::OpKind;

/// Validate a notification word index against the world's table.
fn check_word(ctx: &RankCtx, word: usize) {
    let words = ctx.world.notify().words_per_rank();
    assert!(
        word < words,
        "signal word {word} out of range (each rank has {words} notification words)"
    );
}

/// Validate the `(word, badge)` pair of a signal-carrying operation.
fn check_signal_args(ctx: &RankCtx, word: usize, badge: u64) {
    check_word(ctx, word);
    assert_ne!(badge, 0, "a zero badge would coalesce into nothing");
}

/// Validate the `(word, mask)` pair of a signal probe or wait.
fn check_mask_args(ctx: &RankCtx, word: usize, mask: u64) {
    check_word(ctx, word);
    assert_ne!(mask, 0, "a zero mask can never match a badge");
}

/// OR `badge` into `rank`'s notification word `word`. A post that found
/// the word non-zero coalesced; it counts on the posting thread's rank.
fn post_badge(w: &World, rank: Rank, word: usize, badge: u64) {
    if w.notify().post(rank, word, badge) {
        let _ = crate::ctx::try_with_ctx(|c| bump(&c.stats.signals_coalesced));
    }
}

impl Upcr {
    /// Scalar put that signals notification word `word` on the target rank
    /// with `badge` after the data lands (`put-with-signal`). The returned
    /// future is the *initiator-side* completion, same semantics as
    /// [`Upcr::rput`]; the target observes the write by waking from (or
    /// polling) [`Upcr::wait_signal`] on a mask covering `badge`.
    pub fn put_signal<T: SegValue>(
        &self,
        val: T,
        dst: GlobalPtr<T>,
        word: usize,
        badge: u64,
    ) -> Future<()> {
        let ctx = &*self.ctx;
        debug_assert!(!dst.is_null(), "put_signal to null global pointer");
        check_signal_args(ctx, word, badge);
        bump(&ctx.stats.rputs);
        bump(&ctx.stats.signals_sent);
        let top = ctx.trace_op_init(OpKind::Put, true);
        let cx = operation_cx::as_future();
        let (rank, off, bits) = (dst.rank(), dst.offset(), val.to_bits());
        if ctx.addressable(rank) {
            // Shared-memory bypass: write, then post the badge directly —
            // the waking thread is the initiator itself.
            ctx.world.segment(rank).write_scalar(off, T::SIZE, bits);
            post_badge(&ctx.world, rank, word, badge);
            cx.notify(&Notifier::sync(ctx, top, ()))
        } else {
            // Release edge: everything this rank buffered goes on the wire
            // before the signal message is injected.
            ctx.inject_op(cx, top, rank, Wire::Signal, move |w| {
                w.segment(rank).write_scalar(off, T::SIZE, bits);
                post_badge(w, rank, word, badge);
            })
        }
    }

    /// Atomic `op` on the word at `target` that signals notification word
    /// `word` on the target rank with `badge` after the atomic executes
    /// (`amo-with-signal`). The prior value is discarded — pair a fetching
    /// need with a separate [`crate::AtomicDomain`] op. Atomicity and the
    /// badge post are one delivery action, so a waiter woken by the badge
    /// observes the updated word.
    pub fn amo_signal<T: crate::atomics::AtomicValue>(
        &self,
        target: GlobalPtr<T>,
        op: AmoOp,
        v: T,
        word: usize,
        badge: u64,
    ) -> Future<()> {
        let ctx = &*self.ctx;
        debug_assert!(!target.is_null(), "amo_signal on null global pointer");
        assert_eq!(
            target.offset() % 8,
            0,
            "atomic target must be 8-byte aligned"
        );
        check_signal_args(ctx, word, badge);
        bump(&ctx.stats.amos);
        bump(&ctx.stats.signals_sent);
        let top = ctx.trace_op_init(OpKind::Amo, true);
        let cx = operation_cx::as_future();
        let rank = target.rank();
        let (off, operand, signed) = (target.offset(), v.to_bits(), T::SIGNED);
        if ctx.addressable(rank) {
            gasnex::amo::execute(ctx.world.segment(rank), off, op, operand, 0, signed);
            post_badge(&ctx.world, rank, word, badge);
            cx.notify(&Notifier::sync(ctx, top, ()))
        } else {
            ctx.inject_op(cx, top, rank, Wire::Signal, move |w| {
                gasnex::amo::execute(w.segment(rank), off, op, operand, 0, signed);
                post_badge(w, rank, word, badge);
            })
        }
    }

    /// Non-blocking probe of this rank's notification word `word`: consume
    /// and return the currently-set bits of `mask` (zero when none). The
    /// returned bits are cleared, so each badge is observed exactly once.
    pub fn test_signal(&self, word: usize, mask: u64) -> u64 {
        let ctx = &*self.ctx;
        check_mask_args(ctx, word, mask);
        let got = ctx.world.notify().try_consume(ctx.me, word, mask);
        if got != 0 {
            ctx.trace_signal(word, got);
        }
        got
    }

    /// Block until any bit of `mask` is set on this rank's notification
    /// word `word`; consume and return the matching bits. Badges posted
    /// while this rank was not waiting are not lost — they sit in the word
    /// and satisfy the wait immediately.
    ///
    /// Under [`gasnex::ClockMode::Wall`] the calling thread **parks** —
    /// zero CPU, zero progress polls — when a parking reservation is
    /// available (at most `ranks - 1` parked, so conduit progress never
    /// stalls). Refused reservations, and every wait under
    /// [`gasnex::ClockMode::Virtual`] (parking would stall the
    /// single-threaded time-warp), poll the progress engine instead and
    /// count each poll in `polls_while_parked`. Under the wall clock the
    /// wait's time from its first miss is split into `parked_ns`,
    /// `spinning_ns` and `progress_ns` (the quanta it drives).
    ///
    /// # Panics
    ///
    /// Panics when parked for the configured watchdog timeout
    /// ([`crate::RuntimeConfig::watchdog_ms`]) without a matching badge —
    /// the panic payload is the watchdog's wait-graph stall diagnosis
    /// (see [`crate::introspect::diagnose_stall`]) — or when another rank
    /// aborts the world.
    pub fn wait_signal(&self, word: usize, mask: u64) -> u64 {
        let ctx = &*self.ctx;
        check_mask_args(ctx, word, mask);
        // Entering a wait is a synchronization point: flush our own
        // buffered ops (they may include the traffic a peer is waiting on
        // before it signals us back).
        ctx.agg_flush_explicit();
        let nt = ctx.world.notify();
        let me = ctx.me;
        let wall = ctx.wall_clock;
        let watchdog = std::time::Duration::from_millis(ctx.watchdog_ms);
        let mut laps = Laps::default();
        loop {
            let got = nt.try_consume(me, word, mask);
            if got != 0 {
                laps.lap(&ctx.stats.spinning_ns);
                ctx.trace_signal(word, got);
                return got;
            }
            if wall {
                laps.start();
            }
            if ctx.world.is_aborted() {
                panic!(
                    "another rank panicked; aborting rank {} in wait_signal",
                    me.0
                );
            }
            if wall && nt.try_reserve_park() {
                let ev = EventCore::new();
                // A badge that raced in between try_consume and here is
                // caught under the word lock: register signals immediately.
                nt.register_waiter(me, word, mask, Arc::clone(&ev));
                laps.lap(&ctx.stats.spinning_ns);
                let fired = ev.park(watchdog);
                laps.lap(&ctx.stats.parked_ns);
                if !fired {
                    // The watchdog fired: walk the wait graph and the
                    // flight recorder *while this waiter is still
                    // registered* (so the diagnosis shows our own edge),
                    // then die with the diagnosis as the panic payload
                    // (launch propagates it to the caller).
                    let diagnosis = crate::introspect::diagnose_stall(
                        &ctx.world,
                        me.0,
                        word,
                        mask,
                        ctx.watchdog_ms,
                    );
                    nt.clear_waiter(me, word);
                    nt.unreserve_park();
                    panic!("{diagnosis}");
                }
                nt.clear_waiter(me, word);
                nt.unreserve_park();
                bump(&ctx.stats.park_wakeups);
            } else {
                if ctx.in_callback.get() {
                    // A completion callback runs *inside* a progress drain:
                    // it can neither re-enter the progress engine (progress
                    // is not reentrant) nor reserve a park slot that another
                    // rank may need to drive the conduit. Waiting here would
                    // hang forever — die with the stall diagnosis instead.
                    let diagnosis =
                        crate::introspect::diagnose_stall(&ctx.world, me.0, word, mask, 0);
                    panic!(
                        "wait_signal from a completion callback cannot poll \
                         (progress is not reentrant) and no park slot is available\n{diagnosis}"
                    );
                }
                // Refused reservation (or virtual clock): this rank burns
                // CPU re-testing, driving progress between tests.
                bump(&ctx.stats.polls_while_parked);
                laps.lap(&ctx.stats.spinning_ns);
                ctx.progress_quantum();
                laps.lap(&ctx.stats.progress_ns);
            }
        }
    }
}

/// Idle-time accounting for one `wait_signal` (wall clock only): from its
/// first miss on, each lap charges the time since the previous one to
/// `parked_ns`, `spinning_ns` or `progress_ns`, so the three counters
/// partition the wait. Inert until started, so a virtual-clock wait, or a
/// wait whose badge is already set, reads no clock.
#[derive(Default)]
struct Laps(Option<Instant>);

impl Laps {
    fn start(&mut self) {
        self.0.get_or_insert_with(Instant::now);
    }

    fn lap(&mut self, into: &AtomicU64) {
        if let Some(last) = &mut self.0 {
            let now = Instant::now();
            add(into, now.duration_since(*last).as_nanos() as u64);
            *last = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::{launch, RuntimeConfig};
    use gasnex::{AmoOp, Rank};
    use std::time::{Duration, Instant};

    #[test]
    fn local_put_signal_is_observed_before_wait() {
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 14), |u| {
            let p = u.new_::<u64>(0);
            u.put_signal(42u64, p, 0, 0b1).wait();
            // The badge sits in the word; the wait consumes it instantly.
            assert_eq!(u.wait_signal(0, u64::MAX), 0b1);
            assert_eq!(u.rget(p).wait(), 42);
            assert_eq!(u.test_signal(0, u64::MAX), 0, "badge consumed once");
            let s = u.stats();
            assert_eq!(s.signals_sent, 1);
            assert_eq!(s.polls_while_parked, 0, "nothing to wait for");
            u.barrier();
        });
    }

    #[test]
    fn parked_waiter_wakes_on_cross_rank_signal_with_zero_polls() {
        // Rank 0 parks; rank 1 signals it after a delay. The acceptance
        // criterion: a parked rank performs zero progress polls while
        // parked and exactly one park wakeup.
        let stats = launch(RuntimeConfig::smp(2).with_segment_size(1 << 14), |u| {
            let mine = u.new_::<u64>(0);
            let target = u.broadcast(mine, 0);
            u.barrier();
            u.reset_stats();
            if u.rank_me() == 0 {
                let got = u.wait_signal(0, 0b10);
                assert_eq!(got, 0b10);
                assert_eq!(u.rget(mine).wait(), 7, "data lands before the badge");
            } else {
                std::thread::sleep(std::time::Duration::from_millis(20));
                u.put_signal(7u64, target, 0, 0b10).wait();
            }
            u.barrier();
            u.stats()
        });
        assert_eq!(stats[0].park_wakeups, 1, "rank 0 parked and was woken");
        assert_eq!(
            stats[0].polls_while_parked, 0,
            "a parked rank must not poll (idle-CPU guarantee)"
        );
        assert_eq!(stats[1].signals_sent, 1);
    }

    #[test]
    fn badges_coalesce_while_nobody_waits() {
        let stats = launch(RuntimeConfig::smp(2).with_segment_size(1 << 14), |u| {
            let mine = u.new_::<u64>(0);
            let target = u.broadcast(mine, 0);
            u.barrier();
            u.reset_stats();
            if u.rank_me() == 1 {
                for bit in 0..4u64 {
                    u.put_signal(bit, target, 1, 1 << bit).wait();
                }
            }
            u.barrier();
            if u.rank_me() == 0 {
                // All four badges were OR-ed into the word; one wait
                // observes the union.
                assert_eq!(u.wait_signal(1, u64::MAX), 0b1111);
            }
            u.barrier();
            u.stats()
        });
        assert_eq!(stats[1].signals_sent, 4);
        // The 2nd..4th posts found a non-zero word (the waiter only
        // consumed after the barrier).
        assert_eq!(stats[1].signals_coalesced, 3);
    }

    #[test]
    fn amo_signal_updates_word_atomically_before_badge() {
        let results = launch(RuntimeConfig::smp(4).with_segment_size(1 << 14), |u| {
            let mine = u.new_::<u64>(0);
            let target = u.broadcast(mine, 0);
            u.barrier();
            let me = u.rank_me();
            if me != 0 {
                u.amo_signal(target, AmoOp::Add, 1u64, 0, 1 << me).wait();
            }
            let out = if me == 0 {
                let mut seen = 0u64;
                while seen != 0b1110 {
                    seen |= u.wait_signal(0, 0b1110 & !seen);
                }
                u.rget(mine).wait()
            } else {
                0
            };
            u.barrier();
            out
        });
        assert_eq!(results[0], 3, "each amo_signal added exactly once");
    }

    #[test]
    fn refused_park_spin_partitions_the_wait() {
        // A lone rank can never reserve a park slot (at most `ranks - 1`
        // park), so it spins until a helper thread posts the badge. The
        // loop's own tests count as spinning, its quanta as progress, and
        // the two together fit inside the wait's wall time.
        let (s, wait_ns) = launch(RuntimeConfig::smp(1).with_segment_size(1 << 14), |u| {
            u.reset_stats();
            let world = &**u.world();
            std::thread::scope(|sc| {
                sc.spawn(move || {
                    std::thread::sleep(Duration::from_millis(5));
                    world.notify().post(Rank(0), 0, 0b1);
                });
                let t = Instant::now();
                assert_eq!(u.wait_signal(0, 0b1), 0b1);
                let wait_ns = t.elapsed().as_nanos() as u64;
                (u.stats(), wait_ns)
            })
        })
        .remove(0);
        assert!(s.polls_while_parked > 0, "the rank spun");
        assert_eq!(s.parked_ns, 0, "no park slot for a lone rank");
        assert!(s.progress_ns > 0, "the quanta it drove are progress time");
        assert!(
            s.spinning_ns > 0,
            "the loop's own re-tests are spinning time"
        );
        assert!(
            s.progress_ns + s.spinning_ns <= wait_ns,
            "progress {} + spinning {} exceeds the wait's {wait_ns} ns",
            s.progress_ns,
            s.spinning_ns
        );
    }

    #[test]
    fn future_waits_account_no_idle_time() {
        // Only `wait_signal` accounts idle time: a rank that spins in
        // `Future::wait` on off-node ops runs quanta but reads no clock.
        let stats = launch(RuntimeConfig::udp(2, 1).with_segment_size(1 << 14), |u| {
            let mine = u.new_::<u64>(0);
            let peer = u.broadcast(mine, 1);
            u.barrier();
            u.reset_stats();
            if u.rank_me() == 0 {
                for i in 0..8 {
                    u.rput(i, peer).wait();
                }
            }
            let s = u.stats();
            u.barrier();
            s
        });
        assert!(stats[0].progress_calls > 0, "the waits drove progress");
        for s in &stats {
            assert_eq!((s.progress_ns, s.spinning_ns, s.parked_ns), (0, 0, 0));
        }
    }

    #[test]
    fn wait_signal_is_mask_selective() {
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 14), |u| {
            let p = u.new_::<u64>(0);
            u.put_signal(1u64, p, 0, 0b101).wait();
            assert_eq!(u.wait_signal(0, 0b001), 0b001);
            assert_eq!(
                u.test_signal(0, u64::MAX),
                0b100,
                "unmasked bits stay in the word"
            );
            u.barrier();
        });
    }

    #[test]
    fn signal_counters_cover_reset() {
        // Regression (mirrors the PR-4 reset-coverage fix): the new signal
        // counters live in the per_rank_stats! declaration, so
        // `reset_stats` must zero all of them.
        launch(RuntimeConfig::smp(2).with_segment_size(1 << 14), |u| {
            let mine = u.new_::<u64>(0);
            let p0 = u.broadcast(mine, 0);
            let p1 = u.broadcast(mine, 1);
            u.barrier();
            let peer = if u.rank_me() == 0 { p1 } else { p0 };
            for bit in 0..3u64 {
                u.put_signal(bit, peer, 0, 1 << bit).wait();
            }
            u.barrier();
            assert_eq!(u.wait_signal(0, 0b111), 0b111);
            let s = u.stats();
            assert_eq!(s.signals_sent, 3);
            assert!(s.signals_coalesced > 0);
            u.reset_stats();
            let z = u.stats();
            assert_eq!(z.signals_sent, 0, "reset must clear signals_sent");
            assert_eq!(z.signals_coalesced, 0, "reset must clear signals_coalesced");
            assert_eq!(z.park_wakeups, 0, "reset must clear park_wakeups");
            assert_eq!(
                z.polls_while_parked, 0,
                "reset must clear polls_while_parked"
            );
            u.barrier();
        });
    }

    #[test]
    fn signal_crosses_the_simulated_wire() {
        // 4 ranks, 2 per node: rank 2 is off-node from rank 0, so its
        // signal takes the conduit (net signals counter) while rank 1's is
        // a same-node direct post.
        let stats = launch(RuntimeConfig::udp(4, 2).with_segment_size(1 << 14), |u| {
            let mine = u.new_::<u64>(0);
            let target = u.broadcast(mine, 0);
            u.barrier();
            let me = u.rank_me();
            if me == 1 || me == 2 {
                u.put_signal(me as u64, target, 0, 1 << me).wait();
            }
            if me == 0 {
                let mut seen = 0u64;
                while seen != 0b110 {
                    seen |= u.wait_signal(0, 0b110 & !seen);
                }
            }
            u.barrier();
            u.net_stats()
        });
        assert_eq!(
            stats[0].signals, 1,
            "exactly rank 2's signal rode the conduit"
        );
    }

    #[test]
    #[should_panic(expected = "wait_signal from a completion callback")]
    fn wait_signal_inside_a_callback_dies_with_diagnosis_instead_of_hanging() {
        // Satellite regression: with ranks = 1 the park cap (ranks - 1 = 0)
        // refuses every reservation, so a wait_signal issued from inside a
        // completion callback can neither park nor poll (progress is not
        // reentrant). It must panic with the stall diagnosis, not hang.
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 14), |u| {
            let p = u.new_::<u64>(0);
            u.rput_with(
                5u64,
                p,
                crate::completion::operation_cx::as_callback(|_: ()| {
                    crate::runtime::api::wait_signal(0, 0b1);
                }),
            );
            u.progress();
        });
    }

    #[test]
    #[should_panic(expected = "signal word 16 out of range")]
    fn out_of_range_word_is_rejected() {
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 14), |u| {
            let p = u.new_::<u64>(0);
            u.put_signal(1u64, p, 16, 1).wait();
        });
    }

    #[test]
    #[should_panic(expected = "zero badge")]
    fn zero_badge_is_rejected() {
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 14), |u| {
            let p = u.new_::<u64>(0);
            u.put_signal(1u64, p, 0, 0).wait();
        });
    }

    #[test]
    #[should_panic(expected = "zero mask")]
    fn zero_mask_is_rejected() {
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 14), |u| {
            u.wait_signal(0, 0);
        });
    }
}
