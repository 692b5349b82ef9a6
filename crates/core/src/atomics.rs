//! Atomic domains: remote atomic operations on 64-bit shared words.
//!
//! Modeled on `upcxx::atomic_domain<T>`. Atomics must go through the
//! runtime even for local targets — the paper notes manual localization is
//! impossible for atomics because coherency with (potentially NIC-offloaded)
//! remote atomics must be preserved. Here, same-node targets execute a
//! hardware atomic directly (synchronous completion → eager-eligible);
//! cross-node targets are injected into the simulated network and executed
//! at delivery.
//!
//! §III-B's new **non-value-producing overloads of fetching atomics** are
//! the `fetch_*_into` methods: the fetched prior value is written to a
//! caller-supplied memory location instead of riding the completion, so the
//! result future is value-less and — combined with eager notification —
//! requires no internal cell allocation at all.

use std::marker::PhantomData;
use std::rc::Rc;

use gasnex::{AmoOp, Rank};

use crate::completion::{no_rpcs, operation_cx, Completions, CxValue, Notifier, Wire};
use crate::ctx::RankCtx;
use crate::future::Future;
use crate::global_ptr::{GlobalPtr, SegValue};
use crate::runtime::Upcr;
use crate::stats::bump;

/// Value types supported by atomic domains (64-bit integers, matching the
/// word-atomic segment storage).
pub trait AtomicValue: SegValue + CxValue {
    /// Whether min/max compare as signed.
    const SIGNED: bool;
}

impl AtomicValue for u64 {
    const SIGNED: bool = false;
}
impl AtomicValue for i64 {
    const SIGNED: bool = true;
}

/// A domain of atomic operations over `T`, bound to the constructing rank.
pub struct AtomicDomain<T: AtomicValue> {
    ctx: Rc<RankCtx>,
    _marker: PhantomData<fn() -> T>,
}

impl Upcr {
    /// Construct an atomic domain for `T` (`u64` or `i64`).
    pub fn atomic_domain<T: AtomicValue>(&self) -> AtomicDomain<T> {
        AtomicDomain {
            ctx: Rc::clone(&self.ctx),
            _marker: PhantomData,
        }
    }
}

/// Where a fetched value should be delivered.
#[derive(Clone, Copy)]
enum FetchDest {
    /// Into the completion notification (classic fetching op).
    Notification,
    /// Into memory at `(rank, offset)` (the new non-value overloads).
    Memory(Rank, usize),
}

/// Generates the method family for one arithmetic/bitwise op: non-fetching
/// (`add`), fetching (`fetch_add`), and the new fetch-into-memory overloads
/// (`fetch_add_into`, §III-B), each with an explicit-completions `_with`
/// form.
macro_rules! fetch_family {
    ($plain:ident, $plain_with:ident, $fetch:ident, $fetch_with:ident,
     $into:ident, $into_with:ident, $op_plain:expr, $op_fetch:expr, $doc:literal) => {
        #[doc = concat!("Non-fetching: ", $doc, ".")]
        pub fn $plain(&self, p: GlobalPtr<T>, v: T) -> Future<()> {
            self.$plain_with(p, v, operation_cx::as_future())
        }

        #[doc = concat!("Non-fetching ", $doc, ", with explicit completions.")]
        pub fn $plain_with<C: Completions<()>>(&self, p: GlobalPtr<T>, v: T, cx: C) -> C::Out {
            self.issue_unit(p, $op_plain, v.to_bits(), 0, FetchDest::Notification, cx)
        }

        #[doc = concat!("Fetching: ", $doc, ", the completion carrying the prior value.")]
        pub fn $fetch(&self, p: GlobalPtr<T>, v: T) -> Future<T> {
            self.$fetch_with(p, v, operation_cx::as_future())
        }

        #[doc = concat!("Fetching ", $doc, ", with explicit completions.")]
        pub fn $fetch_with<C: Completions<T>>(&self, p: GlobalPtr<T>, v: T, cx: C) -> C::Out {
            self.issue_fetch(p, $op_fetch, v.to_bits(), 0, cx)
        }

        #[doc = concat!("New non-value overload (§III-B): ", $doc,
                            ", writing the prior value to `result` instead of the completion. \
             Unavailable under 2021.3.0 semantics.")]
        pub fn $into(&self, p: GlobalPtr<T>, v: T, result: GlobalPtr<T>) -> Future<()> {
            self.$into_with(p, v, result, operation_cx::as_future())
        }

        #[doc = concat!("As [`Self::", stringify!($into), "`], with explicit completions.")]
        pub fn $into_with<C: Completions<()>>(
            &self,
            p: GlobalPtr<T>,
            v: T,
            result: GlobalPtr<T>,
            cx: C,
        ) -> C::Out {
            self.check_into_available();
            assert_eq!(
                result.offset() % 8,
                0,
                "atomic result target must be 8-byte aligned"
            );
            self.issue_unit(
                p,
                $op_fetch,
                v.to_bits(),
                0,
                FetchDest::Memory(result.rank(), result.offset()),
                cx,
            )
        }
    };
}

impl<T: AtomicValue> AtomicDomain<T> {
    /// Core dispatch: execute `op` on the word at `target`, routing the
    /// fetched value per `dest`, and produce completions of value type `V`.
    /// `wire` is [`Wire::Coalesced`] only for non-fetching atomics whose
    /// completion carries no value, since a fetched result should not wait
    /// in a batch buffer behind unrelated ops.
    #[allow(clippy::too_many_arguments)] // one parameter per AMO aspect; all call sites are the two wrappers below
    fn issue<V: CxValue, C: Completions<V>>(
        &self,
        target: GlobalPtr<T>,
        op: AmoOp,
        operand: u64,
        operand2: u64,
        dest: FetchDest,
        wire: Wire,
        wrap: impl Fn(u64) -> V + Send + 'static,
        mut cx: C,
    ) -> C::Out {
        let ctx = &*self.ctx;
        debug_assert!(!target.is_null(), "atomic on null global pointer");
        assert_eq!(
            target.offset() % 8,
            0,
            "atomic target must be 8-byte aligned"
        );
        bump(&ctx.stats.amos);
        let top = ctx.trace_op_init(crate::trace::OpKind::Amo, true);
        no_rpcs(&mut cx, "atomics");
        if ctx.addressable(target.rank()) {
            let prior = gasnex::amo::execute(
                ctx.world.segment(target.rank()),
                target.offset(),
                op,
                operand,
                operand2,
                T::SIGNED,
            );
            if let FetchDest::Memory(r, off) = dest {
                ctx.world.segment(r).write_u64(off, prior);
            }
            cx.notify(&Notifier::sync(ctx, top, wrap(prior)))
        } else {
            let (rank, off) = (target.rank(), target.offset());
            ctx.inject_op(cx, top, rank, wire, move |w| {
                let prior =
                    gasnex::amo::execute(w.segment(rank), off, op, operand, operand2, T::SIGNED);
                if let FetchDest::Memory(r, roff) = dest {
                    w.segment(r).write_u64(roff, prior);
                }
                wrap(prior)
            })
        }
    }

    fn issue_unit<C: Completions<()>>(
        &self,
        target: GlobalPtr<T>,
        op: AmoOp,
        operand: u64,
        operand2: u64,
        dest: FetchDest,
        cx: C,
    ) -> C::Out {
        // Only the pure-notification form coalesces: a fetch-into-memory op
        // still produces a prior value the caller may be polling for.
        let wire = match dest {
            FetchDest::Notification => Wire::Coalesced,
            FetchDest::Memory(..) => Wire::Plain,
        };
        self.issue(target, op, operand, operand2, dest, wire, |_| (), cx)
    }

    fn issue_fetch<C: Completions<T>>(
        &self,
        target: GlobalPtr<T>,
        op: AmoOp,
        operand: u64,
        operand2: u64,
        cx: C,
    ) -> C::Out {
        self.issue(
            target,
            op,
            operand,
            operand2,
            FetchDest::Notification,
            Wire::Plain,
            T::from_bits,
            cx,
        )
    }

    fn check_into_available(&self) {
        assert!(
            self.ctx.version.has_nonfetching_fetch_amos(),
            "non-value-producing fetching atomics do not exist in UPC++ {}",
            self.ctx.version
        );
    }

    // ---- loads and stores -------------------------------------------------

    /// Atomic load.
    pub fn load(&self, p: GlobalPtr<T>) -> Future<T> {
        self.load_with(p, operation_cx::as_future())
    }
    /// Atomic load with explicit completions.
    pub fn load_with<C: Completions<T>>(&self, p: GlobalPtr<T>, cx: C) -> C::Out {
        self.issue_fetch(p, AmoOp::Get, 0, 0, cx)
    }

    /// Atomic store.
    pub fn store(&self, p: GlobalPtr<T>, v: T) -> Future<()> {
        self.store_with(p, v, operation_cx::as_future())
    }
    /// Atomic store with explicit completions.
    pub fn store_with<C: Completions<()>>(&self, p: GlobalPtr<T>, v: T, cx: C) -> C::Out {
        self.issue_unit(p, AmoOp::Set, v.to_bits(), 0, FetchDest::Notification, cx)
    }

    // ---- non-fetching updates (existed in all versions) -------------------

    /// Atomic swap, returning the prior value.
    pub fn exchange(&self, p: GlobalPtr<T>, v: T) -> Future<T> {
        self.exchange_with(p, v, operation_cx::as_future())
    }
    /// Atomic swap with explicit completions.
    pub fn exchange_with<C: Completions<T>>(&self, p: GlobalPtr<T>, v: T, cx: C) -> C::Out {
        self.issue_fetch(p, AmoOp::Swap, v.to_bits(), 0, cx)
    }

    /// Atomic compare-and-swap: if the word equals `expected`, store
    /// `desired`; the completion carries the prior value either way.
    pub fn compare_exchange(&self, p: GlobalPtr<T>, expected: T, desired: T) -> Future<T> {
        self.compare_exchange_with(p, expected, desired, operation_cx::as_future())
    }
    /// Compare-and-swap with explicit completions.
    pub fn compare_exchange_with<C: Completions<T>>(
        &self,
        p: GlobalPtr<T>,
        expected: T,
        desired: T,
        cx: C,
    ) -> C::Out {
        self.issue_fetch(
            p,
            AmoOp::CompareSwap,
            expected.to_bits(),
            desired.to_bits(),
            cx,
        )
    }

    // ---- fetching and non-fetching arithmetic ------------------------------

    fetch_family!(
        add,
        add_with,
        fetch_add,
        fetch_add_with,
        fetch_add_into,
        fetch_add_into_with,
        AmoOp::Add,
        AmoOp::FetchAdd,
        "add `v` to the word"
    );
    fetch_family!(
        sub,
        sub_with,
        fetch_sub,
        fetch_sub_with,
        fetch_sub_into,
        fetch_sub_into_with,
        AmoOp::Sub,
        AmoOp::FetchSub,
        "subtract `v` from the word"
    );
    fetch_family!(
        bit_and,
        bit_and_with,
        fetch_bit_and,
        fetch_bit_and_with,
        fetch_bit_and_into,
        fetch_bit_and_into_with,
        AmoOp::And,
        AmoOp::FetchAnd,
        "bitwise-AND `v` into the word"
    );
    fetch_family!(
        bit_or,
        bit_or_with,
        fetch_bit_or,
        fetch_bit_or_with,
        fetch_bit_or_into,
        fetch_bit_or_into_with,
        AmoOp::Or,
        AmoOp::FetchOr,
        "bitwise-OR `v` into the word"
    );
    fetch_family!(
        bit_xor,
        bit_xor_with,
        fetch_bit_xor,
        fetch_bit_xor_with,
        fetch_bit_xor_into,
        fetch_bit_xor_into_with,
        AmoOp::Xor,
        AmoOp::FetchXor,
        "bitwise-XOR `v` into the word"
    );
    fetch_family!(
        min,
        min_with,
        fetch_min,
        fetch_min_with,
        fetch_min_into,
        fetch_min_into_with,
        AmoOp::Min,
        AmoOp::FetchMin,
        "lower the word to `v` if smaller"
    );
    fetch_family!(
        max,
        max_with,
        fetch_max,
        fetch_max_with,
        fetch_max_into,
        fetch_max_into_with,
        AmoOp::Max,
        AmoOp::FetchMax,
        "raise the word to `v` if larger"
    );
}

#[cfg(test)]
mod tests {
    use crate::runtime::{launch, RuntimeConfig};

    #[test]
    fn full_op_surface_single_rank() {
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 16), |u| {
            let w = u.new_::<u64>(10);
            let r = u.new_::<u64>(0);
            let ad = u.atomic_domain::<u64>();
            assert_eq!(ad.load(w).wait(), 10);
            ad.store(w, 20).wait();
            ad.add(w, 5).wait();
            ad.sub(w, 1).wait();
            ad.bit_or(w, 0x100).wait();
            ad.bit_and(w, !0x4).wait();
            ad.bit_xor(w, 0x1).wait();
            ad.min(w, 1000).wait();
            ad.max(w, 2).wait();
            let v = ad.load(w).wait();
            assert_eq!(v, ((20 + 5 - 1) | 0x100) & !0x4 ^ 0x1);
            assert_eq!(ad.fetch_add(w, 1).wait(), v);
            ad.fetch_sub_into(w, 1, r).wait();
            assert_eq!(u.local(r).get(), v + 1);
            assert_eq!(ad.load(w).wait(), v);
        });
    }

    #[test]
    fn counters_track_amos() {
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 16), |u| {
            let w = u.new_::<u64>(0);
            let ad = u.atomic_domain::<u64>();
            u.reset_stats();
            for _ in 0..7 {
                ad.add(w, 1).wait();
            }
            assert_eq!(u.stats().amos, 7);
        });
    }

    #[test]
    fn signed_domain_arithmetic() {
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 16), |u| {
            let w = u.new_::<i64>(-10);
            let ad = u.atomic_domain::<i64>();
            ad.add(w, 3).wait();
            assert_eq!(ad.load(w).wait(), -7);
            assert_eq!(ad.fetch_add(w, -3).wait(), -7);
            assert_eq!(ad.load(w).wait(), -10);
        });
    }
}
