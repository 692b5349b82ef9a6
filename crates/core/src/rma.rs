//! One-sided remote memory access: `rput` / `rget`, scalar and bulk.
//!
//! Every operation performs the dynamic locality check the paper discusses:
//! a directly-addressable target takes the shared-memory bypass (the data
//! movement completes synchronously, making eager notification possible);
//! any other target is injected into the simulated network and always
//! completes asynchronously. Under 2021.3.0 semantics the bypass path
//! additionally performs the extra heap allocation that snapshot 2021.3.6
//! eliminated (`legacy_extra_alloc`).

use crate::completion::{
    no_rpcs, operation_cx, post_rpcs, take_rpcs, Completions, CxValue, Notifier, Wire,
};
use crate::ctx::RankCtx;
use crate::future::Future;
use crate::global_ptr::{GlobalPtr, SegValue};
use crate::runtime::Upcr;
use crate::stats::bump;
use crate::trace::OpKind;

/// Emulates the per-operation internal allocation that UPC++ 2021.3.0
/// performed on the directly-addressable RMA path (removed in the 2021.3.6
/// snapshot). Sized like the internal operation descriptor it stands for.
#[inline(never)]
fn legacy_extra_alloc(ctx: &RankCtx) {
    bump(&ctx.stats.legacy_extra_allocs);
    let b: Box<[u64; 6]> = Box::new([0; 6]);
    std::hint::black_box(&b);
}

impl Upcr {
    /// Asynchronous scalar put with default (future) completion.
    ///
    /// ```
    /// upcr::launch(upcr::RuntimeConfig::smp(2), |u| {
    ///     let p = u.new_::<u64>(0);
    ///     let f = u.rput(7, p);
    ///     assert!(f.is_ready()); // local target + eager default
    ///     assert_eq!(u.rget(p).wait(), 7);
    ///     u.barrier();
    /// });
    /// ```
    pub fn rput<T: SegValue>(&self, val: T, dst: GlobalPtr<T>) -> Future<()> {
        self.rput_with(val, dst, operation_cx::as_future())
    }

    /// Asynchronous scalar put with an explicit completions object.
    pub fn rput_with<T: SegValue, C: Completions<()>>(
        &self,
        val: T,
        dst: GlobalPtr<T>,
        mut cx: C,
    ) -> C::Out {
        let ctx = &*self.ctx;
        debug_assert!(!dst.is_null(), "rput to null global pointer");
        bump(&ctx.stats.rputs);
        let top = ctx.trace_op_init(OpKind::Put, true);
        let rpcs = take_rpcs(&mut cx);
        if ctx.addressable(dst.rank()) {
            // Shared-memory bypass: data movement completes synchronously.
            if !ctx.version.has_alloc_elision() {
                legacy_extra_alloc(ctx);
            }
            ctx.world
                .segment(dst.rank())
                .write_scalar(dst.offset(), T::SIZE, val.to_bits());
            post_rpcs(&ctx.world, dst.rank(), ctx.me, rpcs);
            cx.notify(&Notifier::sync(ctx, top, ()))
        } else {
            let (rank, off, bits, me) = (dst.rank(), dst.offset(), val.to_bits(), ctx.me);
            // Fine-grained scalar put: eligible for sender-side aggregation.
            ctx.inject_op(cx, top, rank, Wire::Coalesced, move |w| {
                w.segment(rank).write_scalar(off, T::SIZE, bits);
                post_rpcs(w, rank, me, rpcs);
            })
        }
    }

    /// Asynchronous scalar get with default (future) completion.
    pub fn rget<T: SegValue + CxValue>(&self, src: GlobalPtr<T>) -> Future<T> {
        self.rget_with(src, operation_cx::as_future())
    }

    /// Asynchronous scalar get with an explicit completions object.
    pub fn rget_with<T: SegValue + CxValue, C: Completions<T>>(
        &self,
        src: GlobalPtr<T>,
        mut cx: C,
    ) -> C::Out {
        let ctx = &*self.ctx;
        debug_assert!(!src.is_null(), "rget from null global pointer");
        bump(&ctx.stats.rgets);
        let top = ctx.trace_op_init(OpKind::Get, true);
        no_rpcs(&mut cx, "rget");
        if ctx.addressable(src.rank()) {
            if !ctx.version.has_alloc_elision() {
                legacy_extra_alloc(ctx);
            }
            let v = T::from_bits(
                ctx.world
                    .segment(src.rank())
                    .read_scalar(src.offset(), T::SIZE),
            );
            cx.notify(&Notifier::sync(ctx, top, v))
        } else {
            let (rank, off) = (src.rank(), src.offset());
            ctx.inject_op(cx, top, rank, Wire::Plain, move |w| {
                T::from_bits(w.segment(rank).read_scalar(off, T::SIZE))
            })
        }
    }

    /// Bulk put: copy `src` into consecutive elements starting at `dst`,
    /// with default (future) completion.
    pub fn rput_slice<T: SegValue>(&self, src: &[T], dst: GlobalPtr<T>) -> Future<()> {
        self.rput_slice_with(src, dst, operation_cx::as_future())
    }

    /// Bulk put with an explicit completions object. The source slice is
    /// captured by copy at initiation, so source completion is immediate.
    pub fn rput_slice_with<T: SegValue, C: Completions<()>>(
        &self,
        src: &[T],
        dst: GlobalPtr<T>,
        mut cx: C,
    ) -> C::Out {
        let ctx = &*self.ctx;
        bump(&ctx.stats.rputs);
        let top = ctx.trace_op_init(OpKind::Put, true);
        let rpcs = take_rpcs(&mut cx);
        let write_all = move |w: &gasnex::World, data: &[T]| {
            let seg = w.segment(dst.rank());
            for (i, v) in data.iter().enumerate() {
                seg.write_scalar(dst.offset() + i * T::SIZE, T::SIZE, v.to_bits());
            }
        };
        if ctx.addressable(dst.rank()) {
            if !ctx.version.has_alloc_elision() {
                legacy_extra_alloc(ctx);
            }
            write_all(&ctx.world, src);
            post_rpcs(&ctx.world, dst.rank(), ctx.me, rpcs);
            cx.notify(&Notifier::sync(ctx, top, ()))
        } else {
            let (data, me) = (src.to_vec(), ctx.me);
            ctx.inject_op(cx, top, dst.rank(), Wire::Plain, move |w| {
                write_all(w, &data);
                post_rpcs(w, dst.rank(), me, rpcs);
            })
        }
    }

    /// One-sided copy of `n` elements between global pointers (the
    /// `upcxx::copy` idiom), with default (future) completion.
    ///
    /// The destination lives in shared memory, so — unlike a get into a
    /// local buffer — completion is value-less. This is what lets a batch of
    /// gets be tracked by a single promise (or conjoined unit futures): the
    /// fetched data lands in the caller's shared scratch space, not in the
    /// notification.
    /// ```
    /// upcr::launch(upcr::RuntimeConfig::smp(1), |u| {
    ///     let a = u.new_array::<u64>(4);
    ///     let b = u.new_array::<u64>(4);
    ///     u.rput_slice(&[1, 2, 3, 4u64], a).wait();
    ///     u.copy(a, b, 4).wait();
    ///     assert_eq!(u.rget_vec(b, 4).wait(), vec![1, 2, 3, 4]);
    /// });
    /// ```
    pub fn copy<T: SegValue>(&self, src: GlobalPtr<T>, dst: GlobalPtr<T>, n: usize) -> Future<()> {
        self.copy_with(src, dst, n, operation_cx::as_future())
    }

    /// One-sided copy with an explicit completions object.
    pub fn copy_with<T: SegValue, C: Completions<()>>(
        &self,
        src: GlobalPtr<T>,
        dst: GlobalPtr<T>,
        n: usize,
        mut cx: C,
    ) -> C::Out {
        let ctx = &*self.ctx;
        bump(&ctx.stats.rgets);
        let top = ctx.trace_op_init(OpKind::Get, true);
        let rpcs = take_rpcs(&mut cx);
        let copy_now = move |w: &gasnex::World| {
            let (ssec, dsec) = (w.segment(src.rank()), w.segment(dst.rank()));
            for i in 0..n {
                let bits = ssec.read_scalar(src.offset() + i * T::SIZE, T::SIZE);
                dsec.write_scalar(dst.offset() + i * T::SIZE, T::SIZE, bits);
            }
        };
        if ctx.addressable(src.rank()) && ctx.addressable(dst.rank()) {
            if !ctx.version.has_alloc_elision() {
                legacy_extra_alloc(ctx);
            }
            copy_now(&ctx.world);
            post_rpcs(&ctx.world, dst.rank(), ctx.me, rpcs);
            cx.notify(&Notifier::sync(ctx, top, ()))
        } else {
            let (rank, me) = (dst.rank(), ctx.me);
            ctx.inject_op(cx, top, rank, Wire::Plain, move |w| {
                copy_now(w);
                post_rpcs(w, rank, me, rpcs);
            })
        }
    }

    /// Bulk get of `n` elements starting at `src`, yielding the data in the
    /// completion value, with default (future) completion.
    pub fn rget_vec<T: SegValue>(&self, src: GlobalPtr<T>, n: usize) -> Future<Vec<T>> {
        self.rget_vec_with(src, n, operation_cx::as_future())
    }

    /// Bulk get with an explicit completions object.
    pub fn rget_vec_with<T: SegValue, C: Completions<Vec<T>>>(
        &self,
        src: GlobalPtr<T>,
        n: usize,
        mut cx: C,
    ) -> C::Out {
        let ctx = &*self.ctx;
        bump(&ctx.stats.rgets);
        let top = ctx.trace_op_init(OpKind::Get, true);
        no_rpcs(&mut cx, "rget");
        let read_all = move |w: &gasnex::World| -> Vec<T> {
            let seg = w.segment(src.rank());
            (0..n)
                .map(|i| T::from_bits(seg.read_scalar(src.offset() + i * T::SIZE, T::SIZE)))
                .collect()
        };
        if ctx.addressable(src.rank()) {
            if !ctx.version.has_alloc_elision() {
                legacy_extra_alloc(ctx);
            }
            cx.notify(&Notifier::sync(ctx, top, read_all(&ctx.world)))
        } else {
            ctx.inject_op(cx, top, src.rank(), Wire::Plain, read_all)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::{launch, RuntimeConfig};

    fn one_rank(f: impl Fn(&crate::Upcr) + Sync) {
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 18), f);
    }

    #[test]
    fn scalar_roundtrip_every_width() {
        one_rank(|u| {
            let a = u.new_::<u8>(0);
            let b = u.new_::<u16>(0);
            let c = u.new_::<u32>(0);
            let d = u.new_::<u64>(0);
            u.rput(0x12u8, a).wait();
            u.rput(0x1234u16, b).wait();
            u.rput(0x1234_5678u32, c).wait();
            u.rput(0x1234_5678_9ABC_DEF0u64, d).wait();
            assert_eq!(u.rget(a).wait(), 0x12);
            assert_eq!(u.rget(b).wait(), 0x1234);
            assert_eq!(u.rget(c).wait(), 0x1234_5678);
            assert_eq!(u.rget(d).wait(), 0x1234_5678_9ABC_DEF0);
        });
    }

    #[test]
    fn copy_shifts_within_one_segment() {
        one_rank(|u| {
            let arr = u.new_array::<u64>(8);
            let data: Vec<u64> = (10..18).collect();
            u.rput_slice(&data, arr).wait();
            u.copy(arr, arr.add(4), 4).wait();
            assert_eq!(u.rget_vec(arr.add(4), 4).wait(), vec![10, 11, 12, 13]);
        });
    }

    #[test]
    fn slice_roundtrip_narrow_type() {
        one_rank(|u| {
            let arr = u.new_array::<i16>(10);
            let data: Vec<i16> = (-5..5).collect();
            u.rput_slice(&data, arr).wait();
            assert_eq!(u.rget_vec(arr, 10).wait(), data);
        });
    }

    #[test]
    fn legacy_alloc_counted_per_op_kind() {
        launch(
            RuntimeConfig::smp(1)
                .with_version(crate::LibVersion::V2021_3_0)
                .with_segment_size(1 << 18),
            |u| {
                let a = u.new_::<u64>(0);
                u.reset_stats();
                u.rput(1, a).wait();
                u.rget(a).wait();
                u.copy(a, a, 1).wait();
                u.rput_slice(&[1u64], a).wait();
                u.rget_vec(a, 1).wait();
                assert_eq!(u.stats().legacy_extra_allocs, 5);
            },
        );
    }
}
