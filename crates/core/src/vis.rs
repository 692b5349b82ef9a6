//! Vector-Index-Strided (VIS) RMA: the `upcxx::rput_strided` /
//! `rput_irregular` family, backed by the same locality-check +
//! shared-memory-bypass / network-injection duality as scalar RMA — and
//! therefore the same eager/deferred completion semantics.
//!
//! These cover the common halo-exchange and scatter patterns: a strided put
//! moves `blocks` runs of `block_len` elements from a contiguous source
//! into a destination with a fixed element stride; a fragmented put
//! scatters individual elements to arbitrary global pointers under a single
//! completion.

use crate::completion::{no_rpcs, operation_cx, post_rpcs, take_rpcs, Completions, Notifier, Wire};
use crate::future::Future;
use crate::global_ptr::{GlobalPtr, SegValue};
use crate::runtime::Upcr;
use crate::stats::bump;
use crate::trace::OpKind;

/// A strided destination/source description: `blocks` runs of `block_len`
/// elements, consecutive runs `stride` *elements* apart.
#[derive(Clone, Copy, Debug)]
pub struct Strided {
    /// Elements per contiguous run.
    pub block_len: usize,
    /// Element distance between run starts (≥ `block_len` for
    /// non-overlapping runs).
    pub stride: usize,
    /// Number of runs.
    pub blocks: usize,
}

impl Strided {
    /// Total elements described.
    pub fn total(&self) -> usize {
        self.block_len * self.blocks
    }

    /// Validate basic shape.
    fn check(&self) {
        assert!(
            self.block_len > 0 && self.blocks > 0,
            "strided shape must be non-empty"
        );
        assert!(
            self.stride >= self.block_len,
            "stride {} shorter than block length {} would overlap runs",
            self.stride,
            self.block_len
        );
    }
}

impl Upcr {
    /// Strided put: scatter the contiguous `src` into runs at
    /// `dst + i*stride` (future completion).
    pub fn rput_strided<T: SegValue>(
        &self,
        src: &[T],
        dst: GlobalPtr<T>,
        shape: Strided,
    ) -> Future<()> {
        self.rput_strided_with(src, dst, shape, operation_cx::as_future())
    }

    /// Strided put with explicit completions.
    pub fn rput_strided_with<T: SegValue, C: Completions<()>>(
        &self,
        src: &[T],
        dst: GlobalPtr<T>,
        shape: Strided,
        mut cx: C,
    ) -> C::Out {
        shape.check();
        assert_eq!(
            src.len(),
            shape.total(),
            "source length must match the strided shape"
        );
        let ctx = &*self.ctx;
        bump(&ctx.stats.rputs);
        let top = ctx.trace_op_init(OpKind::Put, true);
        let rpcs = take_rpcs(&mut cx);
        let write_all = move |w: &gasnex::World, data: &[T]| {
            let seg = w.segment(dst.rank());
            for b in 0..shape.blocks {
                let run_off = dst.offset() + b * shape.stride * T::SIZE;
                for e in 0..shape.block_len {
                    let v = data[b * shape.block_len + e];
                    seg.write_scalar(run_off + e * T::SIZE, T::SIZE, v.to_bits());
                }
            }
        };
        if ctx.addressable(dst.rank()) {
            write_all(&ctx.world, src);
            post_rpcs(&ctx.world, dst.rank(), ctx.me, rpcs);
            cx.notify(&Notifier::sync(ctx, top, ()))
        } else {
            let (data, rank, me) = (src.to_vec(), dst.rank(), ctx.me);
            ctx.inject_op(cx, top, rank, Wire::Plain, move |w| {
                write_all(w, &data);
                post_rpcs(w, rank, me, rpcs);
            })
        }
    }

    /// Strided get: gather runs at `src + i*stride` into a contiguous
    /// vector (future completion carrying the data).
    pub fn rget_strided<T: SegValue>(&self, src: GlobalPtr<T>, shape: Strided) -> Future<Vec<T>> {
        self.rget_strided_with(src, shape, operation_cx::as_future())
    }

    /// Strided get with explicit completions.
    pub fn rget_strided_with<T: SegValue, C: Completions<Vec<T>>>(
        &self,
        src: GlobalPtr<T>,
        shape: Strided,
        mut cx: C,
    ) -> C::Out {
        shape.check();
        let ctx = &*self.ctx;
        bump(&ctx.stats.rgets);
        let top = ctx.trace_op_init(OpKind::Get, true);
        no_rpcs(&mut cx, "gets");
        let read_all = move |w: &gasnex::World| -> Vec<T> {
            let seg = w.segment(src.rank());
            let mut out = Vec::with_capacity(shape.total());
            for b in 0..shape.blocks {
                let run_off = src.offset() + b * shape.stride * T::SIZE;
                for e in 0..shape.block_len {
                    out.push(T::from_bits(
                        seg.read_scalar(run_off + e * T::SIZE, T::SIZE),
                    ));
                }
            }
            out
        };
        if ctx.addressable(src.rank()) {
            let data = read_all(&ctx.world);
            cx.notify(&Notifier::sync(ctx, top, data))
        } else {
            ctx.inject_op(cx, top, src.rank(), Wire::Plain, read_all)
        }
    }

    /// Fragmented put: scatter `vals[i]` to `dsts[i]` under a single
    /// completion. Destinations may mix local and remote targets; the
    /// completion is eager-eligible only when *every* target completed
    /// synchronously (i.e. all were directly addressable).
    pub fn rput_fragmented<T: SegValue>(&self, dsts: &[GlobalPtr<T>], vals: &[T]) -> Future<()> {
        self.rput_fragmented_with(dsts, vals, operation_cx::as_future())
    }

    /// Fragmented put with explicit completions.
    pub fn rput_fragmented_with<T: SegValue, C: Completions<()>>(
        &self,
        dsts: &[GlobalPtr<T>],
        vals: &[T],
        mut cx: C,
    ) -> C::Out {
        assert_eq!(dsts.len(), vals.len(), "one value per destination");
        let ctx = &*self.ctx;
        bump(&ctx.stats.rputs);
        let top = ctx.trace_op_init(OpKind::Put, true);
        no_rpcs(&mut cx, "fragmented puts (no single target)");
        // Local fragments transfer immediately; remote fragments are
        // grouped into one network operation.
        let mut remote: Vec<(gasnex::Rank, usize, u64)> = Vec::new();
        for (&d, &v) in dsts.iter().zip(vals) {
            if ctx.addressable(d.rank()) {
                ctx.world
                    .segment(d.rank())
                    .write_scalar(d.offset(), T::SIZE, v.to_bits());
            } else {
                remote.push((d.rank(), d.offset(), v.to_bits()));
            }
        }
        match remote.first() {
            None => cx.notify(&Notifier::sync(ctx, top, ())),
            // One unrouted message for every target, so the first stands in.
            Some(&(first, _, _)) => ctx.inject_op(cx, top, first, Wire::Plain, move |w| {
                for (rank, off, bits) in remote {
                    w.segment(rank).write_scalar(off, T::SIZE, bits);
                }
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{launch, RuntimeConfig};

    #[test]
    fn strided_shape_total() {
        let s = Strided {
            block_len: 3,
            stride: 8,
            blocks: 4,
        };
        assert_eq!(s.total(), 12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_shape_rejected() {
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 16), |u| {
            let arr = u.new_array::<u64>(8);
            let _ = u.rput_strided(
                &[],
                arr,
                Strided {
                    block_len: 0,
                    stride: 1,
                    blocks: 0,
                },
            );
        });
    }

    #[test]
    fn contiguous_strided_equals_slice_put() {
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 16), |u| {
            let a = u.new_array::<u64>(8);
            let b = u.new_array::<u64>(8);
            let data: Vec<u64> = (0..8).collect();
            u.rput_slice(&data, a).wait();
            u.rput_strided(
                &data,
                b,
                Strided {
                    block_len: 8,
                    stride: 8,
                    blocks: 1,
                },
            )
            .wait();
            assert_eq!(u.rget_vec(a, 8).wait(), u.rget_vec(b, 8).wait());
        });
    }

    #[test]
    fn fragmented_empty_is_eager_noop() {
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 16), |u| {
            let f = u.rput_fragmented::<u64>(&[], &[]);
            assert!(f.is_ready());
        });
    }
}
