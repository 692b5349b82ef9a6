//! Remote procedure calls.
//!
//! `rpc` ships a closure to the target rank, where it executes during that
//! rank's progress engine; the result comes back in a reply AM, routed
//! over the wire iff the request crossed it, which completes the op on the
//! initiator's thread. The returned future is filed like any in-flight
//! op's deferred notification (`RankCtx::file`), so the reply wakes it
//! with a ready-queue token. `rpc_ff` is the fire-and-forget form. Because
//! all ranks share one address space, the "serialization" of the callable
//! is a boxed `FnOnce` (see DESIGN.md).
//!
//! RPCs never complete synchronously — even a self-targeted RPC is queued
//! and runs in a later progress call, exactly as in UPC++.

use gasnex::{AmCtx, Rank, World};

use crate::completion::{operation_cx, CxValue};
use crate::future::Future;
use crate::runtime::Upcr;
use crate::ser::SerDe;
use crate::stats::bump;
use crate::trace::{OpKind, TraceOp};

/// Route an AM to `target`: directly when addressable, through the
/// simulated network otherwise. Returns the network message id when the
/// request crossed the simulated wire.
fn send_am_routed(
    world: &World,
    me: Rank,
    target: Rank,
    direct: bool,
    handler: impl FnOnce(&AmCtx<'_>) + Send + 'static,
) -> Option<u64> {
    if direct {
        world.send_am(target, me, handler);
        None
    } else {
        Some(world.net_inject(Box::new(move |w| w.send_am(target, me, handler))))
    }
}

/// Send `reply` back to the sender of the AM `amctx` is running; the reply
/// crosses the network iff the request did.
fn send_reply(amctx: &AmCtx<'_>, reply: impl FnOnce(&AmCtx<'_>) + Send + 'static) {
    let (src, me) = (amctx.src, amctx.me);
    let direct = amctx.world.topology().same_node(me, src);
    send_am_routed(amctx.world, me, src, direct, reply);
}

impl Upcr {
    /// Execute `f` on `target`, returning a future for its result.
    ///
    /// The callable runs inside the target's progress engine; it may
    /// initiate communication but must not block (no `wait`/`barrier`).
    pub fn rpc<F, R>(&self, target: Rank, f: F) -> Future<R>
    where
        F: FnOnce() -> R + Send + 'static,
        R: CxValue,
    {
        let top = self.ctx.trace_op_init(OpKind::Rpc, true);
        // An RPC is always in flight at initiation, even a self-targeted
        // one, so its future always takes the deferred path.
        let (fut, done) = self.ctx.file(operation_cx::as_future(), top);
        self.send_rpc(target, top, move |amctx| {
            let r = f();
            send_reply(amctx, move |amctx| done.complete(amctx.world, r));
        });
        fut
    }

    /// RPC in the fully faithful UPC++ transport style: a plain function
    /// plus **serialized** arguments. The argument tuple is encoded to
    /// bytes at initiation (so the caller's buffers are immediately
    /// reusable), crosses the (simulated) network as bytes, and is decoded
    /// on the target; the result returns the same way.
    ///
    /// Prefer this over [`rpc`](Self::rpc) when modelling wire traffic
    /// matters; `rpc` ships a boxed closure, which is only possible because
    /// all ranks share one address space.
    pub fn rpc_args<A, R>(&self, target: Rank, f: fn(A) -> R, args: A) -> Future<R>
    where
        A: SerDe + Send + 'static,
        R: CxValue + SerDe,
    {
        let top = self.ctx.trace_op_init(OpKind::Rpc, true);
        let arg_bytes = args.to_bytes();
        let (fut, done) = self.ctx.file(operation_cx::as_future(), top);
        self.send_rpc(target, top, move |amctx| {
            let a = A::from_bytes(&arg_bytes)
                .unwrap_or_else(|e| panic!("rpc_args argument deserialization failed: {e}"));
            let result_bytes = f(a).to_bytes();
            send_reply(amctx, move |amctx| {
                let r = R::from_bytes(&result_bytes)
                    .unwrap_or_else(|e| panic!("rpc_args reply deserialization failed: {e}"));
                done.complete(amctx.world, r);
            });
        });
        fut
    }

    /// Fire-and-forget RPC: execute `f` on `target` with no completion
    /// notification back to the initiator.
    pub fn rpc_ff<F>(&self, target: Rank, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        // No completion ever comes back, so the span is closed at init.
        let top = self.ctx.trace_op_init(OpKind::Rpc, false);
        self.send_rpc(target, top, move |_| f());
    }

    /// Send an RPC request that runs `handler` on `target`: directly when
    /// the target is addressable, over the wire (counted and traced as
    /// span `top`'s inject) otherwise.
    fn send_rpc(
        &self,
        target: Rank,
        top: TraceOp,
        handler: impl FnOnce(&AmCtx<'_>) + Send + 'static,
    ) {
        let ctx = &*self.ctx;
        bump(&ctx.stats.rpcs);
        let direct = ctx.addressable(target);
        if !direct {
            bump(&ctx.stats.net_injected);
        }
        if let Some(msg) = send_am_routed(&ctx.world, ctx.me, target, direct, handler) {
            ctx.trace_net_inject(top, msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{launch, RuntimeConfig};

    #[test]
    fn rpc_chains_on_reply() {
        launch(RuntimeConfig::smp(2).with_segment_size(1 << 16), |u| {
            if u.rank_me() == 0 {
                let doubled = u.rpc(Rank(1), || 21u64).then(|v| v * 2);
                assert_eq!(doubled.wait(), 42);
            }
            u.barrier();
        });
    }

    #[test]
    fn rpc_body_may_communicate() {
        launch(RuntimeConfig::smp(2).with_segment_size(1 << 16), |u| {
            let mine = u.new_::<u64>(7 + u.rank_me() as u64);
            let ptrs: Vec<_> = (0..2).map(|r| u.broadcast(mine, r)).collect();
            u.barrier();
            if u.rank_me() == 0 {
                let p0 = ptrs[0];
                // The body runs on rank 1 and reads rank 0's cell via an
                // eager local rget (both on one node).
                let v = u
                    .rpc(Rank(1), move || crate::runtime::api::rget(p0).wait())
                    .wait();
                assert_eq!(v, 7);
            }
            u.barrier();
        });
    }

    #[test]
    fn many_concurrent_rpcs_resolve() {
        launch(RuntimeConfig::smp(4).with_segment_size(1 << 16), |u| {
            let futs: Vec<_> = (0..64u64)
                .map(|i| {
                    let t = Rank(((u.rank_me() as u64 + i) % 4) as u32);
                    u.rpc(t, move || i * i)
                })
                .collect();
            for (i, f) in futs.into_iter().enumerate() {
                assert_eq!(f.wait(), (i * i) as u64);
            }
            u.barrier();
        });
    }
}
