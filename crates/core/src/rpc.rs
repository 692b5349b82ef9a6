//! Remote procedure calls.
//!
//! `rpc` ships a closure to the target rank, where it executes during that
//! rank's progress engine; the returned future is readied on the initiator
//! when the reply arrives. `rpc_ff` is the fire-and-forget form. Because
//! all ranks share one address space, the "serialization" of the callable
//! is a boxed `FnOnce` (see DESIGN.md); replies carry the result as a
//! type-erased `Any` payload matched back to its continuation by id.
//!
//! RPCs never complete synchronously — even a self-targeted RPC is queued
//! and runs in a later progress call, exactly as in UPC++.

use std::rc::Rc;

use gasnex::{AmCtx, Rank, World};

use crate::completion::CxValue;
use crate::ctx::deliver_reply;
use crate::future::cell::new_cell;
use crate::future::Future;
use crate::runtime::Upcr;
use crate::stats::bump;
use crate::trace::{CompletionPath, OpKind};

/// Route an AM to `target`: directly when addressable, through the
/// simulated network otherwise. Returns the network message id when the
/// request crossed the simulated wire.
pub(crate) fn send_am_routed(
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
pub(crate) fn send_reply(amctx: &AmCtx<'_>, reply: impl FnOnce(&AmCtx<'_>) + Send + 'static) {
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
        let ctx = &*self.ctx;
        bump(&ctx.stats.rpcs);
        // RPC notifications always take the deferred path: even self-
        // targeted RPCs are queued, so the reply can never be eager.
        let top = ctx.trace_op_init(OpKind::Rpc, true);
        let cell = new_cell::<R>(1);
        let c2 = Rc::clone(&cell);
        let id = ctx.register_reply(Box::new(move |payload| {
            let v = *payload
                .downcast::<R>()
                .expect("rpc reply payload type mismatch");
            c2.set_value(v);
            c2.fulfill(1);
            crate::ctx::trace_notify(top, CompletionPath::Deferred);
        }));
        let direct = ctx.addressable(target);
        if !direct {
            bump(&ctx.stats.net_injected);
        }
        let msg = send_am_routed(&ctx.world, ctx.me, target, direct, move |amctx| {
            let r = f();
            send_reply(amctx, move |_| deliver_reply(id, Box::new(r)));
        });
        if let Some(msg) = msg {
            ctx.trace_net_inject(top, msg);
        }
        Future::from_cell(cell)
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
        A: crate::ser::SerDe + Send + 'static,
        R: crate::completion::CxValue + crate::ser::SerDe,
    {
        let ctx = &*self.ctx;
        bump(&ctx.stats.rpcs);
        let top = ctx.trace_op_init(OpKind::Rpc, true);
        let arg_bytes = args.to_bytes();
        let cell = new_cell::<R>(1);
        let c2 = Rc::clone(&cell);
        let id = ctx.register_reply(Box::new(move |payload| {
            let bytes = payload
                .downcast::<Vec<u8>>()
                .expect("rpc_args reply payload must be bytes");
            let r = R::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("rpc_args reply deserialization failed: {e}"));
            c2.set_value(r);
            c2.fulfill(1);
            crate::ctx::trace_notify(top, CompletionPath::Deferred);
        }));
        let direct = ctx.addressable(target);
        if !direct {
            bump(&ctx.stats.net_injected);
        }
        let msg = send_am_routed(&ctx.world, ctx.me, target, direct, move |amctx| {
            let a = A::from_bytes(&arg_bytes)
                .unwrap_or_else(|e| panic!("rpc_args argument deserialization failed: {e}"));
            let result_bytes = f(a).to_bytes();
            send_reply(amctx, move |_| deliver_reply(id, Box::new(result_bytes)));
        });
        if let Some(msg) = msg {
            ctx.trace_net_inject(top, msg);
        }
        Future::from_cell(cell)
    }

    /// Fire-and-forget RPC: execute `f` on `target` with no completion
    /// notification back to the initiator.
    pub fn rpc_ff<F>(&self, target: Rank, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let ctx = &*self.ctx;
        bump(&ctx.stats.rpcs);
        // No completion ever comes back, so the span is closed at init.
        let top = ctx.trace_op_init(OpKind::Rpc, false);
        let direct = ctx.addressable(target);
        if !direct {
            bump(&ctx.stats.net_injected);
        }
        if let Some(msg) = send_am_routed(&ctx.world, ctx.me, target, direct, move |_| f()) {
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
