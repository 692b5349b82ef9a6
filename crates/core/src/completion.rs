//! The completions mechanism: what to signal, how, and *when*.
//!
//! A communication operation takes a *completions object* describing the
//! notifications the program wants for each event (§II-A):
//!
//! * **source completion** — the source buffer is reusable;
//! * **operation completion** — the whole operation finished at the
//!   initiator;
//! * **remote completion** — (puts only) data arrived at the target; runs an
//!   RPC there.
//!
//! Individual requests come from the factory modules [`operation_cx`],
//! [`source_cx`], and [`remote_cx`], and compose with `|` exactly as in
//! UPC++:
//!
//! ```ignore
//! let (src_done, op_done) = u.rput_with(
//!     v, gp,
//!     source_cx::as_future() | operation_cx::as_future(),
//! );
//! ```
//!
//! The paper's contribution lives in [`Notifier`]: when an operation's data
//! movement completed **synchronously** at initiation and the request allows
//! **eager** notification, the notification is delivered immediately — a
//! ready future is returned (for `Future<()>`, the rank's shared
//! pre-allocated cell: zero heap traffic) and promise registration is elided
//! entirely. Otherwise the notification is routed through the deferred
//! progress queue, as all notifications were through release 2021.3.0.

use std::any::TypeId;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gasnex::net::NetAction;
use gasnex::{Rank, World};

use crate::continuation::CallbackQueue;
use crate::ctx::{Deferred, RankCtx};
use crate::future::cell::{new_cell, new_cell_with_value};
use crate::future::future::Future;
use crate::future::promise::Promise;
use crate::global_ptr::SegValue;
use crate::stats::{bump, Stats};
use crate::trace::{CompletionPath, TraceOp};
use crate::version::LibVersion;

/// When a requested notification may be delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Follow the build's default (`UPCXX_DEFER_COMPLETION` semantics):
    /// eager under "2021.3.6 eager", deferred otherwise.
    Default,
    /// Allow (not guarantee) eager delivery when the data movement completes
    /// synchronously. Unavailable under 2021.3.0 semantics.
    Eager,
    /// Guarantee deferral to the next progress call (legacy behaviour).
    Defer,
}

/// Values that can ride on a completion notification.
///
/// The one interesting method distinguishes `()` — whose ready futures can
/// share the pre-allocated cell — from value-carrying types, which must
/// allocate storage for the value ("the value must be stored somewhere",
/// §III-B).
pub trait CxValue: Clone + Send + 'static {
    /// Build a ready future carrying `self` for an eagerly-completed
    /// operation.
    fn into_ready_future(self) -> Future<Self>;
}

impl CxValue for () {
    #[inline]
    fn into_ready_future(self) -> Future<()> {
        Future::ready_unit()
    }
}

macro_rules! impl_cxvalue_scalar {
    ($($t:ty),*) => {$(
        impl CxValue for $t {
            #[inline]
            fn into_ready_future(self) -> Future<Self> {
                Future::ready(self)
            }
        }
    )*};
}
impl_cxvalue_scalar!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl<T: SegValue> CxValue for Vec<T> {
    fn into_ready_future(self) -> Future<Self> {
        Future::ready(self)
    }
}

#[inline]
fn is_unit<V: 'static>() -> bool {
    TypeId::of::<V>() == TypeId::of::<()>()
}

/// How the data movement of an operation completed.
pub(crate) enum Disp<'a, V: CxValue> {
    /// Synchronously, during initiation, producing `V` — eligible for eager
    /// notification.
    Sync(V),
    /// Asynchronously: the op's notifications are filed in its
    /// [`RemoteDone`] before it is injected.
    Async(&'a Arc<RemoteDone<V>>),
}

const POISONED: &str = "a thread panicked while holding an op's completion record";

/// [`RemoteDone::slot`] of an op that filed no deferred waiter.
const NO_WAITER: u64 = u64::MAX;

/// The completion record of one off-node operation, written in full by
/// its initiator before the operation is injected: the slot of its first
/// deferred waiter, with that token's trace id, and a sink for its
/// continuation callbacks. The inject publishes the record to whichever
/// thread runs the delivery action, which stores the op's value, deposits
/// the waiter's token in the initiator's ready queue and enqueues the
/// callbacks. Nothing is written after the inject, so no arm can race
/// the delivery. One allocation per op, whatever `V` is.
pub(crate) struct RemoteDone<V> {
    initiator: Rank,
    /// The first deferred waiter's slot, or [`NO_WAITER`]. Later requests
    /// chain behind that waiter and wake with its token. Relaxed, like
    /// `trace`: both are stored before the inject, and the conduit's
    /// hand-off of the action publishes them to the delivering thread.
    slot: AtomicU64,
    /// The first deferred waiter's token trace id.
    trace: AtomicU64,
    state: Mutex<DoneState<V>>,
}

/// What the delivery action writes and takes under one lock.
struct DoneState<V> {
    /// The op's value, read by its deferred waiters once the token
    /// surfaces.
    value: Option<V>,
    sink: Option<Box<CallbackSink<V>>>,
}

/// The continuation callbacks of one off-node op, with what the
/// delivering thread needs to enqueue them on the initiator's behalf.
struct CallbackSink<V> {
    callbacks: Vec<Box<dyn FnOnce(V) + Send>>,
    queue: Arc<CallbackQueue>,
    stats: Arc<Stats>,
    top: TraceOp,
}

impl<V: CxValue> RemoteDone<V> {
    fn new(initiator: Rank) -> Self {
        RemoteDone {
            initiator,
            slot: AtomicU64::new(NO_WAITER),
            trace: AtomicU64::new(0),
            state: Mutex::new(DoneState {
                value: None,
                sink: None,
            }),
        }
    }

    fn value(&self) -> V {
        let v = self.state.lock().expect(POISONED).value.clone();
        v.expect("operation token deposited before its value was stored")
    }

    /// Record the op's first deferred waiter (initiator, before the
    /// inject).
    fn file_token(&self, slot: usize, trace: u64) {
        self.trace.store(trace, Ordering::Relaxed);
        self.slot.store(slot as u64, Ordering::Relaxed);
    }

    /// Add a continuation callback (initiator, before the inject).
    fn file_callback(&self, ctx: &RankCtx, top: TraceOp, f: Box<dyn FnOnce(V) + Send>) {
        let mut st = self.state.lock().expect(POISONED);
        let sink = st.sink.get_or_insert_with(|| {
            Box::new(CallbackSink {
                callbacks: Vec::new(),
                queue: Arc::clone(&ctx.callbacks),
                stats: Arc::clone(&ctx.stats),
                top,
            })
        });
        sink.callbacks.push(f);
    }

    /// The delivery action's half, on the delivering thread: store `v`,
    /// deposit the first waiter's token, then enqueue the callbacks.
    fn complete(&self, world: &World, v: V) {
        let sink = {
            let mut st = self.state.lock().expect(POISONED);
            let sink = st.sink.take().map(|sink| (sink, v.clone()));
            st.value = Some(v);
            sink
        };
        let slot = self.slot.load(Ordering::Relaxed);
        if slot != NO_WAITER {
            world.deposit_token(self.initiator, slot, self.trace.load(Ordering::Relaxed));
        }
        if let Some((sink, v)) = sink {
            for f in sink.callbacks {
                let v = v.clone();
                // The delivering thread may be mid-drain of this very
                // queue (a callback issued the op): count the deferral,
                // exactly as enqueue_callback does on the rank thread.
                if sink.queue.push(Box::new(move || f(v)), sink.top) {
                    bump(&sink.stats.callbacks_deferred);
                }
            }
            world.wake_progress();
        }
    }
}

/// The route an off-node operation takes onto the wire.
pub(crate) enum Wire {
    /// Unrouted [`World::net_inject`]: gets, bulk and VIS puts, copies,
    /// and atomics that fetch a value.
    Plain,
    /// [`RankCtx::inject_routed`]: through the sender-side coalescer when
    /// aggregation is on (scalar puts and value-less atomics).
    Coalesced,
    /// A release edge for signal ops: flush this rank's aggregation
    /// buffers, then [`World::net_inject_signal`].
    Signal,
}

impl RankCtx {
    /// The off-node half of every communication operation: file `cx`'s
    /// notifications in the op's completion record, then inject
    /// `movement` toward `target` over `wire`. The delivery action runs
    /// `movement` on the target side and completes the record with the
    /// value it produces.
    pub(crate) fn inject_op<V: CxValue, C: Completions<V>>(
        &self,
        cx: C,
        top: TraceOp,
        target: Rank,
        wire: Wire,
        movement: impl FnOnce(&World) -> V + Send + 'static,
    ) -> C::Out {
        bump(&self.stats.net_injected);
        let done = Arc::new(RemoteDone::new(self.me));
        let out = cx.notify(&Notifier {
            ctx: self,
            op: Disp::Async(&done),
            top,
            waiter: Cell::new(None),
        });
        let action: NetAction = Box::new(move |w| {
            let v = movement(w);
            done.complete(w, v);
        });
        match wire {
            Wire::Plain => self.trace_net_inject(top, self.world.net_inject(action)),
            Wire::Coalesced => self.inject_routed(target, top, action),
            Wire::Signal => {
                self.agg_flush_explicit();
                let msg = self.world.net_inject_signal(self.me, target, action);
                self.trace_net_inject(top, msg);
            }
        }
        out
    }
}

/// Routes each requested notification either eagerly or through the
/// deferred queue, based on the operation's disposition, the request mode,
/// and the running library version.
///
/// Constructed internally by communication operations; public only because
/// it appears in [`Completions::notify`] signatures.
pub struct Notifier<'a, V: CxValue> {
    ctx: &'a RankCtx,
    op: Disp<'a, V>,
    /// The lifecycle-trace span this operation belongs to
    /// ([`TraceOp::NONE`] when tracing is off — recording helpers ignore
    /// it, so untraced operations carry no cost beyond the copy).
    top: TraceOp,
    /// The event-waiter slot of this op's latest deferred request (async
    /// ops only): the first is filed in the op's completion record, later
    /// ones chain behind it.
    waiter: Cell<Option<usize>>,
}

impl<'a, V: CxValue> Notifier<'a, V> {
    pub(crate) fn sync(ctx: &'a RankCtx, top: TraceOp, v: V) -> Self {
        Notifier {
            ctx,
            op: Disp::Sync(v),
            top,
            waiter: Cell::new(None),
        }
    }

    /// Resolve a request mode against the running version. Panics if the
    /// program uses an eager factory under 2021.3.0 semantics, where those
    /// factories do not exist.
    fn eager_requested(&self, mode: Mode) -> bool {
        match mode {
            Mode::Default => self.ctx.version.default_eager(),
            Mode::Defer => false,
            Mode::Eager => {
                assert!(
                    self.ctx.version.has_eager_factories(),
                    "as_eager_* completion factories do not exist in UPC++ {}",
                    LibVersion::V2021_3_0
                );
                true
            }
        }
    }

    /// The eager check: the op's value when its data movement completed
    /// synchronously and `mode` allows eager delivery (counted and traced
    /// here), `None` when the notification must be deferred.
    fn eager(&self, mode: Mode) -> Option<V> {
        match &self.op {
            Disp::Sync(v) if self.eager_requested(mode) => {
                bump(&self.ctx.stats.eager_notifications);
                self.ctx.trace_notify(self.top, CompletionPath::Eager);
                Some(v.clone())
            }
            _ => None,
        }
    }

    /// The defer path: run `f` on the op's value from a later progress
    /// quantum — a `Deferred::Now` entry for a synchronous op, an event
    /// waiter for an in-flight one (the completion token its delivery
    /// deposits wakes this exact notification; the progress engine never
    /// re-tests the op).
    fn defer(&self, f: impl FnOnce(V) + 'static) {
        let top = self.top;
        let deliver = move |v| {
            f(v);
            crate::ctx::trace_notify(top, CompletionPath::Deferred);
        };
        match &self.op {
            Disp::Sync(v) => {
                let v = v.clone();
                self.ctx
                    .push_deferred(Deferred::Now(Box::new(move || deliver(v))));
            }
            Disp::Async(done) => {
                let d = Arc::clone(done);
                let run = Box::new(move || deliver(d.value()));
                let after = self.waiter.get();
                let (slot, trace) = self.ctx.await_token(after, run);
                if after.is_none() {
                    done.file_token(slot, trace);
                }
                self.waiter.set(Some(slot));
            }
        }
    }

    /// Operation-completion notification via a future.
    pub fn op_future(&self, mode: Mode) -> Future<V> {
        if let Some(v) = self.eager(mode) {
            // The eager fast path: no cell allocation for `()`, no
            // progress-queue traffic.
            return v.into_ready_future();
        }
        let cell = new_cell::<V>(1);
        let c = Rc::clone(&cell);
        self.defer(move |v| {
            c.set_value(v);
            c.fulfill(1);
        });
        Future::from_cell(cell)
    }

    /// Operation-completion notification via a promise.
    pub fn op_promise(&self, p: &Promise<V>, mode: Mode) {
        if let Some(v) = self.eager(mode) {
            // Elide the require/fulfill pair entirely; a produced value
            // still has to land in the promise's result slot.
            if !is_unit::<V>() {
                p.set_value_only(v);
            }
            return;
        }
        p.require_anonymous(1);
        let p = p.clone();
        self.defer(move |v| {
            if !is_unit::<V>() {
                p.set_value_only(v);
            }
            p.fulfill_anonymous(1);
        });
    }

    /// Operation-completion local procedure call.
    pub fn op_lpc(&self, f: Box<dyn FnOnce(V)>, mode: Mode) {
        match self.eager(mode) {
            Some(v) => f(v),
            None => self.defer(f),
        }
    }

    /// Operation-completion continuation callback
    /// (`operation_cx::as_callback`) — the third completion mode.
    ///
    /// The closure never runs inline on the injecting call, whatever the
    /// version or disposition: a synchronously-completed operation enqueues
    /// onto the rank's callback FIFO (drained by the next progress quantum
    /// or by the background progress thread), and an asynchronous one
    /// files it in the op's completion record, whose delivery action
    /// enqueues it. A callback enqueued from inside a running callback
    /// joins the live drain's FIFO — same quantum, never reentrant.
    pub fn op_callback(&self, f: Box<dyn FnOnce(V) + Send>) {
        let top = self.top;
        match &self.op {
            Disp::Sync(v) => {
                let v = v.clone();
                self.ctx.enqueue_callback(Box::new(move || f(v)), top);
            }
            Disp::Async(done) => done.file_callback(self.ctx, top, f),
        }
    }

    /// Source-completion notification via a future.
    ///
    /// In this implementation the source payload is always captured during
    /// initiation (scalar by value; bulk by copy into the injected message),
    /// so source completion is always synchronous: the only question is
    /// whether its notification is delivered eagerly or deferred.
    pub fn source_future(&self, mode: Mode) -> Future<()> {
        if self.eager_requested(mode) {
            bump(&self.ctx.stats.eager_notifications);
            Future::ready_unit()
        } else {
            let cell = new_cell_with_value(1, ());
            let c = Rc::clone(&cell);
            self.ctx.push_deferred(Deferred::Now(Box::new(move || {
                c.fulfill(1);
            })));
            Future::from_cell(cell)
        }
    }

    /// Source-completion notification via a promise.
    pub fn source_promise(&self, p: &Promise<()>, mode: Mode) {
        if self.eager_requested(mode) {
            bump(&self.ctx.stats.eager_notifications);
        } else {
            p.require_anonymous(1);
            let p2 = p.clone();
            self.ctx
                .push_deferred(Deferred::Now(Box::new(move || p2.fulfill_anonymous(1))));
        }
    }
}

/// A remote-completion RPC payload (runs on the target after data arrival).
pub(crate) type RemoteFn = Box<dyn FnOnce() + Send>;

/// Drain the remote-completion RPCs `cx` requests.
pub(crate) fn take_rpcs<V: CxValue>(cx: &mut impl Completions<V>) -> Vec<RemoteFn> {
    let mut rpcs = Vec::new();
    cx.take_remote(&mut rpcs);
    rpcs
}

/// Reject remote completion on an operation (`what`) that has no single
/// target to run the RPC on.
pub(crate) fn no_rpcs<V: CxValue>(cx: &mut impl Completions<V>, what: &str) {
    assert!(
        take_rpcs(cx).is_empty(),
        "remote_cx completions are not supported on {what}"
    );
}

/// Post an operation's remote-completion RPCs, on behalf of `from`, to
/// run on `target` once the data has landed there. Inlined so that an op
/// without remote completion, the common case, pays no call on its eager
/// path.
#[inline]
pub(crate) fn post_rpcs(world: &World, target: Rank, from: Rank, rpcs: Vec<RemoteFn>) {
    for f in rpcs {
        world.send_am(target, from, move |_| f());
    }
}

/// A composed set of completion requests for one operation producing `V`.
///
/// Implemented by the factory products and by [`CxPair`], whose `Out` is the
/// tuple of the parts' outputs (a future per `as_future` request; `()` for
/// promise/LPC/RPC requests).
pub trait Completions<V: CxValue> {
    /// What the initiating call returns.
    type Out;
    /// Drain any remote-completion RPCs into `sink` (the operation attaches
    /// them to the data transfer).
    fn take_remote(&mut self, sink: &mut Vec<RemoteFn>);
    /// Wire up the local notifications and produce the call's return value.
    fn notify(self, n: &Notifier<'_, V>) -> Self::Out;
}

/// Requested operation-completion future.
pub struct OpFuture {
    mode: Mode,
}
/// Requested operation-completion promise notification.
pub struct OpPromise<V: CxValue> {
    p: Promise<V>,
    mode: Mode,
}
/// Requested operation-completion local procedure call.
pub struct OpLpc<F> {
    f: F,
    mode: Mode,
}
/// Requested operation-completion continuation callback (never inline,
/// never reentrant; see [`operation_cx::as_callback`]).
pub struct OpCallback<F> {
    f: F,
}
/// Requested source-completion future.
pub struct SrcFuture {
    mode: Mode,
}
/// Requested source-completion promise notification.
pub struct SrcPromise {
    p: Promise<()>,
    mode: Mode,
}
/// Requested remote-completion RPC.
pub struct RemoteRpc {
    f: Option<RemoteFn>,
}
/// Two composed completion requests (`a | b`).
pub struct CxPair<A, B>(A, B);

impl<V: CxValue> Completions<V> for OpFuture {
    type Out = Future<V>;
    fn take_remote(&mut self, _sink: &mut Vec<RemoteFn>) {}
    fn notify(self, n: &Notifier<'_, V>) -> Future<V> {
        n.op_future(self.mode)
    }
}

impl<V: CxValue> Completions<V> for OpPromise<V> {
    type Out = ();
    fn take_remote(&mut self, _sink: &mut Vec<RemoteFn>) {}
    fn notify(self, n: &Notifier<'_, V>) {
        n.op_promise(&self.p, self.mode)
    }
}

impl<V: CxValue, F: FnOnce(V) + 'static> Completions<V> for OpLpc<F> {
    type Out = ();
    fn take_remote(&mut self, _sink: &mut Vec<RemoteFn>) {}
    fn notify(self, n: &Notifier<'_, V>) {
        n.op_lpc(Box::new(self.f), self.mode)
    }
}

impl<V: CxValue, F: FnOnce(V) + Send + 'static> Completions<V> for OpCallback<F> {
    type Out = ();
    fn take_remote(&mut self, _sink: &mut Vec<RemoteFn>) {}
    fn notify(self, n: &Notifier<'_, V>) {
        n.op_callback(Box::new(self.f))
    }
}

impl<V: CxValue> Completions<V> for SrcFuture {
    type Out = Future<()>;
    fn take_remote(&mut self, _sink: &mut Vec<RemoteFn>) {}
    fn notify(self, n: &Notifier<'_, V>) -> Future<()> {
        n.source_future(self.mode)
    }
}

impl<V: CxValue> Completions<V> for SrcPromise {
    type Out = ();
    fn take_remote(&mut self, _sink: &mut Vec<RemoteFn>) {}
    fn notify(self, n: &Notifier<'_, V>) {
        n.source_promise(&self.p, self.mode)
    }
}

impl<V: CxValue> Completions<V> for RemoteRpc {
    type Out = ();
    fn take_remote(&mut self, sink: &mut Vec<RemoteFn>) {
        sink.extend(self.f.take());
    }
    fn notify(self, _n: &Notifier<'_, V>) {}
}

impl<V: CxValue, A: Completions<V>, B: Completions<V>> Completions<V> for CxPair<A, B> {
    type Out = (A::Out, B::Out);
    fn take_remote(&mut self, sink: &mut Vec<RemoteFn>) {
        self.0.take_remote(sink);
        self.1.take_remote(sink);
    }
    fn notify(self, n: &Notifier<'_, V>) -> Self::Out {
        (self.0.notify(n), self.1.notify(n))
    }
}

macro_rules! impl_bitor {
    ($ty:ty $(, $gen:ident $(: $bound:path)?)*) => {
        impl<Rhs $(, $gen $(: $bound)?)*> std::ops::BitOr<Rhs> for $ty {
            type Output = CxPair<Self, Rhs>;
            fn bitor(self, rhs: Rhs) -> Self::Output {
                CxPair(self, rhs)
            }
        }
    };
}
impl_bitor!(OpFuture);
impl_bitor!(OpPromise<V>, V: CxValue);
impl_bitor!(OpLpc<F>, F);
impl_bitor!(OpCallback<F>, F);
impl_bitor!(SrcFuture);
impl_bitor!(SrcPromise);
impl_bitor!(RemoteRpc);
impl_bitor!(CxPair<A, B>, A, B);

/// Factories for operation-completion notifications.
pub mod operation_cx {
    use super::*;

    /// Future notification with the build's default eager/defer semantics.
    pub fn as_future() -> OpFuture {
        OpFuture {
            mode: Mode::Default,
        }
    }
    /// Future notification, eager when the operation completes
    /// synchronously (§III-A).
    pub fn as_eager_future() -> OpFuture {
        OpFuture { mode: Mode::Eager }
    }
    /// Future notification, always deferred to a progress call.
    pub fn as_defer_future() -> OpFuture {
        OpFuture { mode: Mode::Defer }
    }
    /// Promise notification with the build's default semantics.
    pub fn as_promise<V: CxValue>(p: &Promise<V>) -> OpPromise<V> {
        OpPromise {
            p: p.clone(),
            mode: Mode::Default,
        }
    }
    /// Promise notification, eager when possible.
    pub fn as_eager_promise<V: CxValue>(p: &Promise<V>) -> OpPromise<V> {
        OpPromise {
            p: p.clone(),
            mode: Mode::Eager,
        }
    }
    /// Promise notification, always deferred.
    pub fn as_defer_promise<V: CxValue>(p: &Promise<V>) -> OpPromise<V> {
        OpPromise {
            p: p.clone(),
            mode: Mode::Defer,
        }
    }
    /// Local procedure call on operation completion.
    pub fn as_lpc<V: CxValue, F: FnOnce(V) + 'static>(f: F) -> OpLpc<F> {
        OpLpc {
            f,
            mode: Mode::Default,
        }
    }
    /// Continuation callback on operation completion — the third
    /// completion mode, after futures/promises and signals.
    ///
    /// The closure runs **exactly once** when the operation completes:
    /// from a progress quantum's callback drain, from the signalling
    /// thread's enqueue path, or from the background progress thread
    /// (`RuntimeConfig::with_progress_thread`). It never runs inline on
    /// the injecting call (even for synchronously-completed local
    /// operations — there is no eager/defer mode axis here) and never
    /// reentrantly inside another callback: enqueues made during a drain
    /// join the same FIFO and are delivered by that drain. The closure
    /// must be `Send` — a foreign thread may execute it.
    pub fn as_callback<V: CxValue, F: FnOnce(V) + Send + 'static>(f: F) -> OpCallback<F> {
        OpCallback { f }
    }
}

/// Factories for source-completion notifications.
pub mod source_cx {
    use super::*;

    /// Future notification with the build's default semantics.
    pub fn as_future() -> SrcFuture {
        SrcFuture {
            mode: Mode::Default,
        }
    }
    /// Future notification, eager when possible.
    pub fn as_eager_future() -> SrcFuture {
        SrcFuture { mode: Mode::Eager }
    }
    /// Future notification, always deferred.
    pub fn as_defer_future() -> SrcFuture {
        SrcFuture { mode: Mode::Defer }
    }
    /// Promise notification with the build's default semantics.
    pub fn as_promise(p: &Promise<()>) -> SrcPromise {
        SrcPromise {
            p: p.clone(),
            mode: Mode::Default,
        }
    }
    /// Promise notification, eager when possible.
    pub fn as_eager_promise(p: &Promise<()>) -> SrcPromise {
        SrcPromise {
            p: p.clone(),
            mode: Mode::Eager,
        }
    }
    /// Promise notification, always deferred.
    pub fn as_defer_promise(p: &Promise<()>) -> SrcPromise {
        SrcPromise {
            p: p.clone(),
            mode: Mode::Defer,
        }
    }
}

/// Factories for remote-completion notifications (puts only).
pub mod remote_cx {
    use super::*;

    /// Run `f` on the target rank after the data has arrived.
    pub fn as_rpc(f: impl FnOnce() + Send + 'static) -> RemoteRpc {
        RemoteRpc {
            f: Some(Box::new(f)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{launch, RuntimeConfig};

    #[test]
    fn cxvalue_unit_ready_future_is_ready() {
        let f = ().into_ready_future();
        assert!(f.is_ready());
        let g = 42u64.into_ready_future();
        assert_eq!(g.result(), 42);
        let v = vec![1u8, 2].into_ready_future();
        assert_eq!(v.result(), vec![1, 2]);
    }

    #[test]
    fn is_unit_discriminates() {
        assert!(is_unit::<()>());
        assert!(!is_unit::<u64>());
        assert!(!is_unit::<Vec<u8>>());
    }

    #[test]
    fn composition_produces_nested_tuples() {
        // Type-level check: (src | (op | rpc)) yields (Future<()>, (Future<()>, ())).
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 16), |u| {
            let p = u.new_::<u64>(0);
            let (src, (op, ())) = u.rput_with(
                1,
                p,
                source_cx::as_future() | (operation_cx::as_future() | remote_cx::as_rpc(|| {})),
            );
            assert!(src.is_ready() && op.is_ready());
            u.progress(); // drain the self-targeted rpc
        });
    }

    #[test]
    fn callback_never_runs_inline_even_for_local_ops() {
        // A self-targeted put completes synchronously, but the callback
        // still waits for the next progress quantum — there is no eager
        // mode on the callback axis.
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 16), |u| {
            let hit = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
            let p = u.new_::<u64>(0);
            let h = std::sync::Arc::clone(&hit);
            u.rput_with(
                7,
                p,
                operation_cx::as_callback(move |_: ()| {
                    h.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }),
            );
            assert_eq!(
                hit.load(std::sync::atomic::Ordering::Relaxed),
                0,
                "callback must not run inline on the injecting call"
            );
            u.progress();
            assert_eq!(hit.load(std::sync::atomic::Ordering::Relaxed), 1);
            let s = u.stats();
            assert_eq!(s.callbacks_run, 1);
            u.barrier();
        });
    }

    #[test]
    fn callback_composes_with_future_on_one_async_op() {
        // `as_future | as_callback` files a waiter and a callback in one
        // completion record; both complete, and the callback sees the
        // fetched value.
        launch(RuntimeConfig::smp(2).with_segment_size(1 << 16), |u| {
            let mine = u.new_::<u64>(u.rank_me() as u64 + 100);
            let peer = u.broadcast(mine, 1);
            u.barrier();
            if u.rank_me() == 0 {
                let got = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
                let g = std::sync::Arc::clone(&got);
                let (f, ()) = u.rget_with(
                    peer,
                    operation_cx::as_future()
                        | operation_cx::as_callback(move |v: u64| {
                            g.store(v, std::sync::atomic::Ordering::Relaxed);
                        }),
                );
                assert_eq!(f.wait(), 101);
                while got.load(std::sync::atomic::Ordering::Relaxed) == 0 {
                    u.progress();
                }
                assert_eq!(got.load(std::sync::atomic::Ordering::Relaxed), 101);
            }
            u.barrier();
        });
    }

    #[test]
    fn nested_enqueue_is_deferred_not_reentrant() {
        // A callback that issues another callback-carrying op: the inner
        // callback is enqueued during the drain, counted as deferred, and
        // runs in the same (drain-until-empty) quantum — never reentrantly.
        launch(RuntimeConfig::smp(1).with_segment_size(1 << 16), |u| {
            let order = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let p = u.new_::<u64>(0);
            let o = std::sync::Arc::clone(&order);
            u.rput_with(
                1,
                p,
                operation_cx::as_callback(move |_: ()| {
                    o.lock().unwrap().push("outer-start");
                    let o2 = std::sync::Arc::clone(&o);
                    crate::runtime::api::rput_with_callback(2, p, move |_: ()| {
                        o2.lock().unwrap().push("inner");
                    });
                    o.lock().unwrap().push("outer-end");
                }),
            );
            u.progress();
            assert_eq!(
                *order.lock().unwrap(),
                vec!["outer-start", "outer-end", "inner"],
                "inner callback must run after the outer returns, same quantum"
            );
            let s = u.stats();
            assert_eq!(s.callbacks_run, 2);
            assert_eq!(s.callbacks_deferred, 1, "the nested enqueue was deferred");
            u.barrier();
        });
    }

    #[test]
    fn mode_default_tracks_version() {
        for (version, expect_ready) in [
            (LibVersion::V2021_3_0, false),
            (LibVersion::V2021_3_6Defer, false),
            (LibVersion::V2021_3_6Eager, true),
        ] {
            launch(
                RuntimeConfig::smp(1)
                    .with_version(version)
                    .with_segment_size(1 << 16),
                move |u| {
                    let p = u.new_::<u64>(0);
                    let f = u.rput_with(1, p, operation_cx::as_future());
                    assert_eq!(f.is_ready(), expect_ready, "{version}");
                    f.wait();
                },
            );
        }
    }
}
