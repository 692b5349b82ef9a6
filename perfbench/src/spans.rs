//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A traced run wraps every call the benchmark makes into a layer in a
//! child span named after that layer's module: `rma` or `atomics` around
//! the initiating call, `future` around each `conjoin`, and `ctx` around
//! each `Upcr::progress()` call of a wait loop copied from `Future::wait`.
//! One parent span covers each op (one-in-flight workloads) or batch
//! (`gups`, `remote-batch`), and every span of a parent carries its id.
//! Spans are folded into per-layer samples as each parent closes; the
//! spans of the first parents are also kept verbatim and written out when
//! the run ends.
//!
//! The untraced recorder compiles every hook down to the plain call, so the
//! untraced loop runs the same code path a user program does.

use std::time::Instant;

use upcr::{Future, Upcr};

use crate::stats::{median, Thinned};

/// The layer a span is charged to, named after its module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The parent span of one op or batch.
    Op,
    Rma,
    Atomics,
    Future,
    Ctx,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Rma => "rma",
            Layer::Atomics => "atomics",
            Layer::Future => "future",
            Layer::Ctx => "ctx",
        }
    }
}

/// Hooks around each call the benchmark makes into a layer.
pub trait Recorder {
    /// Open the parent span of one op or batch.
    fn op_begin(&mut self);
    /// An initiating call into `rma` or `atomics`.
    fn init<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T;
    /// One `conjoin` call into the `future` layer.
    fn conjoin(&mut self, a: Future<()>, b: Future<()>) -> Future<()>;
    /// Wait for `f`, driving progress.
    fn wait<T: Clone + 'static>(&mut self, u: &Upcr, f: &Future<T>) -> T;
    /// Close the parent span, which covered `ops` operations.
    fn op_end(&mut self, ops: u64);
}

/// The untraced recorder: every hook is the plain call.
pub struct Untraced;

impl Recorder for Untraced {
    #[inline(always)]
    fn op_begin(&mut self) {}

    #[inline(always)]
    fn init<T>(&mut self, _layer: Layer, f: impl FnOnce() -> T) -> T {
        f()
    }

    #[inline(always)]
    fn conjoin(&mut self, a: Future<()>, b: Future<()>) -> Future<()> {
        upcr::conjoin(a, b)
    }

    #[inline(always)]
    fn wait<T: Clone + 'static>(&mut self, _u: &Upcr, f: &Future<T>) -> T {
        f.wait()
    }

    #[inline(always)]
    fn op_end(&mut self, _ops: u64) {}
}

/// One recorded span; times in ns since its recorder was created.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: u64,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One traced rank's per-layer samples: measured span durations in ns,
/// each including the cost of the clock read that closes it.
#[derive(Clone, Debug, Default)]
pub struct LayerAgg {
    pub rma: Thinned,
    pub atomics: Thinned,
    pub future: Thinned,
    /// Productive `progress()` calls (`ctx.quantum_ns`): during the call the
    /// awaited future became ready, `stats().event_wakeups` moved, or
    /// `net_stats().delivered` moved.
    pub quantum: Thinned,
    /// Every other `progress()` call of the wait loop
    /// (`ctx.empty_quantum_ns`).
    pub empty_quantum: Thinned,
    /// Per parent: from the last initiating call's return to readiness.
    pub wait: Thinned,
    /// Sum over parents of the `wait` span less the child spans inside it
    /// (the last `conjoin` and every quantum), ns.
    pub wait_self_ns: f64,
    /// Clock reads inside `wait` spans outside their child spans: the read
    /// opening each child and the one closing the parent.
    pub wait_reads: u64,
    pub parent: Thinned,
    pub ops: u64,
    /// Clock reads inside parent spans (all but the one opening each).
    pub inner_reads: u64,
    /// The cost of one clock read on each traced rank thread, ns.
    pub read_ns: Thinned,
}

impl LayerAgg {
    pub fn merge(&mut self, o: &LayerAgg) {
        for (mine, theirs) in [
            (&mut self.rma, &o.rma),
            (&mut self.atomics, &o.atomics),
            (&mut self.future, &o.future),
            (&mut self.quantum, &o.quantum),
            (&mut self.empty_quantum, &o.empty_quantum),
            (&mut self.wait, &o.wait),
            (&mut self.parent, &o.parent),
            (&mut self.read_ns, &o.read_ns),
        ] {
            mine.merge(theirs);
        }
        self.wait_self_ns += o.wait_self_ns;
        self.wait_reads += o.wait_reads;
        self.ops += o.ops;
        self.inner_reads += o.inner_reads;
    }
}

/// Spans of a traced launch's first parents kept verbatim.
const LOG_SPANS: usize = 1 << 14;

/// The traced recorder.
pub struct Traced {
    epoch: Instant,
    op: u64,
    op_start: Instant,
    init_end: Instant,
    reads: u64,
    /// The open parent's child spans (with each quantum's productive flag),
    /// folded in when the parent closes so the bookkeeping stays outside
    /// every span.
    children: Vec<(Layer, Instant, Instant, bool)>,
    agg: LayerAgg,
    log: Vec<Span>,
}

/// One clock read on this thread, ns: the median over five rounds of
/// back-to-back reads. Each span's duration includes about one read, and
/// the read's cost moves with the host's load, so every traced launch
/// measures it on its own rank threads.
fn clock_read_ns() -> f64 {
    const READS: u32 = 4096;
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            t.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    median(&rounds)
}

impl Default for Traced {
    fn default() -> Self {
        let mut agg = LayerAgg::default();
        agg.read_ns.push(clock_read_ns());
        let now = Instant::now();
        Traced {
            epoch: now,
            op: 0,
            op_start: now,
            init_end: now,
            reads: 0,
            children: Vec::new(),
            agg,
            log: Vec::new(),
        }
    }
}

impl Traced {
    /// The per-layer samples and the verbatim span log.
    pub fn finish(self) -> (LayerAgg, Vec<Span>) {
        (self.agg, self.log)
    }

    fn now(&mut self) -> Instant {
        self.reads += 1;
        Instant::now()
    }

    /// Log the span if the log has room; return its duration in ns.
    fn record(&mut self, layer: Layer, start: Instant, end: Instant) -> f64 {
        if self.log.len() < LOG_SPANS {
            self.log.push(Span {
                op: self.op,
                layer,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        }
        (end - start).as_nanos() as f64
    }
}

impl Recorder for Traced {
    fn op_begin(&mut self) {
        self.reads = 0;
        self.op_start = self.now();
        self.init_end = self.op_start;
    }

    fn init<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.children.push((layer, start, end, false));
        self.init_end = end;
        out
    }

    fn conjoin(&mut self, a: Future<()>, b: Future<()>) -> Future<()> {
        let start = self.now();
        let f = upcr::conjoin(a, b);
        let end = self.now();
        self.children.push((Layer::Future, start, end, false));
        f
    }

    /// `Future::wait`'s loop, made here so each `progress()` call gets its
    /// own `ctx` span. `Future::wait` counts a quantum as work when it
    /// reports any; through the public API a quantum counts as productive
    /// when, during it, the future became ready, a completion token woke one
    /// of this rank's waiters (`stats().event_wakeups`), or the conduit
    /// delivered a message (`net_stats().delivered`, which counts every
    /// rank's deliveries, so a peer's delivery in the same interval also
    /// counts). As in `Future::wait`, a productive quantum resets the idle
    /// count and every empty one after the 16th in a row yields.
    fn wait<T: Clone + 'static>(&mut self, u: &Upcr, f: &Future<T>) -> T {
        let mut idle_streak = 0u32;
        while !f.is_ready() {
            let (wakeups, delivered) = (u.stats().event_wakeups, u.net_stats().delivered);
            let start = self.now();
            u.progress();
            let end = self.now();
            let productive = f.is_ready()
                || u.stats().event_wakeups != wakeups
                || u.net_stats().delivered != delivered;
            self.children.push((Layer::Ctx, start, end, productive));
            if productive {
                idle_streak = 0;
            } else {
                idle_streak += 1;
                if idle_streak > 16 {
                    std::thread::yield_now();
                }
            }
        }
        f.result()
    }

    fn op_end(&mut self, ops: u64) {
        let end = self.now();
        let (start, init_end) = (self.op_start, self.init_end);
        let mut wait_self = (end - init_end).as_nanos() as f64;
        let mut children = std::mem::take(&mut self.children);
        for (layer, child_start, child_end, productive) in children.drain(..) {
            let d = self.record(layer, child_start, child_end);
            if child_start >= init_end {
                wait_self -= d;
                self.agg.wait_reads += 1;
            }
            let sample = match layer {
                Layer::Rma => &mut self.agg.rma,
                Layer::Atomics => &mut self.agg.atomics,
                Layer::Future => &mut self.agg.future,
                Layer::Ctx if productive => &mut self.agg.quantum,
                Layer::Ctx => &mut self.agg.empty_quantum,
                Layer::Op => unreachable!("a parent span is never a child"),
            };
            sample.push(d);
        }
        self.children = children;
        self.agg.wait.push((end - init_end).as_nanos() as f64);
        self.agg.wait_self_ns += wait_self;
        self.agg.wait_reads += 1;
        let d = self.record(Layer::Op, start, end);
        self.agg.parent.push(d);
        self.agg.ops += ops;
        self.agg.inner_reads += self.reads - 1;
        self.op += 1;
    }
}
