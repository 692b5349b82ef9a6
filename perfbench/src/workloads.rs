//! The four workloads: runtime configuration, the per-rank closed loops,
//! and verification of every returned value and final image against a
//! model of every target word.
//!
//! Every workload runs in one process with exactly two rank threads, with
//! aggregation off and no progress thread (it would be a third thread on
//! two cores). Each rank issues new work only after its previous op or
//! batch completed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use gups::rng::Stream;
use gups::{GupsConfig, GupsTable};
use upcr::{launch, make_future, GlobalPtr, NetStats, RuntimeConfig, StatsSnapshot, Upcr};

use crate::inputs::{
    BatchSet, GupsStart, Inputs, Kind, Op, SingleFlight, BATCH, READ_WORDS, WRITE_WORDS,
};
use crate::spans::{Layer, LayerAgg, Recorder, Span, Traced, Untraced};
use crate::{Build, Workload};

/// log2 of the `gups` table in words: 2^22 words (32 MiB) is several
/// times the two cores' L2, so most updates leave the private caches.
const GUPS_LOG2_TABLE: u32 = 22;
/// A timed sample lasts at least this long: it ends at the first op (or
/// batch) boundary after it. Samples cover fixed time slices, so a run
/// takes the same number of samples whatever the speed, and the
/// benchmark's own bookkeeping does not move `rss_peak_mib`.
const SAMPLE: Duration = Duration::from_millis(1);
/// One-in-flight ops between clock reads inside a sample.
const CHUNK: usize = 64;

/// The HPCC configuration of `gups`: batches of 256 updates.
pub fn gups_config() -> GupsConfig {
    GupsConfig {
        log2_table: GUPS_LOG2_TABLE,
        updates_per_word: 4,
        batch: BATCH,
        verify: false,
    }
}

/// The runtime `w` launches, under `build`'s semantics.
pub fn runtime_config(w: Workload, build: Build) -> RuntimeConfig {
    let rt = match w {
        Workload::LocalOps => RuntimeConfig::smp(2).with_segment_size(1 << 16),
        // Half the table per rank, plus room for the runtime's allocations.
        Workload::Gups => {
            RuntimeConfig::smp(2).with_segment_size((4 << GUPS_LOG2_TABLE) + (1 << 16))
        }
        Workload::RemoteBatch => RuntimeConfig::udp(2, 1).with_segment_size(1 << 17),
        Workload::RemoteUdp => RuntimeConfig::udp(2, 1)
            .with_transport(gasnex::Transport::UdpSocket)
            .with_segment_size(1 << 16),
    };
    rt.with_version(build.version())
}

/// Per-launch settings shared by both rank threads.
struct Control {
    /// When `launch` was called: the start of set-up.
    launched: Instant,
    /// How long rank 0 keeps issuing.
    window: Duration,
    /// Index of this launch in the run (picks the `gups` stream slice).
    launch: u64,
    /// Deliberately corrupt one expected value: the self-test of failure
    /// accounting.
    corrupt: bool,
    /// Set by rank 0 when its window is over; the peer stops at its next
    /// sample boundary.
    stop: AtomicBool,
}

impl Control {
    /// Whether this rank should stop after the sample it just finished.
    fn done(&self, u: &Upcr, started: Instant) -> bool {
        if u.rank_me() == 0 && started.elapsed() >= self.window {
            self.stop.store(true, Ordering::Release);
        }
        self.stop.load(Ordering::Acquire)
    }
}

/// One rank's output from one launch.
#[derive(Default)]
pub struct RankOut {
    /// From the start of `launch` to this rank's first timed op.
    pub setup_s: f64,
    /// Wall time of each timed sample, ns.
    pub sample_ns: Vec<f64>,
    /// Ops in each timed sample (empty for a rank that only waits).
    pub sample_ops: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Counter deltas over the rank's measured window.
    pub stats: StatsSnapshot,
    /// World-global conduit counter deltas over the same window.
    pub net: NetStats,
    pub wall_ns: f64,
    /// Per-layer samples and the verbatim span log, in traced launches.
    pub spans: Option<(LayerAgg, Vec<Span>)>,
}

impl RankOut {
    /// A rank's output: its set-up time, taken now, and room for every
    /// sample of its window (so the samples never reallocate).
    fn new(ctl: &Control) -> RankOut {
        let samples = (ctl.window.as_nanos() / SAMPLE.as_nanos()) as usize + 2;
        RankOut {
            setup_s: ctl.launched.elapsed().as_secs_f64(),
            sample_ns: Vec::with_capacity(samples),
            sample_ops: Vec::with_capacity(samples),
            ..RankOut::default()
        }
    }

    /// Whether this rank issued ops (rather than only waiting).
    pub fn issues(&self) -> bool {
        !self.sample_ops.is_empty()
    }

    fn push_sample(&mut self, t0: Instant, ops: usize) {
        self.sample_ns.push(t0.elapsed().as_nanos() as f64);
        self.sample_ops.push(ops as u64);
        self.attempted += ops as u64;
    }
}

/// One launch's output, both ranks combined.
pub struct LaunchOut {
    /// NaN when the launch panicked.
    pub setup_s: f64,
    /// Per sample: the slowest issuing rank's sample time over the ops of
    /// every issuing rank.
    pub ns_per_op: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub ranks: Vec<RankOut>,
}

/// Counter baselines taken when a rank's measured window opens.
struct Window {
    start: Instant,
    stats: StatsSnapshot,
    net: NetStats,
}

impl Window {
    fn open(u: &Upcr) -> Window {
        Window {
            stats: u.stats(),
            net: u.net_stats(),
            start: Instant::now(),
        }
    }

    fn close(self, u: &Upcr, out: &mut RankOut) {
        out.wall_ns = self.start.elapsed().as_nanos() as f64;
        out.stats = u.stats().since(&self.stats);
        out.net = u.net_stats().since(&self.net);
    }
}

/// Compares returned values and final images with the model, counting
/// mismatches instead of panicking.
struct Checker {
    failed: u64,
    corrupt: bool,
}

impl Checker {
    fn new(corrupt: bool) -> Checker {
        Checker { failed: 0, corrupt }
    }

    fn expect(&mut self, got: u64, mut want: u64) {
        if std::mem::take(&mut self.corrupt) {
            want ^= 1;
        }
        self.failed += u64::from(got != want);
    }
}

/// The model's view of `op`'s effect on its target word.
fn apply(op: &Op, word: &mut u64) {
    match op.kind {
        Kind::Put => *word = op.val,
        Kind::Add | Kind::FetchAdd | Kind::FetchAddInto => *word = word.wrapping_add(op.val),
        Kind::Xor => *word ^= op.val,
        Kind::Get | Kind::GetInto => {}
    }
}

/// Run one launch of `w` under `build`, rank 0 issuing for `window`.
pub fn launch_once(
    w: Workload,
    inputs: &Inputs,
    build: Build,
    window: Duration,
    launch_idx: u64,
    traced: bool,
    corrupt: bool,
) -> LaunchOut {
    let ctl = Control {
        launched: Instant::now(),
        window,
        launch: launch_idx,
        corrupt,
        stop: AtomicBool::new(false),
    };
    let rt = runtime_config(w, build);
    // A rank that panics (a failed runtime assertion) fails the launch
    // instead of ending the run.
    let ranks = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        launch(rt, |u| {
            if traced {
                let mut rec = Traced::default();
                let mut out = body(u, &mut rec, inputs, &ctl);
                out.spans = Some(rec.finish());
                out
            } else {
                body(u, &mut Untraced, inputs, &ctl)
            }
        })
    }));
    match ranks {
        Ok(ranks) => combine(ranks),
        Err(_) => LaunchOut {
            setup_s: f64::NAN,
            ns_per_op: Vec::new(),
            attempted: 1,
            failed: 1,
            ranks: Vec::new(),
        },
    }
}

fn body<R: Recorder>(u: &Upcr, rec: &mut R, inputs: &Inputs, ctl: &Control) -> RankOut {
    match inputs {
        Inputs::Single(inp) => single_flight(u, rec, inp, ctl),
        Inputs::Gups(inp) => gups(u, rec, inp, ctl),
        Inputs::Batch(inp) => remote_batch(u, rec, inp, ctl),
    }
}

fn combine(ranks: Vec<RankOut>) -> LaunchOut {
    let issuing: Vec<&RankOut> = ranks.iter().filter(|r| r.issues()).collect();
    let n = issuing.iter().map(|r| r.sample_ns.len()).min().unwrap_or(0);
    // The first sample warms caches; with two issuing ranks the last one
    // overlaps a peer that has already stopped.
    let end = n.saturating_sub(usize::from(issuing.len() > 1));
    let ns_per_op = (1..end)
        .map(|i| {
            let slowest = issuing.iter().map(|r| r.sample_ns[i]).fold(0.0, f64::max);
            slowest / issuing.iter().map(|r| r.sample_ops[i]).sum::<u64>() as f64
        })
        .collect();
    LaunchOut {
        setup_s: ranks[0].setup_s,
        ns_per_op,
        attempted: ranks.iter().map(|r| r.attempted).sum(),
        failed: ranks.iter().map(|r| r.failed).sum(),
        ranks,
    }
}

/// `local-ops` and `remote-udp`: rank 0 runs the op sequence against rank
/// 1's words, one op in flight, each waited; rank 1 waits in the barrier,
/// as in the paper's loop. Rank 0 is the only writer of those words, so
/// its model predicts every returned value and the final image.
fn single_flight<R: Recorder>(u: &Upcr, rec: &mut R, inp: &SingleFlight, ctl: &Control) -> RankOut {
    let words = u.new_array::<u64>(inp.init.len());
    let result = u.new_::<u64>(0);
    if u.rank_me() == 1 {
        for (i, &v) in inp.init.iter().enumerate() {
            u.local(words.add(i)).set(v);
        }
    }
    let target = u.broadcast(words, 1);
    u.barrier();
    let mut out = RankOut::new(ctl);
    let window = Window::open(u);
    if u.rank_me() != 0 {
        u.barrier();
        window.close(u, &mut out);
        return out;
    }
    let ad = u.atomic_domain::<u64>();
    let landed = u.local(result);
    let mut model = inp.init.clone();
    let mut check = Checker::new(ctl.corrupt);
    // Room for a sample of ops as short as 15 ns.
    let mut vals: Vec<u64> = Vec::with_capacity(1 << 16);
    let mut pos = 0;
    let started = Instant::now();
    loop {
        vals.clear();
        let t0 = Instant::now();
        while vals.is_empty() || t0.elapsed() < SAMPLE {
            for _ in 0..CHUNK {
                let op = inp.ops[(pos + vals.len()) % inp.ops.len()];
                let dst = target.add(op.word as usize);
                rec.op_begin();
                let v = match op.kind {
                    Kind::Put => {
                        let f = rec.init(Layer::Rma, || u.rput(op.val, dst));
                        rec.wait(u, &f);
                        0
                    }
                    Kind::Get => {
                        let f = rec.init(Layer::Rma, || u.rget(dst));
                        rec.wait(u, &f)
                    }
                    Kind::GetInto => {
                        let f = rec.init(Layer::Rma, || u.copy(dst, result, 1));
                        rec.wait(u, &f);
                        landed.get()
                    }
                    Kind::Add => {
                        let f = rec.init(Layer::Atomics, || ad.add(dst, op.val));
                        rec.wait(u, &f);
                        0
                    }
                    Kind::FetchAdd => {
                        let f = rec.init(Layer::Atomics, || ad.fetch_add(dst, op.val));
                        rec.wait(u, &f)
                    }
                    Kind::FetchAddInto => {
                        let f = rec.init(Layer::Atomics, || ad.fetch_add_into(dst, op.val, result));
                        rec.wait(u, &f);
                        landed.get()
                    }
                    Kind::Xor => {
                        let f = rec.init(Layer::Atomics, || ad.bit_xor(dst, op.val));
                        rec.wait(u, &f);
                        0
                    }
                };
                rec.op_end(1);
                vals.push(v);
            }
        }
        out.push_sample(t0, vals.len());
        // Verification stays outside the timed sample.
        for (i, &v) in vals.iter().enumerate() {
            let op = &inp.ops[(pos + i) % inp.ops.len()];
            let word = &mut model[op.word as usize];
            if matches!(
                op.kind,
                Kind::Get | Kind::GetInto | Kind::FetchAdd | Kind::FetchAddInto
            ) {
                check.expect(v, *word);
            }
            apply(op, word);
        }
        pos += vals.len();
        if ctl.done(u, started) {
            break;
        }
    }
    window.close(u, &mut out);
    u.barrier();
    let seg = u.world().segment(target.rank());
    for (i, &want) in model.iter().enumerate() {
        check.expect(seg.read_u64(target.add(i).offset()), want);
    }
    out.failed = check.failed;
    out
}

/// `gups`: both ranks run HPCC RandomAccess as the paper's "atomics
/// w/futures": non-fetching atomic XORs conjoined in batches of 256, each
/// batch waited.
fn gups<R: Recorder>(u: &Upcr, rec: &mut R, inp: &GupsStart, ctl: &Control) -> RankOut {
    let table = GupsTable::setup(u, &gups_config());
    let me = u.rank_me();
    let starts = [inp.start(0, ctl.launch), inp.start(1, ctl.launch)];
    let mut stream = Stream::at(starts[me]);
    let ad = u.atomic_domain::<u64>();
    u.barrier();
    let mut out = RankOut::new(ctl);
    let window = Window::open(u);
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let mut ops = 0;
        while ops == 0 || t0.elapsed() < SAMPLE {
            rec.op_begin();
            let mut f = make_future();
            for ran in (&mut stream).take(BATCH) {
                let g = rec.init(Layer::Atomics, || ad.bit_xor(table.gptr_of(ran), ran));
                f = rec.conjoin(f, g);
            }
            rec.wait(u, &f);
            rec.op_end(BATCH as u64);
            ops += BATCH;
        }
        out.push_sample(t0, ops);
        if ctl.done(u, started) {
            break;
        }
    }
    window.close(u, &mut out);
    u.barrier();
    // XOR is an involution: replaying both ranks' updates onto this rank's
    // block must restore the initial image, where word i holds i.
    let counts = u.gather_all(out.attempted);
    let block = u.local_slice_u64(table.bases[me], table.local_size);
    for (&start, &n) in starts.iter().zip(&counts) {
        for ran in Stream::at(start).take(n as usize) {
            if table.owner_of(ran) == me {
                let w = &block[table.local_index_of(ran)];
                w.store(w.load(Ordering::Relaxed) ^ ran, Ordering::Relaxed);
            }
        }
    }
    let base = (me * table.local_size) as u64;
    let mut check = Checker::new(ctl.corrupt);
    for (i, w) in block.iter().enumerate() {
        check.expect(w.load(Ordering::Relaxed), base + i as u64);
    }
    out.failed = check.failed;
    table.free(u);
    out
}

/// `remote-batch`: both ranks stream batches of 256 off-node ops into the
/// peer's segment, conjoin them and wait. Each rank is the only writer of
/// its peer's write region and the peer's read-only words are fixed at
/// setup, so the model predicts every fetched word and the final image.
fn remote_batch<R: Recorder>(u: &Upcr, rec: &mut R, inp: &BatchSet, ctl: &Control) -> RankOut {
    let (me, peer) = (u.rank_me(), 1 - u.rank_me());
    let written = u.new_array::<u64>(WRITE_WORDS);
    let fixed = u.new_array::<u64>(READ_WORDS);
    let landing = u.new_array::<u64>(BATCH);
    for i in 0..READ_WORDS {
        u.local(fixed.add(i)).set(inp.ro_value(me, i));
    }
    let writes: Vec<GlobalPtr<u64>> = (0..2).map(|r| u.broadcast(written, r)).collect();
    let reads: Vec<GlobalPtr<u64>> = (0..2).map(|r| u.broadcast(fixed, r)).collect();
    let (dst, src) = (writes[peer], reads[peer]);
    let ad = u.atomic_domain::<u64>();
    let landed = u.local_slice_u64(landing, BATCH);
    let cycle = &inp.batches[me];
    let mut model = vec![0u64; WRITE_WORDS];
    let mut check = Checker::new(ctl.corrupt);
    u.barrier();
    let mut out = RankOut::new(ctl);
    let window = Window::open(u);
    let started = Instant::now();
    let mut next = 0;
    loop {
        let t0 = Instant::now();
        let mut ops = 0;
        while ops == 0 || t0.elapsed() < SAMPLE {
            let batch = &cycle[next % cycle.len()];
            rec.op_begin();
            let mut f = make_future();
            for (j, op) in batch.iter().enumerate() {
                let w = op.word as usize;
                let g = match op.kind {
                    Kind::Put => rec.init(Layer::Rma, || u.rput(op.val, dst.add(w))),
                    Kind::Xor => rec.init(Layer::Atomics, || ad.bit_xor(dst.add(w), op.val)),
                    Kind::GetInto => rec.init(Layer::Rma, || u.copy(src.add(w), landing.add(j), 1)),
                    other => unreachable!("{other:?} is not in the remote-batch mix"),
                };
                f = rec.conjoin(f, g);
            }
            rec.wait(u, &f);
            rec.op_end(BATCH as u64);
            // Checking a batch costs under 0.1% of waiting for it.
            for (j, op) in batch.iter().enumerate() {
                match op.kind {
                    Kind::GetInto => check.expect(
                        landed[j].load(Ordering::Relaxed),
                        inp.ro_value(peer, op.word as usize),
                    ),
                    _ => apply(op, &mut model[op.word as usize]),
                }
            }
            next += 1;
            ops += BATCH;
        }
        out.push_sample(t0, ops);
        if ctl.done(u, started) {
            break;
        }
    }
    window.close(u, &mut out);
    u.barrier();
    let seg = u.world().segment(dst.rank());
    for (i, &want) in model.iter().enumerate() {
        check.expect(seg.read_u64(dst.add(i).offset()), want);
    }
    out.failed = check.failed;
    out
}
