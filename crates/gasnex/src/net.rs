//! Simulated inter-node network: the [`Conduit`] impl used by default.
//!
//! Operations between ranks on different simulated nodes are injected here
//! as boxed delivery actions with a due time (`now + latency ± jitter`).
//! Any rank's progress call drains the due actions — modelling a NIC that
//! makes progress independently of which CPU polls, as GASNet-EX offloaded
//! operations do. Two properties matter for fidelity to the paper:
//!
//! 1. An injected operation **never completes synchronously**: even with
//!    zero latency, delivery happens at a later poll, so the initiator's
//!    event is pending at initiation — off-node operations always take the
//!    deferred-notification path, exactly as in the paper.
//! 2. Delivery order is by due time (ties broken by injection sequence), so
//!    with uniform latency the network is point-to-point ordered.
//!
//! # Chaos mode
//!
//! With a [`FaultPlan`] the network becomes a deterministic adversary. Each
//! logical message carries a sequence number (`msg`); every fault decision
//! is a pure hash of `(plan seed, msg, attempt)`, so a fixed seed replays
//! the identical schedule — especially under [`ClockMode::Virtual`], where
//! "now" is a logical counter that time-warps to the earliest due delivery
//! instead of reading `Instant`. The reliability layer on top:
//!
//! * **Drops** never lose the payload; they convert the delivery into a
//!   retransmission timer that fires after a bounded exponential backoff
//!   (`rto_ns << attempt`, capped at `max_backoff_ns`) and re-enters fate
//!   selection with `attempt + 1`. The attempt before `max_attempts` is
//!   exempt from drops, so every message is eventually delivered.
//! * **Duplicates** enqueue a second wire copy of the message; the two
//!   copies share the payload through one slot, so whichever copy arrives
//!   first delivers the action and the other is suppressed
//!   (`dup_suppressed`) — exactly-once execution without caring which copy
//!   won the race. A duplicate that overtakes its reordered original is
//!   *promoted* (`dup_promoted`), not swallowed. The slot is the only dedup
//!   state: it lives exactly as long as the pair's two heap entries, so a
//!   drained wire holds none.
//! * **Reorder / burst / partition** only shift due times; they can starve
//!   but never cancel a delivery.
//!
//! # Aggregation hooks
//!
//! The sender-side aggregation layer ([`crate::aggregate`]) injects batch
//! messages through the ordinary [`Conduit::inject_to`] path — a batch is
//! one logical message whose action fans out to its constituent ops, so
//! drop/dup/reorder fates act on whole batches and a retransmission
//! re-sends the batch payload. The network only keeps the aggregate
//! counters (`batches_injected`, `ops_coalesced`, per-reason flush counts,
//! buffer-occupancy high-water) so they surface in [`NetStats`] next to
//! the reliability counters.
//!
//! # Lock granularity
//!
//! Three independent pieces of state, so observers never contend with
//! delivery: the **clock** is an atomic (`vclock`) or a lock-free `Instant`
//! read; the **delivery heap** has the only lock the delivery path takes
//! (plus a duplicated message's payload slot); and **statistics** —
//! including the `reset_stats` baseline — live entirely in atomics
//! ([`ConduitCore`]), so `now_ns()` and `stats()` are wait-free with
//! respect to a poll in progress.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Mutex;
use std::time::Instant;

use crate::clock::LamportClocks;
use crate::conduit::{Conduit, ConduitCore, InFlight};
use crate::config::{ClockMode, FaultPlan, NetConfig};
use crate::rank::Rank;
use crate::world::World;

/// A delivery action: performs the remote side of an operation (data
/// movement, atomic execution, AM enqueue) and signals its event.
pub type NetAction = Box<dyn FnOnce(&World) + Send>;

/// What happened to a message on the wire (trace-mode only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetEventKind {
    /// Message entered the conduit (`Conduit::inject_to`).
    Inject,
    /// The fault plan dropped this transmission attempt; a retransmission
    /// timer was armed `backoff_ns` in the future.
    Drop { backoff_ns: u64 },
    /// A retransmission timer fired and the next attempt was scheduled.
    Retry,
    /// The delivery action executed (exactly once per message).
    Deliver,
    /// A duplicated wire copy was discarded by receiver-side dedup.
    DupDiscard,
    /// An initiator-side completion token was deposited in a rank's ready
    /// queue by the op's delivery action (`World::deposit_token`, recorded
    /// by the depositing thread, not by the conduit).
    Signal { rank: u32, token: u64 },
}

/// One wire-level trace record. `msg` is the logical message id returned by
/// [`Conduit::inject_to`], which lets core-level operation traces correlate
/// their `NetInject` events with the retries and delivery seen down here.
/// `Signal` events use `msg = u64::MAX` (they belong to a ready-queue
/// deposit, not a wire message).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetTraceEvent {
    /// Timestamp from the conduit clock (wall or virtual, per `ClockMode`).
    pub ts_ns: u64,
    /// Logical message id (`u64::MAX` for `Signal` events).
    pub msg: u64,
    /// Transmission attempt the event belongs to (0-based).
    pub attempt: u32,
    pub kind: NetEventKind,
    /// Lamport stamp: the sender's post-tick clock on `Inject` (carried
    /// unchanged by `Drop`/`Retry`/`DupDiscard`), the receiver's merged
    /// clock on `Deliver`, the signalled rank's tick on `Signal`. Zero
    /// when tracing was off at the recording site.
    pub lclock: u64,
}

/// Whether a statistic is a monotonic counter or a level gauge. Declared
/// here (the lowest crate that exports stats) so both [`NetStats`] and the
/// runtime's per-rank stats share one vocabulary; `upcr` re-exports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldClass {
    /// Monotonically increasing; `since` subtracts, resets re-baseline it.
    Counter,
    /// A level (queue depth, high-water mark); `since` passes the later
    /// sample through, and resets re-prime rather than zero it.
    Gauge,
}

impl FieldClass {
    /// The class's lowercase name, as the metric exporters spell it (the
    /// Prometheus `# TYPE` keyword).
    pub fn name(self) -> &'static str {
        match self {
            FieldClass::Counter => "counter",
            FieldClass::Gauge => "gauge",
        }
    }
}

/// `since` semantics for one field class: counters subtract (saturating),
/// gauges pass the later sample through — a high-water mark is a level,
/// not a count, so callers see the peak over the run.
#[doc(hidden)]
#[macro_export]
macro_rules! since_field {
    (counter, $later:expr, $earlier:expr) => {
        $later.saturating_sub($earlier)
    };
    (gauge, $later:expr, $earlier:expr) => {
        $later
    };
}

/// Map the lowercase class keyword used in a field list to [`FieldClass`].
#[doc(hidden)]
#[macro_export]
macro_rules! field_class {
    (counter) => {
        $crate::FieldClass::Counter
    };
    (gauge) => {
        $crate::FieldClass::Gauge
    };
}

/// Declare a statistics field set exactly once. From one list of
/// `name: counter | gauge` fields the macro generates:
///
/// * the atomic bank `$bank` — one `AtomicU64` per field, with
///   `snapshot()` and `store()` using `Ordering::$ord`;
/// * the public snapshot `$snap` (carrying the field doc comments) with
///   `FIELDS` (names and classes, the metrics registry's registration
///   hook), `values()` in the same order, and `since()`.
///
/// Adding a field in the list therefore cannot skip any of them. Used for
/// [`NetStats`] here and for the runtime's per-rank `StatsSnapshot`.
#[macro_export]
macro_rules! declare_stats {
    (
        $(#[$bank_meta:meta])* $bank_vis:vis struct $bank:ident($ord:ident);
        $(#[$snap_meta:meta])* pub struct $snap:ident {
            $( $(#[$doc:meta])* $name:ident : $class:ident ),+ $(,)?
        }
    ) => {
        $(#[$bank_meta])*
        #[derive(Default)]
        $bank_vis struct $bank {
            $( pub $name: ::std::sync::atomic::AtomicU64, )+
        }

        impl $bank {
            /// Load every field.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $name: self.$name.load(::std::sync::atomic::Ordering::$ord), )+
                }
            }

            /// Store every field of `s`.
            pub fn store(&self, s: &$snap) {
                $( self.$name.store(s.$name, ::std::sync::atomic::Ordering::$ord); )+
            }
        }

        $(#[$snap_meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $snap {
            $( $(#[$doc])* pub $name: u64, )+
        }

        impl $snap {
            /// Field names and classes, in declaration order. Order
            /// matches the values returned by `values()`.
            pub const FIELDS: &'static [(&'static str, $crate::FieldClass)] = &[
                $( (stringify!($name), $crate::field_class!($class)), )+
            ];

            /// Field values in the same order as `FIELDS`.
            pub fn values(&self) -> Vec<u64> {
                vec![ $( self.$name, )+ ]
            }

            /// Field-wise difference (`self - earlier`): counters subtract
            /// (saturating at zero); gauges report the later sample
            /// unchanged.
            pub fn since(&self, earlier: &$snap) -> $snap {
                $snap {
                    $( $name: $crate::since_field!($class, self.$name, earlier.$name), )+
                }
            }
        }
    };
}

declare_stats! {
    /// Atomic bank of every [`NetStats`] field. A conduit keeps two: the
    /// live counters and the `reset_stats` baseline. SeqCst throughout,
    /// because quiescence detection reads `injected`, `delivered` and
    /// `pending` from other threads.
    pub(crate) struct NetCounters(SeqCst);

    /// Snapshot of a conduit's counters, including the chaos-mode
    /// reliability layer. `injected`/`delivered`/`pending` count logical
    /// messages exactly as the quiescence protocol sees them.
    pub struct NetStats {
        /// Logical messages injected since creation.
        injected: counter,
        /// Logical messages delivered (each action executes exactly once).
        delivered: counter,
        /// Messages awaiting delivery: undelivered messages, pending
        /// retransmission timers, and duplicate copies not yet suppressed.
        pending: gauge,
        /// Polls that lost the queue-lock race twice and returned a busy hint.
        contended_polls: counter,
        /// Retransmissions performed after an injected drop.
        retries: counter,
        /// Transmission attempts the fault plan dropped.
        drops_injected: counter,
        /// Duplicate copies discarded by receiver-side sequence-number dedup.
        dup_suppressed: counter,
        /// Largest retransmission backoff applied (gauge; bounded by the
        /// plan's `max_backoff_ns`).
        max_backoff_ns: gauge,
        /// Duplicate copies that arrived before their original and were
        /// promoted to perform the delivery.
        dup_promoted: counter,
        /// Batch messages injected by the aggregation layer.
        batches_injected: counter,
        /// Fine-grained operations carried inside those batches.
        ops_coalesced: counter,
        /// Batch flushes triggered by the size threshold.
        flushes_size: counter,
        /// Batch flushes by the owning rank's progress quantum.
        flushes_age: counter,
        /// Batch flushes triggered explicitly (barrier / quiesce / user flush).
        flushes_explicit: counter,
        /// Deepest per-target aggregation buffer observed (gauge).
        agg_occupancy_highwater: gauge,
        /// Signal-carrying messages (put/amo-with-signal) injected.
        signals: counter,
        /// Lamport clock advances (ticks + merges) performed by the causal
        /// tracing layer. Zero unless tracing is enabled.
        lclock_ticks: counter,
    }
}

enum Payload {
    /// Transmission attempt number `attempt` of message `msg`, carrying the
    /// delivery action. If `dropped`, the entry is the retransmission timer
    /// for a lost packet: popping it reschedules attempt `attempt + 1`
    /// instead of delivering.
    Attempt {
        msg: u64,
        attempt: u32,
        dropped: bool,
        /// Routing hint recorded at injection — not used for delivery
        /// (the queue is global) but surfaced by `inflight()` so a stall
        /// diagnosis can name the rank pair a stuck message belongs to.
        route: Option<(u32, u32)>,
        /// The sender's Lamport stamp, piggybacked on the wire message
        /// (zero when tracing was off at injection).
        lclock: u64,
        action: NetAction,
    },
    /// One of the two wire copies of a duplicated transmission. Both copies
    /// share the payload through `slot`; whichever takes it first delivers,
    /// the other finds the slot empty and is suppressed.
    /// `primary` marks the copy scheduled on the original (possibly
    /// reordered) due time — when the trailing copy wins the race, the
    /// delivery is counted as a promotion.
    Copy {
        msg: u64,
        attempt: u32,
        primary: bool,
        route: Option<(u32, u32)>,
        /// The sender's Lamport stamp (both copies carry the same stamp).
        lclock: u64,
        slot: std::sync::Arc<Mutex<Option<NetAction>>>,
    },
}

struct Delivery {
    due_ns: u64,
    seq: u64,
    payload: Payload,
}

thread_local! {
    /// The deliveries one poll pops, kept per thread so a delivering poll
    /// allocates nothing once the buffer has grown: `poll` takes it before
    /// popping and puts it back, empty, after the deliveries. A poll nested
    /// in a delivery action finds it taken and starts an empty one.
    static DUE: Cell<Vec<Delivery>> = const { Cell::new(Vec::new()) };
}

impl PartialEq for Delivery {
    fn eq(&self, other: &Self) -> bool {
        self.due_ns == other.due_ns && self.seq == other.seq
    }
}
impl Eq for Delivery {}
impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due_ns, self.seq).cmp(&(other.due_ns, other.seq))
    }
}

/// The global delay queue: the simulated [`Conduit`].
pub struct SimNetwork {
    cfg: NetConfig,
    epoch: Instant,
    /// Logical nanoseconds under `ClockMode::Virtual`; advances only inside
    /// `poll` (under the queue lock), time-warping to the earliest due
    /// delivery when nothing is currently due.
    vclock: std::sync::atomic::AtomicU64,
    /// Heap tie-break sequence. Distinct from the message counter because
    /// retries and duplicates push extra heap entries for the same logical
    /// message.
    heap_seq: std::sync::atomic::AtomicU64,
    queue: Mutex<BinaryHeap<Reverse<Delivery>>>,
    /// Counters, gauges, baseline, the wire-event sink and the Lamport
    /// clocks — all atomic or independently locked, never touched under
    /// the queue lock's scope in a way an observer would wait on.
    core: ConduitCore,
}

use std::sync::atomic::Ordering;

impl SimNetwork {
    /// Create a network with the given latency parameters, sharing the
    /// world's Lamport clock bank for causal stamps.
    pub fn new(cfg: NetConfig, clocks: std::sync::Arc<LamportClocks>) -> Self {
        if let Some(plan) = cfg.faults {
            plan.validate();
        }
        SimNetwork {
            cfg,
            epoch: Instant::now(),
            vclock: std::sync::atomic::AtomicU64::new(0),
            heap_seq: std::sync::atomic::AtomicU64::new(0),
            queue: Mutex::new(BinaryHeap::new()),
            core: ConduitCore::new(clocks),
        }
    }

    /// Deterministic per-decision hash: a pure function of the plan seed
    /// (0 without a plan), the message id, the attempt, and a salt that
    /// decorrelates the different decisions taken for one attempt.
    fn mix(&self, msg: u64, attempt: u32, salt: u64) -> u64 {
        let seed = self.cfg.faults.map_or(0, |f| f.seed);
        splitmix64(splitmix64(splitmix64(seed ^ msg) ^ u64::from(attempt)) ^ salt)
    }

    /// Bounded exponential backoff for retransmission `attempt`.
    fn backoff_ns(plan: &FaultPlan, attempt: u32) -> u64 {
        plan.rto_ns
            .saturating_mul(1u64 << attempt.min(32))
            .min(plan.max_backoff_ns)
            .max(1)
    }

    /// Apply the plan's burst and partition windows to a due time. Both
    /// only push deliveries later; neither can cancel one.
    fn shape(&self, mut due: u64) -> u64 {
        if let Some(plan) = &self.cfg.faults {
            if plan.burst_period_ns > 0 && due % plan.burst_period_ns < plan.burst_len_ns {
                due += plan.burst_extra_ns;
            }
            if due >= plan.partition_at_ns && due < plan.partition_until_ns {
                due = plan.partition_until_ns;
            }
        }
        due
    }

    /// Schedule transmission attempt `attempt` of message `msg`, running
    /// fate selection (drop / duplicate / reorder) against the fault plan.
    /// Caller holds the queue lock and has already counted the message
    /// pending; duplicate copies add their own pending entry here.
    fn schedule_attempt(
        &self,
        q: &mut BinaryHeap<Reverse<Delivery>>,
        msg: u64,
        attempt: u32,
        route: Option<(u32, u32)>,
        lclock: u64,
        action: NetAction,
    ) {
        let now = self.now_ns();
        let plan = self.cfg.faults;
        if let Some(plan) = &plan {
            let droppable = attempt + 1 < plan.max_attempts;
            if droppable && ppm(self.mix(msg, attempt, 1)) < plan.drop_ppm {
                // Lost packet: keep the payload on the retransmission timer
                // so nothing can leak, and re-enter fate selection when the
                // timer fires.
                let backoff = Self::backoff_ns(plan, attempt);
                self.core.note_drop(backoff);
                self.trace_event(
                    msg,
                    attempt,
                    NetEventKind::Drop {
                        backoff_ns: backoff,
                    },
                    lclock,
                );
                q.push(Reverse(Delivery {
                    due_ns: now + backoff,
                    seq: self.heap_seq.fetch_add(1, Ordering::Relaxed),
                    payload: Payload::Attempt {
                        msg,
                        attempt,
                        dropped: true,
                        route,
                        lclock,
                        action,
                    },
                }));
                return;
            }
        }
        let jitter = if self.cfg.jitter_ns == 0 {
            0
        } else {
            // Deterministic per-attempt jitter from the seeded mix — never
            // from wall-clock state, so identical seeds replay identical
            // schedules.
            self.mix(msg, attempt, 0) % (self.cfg.jitter_ns + 1)
        };
        let reorder = match &plan {
            Some(p) if p.reorder_span_ns > 0 && ppm(self.mix(msg, attempt, 2)) < p.reorder_ppm => {
                self.mix(msg, attempt, 3) % (p.reorder_span_ns + 1)
            }
            _ => 0,
        };
        let due = self.shape(now + self.cfg.latency_ns + jitter + reorder);
        let duplicated = plan
            .as_ref()
            .is_some_and(|p| ppm(self.mix(msg, attempt, 4)) < p.dup_ppm);
        if duplicated {
            // The wire carried two copies sharing one payload slot. The
            // primary keeps the reordered due time; the extra copy trails
            // the *un-reordered* arrival by a sub-latency offset, so a
            // heavily reordered primary can lose the race and the trailing
            // copy gets promoted to deliver.
            let lag = 1 + self.mix(msg, attempt, 5) % self.cfg.latency_ns.max(1);
            let slot = std::sync::Arc::new(Mutex::new(Some(action)));
            q.push(Reverse(Delivery {
                due_ns: due,
                seq: self.heap_seq.fetch_add(1, Ordering::Relaxed),
                payload: Payload::Copy {
                    msg,
                    attempt,
                    primary: true,
                    route,
                    lclock,
                    slot: std::sync::Arc::clone(&slot),
                },
            }));
            self.core.copy_queued();
            q.push(Reverse(Delivery {
                due_ns: self.shape(now + self.cfg.latency_ns + jitter + lag),
                seq: self.heap_seq.fetch_add(1, Ordering::Relaxed),
                payload: Payload::Copy {
                    msg,
                    attempt,
                    primary: false,
                    route,
                    lclock,
                    slot,
                },
            }));
        } else {
            q.push(Reverse(Delivery {
                due_ns: due,
                seq: self.heap_seq.fetch_add(1, Ordering::Relaxed),
                payload: Payload::Attempt {
                    msg,
                    attempt,
                    dropped: false,
                    route,
                    lclock,
                    action,
                },
            }));
        }
    }

    /// Heap entries currently queued (test hook; takes the queue lock).
    pub fn heap_len(&self) -> usize {
        self.queue.lock().unwrap().len()
    }

    /// Hold the queue lock and run `f` (test hook for simulating a rank
    /// mid-drain).
    pub fn while_queue_locked<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.queue.lock().unwrap();
        f()
    }

    /// The configured latency parameters.
    pub fn config(&self) -> NetConfig {
        self.cfg
    }
}

impl Conduit for SimNetwork {
    /// Inject an operation for delivery after the configured latency. The
    /// simulated network keeps one global delay queue, so the routing hint
    /// does not affect delivery — exactly the pre-trait behaviour,
    /// preserving every seeded schedule byte-for-byte — but it is recorded
    /// on the heap entry so `inflight()` can name the rank pair a stuck
    /// message belongs to.
    fn inject_to(&self, route: Option<(Rank, Rank)>, action: NetAction) -> u64 {
        let msg = self.core.inject_msg();
        let route = route.map(|(s, t)| (s.0, t.0));
        // Lamport send event: the wire message carries the injecting
        // rank's post-tick stamp.
        let lclock = self.core.lamport_tick(route.map(|(s, _)| s));
        self.trace_event(msg, 0, NetEventKind::Inject, lclock);
        {
            let mut q = self.queue.lock().unwrap();
            self.schedule_attempt(&mut q, msg, 0, route, lclock, action);
        }
        // New traffic: prod a parked progress thread (no-op when unarmed).
        self.core.wake();
        msg
    }

    /// Execute all deliveries whose due time has passed. Returns the number
    /// of work items observed: deliveries performed (including suppressed
    /// duplicates and retransmission timers fired), or the poll gate's busy
    /// hint when another rank holds the queue.
    ///
    /// With nothing pending the poll returns 0 before the gate, so idle
    /// ranks never touch the shared queue lock. That is exact, not a
    /// heuristic: `pending` rises before every heap push and falls only
    /// after the entry has left the heap, so `pending() == 0` means the
    /// heap is empty.
    fn poll(&self, world: &World) -> usize {
        if self.core.pending() == 0 {
            return 0;
        }
        let mut q = match self.core.enter_poll(&self.queue) {
            Ok(q) => q,
            Err(busy) => return busy,
        };
        if q.is_empty() {
            return 0;
        }
        let now = match self.cfg.clock {
            ClockMode::Wall => self.epoch.elapsed().as_nanos() as u64,
            ClockMode::Virtual => {
                // Time-warp: nothing observable happens between now and the
                // earliest due time, so jump straight there. The store is
                // safe because the clock only mutates under the queue lock.
                let t = self.vclock.load(Ordering::SeqCst);
                let earliest = q.peek().map_or(t, |Reverse(d)| d.due_ns);
                if earliest > t {
                    self.vclock.store(earliest, Ordering::SeqCst);
                    earliest
                } else {
                    t
                }
            }
        };
        // Nothing due yet (wall-clock traffic still in flight): leave
        // without touching the per-thread buffer.
        if q.peek().is_some_and(|Reverse(d)| d.due_ns > now) {
            return 0;
        }
        let mut due = DUE.take();
        while let Some(Reverse(d)) = q.peek() {
            if d.due_ns > now {
                break;
            }
            due.push(q.pop().unwrap().0);
        }
        drop(q); // run actions without holding the lock: they may re-inject
        let n = due.len();
        for d in due.drain(..) {
            match d.payload {
                Payload::Attempt {
                    msg,
                    attempt,
                    dropped: true,
                    route,
                    lclock,
                    action,
                } => {
                    // Retransmission timer fired: resend with the next
                    // attempt number. The logical message stays pending:
                    // this pops one heap entry and pushes exactly one (or
                    // two sharing one extra pending increment if the
                    // resend is duplicated), so `pending()` keeps mirroring
                    // the heap length. The retransmission carries the
                    // original send stamp — it is the same logical send.
                    self.core.note_retry();
                    self.trace_event(msg, attempt + 1, NetEventKind::Retry, lclock);
                    let mut q = self.queue.lock().unwrap();
                    self.schedule_attempt(&mut q, msg, attempt + 1, route, lclock, action);
                }
                Payload::Attempt {
                    msg,
                    attempt,
                    dropped: false,
                    route,
                    lclock,
                    action,
                } => {
                    let merged = self.core.lamport_merge(route.map(|(_, t)| t), lclock);
                    self.trace_event(msg, attempt, NetEventKind::Deliver, merged);
                    (action)(world);
                    self.core.note_delivered();
                }
                Payload::Copy {
                    msg,
                    attempt,
                    primary,
                    route,
                    lclock,
                    slot,
                } => {
                    // Receiver-side dedup over the two wire copies: the
                    // first to take the shared payload delivers it, the
                    // other finds the slot empty and is suppressed. A
                    // trailing copy that overtakes its reordered primary
                    // is promoted, not swallowed.
                    let taken = slot.lock().unwrap().take();
                    if let Some(action) = taken {
                        let merged = self.core.lamport_merge(route.map(|(_, t)| t), lclock);
                        self.trace_event(msg, attempt, NetEventKind::Deliver, merged);
                        (action)(world);
                        self.core.note_delivered();
                        if !primary {
                            self.core.note_dup_promoted();
                        }
                    } else {
                        self.trace_event(msg, attempt, NetEventKind::DupDiscard, lclock);
                        self.core.note_dup_suppressed();
                        self.core.copy_retired();
                    }
                }
            }
        }
        DUE.set(due);
        n
    }

    /// The network's notion of "now": nanoseconds since creation under
    /// `ClockMode::Wall`, or the logical time-warp counter under
    /// `ClockMode::Virtual`. This is the clock every trace timestamp uses,
    /// so virtual-clock traces are bit-replayable.
    #[inline]
    fn now_ns(&self) -> u64 {
        match self.cfg.clock {
            ClockMode::Wall => self.epoch.elapsed().as_nanos() as u64,
            ClockMode::Virtual => self.vclock.load(Ordering::SeqCst),
        }
    }

    /// Snapshot every heap entry the network still owes a delivery for,
    /// in deterministic `(msg, due_ns, seq)` order. Takes the queue lock
    /// briefly; never executes actions.
    fn inflight(&self) -> Vec<InFlight> {
        let q = self.queue.lock().unwrap();
        let mut out: Vec<(u64, InFlight)> = q
            .iter()
            .map(|Reverse(d)| {
                let (msg, attempt, retransmit, route) = match &d.payload {
                    Payload::Attempt {
                        msg,
                        attempt,
                        dropped,
                        route,
                        ..
                    } => (*msg, *attempt, *dropped, *route),
                    Payload::Copy {
                        msg,
                        attempt,
                        route,
                        ..
                    } => (*msg, *attempt, false, *route),
                };
                (
                    d.seq,
                    InFlight {
                        msg,
                        attempt,
                        retransmit,
                        due_ns: d.due_ns,
                        route,
                    },
                )
            })
            .collect();
        out.sort_by_key(|(seq, f)| (f.msg, f.due_ns, *seq));
        out.into_iter().map(|(_, f)| f).collect()
    }

    fn core(&self) -> &ConduitCore {
        &self.core
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[inline]
pub(crate) fn ppm(x: u64) -> u32 {
    (x % 1_000_000) as u32
}

/// SplitMix64 mixer, used for deterministic jitter and fault fates.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GasnexConfig;
    use std::sync::atomic::AtomicU64;

    fn test_world() -> std::sync::Arc<World> {
        World::new(GasnexConfig::udp(2, 1).with_segment_size(1 << 12))
    }

    fn world_with_net(net: NetConfig) -> std::sync::Arc<World> {
        World::new(
            GasnexConfig::udp(2, 1)
                .with_segment_size(1 << 12)
                .with_net(net),
        )
    }

    /// The concrete simulator behind the world's conduit (these tests
    /// exercise SimNetwork internals the trait doesn't expose).
    fn sim(w: &World) -> &SimNetwork {
        w.net()
            .as_any()
            .downcast_ref()
            .expect("default transport is the simulator")
    }

    #[test]
    fn zero_latency_still_asynchronous() {
        let w = world_with_net(NetConfig {
            latency_ns: 0,
            jitter_ns: 0,
            ..NetConfig::default()
        });
        let hit = std::sync::Arc::new(AtomicU64::new(0));
        let h = std::sync::Arc::clone(&hit);
        w.net().inject(Box::new(move |_| {
            h.store(1, Ordering::Relaxed);
        }));
        // Injection alone must not execute the action.
        assert_eq!(hit.load(Ordering::Relaxed), 0);
        assert_eq!(w.net().pending(), 1);
        w.net().poll(&w);
        assert_eq!(hit.load(Ordering::Relaxed), 1);
        assert_eq!(w.net().pending(), 0);
        assert_eq!(w.net().delivered(), 1);
    }

    #[test]
    fn latency_delays_delivery() {
        let w = world_with_net(NetConfig {
            latency_ns: 3_000_000,
            jitter_ns: 0,
            ..NetConfig::default()
        });
        let hit = std::sync::Arc::new(AtomicU64::new(0));
        let h = std::sync::Arc::clone(&hit);
        w.net().inject(Box::new(move |_| {
            h.store(1, Ordering::Relaxed);
        }));
        w.net().poll(&w);
        assert_eq!(
            hit.load(Ordering::Relaxed),
            0,
            "delivered before latency elapsed"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
        w.net().poll(&w);
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn uniform_latency_preserves_order() {
        let w = test_world();
        let log = std::sync::Arc::new(Mutex::new(Vec::new()));
        for i in 0..20 {
            let log = std::sync::Arc::clone(&log);
            w.net()
                .inject(Box::new(move |_| log.lock().unwrap().push(i)));
        }
        std::thread::sleep(std::time::Duration::from_micros(10));
        while w.net().pending() > 0 {
            w.net().poll(&w);
        }
        assert_eq!(*log.lock().unwrap(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn contended_poll_reports_busy_not_idle() {
        let w = world_with_net(NetConfig {
            latency_ns: 0,
            jitter_ns: 0,
            ..NetConfig::default()
        });
        w.net().inject(Box::new(|_| {}));
        // Simulate another rank mid-drain by holding the queue lock.
        sim(&w).while_queue_locked(|| {
            assert_eq!(
                w.net().poll(&w),
                1,
                "lost lock race with pending work must report busy"
            );
            assert_eq!(w.net().stats().contended_polls, 1);
            assert_eq!(
                w.net().delivered(),
                0,
                "busy hint must not deliver anything"
            );
        });
        assert_eq!(
            w.net().poll(&w),
            1,
            "after the holder releases, delivery proceeds"
        );
        assert_eq!(w.net().pending(), 0);
        // With nothing pending, a poll made while the queue is held reports
        // idle without entering the gate: no yield, no contended poll.
        sim(&w).while_queue_locked(|| {
            assert_eq!(w.net().poll(&w), 0);
            assert_eq!(
                w.net().stats().contended_polls,
                1,
                "an idle poll must not touch the queue lock"
            );
        });
    }

    #[test]
    fn actions_may_reinject() {
        let w = world_with_net(NetConfig {
            latency_ns: 0,
            jitter_ns: 0,
            ..NetConfig::default()
        });
        let hit = std::sync::Arc::new(AtomicU64::new(0));
        let h = std::sync::Arc::clone(&hit);
        w.net().inject(Box::new(move |world| {
            let h2 = std::sync::Arc::clone(&h);
            world.net().inject(Box::new(move |_| {
                h2.store(2, Ordering::Relaxed);
            }));
        }));
        w.net().poll(&w);
        w.net().poll(&w);
        assert_eq!(hit.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for _ in 0..2 {
            let mut vals = Vec::new();
            for seq in 0..100u64 {
                vals.push(splitmix64(seq) % 101);
            }
            assert!(vals.iter().all(|&v| v <= 100));
            // Same seeds give same jitter.
            assert_eq!(vals[0], splitmix64(0) % 101);
        }
    }

    /// Drive a world to completion single-threadedly, recording the
    /// delivery order of `n` injected markers.
    fn delivery_schedule(net: NetConfig, n: u64) -> (Vec<u64>, NetStats) {
        let w = world_with_net(net);
        let log = std::sync::Arc::new(Mutex::new(Vec::new()));
        for i in 0..n {
            let log = std::sync::Arc::clone(&log);
            w.net()
                .inject(Box::new(move |_| log.lock().unwrap().push(i)));
        }
        let mut spins = 0u64;
        while w.net().delivered() < n || w.net().pending() > 0 {
            w.net().poll(&w);
            spins += 1;
            assert!(spins < 1_000_000, "chaos schedule failed to terminate");
        }
        let order = log.lock().unwrap().clone();
        (order, w.net().stats())
    }

    #[test]
    fn virtual_clock_replays_identical_schedules() {
        // Satellite regression: with the virtual clock, the delivery
        // schedule is a pure function of the seed — two runs replay
        // identically, and a different seed produces a different order.
        let plan = FaultPlan::seeded(7)
            .with_drops(120_000)
            .with_dups(90_000)
            .with_reorder(250_000, 9_000);
        let net = NetConfig {
            latency_ns: 1_000,
            jitter_ns: 800,
            ..NetConfig::default()
        }
        .with_virtual_clock()
        .with_faults(plan);
        let (a, sa) = delivery_schedule(net, 64);
        let (b, sb) = delivery_schedule(net, 64);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_eq!(sa, sb, "same seed must replay the same fault counters");
        assert_ne!(
            a,
            (0..64).collect::<Vec<_>>(),
            "chaos plan should actually reorder deliveries"
        );
        let other = NetConfig {
            faults: Some(FaultPlan { seed: 8, ..plan }),
            ..net
        };
        let (c, _) = delivery_schedule(other, 64);
        assert_ne!(a, c, "a different seed should produce a different schedule");
    }

    #[test]
    fn drops_retry_with_bounded_backoff_and_terminate() {
        let plan = FaultPlan::seeded(3)
            .with_drops(400_000)
            .with_retry(2_000, 16_000, 5);
        let (order, stats) = delivery_schedule(NetConfig::chaos(plan), 128);
        assert_eq!(order.len(), 128, "every message must eventually deliver");
        assert_eq!(stats.delivered, 128);
        assert_eq!(stats.pending, 0);
        assert!(stats.drops_injected > 0, "plan should have dropped packets");
        assert_eq!(
            stats.retries, stats.drops_injected,
            "every drop fires exactly one retransmission"
        );
        assert!(stats.max_backoff_ns >= 2_000);
        assert!(
            stats.max_backoff_ns <= 16_000,
            "backoff must respect the plan cap, got {}",
            stats.max_backoff_ns
        );
    }

    #[test]
    fn duplicates_are_suppressed_exactly_once() {
        let plan = FaultPlan::seeded(11).with_dups(500_000);
        let (order, stats) = delivery_schedule(NetConfig::chaos(plan), 96);
        assert_eq!(order.len(), 96, "dedup must not lose or double-deliver");
        assert_eq!(stats.delivered, 96);
        assert!(stats.dup_suppressed > 0, "plan should have duplicated");
        assert_eq!(stats.pending, 0);
    }

    #[test]
    fn reset_stats_rebaselines_counters_and_reprimes_gauges() {
        let plan = FaultPlan::seeded(3)
            .with_drops(400_000)
            .with_retry(2_000, 16_000, 5);
        let w = world_with_net(NetConfig::chaos(plan));
        for _ in 0..64 {
            w.net().inject(Box::new(|_| {}));
        }
        while w.net().delivered() < 64 || w.net().pending() > 0 {
            w.net().poll(&w);
        }
        let before = w.net().stats();
        assert_eq!(before.delivered, 64);
        assert!(before.max_backoff_ns > 0);

        w.net().reset_stats();
        let after = w.net().stats();
        assert_eq!(after.injected, 0, "counters re-baseline to zero");
        assert_eq!(after.delivered, 0);
        assert_eq!(after.retries, 0);
        assert_eq!(after.drops_injected, 0);
        assert_eq!(after.max_backoff_ns, 0, "peak gauge re-primes");
        // Quiescence detection keeps seeing the raw totals.
        assert_eq!(w.net().injected(), 64);
        assert_eq!(w.net().delivered(), 64);

        // A gauge keeps reporting the live level after reset: inject
        // without polling and `pending` must show the queue depth.
        w.net().inject(Box::new(|_| {}));
        let live = w.net().stats();
        assert_eq!(live.pending, 1, "gauges report the live level");
        assert_eq!(live.injected, 1, "counters count from the baseline");
        while w.net().pending() > 0 {
            w.net().poll(&w);
        }
    }

    #[test]
    fn dup_racing_ahead_of_reordered_original_is_promoted() {
        // Satellite regression: the duplicate copy trails the *un-reordered*
        // arrival, so a primary pushed far out by reorder loses the race and
        // the trailing copy must be promoted to deliver — the old code
        // consulted the acked set and threw the answer away, silently
        // swallowing exactly this schedule. With latency 1_000 the dup lag
        // is at most 1_000 ns while reorder can add up to 50_000 ns, so
        // promotions are guaranteed at these rates.
        let plan = FaultPlan::seeded(17)
            .with_dups(500_000)
            .with_reorder(500_000, 50_000);
        let net = NetConfig {
            latency_ns: 1_000,
            jitter_ns: 300,
            ..NetConfig::default()
        }
        .with_virtual_clock()
        .with_faults(plan);
        let (order, stats) = delivery_schedule(net, 128);
        assert_eq!(order.len(), 128, "every message delivers exactly once");
        assert_eq!(stats.delivered, 128);
        assert_eq!(stats.pending, 0);
        assert!(
            stats.dup_promoted > 0,
            "schedule must exercise the dup-races-ahead path"
        );
        assert!(stats.dup_suppressed > 0, "losing copies are discarded");
        let (order2, stats2) = delivery_schedule(net, 128);
        assert_eq!(order, order2, "promotion is deterministic under a seed");
        assert_eq!(stats, stats2);
    }

    #[test]
    fn pending_mirrors_heap_length_under_every_plan() {
        // Satellite audit: `pending()` must equal the heap length at every
        // quiescent point under each fault-plan shape — the retry path pops
        // one timer and pushes one attempt (plus a self-accounted dup
        // copy), so no path may leak the counter in either direction.
        let shapes: &[FaultPlan] = &[
            FaultPlan::seeded(31)
                .with_drops(250_000)
                .with_retry(4_000, 64_000, 6),
            FaultPlan::seeded(37)
                .with_dups(200_000)
                .with_reorder(300_000, 6_000),
            FaultPlan::seeded(41)
                .with_drops(150_000)
                .with_dups(120_000)
                .with_reorder(200_000, 5_000)
                .with_retry(4_000, 64_000, 6),
        ];
        for plan in shapes {
            let net = NetConfig {
                latency_ns: 800,
                jitter_ns: 300,
                ..NetConfig::default()
            }
            .with_virtual_clock()
            .with_faults(*plan);
            let w = world_with_net(net);
            let n = 256u64;
            for _ in 0..n {
                w.net().inject(Box::new(|_| {}));
            }
            let mut spins = 0u64;
            loop {
                let heap = sim(&w).heap_len();
                assert_eq!(
                    w.net().pending(),
                    heap,
                    "pending() must mirror the heap under seed {}",
                    plan.seed
                );
                if w.net().delivered() >= n && heap == 0 {
                    break;
                }
                w.net().poll(&w);
                spins += 1;
                assert!(spins < 1_000_000, "chaos schedule failed to terminate");
            }
            assert_eq!(w.net().pending(), 0);
            assert_eq!(w.net().delivered(), n);
        }
    }

    #[test]
    fn partition_stalls_then_heals() {
        // All deliveries due inside the window stall until it heals; with
        // the virtual clock the heal is observed by time-warp, not sleep.
        let plan = FaultPlan::seeded(5).with_partition(0, 1_000_000);
        let net = NetConfig {
            latency_ns: 100,
            jitter_ns: 0,
            ..NetConfig::default()
        }
        .with_virtual_clock()
        .with_faults(plan);
        let w = world_with_net(net);
        let hit = std::sync::Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            let h = std::sync::Arc::clone(&hit);
            w.net().inject(Box::new(move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            }));
        }
        // First poll warps to the heal time and delivers everything.
        while w.net().pending() > 0 {
            w.net().poll(&w);
        }
        assert_eq!(hit.load(Ordering::Relaxed), 8);
        assert!(
            w.net().now_ns() >= 1_000_000,
            "deliveries must wait for the partition to heal"
        );
    }
}
