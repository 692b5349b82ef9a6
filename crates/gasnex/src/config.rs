//! Configuration for a `gasnex` world: conduit selection, process layout,
//! segment sizing, and simulated-network parameters.

/// Which conduit flavor the world runs over.
///
/// In the real GASNet-EX these select genuinely different transports. Here
/// the kind controls what the layered runtime may *assume* about locality
/// (the wire itself is chosen separately by [`Transport`]):
///
/// * [`ConduitKind::Smp`] supports only a single (simulated) node, which
///   lets the runtime treat every global pointer as directly addressable
///   (the "constexpr `is_local`" optimization the paper describes for
///   2021.3.6).
/// * [`ConduitKind::Udp`] permits multiple simulated nodes; co-located
///   ranks communicate through process-shared memory while ranks on
///   different simulated nodes go through the [`Conduit`] transport.
///
/// [`Conduit`]: crate::conduit::Conduit
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConduitKind {
    /// Shared-memory conduit: exactly one node.
    Smp,
    /// UDP conduit stand-in: multi-node capable, process-shared memory
    /// within a node.
    Udp,
}

impl ConduitKind {
    /// Whether this conduit guarantees that every rank is on the same node,
    /// making every global pointer directly addressable.
    pub fn single_node_only(self) -> bool {
        matches!(self, ConduitKind::Smp)
    }
}

/// Which wire carries cross-node delivery actions — the [`Conduit`]
/// implementation a [`World`] constructs.
///
/// [`Conduit`]: crate::conduit::Conduit
/// [`World`]: crate::world::World
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Transport {
    /// The simulated delay queue ([`SimNetwork`]): deterministic latency
    /// and jitter, the full chaos adversary, and virtual-clock replay.
    ///
    /// [`SimNetwork`]: crate::net::SimNetwork
    #[default]
    Sim,
    /// Real loopback UDP sockets ([`UdpConduit`]): one kernel socket per
    /// simulated node, datagram framing, sender retransmission and
    /// receiver dedup. Wall-clock only; fault plans limited to drop/dup.
    ///
    /// [`UdpConduit`]: crate::conduit::udp::UdpConduit
    UdpSocket,
}

/// How the simulated network measures time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Wall-clock nanoseconds from a process-local `Instant` epoch. Delivery
    /// times depend on host scheduling, so schedules are not replayable.
    #[default]
    Wall,
    /// Deterministic virtual clock: logical nanoseconds that advance only
    /// when a poll finds nothing due and time-warps to the earliest due
    /// delivery. With a virtual clock the whole delivery schedule is a pure
    /// function of the injection order and the fault-plan seed.
    Virtual,
}

/// A seeded, deterministic fault-injection plan for the simulated network.
///
/// Every per-message decision (drop, duplicate, reorder delay) is a pure
/// function of `(seed, message id, attempt)`, so a fixed seed replays the
/// identical adversarial schedule. Probabilities are expressed in parts per
/// million of deliveries. Dropped messages are retransmitted by the
/// network's ack/retry layer with bounded exponential backoff
/// (`rto_ns * 2^attempt`, capped at `max_backoff_ns`); the attempt before
/// `max_attempts` is never dropped, so every faulted run terminates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for all fault decisions and (when present) jitter mixing.
    pub seed: u64,
    /// Probability (ppm) that a transmission attempt is dropped.
    pub drop_ppm: u32,
    /// Probability (ppm) that a delivered message is also duplicated; the
    /// receiver suppresses the extra copy by sequence-number dedup.
    pub dup_ppm: u32,
    /// Probability (ppm) that a delivery is delayed by up to
    /// `reorder_span_ns` extra nanoseconds, overtaking later messages.
    pub reorder_ppm: u32,
    /// Maximum extra delay applied to reordered deliveries.
    pub reorder_span_ns: u64,
    /// Burst-delay window period; 0 disables bursts.
    pub burst_period_ns: u64,
    /// Length of the delayed window at the start of each burst period.
    pub burst_len_ns: u64,
    /// Extra delay applied to deliveries falling inside a burst window.
    pub burst_extra_ns: u64,
    /// Start of a one-shot network partition: deliveries due inside
    /// `[partition_at_ns, partition_until_ns)` stall until the partition
    /// heals. Equal bounds disable the partition.
    pub partition_at_ns: u64,
    /// End of the partition window (exclusive).
    pub partition_until_ns: u64,
    /// Base retransmission timeout for the first retry of a dropped message.
    pub rto_ns: u64,
    /// Cap on the exponential retransmission backoff.
    pub max_backoff_ns: u64,
    /// Maximum transmission attempts per message; the final attempt is
    /// exempt from drops, bounding retries and guaranteeing termination.
    pub max_attempts: u32,
}

impl FaultPlan {
    /// A plan with the given seed, no faults enabled, and default retry
    /// parameters — the base the `with_*` builders toggle faults onto.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_ppm: 0,
            dup_ppm: 0,
            reorder_ppm: 0,
            reorder_span_ns: 0,
            burst_period_ns: 0,
            burst_len_ns: 0,
            burst_extra_ns: 0,
            partition_at_ns: 0,
            partition_until_ns: 0,
            rto_ns: 20_000,
            max_backoff_ns: 320_000,
            max_attempts: 6,
        }
    }

    /// Drop `ppm` parts-per-million of transmission attempts.
    pub fn with_drops(mut self, ppm: u32) -> Self {
        self.drop_ppm = ppm;
        self
    }

    /// Duplicate `ppm` parts-per-million of deliveries.
    pub fn with_dups(mut self, ppm: u32) -> Self {
        self.dup_ppm = ppm;
        self
    }

    /// Delay `ppm` parts-per-million of deliveries by up to `span_ns`.
    pub fn with_reorder(mut self, ppm: u32, span_ns: u64) -> Self {
        self.reorder_ppm = ppm;
        self.reorder_span_ns = span_ns;
        self
    }

    /// Delay deliveries due in the first `len_ns` of every `period_ns`
    /// window by `extra_ns`.
    pub fn with_burst(mut self, period_ns: u64, len_ns: u64, extra_ns: u64) -> Self {
        self.burst_period_ns = period_ns;
        self.burst_len_ns = len_ns;
        self.burst_extra_ns = extra_ns;
        self
    }

    /// Stall deliveries due inside `[at_ns, until_ns)` until the partition
    /// heals at `until_ns`.
    pub fn with_partition(mut self, at_ns: u64, until_ns: u64) -> Self {
        self.partition_at_ns = at_ns;
        self.partition_until_ns = until_ns;
        self
    }

    /// Override the retransmission parameters.
    pub fn with_retry(mut self, rto_ns: u64, max_backoff_ns: u64, max_attempts: u32) -> Self {
        self.rto_ns = rto_ns;
        self.max_backoff_ns = max_backoff_ns;
        self.max_attempts = max_attempts;
        self
    }

    /// Validate the plan, panicking with a descriptive message on
    /// nonsensical parameters.
    pub fn validate(&self) {
        for (name, ppm) in [
            ("drop_ppm", self.drop_ppm),
            ("dup_ppm", self.dup_ppm),
            ("reorder_ppm", self.reorder_ppm),
        ] {
            assert!(
                ppm <= 1_000_000,
                "gasnex: FaultPlan.{name} is a parts-per-million probability, got {ppm}"
            );
        }
        assert!(
            self.max_attempts >= 1,
            "gasnex: FaultPlan.max_attempts must be at least 1"
        );
        if self.drop_ppm > 0 {
            assert!(
                self.rto_ns > 0 && self.max_backoff_ns >= self.rto_ns,
                "gasnex: drops require rto_ns > 0 and max_backoff_ns >= rto_ns"
            );
        }
        assert!(
            self.partition_at_ns <= self.partition_until_ns,
            "gasnex: partition window must have at_ns <= until_ns"
        );
        if self.burst_period_ns > 0 {
            assert!(
                self.burst_len_ns <= self.burst_period_ns,
                "gasnex: burst_len_ns must not exceed burst_period_ns"
            );
        }
    }
}

/// Parameters of the simulated inter-node network.
///
/// Operations between ranks on different simulated nodes are injected into a
/// delay queue and delivered no earlier than `latency_ns` (± up to
/// `jitter_ns`, deterministic per message) after injection. A latency of zero
/// still forces asynchronous completion: delivery happens at a later progress
/// poll, never synchronously during initiation — exactly the property the
/// paper's off-node operations have.
///
/// With [`ClockMode::Virtual`] and a [`FaultPlan`], the network becomes a
/// deterministic adversary: drops, duplicates, reordering, burst delays and
/// partition windows all replay identically for the same seed.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Base one-way latency in nanoseconds.
    pub latency_ns: u64,
    /// Maximum additional deterministic jitter in nanoseconds.
    pub jitter_ns: u64,
    /// Time source for due-time computation and delivery.
    pub clock: ClockMode,
    /// Optional seeded fault-injection plan (chaos mode).
    pub faults: Option<FaultPlan>,
}

impl Default for NetConfig {
    fn default() -> Self {
        // Roughly EDR InfiniBand-scale small-message latency.
        NetConfig {
            latency_ns: 1_500,
            jitter_ns: 0,
            clock: ClockMode::Wall,
            faults: None,
        }
    }
}

impl NetConfig {
    /// Switch to the deterministic virtual clock.
    pub fn with_virtual_clock(mut self) -> Self {
        self.clock = ClockMode::Virtual;
        self
    }

    /// Attach a fault plan (validating it first).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        plan.validate();
        self.faults = Some(plan);
        self
    }

    /// A chaos configuration: virtual clock plus the given fault plan, with
    /// default latency and enough jitter to exercise tie-breaking.
    pub fn chaos(plan: FaultPlan) -> Self {
        NetConfig {
            jitter_ns: 700,
            ..NetConfig::default()
        }
        .with_virtual_clock()
        .with_faults(plan)
    }
}

/// Notification words per rank — plenty for a badge-per-peer scheme on
/// small worlds while keeping the table allocation trivial.
pub const NOTIFY_WORDS: usize = 16;

/// Configuration of a `gasnex` world.
#[derive(Clone, Debug)]
pub struct GasnexConfig {
    /// Total number of ranks (SPMD "processes", realized as threads).
    pub ranks: usize,
    /// Number of ranks per simulated node. Ranks `[k*n, (k+1)*n)` form node
    /// `k`. It need not divide `ranks`: the last node may be ragged.
    pub ranks_per_node: usize,
    /// Size in bytes of each rank's shared segment.
    pub segment_size: usize,
    /// Conduit flavor (locality assumptions).
    pub conduit: ConduitKind,
    /// Wire implementation carrying cross-node deliveries.
    pub transport: Transport,
    /// Network parameters (only used when more than one node).
    pub net: NetConfig,
    /// Sender-side aggregation knob for fine-grained cross-node ops.
    pub agg: crate::aggregate::AggConfig,
}

impl GasnexConfig {
    /// Single-node SMP configuration with `ranks` ranks and a default
    /// 8 MiB-per-rank segment.
    pub fn smp(ranks: usize) -> Self {
        GasnexConfig {
            ranks,
            ranks_per_node: ranks.max(1),
            segment_size: 8 << 20,
            conduit: ConduitKind::Smp,
            transport: Transport::Sim,
            net: NetConfig::default(),
            agg: crate::aggregate::AggConfig::default(),
        }
    }

    /// Multi-node configuration over the UDP conduit stand-in.
    pub fn udp(ranks: usize, ranks_per_node: usize) -> Self {
        GasnexConfig {
            ranks,
            ranks_per_node: ranks_per_node.max(1),
            segment_size: 8 << 20,
            conduit: ConduitKind::Udp,
            transport: Transport::Sim,
            net: NetConfig::default(),
            agg: crate::aggregate::AggConfig::default(),
        }
    }

    /// Select the wire implementation ([`Transport::Sim`] by default).
    pub fn with_transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Override the per-rank segment size in bytes.
    pub fn with_segment_size(mut self, bytes: usize) -> Self {
        self.segment_size = bytes;
        self
    }

    /// Override the simulated network parameters.
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Override the sender-side aggregation knob (validating it first).
    pub fn with_agg(mut self, agg: crate::aggregate::AggConfig) -> Self {
        agg.validate();
        self.agg = agg;
        self
    }

    /// Number of simulated nodes implied by this configuration.
    pub fn nodes(&self) -> usize {
        self.ranks.div_ceil(self.ranks_per_node)
    }

    /// Validate the configuration, panicking with a descriptive message on
    /// nonsensical parameters.
    pub fn validate(&self) {
        assert!(self.ranks > 0, "gasnex: world must have at least one rank");
        self.agg.validate();
        assert!(
            self.ranks_per_node > 0,
            "gasnex: ranks_per_node must be positive"
        );
        assert!(
            self.segment_size >= 64,
            "gasnex: segment must be at least 64 bytes, got {}",
            self.segment_size
        );
        if self.conduit.single_node_only() {
            assert!(
                self.nodes() == 1,
                "gasnex: SMP conduit supports a single node, but {} ranks with \
                 {} ranks/node gives {} nodes",
                self.ranks,
                self.ranks_per_node,
                self.nodes()
            );
        }
        if self.transport == Transport::UdpSocket {
            // Real sockets cannot be time-warped: the virtual clock only
            // advances by time-warping to the earliest *simulated* due
            // time, which a kernel wire does not expose. Byte-replayable
            // chaos runs stay on the simulated transport.
            assert!(
                self.net.clock == ClockMode::Wall,
                "gasnex: Transport::UdpSocket cannot run under ClockMode::Virtual — \
                 real sockets cannot be time-warped; use Transport::Sim for \
                 virtual-clock chaos replay"
            );
            if let Some(plan) = &self.net.faults {
                assert!(
                    plan.reorder_ppm == 0
                        && plan.burst_period_ns == 0
                        && plan.partition_until_ns == 0,
                    "gasnex: Transport::UdpSocket supports only drop/dup fault fates \
                     (deliberate packet loss and duplication); reorder/burst/partition \
                     schedules require Transport::Sim"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smp_is_one_node() {
        let c = GasnexConfig::smp(16);
        c.validate();
        assert_eq!(c.nodes(), 1);
        assert!(c.conduit.single_node_only());
    }

    #[test]
    fn udp_node_count_rounds_up() {
        let c = GasnexConfig::udp(10, 4);
        c.validate();
        assert_eq!(c.nodes(), 3);
    }

    #[test]
    #[should_panic(expected = "SMP conduit supports a single node")]
    fn smp_multinode_rejected() {
        let mut c = GasnexConfig::smp(8);
        c.ranks_per_node = 2;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        GasnexConfig::smp(0).validate();
    }

    #[test]
    fn builders_apply() {
        let c = GasnexConfig::udp(4, 2)
            .with_segment_size(1 << 16)
            .with_net(NetConfig {
                latency_ns: 10,
                jitter_ns: 5,
                ..NetConfig::default()
            });
        assert_eq!(c.segment_size, 1 << 16);
        assert_eq!(c.net.latency_ns, 10);
        assert_eq!(c.net.jitter_ns, 5);
        assert_eq!(c.net.clock, ClockMode::Wall);
        assert!(c.net.faults.is_none());
    }

    #[test]
    fn fault_plan_builders_compose() {
        let p = FaultPlan::seeded(42)
            .with_drops(100_000)
            .with_dups(50_000)
            .with_reorder(80_000, 4_000)
            .with_burst(10_000, 2_000, 5_000)
            .with_partition(20_000, 60_000)
            .with_retry(1_000, 8_000, 5);
        p.validate();
        assert_eq!(p.seed, 42);
        assert_eq!(p.drop_ppm, 100_000);
        assert_eq!(p.max_attempts, 5);
        let c = NetConfig::chaos(p);
        assert_eq!(c.clock, ClockMode::Virtual);
        assert_eq!(c.faults, Some(p));
    }

    #[test]
    #[should_panic(expected = "parts-per-million")]
    fn fault_plan_rejects_over_unit_probability() {
        FaultPlan::seeded(1).with_drops(1_500_000).validate();
    }

    #[test]
    #[should_panic(expected = "rto_ns > 0")]
    fn fault_plan_drops_require_retry_timer() {
        FaultPlan::seeded(1)
            .with_drops(10_000)
            .with_retry(0, 0, 4)
            .validate();
    }

    #[test]
    fn udp_socket_transport_with_wall_clock_is_valid() {
        let c = GasnexConfig::udp(4, 2)
            .with_transport(Transport::UdpSocket)
            .with_net(NetConfig::default().with_faults(FaultPlan::seeded(1).with_drops(10_000)));
        c.validate();
        assert_eq!(c.transport, Transport::UdpSocket);
    }

    #[test]
    #[should_panic(expected = "cannot be time-warped")]
    fn udp_socket_transport_rejects_virtual_clock() {
        GasnexConfig::udp(4, 2)
            .with_transport(Transport::UdpSocket)
            .with_net(NetConfig::default().with_virtual_clock())
            .validate();
    }

    #[test]
    #[should_panic(expected = "only drop/dup fault fates")]
    fn udp_socket_transport_rejects_reorder_fates() {
        GasnexConfig::udp(4, 2)
            .with_transport(Transport::UdpSocket)
            .with_net(
                NetConfig::default().with_faults(FaultPlan::seeded(1).with_reorder(10_000, 1_000)),
            )
            .validate();
    }
}
