//! The seam between protocol decisions and the simulation fabric.
//!
//! The L2 protocol engine ([`Engine`](crate::protocol::Engine)) never
//! touches [`Network`] or the timed-event queue directly: every packet
//! send, every scheduled latency, and every shared-resource claim goes
//! through the [`Fabric`] trait. What every fabric does the same way —
//! shaping a [`Token`] into a packet, queueing timed events, claiming
//! the contention-aware [`timing`](crate::timing) ports — is written
//! once over [`FabricState`]; an implementation supplies only how a
//! packet is carried:
//!
//! * [`SimFabric`] — the real thing: the cycle-accurate 3D NoC (or the
//!   analytic latency model standing in for it).
//! * [`TestFabric`] — a recording double for unit tests: packets land in
//!   an inspectable list and no network is ever constructed.
//!
//! This seam is what makes the protocol transitions unit-testable and
//! is the hook for alternative execution substrates: [`SimFabric`] can
//! swap its flit-level network for an analytic latency model
//! ([`FabricKind::Ideal`]) without the protocol code changing.

use nim_noc::{zero_load_path, Network, SendRequest};
use nim_obs::{Category, EventData, Obs};
use nim_topology::ChipLayout;
use nim_types::{ClusterId, Coord, Cycle, NetworkConfig, PacketId, PillarId};

use crate::due_queue::DueQueue;
use crate::timing::Ports;
use crate::token::{TimedEvent, Token};

// Protocol code imports the passive message types through this seam so
// `protocol.rs` never names the `nim_noc` crate directly. The
// queue/service delay split rides along for latency attribution.
pub(crate) use crate::timing::ClaimedDelay;
pub(crate) use nim_noc::Delivered;

/// The state every fabric keeps the same way: the timed-event queue,
/// the three rows of serialised ports, the bank census, the length of a
/// line-carrying packet, and the observability handle.
#[derive(Debug)]
pub(crate) struct FabricState {
    /// Timed events; same-cycle events fire in scheduling order.
    pub(crate) events: DueQueue<TimedEvent>,
    /// Per-cluster tag arrays.
    tags: Ports,
    /// Data banks, node-indexed.
    banks: Ports,
    /// Accesses performed by each bank (node-indexed): the census that
    /// drives activity-based power and thermal analysis.
    pub(crate) bank_accesses: Vec<u64>,
    /// Memory controllers' DRAM channels.
    memory: Ports,
    /// Flits in a packet that carries one cache line.
    data_flits: u32,
    obs: Obs,
}

impl FabricState {
    pub(crate) fn new([tags, banks, memory]: [Ports; 3], data_flits: u32, obs: Obs) -> Self {
        Self {
            events: DueQueue::default(),
            tags,
            bank_accesses: vec![0; banks.len()],
            banks,
            memory,
            data_flits,
            obs,
        }
    }
}

/// Everything the protocol engine may ask of the simulation substrate.
///
/// The methods are deliberately narrow: inject one packet, schedule one
/// timed event, claim one shared resource (tag array, data bank, DRAM
/// channel) and learn when it completes, and reach the observability
/// handle. Protocol handlers hold no other channel to the outside
/// world, so swapping the substrate (the test double) cannot change
/// protocol behavior. An
/// implementation says where its [`FabricState`] lives and how a packet
/// is carried; the rest is written once here.
pub(crate) trait Fabric {
    /// The shared state.
    fn shared(&self) -> &FabricState;

    /// The shared state, mutably.
    fn shared_mut(&mut self) -> &mut FabricState;

    /// Puts one shaped packet on the interconnect; its token comes back
    /// via the delivery path when the packet reaches its destination.
    fn carry(&mut self, req: SendRequest);

    /// Injects the packet `token` travels as ([`Token::shape`]).
    #[inline]
    fn send(&mut self, src: Coord, dst: Coord, token: Token, via: Option<PillarId>) {
        let (class, carries_line) = token.shape();
        let flits = if carries_line {
            self.shared().data_flits
        } else {
            1
        };
        self.carry(SendRequest {
            src,
            dst,
            via,
            class,
            flits,
            token: token.encode(),
        });
    }

    /// Schedules `ev` to fire `delay` cycles after `now`. Events due the
    /// same cycle fire in scheduling order.
    #[inline]
    fn schedule(&mut self, now: Cycle, delay: u64, ev: TimedEvent) {
        self.shared_mut()
            .events
            .push(now.0.saturating_add(delay), |_| ev);
    }

    /// Claims `cluster`'s tag array for one probe; returns the latency
    /// until the lookup completes, split into queueing and service.
    #[inline]
    fn tag_delay(&mut self, cluster: ClusterId, now: Cycle) -> ClaimedDelay {
        self.shared_mut().tags.claim(cluster.index(), now)
    }

    /// Claims the data bank at node index `node` for one access; returns
    /// the latency until it completes, split into queueing and service.
    /// `write` distinguishes stores/fills/migration absorbs from reads
    /// in the trace.
    #[inline]
    fn bank_delay(&mut self, node: usize, now: Cycle, write: bool) -> ClaimedDelay {
        let shared = self.shared_mut();
        shared.obs.emit(Category::Bank, || EventData::BankAccess {
            node: node as u32,
            write,
        });
        shared.bank_accesses[node] += 1;
        shared.banks.claim(node, now)
    }

    /// Claims memory controller `mc`'s DRAM channel; returns the
    /// latency until the DRAM access completes, split into bandwidth
    /// queueing and the DRAM access itself.
    #[inline]
    fn memory_delay(&mut self, mc: usize, now: Cycle) -> ClaimedDelay {
        self.shared_mut().memory.claim(mc, now)
    }

    /// The observability handle protocol code emits events and metrics
    /// through (disabled by default: one branch per site).
    #[inline]
    fn obs(&self) -> &Obs {
        &self.shared().obs
    }
}

/// Which interconnect substrate a run simulates. Selected at build time
/// ([`SystemBuilder::fabric`](crate::SystemBuilder::fabric)); the
/// protocol engine cannot tell them apart.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FabricKind {
    /// The cycle-accurate flit-level NoC: wormhole meshes, virtual
    /// channels, switch arbitration, dTDMA pillar buses (the default).
    #[default]
    Sim,
    /// Ideal contention-free fabric: every packet's latency comes from
    /// the validated zero-load model ([`nim_noc::zero_load_path`]), with
    /// no shared-resource state at all and no per-flit simulation. The
    /// upper bound a real interconnect is measured against.
    Ideal,
}

nim_types::codec_enum!(FabricKind, "bad fabric tag" { 0 => Sim, 1 => Ideal });

impl FabricKind {
    /// Every kind, in CLI listing order.
    pub const ALL: [FabricKind; 2] = [FabricKind::Sim, FabricKind::Ideal];

    /// The CLI-facing name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            FabricKind::Sim => "sim",
            FabricKind::Ideal => "ideal",
        }
    }

    /// Parses a CLI-facing name; the unknown input comes back as `Err`.
    ///
    /// # Errors
    ///
    /// Returns the input string if it names no fabric kind.
    pub fn parse(s: &str) -> Result<Self, &str> {
        Self::ALL.into_iter().find(|k| k.name() == s).ok_or(s)
    }
}

/// The analytic timing engine behind [`FabricKind::Ideal`]: zero-load
/// path costs from the layout, no contention state at all.
#[derive(Debug)]
pub(crate) struct LatencyModel {
    layout: ChipLayout,
    /// Cycles a flit dwells in one router.
    hop_latency: u64,
    bus_k: u64,
}

impl LatencyModel {
    /// The model behind `kind`; `None` for the flit-level network.
    pub(crate) fn new(kind: FabricKind, layout: &ChipLayout, net: &NetworkConfig) -> Option<Self> {
        match kind {
            FabricKind::Sim => None,
            FabricKind::Ideal => Some(Self {
                layout: layout.clone(),
                hop_latency: u64::from(net.router_latency),
                bus_k: u64::from(net.bus_cycles_per_flit()),
            }),
        }
    }
}

/// The real fabric: the 3D NoC beside the shared [`FabricState`], owned
/// together so the run loop in [`System`](crate::System) can tick the
/// network while protocol code stays behind the [`Fabric`] trait.
///
/// With a [`LatencyModel`] attached, sends bypass the flit-level
/// network entirely: each packet's delivery is computed analytically at
/// injection and queued on the modeled-delivery queue, which the run
/// loop drains alongside network deliveries. The network object remains
/// the clock owner but never carries traffic, so its statistics stay
/// zero under the modeled fabric.
#[derive(Debug)]
pub(crate) struct SimFabric {
    /// The cycle-accurate 3D mesh + dTDMA pillar network.
    pub(crate) net: Network,
    /// `Some` for the modeled fabric; `None` runs the flit-level network.
    model: Option<LatencyModel>,
    /// Deliveries synthesized by the model (always empty under
    /// [`FabricKind::Sim`]); same-cycle deliveries pop in send order.
    pub(crate) modeled: DueQueue<Delivered>,
    /// Event queue, ports and census.
    pub(crate) shared: FabricState,
}

impl SimFabric {
    pub(crate) fn new(net: Network, model: Option<LatencyModel>, shared: FabricState) -> Self {
        Self {
            net,
            model,
            modeled: DueQueue::default(),
            shared,
        }
    }

    /// Computes one packet's delivery analytically and queues it.
    fn carry_modeled(&mut self, req: SendRequest) {
        let SendRequest {
            src,
            dst,
            via,
            class,
            flits,
            token,
        } = req;
        let model = self.model.as_ref().expect("modeled send requires a model");
        let now = self.net.now();
        let path = zero_load_path(
            &model.layout,
            src,
            dst,
            via,
            flits,
            model.hop_latency,
            model.bus_k,
        );
        let due = now.0.saturating_add(path.latency);
        self.modeled.push(due, |seq| Delivered {
            packet: PacketId(seq),
            src,
            dst,
            class,
            token,
            injected: now,
            delivered: Cycle(due),
            hops: path.hops,
            bus_wait: path.bus_wait,
        });
    }
}

impl Fabric for SimFabric {
    fn shared(&self) -> &FabricState {
        &self.shared
    }

    fn shared_mut(&mut self) -> &mut FabricState {
        &mut self.shared
    }

    #[inline]
    fn carry(&mut self, req: SendRequest) {
        if self.model.is_some() {
            self.carry_modeled(req);
        } else {
            self.net.send(req);
        }
    }
}

/// A recording test double: protocol transitions run against the real
/// [`FabricState`], but packets land in [`TestFabric::sent`] instead of
/// a network. Tests pump the sent list and the event queue by hand (or
/// via the helpers in the protocol unit tests) to walk a transaction
/// through its whole lifecycle without a NoC.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct TestFabric {
    /// Every packet sent, in order.
    pub(crate) sent: Vec<SendRequest>,
    /// Event queue, ports and census, as the real fabric keeps them.
    pub(crate) shared: FabricState,
}

#[cfg(test)]
impl TestFabric {
    pub(crate) fn new(clusters: usize, nodes: usize, controllers: usize) -> Self {
        // The paper's Table 4 latencies, so unit-test delays line up
        // with what the real system charges.
        let cfg = nim_types::SystemConfig::default();
        let ports = Ports::of_chip(&cfg, clusters, nodes, controllers.max(1));
        Self {
            sent: Vec::new(),
            shared: FabricState::new(ports, cfg.network.data_packet_flits, Obs::disabled()),
        }
    }

    /// Pops the earliest scheduled event, if any.
    pub(crate) fn pop_event(&mut self) -> Option<(u64, TimedEvent)> {
        let due = self.shared.events.next_due()?;
        self.shared.events.pop_due(due).map(|ev| (due, ev))
    }

    /// Drains and returns everything sent so far.
    pub(crate) fn take_sent(&mut self) -> Vec<SendRequest> {
        std::mem::take(&mut self.sent)
    }
}

#[cfg(test)]
impl Fabric for TestFabric {
    fn shared(&self) -> &FabricState {
        &self.shared
    }

    fn shared_mut(&mut self) -> &mut FabricState {
        &mut self.shared
    }

    fn carry(&mut self, req: SendRequest) {
        self.sent.push(req);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nim_types::LineAddr;

    #[test]
    fn same_cycle_items_pop_in_push_order() {
        let mut q = DueQueue::default();
        for (due, name) in [(5, 'a'), (3, 'b'), (5, 'c'), (3, 'd'), (4, 'e')] {
            q.push(due, |_| name);
        }
        assert_eq!(q.next_due(), Some(3));
        assert_eq!(q.pop_due(2), None, "nothing is due yet");
        assert_eq!(q.pop_due(3), Some('b'));
        assert_eq!(q.pop_due(3), Some('d'));
        assert_eq!(q.pop_due(3), None);
        assert_eq!(q.next_due(), Some(4));
        let rest: Vec<_> = std::iter::from_fn(|| q.pop_due(9)).collect();
        assert_eq!(rest, ['e', 'a', 'c']);
        assert!(q.is_empty());
    }

    #[test]
    fn a_saturated_delay_parks_the_event_at_the_end_of_time() {
        // What a port busy until the end of time may claim: a delay of
        // any `u64`.
        let mut f = TestFabric::new(16, 256, 1);
        f.schedule(
            Cycle(9),
            u64::MAX,
            TimedEvent::MemoryFetched { line: LineAddr(3) },
        );
        assert_eq!(f.shared.events.next_due(), Some(u64::MAX));
    }
}
