//! The seam between protocol decisions and the simulation fabric.
//!
//! The L2 protocol engine ([`Engine`](crate::protocol::Engine)) never
//! touches [`Network`] or the timed-event heap directly: every packet
//! send, every scheduled latency, and every shared-resource claim goes
//! through the [`Fabric`] trait. Two implementations exist:
//!
//! * [`SimFabric`] — the real thing: the cycle-accurate 3D NoC, the
//!   timed-event heap, the contention-aware [`timing`](crate::timing)
//!   models, and the observability handle.
//! * [`TestFabric`] — a recording double for unit tests: sends and
//!   scheduled events land in inspectable queues, resource claims use
//!   the same timing models, and no network is ever constructed.
//!
//! This seam is what makes the protocol transitions unit-testable and
//! is the hook for alternative execution substrates: [`SimFabric`] can
//! swap its flit-level network for an analytic latency model
//! ([`FabricKind::LatencyTable`] / [`FabricKind::Ideal`]) without the
//! protocol code changing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use nim_noc::{zero_load_path, Network, SendRequest};
use nim_obs::{Category, EventData, Obs};
use nim_topology::{MeshTopology, Topology};
use nim_types::codec::{ByteReader, ByteWriter, Checkpoint, Codec, CodecError};
use nim_types::{ClusterId, Coord, Cycle, NetworkConfig, PacketId, PillarId};

use crate::timing::{Banks, MemoryChannels, TagArrays};
use crate::token::{TimedEvent, Token};

// Protocol code imports the passive message types through this seam so
// `protocol.rs` never names the `nim_noc` crate directly. The
// queue/service delay split rides along for latency attribution.
pub(crate) use crate::timing::ClaimedDelay;
pub(crate) use nim_noc::{Delivered, TrafficClass};

/// Everything the protocol engine may ask of the simulation substrate.
///
/// The methods are deliberately narrow: inject one packet, schedule one
/// timed event, claim one shared resource (tag array, data bank, DRAM
/// channel) and learn when it completes, and reach the observability
/// handle. Protocol handlers hold no other channel to the outside
/// world, so swapping the substrate (test double today, sharded
/// execution tomorrow) cannot change protocol behavior.
pub(crate) trait Fabric {
    /// Injects one packet into the interconnect; `token` comes back via
    /// the delivery path when the packet reaches `dst`.
    fn send(
        &mut self,
        src: Coord,
        dst: Coord,
        class: TrafficClass,
        flits: u32,
        token: Token,
        via: Option<PillarId>,
    );

    /// Schedules `ev` to fire `delay` cycles after `now`. Events due the
    /// same cycle fire in scheduling order.
    fn schedule(&mut self, now: Cycle, delay: u64, ev: TimedEvent);

    /// Claims `cluster`'s tag array for one probe; returns the latency
    /// until the lookup completes, split into queueing and service.
    fn tag_delay(&mut self, cluster: ClusterId, now: Cycle) -> ClaimedDelay;

    /// Claims the data bank at node index `node` for one access; returns
    /// the latency until it completes, split into queueing and service.
    /// `write` distinguishes stores/fills/migration absorbs from reads
    /// in the trace.
    fn bank_delay(&mut self, node: usize, now: Cycle, write: bool) -> ClaimedDelay;

    /// Claims memory controller `mc`'s DRAM channel; returns the
    /// latency until the DRAM access completes, split into bandwidth
    /// queueing and the DRAM access itself.
    fn memory_delay(&mut self, mc: usize, now: Cycle) -> ClaimedDelay;

    /// The observability handle protocol code emits events and metrics
    /// through (disabled by default: one branch per site).
    fn obs(&self) -> &Obs;
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
    /// Analytic latency-table fabric: every packet's latency comes from
    /// the validated zero-load model ([`nim_noc::zero_load_path`]) with
    /// hop costs precomputed per topology, plus a per-pillar ready-at
    /// table that serialises dTDMA grants — no per-flit simulation.
    /// Mesh-link contention is not modeled.
    LatencyTable,
    /// Ideal contention-free fabric: pure zero-load latency for every
    /// packet, with no shared-resource state at all. The upper bound a
    /// real interconnect is measured against.
    Ideal,
}

nim_types::codec_enum!(FabricKind, "bad fabric tag" { 0 => Sim, 1 => LatencyTable, 2 => Ideal });

impl FabricKind {
    /// Every kind, in CLI listing order.
    pub const ALL: [FabricKind; 3] = [FabricKind::Sim, FabricKind::LatencyTable, FabricKind::Ideal];

    /// The CLI-facing name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            FabricKind::Sim => "sim",
            FabricKind::LatencyTable => "latency-table",
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

impl std::fmt::Display for FabricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The analytic timing engine behind [`FabricKind::LatencyTable`] and
/// [`FabricKind::Ideal`]: zero-load path costs from the topology, plus
/// (latency-table only) a per-pillar ready-at table that replays the
/// dTDMA bus's serialisation — the dominant shared resource in the
/// paper's design — without simulating flits.
#[derive(Debug)]
pub(crate) struct LatencyModel {
    topo: MeshTopology,
    router_latency: u64,
    bus_k: u64,
    /// Earliest cycle each pillar's bus can issue its next grant. Empty
    /// in the ideal fabric, which models no contention at all.
    ready_at: Vec<u64>,
}

impl LatencyModel {
    /// A latency-table model (pillar serialisation on) for `topo`.
    pub(crate) fn latency_table(topo: MeshTopology, net: &NetworkConfig) -> Self {
        let pillars = topo.num_pillars() as usize;
        Self::build(topo, net, vec![0; pillars])
    }

    /// An ideal contention-free model for `topo`.
    pub(crate) fn ideal(topo: MeshTopology, net: &NetworkConfig) -> Self {
        Self::build(topo, net, Vec::new())
    }

    fn build(topo: MeshTopology, net: &NetworkConfig, ready_at: Vec<u64>) -> Self {
        Self {
            topo,
            router_latency: u64::from(net.router_latency),
            bus_k: u64::from(net.bus_cycles_per_flit()),
            ready_at,
        }
    }
}

/// A delivery synthesized by the [`LatencyModel`], ordered by
/// `(due, seq)` so same-cycle deliveries pop in send order — the same
/// tie-break the timed-event heap uses.
#[derive(Debug)]
struct Modeled {
    due: u64,
    seq: u64,
    delivery: Delivered,
}

nim_types::codec_struct!(Modeled { due, seq, delivery });

impl PartialEq for Modeled {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl Eq for Modeled {}
impl PartialOrd for Modeled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Modeled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// The real fabric: the 3D NoC, the timed-event heap, and the shared
/// resource timing models, owned together so the run loop in
/// [`System`](crate::System) can drive phases and fast-forward while
/// protocol code stays behind the [`Fabric`] trait.
///
/// With a [`LatencyModel`] attached, sends bypass the flit-level
/// network entirely: each packet's delivery is computed analytically at
/// injection and queued on the modeled-delivery heap, which the run
/// loop drains alongside network deliveries. The network object remains
/// the clock owner but never carries traffic, so its statistics stay
/// zero under modeled fabrics.
#[derive(Debug)]
pub(crate) struct SimFabric {
    /// The cycle-accurate 3D mesh + dTDMA pillar network.
    pub(crate) net: Network,
    /// Timed events, keyed by `(due_cycle, sequence)` so same-cycle
    /// events fire in scheduling order.
    pub(crate) events: BinaryHeap<Reverse<(u64, u64, TimedEvent)>>,
    next_seq: u64,
    /// `Some` for modeled fabrics; `None` runs the flit-level network.
    model: Option<LatencyModel>,
    /// Deliveries synthesized by the model, due at `Modeled::due`.
    modeled: BinaryHeap<Reverse<Modeled>>,
    modeled_seq: u64,
    tags: TagArrays,
    banks: Banks,
    memory: MemoryChannels,
    obs: Obs,
}

impl SimFabric {
    pub(crate) fn new(
        net: Network,
        model: Option<LatencyModel>,
        tags: TagArrays,
        banks: Banks,
        memory: MemoryChannels,
        obs: Obs,
    ) -> Self {
        Self {
            net,
            events: BinaryHeap::new(),
            next_seq: 0,
            model,
            modeled: BinaryHeap::new(),
            modeled_seq: 0,
            tags,
            banks,
            memory,
            obs,
        }
    }

    /// Accesses each bank performed so far (node-indexed), for
    /// activity-driven power and thermal analysis.
    pub(crate) fn bank_access_counts(&self) -> &[u64] {
        self.banks.access_counts()
    }

    /// Whether any modeled delivery is still queued (always `false`
    /// under [`FabricKind::Sim`]).
    pub(crate) fn has_modeled(&self) -> bool {
        !self.modeled.is_empty()
    }

    /// The due cycle of the earliest queued modeled delivery.
    pub(crate) fn next_modeled_at(&self) -> Option<u64> {
        self.modeled.peek().map(|Reverse(m)| m.due)
    }

    /// Pops the earliest modeled delivery if it is due at or before
    /// `now`.
    pub(crate) fn pop_modeled(&mut self, now: u64) -> Option<Delivered> {
        if self.modeled.peek().is_some_and(|Reverse(m)| m.due <= now) {
            self.modeled.pop().map(|Reverse(m)| m.delivery)
        } else {
            None
        }
    }

    /// Computes one packet's delivery analytically and queues it.
    fn send_modeled(
        &mut self,
        src: Coord,
        dst: Coord,
        class: TrafficClass,
        flits: u32,
        token: Token,
        via: Option<PillarId>,
    ) {
        let model = self.model.as_mut().expect("modeled send requires a model");
        let now = self.net.now();
        let path = zero_load_path(
            &model.topo,
            src,
            dst,
            via,
            flits,
            model.router_latency,
            model.bus_k,
        );
        let mut latency = path.latency;
        let mut bus_wait = path.bus_wait;
        if let Some(p) = path.pillar {
            if let Some(slot) = model.ready_at.get_mut(p.0 as usize) {
                // The head flit reaches the pillar's transceiver
                // `bus_enqueue` cycles after the send and becomes
                // grant-eligible one cycle later; an earlier packet's
                // serialisation window pushes the grant (and the whole
                // delivery) back by `delta`, which the tail flit
                // experiences as extra bus wait.
                let uncontended = now.0 + path.bus_enqueue + 1;
                let grant = uncontended.max(*slot);
                let delta = grant - uncontended;
                latency += delta;
                bus_wait = bus_wait.saturating_add(u32::try_from(delta).unwrap_or(u32::MAX));
                *slot = grant + u64::from(flits) * model.bus_k;
            }
        }
        self.modeled_seq += 1;
        let due = now.0 + latency;
        self.modeled.push(Reverse(Modeled {
            due,
            seq: self.modeled_seq,
            delivery: Delivered {
                packet: PacketId(self.modeled_seq),
                src,
                dst,
                class,
                token: token.encode(),
                injected: now,
                delivered: Cycle(due),
                hops: path.hops,
                bus_wait,
            },
        }));
    }
}

/// A min-heap's image is its elements in ascending order: heaps iterate
/// in arbitrary order, and the `(due, seq)` keys are unique.
fn put_heap<T: Codec + Ord>(heap: &BinaryHeap<Reverse<T>>, w: &mut ByteWriter) {
    let mut items: Vec<&T> = heap.iter().map(|Reverse(t)| t).collect();
    items.sort_unstable();
    w.len_prefix(items.len());
    for item in items {
        item.put(w);
    }
}

fn get_heap<T: Codec + Ord>(r: &mut ByteReader<'_>) -> Result<BinaryHeap<Reverse<T>>, CodecError> {
    Ok(Vec::get(r)?.into_iter().map(Reverse).collect())
}

impl Checkpoint for SimFabric {
    fn save(&self, w: &mut ByteWriter) {
        self.net.save(w);
        put_heap(&self.events, w);
        self.next_seq.put(w);
        // Of the model only the pillar ready-at table is live state.
        w.bool(self.model.is_some());
        if let Some(m) = &self.model {
            m.ready_at.put(w);
        }
        put_heap(&self.modeled, w);
        self.modeled_seq.put(w);
        self.tags.save(w);
        self.banks.save(w);
        self.memory.save(w);
    }

    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.net.restore(r)?;
        self.events = get_heap(r)?;
        self.next_seq = Codec::get(r)?;
        match (Option::<Vec<u64>>::get(r)?, &mut self.model) {
            (None, None) => {}
            (Some(ready), Some(m)) if ready.len() == m.ready_at.len() => m.ready_at = ready,
            _ => return Err(CodecError::Corrupt("fabric model mismatch")),
        }
        self.modeled = get_heap(r)?;
        self.modeled_seq = Codec::get(r)?;
        self.tags.restore(r)?;
        self.banks.restore(r)?;
        self.memory.restore(r)
    }
}

impl Fabric for SimFabric {
    fn send(
        &mut self,
        src: Coord,
        dst: Coord,
        class: TrafficClass,
        flits: u32,
        token: Token,
        via: Option<PillarId>,
    ) {
        if self.model.is_some() {
            self.send_modeled(src, dst, class, flits, token, via);
            return;
        }
        self.net.send(SendRequest {
            src,
            dst,
            via,
            class,
            flits,
            token: token.encode(),
        });
    }

    fn schedule(&mut self, now: Cycle, delay: u64, ev: TimedEvent) {
        self.next_seq += 1;
        self.events
            .push(Reverse((now.0 + delay, self.next_seq, ev)));
    }

    fn tag_delay(&mut self, cluster: ClusterId, now: Cycle) -> ClaimedDelay {
        self.tags.claim(cluster, now)
    }

    fn bank_delay(&mut self, node: usize, now: Cycle, write: bool) -> ClaimedDelay {
        self.obs.emit(Category::Bank, || EventData::BankAccess {
            node: node as u32,
            write,
        });
        self.banks.claim(node, now)
    }

    fn memory_delay(&mut self, mc: usize, now: Cycle) -> ClaimedDelay {
        self.memory.claim(mc, now)
    }

    fn obs(&self) -> &Obs {
        &self.obs
    }
}

/// A recording test double: protocol transitions run against real
/// timing models, but packets land in [`TestFabric::sent`] and timed
/// events in [`TestFabric::events`] instead of a network. Tests pump
/// both queues by hand (or via the helpers in the protocol unit tests)
/// to walk a transaction through its whole lifecycle without a NoC.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct TestFabric {
    /// Every packet sent, in order.
    pub(crate) sent: Vec<SendRequest>,
    /// Scheduled events, keyed like the real heap.
    pub(crate) events: BinaryHeap<Reverse<(u64, u64, TimedEvent)>>,
    next_seq: u64,
    tags: TagArrays,
    banks: Banks,
    memory: MemoryChannels,
    obs: Obs,
}

#[cfg(test)]
impl TestFabric {
    pub(crate) fn new(clusters: usize, nodes: usize, controllers: usize) -> Self {
        // The paper's Table 4 latencies, so unit-test delays line up
        // with what the real system charges.
        let cfg = nim_types::SystemConfig::default();
        Self {
            sent: Vec::new(),
            events: BinaryHeap::new(),
            next_seq: 0,
            tags: TagArrays::new(clusters, u64::from(cfg.l2.tag_latency)),
            banks: Banks::new(nodes, u64::from(cfg.l2.bank_latency)),
            memory: MemoryChannels::new(
                controllers.max(1),
                u64::from(cfg.memory_interval),
                u64::from(cfg.memory_latency),
            ),
            obs: Obs::disabled(),
        }
    }

    /// Pops the earliest scheduled event, if any.
    pub(crate) fn pop_event(&mut self) -> Option<(u64, TimedEvent)> {
        self.events.pop().map(|Reverse((due, _, ev))| (due, ev))
    }

    /// Drains and returns everything sent so far.
    pub(crate) fn take_sent(&mut self) -> Vec<SendRequest> {
        std::mem::take(&mut self.sent)
    }
}

#[cfg(test)]
impl Fabric for TestFabric {
    fn send(
        &mut self,
        src: Coord,
        dst: Coord,
        class: TrafficClass,
        flits: u32,
        token: Token,
        via: Option<PillarId>,
    ) {
        self.sent.push(SendRequest {
            src,
            dst,
            via,
            class,
            flits,
            token: token.encode(),
        });
    }

    fn schedule(&mut self, now: Cycle, delay: u64, ev: TimedEvent) {
        self.next_seq += 1;
        self.events
            .push(Reverse((now.0 + delay, self.next_seq, ev)));
    }

    fn tag_delay(&mut self, cluster: ClusterId, now: Cycle) -> ClaimedDelay {
        self.tags.claim(cluster, now)
    }

    fn bank_delay(&mut self, node: usize, now: Cycle, _write: bool) -> ClaimedDelay {
        self.banks.claim(node, now)
    }

    fn memory_delay(&mut self, mc: usize, now: Cycle) -> ClaimedDelay {
        self.memory.claim(mc, now)
    }

    fn obs(&self) -> &Obs {
        &self.obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nim_types::codec::assert_laws;

    fn modeled(due: u64, seq: u64) -> Modeled {
        Modeled {
            due,
            seq,
            delivery: Delivered {
                packet: PacketId(seq),
                src: Coord::new(1, 2, 0),
                dst: Coord::new(3, 0, 1),
                class: TrafficClass::Data,
                token: due ^ seq,
                injected: Cycle(due / 2),
                delivered: Cycle(due),
                hops: 5,
                bus_wait: 2,
            },
        }
    }

    #[test]
    fn modeled_deliveries_obey_the_codec_laws() {
        for (due, seq) in [(0, 0), (9, 1), (u64::MAX, u64::MAX)] {
            let back = assert_laws(&modeled(due, seq));
            assert_eq!((back.due, back.seq), (due, seq));
            assert_eq!(back.delivery, modeled(due, seq).delivery);
        }
    }

    #[test]
    fn heap_images_are_ascending_whatever_the_push_order() {
        let keys = [(7, 3), (2, 9), (7, 1), (0, 4), (2, 2)];
        let image = |order: &[usize]| {
            let heap: BinaryHeap<_> = order
                .iter()
                .map(|&i| Reverse(modeled(keys[i].0, keys[i].1)))
                .collect();
            let mut w = ByteWriter::new();
            put_heap(&heap, &mut w);
            w.into_bytes()
        };
        let bytes = image(&[0, 1, 2, 3, 4]);
        assert_eq!(bytes, image(&[4, 2, 0, 3, 1]));
        let mut heap: BinaryHeap<Reverse<Modeled>> =
            get_heap(&mut ByteReader::new(&bytes)).unwrap();
        let mut popped = Vec::new();
        while let Some(Reverse(m)) = heap.pop() {
            popped.push((m.due, m.seq));
        }
        assert_eq!(popped, [(0, 4), (2, 2), (2, 9), (7, 1), (7, 3)]);
    }
}
