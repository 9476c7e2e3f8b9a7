//! The cycle-accurate network engine.
//!
//! [`Network`] owns every router, pillar bus, injection queue, and delivery
//! queue of the chip and advances them one clock cycle per [`Network::tick`].
//! Each cycle runs three phases:
//!
//! 1. **Bus phase** ([`bus_phase`]) — every dTDMA pillar transfers at most
//!    one flit from a transceiver interface to the destination layer's
//!    pillar router (round-robin over active interfaces = dynamic slot
//!    allocation).
//! 2. **Router phase** ([`router_phase`]) — every active router performs
//!    switch allocation: per output port, the winning flit traverses to
//!    the next router's input VC (single-stage router: one hop per cycle
//!    on a win).
//! 3. **Injection phase** ([`injection`]) — each node's network interface
//!    streams at most one flit of its oldest pending packet into a
//!    local-input VC.
//!
//! A flit stamped `arrived == now` cannot move again in the same cycle, so
//! ordering of phases never lets a flit traverse two hops per cycle.
//! Routers with no buffered flits are skipped entirely via a dirty set,
//! buses with nothing queued via an active-pillar set (both bitmaps,
//! walked in id order), which keeps big idle meshes cheap to tick.

mod bus_phase;
mod injection;
mod router_phase;

use std::collections::VecDeque;

use nim_obs::{Category, EventData, Obs};
use nim_topology::ChipLayout;
use nim_types::{Coord, Cycle, Dir, IdSet, NetworkConfig, PacketId};

use crate::dtdma::{BusStats, DtdmaBus, Iface};
use crate::packet::{Delivered, Flit, FlitArena, SendRequest};
use crate::router::Router;
use crate::routing::{Routing, VerticalMode};
use crate::stats::NetworkStats;

/// One pending packet at a node's network interface.
#[derive(Clone, Copy, Debug)]
struct Pending {
    id: PacketId,
    req: SendRequest,
    seq: u32,
    injected: Cycle,
}

/// Per-node injection state.
#[derive(Clone, Debug, Default)]
struct Injector {
    queue: VecDeque<Pending>,
    /// VC the current packet is streaming into.
    vc: Option<usize>,
}

/// What [`Network::window_stats`] returns — all zeros. Only the frozen
/// benchmark reads it; it goes with `window_stats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowStats {
    /// Always 0.
    pub windows: u64,
    /// Always 0.
    pub cycles: u64,
    /// Always 0.
    pub spawned: u64,
    /// Always 0.
    pub inline: u64,
}

/// The on-chip network: stacked wormhole meshes joined by dTDMA pillars
/// (or by a full 3D mesh in the ablation mode).
#[derive(Clone, Debug)]
pub struct Network {
    rt: Routing,
    /// Cycles a flit dwells in a router before it may leave (Table 4:
    /// 1-cycle single-stage router; the 7-port ablation uses 2).
    router_latency: u64,
    /// Bus index at each node position, if the node is a pillar node.
    bus_of_node: Vec<Option<u16>>,
    /// Bus cycles per flit on the pillars (1 for a flit-wide bus; more
    /// when the via budget only affords a narrower vertical bus).
    bus_cycles_per_flit: u64,
    /// Per-bus earliest next grant time (serialisation of narrow buses).
    bus_ready_at: Vec<u64>,
    routers: Vec<Router>,
    buses: Vec<DtdmaBus>,
    /// Each pillar bus's per-layer transceiver interface, indexed
    /// `bus * layers + layer`.
    ifaces: Vec<Iface>,
    /// Pooled backing store for every VC and transceiver FIFO.
    arena: FlitArena,
    injectors: Vec<Injector>,
    outbox: Vec<VecDeque<Delivered>>,
    /// Nodes whose outbox holds undrained deliveries.
    delivered_nodes: IdSet,
    /// Routers with buffered flits: between phases, exactly those with
    /// `occupancy > 0`.
    dirty: IdSet,
    /// The set the router phase is walking. It trades places with
    /// `dirty` as the phase starts, so a router marked mid-phase is
    /// visited next cycle, not later in this one; empty between phases.
    visiting: IdSet,
    /// Nodes with packets pending injection.
    inj_active: IdSet,
    /// Buses with at least one queued flit (the pillar analogue of the
    /// router dirty set).
    bus_active: IdSet,
    /// Buses that received a flit this tick ([`Network::settle_touched`]
    /// folds them into the active set and peak-occupancy statistics
    /// when the tick ends).
    touched_buses: IdSet,
    now: Cycle,
    next_pkt: u64,
    flits_in_flight: u64,
    stats: NetworkStats,
    /// Flit traversals through each router (node-indexed), for
    /// utilisation maps and hotspot analysis.
    traversals: Vec<u64>,
    /// Observability sink; disabled by default (one branch per event).
    obs: Obs,
}

/// A [`Coord`] as the `[x, y, layer]` triple trace events carry.
#[inline]
fn c3(c: Coord) -> [u16; 3] {
    [u16::from(c.x), u16::from(c.y), u16::from(c.layer)]
}

impl Network {
    /// Builds the network for a chip layout.
    ///
    /// `mode` selects the vertical interconnect: [`VerticalMode::Pillars`]
    /// is the paper's hybrid NoC/bus design; [`VerticalMode::Mesh3d`] is
    /// the rejected 7-port router kept for the design-search ablation.
    pub fn new(layout: &ChipLayout, cfg: &NetworkConfig, mode: VerticalMode) -> Self {
        let vcs = cfg.vcs_per_port as usize;
        let depth = cfg.vc_depth_flits as usize;
        let n = layout.num_nodes();
        // Only pillar mode on a stacked chip has buses.
        let pillars = mode == VerticalMode::Pillars && layout.layers() > 1;
        let buses_len = if pillars {
            layout.num_pillars() as usize
        } else {
            0
        };
        let mut arena = FlitArena::default();
        let mut routers = Vec::with_capacity(n);
        let mut bus_of_node = vec![None; n];
        let mut ports = Vec::with_capacity(Dir::COUNT);
        for i in 0..n {
            let c = layout.coord_of_index(i);
            ports.clear();
            ports.push(Dir::Local);
            for d in Dir::MESH {
                if d.step(c.x, c.y, layout.width(), layout.height()).is_some() {
                    ports.push(d);
                }
            }
            match mode {
                VerticalMode::Pillars => {
                    if pillars && layout.is_pillar_node(c) {
                        ports.push(Dir::Vertical);
                    }
                }
                VerticalMode::Mesh3d => {
                    if c.layer + 1 < layout.layers() {
                        ports.push(Dir::Up);
                    }
                    if c.layer > 0 {
                        ports.push(Dir::Down);
                    }
                }
            }
            let mut router = Router::new(&mut arena, c, &ports, vcs, depth);
            // Tabulate where each output leads, so a hop is one load
            // (`Local` and `Vertical` step nowhere: they link to `i`).
            for &d in &ports {
                let (x, y) = d
                    .step(c.x, c.y, layout.width(), layout.height())
                    .expect("port exists");
                let layer = match d {
                    Dir::Up => c.layer + 1,
                    Dir::Down => c.layer - 1,
                    _ => c.layer,
                };
                router.next[d.index()] = layout.node_index(Coord::new(x, y, layer)) as u32;
            }
            routers.push(router);
        }
        let mut buses = Vec::with_capacity(buses_len);
        let mut ifaces = Vec::with_capacity(buses_len * layout.layers() as usize);
        for p in 0..buses_len as u16 {
            let pillar = nim_types::PillarId(p);
            let xy = layout.pillar_xy(pillar);
            for layer in 0..layout.layers() {
                bus_of_node[layout.node_index(Coord::new(xy.0, xy.1, layer))] = Some(p);
                ifaces.push(Iface::new(&mut arena, depth));
            }
            buses.push(DtdmaBus::new(pillar, xy));
        }
        Self {
            rt: Routing::new(layout, mode),
            router_latency: u64::from(cfg.router_latency).max(1),
            bus_of_node,
            bus_cycles_per_flit: u64::from(cfg.bus_cycles_per_flit()).max(1),
            bus_ready_at: vec![0; buses_len],
            routers,
            buses,
            ifaces,
            arena,
            injectors: vec![Injector::default(); n],
            outbox: vec![VecDeque::new(); n],
            delivered_nodes: IdSet::new(n),
            dirty: IdSet::new(n),
            visiting: IdSet::new(n),
            inj_active: IdSet::new(n),
            bus_active: IdSet::new(buses_len),
            touched_buses: IdSet::new(buses_len),
            now: Cycle::ZERO,
            next_pkt: 0,
            flits_in_flight: 0,
            stats: NetworkStats::default(),
            traversals: vec![0; n],
            obs: Obs::disabled(),
        }
    }

    // nimbench-frozen: examples/nimbench compiles against this name; ROADMAP item 1 Step A deletes it
    #[doc(hidden)]
    pub fn new_sharded(
        layout: &ChipLayout,
        cfg: &NetworkConfig,
        mode: VerticalMode,
        _shards: usize,
    ) -> Self {
        Self::new(layout, cfg, mode)
    }

    // nimbench-frozen: examples/nimbench compiles against this name; ROADMAP item 1 Step A deletes it
    #[doc(hidden)]
    pub fn advance_window(&mut self, _max_end: u64) -> u64 {
        0
    }

    // nimbench-frozen: examples/nimbench compiles against this name; ROADMAP item 1 Step A deletes it
    #[doc(hidden)]
    pub fn window_stats(&self) -> WindowStats {
        WindowStats::default()
    }

    // nimbench-frozen: examples/nimbench compiles against this name; ROADMAP item 1 Step A deletes it
    #[doc(hidden)]
    pub fn window_spawn_min(&self) -> u64 {
        0
    }

    /// Attaches an observability handle; events and per-tick cycle
    /// stamps flow into it from now on. The network drives
    /// [`Obs::set_now`], so the same handle shared by other components
    /// sees a consistent clock.
    pub fn set_obs(&mut self, obs: Obs) {
        obs.set_now(self.now.0);
        self.obs = obs;
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Whether no flits are buffered, queued, or awaiting injection.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.flits_in_flight == 0
    }

    /// Accumulated statistics.
    #[inline]
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Per-bus statistics, indexed by pillar.
    pub fn bus_stats(&self) -> Vec<BusStats> {
        let mut out = Vec::new();
        self.bus_stats_into(&mut out);
        out
    }

    /// Clears `buf` and fills it with per-bus statistics, indexed by
    /// pillar — the allocation-free variant callers on a sampling path
    /// use with a reused buffer (mirrors
    /// [`Network::drain_delivered_into`]).
    pub fn bus_stats_into(&self, buf: &mut Vec<BusStats>) {
        buf.clear();
        buf.extend(self.buses.iter().map(|b| b.stats));
    }

    /// Clears `buf` and fills it with the flits currently queued at each
    /// pillar bus's transceiver interfaces, indexed by pillar — the
    /// instantaneous occupancy the epoch sampler snapshots;
    /// see [`Network::bus_stats_into`].
    pub fn bus_occupancies_into(&self, buf: &mut Vec<usize>) {
        buf.clear();
        buf.extend((0..self.buses.len()).map(|b| self.bus_queued(b)));
    }

    /// Flit traversals through each router, indexed like
    /// [`ChipLayout::node_index`](nim_topology::ChipLayout::node_index) —
    /// the utilisation map behind congestion analysis.
    pub fn traversals(&self) -> &[u64] {
        &self.traversals
    }

    /// Queues a packet for injection at `req.src`. Returns its id.
    ///
    /// The packet's latency clock starts now; injection itself contends
    /// for the node's single flit-wide link into its router.
    ///
    /// # Panics
    ///
    /// Panics if `req.flits == 0` or an endpoint is outside the mesh.
    pub fn send(&mut self, req: SendRequest) -> PacketId {
        assert!(req.flits >= 1, "packet must have at least one flit");
        assert!(
            self.rt.layout.contains(req.src),
            "src {} outside mesh",
            req.src
        );
        assert!(
            self.rt.layout.contains(req.dst),
            "dst {} outside mesh",
            req.dst
        );
        let id = PacketId(self.next_pkt);
        self.next_pkt += 1;
        let node = self.rt.layout.node_index(req.src);
        self.injectors[node].queue.push_back(Pending {
            id,
            req,
            seq: 0,
            injected: self.now,
        });
        self.inj_active.insert(node);
        self.flits_in_flight += u64::from(req.flits);
        self.stats.packets_sent += 1;
        self.obs.emit(Category::Packet, || EventData::PacketInject {
            packet: id.0,
            src: c3(req.src),
            dst: c3(req.dst),
            class: req.class.name(),
            flits: req.flits,
        });
        id
    }

    /// Pops the oldest packet delivered at node `c`, if any.
    pub fn pop_delivered(&mut self, c: Coord) -> Option<Delivered> {
        let idx = self.rt.layout.node_index(c);
        self.outbox[idx].pop_front()
    }

    /// Drains every delivered packet, in (node, arrival) order.
    pub fn drain_delivered(&mut self) -> Vec<Delivered> {
        let mut out = Vec::new();
        self.drain_delivered_into(&mut out);
        out
    }

    /// Whether any delivered packets await pickup.
    #[inline]
    pub fn has_deliveries(&self) -> bool {
        !self.delivered_nodes.is_empty()
    }

    /// Drains all delivered packets into `buf` (in node order, then
    /// arrival order per node), touching only the nodes that actually
    /// received something.
    pub fn drain_delivered_into(&mut self, buf: &mut Vec<Delivered>) {
        let mut at = 0;
        while let Some(n) = self.delivered_nodes.take_next(at) {
            at = n + 1;
            buf.extend(self.outbox[n].drain(..));
        }
    }

    // nimbench-frozen: examples/nimbench compiles against this name; ROADMAP item 1 Step A deletes it
    #[doc(hidden)]
    pub fn next_event_at(&self) -> Option<Cycle> {
        None
    }

    /// Advances the network by one clock cycle.
    pub fn tick(&mut self) {
        self.now += 1;
        self.obs.set_now(self.now.0);
        self.bus_phase(self.now);
        self.router_phase(self.now);
        self.injection_phase(self.now);
        self.settle_touched();
        #[cfg(test)]
        self.check_invariants();
    }

    /// Ticks until the network is idle, up to `max_cycles`. Returns the
    /// number of cycles consumed, or `None` if traffic is still in flight
    /// at the limit (useful to catch livelock in tests).
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Option<u64> {
        let start = self.now;
        while !self.is_idle() {
            if self.now - start >= max_cycles {
                return None;
            }
            self.tick();
        }
        Some(self.now - start)
    }

    /// Bus `b`'s transceiver interfaces, one per layer.
    #[inline]
    fn bus_ifaces(&self, b: usize) -> &[Iface] {
        let layers = self.rt.layout.layers() as usize;
        &self.ifaces[b * layers..(b + 1) * layers]
    }

    /// Total flits queued across all of bus `b`'s interfaces.
    fn bus_queued(&self, b: usize) -> usize {
        self.bus_ifaces(b).iter().map(|i| i.q.len()).sum()
    }

    /// Marks each bus that received a flit this tick active and settles
    /// its peak-occupancy statistic. Interface totals only grow between
    /// bus-phase drains (the router phase enqueues, never dequeues), so
    /// settling once at the end of the tick observes the maximum a
    /// per-enqueue update would record.
    fn settle_touched(&mut self) {
        let mut at = 0;
        while let Some(b) = self.touched_buses.take_next(at) {
            at = b + 1;
            let queued = self.bus_queued(b) as u64;
            let stats = &mut self.buses[b].stats;
            stats.peak_queued = stats.peak_queued.max(queued);
            self.bus_active.insert(b);
        }
    }

    /// A flit left the network at node `node`'s local port; a tail
    /// completes its packet, which lands in the node's outbox.
    fn deliver(&mut self, node: usize, f: Flit, now: Cycle) {
        self.flits_in_flight -= 1;
        if f.kind.is_tail() {
            let d = Delivered {
                packet: f.pkt,
                src: f.src,
                dst: f.dst,
                class: f.class,
                token: f.token,
                injected: f.injected,
                delivered: now,
                hops: f.hops,
                bus_wait: f.bus_wait,
            };
            self.stats.record_delivery(&d);
            self.obs
                .emit(Category::Packet, || EventData::PacketDeliver {
                    packet: d.packet.0,
                    dst: c3(d.dst),
                    latency: d.latency(),
                    hops: u32::from(d.hops),
                });
            self.outbox[node].push_back(d);
            self.delivered_nodes.insert(node);
        }
    }

    /// Asserts the structural invariants the derived hot state must keep:
    /// every router's masks, counters and cached routes agree with its VC
    /// contents (`Router::check_invariants`); between phases a router is
    /// in the dirty set iff it buffers a flit, a node in the injection
    /// set iff packets pend there, a bus active iff flits queue at it,
    /// and every non-empty outbox is in the delivered set; and
    /// `flits_in_flight` counts exactly the buffered, interface-queued
    /// and not-yet-injected flits.
    ///
    /// Cost is linear in the chip; meant for tests and debug builds.
    ///
    /// # Panics
    ///
    /// Panics, naming the node or bus, on the first violation.
    pub fn check_invariants(&self) {
        let mut flits = 0u64;
        assert!(self.visiting.is_empty(), "mid-phase visiting set");
        for (n, router) in self.routers.iter().enumerate() {
            flits += router.check_invariants(&self.arena, &self.rt);
            assert_eq!(
                self.dirty.contains(n),
                router.occupancy() > 0,
                "node {n}: dirty set disagrees with occupancy"
            );
            let inj = &self.injectors[n];
            assert_eq!(
                self.inj_active.contains(n),
                !inj.queue.is_empty(),
                "node {n}: injection set disagrees with its queue"
            );
            flits += inj
                .queue
                .iter()
                .map(|p| u64::from(p.req.flits - p.seq))
                .sum::<u64>();
            assert!(
                self.outbox[n].is_empty() || self.delivered_nodes.contains(n),
                "node {n}: deliveries missing from the delivered set"
            );
        }
        for b in 0..self.buses.len() {
            let queued = self.bus_queued(b);
            assert_eq!(
                self.bus_active.contains(b),
                queued > 0,
                "bus {b}: active set disagrees with its interfaces"
            );
            flits += queued as u64;
        }
        assert_eq!(self.flits_in_flight, flits, "flits_in_flight");
    }
}

#[cfg(test)]
#[path = "../network_tests.rs"]
mod tests;
