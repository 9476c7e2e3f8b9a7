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
//!
//! Beyond per-cycle ticking, [`Network::next_event_at`] reports the
//! earliest future cycle at which any phase could change state, and
//! [`Network::advance_to`] batch-advances the clock across the provably
//! dead span before it — the hook `System::run` uses to skip serialisation
//! stalls and event waits even with traffic in flight.
//!
//! All mutable per-node state — routers, VC flit storage, injection
//! queues, dirty lists, and the transceiver interfaces of the pillar
//! nodes it owns — is grouped into one [`ShardState`] per *shard*: a
//! contiguous run of cluster rows ([`nim_topology::ShardPlan`]), which
//! may be whole device layers or horizontal bands within one. The
//! sequential tick runs all shards through a single whole-chip
//! [`lane::Lane`] (cross-shard mesh hops move a flit between two shard
//! arenas, which the lane handles natively); the window executor gives
//! each shard its own single-shard lane, where a cross-shard hop is
//! impossible by construction — the conservative mesh-boundary
//! lookahead in [`window`] ends every window before one could occur.
//! The default single shard makes the whole chip one region and behaves
//! exactly like the pre-sharding engine.

mod bus_phase;
mod injection;
mod lane;
mod router_phase;
mod snapshot;
mod window;

use std::collections::VecDeque;

use nim_obs::{Category, EventData, Obs};
use nim_topology::{ChipLayout, ShardPlan};
use nim_types::{Coord, Cycle, Dir, IdSet, NetworkConfig, PacketId};

use crate::dtdma::{BusStats, DtdmaBus, Iface};
use crate::packet::{Delivered, FlitArena, SendRequest};
use crate::router::Router;
use crate::routing::{Routing, VerticalMode};
use crate::stats::NetworkStats;

use lane::DeferredHop;
pub use window::WindowStats;

/// One pending packet at a node's network interface.
#[derive(Clone, Copy, Debug)]
struct Pending {
    id: PacketId,
    req: SendRequest,
    seq: u32,
    injected: Cycle,
}

nim_types::codec_struct!(Pending {
    id,
    req,
    seq,
    injected
});

/// Per-node injection state.
#[derive(Clone, Debug, Default)]
struct Injector {
    queue: VecDeque<Pending>,
    /// VC the current packet is streaming into.
    vc: Option<usize>,
}

/// The mutable state owned by one shard: a contiguous run of cluster
/// rows whose router and injection phases can advance between windows
/// without touching any other shard.
///
/// The flit arena and work sets are per-shard so a shard's phases never
/// share a cache line (or a `&mut`) with another shard's; the node sets
/// hold offsets from the shard's first node. The dTDMA transceiver
/// interfaces of the pillar nodes the shard owns live here too — a
/// vertical move fills the sender's own interface; only the
/// (sequential) bus phase drains interfaces across shards.
#[derive(Clone, Debug, Default)]
pub(super) struct ShardState {
    /// Pooled backing store for every VC and transceiver FIFO of the
    /// shard's nodes.
    arena: FlitArena,
    /// Transceiver interfaces of the shard's pillar nodes; slot indices
    /// live in the network-global [`Network`]`::iface_slots` table.
    ifaces: Vec<Iface>,
    /// Routers with buffered flits: between phases, exactly those with
    /// `occupancy > 0`.
    dirty: IdSet,
    /// The set the router phase is walking. It trades places with
    /// `dirty` as the phase starts, so a router marked mid-phase is
    /// visited next cycle, not later in this one; empty between phases.
    visiting: IdSet,
    /// Nodes with packets pending injection.
    inj_active: IdSet,
    /// Buses that received a flit since the last settle
    /// ([`Network::settle_touched`] folds them into the active set and
    /// peak-occupancy statistics at the next barrier).
    touched_buses: IdSet,
}

/// What is fixed once the network is built — the read-only half of a
/// [`lane::Lane`]'s working set.
#[derive(Clone, Debug)]
pub(super) struct Geometry {
    rt: Routing,
    /// Cycles a flit dwells in a router before it may leave (Table 4:
    /// 1-cycle single-stage router; the 7-port ablation uses 2).
    router_latency: u64,
    /// Bus index at each node position, if the node is a pillar node.
    bus_of_node: Vec<Option<u16>>,
    /// Nodes per shard: cluster-row cuts keep a shard's nodes
    /// contiguous under layer-major indexing, so shard `s` owns nodes
    /// `s * nodes_per_shard ..`.
    nodes_per_shard: usize,
    /// The shard owning each node — `node / nodes_per_shard`, tabulated
    /// so the per-flit paths never divide.
    shard_of: Vec<u16>,
    /// Where each pillar bus's per-layer transceiver interface lives,
    /// indexed `bus * layers + layer`.
    iface_slots: Vec<IfaceSlot>,
}

/// The on-chip network: stacked wormhole meshes joined by dTDMA pillars
/// (or by a full 3D mesh in the ablation mode).
#[derive(Clone, Debug)]
pub struct Network {
    geo: Geometry,
    /// Bus cycles per flit on the pillars (1 for a flit-wide bus; more
    /// when the via budget only affords a narrower vertical bus).
    bus_cycles_per_flit: u64,
    /// Per-bus earliest next grant time (serialisation of narrow buses).
    bus_ready_at: Vec<u64>,
    routers: Vec<Router>,
    buses: Vec<DtdmaBus>,
    injectors: Vec<Injector>,
    outbox: Vec<VecDeque<Delivered>>,
    /// Nodes whose outbox holds undrained deliveries.
    delivered_nodes: IdSet,
    /// Buses with at least one queued flit (the pillar analogue of the
    /// router dirty set).
    bus_active: IdSet,
    /// Per-shard mutable state; one entry when unsharded.
    shards: Vec<ShardState>,
    /// How the chip is cut: cluster-row shard geometry plus the
    /// y-band/boundary tables the window planner's mesh-boundary
    /// lookahead reads.
    plan: ShardPlan,
    /// Worker threads the window executor may use (≤ shard count).
    window_workers: usize,
    /// Minimum window length (cycles) before threads are spawned;
    /// shorter windows run inline, bit-identically.
    window_spawn_min: u64,
    /// Window-executor activity counters — diagnostics only, kept out
    /// of [`NetworkStats`] so results stay bit-identical across shard
    /// counts.
    win_stats: WindowStats,
    /// Per-shard deferred-hop buffers and the merge scratch, reused
    /// across windows.
    hop_bufs: Vec<Vec<DeferredHop>>,
    hop_scratch: Vec<DeferredHop>,
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

/// Where a pillar bus's transceiver interface for one layer lives:
/// the shard owning that layer's pillar node, and the interface's slot
/// in the shard's `ifaces` list.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct IfaceSlot {
    pub shard: u32,
    pub slot: u32,
}

impl Network {
    /// Builds the network for a chip layout as a single shard — the
    /// plain sequential engine.
    ///
    /// `mode` selects the vertical interconnect: [`VerticalMode::Pillars`]
    /// is the paper's hybrid NoC/bus design; [`VerticalMode::Mesh3d`] is
    /// the rejected 7-port router kept for the design-search ablation.
    pub fn new(layout: &ChipLayout, cfg: &NetworkConfig, mode: VerticalMode) -> Self {
        Self::new_sharded(layout, cfg, mode, 1)
    }

    /// Builds the network cut into `shards` independently-advancing
    /// cluster-row bands, run concurrently between coupling events by
    /// [`Network::advance_window`].
    ///
    /// The request is clamped to the largest divisor of the chip's
    /// cluster-row count (`layers × cluster-grid height`; 1 for
    /// single-layer chips or the 3D-mesh ablation), so any value is
    /// safe; results are bit-identical for every shard count.
    pub fn new_sharded(
        layout: &ChipLayout,
        cfg: &NetworkConfig,
        mode: VerticalMode,
        shards: usize,
    ) -> Self {
        let vcs = cfg.vcs_per_port as usize;
        let depth = cfg.vc_depth_flits as usize;
        let n = layout.num_nodes();
        // Only pillar mode has buses, and only it keeps all router-phase
        // traffic within a layer band; the 3D-mesh ablation's `Up`/`Down`
        // hops cross layers freely, so it cannot be cut.
        let pillars = mode == VerticalMode::Pillars && layout.layers() > 1;
        let plan = ShardPlan::new(layout, if pillars { shards } else { 1 });
        let num_shards = plan.shards();
        let nodes_per_shard = plan.nodes_per_shard();
        let buses_len = if pillars {
            layout.num_pillars() as usize
        } else {
            0
        };
        let mut shard_states: Vec<ShardState> = (0..num_shards)
            .map(|_| ShardState {
                dirty: IdSet::new(nodes_per_shard),
                visiting: IdSet::new(nodes_per_shard),
                inj_active: IdSet::new(nodes_per_shard),
                touched_buses: IdSet::new(buses_len),
                ..ShardState::default()
            })
            .collect();
        let shard_of: Vec<u16> = (0..n).map(|i| plan.shard_of_node(i) as u16).collect();
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
            let arena = &mut shard_states[usize::from(shard_of[i])].arena;
            let mut router = Router::new(arena, c, &ports, vcs, depth);
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
        // Each (bus, layer) interface belongs to the shard owning that
        // layer's pillar node; the slot table records where.
        let mut buses = Vec::with_capacity(buses_len);
        let mut iface_slots = Vec::with_capacity(buses_len * layout.layers() as usize);
        for p in 0..buses_len as u16 {
            let pillar = nim_types::PillarId(p);
            let xy = layout.pillar_xy(pillar);
            for layer in 0..layout.layers() {
                let idx = layout.node_index(Coord::new(xy.0, xy.1, layer));
                bus_of_node[idx] = Some(p);
                let st = &mut shard_states[usize::from(shard_of[idx])];
                iface_slots.push(IfaceSlot {
                    shard: u32::from(shard_of[idx]),
                    slot: st.ifaces.len() as u32,
                });
                let iface = Iface::new(&mut st.arena, depth);
                st.ifaces.push(iface);
            }
            buses.push(DtdmaBus::new(pillar, xy));
        }
        let window_workers = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(num_shards);
        Self {
            geo: Geometry {
                rt: Routing::new(layout, mode),
                router_latency: u64::from(cfg.router_latency).max(1),
                bus_of_node,
                nodes_per_shard,
                shard_of,
                iface_slots,
            },
            bus_cycles_per_flit: u64::from(cfg.bus_cycles_per_flit()).max(1),
            bus_ready_at: vec![0; buses_len],
            bus_active: IdSet::new(buses_len),
            routers,
            buses,
            injectors: vec![Injector::default(); n],
            outbox: vec![VecDeque::new(); n],
            delivered_nodes: IdSet::new(n),
            shards: shard_states,
            plan,
            window_workers,
            window_spawn_min: window::DEFAULT_SPAWN_MIN,
            win_stats: WindowStats::default(),
            hop_bufs: vec![Vec::new(); num_shards],
            hop_scratch: Vec::new(),
            now: Cycle::ZERO,
            next_pkt: 0,
            flits_in_flight: 0,
            stats: NetworkStats::default(),
            traversals: vec![0; n],
            obs: Obs::disabled(),
        }
    }

    /// How many independently-advancing shards the chip was cut into
    /// (1 = the plain sequential engine).
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Overrides the window executor's tuning: the minimum window length
    /// before worker threads spawn, and the worker count. Results are
    /// bit-identical for any values; this only exists so tests can force
    /// the threaded path onto short windows.
    #[doc(hidden)]
    pub fn set_window_tuning(&mut self, spawn_min: u64, workers: usize) {
        self.window_spawn_min = spawn_min.max(1);
        self.window_workers = workers.clamp(1, self.shards.len());
    }

    /// Window-executor activity counters (windows advanced, cycles
    /// covered, spawned vs inline). Diagnostics only: these vary with
    /// shard count and thread availability and are deliberately not part
    /// of [`NetworkStats`], whose contents must stay bit-identical
    /// across shard counts.
    #[inline]
    pub fn window_stats(&self) -> WindowStats {
        self.win_stats
    }

    /// The current minimum window length before worker threads spawn —
    /// `DEFAULT_SPAWN_MIN` unless a [`Network::set_window_tuning`]
    /// override replaced it.
    #[inline]
    pub fn window_spawn_min(&self) -> u64 {
        self.window_spawn_min
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
            self.geo.rt.layout.contains(req.src),
            "src {} outside mesh",
            req.src
        );
        assert!(
            self.geo.rt.layout.contains(req.dst),
            "dst {} outside mesh",
            req.dst
        );
        let id = PacketId(self.next_pkt);
        self.next_pkt += 1;
        let node = self.geo.rt.layout.node_index(req.src);
        self.injectors[node].queue.push_back(Pending {
            id,
            req,
            seq: 0,
            injected: self.now,
        });
        self.mark_inj(node);
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
        let idx = self.geo.rt.layout.node_index(c);
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

    /// Batch-advances the clock to `to` without running per-cycle phases,
    /// even with traffic in flight.
    ///
    /// Callers must only jump across provably-dead spans: `to` must lie
    /// strictly before [`Network::next_event_at`], so that every skipped
    /// cycle would have been a no-op tick.
    pub fn advance_to(&mut self, to: Cycle) {
        debug_assert!(to.0 >= self.now.0, "advance_to moving backwards");
        debug_assert!(
            self.next_event_at().is_none_or(|t| to.0 < t.0),
            "advance_to({}) skips a cycle where a phase fires",
            to.0
        );
        self.now = to;
        self.obs.set_now(self.now.0);
    }

    /// The earliest future cycle at which any phase could change state —
    /// the next-event horizon — or `None` when the network is idle.
    ///
    /// The bound is exact-or-early, never late: the returned cycle may
    /// turn out to be a no-op (a speculative bus grant or switch
    /// allocation can still fail on VC backpressure, which mutates
    /// nothing), but every cycle strictly before it is provably dead, so
    /// [`Network::advance_to`] may jump to `horizon - 1` unconditionally.
    pub fn next_event_at(&self) -> Option<Cycle> {
        if self.is_idle() {
            return None;
        }
        let next = self.now.0 + 1;
        let mut earliest = lane::next_shard_event(&self.shards, &self.routers, &self.geo, next);
        if earliest == next {
            return Some(Cycle(next));
        }
        // A bus grants once it is free of any serialisation window and a
        // queued flit has dwelt one cycle at its transceiver interface.
        for b in self.bus_active.iter() {
            earliest = earliest.min(self.bus_next_grant(b).max(next));
        }
        // Flits in flight always sit in some queue the scans above cover;
        // fall back to the very next cycle rather than ever over-skipping.
        Some(Cycle(if earliest == u64::MAX { next } else { earliest }))
    }

    /// The earliest cycle bus `b` could grant: a queued flit has dwelt
    /// one cycle at its transceiver interface and the bus is free of its
    /// serialisation window. `u64::MAX` when nothing is queued.
    fn bus_next_grant(&self, b: usize) -> u64 {
        let mut front = u64::MAX;
        for layer in 0..self.geo.rt.layout.layers() {
            let (s, i) = self.iface_pos(b, layer);
            if let Some(f) = self.shards[s].ifaces[i].q.front(&self.shards[s].arena) {
                front = front.min(f.arrived.0 + 1);
            }
        }
        if front == u64::MAX {
            front
        } else {
            front.max(self.bus_ready_at[b])
        }
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

    /// The (shard, interface-slot) holding the transceiver interface of
    /// bus `b` on `layer`.
    #[inline]
    fn iface_pos(&self, b: usize, layer: u8) -> (usize, usize) {
        let s = self.geo.iface_slots[b * self.geo.rt.layout.layers() as usize + layer as usize];
        (s.shard as usize, s.slot as usize)
    }

    /// Total flits queued across all of bus `b`'s interfaces.
    fn bus_queued(&self, b: usize) -> usize {
        (0..self.geo.rt.layout.layers())
            .map(|layer| {
                let (s, i) = self.iface_pos(b, layer);
                self.shards[s].ifaces[i].q.len()
            })
            .sum()
    }

    /// Folds per-shard bus-touch records into the global bus state:
    /// marks each touched bus active and settles its peak-occupancy
    /// statistic. Interface totals only grow between bus-phase drains
    /// (router phases enqueue, never dequeue), so settling at the end of
    /// a tick — or of a whole multi-cycle shard window — observes the
    /// running maximum the per-enqueue update used to record.
    fn settle_touched(&mut self) {
        for s in 0..self.shards.len() {
            let mut at = 0;
            while let Some(b) = self.shards[s].touched_buses.take_next(at) {
                at = b + 1;
                let queued = self.bus_queued(b) as u64;
                let stats = &mut self.buses[b].stats;
                stats.peak_queued = stats.peak_queued.max(queued);
                self.bus_active.insert(b);
            }
        }
    }

    #[inline]
    fn mark_dirty(&mut self, node: usize) {
        let s = usize::from(self.geo.shard_of[node]);
        self.shards[s]
            .dirty
            .insert(node - s * self.geo.nodes_per_shard);
    }

    #[inline]
    fn mark_inj(&mut self, node: usize) {
        let s = usize::from(self.geo.shard_of[node]);
        self.shards[s]
            .inj_active
            .insert(node - s * self.geo.nodes_per_shard);
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
        for (n, router) in self.routers.iter().enumerate() {
            let s = usize::from(self.geo.shard_of[n]);
            let (st, off) = (&self.shards[s], n - s * self.geo.nodes_per_shard);
            flits += router.check_invariants(&st.arena, &self.geo.rt);
            assert!(st.visiting.is_empty(), "shard {s}: mid-phase visiting set");
            assert_eq!(
                st.dirty.contains(off),
                router.occupancy() > 0,
                "node {n}: dirty set disagrees with occupancy"
            );
            let inj = &self.injectors[n];
            assert_eq!(
                st.inj_active.contains(off),
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
