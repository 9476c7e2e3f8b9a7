//! The shard-range execution view.
//!
//! [`Lane`] borrows exactly the state the router and injection phases of
//! a contiguous *range of shards* may touch — their
//! [`ShardState`](super::ShardState)s plus the node-indexed slices
//! (routers, injectors, traversal counters) restricted to the range's
//! contiguous node span, and the network's read-only
//! [`Geometry`](super::Geometry). The sequential tick runs one
//! whole-chip lane (every shard; cross-shard mesh hops move a flit
//! between two shard arenas in-place), while the window executor runs
//! one single-shard lane per shard, where a cross-shard hop is a
//! planner bug. Both run the *same* phase code through a `Lane`; only
//! the [`DeliverySink`] differs:
//!
//! * [`LiveSink`] — the sequential tick's sink. Performs delivery
//!   bookkeeping and emits trace events immediately through the (thread
//!   -bound) [`Obs`] handle.
//! * [`WindowSink`] — the window executor's sink. Defers `FlitHop`
//!   events into a per-shard buffer for deterministic replay at the
//!   barrier, and treats a delivery as a bug: the window planner proved
//!   no flit can reach a local port inside the window.
//!
//! Statistics counters that outlive a phase ([`LaneStats`]) accumulate
//! on the `Lane` itself and are folded into [`NetworkStats`] when the
//! lane retires, so threaded lanes never contend on shared counters.

use std::collections::VecDeque;

use nim_obs::{Category, EventData, Obs};
use nim_types::{Coord, Cycle, IdSet};

use crate::packet::{Delivered, Flit};
use crate::router::Router;
use crate::stats::NetworkStats;

use super::{c3, Geometry, Injector, Network, ShardState};

/// A `FlitHop` event deferred by a window lane: (cycle, position,
/// traffic-class name).
pub(super) type DeferredHop = (u64, [u16; 3], &'static str);

/// Where a lane's router phase reports flits that left the network: a
/// flit ejected at a local port, or a router-to-router hop to trace.
pub(super) trait DeliverySink {
    /// A flit was popped at node `node`'s local port at time `now`.
    fn local_pop(&mut self, node: usize, flit: Flit, now: Cycle);
    /// A flit traversed router `at` (mesh hop or vertical enqueue).
    fn flit_hop(&mut self, now: Cycle, at: Coord, class: &'static str);
}

/// The sequential tick's sink: full delivery bookkeeping plus immediate
/// trace emission. Holds the non-`Send` [`Obs`] handle, so it only ever
/// exists on the simulation thread.
pub(super) struct LiveSink<'a> {
    pub obs: &'a Obs,
    pub outbox: &'a mut [VecDeque<Delivered>],
    pub delivered_nodes: &'a mut IdSet,
    pub flits_in_flight: &'a mut u64,
    pub stats: &'a mut NetworkStats,
}

impl DeliverySink for LiveSink<'_> {
    fn local_pop(&mut self, node: usize, f: Flit, now: Cycle) {
        *self.flits_in_flight -= 1;
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

    fn flit_hop(&mut self, _now: Cycle, at: Coord, class: &'static str) {
        self.obs
            .emit(Category::Hop, || EventData::FlitHop { at: c3(at), class });
    }
}

/// A window lane's sink: `Send`, defers hops, and rejects deliveries
/// (the conservative horizon guarantees none can occur in-window).
pub(super) struct WindowSink<'a> {
    /// The shard's deferred-hop buffer, reused across windows.
    pub hops: &'a mut Vec<DeferredHop>,
    /// Whether hop events are wanted at all; when the trace category is
    /// off, deferring them would only burn memory.
    pub record: bool,
}

impl DeliverySink for WindowSink<'_> {
    fn local_pop(&mut self, node: usize, f: Flit, now: Cycle) {
        unreachable!(
            "packet {} delivered at node {node} in cycle {} inside a \
             conservative shard window — the horizon planner under-estimated",
            f.pkt.0, now.0
        );
    }

    fn flit_hop(&mut self, now: Cycle, at: Coord, class: &'static str) {
        if self.record {
            self.hops.push((now.0, c3(at), class));
        }
    }
}

/// A shard range's mutable working set: everything its router and
/// injection phases may read or write. Node-indexed borrows are sliced
/// to the range's contiguous `[base, base + len)` node span; methods
/// take *global* node ids and translate.
///
/// The sequential tick uses one whole-chip lane (`shards` = every
/// shard): a mesh hop across a shard boundary pops from the source
/// shard's arena and pushes into the destination's, which the disjoint
/// `routers`/`shards` borrows express directly. Window lanes hold
/// exactly one shard, making any cross-shard hop a planner bug caught
/// at the hop site.
pub(super) struct Lane<'a> {
    /// Global node id of the range's first node.
    pub base: usize,
    /// Shard index (network-global) of `shards[0]`; shards are
    /// node-contiguous, so the lane's `i`-th shard owns nodes
    /// `base + i * nodes_per_shard ..`.
    pub first_shard: usize,
    pub shards: &'a mut [ShardState],
    pub routers: &'a mut [Router],
    pub injectors: &'a mut [Injector],
    pub traversals: &'a mut [u64],
    pub geo: &'a Geometry,
    pub stats: LaneStats,
}

/// Counters a lane accumulates and [`LaneStats::fold_into`] adds to the
/// [`NetworkStats`] when it retires.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct LaneStats {
    pub flit_hops: u64,
    pub flit_hops_by_class: [u64; 4],
    pub switch_contention: u64,
}

impl LaneStats {
    pub(super) fn fold_into(self, stats: &mut NetworkStats) {
        stats.flit_hops += self.flit_hops;
        for (total, add) in stats
            .flit_hops_by_class
            .iter_mut()
            .zip(self.flit_hops_by_class)
        {
            *total += add;
        }
        stats.switch_contention += self.switch_contention;
    }
}

/// The earliest cycle `>= after` at which the router or injection phase
/// of any of `shards` could change state, or `u64::MAX` when they are
/// all quiescent; `routers` are those shards' own, in order. Injection
/// streams one flit per cycle while packets pend, and a front flit moves
/// once it has dwelt `router_latency` cycles; `after` is the floor, so
/// the scan stops at the first thing already due.
pub(super) fn next_shard_event(
    shards: &[ShardState],
    routers: &[Router],
    geo: &Geometry,
    after: u64,
) -> u64 {
    let mut earliest = u64::MAX;
    for (st, routers) in shards.iter().zip(routers.chunks(geo.nodes_per_shard)) {
        if !st.inj_active.is_empty() {
            return after;
        }
        for off in st.dirty.iter() {
            for (_, _, f) in routers[off].fronts(&st.arena) {
                let movable = f.arrived.0 + geo.router_latency;
                if movable <= after {
                    return after;
                }
                earliest = earliest.min(movable);
            }
        }
    }
    earliest
}

impl Lane<'_> {
    /// Index into `self.shards` of the shard owning a global node id.
    #[inline]
    pub(super) fn shard_ix(&self, node: usize) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            usize::from(self.geo.shard_of[node]) - self.first_shard
        }
    }

    #[inline]
    pub(super) fn mark_dirty(&mut self, node: usize) {
        let s = self.shard_ix(node);
        self.shards[s]
            .dirty
            .insert(node - self.base - s * self.geo.nodes_per_shard);
    }

    /// Runs this lane's router and injection phases for every cycle in
    /// `[from, to]`, skipping spans where the shards are provably dead.
    /// Bit-identical to ticking cycle by cycle: a skipped cycle has no
    /// movable flit and nothing to inject, so its phases would not have
    /// mutated anything.
    pub(super) fn run_window(&mut self, from: u64, to: u64, sink: &mut impl DeliverySink) {
        let mut t = from;
        while t <= to {
            // Cycles before the next local event are provably dead for
            // this lane's shards.
            let event = next_shard_event(self.shards, self.routers, self.geo, t);
            if event > to {
                return;
            }
            t = event;
            let now = Cycle(t);
            self.router_phase(now, sink);
            self.injection_phase(now);
            t += 1;
        }
    }
}

impl Network {
    /// Splits `self` into the whole-chip [`Lane`] plus the [`LiveSink`]
    /// holding the network-global delivery state — the sequential tick's
    /// working set, built on the stack with no allocation.
    pub(super) fn live_parts(&mut self) -> (Lane<'_>, LiveSink<'_>) {
        let lane = Lane {
            base: 0,
            first_shard: 0,
            shards: &mut self.shards,
            routers: &mut self.routers,
            injectors: &mut self.injectors,
            traversals: &mut self.traversals,
            geo: &self.geo,
            stats: LaneStats::default(),
        };
        let sink = LiveSink {
            obs: &self.obs,
            outbox: &mut self.outbox,
            delivered_nodes: &mut self.delivered_nodes,
            flits_in_flight: &mut self.flits_in_flight,
            stats: &mut self.stats,
        };
        (lane, sink)
    }
}
