//! The router phase: switch allocation and flit traversal for every
//! active router, in node-index order.
//!
//! The phase body lives on [`Lane`] so the sequential tick and the
//! window executor share one implementation; only the
//! [`DeliverySink`] differs. Node-major indexing is layer-major and
//! shards are node-contiguous, so walking shards in order and each
//! shard's dirty bitmap within equals walking one global dirty set in
//! ascending node order. A mesh hop across a shard boundary (possible
//! only in the whole-chip sequential lane) marks the destination router
//! in a set this cycle's walk still reaches when the destination shard
//! has not run yet; the just-arrived flit is stamped `arrived == now`,
//! so that visit is provably a no-op and the router is re-marked for
//! the next cycle.
//!
//! # What a visit costs
//!
//! A visit reads the router's occupancy mask and the front flit of each
//! occupied VC — nothing else. Movable head flits become one request
//! bitmask per output; only outputs that are requested or held are
//! served, in ascending [`Dir::index`] order — the order `Dir::ALL`
//! gives, so outputs contend for inputs exactly as if every port were
//! probed (DESIGN.md §6e has the full argument).

use nim_types::{bits, Cycle, Dir};

use crate::router::{vc_bit, Hold};

use super::lane::{DeliverySink, Lane};
use super::Network;

impl Network {
    pub(super) fn router_phase(&mut self, now: Cycle) {
        if self.shards.iter().all(|st| st.dirty.is_empty()) {
            return;
        }
        let (mut lane, mut sink) = self.live_parts();
        lane.router_phase(now, &mut sink);
        lane.stats.fold_into(sink.stats);
    }
}

impl Lane<'_> {
    pub(super) fn router_phase(&mut self, now: Cycle, sink: &mut impl DeliverySink) {
        for si in 0..self.shards.len() {
            let st = &mut self.shards[si];
            if st.dirty.is_empty() {
                continue;
            }
            // Routers marked from here on belong to the next cycle.
            std::mem::swap(&mut st.dirty, &mut st.visiting);
            let first = self.base + si * self.geo.nodes_per_shard;
            let mut at = 0;
            while let Some(off) = self.shards[si].visiting.take_next(at) {
                at = off + 1;
                self.process_router(first + off, now, sink);
                if self.routers[first + off - self.base].occupancy() > 0 {
                    self.shards[si].dirty.insert(off);
                }
            }
        }
    }

    /// Switch allocation for one router: one pass over the occupied VCs
    /// sorts every movable head flit into its output's request mask
    /// (the route was cached when the flit entered the VC), then every
    /// requested or held output is served in port order. Moves performed
    /// while an output is served only ever change the fronts of inputs
    /// recorded in `used`, which later outputs mask out, so the
    /// pre-collected requests stay exact.
    fn process_router(&mut self, n: usize, now: Cycle, sink: &mut impl DeliverySink) {
        let router = &self.routers[n - self.base];
        let arena = &self.shards[self.shard_ix(n)].arena;
        let mut requests = [0u64; Dir::COUNT];
        let mut requested = 0u8;
        for (bit, out, front) in router.fronts(arena) {
            if front.arrived.0 + self.geo.router_latency <= now.0 && front.kind.is_head() {
                requests[out.index()] |= 1 << bit;
                requested |= 1 << out.index();
            }
        }
        let outputs = (requested | router.held_mask()) & router.ports();
        // VCs of input ports that already moved a flit this cycle.
        let mut used = 0u64;
        for oi in bits(u64::from(outputs)) {
            self.process_output(n, Dir::ALL[oi], now, requests[oi], &mut used, sink);
        }
    }

    /// Switch allocation and traversal for one output port of one router;
    /// `requests` are the movable head flits routed to it.
    fn process_output(
        &mut self,
        n: usize,
        out: Dir,
        now: Cycle,
        requests: u64,
        used: &mut u64,
        sink: &mut impl DeliverySink,
    ) {
        let oi = out.index();
        let local = n - self.base;
        // An output already claimed by a packet serves only that packet.
        if let Some(hold) = self.routers[local].hold(oi) {
            let (in_dir, vc) = (usize::from(hold.in_dir), usize::from(hold.vc));
            if *used >> vc_bit(in_dir, 0) & 0xff != 0 {
                return;
            }
            let arena = &self.shards[self.shard_ix(n)].arena;
            let Some(front) = self.routers[local].vc(in_dir, vc).fifo.front(arena) else {
                return;
            };
            if front.pkt != hold.pkt || front.arrived.0 + self.geo.router_latency > now.0 {
                return;
            }
            let is_tail = front.kind.is_tail();
            if self.try_move(n, in_dir, vc, out, now, sink) {
                *used |= 0xff << vc_bit(in_dir, 0);
                if is_tail {
                    self.routers[local].set_hold(oi, None);
                }
            } else {
                self.stats.switch_contention += 1;
            }
            return;
        }
        // Free output: round-robin over head flits requesting it.
        let eligible = requests & !*used;
        if eligible == 0 {
            return;
        }
        self.stats.switch_contention += u64::from(eligible.count_ones() - 1);
        let at_or_after = eligible & (!0 << self.routers[local].rr[oi]);
        let bit = if at_or_after != 0 {
            at_or_after.trailing_zeros()
        } else {
            eligible.trailing_zeros()
        } as usize;
        let (in_dir, vc) = (bit >> 3, bit & 7);
        let arena = &self.shards[self.shard_ix(n)].arena;
        let front = self.routers[local]
            .vc(in_dir, vc)
            .fifo
            .front(arena)
            .expect("requesting VC has a front flit");
        let (pkt, is_tail) = (front.pkt, front.kind.is_tail());
        if self.try_move(n, in_dir, vc, out, now, sink) {
            *used |= 0xff << vc_bit(in_dir, 0);
            let router = &mut self.routers[local];
            if !is_tail {
                router.set_hold(
                    oi,
                    Some(Hold {
                        pkt,
                        in_dir: in_dir as u8,
                        vc: vc as u8,
                    }),
                );
            }
            router.advance_rr(oi, bit);
        } else {
            self.stats.switch_contention += 1;
        }
    }

    /// Attempts to move the front flit of `(in_dir, vc)` through `out`.
    /// Returns `false` when downstream has no space or no free VC
    /// (speculation failure — retry next cycle).
    fn try_move(
        &mut self,
        n: usize,
        in_dir: usize,
        vc: usize,
        out: Dir,
        now: Cycle,
        sink: &mut impl DeliverySink,
    ) -> bool {
        let local = n - self.base;
        let si = self.shard_ix(n);
        match out {
            Dir::Local => {
                let f = self.routers[local].pop(&self.shards[si].arena, in_dir, vc);
                sink.local_pop(n, f, now);
                return true;
            }
            Dir::Vertical => {
                // The vertical move fills this pillar node's own
                // transceiver interface — owned by this node's shard;
                // the (sequential) bus phase is what later drains it
                // across shards.
                let bus_idx =
                    self.geo.bus_of_node[n].expect("vertical output on non-pillar node") as usize;
                let layers = self.geo.rt.layout.layers() as usize;
                let layer = self.routers[local].coord.layer as usize;
                let is = self.geo.iface_slots[bus_idx * layers + layer];
                debug_assert_eq!(is.shard as usize, si + self.first_shard);
                let slot = is.slot as usize;
                if self.shards[si].ifaces[slot].q.is_full() {
                    return false;
                }
                let st = &mut self.shards[si];
                let mut f = self.routers[local].pop(&st.arena, in_dir, vc);
                f.arrived = now;
                st.ifaces[slot].q.push_back(&mut st.arena, f);
                st.touched_buses.insert(bus_idx);
                self.count_hop(local, now, f.class, sink);
            }
            _ => {
                // In the whole-chip sequential lane every destination is
                // in range and a hop may cross a shard (band) boundary.
                // A window lane holds exactly one shard, and the window
                // planner's mesh-boundary lookahead ended the window
                // before any flit could reach a boundary router — so an
                // out-of-range destination there is a planner bug.
                let dest_idx = self.routers[local].next[out.index()] as usize;
                let dest_local = dest_idx.wrapping_sub(self.base);
                if dest_local >= self.routers.len() {
                    unreachable!(
                        "a flit hopped {} -> node {dest_idx} across a shard boundary in cycle {} \
                         inside a conservative shard window — the boundary lookahead \
                         under-estimated",
                        self.routers[local].coord, now.0
                    );
                }
                debug_assert_ne!(dest_local, local);
                let dsi = self.shard_ix(dest_idx);
                let ii = out.opposite().index();
                let front = self.routers[local]
                    .vc(in_dir, vc)
                    .fifo
                    .front(&self.shards[si].arena)
                    .expect("front checked");
                let dest = &self.routers[dest_local];
                let dvc = if front.kind.is_head() {
                    dest.free_vc(ii)
                } else {
                    dest.continuation_vc(ii, front.pkt)
                };
                let Some(dvc) = dvc else {
                    return false;
                };
                let mut f = self.routers[local].pop(&self.shards[si].arena, in_dir, vc);
                f.arrived = now;
                f.hops += 1;
                self.routers[dest_local].push(
                    &mut self.shards[dsi].arena,
                    &self.geo.rt,
                    ii,
                    dvc,
                    f,
                );
                self.mark_dirty(dest_idx);
                self.count_hop(local, now, f.class, sink);
            }
        }
        true
    }

    /// Accounts one flit traversal out of router `local`.
    #[inline]
    fn count_hop(
        &mut self,
        local: usize,
        now: Cycle,
        class: crate::packet::TrafficClass,
        sink: &mut impl DeliverySink,
    ) {
        self.stats.flit_hops += 1;
        self.stats.flit_hops_by_class[class.index()] += 1;
        self.traversals[local] += 1;
        sink.flit_hop(now, self.routers[local].coord, class.name());
    }
}
