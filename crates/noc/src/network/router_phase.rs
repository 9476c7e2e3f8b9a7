//! The router phase: switch allocation and flit traversal for every
//! active router, in node-index order.
//!
//! A router marked while the phase runs (a hop's destination) is
//! visited next cycle, not later in this one: the just-arrived flit is
//! stamped `arrived == now` and could not move anyway.
//!
//! # What a visit costs
//!
//! A visit reads the router's occupancy mask and the front flit of each
//! occupied VC — nothing else. Movable head flits become one request
//! bitmask per output; only outputs that are requested or held are
//! served, in ascending [`Dir::index`] order — the order `Dir::ALL`
//! gives, so outputs contend for inputs exactly as if every port were
//! probed (DESIGN.md §6e has the full argument). A move reads its flit
//! once: the winner's VC is located once (a `VcAt`: mask bit and slice
//! index), its front is copied out, decided on, and dropped from the VC
//! by `Router::drop_front`, which frees its arena slot without reading
//! the flit or locating the VC again. The drop precedes the downstream
//! push, so the push takes back the slot just freed.

use nim_obs::{Category, EventData};
use nim_types::{bits, Cycle, Dir};

use crate::packet::{Flit, TrafficClass};
use crate::router::{vc_bit, Hold, VcAt};

use super::{c3, Network};

impl Network {
    pub(super) fn router_phase(&mut self, now: Cycle) {
        if self.dirty.is_empty() {
            return;
        }
        // Routers marked from here on belong to the next cycle.
        std::mem::swap(&mut self.dirty, &mut self.visiting);
        let mut at = 0;
        while let Some(n) = self.visiting.take_next(at) {
            at = n + 1;
            self.process_router(n, now);
            if self.routers[n].occupancy() > 0 {
                self.dirty.insert(n);
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
    fn process_router(&mut self, n: usize, now: Cycle) {
        let router = &self.routers[n];
        let mut requests = [0u64; Dir::COUNT];
        let mut requested = 0u8;
        for (bit, out, front) in router.fronts(&self.arena) {
            if front.arrived.0 + self.router_latency <= now.0 && front.kind.is_head() {
                requests[out.index()] |= 1 << bit;
                requested |= 1 << out.index();
            }
        }
        let outputs = (requested | router.held_mask()) & router.ports();
        // VCs of input ports that already moved a flit this cycle.
        let mut used = 0u64;
        for oi in bits(u64::from(outputs)) {
            self.process_output(n, Dir::ALL[oi], now, requests[oi], &mut used);
        }
    }

    /// Switch allocation and traversal for one output port of one router;
    /// `requests` are the movable head flits routed to it.
    fn process_output(&mut self, n: usize, out: Dir, now: Cycle, requests: u64, used: &mut u64) {
        let oi = out.index();
        // An output already claimed by a packet serves only that packet.
        if let Some(hold) = self.routers[n].hold(oi) {
            let (in_dir, vc) = (usize::from(hold.in_dir), usize::from(hold.vc));
            if *used >> vc_bit(in_dir, 0) & 0xff != 0 {
                return;
            }
            let at = self.routers[n].at(in_dir, vc);
            let Some(&front) = self.routers[n].vc_at(at).fifo.front(&self.arena) else {
                return;
            };
            // The held VC is owned until its tail leaves through this
            // output, so every flit in it is the holder's.
            debug_assert_eq!(Some(front.pkt), self.routers[n].owner(in_dir, vc));
            if front.arrived.0 + self.router_latency > now.0 {
                return;
            }
            if self.try_move(n, at, out, front, now) {
                *used |= 0xff << vc_bit(in_dir, 0);
                if front.kind.is_tail() {
                    self.routers[n].set_hold(oi, None);
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
        // Most outputs see one request; only several cost a popcount.
        if eligible & (eligible - 1) != 0 {
            self.stats.switch_contention += u64::from(eligible.count_ones() - 1);
        }
        let at_or_after = eligible & (!0 << self.routers[n].rr[oi]);
        let bit = if at_or_after != 0 {
            at_or_after.trailing_zeros()
        } else {
            eligible.trailing_zeros()
        } as usize;
        let (in_dir, vc) = (bit >> 3, bit & 7);
        let at = self.routers[n].at(in_dir, vc);
        let front = *self.routers[n]
            .vc_at(at)
            .fifo
            .front(&self.arena)
            .expect("requesting VC has a front flit");
        if self.try_move(n, at, out, front, now) {
            *used |= 0xff << vc_bit(in_dir, 0);
            let router = &mut self.routers[n];
            if !front.kind.is_tail() {
                router.set_hold(
                    oi,
                    Some(Hold {
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

    /// Attempts to move `f`, the front flit of the input VC `at` as the
    /// caller read it, through `out`; the VC then drops its front without
    /// reading or locating it again. Returns `false` when downstream has
    /// no space or no free VC (speculation failure — retry next cycle).
    fn try_move(&mut self, n: usize, at: VcAt, out: Dir, mut f: Flit, now: Cycle) -> bool {
        match out {
            Dir::Local => {
                self.routers[n].drop_front(&mut self.arena, at, f.kind.is_tail());
                self.deliver(f, now);
                return true;
            }
            Dir::Vertical => {
                // The vertical move fills this pillar node's own
                // transceiver interface, whose slot `next` holds; the bus
                // phase later drains it.
                debug_assert!(self.routers[n].has_port(Dir::Vertical.index()));
                let slot = self.routers[n].next[Dir::Vertical.index()] as usize;
                if self.ifaces[slot].q.is_full() {
                    return false;
                }
                self.routers[n].drop_front(&mut self.arena, at, f.kind.is_tail());
                f.arrived = now;
                self.ifaces[slot].q.push_back(&mut self.arena, f);
                self.touched_buses
                    .insert(slot / self.layout.layers() as usize);
                self.count_hop(n, f.class);
            }
            _ => {
                let dest_idx = self.routers[n].next[out.index()] as usize;
                debug_assert_ne!(dest_idx, n);
                let ii = out.opposite().index();
                let dest = &self.routers[dest_idx];
                let dvc = if f.kind.is_head() {
                    dest.free_vc(ii)
                } else {
                    dest.continuation_vc(ii, f.pkt)
                };
                let Some(dvc) = dvc else {
                    return false;
                };
                self.routers[n].drop_front(&mut self.arena, at, f.kind.is_tail());
                f.arrived = now;
                f.hops += 1;
                self.routers[dest_idx].push(&mut self.arena, &self.layout, ii, dvc, f);
                self.dirty.insert(dest_idx);
                self.count_hop(n, f.class);
            }
        }
        true
    }

    /// Accounts one flit traversal out of router `n`.
    #[inline]
    fn count_hop(&mut self, n: usize, class: TrafficClass) {
        self.stats.flit_hops += 1;
        self.stats.flit_hops_by_class[class.index()] += 1;
        self.traversals[n] += 1;
        let at = self.routers[n].coord;
        self.obs.emit(Category::Hop, || EventData::FlitHop {
            at: c3(at),
            class: class.name(),
        });
    }
}
