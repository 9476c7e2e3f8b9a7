//! The dTDMA bus phase: one arbitration round per pillar per cycle.
//!
//! Runs first each tick, so a flit granted the bus (stamped
//! `arrived == now`) cannot also traverse a router in the same cycle.

use nim_obs::{Category, EventData};
use nim_types::{Coord, Cycle, Dir};

use super::Network;

impl Network {
    pub(super) fn bus_phase(&mut self, now: Cycle) {
        if self.bus_active.is_empty() {
            return;
        }
        // A bus only ever re-marks itself, so the active set is drained
        // and refilled in place.
        let mut at = 0;
        while let Some(b) = self.bus_active.take_next(at) {
            at = b + 1;
            self.process_bus(b, now);
            if self.bus_queued(b) > 0 {
                self.bus_active.insert(b);
            }
        }
    }

    /// One dTDMA arbitration round: at most one flit crosses the bus.
    fn process_bus(&mut self, b: usize, now: Cycle) {
        // A narrow bus is still serialising the previous flit.
        if self.bus_ready_at[b] > now.0 {
            return;
        }
        let layers = self.layout.layers() as usize;
        let eligible = self
            .bus_ifaces(b)
            .iter()
            .filter(|i| i.q.front(&self.arena).is_some_and(|f| f.arrived < now))
            .count();
        if eligible == 0 {
            return;
        }
        let rr = self.buses[b].rr;
        for off in 0..layers {
            let i = if rr + off >= layers {
                rr + off - layers
            } else {
                rr + off
            };
            let src = b * layers + i;
            let front = self.ifaces[src].q.front(&self.arena).copied();
            let Some(front) = front.filter(|f| f.arrived < now) else {
                continue;
            };
            let (px, py) = self.buses[b].xy;
            let dest_idx = self.layout.node_index(Coord::new(px, py, front.dst.layer));
            let vi = Dir::Vertical.index();
            let dest = &self.routers[dest_idx];
            let vc_sel = if front.kind.is_head() {
                dest.free_vc(vi)
            } else {
                self.ifaces[src]
                    .bound_vc
                    .filter(|&v| dest.accepts_continuation(vi, v, front.pkt))
            };
            let Some(vc) = vc_sel else {
                continue;
            };
            // Multiple transmitters competing for a grant that actually
            // happens is contention; a round where every candidate is
            // VC-blocked is backpressure and counts nowhere.
            if eligible >= 2 {
                self.buses[b].stats.contention_cycles += 1;
                self.obs
                    .emit(Category::Pillar, || EventData::BusContention {
                        pillar: b as u32,
                        waiting: eligible as u32,
                    });
            }
            // The flit read above moves; its slot is not read again.
            self.ifaces[src].q.advance(&mut self.arena);
            let mut f = front;
            // `arrived` still holds the bus-enqueue stamp: the span up
            // to this grant is time spent waiting for a dTDMA slot.
            f.bus_wait += (now.0 - f.arrived.0) as u32;
            f.arrived = now;
            f.hops += 1;
            self.routers[dest_idx].push(&mut self.arena, &self.layout, vi, vc, f);
            self.dirty.insert(dest_idx);
            let iface = &mut self.ifaces[src];
            iface.bound_vc = if f.kind.is_tail() {
                None
            } else if f.kind.is_head() {
                Some(vc)
            } else {
                iface.bound_vc
            };
            self.buses[b].stats.transfers += 1;
            self.buses[b].stats.busy_cycles += self.bus_cycles_per_flit;
            self.stats.bus_transfers += 1;
            self.obs.emit(Category::Pillar, || EventData::BusGrant {
                pillar: b as u32,
                from_layer: i as u16,
                to_layer: u16::from(f.dst.layer),
            });
            self.buses[b].rr = if i + 1 == layers { 0 } else { i + 1 };
            self.bus_ready_at[b] = now.0 + self.bus_cycles_per_flit;
            break; // one flit per bus grant
        }
    }
}
