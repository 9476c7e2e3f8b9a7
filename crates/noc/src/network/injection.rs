//! The injection phase: each node's network interface streams at most
//! one flit of its oldest pending packet into a local-input VC.
//!
//! Like the router phase, the body lives on [`Lane`] so the sequential
//! tick and the window executor share one implementation. Injection
//! touches only shard-local state (the node's local port and its own
//! injection queue) and emits no trace events.

use nim_types::{Cycle, Dir};

use crate::packet::{Flit, FlitKind};

use super::lane::Lane;
use super::Network;

impl Network {
    pub(super) fn injection_phase(&mut self, now: Cycle) {
        if self.shards.iter().all(|st| st.inj_active.is_empty()) {
            return;
        }
        let (mut lane, _sink) = self.live_parts();
        lane.injection_phase(now);
    }
}

impl Lane<'_> {
    /// Injection never leaves the node, so shards are fully independent
    /// here, and a node only ever re-marks itself — the active set is
    /// drained and refilled in place.
    pub(super) fn injection_phase(&mut self, now: Cycle) {
        for si in 0..self.shards.len() {
            let first = si * self.geo.nodes_per_shard;
            let mut at = 0;
            while let Some(off) = self.shards[si].inj_active.take_next(at) {
                at = off + 1;
                self.inject_at(si, first + off, now);
                if !self.injectors[first + off].queue.is_empty() {
                    self.shards[si].inj_active.insert(off);
                }
            }
        }
    }

    /// Streams at most one flit of the oldest pending packet of the node
    /// at lane-local index `local` (owned by the lane's shard `si`) into
    /// a local-input VC.
    fn inject_at(&mut self, si: usize, local: usize, now: Cycle) {
        let li = Dir::Local.index();
        let Some(p) = self.injectors[local].queue.front().copied() else {
            return;
        };
        let kind = FlitKind::for_position(p.seq, p.req.flits);
        let router = &self.routers[local];
        let vc_sel = if kind.is_head() {
            router.free_vc(li)
        } else {
            self.injectors[local]
                .vc
                .filter(|&v| router.vc(li, v).accepts_continuation(p.id))
        };
        let Some(v) = vc_sel else {
            return;
        };
        let flit = Flit {
            pkt: p.id,
            kind,
            src: p.req.src,
            dst: p.req.dst,
            via: p.req.via,
            class: p.req.class,
            token: p.req.token,
            injected: p.injected,
            arrived: now,
            hops: 0,
            bus_wait: 0,
        };
        self.routers[local].push(&mut self.shards[si].arena, &self.geo.rt, li, v, flit);
        self.shards[si]
            .dirty
            .insert(local - si * self.geo.nodes_per_shard);
        let inj = &mut self.injectors[local];
        let front = inj.queue.front_mut().expect("checked above");
        front.seq += 1;
        if front.seq == front.req.flits {
            inj.queue.pop_front();
            inj.vc = None;
        } else {
            inj.vc = Some(v);
        }
    }
}
