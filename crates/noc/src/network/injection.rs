//! The injection phase: each node's network interface streams at most
//! one flit of its oldest pending packet into a local-input VC.

use nim_types::{Cycle, Dir};

use crate::packet::{Flit, FlitKind};

use super::Network;

impl Network {
    /// A node only ever re-marks itself, so the active set is drained
    /// and refilled in place.
    pub(super) fn injection_phase(&mut self, now: Cycle) {
        if self.inj_active.is_empty() {
            return;
        }
        for w in 0..self.inj_active.word_count() {
            let mut word = self.inj_active.take_word(w);
            while word != 0 {
                let n = w << 6 | word.trailing_zeros() as usize;
                word &= word - 1;
                self.inject_at(n, now);
                if !self.injectors[n].queue.is_empty() {
                    self.inj_active.insert(n);
                }
            }
        }
    }

    /// Streams at most one flit of the oldest pending packet of node `n`
    /// into a local-input VC.
    fn inject_at(&mut self, n: usize, now: Cycle) {
        let li = Dir::Local.index();
        let Some(p) = self.injectors[n].queue.front().copied() else {
            return;
        };
        let kind = FlitKind::for_position(p.seq, p.req.flits);
        let router = &self.routers[n];
        let vc_sel = if kind.is_head() {
            router.free_vc(li)
        } else {
            self.injectors[n]
                .vc
                .filter(|&v| router.accepts_continuation(li, v, p.id))
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
        self.routers[n].push(&mut self.arena, &self.layout, li, v, flit);
        self.dirty.insert(n);
        let inj = &mut self.injectors[n];
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
