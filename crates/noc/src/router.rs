//! Single-stage wormhole router state.
//!
//! The paper adopts speculative allocation and look-ahead routing to get a
//! single-cycle router (§3.2, citing Peh & Dally and Mullins et al.). We
//! model the *resulting timing*: a flit that wins switch allocation
//! traverses to the next router's input buffer in one cycle; a flit that
//! loses retries the next cycle. The look-ahead route is computed once,
//! as a head flit enters its VC, and cached there ([`Vc::out`]).
//!
//! Pillar routers carry one extra physical channel — the `Vertical` port —
//! interfacing the dTDMA bus (Figure 7); the router sees it as just
//! another port. The 7-port 3D-mesh ablation router instead carries `Up`
//! and `Down` ports.
//!
//! # Hot state
//!
//! Three masks answer everything the router phase asks without a walk
//! over VC slots: `occ` (non-empty VCs), `owned` (VCs a packet holds) and
//! `held_mask` (outputs streaming a packet). A VC's bit is
//! `in_dir * 8 + vc` — eight bits per port whatever the VC count, which
//! `SystemConfig::validate` caps at 8. [`Router::push`] and
//! [`Router::pop`] are the only code that moves a flit in or out of a
//! VC, which keeps masks and `occupancy` exact by construction; none of
//! it is serialized (DESIGN.md §6e).

use nim_types::{bits, Coord, Dir, PacketId};

use crate::packet::{Flit, FlitArena, FlitFifo};
use crate::routing::Routing;
use crate::vc::Vc;

/// An output port held by an in-flight packet (wormhole: once a head flit
/// claims an output, body flits follow contiguously until the tail).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Hold {
    pub pkt: PacketId,
    /// Input direction the packet is streaming from.
    pub in_dir: u8,
    /// VC index within that input port.
    pub vc: u8,
}

nim_types::codec_struct!(Hold { pkt, in_dir, vc });

/// Mask position of VC `vc` of input port `in_dir`.
#[inline]
pub(crate) fn vc_bit(in_dir: usize, vc: usize) -> usize {
    in_dir << 3 | vc
}

/// One router: a flat array of input VCs plus switch-allocation state.
#[derive(Clone, Debug)]
pub(crate) struct Router {
    pub coord: Coord,
    /// Node index of the router each mesh / `Up` / `Down` output links
    /// to, filled in by the network builder (unused entries stay 0).
    pub next: [u32; Dir::COUNT],
    /// Ports that exist (each is an input and an output), as a bitmask
    /// over [`Dir::index`].
    ports: u8,
    /// Outputs with a wormhole hold; `held[o]` is meaningful iff bit `o`.
    held_mask: u8,
    vcs_per_port: u8,
    /// Non-empty VCs, bit [`vc_bit`].
    occ: u64,
    /// VCs owned by a packet (possibly drained for the moment), same bits.
    owned: u64,
    /// Total flits buffered in this router.
    occupancy: u32,
    held: [Hold; Dir::COUNT],
    /// Per-output round-robin arbitration pointer: the [`vc_bit`]
    /// position that wins arbitration first.
    pub rr: [u8; Dir::COUNT],
    /// Every input VC, indexed `in_dir * vcs_per_port + vc`; the slots of
    /// ports that do not exist are [`Vc::ABSENT`].
    vcs: Box<[Vc]>,
}

impl Router {
    /// Creates a router with input and output ports in `ports`.
    pub(crate) fn new(
        arena: &mut FlitArena,
        coord: Coord,
        ports: &[Dir],
        vcs: usize,
        depth: usize,
    ) -> Self {
        assert!((1..=8).contains(&vcs), "1 to 8 VCs per port");
        let mut slots = vec![Vc::ABSENT; Dir::COUNT * vcs].into_boxed_slice();
        let mut mask = 0u8;
        for d in ports {
            mask |= 1 << d.index();
            for vc in &mut slots[d.index() * vcs..][..vcs] {
                vc.fifo = FlitFifo::new(arena, depth);
            }
        }
        Self {
            coord,
            next: [0; Dir::COUNT],
            ports: mask,
            held_mask: 0,
            vcs_per_port: vcs as u8,
            occ: 0,
            owned: 0,
            occupancy: 0,
            held: [Hold {
                pkt: PacketId(u64::MAX),
                in_dir: 0,
                vc: 0,
            }; Dir::COUNT],
            rr: [0; Dir::COUNT],
            vcs: slots,
        }
    }

    /// The ports that exist, as a bitmask over [`Dir::index`].
    #[inline]
    pub(crate) fn ports(&self) -> u8 {
        self.ports
    }

    /// Whether the router has a port in direction index `dir`.
    #[inline]
    pub(crate) fn has_port(&self, dir: usize) -> bool {
        self.ports >> dir & 1 != 0
    }

    #[inline]
    pub(crate) fn vcs_per_port(&self) -> usize {
        usize::from(self.vcs_per_port)
    }

    /// Total flits buffered in this router.
    #[inline]
    pub(crate) fn occupancy(&self) -> u32 {
        self.occupancy
    }

    #[inline]
    pub(crate) fn vc(&self, in_dir: usize, vc: usize) -> &Vc {
        &self.vcs[in_dir * self.vcs_per_port() + vc]
    }

    /// Index of a VC of port `in_dir` a new packet's head flit may
    /// allocate: the lowest one neither owned nor holding flits.
    #[inline]
    pub(crate) fn free_vc(&self, in_dir: usize) -> Option<usize> {
        debug_assert!(self.has_port(in_dir), "link implies input port");
        let free = !(self.occ | self.owned) >> (in_dir << 3) & ((1 << self.vcs_per_port) - 1);
        (free != 0).then(|| free.trailing_zeros() as usize)
    }

    /// Index of the VC of port `in_dir` owned by `pkt` with space for
    /// another flit.
    #[inline]
    pub(crate) fn continuation_vc(&self, in_dir: usize, pkt: PacketId) -> Option<usize> {
        bits(self.owned >> (in_dir << 3) & 0xff)
            .find(|&v| self.vc(in_dir, v).accepts_continuation(pkt))
    }

    /// Pushes a flit into VC `vc` of port `in_dir`, caching the packet's
    /// output port when the flit is a head.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the push violates ownership or capacity — callers
    /// check [`free_vc`](Self::free_vc) /
    /// [`continuation_vc`](Self::continuation_vc) first.
    #[inline]
    pub(crate) fn push(
        &mut self,
        arena: &mut FlitArena,
        rt: &Routing,
        in_dir: usize,
        vc: usize,
        flit: Flit,
    ) {
        let bit = 1u64 << vc_bit(in_dir, vc);
        let slot = &mut self.vcs[in_dir * self.vcs_per_port as usize + vc];
        if flit.kind.is_head() {
            debug_assert!(slot.is_free(), "head flit into occupied VC");
            slot.owner = Some(flit.pkt);
            slot.out = rt.out(self.coord, flit.dst, flit.via);
            self.owned |= bit;
        } else {
            debug_assert!(
                slot.accepts_continuation(flit.pkt),
                "continuation flit into foreign or full VC"
            );
        }
        slot.fifo.push_back(arena, flit);
        self.occ |= bit;
        self.occupancy += 1;
    }

    /// Pops the front flit of VC `vc` of port `in_dir`.
    ///
    /// # Panics
    ///
    /// Panics if the VC is empty.
    #[inline]
    pub(crate) fn pop(&mut self, arena: &FlitArena, in_dir: usize, vc: usize) -> Flit {
        let bit = 1u64 << vc_bit(in_dir, vc);
        let slot = &mut self.vcs[in_dir * self.vcs_per_port as usize + vc];
        let flit = slot.fifo.pop_front(arena).expect("pop from an empty VC");
        if slot.fifo.is_empty() {
            self.occ &= !bit;
        }
        if flit.kind.is_tail() {
            debug_assert!(slot.fifo.is_empty(), "flits behind a tail");
            slot.owner = None;
            self.owned &= !bit;
        }
        self.occupancy -= 1;
        flit
    }

    /// The front flit of every non-empty VC, in ascending (port, VC)
    /// order, as `(vc_bit, cached output port, flit)` — the scan behind
    /// switch allocation.
    #[inline]
    pub(crate) fn fronts<'a>(
        &'a self,
        arena: &'a FlitArena,
    ) -> impl Iterator<Item = (usize, Dir, &'a Flit)> + 'a {
        bits(self.occ).map(move |bit| {
            let vc = self.vc(bit >> 3, bit & 7);
            let front = vc.fifo.front(arena).expect("occupancy bit on an empty VC");
            (bit, vc.out, front)
        })
    }

    /// Outputs currently held by a packet, as a bitmask over
    /// [`Dir::index`].
    #[inline]
    pub(crate) fn held_mask(&self) -> u8 {
        self.held_mask
    }

    /// The wormhole hold on output `oi`, if any.
    #[inline]
    pub(crate) fn hold(&self, oi: usize) -> Option<Hold> {
        (self.held_mask >> oi & 1 != 0).then(|| self.held[oi])
    }

    #[inline]
    pub(crate) fn set_hold(&mut self, oi: usize, hold: Option<Hold>) {
        match hold {
            Some(h) => {
                self.held[oi] = h;
                self.held_mask |= 1 << oi;
            }
            None => self.held_mask &= !(1 << oi),
        }
    }

    /// Moves output `oi`'s round-robin pointer just past the winner at
    /// `bit`, wrapping VC into port and port into 0 by compare.
    #[inline]
    pub(crate) fn advance_rr(&mut self, oi: usize, bit: usize) {
        let (mut in_dir, mut vc) = (bit >> 3, (bit & 7) + 1);
        if vc == self.vcs_per_port() {
            vc = 0;
            in_dir += 1;
            if in_dir == Dir::COUNT {
                in_dir = 0;
            }
        }
        self.rr[oi] = vc_bit(in_dir, vc) as u8;
    }

    /// Refills an empty VC from a snapshot image: `flits` oldest-first,
    /// `owner` as recorded (a mid-stream packet may have no head flit
    /// here), masks and the cached route rebuilt from what was pushed.
    pub(crate) fn restore_vc(
        &mut self,
        arena: &mut FlitArena,
        rt: &Routing,
        (in_dir, vc): (usize, usize),
        flits: &[Flit],
        owner: Option<PacketId>,
    ) {
        let bit = 1u64 << vc_bit(in_dir, vc);
        let slot = &mut self.vcs[in_dir * self.vcs_per_port as usize + vc];
        debug_assert!(slot.is_free());
        for &f in flits {
            slot.fifo.push_back(arena, f);
        }
        slot.owner = owner;
        if let Some(front) = flits.first() {
            slot.out = rt.out(self.coord, front.dst, front.via);
            self.occ |= bit;
        }
        if owner.is_some() {
            self.owned |= bit;
        }
        self.occupancy += flits.len() as u32;
    }

    /// Asserts that the masks, counters and cached routes agree with the
    /// VC contents they summarise. Returns the buffered flit count.
    ///
    /// # Panics
    ///
    /// Panics, naming the router and VC, on the first disagreement.
    pub(crate) fn check_invariants(&self, arena: &FlitArena, rt: &Routing) -> u64 {
        let at = self.coord;
        let mut flits = 0;
        for in_dir in 0..Dir::COUNT {
            for v in 0..self.vcs_per_port() {
                let (vc, bit) = (self.vc(in_dir, v), 1u64 << vc_bit(in_dir, v));
                let what = format_args!("{at} port {in_dir} VC {v}");
                assert!(self.has_port(in_dir) || vc.fifo.capacity() == 0, "{what}");
                assert_eq!(self.occ & bit != 0, !vc.fifo.is_empty(), "{what}: occ bit");
                assert_eq!(
                    self.owned & bit != 0,
                    vc.owner.is_some(),
                    "{what}: owner bit"
                );
                if let Some(f) = vc.fifo.front(arena) {
                    assert_eq!(vc.out, rt.out(at, f.dst, f.via), "{what}: cached route");
                }
                flits += vc.fifo.len() as u64;
            }
        }
        assert_eq!(u64::from(self.occupancy), flits, "{at}: occupancy");
        assert_eq!(
            self.held_mask & !self.ports,
            0,
            "{at}: hold on absent output"
        );
        // A held output streams from an existing VC its packet still owns.
        for oi in bits(u64::from(self.held_mask)) {
            let h = self.held[oi];
            let (in_dir, v) = (usize::from(h.in_dir), usize::from(h.vc));
            assert!(
                self.has_port(in_dir) && v < self.vcs_per_port(),
                "{at}: hold {oi}"
            );
            assert_eq!(self.vc(in_dir, v).owner, Some(h.pkt), "{at}: hold {oi}");
        }
        flits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_are_created_where_requested() {
        let mut arena = FlitArena::default();
        let r = Router::new(
            &mut arena,
            Coord::new(0, 0, 0),
            &[Dir::East, Dir::North, Dir::Local],
            3,
            4,
        );
        assert!(r.has_port(Dir::East.index()));
        assert!(!r.has_port(Dir::West.index()));
        assert_eq!(r.ports().count_ones(), 3);
        assert_eq!(r.occupancy(), 0);
        assert_eq!(r.vc(Dir::East.index(), 2).fifo.capacity(), 4);
        assert_eq!(r.vc(Dir::West.index(), 0).fifo.capacity(), 0);
    }

    #[test]
    fn pillar_router_has_six_ports() {
        let dirs = [
            Dir::North,
            Dir::South,
            Dir::East,
            Dir::West,
            Dir::Local,
            Dir::Vertical,
        ];
        let mut arena = FlitArena::default();
        let r = Router::new(&mut arena, Coord::new(2, 2, 0), &dirs, 3, 4);
        assert_eq!(
            r.ports().count_ones(),
            6,
            "5-port mesh router + 1 vertical (paper §3.1)"
        );
    }

    #[test]
    fn round_robin_pointer_wraps_by_port_then_to_zero() {
        let mut arena = FlitArena::default();
        let mut r = Router::new(&mut arena, Coord::new(0, 0, 0), &[Dir::Local], 3, 4);
        r.advance_rr(0, vc_bit(2, 1));
        assert_eq!(usize::from(r.rr[0]), vc_bit(2, 2));
        r.advance_rr(0, vc_bit(2, 2));
        assert_eq!(usize::from(r.rr[0]), vc_bit(3, 0), "port wraps to the next");
        r.advance_rr(0, vc_bit(7, 2));
        assert_eq!(r.rr[0], 0, "last VC of the last port wraps to 0");
    }
}
