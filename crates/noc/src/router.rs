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
//! another port.
//!
//! # Hot state
//!
//! Three masks answer everything the router phase asks without a walk
//! over VC records: `occ` (non-empty VCs), `owned` (VCs a packet holds)
//! and `held_mask` (outputs streaming a packet). A VC's bit is
//! `in_dir * 8 + vc` — eight bits per port whatever the VC count, which
//! `SystemConfig::validate` caps at 8, so a port's VCs are one byte of a
//! mask. The VC records themselves are dense: `vcs_per_port` of them per
//! port the router has, in ascending port order in one boxed slice, with
//! VC `vc` of port `in_dir` at `base[in_dir] + vc`. [`Router::link`]
//! (behind [`Router::push`]) and [`Router::unlink_front`] (behind
//! [`Router::drop_front`]) are the only code that moves a flit in or out
//! of a VC, which keeps masks and `occupancy` exact by construction
//! (DESIGN.md §6e).

use nim_topology::ChipLayout;
use nim_types::{bits, Coord, Dir, PacketId};

use crate::packet::{Flit, FlitArena, FlitFifo};
use crate::routing::{route, route_reference};
use crate::vc::Vc;

/// An output port held by an in-flight packet (wormhole: once a head flit
/// claims an output, body flits follow contiguously until the tail). The
/// held input VC's owner names the packet.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Hold {
    /// Input direction the packet is streaming from.
    pub(crate) in_dir: u8,
    /// VC index within that input port.
    pub(crate) vc: u8,
}

/// Mask position of VC `vc` of input port `in_dir`.
#[inline]
pub(crate) fn vc_bit(in_dir: usize, vc: usize) -> usize {
    in_dir << 3 | vc
}

/// One input VC of one router, located once: its mask bit ([`vc_bit`])
/// and its index in the router's VC slice. A move locates its source VC
/// once and hands this to the front read and to [`Router::unlink_front`]
/// or [`Router::drop_front`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct VcAt {
    bit: usize,
    slot: usize,
}

/// One router: the input VCs of the ports it has, plus switch-allocation
/// state.
#[derive(Clone, Debug)]
pub(crate) struct Router {
    pub(crate) coord: Coord,
    /// Where each output leads, filled in by the network builder: the
    /// node index of the router a mesh output links to, and on a pillar
    /// node the transceiver-interface slot (`bus * layers + layer`) the
    /// `Vertical` output fills. Other entries stay 0.
    pub(crate) next: [u32; Dir::COUNT],
    /// Ports that exist (each is an input and an output), as a bitmask
    /// over [`Dir::index`].
    ports: u8,
    /// Outputs with a wormhole hold; `held[o]` is meaningful iff bit `o`.
    held_mask: u8,
    vcs_per_port: u8,
    /// Index in `vcs` of each port's VC 0, by [`Dir::index`]; 0 for a
    /// port that does not exist, which no caller asks for. Eight entries,
    /// so that a port index masked to 3 bits needs no bounds check.
    base: [u8; 8],
    /// Non-empty VCs, bit [`vc_bit`].
    occ: u64,
    /// VCs owned by a packet (possibly drained for the moment), same bits.
    owned: u64,
    /// Total flits buffered in this router.
    occupancy: u32,
    held: [Hold; Dir::COUNT],
    /// Per-output round-robin arbitration pointer: the [`vc_bit`]
    /// position that wins arbitration first.
    pub(crate) rr: [u8; Dir::COUNT],
    /// The input VCs of the ports in `ports`, `vcs_per_port` per port in
    /// ascending [`Dir::index`] order.
    vcs: Box<[Vc]>,
}

impl Router {
    /// Creates a router with input and output ports in `ports`.
    pub(crate) fn new(coord: Coord, ports: &[Dir], vcs: usize, depth: usize) -> Self {
        assert!((1..=8).contains(&vcs), "1 to 8 VCs per port");
        let mask = ports.iter().fold(0u8, |m, d| m | 1 << d.index());
        let mut base = [0; 8];
        for (i, d) in bits(u64::from(mask)).enumerate() {
            base[d] = (i * vcs) as u8;
        }
        let vc = Vc {
            fifo: FlitFifo::new(depth),
            owner: PacketId(0),
            out: Dir::Local,
        };
        Self {
            coord,
            next: [0; Dir::COUNT],
            ports: mask,
            held_mask: 0,
            vcs_per_port: vcs as u8,
            base,
            occ: 0,
            owned: 0,
            occupancy: 0,
            held: [Hold { in_dir: 0, vc: 0 }; Dir::COUNT],
            rr: [0; Dir::COUNT],
            vcs: vec![vc; mask.count_ones() as usize * vcs].into_boxed_slice(),
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

    /// The non-empty VCs, as a mask over [`vc_bit`].
    #[inline]
    pub(crate) fn occupied(&self) -> u64 {
        self.occ
    }

    /// Total flits buffered in this router.
    #[inline]
    pub(crate) fn occupancy(&self) -> u32 {
        self.occupancy
    }

    /// Index in `vcs` of VC `vc` of port `in_dir`.
    #[inline]
    fn slot(&self, in_dir: usize, vc: usize) -> usize {
        debug_assert!(
            self.has_port(in_dir) && vc < self.vcs_per_port(),
            "VC ({in_dir}, {vc})"
        );
        usize::from(self.base[in_dir & 7]) + vc
    }

    #[inline]
    pub(crate) fn vc(&self, in_dir: usize, vc: usize) -> &Vc {
        &self.vcs[self.slot(in_dir, vc)]
    }

    /// Locates VC `vc` of port `in_dir`.
    #[inline]
    pub(crate) fn at(&self, in_dir: usize, vc: usize) -> VcAt {
        VcAt {
            bit: vc_bit(in_dir, vc),
            slot: self.slot(in_dir, vc),
        }
    }

    /// The VC `at` locates.
    #[inline]
    pub(crate) fn vc_at(&self, at: VcAt) -> &Vc {
        &self.vcs[at.slot]
    }

    /// The packet that owns VC `vc` of port `in_dir`, if any.
    #[inline]
    pub(crate) fn owner(&self, in_dir: usize, vc: usize) -> Option<PacketId> {
        (self.owned >> vc_bit(in_dir, vc) & 1 != 0).then(|| self.vc(in_dir, vc).owner)
    }

    /// Whether a head flit of a *new* packet may allocate VC `vc` of port
    /// `in_dir`: no packet owns it and it holds no flit.
    #[inline]
    pub(crate) fn is_free(&self, in_dir: usize, vc: usize) -> bool {
        (self.occ | self.owned) >> vc_bit(in_dir, vc) & 1 == 0
    }

    /// Whether a non-head flit of `pkt` may enter VC `vc` of port
    /// `in_dir` (right owner, space left).
    #[inline]
    pub(crate) fn accepts_continuation(&self, in_dir: usize, vc: usize, pkt: PacketId) -> bool {
        let v = self.vc(in_dir, vc);
        self.owned >> vc_bit(in_dir, vc) & 1 != 0 && v.owner == pkt && !v.fifo.is_full()
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
        // Walks owned bits only, so the owner field is meaningful here.
        bits(self.owned >> (in_dir << 3) & 0xff).find(|&v| {
            let vc = self.vc(in_dir, v);
            vc.owner == pkt && !vc.fifo.is_full()
        })
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
        layout: &ChipLayout,
        in_dir: usize,
        vc: usize,
        flit: Flit,
    ) {
        let s = arena.take(flit);
        self.link(arena, layout, in_dir, vc, s);
    }

    /// [`push`](Self::push) for a flit already in the arena: links slot
    /// `s`, which [`unlink_front`](Self::unlink_front) or
    /// `FlitFifo::unlink_front` took off its last FIFO, so a hop moves
    /// the slot and copies no flit.
    #[inline]
    pub(crate) fn link(
        &mut self,
        arena: &mut FlitArena,
        layout: &ChipLayout,
        in_dir: usize,
        vc: usize,
        s: u32,
    ) {
        let flit = arena.flit(s);
        debug_assert!(
            !flit.kind.is_head() || self.is_free(in_dir, vc),
            "head flit into occupied VC"
        );
        debug_assert!(
            flit.kind.is_head() || self.accepts_continuation(in_dir, vc, flit.pkt),
            "continuation flit into foreign or full VC"
        );
        let bit = 1u64 << vc_bit(in_dir, vc);
        let i = self.slot(in_dir, vc);
        let slot = &mut self.vcs[i];
        if flit.kind.is_head() {
            slot.owner = flit.pkt;
            slot.out = route(layout, self.coord, flit.dst, flit.via);
            self.owned |= bit;
        }
        slot.fifo.link_back(arena, s);
        self.occ |= bit;
        self.occupancy += 1;
    }

    /// Drops the front flit of the VC `at` locates, freeing its arena
    /// slot: the flit the caller has already read and moved, `tail`
    /// telling whether it was a tail (which releases the VC).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the VC is empty.
    #[inline]
    pub(crate) fn drop_front(&mut self, arena: &mut FlitArena, at: VcAt, tail: bool) {
        let s = self.unlink_front(arena, at, tail);
        arena.release(s);
    }

    /// [`drop_front`](Self::drop_front) without the free: returns the
    /// front flit's slot, still holding the flit, for
    /// [`link`](Self::link) or `FlitFifo::link_back` downstream.
    #[inline]
    pub(crate) fn unlink_front(&mut self, arena: &FlitArena, at: VcAt, tail: bool) -> u32 {
        let bit = 1u64 << at.bit;
        let fifo = &mut self.vcs[at.slot].fifo;
        let s = fifo.unlink_front(arena);
        if fifo.is_empty() {
            self.occ &= !bit;
        }
        if tail {
            debug_assert!(fifo.is_empty(), "flits behind a tail");
            self.owned &= !bit;
        }
        self.occupancy -= 1;
        s
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

    /// Every VC's FIFO.
    pub(crate) fn fifos(&self) -> impl Iterator<Item = &FlitFifo> {
        self.vcs.iter().map(|vc| &vc.fifo)
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

    /// Asserts that the router holds `vcs_per_port` VC records for each
    /// port it has, and that the masks, counters and cached routes agree
    /// with the VC contents they summarise; a cached route is checked against
    /// [`route_reference`], not the `route` that filled it. Returns the
    /// buffered flit count.
    ///
    /// # Panics
    ///
    /// Panics, naming the router and VC, on the first disagreement.
    pub(crate) fn check_invariants(&self, arena: &FlitArena, layout: &ChipLayout) -> u64 {
        let at = self.coord;
        let per_port = self.vcs_per_port();
        assert_eq!(
            self.vcs.len(),
            self.ports.count_ones() as usize * per_port,
            "{at}: VC records"
        );
        // The mask bits of the VCs that exist; no other bit may be set.
        let mut present = 0u64;
        let mut flits = 0;
        for in_dir in bits(u64::from(self.ports)) {
            present |= ((1 << per_port) - 1) << vc_bit(in_dir, 0);
            for v in 0..per_port {
                let (bit, vc) = (vc_bit(in_dir, v), self.vc(in_dir, v));
                let what = format_args!("{at} port {in_dir} VC {v}");
                assert!(vc.fifo.len() <= vc.fifo.capacity(), "{what}: overfull");
                assert_eq!(
                    self.occ >> bit & 1 != 0,
                    !vc.fifo.is_empty(),
                    "{what}: occ bit"
                );
                if let Some(f) = vc.fifo.front(arena) {
                    let want = route_reference(layout, at, f.dst, f.via);
                    assert_eq!(vc.out, want, "{what}: cached route");
                }
                flits += vc.fifo.len() as u64;
            }
        }
        assert_eq!(
            (self.occ | self.owned) & !present,
            0,
            "{at}: mask bit of an absent VC"
        );
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
            assert!(self.owner(in_dir, v).is_some(), "{at}: hold {oi}");
        }
        flits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_are_created_where_requested() {
        let r = Router::new(
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
        assert_eq!(r.vcs.len(), 3 * 3, "VC records only for the ports it has");
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
        let r = Router::new(Coord::new(2, 2, 0), &dirs, 3, 4);
        assert_eq!(
            r.ports().count_ones(),
            6,
            "5-port mesh router + 1 vertical (paper §3.1)"
        );
    }

    /// What the removed `Router::pop` did: read the front flit, advance
    /// the FIFO, clear the occupancy bit when it empties, and release
    /// the VC by the kind of the flit it read.
    fn pop_reference(r: &mut Router, arena: &mut FlitArena, in_dir: usize, vc: usize) -> Flit {
        let bit = 1u64 << vc_bit(in_dir, vc);
        let fifo = &mut r.vcs[r.slot(in_dir, vc)].fifo;
        let flit = *fifo.front(arena).expect("pop from an empty VC");
        fifo.advance(arena);
        if fifo.is_empty() {
            r.occ &= !bit;
        }
        if flit.kind.is_tail() {
            r.owned &= !bit;
        }
        r.occupancy -= 1;
        flit
    }

    #[test]
    fn drop_front_after_front_leaves_the_state_pop_left() {
        use crate::packet::{FlitKind, TrafficClass};
        use nim_types::{Cycle, SystemConfig};

        let layout = ChipLayout::new(&SystemConfig::default()).unwrap();
        let mut arena = FlitArena::default();
        let e = Dir::East.index();
        let mut a = Router::new(Coord::new(1, 1, 0), &[Dir::East], 2, 4);
        let mut b = Router::new(Coord::new(1, 1, 0), &[Dir::East], 2, 4);
        let flit = |pkt: u64, seq: u32, len: u32| Flit {
            pkt: PacketId(pkt),
            kind: FlitKind::for_position(seq, len),
            src: Coord::new(0, 1, 0),
            dst: Coord::new(3, 2, 0),
            via: None,
            class: TrafficClass::Data,
            token: pkt,
            injected: Cycle::ZERO,
            arrived: Cycle(u64::from(seq)),
            hops: 0,
            bus_wait: 0,
        };
        // Each step pushes (packet, flit number, packet length) into a
        // VC, or pops a VC: HeadTail packets and 4-flit packets, a VC
        // drained mid-packet, and two VCs live at once.
        enum Step {
            Push(usize, u64, u32, u32),
            Pop(usize),
        }
        use Step::{Pop, Push};
        let script = [
            Push(0, 1, 0, 1),
            Push(1, 2, 0, 4),
            Pop(0),
            Push(1, 2, 1, 4),
            Pop(1),
            Pop(1),
            Push(0, 3, 0, 1),
            Push(1, 2, 2, 4),
            Push(1, 2, 3, 4),
            Pop(0),
            Pop(1),
            Push(0, 4, 0, 4),
            Pop(1),
            Push(1, 5, 0, 1),
            Push(0, 4, 1, 4),
            Push(0, 4, 2, 4),
            Pop(0),
            Pop(1),
            Push(0, 4, 3, 4),
            Pop(0),
            Pop(0),
            Pop(0),
        ];
        for (i, step) in script.into_iter().enumerate() {
            match step {
                Push(vc, pkt, seq, len) => {
                    for r in [&mut a, &mut b] {
                        r.push(&mut arena, &layout, e, vc, flit(pkt, seq, len));
                    }
                }
                Pop(vc) => {
                    let popped = pop_reference(&mut a, &mut arena, e, vc);
                    let front = *b.vc(e, vc).fifo.front(&arena).unwrap();
                    b.drop_front(&mut arena, b.at(e, vc), front.kind.is_tail());
                    assert_eq!(front, popped, "step {i}");
                }
            }
            assert_eq!(
                (a.occ, a.owned, a.occupancy),
                (b.occ, b.owned, b.occupancy),
                "step {i}"
            );
            for vc in 0..2 {
                assert_eq!(a.owner(e, vc), b.owner(e, vc), "step {i} VC {vc}");
                assert_eq!(a.vc(e, vc).fifo.len(), b.vc(e, vc).fifo.len(), "step {i}");
            }
            b.check_invariants(&arena, &layout);
        }
        assert_eq!((b.occ, b.owned, b.occupancy), (0, 0, 0), "script drains");
    }

    #[test]
    fn round_robin_pointer_wraps_by_port_then_to_zero() {
        let mut r = Router::new(Coord::new(0, 0, 0), &[Dir::Local], 3, 4);
        r.advance_rr(0, vc_bit(2, 1));
        assert_eq!(usize::from(r.rr[0]), vc_bit(2, 2));
        r.advance_rr(0, vc_bit(2, 2));
        assert_eq!(usize::from(r.rr[0]), vc_bit(3, 0), "port wraps to the next");
        r.advance_rr(0, vc_bit(Dir::COUNT - 1, 2));
        assert_eq!(r.rr[0], 0, "last VC of the last port wraps to 0");
    }
}
