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
//! `SystemConfig::validate` caps at 8 — and the VC record itself sits at
//! that bit's slot of a fixed 64-slot array. [`Router::push`] and
//! [`Router::drop_front`] are the only code that moves a flit in or out
//! of a VC, which keeps masks and `occupancy` exact by construction
//! (DESIGN.md §6e).

use nim_types::{bits, Coord, Dir, PacketId};

use crate::packet::{Flit, FlitArena, FlitFifo};
use crate::routing::{route_reference, Routing};
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

/// Mask position of VC `vc` of input port `in_dir`.
#[inline]
pub(crate) fn vc_bit(in_dir: usize, vc: usize) -> usize {
    in_dir << 3 | vc
}

/// VC slots per router: eight per port, one per mask bit.
const SLOTS: usize = Dir::COUNT * 8;

/// The slot of VC `vc` of port `in_dir`: its mask bit, masked so the
/// index needs no bounds check (`in_dir < 8` and `vc < 8` make the mask a
/// no-op).
#[inline]
fn vc_slot(in_dir: usize, vc: usize) -> usize {
    debug_assert!(in_dir < Dir::COUNT && vc < 8, "VC ({in_dir}, {vc})");
    vc_bit(in_dir, vc) & (SLOTS - 1)
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
    /// Every input VC at its [`vc_bit`]; the slots of ports that do not
    /// exist, and of VCs past `vcs_per_port`, are [`Vc::ABSENT`].
    vcs: [Vc; SLOTS],
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
        let mut slots = [Vc::ABSENT; SLOTS];
        let mut mask = 0u8;
        for d in ports {
            mask |= 1 << d.index();
            for vc in &mut slots[vc_bit(d.index(), 0)..][..vcs] {
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
        &self.vcs[vc_slot(in_dir, vc)]
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
        let slot = &mut self.vcs[vc_slot(in_dir, vc)];
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

    /// Drops the front flit of VC `vc` of port `in_dir`: the flit the
    /// caller has already read and moved, `tail` telling whether it was
    /// a tail (which releases the VC).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the VC is empty.
    #[inline]
    pub(crate) fn drop_front(&mut self, in_dir: usize, vc: usize, tail: bool) {
        let bit = 1u64 << vc_bit(in_dir, vc);
        let slot = &mut self.vcs[vc_slot(in_dir, vc)];
        slot.fifo.advance();
        if slot.fifo.is_empty() {
            self.occ &= !bit;
        }
        if tail {
            debug_assert!(slot.fifo.is_empty(), "flits behind a tail");
            slot.owner = None;
            self.owned &= !bit;
        }
        self.occupancy -= 1;
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

    /// Asserts that the masks, counters and cached routes agree with the
    /// VC contents they summarise; a cached route is checked against
    /// [`route_reference`], not the `route` that filled it. Returns the
    /// buffered flit count.
    ///
    /// # Panics
    ///
    /// Panics, naming the router and VC, on the first disagreement.
    pub(crate) fn check_invariants(&self, arena: &FlitArena, rt: &Routing) -> u64 {
        let at = self.coord;
        let mut flits = 0;
        for (bit, vc) in self.vcs.iter().enumerate() {
            let (in_dir, v) = (bit >> 3, bit & 7);
            let what = format_args!("{at} port {in_dir} VC {v}");
            assert!(
                self.has_port(in_dir) && v < self.vcs_per_port() || vc.fifo.capacity() == 0,
                "{what}"
            );
            assert_eq!(
                self.occ >> bit & 1 != 0,
                !vc.fifo.is_empty(),
                "{what}: occ bit"
            );
            assert_eq!(
                self.owned >> bit & 1 != 0,
                vc.owner.is_some(),
                "{what}: owner bit"
            );
            if let Some(f) = vc.fifo.front(arena) {
                let want = route_reference(&rt.layout, rt.mode, at, f.dst, f.via);
                assert_eq!(vc.out, want, "{what}: cached route");
            }
            flits += vc.fifo.len() as u64;
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

    /// What the removed `Router::pop` did: read the front flit, advance
    /// the FIFO, clear the occupancy bit when it empties, and release
    /// the VC by the kind of the flit it read.
    fn pop_reference(r: &mut Router, arena: &FlitArena, in_dir: usize, vc: usize) -> Flit {
        let bit = 1u64 << vc_bit(in_dir, vc);
        let v = &mut r.vcs[vc_slot(in_dir, vc)];
        let flit = *v.fifo.front(arena).expect("pop from an empty VC");
        v.fifo.advance();
        if v.fifo.is_empty() {
            r.occ &= !bit;
        }
        if flit.kind.is_tail() {
            v.owner = None;
            r.owned &= !bit;
        }
        r.occupancy -= 1;
        flit
    }

    #[test]
    fn drop_front_after_front_leaves_the_state_pop_left() {
        use crate::packet::{FlitKind, TrafficClass};
        use crate::routing::VerticalMode;
        use nim_topology::ChipLayout;
        use nim_types::{Cycle, SystemConfig};

        let layout = ChipLayout::new(&SystemConfig::default()).unwrap();
        let rt = Routing::new(&layout, VerticalMode::Pillars);
        let mut arena = FlitArena::default();
        let e = Dir::East.index();
        let mut a = Router::new(&mut arena, Coord::new(1, 1, 0), &[Dir::East], 2, 4);
        let mut b = Router::new(&mut arena, Coord::new(1, 1, 0), &[Dir::East], 2, 4);
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
                        r.push(&mut arena, &rt, e, vc, flit(pkt, seq, len));
                    }
                }
                Pop(vc) => {
                    let popped = pop_reference(&mut a, &arena, e, vc);
                    let front = *b.vc(e, vc).fifo.front(&arena).unwrap();
                    b.drop_front(e, vc, front.kind.is_tail());
                    assert_eq!(front, popped, "step {i}");
                }
            }
            assert_eq!(
                (a.occ, a.owned, a.occupancy),
                (b.occ, b.owned, b.occupancy),
                "step {i}"
            );
            for vc in 0..2 {
                assert_eq!(a.vc(e, vc).owner, b.vc(e, vc).owner, "step {i} VC {vc}");
                assert_eq!(a.vc(e, vc).fifo.len(), b.vc(e, vc).fifo.len(), "step {i}");
            }
            b.check_invariants(&arena, &rt);
        }
        assert_eq!((b.occ, b.owned, b.occupancy), (0, 0, 0), "script drains");
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
