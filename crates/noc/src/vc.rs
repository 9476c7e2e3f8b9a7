//! Virtual channels.
//!
//! Each physical channel of a router has a number of virtual channels
//! (VCs): FIFO flit buffers holding flits of different pending messages
//! (paper §3.2: 3 VCs per physical channel, each one 4-flit message deep).
//! A VC is *owned* by the packet whose head flit allocated it; ownership
//! is released when the tail flit drains, so a packet never interleaves
//! with another inside one VC.
//!
//! Flit storage lives in the network-wide
//! [`FlitArena`](crate::packet::FlitArena); the `Vc` itself
//! is a small inline record (ring indices, owner, cached output port),
//! and a router keeps all of its VCs in one flat array
//! ([`Router`](crate::router::Router)), so a visit touches one VC record
//! and one arena line per occupied VC.

use nim_types::{Dir, PacketId};

use crate::packet::FlitFifo;

/// One virtual channel: a bounded FIFO owned by at most one packet.
///
/// Plain data: [`Router::push`](crate::router::Router::push) and
/// [`Router::drop_front`](crate::router::Router::drop_front) run the
/// owner protocol, together with the router masks that summarise it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Vc {
    pub fifo: FlitFifo,
    /// The packet whose head flit allocated the VC, until its tail leaves.
    pub owner: Option<PacketId>,
    /// Look-ahead route of the packet the VC holds: the output port its
    /// flits request at this router. A head flit only ever enters an
    /// empty VC, so the route is computed once, as the head becomes the
    /// front, and a blocked flit costs no routing on later cycles.
    /// Derived state: meaningful only while the VC is non-empty.
    pub out: Dir,
}

impl Vc {
    /// The VC slot of a port the router does not have: zero capacity,
    /// never written.
    pub(crate) const ABSENT: Vc = Vc {
        fifo: FlitFifo::ABSENT,
        owner: None,
        out: Dir::Local,
    };

    /// Whether a head flit of a *new* packet may allocate this VC.
    #[inline]
    pub(crate) fn is_free(&self) -> bool {
        self.owner.is_none() && self.fifo.is_empty()
    }

    /// Whether a non-head flit of `pkt` may enter (right owner, space left).
    #[inline]
    pub(crate) fn accepts_continuation(&self, pkt: PacketId) -> bool {
        self.owner == Some(pkt) && !self.fifo.is_full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Flit, FlitArena, FlitKind, TrafficClass};
    use crate::router::Router;
    use crate::routing::{Routing, VerticalMode};
    use nim_topology::ChipLayout;
    use nim_types::{Coord, Cycle, SystemConfig};

    const EAST: usize = Dir::East.index();

    fn flit(pkt: u64, kind: FlitKind) -> Flit {
        Flit {
            pkt: PacketId(pkt),
            kind,
            src: Coord::new(0, 0, 0),
            dst: Coord::new(1, 1, 0),
            via: None,
            class: TrafficClass::Data,
            token: 0,
            injected: Cycle::ZERO,
            arrived: Cycle::ZERO,
            hops: 0,
            bus_wait: 0,
        }
    }

    /// A router at the origin with one east input port of `vcs` VCs.
    fn one_port(vcs: usize) -> (FlitArena, Routing, Router) {
        let layout = ChipLayout::new(&SystemConfig::default()).unwrap();
        let mut arena = FlitArena::default();
        let r = Router::new(&mut arena, Coord::new(0, 0, 0), &[Dir::East], vcs, 4);
        (arena, Routing::new(&layout, VerticalMode::Pillars), r)
    }

    /// Reads the front flit of `(in_dir, vc)` and drops it, as a move does.
    fn take(r: &mut Router, arena: &FlitArena, in_dir: usize, vc: usize) -> Flit {
        let f = *r.vc(in_dir, vc).fifo.front(arena).expect("non-empty VC");
        r.drop_front(in_dir, vc, f.kind.is_tail());
        f
    }

    #[test]
    fn ownership_lifecycle() {
        let (mut arena, rt, mut r) = one_port(1);
        assert!(r.vc(EAST, 0).is_free());
        r.push(&mut arena, &rt, EAST, 0, flit(1, FlitKind::Head));
        assert!(!r.vc(EAST, 0).is_free());
        assert!(r.vc(EAST, 0).accepts_continuation(PacketId(1)));
        assert!(!r.vc(EAST, 0).accepts_continuation(PacketId(2)));
        r.push(&mut arena, &rt, EAST, 0, flit(1, FlitKind::Body));
        r.push(&mut arena, &rt, EAST, 0, flit(1, FlitKind::Body));
        r.push(&mut arena, &rt, EAST, 0, flit(1, FlitKind::Tail));
        assert!(!r.vc(EAST, 0).accepts_continuation(PacketId(1)), "full");
        assert_eq!(take(&mut r, &arena, EAST, 0).kind, FlitKind::Head);
        assert_eq!(take(&mut r, &arena, EAST, 0).kind, FlitKind::Body);
        assert!(!r.vc(EAST, 0).is_free(), "owner retained until tail leaves");
        assert_eq!(r.free_vc(EAST), None, "drained for now, but still owned");
        take(&mut r, &arena, EAST, 0);
        take(&mut r, &arena, EAST, 0);
        assert!(r.vc(EAST, 0).is_free(), "tail leaving releases ownership");
        r.check_invariants(&arena, &rt);
    }

    #[test]
    fn single_flit_packet_frees_immediately() {
        let (mut arena, rt, mut r) = one_port(1);
        r.push(&mut arena, &rt, EAST, 0, flit(9, FlitKind::HeadTail));
        assert!(!r.vc(EAST, 0).is_free());
        take(&mut r, &arena, EAST, 0);
        assert!(r.vc(EAST, 0).is_free());
    }

    #[test]
    fn input_port_vc_selection() {
        let (mut arena, rt, mut r) = one_port(3);
        assert_eq!(r.free_vc(EAST), Some(0));
        r.push(&mut arena, &rt, EAST, 0, flit(1, FlitKind::Head));
        assert_eq!(r.free_vc(EAST), Some(1), "skips the owned VC");
        assert_eq!(r.continuation_vc(EAST, PacketId(1)), Some(0));
        assert_eq!(r.continuation_vc(EAST, PacketId(2)), None);
        assert_eq!(r.occupancy(), 1);
        assert_eq!(r.vc(EAST, 0).out, Dir::East, "route cached at head push");
        r.check_invariants(&arena, &rt);
    }

    #[test]
    fn all_vcs_busy_blocks_new_heads() {
        let (mut arena, rt, mut r) = one_port(2);
        r.push(&mut arena, &rt, EAST, 0, flit(1, FlitKind::Head));
        r.push(&mut arena, &rt, EAST, 1, flit(2, FlitKind::Head));
        assert_eq!(r.free_vc(EAST), None);
    }
}
