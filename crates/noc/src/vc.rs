//! Virtual channels.
//!
//! Each physical channel of a router has a number of virtual channels
//! (VCs): FIFO flit buffers holding flits of different pending messages
//! (paper §3.2: 3 VCs per physical channel, each one 4-flit message deep).
//! A VC is *owned* by the packet whose head flit allocated it; ownership
//! is released when the tail flit drains, so a packet never interleaves
//! with another inside one VC.
//!
//! A VC holds no flit storage of its own: its [`FlitFifo`] is a linked
//! list through the network-wide [`FlitArena`](crate::packet::FlitArena)
//! slab, which holds only the flits actually buffered. The `Vc` itself
//! is a 24-byte inline record (list ends, owner, cached output port),
//! and a router keeps only the VCs of the ports it has, densely in one
//! slice ([`Router`](crate::router::Router)), so a visit touches one VC
//! record and one slab slot per occupied VC. Whether a VC is owned lives
//! in the router's `owned` mask, not in the record, which is why the
//! owner is a bare [`PacketId`] and the ownership queries are
//! [`Router`](crate::router::Router) methods.

use nim_types::{Dir, PacketId};

use crate::packet::FlitFifo;

/// One virtual channel: a bounded FIFO owned by at most one packet.
///
/// Plain data: [`Router::link`](crate::router::Router::link) and
/// [`Router::unlink_front`](crate::router::Router::unlink_front) run the
/// owner protocol, together with the router masks that summarise it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Vc {
    pub(crate) fifo: FlitFifo,
    /// The packet whose head flit allocated the VC. Meaningful only while
    /// the router's `owned` bit for the VC is set: from that head's push
    /// until its tail leaves.
    pub(crate) owner: PacketId,
    /// Look-ahead route of the packet the VC holds: the output port its
    /// flits request at this router. A head flit only ever enters an
    /// empty VC, so the route is computed once, as the head becomes the
    /// front, and a blocked flit costs no routing on later cycles.
    /// Derived state: meaningful only while the VC is non-empty.
    pub(crate) out: Dir,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Flit, FlitArena, FlitKind, TrafficClass};
    use crate::router::Router;
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
    fn one_port(vcs: usize) -> (FlitArena, ChipLayout, Router) {
        let layout = ChipLayout::new(&SystemConfig::default()).unwrap();
        let r = Router::new(Coord::new(0, 0, 0), &[Dir::East], vcs, 4);
        (FlitArena::default(), layout, r)
    }

    /// Reads the front flit of `(in_dir, vc)` and drops it, as a move does.
    fn take(r: &mut Router, arena: &mut FlitArena, in_dir: usize, vc: usize) -> Flit {
        let f = *r.vc(in_dir, vc).fifo.front(arena).expect("non-empty VC");
        r.drop_front(arena, r.at(in_dir, vc), f.kind.is_tail());
        f
    }

    #[test]
    fn ownership_lifecycle() {
        let (mut arena, layout, mut r) = one_port(1);
        assert!(r.is_free(EAST, 0));
        r.push(&mut arena, &layout, EAST, 0, flit(1, FlitKind::Head));
        assert!(!r.is_free(EAST, 0));
        assert!(r.accepts_continuation(EAST, 0, PacketId(1)));
        assert!(!r.accepts_continuation(EAST, 0, PacketId(2)));
        r.push(&mut arena, &layout, EAST, 0, flit(1, FlitKind::Body));
        r.push(&mut arena, &layout, EAST, 0, flit(1, FlitKind::Body));
        r.push(&mut arena, &layout, EAST, 0, flit(1, FlitKind::Tail));
        assert!(!r.accepts_continuation(EAST, 0, PacketId(1)), "full");
        assert_eq!(take(&mut r, &mut arena, EAST, 0).kind, FlitKind::Head);
        assert_eq!(take(&mut r, &mut arena, EAST, 0).kind, FlitKind::Body);
        assert!(!r.is_free(EAST, 0), "owner retained until tail leaves");
        assert_eq!(r.free_vc(EAST), None, "drained for now, but still owned");
        take(&mut r, &mut arena, EAST, 0);
        take(&mut r, &mut arena, EAST, 0);
        assert!(r.is_free(EAST, 0), "tail leaving releases ownership");
        r.check_invariants(&arena, &layout);
    }

    #[test]
    fn single_flit_packet_frees_immediately() {
        let (mut arena, layout, mut r) = one_port(1);
        r.push(&mut arena, &layout, EAST, 0, flit(9, FlitKind::HeadTail));
        assert!(!r.is_free(EAST, 0));
        take(&mut r, &mut arena, EAST, 0);
        assert!(r.is_free(EAST, 0));
    }

    #[test]
    fn input_port_vc_selection() {
        let (mut arena, layout, mut r) = one_port(3);
        assert_eq!(r.free_vc(EAST), Some(0));
        r.push(&mut arena, &layout, EAST, 0, flit(1, FlitKind::Head));
        assert_eq!(r.free_vc(EAST), Some(1), "skips the owned VC");
        assert_eq!(r.continuation_vc(EAST, PacketId(1)), Some(0));
        assert_eq!(r.continuation_vc(EAST, PacketId(2)), None);
        assert_eq!(r.occupancy(), 1);
        assert_eq!(r.vc(EAST, 0).out, Dir::East, "route cached at head push");
        r.check_invariants(&arena, &layout);
    }

    #[test]
    fn all_vcs_busy_blocks_new_heads() {
        let (mut arena, layout, mut r) = one_port(2);
        r.push(&mut arena, &layout, EAST, 0, flit(1, FlitKind::Head));
        r.push(&mut arena, &layout, EAST, 1, flit(2, FlitKind::Head));
        assert_eq!(r.free_vc(EAST), None);
    }
}
