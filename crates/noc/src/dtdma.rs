//! The dTDMA bus "communication pillar" (paper §3.1).
//!
//! A pillar is a vertical bus spanning all device layers, one flit wide.
//! Its arbiter dynamically grows and shrinks the number of timeslots to
//! match the number of active clients, which makes the bus nearly 100%
//! bandwidth-efficient: at the flit timeline level this is exactly
//! work-conserving round-robin over the interfaces that currently have
//! flits queued, transferring one flit per cycle, single-hop between any
//! two layers.
//!
//! Each layer's pillar router feeds the bus through a small transceiver
//! interface buffer; the network moves flits router → interface, and the
//! bus arbiter moves them interface → destination layer's pillar router.
//!
//! The interface buffers themselves live in
//! [`Network`](crate::network::Network), beside the routers that fill
//! them; [`DtdmaBus`] keeps only the arbiter state (round-robin pointer,
//! statistics) that the bus phase owns.

use nim_types::PillarId;

use crate::packet::{FlitArena, FlitFifo};

/// Counters kept per pillar bus.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Flits transferred across the bus.
    pub transfers: u64,
    /// Cycles in which a flit was transferred.
    pub busy_cycles: u64,
    /// Cycles in which two or more interfaces had flits waiting — the
    /// contention the paper varies via the pillar count (Fig. 17).
    pub contention_cycles: u64,
    /// Running peak of the total flits queued at the bus interfaces.
    pub peak_queued: u64,
}

/// One transceiver interface: the per-layer queue feeding the bus.
#[derive(Clone, Debug)]
pub(crate) struct Iface {
    pub q: FlitFifo,
    /// Destination-side VC bound by the in-transfer packet (set by its
    /// head flit, cleared by its tail), so multi-flit packets land in a
    /// single VC even when the arbiter interleaves transmitters.
    pub bound_vc: Option<usize>,
}

impl Iface {
    pub(crate) fn new(arena: &mut FlitArena, cap: usize) -> Self {
        Self {
            q: FlitFifo::new(arena, cap),
            bound_vc: None,
        }
    }
}

/// A dTDMA pillar bus: the arbiter state shared across all layers.
#[derive(Clone, Debug)]
pub(crate) struct DtdmaBus {
    #[allow(dead_code)] // identifies the bus in diagnostics and tests
    pub pillar: PillarId,
    /// Pillar position, identical on every layer.
    pub xy: (u8, u8),
    /// Round-robin pointer over interfaces (the dynamic slot schedule).
    pub rr: usize,
    pub stats: BusStats,
}

impl DtdmaBus {
    pub(crate) fn new(pillar: PillarId, xy: (u8, u8)) -> Self {
        Self {
            pillar,
            xy,
            rr: 0,
            stats: BusStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Flit, FlitKind, TrafficClass};
    use nim_types::{Coord, Cycle, PacketId};

    fn flit() -> Flit {
        Flit {
            pkt: PacketId(1),
            kind: FlitKind::HeadTail,
            src: Coord::new(0, 0, 0),
            dst: Coord::new(0, 0, 1),
            via: Some(PillarId(0)),
            class: TrafficClass::Control,
            token: 0,
            injected: Cycle::ZERO,
            arrived: Cycle::ZERO,
            hops: 0,
            bus_wait: 0,
        }
    }

    #[test]
    fn iface_respects_capacity() {
        let mut arena = FlitArena::default();
        let mut a = Iface::new(&mut arena, 2);
        let b = Iface::new(&mut arena, 2);
        a.q.push_back(&mut arena, flit());
        a.q.push_back(&mut arena, flit());
        assert!(a.q.is_full());
        assert!(!b.q.is_full(), "interfaces are independent");
        assert_eq!(a.q.len() + b.q.len(), 2);
        assert_eq!(a.bound_vc, None);
    }

    #[test]
    fn bus_starts_with_zeroed_arbiter() {
        let bus = DtdmaBus::new(PillarId(3), (1, 1));
        assert_eq!(bus.pillar, PillarId(3));
        assert_eq!(bus.rr, 0);
        assert_eq!(bus.stats, BusStats::default());
    }
}
