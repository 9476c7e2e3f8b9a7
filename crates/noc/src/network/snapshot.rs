//! Snapshot seam for the network: serializing every flit in flight.
//!
//! The network's live state is saved *logically*, not physically: flits
//! are written per (node, input direction, VC), per (bus, layer)
//! transceiver interface, and per-node injection queue — never as raw
//! [`FlitArena`](crate::packet::FlitArena) slabs, so the image does
//! not depend on how the arena is laid out.
//!
//! Restore targets a freshly built [`Network`] with the same layout and
//! configuration. Everything derived is recomputed from the restored
//! queues rather than serialized: the work sets (dirty routers, active
//! injectors, active buses, delivered nodes), and each router's
//! occupancy masks, flit count and cached look-ahead routes, which
//! [`Router::restore_vc`](crate::router::Router::restore_vc) rebuilds as
//! it refills the VCs. The image keeps the field layout it had before
//! those existed (round-robin pointers as `in_dir * vcs + vc` slots, a
//! per-router flit count that restore now cross-checks), so images stay
//! byte-compatible.

use nim_types::codec::{ByteReader, ByteWriter, Checkpoint, Codec, CodecError};
use nim_types::Dir;

use crate::packet::{Flit, FlitArena, FlitFifo};
use crate::router::{vc_bit, Hold};

use super::Network;

/// A FIFO's flits, oldest first, behind a `u16` count (FIFO depth is
/// capped at 2^14).
fn put_flits(w: &mut ByteWriter, fifo: &FlitFifo, arena: &FlitArena) {
    w.u16(fifo.len() as u16);
    for f in fifo.iter(arena) {
        f.put(w);
    }
}

/// Reads what [`put_flits`] wrote for a FIFO of capacity `cap`.
fn get_flits(
    r: &mut ByteReader<'_>,
    cap: usize,
    too_deep: &'static str,
) -> Result<Vec<Flit>, CodecError> {
    let count = usize::from(r.u16()?);
    if count > cap {
        return Err(CodecError::Corrupt(too_deep));
    }
    (0..count).map(|_| Flit::get(r)).collect()
}

impl Checkpoint for Network {
    fn save(&self, w: &mut ByteWriter) {
        self.now.put(w);
        self.next_pkt.put(w);
        self.flits_in_flight.put(w);
        self.stats.put(w);
        self.traversals.put(w);
        self.bus_ready_at.put(w);

        // Routers: ports and VC contents in (node, direction, VC) order.
        w.len_prefix(self.routers.len());
        for router in &self.routers {
            let vcs = router.vcs_per_port();
            for in_dir in 0..Dir::COUNT {
                w.bool(router.has_port(in_dir));
                if !router.has_port(in_dir) {
                    continue;
                }
                w.u8(vcs as u8);
                for v in 0..vcs {
                    let vc = router.vc(in_dir, v);
                    vc.owner.put(w);
                    put_flits(w, &vc.fifo, &self.arena);
                }
            }
            for oi in 0..Dir::COUNT {
                router.hold(oi).put(w);
            }
            for oi in 0..Dir::COUNT {
                let bit = usize::from(router.rr[oi]);
                w.u16(((bit >> 3) * vcs + (bit & 7)) as u16);
            }
            router.occupancy().put(w);
        }

        // Injection queues and delivery outboxes, in node order.
        for inj in &self.injectors {
            inj.vc.put(w);
            inj.queue.put(w);
        }
        for outbox in &self.outbox {
            outbox.put(w);
        }

        // Buses and their per-layer transceiver interfaces, in (bus,
        // layer) order.
        w.len_prefix(self.buses.len());
        for (b, bus) in self.buses.iter().enumerate() {
            bus.rr.put(w);
            bus.stats.put(w);
            for iface in self.bus_ifaces(b) {
                iface.bound_vc.put(w);
                put_flits(w, &iface.q, &self.arena);
            }
        }
    }

    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.now = Codec::get(r)?;
        self.next_pkt = Codec::get(r)?;
        self.flits_in_flight = Codec::get(r)?;
        self.stats = Codec::get(r)?;
        self.traversals = r.seq_of_len(self.traversals.len(), "traversal table size mismatch")?;
        self.bus_ready_at = r.seq_of_len(self.bus_ready_at.len(), "bus table size mismatch")?;

        if r.u32()? as usize != self.routers.len() {
            return Err(CodecError::Corrupt("router count mismatch"));
        }
        let (rt, arena) = (&self.rt, &mut self.arena);
        for router in &mut self.routers {
            let vcs = router.vcs_per_port();
            for in_dir in 0..Dir::COUNT {
                if r.bool()? != router.has_port(in_dir) {
                    return Err(CodecError::Corrupt("input port structure mismatch"));
                }
                if !router.has_port(in_dir) {
                    continue;
                }
                if usize::from(r.u8()?) != vcs {
                    return Err(CodecError::Corrupt("VC count mismatch"));
                }
                for v in 0..vcs {
                    let owner = Codec::get(r)?;
                    let cap = router.vc(in_dir, v).fifo.capacity();
                    let flits = get_flits(r, cap, "VC deeper than its capacity")?;
                    router.restore_vc(arena, rt, (in_dir, v), &flits, owner);
                }
            }
            for oi in 0..Dir::COUNT {
                let hold = Option::<Hold>::get(r)?;
                if hold.is_some_and(|h| {
                    !router.has_port(usize::from(h.in_dir)) || usize::from(h.vc) >= vcs
                }) {
                    return Err(CodecError::Corrupt("hold names a VC that does not exist"));
                }
                router.set_hold(oi, hold);
            }
            for oi in 0..Dir::COUNT {
                let slot = usize::from(r.u16()?);
                if slot >= Dir::COUNT * vcs {
                    return Err(CodecError::Corrupt("round-robin pointer out of range"));
                }
                router.rr[oi] = vc_bit(slot / vcs, slot % vcs) as u8;
            }
            if r.u32()? != router.occupancy() {
                return Err(CodecError::Corrupt("router flit count mismatch"));
            }
        }

        let vcs = self.routers.first().map_or(0, |r| r.vcs_per_port());
        let bound_vc = |r: &mut ByteReader<'_>| match Option::<usize>::get(r)? {
            Some(v) if v >= vcs => Err(CodecError::Corrupt("bound VC out of range")),
            v => Ok(v),
        };
        for inj in &mut self.injectors {
            inj.vc = bound_vc(r)?;
            inj.queue = Codec::get(r)?;
        }
        for outbox in &mut self.outbox {
            *outbox = Codec::get(r)?;
        }

        if r.u32()? as usize != self.buses.len() {
            return Err(CodecError::Corrupt("bus count mismatch"));
        }
        let layers = self.rt.layout.layers() as usize;
        for b in 0..self.buses.len() {
            self.buses[b].rr = Codec::get(r)?;
            if self.buses[b].rr >= layers {
                return Err(CodecError::Corrupt("bus round-robin pointer out of range"));
            }
            self.buses[b].stats = Codec::get(r)?;
            for iface in &mut self.ifaces[b * layers..(b + 1) * layers] {
                iface.bound_vc = bound_vc(r)?;
                let cap = iface.q.capacity();
                for f in get_flits(r, cap, "interface deeper than its capacity")? {
                    iface.q.push_back(&mut self.arena, f);
                }
            }
        }

        // Rebuild the derived work sets from the restored queues.
        for n in 0..self.routers.len() {
            if self.routers[n].occupancy() > 0 {
                self.dirty.insert(n);
            }
            if !self.injectors[n].queue.is_empty() {
                self.inj_active.insert(n);
            }
            if !self.outbox[n].is_empty() {
                self.delivered_nodes.insert(n);
            }
        }
        for b in 0..self.buses.len() {
            if self.bus_queued(b) > 0 {
                self.bus_active.insert(b);
            }
        }
        self.obs.set_now(self.now.0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Delivered, SendRequest, TrafficClass};
    use crate::routing::VerticalMode;
    use crate::stats::NetworkStats;
    use nim_topology::ChipLayout;
    use nim_types::SystemConfig;

    fn busy_net() -> (ChipLayout, Network) {
        let cfg = SystemConfig::default();
        let layout = ChipLayout::new(&cfg).unwrap();
        let mut net = Network::new(&layout, &cfg.network, VerticalMode::Pillars);
        // Mixed traffic: multi-flit cross-layer packets (pillar bus in
        // use), same-layer packets, and a backlog that is still mid-
        // injection when we snapshot.
        for i in 0..12u64 {
            let src = layout.coord_of_index((i as usize * 3) % layout.num_nodes());
            let dst = layout.coord_of_index((i as usize * 7 + 5) % layout.num_nodes());
            net.send(SendRequest {
                src,
                dst,
                via: None,
                class: TrafficClass::ALL[(i % 4) as usize],
                flits: 1 + (i % 4) as u32,
                token: i,
            });
        }
        for _ in 0..6 {
            net.tick();
        }
        (layout, net)
    }

    fn drain_and_digest(net: &mut Network) -> (Vec<Delivered>, NetworkStats, Vec<u64>) {
        net.run_until_idle(10_000).expect("network must drain");
        let mut delivered = net.drain_delivered();
        delivered.sort_by_key(|d| d.packet.0);
        (delivered, net.stats().clone(), net.traversals().to_vec())
    }

    #[test]
    fn snapshot_mid_flight_restores_bit_identically() {
        let (layout, mut original) = busy_net();
        let mut w = ByteWriter::new();
        original.save(&mut w);
        let bytes = w.into_bytes();

        let cfg = SystemConfig::default();
        let mut restored = Network::new(&layout, &cfg.network, VerticalMode::Pillars);
        let mut r = ByteReader::new(&bytes);
        restored.restore(&mut r).unwrap();
        restored.check_invariants();
        assert_eq!(r.remaining(), 0);
        assert_eq!(restored.now(), original.now());

        let a = drain_and_digest(&mut original);
        let b = drain_and_digest(&mut restored);
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_bytes_error_instead_of_panicking() {
        let (_, original) = busy_net();
        let mut w = ByteWriter::new();
        original.save(&mut w);
        let bytes = w.into_bytes();
        let cfg = SystemConfig::default();
        let layout = ChipLayout::new(&cfg).unwrap();
        for cut in [8usize, 100, bytes.len() / 2, bytes.len() - 1] {
            let mut net = Network::new(&layout, &cfg.network, VerticalMode::Pillars);
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(net.restore(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn restore_rejects_a_different_topology() {
        let (_, original) = busy_net();
        let mut w = ByteWriter::new();
        original.save(&mut w);
        let bytes = w.into_bytes();
        let mut cfg = SystemConfig::default();
        cfg.network.layers = 1;
        let layout = ChipLayout::new(&cfg).unwrap();
        let mut net = Network::new(&layout, &cfg.network, VerticalMode::Pillars);
        let mut r = ByteReader::new(&bytes);
        assert!(net.restore(&mut r).is_err());
    }

    mod codec_laws {
        use nim_types::codec::{assert_laws, ByteReader, Codec};
        use nim_types::{Coord, Cycle, PacketId, PillarId};
        use proptest::prelude::*;

        use super::super::super::Pending;
        use crate::dtdma::BusStats;
        use crate::packet::{Delivered, Flit, FlitKind, SendRequest, TrafficClass};
        use crate::router::Hold;
        use crate::stats::NetworkStats;

        fn coord() -> impl Strategy<Value = Coord> {
            (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(x, y, l)| Coord::new(x, y, l))
        }

        fn class() -> impl Strategy<Value = TrafficClass> {
            (0usize..4).prop_map(|i| TrafficClass::ALL[i])
        }

        fn kind() -> impl Strategy<Value = FlitKind> {
            (any::<u32>(), 1u32..6).prop_map(|(seq, len)| FlitKind::for_position(seq % len, len))
        }

        fn via() -> impl Strategy<Value = Option<PillarId>> {
            (any::<bool>(), any::<u16>()).prop_map(|(some, p)| some.then_some(PillarId(p)))
        }

        fn request() -> impl Strategy<Value = SendRequest> {
            (coord(), coord(), via(), class(), any::<u32>(), any::<u64>()).prop_map(
                |(src, dst, via, class, flits, token)| SendRequest {
                    src,
                    dst,
                    via,
                    class,
                    flits,
                    token,
                },
            )
        }

        fn flit() -> impl Strategy<Value = Flit> {
            (
                (any::<u64>(), kind(), request()),
                (any::<u64>(), any::<u64>(), any::<u16>(), any::<u32>()),
            )
                .prop_map(|((pkt, kind, req), (injected, arrived, hops, bus_wait))| {
                    Flit {
                        pkt: PacketId(pkt),
                        kind,
                        src: req.src,
                        dst: req.dst,
                        via: req.via,
                        class: req.class,
                        token: req.token,
                        injected: Cycle(injected),
                        arrived: Cycle(arrived),
                        hops,
                        bus_wait,
                    }
                })
        }

        proptest! {
            #[test]
            fn flits_requests_and_deliveries(f in flit(), req in request(), seq in any::<u32>()) {
                prop_assert_eq!(assert_laws(&f), f);
                prop_assert_eq!(assert_laws(&f.kind), f.kind);
                prop_assert_eq!(assert_laws(&f.class), f.class);
                prop_assert_eq!(assert_laws(&req), req);
                let d = Delivered {
                    packet: f.pkt,
                    src: f.src,
                    dst: f.dst,
                    class: f.class,
                    token: f.token,
                    injected: f.injected,
                    delivered: f.arrived,
                    hops: f.hops,
                    bus_wait: f.bus_wait,
                };
                prop_assert_eq!(assert_laws(&d), d);
                let p = assert_laws(&Pending { id: f.pkt, req, seq, injected: f.injected });
                prop_assert_eq!((p.id, p.req, p.seq, p.injected), (f.pkt, req, seq, f.injected));
            }

            /// All-integer records: any bytes of the right length are one.
            #[test]
            fn statistics(bytes in proptest::collection::vec(any::<u8>(), 288)) {
                let r = &mut ByteReader::new(&bytes);
                let (bus, hold) = (BusStats::get(r).unwrap(), Hold::get(r).unwrap());
                prop_assert_eq!(assert_laws(&bus), bus);
                let back = assert_laws(&hold);
                prop_assert_eq!((back.pkt, back.in_dir, back.vc), (hold.pkt, hold.in_dir, hold.vc));
                let stats = NetworkStats::get(&mut ByteReader::new(&bytes)).unwrap();
                prop_assert_eq!(assert_laws(&stats), stats);
            }
        }
    }
}
