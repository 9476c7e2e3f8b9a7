//! Snapshot seam for the network: serializing every flit in flight.
//!
//! The network's live state is saved *logically*, not physically: flits
//! are written per (node, input direction, VC), per (bus, layer)
//! transceiver interface, and per-node injection queue — never as raw
//! [`FlitArena`](crate::packet::FlitArena) slabs. Arena slot layout
//! depends on how the chip was cut into shards, so a logical encoding
//! lets a snapshot taken under one `NIM_SHARDS` restore under any other
//! (sharding is bit-identical by construction, so the resumed run still
//! reproduces the uninterrupted one exactly).
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
//! byte-compatible. Scratch state (window tuner, diagnostics)
//! intentionally starts fresh.

use nim_types::codec::{ByteReader, ByteWriter, Checkpoint, CodecError};
use nim_types::{Cycle, Dir, PacketId, PillarId};

use crate::packet::{
    restore_class, restore_coord, save_coord, Delivered, Flit, FlitKind, SendRequest,
};
use crate::router::{vc_bit, Hold};
use crate::stats::{LatencyHistogram, NetworkStats};

use super::{Network, Pending};

fn save_via(w: &mut ByteWriter, via: Option<PillarId>) {
    match via {
        Some(p) => {
            w.u8(1);
            w.u16(p.0);
        }
        None => w.u8(0),
    }
}

fn restore_via(r: &mut ByteReader<'_>) -> Result<Option<PillarId>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(PillarId(r.u16()?))),
        _ => Err(CodecError::Corrupt("bad pillar option tag")),
    }
}

fn save_kind(w: &mut ByteWriter, kind: FlitKind) {
    w.u8(match kind {
        FlitKind::Head => 0,
        FlitKind::Body => 1,
        FlitKind::Tail => 2,
        FlitKind::HeadTail => 3,
    });
}

fn restore_kind(r: &mut ByteReader<'_>) -> Result<FlitKind, CodecError> {
    Ok(match r.u8()? {
        0 => FlitKind::Head,
        1 => FlitKind::Body,
        2 => FlitKind::Tail,
        3 => FlitKind::HeadTail,
        _ => return Err(CodecError::Corrupt("bad flit kind tag")),
    })
}

fn save_flit(w: &mut ByteWriter, f: &Flit) {
    w.u64(f.pkt.0);
    save_kind(w, f.kind);
    save_coord(w, f.src);
    save_coord(w, f.dst);
    save_via(w, f.via);
    w.u8(f.class.index() as u8);
    w.u64(f.token);
    w.u64(f.injected.0);
    w.u64(f.arrived.0);
    w.u16(f.hops);
    w.u32(f.bus_wait);
}

fn restore_flit(r: &mut ByteReader<'_>) -> Result<Flit, CodecError> {
    Ok(Flit {
        pkt: PacketId(r.u64()?),
        kind: restore_kind(r)?,
        src: restore_coord(r)?,
        dst: restore_coord(r)?,
        via: restore_via(r)?,
        class: restore_class(r)?,
        token: r.u64()?,
        injected: Cycle(r.u64()?),
        arrived: Cycle(r.u64()?),
        hops: r.u16()?,
        bus_wait: r.u32()?,
    })
}

fn save_stats(w: &mut ByteWriter, s: &NetworkStats) {
    w.u64(s.packets_sent);
    w.u64(s.packets_delivered);
    w.u64(s.total_latency);
    w.u64(s.max_latency);
    w.u64(s.total_hops);
    w.u64(s.flit_hops);
    for arr in [
        &s.flit_hops_by_class,
        &s.delivered_by_class,
        &s.latency_by_class,
    ] {
        for &v in arr {
            w.u64(v);
        }
    }
    w.u64(s.bus_transfers);
    w.u64(s.switch_contention);
    for &b in s.latency_histogram.buckets() {
        w.u64(b);
    }
}

fn restore_stats(r: &mut ByteReader<'_>) -> Result<NetworkStats, CodecError> {
    let mut s = NetworkStats {
        packets_sent: r.u64()?,
        packets_delivered: r.u64()?,
        total_latency: r.u64()?,
        max_latency: r.u64()?,
        total_hops: r.u64()?,
        flit_hops: r.u64()?,
        ..NetworkStats::default()
    };
    for arr in [
        &mut s.flit_hops_by_class,
        &mut s.delivered_by_class,
        &mut s.latency_by_class,
    ] {
        for v in arr.iter_mut() {
            *v = r.u64()?;
        }
    }
    s.bus_transfers = r.u64()?;
    s.switch_contention = r.u64()?;
    let mut buckets = [0u64; 16];
    for b in &mut buckets {
        *b = r.u64()?;
    }
    s.latency_histogram = LatencyHistogram::from_buckets(buckets);
    Ok(s)
}

fn save_pending(w: &mut ByteWriter, p: &Pending) {
    w.u64(p.id.0);
    save_coord(w, p.req.src);
    save_coord(w, p.req.dst);
    save_via(w, p.req.via);
    w.u8(p.req.class.index() as u8);
    w.u32(p.req.flits);
    w.u64(p.req.token);
    w.u32(p.seq);
    w.u64(p.injected.0);
}

fn restore_pending(r: &mut ByteReader<'_>) -> Result<Pending, CodecError> {
    Ok(Pending {
        id: PacketId(r.u64()?),
        req: SendRequest {
            src: restore_coord(r)?,
            dst: restore_coord(r)?,
            via: restore_via(r)?,
            class: restore_class(r)?,
            flits: r.u32()?,
            token: r.u64()?,
        },
        seq: r.u32()?,
        injected: Cycle(r.u64()?),
    })
}

impl Checkpoint for Network {
    fn save(&self, w: &mut ByteWriter) {
        w.u64(self.now.0);
        w.u64(self.next_pkt);
        w.u64(self.flits_in_flight);
        save_stats(w, &self.stats);
        w.u64_slice(&self.traversals);
        w.u64_slice(&self.bus_ready_at);

        // Routers: ports and VC contents in (node, direction, VC) order.
        w.u32(self.routers.len() as u32);
        for (n, router) in self.routers.iter().enumerate() {
            let st = &self.shards[usize::from(self.geo.shard_of[n])];
            let vcs = router.vcs_per_port();
            for in_dir in 0..Dir::COUNT {
                if !router.has_port(in_dir) {
                    w.u8(0);
                    continue;
                }
                w.u8(1);
                w.u8(vcs as u8);
                for v in 0..vcs {
                    let vc = router.vc(in_dir, v);
                    w.opt_u64(vc.owner.map(|p| p.0));
                    w.u16(vc.fifo.len() as u16);
                    for f in vc.fifo.iter(&st.arena) {
                        save_flit(w, f);
                    }
                }
            }
            for oi in 0..Dir::COUNT {
                match router.hold(oi) {
                    None => w.u8(0),
                    Some(h) => {
                        w.u8(1);
                        w.u64(h.pkt.0);
                        w.u8(h.in_dir);
                        w.u8(h.vc);
                    }
                }
            }
            for oi in 0..Dir::COUNT {
                let bit = usize::from(router.rr[oi]);
                w.u16(((bit >> 3) * vcs + (bit & 7)) as u16);
            }
            w.u32(router.occupancy());
        }

        // Injection queues and delivery outboxes, in node order.
        for inj in &self.injectors {
            w.opt_u64(inj.vc.map(|v| v as u64));
            w.u32(inj.queue.len() as u32);
            for p in &inj.queue {
                save_pending(w, p);
            }
        }
        for outbox in &self.outbox {
            w.u32(outbox.len() as u32);
            for d in outbox {
                d.save(w);
            }
        }

        // Buses and their per-layer transceiver interfaces, in (bus,
        // layer) order — shard-agnostic by construction.
        w.u32(self.buses.len() as u32);
        for (b, bus) in self.buses.iter().enumerate() {
            w.usize(bus.rr);
            w.u64(bus.stats.transfers);
            w.u64(bus.stats.busy_cycles);
            w.u64(bus.stats.contention_cycles);
            w.u64(bus.stats.peak_queued);
            for layer in 0..self.geo.rt.layout.layers() {
                let (s, i) = self.iface_pos(b, layer);
                let iface = &self.shards[s].ifaces[i];
                w.opt_u64(iface.bound_vc.map(|v| v as u64));
                w.u16(iface.q.len() as u16);
                for f in iface.q.iter(&self.shards[s].arena) {
                    save_flit(w, f);
                }
            }
        }
    }

    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.now = Cycle(r.u64()?);
        self.next_pkt = r.u64()?;
        self.flits_in_flight = r.u64()?;
        self.stats = restore_stats(r)?;
        let traversals = r.u64_vec()?;
        if traversals.len() != self.traversals.len() {
            return Err(CodecError::Corrupt("traversal table size mismatch"));
        }
        self.traversals = traversals;
        let bus_ready_at = r.u64_vec()?;
        if bus_ready_at.len() != self.bus_ready_at.len() {
            return Err(CodecError::Corrupt("bus table size mismatch"));
        }
        self.bus_ready_at = bus_ready_at;

        if r.u32()? as usize != self.routers.len() {
            return Err(CodecError::Corrupt("router count mismatch"));
        }
        let mut flit_buf = Vec::new();
        let rt = &self.geo.rt;
        for n in 0..self.routers.len() {
            let arena = &mut self.shards[usize::from(self.geo.shard_of[n])].arena;
            let router = &mut self.routers[n];
            let vcs = router.vcs_per_port();
            for in_dir in 0..Dir::COUNT {
                if (r.u8()? == 1) != router.has_port(in_dir) {
                    return Err(CodecError::Corrupt("input port structure mismatch"));
                }
                if !router.has_port(in_dir) {
                    continue;
                }
                if usize::from(r.u8()?) != vcs {
                    return Err(CodecError::Corrupt("VC count mismatch"));
                }
                for v in 0..vcs {
                    let owner = r.opt_u64()?.map(PacketId);
                    let count = usize::from(r.u16()?);
                    if count > router.vc(in_dir, v).fifo.capacity() {
                        return Err(CodecError::Corrupt("VC deeper than its capacity"));
                    }
                    flit_buf.clear();
                    for _ in 0..count {
                        flit_buf.push(restore_flit(r)?);
                    }
                    router.restore_vc(arena, rt, (in_dir, v), &flit_buf, owner);
                }
            }
            for oi in 0..Dir::COUNT {
                let hold = match r.u8()? {
                    0 => None,
                    1 => Some(Hold {
                        pkt: PacketId(r.u64()?),
                        in_dir: r.u8()?,
                        vc: r.u8()?,
                    }),
                    _ => return Err(CodecError::Corrupt("bad hold tag")),
                };
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

        let vcs = self.routers.first().map_or(0, |r| r.vcs_per_port()) as u64;
        let bound_vc = |v: Option<u64>| match v {
            Some(v) if v >= vcs => Err(CodecError::Corrupt("bound VC out of range")),
            v => Ok(v.map(|v| v as usize)),
        };
        for inj in &mut self.injectors {
            inj.vc = bound_vc(r.opt_u64()?)?;
            inj.queue.clear();
            for _ in 0..r.u32()? {
                inj.queue.push_back(restore_pending(r)?);
            }
        }
        for outbox in &mut self.outbox {
            outbox.clear();
            for _ in 0..r.u32()? {
                outbox.push_back(Delivered::restore(r)?);
            }
        }

        if r.u32()? as usize != self.buses.len() {
            return Err(CodecError::Corrupt("bus count mismatch"));
        }
        for b in 0..self.buses.len() {
            self.buses[b].rr = r.usize()?;
            if self.buses[b].rr >= self.geo.rt.layout.layers() as usize {
                return Err(CodecError::Corrupt("bus round-robin pointer out of range"));
            }
            self.buses[b].stats.transfers = r.u64()?;
            self.buses[b].stats.busy_cycles = r.u64()?;
            self.buses[b].stats.contention_cycles = r.u64()?;
            self.buses[b].stats.peak_queued = r.u64()?;
            for layer in 0..self.geo.rt.layout.layers() {
                let (s, i) = self.iface_pos(b, layer);
                let bound = bound_vc(r.opt_u64()?)?;
                let count = usize::from(r.u16()?);
                let st = &mut self.shards[s];
                if count > st.ifaces[i].q.capacity() {
                    return Err(CodecError::Corrupt("interface deeper than its capacity"));
                }
                st.ifaces[i].bound_vc = bound;
                for _ in 0..count {
                    let f = restore_flit(r)?;
                    st.ifaces[i].q.push_back(&mut st.arena, f);
                }
            }
        }

        // Rebuild the derived work sets from the restored queues.
        for n in 0..self.routers.len() {
            if self.routers[n].occupancy() > 0 {
                self.mark_dirty(n);
            }
            if !self.injectors[n].queue.is_empty() {
                self.mark_inj(n);
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
    use crate::packet::TrafficClass;
    use crate::routing::VerticalMode;
    use nim_topology::ChipLayout;
    use nim_types::SystemConfig;

    fn busy_net(shards: usize) -> (ChipLayout, Network) {
        let cfg = SystemConfig::default();
        let layout = ChipLayout::new(&cfg).unwrap();
        let mut net = Network::new_sharded(&layout, &cfg.network, VerticalMode::Pillars, shards);
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
        for (save_shards, restore_shards) in [(1, 1), (1, 2), (2, 1)] {
            let (layout, mut original) = busy_net(save_shards);
            let mut w = ByteWriter::new();
            original.save(&mut w);
            let bytes = w.into_bytes();

            let cfg = SystemConfig::default();
            let mut restored =
                Network::new_sharded(&layout, &cfg.network, VerticalMode::Pillars, restore_shards);
            let mut r = ByteReader::new(&bytes);
            restored.restore(&mut r).unwrap();
            restored.check_invariants();
            assert_eq!(r.remaining(), 0);
            assert_eq!(restored.now(), original.now());

            let a = drain_and_digest(&mut original);
            let b = drain_and_digest(&mut restored);
            assert_eq!(a, b, "shards {save_shards} -> {restore_shards}");
        }
    }

    #[test]
    fn truncated_bytes_error_instead_of_panicking() {
        let (_, original) = busy_net(1);
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
        let (_, original) = busy_net(1);
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
}
