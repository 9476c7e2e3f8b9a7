//! Network-wide statistics.

use crate::packet::Delivered;

// The histogram moved to `nim-obs` so every simulator crate can record
// distributions; re-exported here to keep existing imports working.
pub use nim_obs::LatencyHistogram;

/// Counters accumulated by the network across a run.
///
/// Per-class breakdowns are indexed by
/// [`TrafficClass::index`](crate::packet::TrafficClass::index); the energy
/// model in `nim-power` consumes the flit-hop and bus-transfer counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Packets handed to [`Network::send`].
    ///
    /// [`Network::send`]: crate::Network::send
    pub packets_sent: u64,
    /// Packets fully delivered (tail ejected).
    pub packets_delivered: u64,
    /// Sum of end-to-end packet latencies (cycles).
    pub total_latency: u64,
    /// Largest single packet latency seen.
    pub max_latency: u64,
    /// Sum of head-flit hop counts over delivered packets.
    pub total_hops: u64,
    /// Individual flit router-to-router traversals (energy proxy).
    pub flit_hops: u64,
    /// Flit traversals by traffic class.
    pub flit_hops_by_class: [u64; 4],
    /// Packets delivered by traffic class.
    pub delivered_by_class: [u64; 4],
    /// Latency sum by traffic class.
    pub latency_by_class: [u64; 4],
    /// Flits carried across all dTDMA buses.
    pub bus_transfers: u64,
    /// Switch-allocation losses (a flit wanted an output but another flit
    /// won it, or downstream had no space/VC).
    pub switch_contention: u64,
    /// End-to-end packet latency distribution.
    pub latency_histogram: LatencyHistogram,
}

impl NetworkStats {
    /// Mean end-to-end packet latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        if self.packets_delivered == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.packets_delivered as f64
        }
    }

    pub(crate) fn record_delivery(&mut self, d: &Delivered) {
        self.packets_delivered += 1;
        let lat = d.latency();
        self.latency_histogram.record(lat);
        self.total_latency += lat;
        self.max_latency = self.max_latency.max(lat);
        self.total_hops += u64::from(d.hops);
        self.delivered_by_class[d.class.index()] += 1;
        self.latency_by_class[d.class.index()] += lat;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TrafficClass;
    use nim_types::{Coord, Cycle, PacketId};

    #[test]
    fn averages_handle_empty_stats() {
        let s = NetworkStats::default();
        assert_eq!(s.avg_latency(), 0.0);
    }

    #[test]
    fn record_delivery_accumulates() {
        let mut s = NetworkStats::default();
        let d = Delivered {
            packet: PacketId(1),
            src: Coord::new(0, 0, 0),
            dst: Coord::new(3, 0, 0),
            class: TrafficClass::Data,
            token: 0,
            injected: Cycle(0),
            delivered: Cycle(10),
            hops: 3,
            bus_wait: 0,
        };
        s.record_delivery(&d);
        let d2 = Delivered {
            delivered: Cycle(30),
            hops: 5,
            class: TrafficClass::Control,
            ..d
        };
        s.record_delivery(&d2);
        assert_eq!(s.packets_delivered, 2);
        assert_eq!(s.avg_latency(), 20.0);
        assert_eq!(s.total_hops, 8);
        assert_eq!(s.max_latency, 30);
        assert_eq!(s.latency_by_class[TrafficClass::Data.index()], 10);
        assert_eq!(s.latency_by_class[TrafficClass::Control.index()], 30);
        assert_eq!(s.latency_histogram.count(), 2);
    }
}
