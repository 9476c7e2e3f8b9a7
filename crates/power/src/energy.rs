//! L2 memory-system energy accounting.
//!
//! The paper argues that the 3D topology reduces L2 power because it
//! migrates far fewer lines (§5.2, Fig. 14) — every migration is a data
//! packet worth of network traversals plus a bank read and a bank write.
//! This module turns the activity counters collected by the simulator
//! (flit hops, bus transfers, bank and tag accesses) into energy.
//!
//! Per-event energies are first-order models anchored on the paper's
//! synthesis and Cacti data:
//!
//! * Router traversal: the 119.55 mW 5-port router (Table 1) at the 1 GHz
//!   network clock spends ~120 pJ per fully-active cycle; one flit
//!   traversal exercises roughly one port's worth, ~24 pJ.
//! * dTDMA transfer: two transceivers (2 × 97.39 µW) plus the arbiter
//!   share (204.98 µW) plus the short (≤ 50 µm × layers) vertical wire —
//!   about 0.6 pJ per flit: the bus is essentially free next to routers,
//!   which is why vertical locality saves power.
//! * Bank access: Cacti-3.2-class 64 KB SRAM read/write ≈ 390 pJ.
//! * Tag-array probe: 24 KB array ≈ 120 pJ.

/// Per-event energy constants in joules.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// One flit through one router (buffer write + crossbar + link).
    pub(crate) router_flit_j: f64,
    /// One flit across a dTDMA pillar.
    pub(crate) bus_flit_j: f64,
    /// One 64 KB data-bank access.
    pub(crate) bank_access_j: f64,
    /// One cluster tag-array probe.
    pub(crate) tag_access_j: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            router_flit_j: 24e-12,
            bus_flit_j: 0.6e-12,
            bank_access_j: 390e-12,
            tag_access_j: 120e-12,
        }
    }
}

/// Activity counters accumulated over a simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ActivityCounts {
    /// Flit-router traversals.
    pub flit_hops: u64,
    /// Flit-bus transfers.
    pub bus_transfers: u64,
    /// Data-bank reads and writes.
    pub bank_accesses: u64,
    /// Tag-array probes.
    pub tag_accesses: u64,
}

/// Energy breakdown in joules.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Network routers.
    pub router_j: f64,
    /// Vertical buses.
    pub bus_j: f64,
    /// Data banks.
    pub bank_j: f64,
    /// Tag arrays.
    pub tag_j: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.router_j + self.bus_j + self.bank_j + self.tag_j
    }
}

impl EnergyModel {
    /// Converts activity counts to an energy breakdown.
    pub fn estimate(&self, counts: &ActivityCounts) -> EnergyBreakdown {
        EnergyBreakdown {
            router_j: counts.flit_hops as f64 * self.router_flit_j,
            bus_j: counts.bus_transfers as f64 * self.bus_flit_j,
            bank_j: counts.bank_accesses as f64 * self.bank_access_j,
            tag_j: counts.tag_accesses as f64 * self.tag_access_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_is_linear_in_counts() {
        let m = EnergyModel::default();
        let one = m.estimate(&ActivityCounts {
            flit_hops: 1,
            bus_transfers: 1,
            bank_accesses: 1,
            tag_accesses: 1,
        });
        let ten = m.estimate(&ActivityCounts {
            flit_hops: 10,
            bus_transfers: 10,
            bank_accesses: 10,
            tag_accesses: 10,
        });
        assert!((ten.total_j() - 10.0 * one.total_j()).abs() < 1e-18);
    }

    #[test]
    fn bus_transfers_are_far_cheaper_than_router_hops() {
        // The architectural point: the vertical hop is nearly free.
        let m = EnergyModel::default();
        assert!(m.bus_flit_j < m.router_flit_j / 10.0);
    }

    #[test]
    fn fewer_migrations_mean_less_energy() {
        // A migration is a 4-flit data packet over h hops plus a bank
        // read and a bank write; compare 100 vs 1000 migrations.
        let m = EnergyModel::default();
        let per_migration = |n: u64| ActivityCounts {
            flit_hops: n * 4 * 6,
            bus_transfers: 0,
            bank_accesses: n * 2,
            tag_accesses: n,
        };
        let low = m.estimate(&per_migration(100)).total_j();
        let high = m.estimate(&per_migration(1000)).total_j();
        assert!(high > 9.0 * low);
    }
}
