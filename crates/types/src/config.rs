//! System configuration (the paper's Table 4).
//!
//! [`SystemConfig::default`] reproduces the default parameters of the
//! evaluation exactly: 8 in-order processors, 64 KB 2-way write-through L1s,
//! a 16 MB L2 organised as 16 clusters of 16 × 64 KB banks, a 24 KB tag
//! array per cluster, 260-cycle memory, and a 2-layer network with 8 dTDMA
//! pillars, dimension-order wormhole routing, 128-bit flits, and 1-cycle
//! routers.

use core::error::Error;
use core::fmt;

use crate::addr::L2Map;

/// Configuration error returned by [`SystemConfig::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A parameter that must be a nonzero power of two is not.
    NotPowerOfTwo {
        /// Name of the offending parameter.
        what: &'static str,
        /// The rejected value.
        value: u64,
    },
    /// A parameter is zero that must not be.
    Zero(&'static str),
    /// The flit/packet geometry cannot carry one cache line per packet.
    PacketTooSmall {
        /// Bits carried by one data packet.
        packet_bits: u32,
        /// Bits in one cache line.
        line_bits: u32,
    },
    /// More CPUs than the placement policy can seat (at most 4 CPUs per
    /// pillar per layer, paper §3.3).
    TooManyCpus {
        /// Requested CPU count.
        cpus: u32,
        /// Maximum seats available: `4 × pillars × layers`.
        seats: u32,
    },
    /// The dTDMA bus saturates beyond 8 layers (paper §3.1: the bus is
    /// preferable to a vertical NoC only below 9 device layers).
    TooManyLayers(u8),
    /// A parameter exceeds what the model can represent (the directory's
    /// sharer set and the builder's cluster masks hold 64 CPUs; a
    /// router's occupancy masks give every port 8 VC bits; a VC ring
    /// indexes its flits with 14 bits).
    TooLarge {
        /// Name of the offending parameter.
        what: &'static str,
        /// The rejected value.
        value: u64,
        /// The largest accepted value.
        max: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { what, value } => {
                write!(f, "{what} must be a nonzero power of two, got {value}")
            }
            ConfigError::Zero(what) => write!(f, "{what} must be nonzero"),
            ConfigError::PacketTooSmall {
                packet_bits,
                line_bits,
            } => write!(
                f,
                "a data packet carries {packet_bits} bits but a cache line is {line_bits} bits"
            ),
            ConfigError::TooManyCpus { cpus, seats } => {
                write!(
                    f,
                    "{cpus} CPUs requested but placement has only {seats} seats"
                )
            }
            ConfigError::TooManyLayers(layers) => {
                write!(f, "{layers} layers exceed the 8-layer dTDMA bus limit")
            }
            ConfigError::TooLarge { what, value, max } => {
                write!(f, "{what} must be at most {max}, got {value}")
            }
        }
    }
}

impl Error for ConfigError {}

/// Private L1 cache parameters (split I/D in the paper; both sides share
/// the same geometry so one config describes either).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L1Config {
    /// Capacity in bytes (per side).
    pub bytes: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Hit latency in cycles.
    pub latency: u32,
}

crate::codec_struct!(L1Config {
    bytes,
    ways,
    line_bytes,
    latency
});

impl L1Config {
    /// Number of sets.
    pub const fn sets(&self) -> u32 {
        self.bytes / (self.line_bytes * self.ways)
    }

    /// Total lines.
    pub const fn lines(&self) -> u32 {
        self.bytes / self.line_bytes
    }
}

impl Default for L1Config {
    /// Table 4: 64 KB, 2-way, 64 B lines, 3-cycle.
    fn default() -> Self {
        Self {
            bytes: 64 * 1024,
            ways: 2,
            line_bytes: 64,
            latency: 3,
        }
    }
}

/// Shared NUCA L2 parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L2Config {
    /// Number of clusters (each with its own tag array).
    pub clusters: u32,
    /// Banks per cluster.
    pub banks_per_cluster: u32,
    /// Capacity of one bank in bytes.
    pub bank_bytes: u32,
    /// Associativity (per set, within a bank).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Access latency of one bank in cycles.
    pub bank_latency: u32,
    /// Access latency of a cluster tag array in cycles.
    pub tag_latency: u32,
}

crate::codec_struct!(L2Config {
    clusters,
    banks_per_cluster,
    bank_bytes,
    ways,
    line_bytes,
    bank_latency,
    tag_latency
});

impl L2Config {
    /// Total number of banks.
    pub const fn total_banks(&self) -> u32 {
        self.clusters * self.banks_per_cluster
    }

    /// Sets per bank.
    pub const fn sets_per_bank(&self) -> u32 {
        self.bank_bytes / (self.line_bytes * self.ways)
    }

    /// Lines per cluster.
    pub const fn lines_per_cluster(&self) -> u32 {
        self.banks_per_cluster * self.bank_bytes / self.line_bytes
    }

    /// The address decomposition for this geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not made of powers of two; call
    /// [`SystemConfig::validate`] first for a `Result`.
    pub fn map(&self) -> L2Map {
        L2Map::new(self.clusters, self.banks_per_cluster, self.sets_per_bank())
    }

    /// Returns a copy scaled to `factor` times the capacity by widening
    /// each cluster (the paper's Fig. 16 scaling: cluster count and
    /// associativity stay fixed, banks per cluster grow).
    ///
    /// A `factor` that is not a power of two (or that overflows, which
    /// scales to 0 banks) yields a geometry [`SystemConfig::validate`]
    /// rejects as `l2.banks_per_cluster`.
    #[must_use]
    pub fn scaled(&self, factor: u32) -> Self {
        Self {
            banks_per_cluster: self.banks_per_cluster.checked_mul(factor).unwrap_or(0),
            ..*self
        }
    }
}

impl Default for L2Config {
    /// Table 4: 16 MB as 16 clusters × 16 banks × 64 KB, 16-way, 64 B
    /// lines, 5-cycle banks, 4-cycle tag arrays.
    fn default() -> Self {
        Self {
            clusters: 16,
            banks_per_cluster: 16,
            bank_bytes: 64 * 1024,
            ways: 16,
            line_bytes: 64,
            bank_latency: 5,
            tag_latency: 4,
        }
    }
}

/// On-chip network parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Device layers in the 3D stack (1 = a conventional 2D chip).
    pub layers: u8,
    /// Number of vertical dTDMA pillars (ignored when `layers == 1`).
    pub pillars: u16,
    /// Flit width in bits.
    pub flit_bits: u32,
    /// Width of the vertical dTDMA bus in bits. Narrower buses (fewer
    /// through-silicon wires — a coarser via-pitch budget, Table 2)
    /// serialise each flit over several bus cycles.
    pub bus_width_bits: u32,
    /// Flits per *data* packet (a 64 B line in 4 × 128-bit flits);
    /// control packets (requests, acks, tag probes) are one flit.
    pub data_packet_flits: u32,
    /// Router traversal latency in cycles (single-stage router).
    pub router_latency: u32,
    /// Virtual channels per physical channel.
    pub vcs_per_port: u32,
    /// Depth of each virtual-channel buffer in flits (one message deep).
    pub vc_depth_flits: u32,
}

crate::codec_struct!(NetworkConfig {
    layers,
    pillars,
    flit_bits,
    bus_width_bits,
    data_packet_flits,
    router_latency,
    vcs_per_port,
    vc_depth_flits
});

impl NetworkConfig {
    /// Bits carried by one data packet.
    pub const fn data_packet_bits(&self) -> u32 {
        self.flit_bits * self.data_packet_flits
    }

    /// Bus cycles needed to move one flit across a pillar.
    pub const fn bus_cycles_per_flit(&self) -> u32 {
        self.flit_bits.div_ceil(self.bus_width_bits)
    }
}

impl Default for NetworkConfig {
    /// Table 4: 2 layers, 8 pillars, dimension-order wormhole, 128-bit
    /// flits, 1-cycle routers; §3.2: 3 VCs per port, each one 4-flit
    /// message deep.
    fn default() -> Self {
        Self {
            layers: 2,
            pillars: 8,
            flit_bits: 128,
            bus_width_bits: 128,
            data_packet_flits: 4,
            router_latency: 1,
            vcs_per_port: 3,
            vc_depth_flits: 4,
        }
    }
}

/// Full system configuration (Table 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of processor cores.
    pub num_cpus: u32,
    /// Private L1 parameters (applies to both I and D sides).
    pub l1: L1Config,
    /// Shared L2 parameters.
    pub l2: L2Config,
    /// Off-chip memory latency in cycles.
    pub memory_latency: u32,
    /// Number of memory controllers (DRAM channels) on the edges of
    /// layer 0.
    pub memory_controllers: u16,
    /// Minimum cycles between successive requests accepted by one memory
    /// controller (the channel-bandwidth limit: one 64 B line per
    /// interval).
    pub memory_interval: u32,
    /// Network parameters.
    pub network: NetworkConfig,
}

crate::codec_struct!(SystemConfig {
    num_cpus,
    l1,
    l2,
    memory_latency,
    memory_controllers,
    memory_interval,
    network
});

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            num_cpus: 8,
            l1: L1Config::default(),
            l2: L2Config::default(),
            memory_latency: 260,
            memory_controllers: 4,
            memory_interval: 16,
            network: NetworkConfig::default(),
        }
    }
}

impl SystemConfig {
    /// Checks that the configuration is internally consistent.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint:
    /// power-of-two geometry, nonzero counts, one-line-per-packet capacity,
    /// the 64-CPU sharer set, CPU seating limits, and the 8-layer dTDMA
    /// bound.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn pow2(what: &'static str, v: u64) -> Result<(), ConfigError> {
            if v > 0 && v.is_power_of_two() {
                Ok(())
            } else {
                Err(ConfigError::NotPowerOfTwo { what, value: v })
            }
        }
        if self.num_cpus == 0 {
            return Err(ConfigError::Zero("num_cpus"));
        }
        if self.num_cpus > 64 {
            return Err(ConfigError::TooLarge {
                what: "num_cpus",
                value: self.num_cpus.into(),
                max: 64,
            });
        }
        if self.network.layers == 0 {
            return Err(ConfigError::Zero("network.layers"));
        }
        if self.network.layers > 1 && self.network.pillars == 0 {
            return Err(ConfigError::Zero("network.pillars"));
        }
        if self.network.layers > 8 {
            return Err(ConfigError::TooManyLayers(self.network.layers));
        }
        if self.network.layers > 1 && self.network.bus_width_bits == 0 {
            return Err(ConfigError::Zero("network.bus_width_bits"));
        }
        for (what, value, max) in [
            ("network.vcs_per_port", self.network.vcs_per_port, 8),
            (
                "network.vc_depth_flits",
                self.network.vc_depth_flits,
                1 << 14,
            ),
        ] {
            if value == 0 {
                return Err(ConfigError::Zero(what));
            }
            if value > max {
                return Err(ConfigError::TooLarge {
                    what,
                    value: value.into(),
                    max: max.into(),
                });
            }
        }
        if self.memory_controllers == 0 {
            return Err(ConfigError::Zero("memory_controllers"));
        }
        if self.memory_interval == 0 {
            return Err(ConfigError::Zero("memory_interval"));
        }
        pow2("l1.bytes", self.l1.bytes.into())?;
        pow2("l1.ways", self.l1.ways.into())?;
        pow2("l1.line_bytes", self.l1.line_bytes.into())?;
        pow2("l1.sets", self.l1.sets().into())?;
        pow2("l2.clusters", self.l2.clusters.into())?;
        pow2("l2.banks_per_cluster", self.l2.banks_per_cluster.into())?;
        pow2("l2.bank_bytes", self.l2.bank_bytes.into())?;
        pow2("l2.ways", self.l2.ways.into())?;
        pow2("l2.line_bytes", self.l2.line_bytes.into())?;
        pow2("l2.sets_per_bank", self.l2.sets_per_bank().into())?;
        let line_bits = self.l2.line_bytes * 8;
        if self.network.data_packet_bits() < line_bits {
            return Err(ConfigError::PacketTooSmall {
                packet_bits: self.network.data_packet_bits(),
                line_bits,
            });
        }
        if self.network.layers > 1 {
            let seats = 4 * u32::from(self.network.pillars) * u32::from(self.network.layers);
            if self.num_cpus > seats {
                return Err(ConfigError::TooManyCpus {
                    cpus: self.num_cpus,
                    seats,
                });
            }
        }
        Ok(())
    }

    /// Convenience: a 2D (single-layer) variant of this configuration.
    #[must_use]
    pub fn flattened(&self) -> Self {
        let mut cfg = *self;
        cfg.network.layers = 1;
        cfg
    }

    /// Convenience: the same configuration with `layers` device layers.
    #[must_use]
    pub fn with_layers(&self, layers: u8) -> Self {
        let mut cfg = *self;
        cfg.network.layers = layers;
        cfg
    }

    /// Convenience: the same configuration with `pillars` vertical buses.
    #[must_use]
    pub fn with_pillars(&self, pillars: u16) -> Self {
        let mut cfg = *self;
        cfg.network.pillars = pillars;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_4() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.num_cpus, 8);
        assert_eq!(cfg.l1.bytes, 64 * 1024);
        assert_eq!(cfg.l1.ways, 2);
        assert_eq!(cfg.l1.line_bytes, 64);
        assert_eq!(cfg.l1.latency, 3);
        assert_eq!(cfg.l2.total_banks(), 256);
        assert_eq!(cfg.l2.bank_bytes, 64 * 1024); // 256 × 64 KB = 16 MB
        assert_eq!(cfg.l2.ways, 16);
        assert_eq!(cfg.l2.bank_latency, 5);
        assert_eq!(cfg.l2.tag_latency, 4);
        assert_eq!(cfg.memory_latency, 260);
        assert_eq!(cfg.memory_controllers, 4);
        assert_eq!(cfg.memory_interval, 16);
        assert_eq!(cfg.network.layers, 2);
        assert_eq!(cfg.network.pillars, 8);
        assert_eq!(cfg.network.flit_bits, 128);
        assert_eq!(cfg.network.router_latency, 1);
        cfg.validate().expect("default config must validate");
    }

    #[test]
    fn bus_serialisation_follows_the_width() {
        let mut net = NetworkConfig::default();
        assert_eq!(net.bus_cycles_per_flit(), 1, "full-width bus");
        net.bus_width_bits = 64;
        assert_eq!(net.bus_cycles_per_flit(), 2);
        net.bus_width_bits = 48;
        assert_eq!(net.bus_cycles_per_flit(), 3, "rounded up");
    }

    #[test]
    fn zero_width_bus_is_rejected_on_stacks() {
        let mut cfg = SystemConfig::default();
        cfg.network.bus_width_bits = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::Zero("network.bus_width_bits"))
        );
        let flat = cfg.flattened();
        flat.validate().expect("2D chips have no bus to validate");
    }

    #[test]
    fn packet_carries_exactly_one_line() {
        let cfg = SystemConfig::default();
        // 4 flits × 128 bits = 512 bits = 64 B (paper §3.2).
        assert_eq!(cfg.network.data_packet_bits(), 512);
        assert_eq!(cfg.network.data_packet_bits(), cfg.l2.line_bytes * 8);
    }

    #[test]
    fn sets_per_bank_is_64() {
        assert_eq!(L2Config::default().sets_per_bank(), 64);
    }

    #[test]
    fn scaled_l2_grows_clusters_not_count() {
        let l2 = L2Config::default().scaled(4);
        assert_eq!(l2.clusters, 16);
        assert_eq!(l2.banks_per_cluster, 64);
        let bytes = u64::from(l2.total_banks()) * u64::from(l2.bank_bytes);
        assert_eq!(bytes, 64 * 1024 * 1024);
        assert_eq!(l2.ways, 16, "associativity maintained (paper Fig. 16)");
    }

    #[test]
    fn validate_rejects_zero_cpus() {
        let cfg = SystemConfig {
            num_cpus: 0,
            ..SystemConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::Zero("num_cpus")));
    }

    #[test]
    fn validate_rejects_more_cpus_than_the_sharer_set_holds() {
        let with = |num_cpus| SystemConfig {
            num_cpus,
            ..SystemConfig::default().with_pillars(16).with_layers(8)
        };
        assert_eq!(with(64).validate(), Ok(()));
        let too_many = Err(ConfigError::TooLarge {
            what: "num_cpus",
            value: 65,
            max: 64,
        });
        assert_eq!(with(65).validate(), too_many);
        // One layer has no pillar seats to count, so only this bound holds.
        assert_eq!(with(65).flattened().validate(), too_many);
    }

    #[test]
    fn validate_rejects_nine_layers() {
        let cfg = SystemConfig::default().with_layers(9);
        assert_eq!(cfg.validate(), Err(ConfigError::TooManyLayers(9)));
    }

    #[test]
    fn validate_rejects_unbuildable_vc_geometry() {
        let with = |vcs, depth| {
            let mut cfg = SystemConfig::default();
            cfg.network.vcs_per_port = vcs;
            cfg.network.vc_depth_flits = depth;
            cfg.validate()
        };
        assert_eq!(with(0, 4), Err(ConfigError::Zero("network.vcs_per_port")));
        assert_eq!(with(3, 0), Err(ConfigError::Zero("network.vc_depth_flits")));
        let too_many = ConfigError::TooLarge {
            what: "network.vcs_per_port",
            value: 9,
            max: 8,
        };
        assert!(too_many.to_string().contains("at most 8, got 9"));
        assert_eq!(with(9, 4), Err(too_many));
        assert!(matches!(
            with(3, (1 << 14) + 1),
            Err(ConfigError::TooLarge {
                what: "network.vc_depth_flits",
                ..
            })
        ));
        assert_eq!(
            with(8, 1 << 14),
            Ok(()),
            "the limits themselves are allowed"
        );
    }

    #[test]
    fn validate_rejects_small_packets() {
        let mut cfg = SystemConfig::default();
        cfg.network.data_packet_flits = 2;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::PacketTooSmall { .. })
        ));
    }

    #[test]
    fn validate_rejects_overfull_pillars() {
        let mut cfg = SystemConfig::default().with_pillars(1).with_layers(2);
        cfg.num_cpus = 9;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::TooManyCpus { .. })
        ));
    }

    #[test]
    fn validate_rejects_non_pow2_geometry() {
        let mut cfg = SystemConfig::default();
        cfg.l2.clusters = 12;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::NotPowerOfTwo {
                what: "l2.clusters",
                ..
            })
        ));
        // Smaller than one set: the L1 indexes sets by mask, so it needs one.
        let mut cfg = SystemConfig::default();
        cfg.l1.bytes = 64;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::NotPowerOfTwo {
                what: "l1.sets",
                value: 0
            })
        ));
    }

    #[test]
    fn flattened_is_single_layer() {
        let cfg = SystemConfig::default().flattened();
        assert_eq!(cfg.network.layers, 1);
        cfg.validate().expect("2D config must validate");
    }

    #[test]
    fn errors_display_something_useful() {
        let err = ConfigError::TooManyLayers(12);
        assert!(err.to_string().contains("12"));
        let err = ConfigError::PacketTooSmall {
            packet_bits: 256,
            line_bits: 512,
        };
        assert!(err.to_string().contains("256"));
    }
}
