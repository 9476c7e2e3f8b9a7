//! Configuration and assembly of a [`System`].
//!
//! The builder is where the scheme stops mattering: it resolves the
//! [`Scheme`] into a [`Policy`](crate::policy) row, builds
//! the [`Engine`](crate::protocol::Engine) around it, and wires the real
//! [`SimFabric`](crate::fabric::SimFabric) underneath. After `build()`,
//! nothing in the simulation dispatches on `Scheme` again.

use nim_cache::{NucaL2, SearchPlan};
use nim_coherence::{Directory, WritePolicy};
use nim_cpu::InOrderCore;
use nim_noc::{Network, VerticalMode};
use nim_obs::Obs;
use nim_topology::ChipLayout;
use nim_types::{FxHashMap, SystemConfig};

use crate::cores::Cores;
use crate::error::BuildError;
use crate::fabric::{FabricKind, FabricState, LatencyModel, SimFabric};
use crate::fanout::StepFanout;
use crate::policy::{MemoryRoute, Policy};
use crate::protocol::Engine;
use crate::report::Counters;
use crate::scheme::Scheme;
use crate::system::{SampleBuf, System};
use crate::timing::Ports;
use crate::txn::TxnTable;

/// Configures and creates a [`System`].
///
/// ```
/// use nim_core::{Scheme, SystemBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let system = SystemBuilder::new(Scheme::CmpSnuca3d)
///     .seed(7)
///     .sampled_transactions(500)
///     .build()?;
/// assert_eq!(system.scheme(), Scheme::CmpSnuca3d);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SystemBuilder {
    pub(crate) recipe: Recipe,
    obs: Obs,
}

/// The build recipe: every value that decides which system `build()`
/// assembles and how its runs are driven. A built [`System`] keeps it
/// (with `cfg` as built — flattened for the 2D schemes), a snapshot
/// image carries it in this field order, and
/// [`SystemBuilder::resume_from`] rebuilds from it. The observability
/// handle is not part of it: it changes what a run records, never what
/// it computes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Recipe {
    pub(crate) scheme: Scheme,
    pub(crate) fabric: FabricKind,
    pub(crate) replication: bool,
    pub(crate) edge_memory: bool,
    pub(crate) prewarm: bool,
    pub(crate) seed: u64,
    pub(crate) warmup: u64,
    pub(crate) sample: u64,
    pub(crate) cfg: SystemConfig,
}

nim_types::codec_struct!(Recipe {
    scheme,
    fabric,
    replication,
    edge_memory,
    prewarm,
    seed,
    warmup,
    sample,
    cfg
});

impl SystemBuilder {
    /// Starts from the paper's Table 4 configuration.
    pub fn new(scheme: Scheme) -> Self {
        Self {
            recipe: Recipe {
                scheme,
                fabric: FabricKind::default(),
                replication: false,
                edge_memory: false,
                prewarm: true,
                seed: 42,
                warmup: 1_000,
                sample: 10_000,
                cfg: SystemConfig::default(),
            },
            obs: Obs::disabled(),
        }
    }

    /// Replaces the whole system configuration.
    pub fn config(mut self, cfg: SystemConfig) -> Self {
        self.recipe.cfg = cfg;
        self
    }

    /// Number of device layers (3D schemes only; 2D schemes always
    /// flatten to one layer).
    pub fn layers(mut self, layers: u8) -> Self {
        self.recipe.cfg.network.layers = layers;
        self
    }

    /// Number of vertical pillars.
    pub fn pillars(mut self, pillars: u16) -> Self {
        self.recipe.cfg.network.pillars = pillars;
        self
    }

    /// Number of CPUs seated on the chip.
    pub fn cpus(mut self, n: u32) -> Self {
        self.recipe.cfg.num_cpus = n;
        self
    }

    /// Selects the interconnect substrate: the cycle-accurate flit-level
    /// network (default) or the ideal contention-free fabric — see
    /// [`FabricKind`].
    pub fn fabric(mut self, kind: FabricKind) -> Self {
        self.recipe.fabric = kind;
        self
    }

    /// Scales the L2 capacity by a power-of-two factor (Fig. 16: wider
    /// clusters, same cluster count and associativity).
    pub fn l2_scale(mut self, factor: u32) -> Self {
        self.recipe.cfg.l2 = self.recipe.cfg.l2.scaled(factor);
        self
    }

    /// Workload seed (runs are deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.recipe.seed = seed;
        self
    }

    /// Transactions to complete before measurement starts.
    pub fn warmup_transactions(mut self, n: u64) -> Self {
        self.recipe.warmup = n;
        self
    }

    /// Transactions measured after warm-up.
    pub fn sampled_transactions(mut self, n: u64) -> Self {
        self.recipe.sample = n;
        self
    }

    /// Whether to pre-install the workload's working set in the L2 and
    /// the hot/code sets in the L1s before simulating (replaces the
    /// paper's 500 M-cycle cache warm-up phase; default on).
    pub fn prewarm(mut self, on: bool) -> Self {
        self.recipe.prewarm = on;
        self
    }

    /// Extension: replicate read-shared lines into the reader's local
    /// cluster (the NuRapid / victim-replication alternative the paper's
    /// §1–§2 discusses). Replicas serve subsequent local reads; any write
    /// invalidates them. Off by default — the paper's design relies on
    /// migration alone.
    pub fn replication(mut self, on: bool) -> Self {
        self.recipe.replication = on;
        self
    }

    /// Extension: route L2 misses over the network to edge memory
    /// controllers with per-channel bandwidth limits
    /// (`SystemConfig::{memory_controllers, memory_interval}`), instead
    /// of the paper's flat 260-cycle memory latency. Off by default so
    /// the headline experiments match the paper's memory model.
    pub fn edge_memory_controllers(mut self, on: bool) -> Self {
        self.recipe.edge_memory = on;
        self
    }

    // nimbench-frozen: examples/nimbench compiles against this name; ROADMAP item 1 Step A deletes it
    #[doc(hidden)]
    pub fn horizon_skipping(self, _on: bool) -> Self {
        self
    }

    // nimbench-frozen: examples/nimbench compiles against this name; ROADMAP item 1 Step A deletes it
    #[doc(hidden)]
    pub fn shards(self, _n: usize) -> Self {
        self
    }

    /// Attaches an observability handle (see [`nim_obs::Obs`]): the
    /// network, NUCA L2, directory, and the system's own transaction
    /// machinery all emit trace events and metrics through it. The
    /// default is a disabled handle costing one branch per site.
    pub fn observability(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Builds the system.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if the configuration, topology, or CPU
    /// placement is invalid.
    pub fn build(self) -> Result<System, BuildError> {
        let mut recipe = self.recipe;
        if !recipe.scheme.is_3d() {
            recipe.cfg = recipe.cfg.flattened();
        }
        let cfg = recipe.cfg;
        cfg.validate()?;
        let layout = ChipLayout::new(&cfg)?;
        let share_pillars =
            cfg.network.layers > 1 && u32::from(layout.num_pillars()) < cfg.num_cpus;
        let placement = recipe.scheme.placement(share_pillars);
        let seats = placement.place(&layout, cfg.num_cpus)?;
        let plans: Vec<SearchPlan> = seats
            .iter()
            .map(|s| SearchPlan::new(&layout, layout.cluster_of(s.coord)))
            .collect();
        let fanout = seats
            .iter()
            .zip(&plans)
            .map(|(seat, plan)| StepFanout::of_plan(&layout, seat, plan))
            .collect();
        let mut cluster_cpus = vec![0u64; layout.num_clusters() as usize];
        let mut cpu_at = FxHashMap::default();
        for seat in &seats {
            cluster_cpus[layout.cluster_of(seat.coord).index()] |= 1 << seat.cpu.index();
            cpu_at.insert(seat.coord, seat.cpu);
        }
        let mut net = Network::new(&layout, &cfg.network, VerticalMode::Pillars);
        net.set_obs(self.obs.clone());
        let mut l2 = NucaL2::new(&cfg.l2);
        l2.set_obs(self.obs.clone());
        let mut dir = Directory::new(cfg.num_cpus, WritePolicy::WriteThrough);
        dir.set_obs(self.obs.clone());
        let cores = Cores::new(
            seats
                .iter()
                .map(|s| InOrderCore::new(s.cpu, &cfg.l1))
                .collect(),
        );
        let policy = Policy::new(
            recipe.scheme,
            recipe.replication,
            if recipe.edge_memory {
                MemoryRoute::EdgeControllers
            } else {
                MemoryRoute::Flat {
                    latency: u64::from(cfg.memory_latency),
                }
            },
        );
        let model = LatencyModel::new(recipe.fabric, &layout, &cfg.network);
        let ports = Ports::of_chip(
            &cfg,
            layout.num_clusters() as usize,
            layout.num_nodes(),
            cfg.memory_controllers as usize,
        );
        let shared = FabricState::new(ports, cfg.network.data_packet_flits, self.obs.clone());
        let fabric = SimFabric::new(net, model, shared);
        let engine = Engine {
            seats,
            plans,
            fanout,
            cluster_cpus,
            cpu_at,
            l2,
            dir,
            cores,
            txns: TxnTable::default(),
            last_accessor: FxHashMap::default(),
            mc_coords: layout.memory_controller_coords(cfg.memory_controllers),
            counters: Counters::default(),
            policy,
            line_bytes: u64::from(cfg.l2.line_bytes),
            layout,
        };
        Ok(System {
            recipe,
            engine,
            fabric,
            sample_buf: SampleBuf::default(),
            obs: self.obs,
            progress: None,
            used: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use nim_types::codec::assert_laws;
    use nim_types::SystemConfig;
    use proptest::prelude::*;

    use super::Recipe;
    use crate::fabric::FabricKind;
    use crate::scheme::Scheme;

    proptest! {
        #[test]
        fn recipes_obey_the_codec_laws(
            (scheme, fabric, seed, warmup, sample) in (0usize..4, 0usize..2, any::<u64>(), any::<u64>(), any::<u64>()),
            flags in proptest::collection::vec(any::<bool>(), 3),
        ) {
            let (scheme, fabric) = (Scheme::ALL[scheme], FabricKind::ALL[fabric]);
            prop_assert_eq!(assert_laws(&scheme), scheme);
            prop_assert_eq!(assert_laws(&fabric), fabric);
            let recipe = Recipe {
                scheme,
                fabric,
                replication: flags[0],
                edge_memory: flags[1],
                prewarm: flags[2],
                seed,
                warmup,
                sample,
                cfg: SystemConfig::default(),
            };
            prop_assert_eq!(assert_laws(&recipe), recipe);
        }
    }
}
