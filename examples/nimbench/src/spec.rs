//! What the benchmark runs and what it reports: the five workloads, the
//! end-to-end metrics with their regression bounds, and the per-layer
//! metrics every traced run emits. `BENCHMARK.json` at the repository
//! root carries the same tables; a unit test keeps the two equal.

use network_in_memory::core::FabricKind;

use crate::stats::Better;

/// Transactions completed before statistics start, on every workload.
pub const WARMUP: u64 = 2_000;

/// Seconds one run measures unless `--seconds` says otherwise (the
/// `run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 10.0;

/// `--quick` divides every transaction count by this.
pub const QUICK_DIVISOR: u64 = 20;

/// Chunks the traced run section is cut into (`run_until(k × total / 20)`).
pub const RUN_CHUNKS: u64 = 20;

/// One single-cell workload: `swim` under `Scheme::CmpDnuca3d` on the
/// default 2-layer / 8-pillar / 8-CPU chip.
#[derive(Clone, Copy, Debug)]
pub struct CellSpec {
    pub fabric: FabricKind,
    /// Cut the network into `min(nproc, max valid)` shards.
    pub sharded: bool,
    /// Pre-install the working set (statistics then start on a warm L2).
    pub prewarm: bool,
    pub edge_memory: bool,
    /// Sampled transactions per cell run.
    pub txns: u64,
}

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Cell(CellSpec),
    /// The 9 benchmarks × 4 schemes Figure-13/15 grid.
    Sweep {
        sample: u64,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

const CELL_SIM: CellSpec = CellSpec {
    fabric: FabricKind::Sim,
    sharded: false,
    prewarm: true,
    edge_memory: false,
    txns: 80_000,
};

/// All workloads are closed loops by nature: eight blocking in-order
/// cores each wait for their own reply. Cell sizes are chosen so one
/// cell run takes about two seconds on the 2-core build box and several
/// fit into one measured run; the sweep runs at `ExperimentScale::default()`
/// (the scale EXPERIMENTS.md was produced at), one pass of about 11 s.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "cell_sim",
        why: "one flit-accurate cell on a warm L2; nim-noc does about 4/5 of the work, so router, bus, event-queue and horizon work shows here",
        kind: Kind::Cell(CELL_SIM),
    },
    Workload {
        name: "cell_ideal",
        why: "the same cell on the ideal fabric: no flit is simulated, so engine, cores, L2 and trace generation do all the work; a NoC change predicts no change here",
        kind: Kind::Cell(CellSpec {
            fabric: FabricKind::Ideal,
            txns: 400_000,
            ..CELL_SIM
        }),
    },
    Workload {
        name: "cell_sharded",
        why: "exactly cell_sim with the network cut into min(nproc, max) shards: nim-noc through advance_window and the barrier instead of tick; its fingerprint must equal cell_sim's",
        kind: Kind::Cell(CellSpec {
            sharded: true,
            ..CELL_SIM
        }),
    },
    Workload {
        name: "cell_cold",
        why: "caches start empty and misses cross the mesh to edge memory controllers: L2 inserts, evictions, blocked cores and memory waits, where horizon skipping has work to do",
        kind: Kind::Cell(CellSpec {
            prewarm: false,
            edge_memory: true,
            txns: 50_000,
            ..CELL_SIM
        }),
    },
    Workload {
        name: "sweep_fig13",
        why: "the 9 benchmarks x 4 schemes Figure-13/15 grid through run_cells on every core: 36 builds and prewarms, both 2D schemes, the parallel harness, results checked against the paper",
        kind: Kind::Sweep { sample: 20_000 },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Position of a workload the caller names literally.
pub fn index_of(name: &str) -> usize {
    WORKLOADS
        .iter()
        .position(|w| w.name == name)
        .expect("a workload of the table")
}

/// An end-to-end metric: what a user of the simulator sees. `bound` is
/// the share of the baseline median by which it may worsen before a
/// change counts as a regression.
///
/// The timing bounds are 25 %, not the 10 % one would like: on the
/// shared 2-core build box ten runs of one seed spread 6–13 % (IQR over
/// median) and the whole box drifts by as much over an hour, and a
/// bound inside the spread would reject changes that touched nothing.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "host time before the first simulated cycle can run: median SystemBuilder::build + System::begin (prewarm); summed over the 36 specs for sweep_fig13",
    },
    EndToEnd {
        name: "sim_cycles_per_s",
        unit: "cycles/s",
        better: Better::Higher,
        bound: 0.25,
        what: "simulated cycles in the measurement window per host second of the run section, median over the cell runs of one process",
    },
    EndToEnd {
        name: "txns_per_s",
        unit: "txn/s",
        better: Better::Higher,
        bound: 0.25,
        what: "sampled L2 transactions per host second of the same run section; work-normalised, so a model change that alters cycle counts cannot pose as a speed-up",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        what: "VmHWM of the measuring process at exit",
    },
];

/// How a per-layer number is taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The benchmark drives the crate's public API directly.
    Standalone,
    /// Host time of calls into the layer during the workload's own run.
    Host,
    /// A simulated count or mean; repeats exactly for a fixed seed.
    Sim,
}

/// A per-layer metric every traced run reports, for whichever workload
/// it ran. `moves` names the end-to-end metric and workload a change to
/// it should show up in ("-" = report-only today).
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    pub source: Source,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        source,
        moves,
    }
}

use Better::{Higher, Lower};
use Source::{Host, Sim, Standalone};

const NOC_MOVES: &str =
    "sim_cycles_per_s, txns_per_s on cell_sim, cell_cold, cell_sharded, sweep_fig13; none on cell_ideal";
const SIM_MOVES: &str =
    "must not move under a host-speed change; explains sim_cycles_per_s when it does";

pub const PER_LAYER: [PerLayer; 45] = [
    layer(
        "noc.sim_flit_hops",
        "count",
        Lower,
        "nim-noc",
        Sim,
        SIM_MOVES,
    ),
    layer("noc.sim_packets", "count", Lower, "nim-noc", Sim, SIM_MOVES),
    layer(
        "noc.sim_bus_transfers",
        "count",
        Lower,
        "nim-noc",
        Sim,
        SIM_MOVES,
    ),
    layer(
        "noc.sim_bus_contention_cycles",
        "cy",
        Lower,
        "nim-noc",
        Sim,
        SIM_MOVES,
    ),
    layer(
        "noc.sim_switch_contention",
        "count",
        Lower,
        "nim-noc",
        Sim,
        SIM_MOVES,
    ),
    layer(
        "noc.sim_avg_packet_latency_cy",
        "cy",
        Lower,
        "nim-noc",
        Sim,
        SIM_MOVES,
    ),
    layer("cpu.sim_ipc", "ipc", Higher, "nim-cpu", Sim, SIM_MOVES),
    layer(
        "cache.sim_l2_hit_latency_cy",
        "cy",
        Lower,
        "nim-cache",
        Sim,
        SIM_MOVES,
    ),
    layer(
        "cache.sim_miss_ratio",
        "ratio",
        Lower,
        "nim-cache",
        Sim,
        SIM_MOVES,
    ),
    layer(
        "cache.sim_migrations",
        "count",
        Lower,
        "nim-cache",
        Sim,
        SIM_MOVES,
    ),
    layer(
        "cache.sim_evictions",
        "count",
        Lower,
        "nim-cache",
        Sim,
        SIM_MOVES,
    ),
    layer(
        "coherence.sim_invalidations",
        "count",
        Lower,
        "nim-coherence",
        Sim,
        SIM_MOVES,
    ),
    layer(
        "phase.noc_hop_cy_per_txn",
        "cy/txn",
        Lower,
        "attribution",
        Sim,
        SIM_MOVES,
    ),
    layer(
        "phase.pillar_wait_cy_per_txn",
        "cy/txn",
        Lower,
        "attribution",
        Sim,
        SIM_MOVES,
    ),
    layer(
        "phase.resource_queue_cy_per_txn",
        "cy/txn",
        Lower,
        "attribution",
        Sim,
        SIM_MOVES,
    ),
    layer(
        "phase.l2_service_cy_per_txn",
        "cy/txn",
        Lower,
        "attribution",
        Sim,
        SIM_MOVES,
    ),
    layer(
        "phase.mem_wait_cy_per_txn",
        "cy/txn",
        Lower,
        "attribution",
        Sim,
        SIM_MOVES,
    ),
    layer(
        "alloc.count_per_ktxn",
        "alloc/ktxn",
        Lower,
        "allocator",
        Host,
        "txns_per_s on the workload run; exact on single-threaded workloads",
    ),
    layer(
        "alloc.bytes_per_ktxn",
        "B/ktxn",
        Lower,
        "allocator",
        Host,
        "txns_per_s on the workload run; exact on single-threaded workloads",
    ),
    layer(
        "core.build_s",
        "s",
        Lower,
        "nim-core",
        Host,
        "setup_s everywhere; sweep_fig13 wall (36 builds)",
    ),
    layer(
        "core.prewarm_s",
        "s",
        Lower,
        "nim-core",
        Host,
        "setup_s everywhere but cell_cold; sweep_fig13 wall (36 prewarms)",
    ),
    layer(
        "window.cycle_share",
        "ratio",
        Higher,
        "nim-noc window",
        Host,
        "txns_per_s on cell_sharded only; 0 on unsharded workloads",
    ),
    layer(
        "window.windows",
        "count",
        Higher,
        "nim-noc window",
        Host,
        "cell_sharded only",
    ),
    layer(
        "window.spawned",
        "count",
        Higher,
        "nim-noc window",
        Host,
        "cell_sharded only",
    ),
    layer(
        "window.inline",
        "count",
        Lower,
        "nim-noc window",
        Host,
        "cell_sharded only",
    ),
    layer(
        "window.spawn_min",
        "cy",
        Lower,
        "nim-noc window",
        Host,
        "cell_sharded only",
    ),
    layer(
        "trace.overhead_ratio",
        "ratio",
        Lower,
        "nimbench",
        Host,
        "- (traced wall / untraced wall of the same workload)",
    ),
    layer(
        "noc.standalone_ticks_per_s.light",
        "1/s",
        Higher,
        "nim-noc",
        Standalone,
        NOC_MOVES,
    ),
    layer(
        "noc.standalone_ticks_per_s.loaded",
        "1/s",
        Higher,
        "nim-noc",
        Standalone,
        NOC_MOVES,
    ),
    layer(
        "noc.standalone_ns_per_flit_hop.loaded",
        "ns",
        Lower,
        "nim-noc",
        Standalone,
        NOC_MOVES,
    ),
    layer(
        "noc.next_event_at_ns.loaded",
        "ns",
        Lower,
        "nim-noc",
        Standalone,
        "txns_per_s on cell_cold (horizon skipping calls it whenever every core is blocked)",
    ),
    layer(
        "window.standalone_cycles_per_s",
        "1/s",
        Higher,
        "nim-noc window + nim-topology::shard",
        Standalone,
        "txns_per_s on cell_sharded only; must not move cell_sim",
    ),
    layer(
        "cpu.standalone_ticks_per_s",
        "1/s",
        Higher,
        "nim-cpu",
        Standalone,
        "txns_per_s on cell_ideal; cell_cold barely (cores blocked)",
    ),
    layer(
        "l1.standalone_accesses_per_s",
        "1/s",
        Higher,
        "nim-cpu",
        Standalone,
        "txns_per_s on cell_ideal",
    ),
    layer(
        "cache.standalone_lookups_per_s",
        "1/s",
        Higher,
        "nim-cache",
        Standalone,
        "txns_per_s on cell_ideal",
    ),
    layer(
        "cache.standalone_inserts_per_s",
        "1/s",
        Higher,
        "nim-cache",
        Standalone,
        "txns_per_s on cell_cold only (prewarmed cells miss 0 %)",
    ),
    layer(
        "cache.standalone_migrations_per_s",
        "1/s",
        Higher,
        "nim-cache",
        Standalone,
        "txns_per_s on cell_ideal",
    ),
    layer(
        "coherence.standalone_accesses_per_s",
        "1/s",
        Higher,
        "nim-coherence",
        Standalone,
        "txns_per_s on cell_ideal",
    ),
    layer(
        "workload.standalone_ops_per_s",
        "1/s",
        Higher,
        "nim-workload",
        Standalone,
        "txns_per_s on cell_ideal; core.prewarm_s",
    ),
    layer(
        "obs.sample_ns",
        "ns",
        Lower,
        "nim-obs",
        Standalone,
        "- (observability is off in every end-to-end run; predicts zero)",
    ),
    layer(
        "obs.emit_ns",
        "ns",
        Lower,
        "nim-obs",
        Standalone,
        "- (as obs.sample_ns)",
    ),
    layer(
        "obs.export_mb_per_s",
        "MB/s",
        Higher,
        "nim-obs",
        Standalone,
        "- (as obs.sample_ns)",
    ),
    layer(
        "topology.build_s.8-layer",
        "s",
        Lower,
        "nim-topology",
        Standalone,
        "setup_s",
    ),
    layer(
        "thermal.table3_s",
        "s",
        Lower,
        "nim-thermal",
        Standalone,
        "-",
    ),
    layer(
        "thermal.table3_peak_err_pct",
        "%",
        Lower,
        "nim-thermal",
        Sim,
        "- (mean abs peak error of the four 3D offset rows of Table 3 against the paper; exact)",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn names<'a>(v: &'a Value, key: &str) -> Vec<&'a str> {
        v.get(key)
            .expect("key present")
            .items()
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).expect("name"))
            .collect()
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; these
    /// tables are what the program emits. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            names(&v, "workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (entry, w) in v.get("workloads").unwrap().items().iter().zip(&WORKLOADS) {
            assert_eq!(entry.get("why").and_then(Value::as_str), Some(w.why));
            assert!(w.why.len() <= 200, "{} why is too long", w.name);
        }
        assert_eq!(
            names(&v, "end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, m) in v.get("end_to_end").unwrap().items().iter().zip(&END_TO_END) {
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(m.better.name())
            );
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        assert_eq!(
            names(&v, "per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, m) in v.get("per_layer").unwrap().items().iter().zip(&PER_LAYER) {
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(m.better.name())
            );
        }
        assert_eq!(
            v.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")))
        {
            assert!(ok_name(name), "bad name {name}");
            assert!(ok_unit(unit), "bad unit {unit} on {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
