//! Standalone per-layer drivers: each one drives a single crate's
//! public API directly, with inputs derived from the seed, for a fixed
//! wall-clock budget, and reports a rate. They are the same for every
//! workload — a traced run of any workload reports all of them — and
//! they never touch a whole `System`.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use network_in_memory::cache::NucaL2;
use network_in_memory::coherence::{DirAccess, Directory, WritePolicy};
use network_in_memory::core::experiments::table3_thermal;
use network_in_memory::cpu::{CoreAction, InOrderCore, L1Cache};
use network_in_memory::noc::{Delivered, Network, SendRequest, TrafficClass, VerticalMode};
use network_in_memory::obs::{Category, EventData, Obs, ObsConfig};
use network_in_memory::topology::{ChipLayout, MeshTopology, ShardPlan};
use network_in_memory::types::{AccessKind, Address, ClusterId, CpuId, LineAddr, SystemConfig};
use network_in_memory::workload::{BenchmarkProfile, TraceGenerator};

use crate::spans::SpanLog;

/// Uniform-random injection rates, packets per node per cycle. The
/// loaded rate matches the flit-accurate cell: about 1.3 M packets over
/// 600 k cycles on 256 nodes.
const LIGHT_RATE: f64 = 0.001;
const LOADED_RATE: f64 = 0.008;

/// Cycles a standalone core's L2 requests take to come back.
const CPU_REPLY_DELAY: u64 = 30;

/// SplitMix64: seeds and drives every standalone driver's inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// these ranges.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap with the given rate.
    fn gap(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }
}

/// Runs `batch` (which performs some operations and returns how many)
/// until `secs` of wall clock have passed; returns operations per second.
fn rate_of(secs: f64, mut batch: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut ops = 0u64;
    loop {
        ops += batch();
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= secs {
            return ops as f64 / elapsed;
        }
    }
}

/// What the standalone pass found: the metrics, and any self-check that
/// failed (each counts as a failed operation).
#[derive(Default)]
pub struct Standalone {
    /// Metric name (one of the per-layer table's) and value.
    pub metrics: Vec<(&'static str, f64)>,
    pub failures: Vec<String>,
    pub checks: u64,
}

/// Uniform-random traffic into a bare `Network`: `send` + `tick` +
/// `drain_delivered_into`, or — `windowed` — `advance_window` across
/// the injection-free gaps of a sharded network.
struct NocDriver {
    net: Network,
    layout: ChipLayout,
    rng: Rng,
    rate: f64,
    next_arrival: f64,
    token: u64,
    buf: Vec<Delivered>,
    delivered: u64,
}

impl NocDriver {
    fn new(seed: u64, rate_per_node: f64, shards: usize) -> NocDriver {
        let cfg = SystemConfig::default();
        let layout = ChipLayout::new(&cfg).expect("default layout builds");
        let net = Network::new_sharded(&layout, &cfg.network, VerticalMode::Pillars, shards);
        let mut rng = Rng::new(seed);
        let rate = rate_per_node * layout.num_nodes() as f64;
        let next_arrival = rng.gap(rate);
        NocDriver {
            net,
            layout,
            rng,
            rate,
            next_arrival,
            token: 0,
            buf: Vec::new(),
            delivered: 0,
        }
    }

    /// Sends every packet that arrives before the coming tick. One in
    /// four is a 4-flit data packet, the rest single-flit control — the
    /// cell's mix of probes and line transfers.
    fn inject_due(&mut self) {
        let now = self.net.now().0 as f64;
        let nodes = self.layout.num_nodes() as u64;
        while self.next_arrival < now + 1.0 {
            let src = self.layout.coord_of_index(self.rng.below(nodes) as usize);
            let dst = self.layout.coord_of_index(self.rng.below(nodes) as usize);
            let data = self.token.is_multiple_of(4);
            self.net.send(SendRequest {
                src,
                dst,
                via: self.layout.nearest_pillar(src),
                class: if data {
                    TrafficClass::Data
                } else {
                    TrafficClass::Control
                },
                flits: if data { 4 } else { 1 },
                token: self.token,
            });
            self.token += 1;
            self.next_arrival += self.rng.gap(self.rate);
        }
    }

    fn drain(&mut self) {
        if self.net.has_deliveries() {
            self.net.drain_delivered_into(&mut self.buf);
            self.delivered += self.buf.len() as u64;
            self.buf.clear();
        }
    }

    fn step(&mut self) {
        self.inject_due();
        self.net.tick();
        self.drain();
    }

    /// Like [`NocDriver::step`], but first lets the shards run
    /// concurrently up to the cycle the next packet arrives in.
    fn step_windowed(&mut self) {
        self.inject_due();
        self.net.advance_window(self.next_arrival as u64);
        self.inject_due();
        self.net.tick();
        self.drain();
    }

    /// Stops injecting, drains, and checks that nothing was lost.
    fn finish(mut self, what: &str, out: &mut Standalone) {
        out.checks += 1;
        let drained = self.net.run_until_idle(2_000_000).is_some();
        self.drain();
        let stats = self.net.stats();
        if !drained || stats.packets_sent != stats.packets_delivered || self.delivered != self.token
        {
            out.failures.push(format!(
                "noc standalone ({what}): sent {} delivered {} drained {} idle {drained}",
                stats.packets_sent, stats.packets_delivered, self.delivered
            ));
        }
    }
}

fn noc(seed: u64, secs: f64, shards: usize, log: &mut SpanLog, out: &mut Standalone) {
    log.scope("standalone noc light", "nim-noc", |_| {
        let mut d = NocDriver::new(seed, LIGHT_RATE, 1);
        let ticks_per_s = rate_of(secs, || {
            for _ in 0..256 {
                d.step();
            }
            256
        });
        out.metrics
            .push(("noc.standalone_ticks_per_s.light", ticks_per_s));
        d.finish("light", out);
    });
    log.scope("standalone noc loaded", "nim-noc", |_| {
        let mut d = NocDriver::new(seed ^ 1, LOADED_RATE, 1);
        // Fill the pipes before timing, so every timed tick is loaded.
        for _ in 0..2_000 {
            d.step();
        }
        let hops_before = d.net.stats().flit_hops;
        let start = Instant::now();
        let ticks_per_s = rate_of(secs, || {
            for _ in 0..256 {
                d.step();
            }
            256
        });
        let wall_ns = start.elapsed().as_secs_f64() * 1e9;
        let hops = d.net.stats().flit_hops - hops_before;
        out.metrics
            .push(("noc.standalone_ticks_per_s.loaded", ticks_per_s));
        out.metrics.push((
            "noc.standalone_ns_per_flit_hop.loaded",
            wall_ns / hops.max(1) as f64,
        ));
        // The horizon query, timed in batches between loaded ticks.
        const CALLS: u32 = 16;
        let mut horizon_ns = 0.0;
        let mut batches = 0u32;
        let budget = Instant::now();
        while budget.elapsed().as_secs_f64() < secs / 4.0 {
            d.step();
            let t = Instant::now();
            for _ in 0..CALLS {
                black_box(black_box(&d.net).next_event_at());
            }
            horizon_ns += t.elapsed().as_secs_f64() * 1e9;
            batches += 1;
        }
        out.metrics.push((
            "noc.next_event_at_ns.loaded",
            horizon_ns / f64::from(batches.max(1) * CALLS),
        ));
        d.finish("loaded", out);
    });
    log.scope("standalone noc window", "nim-noc", |_| {
        // As many shards as cores, like cell_sharded; one shard makes
        // `advance_window` a no-op and the driver a plain tick loop.
        let mut d = NocDriver::new(seed ^ 2, LIGHT_RATE, shards);
        let cycles_per_s = {
            let start = Instant::now();
            let from = d.net.now().0;
            while start.elapsed().as_secs_f64() < secs {
                for _ in 0..64 {
                    d.step_windowed();
                }
            }
            (d.net.now().0 - from) as f64 / start.elapsed().as_secs_f64()
        };
        out.metrics
            .push(("window.standalone_cycles_per_s", cycles_per_s));
        d.finish("window", out);
    });
}

fn cpu(seed: u64, secs: f64, log: &mut SpanLog, out: &mut Standalone) {
    let cfg = SystemConfig::default();
    let profile = BenchmarkProfile::swim();
    log.scope("standalone cpu", "nim-cpu", |_| {
        let id = CpuId(0);
        let mut core = InOrderCore::new(id, &cfg.l1);
        let mut gen = TraceGenerator::new(&profile, cfg.num_cpus, seed);
        let mut cycle = 0u64;
        let mut load: Option<(u64, Address)> = None;
        let mut stores: VecDeque<u64> = VecDeque::new();
        let rate = rate_of(secs, || {
            for _ in 0..4096 {
                if let Some((due, addr)) = load {
                    if due <= cycle {
                        black_box(core.data_returned(addr));
                        load = None;
                    }
                }
                while stores.front().is_some_and(|&due| due <= cycle) {
                    stores.pop_front();
                    core.store_completed();
                }
                if let CoreAction::Request(req) = core.tick(&mut || Some(gen.next_op(id))) {
                    if req.kind == AccessKind::Write {
                        stores.push_back(cycle + CPU_REPLY_DELAY);
                    } else {
                        load = Some((cycle + CPU_REPLY_DELAY, req.addr));
                    }
                }
                cycle += 1;
            }
            4096
        });
        black_box(core.stats());
        out.metrics.push(("cpu.standalone_ticks_per_s", rate));
    });
    log.scope("standalone l1", "nim-cpu", |_| {
        let mut gen = TraceGenerator::new(&profile, cfg.num_cpus, seed);
        let addrs: Vec<Address> = (0..1 << 16).map(|_| gen.next_op(CpuId(0)).addr).collect();
        let mut l1 = L1Cache::new(&cfg.l1);
        let rate = rate_of(secs, || {
            for &a in &addrs {
                if !l1.access(a) {
                    black_box(l1.fill(a));
                }
            }
            addrs.len() as u64
        });
        black_box(l1.stats());
        out.metrics.push(("l1.standalone_accesses_per_s", rate));
    });
}

fn cache(seed: u64, secs: f64, log: &mut SpanLog, out: &mut Standalone) {
    let cfg = SystemConfig::default();
    let capacity = u64::from(cfg.l2.clusters) * u64::from(cfg.l2.lines_per_cluster());
    let clusters = cfg.l2.clusters as u16;
    let mut rng = Rng::new(seed);
    // A working set of half the capacity, installed at home clusters.
    let resident = capacity / 2;
    let picks: Vec<LineAddr> = (0..1 << 16)
        .map(|_| LineAddr(rng.below(resident)))
        .collect();
    let installed = || {
        let mut l2 = NucaL2::new(&cfg.l2);
        for line in 0..resident {
            l2.insert(LineAddr(line));
        }
        l2
    };
    log.scope("standalone cache lookups", "nim-cache", |_| {
        let mut l2 = installed();
        let rate = rate_of(secs, || {
            for &line in &picks {
                black_box(l2.locate(line));
                black_box(l2.touch(line));
            }
            picks.len() as u64
        });
        out.metrics.push(("cache.standalone_lookups_per_s", rate));
    });
    log.scope("standalone cache inserts", "nim-cache", |_| {
        // Fill to capacity first, so every timed insert evicts.
        let mut l2 = NucaL2::new(&cfg.l2);
        let mut next = 0u64;
        while next < capacity {
            l2.insert(LineAddr(next));
            next += 1;
        }
        let rate = rate_of(secs, || {
            for _ in 0..4096 {
                black_box(l2.insert(LineAddr(next)));
                next += 1;
            }
            4096
        });
        out.checks += 1;
        if l2.stats().evictions == 0 {
            out.failures
                .push("cache standalone: inserts past capacity evicted nothing".into());
        }
        out.metrics.push(("cache.standalone_inserts_per_s", rate));
    });
    log.scope("standalone cache migrations", "nim-cache", |_| {
        let mut l2 = installed();
        let mut failed = 0u64;
        let rate = rate_of(secs, || {
            for &line in &picks {
                // A migration may evict another line of the working set
                // from a full destination set; put such a line back.
                let Some(from) = l2.locate(line) else {
                    l2.insert(line);
                    continue;
                };
                let to = ClusterId((from.0 + 1) % clusters);
                let moved =
                    l2.begin_migration(line, to).is_ok() && l2.commit_migration(line).is_ok();
                failed += u64::from(!moved);
            }
            picks.len() as u64
        });
        out.checks += 1;
        if failed > 0 {
            out.failures
                .push(format!("cache standalone: {failed} migrations refused"));
        }
        out.metrics
            .push(("cache.standalone_migrations_per_s", rate));
    });
}

fn coherence(seed: u64, secs: f64, log: &mut SpanLog, out: &mut Standalone) {
    log.scope("standalone coherence", "nim-coherence", |_| {
        let cpus = SystemConfig::default().num_cpus;
        let mut dir = Directory::new(cpus, WritePolicy::WriteThrough);
        let mut rng = Rng::new(seed);
        let rate = rate_of(secs, || {
            for _ in 0..4096 {
                let r = rng.next();
                let cpu = CpuId((r % u64::from(cpus)) as u16);
                let line = LineAddr((r >> 8) % (1 << 16));
                match (r >> 32) % 10 {
                    0 => {
                        black_box(dir.evict(cpu, line));
                    }
                    1 | 2 => {
                        black_box(dir.access(cpu, line, DirAccess::Write));
                    }
                    _ => {
                        black_box(dir.access(cpu, line, DirAccess::Read));
                    }
                }
            }
            4096
        });
        out.checks += 1;
        if let Err(e) = dir.check_invariants() {
            out.failures
                .push(format!("Directory::check_invariants: {e}"));
        }
        out.metrics
            .push(("coherence.standalone_accesses_per_s", rate));
    });
}

fn workload(seed: u64, secs: f64, log: &mut SpanLog, out: &mut Standalone) {
    log.scope("standalone workload", "nim-workload", |_| {
        let cpus = SystemConfig::default().num_cpus;
        let mut gen = TraceGenerator::new(&BenchmarkProfile::swim(), cpus, seed);
        let rate = rate_of(secs, || {
            for i in 0..4096u32 {
                black_box(gen.next_op(CpuId((i % cpus) as u16)));
            }
            4096
        });
        out.metrics.push(("workload.standalone_ops_per_s", rate));
    });
}

/// A sink that only counts, so `export_trace` is timed without a disk.
struct CountingSink(u64);

impl std::io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn obs(secs: f64, log: &mut SpanLog, out: &mut Standalone) {
    log.scope("standalone obs sample", "nim-obs", |_| {
        // The system's own epoch row: 8 pillars + 32 clusters + 10 counters.
        let names: Vec<String> = (0..50).map(|i| format!("col/{i}")).collect();
        let values: Vec<f64> = (0..50).map(f64::from).collect();
        // Rows accumulate in the sampler; start a fresh handle per batch
        // so memory stays bounded however long the budget is.
        const ROWS: u64 = 20_000;
        let mut timed = 0.0;
        let mut rows = 0u64;
        while timed < secs {
            let obs = Obs::new(ObsConfig {
                sample_every: 1_000,
                ..ObsConfig::default()
            });
            let t = Instant::now();
            for i in 1..=ROWS {
                obs.record_sample_cols(i * 1_000, &names, &values);
            }
            timed += t.elapsed().as_secs_f64();
            rows += ROWS;
        }
        out.metrics
            .push(("obs.sample_ns", timed * 1e9 / rows as f64));
    });
    let tracing = || {
        Obs::new(ObsConfig {
            trace: true,
            trace_capacity: 1 << 16,
            ..ObsConfig::default()
        })
    };
    let emit = |obs: &Obs, i: u64| {
        obs.emit(Category::Packet, || EventData::PacketDeliver {
            packet: i,
            dst: [3, 4, 1],
            latency: 40 + i % 7,
            hops: 9,
        });
    };
    log.scope("standalone obs emit", "nim-obs", |_| {
        let obs = tracing();
        let mut i = 0u64;
        let per_s = rate_of(secs, || {
            for _ in 0..4096 {
                emit(&obs, i);
                i += 1;
            }
            4096
        });
        out.metrics.push(("obs.emit_ns", 1e9 / per_s));
    });
    log.scope("standalone obs export", "nim-obs", |_| {
        let obs = tracing();
        for i in 0..1 << 16 {
            emit(&obs, i);
        }
        let mut sink = CountingSink(0);
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < secs {
            obs.export_trace(&mut sink)
                .expect("a counting sink cannot fail");
        }
        let mb = sink.0 as f64 / (1024.0 * 1024.0);
        out.metrics
            .push(("obs.export_mb_per_s", mb / start.elapsed().as_secs_f64()));
    });
}

/// Paper peaks (°C) of the four 3D offset rows of Table 3, by the label
/// `table3_thermal` gives them. The 2D row is what the solver was
/// calibrated against and the stacking rows are known to be compressed
/// (EXPERIMENTS.md), so neither is part of the error figure.
const TABLE3_PAPER_PEAKS: [(&str, f64); 4] = [
    ("3D-2L, optimal offset", 119.05),
    ("3D-2L, offset k=2", 125.02),
    ("3D-2L, offset k=1", 135.24),
    ("3D-4L, optimal offset", 158.67),
];

fn topology_and_thermal(secs: f64, log: &mut SpanLog, out: &mut Standalone) {
    log.scope("standalone topology", "nim-topology", |_| {
        let cfg = SystemConfig::default().with_layers(8);
        let per_s = rate_of(secs, || {
            black_box(MeshTopology::from_config(black_box(&cfg)).expect("8-layer chip builds"));
            1
        });
        out.metrics.push(("topology.build_s.8-layer", 1.0 / per_s));
    });
    log.scope("standalone thermal", "nim-thermal", |_| {
        let mut rows = Vec::new();
        let per_s = rate_of(secs, || {
            rows = table3_thermal().expect("the shipped Table 3 rows place");
            1
        });
        out.metrics.push(("thermal.table3_s", 1.0 / per_s));
        let mut err = 0.0;
        for (label, paper) in TABLE3_PAPER_PEAKS {
            let row = rows
                .iter()
                .find(|r| r.config == label)
                .expect("Table 3 row present");
            err += (row.peak_c - paper).abs() / paper * 100.0;
        }
        out.metrics.push((
            "thermal.table3_peak_err_pct",
            err / TABLE3_PAPER_PEAKS.len() as f64,
        ));
    });
}

/// The largest shard count the default chip supports that does not
/// exceed `nproc` — what `SystemBuilder::shards(nproc)` resolves to.
pub fn shard_count(nproc: usize) -> usize {
    let layout = ChipLayout::new(&SystemConfig::default()).expect("default layout builds");
    ShardPlan::new(&layout, nproc).shards()
}

/// Runs every standalone driver for `secs` seconds each.
pub fn run_all(seed: u64, secs: f64, nproc: usize, log: &mut SpanLog) -> Standalone {
    let mut out = Standalone::default();
    noc(seed, secs, shard_count(nproc), log, &mut out);
    cpu(seed, secs, log, &mut out);
    cache(seed, secs, log, &mut out);
    coherence(seed, secs, log, &mut out);
    workload(seed, secs, log, &mut out);
    obs(secs, log, &mut out);
    topology_and_thermal(secs, log, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Source, PER_LAYER};

    #[test]
    fn rng_is_a_function_of_its_seed() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(42);
            move || r.next()
        })
        .take(4)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(42);
            move || r.next()
        })
        .take(4)
        .collect();
        assert_eq!(a, b);
        let mut other = Rng::new(43);
        assert_ne!(a[0], other.next());
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| r.below(10) < 10));
        assert!((0..1000).all(|_| r.gap(0.5) > 0.0));
    }

    /// A very short pass: every standalone metric of the table is
    /// produced exactly once, positive, and no self-check fails.
    #[test]
    fn every_standalone_metric_is_reported_once() {
        let mut log = SpanLog::new();
        let out = run_all(7, 0.002, 2, &mut log);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(out.checks >= 6);
        let want: Vec<&str> = PER_LAYER
            .iter()
            .filter(|m| m.source == Source::Standalone || m.layer == "nim-thermal")
            .map(|m| m.name)
            .collect();
        let mut got: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
        assert!(out.metrics.iter().all(|m| m.1 > 0.0), "{:?}", out.metrics);
        got.sort_unstable();
        let mut sorted = want.clone();
        sorted.sort_unstable();
        assert_eq!(got, sorted);
        assert!(log.spans().len() >= 15);
    }
}
