//! The conservative shard-window executor.
//!
//! Between two coupling events, every shard (contiguous cluster-row
//! band, see [`nim_topology::ShardPlan`]) evolves independently:
//! router-phase moves stay inside the band, vertical moves only fill
//! the sender's own transceiver interface, and injection is node-local.
//! [`Network::advance_window`] exploits this to run all shards
//! *concurrently* over a window of cycles, with a barrier at each
//! window end where the sequential phases resume.
//!
//! # Soundness
//!
//! A window `[now+1, end]` is safe iff no *coupling event* can occur in
//! it: a bus grant (a cross-shard mutation, and the only place bus
//! statistics or contention are recorded), a local delivery (the only
//! network event the engine observes), or — new with cluster-granular
//! cuts — a mesh hop across a shard boundary. [`Network::window_horizon`]
//! lower-bounds the earliest possible coupling event from first
//! principles:
//!
//! * every router traversal costs at least `router_latency` dwell (a
//!   moved flit is restamped `arrived = now`), so a flit needing at
//!   least `h` traversals before an event can trigger it no earlier
//!   than `movable + (h - 1) × router_latency`;
//! * a flit whose dimension-order route leaves its shard's y-band
//!   (same-layer target below/above the band, or a pillar outside it)
//!   must make at least `dist-to-cut + 1` y-traversals first — the
//!   mesh-boundary lookahead, read off the per-shard band tables the
//!   [`ShardPlan`](nim_topology::ShardPlan) precomputes. A flit whose
//!   target y lies *inside* the band never crosses: x-first routing
//!   keeps y constant, then y moves monotonically toward the in-band
//!   target. Unpinned cross-layer flits re-pick their pillar
//!   adaptively, but each hop moves toward *some* pillar — if every
//!   pillar is in-band the flit stays in-band, and any out-of-band
//!   pillar contributes its crossing bound to the min;
//! * a bus grant requires the flit queued at a transceiver interface
//!   one full cycle, after the bus's serialisation window
//!   (`bus_ready_at`) expires — the multi-cycle grant latency of the
//!   dTDMA pillar is lookahead that keeps windows non-empty;
//! * a VC only ever holds flits of one packet (the owner protocol in
//!   `vc.rs`), and at most one flit per input port moves per cycle, so
//!   scanning only VC *front* flits bounds every queued flit: the k-th
//!   flit behind a front cannot beat the front's bound by construction.
//!
//! Cycles inside the window are then run per shard by
//! [`Lane::run_window`] — the same phase code as the sequential tick —
//! and are bit-identical to ticking: within a cycle, shard-order
//! processing equals global node-order processing because node indexing
//! is layer-major and shards are node-contiguous.
//!
//! # Determinism and engine overlap
//!
//! Worker threads claim whole shards from an atomic cursor; no two
//! threads ever touch the same shard, and shards share no mutable
//! state, so the interleaving cannot influence results. The calling
//! (engine) thread does not idle at the barrier — it joins the claim
//! loop as the last worker, so a window with `w` workers spawns only
//! `w - 1` threads. Trace (`FlitHop`) events are deferred into
//! per-shard buffers and replayed at the barrier in (cycle, shard)
//! order — exactly the order the sequential engine would have emitted
//! them.
//!
//! # Spawn threshold
//!
//! Spawning scoped workers costs more than it saves on a short window,
//! so windows shorter than [`DEFAULT_SPAWN_MIN`] cycles run inline on
//! the calling thread. The threshold only ever decides *whether* to
//! thread, never what to compute, so it is invisible in results;
//! [`Network::set_window_tuning`] overrides it for tests that force
//! threading.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use nim_obs::{Category, EventData};
use nim_types::{Coord, Cycle, PillarId};

use super::lane::{Lane, LaneStats, WindowSink};
use super::Network;

/// Windows shorter than this run inline on the calling thread. A
/// constant, not a measurement: a run-time calibration read 115 and 15
/// on two runs of one workload on one box, and no window of either run
/// was long enough to thread under either value.
pub(super) const DEFAULT_SPAWN_MIN: u64 = 16;

/// Window-executor activity counters: how often windows advance, how
/// long they are, and whether they ran threaded or inline. Exported via
/// the observability metrics (`net/window/*`) so parallel-efficiency
/// regressions are diagnosable; deliberately *not* part of
/// [`NetworkStats`](crate::stats::NetworkStats), which must stay
/// bit-identical across shard counts and threading.
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowStats {
    /// Windows that advanced at least one cycle.
    pub windows: u64,
    /// Total cycles covered by those windows.
    pub cycles: u64,
    /// Windows run on spawned worker threads.
    pub spawned: u64,
    /// Windows run inline on the calling thread.
    pub inline: u64,
}

impl Network {
    /// Advances every shard concurrently to `min(max_end, horizon - 1)`,
    /// where the horizon is the earliest cycle a coupling event (bus
    /// grant, delivery, or cross-shard boundary hop) could possibly
    /// occur. Returns the number of cycles advanced (0 when sharding is
    /// off, `max_end` is not ahead, or a coupling event is imminent).
    ///
    /// The caller must ensure nothing *outside* the network is due in
    /// the window (core wakeups, engine events, observability sample
    /// boundaries) — the network itself is advanced bit-identically to
    /// ticking `max_end - now` times.
    pub fn advance_window(&mut self, max_end: u64) -> u64 {
        if self.shards.len() <= 1 {
            return 0;
        }
        let start = self.now.0;
        if max_end <= start {
            return 0;
        }
        let end = max_end.min(self.window_horizon().saturating_sub(1));
        if end <= start {
            return 0;
        }
        debug_assert!(
            !self.has_deliveries(),
            "undrained deliveries at window start"
        );
        let len = end - start;
        let record = self.obs.wants(Category::Hop);
        let threaded = self.window_workers > 1 && len >= self.window_spawn_min;
        self.run_lanes(start + 1, end, record, threaded);
        self.win_stats.windows += 1;
        self.win_stats.cycles += len;
        if threaded {
            self.win_stats.spawned += 1;
        } else {
            self.win_stats.inline += 1;
        }
        self.settle_touched();
        self.now = Cycle(end);
        self.replay_hops();
        self.obs.set_now(end);
        #[cfg(debug_assertions)]
        self.check_invariants();
        len
    }

    /// Lower-bounds the earliest future cycle at which a coupling event
    /// — a dTDMA bus grant, a local delivery, or a mesh hop across a
    /// shard boundary — could occur, scanning every queue a flit can
    /// sit in. `u64::MAX` when nothing is in flight.
    fn window_horizon(&self) -> u64 {
        let next = self.now.0 + 1;
        let mut horizon = u64::MAX;
        for (s, st) in self.shards.iter().enumerate() {
            let first = s * self.geo.nodes_per_shard;
            // Buffered flits: VC fronts bound everything behind them.
            for off in st.dirty.iter() {
                let r = &self.routers[first + off];
                for (_, _, f) in r.fronts(&st.arena) {
                    let movable = (f.arrived.0 + self.geo.router_latency).max(next);
                    horizon = horizon.min(self.flit_bound(s, r.coord, f.dst, f.via, movable));
                }
            }
            // Pending injections: every queued packet can start flowing
            // inside a long window, so bound each one. Packet k's first
            // remaining flit enters a local VC no earlier than one cycle
            // per flit still ahead of it in the queue, then dwells
            // before moving.
            for off in st.inj_active.iter() {
                let mut flits_ahead = 0u64;
                for p in &self.injectors[first + off].queue {
                    let movable = next + flits_ahead + self.geo.router_latency;
                    horizon =
                        horizon.min(self.flit_bound(s, p.req.src, p.req.dst, p.req.via, movable));
                    flits_ahead += u64::from(p.req.flits - p.seq);
                }
            }
        }
        // Flits already queued at transceiver interfaces: a grant needs
        // one full cycle at the interface and a free bus.
        for b in self.bus_active.iter() {
            horizon = horizon.min(self.bus_next_grant(b).max(next));
        }
        horizon
    }

    /// The earliest cycle a flit of shard `s` at `at`, first movable at
    /// `movable`, could trigger a coupling event en route to `dst`.
    fn flit_bound(
        &self,
        s: usize,
        at: Coord,
        dst: Coord,
        via: Option<PillarId>,
        movable: u64,
    ) -> u64 {
        let lat = self.geo.router_latency;
        let (y0, y1) = self
            .plan
            .band(s, at.layer)
            .expect("flit inside its shard's band");
        debug_assert!((y0..=y1).contains(&at.y));
        // Crossing the band's north/south cut: the flit's route needs at
        // least `dist-to-cut + 1` y-traversals to enter the neighbouring
        // shard, the (h)-th traversal happening no earlier than
        // `movable + (h - 1) × lat`.
        let cross_north = movable + u64::from(at.y - y0) * lat;
        let cross_south = movable + u64::from(y1 - at.y) * lat;
        if at.layer == dst.layer {
            // Dimension-order routing moves x first (y unchanged, stays
            // in band), then y monotonically toward `dst.y`: an in-band
            // target never crosses the cut, an out-of-band one must.
            if dst.y < y0 {
                return cross_north;
            }
            if dst.y > y1 {
                return cross_south;
            }
            // Delivery: at least one traversal per remaining mesh hop,
            // each costing a fresh `router_latency` dwell, then the
            // final local pop (`d == 0` means the pop itself is next).
            let d = u64::from(at.x.abs_diff(dst.x)) + u64::from(at.y.abs_diff(dst.y));
            movable + d * lat
        } else {
            // Cross-layer: the flit heads for a pillar. An out-of-band
            // pillar puts the boundary crossing first; an in-band one
            // means a bus grant — reach the pillar, dwell one cycle at
            // its interface, and wait out the bus's serialisation
            // window.
            let via_pillar = |p: PillarId| {
                let (px, py) = self.geo.rt.layout.pillar_xy(p);
                if py < y0 {
                    return cross_north;
                }
                if py > y1 {
                    return cross_south;
                }
                let d = u64::from(at.x.abs_diff(px)) + u64::from(at.y.abs_diff(py));
                (movable + d * lat + 1).max(self.bus_ready_at[p.0 as usize])
            };
            match via {
                Some(p) => via_pillar(p),
                // Adaptive routing re-picks the nearest pillar per hop;
                // every hop moves toward *some* pillar, so the flit
                // either stays in-band until an (in-band) grant or
                // crosses toward an out-of-band pillar — both covered
                // by the min.
                None => (0..self.geo.rt.layout.num_pillars())
                    .map(|p| via_pillar(PillarId(p)))
                    .min()
                    .unwrap_or(movable),
            }
        }
    }

    /// Builds one single-shard [`Lane`] + [`WindowSink`] per shard and
    /// runs them all over `[from, to]` — inline on the calling thread,
    /// or with the calling thread joining `workers - 1` spawned workers
    /// in claiming shards from an atomic cursor (the engine thread
    /// works instead of idling at the barrier).
    fn run_lanes(&mut self, from: u64, to: u64, record: bool, threaded: bool) {
        let nodes = self.geo.nodes_per_shard;
        let workers = self.window_workers;
        let geo = &self.geo;
        let mut cells: Vec<(Lane<'_>, WindowSink<'_>)> = (self.shards.chunks_mut(1))
            .zip(self.hop_bufs.iter_mut())
            .zip(self.routers.chunks_mut(nodes))
            .zip(self.injectors.chunks_mut(nodes))
            .zip(self.traversals.chunks_mut(nodes))
            .enumerate()
            .map(
                |(s, ((((shards, hops), routers), injectors), traversals))| {
                    let lane = Lane {
                        base: s * nodes,
                        first_shard: s,
                        shards,
                        routers,
                        injectors,
                        traversals,
                        geo,
                        stats: LaneStats::default(),
                    };
                    (lane, WindowSink { hops, record })
                },
            )
            .collect();
        if threaded {
            let cursor = AtomicUsize::new(0);
            let slots: Vec<Mutex<&mut (Lane<'_>, WindowSink<'_>)>> =
                cells.iter_mut().map(Mutex::new).collect();
            let work = || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let mut cell = slot.lock().expect("window lane poisoned");
                let (lane, sink) = &mut **cell;
                lane.run_window(from, to, sink);
            };
            std::thread::scope(|scope| {
                for _ in 1..workers.min(slots.len()) {
                    scope.spawn(work);
                }
                // The engine thread claims shards too instead of
                // blocking on the barrier.
                work();
            });
        } else {
            for (lane, sink) in &mut cells {
                lane.run_window(from, to, sink);
            }
        }
        for (lane, _) in cells {
            lane.stats.fold_into(&mut self.stats);
        }
    }

    /// Replays deferred `FlitHop` events in (cycle, shard) order —
    /// within a cycle the sequential engine processes routers in node
    /// order, i.e. shard order, and each shard's buffer is already in
    /// its own emission order, so a stable sort by cycle reconstructs
    /// the exact sequential event stream.
    fn replay_hops(&mut self) {
        if self.hop_bufs.iter().all(Vec::is_empty) {
            return;
        }
        let mut merged = std::mem::take(&mut self.hop_scratch);
        debug_assert!(merged.is_empty());
        for buf in &mut self.hop_bufs {
            merged.append(buf);
        }
        merged.sort_by_key(|&(cycle, _, _)| cycle);
        let mut current = u64::MAX;
        for (cycle, at, class) in merged.drain(..) {
            if cycle != current {
                self.obs.set_now(cycle);
                current = cycle;
            }
            self.obs
                .emit(Category::Hop, || EventData::FlitHop { at, class });
        }
        self.hop_scratch = merged;
    }
}
