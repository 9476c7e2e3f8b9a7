//! The L2 protocol engine.
//!
//! [`Engine`] owns everything the paper's distributed L2 protocol needs
//! — the NUCA L2 and its tag state, the directory, the cores' L1 side,
//! the live [`TxnTable`](crate::txn::TxnTable) — and implements every
//! protocol transition (two-step CMP-DNUCA search, vertical pillar
//! broadcasts, bank reads/writes, the memory path, migration,
//! coherence invalidations) as methods generic over the
//! [`Fabric`] seam. The engine never touches the network or the event
//! queue directly, which is what makes each transition unit-testable
//! against [`TestFabric`](crate::fabric::TestFabric) — see the sibling
//! `tests` module.
//!
//! Scheme-specific choices are the fields of
//! [`Policy`](crate::policy::Policy), bound once at build time.

use nim_cache::{migration_target, NucaL2, SearchPlan};
use nim_coherence::{DirAccess, Directory};
use nim_cpu::MemRequest;
use nim_obs::{Category, EventData};
use nim_topology::{ChipLayout, CpuSeat};
use nim_types::{
    AccessKind, ClusterId, Coord, CpuId, Cycle, FxHashMap, LineAddr, LineMap, PillarId,
};

use crate::cores::Cores;
use crate::fabric::{ClaimedDelay, Delivered, Fabric};
use crate::fanout::StepFanout;
use crate::policy::{MemoryRoute, Policy};
use crate::report::Counters;
use crate::token::{TimedEvent, Token};
use crate::txn::{after_search_exhausted, MissReply, Phase, SearchOutcome, Txn, TxnId, TxnTable};

#[cfg(test)]
#[path = "protocol_tests.rs"]
mod tests;

/// The protocol engine: all chip state the L2 protocol reads and
/// mutates, plus every transition handler. The run loop in
/// [`System`](crate::System) feeds it core requests, delivered packets,
/// and due timed events; everything the engine does to the outside
/// world goes through its [`Fabric`] parameter.
#[derive(Debug)]
pub(crate) struct Engine {
    /// The chip geometry (shared read-only by every layer).
    pub(crate) layout: ChipLayout,
    /// Where the CPUs ended up.
    pub(crate) seats: Vec<CpuSeat>,
    /// Per-CPU two-step search plans.
    pub(crate) plans: Vec<SearchPlan>,
    /// Per CPU, steps 1 and 2 of its plan resolved into probe lists.
    pub(crate) fanout: Vec<[StepFanout; 2]>,
    /// Bitmask of CPUs seated in each cluster.
    pub(crate) cluster_cpus: Vec<u64>,
    /// CPU seated at each coordinate (L1 invalidation routing).
    pub(crate) cpu_at: FxHashMap<Coord, CpuId>,
    /// The NUCA L2 (tags, banks and migration state).
    pub(crate) l2: NucaL2,
    /// The write-through MSI directory.
    pub(crate) dir: Directory,
    /// The cores and their L1s, each ticked only when it acts.
    pub(crate) cores: Cores,
    /// Live transactions + the MSHR miss ledger.
    pub(crate) txns: TxnTable,
    /// CPU that last accessed each line (drives the migration trigger);
    /// recorded only under a scheme that migrates.
    pub(crate) last_accessor: LineMap<CpuId>,
    /// Memory-controller positions (edges of layer 0).
    pub(crate) mc_coords: Vec<Coord>,
    /// Protocol counters (the report's raw material).
    pub(crate) counters: Counters,
    /// The scheme's protocol policy, bound at build time.
    pub(crate) policy: Policy,
    /// Cache-line size in bytes.
    pub(crate) line_bytes: u64,
}

impl Engine {
    // ----- plumbing -------------------------------------------------------

    fn seat(&self, cpu: CpuId) -> &CpuSeat {
        &self.seats[cpu.index()]
    }

    fn via(&self, cpu: CpuId) -> Option<PillarId> {
        self.seats[cpu.index()].pillar
    }

    fn center(&self, cl: ClusterId) -> Coord {
        self.layout.cluster_center(cl)
    }

    fn bank_coord(&self, cluster: ClusterId, line: LineAddr) -> Coord {
        let map = self.l2.map();
        let bank = map.global_bank(cluster, map.bank_in_cluster(line));
        self.layout.coord_of_bank(bank)
    }

    /// Sends `token` from `cpu`'s seat to `dst` over the CPU's pillar.
    fn send_from_cpu(&self, f: &mut impl Fabric, cpu: CpuId, dst: Coord, token: Token) {
        let seat = self.seat(cpu);
        f.send(seat.coord, dst, token, seat.pillar);
    }

    /// Sends `token` from `src` to `cpu`'s seat over the CPU's pillar.
    fn send_to_cpu(&self, f: &mut impl Fabric, src: Coord, cpu: CpuId, token: Token) {
        let seat = self.seat(cpu);
        f.send(src, seat.coord, token, seat.pillar);
    }

    /// Claims the bank at `at` through the fabric (node-indexing it).
    fn bank_delay(&self, f: &mut impl Fabric, at: Coord, now: Cycle, write: bool) -> ClaimedDelay {
        f.bank_delay(self.layout.node_index(at), now, write)
    }

    /// Claims `cluster`'s tag array for transaction `id`'s probe and
    /// schedules the lookup's completion.
    fn probe_tags(f: &mut impl Fabric, id: TxnId, cluster: ClusterId, now: Cycle) {
        let delay = f.tag_delay(cluster, now);
        let done = TimedEvent::ProbeResolved {
            txn: id,
            cluster,
            queue: delay.queue,
        };
        f.schedule(now, delay.total(), done);
    }

    /// The baseline's oracle skips probe latency, so its tag check
    /// happens when the request reaches the bank; searching schemes have
    /// paid for theirs already.
    fn tag_check_at_bank(&self, f: &mut impl Fabric, line: LineAddr, now: Cycle) -> ClaimedDelay {
        if !self.policy.oracle_search {
            return ClaimedDelay::NONE;
        }
        let cl = self.l2.locate(line);
        f.tag_delay(cl.unwrap_or(self.l2.home_cluster(line)), now)
    }

    /// Claims the bank at `at` for transaction `id`'s read (after `tag`,
    /// a tag check already claimed) and schedules its completion.
    fn read_bank(
        &mut self,
        f: &mut impl Fabric,
        id: TxnId,
        at: Coord,
        tag: ClaimedDelay,
        now: Cycle,
    ) {
        self.counters.bank_accesses += 1;
        let delay = tag + self.bank_delay(f, at, now, false);
        let queue = delay.queue;
        f.schedule(
            now,
            delay.total(),
            TimedEvent::BankReadDone { txn: id, at, queue },
        );
    }

    /// A line reached the bank at `at` (a memory fill or a migrating
    /// line): the bank absorbs it when its port frees up, then
    /// `done` fires.
    fn absorb_at_bank(&self, f: &mut impl Fabric, at: Coord, done: TimedEvent, now: Cycle) {
        let delay = self.bank_delay(f, at, now, true).total();
        f.schedule(now, delay, done);
    }

    // ----- transaction lifecycle ------------------------------------------

    /// A core issued a memory request: open a transaction and start the
    /// policy's lookup.
    pub(crate) fn handle_request(&mut self, f: &mut impl Fabric, req: MemRequest, now: Cycle) {
        let line = req.addr.line(self.line_bytes);
        let id = self
            .txns
            .allocate(Txn::new(req.cpu, req.kind, req.addr, line, now));
        self.emit_txn_begin(f, id, &req);
        if self.policy.oracle_search {
            self.perfect_lookup(f, id, now);
        } else {
            self.issue_search_step(f, id, 1, now);
        }
    }

    /// CMP-DNUCA's perfect-search oracle: the requester knows the line's
    /// location without probing.
    fn perfect_lookup(&mut self, f: &mut impl Fabric, id: TxnId, now: Cycle) {
        let t = *self.txns.get(id).expect("live txn");
        self.counters.tag_accesses += 1;
        match self.l2.locate(t.line) {
            Some(cl) => {
                let bank = self.bank_coord(cl, t.line);
                self.txns.get_mut(id).expect("live txn").serve_from(cl);
                let token = match t.kind {
                    AccessKind::Read | AccessKind::IFetch => Token::BankFetch { txn: id },
                    AccessKind::Write => Token::WriteData { txn: id },
                };
                self.send_from_cpu(f, t.cpu, bank, token);
            }
            None => self.go_to_memory(f, id, now),
        }
    }

    /// Issues one step of the two-step search (paper §4.2.1).
    ///
    /// Same-layer clusters are probed with individual request packets.
    /// Remote layers receive a single tag *broadcast* riding the CPU's
    /// pillar — one packet per layer probes that layer's whole disc and
    /// returns at most one (aggregated) miss reply, exactly the
    /// bandwidth advantage the paper attributes to the pillar broadcast.
    fn issue_search_step(&mut self, f: &mut impl Fabric, id: TxnId, step: u8, now: Cycle) {
        let cpu = self.txns.get(id).expect("live txn").cpu.index();
        // Step 1 reaches remote layers with one broadcast per layer (the
        // tag rides the pillar once and fans out to the cylinder's tag
        // arrays); step 2 is a plain multicast — every remaining cluster,
        // remote ones included, gets its own request packet (paper
        // §4.2.1), so step-2 searches load the pillars individually.
        let fan = &self.fanout[cpu][usize::from(step != 1)];
        let local = self.plans[cpu].local;
        let seat = self.seats[cpu];
        f.obs().emit(Category::Search, || EventData::SearchStep {
            txn: u64::from(id),
            step,
            targets: fan.targets,
        });
        // Every probed tag array answers individually, broadcast targets
        // included.
        self.txns
            .get_mut(id)
            .expect("live txn")
            .begin_step(step, fan.targets);
        self.counters.tag_accesses += fan.direct.len() as u64;
        for &(cl, center) in &fan.direct {
            if cl == local {
                // The local tag array is directly connected (paper §4.1).
                Self::probe_tags(f, id, cl, now);
            } else {
                let token = Token::Probe {
                    txn: id,
                    cluster: cl,
                };
                f.send(seat.coord, center, token, seat.pillar);
            }
        }
        for layer in (0..8u8).filter(|l| fan.remote_layers >> l & 1 != 0) {
            let pillar = seat.pillar.expect("remote layers imply a pillar");
            let token = Token::VerticalProbe {
                txn: id,
                layer,
                step,
            };
            let dst = self.layout.pillar_coord(pillar, layer);
            f.send(seat.coord, dst, token, seat.pillar);
        }
    }

    /// A tag array finished its lookup for one probe: serve a hit, or
    /// answer with a miss reply. `direct` probes — the requester's own
    /// tag array or an individual probe packet — are traced; one
    /// cluster's share of a pillar broadcast is not, and each of its
    /// miss replies individually rides the pillar back, which is what
    /// loads the bus when few pillars serve many CPUs (Fig. 17).
    fn resolve_probe(
        &mut self,
        f: &mut impl Fabric,
        id: TxnId,
        t: Txn,
        cluster: ClusterId,
        direct: bool,
        now: Cycle,
    ) {
        if direct {
            f.obs().emit(Category::Search, || EventData::Probe {
                txn: u64::from(id),
                cluster: u32::from(cluster.0),
                step: t.step,
            });
        }
        if !t.is_searching() {
            // Probes resolving after the transaction was served are
            // dropped: their outcome no longer matters.
            return;
        }
        // Local tag arrays answer directly; a remote-layer cluster is
        // never the local one.
        let seat = self.seat(t.cpu).coord;
        let origin = if cluster == self.plans[t.cpu.index()].local {
            seat
        } else {
            self.center(cluster)
        };
        if self.l2.has_copy_at(t.line, cluster) {
            // A probe that matched only an in-flight migration entry
            // serves from the line's current location.
            let serving = self.l2.locate(t.line).expect("a hit implies residency");
            self.serve_hit(f, id, origin, serving, now);
        } else if origin == seat {
            self.probe_missed(f, id, now);
        } else {
            self.send_to_cpu(f, origin, t.cpu, Token::ProbeMiss { txn: id });
        }
    }

    /// A tag array found the line: forward the request toward the data
    /// (reads) or tell the writer where to ship its store (writes).
    fn serve_hit(
        &mut self,
        f: &mut impl Fabric,
        id: TxnId,
        origin: Coord,
        serving: ClusterId,
        now: Cycle,
    ) {
        let t = *self.txns.get(id).expect("live txn");
        f.obs().emit(Category::Search, || EventData::ProbeHit {
            txn: u64::from(id),
            cluster: u32::from(serving.0),
        });
        self.txns.get_mut(id).expect("live txn").serve_from(serving);
        match t.kind {
            AccessKind::Read | AccessKind::IFetch => {
                // The tag array forwards the request to the bank; the
                // data is routed straight to the requester (§4.2.1).
                let bank = self.bank_coord(serving, t.line);
                f.send(origin, bank, Token::BankFetch { txn: id }, self.via(t.cpu));
            }
            // The writer must learn the location to ship its data.
            AccessKind::Write if origin == self.seat(t.cpu).coord => {
                self.write_data_to(f, id, t, now);
            }
            AccessKind::Write => {
                let token = Token::FoundForWrite {
                    txn: id,
                    cluster: serving,
                };
                self.send_to_cpu(f, origin, t.cpu, token);
            }
        }
    }

    /// A pillar tag broadcast arrived at one remote layer: fan the probe
    /// out to every target tag array on that layer, charging each the
    /// mesh distance from the pillar node.
    fn vertical_probe_arrived(
        &mut self,
        f: &mut impl Fabric,
        id: TxnId,
        t: Txn,
        at: Coord,
        step: u8,
        now: Cycle,
    ) {
        let fan = &self.fanout[t.cpu.index()][usize::from(step != 1)];
        let targets = fan.on_layer(at.layer);
        debug_assert!(!targets.is_empty(), "broadcast to a layer with no targets");
        self.counters.tag_accesses += targets.len() as u64;
        for &(cl, fanout) in targets {
            let delay = f.tag_delay(cl, now);
            f.schedule(
                now,
                delay.total().saturating_add(fanout),
                TimedEvent::VerticalClusterResolved {
                    txn: id,
                    cluster: cl,
                    queue: delay.queue,
                    fanout,
                },
            );
        }
    }

    /// A miss answer reached the requester.
    fn probe_missed(&mut self, f: &mut impl Fabric, id: TxnId, now: Cycle) {
        let Some(t) = self.txns.get_mut(id) else {
            return;
        };
        match t.note_probe_miss() {
            MissReply::Ignored | MissReply::StillWaiting => return,
            MissReply::Exhausted => {}
        }
        let t = *t;
        f.obs().emit(Category::Search, || EventData::ProbeMiss {
            txn: u64::from(id),
            step: t.step,
        });
        let step2_empty = self.plans[t.cpu.index()].step2.is_empty();
        let resident = self.l2.locate(t.line).is_some();
        match after_search_exhausted(t.step, step2_empty, resident, t.retries) {
            SearchOutcome::NextStep => self.issue_search_step(f, id, 2, now),
            SearchOutcome::Retry => {
                self.counters.search_retries += 1;
                f.obs().emit(Category::Search, || EventData::SearchRetry {
                    txn: u64::from(id),
                    attempt: u32::from(t.retries) + 1,
                });
                self.txns.get_mut(id).expect("live txn").retries += 1;
                self.issue_search_step(f, id, 1, now);
            }
            SearchOutcome::Memory => self.go_to_memory(f, id, now),
        }
    }

    /// The transaction missed everywhere: fetch the line from memory
    /// (merging concurrent misses on the same line, MSHR-style). Under
    /// [`MemoryRoute::EdgeControllers`] the request travels over the
    /// network to the controller nearest the line's home bank, whose
    /// channel bandwidth limits how fast back-to-back misses drain;
    /// under [`MemoryRoute::Flat`] the fill simply appears after the
    /// paper's fixed latency.
    fn go_to_memory(&mut self, f: &mut impl Fabric, id: TxnId, now: Cycle) {
        let t = self.txns.get_mut(id).expect("live txn");
        t.begin_memory_wait();
        let line = t.line;
        let cpu = t.cpu;
        if !self.txns.enqueue_fill(line, id) {
            return; // an earlier miss on this line already fetches it
        }
        f.obs()
            .emit(Category::Memory, || EventData::MemRequest { line: line.0 });
        match self.policy.memory {
            MemoryRoute::EdgeControllers => {
                let mc = self.nearest_mc(self.bank_coord(self.l2.home_cluster(line), line));
                self.send_from_cpu(f, cpu, self.mc_coords[mc], Token::MemRequest { line });
            }
            MemoryRoute::Flat { latency } => {
                f.schedule(now, latency, TimedEvent::MemoryFetched { line });
            }
        }
    }

    /// Index of the memory controller nearest to `c` (2D distance; the
    /// controllers all sit on layer 0).
    fn nearest_mc(&self, c: Coord) -> usize {
        self.mc_coords
            .iter()
            .enumerate()
            .min_by_key(|(_, mc)| c.manhattan_2d(**mc))
            .map(|(i, _)| i)
            .expect("at least one memory controller")
    }

    /// A miss request reached a memory controller: queue behind the
    /// channel's bandwidth limit, then access DRAM.
    fn mem_request_arrived(&mut self, f: &mut impl Fabric, line: LineAddr, at: Coord, now: Cycle) {
        let mc = self
            .mc_coords
            .iter()
            .position(|c| *c == at)
            .expect("delivery at a memory controller") as u16;
        // Channel bandwidth queueing counts as memory wait (the waiters'
        // timelines are closed wholesale at the fill), so only the total
        // matters here.
        let done = f.memory_delay(mc as usize, now).total();
        f.schedule(now, done, TimedEvent::MemoryReady { line, mc });
    }

    /// DRAM answered: ship the line to its home bank.
    fn memory_ready(&mut self, f: &mut impl Fabric, line: LineAddr, mc: u16) {
        let src = self.mc_coords[mc as usize];
        let dst = self.bank_coord(self.l2.home_cluster(line), line);
        f.send(src, dst, Token::MemFill { line }, None);
    }

    /// Off-chip memory delivered the line: place it and serve the waiters.
    fn memory_fetched(&mut self, f: &mut impl Fabric, line: LineAddr, now: Cycle) {
        f.obs()
            .emit(Category::Memory, || EventData::MemFill { line: line.0 });
        let waiters = self.txns.take_fill_waiters(line);
        if self.l2.locate(line).is_none() {
            let placed = self.l2.insert(line);
            if let Some(victim) = placed.evicted {
                let from = self.center(placed.cluster);
                self.handle_l2_eviction(f, victim, from);
            }
        }
        let serving = self.l2.locate(line).expect("just inserted");
        let bank = self.bank_coord(serving, line);
        for id in waiters {
            let Some(t) = self.txns.get_mut(id) else {
                continue;
            };
            // Everything since the waiter's last attribution point was
            // spent waiting on this fill (DRAM access, channel queueing,
            // and — under edge controllers — the fill's network legs).
            t.timeline.credit(Phase::MemWait, now);
            let t = *t;
            match t.kind {
                // The fill serves the read directly from the bank.
                AccessKind::Read | AccessKind::IFetch => {
                    self.read_bank(f, id, bank, ClaimedDelay::NONE, now);
                }
                AccessKind::Write => {
                    let token = Token::FoundForWrite {
                        txn: id,
                        cluster: serving,
                    };
                    self.send_to_cpu(f, self.center(serving), t.cpu, token);
                }
            }
        }
    }

    /// The writing CPU ships its store data to the line's current bank.
    fn write_data_to(&mut self, f: &mut impl Fabric, id: TxnId, t: Txn, now: Cycle) {
        match self.l2.locate(t.line) {
            Some(cl) => {
                let bank = self.bank_coord(cl, t.line);
                self.send_from_cpu(f, t.cpu, bank, Token::WriteData { txn: id });
            }
            // Evicted between the probe hit and now: fetch it back.
            None => self.go_to_memory(f, id, now),
        }
    }

    /// A forwarded read request reached a bank (or where the bank used to
    /// hold the line).
    fn bank_fetch_arrived(
        &mut self,
        f: &mut impl Fabric,
        id: TxnId,
        t: Txn,
        at: Coord,
        now: Cycle,
    ) {
        match self.l2.locate(t.line) {
            None => self.go_to_memory(f, id, now),
            Some(cl) => {
                let target = self.bank_coord(cl, t.line);
                if target == at {
                    let tag = self.tag_check_at_bank(f, t.line, now);
                    self.read_bank(f, id, at, tag, now);
                } else {
                    // The line migrated while the request was in flight;
                    // chase it.
                    f.send(at, target, Token::BankFetch { txn: id }, self.via(t.cpu));
                }
            }
        }
    }

    /// The bank finished reading: route the line to the requester.
    fn bank_read_done(&mut self, f: &mut impl Fabric, id: TxnId, t: Txn, at: Coord) {
        self.l2.touch(t.line);
        self.send_to_cpu(f, at, t.cpu, Token::DataToCpu { txn: id });
    }

    /// Store data reached the bank.
    fn write_data_arrived(
        &mut self,
        f: &mut impl Fabric,
        id: TxnId,
        t: Txn,
        at: Coord,
        now: Cycle,
    ) {
        self.counters.bank_accesses += 1;
        let tag = self.tag_check_at_bank(f, t.line, now);
        let delay = tag + self.bank_delay(f, at, now, true);
        f.schedule(
            now,
            delay.total(),
            TimedEvent::BankWritten {
                txn: id,
                at,
                queue: delay.queue,
            },
        );
    }

    /// The bank committed the store: acknowledge the CPU.
    fn bank_written(&mut self, f: &mut impl Fabric, id: TxnId, t: Txn, at: Coord) {
        self.l2.touch(t.line);
        self.send_to_cpu(f, at, t.cpu, Token::WriteAck { txn: id });
    }

    /// The read data arrived at the CPU: the transaction completes.
    fn complete_read(&mut self, f: &mut impl Fabric, id: TxnId, now: Cycle) {
        let Some(t) = self.txns.remove(id) else {
            return;
        };
        self.finish_counters(f, id, &t, now);
        let evicted = self.cores.data_returned(t.cpu, t.addr, now.0);
        if let Some(ev) = evicted {
            self.dir.evict(t.cpu, ev);
        }
        self.dir.access(t.cpu, t.line, DirAccess::Read);
        let repeated =
            self.policy.migrates && self.last_accessor.insert(t.line, t.cpu) == Some(t.cpu);
        self.maybe_migrate(f, t.cpu, t.line, repeated);
    }

    /// The store acknowledgement arrived: the transaction completes and
    /// other sharers get invalidated (write-through MSI).
    fn complete_write(&mut self, f: &mut impl Fabric, id: TxnId, now: Cycle) {
        let Some(t) = self.txns.remove(id) else {
            return;
        };
        self.finish_counters(f, id, &t, now);
        self.cores.store_completed(t.cpu);
        let token = Token::Invalidate { line: t.line };
        for sharer in self.dir.access(t.cpu, t.line, DirAccess::Write).iter() {
            self.counters.invalidations += 1;
            self.send_from_cpu(f, t.cpu, self.seat(sharer).coord, token);
        }
        let repeated =
            self.policy.migrates && self.last_accessor.insert(t.line, t.cpu) == Some(t.cpu);
        self.maybe_migrate(f, t.cpu, t.line, repeated);
    }

    /// The L2 dropped a line: invalidate every L1 copy.
    pub(crate) fn handle_l2_eviction(
        &mut self,
        f: &mut impl Fabric,
        victim: LineAddr,
        from: Coord,
    ) {
        self.counters.l2_evictions += 1;
        for sharer in self.dir.invalidate_all(victim).iter() {
            self.counters.invalidations += 1;
            let dst = self.seat(sharer).coord;
            f.send(from, dst, Token::Invalidate { line: victim }, None);
        }
    }

    /// After a completed access, take one gradual migration step toward
    /// the accessor (paper §4.2.3) — if the policy migrates at all.
    ///
    /// Lines already inside the accessor's step-1 vicinity do not migrate
    /// — their access latency is already low, which is exactly why the
    /// 3D topology "exercises [migration] much less frequently ... due
    /// to the increased locality (see Figure 8)" (§5.2): in 3D the
    /// vicinity spans whole layers. The exception is data accessed
    /// repeatedly by a single processor (`repeated`), which keeps
    /// migrating until it reaches that processor's local cluster.
    fn maybe_migrate(&mut self, f: &mut impl Fabric, cpu: CpuId, line: LineAddr, repeated: bool) {
        if !self.policy.migrates {
            return;
        }
        let Some(cur) = self.l2.locate(line) else {
            return;
        };
        if self.l2.migration_of(line).is_some() {
            return;
        }
        let seat = *self.seat(cpu);
        let acc_cluster = self.layout.cluster_of(seat.coord);
        if cur == acc_cluster {
            return;
        }
        if !repeated && self.plans[cpu.index()].step1.contains(&cur) {
            return;
        }
        let cluster_cpus = &self.cluster_cpus;
        let own_bit = 1u64 << cpu.index();
        let occupied = move |cl: ClusterId| cluster_cpus[cl.index()] & !own_bit != 0;
        let Some(to) = migration_target(&self.layout, cur, acc_cluster, seat.pillar, &occupied)
        else {
            return;
        };
        if self.l2.begin_migration(line, to).is_ok() {
            let src = self.bank_coord(cur, line);
            let dst = self.bank_coord(to, line);
            // Reading the source bank and writing the destination bank.
            self.counters.bank_accesses += 2;
            f.send(src, dst, Token::MigrationMove { line }, None);
        }
    }

    /// The destination bank finished absorbing the line: commit.
    fn migration_done(&mut self, f: &mut impl Fabric, line: LineAddr) {
        match self.l2.commit_migration(line) {
            Ok(outcome) => {
                self.counters.migrations += 1;
                if let Some(victim) = outcome.evicted {
                    let from = self.center(outcome.to);
                    self.handle_l2_eviction(f, victim, from);
                }
            }
            Err(_) => {
                // Aborted mid-flight (the line was evicted); nothing to do.
            }
        }
    }

    /// A timed event came due. Transaction-scoped events close the
    /// transaction's open segment first, splitting it with the
    /// queue/fan-out amounts the claim recorded (carried in the event —
    /// never pre-credited at claim time, where a racing serve path
    /// could complete first and break the sum invariant).
    pub(crate) fn handle_event(&mut self, f: &mut impl Fabric, ev: TimedEvent, now: Cycle) {
        match ev {
            TimedEvent::ProbeResolved {
                txn,
                cluster,
                queue,
            } => {
                if let Some(t) = self.credit_event(txn, queue, 0, now) {
                    self.resolve_probe(f, txn, t, cluster, true, now);
                }
            }
            TimedEvent::VerticalClusterResolved {
                txn,
                cluster,
                queue,
                fanout,
            } => {
                if let Some(t) = self.credit_event(txn, queue, fanout, now) {
                    self.resolve_probe(f, txn, t, cluster, false, now);
                }
            }
            TimedEvent::BankReadDone { txn, at, queue } => {
                if let Some(t) = self.credit_event(txn, queue, 0, now) {
                    self.bank_read_done(f, txn, t, at);
                }
            }
            TimedEvent::BankWritten { txn, at, queue } => {
                if let Some(t) = self.credit_event(txn, queue, 0, now) {
                    self.bank_written(f, txn, t, at);
                }
            }
            TimedEvent::MemoryReady { line, mc } => self.memory_ready(f, line, mc),
            TimedEvent::MemoryFetched { line } => self.memory_fetched(f, line, now),
            TimedEvent::MigrationDone { line } => self.migration_done(f, line),
        }
    }

    /// A packet reached its destination's local port.
    pub(crate) fn handle_delivered(&mut self, f: &mut impl Fabric, d: Delivered, now: Cycle) {
        // Invariant: every cookie on the fabric came from `Token::encode`.
        let token = Token::decode(d.token).expect("a delivered cookie encodes a token");
        // `None` for a line-scoped token, and for a transaction that
        // completed already: nothing waits for its late packets (a late
        // broadcast has created no pending entry yet).
        let credited = self.credit_delivery(token, &d, now);
        match (token, credited) {
            (Token::Probe { txn, cluster }, _) => Self::probe_tags(f, txn, cluster, now),
            (Token::VerticalProbe { txn, step, .. }, Some(t)) => {
                self.vertical_probe_arrived(f, txn, t, d.dst, step, now);
            }
            (Token::ProbeMiss { txn }, _) => self.probe_missed(f, txn, now),
            (Token::BankFetch { txn }, Some(t)) => self.bank_fetch_arrived(f, txn, t, d.dst, now),
            (Token::DataToCpu { txn }, _) => self.complete_read(f, txn, now),
            (Token::FoundForWrite { txn, .. }, Some(t)) => self.write_data_to(f, txn, t, now),
            (Token::WriteData { txn }, Some(t)) => self.write_data_arrived(f, txn, t, d.dst, now),
            (Token::WriteAck { txn }, _) => self.complete_write(f, txn, now),
            (
                Token::VerticalProbe { .. }
                | Token::BankFetch { .. }
                | Token::FoundForWrite { .. }
                | Token::WriteData { .. },
                None,
            ) => {}
            // An aborted migration's line has no bank left to absorb it.
            (Token::MigrationMove { line }, _) => {
                if let Some(to) = self.l2.migration_of(line) {
                    let done = TimedEvent::MigrationDone { line };
                    self.absorb_at_bank(f, self.bank_coord(to, line), done, now);
                }
            }
            (Token::MemRequest { line }, _) => self.mem_request_arrived(f, line, d.dst, now),
            // The fill reached the home bank, which then serves the waiters.
            (Token::MemFill { line }, _) => {
                self.absorb_at_bank(f, d.dst, TimedEvent::MemoryFetched { line }, now);
            }
            (Token::Invalidate { line }, _) => {
                if let Some(&cpu) = self.cpu_at.get(&d.dst) {
                    self.cores.invalidate(cpu, line);
                }
            }
        }
    }
}
