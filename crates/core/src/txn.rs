//! The typed L2 transaction engine.
//!
//! Every memory request a core issues becomes one [`Txn`] tracked in the
//! [`TxnTable`] until its data (or store acknowledgement) returns. A
//! transaction's lifecycle is a small typed state machine ([`TxnState`])
//! instead of the god-object's old web of boolean flags
//! (`served`/`was_miss`/`outstanding`/`serve_cluster`):
//!
//! ```text
//! Searching{outstanding} ──probe hit──► Serving{cluster} ──data/ack──► done
//!        │                                    │
//!        │ all probes missed                  │ line evicted mid-service
//!        ▼                                    ▼
//!   (next step / retry)────exhausted────► MemoryWait ──fill + serve──► done
//! ```
//!
//! The decision logic — what a requester does when a search step comes
//! back empty-handed ([`after_search_exhausted`]), how miss replies are
//! accounted ([`Txn::note_probe_miss`]) — is pure: no network, no
//! clock, no side effects, so it is table-testable below. The
//! [`TxnTable`] also owns the MSHR-style miss-merge bookkeeping: all
//! concurrent misses on one line share a single memory fetch.

use nim_types::{AccessKind, Address, ClusterId, CpuId, Cycle, FxHashMap, LineAddr};

/// Transaction identifier (index into the system's live-transaction
/// table; dense, so per-transaction maps hash cheaply).
pub(crate) type TxnId = u32;

/// Where a transaction's cycles went: the fixed phase taxonomy of the
/// latency-attribution layer. Every cycle between issue and completion
/// lands in exactly one bucket (see `TxnTimeline`, the
/// crate-internal telescoping accumulator).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Horizontal NoC transfer: injection, routing, and per-hop
    /// traversal of the 2D mesh (plus pillar fan-out hops).
    NocHop = 0,
    /// Waiting for a dTDMA pillar bus grant (vertical serialization).
    PillarWait = 1,
    /// Serialization queueing at a tag array's issue slot, a bank's
    /// single access port, or a DRAM channel's bandwidth interval.
    ResourceQueue = 2,
    /// In service at the L2: tag lookup and bank access cycles.
    L2Service = 3,
    /// Waiting on a DRAM fetch (the shared per-line memory fill).
    MemWait = 4,
}

impl Phase {
    /// Every phase, in bucket order.
    pub(crate) const ALL: [Phase; 5] = [
        Phase::NocHop,
        Phase::PillarWait,
        Phase::ResourceQueue,
        Phase::L2Service,
        Phase::MemWait,
    ];

    /// Stable short name (used for metric keys and sampler columns).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Phase::NocHop => "noc_hop",
            Phase::PillarWait => "pillar_wait",
            Phase::ResourceQueue => "resource_queue",
            Phase::L2Service => "l2_service",
            Phase::MemWait => "mem_wait",
        }
    }
}

/// Cycle-exact attribution of one transaction's lifetime to the
/// [`Phase`] buckets.
///
/// The timeline is a telescoping sum: `last` is the cycle up to which
/// every elapsed cycle has been attributed, and each engine touch closes
/// the segment `[last, now]` into one bucket and advances `last` to
/// `now`. Because segments never overlap and never leave gaps, the
/// buckets sum to `completed − issued` *by construction* — the standing
/// accounting invariant `finish_counters` debug-asserts on every
/// completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TxnTimeline {
    /// Cycle up to which this transaction's time is attributed.
    last: u64,
    /// Attributed cycles, indexed by `Phase as usize`.
    buckets: [u64; Phase::ALL.len()],
}

impl TxnTimeline {
    /// A fresh timeline: nothing attributed yet, anchored at issue.
    pub(crate) fn new(issued: Cycle) -> Self {
        Self {
            last: issued.0,
            buckets: [0; Phase::ALL.len()],
        }
    }

    /// Attributes every cycle from the last attribution point up to
    /// `now` to `phase`. A touch at (or before) `last` is a no-op, so
    /// multiple same-cycle touches are safe.
    pub(crate) fn credit(&mut self, phase: Phase, now: Cycle) {
        if now.0 > self.last {
            self.buckets[phase as usize] += now.0 - self.last;
            self.last = now.0;
        }
    }

    /// Attributes the segment `[last, now]` across several phases: each
    /// `(phase, cycles)` part is taken in turn, clamped to what remains
    /// of the segment, and whatever is left goes to `rest`. Used where a
    /// delivery or timed event carries known sub-delays — a packet's
    /// pillar-grant wait inside its total network time, or a claimed
    /// resource's queue-before-service split. Clamping (rather than
    /// asserting) is deliberate: with several probes of one transaction
    /// in flight, an earlier-completing touch may have already closed
    /// part of the segment.
    pub(crate) fn credit_with(&mut self, rest: Phase, parts: &[(Phase, u64)], now: Cycle) {
        if now.0 > self.last {
            let mut seg = now.0 - self.last;
            for &(phase, cycles) in parts {
                let take = cycles.min(seg);
                self.buckets[phase as usize] += take;
                seg -= take;
            }
            self.buckets[rest as usize] += seg;
            self.last = now.0;
        }
    }

    /// Attributed cycles per phase, in [`Phase::ALL`] order.
    pub(crate) fn buckets(&self) -> [u64; Phase::ALL.len()] {
        self.buckets
    }

    /// Sum over all buckets.
    pub(crate) fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The cycle up to which this timeline is attributed.
    pub(crate) fn attributed_to(&self) -> u64 {
        self.last
    }
}

/// Search restarts allowed after racing migrations before giving up and
/// going to memory.
pub(crate) const MAX_SEARCH_RETRIES: u8 = 3;

/// Where one transaction stands in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TxnState {
    /// Probing tag arrays: `outstanding` replies of the current search
    /// step (see [`Txn::step`]) have not come back yet.
    Searching {
        /// Unanswered probes in the current search step.
        outstanding: u32,
    },
    /// A probe hit at `cluster` and the service path is running — the
    /// bank access and the data return (or store round trip) are in
    /// flight. Late probe replies are ignored.
    Serving {
        /// Cluster that served the hit — feeds the per-cluster hit
        /// matrix in the metrics registry.
        cluster: ClusterId,
    },
    /// The transaction missed everywhere (or lost the line while being
    /// served) and waits on the shared memory fetch for its line.
    MemoryWait,
}

/// One in-flight L2 transaction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Txn {
    /// Requesting core.
    pub(crate) cpu: CpuId,
    /// Access kind (read / instruction fetch / write-through store).
    pub(crate) kind: AccessKind,
    /// Requested byte address.
    pub(crate) addr: Address,
    /// The address's cache line.
    pub(crate) line: LineAddr,
    /// Cycle the request left the core.
    pub(crate) issued: Cycle,
    /// Last issued search step (1 or 2; stays 1 for the oracle, which
    /// never probes). Hits are attributed to this step.
    pub(crate) step: u8,
    /// Searches re-issued after racing a migration.
    pub(crate) retries: u8,
    /// Lifecycle state.
    pub(crate) state: TxnState,
    /// Per-phase latency attribution (always on: pure inline
    /// arithmetic, no allocation — the obs handle only gates whether
    /// spans are *emitted*, never whether cycles are attributed).
    pub(crate) timeline: TxnTimeline,
}

/// What a probe-miss reply means to its transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MissReply {
    /// The transaction is already being served (or gone to memory); the
    /// late reply is dropped.
    Ignored,
    /// More probes of the current step are still unanswered.
    StillWaiting,
    /// That was the last outstanding probe — the step found nothing and
    /// the requester must decide what to do next
    /// ([`after_search_exhausted`]).
    Exhausted,
}

impl Txn {
    /// Creates a fresh transaction as the core issued it.
    pub(crate) fn new(
        cpu: CpuId,
        kind: AccessKind,
        addr: Address,
        line: LineAddr,
        issued: Cycle,
    ) -> Self {
        Self {
            cpu,
            kind,
            addr,
            line,
            issued,
            step: 1,
            retries: 0,
            state: TxnState::Searching { outstanding: 0 },
            timeline: TxnTimeline::new(issued),
        }
    }

    /// Enters search step `step` with `outstanding` probes in flight.
    pub(crate) fn begin_step(&mut self, step: u8, outstanding: u32) {
        self.step = step;
        self.state = TxnState::Searching { outstanding };
    }

    /// A probe hit: the service path is running from `cluster`.
    pub(crate) fn serve_from(&mut self, cluster: ClusterId) {
        self.state = TxnState::Serving { cluster };
    }

    /// The transaction goes (or is going) to memory.
    pub(crate) fn begin_memory_wait(&mut self) {
        self.state = TxnState::MemoryWait;
    }

    /// Whether a probe hit may still claim this transaction.
    pub(crate) fn is_searching(&self) -> bool {
        matches!(self.state, TxnState::Searching { .. })
    }

    /// Whether the transaction went to memory (counts as an L2 miss).
    pub(crate) fn was_miss(&self) -> bool {
        matches!(self.state, TxnState::MemoryWait)
    }

    /// Accounts one probe-miss reply against the current search step.
    pub(crate) fn note_probe_miss(&mut self) -> MissReply {
        match &mut self.state {
            TxnState::Searching { outstanding } => {
                debug_assert!(*outstanding > 0);
                *outstanding -= 1;
                if *outstanding > 0 {
                    MissReply::StillWaiting
                } else {
                    MissReply::Exhausted
                }
            }
            _ => MissReply::Ignored,
        }
    }
}

/// What a requester does after a whole search step missed everywhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SearchOutcome {
    /// Widen the search: issue step 2 (paper §4.2.1).
    NextStep,
    /// The line is resident but migrated between our probes (both the
    /// old and the new tag array answered "miss"); restart the search
    /// instead of falsely going to memory.
    Retry,
    /// Missed everywhere: fetch the line from memory.
    Memory,
}

/// Pure decision for a search step that came back empty-handed.
///
/// `step2_empty` — the CPU's plan has no step-2 clusters (its vicinity
/// already covers the chip). `resident` — the L2 still maps the line
/// somewhere (the migration race of §4.2.3's lazy movement).
pub(crate) fn after_search_exhausted(
    step: u8,
    step2_empty: bool,
    resident: bool,
    retries: u8,
) -> SearchOutcome {
    if step == 1 && !step2_empty {
        SearchOutcome::NextStep
    } else if resident && retries < MAX_SEARCH_RETRIES {
        SearchOutcome::Retry
    } else {
        SearchOutcome::Memory
    }
}

/// Ring slots of [`LiveTxns`], a power of two. Ids are handed out in
/// sequence and a transaction lives a few hundred cycles, so the live
/// ones span a short window of recent ids: at most 66 in the benchmark's
/// cells, warm or cold.
const TXN_RING: usize = 256;

/// Live transactions by id: each sits in ring slot `id % TXN_RING`, or —
/// when an older transaction still holds that slot — in a spill map. A
/// lookup is one indexed load and an id compare; every protocol event
/// makes one or two.
#[derive(Debug)]
struct LiveTxns {
    ring: Vec<Option<(TxnId, Txn)>>,
    spill: FxHashMap<TxnId, Txn>,
    len: usize,
}

impl Default for LiveTxns {
    fn default() -> Self {
        Self {
            ring: vec![None; TXN_RING],
            spill: FxHashMap::default(),
            len: 0,
        }
    }
}

impl LiveTxns {
    fn slot(id: TxnId) -> usize {
        id as usize % TXN_RING
    }

    /// Files `txn` under `id`, replacing a live one with that id.
    fn insert(&mut self, id: TxnId, txn: Txn) {
        if let Some(live) = self.get_mut(id) {
            *live = txn;
            return;
        }
        self.len += 1;
        match &mut self.ring[Self::slot(id)] {
            free @ None => *free = Some((id, txn)),
            Some(_) => {
                self.spill.insert(id, txn);
            }
        }
    }

    fn get(&self, id: TxnId) -> Option<&Txn> {
        match &self.ring[Self::slot(id)] {
            Some((held, t)) if *held == id => Some(t),
            _ if self.spill.is_empty() => None,
            _ => self.spill.get(&id),
        }
    }

    fn get_mut(&mut self, id: TxnId) -> Option<&mut Txn> {
        match &mut self.ring[Self::slot(id)] {
            Some((held, t)) if *held == id => Some(t),
            _ if self.spill.is_empty() => None,
            _ => self.spill.get_mut(&id),
        }
    }

    fn remove(&mut self, id: TxnId) -> Option<Txn> {
        let slot = &mut self.ring[Self::slot(id)];
        let t = if slot.as_ref().is_some_and(|(held, _)| *held == id) {
            slot.take().map(|(_, t)| t)
        } else if self.spill.is_empty() {
            None
        } else {
            self.spill.remove(&id)
        };
        self.len -= usize::from(t.is_some());
        t
    }
}

/// The live-transaction table plus the MSHR-style miss ledger.
#[derive(Debug, Default)]
pub(crate) struct TxnTable {
    txns: LiveTxns,
    next: TxnId,
    /// Misses waiting on each line's single in-flight memory fetch.
    pending_fills: FxHashMap<LineAddr, Vec<TxnId>>,
}

impl TxnTable {
    /// Admits a new transaction and returns its id.
    pub(crate) fn allocate(&mut self, txn: Txn) -> TxnId {
        let id = self.next;
        self.next += 1;
        self.txns.insert(id, txn);
        id
    }

    /// The live transaction `id`, if it has not completed.
    #[inline]
    pub(crate) fn get(&self, id: TxnId) -> Option<&Txn> {
        self.txns.get(id)
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, id: TxnId) -> Option<&mut Txn> {
        self.txns.get_mut(id)
    }

    /// Completes (removes) transaction `id`.
    pub(crate) fn remove(&mut self, id: TxnId) -> Option<Txn> {
        self.txns.remove(id)
    }

    /// No transactions in flight (the quiescence check).
    pub(crate) fn is_empty(&self) -> bool {
        self.txns.len == 0
    }

    /// Joins `id` to `line`'s miss ledger; returns `true` if this is the
    /// first waiter, i.e. the caller must issue the actual memory fetch
    /// (concurrent misses on the same line merge MSHR-style).
    pub(crate) fn enqueue_fill(&mut self, line: LineAddr, id: TxnId) -> bool {
        match self.pending_fills.get_mut(&line) {
            Some(waiters) => {
                waiters.push(id);
                false
            }
            None => {
                self.pending_fills.insert(line, vec![id]);
                true
            }
        }
    }

    /// Claims every transaction waiting on `line`'s fill.
    pub(crate) fn take_fill_waiters(&mut self, line: LineAddr) -> Vec<TxnId> {
        self.pending_fills.remove(&line).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn() -> Txn {
        Txn::new(
            CpuId::from_index(0),
            AccessKind::Read,
            Address(0x1000),
            LineAddr(0x1000 / 64),
            Cycle(5),
        )
    }

    /// The search continuation decision, as a table: (step, step2_empty,
    /// resident, retries) → outcome.
    #[test]
    fn search_exhaustion_decision_table() {
        use SearchOutcome::*;
        let table = [
            // Step 1 missing widens to step 2 whenever a step 2 exists,
            // regardless of residency or retry budget.
            ((1, false, false, 0), NextStep),
            ((1, false, true, 0), NextStep),
            ((1, false, true, 3), NextStep),
            // A plan without step 2: residency decides.
            ((1, true, false, 0), Memory),
            ((1, true, true, 0), Retry),
            // Step 2 missing retries only while the line is resident and
            // the budget lasts.
            ((2, false, true, 0), Retry),
            ((2, false, true, 2), Retry),
            ((2, false, true, 3), Memory),
            ((2, false, false, 0), Memory),
            ((2, true, false, 1), Memory),
        ];
        for ((step, step2_empty, resident, retries), want) in table {
            assert_eq!(
                after_search_exhausted(step, step2_empty, resident, retries),
                want,
                "step={step} step2_empty={step2_empty} resident={resident} retries={retries}"
            );
        }
    }

    #[test]
    fn probe_miss_accounting_walks_the_states() {
        let mut t = txn();
        t.begin_step(1, 3);
        assert!(t.is_searching());
        assert_eq!(t.note_probe_miss(), MissReply::StillWaiting);
        assert_eq!(t.note_probe_miss(), MissReply::StillWaiting);
        assert_eq!(t.note_probe_miss(), MissReply::Exhausted);
        // Once served, late replies are ignored and state sticks.
        t.begin_step(2, 2);
        t.serve_from(ClusterId(7));
        assert!(!t.is_searching());
        assert_eq!(t.note_probe_miss(), MissReply::Ignored);
        assert_eq!(
            t.state,
            TxnState::Serving {
                cluster: ClusterId(7)
            }
        );
        // Losing the line mid-service turns the hit into a miss.
        t.begin_memory_wait();
        assert!(t.was_miss());
        assert_eq!(t.note_probe_miss(), MissReply::Ignored);
    }

    #[test]
    fn timeline_buckets_telescope_to_the_elapsed_total() {
        let mut tl = TxnTimeline::new(Cycle(100));
        tl.credit(Phase::NocHop, Cycle(110));
        // Same-cycle (and stale) touches attribute nothing.
        tl.credit(Phase::MemWait, Cycle(110));
        tl.credit(Phase::MemWait, Cycle(90));
        // A split: 15-cycle segment, 6 cycles of it known queueing.
        tl.credit_with(Phase::NocHop, &[(Phase::ResourceQueue, 6)], Cycle(125));
        tl.credit(Phase::L2Service, Cycle(130));
        let b = tl.buckets();
        assert_eq!(b[Phase::NocHop as usize], 10 + 9);
        assert_eq!(b[Phase::ResourceQueue as usize], 6);
        assert_eq!(b[Phase::L2Service as usize], 5);
        assert_eq!(b[Phase::MemWait as usize], 0);
        assert_eq!(tl.total(), 30);
        assert_eq!(tl.attributed_to(), 130);
    }

    #[test]
    fn timeline_split_clamps_parts_to_the_segment() {
        let mut tl = TxnTimeline::new(Cycle(0));
        // Claimed waits (7 + 2) exceed the elapsed segment (4): parts
        // clamp in order, nothing goes negative, the total still
        // telescopes.
        tl.credit_with(
            Phase::L2Service,
            &[(Phase::PillarWait, 7), (Phase::NocHop, 2)],
            Cycle(4),
        );
        assert_eq!(tl.buckets()[Phase::PillarWait as usize], 4);
        assert_eq!(tl.buckets()[Phase::NocHop as usize], 0);
        assert_eq!(tl.buckets()[Phase::L2Service as usize], 0);
        assert_eq!(tl.total(), 4);
    }

    mod live_txns {
        use super::super::{LiveTxns, Txn, TxnId, TXN_RING};
        use nim_types::{Cycle, FxHashMap};
        use proptest::prelude::*;

        /// What a lookup shows of a transaction: enough to tell them apart.
        fn seen(t: Option<&Txn>) -> Option<(u64, u8)> {
            t.map(|t| (t.issued.0, t.retries))
        }

        proptest! {
            /// The ring answers every insert, lookup, update and removal
            /// as the hash map it replaced, while ids four ring-lengths
            /// apart fight over slots and spill.
            #[test]
            fn the_ring_behaves_as_the_map_it_replaced(
                ops in proptest::collection::vec((0u8..4, 0..4 * TXN_RING as u32), 1..300),
            ) {
                let mut ring = LiveTxns::default();
                let mut map = FxHashMap::<TxnId, Txn>::default();
                for (step, (op, id)) in ops.into_iter().enumerate() {
                    let mut t = super::txn();
                    t.issued = Cycle(step as u64);
                    match op {
                        0 | 1 => {
                            ring.insert(id, t);
                            map.insert(id, t);
                        }
                        2 => prop_assert_eq!(
                            seen(ring.remove(id).as_ref()),
                            seen(map.remove(&id).as_ref())
                        ),
                        _ => {
                            if let Some(t) = ring.get_mut(id) {
                                t.retries += 1;
                            }
                            if let Some(t) = map.get_mut(&id) {
                                t.retries += 1;
                            }
                        }
                    }
                    prop_assert_eq!(seen(ring.get(id)), seen(map.get(&id)));
                    prop_assert_eq!(ring.len, map.len());
                }
                for id in map.keys() {
                    prop_assert_eq!(seen(ring.get(*id)), seen(map.get(id)));
                }
            }
        }
    }

    #[test]
    fn txn_table_merges_concurrent_misses() {
        let mut table = TxnTable::default();
        let a = table.allocate(txn());
        let b = table.allocate(txn());
        assert_ne!(a, b);
        let line = LineAddr(9);
        assert!(table.enqueue_fill(line, a), "first waiter issues the fetch");
        assert!(!table.enqueue_fill(line, b), "second waiter merges");
        assert_eq!(table.take_fill_waiters(line), vec![a, b]);
        assert!(table.take_fill_waiters(line).is_empty());
        assert!(table.remove(a).is_some());
        assert!(table.remove(b).is_some());
        assert!(table.is_empty());
    }
}
