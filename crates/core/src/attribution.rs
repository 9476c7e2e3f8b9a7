//! Engine-side latency attribution: closing [`TxnTimeline`] segments
//! and publishing the per-transaction breakdown.
//!
//! The timeline arithmetic itself lives in [`crate::txn`]; this module
//! is where the protocol engine decides *which* [`Phase`] each elapsed
//! segment belongs to. Three touch points cover every cycle of a
//! transaction's life:
//!
//! * [`Engine::credit_delivery`] — a packet carrying the transaction
//!   reached its destination: the open segment is network time,
//!   split into dTDMA pillar wait (carried on the [`Delivered`]
//!   record) and horizontal hops.
//! * [`Engine::credit_event`] — a timed event (tag probe, bank access)
//!   fired: the segment splits into the claim's serialization wait,
//!   any pillar fan-out hops, and L2 service.
//! * [`Engine::finish_counters`] — completion: the buckets are folded
//!   into [`Counters`](crate::report::Counters) and, for sampled
//!   transactions, emitted as the closing half of a Perfetto async
//!   span.
//!
//! Because each touch closes exactly the segment since the previous
//! touch, the buckets telescope: their sum equals the end-to-end
//! latency *by construction*, and [`Engine::finish_counters`]
//! debug-asserts that invariant on every completion — the standing
//! accounting oracle of the attribution layer.
//!
//! [`TxnTimeline`]: crate::txn::TxnTimeline

use nim_cpu::MemRequest;
use nim_obs::{Category, EventData};
use nim_types::{AccessKind, Cycle};

use crate::fabric::{Delivered, Fabric};
use crate::protocol::Engine;
use crate::token::Token;
use crate::txn::{Phase, Txn, TxnId, TxnState};

impl Engine {
    /// Opens the Perfetto async span for a sampled transaction (the
    /// matching end is emitted by [`Engine::finish_counters`]).
    pub(crate) fn emit_txn_begin(&self, f: &impl Fabric, id: TxnId, req: &MemRequest) {
        if f.obs().txn_span_due(u64::from(id)) {
            let kind = match req.kind {
                AccessKind::Read => "read",
                AccessKind::IFetch => "ifetch",
                AccessKind::Write => "write",
            };
            f.obs().emit(Category::Txn, || EventData::TxnBegin {
                txn: u64::from(id),
                cpu: req.cpu.index() as u32,
                kind,
            });
        }
    }

    /// Closes a transaction's open attribution segment at a timed-event
    /// fire: the claim's serialization wait goes to
    /// [`Phase::ResourceQueue`], pillar fan-out hops to
    /// [`Phase::NocHop`], and the rest of the segment is L2 service.
    /// Returns the credited transaction, `None` if it completed already,
    /// so the event's handler need not look it up again.
    pub(crate) fn credit_event(
        &mut self,
        id: TxnId,
        queue: u64,
        fanout: u64,
        now: Cycle,
    ) -> Option<Txn> {
        let t = self.txns.get_mut(id)?;
        t.timeline.credit_with(
            Phase::L2Service,
            &[(Phase::ResourceQueue, queue), (Phase::NocHop, fanout)],
            now,
        );
        Some(*t)
    }

    /// Closes a transaction's open segment at packet delivery: network
    /// time, carved into the cycles the flit spent waiting for a dTDMA
    /// pillar slot and horizontal NoC hops. First credit wins when
    /// parallel probes serve one transaction — `credit_with` clamps to
    /// the remaining segment, so later arrivals add nothing. Returns the
    /// credited transaction, `None` for a line-scoped token or one whose
    /// transaction completed already.
    pub(crate) fn credit_delivery(
        &mut self,
        token: Token,
        d: &Delivered,
        now: Cycle,
    ) -> Option<Txn> {
        let t = self.txns.get_mut(token.txn_id()?)?;
        t.timeline.credit_with(
            Phase::NocHop,
            &[(Phase::PillarWait, u64::from(d.bus_wait))],
            now,
        );
        Some(*t)
    }

    /// Completion accounting for one transaction: headline counters,
    /// the phase-bucket totals, the per-cluster hit/miss matrix, the
    /// latency histogram, and (for sampled transactions) the closing
    /// span event carrying the full breakdown.
    pub(crate) fn finish_counters(&mut self, f: &mut impl Fabric, id: TxnId, t: &Txn, now: Cycle) {
        let latency = now - t.issued;
        self.counters.l2_transactions += 1;
        // The accounting oracle: the delivery that completed this
        // transaction closed its final segment, so the telescoping
        // phase buckets must sum exactly to the end-to-end latency.
        debug_assert_eq!(
            t.timeline.attributed_to(),
            now.0,
            "txn {id} completed with an open attribution segment"
        );
        debug_assert_eq!(
            t.timeline.total(),
            latency,
            "txn {id}: phase buckets must sum to end-to-end latency"
        );
        let b = t.timeline.buckets();
        self.counters.noc_hop_cycles += b[Phase::NocHop as usize];
        self.counters.pillar_wait_cycles += b[Phase::PillarWait as usize];
        self.counters.resource_queue_cycles += b[Phase::ResourceQueue as usize];
        self.counters.l2_service_cycles += b[Phase::L2Service as usize];
        self.counters.mem_wait_cycles += b[Phase::MemWait as usize];
        let obs = f.obs();
        if obs.txn_span_due(u64::from(id)) {
            obs.emit(Category::Txn, || EventData::TxnEnd {
                txn: u64::from(id),
                noc_hop: b[Phase::NocHop as usize],
                pillar_wait: b[Phase::PillarWait as usize],
                resource_queue: b[Phase::ResourceQueue as usize],
                l2_service: b[Phase::L2Service as usize],
                mem_wait: b[Phase::MemWait as usize],
                total: latency,
            });
        }
        if obs.is_enabled() {
            // Per-cluster hit/miss matrix: requester's local cluster
            // crossed with the cluster that served (or "miss").
            let local = self.plans[t.cpu.index()].local.0;
            match t.state {
                TxnState::MemoryWait => {
                    obs.counter_add(&format!("l2/miss_from/{local}"), 1);
                }
                TxnState::Serving { cluster } => {
                    obs.counter_add(&format!("l2/hits/{local}/{}", cluster.0), 1);
                }
                TxnState::Searching { .. } => {}
            }
            obs.histogram_record("l2/txn_latency", latency);
        }
        if t.was_miss() {
            self.counters.l2_misses += 1;
            self.counters.miss_latency_sum += latency;
        } else {
            self.counters.l2_hits += 1;
            self.counters.hit_latency_sum += latency;
            match t.step {
                2 => {
                    self.counters.step2_hits += 1;
                    self.counters.step2_latency_sum += latency;
                }
                _ => {
                    self.counters.step1_hits += 1;
                    self.counters.step1_latency_sum += latency;
                }
            }
        }
    }
}
