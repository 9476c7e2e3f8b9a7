//! The in-order, single-issue processor core (Table 4: issue width 1).
//!
//! The core consumes a memory-reference trace: bursts of non-memory
//! instructions (one per cycle) punctuated by loads, stores, and
//! instruction fetches. Loads and fetches that miss in the L1 stall the
//! core until the L2 transaction completes (blocking in-order pipeline);
//! stores are write-through with a small store buffer, so they only stall
//! when the buffer is full. IPC falls directly out of this model, which
//! is how the paper's Figure 15 numbers arise.

use nim_types::{AccessKind, Address, CpuId, L1Config, LineAddr, TraceOp};

use crate::l1::L1Cache;

/// Default store-buffer depth (entries of outstanding write-throughs).
pub const STORE_BUFFER_DEPTH: u32 = 8;

/// An L2 transaction the core wants issued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRequest {
    /// Requesting core.
    pub cpu: CpuId,
    /// Access kind ([`AccessKind::Write`] never stalls the core).
    pub kind: AccessKind,
    /// Byte address.
    pub addr: Address,
}

/// What one core cycle produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreAction {
    /// Kept working (or stalled) — nothing for the memory system.
    Progress,
    /// Issue this L2 transaction. Reads/fetches leave the core stalled
    /// until [`InOrderCore::data_returned`]; writes proceed immediately.
    Request(MemRequest),
    /// The trace is exhausted; the core retired its last instruction.
    Halted,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Fetch the next trace op on the coming cycle.
    NeedOp,
    /// Executing the non-memory burst before `op`.
    Gap { left: u32, op: TraceOp },
    /// The memory instruction of `op` issues next cycle.
    MemReady { op: TraceOp },
    /// An L1 hit is being serviced (multi-cycle L1).
    L1Busy { left: u32 },
    /// Blocked on an outstanding read/fetch L2 transaction.
    WaitingData { kind: AccessKind },
    /// A store could not issue because the store buffer was full.
    StoreBlocked { op: TraceOp },
    /// Trace exhausted.
    Halted,
}

/// Per-core performance counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Elapsed cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles stalled waiting for load/fetch data.
    pub(crate) data_stall_cycles: u64,
    /// Cycles stalled on a full store buffer.
    pub(crate) store_stall_cycles: u64,
    /// Stores issued to the L2 (write-through traffic).
    pub(crate) stores_issued: u64,
}

impl CoreStats {
    /// Instructions per cycle.
    #[cfg(test)]
    pub(crate) fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// One in-order, single-issue core with split L1 I/D caches.
#[derive(Clone, Debug, PartialEq)]
pub struct InOrderCore {
    id: CpuId,
    l1d: L1Cache,
    l1i: L1Cache,
    l1_latency: u32,
    state: State,
    outstanding_stores: u32,
    store_buffer_depth: u32,
    stats: CoreStats,
}

impl InOrderCore {
    /// Creates a core with empty L1s.
    pub fn new(id: CpuId, l1: &L1Config) -> Self {
        Self {
            id,
            l1d: L1Cache::new(l1),
            l1i: L1Cache::new(l1),
            l1_latency: l1.latency,
            state: State::NeedOp,
            outstanding_stores: 0,
            store_buffer_depth: STORE_BUFFER_DEPTH,
            stats: CoreStats::default(),
        }
    }

    /// Performance counters.
    #[inline]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Whether the core has retired its whole trace.
    #[inline]
    pub fn is_halted(&self) -> bool {
        self.state == State::Halted
    }

    /// Advances the core one cycle. `next_op` supplies the trace.
    pub fn tick(&mut self, next_op: &mut dyn FnMut() -> Option<TraceOp>) -> CoreAction {
        if self.state == State::Halted {
            return CoreAction::Halted;
        }
        self.stats.cycles += 1;
        match self.state {
            State::Halted => CoreAction::Halted,
            State::WaitingData { .. } => {
                self.stats.data_stall_cycles += 1;
                CoreAction::Progress
            }
            State::L1Busy { left } => {
                if left <= 1 {
                    // The memory instruction retires at the end of the hit.
                    self.stats.instructions += 1;
                    self.state = State::NeedOp;
                } else {
                    self.state = State::L1Busy { left: left - 1 };
                }
                CoreAction::Progress
            }
            State::Gap { left, op } => {
                self.stats.instructions += 1; // one plain instruction per cycle
                self.state = if left <= 1 {
                    State::MemReady { op }
                } else {
                    State::Gap { left: left - 1, op }
                };
                CoreAction::Progress
            }
            State::MemReady { op } => self.begin_mem(op),
            State::StoreBlocked { op } => {
                if self.outstanding_stores < self.store_buffer_depth {
                    self.issue_store(op)
                } else {
                    self.stats.store_stall_cycles += 1;
                    CoreAction::Progress
                }
            }
            State::NeedOp => match next_op() {
                None => {
                    self.state = State::Halted;
                    self.stats.cycles -= 1; // this cycle did no work
                    CoreAction::Halted
                }
                Some(op) if op.gap > 0 => {
                    self.stats.instructions += 1;
                    self.state = if op.gap == 1 {
                        State::MemReady { op }
                    } else {
                        State::Gap {
                            left: op.gap - 1,
                            op,
                        }
                    };
                    CoreAction::Progress
                }
                Some(op) => self.begin_mem(op),
            },
        }
    }

    /// The memory instruction of `op` issues this cycle.
    fn begin_mem(&mut self, op: TraceOp) -> CoreAction {
        match op.kind {
            AccessKind::Read | AccessKind::IFetch => {
                let cache = match op.kind {
                    AccessKind::IFetch => &mut self.l1i,
                    _ => &mut self.l1d,
                };
                if cache.access(op.addr) {
                    // Hit: busy for the remaining L1 latency.
                    if self.l1_latency <= 1 {
                        self.stats.instructions += 1;
                        self.state = State::NeedOp;
                    } else {
                        self.state = State::L1Busy {
                            left: self.l1_latency - 1,
                        };
                    }
                    CoreAction::Progress
                } else {
                    self.state = State::WaitingData { kind: op.kind };
                    CoreAction::Request(MemRequest {
                        cpu: self.id,
                        kind: op.kind,
                        addr: op.addr,
                    })
                }
            }
            AccessKind::Write => {
                if self.outstanding_stores < self.store_buffer_depth {
                    self.issue_store(op)
                } else {
                    self.stats.store_stall_cycles += 1;
                    self.state = State::StoreBlocked { op };
                    CoreAction::Progress
                }
            }
        }
    }

    /// Issues a write-through store (no-write-allocate).
    fn issue_store(&mut self, op: TraceOp) -> CoreAction {
        // Update the local copy if present (keeps L1 coherent with the
        // store); misses do not allocate.
        let _ = self.l1d.access(op.addr);
        self.outstanding_stores += 1;
        self.stats.stores_issued += 1;
        self.stats.instructions += 1; // the store retires into the buffer
        self.state = State::NeedOp;
        CoreAction::Request(MemRequest {
            cpu: self.id,
            kind: AccessKind::Write,
            addr: op.addr,
        })
    }

    /// Completes an outstanding load/fetch: fills the L1 and unblocks.
    /// Returns the L1 line evicted by the fill, if any (the directory
    /// must be told).
    ///
    /// # Panics
    ///
    /// Panics if the core was not waiting for data.
    pub fn data_returned(&mut self, addr: Address) -> Option<LineAddr> {
        let State::WaitingData { kind } = self.state else {
            panic!("data returned to a core that was not waiting");
        };
        let cache = match kind {
            AccessKind::IFetch => &mut self.l1i,
            _ => &mut self.l1d,
        };
        let evicted = cache.fill(addr);
        self.stats.instructions += 1; // the blocked instruction retires
        self.state = State::NeedOp;
        evicted
    }

    /// A write-through store left the memory system; frees a buffer slot.
    ///
    /// # Panics
    ///
    /// Panics (debug) if no store was outstanding.
    pub fn store_completed(&mut self) {
        debug_assert!(self.outstanding_stores > 0);
        self.outstanding_stores -= 1;
    }

    /// Invalidates a line in the L1 D-cache (coherence).
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        self.l1d.invalidate(line)
    }

    /// Installs a line directly into the appropriate L1 (warm-up state
    /// setup, not a timed event). Returns the line evicted by the fill.
    pub fn prefill(&mut self, addr: Address, kind: AccessKind) -> Option<LineAddr> {
        match kind {
            AccessKind::IFetch => self.l1i.fill(addr),
            AccessKind::Read | AccessKind::Write => self.l1d.fill(addr),
        }
    }

    /// How many of the coming cycles this core spends without any
    /// external interaction: the rest of an instruction gap or an L1
    /// hit, keeping the tick that ends it; `u64::MAX` while it waits for
    /// data or has halted (only the memory system, or nothing, changes
    /// it then); 0 when the next tick reads the trace, issues, or
    /// retries a full store buffer.
    #[inline]
    pub fn skippable_cycles(&self) -> u64 {
        match self.state {
            State::Gap { left, .. } | State::L1Busy { left } => u64::from(left.saturating_sub(1)),
            State::WaitingData { .. } | State::Halted => u64::MAX,
            State::NeedOp | State::MemReady { .. } | State::StoreBlocked { .. } => 0,
        }
    }

    /// Accounts `n` cycles exactly as `n` calls of
    /// [`tick`](Self::tick) would: a gap retires one instruction a
    /// cycle, an L1 hit and a data wait only pass time, a halted core
    /// counts nothing. Callers must respect
    /// [`skippable_cycles`](Self::skippable_cycles).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the skip would cross an interaction point.
    #[inline]
    pub fn skip(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        debug_assert!(n <= self.skippable_cycles());
        match &mut self.state {
            State::Gap { left, .. } => {
                *left -= n as u32;
                self.stats.instructions += n;
                self.stats.cycles += n;
            }
            State::L1Busy { left } => {
                *left -= n as u32;
                self.stats.cycles += n;
            }
            State::WaitingData { .. } => {
                self.stats.data_stall_cycles += n;
                self.stats.cycles += n;
            }
            State::Halted => {}
            State::NeedOp | State::MemReady { .. } | State::StoreBlocked { .. } => {
                unreachable!("a core that must act next cycle cannot skip")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nim_types::L1Config;

    fn core() -> InOrderCore {
        InOrderCore::new(CpuId(0), &L1Config::default())
    }

    fn op(gap: u32, kind: AccessKind, addr: u64) -> TraceOp {
        TraceOp {
            gap,
            kind,
            addr: Address(addr),
        }
    }

    /// Drives the core over a fixed op list, answering every request
    /// after `mem_latency` ticks. Returns the stats.
    fn run(ops: Vec<TraceOp>, mem_latency: u64) -> CoreStats {
        let mut core = core();
        let mut it = ops.into_iter();
        let mut pending: Option<(u64, Address)> = None;
        let mut now = 0u64;
        while !core.is_halted() && now < 1_000_000 {
            now += 1;
            if let Some((due, addr)) = pending {
                if due == now {
                    core.data_returned(addr);
                    pending = None;
                }
            }
            match core.tick(&mut || it.next()) {
                CoreAction::Request(r) if r.kind != AccessKind::Write => {
                    pending = Some((now + mem_latency, r.addr));
                }
                CoreAction::Request(_) => core.store_completed(),
                _ => {}
            }
        }
        *core.stats()
    }

    #[test]
    fn pure_compute_runs_at_ipc_one() {
        // A single op with a long gap and one L1-hittable read at the end.
        let stats = run(vec![op(100, AccessKind::Write, 0)], 10);
        // 100 gap instructions + 1 store, one per cycle.
        assert_eq!(stats.instructions, 101);
        assert_eq!(stats.cycles, 101);
        assert!((stats.ipc() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn l1_hit_costs_the_l1_latency() {
        // Two reads to the same address: miss (fill), then 3-cycle hit.
        let stats = run(
            vec![op(1, AccessKind::Read, 0x40), op(1, AccessKind::Read, 0x40)],
            10,
        );
        // gap(1) + issue(1) + wait(9) + gap(1) + issue-hit(3) = 15 cycles, 4 instrs.
        assert_eq!(stats.instructions, 4);
        assert_eq!(stats.cycles, 15);
        assert_eq!(stats.data_stall_cycles, 9);
    }

    #[test]
    fn read_miss_stalls_for_the_memory_latency() {
        let stats = run(vec![op(1, AccessKind::Read, 0x80)], 50);
        assert_eq!(
            stats.data_stall_cycles, 49,
            "stalled from issue+1 to return"
        );
        assert_eq!(stats.instructions, 2);
    }

    #[test]
    fn stores_do_not_stall_until_the_buffer_fills() {
        let mut core = core();
        let mut ops = (0..20u64)
            .map(|i| op(1, AccessKind::Write, i * 64))
            .collect::<Vec<_>>()
            .into_iter();
        let mut issued = 0;
        let mut blocked_cycles = 0;
        for _ in 0..200 {
            match core.tick(&mut || ops.next()) {
                CoreAction::Request(r) => {
                    assert_eq!(r.kind, AccessKind::Write);
                    issued += 1;
                    // Never complete stores: the buffer must fill at 8.
                }
                CoreAction::Halted => break,
                CoreAction::Progress => blocked_cycles += 1,
            }
        }
        assert_eq!(issued, STORE_BUFFER_DEPTH);
        assert!(core.stats().store_stall_cycles > 0);
        assert!(blocked_cycles > 0);
        // Draining one slot lets the next store go.
        core.store_completed();
        let act = core.tick(&mut || ops.next());
        assert!(matches!(act, CoreAction::Request(_)));
    }

    #[test]
    fn ifetch_uses_the_instruction_cache() {
        let mut core = core();
        let mut ops = vec![op(0, AccessKind::IFetch, 0x1000)].into_iter();
        let act = core.tick(&mut || ops.next());
        assert!(matches!(
            act,
            CoreAction::Request(MemRequest {
                kind: AccessKind::IFetch,
                ..
            })
        ));
        core.data_returned(Address(0x1000));
        assert_eq!(core.l1i.stats().misses, 1);
        assert_eq!(core.l1d.stats().misses, 0);
    }

    #[test]
    fn invalidation_forces_the_next_read_to_miss() {
        let mut core = core();
        let a = Address(0x40);
        let mut ops =
            vec![op(0, AccessKind::Read, 0x40), op(0, AccessKind::Read, 0x40)].into_iter();
        assert!(matches!(
            core.tick(&mut || ops.next()),
            CoreAction::Request(_)
        ));
        core.data_returned(a);
        assert!(core.invalidate(a.line(64)));
        let act = core.tick(&mut || ops.next());
        assert!(
            matches!(act, CoreAction::Request(_)),
            "invalidate made it miss again"
        );
    }

    #[test]
    fn skip_preserves_instruction_accounting() {
        let mut core = core();
        let mut ops = vec![op(50, AccessKind::Write, 0)].into_iter();
        core.tick(&mut || ops.next()); // enters the gap, retires 1
        let skippable = core.skippable_cycles();
        assert_eq!(skippable, 48, "49 left, keep 1 for the transition tick");
        core.skip(skippable);
        assert_eq!(core.stats().instructions, 49);
        assert_eq!(core.stats().cycles, 49);
        // Finish normally.
        let mut done = false;
        for _ in 0..5 {
            if matches!(core.tick(&mut || ops.next()), CoreAction::Request(_)) {
                done = true;
                break;
            }
        }
        assert!(done, "store issues after the gap completes");
        assert_eq!(core.stats().instructions, 51);
        let mut none = || None;
        while !core.is_halted() {
            core.tick(&mut none);
        }
        assert_eq!(core.skippable_cycles(), u64::MAX, "halted cores never wake");
        let halted = *core.stats();
        core.skip(1_000);
        assert_eq!(*core.stats(), halted, "a halted core counts nothing");
    }

    #[test]
    fn halts_when_the_trace_ends() {
        let stats = run(vec![], 1);
        assert_eq!(stats.instructions, 0);
        assert_eq!(stats.cycles, 0);
        let mut core = core();
        let mut none = || None;
        assert_eq!(core.tick(&mut none), CoreAction::Halted);
        assert!(core.is_halted());
        assert_eq!(core.tick(&mut none), CoreAction::Halted, "stays halted");
    }

    #[test]
    #[should_panic(expected = "not waiting")]
    fn unsolicited_data_panics() {
        let mut core = core();
        core.data_returned(Address(0));
    }
}
