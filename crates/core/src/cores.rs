//! The cores as the run loop drives them: each one is ticked only on the
//! cycles it acts.
//!
//! The paper's cores are in-order and block on every L2 read, so most of
//! a core's cycles wait for data, count down an instruction gap, or sit
//! in a multi-cycle L1 hit. None of those touch anything outside the
//! core. [`Cores`] records, per core, the cycle its accounting is
//! complete through and the next cycle it must be ticked. It folds the
//! cycles in between into one [`InOrderCore::skip`], which adds exactly
//! what the skipped ticks would have added. The clock itself still
//! advances one cycle at a time: only the call into an idle core goes.
//!
//! Accounting lags while a core sleeps, so whoever reads a core's
//! counters first brings it up to date ([`Cores::settle`]).

use nim_cpu::{CoreAction, InOrderCore};
use nim_types::{AccessKind, Address, CpuId, LineAddr, TraceOp};

/// The chip's cores with their sleep bookkeeping. Only this type calls
/// [`InOrderCore::skip`].
#[derive(Debug)]
pub(crate) struct Cores {
    cores: Vec<InOrderCore>,
    /// Per core: the last cycle its counters account for.
    settled: Vec<u64>,
    /// Per core: the next cycle it must be ticked (`u64::MAX`: halted,
    /// or waiting for data that [`Cores::data_returned`] delivers).
    wake: Vec<u64>,
}

impl Cores {
    /// Cores up to date at cycle 0, each due on cycle 1.
    pub(crate) fn new(cores: Vec<InOrderCore>) -> Self {
        let n = cores.len();
        Self {
            cores,
            settled: vec![0; n],
            wake: vec![1; n],
        }
    }

    /// Number of cores.
    pub(crate) fn len(&self) -> usize {
        self.cores.len()
    }

    /// The cores, for reading their state and (once settled) counters.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, InOrderCore> {
        self.cores.iter()
    }

    /// Whether core `i` must be ticked at cycle `now`; a core that is not
    /// due sleeps through it.
    #[inline]
    pub(crate) fn is_due(&self, i: usize, now: u64) -> bool {
        self.wake[i] <= now
    }

    /// Ticks core `i`, due at cycle `now`, after accounting the idle
    /// cycles since it last acted.
    #[inline]
    pub(crate) fn tick(
        &mut self,
        i: usize,
        now: u64,
        next_op: &mut dyn FnMut() -> Option<TraceOp>,
    ) -> CoreAction {
        debug_assert!(self.is_due(i, now), "core {i} ticked while asleep at {now}");
        let core = &mut self.cores[i];
        core.skip(now - 1 - self.settled[i]);
        let action = core.tick(next_op);
        self.settled[i] = now;
        self.wake[i] = now
            .saturating_add(core.skippable_cycles())
            .saturating_add(1);
        action
    }

    /// Brings every core's counters up to `cycle`, the last cycle the run
    /// has completed. Wake cycles do not move.
    pub(crate) fn settle(&mut self, cycle: u64) {
        for i in 0..self.cores.len() {
            self.settle_one(i, cycle);
        }
    }

    fn settle_one(&mut self, i: usize, cycle: u64) {
        if cycle > self.settled[i] {
            self.cores[i].skip(cycle - self.settled[i]);
            self.settled[i] = cycle;
        }
    }

    /// A read's data reached `cpu` at `now`, before the core loop of
    /// `now`: account its wait through `now − 1`, wake it for `now`, and
    /// complete the read. Returns the L1 line the fill evicted.
    pub(crate) fn data_returned(
        &mut self,
        cpu: CpuId,
        addr: Address,
        now: u64,
    ) -> Option<LineAddr> {
        let i = cpu.index();
        self.settle_one(i, now.saturating_sub(1));
        self.wake[i] = now;
        self.cores[i].data_returned(addr)
    }

    /// A store of `cpu` left the memory system. A core blocked on a full
    /// buffer is due every cycle already, so nothing wakes.
    pub(crate) fn store_completed(&mut self, cpu: CpuId) {
        self.cores[cpu.index()].store_completed();
    }

    /// Invalidates `line` in `cpu`'s L1 (pipeline state is untouched).
    pub(crate) fn invalidate(&mut self, cpu: CpuId, line: LineAddr) {
        self.cores[cpu.index()].invalidate(line);
    }

    /// Installs a line in `cpu`'s L1 before the run (no cycles pass).
    pub(crate) fn prefill(
        &mut self,
        cpu: CpuId,
        addr: Address,
        kind: AccessKind,
    ) -> Option<LineAddr> {
        self.cores[cpu.index()].prefill(addr, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nim_types::L1Config;
    use proptest::prelude::*;

    /// One trace op: a kind (read, fetch, store), a gap of 0–40, and an
    /// address from a small pool so L1 hits happen.
    fn trace_op() -> impl Strategy<Value = TraceOp> {
        (0u8..3, 0u32..41, 0u64..24).prop_map(|(kind, gap, line)| TraceOp {
            gap,
            kind: match kind {
                0 => AccessKind::Read,
                1 => AccessKind::IFetch,
                _ => AccessKind::Write,
            },
            addr: Address(0x1000 + line * 64),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A core driven through [`Cores`] (asleep between actions) and
        /// the same core ticked every cycle see one trace and one reply
        /// schedule, and produce the same action on every cycle the
        /// sleeper acts; on the cycles it sleeps, the ticked core only
        /// progresses or stays halted. At random cycles the sleeper is
        /// settled and both must agree on counters and state.
        #[test]
        fn a_sleeping_core_matches_a_core_ticked_every_cycle(
            ops in proptest::collection::vec(trace_op(), 1..120),
            latencies in proptest::collection::vec(1u64..301, 1..64),
            settle_every in 1u64..400,
        ) {
            let l1 = L1Config::default();
            let mut ticked = InOrderCore::new(CpuId(0), &l1);
            let mut cores = Cores::new(vec![InOrderCore::new(CpuId(0), &l1)]);
            let (mut trace_a, mut trace_b) = (ops.iter().copied(), ops.iter().copied());
            let mut replies = latencies.iter().copied().cycle();
            // Replies in flight: (due, Some(addr) for a read, None for a store).
            let mut pending: Vec<(u64, Option<Address>)> = Vec::new();
            let mut now = 0u64;
            while !ticked.is_halted() || !pending.is_empty() {
                now += 1;
                prop_assert!(now < 200_000, "the trace drains");
                let mut due = Vec::new();
                pending.retain(|&(at, what)| {
                    let ready = at == now;
                    if ready {
                        due.push(what);
                    }
                    !ready
                });
                for what in due {
                    match what {
                        Some(addr) => {
                            prop_assert_eq!(ticked.data_returned(addr), cores.data_returned(CpuId(0), addr, now));
                        }
                        None => {
                            ticked.store_completed();
                            cores.store_completed(CpuId(0));
                        }
                    }
                }
                let want = ticked.tick(&mut || trace_a.next());
                if cores.is_due(0, now) {
                    let got = cores.tick(0, now, &mut || trace_b.next());
                    prop_assert_eq!(got, want, "cycle {}", now);
                } else {
                    prop_assert!(
                        matches!(want, CoreAction::Progress | CoreAction::Halted),
                        "cycle {}: slept through {:?}", now, want
                    );
                }
                if let CoreAction::Request(req) = want {
                    let reply = now + replies.next().expect("cycled");
                    let addr = (req.kind != AccessKind::Write).then_some(req.addr);
                    pending.push((reply, addr));
                }
                if now.is_multiple_of(settle_every) {
                    cores.settle(now);
                    let slept = cores.iter().next().expect("one core");
                    prop_assert_eq!(slept.stats(), ticked.stats(), "cycle {}", now);
                    prop_assert_eq!(slept.skippable_cycles(), ticked.skippable_cycles());
                    prop_assert_eq!(slept, &ticked, "cycle {}", now);
                }
            }
            cores.settle(now);
            let slept = cores.iter().next().expect("one core");
            prop_assert_eq!(slept.stats(), ticked.stats());
            prop_assert_eq!(slept, &ticked);
        }
    }

    /// Stores answered only after 300 cycles fill the eight-entry buffer:
    /// the blocked core is due every cycle and never sleeps through the
    /// slot that frees it.
    #[test]
    fn a_core_blocked_on_a_full_store_buffer_is_due_every_cycle() {
        let l1 = L1Config::default();
        let mut cores = Cores::new(vec![InOrderCore::new(CpuId(0), &l1)]);
        let store = TraceOp {
            gap: 0,
            kind: AccessKind::Write,
            addr: Address(0x40),
        };
        let mut issued = 0;
        for now in 1..=20 {
            assert!(
                cores.is_due(0, now),
                "cycle {now}: a storing core never sleeps"
            );
            let action = cores.tick(0, now, &mut || Some(store));
            issued += u32::from(matches!(action, CoreAction::Request(_)));
        }
        assert_eq!(issued, nim_cpu::STORE_BUFFER_DEPTH);
        cores.store_completed(CpuId(0));
        assert!(cores.is_due(0, 21));
        let action = cores.tick(0, 21, &mut || Some(store));
        assert!(matches!(action, CoreAction::Request(_)), "{action:?}");
    }
}
