//! Replaying scripted reference streams.
//!
//! [`ReplayTrace`] holds per-CPU queues of references and implements
//! [`TraceSource`], so a recorded or hand-written reference stream can
//! drive the simulator exactly as the synthetic generator does — the
//! scenario tests script single transactions through it.

use std::collections::VecDeque;

use nim_types::{CpuId, TraceOp};

use crate::generator::TraceSource;

/// A fully-loaded trace, ready to replay.
#[derive(Clone, Debug, Default)]
pub struct ReplayTrace {
    queues: Vec<VecDeque<TraceOp>>,
    /// References already served, across every CPU.
    served: u64,
}

impl ReplayTrace {
    /// Appends one reference to a CPU's queue.
    pub fn push(&mut self, cpu: CpuId, op: TraceOp) {
        if self.queues.len() <= cpu.index() {
            self.queues.resize_with(cpu.index() + 1, VecDeque::new);
        }
        self.queues[cpu.index()].push_back(op);
    }

    /// References still queued for one CPU.
    #[cfg(test)]
    pub(crate) fn remaining(&self, cpu: CpuId) -> usize {
        self.queues.get(cpu.index()).map_or(0, VecDeque::len)
    }

    /// Total references still queued.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Whether every queue is drained.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }
}

impl TraceSource for ReplayTrace {
    fn next_for(&mut self, cpu: CpuId) -> Option<TraceOp> {
        let op = self.queues.get_mut(cpu.index())?.pop_front()?;
        self.served += 1;
        Some(op)
    }

    fn served(&self) -> u64 {
        self.served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchmarkProfile, TraceGenerator};

    #[test]
    fn replay_reproduces_the_recorded_stream_per_cpu() {
        let mut gen = TraceGenerator::new(&BenchmarkProfile::synthetic(), 2, 9);
        let mut replay = ReplayTrace::default();
        let mut expected: Vec<Vec<TraceOp>> = vec![Vec::new(); 2];
        for i in 0..200u16 {
            let cpu = CpuId(i % 2);
            let op = gen.next_op(cpu);
            replay.push(cpu, op);
            expected[cpu.index()].push(op);
        }
        assert_eq!(replay.len(), 200);
        assert_eq!(replay.remaining(CpuId(0)), 100);
        for cpu in [CpuId(0), CpuId(1)] {
            for want in &expected[cpu.index()] {
                assert_eq!(replay.next_for(cpu), Some(*want));
            }
            assert_eq!(replay.next_for(cpu), None, "stream ends");
        }
        assert!(replay.is_empty());
        assert_eq!(replay.served(), 200);
    }

    #[test]
    fn unknown_cpus_have_empty_streams() {
        let mut replay = ReplayTrace::default();
        assert_eq!(replay.next_for(CpuId(5)), None);
        assert_eq!(replay.remaining(CpuId(5)), 0);
        assert!(replay.is_empty());
    }
}
