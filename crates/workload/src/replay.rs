//! Replaying recorded traces.
//!
//! [`ReplayTrace`] loads a trace written by
//! [`TraceWriter`](crate::TraceWriter) into per-CPU queues and implements
//! [`TraceSource`], so a recorded reference stream can drive the
//! simulator exactly as the synthetic generator does — useful for
//! comparing cache policies on bit-identical inputs, or for driving the
//! system with externally captured traces.

use std::collections::VecDeque;
use std::io::BufRead;

use nim_types::{CpuId, TraceOp};

use crate::generator::TraceSource;
use crate::trace_io::{TraceReadError, TraceReader};

/// A fully-loaded trace, ready to replay.
#[derive(Clone, Debug, Default)]
pub struct ReplayTrace {
    queues: Vec<VecDeque<TraceOp>>,
    /// References already served, across every CPU.
    served: u64,
}

impl ReplayTrace {
    /// Loads a trace from any reader (see
    /// [`TRACE_HEADER`](crate::TRACE_HEADER) for the format). Pass
    /// `&mut reader` to keep using the reader afterwards.
    ///
    /// # Errors
    ///
    /// Propagates parse errors from [`TraceReader`].
    pub fn from_reader<R: BufRead>(input: R) -> Result<Self, TraceReadError> {
        let mut reader = TraceReader::new(input)?;
        let mut trace = ReplayTrace::default();
        while let Some((cpu, op)) = reader.next_record()? {
            trace.push(cpu, op);
        }
        Ok(trace)
    }

    /// Appends one reference to a CPU's queue.
    pub fn push(&mut self, cpu: CpuId, op: TraceOp) {
        if self.queues.len() <= cpu.index() {
            self.queues.resize_with(cpu.index() + 1, VecDeque::new);
        }
        self.queues[cpu.index()].push_back(op);
    }

    /// References still queued for one CPU.
    pub fn remaining(&self, cpu: CpuId) -> usize {
        self.queues.get(cpu.index()).map_or(0, VecDeque::len)
    }

    /// Total references still queued.
    pub fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Whether every queue is drained.
    pub fn is_empty(&self) -> bool {
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
    use crate::{BenchmarkProfile, TraceGenerator, TraceWriter};

    #[test]
    fn replay_reproduces_the_recorded_stream_per_cpu() {
        let mut gen = TraceGenerator::new(&BenchmarkProfile::synthetic(), 2, 9);
        let mut writer = TraceWriter::new(Vec::new()).unwrap();
        let mut expected: Vec<Vec<TraceOp>> = vec![Vec::new(); 2];
        for i in 0..200u16 {
            let cpu = CpuId(i % 2);
            let op = gen.next_op(cpu);
            writer.record(cpu, op).unwrap();
            expected[cpu.index()].push(op);
        }
        let bytes = writer.finish().unwrap();
        let mut replay = ReplayTrace::from_reader(bytes.as_slice()).unwrap();
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
